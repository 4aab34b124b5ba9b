//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, an optional parent span and the
//! id of the operation it belongs to. Spans and sampled values (report
//! fields such as `EvalReport::kernel_seconds`) stay in memory and are
//! written out as JSON lines when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A value sampled at a layer boundary.
#[derive(Clone, Debug)]
pub struct Sample {
    pub op: u64,
    pub name: &'static str,
    pub value: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<Sample>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start = self.ns(Instant::now());
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock");
            spans.push(Span {
                op,
                name,
                parent,
                start_ns: start,
                end_ns: start,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.spans.lock().expect("tracer lock")[id].end_ns = end;
        out
    }

    /// Records a span the caller timed itself (e.g. an open-loop request,
    /// which starts when it was due rather than when it was sent).
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span {
            op,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(spans.len() - 1)
    }

    pub fn sample(&self, name: &'static str, op: u64, value: f64) {
        if self.enabled {
            self.samples
                .lock()
                .expect("tracer lock")
                .push(Sample { op, name, value });
        }
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect()
    }

    /// Self times in milliseconds of every span called `name`: its duration
    /// minus the part of its interval that its child spans cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock");
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .collect();
                (s.end_ns - s.start_ns - covered(children)) as f64 * 1e-6
            })
            .collect()
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples
            .lock()
            .expect("tracer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .collect()
    }

    /// The recorded spans and samples as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.lock().expect("tracer lock").iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        for s in self.samples.lock().expect("tracer lock").iter() {
            let _ = writeln!(
                out,
                "{{\"sample\":\"{}\",\"op\":{},\"value\":{}}}",
                s.name,
                s.op,
                crate::json_num(s.value)
            );
        }
        out
    }
}

/// Total length of the union of `intervals` (empty ones ignored).
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|&(a, b)| b > a);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![(3, 3)]), 0);
        assert_eq!(covered(Vec::new()), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let t0 = t.origin;
        let ms = Duration::from_millis;
        let root = t.record("op", 1, None, t0, t0 + ms(10));
        t.record("child", 1, root, t0 + ms(2), t0 + ms(5));
        t.record("child", 1, root, t0 + ms(4), t0 + ms(7));
        assert_eq!(t.durations_ms("op"), vec![10.0]);
        assert_eq!(t.self_ms("op"), vec![5.0]);
        assert_eq!(t.self_ms("child"), vec![3.0, 3.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, |id| id), None);
        t.sample("v", 0, 1.0);
        assert!(t.durations_ms("x").is_empty() && t.samples("v").is_empty());
    }
}
