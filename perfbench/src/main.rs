//! The repository benchmark: three workloads driven through the prf crates'
//! public APIs, with every answer checked outside the timed region.
//!
//! ```text
//! perfbench --workload <direct-iip|serve-tree|live-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--serve-rate <q/s>]
//! perfbench --self-test
//! ```
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) records spans around each layer call and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Any wrong
//! answer makes the command exit with code 1. `README.md` lists every
//! metric, the layer it observes and what it should move.

mod direct;
mod live_churn;
mod oracle;
mod probes;
mod serve_tree;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.relation_s", "s"),
    ("prepare.order_ms", "ms"),
    ("walk.independent_ms", "ms"),
    ("walk.tree_ms", "ms"),
    ("finalize.rank_full_ms", "ms"),
    ("finalize.rank_top100_ms", "ms"),
    ("query.kernel_ms", "ms"),
    ("query.total_ms", "ms"),
    ("query.dispatch_ms", "ms"),
    ("query.batch_of_one_ratio", "ratio"),
    ("shard.walk_ms", "ms"),
    ("shard.finalize_ms", "ms"),
    ("shard.overhead_ratio", "ratio"),
    ("serve.register_ms", "ms"),
    ("serve.admit_us", "us"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p95_ms", "ms"),
    ("serve.eval_ms", "ms"),
    ("serve.deliver_ms", "ms"),
    ("serve.flush_size", "count"),
    ("walk.consumers", "count"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.panics_caught", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations_per_mutation", "ratio"),
    ("live.apply_ms", "ms"),
    ("live.apply_direct_us", "us"),
    ("live.requery_kernel_ms", "ms"),
    ("live.delta_lag_ms", "ms"),
    ("op.batch_p50_ms", "ms"),
    ("op.hit_p50_ms", "ms"),
    ("op.mutation_p50_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
    ("client.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// The set-up is repeated at least `SETUP_REPS.0` times, and until
/// `SETUP_BUDGET_S` seconds have gone into it, but at most `SETUP_REPS.1`
/// times; `setup_s` is the median. A short set-up is repeated more, so its
/// median is as steady as a long one's.
pub const SETUP_REPS: (usize, usize) = (5, 25);
pub const SETUP_BUDGET_S: f64 = 2.0;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    DirectIip,
    ServeTree,
    LiveChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DirectIip,
        Workload::ServeTree,
        Workload::LiveChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DirectIip => "direct-iip",
            Workload::ServeTree => "serve-tree",
            Workload::LiveChurn => "live-churn",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered rate of the `serve-tree` open loop, queries per second.
    pub serve_rate: f64,
    /// Shrinks every size for the self-test.
    pub tiny: bool,
}

impl Config {
    /// `full` normally, `tiny` in the self-test.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Run {
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub stamp: Vec<(&'static str, String)>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.insert(name, (value, unit));
    }

    /// Sets `name` unless the workload's own path already measured it.
    pub fn fill(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.entry(name).or_insert((value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// A wrong answer: counted as a failed op and reported.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    pub fn stamp(&mut self, key: &'static str, value: impl ToString) {
        self.stamp.push((key, value.to_string()));
    }

    /// `query_p50_ms`, `query_p95_ms` and the sample count of the tail.
    pub fn set_query_latencies(&mut self, latencies_ms: &[f64]) {
        let (tail, q) = stats::tail(latencies_ms);
        self.set("query_p50_ms", "ms", stats::median(latencies_ms));
        self.set("query_p95_ms", "ms", tail);
        self.stamp("query_samples", latencies_ms.len());
        self.stamp("query_tail_quantile", q);
    }
}

/// Runs `setup` repeatedly (see `SETUP_REPS`; `setup_s` is the median
/// wall time) and keeps the last result; earlier ones are dropped before
/// the next starts.
pub fn repeated_setup<T>(run: &mut Run, mut setup: impl FnMut() -> T) -> T {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    run.set("setup_s", "s", stats::median(&times));
    run.stamp("setup_reps", times.len());
    kept.expect("SETUP_REPS.0 > 0")
}

/// `VmHWM` of this process in MB (0 where /proc is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A finite JSON number with all its digits (`null` otherwise).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload and returns its result.
pub fn run_workload(cfg: &Config) -> Run {
    let mut run = Run::default();
    let tracer = Tracer::new(cfg.trace);
    match cfg.workload {
        Workload::DirectIip => direct::run(cfg, &tracer, &mut run),
        Workload::ServeTree => serve_tree::run(cfg, &tracer, &mut run),
        Workload::LiveChurn => live_churn::run(cfg, &tracer, &mut run),
    }
    if cfg.trace && !cfg.tiny {
        let dir = std::path::Path::new(".bench_out");
        let file = dir.join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, tracer.to_jsonl()))
        {
            eprintln!("could not write {}: {e}", file.display());
        }
    }
    run
}

/// The result line: the metrics the mode reports, in `BENCHMARK.json` order.
fn result_json(cfg: &Config, run: &Run) -> Result<String, String> {
    let names = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        match run.metrics.get(name) {
            Some(&(v, _)) if v.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )),
            _ => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.mismatches.is_empty(),
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    ))
}

fn stamp_json(cfg: &Config, run: &Run) -> String {
    let mut fields = vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", (cfg.trace as u8).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("git_sha", command_output("git", &["rev-parse", "HEAD"])),
        ("rustc", command_output("rustc", &["-V"])),
    ];
    fields.extend(run.stamp.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let all: Vec<String> = run
        .metrics
        .iter()
        .map(|(k, (v, u))| format!("{}: [{}, {}]", json_str(k), json_num(*v), json_str(u)))
        .collect();
    format!(
        "{{\"record\": {{\"stamp\": {{{}}}, \"measured\": {{{}}}}}}}",
        body.join(", "),
        all.join(", ")
    )
}

fn print_table(run: &Run) {
    println!("{:<36} {:>16}  unit", "metric", "value");
    for (name, (v, unit)) in &run.metrics {
        println!("{name:<36} {v:>16.6}  {unit}");
    }
    let rate = run.failed as f64 / run.attempted.max(1) as f64;
    println!("{:<36} {:>16.6}  ratio", "error_rate", rate);
    for m in &run.mismatches {
        println!("MISMATCH: {m}");
    }
}

fn parse_args() -> Result<Option<Config>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let mut cfg = Config {
        workload: Workload::DirectIip,
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_rate: 12.0,
        tiny: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--serve-rate" => cfg.serve_rate = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !(cfg.seconds > 0.0 && cfg.serve_rate > 0.0) {
        return Err("--seconds and --serve-rate must be positive".into());
    }
    Ok(Some(cfg))
}

/// Tiny passes of every workload in both modes, plus a corrupted answer
/// that the checks must catch.
fn self_test() -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                seconds: 0.4,
                trace,
                serve_rate: 200.0,
                tiny: true,
            };
            let run = run_workload(&cfg);
            result_json(&cfg, &run)?;
            if !run.mismatches.is_empty() || run.failed > 0 || run.attempted == 0 {
                return Err(format!(
                    "{} (trace {trace}): {} failed of {}: {:?}",
                    workload.name(),
                    run.failed,
                    run.attempted,
                    run.mismatches
                ));
            }
            println!(
                "self-test {} trace={}: ok ({} ops)",
                workload.name(),
                trace as u8,
                run.attempted
            );
        }
    }
    direct::corrupted_answer_is_caught()?;
    println!("self-test corrupted answer: caught");
    Ok(())
}

fn main() {
    let cfg = match parse_args() {
        Ok(Some(cfg)) => cfg,
        Ok(None) => match self_test() {
            Ok(()) => return,
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload <direct-iip|serve-tree|live-churn> --seed <n> --seconds <s> --trace <0|1> [--serve-rate <q/s>] | --self-test");
            std::process::exit(2);
        }
    };
    let run = run_workload(&cfg);
    print_table(&run);
    println!("{}", stamp_json(&cfg, &run));
    match result_json(&cfg, &run) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(3);
        }
    }
    if !run.mismatches.is_empty() {
        std::process::exit(1);
    }
}
