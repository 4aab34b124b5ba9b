//! Figure 5 — approximating three weight-function shapes with increasing
//! numbers of exponentials.
//!
//! Panels: (i) the step function (`N = 1000` — the hardest case), (ii) the
//! piecewise-linear `ω(i) = 1000 − i` (clamped at 0), (iii) an arbitrary
//! smooth function. Reports the reconstruction RMS per term count; smooth
//! functions need far fewer terms, exactly as the paper observes.

use prf_core::mixture::{approximate_weights, DftApproxConfig};

use crate::{fmt, header, Scale};

/// The three panels of Figure 5 as `(name, support, ω)` triples.
#[allow(clippy::type_complexity)]
pub fn panels(n: usize) -> Vec<(&'static str, usize, Box<dyn Fn(usize) -> f64>)> {
    let nf = n as f64;
    vec![
        (
            "step",
            n,
            Box::new(move |i: usize| if i < n { 1.0 } else { 0.0 }) as Box<dyn Fn(usize) -> f64>,
        ),
        (
            "linear (1000-i)",
            n,
            Box::new(move |i: usize| if i < n { (nf - i as f64) / nf } else { 0.0 }),
        ),
        (
            "smooth",
            n,
            // An "arbitrarily generated" smooth decaying mixture of cosines.
            Box::new(move |i: usize| {
                if i >= n {
                    return 0.0;
                }
                let t = i as f64 / nf;
                let envelope = 0.5 * (1.0 + (std::f64::consts::PI * t).cos());
                let wobble = 1.0 + 0.15 * (5.0 * std::f64::consts::PI * t).sin();
                (envelope * wobble).max(0.0)
            }),
        ),
    ]
}

/// Runs the Figure 5 experiment.
pub fn run(_scale: Scale) {
    header("Figure 5: approximation quality vs number of exponentials");
    let n = 1000;
    let terms = [5usize, 10, 20, 30, 50, 100];

    println!(
        "{:>18} | {}",
        "function",
        terms
            .iter()
            .map(|l| format!("L={l:<4}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for (name, support, omega) in panels(n) {
        let mut cells = Vec::new();
        for &l in &terms {
            let mix = approximate_weights(omega.as_ref(), support, &DftApproxConfig::refined(l));
            cells.push(format!("{:<6}", fmt(mix.rms_error(omega.as_ref(), 2 * n))));
        }
        println!("{name:>18} | {}", cells.join(" "));
    }
    println!(
        "\nShape check (paper): the step function needs the most terms; the \
         linear and smooth functions are already excellent at L = 10-20."
    );

    // Sampled reconstructions at L = 20 for visual comparison.
    println!("\nReconstruction samples at L = 20:");
    print!("{:>6}", "x");
    let pans = panels(n);
    for (name, _, _) in &pans {
        print!("{:>22}", format!("{name}: w / w~"));
    }
    println!();
    let mixes: Vec<_> = pans
        .iter()
        .map(|(_, support, omega)| {
            approximate_weights(omega.as_ref(), *support, &DftApproxConfig::refined(20))
        })
        .collect();
    for x in (0..=1500).step_by(125) {
        print!("{x:>6}");
        for ((_, _, omega), mix) in pans.iter().zip(&mixes) {
            print!(
                "{:>22}",
                format!("{} / {}", fmt(omega(x)), fmt(mix.weight_at(x).re))
            );
        }
        println!();
    }
}
