//! Quickstart: ranking a small uncertain relation every way the library
//! knows how — through the one unified entry point, `RankQuery`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use prf::core::query::kernels::k_selection;
use prf::prelude::*;

fn main() {
    // A tiny purchasing decision: candidate offers with a quality score and
    // a probability that the listing is still valid (the paper's House
    // Search motivation).
    let offers = [
        ("penthouse, stale listing", 100.0, 0.35),
        ("great condo", 85.0, 0.75),
        ("solid townhouse", 70.0, 0.95),
        ("fixer-upper", 50.0, 1.00),
        ("mystery auction", 90.0, 0.50),
    ];
    let db =
        IndependentDb::from_pairs(offers.iter().map(|&(_, s, p)| (s, p))).expect("valid offers");
    let name = |id: prf::pdb::TupleId| offers[id.index()].0;

    println!("offers (score, probability):");
    for (n, s, p) in &offers {
        println!("  {n:<25} score {s:>5}  p {p:.2}");
    }

    // --- The PRF family, one query builder ------------------------------
    // PT(2): probability of making the top 2.
    let pt = RankQuery::pt(2).run(&db).expect("PT on independent data");
    println!("\nPT(2) ranking (by Pr(rank ≤ 2)):");
    for (i, &t) in pt.ranking.order().iter().enumerate() {
        println!(
            "  {}. {} (Pr = {:.3})",
            i + 1,
            name(t),
            pt.ranking.key_at(i)
        );
    }

    // PRFe(α) spans a spectrum between score-like and probability-like
    // behaviour — same entry point, different semantics.
    for alpha in [0.3, 0.9] {
        let r = RankQuery::prfe(alpha).run(&db).expect("PRFe everywhere");
        let names: Vec<&str> = r.ranking.order().iter().map(|&t| name(t)).collect();
        println!(
            "\nPRFe({alpha}) ranking ({} algorithm): {}",
            r.report.algorithm.name(),
            names.join(" > ")
        );
    }

    // --- Prior semantics: also just `Semantics` variants -----------------
    println!("\nbaselines (every one through the same engine):");
    let top2: Vec<&str> = RankQuery::pt(2)
        .top_k(2)
        .run(&db)
        .expect("PT")
        .ranking
        .order()
        .iter()
        .map(|&t| name(t))
        .collect();
    println!("  PT(2) top-2:      {}", top2.join(", "));
    let urank = RankQuery::urank(2).run(&db).expect("U-Rank");
    let u: Vec<&str> = urank.ranking.order().iter().map(|&t| name(t)).collect();
    println!("  U-Rank top-2:     {}", u.join(", "));
    if let Some(set) = RankQuery::utop(2).run(&db).ok().and_then(|r| r.set) {
        let names: Vec<&str> = set.members.iter().map(|&t| name(t)).collect();
        println!(
            "  U-Top top-2:      {} (Pr = {:.3})",
            names.join(", "),
            set.log_prob.exp()
        );
    }
    let es = RankQuery::escore().run(&db).expect("E-Score");
    println!("  E-Score winner:   {}", name(es.ranking.order()[0]));
    let er = RankQuery::erank().run(&db).expect("E-Rank");
    println!("  E-Rank winner:    {}", name(er.ranking.order()[0]));
    // k-selection is the one set semantics outside the engine (and the PRF
    // family); its dynamic program stays a free function.
    if let Some((set, v)) = k_selection(&db, 2) {
        let names: Vec<&str> = set.iter().map(|&t| name(t)).collect();
        println!(
            "  k-selection(2):   {} (expected best score {v:.1})",
            names.join(", ")
        );
    }

    println!(
        "\nNote how the answers disagree — the motivation for a parameterized \
         family instead of any single fixed ranking function."
    );
}
