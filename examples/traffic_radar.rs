//! The paper's running example (Figure 1): ranking speeding cars captured
//! by an uncertain traffic-monitoring infrastructure.
//!
//! Two radars may report the same car with conflicting readings (mutual
//! exclusivity), modelled by a probabilistic and/xor tree. The example
//! walks through possible worlds, positional probabilities (Example 4),
//! PRFe evaluation (Algorithm 3) and the consensus top-k (Example 6).
//!
//! ```text
//! cargo run --release --example traffic_radar
//! ```

#![allow(clippy::needless_range_loop)] // oracle comparisons over parallel arrays

use prf::core::tree::rank_distributions_tree;
use prf::pdb::{AndXorTree, NodeKind, TreeBuilder, TupleId};
use prf::prelude::RankQuery;

/// Builds the Figure 1 tree: six radar readings, with (t2, t3) and (t4, t5)
/// mutually exclusive (same plate seen at different speeds).
fn figure1() -> (AndXorTree, Vec<&'static str>) {
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    let labels = vec![
        "X-123 @ 120", // t1
        "Y-245 @ 130", // t2
        "Y-245 @ 80",  // t3 (conflicts with t2)
        "Z-541 @ 95",  // t4 (conflicts with t5)
        "Z-541 @ 110", // t5
        "L-110 @ 105", // t6 (certain)
    ];
    let x1 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x1, 0.4, 120.0).unwrap();
    let x2 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x2, 0.7, 130.0).unwrap();
    b.add_leaf(x2, 0.3, 80.0).unwrap();
    let x3 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x3, 0.4, 95.0).unwrap();
    b.add_leaf(x3, 0.6, 110.0).unwrap();
    let x4 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x4, 1.0, 105.0).unwrap();
    (b.build().unwrap(), labels)
}

fn main() {
    let (tree, labels) = figure1();
    let name = |t: TupleId| labels[t.index()];

    // Possible worlds (the paper's second table).
    let worlds = tree.enumerate_worlds(1 << 12).expect("small tree");
    println!("possible worlds ({} total):", worlds.len());
    let mut sorted = worlds.worlds.clone();
    sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (w, p) in &sorted {
        let members: Vec<&str> = w.ranked(tree.scores()).iter().map(|&t| name(t)).collect();
        println!("  Pr {p:.3}: {{{}}}", members.join(", "));
    }

    // Positional probabilities via the generating-function expansion
    // (Algorithm 2). Example 4: Pr(r(t4) = 3) = 0.216.
    let dists = rank_distributions_tree(&tree);
    println!("\npositional probabilities Pr(r(t) = j):");
    print!("{:>14}", "");
    for j in 1..=4 {
        print!("   j={j}  ");
    }
    println!();
    for (t, d) in dists.iter().enumerate() {
        print!("{:>14}", name(TupleId(t as u32)));
        for j in 0..4 {
            print!("  {:.3} ", d[j]);
        }
        println!();
    }
    assert!((dists[3][2] - 0.216).abs() < 1e-9, "Example 4 checks out");

    // PRFe across the spectrum (Algorithm 3 — incremental evaluation),
    // through the unified engine: the same query that ranks independent
    // relations runs on the correlated tree.
    println!("\nPRFe rankings as α sweeps:");
    for alpha in [0.2, 0.6, 0.95] {
        let r = RankQuery::prfe(alpha).run(&tree).expect("PRFe on trees");
        let names: Vec<&str> = r.ranking.order().iter().map(|&t| name(t)).collect();
        println!("  α = {alpha:<4} {}", names.join(" > "));
    }

    // Consensus top-2 under symmetric difference (Example 6): {t2, t5}.
    let scores = tree.scores();
    let mut best: Option<(Vec<TupleId>, f64)> = None;
    for a in 0..6u32 {
        for b in (a + 1)..6 {
            let cand = vec![TupleId(a), TupleId(b)];
            let d = worlds.expected_symmetric_difference(&cand, 2, scores);
            if best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                best = Some((cand, d));
            }
        }
    }
    let (consensus, dist) = best.expect("pairs exist");
    let names: Vec<&str> = consensus.iter().map(|&t| name(t)).collect();
    println!(
        "\nconsensus top-2 (min expected symmetric difference): {{{}}} at E[dis] = {dist:.3}",
        names.join(", ")
    );
    assert_eq!(
        consensus,
        vec![TupleId(1), TupleId(4)],
        "Example 6: {{t2, t5}}"
    );
}
