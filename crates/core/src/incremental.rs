//! The incremental generating-function engine for and/xor trees.
//!
//! Algorithm 2 of the paper evaluates one tree generating function *per
//! tuple*: walking the tuples in score order, tuple `i`'s function differs
//! from tuple `i−1`'s in exactly **two leaf labels** (the previous tuple's
//! leaf flips `y → x`, the current one flips `1 → y`), yet the literal
//! implementation re-folds the entire tree each time — `O(n²·h)` on general
//! trees, the wall the Figure 10(ii)/11(iii) experiments hit. This module
//! materializes the fold state once and then touches **only the current
//! tuple's leaf-to-root path** per step, the same observation that makes
//! fast x-relation ranking possible (Chang, Yu & Qin), generalised to
//! arbitrary and/xor trees and to *any* [`GfValue`] ring — truncated rank
//! polynomials for PRFω(h)/PT(h), scalars ([`prf_numeric::Complex`],
//! log/scaled, [`prf_numeric::Dual`]) for PRFe and expected ranks.
//!
//! # Rank generating functions as leaf gradients
//!
//! The tree generating function is multilinear in its leaf labels, so the
//! `y`-coefficient Theorem 1 reads off — `B(x)` with `y` on tuple `t`'s
//! leaf — is the gradient `∂F/∂leaf(t)` under the labelling without `y`:
//! the product of the ∧ sibling values and the ∨ edge probabilities on
//! `t`'s leaf-to-root path. No leaf ever carries `y`. A walk step
//! ([`IncrementalGf::gradient_step`]) reads that gradient bottom-up with
//! one product per ∧ level (the ∨ probabilities fold into one `f64`), then
//! flips `t`'s leaf `1 → x` with fresh sibling products along the same
//! path, stopping below the root: two products per ∧ level, where putting
//! `y` on the leaf and reading the root would take three (the previous
//! leaf's `y → x` path, and the `A` and `B` halves of the current one's).
//!
//! # Division-free sibling products
//!
//! The classic incremental trick (Algorithm 3) updates an ∧-node product by
//! *dividing out* the stale child factor — fine for field scalars with
//! zero-count bookkeeping, impossible for truncated polynomials (division
//! is numerically unstable and undefined past the truncation cap). Instead,
//! [`EvalPlan`] compiles the tree into a **binarised combine plan**: every
//! ∧ node with `k` children becomes a balanced tournament of 2-child
//! product nodes, each caching its value. Updating one child recombines the
//! `O(log k)` tournament nodes on its path using the *cached sibling
//! product* at each step — the k-ary generalisation of prefix/suffix
//! sibling caches, with no division anywhere, so zero-probability edges,
//! `p = 1` leaves and ∨-slack stay exact. ∨ nodes update in `O(1)` ring
//! operations via the linear delta `F ← F + p·(new − old)`.
//!
//! Per-tuple cost drops from `O(tree size · h)` to
//! `O(depth · log fanout · h)` ring work; on the x-relation-shaped trees of
//! the experiments that is `O(h²·log(n/h))` per tuple instead of `O(n·h)` —
//! see `benches/trees.rs` for the measured ≥10× wall-clock gap.
//!
//! ∧ products are always recomputed from their children, never updated by
//! a delta (`F += (x − 1)·G`): a delta cancels catastrophically once the
//! values span many decades (EXPERIMENTS.md measures negative PT values
//! and relative errors past 1e41), while fresh products keep every value's
//! relative precision.
//!
//! # Memory accounting
//!
//! The evaluator owns one ring value per plan node; [`IncrementalGf::stats`]
//! reports the resident and peak coefficient footprint (tracked exactly, at
//! every value replacement) so callers — the `RankQuery` engine's
//! [`crate::query::EvalReport`] — can surface evaluator memory alongside
//! timings.

use prf_numeric::GfValue;
use prf_pdb::{AndXorTree, NodeKind, TupleId};

/// Sentinel parent index of the plan root.
const NO_PARENT: u32 = u32::MAX;

/// How one plan node combines its children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Combine {
    /// A tuple's leaf; holds whatever label the caller assigns.
    Leaf(TupleId),
    /// `slack + Σ pᵢ·childᵢ` — an original ∨ node (also represents
    /// childless inner nodes as the constant `slack`).
    Xor,
    /// `left · right` — one tournament node of a binarised ∧ node.
    And,
}

/// One node of the compiled combine plan.
#[derive(Clone, Debug)]
struct PlanNode {
    /// Parent plan index ([`NO_PARENT`] for the root).
    parent: u32,
    /// Probability the ∨ parent applies to this subtree (1.0 under ∧).
    edge_prob: f64,
    /// Combination rule.
    combine: Combine,
    /// `1 − Σ p` for ∨ nodes; 1.0 elsewhere.
    slack: f64,
    /// Children as a range into [`EvalPlan::children`].
    child_lo: u32,
    /// Exclusive end of the child range.
    child_hi: u32,
}

/// Where a subtree's folded value lives during compilation: the plan node
/// carrying it plus the affine transform `value = a·plan + b` accumulated by
/// collapsing unary spines (single-child ∨/∧ chains) without materializing
/// them.
#[derive(Clone, Copy, Debug)]
struct Folded {
    plan: u32,
    a: f64,
    b: f64,
    chain: LeafChain,
}

/// Tracks whether a folded subtree is a pure leaf spine, so the leaf's edge
/// probability can later be re-written in place ([`EvalPlan::reweight_leaf`]).
#[derive(Clone, Copy, Debug)]
enum LeafChain {
    /// Not a single-leaf spine (or the leaf's own edge is ∧-pinned).
    Opaque,
    /// The bare leaf of tuple `t`; its edge probability not yet consumed.
    Bare(TupleId),
    /// A spine over tuple `t`'s leaf whose folded edge is `scale · p(t)` and
    /// whose folded constant shifts by `scale·(p − p')` under a reweight.
    /// `bottom` is the tree index of the leaf's direct ∨ parent — the node
    /// future children of which can still be spliced in.
    Spine(TupleId, f64, u32),
}

/// A compiled, reusable evaluation plan for one [`AndXorTree`]: the
/// binarised combine structure shared by every [`IncrementalGf`] built over
/// the tree (parallel shards, PRFe mixture terms, repeated queries).
///
/// Plan indices are topological — every child precedes its parent — so a
/// single forward scan initialises an evaluator. (Leaf splices may orphan a
/// node: orphans keep valid child ranges and are skipped by updates.)
#[derive(Clone, Debug)]
pub struct EvalPlan {
    nodes: Vec<PlanNode>,
    children: Vec<u32>,
    /// Plan index of each tuple's leaf.
    leaf_node: Vec<u32>,
    /// Plan index of the root value.
    root: u32,
    /// Per tuple: `Some(scale)` when the leaf's edge probability can be
    /// patched in place (its plan edge is `scale·p` under a materialized ∨
    /// plan node whose slack absorbs `scale·(1−p)`).
    leaf_patch: Vec<Option<f64>>,
    /// Per tree node: `Some((plan, scale))` for ∨ nodes a new leaf can be
    /// spliced under — a child inserted there with edge probability `p`
    /// becomes a child of plan node `plan` with edge `scale·p` while its
    /// slack drops by `scale·p`. Covers materialized ∨ nodes (`scale = 1`)
    /// and the bottom of every compressed spine.
    xor_splice: Vec<Option<(u32, f64)>>,
    /// Nodes orphaned by splices — their storage is reclaimed only by a
    /// recompile, so callers bound splice counts (see [`EvalPlan::splices`]).
    splices: u32,
}

impl EvalPlan {
    /// Compiles the combine plan: ∨ nodes map 1:1, ∧ nodes with `k ≥ 2`
    /// children become balanced `k − 1`-node product tournaments,
    /// single-child ∧ nodes collapse onto their child, childless inner
    /// nodes become constants, and **unary spines compress**: a chain of
    /// single-child ∨ nodes folds into one affine transform `a·child + b`
    /// absorbed into the consuming edge (∨ parents) or one wrapper node (∧
    /// parents / the root), so a depth-`d` chain costs O(1) plan depth
    /// instead of O(d) per update.
    pub fn new(tree: &AndXorTree) -> EvalPlan {
        Self::compile(tree, true)
    }

    /// Compiles without unary-spine compression (every ∨ node materializes
    /// 1:1, the pre-compression behaviour). Kept as the ablation baseline
    /// for the path-compression benchmark; prefer [`EvalPlan::new`].
    pub fn new_uncompressed(tree: &AndXorTree) -> EvalPlan {
        Self::compile(tree, false)
    }

    fn compile(tree: &AndXorTree, compress: bool) -> EvalPlan {
        let nn = tree.node_count();
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(2 * nn);
        let mut children: Vec<u32> = Vec::with_capacity(2 * nn);
        let mut folded: Vec<Folded> = vec![
            Folded {
                plan: 0,
                a: 1.0,
                b: 0.0,
                chain: LeafChain::Opaque,
            };
            nn
        ];
        let mut xor_splice: Vec<Option<(u32, f64)>> = vec![None; nn];
        let mut leaf_node = vec![0u32; tree.n_tuples()];
        let mut leaf_patch: Vec<Option<f64>> = vec![None; tree.n_tuples()];
        // Builder invariant: children have larger ids than parents, so a
        // reverse scan visits children first.
        for idx in (0..nn).rev() {
            let node = prf_pdb::NodeId(idx as u32);
            let f = match tree.kind(node) {
                NodeKind::Leaf(t) => {
                    let id = nodes.len() as u32;
                    nodes.push(PlanNode {
                        parent: NO_PARENT,
                        edge_prob: 1.0,
                        combine: Combine::Leaf(t),
                        slack: 1.0,
                        child_lo: 0,
                        child_hi: 0,
                    });
                    leaf_node[t.index()] = id;
                    Folded {
                        plan: id,
                        a: 1.0,
                        b: 0.0,
                        chain: LeafChain::Bare(t),
                    }
                }
                NodeKind::Xor => {
                    let kids = tree.children(node);
                    if compress && kids.len() == 1 {
                        // Unary spine step: fold the edge and slack into the
                        // child's affine instead of materializing a node.
                        let c = kids[0];
                        let cf = folded[c.index()];
                        let p = tree.edge_prob(c);
                        Folded {
                            plan: cf.plan,
                            a: p * cf.a,
                            b: tree.xor_slack(node) + p * cf.b,
                            chain: match cf.chain {
                                LeafChain::Bare(t) => LeafChain::Spine(t, 1.0, idx as u32),
                                LeafChain::Spine(t, s, bot) => LeafChain::Spine(t, p * s, bot),
                                LeafChain::Opaque => LeafChain::Opaque,
                            },
                        }
                    } else {
                        let lo = children.len() as u32;
                        for &c in kids {
                            children.push(folded[c.index()].plan);
                        }
                        let hi = children.len() as u32;
                        let id = nodes.len() as u32;
                        nodes.push(PlanNode {
                            parent: NO_PARENT,
                            edge_prob: 1.0,
                            combine: Combine::Xor,
                            slack: tree.xor_slack(node),
                            child_lo: lo,
                            child_hi: hi,
                        });
                        for &c in kids {
                            let cf = folded[c.index()];
                            let p = tree.edge_prob(c);
                            let cp = cf.plan as usize;
                            nodes[cp].parent = id;
                            nodes[cp].edge_prob = p * cf.a;
                            nodes[id as usize].slack += p * cf.b;
                            match cf.chain {
                                LeafChain::Bare(t) => leaf_patch[t.index()] = Some(1.0),
                                LeafChain::Spine(t, s, bot) => {
                                    leaf_patch[t.index()] = Some(p * s);
                                    xor_splice[bot as usize] = Some((id, p * s));
                                }
                                LeafChain::Opaque => {}
                            }
                        }
                        xor_splice[idx] = Some((id, 1.0));
                        Folded {
                            plan: id,
                            a: 1.0,
                            b: 0.0,
                            chain: LeafChain::Opaque,
                        }
                    }
                }
                NodeKind::And => match tree.children(node) {
                    [] => {
                        // Childless ∧ ≡ the constant 1 (empty product),
                        // encoded as a ∨ node with slack 1 and no children.
                        let id = nodes.len() as u32;
                        nodes.push(PlanNode {
                            parent: NO_PARENT,
                            edge_prob: 1.0,
                            combine: Combine::Xor,
                            slack: 1.0,
                            child_lo: 0,
                            child_hi: 0,
                        });
                        Folded {
                            plan: id,
                            a: 1.0,
                            b: 0.0,
                            chain: LeafChain::Opaque,
                        }
                    }
                    // Single-child ∧ ≡ the child itself (∧ edges carry no
                    // probability). A bare leaf loses patchability here: its
                    // own edge is ∧-pinned at 1.0, and any probability above
                    // belongs to this ∧ node.
                    [only] => {
                        let cf = folded[only.index()];
                        Folded {
                            chain: match cf.chain {
                                LeafChain::Bare(_) => LeafChain::Opaque,
                                other => other,
                            },
                            ..cf
                        }
                    }
                    kids => {
                        // Products need concrete values: materialize each
                        // child's affine (one wrapper regardless of spine
                        // depth), then pair adjacent survivors per round —
                        // an odd leftover is promoted unchanged.
                        let mut level: Vec<u32> = kids
                            .iter()
                            .map(|c| {
                                Self::wrap_affine(
                                    &mut nodes,
                                    &mut children,
                                    &mut leaf_patch,
                                    &mut xor_splice,
                                    folded[c.index()],
                                )
                            })
                            .collect();
                        while level.len() > 1 {
                            let mut next = Vec::with_capacity(level.len().div_ceil(2));
                            for pair in level.chunks(2) {
                                if let [l, r] = *pair {
                                    let lo = children.len() as u32;
                                    children.push(l);
                                    children.push(r);
                                    let id = nodes.len() as u32;
                                    nodes.push(PlanNode {
                                        parent: NO_PARENT,
                                        edge_prob: 1.0,
                                        combine: Combine::And,
                                        slack: 1.0,
                                        child_lo: lo,
                                        child_hi: lo + 2,
                                    });
                                    nodes[l as usize].parent = id;
                                    nodes[r as usize].parent = id;
                                    next.push(id);
                                } else {
                                    next.push(pair[0]);
                                }
                            }
                            level = next;
                        }
                        Folded {
                            plan: level[0],
                            a: 1.0,
                            b: 0.0,
                            chain: LeafChain::Opaque,
                        }
                    }
                },
            };
            folded[idx] = f;
        }
        // The root value must be concrete; a root-spanning spine gets one
        // wrapper node.
        let root = Self::wrap_affine(
            &mut nodes,
            &mut children,
            &mut leaf_patch,
            &mut xor_splice,
            folded[0],
        );
        EvalPlan {
            nodes,
            children,
            leaf_node,
            root,
            leaf_patch,
            xor_splice,
            splices: 0,
        }
    }

    /// Materializes a folded value as a plan node: identity affines pass
    /// through; anything else becomes one single-child ∨ wrapper
    /// (`slack = b`, edge `a`) — the whole spine in one node.
    fn wrap_affine(
        nodes: &mut Vec<PlanNode>,
        children: &mut Vec<u32>,
        leaf_patch: &mut [Option<f64>],
        xor_splice: &mut [Option<(u32, f64)>],
        cf: Folded,
    ) -> u32 {
        if cf.a == 1.0 && cf.b == 0.0 {
            return cf.plan;
        }
        let lo = children.len() as u32;
        children.push(cf.plan);
        let id = nodes.len() as u32;
        nodes.push(PlanNode {
            parent: NO_PARENT,
            edge_prob: 1.0,
            combine: Combine::Xor,
            slack: cf.b,
            child_lo: lo,
            child_hi: lo + 1,
        });
        nodes[cf.plan as usize].parent = id;
        nodes[cf.plan as usize].edge_prob = cf.a;
        if let LeafChain::Spine(t, s, bot) = cf.chain {
            leaf_patch[t.index()] = Some(s);
            xor_splice[bot as usize] = Some((id, s));
        }
        id
    }

    /// Patches the plan in place after tuple `t`'s edge probability changed
    /// from `old_prob` to `new_prob` (the tree must already be mutated, e.g.
    /// via `AndXorTree::reweight_leaf`): the leaf's plan edge becomes
    /// `scale·new_prob` and its ∨ parent's slack absorbs the linear delta —
    /// O(1), no recompilation, every evaluator built afterwards sees the new
    /// probabilities.
    ///
    /// Returns `false` when the leaf is not patchable (its edge is ∧-pinned
    /// or was folded non-linearly); the caller should recompile with
    /// [`EvalPlan::new`].
    pub fn reweight_leaf(&mut self, t: TupleId, old_prob: f64, new_prob: f64) -> bool {
        let Some(Some(scale)) = self.leaf_patch.get(t.index()).copied() else {
            return false;
        };
        let leaf = self.leaf_node[t.index()] as usize;
        let parent = self.nodes[leaf].parent;
        if parent == NO_PARENT {
            return false;
        }
        self.nodes[leaf].edge_prob = scale * new_prob;
        self.nodes[parent as usize].slack += scale * (old_prob - new_prob);
        true
    }

    /// Splices a freshly inserted leaf (tuple `t`, which must be the
    /// highest tuple id) into the compiled plan after the tree mutation,
    /// without recompiling. Two shapes are handled:
    ///
    /// * the leaf joined a **materialized ∨ node** — the ∨ plan node is
    ///   re-emitted with the extra child (the stale node is orphaned) and
    ///   its slack drops by the new edge probability;
    /// * the leaf is a **fresh singleton ∨ group under an ∧ root** (the
    ///   x-tuple / independent shape) — one wrapper and one product node
    ///   join it against the current root, rebalancing locally.
    ///
    /// Returns `false` for any other shape; the caller should recompile.
    /// Each splice orphans one leaf-to-root chain of stale nodes (or adds a
    /// root tournament level), so callers recompile once
    /// [`EvalPlan::splices`] grows past a small budget.
    pub fn splice_insert(&mut self, tree: &AndXorTree, t: TupleId) -> bool {
        if t.index() != self.leaf_node.len() || tree.n_tuples() != self.leaf_node.len() + 1 {
            return false;
        }
        let leaf_tree = tree.leaf_of(t);
        let p = tree.edge_prob(leaf_tree);
        let Some(parent_tree) = tree.parent(leaf_tree) else {
            return false;
        };
        self.xor_splice.resize(tree.node_count(), None);
        let pt = parent_tree.index();
        if let Some((pid, scale)) = self.xor_splice[pt] {
            // Re-emit the consuming ∨ node at the tail with the extra
            // child (edge = spine scale × p, slack sheds exactly what the
            // edge gains), then re-emit its whole ancestor chain too —
            // plan order must stay topological, so every node whose child
            // moved past it must itself move past that child. Stale
            // copies are orphaned in place.
            let old = self.nodes[pid as usize].clone();
            let leaf_id = self.nodes.len() as u32;
            let new_id = leaf_id + 1;
            self.nodes.push(PlanNode {
                parent: new_id,
                edge_prob: scale * p,
                combine: Combine::Leaf(t),
                slack: 1.0,
                child_lo: 0,
                child_hi: 0,
            });
            let lo = self.children.len() as u32;
            for i in old.child_lo..old.child_hi {
                let c = self.children[i as usize];
                self.children.push(c);
                self.nodes[c as usize].parent = new_id;
            }
            self.children.push(leaf_id);
            let hi = self.children.len() as u32;
            self.nodes.push(PlanNode {
                parent: old.parent,
                edge_prob: old.edge_prob,
                combine: Combine::Xor,
                slack: old.slack - scale * p,
                child_lo: lo,
                child_hi: hi,
            });
            self.nodes[pid as usize].parent = NO_PARENT;
            let mut remaps = vec![(pid, new_id)];
            let mut old_cur = pid;
            let mut new_cur = new_id;
            let mut parent = old.parent;
            while parent != NO_PARENT {
                let anc = self.nodes[parent as usize].clone();
                let anc_new = self.nodes.len() as u32;
                let lo = self.children.len() as u32;
                for i in anc.child_lo..anc.child_hi {
                    let c = self.children[i as usize];
                    let c = if c == old_cur { new_cur } else { c };
                    self.children.push(c);
                    self.nodes[c as usize].parent = anc_new;
                }
                let hi = self.children.len() as u32;
                self.nodes.push(PlanNode {
                    parent: anc.parent,
                    edge_prob: anc.edge_prob,
                    combine: anc.combine,
                    slack: anc.slack,
                    child_lo: lo,
                    child_hi: hi,
                });
                self.nodes[parent as usize].parent = NO_PARENT;
                remaps.push((parent, anc_new));
                old_cur = parent;
                new_cur = anc_new;
                parent = anc.parent;
            }
            if self.root == old_cur {
                self.root = new_cur;
            }
            for entry in self.xor_splice.iter_mut().flatten() {
                if let Some(&(_, n)) = remaps.iter().find(|(o, _)| *o == entry.0) {
                    entry.0 = n;
                }
            }
            self.leaf_node.push(leaf_id);
            self.leaf_patch.push(Some(scale));
            self.splices += 1;
            return true;
        }
        // Fresh singleton ∨ group directly under an ∧ root: multiply the
        // current root by the group's wrapper via one new product node.
        let is_fresh_group = tree.kind(parent_tree) == NodeKind::Xor
            && tree.children(parent_tree) == [leaf_tree]
            && tree.parent(parent_tree) == Some(tree.root())
            && tree.kind(tree.root()) == NodeKind::And
            && tree.children(tree.root()).len() > 1;
        if !is_fresh_group {
            return false;
        }
        let leaf_id = self.nodes.len() as u32;
        let wrapper_id = leaf_id + 1;
        let root_id = leaf_id + 2;
        self.nodes.push(PlanNode {
            parent: wrapper_id,
            edge_prob: p,
            combine: Combine::Leaf(t),
            slack: 1.0,
            child_lo: 0,
            child_hi: 0,
        });
        let lo = self.children.len() as u32;
        self.children.push(leaf_id);
        self.nodes.push(PlanNode {
            parent: root_id,
            edge_prob: 1.0,
            combine: Combine::Xor,
            slack: tree.xor_slack(parent_tree),
            child_lo: lo,
            child_hi: lo + 1,
        });
        let old_root = self.root;
        self.children.push(old_root);
        self.children.push(wrapper_id);
        self.nodes.push(PlanNode {
            parent: NO_PARENT,
            edge_prob: 1.0,
            combine: Combine::And,
            slack: 1.0,
            child_lo: lo + 1,
            child_hi: lo + 3,
        });
        self.nodes[old_root as usize].parent = root_id;
        self.root = root_id;
        self.xor_splice[pt] = Some((wrapper_id, 1.0));
        self.leaf_node.push(leaf_id);
        self.leaf_patch.push(Some(1.0));
        self.splices += 1;
        true
    }

    /// Number of leaf splices applied since compilation. Each one orphans
    /// a stale chain of nodes and may deepen the root locally; recompiling
    /// resets the plan to its balanced, garbage-free form.
    pub fn splices(&self) -> u32 {
        self.splices
    }

    /// Number of plan nodes (≤ 2× the tree's node count).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Builds an evaluator over this plan with every leaf labelled by
    /// `leaf_value` — the "fast-forward" constructor: parallel shards seed
    /// mid-walk states by labelling already-processed leaves directly.
    pub fn evaluator<T: GfValue>(
        &self,
        mut leaf_value: impl FnMut(TupleId) -> T,
    ) -> IncrementalGf<'_, T> {
        let mut values: Vec<T> = Vec::with_capacity(self.nodes.len());
        for (idx, node) in self.nodes.iter().enumerate() {
            let v = match node.combine {
                Combine::Leaf(t) => leaf_value(t),
                _ => {
                    let mut v = T::zero();
                    self.combine(&values, idx, &mut v);
                    v
                }
            };
            values.push(v);
        }
        let resident: usize = values.iter().map(GfValue::heap_coeffs).sum();
        IncrementalGf {
            plan: self,
            values,
            root_stale: false,
            grad: [T::one(), T::one()],
            grad_scale: 1.0,
            scratch: [T::zero(), T::zero()],
            resident_coeffs: resident,
            peak_coeffs: resident,
        }
    }

    /// Recomputes inner node `idx` from its children's cached `values` into
    /// `out` — the one combine rule of the initial fold, the bulk sweep and
    /// the lazy root refresh.
    fn combine<T: GfValue>(&self, values: &[T], idx: usize, out: &mut T) {
        let node = &self.nodes[idx];
        let kids = &self.children[node.child_lo as usize..node.child_hi as usize];
        match node.combine {
            Combine::Xor => {
                *out = T::from_scalar(node.slack);
                for &c in kids {
                    out.add_scaled_assign(&values[c as usize], self.nodes[c as usize].edge_prob);
                }
            }
            Combine::And => values[kids[0] as usize].mul_into(&values[kids[1] as usize], out),
            Combine::Leaf(_) => unreachable!("leaves hold labels, not combinations"),
        }
    }
}

/// Memory accounting of one evaluator run — surfaced through
/// [`crate::query::EvalReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GfStats {
    /// Cached ring values held by the evaluator (plan nodes).
    pub plan_nodes: usize,
    /// Heap-allocated scalar coefficients resident when the stats were
    /// taken.
    pub resident_coefficients: usize,
    /// Peak resident coefficient count over the evaluator's lifetime.
    pub peak_coefficients: usize,
    /// Estimated peak bytes: inline value storage plus peak coefficients at
    /// 8 bytes each.
    pub peak_bytes: usize,
}

impl GfStats {
    /// Combines the accounting of concurrently live evaluators (parallel
    /// shards): all fields sum, because the shards coexist in memory.
    pub fn merge(self, other: GfStats) -> GfStats {
        GfStats {
            plan_nodes: self.plan_nodes + other.plan_nodes,
            resident_coefficients: self.resident_coefficients + other.resident_coefficients,
            peak_coefficients: self.peak_coefficients + other.peak_coefficients,
            peak_bytes: self.peak_bytes + other.peak_bytes,
        }
    }
}

/// The incremental generating-function evaluator: cached fold state over an
/// [`EvalPlan`], generic over the [`GfValue`] ring.
///
/// [`IncrementalGf::set_leaf`] relabels one leaf and recombines its
/// leaf-to-root path; [`IncrementalGf::root`] reads the current generating
/// function. Ranking walks never put a `y` label on a leaf: at each tuple
/// they call [`IncrementalGf::gradient_step`] once, which reads the tuple's
/// rank generating function as the gradient `∂root/∂leaf` and then flips
/// its leaf `1 → x` (or `α`) — see [`crate::tree::prf_rank_tree`] and
/// [`crate::tree::prfe_rank_tree`].
/// Cloning snapshots the full fold state (the plan is shared by
/// reference): the parallel shard walks clone one shared-prefix evaluator
/// per shard instead of re-folding the plan from scratch.
#[derive(Clone, Debug)]
pub struct IncrementalGf<'p, T: GfValue> {
    plan: &'p EvalPlan,
    values: Vec<T>,
    /// `true` when the root's cached value lags its children: a gradient
    /// step stops below the root, which no gradient reads.
    /// [`IncrementalGf::root`] refreshes it on demand.
    root_stale: bool,
    /// The last gradient (`grad[0]`) and the spare buffer its products
    /// ping-pong through.
    grad: [T; 2],
    /// The ∨ edge probabilities of the last gradient's path, folded into
    /// one factor: `∂root/∂leaf = grad_scale · grad[0]`.
    grad_scale: f64,
    /// Path-update buffers: the previous values of the node just
    /// recombined and of the next one. Values are recombined in their own
    /// slots, so every slot keeps its buffer and a walk's steady state
    /// allocates nothing — not even on a clone handed to another thread.
    scratch: [T; 2],
    resident_coeffs: usize,
    peak_coeffs: usize,
}

/// A gradient's folded ∨ factor is pushed into the gradient once it falls
/// below this, so deep paths of tiny edge probabilities cannot underflow
/// the `f64` factor in rings that carry their own exponent.
const GRAD_SCALE_FLOOR: f64 = 1e-150;

impl<'p, T: GfValue> IncrementalGf<'p, T> {
    /// Maintains the coefficient accounting after slot `idx`, which held
    /// `before` heap coefficients, changed.
    fn account(&mut self, idx: usize, before: usize) {
        self.resident_coeffs = self.resident_coeffs + self.values[idx].heap_coeffs() - before;
        self.peak_coeffs = self.peak_coeffs.max(self.resident_coeffs);
    }

    /// Recomputes inner node `idx` in its own slot from its children
    /// (which precede it in plan order).
    fn recombine(&mut self, idx: usize) {
        let before = self.values[idx].heap_coeffs();
        let (children, slot) = self.values.split_at_mut(idx);
        self.plan.combine(children, idx, &mut slot[0]);
        self.account(idx, before);
    }

    /// Relabels the leaf of tuple `t` and recombines its leaf-to-root path:
    /// `O(1)` ring operations per ∨ ancestor (linear delta), one cached
    /// sibling product per ∧ tournament level — no division anywhere.
    pub fn set_leaf(&mut self, t: TupleId, value: T) {
        self.refresh_root();
        self.relabel(t, &value, false);
    }

    /// The path update behind [`IncrementalGf::set_leaf`], stopping below
    /// the root (and marking it stale) when `below_root` is set. Allocates
    /// nothing for rings with [`GfValue::mul_into`]/`assign_from`.
    fn relabel(&mut self, t: TupleId, value: &T, below_root: bool) {
        let plan = self.plan;
        let mut cur = plan.leaf_node[t.index()] as usize;
        let [mut old, mut saved] = std::mem::replace(&mut self.scratch, [T::zero(), T::zero()]);
        old.assign_from(&self.values[cur]);
        self.values[cur].assign_from(value);
        self.account(cur, old.heap_coeffs());
        while plan.nodes[cur].parent != NO_PARENT {
            let p = plan.nodes[cur].parent as usize;
            if below_root && p == plan.root as usize {
                self.root_stale = true;
                break;
            }
            saved.assign_from(&self.values[p]);
            if plan.nodes[p].combine == Combine::Xor {
                // F ← F + p·(new − old), fused in place.
                let (children, slot) = self.values.split_at_mut(p);
                slot[0].add_scaled_diff_assign(&children[cur], &old, plan.nodes[cur].edge_prob);
                self.account(p, saved.heap_coeffs());
            } else {
                // Fresh sibling product — exact, no error accumulation.
                self.recombine(p);
            }
            std::mem::swap(&mut old, &mut saved);
            cur = p;
        }
        self.scratch = [old, saved];
    }

    /// One step of a ranking walk at tuple `t`: reads `G = ∂root/∂leaf(t)`
    /// (see [`IncrementalGf::gradient`]), then relabels `t`'s leaf to
    /// `value` with fresh sibling products.
    ///
    /// The root generating function is multilinear in its leaf labels, so
    /// `G` is what the root's `y`-coefficient would be with `y` on `t`'s
    /// leaf (Theorem 1's `B`): the product of the ∧ sibling values and the ∨
    /// edge probabilities on `t`'s leaf-to-root path. Reading it costs one
    /// product per ∧ level. The relabel stops below the root, which no
    /// gradient reads; [`IncrementalGf::root`] refreshes it on demand.
    pub fn gradient_step(&mut self, t: TupleId, value: &T) {
        let plan = self.plan;
        let [g, spare] = &mut self.grad;
        let mut cur = plan.leaf_node[t.index()] as usize;
        let mut scale = 1.0;
        let mut started = false;
        while plan.nodes[cur].parent != NO_PARENT {
            let p = plan.nodes[cur].parent as usize;
            let pnode = &plan.nodes[p];
            if pnode.combine == Combine::And {
                let l = plan.children[pnode.child_lo as usize];
                let r = plan.children[pnode.child_lo as usize + 1];
                let sib = &self.values[if l as usize == cur { r } else { l } as usize];
                if started {
                    g.mul_into(sib, spare);
                    std::mem::swap(g, spare);
                } else {
                    g.assign_from(sib);
                    started = true;
                }
            } else {
                scale *= plan.nodes[cur].edge_prob;
                if scale < GRAD_SCALE_FLOOR {
                    if !started {
                        g.assign_from(&T::one());
                        started = true;
                    }
                    *g = g.scale(scale);
                    scale = 1.0;
                }
            }
            cur = p;
        }
        if !started {
            g.assign_from(&T::one());
        }
        self.grad_scale = scale;
        self.relabel(t, value, true);
    }

    /// The gradient read by the last [`IncrementalGf::gradient_step`], as
    /// `(G, s)` with `∂root/∂leaf = s·G`: the ∧ sibling product and the
    /// folded ∨ edge probabilities, applied by the caller (a scalar scale of
    /// the handful of coefficients it reads).
    pub fn gradient(&self) -> (&T, f64) {
        (&self.grad[0], self.grad_scale)
    }

    /// Recomputes the root from its children if a gradient step left it
    /// stale.
    fn refresh_root(&mut self) {
        if self.root_stale {
            self.recombine(self.plan.root as usize);
            self.root_stale = false;
        }
    }

    /// Relabels many leaves at once and refolds **bottom-up in one sweep**:
    /// `leaf_value` returns `Some(new label)` for the leaves to change,
    /// `None` to keep the rest. Plan order is topological (children before
    /// parents), so a single forward scan recomputes exactly the dirty
    /// ancestors — ring work proportional to the changed subtree, not to
    /// `changed leaves × depth` as repeated [`IncrementalGf::set_leaf`]
    /// calls would cost, and never the full plan unless everything moved.
    ///
    /// This is the shared-prefix primitive of the parallel walks: advance
    /// one evaluator chunk by chunk, [`Clone`] a snapshot per shard.
    pub fn set_leaves_bulk(&mut self, mut leaf_value: impl FnMut(TupleId) -> Option<T>) {
        let plan = self.plan;
        let mut dirty = vec![false; plan.nodes.len()];
        for idx in 0..plan.nodes.len() {
            let node = &plan.nodes[idx];
            if let Combine::Leaf(t) = node.combine {
                if let Some(v) = leaf_value(t) {
                    let before = std::mem::replace(&mut self.values[idx], v).heap_coeffs();
                    self.account(idx, before);
                    dirty[idx] = true;
                }
                continue;
            }
            let kids = &plan.children[node.child_lo as usize..node.child_hi as usize];
            if kids.iter().any(|&c| dirty[c as usize]) {
                self.recombine(idx);
                dirty[idx] = true;
            }
        }
        self.root_stale &= !dirty[plan.root as usize];
    }

    /// The current root generating function (recomputed first if a
    /// gradient step left it stale).
    pub fn root(&mut self) -> &T {
        self.refresh_root();
        &self.values[self.plan.root as usize]
    }

    /// The current label of tuple `t`'s leaf.
    pub fn leaf(&self, t: TupleId) -> &T {
        &self.values[self.plan.leaf_node[t.index()] as usize]
    }

    /// The plan this evaluator runs over.
    pub fn plan(&self) -> &'p EvalPlan {
        self.plan
    }

    /// Memory accounting so far (peak tracked across every update).
    pub fn stats(&self) -> GfStats {
        GfStats {
            plan_nodes: self.plan.node_count(),
            resident_coefficients: self.resident_coeffs,
            peak_coefficients: self.peak_coeffs,
            peak_bytes: self.plan.node_count() * std::mem::size_of::<T>()
                + self.peak_coeffs * std::mem::size_of::<f64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_numeric::{Complex, RankPoly, YLin};
    use prf_pdb::TreeBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Figure 1 tree (see `prf-pdb` tests).
    fn figure1_tree() -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
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
        b.build().unwrap()
    }

    fn random_tree(seed: u64, target_leaves: usize, max_depth: usize) -> AndXorTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let root_kind = if rng.gen_bool(0.5) {
            NodeKind::And
        } else {
            NodeKind::Xor
        };
        let mut b = TreeBuilder::new(root_kind);
        let mut frontier = vec![(b.root(), root_kind, 0usize, 1.0f64)];
        let mut leaves = 0usize;
        while leaves < target_leaves {
            let idx = rng.gen_range(0..frontier.len());
            let (node, kind, depth, budget) = frontier[idx];
            let is_xor = matches!(kind, NodeKind::Xor);
            let p = if is_xor {
                let p = rng.gen_range(0.0..budget.min(0.6));
                frontier[idx].3 -= p;
                p
            } else {
                1.0
            };
            let make_leaf = depth >= max_depth || rng.gen_bool(0.65);
            if make_leaf {
                let score = rng.gen_range(0.0..100.0);
                b.add_leaf(node, p, score).unwrap();
                leaves += 1;
            } else {
                let child_kind = if rng.gen_bool(0.5) {
                    NodeKind::And
                } else {
                    NodeKind::Xor
                };
                let child = b.add_inner(node, child_kind, p).unwrap();
                frontier.push((child, child_kind, depth + 1, 1.0));
            }
        }
        b.build().unwrap()
    }

    /// Full-refold oracle with per-tuple labels, matching the evaluator's
    /// current labelling.
    fn refold<T: GfValue>(tree: &AndXorTree, labels: &[T]) -> T {
        tree.generating_function(|t| labels[t.index()].clone())
    }

    #[test]
    fn initial_fold_matches_generating_function() {
        for seed in 0..10u64 {
            let tree = random_tree(seed, 9, 3);
            let plan = EvalPlan::new(&tree);
            let n = tree.n_tuples();
            let labels: Vec<f64> = (0..n).map(|i| 0.25 + 0.1 * i as f64).collect();
            let mut inc = plan.evaluator(|t| labels[t.index()]);
            let direct: f64 = refold(&tree, &labels);
            assert!(
                (inc.root() - direct).abs() < 1e-12,
                "seed {seed}: {} vs {direct}",
                inc.root()
            );
        }
    }

    #[test]
    fn set_leaf_matches_refold_under_random_relabelings() {
        for seed in 0..10u64 {
            let tree = random_tree(seed, 10, 3);
            let plan = EvalPlan::new(&tree);
            let n = tree.n_tuples();
            let mut labels: Vec<f64> = vec![1.0; n];
            let mut inc = plan.evaluator(|t| labels[t.index()]);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            for _ in 0..50 {
                let t = rng.gen_range(0..n);
                let v: f64 = rng.gen_range(0.0..2.0);
                labels[t] = v;
                inc.set_leaf(TupleId(t as u32), v);
                let direct: f64 = refold(&tree, &labels);
                assert!(
                    (inc.root() - direct).abs() < 1e-10,
                    "seed {seed}: {} vs {direct}",
                    inc.root()
                );
            }
        }
    }

    #[test]
    fn gradient_step_reads_y_coefficient_and_root_stays_exact() {
        for seed in 0..10u64 {
            let tree = random_tree(seed, 10, 3);
            let plan = EvalPlan::new(&tree);
            let n = tree.n_tuples();
            let mut labels: Vec<f64> = vec![1.0; n];
            let mut inc = plan.evaluator(|t| labels[t.index()]);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6ad);
            for round in 0..40 {
                let t = rng.gen_range(0..n);
                let v: f64 = rng.gen_range(0.0..2.0);
                // The gradient is the y-part of a refold with y on t.
                let with_y: YLin<f64> = tree.generating_function(|u| {
                    if u.index() == t {
                        YLin::y()
                    } else {
                        YLin::pure(labels[u.index()])
                    }
                });
                inc.gradient_step(TupleId(t as u32), &v);
                labels[t] = v;
                let (g, s) = inc.gradient();
                assert!(
                    (g * s - with_y.b).abs() < 1e-12,
                    "seed {seed} round {round}"
                );
                // The stale root must not leak into a later update of any
                // kind, nor into a read.
                match rng.gen_range(0..3) {
                    0 => {}
                    1 => {
                        let u = rng.gen_range(0..n);
                        labels[u] = rng.gen_range(0.0..2.0);
                        inc.set_leaf(TupleId(u as u32), labels[u]);
                    }
                    _ => {
                        let changed: Vec<Option<f64>> = (0..n)
                            .map(|_| rng.gen_bool(0.2).then(|| rng.gen_range(0.0..2.0)))
                            .collect();
                        for (u, c) in changed.iter().enumerate() {
                            labels[u] = c.unwrap_or(labels[u]);
                        }
                        inc.set_leaves_bulk(|u| changed[u.index()]);
                    }
                }
                if rng.gen_bool(0.5) {
                    let direct: f64 = refold(&tree, &labels);
                    assert!(
                        (inc.root() - direct).abs() < 1e-10,
                        "seed {seed} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn rankpoly_walk_matches_refold() {
        let tree = figure1_tree();
        let plan = EvalPlan::new(&tree);
        let n = tree.n_tuples();
        let cap = n;
        let order = crate::tree::score_order(&tree).0;
        let mut inc = plan.evaluator(|_| RankPoly::one().with_cap(cap));
        for (i, &t) in order.iter().enumerate() {
            if i > 0 {
                inc.set_leaf(order[i - 1], RankPoly::x().with_cap(cap));
            }
            inc.set_leaf(t, RankPoly::y().with_cap(cap));
            let direct = tree.generating_function(|u| {
                if u == t {
                    RankPoly::y().with_cap(cap)
                } else if order[..i].contains(&u) {
                    RankPoly::x().with_cap(cap)
                } else {
                    RankPoly::one().with_cap(cap)
                }
            });
            for j in 1..=n {
                assert!(
                    (inc.root().rank_probability(j) - direct.rank_probability(j)).abs() < 1e-12,
                    "tuple {t:?} rank {j}"
                );
            }
        }
    }

    #[test]
    fn zero_probability_edges_and_slack_are_exact() {
        // A ∨ node with a p = 0 edge and slack: the delta update multiplies
        // by 0 — division would have needed special-casing.
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let x = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x, 0.0, 9.0).unwrap();
        b.add_leaf(x, 0.3, 8.0).unwrap();
        b.add_leaf(root, 1.0, 7.0).unwrap();
        let tree = b.build().unwrap();
        let plan = EvalPlan::new(&tree);
        let mut inc = plan.evaluator(|_| YLin::<Complex>::one());
        inc.set_leaf(TupleId(0), YLin::y());
        let direct: YLin<Complex> = tree.generating_function(|u| {
            if u == TupleId(0) {
                YLin::y()
            } else {
                YLin::one()
            }
        });
        assert!(inc.root().a.approx_eq(direct.a, 1e-12));
        assert!(inc.root().b.approx_eq(direct.b, 1e-12));
    }

    #[test]
    fn stats_track_peak_coefficients() {
        let tree = figure1_tree();
        let plan = EvalPlan::new(&tree);
        let cap = tree.n_tuples();
        let mut inc = plan.evaluator(|_| RankPoly::one().with_cap(cap));
        let at_build = inc.stats();
        assert_eq!(at_build.plan_nodes, plan.node_count());
        assert!(at_build.peak_coefficients > 0);
        // Relabelling to x grows the cached polynomials.
        for t in 0..tree.n_tuples() {
            inc.set_leaf(TupleId(t as u32), RankPoly::x().with_cap(cap));
        }
        let after = inc.stats();
        assert!(after.peak_coefficients >= after.resident_coefficients);
        assert!(after.peak_coefficients > at_build.peak_coefficients);
        assert!(after.peak_bytes > 0);
        let merged = at_build.merge(after);
        assert_eq!(
            merged.peak_coefficients,
            at_build.peak_coefficients + after.peak_coefficients
        );
    }

    #[test]
    fn bulk_relabel_matches_fresh_fold_and_refold() {
        for seed in 0..10u64 {
            let tree = random_tree(seed, 12, 3);
            let plan = EvalPlan::new(&tree);
            let n = tree.n_tuples();
            let mut labels: Vec<f64> = vec![1.0; n];
            let mut inc = plan.evaluator(|t| labels[t.index()]);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for round in 0..8 {
                // Random subset relabelled in one sweep (sometimes empty).
                let changed: Vec<Option<f64>> = (0..n)
                    .map(|_| rng.gen_bool(0.4).then(|| rng.gen_range(0.0..2.0)))
                    .collect();
                for (t, c) in changed.iter().enumerate() {
                    if let Some(v) = c {
                        labels[t] = *v;
                    }
                }
                inc.set_leaves_bulk(|t| changed[t.index()]);
                let direct: f64 = refold(&tree, &labels);
                assert!(
                    (inc.root() - direct).abs() < 1e-10,
                    "seed {seed} round {round}: {} vs {direct}",
                    inc.root()
                );
                // Bit-identical to a from-scratch fold of the same
                // labelling: the sweep recomputes dirty nodes with the
                // exact accumulation order of `evaluator`, which is what
                // lets the parallel shards share a prefix without any
                // cross-shard numeric drift.
                let mut fresh = plan.evaluator(|t| labels[t.index()]);
                assert_eq!(inc.root(), fresh.root(), "seed {seed} round {round}");
            }
            // A cloned snapshot diverges independently of its source.
            let mut snap = inc.clone();
            snap.set_leaves_bulk(|t| (t.index() == 0).then_some(0.0));
            labels[0] = 0.0;
            let direct: f64 = refold(&tree, &labels);
            assert!((snap.root() - direct).abs() < 1e-10);
        }
    }

    /// root ∧ → (∨ chain of depth `d`) → leaf, plus one direct leaf.
    fn chain_tree(depth: usize) -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let mut cur = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        for _ in 1..depth {
            cur = b.add_inner(cur, NodeKind::Xor, 0.9).unwrap();
        }
        b.add_leaf(cur, 0.8, 5.0).unwrap();
        b.add_leaf(root, 1.0, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unary_spines_compress_to_constant_size() {
        for depth in [1usize, 2, 8, 64] {
            let tree = chain_tree(depth);
            let plan = EvalPlan::new(&tree);
            // 2 leaves + 1 spine wrapper + 1 ∧ pair, regardless of depth.
            assert_eq!(plan.node_count(), 4, "depth {depth}");
            let flat = EvalPlan::new_uncompressed(&tree);
            assert_eq!(flat.node_count(), 3 + depth, "depth {depth}");
            // Both agree with the refold oracle under relabelings.
            let mut labels = vec![1.0f64, 1.0];
            let mut inc = plan.evaluator(|t| labels[t.index()]);
            let mut unc = flat.evaluator(|t| labels[t.index()]);
            for (t, v) in [(0usize, 0.25), (1, 0.5), (0, 2.0)] {
                labels[t] = v;
                inc.set_leaf(TupleId(t as u32), v);
                unc.set_leaf(TupleId(t as u32), v);
                let direct: f64 = refold(&tree, &labels);
                assert!((inc.root() - direct).abs() < 1e-12, "depth {depth}");
                assert!((unc.root() - direct).abs() < 1e-12, "depth {depth}");
            }
        }
    }

    #[test]
    fn reweight_leaf_patch_matches_recompile() {
        // Direct ∨ child (figure 1) and a spine-folded leaf (chain tree).
        let mut tree = figure1_tree();
        let mut plan = EvalPlan::new(&tree);
        let old = tree.reweight_leaf(TupleId(3), 0.15).unwrap();
        assert!(plan.reweight_leaf(TupleId(3), old, 0.15));
        let fresh = EvalPlan::new(&tree);
        let labels: Vec<f64> = (0..6).map(|i| 0.3 + 0.1 * i as f64).collect();
        let mut patched = plan.evaluator(|t| labels[t.index()]);
        let mut direct = fresh.evaluator(|t| labels[t.index()]);
        assert!((patched.root() - direct.root()).abs() < 1e-12);

        let mut chain = chain_tree(5);
        let mut cplan = EvalPlan::new(&chain);
        let old = chain.reweight_leaf(TupleId(0), 0.1).unwrap();
        assert!(cplan.reweight_leaf(TupleId(0), old, 0.1));
        let cfresh = EvalPlan::new(&chain);
        let mut patched = cplan.evaluator(|t| labels[t.index()]);
        let mut direct = cfresh.evaluator(|t| labels[t.index()]);
        assert!((patched.root() - direct.root()).abs() < 1e-12);

        // A leaf whose edge is ∧-pinned is not patchable.
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        b.add_leaf(root, 1.0, 2.0).unwrap();
        b.add_leaf(root, 1.0, 1.0).unwrap();
        let pinned = b.build().unwrap();
        let mut pplan = EvalPlan::new(&pinned);
        assert!(!pplan.reweight_leaf(TupleId(0), 1.0, 1.0));
    }

    #[test]
    fn splice_insert_matches_recompile() {
        let mut tree = figure1_tree();
        let mut plan = EvalPlan::new(&tree);
        // Case 1: join an existing materialized ∨ group (t1's, slack .6).
        let x1 = tree.parent(tree.leaf_of(TupleId(0))).unwrap();
        let t6 = tree.insert_leaf(x1, 0.5, 99.0).unwrap();
        assert!(plan.splice_insert(&tree, t6));
        // Case 2: fresh singleton group under the ∧ root.
        let g = tree.insert_inner(tree.root(), NodeKind::Xor, 1.0).unwrap();
        let t7 = tree.insert_leaf(g, 0.25, 50.0).unwrap();
        assert!(plan.splice_insert(&tree, t7));
        assert_eq!(plan.splices(), 2);
        // Spliced plan ≡ recompiled plan under arbitrary relabelings,
        // including updates through the spliced leaves.
        let fresh = EvalPlan::new(&tree);
        let n = tree.n_tuples();
        let mut labels: Vec<f64> = (0..n).map(|i| 0.2 + 0.09 * i as f64).collect();
        let mut spliced = plan.evaluator(|t| labels[t.index()]);
        let mut direct = fresh.evaluator(|t| labels[t.index()]);
        assert!((spliced.root() - direct.root()).abs() < 1e-12);
        for (t, v) in [(t6, 0.0), (t7, 2.0), (TupleId(0), 0.7), (t6, 1.3)] {
            labels[t.index()] = v;
            spliced.set_leaf(t, v);
            direct.set_leaf(t, v);
            let oracle: f64 = refold(&tree, &labels);
            assert!((spliced.root() - oracle).abs() < 1e-12);
            assert!((direct.root() - oracle).abs() < 1e-12);
        }
        // Reweighting a spliced leaf patches in place too.
        let old = tree.reweight_leaf(t6, 0.2).unwrap();
        assert!(plan.reweight_leaf(t6, old, 0.2));
        let refreshed = EvalPlan::new(&tree);
        let mut a = plan.evaluator(|t| labels[t.index()]);
        let mut b = refreshed.evaluator(|t| labels[t.index()]);
        assert!((a.root() - b.root()).abs() < 1e-12);
        // Only the newest tuple can splice.
        assert!(!plan.splice_insert(&tree, TupleId(0)));
    }

    #[test]
    fn single_child_and_nodes_collapse() {
        // root ∧ → ∨(p=.5) → ∧ → ∧ → leaf : nested single-child ∧ chains.
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let x = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        let a1 = b.add_inner(x, NodeKind::And, 0.5).unwrap();
        let a2 = b.add_inner(a1, NodeKind::And, 1.0).unwrap();
        b.add_leaf(a2, 1.0, 5.0).unwrap();
        b.add_leaf(root, 1.0, 3.0).unwrap();
        let tree = b.build().unwrap();
        let plan = EvalPlan::new(&tree);
        // Collapsed: leaf + leaf + ∨ + ∧-pair = 4 plan nodes (no nodes for
        // the single-child ∧ chain).
        assert_eq!(plan.node_count(), 4);
        let mut inc = plan.evaluator(|_| 1.0f64);
        assert!((inc.root() - 1.0).abs() < 1e-12);
        inc.set_leaf(TupleId(0), 0.0);
        // F = (0.5·0 + 0.5)·1 = 0.5.
        assert!((inc.root() - 0.5).abs() < 1e-12);
    }
}
