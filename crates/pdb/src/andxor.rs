//! Probabilistic and/xor trees (Definition 2 of the paper).
//!
//! An and/xor tree compactly encodes two kinds of correlation between tuples:
//!
//! * **mutual exclusivity** — a ∨ (xor) node instantiates *at most one* of
//!   its children, child `v` with the probability `p(u,v)` attached to the
//!   edge (the remaining mass yields the empty set);
//! * **co-existence** — a ∧ (and) node instantiates *all* of its children.
//!
//! Leaves are tuples. The random subset of leaves generated by the recursive
//! process of Definition 2 is a possible world. The model generalises
//! x-tuples (a height-2 tree: ∧ root over ∨ groups), block-independent
//! disjoint tuples and p-or-sets, and can represent *any* finite set of
//! possible worlds (root ∨ over one ∧ per world).
//!
//! The module also hosts the generic generating-function fold of Theorem 1:
//! assign a ring value to every leaf, combine with `Σ`-mixtures at ∨ nodes
//! and products at ∧ nodes, and the root value is the generating function of
//! the leaf-value multiset over possible worlds. Every ranking algorithm in
//! `prf-core` is an instantiation of this fold.

use std::collections::HashMap;

use rand::Rng;

use prf_numeric::GfValue;

use crate::independent::IndependentDb;
use crate::tuple::{Tuple, TupleId};
use crate::worlds::{PossibleWorld, WorldEnumeration};
use crate::{check_probability, PdbError, PROB_SUM_TOL};

/// Identifier of a node within one [`AndXorTree`].
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The role of a node in an and/xor tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// ∧: all children co-exist.
    And,
    /// ∨: at most one child is instantiated.
    Xor,
    /// A tuple.
    Leaf(TupleId),
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    /// Probability attached to the edge from the parent. Meaningful when the
    /// parent is a ∨ node; fixed at 1.0 under ∧ parents and for the root.
    edge_prob: f64,
    children: Vec<NodeId>,
}

/// Incremental builder for [`AndXorTree`].
///
/// Nodes must be created parent-first; the builder hands out [`NodeId`]s and
/// validates edge probabilities and structure at [`TreeBuilder::build`].
#[derive(Debug)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
    scores: Vec<f64>,
}

impl TreeBuilder {
    /// Starts a tree whose root is an inner node of the given kind.
    ///
    /// # Panics
    /// Panics if `kind` is [`NodeKind::Leaf`]; single-tuple relations should
    /// use an ∧ root with one leaf.
    pub fn new(kind: NodeKind) -> Self {
        assert!(
            !matches!(kind, NodeKind::Leaf(_)),
            "the root must be an inner node"
        );
        TreeBuilder {
            nodes: vec![Node {
                kind,
                parent: None,
                edge_prob: 1.0,
                children: Vec::new(),
            }],
            scores: Vec::new(),
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn attach(&mut self, parent: NodeId, node: Node) -> Result<NodeId, PdbError> {
        let pidx = parent.index();
        let p = self
            .nodes
            .get(pidx)
            .ok_or_else(|| PdbError::Structure(format!("unknown parent node {pidx}")))?;
        match p.kind {
            NodeKind::Leaf(_) => {
                return Err(PdbError::Structure(format!(
                    "cannot attach children to leaf node {pidx}"
                )))
            }
            NodeKind::And => {
                if node.edge_prob != 1.0 {
                    return Err(PdbError::Structure(format!(
                        "edges from ∧ node {pidx} carry no probability; got {}",
                        node.edge_prob
                    )));
                }
            }
            NodeKind::Xor => {
                check_probability(node.edge_prob, || format!("edge from xor node {pidx}"))?;
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.nodes[pidx].children.push(id);
        Ok(id)
    }

    /// Adds an inner ∧ or ∨ node under `parent` with the given edge
    /// probability (must be `1.0` under an ∧ parent).
    pub fn add_inner(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        edge_prob: f64,
    ) -> Result<NodeId, PdbError> {
        if matches!(kind, NodeKind::Leaf(_)) {
            return Err(PdbError::Structure(
                "use add_leaf to create leaves".to_string(),
            ));
        }
        self.attach(
            parent,
            Node {
                kind,
                parent: Some(parent),
                edge_prob,
                children: Vec::new(),
            },
        )
    }

    /// Adds a leaf (tuple) under `parent` with the given edge probability
    /// and score, returning the new tuple's id.
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        edge_prob: f64,
        score: f64,
    ) -> Result<TupleId, PdbError> {
        if score.is_nan() {
            return Err(PdbError::InvalidScore {
                context: format!("leaf under node {}", parent.index()),
            });
        }
        let tuple = TupleId(self.scores.len() as u32);
        self.attach(
            parent,
            Node {
                kind: NodeKind::Leaf(tuple),
                parent: Some(parent),
                edge_prob,
                children: Vec::new(),
            },
        )?;
        self.scores.push(score);
        Ok(tuple)
    }

    /// Finalises the tree, validating ∨-node probability sums.
    pub fn build(self) -> Result<AndXorTree, PdbError> {
        let TreeBuilder { nodes, scores } = self;
        let mut xor_slack = vec![1.0f64; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if node.kind == NodeKind::Xor {
                let sum: f64 = node
                    .children
                    .iter()
                    .map(|c| nodes[c.index()].edge_prob)
                    .sum();
                if sum > 1.0 + PROB_SUM_TOL {
                    return Err(PdbError::XorProbabilityOverflow { sum, node: i });
                }
                xor_slack[i] = (1.0 - sum).max(0.0);
            }
        }
        // Map each tuple to its leaf node.
        let mut leaf_of = vec![NodeId(0); scores.len()];
        for (i, node) in nodes.iter().enumerate() {
            if let NodeKind::Leaf(t) = node.kind {
                leaf_of[t.index()] = NodeId(i as u32);
            }
        }
        Ok(AndXorTree {
            nodes,
            scores,
            leaf_of,
            xor_slack,
        })
    }
}

/// A validated probabilistic and/xor tree.
#[derive(Clone, Debug)]
pub struct AndXorTree {
    nodes: Vec<Node>,
    /// Score per tuple id.
    scores: Vec<f64>,
    /// Leaf node per tuple id.
    leaf_of: Vec<NodeId>,
    /// Per ∨ node: `1 − Σ` of child edge probabilities (the probability of
    /// instantiating nothing). `1.0` for non-∨ nodes.
    xor_slack: Vec<f64>,
}

impl AndXorTree {
    // ------------------------------------------------------------------
    // Convenience constructors
    // ------------------------------------------------------------------

    /// Models a tuple-independent relation: an ∧ root whose children are
    /// single-leaf ∨ nodes (one per tuple, carrying its probability).
    pub fn from_independent(db: &IndependentDb) -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        for t in db.tuples() {
            let xor = b
                .add_inner(root, NodeKind::Xor, 1.0)
                .expect("root accepts children");
            b.add_leaf(xor, t.prob, t.score).expect("valid tuple");
        }
        b.build().expect("independent tuples always validate")
    }

    /// Models x-tuples: an ∧ root with one ∨ node per group of mutually
    /// exclusive `(score, probability)` alternatives.
    pub fn from_x_tuples(groups: &[Vec<(f64, f64)>]) -> Result<AndXorTree, PdbError> {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        for group in groups {
            let xor = b.add_inner(root, NodeKind::Xor, 1.0)?;
            for &(score, prob) in group {
                b.add_leaf(xor, prob, score)?;
            }
        }
        b.build()
    }

    /// Represents an explicit finite set of possible worlds: a ∨ root with
    /// one ∧ child per world (the construction noted below Definition 2).
    ///
    /// `scores[t]` gives the score of tuple `t`; every tuple id appearing in
    /// the worlds must be `< scores.len()`. Tuples are re-identified densely
    /// in id order; the returned mapping `new_id → old_id` is also returned
    /// because one original tuple appears as a distinct leaf in each world
    /// containing it (their xor'ed combination restores the original
    /// marginals).
    pub fn from_worlds(
        worlds: &WorldEnumeration,
        scores: &[f64],
    ) -> Result<(AndXorTree, Vec<TupleId>), PdbError> {
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        let mut origin = Vec::new();
        for (world, prob) in &worlds.worlds {
            let and = b.add_inner(root, NodeKind::And, *prob)?;
            for &t in world.tuples() {
                b.add_leaf(and, 1.0, scores[t.index()])?;
                origin.push(t);
            }
        }
        Ok((b.build()?, origin))
    }

    // ------------------------------------------------------------------
    // Topology accessors
    // ------------------------------------------------------------------

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tuples (leaves).
    pub fn n_tuples(&self) -> usize {
        self.scores.len()
    }

    /// The node's kind.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// The node's children.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// The node's parent (`None` for the root).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// Probability on the edge from the node's parent (1.0 under ∧ parents).
    pub fn edge_prob(&self, n: NodeId) -> f64 {
        self.nodes[n.index()].edge_prob
    }

    /// For a ∨ node, the probability that it instantiates none of its
    /// children; 1.0 for other kinds.
    pub fn xor_slack(&self, n: NodeId) -> f64 {
        self.xor_slack[n.index()]
    }

    /// The leaf node holding tuple `t`.
    pub fn leaf_of(&self, t: TupleId) -> NodeId {
        self.leaf_of[t.index()]
    }

    /// The score of tuple `t`.
    pub fn score(&self, t: TupleId) -> f64 {
        self.scores[t.index()]
    }

    /// Scores indexed by tuple id.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Iterator over the path from `n` to the root, inclusive on both ends
    /// — the walk every incremental evaluator recombines after a leaf
    /// relabel.
    pub fn path_to_root(&self, n: NodeId) -> PathToRoot<'_> {
        PathToRoot {
            tree: self,
            next: Some(n),
        }
    }

    /// The siblings of `n`: its parent's other children, in child order.
    /// Empty for the root. This is the set whose cached product an
    /// incremental ∧-node update conceptually recombines with — useful for
    /// oracles and diagnostics (`prf-core`'s evaluator compiles its own
    /// binarised sibling structure rather than querying the tree).
    pub fn siblings(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let parent = self.parent(n);
        parent
            .map(|p| self.children(p))
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(move |&c| c != n)
    }

    /// Depth (number of edges from the root) of a node.
    pub fn depth(&self, n: NodeId) -> usize {
        self.path_to_root(n).count() - 1
    }

    /// Tree height: the maximum leaf depth.
    pub fn height(&self) -> usize {
        self.leaf_of
            .iter()
            .map(|&l| self.depth(l))
            .max()
            .unwrap_or(0)
    }

    /// Sum over tuples of their leaf depth — the `Σᵢ dᵢ` term in the
    /// complexity of the incremental PRFe algorithm.
    pub fn total_leaf_depth(&self) -> usize {
        self.leaf_of.iter().map(|&l| self.depth(l)).sum()
    }

    // ------------------------------------------------------------------
    // Probabilities
    // ------------------------------------------------------------------

    /// Marginal existence probability of every tuple: the product of edge
    /// probabilities on the path from the root (∧ edges contribute 1).
    pub fn marginals(&self) -> Vec<f64> {
        // Top-down pass: reach probability per node. Children always have
        // larger indices than parents (builder invariant).
        let mut reach = vec![1.0f64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            let p = node.parent.expect("non-root has parent").index();
            reach[i] = reach[p] * node.edge_prob;
        }
        self.leaf_of.iter().map(|l| reach[l.index()]).collect()
    }

    /// Marginal probability of one tuple.
    pub fn marginal(&self, t: TupleId) -> f64 {
        self.path_to_root(self.leaf_of(t))
            .map(|n| self.edge_prob(n))
            .product()
    }

    /// Projects the tree to a tuple-independent relation carrying the same
    /// marginals — i.e. *ignores correlations*. Used by the Figure 10
    /// experiments that quantify the cost of that approximation.
    pub fn to_independent(&self) -> IndependentDb {
        let marginals = self.marginals();
        let tuples = marginals
            .iter()
            .zip(&self.scores)
            .enumerate()
            .map(|(i, (&p, &s))| Tuple {
                id: TupleId(i as u32),
                score: s,
                prob: p.clamp(0.0, 1.0),
            })
            .collect();
        IndependentDb::from_tuples(tuples)
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Replaces the probability on the edge above tuple `t`'s leaf, returning
    /// the old value. The leaf's parent must be a ∨ node (edges under ∧
    /// parents are pinned at 1.0, so only `prob == 1.0` is accepted there).
    ///
    /// This is an O(degree-of-parent) in-place update: only the edge
    /// probability and the parent's ∨ slack change; topology, scores, and
    /// every node id stay fixed.
    pub fn reweight_leaf(&mut self, t: TupleId, prob: f64) -> Result<f64, PdbError> {
        if t.index() >= self.scores.len() {
            return Err(PdbError::Structure(format!("no tuple with id {}", t.0)));
        }
        let leaf = self.leaf_of[t.index()];
        let parent = self.nodes[leaf.index()]
            .parent
            .expect("leaves are never the root");
        let old = self.nodes[leaf.index()].edge_prob;
        match self.nodes[parent.index()].kind {
            NodeKind::And => {
                if prob != 1.0 {
                    return Err(PdbError::Structure(format!(
                        "edges from ∧ node {} carry no probability; got {prob}",
                        parent.index()
                    )));
                }
            }
            NodeKind::Xor => {
                check_probability(prob, || format!("edge from xor node {}", parent.index()))?;
                let sum: f64 = self.nodes[parent.index()]
                    .children
                    .iter()
                    .map(|c| self.nodes[c.index()].edge_prob)
                    .sum::<f64>()
                    - old
                    + prob;
                if sum > 1.0 + PROB_SUM_TOL {
                    return Err(PdbError::XorProbabilityOverflow {
                        sum,
                        node: parent.index(),
                    });
                }
                self.xor_slack[parent.index()] = (1.0 - sum).max(0.0);
            }
            NodeKind::Leaf(_) => unreachable!("leaves have no children"),
        }
        self.nodes[leaf.index()].edge_prob = prob;
        Ok(old)
    }

    /// Adds an inner ∧ or ∨ node under `parent` after construction, with the
    /// same validation as [`TreeBuilder::add_inner`]. The new node is
    /// appended at the end of the node array, preserving the invariant that
    /// children have larger ids than parents.
    pub fn insert_inner(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        edge_prob: f64,
    ) -> Result<NodeId, PdbError> {
        if matches!(kind, NodeKind::Leaf(_)) {
            return Err(PdbError::Structure(
                "use insert_leaf to create leaves".to_string(),
            ));
        }
        self.splice(
            parent,
            Node {
                kind,
                parent: Some(parent),
                edge_prob,
                children: Vec::new(),
            },
        )
    }

    /// Adds a new leaf (tuple) under `parent` after construction, returning
    /// the new tuple's id (`n_tuples()` before the call). Edge probabilities
    /// are validated exactly as in [`TreeBuilder::add_leaf`] plus the ∨-sum
    /// overflow check of [`TreeBuilder::build`].
    pub fn insert_leaf(
        &mut self,
        parent: NodeId,
        edge_prob: f64,
        score: f64,
    ) -> Result<TupleId, PdbError> {
        if score.is_nan() {
            return Err(PdbError::InvalidScore {
                context: format!("leaf under node {}", parent.index()),
            });
        }
        let tuple = TupleId(self.scores.len() as u32);
        let node = self.splice(
            parent,
            Node {
                kind: NodeKind::Leaf(tuple),
                parent: Some(parent),
                edge_prob,
                children: Vec::new(),
            },
        )?;
        self.scores.push(score);
        self.leaf_of.push(node);
        Ok(tuple)
    }

    /// Validated post-construction node attachment shared by
    /// [`AndXorTree::insert_inner`] / [`AndXorTree::insert_leaf`].
    fn splice(&mut self, parent: NodeId, node: Node) -> Result<NodeId, PdbError> {
        let pidx = parent.index();
        let p = self
            .nodes
            .get(pidx)
            .ok_or_else(|| PdbError::Structure(format!("unknown parent node {pidx}")))?;
        match p.kind {
            NodeKind::Leaf(_) => {
                return Err(PdbError::Structure(format!(
                    "cannot attach children to leaf node {pidx}"
                )))
            }
            NodeKind::And => {
                if node.edge_prob != 1.0 {
                    return Err(PdbError::Structure(format!(
                        "edges from ∧ node {pidx} carry no probability; got {}",
                        node.edge_prob
                    )));
                }
            }
            NodeKind::Xor => {
                check_probability(node.edge_prob, || format!("edge from xor node {pidx}"))?;
                let sum: f64 = p
                    .children
                    .iter()
                    .map(|c| self.nodes[c.index()].edge_prob)
                    .sum::<f64>()
                    + node.edge_prob;
                if sum > 1.0 + PROB_SUM_TOL {
                    return Err(PdbError::XorProbabilityOverflow { sum, node: pidx });
                }
                self.xor_slack[pidx] = (1.0 - sum).max(0.0);
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.xor_slack.push(1.0);
        self.nodes[pidx].children.push(id);
        Ok(id)
    }

    /// Removes tuple `t`'s leaf from the tree. Node ids and tuple ids are
    /// renumbered densely (every id larger than the removed one shifts down
    /// by one), preserving relative order — so cached `(score desc, id asc)`
    /// orders of the survivors stay valid after the same renumbering.
    ///
    /// Inner nodes left childless are kept: a childless ∨ contributes its
    /// slack and a childless ∧ the empty product, both handled by every fold.
    pub fn delete_leaf(&mut self, t: TupleId) -> Result<(), PdbError> {
        if t.index() >= self.scores.len() {
            return Err(PdbError::Structure(format!("no tuple with id {}", t.0)));
        }
        let li = self.leaf_of[t.index()].index();
        let parent = self.nodes[li].parent.expect("leaves are never the root");
        // Detach from the parent, then physically remove the node and remap
        // every stored NodeId / TupleId across the gap.
        let pos = self.nodes[parent.index()]
            .children
            .iter()
            .position(|c| c.index() == li)
            .expect("parent lists its child");
        self.nodes[parent.index()].children.remove(pos);
        self.nodes.remove(li);
        self.xor_slack.remove(li);
        self.scores.remove(t.index());
        let remap = |n: NodeId| {
            if n.index() > li {
                NodeId(n.0 - 1)
            } else {
                n
            }
        };
        for node in &mut self.nodes {
            node.parent = node.parent.map(remap);
            for c in &mut node.children {
                *c = remap(*c);
            }
            if let NodeKind::Leaf(lt) = &mut node.kind {
                if lt.index() > t.index() {
                    *lt = TupleId(lt.0 - 1);
                }
            }
        }
        self.leaf_of.remove(t.index());
        for l in &mut self.leaf_of {
            *l = remap(*l);
        }
        // The parent's ∨ slack grows by the removed edge's probability.
        let pi = remap(parent).index();
        if self.nodes[pi].kind == NodeKind::Xor {
            let sum: f64 = self.nodes[pi]
                .children
                .iter()
                .map(|c| self.nodes[c.index()].edge_prob)
                .sum();
            self.xor_slack[pi] = (1.0 - sum).max(0.0);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Generating functions (Theorem 1)
    // ------------------------------------------------------------------

    /// Evaluates the generating function of Theorem 1 with the given
    /// per-leaf values: ∨ nodes contribute
    /// `(1−Σp) + Σ p·child`, ∧ nodes the product of children, and the root
    /// value is returned.
    ///
    /// With `leaf_value(t) = x` for a formal variable `x`, the coefficient of
    /// `xᵏ` in the result is `Pr(|pw| = k)`; the ranking algorithms in
    /// `prf-core` use richer labelings.
    pub fn generating_function<T: GfValue>(&self, mut leaf_value: impl FnMut(TupleId) -> T) -> T {
        let mut values: Vec<Option<T>> = vec![None; self.nodes.len()];
        // Children have larger indices than parents, so a reverse index scan
        // is a valid bottom-up order.
        for i in (0..self.nodes.len()).rev() {
            let v = match self.nodes[i].kind {
                NodeKind::Leaf(t) => leaf_value(t),
                NodeKind::And => {
                    let mut acc = T::one();
                    for c in &self.nodes[i].children {
                        acc = acc.mul(values[c.index()].as_ref().expect("child computed"));
                    }
                    acc
                }
                NodeKind::Xor => {
                    let mut acc = T::from_scalar(self.xor_slack[i]);
                    for c in &self.nodes[i].children {
                        let child = values[c.index()].as_ref().expect("child computed");
                        acc = acc.add_scaled(child, self.nodes[c.index()].edge_prob);
                    }
                    acc
                }
            };
            values[i] = Some(v);
        }
        values[0].take().expect("root computed")
    }

    // ------------------------------------------------------------------
    // Worlds
    // ------------------------------------------------------------------

    /// Draws one possible world by running the instantiation process of
    /// Definition 2.
    pub fn sample_world(&self, rng: &mut impl Rng) -> PossibleWorld {
        let mut present = Vec::new();
        // Iterative DFS; nodes carry no state beyond inclusion.
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            match self.kind(n) {
                NodeKind::Leaf(t) => present.push(t),
                NodeKind::And => stack.extend_from_slice(self.children(n)),
                NodeKind::Xor => {
                    let mut u: f64 = rng.gen();
                    for &c in self.children(n) {
                        let p = self.edge_prob(c);
                        if u < p {
                            stack.push(c);
                            break;
                        }
                        u -= p;
                    }
                    // Falling through the loop selects the empty set.
                }
            }
        }
        PossibleWorld::new(present)
    }

    /// Enumerates every possible world with its probability.
    ///
    /// Intended for test oracles on small trees; fails when the number of
    /// intermediate world-sets exceeds `limit`.
    pub fn enumerate_worlds(&self, limit: usize) -> Result<WorldEnumeration, PdbError> {
        let sets = self.enumerate_node(self.root(), limit)?;
        Ok(WorldEnumeration {
            worlds: sets
                .into_iter()
                .map(|(tuples, p)| (PossibleWorld::new(tuples), p))
                .collect(),
        }
        .normalized())
    }

    fn enumerate_node(
        &self,
        n: NodeId,
        limit: usize,
    ) -> Result<Vec<(Vec<TupleId>, f64)>, PdbError> {
        let out = match self.kind(n) {
            NodeKind::Leaf(t) => vec![(vec![t], 1.0)],
            NodeKind::Xor => {
                let mut out = Vec::new();
                let slack = self.xor_slack(n);
                if slack > 0.0 {
                    out.push((Vec::new(), slack));
                }
                for &c in self.children(n) {
                    let p = self.edge_prob(c);
                    if p == 0.0 {
                        continue;
                    }
                    for (tuples, q) in self.enumerate_node(c, limit)? {
                        out.push((tuples, p * q));
                    }
                }
                Self::merge_world_sets(out)
            }
            NodeKind::And => {
                let mut out: Vec<(Vec<TupleId>, f64)> = vec![(Vec::new(), 1.0)];
                for &c in self.children(n) {
                    let child = self.enumerate_node(c, limit)?;
                    let mut next = Vec::with_capacity(out.len() * child.len());
                    for (ts, p) in &out {
                        for (cts, cp) in &child {
                            let mut merged = ts.clone();
                            merged.extend_from_slice(cts);
                            next.push((merged, p * cp));
                        }
                    }
                    out = Self::merge_world_sets(next);
                    if out.len() > limit {
                        return Err(PdbError::TooManyWorlds { limit });
                    }
                }
                out
            }
        };
        if out.len() > limit {
            return Err(PdbError::TooManyWorlds { limit });
        }
        Ok(out)
    }

    /// Sums the probabilities of identical tuple sets. Distinct ∨ choice
    /// profiles frequently induce the same world (e.g. every profile that
    /// selects no leaf yields ∅), and without merging at each step the
    /// intermediate lists of the ∧ product grow with the number of
    /// *profiles* — exponential in the node count — instead of the number
    /// of distinct worlds, which is what `limit` is meant to bound.
    fn merge_world_sets(sets: Vec<(Vec<TupleId>, f64)>) -> Vec<(Vec<TupleId>, f64)> {
        let mut merged: HashMap<Vec<TupleId>, f64> = HashMap::with_capacity(sets.len());
        for (mut tuples, p) in sets {
            tuples.sort_unstable();
            *merged.entry(tuples).or_insert(0.0) += p;
        }
        let mut out: Vec<(Vec<TupleId>, f64)> = merged.into_iter().collect();
        // Deterministic order for reproducible downstream iteration.
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    // ------------------------------------------------------------------
    // Structure checks
    // ------------------------------------------------------------------

    /// Checks the key constraint of Definition 2 against an explicit key
    /// assignment: any two leaves sharing a key must have a ∨ node as their
    /// least common ancestor (otherwise both could coexist).
    pub fn validate_keys(&self, keys: &[u64]) -> Result<(), PdbError> {
        assert_eq!(keys.len(), self.n_tuples(), "one key per tuple");
        use std::collections::HashMap;
        let mut by_key: HashMap<u64, Vec<TupleId>> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            by_key.entry(k).or_default().push(TupleId(i as u32));
        }
        for group in by_key.values() {
            for (ai, &a) in group.iter().enumerate() {
                for &b in &group[ai + 1..] {
                    let lca = self.lca(self.leaf_of(a), self.leaf_of(b));
                    if self.kind(lca) != NodeKind::Xor {
                        return Err(PdbError::KeyConstraintViolated { tuples: (a.0, b.0) });
                    }
                }
            }
        }
        Ok(())
    }

    /// Least common ancestor of two nodes (by walking parent chains).
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut da = self.depth(a);
        let mut db = self.depth(b);
        let (mut a, mut b) = (a, b);
        while da > db {
            a = self.parent(a).expect("depth accounted");
            da -= 1;
        }
        while db > da {
            b = self.parent(b).expect("depth accounted");
            db -= 1;
        }
        while a != b {
            a = self.parent(a).expect("common root exists");
            b = self.parent(b).expect("common root exists");
        }
        a
    }

    /// `true` when the tree is in x-tuple form — an ∧ root whose children
    /// are ∨ nodes of leaves (or bare leaves) — checked without allocating.
    pub fn is_x_tuple(&self) -> bool {
        let leaf = |c: &NodeId| matches!(self.kind(*c), NodeKind::Leaf(_));
        self.kind(self.root()) == NodeKind::And
            && self
                .children(self.root())
                .iter()
                .all(|&c| match self.kind(c) {
                    NodeKind::Leaf(_) => true,
                    NodeKind::Xor => self.children(c).iter().all(leaf),
                    NodeKind::And => false,
                })
    }

    /// If the tree is in x-tuple form ([`Self::is_x_tuple`]), returns the
    /// groups of mutually exclusive tuples — the input of the
    /// `O(n·h·log n)` PRFω(h)/PT(h) x-tuple kernel.
    pub fn x_tuple_groups(&self) -> Option<Vec<Vec<TupleId>>> {
        if !self.is_x_tuple() {
            return None;
        }
        let leaf = |c: &NodeId| match self.kind(*c) {
            NodeKind::Leaf(t) => Some(t),
            _ => None,
        };
        let groups = self
            .children(self.root())
            .iter()
            .map(|c| match leaf(c) {
                Some(t) => vec![t],
                None => self.children(*c).iter().filter_map(leaf).collect(),
            })
            .collect();
        Some(groups)
    }
}

/// Iterator of [`AndXorTree::path_to_root`]: yields the start node, its
/// parent, … up to and including the root.
#[derive(Clone, Debug)]
pub struct PathToRoot<'a> {
    tree: &'a AndXorTree,
    next: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // oracle comparisons over parallel arrays
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The traffic-monitoring tree of Figure 1: t1..t6 with scores
    /// 120, 130, 80, 95, 110, 105; {t2,t3} and {t4,t5} mutually exclusive.
    pub(crate) fn figure1_tree() -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let x1 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x1, 0.4, 120.0).unwrap(); // t1
        let x2 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x2, 0.7, 130.0).unwrap(); // t2
        b.add_leaf(x2, 0.3, 80.0).unwrap(); // t3
        let x3 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x3, 0.4, 95.0).unwrap(); // t4
        b.add_leaf(x3, 0.6, 110.0).unwrap(); // t5
        let x4 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(x4, 1.0, 105.0).unwrap(); // t6
        b.build().unwrap()
    }

    /// The highly correlated 3-world database of Figure 2.
    pub(crate) fn figure2_tree() -> AndXorTree {
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        let w1 = b.add_inner(root, NodeKind::And, 0.3).unwrap();
        b.add_leaf(w1, 1.0, 6.0).unwrap();
        b.add_leaf(w1, 1.0, 5.0).unwrap();
        b.add_leaf(w1, 1.0, 1.0).unwrap();
        let w2 = b.add_inner(root, NodeKind::And, 0.3).unwrap();
        b.add_leaf(w2, 1.0, 9.0).unwrap();
        b.add_leaf(w2, 1.0, 7.0).unwrap();
        let w3 = b.add_inner(root, NodeKind::And, 0.4).unwrap();
        b.add_leaf(w3, 1.0, 8.0).unwrap();
        b.add_leaf(w3, 1.0, 4.0).unwrap();
        b.add_leaf(w3, 1.0, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure1_worlds_match_paper() {
        let tree = figure1_tree();
        assert_eq!(tree.n_tuples(), 6);
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        assert_eq!(worlds.len(), 8);
        // pw1 = {t2, t1, t6, t4}, Pr = .112
        let pw1 = PossibleWorld::new(vec![TupleId(0), TupleId(1), TupleId(3), TupleId(5)]);
        let p1 = worlds
            .worlds
            .iter()
            .find(|(w, _)| *w == pw1)
            .map(|(_, p)| *p)
            .unwrap();
        assert!((p1 - 0.112).abs() < 1e-12);
        // pw6 = {t2, t5, t6}, Pr = .252
        let pw6 = PossibleWorld::new(vec![TupleId(1), TupleId(4), TupleId(5)]);
        let p6 = worlds
            .worlds
            .iter()
            .find(|(w, _)| *w == pw6)
            .map(|(_, p)| *p)
            .unwrap();
        assert!((p6 - 0.252).abs() < 1e-12);
    }

    #[test]
    fn figure1_rank_probability_example_4() {
        // Example 4: Pr(r(t4) = 3) = Pr(pw3) + Pr(pw5) = .216 where t4 is the
        // tuple with score 95 (our TupleId(3)).
        let tree = figure1_tree();
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        let p = worlds.positional_probability(TupleId(3), 3, tree.scores());
        assert!((p - 0.216).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn figure2_has_three_worlds() {
        let tree = figure2_tree();
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        assert_eq!(worlds.len(), 3);
        let probs: Vec<f64> = worlds.worlds.iter().map(|(_, p)| *p).collect();
        let mut sorted = probs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 0.3).abs() < 1e-12);
        assert!((sorted[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn size_distribution_via_generating_function() {
        // Example 2: label every leaf x; coefficient of x^i = Pr(|pw| = i).
        use prf_numeric::RankPoly;
        let tree = figure2_tree();
        let gf = tree.generating_function(|_| RankPoly::x());
        // Worlds have sizes 3, 2, 3 with probs .3, .3, .4.
        assert!((gf.a.coeff(2) - 0.3).abs() < 1e-12);
        assert!((gf.a.coeff(3) - 0.7).abs() < 1e-12);
        assert!((gf.eval(1.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_follow_edge_products() {
        let tree = figure1_tree();
        let m = tree.marginals();
        assert!((m[0] - 0.4).abs() < 1e-12);
        assert!((m[1] - 0.7).abs() < 1e-12);
        assert!((m[2] - 0.3).abs() < 1e-12);
        assert!((m[5] - 1.0).abs() < 1e-12);
        for (i, &mi) in m.iter().enumerate() {
            assert!((tree.marginal(TupleId(i as u32)) - mi).abs() < 1e-15);
        }
        // Against brute force.
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        for i in 0..tree.n_tuples() {
            assert!((worlds.marginal(TupleId(i as u32)) - m[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn from_independent_preserves_semantics() {
        let db = IndependentDb::from_pairs([(30.0, 0.5), (20.0, 0.6), (10.0, 0.4)]).unwrap();
        let tree = AndXorTree::from_independent(&db);
        assert_eq!(tree.n_tuples(), 3);
        let tw = tree.enumerate_worlds(1 << 16).unwrap();
        let dw = db.enumerate_worlds(1 << 16).unwrap();
        let scores = db.scores();
        for i in 0..3 {
            for r in 1..=3 {
                let a = tw.positional_probability(TupleId(i), r, &scores);
                let b = dw.positional_probability(TupleId(i), r, &scores);
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn x_tuple_recognition() {
        let groups = vec![vec![(10.0, 0.4), (5.0, 0.5)], vec![(7.0, 1.0)]];
        let tree = AndXorTree::from_x_tuples(&groups).unwrap();
        let got = tree.x_tuple_groups().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], vec![TupleId(0), TupleId(1)]);
        assert_eq!(got[1], vec![TupleId(2)]);
        // Figure 2's world-list tree is not in x-tuple form.
        assert!(figure2_tree().x_tuple_groups().is_none());
        // Figure 1's tree is (all groups under an ∧ root).
        assert!(figure1_tree().x_tuple_groups().is_some());
        // The allocation-free check agrees on every shape.
        assert!(tree.is_x_tuple());
        assert!(!figure2_tree().is_x_tuple());
        assert!(figure1_tree().is_x_tuple());
        // An ∧ below a ∨ group breaks the form.
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let group = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        b.add_leaf(group, 0.5, 3.0).unwrap();
        let and = b.add_inner(group, NodeKind::And, 0.5).unwrap();
        b.add_leaf(and, 1.0, 2.0).unwrap();
        let nested = b.build().unwrap();
        assert!(!nested.is_x_tuple());
        assert!(nested.x_tuple_groups().is_none());
    }

    #[test]
    fn xor_overflow_rejected() {
        let mut b = TreeBuilder::new(NodeKind::Xor);
        let root = b.root();
        b.add_leaf(root, 0.7, 1.0).unwrap();
        b.add_leaf(root, 0.7, 2.0).unwrap();
        assert!(matches!(
            b.build(),
            Err(PdbError::XorProbabilityOverflow { .. })
        ));
    }

    #[test]
    fn structural_errors() {
        let mut b = TreeBuilder::new(NodeKind::And);
        let root = b.root();
        let leaf = b.add_leaf(root, 1.0, 1.0).unwrap();
        let leaf_node = NodeId(1);
        assert!(b.add_leaf(leaf_node, 1.0, 2.0).is_err());
        assert!(b.add_leaf(root, 0.5, 2.0).is_err()); // ∧ edges carry no prob
        let _ = leaf;
    }

    #[test]
    fn key_constraint_validation() {
        let tree = figure1_tree();
        // t2 (id 1) and t3 (id 2) share a key — their LCA is a xor node: OK.
        let keys_ok = [0u64, 1, 1, 2, 2, 3];
        assert!(tree.validate_keys(&keys_ok).is_ok());
        // t1 (id 0) and t6 (id 5) sharing a key violates the constraint.
        let keys_bad = [7u64, 1, 1, 2, 2, 7];
        assert!(matches!(
            tree.validate_keys(&keys_bad),
            Err(PdbError::KeyConstraintViolated { .. })
        ));
    }

    #[test]
    fn path_and_sibling_accessors() {
        let tree = figure1_tree();
        let leaf = tree.leaf_of(TupleId(1)); // t2 under the x2 ∨ node
        let path: Vec<NodeId> = tree.path_to_root(leaf).collect();
        assert_eq!(path.len(), 3); // leaf → ∨ → root
        assert_eq!(*path.first().unwrap(), leaf);
        assert_eq!(*path.last().unwrap(), tree.root());
        // t2's only sibling is t3's leaf.
        let sibs: Vec<NodeId> = tree.siblings(leaf).collect();
        assert_eq!(sibs, vec![tree.leaf_of(TupleId(2))]);
        // The root has no siblings.
        assert_eq!(tree.siblings(tree.root()).count(), 0);
        // The root's ∨ children are each other's siblings.
        let x2 = tree.parent(leaf).unwrap();
        assert_eq!(tree.siblings(x2).count(), 3);
    }

    #[test]
    fn depth_and_height() {
        let tree = figure1_tree();
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.depth(tree.leaf_of(TupleId(0))), 2);
        assert_eq!(tree.total_leaf_depth(), 12);
        assert!(
            tree.lca(tree.leaf_of(TupleId(1)), tree.leaf_of(TupleId(2)))
                .index()
                > 0
        );
    }

    #[test]
    fn sampling_matches_enumeration() {
        let tree = figure1_tree();
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 40_000;
        let mut hits = vec![0usize; worlds.len()];
        for _ in 0..trials {
            let w = tree.sample_world(&mut rng);
            if let Some(pos) = worlds.worlds.iter().position(|(ww, _)| *ww == w) {
                hits[pos] += 1;
            } else {
                panic!("sampled world not in enumeration: {w:?}");
            }
        }
        for (i, (_, p)) in worlds.worlds.iter().enumerate() {
            let freq = hits[i] as f64 / trials as f64;
            assert!((freq - p).abs() < 0.015, "world {i}: {freq} vs {p}");
        }
    }

    #[test]
    fn from_worlds_roundtrip() {
        let tree = figure2_tree();
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        let (rebuilt, origin) = AndXorTree::from_worlds(&worlds, tree.scores()).unwrap();
        let reworlds = rebuilt.enumerate_worlds(1 << 16).unwrap();
        assert_eq!(reworlds.len(), worlds.len());
        assert!((reworlds.total_probability() - 1.0).abs() < 1e-12);
        assert_eq!(origin.len(), rebuilt.n_tuples());
    }

    #[test]
    fn reweight_leaf_updates_edge_and_slack() {
        let mut tree = figure1_tree();
        // t4 (score 95, p=.4) shares its ∨ group with t5 (p=.6): slack 0.
        let old = tree.reweight_leaf(TupleId(3), 0.1).unwrap();
        assert!((old - 0.4).abs() < 1e-15);
        let leaf = tree.leaf_of(TupleId(3));
        assert!((tree.edge_prob(leaf) - 0.1).abs() < 1e-15);
        let parent = tree.parent(leaf).unwrap();
        assert!((tree.xor_slack(parent) - 0.3).abs() < 1e-12);
        // Marginals agree with brute force after the mutation.
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        for (i, &m) in tree.marginals().iter().enumerate() {
            assert!((worlds.marginal(TupleId(i as u32)) - m).abs() < 1e-12);
        }
        // Overflowing the ∨ sum or leaving [0,1] is rejected without change.
        assert!(matches!(
            tree.reweight_leaf(TupleId(3), 0.5),
            Err(PdbError::XorProbabilityOverflow { .. })
        ));
        assert!(tree.reweight_leaf(TupleId(3), 1.5).is_err());
        assert!((tree.edge_prob(leaf) - 0.1).abs() < 1e-15);
        // ∧-parent edges are pinned at 1.0.
        let mut worlds_tree = figure2_tree();
        assert!(worlds_tree.reweight_leaf(TupleId(0), 0.5).is_err());
        assert!(worlds_tree.reweight_leaf(TupleId(0), 1.0).is_ok());
    }

    #[test]
    fn insert_leaf_and_inner_extend_tree() {
        let mut tree = figure1_tree();
        let n0 = tree.node_count();
        // New alternative inside t1's ∨ group (p=.4, slack .6 → .2 left).
        let x1 = tree.parent(tree.leaf_of(TupleId(0))).unwrap();
        let t = tree.insert_leaf(x1, 0.4, 99.0).unwrap();
        assert_eq!(t, TupleId(6));
        assert_eq!(tree.node_count(), n0 + 1);
        assert!((tree.xor_slack(x1) - 0.2).abs() < 1e-12);
        assert!((tree.marginal(t) - 0.4).abs() < 1e-12);
        // A fresh singleton ∨ group under the root.
        let g = tree.insert_inner(tree.root(), NodeKind::Xor, 1.0).unwrap();
        let t2 = tree.insert_leaf(g, 0.25, 101.0).unwrap();
        assert!((tree.marginal(t2) - 0.25).abs() < 1e-12);
        // The builder invariant (children after parents) still holds, so the
        // fold and world enumeration stay valid.
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        for (i, &m) in tree.marginals().iter().enumerate() {
            assert!((worlds.marginal(TupleId(i as u32)) - m).abs() < 1e-12);
        }
        // Validation: overflow and ∧-edge probs rejected.
        assert!(tree.insert_leaf(x1, 0.5, 1.0).is_err());
        assert!(tree.insert_leaf(tree.root(), 0.5, 1.0).is_err());
        assert!(tree
            .insert_leaf(tree.leaf_of(TupleId(0)), 1.0, 1.0)
            .is_err());
    }

    #[test]
    fn delete_leaf_renumbers_densely() {
        let mut tree = figure1_tree();
        // Delete t3 (id 2, the p=.3 alternative of the second group).
        tree.delete_leaf(TupleId(2)).unwrap();
        assert_eq!(tree.n_tuples(), 5);
        assert_eq!(tree.scores(), &[120.0, 130.0, 95.0, 110.0, 105.0]);
        // leaf_of is consistent after renumbering.
        for i in 0..tree.n_tuples() {
            let t = TupleId(i as u32);
            assert_eq!(tree.kind(tree.leaf_of(t)), NodeKind::Leaf(t));
        }
        // The freed mass becomes ∨ slack; marginals match brute force.
        let x2 = tree.parent(tree.leaf_of(TupleId(1))).unwrap();
        assert!((tree.xor_slack(x2) - 0.3).abs() < 1e-12);
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        for (i, &m) in tree.marginals().iter().enumerate() {
            assert!((worlds.marginal(TupleId(i as u32)) - m).abs() < 1e-12);
        }
        // Deleting a group's last leaf leaves a childless ∨ (pure slack).
        tree.delete_leaf(TupleId(1)).unwrap();
        let worlds = tree.enumerate_worlds(1 << 16).unwrap();
        assert!((worlds.total_probability() - 1.0).abs() < 1e-12);
        assert!(tree.delete_leaf(TupleId(9)).is_err());
    }

    #[test]
    fn to_independent_keeps_marginals() {
        let tree = figure1_tree();
        let db = tree.to_independent();
        let m = tree.marginals();
        for (t, &mi) in db.tuples().iter().zip(&m) {
            assert!((t.prob - mi).abs() < 1e-12);
        }
    }
}
