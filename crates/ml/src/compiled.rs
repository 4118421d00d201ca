//! Compiled forest inference: the estimation kernel behind the Step-3
//! hot path.
//!
//! A fitted [`RandomForest`]/[`DecisionTree`] walks pointer-chasing
//! [`crate::tree::NodeRepr`]-shaped enum nodes one row at a time — fine
//! for fitting, hostile to a search loop that performs 10⁵–10⁶ model
//! estimates per run. [`CompiledForest`] flattens **all** trees into one
//! structure-of-arrays arena (contiguous `feature`/`threshold`/`left`/
//! `right`/`leaf` lanes, trees concatenated with root offsets). Leaves
//! are encoded as self-loops (`left == right == self`, threshold `NaN` so
//! `x <= t` is always false), which makes every node a split and every
//! traversal step a pure arithmetic select (no data-dependent branch).
//!
//! [`GatherForest`] is what the DSE runs: [`CompiledForest::bake_gather`]
//! folds the estimator's per-slot feature tables *into* the node records,
//! so prediction runs straight off a `u16` genome slab and the feature
//! matrix is never materialized. The bake selects one of two node
//! encodings per model and builds only its records:
//!
//! * **mask32** — 8-byte records holding the precomputed comparison of
//!   every gene as a bitmask; needs every slot a feature reads to have
//!   ≤ 32 members, ≤ 64 slots, every tree ≤ 2¹³ nodes and fewer than 2²⁴
//!   nodes in total (every shipped workload qualifies);
//! * **quant** — 16-byte records comparing per-gene sorted ranks, exact
//!   for any slot width; needs fewer than 2¹⁶ slots and ≤ 65,535 entries
//!   per table.
//!
//! A layout that fits neither is an error, and the caller keeps its
//! matrix path. Both encodings run through one batch-major scalar walker
//! and, on `x86_64` with AVX2 (detected at runtime), through a gather
//! kernel each whose lanes perform exactly the walker's step. Per-row
//! accumulation happens in tree order with a single final division,
//! exactly like [`crate::engine::Regressor::predict_row`], so every path
//! is **bitwise identical** to the pointer walk.
//!
//! # The neighbour table
//!
//! A hill climb estimates rows that differ from one parent in one slot.
//! For those, [`GatherForest::predict_neighbours_into`] skips the tree
//! walks with leaf bitvectors (the QuickScorer idea, Lucchese et al.,
//! SIGIR 2015). Each tree's leaves are numbered left-first. The table
//! holds one `u64` per (slot, gene, tree): for every split of the tree
//! that reads that slot, take the complement of the split's
//! left-subtree leaf mask wherever the gene goes right; the word is the
//! AND of those complements. The AND of a row's words over its slots
//! then keeps exactly the leaves that no split the row fails rules out.
//!
//! Per call the parent's words are ANDed into one exclusion row per
//! slot, `excl[s] = prefix[s] & suffix[s + 1]` (its words over every
//! slot but `s`), and one full row over all slots. Every row is then
//! the AND of two word rows: a one-slot neighbour at slot `s` with gene
//! `g` is `excl[s] & table[s][g]`, a copy of the parent is the full row,
//! and a row that differs in two or more slots first ANDs all of its
//! slots into scratch. One pass sums four rows at a time with the tree
//! loop inside, so a one-slot neighbour costs, per tree, one AND, one
//! `trailing_zeros` and one leaf load, with no row buffer in between.
//! Only the genes that differ from the parent are range-checked; the
//! parent itself is checked in full.
//!
//! **Exactness.** The lowest surviving bit is the pointer walk's exit
//! leaf. Every leaf left of the exit leaf sits in the left subtree of
//! the split where its path and the exit path part, the row goes right
//! there, so that split clears it. The exit leaf is never cleared: a
//! split that clears it would have it in its left subtree, so the split
//! is on the exit path, where the row goes left. The leaf values are
//! then summed in tree order from `0.0` with one final division, the
//! walker's own sum, so every estimate is the gather kernel's bit for
//! bit.
//!
//! **The 64-leaf limit.** The table is baked with mask32, and only when
//! every tree has ≤ 64 leaves, so a tree is one word. Like mask32's own
//! limits this is a bake-time property, not an option; the crossovers
//! measured on Generic-GF models against the AVX2 gather kernel:
//!
//! | forest | words per tree | neighbour table vs gather |
//! |---|---|---|
//! | quick profile (50 training configs) | 1 | 3.4–5.6× faster |
//! | 400 training configs | 5 | 1.7–2.0× faster |
//! | 1,500 configs (`paper_sobel`) | 16 | 0.8–1.0× |
//! | 4,000 configs (`paper_gf`) | 40 | 0.47–0.63×, 10 MB tables |
//!
//! A tree fitted on `n` rows has at most `n` leaves, so every
//! quick-profile forest fits; the paper profiles keep the gather
//! kernel. The table takes Σ(members of the slots the model reads) ×
//! trees × 8 B, at most 2,048 rows × trees × 8 B under mask32.

use crate::engine::TrainError;
use crate::forest::RandomForest;
use crate::tree::{tree_depth, DecisionTree, NodeRepr};
use autoax_exec::hash::Fnv64;

/// Rows per traversal block: one tree's records are reused across this
/// many rows before the next tree streams in. Comfortably covers the
/// search layer's 32-candidate estimation rounds, and is a multiple of
/// both AVX2 lane widths.
const BLOCK: usize = 64;

/// All trees of a fitted ensemble flattened into one structure-of-arrays
/// arena. See the module docs for the layout and identity guarantees.
#[derive(Debug, Clone)]
pub struct CompiledForest {
    /// Feature column tested at each node (0 for leaves).
    feature: Vec<u32>,
    /// Split threshold (`NaN` for leaves, so `x <= t` never holds).
    threshold: Vec<f64>,
    /// Left child (self for leaves).
    left: Vec<u32>,
    /// Right child (self for leaves).
    right: Vec<u32>,
    /// Leaf value (0 for splits — never read there).
    leaf: Vec<f64>,
    /// Root node index per tree.
    roots: Vec<u32>,
    /// Deepest leaf per tree: the fixed trip count of its traversal.
    depths: Vec<u32>,
    /// Feature-vector width the arena was compiled for.
    n_features: usize,
    /// Final per-row division (tree count for forests, 1 for a tree) —
    /// dividing (not multiplying by a reciprocal) keeps the result
    /// bitwise equal to `sum / n`.
    divisor: f64,
}

impl CompiledForest {
    /// Compiles a fitted forest. Fails on an unfitted (empty) forest.
    ///
    /// # Errors
    /// [`TrainError`] when the forest has no trees or a tree is malformed.
    pub fn from_forest(f: &RandomForest) -> Result<Self, TrainError> {
        let trees = f.fitted_trees();
        if trees.is_empty() {
            return Err(TrainError::new("cannot compile an unfitted forest"));
        }
        let lists: Vec<Vec<NodeRepr>> = trees.iter().map(|t| t.export_nodes()).collect();
        Self::from_node_lists(&lists, trees.len() as f64)
    }

    /// Compiles a fitted single tree (divisor 1 — `x / 1.0` is exact, so
    /// results still match [`crate::engine::Regressor::predict_row`] bit for bit).
    ///
    /// # Errors
    /// [`TrainError`] when the tree is unfitted or malformed.
    pub fn from_tree(t: &DecisionTree) -> Result<Self, TrainError> {
        Self::from_node_lists(&[t.export_nodes()], 1.0)
    }

    /// Compiles exported node lists (node 0 of each list is its root).
    ///
    /// # Errors
    /// [`TrainError`] on empty input, an empty tree, a child index out of
    /// range, or a node graph that is not a tree (shared or cyclic nodes
    /// would make the fixed-trip traversal diverge from the pointer walk).
    pub fn from_node_lists(lists: &[Vec<NodeRepr>], divisor: f64) -> Result<Self, TrainError> {
        if lists.is_empty() {
            return Err(TrainError::new("cannot compile zero trees"));
        }
        let total: usize = lists.iter().map(Vec::len).sum();
        if total > u32::MAX as usize {
            return Err(TrainError::new("arena exceeds u32 node indices"));
        }
        let mut arena = CompiledForest {
            feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            left: Vec::with_capacity(total),
            right: Vec::with_capacity(total),
            leaf: Vec::with_capacity(total),
            roots: Vec::with_capacity(lists.len()),
            depths: Vec::with_capacity(lists.len()),
            n_features: 0,
            divisor,
        };
        for nodes in lists {
            if nodes.is_empty() {
                return Err(TrainError::new("cannot compile an empty tree"));
            }
            let base = arena.feature.len() as u32;
            arena.roots.push(base);
            for (i, n) in nodes.iter().enumerate() {
                let me = base + i as u32;
                match *n {
                    NodeRepr::Leaf { value } => {
                        arena.feature.push(0);
                        arena.threshold.push(f64::NAN);
                        arena.left.push(me);
                        arena.right.push(me);
                        arena.leaf.push(value);
                    }
                    NodeRepr::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        if left as usize >= nodes.len() || right as usize >= nodes.len() {
                            return Err(TrainError::new("tree node child out of range"));
                        }
                        arena.n_features = arena.n_features.max(feature as usize + 1);
                        arena.feature.push(feature);
                        arena.threshold.push(threshold);
                        arena.left.push(base + left);
                        arena.right.push(base + right);
                        arena.leaf.push(0.0);
                    }
                }
            }
            arena.depths.push(tree_depth(nodes)?);
        }
        Ok(arena)
    }

    /// Number of trees in the arena.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.feature.len()
    }

    /// Feature-vector width the arena expects (highest feature index + 1).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// FNV-1a 64 digest over every lane of the arena — two compilations
    /// are interchangeable iff their digests match, which is how the
    /// store round-trip (compile → export → reload → recompile) is pinned.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for &f in &self.feature {
            h.bytes(&f.to_le_bytes());
        }
        for &t in &self.threshold {
            h.bytes(&t.to_bits().to_le_bytes());
        }
        for &l in &self.left {
            h.bytes(&l.to_le_bytes());
        }
        for &r in &self.right {
            h.bytes(&r.to_le_bytes());
        }
        for &v in &self.leaf {
            h.bytes(&v.to_bits().to_le_bytes());
        }
        for &r in &self.roots {
            h.bytes(&r.to_le_bytes());
        }
        for &d in &self.depths {
            h.bytes(&d.to_le_bytes());
        }
        h.bytes(&(self.n_features as u64).to_le_bytes());
        h.bytes(&self.divisor.to_bits().to_le_bytes());
        h.finish()
    }

    /// Bakes a per-slot feature table into the arena, producing the fused
    /// genome-slab kernel of the DSE. `layout.slot_of[f]` names the
    /// genome slot whose gene selects feature `f`'s value, and
    /// `layout.values[f][g]` is the value feature `f` takes for gene `g` —
    /// exactly what a gathered feature matrix would contain, so fused
    /// predictions stay bitwise identical to the matrix path.
    ///
    /// The records are baked as mask32 when every slot a feature reads
    /// has ≤ 32 members, the stride is ≤ 64, every tree spans ≤ 2¹³ nodes
    /// and the arena has fewer than 2²⁴ nodes; otherwise as quant when
    /// the stride is below 2¹⁶ and every table has ≤ 65,535 entries. Only
    /// the selected encoding's records are built.
    ///
    /// # Errors
    /// [`TrainError`] when the layout does not cover the arena's feature
    /// width, names a slot outside its own stride, or fits neither
    /// encoding.
    pub fn bake_gather(&self, layout: &GatherLayout) -> Result<GatherForest, TrainError> {
        if layout.slot_of.len() < self.n_features || layout.values.len() != layout.slot_of.len() {
            return Err(TrainError::new("gather layout narrower than the arena"));
        }
        let stride = layout.stride;
        // Per slot: the smallest table over the features it backs.
        // `usize::MAX` marks a slot no feature reads — never indexed, so
        // it blocks neither encoding.
        let mut slot_members = vec![usize::MAX; stride];
        for (&s, table) in layout.slot_of.iter().zip(&layout.values) {
            let members = slot_members
                .get_mut(s as usize)
                .ok_or_else(|| TrainError::new("gather layout slot out of range"))?;
            *members = (*members).min(table.len());
        }
        let n = self.feature.len() as u32;
        let ends = self.roots.iter().skip(1).chain([&n]);
        let mask32 = stride <= 64
            && n < (1 << 24)
            && self
                .roots
                .iter()
                .zip(ends)
                .all(|(&a, &b)| b - a <= (1 << 13))
            && slot_members.iter().all(|&m| m <= 32 || m == usize::MAX);
        let quant = stride < (1 << 16)
            && layout.values.iter().all(|t| t.len() <= u16::MAX as usize)
            && layout.values.iter().map(Vec::len).sum::<usize>() <= u32::MAX as usize;
        let (nodes, neighbours) = if mask32 {
            (
                Nodes::Mask32(self.bake_mask32(layout)),
                self.bake_neighbours(layout, &slot_members),
            )
        } else if quant {
            (self.bake_quant(layout), None)
        } else {
            return Err(TrainError::new(
                "gather layout fits neither the mask32 nor the quant encoding",
            ));
        };
        Ok(GatherForest {
            nodes,
            neighbours,
            leaf: self.leaf.clone(),
            roots: self.roots.clone(),
            depths: self.depths.clone(),
            slot_members,
            stride,
            divisor: self.divisor,
        })
    }

    /// The leaf-bitvector table of [`NeighbourTable`], or `None` when a
    /// tree has more than 64 leaves. Leaves are numbered left-first by a
    /// pre-order walk that visits left children first, so every subtree
    /// owns a contiguous leaf range starting at the counter value when
    /// the walk enters it.
    fn bake_neighbours(
        &self,
        layout: &GatherLayout,
        slot_members: &[usize],
    ) -> Option<NeighbourTable> {
        let trees = self.roots.len();
        let mut first = Vec::with_capacity(slot_members.len());
        let mut rows = 0;
        for &m in slot_members {
            first.push((m != usize::MAX).then_some(rows));
            rows += if m == usize::MAX { 0 } else { m };
        }
        let mut table = NeighbourTable {
            words: vec![!0; rows * trees],
            first,
            leaves: Vec::new(),
            leaf_base: Vec::with_capacity(trees),
        };
        let n = self.feature.len() as u32;
        // `lo[i]`: the first leaf number of node i's subtree
        let mut lo = vec![0u32; self.feature.len()];
        let mut stack = Vec::new();
        for (ti, &root) in self.roots.iter().enumerate() {
            let end = self.roots.get(ti + 1).copied().unwrap_or(n);
            let base = table.leaves.len();
            table.leaf_base.push(base as u32);
            stack.push(root);
            while let Some(i) = stack.pop() {
                let i = i as usize;
                lo[i] = (table.leaves.len() - base) as u32;
                if self.left[i] as usize == i {
                    table.leaves.push(self.leaf[i]);
                } else {
                    stack.push(self.right[i]);
                    stack.push(self.left[i]);
                }
            }
            if table.leaves.len() - base > 64 {
                return None;
            }
            for i in root as usize..end as usize {
                if self.left[i] as usize == i {
                    continue;
                }
                // the left subtree owns leaves lo[i]..lo[right], and the
                // right subtree holds at least one leaf above them, so
                // neither shift reaches 64
                let left_leaves = (1u64 << lo[self.right[i] as usize]) - (1u64 << lo[i]);
                let f = self.feature[i] as usize;
                let s = layout.slot_of[f] as usize;
                let row0 = table.first[s].expect("a split reads a baked slot");
                for (g, &v) in layout.values[f][..slot_members[s]].iter().enumerate() {
                    let goes_left = v <= self.threshold[i];
                    if !goes_left {
                        table.words[(row0 + g) * trees + ti] &= !left_leaves;
                    }
                }
            }
        }
        Some(table)
    }

    /// The mask32 records: bit `g` of a node's mask is the comparison
    /// `values[f][g] <= threshold` (0 everywhere for leaves, since
    /// `x <= NaN` never holds); children are stored root-relative.
    fn bake_mask32(&self, layout: &GatherLayout) -> Vec<Mask32Node> {
        let n = self.feature.len() as u32;
        let mut out = Vec::with_capacity(n as usize);
        for (ti, &root) in self.roots.iter().enumerate() {
            let end = self.roots.get(ti + 1).copied().unwrap_or(n);
            for i in root as usize..end as usize {
                let f = self.feature[i] as usize;
                let mut mask = 0u32;
                for (g, &v) in layout.values[f].iter().enumerate().take(32) {
                    mask |= ((v <= self.threshold[i]) as u32) << g;
                }
                out.push(Mask32Node {
                    mask,
                    meta: (self.right[i] - root)
                        | ((self.left[i] - root) << 13)
                        | (layout.slot_of[f] << 26),
                });
            }
        }
        out
    }

    /// The quant records plus the per-gene rank slab they index (see
    /// [`QuantNode`] for why the rank compare is exact).
    fn bake_quant(&self, layout: &GatherLayout) -> Nodes {
        let mut offsets = Vec::with_capacity(layout.values.len());
        let mut ranks = Vec::new();
        for table in &layout.values {
            let off = ranks.len();
            offsets.push(off as u64);
            ranks.resize(off + table.len(), 0u32);
            // Argsort with NaNs (either sign) last: members of the
            // `v <= t` set then occupy exactly the ranks below
            // `count(v <= t)` for every threshold `t`, duplicates and
            // signed zeros included.
            let mut order: Vec<u32> = (0..table.len() as u32).collect();
            order.sort_by(|&a, &b| {
                let (va, vb) = (table[a as usize], table[b as usize]);
                va.is_nan()
                    .cmp(&vb.is_nan())
                    .then(va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal))
            });
            for (pos, &g) in order.iter().enumerate() {
                ranks[off + g as usize] = pos as u32;
            }
        }
        let nodes = (0..self.feature.len())
            .map(|i| {
                let f = self.feature[i] as usize;
                let t = self.threshold[i];
                // Leaves carry a NaN threshold: `v <= NaN` never holds,
                // so their count is 0 and `rank < 0` is always false —
                // the self-loop still never steps left.
                let thresh = layout.values[f].iter().filter(|&&v| v <= t).count() as u64;
                QuantNode {
                    key: offsets[f] | (thresh << 32) | ((layout.slot_of[f] as u64) << 48),
                    children: ((self.right[i] as u64) << 32) | self.left[i] as u64,
                }
            })
            .collect();
        Nodes::Quant { nodes, ranks }
    }
}

/// The feature-table layout [`CompiledForest::bake_gather`] consumes:
/// how each feature column of the model maps onto (slot, per-gene value).
#[derive(Debug, Clone)]
pub struct GatherLayout {
    /// Genome stride (slot count).
    pub stride: usize,
    /// `slot_of[f]` = genome slot whose gene selects feature `f`.
    pub slot_of: Vec<u32>,
    /// `values[f][g]` = value of feature `f` when the slot's gene is `g`.
    pub values: Vec<Vec<f64>>,
}

/// One mask32 traversal node. The comparison `table[gene] <= threshold`
/// is precomputed for every gene at bake time, so a step needs neither a
/// value load nor a float compare — just `(mask >> gene) & 1`. Children
/// are stored *root-relative* in 13 bits each (`next = root + rel`;
/// leaves carry their own offset on both sides, preserving the
/// self-loop). Eight records per cache line, and each record is a single
/// 64-bit gather lane, so the AVX2 kernel runs 8 rows per vector.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Mask32Node {
    /// Bit `g` = `table[g] <= threshold`.
    mask: u32,
    /// Bits 0..13 root-relative right child, 13..26 root-relative left
    /// child (self for leaves), 26..32 the genome slot read here.
    meta: u32,
}

/// One quant traversal node. At bake time every feature table is stably
/// argsorted and each gene `g` is assigned its sorted position
/// `rank[g]`; the node stores `thresh_rank = |{v : v <= t}|`. Because the
/// `v <= t` members occupy exactly the sorted positions `0..thresh_rank`
/// (duplicates share a contiguous run that is entirely in or entirely
/// out; NaN table entries sort last and never compare `<= t`), the float
/// step `values[off+g] <= t` is **exactly** `rank[off+g] < thresh_rank` —
/// an integer compare with no float feature gather, reaching the same
/// leaves and therefore producing bit-identical predictions.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct QuantNode {
    /// Bits 0..32 rank-slab base offset, 32..48 the threshold rank
    /// (0 for leaves — `rank < 0` never holds), 48..64 the genome slot.
    key: u64,
    /// Left child in the low 32 bits, right child in the high 32 (self
    /// for leaves).
    children: u64,
}

/// The node records of a [`GatherForest`], in arena order: exactly one
/// encoding is baked.
#[derive(Debug, Clone)]
enum Nodes {
    Mask32(Vec<Mask32Node>),
    Quant {
        nodes: Vec<QuantNode>,
        /// Per-gene sorted ranks, table after table.
        ranks: Vec<u32>,
    },
}

/// The leaf-bitvector neighbour table of a [`GatherForest`] (see the
/// module docs): per (slot, gene, tree) one word whose set bits are the
/// tree's leaves that gene leaves reachable. A row's exit leaf in a tree
/// is the lowest set bit of the AND of its slots' words.
#[derive(Debug, Clone)]
struct NeighbourTable {
    /// `words[(first[s] + g) * trees + t]`: the AND, over tree `t`'s
    /// splits that read slot `s`, of the complement of the split's
    /// left-subtree leaf mask wherever gene `g` goes right (all ones
    /// when no split of the tree reads the slot).
    words: Vec<u64>,
    /// Per slot: the table row of its gene 0, `None` for a slot no
    /// feature reads (its word is all ones for every gene).
    first: Vec<Option<usize>>,
    /// Leaf values, tree after tree, each tree's leaves numbered
    /// left-first.
    leaves: Vec<f64>,
    /// Per tree: the position of its leaf 0 in `leaves`.
    leaf_base: Vec<u32>,
}

impl NeighbourTable {
    /// Gene `g`'s words in slot `s`, one per tree; `None` for a slot no
    /// feature reads.
    fn row(&self, s: usize, g: u16) -> Option<&[u64]> {
        let trees = self.leaf_base.len();
        self.first[s].map(|r| &self.words[(r + g as usize) * trees..][..trees])
    }

    /// The leaf sums of [`LANES`] rows whose exit words in tree `t` are
    /// `words[l].0[t] & words[l].1[t]`: each sum starts at 0.0 and adds
    /// its leaves in tree order, exactly as the walker does.
    fn sum_lanes(&self, words: [(&[u64], &[u64]); LANES]) -> [f64; LANES] {
        let trees = self.leaf_base.len();
        // every row cut to the tree count, so the tree loop's loads need
        // no bounds checks
        let [(a0, b0), (a1, b1), (a2, b2), (a3, b3)] = words;
        let (a0, b0, a1, b1) = (&a0[..trees], &b0[..trees], &a1[..trees], &b1[..trees]);
        let (a2, b2, a3, b3) = (&a2[..trees], &b2[..trees], &a3[..trees], &b3[..trees]);
        let mut sums = [0.0f64; LANES];
        for (t, &base) in self.leaf_base.iter().enumerate() {
            let leaves = &self.leaves[base as usize..];
            sums[0] += leaves[(a0[t] & b0[t]).trailing_zeros() as usize];
            sums[1] += leaves[(a1[t] & b1[t]).trailing_zeros() as usize];
            sums[2] += leaves[(a2[t] & b2[t]).trailing_zeros() as usize];
            sums[3] += leaves[(a3[t] & b3[t]).trailing_zeros() as usize];
        }
        sums
    }
}

/// A [`CompiledForest`] with the estimator's per-slot feature tables
/// baked into its node records (mask32 or quant, see the module docs),
/// predicting straight off a genome slab — no feature matrix exists at
/// any point.
#[derive(Debug, Clone)]
pub struct GatherForest {
    nodes: Nodes,
    /// Baked with mask32 when every tree has ≤ 64 leaves; serves
    /// [`GatherForest::predict_neighbours_into`].
    neighbours: Option<NeighbourTable>,
    /// Leaf value per node (0 for splits — read once per row and tree).
    leaf: Vec<f64>,
    roots: Vec<u32>,
    depths: Vec<u32>,
    /// Per slot: smallest table length over the features it backs — the
    /// exclusive upper bound a gene must respect (checked per batch, so
    /// the kernels can load unchecked).
    slot_members: Vec<usize>,
    stride: usize,
    divisor: f64,
}

impl GatherForest {
    /// Genome stride (slot count) the kernel expects.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Which node encoding the bake selected: `"mask32"` or `"quant"`.
    pub fn engine(&self) -> &'static str {
        match self.nodes {
            Nodes::Mask32(_) => "mask32",
            Nodes::Quant { .. } => "quant",
        }
    }

    /// Predicts one value per genome row of a flat `u16` slab,
    /// overwriting `out` (cleared first; the allocation is reused across
    /// rounds). Runs the AVX2 kernel when the CPU supports it; the scalar
    /// walker produces identical bits.
    ///
    /// # Panics
    /// Panics on a ragged slab or a gene outside its slot's baked table —
    /// both indicate a genome from a different configuration space.
    pub fn predict_genomes_into(&self, genes: &[u16], out: &mut Vec<f64>) {
        self.predict(genes, out, true);
    }

    /// Whether the bake built the leaf-bitvector neighbour table that
    /// [`GatherForest::predict_neighbours_into`] runs on.
    pub fn has_neighbour_table(&self) -> bool {
        self.neighbours.is_some()
    }

    /// [`GatherForest::predict_genomes_into`] for rows that are mostly
    /// one-slot neighbours of `parent`, bit for bit the same values.
    /// With a neighbour table each row's exit leaves are the AND of two
    /// word rows (see the module docs), so a one-slot neighbour costs one
    /// AND, one `trailing_zeros` and one leaf load per tree; a row that
    /// differs in two or more slots ANDs all of its slots first. A forest
    /// without a table runs [`GatherForest::predict_genomes_into`].
    ///
    /// # Panics
    /// Panics when `parent` is not one genome, and on the slabs
    /// [`GatherForest::predict_genomes_into`] rejects, `parent` included.
    pub fn predict_neighbours_into(&self, parent: &[u16], genes: &[u16], out: &mut Vec<f64>) {
        self.check_genes(parent);
        assert_eq!(parent.len(), self.stride, "parent must be one genome");
        let Some(table) = &self.neighbours else {
            return self.predict_genomes_into(genes, out);
        };
        let (stride, trees) = (self.stride, self.roots.len());
        assert_eq!(genes.len() % stride, 0, "ragged genome slab");
        out.clear();
        out.reserve(genes.len() / stride);
        NEIGHBOUR_WORDS.with(|cell| {
            let mut buf = cell.take();
            buf.resize((stride + 2 + LANES) * trees, 0);
            // Rows of `trees` words: the exclusion rows excl[0..stride]
            // with the parent's full AND after them, the running suffix,
            // and one row per lane for rows that differ in several slots.
            let (excl, rest) = buf.split_at_mut((stride + 1) * trees);
            let (suffix, many) = rest.split_at_mut(trees);
            // excl[s] = the parent's words ANDed over slots < s, then
            // over slots > s: excl[s] = prefix[s] & suffix[s + 1]
            excl[..trees].fill(!0);
            for s in 0..stride {
                let (done, next) = excl.split_at_mut((s + 1) * trees);
                and_row(
                    &mut next[..trees],
                    &done[s * trees..],
                    table.row(s, parent[s]),
                );
            }
            suffix.fill(!0);
            for s in (0..stride).rev() {
                let e = &mut excl[s * trees..][..trees];
                match table.row(s, parent[s]) {
                    Some(t) => {
                        for ((e, q), &t) in e.iter_mut().zip(suffix.iter_mut()).zip(t) {
                            *e &= *q;
                            *q &= t;
                        }
                    }
                    None => {
                        for (e, &q) in e.iter_mut().zip(suffix.iter()) {
                            *e &= q;
                        }
                    }
                }
            }
            let (excl, full) = excl.split_at(stride * trees);
            for rows in genes.chunks(LANES * stride) {
                let mut lanes = [Lane::Parent; LANES];
                for ((lane, row), words) in lanes
                    .iter_mut()
                    .zip(rows.chunks_exact(stride))
                    .zip(many.chunks_exact_mut(trees))
                {
                    *lane = self.lane(table, parent, row, words);
                }
                // Each lane's exit words are `a & b`; `x & x` is `x`.
                let words: [(&[u64], &[u64]); LANES] = std::array::from_fn(|l| match lanes[l] {
                    Lane::Parent => (full, full),
                    Lane::One(s, g) => {
                        let e = &excl[s * trees..][..trees];
                        (e, table.row(s, g).unwrap_or(e))
                    }
                    Lane::Many => {
                        let m = &many[l * trees..][..trees];
                        (m, m)
                    }
                });
                out.extend(
                    table.sum_lanes(words)[..rows.len() / stride]
                        .iter()
                        .map(|sum| sum / self.divisor),
                );
            }
            cell.replace(buf);
        });
    }

    /// Classifies one row of [`GatherForest::predict_neighbours_into`]
    /// against the parent, checking only the genes that differ from it
    /// (the parent's own are checked once per call). A row that differs
    /// in several slots gets its words ANDed into `words`.
    fn lane(&self, table: &NeighbourTable, parent: &[u16], row: &[u16], words: &mut [u64]) -> Lane {
        let Some(s) = row.iter().zip(parent).position(|(g, p)| g != p) else {
            return Lane::Parent;
        };
        if row[s + 1..] == parent[s + 1..] {
            self.check_gene(s, row[s]);
            return Lane::One(s, row[s]);
        }
        words.fill(!0);
        for (s, (&g, &p)) in row.iter().zip(parent).enumerate() {
            if g != p {
                self.check_gene(s, g);
            }
            if let Some(t) = table.row(s, g) {
                for (w, &t) in words.iter_mut().zip(t) {
                    *w &= t;
                }
            }
        }
        Lane::Many
    }

    /// Panics when gene `g` lies outside slot `s`'s baked table.
    fn check_gene(&self, s: usize, g: u16) {
        assert!(
            (g as usize) < self.slot_members[s],
            "gene {g} out of range for slot {s} ({} members)",
            self.slot_members[s]
        );
    }

    /// [`GatherForest::predict_genomes_into`], with the AVX2 kernel
    /// allowed (`simd`) or every row on the scalar walker.
    fn predict(&self, genes: &[u16], out: &mut Vec<f64>, simd: bool) {
        self.check_genes(genes);
        out.clear();
        out.resize(genes.len() / self.stride, 0.0);
        // SAFETY: `check_genes` above bounded every gene by its slot's
        // baked table.
        let done = if simd {
            unsafe { self.predict_avx2(genes, out) }
        } else {
            0
        };
        // the scalar walker takes the rows that do not fill a lane group
        self.walk(&genes[done * self.stride..], &mut out[done..]);
        for v in out.iter_mut() {
            *v /= self.divisor;
        }
    }

    /// Validates the slab shape and that every gene indexes inside its
    /// slot's baked table, so the kernels can load unchecked.
    fn check_genes(&self, genes: &[u16]) {
        assert_eq!(genes.len() % self.stride, 0, "ragged genome slab");
        if genes.is_empty() {
            return;
        }
        for s in 0..self.stride {
            let mut max = 0u16;
            for &g in genes[s..].iter().step_by(self.stride) {
                max = max.max(g);
            }
            self.check_gene(s, max);
        }
    }

    /// Runs the scalar walker with the baked encoding's step.
    fn walk(&self, genes: &[u16], out: &mut [f64]) {
        match &self.nodes {
            Nodes::Mask32(nodes) => self.walk_with(genes, out, |row, at, root| {
                let nd = nodes[at as usize];
                let bit = (nd.mask >> row[(nd.meta >> 26) as usize]) & 1;
                // shift 13 selects the left field when the bit is set, 0
                // the right field otherwise
                root + ((nd.meta >> (13 & bit.wrapping_neg())) & 0x1FFF)
            }),
            Nodes::Quant { nodes, ranks } => self.walk_with(genes, out, |row, at, _| {
                let nd = nodes[at as usize];
                let g = row[(nd.key >> 48) as usize] as u64;
                let rank = ranks[((nd.key & 0xFFFF_FFFF) + g) as usize] as u64;
                let left = (rank < ((nd.key >> 32) & 0xFFFF)) as u64;
                // arithmetic select: left in the low half, right in the high
                (nd.children >> (32 & left.wrapping_sub(1))) as u32
            }),
        }
    }

    /// The scalar walker. Batch-major: per `BLOCK`-row block and tree the
    /// depth loop is outer and the rows inner, so every step level keeps
    /// ~`BLOCK` independent dependency chains in flight instead of
    /// serializing one row's walk; the block stops early once every row
    /// sits on its leaf (leaves self-loop, so stopping cannot change a
    /// bit). `step(row, at, root)` advances one genome from node `at` of
    /// the tree rooted at `root`; row `k`'s leaf values are added to
    /// `out[k]` tree by tree, in tree order.
    #[inline(always)]
    fn walk_with<S>(&self, genes: &[u16], out: &mut [f64], step: S)
    where
        S: Fn(&[u16], u32, u32) -> u32,
    {
        let mut idx = [0u32; BLOCK];
        for (b, rows) in genes.chunks(BLOCK * self.stride).enumerate() {
            let idx = &mut idx[..rows.len() / self.stride];
            for (&root, &depth) in self.roots.iter().zip(&self.depths) {
                idx.fill(root);
                for _ in 0..depth {
                    let mut changed = 0u32;
                    for (at, row) in idx.iter_mut().zip(rows.chunks_exact(self.stride)) {
                        let next = step(row, *at, root);
                        changed |= next ^ *at;
                        *at = next;
                    }
                    if changed == 0 {
                        break; // whole block settled on leaves
                    }
                }
                for (o, &at) in out[b * BLOCK..].iter_mut().zip(idx.iter()) {
                    *o += self.leaf[at as usize];
                }
            }
        }
    }

    /// Runs the baked encoding's AVX2 kernel over the leading rows that
    /// fill whole lane groups, accumulating leaf sums into `out`, and
    /// returns how many rows it took — 0 without AVX2.
    ///
    /// # Safety
    /// `genes` must have passed [`GatherForest::check_genes`].
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    unsafe fn predict_avx2(&self, genes: &[u16], out: &mut [f64]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 confirmed at runtime; the caller checked genes.
            return unsafe {
                match &self.nodes {
                    Nodes::Mask32(nodes) => self.mask32_avx2(nodes, genes, out),
                    Nodes::Quant { nodes, ranks } => self.quant_avx2(nodes, ranks, genes, out),
                }
            };
        }
        0
    }

    /// Mask32 AVX2 kernel: **eight** rows per vector on `epi32` lanes. A
    /// step needs two half-width record gathers (each 8-byte node is one
    /// 64-bit gather lane) plus the gene gather — 3 gathers per 8 rows.
    /// The children are root-relative 13-bit fields selected with
    /// `vpblendvb` and re-based by one `vpaddd`; every lane performs
    /// exactly the scalar step, so bits match. Depth loop outer, lane
    /// groups inner, like the scalar walker; a group whose lanes all
    /// reached leaves stops gathering.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `genes` passed
    /// [`GatherForest::check_genes`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mask32_avx2(&self, nodes: &[Mask32Node], genes: &[u16], out: &mut [f64]) -> usize {
        use std::arch::x86_64::*;
        let simd_rows = out.len() / 8 * 8;
        GENES32.with(|cell| {
            let mut genes32 = cell.take();
            let stride = self.stride as i32;
            let node_base = nodes.as_ptr() as *const i64;
            let one = _mm256_set1_epi32(1);
            let m13 = _mm256_set1_epi32(0x1FFF);
            let lane = _mm256_mullo_epi32(
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                _mm256_set1_epi32(stride),
            );
            for (b, chunk) in out[..simd_rows].chunks_mut(BLOCK).enumerate() {
                let rows = &genes[b * BLOCK * self.stride..][..chunk.len() * self.stride];
                genes32.clear();
                genes32.extend(rows.iter().map(|&g| g as u32));
                let groups = chunk.len() / 8;
                for (&root, &depth) in self.roots.iter().zip(&self.depths) {
                    let root8 = _mm256_set1_epi32(root as i32);
                    let mut idx = [root8; BLOCK / 8];
                    let mut settled = [false; BLOCK / 8];
                    for _ in 0..depth {
                        let mut unsettled = 0i32;
                        for (gi, cur) in idx[..groups].iter_mut().enumerate() {
                            if settled[gi] {
                                continue;
                            }
                            let row_base =
                                _mm256_add_epi32(_mm256_set1_epi32((gi * 8) as i32 * stride), lane);
                            // 8-byte records: node i IS 64-bit word i.
                            // Two half-gathers fetch all eight records...
                            let lo = _mm256_i32gather_epi64::<8>(
                                node_base,
                                _mm256_castsi256_si128(*cur),
                            );
                            let hi = _mm256_i32gather_epi64::<8>(
                                node_base,
                                _mm256_extracti128_si256::<1>(*cur),
                            );
                            // ...then mask (low 32 of each record) and
                            // meta (high 32) deinterleave back into lane
                            // order: shuffle_ps picks the even/odd 32-bit
                            // words per 128-bit half, permute4x64
                            // (0,2,1,3) undoes the half interleave.
                            let even = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(
                                _mm256_castsi256_ps(lo),
                                _mm256_castsi256_ps(hi),
                            ));
                            let odd = _mm256_castps_si256(_mm256_shuffle_ps::<0b11_01_11_01>(
                                _mm256_castsi256_ps(lo),
                                _mm256_castsi256_ps(hi),
                            ));
                            let masks = _mm256_permute4x64_epi64::<0b11_01_10_00>(even);
                            let metas = _mm256_permute4x64_epi64::<0b11_01_10_00>(odd);
                            let slot = _mm256_srli_epi32::<26>(metas);
                            let gpos = _mm256_add_epi32(row_base, slot);
                            let gene =
                                _mm256_i32gather_epi32::<4>(genes32.as_ptr() as *const i32, gpos);
                            // gene < 32 (the ≤32-member bake guarantee),
                            // so the variable shift never saturates
                            let bit = _mm256_and_si256(_mm256_srlv_epi32(masks, gene), one);
                            let go_left = _mm256_cmpeq_epi32(bit, one);
                            let l = _mm256_and_si256(_mm256_srli_epi32::<13>(metas), m13);
                            let r = _mm256_and_si256(metas, m13);
                            // go_left is lane-uniform, so the byte blend
                            // is a 32-bit select
                            let rel = _mm256_blendv_epi8(r, l, go_left);
                            let next = _mm256_add_epi32(root8, rel);
                            let sm = _mm256_movemask_epi8(_mm256_cmpeq_epi32(next, *cur));
                            settled[gi] = sm == -1;
                            unsettled |= sm ^ -1;
                            *cur = next;
                        }
                        if unsettled == 0 {
                            break; // whole block settled on leaves
                        }
                    }
                    for (gi, cur) in idx[..groups].iter().enumerate() {
                        let leaves_lo = _mm256_i32gather_pd::<8>(
                            self.leaf.as_ptr(),
                            _mm256_castsi256_si128(*cur),
                        );
                        let leaves_hi = _mm256_i32gather_pd::<8>(
                            self.leaf.as_ptr(),
                            _mm256_extracti128_si256::<1>(*cur),
                        );
                        let p = chunk.as_mut_ptr().add(gi * 8);
                        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), leaves_lo));
                        let p = p.add(4);
                        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), leaves_hi));
                    }
                }
            }
            cell.replace(genes32);
        });
        simd_rows
    }

    /// Quant AVX2 kernel: four rows per vector on 64-bit lanes. A step
    /// needs two gathers for the 16-byte record (`key`/`children`), the
    /// gene gather and one 32-bit rank gather; the compare is an integer
    /// `vpcmpgtq` against the threshold rank, so the float unit stays
    /// idle. Same loop shape and settled-group skip as the mask32 kernel.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `genes` passed
    /// [`GatherForest::check_genes`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quant_avx2(
        &self,
        nodes: &[QuantNode],
        ranks: &[u32],
        genes: &[u16],
        out: &mut [f64],
    ) -> usize {
        use std::arch::x86_64::*;
        let simd_rows = out.len() / 4 * 4;
        GENES32.with(|cell| {
            let mut genes32 = cell.take();
            let stride = self.stride as i64;
            let node_base = nodes.as_ptr() as *const i64;
            let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
            let m16 = _mm256_set1_epi64x(0xFFFF);
            for (b, chunk) in out[..simd_rows].chunks_mut(BLOCK).enumerate() {
                let rows = &genes[b * BLOCK * self.stride..][..chunk.len() * self.stride];
                genes32.clear();
                genes32.extend(rows.iter().map(|&g| g as u32));
                let groups = chunk.len() / 4;
                for (&root, &depth) in self.roots.iter().zip(&self.depths) {
                    let mut idx = [_mm256_set1_epi64x(root as i64); BLOCK / 4];
                    let mut settled = [false; BLOCK / 4];
                    for _ in 0..depth {
                        let mut unsettled = 0i32;
                        for (gi, cur) in idx[..groups].iter_mut().enumerate() {
                            if settled[gi] {
                                continue;
                            }
                            let base = (gi * 4) as i64 * stride;
                            let row_base = _mm256_set_epi64x(
                                base + 3 * stride,
                                base + 2 * stride,
                                base + stride,
                                base,
                            );
                            // 16-byte records: field f of node i is the
                            // 64-bit word at 2*i + f
                            let n2 = _mm256_slli_epi64::<1>(*cur);
                            let key = _mm256_i64gather_epi64::<8>(node_base, n2);
                            let children = _mm256_i64gather_epi64::<8>(node_base.add(1), n2);
                            let slot = _mm256_srli_epi64::<48>(key);
                            let gpos = _mm256_add_epi64(row_base, slot);
                            let gene =
                                _mm256_i64gather_epi32::<4>(genes32.as_ptr() as *const i32, gpos);
                            let rpos = _mm256_add_epi64(
                                _mm256_and_si256(key, lo32),
                                _mm256_cvtepu32_epi64(gene),
                            );
                            let rank =
                                _mm256_i64gather_epi32::<4>(ranks.as_ptr() as *const i32, rpos);
                            let thresh = _mm256_and_si256(_mm256_srli_epi64::<32>(key), m16);
                            // both operands < 2^16, so signed compare is safe
                            let go_left = _mm256_cmpgt_epi64(thresh, _mm256_cvtepu32_epi64(rank));
                            let l = _mm256_and_si256(children, lo32);
                            let r = _mm256_srli_epi64::<32>(children);
                            let next = _mm256_castpd_si256(_mm256_blendv_pd(
                                _mm256_castsi256_pd(r),
                                _mm256_castsi256_pd(l),
                                _mm256_castsi256_pd(go_left),
                            ));
                            let sm = _mm256_movemask_epi8(_mm256_cmpeq_epi64(next, *cur));
                            settled[gi] = sm == -1;
                            unsettled |= sm ^ -1;
                            *cur = next;
                        }
                        if unsettled == 0 {
                            break; // whole block settled on leaves
                        }
                    }
                    for (gi, cur) in idx[..groups].iter().enumerate() {
                        let leaves = _mm256_i64gather_pd::<8>(self.leaf.as_ptr(), *cur);
                        let p = chunk.as_mut_ptr().add(gi * 4);
                        _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), leaves));
                    }
                }
            }
            cell.replace(genes32);
        });
        simd_rows
    }
}

/// `dst = src & words`, or a copy of `src` for a slot no feature reads
/// (`words` is `None`); `dst` sets the length.
fn and_row(dst: &mut [u64], src: &[u64], words: Option<&[u64]>) {
    match words {
        Some(words) => {
            for ((d, &s), &w) in dst.iter_mut().zip(src).zip(words) {
                *d = s & w;
            }
        }
        None => dst.copy_from_slice(&src[..dst.len()]),
    }
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// Reusable widened-gene scratch for the AVX2 kernels (one block).
    static GENES32: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Rows [`GatherForest::predict_neighbours_into`] sums at once: four
/// independent sum chains overlap the latency of the leaf loads and the
/// float adds.
const LANES: usize = 4;

/// How a row of [`GatherForest::predict_neighbours_into`] relates to
/// its parent.
#[derive(Debug, Clone, Copy)]
enum Lane {
    /// A copy of the parent (or a lane past the slab's last row).
    Parent,
    /// Differs from the parent in slot `.0` only, with gene `.1`.
    One(usize, u16),
    /// Differs in several slots: its words are ANDed into scratch.
    Many,
}

thread_local! {
    /// Reusable word scratch of [`GatherForest::predict_neighbours_into`]:
    /// the parent's exclusion rows and running suffix, plus one row per
    /// lane.
    static NEIGHBOUR_WORDS: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Regressor;
    use crate::linalg::Matrix;
    use crate::tree::TreeConfig;
    use proptest::prelude::*;

    /// Deterministic pseudo-random stream for test data.
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (*state >> 33) as f64 / 2.0_f64.powi(31)
    }

    fn fit_forest(n_rows: usize, n_feats: usize, trees: usize, depth: usize) -> RandomForest {
        let mut st = (n_rows * 31 + n_feats * 7 + trees) as u64 + 1;
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| (0..n_feats).map(|_| lcg(&mut st)).collect())
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().enumerate().map(|(j, v)| v * (j + 1) as f64).sum())
            .collect();
        let mut f = RandomForest::new(42).with_trees(trees);
        f.tree_config.max_depth = depth;
        f.fit(&Matrix::from_rows(&rows), &y).unwrap();
        f
    }

    /// `rows` random genomes with `members` choices per slot.
    fn genomes(rows: usize, stride: usize, members: usize, st: &mut u64) -> Vec<u16> {
        (0..rows * stride)
            .map(|_| (lcg(st) * members as f64) as u16 % members as u16)
            .collect()
    }

    /// A random gather layout: `members` choices per slot, one feature
    /// per (slot, lane) pair like the estimator's hw table.
    fn random_layout(stride: usize, lanes: usize, members: usize, st: &mut u64) -> GatherLayout {
        let n_feats = stride * lanes;
        GatherLayout {
            stride,
            slot_of: (0..n_feats).map(|f| (f / lanes) as u32).collect(),
            values: (0..n_feats)
                .map(|_| (0..members).map(|_| lcg(st)).collect())
                .collect(),
        }
    }

    /// Materializes the feature matrix a layout + genome slab implies —
    /// the rows the pointer-walk oracle predicts.
    fn materialize(layout: &GatherLayout, genes: &[u16]) -> Matrix {
        let rows: Vec<Vec<f64>> = genes
            .chunks_exact(layout.stride)
            .map(|row| {
                (0..layout.values.len())
                    .map(|f| layout.values[f][row[layout.slot_of[f] as usize] as usize])
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    /// Fits a forest on `rows` random genomes of `layout` (target: a
    /// weighted feature sum, so every feature matters) and bakes it.
    fn fit_and_bake(
        layout: &GatherLayout,
        members: usize,
        rows: usize,
        (seed, trees, depth): (u64, usize, usize),
        st: &mut u64,
    ) -> (RandomForest, GatherForest) {
        let xt = materialize(layout, &genomes(rows, layout.stride, members, st));
        let y: Vec<f64> = xt
            .rows_iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(j, v)| v * ((j % 3) as f64 + 1.0))
                    .sum()
            })
            .collect();
        let mut f = RandomForest::new(seed).with_trees(trees);
        f.tree_config.max_depth = depth;
        f.fit(&xt, &y).unwrap();
        let gf = CompiledForest::from_forest(&f)
            .unwrap()
            .bake_gather(layout)
            .unwrap();
        (f, gf)
    }

    /// Asserts the dispatched kernel (AVX2 where available) and the
    /// scalar walker both reproduce `model`'s pointer walk bit for bit.
    fn assert_pointer_walk(
        model: &dyn Regressor,
        gf: &GatherForest,
        layout: &GatherLayout,
        genes: &[u16],
    ) {
        let (mut fused, mut scalar) = (Vec::new(), Vec::new());
        gf.predict_genomes_into(genes, &mut fused);
        gf.predict(genes, &mut scalar, false);
        let x = materialize(layout, genes);
        assert_eq!(fused.len(), x.nrows());
        for (i, row) in x.rows_iter().enumerate() {
            let want = model.predict_row(row).to_bits();
            assert_eq!(fused[i].to_bits(), want, "dispatched row {i}");
            assert_eq!(scalar[i].to_bits(), want, "scalar row {i}");
        }
    }

    #[test]
    fn single_tree_compiles_with_exact_division() {
        let mut st = 9u64;
        let layout = random_layout(3, 1, 6, &mut st);
        let (f, _) = fit_and_bake(&layout, 6, 60, (4, 1, 30), &mut st);
        let tree = &f.fitted_trees()[0];
        let gf = CompiledForest::from_tree(tree)
            .unwrap()
            .bake_gather(&layout)
            .unwrap();
        assert_pointer_walk(tree, &gf, &layout, &genomes(33, 3, 6, &mut st));
    }

    #[test]
    fn unfitted_models_do_not_compile() {
        assert!(CompiledForest::from_forest(&RandomForest::new(0)).is_err());
        assert!(CompiledForest::from_tree(&DecisionTree::new(TreeConfig::default())).is_err());
        assert!(CompiledForest::from_node_lists(&[], 1.0).is_err());
        assert!(CompiledForest::from_node_lists(&[vec![]], 1.0).is_err());
    }

    #[test]
    fn malformed_children_are_rejected() {
        let bad = vec![NodeRepr::Split {
            feature: 0,
            threshold: 0.5,
            left: 7,
            right: 1,
        }];
        assert!(CompiledForest::from_node_lists(&[bad], 1.0).is_err());
        // a cycle (node 1 points back at the root) is not a tree
        let cyclic = vec![
            NodeRepr::Split {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 1,
            },
            NodeRepr::Split {
                feature: 0,
                threshold: 0.2,
                left: 0,
                right: 0,
            },
        ];
        assert!(CompiledForest::from_node_lists(&[cyclic], 1.0).is_err());
    }

    #[test]
    fn digest_distinguishes_and_round_trips() {
        let f = fit_forest(80, 3, 5, 6);
        let a = CompiledForest::from_forest(&f).unwrap();
        let b = CompiledForest::from_forest(&f).unwrap();
        assert_eq!(a.digest(), b.digest());
        let g = fit_forest(80, 3, 5, 5);
        assert_ne!(
            a.digest(),
            CompiledForest::from_forest(&g).unwrap().digest()
        );
    }

    #[test]
    fn fnv_matches_the_fnv1a_64_known_answer() {
        let mut h = Fnv64::new();
        h.bytes(&u32::from_le_bytes(*b"abcd").to_le_bytes());
        assert_eq!(h.finish(), 0xfc17_9f83_ee07_24dd);
    }

    #[test]
    fn fused_kernel_matches_matrix_path_bitwise() {
        let mut st = 77u64;
        let layout = random_layout(5, 3, 6, &mut st);
        let (f, gf) = fit_and_bake(&layout, 6, 200, (3, 12, 30), &mut st);
        assert_pointer_walk(&f, &gf, &layout, &genomes(131, 5, 6, &mut st));
    }

    #[test]
    fn quantized_kernel_engages_for_wide_slots_and_matches_bitwise() {
        // Slots beyond the 32-member mask budget must bake the quant
        // encoding, mid-width (40) and wide (90) alike.
        for members in [40, 90] {
            let mut st = 29u64;
            let layout = random_layout(4, 2, members, &mut st);
            let (f, gf) = fit_and_bake(&layout, members, 160, (5, 11, 30), &mut st);
            assert_eq!(gf.engine(), "quant", "{members} members");
            assert_pointer_walk(&f, &gf, &layout, &genomes(133, 4, members, &mut st));
        }
    }

    #[test]
    fn quantized_ranks_handle_duplicate_table_values_exactly() {
        // Coarse value grid: many exact duplicates inside each table, so
        // split thresholds routinely land ON a duplicated value. The rank
        // compare must classify the whole duplicate run as one side.
        let mut st = 91u64;
        let (members, stride) = (80, 3);
        let n_feats = stride * 2;
        let layout = GatherLayout {
            stride,
            slot_of: (0..n_feats).map(|f| (f as u32) / 2).collect(),
            values: (0..n_feats)
                .map(|_| {
                    (0..members)
                        .map(|_| ((lcg(&mut st) * 5.0).floor()) / 5.0)
                        .collect()
                })
                .collect(),
        };
        let (f, gf) = fit_and_bake(&layout, members, 140, (17, 7, 30), &mut st);
        assert_eq!(gf.engine(), "quant");
        assert_pointer_walk(&f, &gf, &layout, &genomes(101, stride, members, &mut st));
    }

    #[test]
    fn mask32_kernel_engages_for_narrow_slots_and_matches_bitwise() {
        let mut st = 41u64;
        let members = 13; // paper-scale slot width (quick Sobel: ≤ 13)
        let layout = random_layout(5, 2, members, &mut st);
        let (f, gf) = fit_and_bake(&layout, members, 150, (7, 13, 30), &mut st);
        assert_eq!(gf.engine(), "mask32");
        assert_pointer_walk(&f, &gf, &layout, &genomes(131, 5, members, &mut st));
    }

    #[test]
    fn oversized_tables_fit_no_encoding() {
        // One slot whose table has 65,536 entries: too wide for mask32,
        // and its ranks (and the threshold count) overflow u16 — the bake
        // must refuse so the estimator keeps the matrix path. One entry
        // fewer still bakes quant.
        let f = fit_forest(40, 1, 2, 3);
        let cf = CompiledForest::from_forest(&f).unwrap();
        for (entries, fits) in [(65_535, true), (65_536, false)] {
            let layout = GatherLayout {
                stride: 1,
                slot_of: vec![0],
                values: vec![(0..entries).map(|g| g as f64 / entries as f64).collect()],
            };
            let baked = cf.bake_gather(&layout);
            assert_eq!(baked.is_ok(), fits, "{entries} entries");
            if let Ok(gf) = baked {
                assert_eq!(gf.engine(), "quant");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range for slot")]
    fn out_of_range_gene_panics() {
        let mut st = 1u64;
        let layout = random_layout(2, 1, 3, &mut st);
        let xt = Matrix::from_rows(&[vec![0.1, 0.2], vec![0.8, 0.9], vec![0.4, 0.6]]);
        let mut f = RandomForest::new(0).with_trees(2);
        f.fit(&xt, &[1.0, 2.0, 3.0]).unwrap();
        let gf = CompiledForest::from_forest(&f)
            .unwrap()
            .bake_gather(&layout)
            .unwrap();
        gf.predict_genomes_into(&[0, 3], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range for slot")]
    fn out_of_range_parent_gene_panics() {
        let mut st = 1u64;
        let layout = random_layout(2, 1, 3, &mut st);
        let (_, gf) = fit_and_bake(&layout, 3, 20, (0, 2, 4), &mut st);
        assert!(gf.has_neighbour_table());
        gf.predict_neighbours_into(&[0, 3], &[0, 0], &mut Vec::new());
    }

    #[test]
    fn out_of_range_row_gene_panics_on_the_neighbour_path() {
        // The neighbour kernel checks only the genes that differ from the
        // parent: a one-slot neighbour and a row that differs in both
        // slots each carry gene 3 in a 3-member slot.
        let mut st = 1u64;
        let layout = random_layout(2, 1, 3, &mut st);
        let (_, gf) = fit_and_bake(&layout, 3, 20, (0, 2, 4), &mut st);
        assert!(gf.has_neighbour_table());
        for row in [[0u16, 3], [3, 1]] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gf.predict_neighbours_into(&[0, 0], &row, &mut Vec::new())
            }))
            .expect_err("an out-of-range gene must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains("out of range for slot"), "{row:?}: {msg}");
        }
    }

    /// A gather layout over `stride` slots in which slot `unread` backs
    /// no feature and every other slot backs `lanes` features: 1 is the
    /// estimator's QoR layout, 3 its hardware layout.
    fn layout_with_unread_slot(
        stride: usize,
        lanes: usize,
        members: usize,
        unread: usize,
        st: &mut u64,
    ) -> GatherLayout {
        let slot_of: Vec<u32> = (0..stride as u32)
            .filter(|&s| s as usize != unread)
            .flat_map(|s| std::iter::repeat_n(s, lanes))
            .collect();
        GatherLayout {
            stride,
            values: slot_of
                .iter()
                .map(|_| (0..members).map(|_| lcg(st)).collect())
                .collect(),
            slot_of,
        }
    }

    /// `rows` genomes around `parent`, each a copy of it, a one-slot
    /// neighbour of it or a row with every slot redrawn. Slot `unread`
    /// draws any `u16`: no feature reads it, so no kernel may index by
    /// it.
    fn around(
        parent: &[u16],
        rows: usize,
        members: usize,
        unread: Option<usize>,
        st: &mut u64,
    ) -> Vec<u16> {
        let draw = |s: usize, st: &mut u64| match unread {
            Some(u) if u == s => (lcg(st) * 65_536.0) as u16,
            _ => (lcg(st) * members as f64) as u16 % members as u16,
        };
        let mut genes = Vec::with_capacity(rows * parent.len());
        for _ in 0..rows {
            let mut row = parent.to_vec();
            match (lcg(st) * 3.0) as usize {
                0 => {}
                1 => {
                    let s = (lcg(st) * row.len() as f64) as usize % row.len();
                    row[s] = draw(s, st);
                }
                _ => {
                    for (s, g) in row.iter_mut().enumerate() {
                        *g = draw(s, st);
                    }
                }
            }
            genes.extend(row);
        }
        genes
    }

    /// Asserts the neighbour kernel reproduces the dispatched gather
    /// kernel bit for bit on `genes` around `parent`.
    fn assert_neighbours_match_gather(gf: &GatherForest, parent: &[u16], genes: &[u16]) {
        let (mut neighbours, mut gather) = (Vec::new(), Vec::new());
        gf.predict_neighbours_into(parent, genes, &mut neighbours);
        gf.predict_genomes_into(genes, &mut gather);
        assert_eq!(neighbours.len(), gather.len());
        for (i, (a, b)) in neighbours.iter().zip(&gather).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
    }

    /// A one-feature comb: split `i` sends genes `<= i` to its left leaf
    /// (value `i`) and the rest down the spine, so gene `g` exits at the
    /// leaf worth `min(g, leaves - 1)`.
    fn comb(leaves: usize) -> Vec<NodeRepr> {
        let mut nodes = Vec::new();
        for i in 0..leaves - 1 {
            let at = nodes.len() as u32;
            nodes.push(NodeRepr::Split {
                feature: 0,
                threshold: i as f64,
                left: at + 1,
                right: at + 2,
            });
            nodes.push(NodeRepr::Leaf { value: i as f64 });
        }
        nodes.push(NodeRepr::Leaf {
            value: (leaves - 1) as f64,
        });
        nodes
    }

    #[test]
    fn neighbour_table_needs_at_most_64_leaves_per_tree() {
        let layout = GatherLayout {
            stride: 1,
            slot_of: vec![0],
            values: vec![(0..32).map(|g| g as f64).collect()],
        };
        let genes: Vec<u16> = (0..32).collect();
        for (leaves, baked) in [(33, true), (64, true), (65, false)] {
            let gf = CompiledForest::from_node_lists(&[comb(3), comb(leaves)], 2.0)
                .unwrap()
                .bake_gather(&layout)
                .unwrap();
            assert_eq!(gf.engine(), "mask32");
            assert_eq!(gf.has_neighbour_table(), baked, "{leaves} leaves");
            let mut out = Vec::new();
            gf.predict_neighbours_into(&[5], &genes, &mut out);
            for (g, v) in out.iter().enumerate() {
                let want = (g.min(2) as f64 + g as f64) / 2.0;
                assert_eq!(v.to_bits(), want.to_bits(), "{leaves} leaves, gene {g}");
            }
            assert_neighbours_match_gather(&gf, &[5], &genes);
        }
    }

    #[test]
    fn forests_without_a_table_match_through_the_fallback() {
        // 300 training rows grow trees far past 64 leaves under mask32;
        // 40-member slots bake quant, which never gets a table.
        let mut st = 13u64;
        for (members, rows, engine) in [(20, 300, "mask32"), (40, 50, "quant")] {
            let layout = random_layout(4, 3, members, &mut st);
            let (f, gf) = fit_and_bake(&layout, members, rows, (8, 6, 30), &mut st);
            assert_eq!(gf.engine(), engine);
            assert!(!gf.has_neighbour_table(), "{engine}");
            let parent = genomes(1, 4, members, &mut st);
            let genes = around(&parent, 70, members, None, &mut st);
            assert_neighbours_match_gather(&gf, &parent, &genes);
            assert_pointer_walk(&f, &gf, &layout, &genes);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The neighbour kernel is bitwise identical to the gather
        /// kernels and the pointer walk on random mask32 forests with
        /// ≤ 64 leaves per tree (fitted on 60 rows), in the QoR layout
        /// (one feature per slot) and the hardware layout (three), with
        /// one slot no feature reads, over batches that mix copies of the
        /// parent, one-slot neighbours and rows redrawn in every slot.
        #[test]
        fn neighbour_kernel_matches_gather_and_pointer_walk(
            seed in 0u64..1000,
            trees in 1usize..14,
            depth in 1usize..12,
            stride in 2usize..7,
            members in 2usize..33,
            hw_layout in any::<bool>(),
            unread in 0usize..7,
            batch in 1usize..=70,
        ) {
            let mut st = seed.wrapping_mul(0xC2B2_AE35).wrapping_add(5);
            let unread = unread % stride;
            let lanes = if hw_layout { 3 } else { 1 };
            let layout = layout_with_unread_slot(stride, lanes, members, unread, &mut st);
            let (f, gf) = fit_and_bake(&layout, members, 60, (seed, trees, depth), &mut st);
            prop_assert_eq!(gf.engine(), "mask32");
            prop_assert!(gf.has_neighbour_table());
            let mut parent = genomes(1, stride, members, &mut st);
            parent[unread] = 40_000;
            let genes = around(&parent, batch, members, Some(unread), &mut st);
            assert_neighbours_match_gather(&gf, &parent, &genes);
            assert_pointer_walk(&f, &gf, &layout, &genes);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The mask32 kernels (dispatched and scalar walker) are bitwise
        /// identical to the pointer walk across random tree depths, every
        /// slot width inside the u32 mask budget, and batch sizes —
        /// including batches straddling the traversal block and the
        /// 8-lane group tails.
        #[test]
        fn compiled_paths_match_pointer_walk(
            seed in 0u64..1000,
            trees in 1usize..14,
            depth in 1usize..12,
            stride in 1usize..6,
            members in 2usize..33,
            batch in 1usize..150,
        ) {
            let mut st = seed.wrapping_mul(2654435761).wrapping_add(1);
            let layout = random_layout(stride, 2, members, &mut st);
            let (f, gf) = fit_and_bake(&layout, members, 90, (seed, trees, depth), &mut st);
            prop_assert_eq!(gf.engine(), "mask32");
            assert_pointer_walk(&f, &gf, &layout, &genomes(batch, stride, members, &mut st));
        }

        /// The quant kernels (dispatched and scalar walker) are bitwise
        /// identical to the pointer walk's float compare across slot
        /// widths beyond the mask32 budget, random forests and batch
        /// sizes — including batches straddling the traversal block and
        /// 4-lane group tails.
        #[test]
        fn quantized_kernels_match_float_compare_bitwise(
            seed in 0u64..1000,
            trees in 1usize..10,
            depth in 1usize..10,
            stride in 1usize..5,
            members in 33usize..140,
            batch in 1usize..150,
        ) {
            let mut st = seed.wrapping_mul(0x9E3779B9).wrapping_add(7);
            let layout = random_layout(stride, 2, members, &mut st);
            let (f, gf) = fit_and_bake(&layout, members, 80, (seed, trees, depth), &mut st);
            prop_assert_eq!(gf.engine(), "quant");
            assert_pointer_walk(&f, &gf, &layout, &genomes(batch, stride, members, &mut st));
        }

        /// The mask32 kernels and a second encoding of the same forest —
        /// the quant records, force-baked for these narrow slots — both
        /// match the pointer walk bit for bit (dispatched and scalar
        /// walker) across every slot width inside the u32 mask budget.
        /// The name keeps the 16-byte mask encoding that once served as
        /// the second encoding.
        #[test]
        fn mask32_kernels_match_mask64_and_pointer_walk(
            seed in 0u64..1000,
            trees in 1usize..10,
            depth in 1usize..10,
            stride in 1usize..6,
            members in 2usize..33,
            batch in 1usize..150,
        ) {
            let mut st = seed.wrapping_mul(0x85EB_CA6B).wrapping_add(3);
            let layout = random_layout(stride, 2, members, &mut st);
            let (f, gf) = fit_and_bake(&layout, members, 80, (seed, trees, depth), &mut st);
            prop_assert_eq!(gf.engine(), "mask32");
            let cf = CompiledForest::from_forest(&f).unwrap();
            let quant = GatherForest { nodes: cf.bake_quant(&layout), ..gf.clone() };
            prop_assert_eq!(quant.engine(), "quant");
            let genes = genomes(batch, stride, members, &mut st);
            assert_pointer_walk(&f, &gf, &layout, &genes);
            assert_pointer_walk(&f, &quant, &layout, &genes);
        }
    }
}
