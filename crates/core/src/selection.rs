//! Selection functions `f ∈ F : BT → BC` (§3.1).
//!
//! A selection function picks one blockchain out of a BlockTree; the paper
//! leaves `f` generic "to suit the different blockchain implementations" and
//! names the longest-chain rule (Bitcoin), the heaviest-chain rule, GHOST
//! (Ethereum, §5.2), and the trivial projection of single-chain trees
//! (Red Belly, §5.6). All four are implemented here.
//!
//! Determinism matters: `f` is "encoded in the state and do[es] not change
//! over the computation", and ties must break identically at every replica
//! (Fig. 2 breaks length ties by "the largest based on the lexicographical
//! order"). We compare candidate chains by their digest sequences, which is
//! a total, replica-independent order.
//!
//! # Incremental contract
//!
//! `select_tip` re-evaluates `f` from scratch — the literal Def. 3.1
//! semantics, kept as the specification oracle. The hot path scores
//! membership inserts incrementally instead, in two calls:
//! [`SelectionFn::score_inserts`] condenses a run of inserted blocks into
//! an [`AuxPartial`] from immutable per-block metadata alone, and
//! [`SelectionFn::apply_partial`] folds that into the rule's state and
//! answers the new tip — one comparison against the memoized incumbent
//! for the chain rules. GHOST keeps the selected chain, its *spine*, with
//! the weight hanging off each spine height (see [`SelectionAux`]): an
//! insert walks up only until it meets the spine, O(fork length), and
//! re-selection compares children only at the heights a run attached at,
//! so an append or a graft near the tip costs the same at any depth.
//! Every caller uses the same pair:
//! [`crate::tipcache::ChainCache`] scores one insert at a time, the
//! concurrent commit episode scores everything it inserted in one pass.
//! Callers own a [`SelectionAux`] scratch holding whatever per-tree state
//! a rule maintains (GHOST: the spine and its weights), which keeps this
//! trait object-safe and the selection values themselves stateless and
//! shareable, as the paper requires.
//!
//! `apply_partial` may assume:
//!
//! * the scored blocks are members of `tree`, listed in a parent-closed
//!   order, and were all inserted *after* the call that reported
//!   `current_tip`;
//! * `current_tip` was the rule's selected tip for the tree without them
//!   (the caller maintains this inductively, seeding it with a full
//!   `select_tip` scan);
//! * the same `aux` is threaded through every call for a given tree.

use crate::ids::BlockId;
use crate::store::{BlockView, TreeMembership};
use std::cmp::Ordering;

/// Per-tree scratch state for incremental selection, owned by the caller
/// and threaded through [`SelectionFn::apply_partial`]. Chain rules keep
/// the incumbent's score here.
///
/// GHOST keeps its selected chain, the *spine*, indexed by height, and
/// splits the subtree weights it descends by along it:
///
/// * each spine height has an *attached* weight: the spine block's own
///   weight plus the subtree weights of its off-spine member children;
/// * only off-spine blocks carry an explicit subtree weight.
///
/// A spine block's subtree weight is then the sum of the attached weights
/// from its height to the tip, O(distance from the tip), and an insert
/// updates only the off-spine blocks between it and the spine plus one
/// attached weight, O(fork length). A reorg writes the abandoned spine
/// segment's weights out explicitly and re-spines along the winner,
/// O(reorg length). A fork near genesis therefore still costs O(depth).
#[derive(Clone, Debug, Default)]
pub struct SelectionAux {
    /// GHOST: subtree weight of each off-spine member block (indexed by
    /// arena slot; non-members weigh 0, spine blocks' entries are stale).
    subtree_weight: Vec<u64>,
    /// GHOST: the selected chain, genesis first (`spine[h]` is at height
    /// `h`; the last entry is the selected tip).
    spine: Vec<BlockId>,
    /// GHOST: the attached weight of each spine height.
    attached: Vec<u64>,
    /// Whether the GHOST state reflects the current tree (rules
    /// initialize lazily on first use).
    ready: bool,
    /// Chain rules: the current tip's memoized score. A block's score
    /// (height, cumulative work) is immutable, so a matching entry is
    /// never stale — this takes the per-insert tip re-scoring (a shard
    /// lock on the concurrent store) off the commit hot path.
    tip_score: Option<(BlockId, u64)>,
}

impl SelectionAux {
    /// Fresh, uninitialized scratch (rules rebuild it on first use).
    pub fn new() -> Self {
        SelectionAux::default()
    }

    /// Drops any maintained state, forcing re-initialization on next use.
    pub fn reset(&mut self) {
        self.subtree_weight.clear();
        self.spine.clear();
        self.attached.clear();
        self.ready = false;
        self.tip_score = None;
    }

    #[inline]
    fn weight(&self, id: BlockId) -> u64 {
        self.subtree_weight.get(id.index()).copied().unwrap_or(0)
    }

    #[inline]
    fn weight_mut(&mut self, id: BlockId) -> &mut u64 {
        if self.subtree_weight.len() <= id.index() {
            self.subtree_weight.resize(id.index() + 1, 0);
        }
        &mut self.subtree_weight[id.index()]
    }
}

/// A run of inserts condensed by [`SelectionFn::score_inserts`] — what
/// [`SelectionFn::apply_partial`] folds into the shared [`SelectionAux`].
///
/// The representation is rule-agnostic:
///
/// * `weights` — GHOST-style own-weights of the inserted blocks, in
///   insert order. Chain rules leave this empty.
/// * `best` — the run's best `(score, block)` under a chain rule's total
///   order (score, then path-lexicographic). GHOST leaves this `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuxPartial {
    weights: Vec<(BlockId, u64)>,
    best: Option<(u64, BlockId)>,
}

impl AuxPartial {
    /// The empty contribution: no inserts.
    pub fn empty() -> Self {
        AuxPartial::default()
    }

    /// A GHOST-style contribution: one own-weight per inserted block.
    pub fn from_weights(weights: Vec<(BlockId, u64)>) -> Self {
        AuxPartial {
            weights,
            best: None,
        }
    }

    /// A chain-rule contribution: the run's best-scored block.
    pub fn from_best(score: u64, id: BlockId) -> Self {
        AuxPartial {
            weights: Vec::new(),
            best: Some((score, id)),
        }
    }

    /// The inserted-block weights, in insert order.
    pub fn weights(&self) -> &[(BlockId, u64)] {
        &self.weights
    }

    /// The chain-rule best entry, if any, as `(score, block)`.
    pub fn best(&self) -> Option<(u64, BlockId)> {
        self.best
    }
}

/// A deterministic selection function `f : BT → BC`, given by the tip of the
/// selected chain (the chain itself is the genesis→tip path).
pub trait SelectionFn: Sync {
    /// Tip of `f(bt)` for the tree `(store, tree)`. Returns the genesis id
    /// iff the tree contains only `b0` (Def. 3.1: `f(b0) = b0`).
    ///
    /// This is the full re-evaluation: O(tree). It stays the semantic
    /// oracle that the incremental path is differential-tested against.
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId;

    /// Scores a run of inserted blocks into an [`AuxPartial`] for
    /// [`apply_partial`](Self::apply_partial). Only immutable per-block
    /// metadata may be read — not `aux`, not the membership — so the
    /// result depends on the blocks alone.
    ///
    /// The default carries the run as unit weights.
    fn score_inserts(&self, _store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        AuxPartial::from_weights(inserts.iter().map(|&id| (id, 1)).collect())
    }

    /// Folds a scored run into `aux` and returns the new selected tip
    /// (see the module docs for what may be assumed). `partial` is
    /// `score_inserts` over blocks that are already members of `tree`.
    ///
    /// The default is the full `select_tip` scan, so custom rules are
    /// correct before they are fast.
    fn apply_partial(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        _aux: &mut SelectionAux,
        _partial: &AuxPartial,
        _current_tip: BlockId,
    ) -> BlockId {
        self.select_tip(store, tree)
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Lexicographic comparison of the genesis→tip digest sequences of two
/// chains. Total order on distinct chains (digest sequences differ as soon
/// as the paths diverge, since digests commit to ancestry).
///
/// O(log n): the chains agree up to their deepest common ancestor and the
/// comparison is decided by the first divergent blocks — both reachable
/// through the store's jump pointers — rather than by materializing and
/// zipping the two full paths. If one chain prefixes the other, length
/// decides.
fn cmp_paths_lexicographic(store: &dyn BlockView, a: BlockId, b: BlockId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let lca = store.common_ancestor(a, b);
    if lca == a {
        return Ordering::Less; // a is a proper prefix of b
    }
    if lca == b {
        return Ordering::Greater;
    }
    let fork_height = store.height(lca) + 1;
    let mut x = store.ancestor_at(a, fork_height);
    let mut y = store.ancestor_at(b, fork_height);
    loop {
        // First divergent position: digests commit to ancestry, so this
        // decides the order for any non-colliding digest function. The
        // walk below only continues on a 64-bit digest collision.
        let ord = store.digest_of(x).cmp(&store.digest_of(y));
        if ord != Ordering::Equal {
            return ord;
        }
        let h = store.height(x) + 1;
        let (ha, hb) = (store.height(a), store.height(b));
        match (h > ha, h > hb) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {
                x = store.ancestor_at(a, h);
                y = store.ancestor_at(b, h);
            }
        }
    }
}

/// Insert scoring for the chain rules: a run's contribution is just its
/// best `(score, block)` — scores are immutable per block, so this reads
/// one meta per insert and no shared state.
fn chain_rule_score_inserts(
    store: &dyn BlockView,
    inserts: &[BlockId],
    score: impl Fn(&crate::store::BlockMeta) -> u64,
) -> AuxPartial {
    let mut best: Option<(u64, BlockId)> = None;
    for &id in inserts {
        let s = score(&store.meta(id));
        best = Some(match best {
            None => (s, id),
            Some((bs, bid)) => {
                if s.cmp(&bs)
                    .then_with(|| cmp_paths_lexicographic(store, id, bid))
                    == Ordering::Greater
                {
                    (s, id)
                } else {
                    (bs, bid)
                }
            }
        });
    }
    match best {
        Some((s, id)) => AuxPartial::from_best(s, id),
        None => AuxPartial::empty(),
    }
}

/// Re-selection for the chain rules: the tip is the arg-max over leaves of
/// a per-block score, and every leaf a run of inserts removed was beaten
/// by the incumbent (or was it, and is now beaten by its extension), so
/// the new tip is the arg-max over {incumbent} ∪ run. The partial already
/// holds the run's arg-max, and the incumbent's score comes from the aux
/// memo, so this is one comparison.
fn chain_rule_apply_partial(
    store: &dyn BlockView,
    aux: &mut SelectionAux,
    partial: &AuxPartial,
    current_tip: BlockId,
    score: impl Fn(&crate::store::BlockMeta) -> u64,
) -> BlockId {
    let Some((new_score, new_block)) = partial.best() else {
        return current_tip;
    };
    let tip_score = match aux.tip_score {
        Some((tip, s)) if tip == current_tip => s,
        _ => score(&store.meta(current_tip)),
    };
    if new_score
        .cmp(&tip_score)
        .then_with(|| cmp_paths_lexicographic(store, new_block, current_tip))
        == Ordering::Greater
    {
        aux.tip_score = Some((new_block, new_score));
        new_block
    } else {
        aux.tip_score = Some((current_tip, tip_score));
        current_tip
    }
}

/// The longest-chain rule with lexicographic tie-break (largest wins), as in
/// the paper's running examples (Figs. 2–4) and Bitcoin's original rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct LongestChain;

impl SelectionFn for LongestChain {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let mut best: Option<BlockId> = None;
        for leaf in tree.leaves(store) {
            best = Some(match best {
                None => leaf,
                Some(cur) => {
                    let (hl, hc) = (store.height(leaf), store.height(cur));
                    match hl.cmp(&hc) {
                        Ordering::Greater => leaf,
                        Ordering::Less => cur,
                        Ordering::Equal => {
                            if cmp_paths_lexicographic(store, leaf, cur) == Ordering::Greater {
                                leaf
                            } else {
                                cur
                            }
                        }
                    }
                }
            });
        }
        best.expect("tree always contains genesis")
    }

    fn score_inserts(&self, store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        chain_rule_score_inserts(store, inserts, |m| m.height as u64)
    }

    fn apply_partial(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        chain_rule_apply_partial(store, aux, partial, current_tip, |m| m.height as u64)
    }

    fn name(&self) -> &'static str {
        "longest-chain"
    }
}

/// The heaviest-work rule: maximize cumulative work along the path
/// ("the blockchain which has required the most computational work", §5.1),
/// lexicographic tie-break.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeaviestWork;

impl SelectionFn for HeaviestWork {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let mut best: Option<BlockId> = None;
        for leaf in tree.leaves(store) {
            best = Some(match best {
                None => leaf,
                Some(cur) => {
                    let (wl, wc) = (store.cumulative_work(leaf), store.cumulative_work(cur));
                    match wl.cmp(&wc) {
                        Ordering::Greater => leaf,
                        Ordering::Less => cur,
                        Ordering::Equal => {
                            if cmp_paths_lexicographic(store, leaf, cur) == Ordering::Greater {
                                leaf
                            } else {
                                cur
                            }
                        }
                    }
                }
            });
        }
        best.expect("tree always contains genesis")
    }

    fn score_inserts(&self, store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        chain_rule_score_inserts(store, inserts, |m| m.cum_work)
    }

    fn apply_partial(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        chain_rule_apply_partial(store, aux, partial, current_tip, |m| m.cum_work)
    }

    fn name(&self) -> &'static str {
        "heaviest-work"
    }
}

/// What GHOST weighs when descending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhostWeight {
    /// Number of member blocks in the subtree (classic GHOST).
    BlockCount,
    /// Total work of member blocks in the subtree.
    Work,
}

/// The Greedy Heaviest-Observed SubTree rule (Sompolinsky & Zohar [30]),
/// used by Ethereum (§5.2): descend from the root, at each step entering the
/// child whose *subtree* is heaviest, until reaching a leaf.
#[derive(Clone, Copy, Debug)]
pub struct Ghost {
    pub weight: GhostWeight,
}

impl Default for Ghost {
    fn default() -> Self {
        Ghost {
            weight: GhostWeight::BlockCount,
        }
    }
}

impl Ghost {
    /// The standalone weight of one member block under this rule.
    #[inline]
    fn own_weight(&self, store: &dyn BlockView, id: BlockId) -> u64 {
        match self.weight {
            GhostWeight::BlockCount => 1,
            GhostWeight::Work => store.work_of(id).max(1),
        }
    }

    /// Rebuilds `aux`'s spine state from scratch (used on the first
    /// incremental call and after a reset): one-pass subtree weights, a
    /// spine holding only genesis, with its whole subtree off-spine, and a
    /// re-spine from there.
    fn init_aux(&self, store: &dyn BlockView, tree: &TreeMembership, aux: &mut SelectionAux) {
        aux.subtree_weight = self.subtree_weights(store, tree);
        aux.spine = vec![BlockId::GENESIS];
        aux.attached = vec![aux.weight(BlockId::GENESIS)];
        aux.ready = true;
        if let Some(first) = heaviest_child(store, tree, BlockId::GENESIS, |c| aux.weight(c)) {
            respine(store, tree, aux, 0, first);
        }
    }

    /// Subtree weights for every member block, computed in one reverse pass
    /// (children have larger arena indices than parents, so a single
    /// back-to-front scan accumulates bottom-up).
    fn subtree_weights(&self, store: &dyn BlockView, tree: &TreeMembership) -> Vec<u64> {
        let n = store.block_count();
        let mut w = vec![0u64; n];
        for idx in (0..n).rev() {
            let id = BlockId(idx as u32);
            if !tree.contains(id) {
                continue;
            }
            w[idx] += self.own_weight(store, id);
            if let Some(p) = store.parent(id) {
                w[p.index()] += w[idx];
            }
        }
        w
    }
}

/// The member child of `parent` heaviest under `weight` (`None` if
/// `parent` is a member leaf). Tie-break: larger digest, same as the full
/// scan.
fn heaviest_child(
    store: &dyn BlockView,
    tree: &TreeMembership,
    parent: BlockId,
    weight: impl Fn(BlockId) -> u64,
) -> Option<BlockId> {
    let mut best: Option<(u64, BlockId)> = None;
    store.for_each_child(parent, &mut |c| {
        if !tree.contains(c) {
            return;
        }
        let w = weight(c);
        best = match best {
            Some((bw, b))
                if w.cmp(&bw)
                    .then_with(|| store.digest_of(c).cmp(&store.digest_of(b)))
                    != Ordering::Greater =>
            {
                Some((bw, b))
            }
            _ => Some((w, c)),
        };
    });
    best.map(|(_, c)| c)
}

/// Moves the spine's branch at height `h` to the member child `winner`
/// of `spine[h]`: writes the abandoned segment's subtree weights out
/// explicitly (suffix sums of its attached weights), then re-spines along
/// `winner` and the greedy descent below it, whose blocks were off-spine
/// and so carry explicit weights. O(reorg length). Returns the new tip.
fn respine(
    store: &dyn BlockView,
    tree: &TreeMembership,
    aux: &mut SelectionAux,
    h: usize,
    winner: BlockId,
) -> BlockId {
    let mut abandoned = 0;
    for k in (h + 1..aux.spine.len()).rev() {
        abandoned += aux.attached[k];
        let b = aux.spine[k];
        *aux.weight_mut(b) = abandoned;
    }
    let SelectionAux {
        subtree_weight,
        spine,
        attached,
        ..
    } = aux;
    let weight = |c: BlockId| subtree_weight.get(c.index()).copied().unwrap_or(0);
    spine.truncate(h + 1);
    attached.truncate(h + 1);
    // The old spine child joins `spine[h]`'s off-spine children; the
    // winner leaves them.
    attached[h] = attached[h] + abandoned - weight(winner);
    let mut tip = winner;
    spine.push(tip);
    while let Some(next) = heaviest_child(store, tree, tip, weight) {
        spine.push(next);
        tip = next;
    }
    attached.extend(
        (h + 1..spine.len()).map(|k| weight(spine[k]) - spine.get(k + 1).map_or(0, |&c| weight(c))),
    );
    tip
}

impl SelectionFn for Ghost {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let weights = self.subtree_weights(store, tree);
        let mut cur = BlockId::GENESIS;
        loop {
            let mut next: Option<BlockId> = None;
            store.for_each_child(cur, &mut |c| {
                if !tree.contains(c) {
                    return;
                }
                next = Some(match next {
                    None => c,
                    Some(b) => match weights[c.index()].cmp(&weights[b.index()]) {
                        Ordering::Greater => c,
                        Ordering::Less => b,
                        // Deterministic tie-break: larger digest wins.
                        Ordering::Equal => {
                            if store.digest_of(c) > store.digest_of(b) {
                                c
                            } else {
                                b
                            }
                        }
                    },
                });
            });
            match next {
                Some(n) => cur = n,
                None => return cur,
            }
        }
    }

    fn score_inserts(&self, store: &dyn BlockView, inserts: &[BlockId]) -> AuxPartial {
        AuxPartial::from_weights(
            inserts
                .iter()
                .map(|&id| (id, self.own_weight(store, id)))
                .collect(),
        )
    }

    /// Incremental GHOST along the spine (see [`SelectionAux`]). Each
    /// insert adds its own weight to the off-spine blocks between it and
    /// the spine and to the attached weight of the spine height it meets:
    /// O(fork length). The greedy descent can only change at such a
    /// height: elsewhere on the spine only the spine child gained weight.
    /// So re-selection compares children only at the heights this run
    /// attached at, in ascending height (nearest genesis first, the order
    /// the descent meets them), with the spine child weighed as the sum of
    /// the attached weights below it, and re-spines from the first height
    /// whose heaviest member child flipped. The tip's height flips as soon
    /// as the run attached under it: the old tip was a member leaf, so a
    /// single insert there is the new leaf, and several re-descend. No
    /// check here is O(tree): the callers cross-check against the full
    /// scan.
    fn apply_partial(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        if !aux.ready {
            // First pass on this tree: the rebuild sees the inserts
            // already and descends the whole tree.
            self.init_aux(store, tree, aux);
            return *aux.spine.last().expect("the spine starts at genesis");
        }
        debug_assert_eq!(
            aux.spine.last(),
            Some(&current_tip),
            "the aux belongs to another tree or tip"
        );
        let tip_height = aux.spine.len() - 1;
        let mut heights = Vec::with_capacity(partial.weights().len());
        let (mut under_tip, mut leaf) = (0, current_tip);
        for &(id, w) in partial.weights() {
            let mut cur = id;
            let h = loop {
                let m = store.meta(cur);
                let h = m.height as usize;
                if aux.spine.get(h) == Some(&cur) {
                    break h;
                }
                *aux.weight_mut(cur) += w;
                cur = m.parent.expect("genesis is on the spine");
            };
            aux.attached[h] += w;
            if h == tip_height {
                under_tip += 1;
                leaf = id;
            }
            heights.push(h);
        }
        heights.sort_unstable();
        heights.dedup();
        let Some(&lowest) = heights.first() else {
            return current_tip;
        };
        // `below` is the subtree weight of `spine[checked + 1]`.
        let mut below: u64 = aux.attached[lowest + 1..].iter().sum();
        let mut checked = lowest;
        for h in heights {
            below -= aux.attached[checked + 1..=h].iter().sum::<u64>();
            checked = h;
            if h == tip_height && under_tip == 1 {
                debug_assert_eq!(store.parent(leaf), Some(current_tip));
                let w = aux.weight(leaf);
                aux.attached[h] -= w;
                aux.attached.push(w);
                aux.spine.push(leaf);
                return leaf;
            }
            let incumbent = aux.spine.get(h + 1).copied();
            let winner = heaviest_child(store, tree, aux.spine[h], |c| {
                if Some(c) == incumbent {
                    below
                } else {
                    aux.weight(c)
                }
            });
            if let Some(winner) = winner.filter(|&c| Some(c) != incumbent) {
                return respine(store, tree, aux, h, winner);
            }
        }
        current_tip
    }

    fn name(&self) -> &'static str {
        "ghost"
    }
}

/// The trivial projection `BT ↦ BC` of Red Belly (§5.6): the tree *is* a
/// single chain by construction (consensus decides a unique block), so `f`
/// just returns it.
///
/// Panics if the tree has a fork — that would mean the protocol driving it
/// broke its k = 1 guarantee, which is a bug worth failing loudly on.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialProjection;

impl SelectionFn for TrivialProjection {
    fn select_tip(&self, store: &dyn BlockView, tree: &TreeMembership) -> BlockId {
        let leaves = tree.leaves(store);
        assert!(
            leaves.len() == 1,
            "TrivialProjection requires a forkless tree, found {} leaves",
            leaves.len()
        );
        leaves[0]
    }

    /// Each insert, in order, must extend the tip before it.
    fn apply_partial(
        &self,
        store: &dyn BlockView,
        _tree: &TreeMembership,
        _aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        let mut tip = current_tip;
        for &(id, _) in partial.weights() {
            assert!(
                store.parent(id) == Some(tip),
                "TrivialProjection requires a forkless tree, {id} does not extend {tip}"
            );
            tip = id;
        }
        tip
    }

    fn name(&self) -> &'static str {
        "trivial-projection"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Payload;
    use crate::ids::ProcessId;
    use crate::store::BlockStore;

    /// b0 ── a ─┬─ b1 ── c1
    ///           └─ b2
    fn forked() -> (BlockStore, BlockId, BlockId, BlockId, BlockId) {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 10, Payload::Empty);
        let b1 = s.mint(a, ProcessId(0), 0, 1, 11, Payload::Empty);
        let b2 = s.mint(a, ProcessId(1), 1, 5, 12, Payload::Empty);
        let c1 = s.mint(b1, ProcessId(0), 0, 1, 13, Payload::Empty);
        (s, a, b1, b2, c1)
    }

    #[test]
    fn longest_picks_deepest() {
        let (s, _, _, _, c1) = forked();
        let t = TreeMembership::full(&s);
        assert_eq!(LongestChain.select_tip(&s, &t), c1);
    }

    #[test]
    fn longest_on_genesis_only() {
        let s = BlockStore::new();
        let t = TreeMembership::full(&s);
        assert_eq!(LongestChain.select_tip(&s, &t), BlockId::GENESIS);
    }

    #[test]
    fn longest_tie_break_is_deterministic() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(BlockId::GENESIS, ProcessId(1), 1, 1, 1, Payload::Empty);
        let t = TreeMembership::full(&s);
        let pick = LongestChain.select_tip(&s, &t);
        // Largest digest path wins.
        let expect = if s.get(a).digest > s.get(b).digest {
            a
        } else {
            b
        };
        assert_eq!(pick, expect);
        // Stable across repeated calls.
        assert_eq!(LongestChain.select_tip(&s, &t), pick);
    }

    #[test]
    fn heaviest_prefers_work_over_length() {
        let (s, _, _, b2, c1) = forked();
        let t = TreeMembership::full(&s);
        // Path to c1 has work 3; path to b2 has work 6.
        assert_eq!(s.cumulative_work(c1), 3);
        assert_eq!(s.cumulative_work(b2), 6);
        assert_eq!(HeaviestWork.select_tip(&s, &t), b2);
    }

    #[test]
    fn ghost_follows_heavier_subtree() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(BlockId::GENESIS, ProcessId(1), 1, 1, 1, Payload::Empty);
        // Two children under `a`, one under `b`: GHOST must enter `a`'s
        // subtree (weight 3 > 2) even though both leaves have equal height.
        let a1 = s.mint(a, ProcessId(0), 0, 1, 2, Payload::Empty);
        let _a2 = s.mint(a, ProcessId(2), 2, 1, 3, Payload::Empty);
        let _b1 = s.mint(b, ProcessId(1), 1, 1, 4, Payload::Empty);
        let t = TreeMembership::full(&s);
        let tip = Ghost::default().select_tip(&s, &t);
        assert!(
            tip == a1 || s.parent(tip) == Some(a),
            "GHOST must land in a's subtree, got {tip}"
        );
        assert!(s.is_ancestor(a, tip));
    }

    #[test]
    fn ghost_work_weighting() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 10, 0, Payload::Empty);
        let b = s.mint(BlockId::GENESIS, ProcessId(1), 1, 1, 1, Payload::Empty);
        let _b1 = s.mint(b, ProcessId(1), 1, 1, 2, Payload::Empty);
        let _b2 = s.mint(b, ProcessId(1), 1, 1, 3, Payload::Empty);
        let t = TreeMembership::full(&s);
        // By count, b's subtree (3) beats a's (1); by work, a (10) beats b (3).
        let by_count = Ghost {
            weight: GhostWeight::BlockCount,
        }
        .select_tip(&s, &t);
        let by_work = Ghost {
            weight: GhostWeight::Work,
        }
        .select_tip(&s, &t);
        assert!(s.is_ancestor(b, by_count));
        assert_eq!(by_work, a);
    }

    #[test]
    fn ghost_respects_membership() {
        let (s, a, b1, b2, c1) = forked();
        let mut t = TreeMembership::genesis_only();
        t.insert(&s, a);
        t.insert(&s, b2);
        // b1/c1 exist globally but are not in this replica's view.
        let tip = Ghost::default().select_tip(&s, &t);
        assert_eq!(tip, b2);
        let _ = (b1, c1);
    }

    #[test]
    fn trivial_projection_on_chain() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let t = TreeMembership::full(&s);
        assert_eq!(TrivialProjection.select_tip(&s, &t), b);
    }

    #[test]
    #[should_panic(expected = "forkless")]
    fn trivial_projection_rejects_forks() {
        let (s, ..) = forked();
        let t = TreeMembership::full(&s);
        TrivialProjection.select_tip(&s, &t);
    }

    #[test]
    #[should_panic(expected = "does not extend")]
    fn trivial_projection_rejects_forks_incrementally() {
        let (s, a, b1, b2, _) = forked();
        let mut t = TreeMembership::genesis_only();
        for id in [a, b1, b2] {
            t.insert(&s, id);
        }
        let partial = TrivialProjection.score_inserts(&s, &[a, b1, b2]);
        let mut aux = SelectionAux::new();
        TrivialProjection.apply_partial(&s, &t, &mut aux, &partial, BlockId::GENESIS);
    }

    #[test]
    fn names() {
        assert_eq!(LongestChain.name(), "longest-chain");
        assert_eq!(HeaviestWork.name(), "heaviest-work");
        assert_eq!(Ghost::default().name(), "ghost");
        assert_eq!(TrivialProjection.name(), "trivial-projection");
    }
}
