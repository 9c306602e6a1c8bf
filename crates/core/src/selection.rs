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
//! for the chain rules, a leaf→root weight walk per insert plus one check
//! per fork for GHOST. Every caller uses the same pair:
//! [`crate::tipcache::ChainCache`] scores one insert at a time, the
//! concurrent commit episode scores everything it inserted in one pass.
//! Callers own a [`SelectionAux`] scratch holding whatever per-tree state
//! a rule maintains (GHOST: subtree weights), which keeps this trait
//! object-safe and the selection values themselves stateless and
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
/// the incumbent's score here; GHOST maintains its subtree weights.
#[derive(Clone, Debug, Default)]
pub struct SelectionAux {
    /// GHOST: weight of the membership subtree rooted at each block
    /// (indexed by arena slot; non-members weigh 0).
    subtree_weight: Vec<u64>,
    /// Whether `subtree_weight` reflects the current tree (rules
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
        self.ready = false;
        self.tip_score = None;
    }

    #[inline]
    fn weight(&self, id: BlockId) -> u64 {
        self.subtree_weight.get(id.index()).copied().unwrap_or(0)
    }

    #[inline]
    fn add_weight(&mut self, id: BlockId, w: u64) {
        if self.subtree_weight.len() <= id.index() {
            self.subtree_weight.resize(id.index() + 1, 0);
        }
        self.subtree_weight[id.index()] += w;
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

    /// Rebuilds `aux`'s subtree weights from scratch (used on first
    /// incremental call and after a cache reset).
    fn init_aux(&self, store: &dyn BlockView, tree: &TreeMembership, aux: &mut SelectionAux) {
        aux.subtree_weight = self.subtree_weights(store, tree);
        aux.ready = true;
    }

    /// The heaviest member child of `cur` under the maintained weights
    /// (`None` if `cur` is a member leaf). Tie-break: larger digest, same
    /// as the full scan.
    fn heaviest_child(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &SelectionAux,
        cur: BlockId,
    ) -> Option<BlockId> {
        let mut best: Option<BlockId> = None;
        store.for_each_child(cur, &mut |c| {
            if !tree.contains(c) {
                return;
            }
            best = Some(match best {
                None => c,
                Some(b) => match aux.weight(c).cmp(&aux.weight(b)) {
                    Ordering::Greater => c,
                    Ordering::Less => b,
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
        best
    }

    /// Greedy descent from `from` to a member leaf under the maintained
    /// weights.
    fn descend(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &SelectionAux,
        mut from: BlockId,
    ) -> BlockId {
        while let Some(next) = self.heaviest_child(store, tree, aux, from) {
            from = next;
        }
        from
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

    /// Incremental GHOST: each insert adds its own weight to every subtree
    /// on its genesis→block path (an O(depth) leaf→root walk over the
    /// maintained weights). The greedy descent can only change at a
    /// *fork*, where an insert's path leaves the old tip's path: elsewhere
    /// on that path only the chosen child gained weight, and below the
    /// old side nothing moved. So re-selection takes one O(log n) LCA per
    /// insert and one child comparison per fork, highest fork first, and
    /// descends only from the first fork whose heaviest child flipped. If
    /// none flipped, the old tip stays selected unless inserts extend it:
    /// the old tip was a member leaf, so a single insert under it is the
    /// new leaf, and several re-descend from it.
    fn apply_partial(
        &self,
        store: &dyn BlockView,
        tree: &TreeMembership,
        aux: &mut SelectionAux,
        partial: &AuxPartial,
        current_tip: BlockId,
    ) -> BlockId {
        if !aux.ready {
            // First pass on this tree: the rebuild sees the inserts'
            // weights already, nothing to add on top.
            self.init_aux(store, tree, aux);
        } else {
            for &(id, w) in partial.weights() {
                let mut cur = Some(id);
                while let Some(b) = cur {
                    aux.add_weight(b, w);
                    cur = store.parent(b);
                }
            }
        }
        let mut forks: Vec<(u32, BlockId)> = Vec::new();
        let (mut extensions, mut leaf) = (0, current_tip);
        for &(id, _) in partial.weights() {
            let fork = store.common_ancestor(current_tip, id);
            if fork == current_tip {
                extensions += 1;
                leaf = id;
            } else {
                forks.push((store.height(fork), fork));
            }
        }
        forks.sort_unstable();
        forks.dedup();
        for (h, fork) in forks {
            let incumbent = store.ancestor_at(current_tip, h + 1);
            let winner = self
                .heaviest_child(store, tree, aux, fork)
                .expect("a fork has member children on both paths");
            if winner != incumbent {
                return self.descend(store, tree, aux, winner);
            }
        }
        match extensions {
            0 => current_tip,
            1 => {
                debug_assert_eq!(store.parent(leaf), Some(current_tip));
                leaf
            }
            _ => self.descend(store, tree, aux, current_tip),
        }
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
