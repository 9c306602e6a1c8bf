//! The incremental selected-chain cache: the hot half of the
//! store→selection→read pipeline.
//!
//! Def. 3.1 re-evaluates `f(bt)` on every `append` and materializes
//! `{b0}⌢f(bt)` on every `read`. [`ChainCache`] keeps both answers warm:
//!
//! * the **tip** of `f(bt)`, maintained by scoring each insert through
//!   [`SelectionFn::score_inserts`] + [`SelectionFn::apply_partial`]
//!   instead of an O(tree) rescan — O(log n) per insert for the chain
//!   rules; for GHOST, the insert's walk up to the selected chain plus
//!   the suffix of that chain below the fork (O(1) for an append, O(fork
//!   length + distance from the tip) for a graft or reorg);
//! * the **chain** `{b0}⌢f(bt)` itself, as a [`Blockchain`] over a shared
//!   grow-only buffer: extension pushes in place (amortized O(1)),
//!   reorgs splice at the fork (O(log n) LCA + O(changed suffix)), and
//!   `read()` is a plain `Arc` clone — `path_from_genesis` is off the
//!   read path entirely, for changed and unchanged tips alike.
//!
//! # Validity invariants
//!
//! The cache is coherent with a `(store, tree)` pair as long as every
//! membership insert is reported through [`ChainCache::on_insert`], in
//! insertion order, with the same selection function throughout. Callers
//! that mutate the tree behind the cache's back must call
//! [`ChainCache::rebuild`] before trusting it again. In debug builds,
//! [`ChainCache::debug_validate`] cross-checks the cached tip against a
//! full `select_tip` scan (and `on_insert` invokes it after every fold);
//! the differential suite in `tests/selection_differential.rs` asserts
//! the same agreement in release mode over randomized fork-heavy
//! workloads for every shipped rule.

use crate::chain::Blockchain;
use crate::ids::BlockId;
use crate::selection::{SelectionAux, SelectionFn};
use crate::store::{BlockView, TreeMembership};

/// Cached selection state for one BlockTree replica.
#[derive(Clone, Debug)]
pub struct ChainCache {
    /// `{b0}⌢f(bt)`, maintained in place.
    chain: Blockchain,
    /// Per-rule scratch (GHOST subtree weights live here).
    aux: SelectionAux,
}

impl ChainCache {
    /// A cache for a genesis-only tree (`f(b0) = b0`).
    pub fn new() -> Self {
        ChainCache {
            chain: Blockchain::genesis(),
            aux: SelectionAux::new(),
        }
    }

    /// Re-derives the cache from scratch with a full `select_tip` scan —
    /// the entry point for trees that were built before the cache attached
    /// or mutated behind its back.
    pub fn rebuild(
        &mut self,
        selection: &dyn SelectionFn,
        store: &dyn BlockView,
        tree: &TreeMembership,
    ) {
        let tip = selection.select_tip(store, tree);
        self.chain = Blockchain::from_tip(store, tip);
        self.aux.reset();
    }

    /// Reports one membership insert to the selection function — a
    /// scoring pass over `[new_block]` — and moves the cached chain to the
    /// tip it answers.
    pub fn on_insert(
        &mut self,
        selection: &dyn SelectionFn,
        store: &dyn BlockView,
        tree: &TreeMembership,
        new_block: BlockId,
    ) {
        let partial = selection.score_inserts(store, &[new_block]);
        let tip = selection.apply_partial(store, tree, &mut self.aux, &partial, self.chain.tip());
        advance_chain(store, &mut self.chain, tip);
        self.debug_validate(selection, store, tree);
    }

    /// The cached tip of `f(bt)` — O(1).
    #[inline]
    pub fn tip(&self) -> BlockId {
        self.chain.tip()
    }

    /// The cached genesis→tip path — O(1), no materialization.
    #[inline]
    pub fn path(&self) -> &[BlockId] {
        self.chain.ids()
    }

    /// `{b0}⌢f(bt)` as a [`Blockchain`] — an `Arc` clone of the live
    /// chain, O(1) whether or not the tip moved since the last read. The
    /// snapshot stays valid as the cache keeps growing (committed
    /// prefixes are immutable; see `crate::chain`).
    pub fn chain(&self) -> Blockchain {
        self.chain.clone()
    }

    /// Debug-build cross-check of the cached tip against the full-scan
    /// oracle (compiled out in release builds).
    #[inline]
    pub fn debug_validate(
        &self,
        selection: &dyn SelectionFn,
        store: &dyn BlockView,
        tree: &TreeMembership,
    ) {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.chain.tip(),
                selection.select_tip(store, tree),
                "ChainCache diverged from full-scan {} selection",
                selection.name()
            );
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (selection, store, tree);
        }
    }
}

impl Default for ChainCache {
    fn default() -> Self {
        ChainCache::new()
    }
}

/// Moves a maintained `{b0}⌢f(bt)` chain to end at `new_tip`, reusing the
/// shared prefix: a direct child pushes in place (amortized O(1)); anything
/// else — a multi-block extension or a reorg — splices at the fork
/// (O(log n) LCA + O(|changed suffix|)). Shared by [`ChainCache`] and the
/// concurrent pipeline's publication stage, which advances the published
/// chain by a whole drained batch at a time.
pub(crate) fn advance_chain(store: &dyn BlockView, chain: &mut Blockchain, new_tip: BlockId) {
    let old = chain.tip();
    if new_tip == old {
        return;
    }
    if store.parent(new_tip) == Some(old) {
        chain.push_in_place(new_tip);
        return;
    }
    let lca = store.common_ancestor(old, new_tip);
    let keep = store.height(lca) as usize + 1;
    let mut suffix = Vec::with_capacity(store.height(new_tip) as usize + 1 - keep);
    let mut cur = new_tip;
    while cur != lca {
        suffix.push(cur);
        cur = store.parent(cur).expect("lca is an ancestor of new_tip");
    }
    suffix.reverse();
    chain.splice_in_place(keep, &suffix);
    debug_assert_eq!(chain.tip(), new_tip);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Payload;
    use crate::ids::ProcessId;
    use crate::selection::{Ghost, HeaviestWork, LongestChain};
    use crate::store::BlockStore;

    fn mint(store: &mut BlockStore, parent: BlockId, work: u64, nonce: u64) -> BlockId {
        store.mint(parent, ProcessId(0), 0, work, nonce, Payload::Empty)
    }

    #[test]
    fn fresh_cache_reads_genesis() {
        let cache = ChainCache::new();
        assert_eq!(cache.tip(), BlockId::GENESIS);
        assert_eq!(cache.chain(), Blockchain::genesis());
        assert_eq!(cache.path(), &[BlockId::GENESIS]);
    }

    #[test]
    fn extension_grows_chain_in_place() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        let mut prev = BlockId::GENESIS;
        for i in 0..20 {
            let b = mint(&mut store, prev, 1, i);
            tree.insert(&store, b);
            cache.on_insert(&LongestChain, &store, &tree, b);
            assert_eq!(cache.tip(), b);
            prev = b;
        }
        assert_eq!(cache.path().len(), 21);
        assert_eq!(cache.chain().len(), 21);
    }

    #[test]
    fn reorg_splices_at_the_fork() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        // Light branch first, then a heavier fork off genesis.
        let a = mint(&mut store, BlockId::GENESIS, 1, 0);
        tree.insert(&store, a);
        cache.on_insert(&HeaviestWork, &store, &tree, a);
        let a2 = mint(&mut store, a, 1, 1);
        tree.insert(&store, a2);
        cache.on_insert(&HeaviestWork, &store, &tree, a2);
        assert_eq!(cache.tip(), a2);

        let b = mint(&mut store, BlockId::GENESIS, 10, 2);
        tree.insert(&store, b);
        cache.on_insert(&HeaviestWork, &store, &tree, b);
        assert_eq!(cache.tip(), b, "work 10 beats work 2");
        assert_eq!(cache.path(), &[BlockId::GENESIS, b]);
        assert_eq!(cache.chain().tip(), b);
    }

    #[test]
    fn snapshots_stay_valid_while_the_chain_grows() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        let a = mint(&mut store, BlockId::GENESIS, 1, 0);
        tree.insert(&store, a);
        cache.on_insert(&LongestChain, &store, &tree, a);
        let snap = cache.chain();
        assert_eq!(snap.ids(), &[BlockId::GENESIS, a]);
        // Grow past the snapshot: its view must not move.
        let b = mint(&mut store, a, 1, 1);
        tree.insert(&store, b);
        cache.on_insert(&LongestChain, &store, &tree, b);
        assert_eq!(snap.ids(), &[BlockId::GENESIS, a]);
        assert_eq!(cache.chain().ids(), &[BlockId::GENESIS, a, b]);
        assert!(snap.is_prefix_of(&cache.chain()));
    }

    #[test]
    fn repeated_reads_share_one_buffer() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        let a = mint(&mut store, BlockId::GENESIS, 1, 0);
        tree.insert(&store, a);
        cache.on_insert(&LongestChain, &store, &tree, a);
        let c1 = cache.chain();
        let c2 = cache.chain();
        assert_eq!(c1, c2);
        // Same allocation: ids() slices are pointer-identical.
        assert_eq!(c1.ids().as_ptr(), c2.ids().as_ptr());
    }

    #[test]
    fn rebuild_recovers_from_unreported_inserts() {
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        let a = mint(&mut store, BlockId::GENESIS, 1, 0);
        tree.insert(&store, a); // not reported
        let b = mint(&mut store, a, 1, 1);
        tree.insert(&store, b); // not reported
        cache.rebuild(&Ghost::default(), &store, &tree);
        assert_eq!(cache.tip(), b);
        assert_eq!(cache.chain().len(), 3);
        // And incremental maintenance continues from the rebuilt state.
        let c = mint(&mut store, b, 1, 2);
        tree.insert(&store, c);
        cache.on_insert(&Ghost::default(), &store, &tree, c);
        assert_eq!(cache.tip(), c);
    }
}
