//! Replicated BlockTrees (§4.2): "the BlockTree being now a shared object
//! replicated at each process, we note by `bt_i` the local copy … An update
//! related to a block `b_i` generated on a process `p_i`, sent through
//! `send_i(b_g, b_i)`, and received through `receive_j(b_g, b_i)`, takes
//! effect on the local replica `bt_j` with the operation
//! `update_j(b_g, b_i)`."
//!
//! A [`Replica`] is a membership view over the global arena plus an orphan
//! buffer: with out-of-order delivery a block can arrive before its parent;
//! the update *takes effect* (and is recorded) only once the parent is
//! present — memberships stay parent-closed by construction.
//!
//! Each replica also owns a [`ChainCache`]: `update_i` re-selects
//! incrementally as blocks take effect, scoring each through
//! [`SelectionFn::score_inserts`] + [`SelectionFn::apply_partial`], so a
//! delivery costs O(log n) for the chain rules, and for GHOST its fork's
//! length plus its distance from the tip, instead of a full `f(bt_i)`
//! rescan; `read`/`tip` are O(1). The cache requires every
//! `update` to be driven by the *same* selection function `f` — which the
//! paper guarantees ("encoded in the state", common to all replicas of a
//! world).

use crate::trace::Trace;
use btadt_core::chain::Blockchain;
use btadt_core::ids::{BlockId, ProcessId, Time};
use btadt_core::selection::SelectionFn;
use btadt_core::store::{BlockStore, TreeMembership};
use btadt_core::tipcache::ChainCache;

/// One process's local BlockTree `bt_i`.
#[derive(Clone, Debug)]
pub struct Replica {
    pub id: ProcessId,
    tree: TreeMembership,
    /// Blocks received whose parent is not yet local: `(parent, block)`.
    orphans: Vec<(BlockId, BlockId)>,
    /// Incrementally maintained selected chain of `bt_i`.
    cache: ChainCache,
}

impl Replica {
    pub fn new(id: ProcessId) -> Self {
        Replica {
            id,
            tree: TreeMembership::genesis_only(),
            orphans: Vec::new(),
            cache: ChainCache::new(),
        }
    }

    /// The local membership (blocks in `bt_i`).
    pub fn tree(&self) -> &TreeMembership {
        &self.tree
    }

    /// Number of blocks in `bt_i` (incl. genesis).
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Does the replica hold `block`?
    pub fn contains(&self, block: BlockId) -> bool {
        self.tree.contains(block)
    }

    /// `update_i(b_g, b)`: inserts `block` under `parent` if the parent is
    /// local (recording the update event); otherwise buffers it. Cascades
    /// orphans that become connectable. Returns the blocks actually
    /// applied, in application order.
    ///
    /// `selection` is the world's common `f`; every applied block is
    /// reported to the replica's [`ChainCache`] so `read`/`tip` stay O(1).
    pub fn update(
        &mut self,
        store: &BlockStore,
        selection: &dyn SelectionFn,
        parent: BlockId,
        block: BlockId,
        trace: &mut Trace,
        now: Time,
    ) -> Vec<BlockId> {
        let mut applied = Vec::new();
        if self.tree.contains(block) {
            return applied; // duplicate announcement
        }
        if !self.tree.contains(parent) {
            if !self.orphans.contains(&(parent, block)) {
                self.orphans.push((parent, block));
            }
            return applied;
        }
        self.tree.insert(store, block);
        self.cache.on_insert(selection, store, &self.tree, block);
        trace.record_update(now, self.id, parent, block);
        applied.push(block);
        // Cascade orphans (fixpoint).
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.orphans.len() {
                let (p, b) = self.orphans[i];
                if self.tree.contains(p) && !self.tree.contains(b) {
                    self.orphans.swap_remove(i);
                    self.tree.insert(store, b);
                    self.cache.on_insert(selection, store, &self.tree, b);
                    trace.record_update(now, self.id, p, b);
                    applied.push(b);
                    progressed = true;
                } else if self.tree.contains(b) {
                    self.orphans.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
        applied
    }

    /// The local `read()`: `{b0}⌢f(bt_i)` (not recorded — callers decide
    /// whether a read is an observable operation). Served from the
    /// incremental cache; `selection` must be the same `f` the updates
    /// were applied under (debug-asserted).
    pub fn read(&self, store: &BlockStore, selection: &dyn SelectionFn) -> Blockchain {
        self.cache.debug_validate(selection, store, &self.tree);
        self.cache.chain()
    }

    /// The tip `last_block(f(bt_i))` — what local mining chains onto.
    /// O(1) from the cache.
    pub fn tip(&self, store: &BlockStore, selection: &dyn SelectionFn) -> BlockId {
        self.cache.debug_validate(selection, store, &self.tree);
        self.cache.tip()
    }

    /// Outstanding orphans (diagnostics).
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_core::block::Payload;
    use btadt_core::selection::LongestChain;

    fn mint(store: &mut BlockStore, parent: BlockId, nonce: u64) -> BlockId {
        store.mint(parent, ProcessId(9), 9, 1, nonce, Payload::Empty)
    }

    #[test]
    fn in_order_updates_apply_immediately() {
        let mut store = BlockStore::new();
        let a = mint(&mut store, BlockId::GENESIS, 1);
        let b = mint(&mut store, a, 2);
        let mut r = Replica::new(ProcessId(0));
        let mut t = Trace::new();
        assert_eq!(
            r.update(&store, &LongestChain, BlockId::GENESIS, a, &mut t, Time(1)),
            vec![a]
        );
        assert_eq!(
            r.update(&store, &LongestChain, a, b, &mut t, Time(2)),
            vec![b]
        );
        assert_eq!(r.len(), 3);
        assert_eq!(t.updates().count(), 2);
        assert_eq!(r.read(&store, &LongestChain).tip(), b);
    }

    #[test]
    fn orphans_buffer_until_parent_arrives() {
        let mut store = BlockStore::new();
        let a = mint(&mut store, BlockId::GENESIS, 1);
        let b = mint(&mut store, a, 2);
        let c = mint(&mut store, b, 3);
        let mut r = Replica::new(ProcessId(0));
        let mut t = Trace::new();
        // Deliver out of order: c, b, a.
        assert!(r
            .update(&store, &LongestChain, b, c, &mut t, Time(1))
            .is_empty());
        assert!(r
            .update(&store, &LongestChain, a, b, &mut t, Time(2))
            .is_empty());
        assert_eq!(r.orphan_count(), 2);
        let applied = r.update(&store, &LongestChain, BlockId::GENESIS, a, &mut t, Time(3));
        assert_eq!(applied, vec![a, b, c], "cascade in ancestor order");
        assert_eq!(r.orphan_count(), 0);
        assert_eq!(r.len(), 4);
        // Update events recorded only when applied (all at t3 here).
        assert!(t.updates().all(|(at, ..)| at == Time(3) || at < Time(3)));
        assert_eq!(t.updates().count(), 3);
    }

    #[test]
    fn duplicate_updates_are_inert() {
        let mut store = BlockStore::new();
        let a = mint(&mut store, BlockId::GENESIS, 1);
        let mut r = Replica::new(ProcessId(0));
        let mut t = Trace::new();
        assert_eq!(
            r.update(&store, &LongestChain, BlockId::GENESIS, a, &mut t, Time(1))
                .len(),
            1
        );
        assert!(r
            .update(&store, &LongestChain, BlockId::GENESIS, a, &mut t, Time(2))
            .is_empty());
        assert_eq!(t.updates().count(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn divergent_replicas_read_divergent_chains() {
        let mut store = BlockStore::new();
        let a = mint(&mut store, BlockId::GENESIS, 1);
        let b = mint(&mut store, BlockId::GENESIS, 2);
        let mut t = Trace::new();
        let mut ri = Replica::new(ProcessId(0));
        let mut rj = Replica::new(ProcessId(1));
        ri.update(&store, &LongestChain, BlockId::GENESIS, a, &mut t, Time(1));
        rj.update(&store, &LongestChain, BlockId::GENESIS, b, &mut t, Time(1));
        let ci = ri.read(&store, &LongestChain);
        let cj = rj.read(&store, &LongestChain);
        assert_ne!(ci, cj);
        assert!(!ci.comparable(&cj), "the Thm 4.8 shape");
    }
}
