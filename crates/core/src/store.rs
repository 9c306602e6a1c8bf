//! The global append-only block arena and per-replica tree membership.
//!
//! Blocks are never removed or mutated: the BlockTree of §3.1 is an
//! *append-only* directed rooted tree. We exploit this by storing every block
//! of an execution in one arena (`BlockStore`) and representing each
//! replica's local BlockTree `bt_i` (§4.2) as a *membership set* over that
//! arena. Identity is global, so histories recorded at different replicas
//! can be compared directly (prefix tests, `mcps`) without renaming.
//!
//! Heights and cumulative work are memoized at insertion, making
//! `score`/ancestor queries cheap — an arena-with-indices layout as
//! recommended by the Rust Performance Book (no pointer graphs, no `Rc`
//! cycles).
//!
//! Every block additionally carries a *jump pointer* (Myers' skew-binary
//! ancestor scheme, O(1) extra work per `mint`): `jump[v]` points `d`
//! levels up, where `d` is a function of `height(v)` alone. This makes
//! `ancestor_at_height`, `is_ancestor`, and `common_ancestor` (the
//! block-level witness of the paper's `mcps`, §3.1.2) O(log n) instead of
//! O(depth) — the primitives the incremental selection path leans on.

use crate::block::{Block, Payload};
use crate::ids::{BlockId, ProcessId};

/// The per-block metadata every tree algorithm consumes: one lookup's
/// worth of the fields [`BlockView`] implementations memoize at mint time.
///
/// Returning this as one `Copy` value keeps [`BlockView`] object-safe and
/// lets sharded stores answer a whole ancestry step with a single entry
/// lookup instead of one lookup per field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Backward edge towards genesis (`None` only for `b0`).
    pub parent: Option<BlockId>,
    /// Distance to the root.
    pub height: u32,
    /// This block's own work weight.
    pub work: u64,
    /// Total work on the genesis→block path (inclusive).
    pub cum_work: u64,
    /// Deterministic content digest (lexicographic tie-breaks).
    pub digest: u64,
    /// Skew-binary jump pointer (distance a function of height alone).
    pub jump: BlockId,
}

/// Read access to an arena of blocks — the store abstraction the selection
/// functions, chain cache, validity predicates, and history checkers run
/// over.
///
/// Two implementations ship: the single-owner [`BlockStore`] and the
/// sharded [`ShardedStore`](crate::concurrent::ShardedStore) behind
/// [`ConcurrentBlockTree`](crate::concurrent::ConcurrentBlockTree). The
/// trait is object-safe (`&dyn BlockView`) so `SelectionFn` stays a
/// trait object; `&BlockStore` coerces at every existing call site.
///
/// The provided ancestry algorithms (`ancestor_at`, `is_ancestor`,
/// `common_ancestor`) are the same O(log n) skew-binary-jump walks as the
/// `BlockStore` originals; implementations may override them when they
/// can answer faster (as `BlockStore` does, skipping the `BlockMeta`
/// round-trips).
pub trait BlockView: Sync {
    /// Number of block ids allocated so far (including genesis). Ids in
    /// `0..block_count()` are allocated, but for concurrent stores an id
    /// may be mid-mint — gate reads on [`has_block`](Self::has_block) or
    /// on tree membership.
    fn block_count(&self) -> usize;

    /// Whether `id` names a fully minted block.
    fn has_block(&self, id: BlockId) -> bool;

    /// The memoized metadata of a minted block. Panics on ids that are
    /// not fully minted (a cross-store mixup or a read of a mid-mint id —
    /// both bugs).
    fn meta(&self, id: BlockId) -> BlockMeta;

    /// Calls `f` with the full block (payload included). Sharded
    /// implementations hold the owning shard lock for the duration of
    /// `f`, so `f` must not call back into the store.
    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&Block));

    /// Calls `f` for every block minted directly under `id`, in minting
    /// order. Implementations release any internal locks before invoking
    /// `f`, so `f` may query the store.
    fn for_each_child(&self, id: BlockId, f: &mut dyn FnMut(BlockId));

    /// Owned copy of a block (for callers that need to hold it across
    /// further store queries).
    fn block(&self, id: BlockId) -> Block {
        let mut out = None;
        self.with_block(id, &mut |b| out = Some(b.clone()));
        out.expect("with_block invokes its callback")
    }

    /// Parent of `id` (`None` for genesis).
    fn parent(&self, id: BlockId) -> Option<BlockId> {
        self.meta(id).parent
    }

    /// Height of `id` (genesis = 0).
    fn height(&self, id: BlockId) -> u32 {
        self.meta(id).height
    }

    /// Total work on the genesis→`id` path (inclusive of `id`).
    fn cumulative_work(&self, id: BlockId) -> u64 {
        self.meta(id).cum_work
    }

    /// The block's deterministic digest.
    fn digest_of(&self, id: BlockId) -> u64 {
        self.meta(id).digest
    }

    /// The block's own work weight.
    fn work_of(&self, id: BlockId) -> u64 {
        self.meta(id).work
    }

    /// The ancestor of `id` at exactly `height` (≤ `height(id)`).
    /// O(log n) via the skew-binary jump pointers.
    fn ancestor_at(&self, id: BlockId, height: u32) -> BlockId {
        let mut m = self.meta(id);
        assert!(
            height <= m.height,
            "requested height {height} above block at {}",
            m.height
        );
        let mut cur = id;
        while m.height > height {
            let jm = self.meta(m.jump);
            if jm.height >= height {
                cur = m.jump;
                m = jm;
            } else {
                cur = m.parent.expect("above genesis, parent exists");
                m = self.meta(cur);
            }
        }
        cur
    }

    /// True iff `a` lies on the genesis→`b` path (reflexively). O(log n).
    fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        let (ha, hb) = (self.height(a), self.height(b));
        if ha > hb {
            return false;
        }
        self.ancestor_at(b, ha) == a
    }

    /// Deepest common ancestor of `a` and `b`. O(log n): heights are
    /// equalized, then both cursors jump in lockstep (equal heights have
    /// equal jump distances).
    fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        let (ha, hb) = (self.height(a), self.height(b));
        let (mut x, mut y) = if ha <= hb {
            (a, self.ancestor_at(b, ha))
        } else {
            (self.ancestor_at(a, hb), b)
        };
        while x != y {
            let (mx, my) = (self.meta(x), self.meta(y));
            if mx.jump != my.jump {
                x = mx.jump;
                y = my.jump;
            } else {
                x = mx.parent.expect("disjoint roots");
                y = my.parent.expect("disjoint roots");
            }
        }
        x
    }

    /// Materializes the genesis→`tip` path, genesis first.
    fn path_from_genesis(&self, tip: BlockId) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.height(tip) as usize + 1);
        let mut cur = Some(tip);
        while let Some(id) = cur {
            out.push(id);
            cur = self.parent(id);
        }
        out.reverse();
        out
    }
}

/// Append-only arena of all blocks minted during an execution.
///
/// Slot 0 always holds the genesis block `b0`, which is valid by assumption
/// (§3.1: `b0 ∈ B'`).
#[derive(Clone, Debug)]
pub struct BlockStore {
    blocks: Vec<Block>,
    /// children[i] = blocks whose parent is block i (forward edges; the
    /// paper's tree has backward edges only, children lists are an index).
    children: Vec<Vec<BlockId>>,
    /// cumulative work along the path from genesis (inclusive).
    cum_work: Vec<u64>,
    /// Skew-binary jump pointers: `jump[i]` is an ancestor of block i whose
    /// distance depends only on `height(i)` (genesis points at itself).
    jump: Vec<BlockId>,
}

impl BlockStore {
    /// Creates a store holding only the genesis block.
    pub fn new() -> Self {
        let genesis = Block {
            id: BlockId::GENESIS,
            parent: None,
            height: 0,
            producer: ProcessId(u32::MAX), // no producer: exists by assumption
            merit_index: u32::MAX,
            work: 0,
            digest: 0x0067_656E_6573_6973, // "genesis"
            payload: Payload::Empty,
        };
        BlockStore {
            blocks: vec![genesis],
            children: vec![Vec::new()],
            cum_work: vec![0],
            jump: vec![BlockId::GENESIS],
        }
    }

    /// Number of blocks (including genesis).
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no blocks. Always `false` in practice —
    /// `new()` installs genesis and nothing is ever removed — but answered
    /// honestly from the arena rather than hardcoded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Mints a new block under `parent` and returns its id.
    ///
    /// Panics if `parent` is not in the store: the BlockTree grows only by
    /// chaining to existing vertices (§3.2: "the new block must be closely
    /// related to an already existing valid block").
    pub fn mint(
        &mut self,
        parent: BlockId,
        producer: ProcessId,
        merit_index: u32,
        work: u64,
        nonce: u64,
        payload: Payload,
    ) -> BlockId {
        let parent_block = self.get(parent);
        let height = parent_block.height + 1;
        let digest = Block::compute_digest(parent_block.digest, producer, nonce, &payload);
        let id = BlockId(self.blocks.len() as u32);
        let cum = self.cum_work[parent.index()] + work;
        self.blocks.push(Block {
            id,
            parent: Some(parent),
            height,
            producer,
            merit_index,
            work,
            digest,
            payload,
        });
        self.children.push(Vec::new());
        self.cum_work.push(cum);
        let jump = jump_for_child(self, parent);
        self.jump.push(jump);
        self.children[parent.index()].push(id);
        id
    }

    /// Immutable access to a block. Panics on out-of-range ids (ids are only
    /// produced by `mint`, so this indicates a cross-store mixup — a bug).
    #[inline]
    pub fn get(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Checked access.
    #[inline]
    pub fn try_get(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.index())
    }

    /// Parent of `id` (`None` for genesis).
    #[inline]
    pub fn parent(&self, id: BlockId) -> Option<BlockId> {
        self.get(id).parent
    }

    /// Height of `id` (genesis = 0).
    #[inline]
    pub fn height(&self, id: BlockId) -> u32 {
        self.get(id).height
    }

    /// Total work on the genesis→`id` path (inclusive of `id`).
    #[inline]
    pub fn cumulative_work(&self, id: BlockId) -> u64 {
        self.cum_work[id.index()]
    }

    /// Forward edges: blocks minted directly under `id`.
    #[inline]
    pub fn children(&self, id: BlockId) -> &[BlockId] {
        &self.children[id.index()]
    }

    /// All block ids, in minting order.
    pub fn ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Walks `steps` edges towards the root. O(log n) via jump pointers.
    pub fn ancestor(&self, id: BlockId, steps: u32) -> BlockId {
        let h = self.height(id);
        assert!(steps <= h, "walked past genesis");
        self.ancestor_at(id, h - steps)
    }

    /// The ancestor of `id` at exactly `height`, which must not exceed
    /// `height(id)`. O(log n): each loop iteration either takes the jump
    /// pointer (skew-binary distances) or one parent edge.
    pub fn ancestor_at(&self, id: BlockId, height: u32) -> BlockId {
        let h = self.height(id);
        assert!(height <= h, "requested height {height} above block at {h}");
        let mut cur = id;
        while self.height(cur) > height {
            let j = self.jump[cur.index()];
            cur = if self.height(j) >= height {
                j
            } else {
                self.parent(cur).expect("above genesis, parent exists")
            };
        }
        cur
    }

    /// Alias of [`ancestor_at`](Self::ancestor_at), kept for callers that
    /// read better with the explicit name.
    #[inline]
    pub fn ancestor_at_height(&self, id: BlockId, height: u32) -> BlockId {
        self.ancestor_at(id, height)
    }

    /// True iff `a` lies on the genesis→`b` path (reflexively). O(log n).
    pub fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        let (ha, hb) = (self.height(a), self.height(b));
        if ha > hb {
            return false;
        }
        self.ancestor_at(b, ha) == a
    }

    /// Deepest common ancestor of `a` and `b` (exists: the tree is rooted).
    ///
    /// This is the block-level witness of the paper's `mcps(bc, bc')`
    /// (§3.1.2): the maximal common prefix of the two chains is exactly the
    /// genesis→`common_ancestor` path, so `mcps` under any score function
    /// is `score(chain of common_ancestor)`. O(log n): heights are
    /// equalized with `ancestor_at`, then both cursors jump in lockstep —
    /// equal heights have equal jump distances, so the jumps stay aligned.
    pub fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        let (ha, hb) = (self.height(a), self.height(b));
        let (mut x, mut y) = if ha <= hb {
            (a, self.ancestor_at(b, ha))
        } else {
            (self.ancestor_at(a, hb), b)
        };
        while x != y {
            let (jx, jy) = (self.jump[x.index()], self.jump[y.index()]);
            if jx != jy {
                // The common ancestor is at or above the jump target:
                // leaping both cursors cannot overshoot it.
                x = jx;
                y = jy;
            } else {
                x = self.parent(x).expect("disjoint roots");
                y = self.parent(y).expect("disjoint roots");
            }
        }
        x
    }

    /// Materializes the genesis→`tip` path, genesis first.
    pub fn path_from_genesis(&self, tip: BlockId) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.height(tip) as usize + 1);
        let mut cur = Some(tip);
        while let Some(id) = cur {
            out.push(id);
            cur = self.parent(id);
        }
        out.reverse();
        out
    }

    /// Iterates `tip`, parent(tip), …, genesis.
    pub fn ancestors(&self, tip: BlockId) -> Ancestors<'_> {
        Ancestors {
            store: self,
            cur: Some(tip),
        }
    }

    /// Adopts a fully formed block minted elsewhere (same digest, same id
    /// numbering), recomputing the memoized indices. Used to materialize a
    /// sequential snapshot of a concurrent arena (ids must arrive in
    /// order, exactly as `mint` would have assigned them).
    pub(crate) fn adopt(&mut self, block: Block) {
        assert_eq!(block.id.index(), self.blocks.len(), "adopt out of id order");
        let parent = block.parent.expect("only non-genesis blocks are adopted");
        assert_eq!(block.height, self.height(parent) + 1, "height mismatch");
        let id = block.id;
        let cum = self.cum_work[parent.index()] + block.work;
        self.blocks.push(block);
        self.children.push(Vec::new());
        self.cum_work.push(cum);
        let jump = jump_for_child(self, parent);
        self.jump.push(jump);
        self.children[parent.index()].push(id);
    }
}

/// The skew-binary jump pointer (Myers) for a child of `parent`: if the
/// parent's two previous jumps span equal distances, leap past both,
/// otherwise step to the parent. The resulting jump distance depends only
/// on the child's height, so two blocks at equal height always jump to
/// equal heights — the property the O(log n) `common_ancestor` walk relies
/// on.
///
/// Every minting path — `BlockStore::mint`, `BlockStore::adopt`, and the
/// concurrent `ShardedStore::mint` — must produce bit-identical jump
/// pointers (the snapshot bridge and the differential suites depend on
/// it), so they all call this one helper.
pub(crate) fn jump_for_child(view: &dyn BlockView, parent: BlockId) -> BlockId {
    let pm = view.meta(parent);
    let m1 = view.meta(pm.jump);
    if pm.height - m1.height == m1.height - view.meta(m1.jump).height {
        m1.jump
    } else {
        parent
    }
}

impl BlockView for BlockStore {
    fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn has_block(&self, id: BlockId) -> bool {
        id.index() < self.blocks.len()
    }

    fn meta(&self, id: BlockId) -> BlockMeta {
        let b = self.get(id);
        BlockMeta {
            parent: b.parent,
            height: b.height,
            work: b.work,
            cum_work: self.cum_work[id.index()],
            digest: b.digest,
            jump: self.jump[id.index()],
        }
    }

    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&Block)) {
        f(self.get(id));
    }

    fn for_each_child(&self, id: BlockId, f: &mut dyn FnMut(BlockId)) {
        for &c in &self.children[id.index()] {
            f(c);
        }
    }

    // Fast-path overrides: skip the `BlockMeta` round-trips and reuse the
    // direct arena walks.
    fn parent(&self, id: BlockId) -> Option<BlockId> {
        BlockStore::parent(self, id)
    }

    fn height(&self, id: BlockId) -> u32 {
        BlockStore::height(self, id)
    }

    fn cumulative_work(&self, id: BlockId) -> u64 {
        BlockStore::cumulative_work(self, id)
    }

    fn digest_of(&self, id: BlockId) -> u64 {
        self.get(id).digest
    }

    fn work_of(&self, id: BlockId) -> u64 {
        self.get(id).work
    }

    fn ancestor_at(&self, id: BlockId, height: u32) -> BlockId {
        BlockStore::ancestor_at(self, id, height)
    }

    fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        BlockStore::is_ancestor(self, a, b)
    }

    fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        BlockStore::common_ancestor(self, a, b)
    }

    fn path_from_genesis(&self, tip: BlockId) -> Vec<BlockId> {
        BlockStore::path_from_genesis(self, tip)
    }
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over the backward path from a block to the root.
pub struct Ancestors<'s> {
    store: &'s BlockStore,
    cur: Option<BlockId>,
}

impl Iterator for Ancestors<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        let id = self.cur?;
        self.cur = self.store.parent(id);
        Some(id)
    }
}

/// A replica's view of which globally minted blocks it has locally inserted
/// (its `bt_i`). Must stay *parent-closed*: a block may only be inserted
/// after its parent (enforced in debug builds).
///
/// Maintains a leaves cache (ordered for determinism): parent-closed
/// insertion means a block's children always arrive after it, so `insert`
/// can keep the leaf set exact in O(log n) — selection functions then scan
/// O(#leaves) instead of O(#blocks).
#[derive(Clone, Debug)]
pub struct TreeMembership {
    present: Vec<bool>,
    count: usize,
    leaves: std::collections::BTreeSet<BlockId>,
}

impl TreeMembership {
    /// A membership containing only genesis.
    pub fn genesis_only() -> Self {
        TreeMembership {
            present: vec![true],
            count: 1,
            leaves: std::iter::once(BlockId::GENESIS).collect(),
        }
    }

    /// A membership containing every block currently in `store`.
    pub fn full(store: &BlockStore) -> Self {
        let leaves = store
            .ids()
            .filter(|&id| store.children(id).is_empty())
            .collect();
        TreeMembership {
            present: vec![true; store.len()],
            count: store.len(),
            leaves,
        }
    }

    /// Number of member blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True iff `id` is a member.
    #[inline]
    pub fn contains(&self, id: BlockId) -> bool {
        self.present.get(id.index()).copied().unwrap_or(false)
    }

    /// Inserts `id`; returns whether it was newly inserted.
    ///
    /// Debug-asserts parent-closure with respect to `store`.
    pub fn insert(&mut self, store: &dyn BlockView, id: BlockId) -> bool {
        self.insert_with_parent(store.parent(id), id)
    }

    /// [`insert`](Self::insert) for a caller that already knows `id`'s
    /// parent — skips the store lookup (a cross-shard read on the
    /// concurrent store, which the commit hot path calls once per
    /// append). The caller vouches that `parent` *is* `id`'s parent.
    pub fn insert_with_parent(&mut self, parent: Option<BlockId>, id: BlockId) -> bool {
        debug_assert!(
            parent.map(|p| self.contains(p)).unwrap_or(true),
            "membership must be parent-closed: {id} inserted before its parent"
        );
        if self.present.len() <= id.index() {
            self.present.resize(id.index() + 1, false);
        }
        if self.present[id.index()] {
            false
        } else {
            self.present[id.index()] = true;
            self.count += 1;
            // Leaf bookkeeping: the new block is a leaf (its children, if
            // minted, cannot be members yet by parent-closure); its parent
            // stops being one.
            if let Some(p) = parent {
                self.leaves.remove(&p);
            }
            self.leaves.insert(id);
            true
        }
    }

    /// Member blocks with no member children: the leaves of `bt_i`
    /// (cached; O(#leaves) to materialize, deterministic order).
    pub fn leaves(&self, store: &dyn BlockView) -> Vec<BlockId> {
        debug_assert!(
            self.leaves.iter().all(|&l| {
                let mut member_child = false;
                store.for_each_child(l, &mut |c| member_child |= self.contains(c));
                self.contains(l) && !member_child
            }),
            "leaves cache out of sync"
        );
        self.leaves.iter().copied().collect()
    }

    /// Iterates all member ids in minting order.
    pub fn iter<'a>(&'a self, store: &'a dyn BlockView) -> impl Iterator<Item = BlockId> + 'a {
        (0..store.block_count() as u32)
            .map(BlockId)
            .filter(move |&id| self.contains(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_store(n: u32) -> (BlockStore, Vec<BlockId>) {
        let mut s = BlockStore::new();
        let mut ids = vec![BlockId::GENESIS];
        for i in 0..n {
            let prev = *ids.last().unwrap();
            ids.push(s.mint(prev, ProcessId(0), 0, 1, i as u64, Payload::Empty));
        }
        (s, ids)
    }

    #[test]
    fn genesis_is_slot_zero() {
        let s = BlockStore::new();
        assert_eq!(s.len(), 1);
        assert!(s.get(BlockId::GENESIS).is_genesis());
        assert_eq!(s.height(BlockId::GENESIS), 0);
        assert_eq!(s.cumulative_work(BlockId::GENESIS), 0);
    }

    #[test]
    fn mint_links_and_memoizes() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(1), 0, 5, 0, Payload::Empty);
        let b = s.mint(a, ProcessId(2), 1, 7, 1, Payload::Empty);
        assert_eq!(s.parent(b), Some(a));
        assert_eq!(s.height(b), 2);
        assert_eq!(s.cumulative_work(b), 12);
        assert_eq!(s.children(BlockId::GENESIS), &[a]);
        assert_eq!(s.children(a), &[b]);
        assert_eq!(s.get(b).producer, ProcessId(2));
        assert_eq!(s.get(b).merit_index, 1);
    }

    #[test]
    fn ancestor_walks() {
        let (s, ids) = linear_store(10);
        assert_eq!(s.ancestor(ids[10], 10), BlockId::GENESIS);
        assert_eq!(s.ancestor_at_height(ids[10], 4), ids[4]);
        assert!(s.is_ancestor(ids[3], ids[9]));
        assert!(s.is_ancestor(ids[9], ids[9]));
        assert!(!s.is_ancestor(ids[9], ids[3]));
    }

    #[test]
    fn common_ancestor_on_fork() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b1 = s.mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let b2 = s.mint(a, ProcessId(1), 1, 1, 2, Payload::Empty);
        let c1 = s.mint(b1, ProcessId(0), 0, 1, 3, Payload::Empty);
        assert_eq!(s.common_ancestor(c1, b2), a);
        assert_eq!(s.common_ancestor(b1, b2), a);
        assert_eq!(s.common_ancestor(c1, b1), b1);
        assert_eq!(s.common_ancestor(c1, c1), c1);
        assert_eq!(s.common_ancestor(c1, BlockId::GENESIS), BlockId::GENESIS);
    }

    #[test]
    fn path_from_genesis_is_ordered() {
        let (s, ids) = linear_store(5);
        let path = s.path_from_genesis(ids[5]);
        assert_eq!(path, ids);
        assert_eq!(path[0], BlockId::GENESIS);
    }

    #[test]
    fn ancestors_iterator() {
        let (s, ids) = linear_store(3);
        let back: Vec<_> = s.ancestors(ids[3]).collect();
        assert_eq!(back, vec![ids[3], ids[2], ids[1], ids[0]]);
    }

    #[test]
    fn membership_insert_and_leaves() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b1 = s.mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let b2 = s.mint(a, ProcessId(1), 1, 1, 2, Payload::Empty);

        let mut m = TreeMembership::genesis_only();
        assert_eq!(m.leaves(&s), vec![BlockId::GENESIS]);
        assert!(m.insert(&s, a));
        assert!(!m.insert(&s, a), "double insert reports false");
        assert!(m.insert(&s, b1));
        assert_eq!(m.len(), 3);
        assert!(m.contains(b1));
        assert!(!m.contains(b2));
        assert_eq!(m.leaves(&s), vec![b1]);

        assert!(m.insert(&s, b2));
        let mut leaves = m.leaves(&s);
        leaves.sort();
        assert_eq!(leaves, vec![b1, b2]);
    }

    #[test]
    fn membership_full_tracks_store() {
        let (s, _) = linear_store(4);
        let m = TreeMembership::full(&s);
        assert_eq!(m.len(), 5);
        assert_eq!(m.iter(&s).count(), 5);
    }

    #[test]
    #[should_panic(expected = "parent-closed")]
    #[cfg(debug_assertions)]
    fn membership_rejects_orphan_insert() {
        let mut s = BlockStore::new();
        let a = s.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 0, Payload::Empty);
        let b = s.mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let mut m = TreeMembership::genesis_only();
        m.insert(&s, b); // parent a missing
    }
}
