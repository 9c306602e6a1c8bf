//! The concurrent BT-ADT: a thread-safe BlockTree whose `read()` is
//! lock-free.
//!
//! §4.1 models processes racing on atomic base objects; everything else in
//! this crate is single-threaded. [`ConcurrentBlockTree`] is the shared
//! object those processes would race on: many appender threads, any number
//! of reader threads, one tree.
//!
//! # Architecture
//!
//! * **Sharded arena** ([`ShardedStore`]): block data lives in `S`
//!   shards (shard = low bits of the [`BlockId`], which round-robins dense
//!   ids perfectly), each a grow-only spine of CAS-installed chunks. Ids
//!   come from one atomic counter; an entry is written exactly once, by
//!   the thread that allocated its id, published by a `Release` ready
//!   flag and immutable afterwards. Metadata reads — `meta`, `with_block`,
//!   jump-pointer maintenance and the O(log n) ancestry queries
//!   (`ancestor_at`, `is_ancestor`, `common_ancestor`) through the
//!   [`BlockView`] interface — are **lock-free**. Only child lists mutate
//!   after publication; they sit behind a per-shard mutex, and
//!   `for_each_child` copies a list out before calling back, so no query
//!   nests two acquisitions. [`ShardedStore::snapshot`] copies the arena
//!   into a sequential [`BlockStore`] for the checkers, once the tree is
//!   quiescent (workload threads joined).
//! * **Two-stage commit pipeline** (`crate::commit`): tree membership,
//!   the commit log, and selection scoring still live behind one mutex —
//!   the linearization point of successful appends — but that critical
//!   section now holds only what must be serial. An `append` mints and
//!   pre-validates against the published tip outside any lock, *moving*
//!   its payload into the arena (the append path clones nothing). If the
//!   selection mutex is free on the first CAS, the append commits
//!   **inline** — its request is resolved in place, never pushed: no
//!   queue traffic, no cross-thread status roundtrip, so the uncontended
//!   path costs the mint plus one lock. Otherwise a drainer is at work:
//!   the append *enqueues* its request on a lock-free MPSC queue, and
//!   whichever enqueued appender acquires the selection mutex next
//!   (contended appenders park and are usually resolved by the incumbent
//!   — a combining lock) drains the queue as a batch. Inline appends,
//!   queued drains and grafts all run the same **commit episode**, which
//!   takes whatever queued first. **Stage 1**, under the selection lock:
//!   mint resolution (a request whose optimistic parent lost the race is
//!   re-minted under the authoritative tip, payload read back from the
//!   orphan — the only copy, on the slow path only), membership inserts,
//!   and *batched* selection scoring: one pass of the rule's
//!   `score_inserts` and `apply_partial` over everything the episode
//!   inserted, the same pair the sequential `ChainCache` runs per insert.
//!   The episode then *stages* a publication record and releases the
//!   selection lock. **Stage 2**, under a separate publication lock: the
//!   WAL group-commit append (persist-then-ack), the in-place chain
//!   splice, and the boxed-chain pointer swap. Stage 2 of one batch
//!   overlaps stage 1 of the next; staged batches publish strictly in
//!   commit-log order (whichever thread holds the publication lock pops
//!   them all), and every request status lands only after the
//!   publication covering it.
//! * **Commit generation + parking** : every publication advances a
//!   monotone generation counter (stored *after* the pointer swap);
//!   decide-path waiters ([`ConcurrentBlockTree::wait_committed`],
//!   Protocol A's losers) park on it through a condvar and wake exactly
//!   when a commit lands, instead of spinning `yield_now` against the
//!   very thread whose graft they are waiting for.
//! * **Lock-free reads with grace periods** (`crate::epoch`): after every
//!   batch the selected chain `{b0}⌢f(bt)` is republished as a boxed
//!   [`Blockchain`] through an atomic pointer swap. `read()` pins the
//!   epoch domain and hands back a borrowed [`ChainView`] — one epoch pin
//!   (a CAS on a thread-private padded slot) plus one `Acquire` load, no
//!   lock and **no shared refcount**: the `Arc` bump that previously made
//!   every full-chain read hit one shared cache line is gone from the hot
//!   path. [`ChainView::to_owned`] upgrades to an owned [`Blockchain`]
//!   (that `Arc` clone) for snapshots that must outlive the guard.
//!
//! # Publication & reclamation
//!
//! Swapped-out snapshot boxes are *retired* into the tree's
//! [`EpochDomain`]: a reader holding a [`ChainView`] may still be looking
//! through the old pointer, so the box is freed only after every reader
//! pinned at (or before) the swap has unpinned — the two-epoch grace
//! period of `crate::epoch`. This replaces PR 2's grow-forever retire
//! list: memory now tracks the *reader horizon*, not the commit count.
//! The ordering contract is publish-before-respond: the batch's swap
//! (`AcqRel`) happens under the publication lock, before any of the
//! batch's `append`s return, so any read invoked after an append's
//! response observes that append's chain (or a later one) — the property
//! the recorded-history linearizability suite checks from the outside.
//!
//! # Degraded mode (durable trees)
//!
//! A durable tree whose WAL suffers a data-path write or fsync failure
//! **poisons** rather than panics: the failed publication is not acked,
//! the error latches, and every later `append`/`graft` returns the same
//! typed [`DurabilityError`] without touching the disk (a failed fsync
//! may have dropped dirty pages, so retrying it proves nothing — see
//! `crate::wal`). Poisoning is one-way and observable via
//! [`ConcurrentBlockTree::is_poisoned`] /
//! [`ConcurrentBlockTree::durability_error`]. Reads stay valid in
//! degraded mode: the published chain is exactly the acked durable
//! prefix, so readers drain gracefully while the operator fails over to
//! recovery (`open_durable` on the surviving directory). The crash-point
//! matrix (`tests/wal_crashpoints.rs`) and the mtrun fault lane hold
//! this to "no ack a crash could forget", per-operation and under real
//! thread contention.

use crate::block::{Block, Payload};
use crate::blocktree::CandidateBlock;
use crate::chain::Blockchain;
use crate::commit::{CommitQueue, CommitReq, FinalityWatermark, PipelineStats, Polled};
use crate::epoch::{EpochDomain, Guard, RecycleBin};
use crate::ids::BlockId;
use crate::selection::{SelectionAux, SelectionFn};
use crate::store::{BlockMeta, BlockStore, BlockView, TreeMembership};
use crate::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use crate::tipcache::advance_chain;
use crate::validity::ValidityPredicate;
use crate::wal::{
    CheckpointJob, CommitRecord, DurabilityError, RecordRef, Wal, WalConfig, WalStats,
};
use std::collections::{HashMap, VecDeque};

/// Default shard count for [`ShardedStore`] (must be a power of two).
pub const DEFAULT_SHARDS: usize = 16;

/// Reclamation threshold: commit paths attempt an epoch advance + bag
/// sweep only once at least this many retirees are pending, so the sweep
/// cost is amortized over many commits while the backlog stays a few
/// hundred boxes (the churn stress asserts the bound from the outside).
/// One snapshot box is retired per *publication*, so batched commits
/// only space sweeps further apart per append.
const RECLAIM_PENDING: usize = 256;

struct Entry {
    block: Block,
    cum_work: u64,
    jump: BlockId,
    /// Height of `jump`'s target, cached so a child's jump computation
    /// never has to re-read that entry's shard.
    jump_h: u32,
    /// `jump`'s own jump target and its height: the skew-binary merge
    /// test compares span lengths two jump levels up, and caching both
    /// here turns the four cross-shard entry reads the generic
    /// `jump_for_child` needs into at most one extra (merge steps only).
    jump2: BlockId,
    jump2_h: u32,
}

/// Spine length of a shard's chunk table: chunk `k` holds `2^k` slots, so
/// 32 chunks cover every id a `u32` can name.
const SPINE: usize = 32;

/// One grow-only chunk of arena slots. Entries are written exactly once —
/// by the thread that allocated the id — and published by the paired
/// `ready` flag (`Release` store / `Acquire` load), after which they are
/// immutable forever. That write-once discipline is what lets every
/// metadata read (`meta`, `with_block`, ancestry walks, the selection
/// fold) run **without any lock**: the per-shard `RwLock` this replaces
/// charged two atomic RMWs per read, several times per append.
struct Chunk {
    ready: Box<[crate::sync::atomic::AtomicBool]>,
    entries: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<Entry>>]>,
}

impl Chunk {
    fn new(len: usize) -> Chunk {
        Chunk {
            ready: (0..len)
                .map(|_| crate::sync::atomic::AtomicBool::new(false))
                .collect(),
            entries: (0..len)
                .map(|_| std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
                .collect(),
        }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        for (r, e) in self.ready.iter().zip(self.entries.iter_mut()) {
            if r.load(Ordering::Acquire) {
                // SAFETY: a ready slot holds a fully initialized entry,
                // and `&mut self` means no reader is alive.
                unsafe { e.get_mut().assume_init_drop() };
            }
        }
    }
}

/// Geometric chunk coordinates of slot `s`: chunk `k = ⌊log2(s+1)⌋`,
/// offset `s + 1 - 2^k`, chunk capacity `2^k`.
#[inline]
fn chunk_of(slot: usize) -> (usize, usize) {
    let k = (usize::BITS - 1 - (slot + 1).leading_zeros()) as usize;
    (k, slot + 1 - (1 << k))
}

/// The hot half of a flattened block: everything an ancestry walk or a
/// `meta` read touches, packed into 32 bytes so a walk costs one cache
/// line per step instead of chasing a ~100-byte spine [`Entry`]. `work`
/// is *derived* (`cum_work - parent.cum_work`), not stored — that is what
/// fits the struct in half a line.
#[derive(Clone, Copy)]
struct FlatEntry {
    /// Parent id; `u32::MAX` encodes "genesis / no parent".
    parent_raw: u32,
    height: u32,
    /// Skew-binary jump target. Jump targets are strict ancestors, so a
    /// flat block's jump is always flat too — walks never cross back
    /// into the spine tier.
    jump: BlockId,
    cum_work: u64,
    digest: u64,
}

const FLAT_NO_PARENT: u32 = u32::MAX;

/// The cold half: fields only `with_block` reconstruction needs. Non-empty
/// payloads are boxed so the common `Payload::Empty` costs no heap and the
/// slot stays 16 bytes.
struct FlatCold {
    producer: crate::ids::ProcessId,
    merit_index: u32,
    payload: Option<Box<Payload>>,
}

/// Frozen child list of a flattened block. Finalized-prefix blocks have
/// overwhelmingly exactly one child (forks die young), so the one-child
/// case is inline and the empty case is free.
enum FlatKids {
    None,
    One(BlockId),
    Many(Box<[BlockId]>),
}

impl FlatKids {
    fn from_vec(kids: Vec<BlockId>) -> FlatKids {
        match kids.len() {
            0 => FlatKids::None,
            1 => FlatKids::One(kids[0]),
            _ => FlatKids::Many(kids.into_boxed_slice()),
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(BlockId)) {
        match self {
            FlatKids::None => {}
            FlatKids::One(c) => f(*c),
            FlatKids::Many(cs) => {
                for &c in cs.iter() {
                    f(c)
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            FlatKids::Many(cs) => std::mem::size_of_val::<[BlockId]>(cs),
            _ => 0,
        }
    }
}

/// One chunk of the flattened slab — same geometric spine layout as the
/// live tier's [`Chunk`], but indexed by *id* (the finalized prefix is
/// dense and parent-closed, so ids are direct offsets) and with **no
/// per-slot ready flags**: a whole batch of slots is published at once by
/// the single `Release` store of [`FlatTier::count`].
struct FlatChunk {
    hot: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<FlatEntry>>]>,
    cold: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<FlatCold>>]>,
    kids: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<FlatKids>>]>,
}

impl FlatChunk {
    fn new(len: usize) -> FlatChunk {
        fn slots<T>(len: usize) -> Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<T>>]> {
            (0..len)
                .map(|_| std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
                .collect()
        }
        FlatChunk {
            hot: slots(len),
            cold: slots(len),
            kids: slots(len),
        }
    }
}

/// The finalized tier: an offset-indexed immutable slab holding every
/// block with id below [`count`](Self::count).
///
/// # Invariants
///
/// * `count` is monotone and only ever stored (Release) by the single
///   flattener holding the `work` ticket, after it has fully written the
///   hot/cold/kids slots of every id below the new value. Readers load it
///   Acquire: `id < count` ⇒ all three slots of `id` are initialized and
///   immutable forever — no per-slot flag needed.
/// * `target` is the watermark bound (exclusive id): flattening never
///   proceeds past `min(target, fully-minted prefix)`. It is advanced by
///   `fetch_max` only — storage policy, not semantic finality; a reorg
///   reaching below the watermark still reads correctly, it is merely
///   assumed rare enough that the prefix's *data layout* can be frozen.
/// * `late_kids` holds children minted under an already-frozen parent
///   (the watermark trails the tip by the finality depth, so this is the
///   reorg tail case). Readers merge them into the frozen list in id
///   order (`extend_with_late_kids`); freezing captures the list under
///   the same lock mints push through.
/// * `work` holds, per shard, the index of the first spine chunk not yet
///   retired. Chunks are retired in spine order and each exactly once:
///   every chunk below a shard's cursor lies wholly below `count` and is
///   null forever after, because no chunk is ever (re)installed for a
///   slot range wholly below `count` — its installer owns a not-yet-ready
///   id in that range, and the flattener never passes an unready id.
struct FlatTier {
    spine: [AtomicPtr<FlatChunk>; SPINE],
    /// Ids below this are flattened (published Release, read Acquire).
    count: AtomicU32,
    /// Exclusive id bound the flattener may advance to (watermark).
    target: AtomicU32,
    /// Children minted under already-flattened parents: parent id → kids
    /// in id order.
    late_kids: Mutex<HashMap<u32, Vec<BlockId>>>,
    /// Single-flattener ticket: `try_lock` and do bounded work, or leave.
    /// Holds the per-shard retirement cursors (first unretired spine
    /// chunk), which only the ticket holder reads or advances.
    work: Mutex<Box<[u8]>>,
}

impl FlatTier {
    fn new(shards: usize) -> FlatTier {
        FlatTier {
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            count: AtomicU32::new(0),
            target: AtomicU32::new(0),
            late_kids: Mutex::new(HashMap::new()),
            work: Mutex::new(vec![0; shards].into_boxed_slice()),
        }
    }

    /// The chunk covering `id`, installing it first if nobody has.
    /// Flattener-only (but CAS-installed for safety symmetry with
    /// [`Shard::chunk_for_write`]).
    fn chunk_for_write(&self, id: u32) -> (&FlatChunk, usize) {
        let (k, off) = chunk_of(id as usize);
        let p = self.spine[k].load(Ordering::Acquire);
        let chunk = if p.is_null() {
            let fresh = Box::into_raw(Box::new(FlatChunk::new(1 << k)));
            match self.spine[k].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => fresh,
                Err(winner) => {
                    // SAFETY: ours never escaped.
                    drop(unsafe { Box::from_raw(fresh) });
                    winner
                }
            }
        } else {
            p
        };
        // SAFETY: slab chunks are never freed while the store lives.
        (unsafe { &*chunk }, off)
    }

    /// Writes the hot and cold halves of `id`. Flattener-only, before the
    /// covering `count` publication.
    fn install(&self, id: u32, hot: FlatEntry, cold: FlatCold) {
        let (chunk, off) = self.chunk_for_write(id);
        // SAFETY: the single flattener owns all slots in
        // `count..target`; readers never look before `count` covers them.
        unsafe {
            (*chunk.hot[off].get()).write(hot);
            (*chunk.cold[off].get()).write(cold);
        }
    }

    /// Freezes `id`'s child list. Flattener-only; called under the owning
    /// shard's children lock (the freeze handoff point — see
    /// `ShardedStore::flatten_some`).
    fn install_kids(&self, id: u32, kids: Vec<BlockId>) {
        let (chunk, off) = self.chunk_for_write(id);
        // SAFETY: as in `install`.
        unsafe { (*chunk.kids[off].get()).write(FlatKids::from_vec(kids)) };
    }

    /// The hot entry of `id`. Callers must have established that the slot
    /// is initialized: either `id < count` (Acquire), or they are on the
    /// freeze handoff path (children lock ordered after the slot write),
    /// or they are the flattener reading its own writes. No assert on
    /// `count` here — the flattener legitimately reads below-`target`
    /// slots it wrote moments ago, before publishing.
    #[inline]
    fn entry(&self, id: u32) -> FlatEntry {
        let (k, off) = chunk_of(id as usize);
        let p = self.spine[k].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "flat read of id {id} before its chunk");
        // SAFETY: per the caller contract above, the slot is initialized
        // and immutable; chunks live as long as the store.
        unsafe { (*(*p).hot[off].get()).assume_init_ref() }.to_owned()
    }

    /// The cold half of `id`. Same contract as [`entry`](Self::entry).
    #[inline]
    fn with_cold<R>(&self, id: u32, f: impl FnOnce(&FlatCold) -> R) -> R {
        let (k, off) = chunk_of(id as usize);
        let p = self.spine[k].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "flat read of id {id} before its chunk");
        // SAFETY: as in `entry`.
        f(unsafe { (*(*p).cold[off].get()).assume_init_ref() })
    }

    /// The frozen child list of `id`, copied out (late children are the
    /// caller's job to merge). Same contract as [`entry`](Self::entry).
    fn kids_clone(&self, id: u32) -> Vec<BlockId> {
        let (k, off) = chunk_of(id as usize);
        let p = self.spine[k].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "flat read of id {id} before its chunk");
        // SAFETY: as in `entry`.
        let kids = unsafe { (*(*p).kids[off].get()).assume_init_ref() };
        let mut out = Vec::new();
        kids.for_each(&mut |c| out.push(c));
        out
    }

    /// Out-of-line bytes of `id`'s frozen child list (`Many` boxes only).
    /// Same contract as [`entry`](Self::entry).
    fn kids_heap_bytes(&self, id: u32) -> usize {
        let (k, off) = chunk_of(id as usize);
        let p = self.spine[k].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "flat read of id {id} before its chunk");
        // SAFETY: as in `entry`.
        unsafe { (*(*p).kids[off].get()).assume_init_ref() }.heap_bytes()
    }
}

impl Drop for FlatTier {
    fn drop(&mut self) {
        let count = *self.count.get_mut();
        for id in 0..count {
            let (k, off) = chunk_of(id as usize);
            let p = *self.spine[k].get_mut();
            // SAFETY: ids below count are fully written; `&mut self`
            // means no readers. `FlatEntry` is Copy — only the cold and
            // kids halves own heap.
            unsafe {
                (*(*p).cold[off].get()).assume_init_drop();
                (*(*p).kids[off].get()).assume_init_drop();
            }
        }
        for p in &mut self.spine {
            let p = *p.get_mut();
            if !p.is_null() {
                // SAFETY: install sites leaked exactly these boxes.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// Per-shard child lists with a frozen prefix. Slot `s` of the shard
/// lives at `lists[s - moved]`; slots below `moved` have been frozen into
/// the flat slab (pop_front keeps the deque dense). The freeze for slot
/// `s` happens under this table's mutex — a reader or minter that
/// observes `moved > s` under the lock is *guaranteed* to find `s`'s
/// frozen list in the slab (the flattener wrote it before bumping
/// `moved`), even before the covering `count` publication.
struct ChildTable {
    lists: VecDeque<Vec<BlockId>>,
    moved: usize,
}

impl ChildTable {
    fn new() -> ChildTable {
        ChildTable {
            lists: VecDeque::new(),
            moved: 0,
        }
    }

    /// The live list for `slot`, growing the table as needed.
    /// Panics (underflow) if the slot is already frozen — callers check
    /// `moved` first.
    fn live_mut(&mut self, slot: usize) -> &mut Vec<BlockId> {
        let idx = slot - self.moved;
        while self.lists.len() <= idx {
            self.lists.push_back(Vec::new());
        }
        &mut self.lists[idx]
    }
}

struct Shard {
    /// Slot `i` holds the block with id `i * shards + shard_index`.
    /// Chunks are installed by CAS and never moved or freed while the
    /// store lives, so a slot's address is stable from its first write.
    spine: [AtomicPtr<Chunk>; SPINE],
    /// Forward edges per slot, id-sorted (see [`insert_sorted`]) — the
    /// one piece of per-block state that mutates after publication, so it
    /// lives under a (per-shard) mutex instead of next to the immutable
    /// entry. The flattener freezes lists out of the front (see
    /// [`ChildTable`]).
    children: Mutex<ChildTable>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            children: Mutex::new(ChildTable::new()),
        }
    }
}

/// Inserts `id` at its ascending-id position. Child lists are kept
/// id-sorted — not "minting order": two mints racing under one parent
/// can allocate ids in one order and take the children lock in the
/// other, so arrival order is not reproducible (and in particular not
/// what WAL replay would rebuild). Sorted insert makes the live order a
/// *function of the ids*, so live trees, frozen `FlatKids`, snapshots,
/// and recovered trees all agree. Ids are allocated monotonically, so
/// the binary search almost always lands at the tail.
fn insert_sorted(list: &mut Vec<BlockId>, id: BlockId) {
    let at = list.partition_point(|&c| c < id);
    list.insert(at, id);
}

impl Shard {
    /// The chunk covering `slot`, installing it first if nobody has.
    /// `retired(k)` says whether chunk `k` lies wholly below the flat
    /// frontier; it is only consulted by a debug assertion, since the
    /// retirement cursor relies on no such chunk ever being installed.
    fn chunk_for_write(&self, slot: usize, retired: impl FnOnce(usize) -> bool) -> (&Chunk, usize) {
        let (k, off) = chunk_of(slot);
        let p = self.spine[k].load(Ordering::Acquire);
        let chunk = if p.is_null() {
            debug_assert!(
                !retired(k),
                "spine chunk {k} installed below the flat frontier"
            );
            let fresh = Box::into_raw(Box::new(Chunk::new(1 << k)));
            match self.spine[k].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => fresh,
                Err(winner) => {
                    // SAFETY: ours never escaped.
                    drop(unsafe { Box::from_raw(fresh) });
                    winner
                }
            }
        } else {
            p
        };
        // SAFETY: chunks are never freed while the store lives.
        (unsafe { &*chunk }, off)
    }

    /// The entry at `slot`, if fully minted. Lock-free.
    fn entry(&self, slot: usize) -> Option<&Entry> {
        let (k, off) = chunk_of(slot);
        let p = self.spine[k].load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        // SAFETY: chunks live as long as the store.
        let chunk = unsafe { &*p };
        if !chunk.ready[off].load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `ready` was published (Release) after the one-time
        // entry write; entries are immutable from then on.
        Some(unsafe { (*chunk.entries[off].get()).assume_init_ref() })
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        for p in &self.spine {
            let p = p.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: install sites leaked exactly these boxes.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// A sharded, append-only block arena safe for concurrent minting.
///
/// Shard selection hashes the [`BlockId`] by its low bits — ids are dense
/// (one atomic counter), so consecutive mints land on distinct shards.
/// All read access goes through [`BlockView`]. Metadata reads are
/// lock-free (write-once entries behind a `Release` ready flag); child
/// lists, the one state that mutates after publication, sit behind a
/// per-shard mutex and are copied out before any callback runs, so
/// queries never deadlock against concurrent minters.
pub struct ShardedStore {
    shards: Box<[Shard]>,
    /// The finalized slab (empty and inert unless
    /// [`flatten_capable`](Self::flatten_capable)).
    flat: FlatTier,
    /// Grace periods for spine chunks retired by the flattener. Separate
    /// from the tree's publication domain: chunk readers and chain
    /// readers have independent horizons.
    reclaim: EpochDomain,
    /// Whether this store may ever flatten. Fixed at construction: plain
    /// stores never retire chunks, so their readers skip the epoch pin
    /// entirely — zero overhead when the feature is off.
    flatten_capable: bool,
    next_id: AtomicU32,
    mask: u32,
    shift: u32,
}

impl ShardedStore {
    /// A store holding only genesis, with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        ShardedStore::with_shards(DEFAULT_SHARDS)
    }

    /// A store holding only genesis, with `shards` lock shards
    /// (power of two). Not flatten-capable: reads never pin an epoch.
    pub fn with_shards(shards: usize) -> Self {
        ShardedStore::with_config(shards, false)
    }

    /// A store that may flatten its finalized prefix into the slab tier
    /// once a watermark is raised (see
    /// [`raise_flatten_target`](Self::raise_flatten_target) and
    /// [`flatten_some`](Self::flatten_some)).
    pub fn with_flattening(shards: usize) -> Self {
        ShardedStore::with_config(shards, true)
    }

    fn with_config(shards: usize, flatten_capable: bool) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "shard count must be a power of two"
        );
        let store = ShardedStore {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            flat: FlatTier::new(shards),
            reclaim: EpochDomain::new(),
            flatten_capable,
            next_id: AtomicU32::new(1),
            mask: shards as u32 - 1,
            shift: shards.trailing_zeros(),
        };
        // Install genesis (same block BlockStore::new mints into slot 0).
        let genesis = BlockStore::new().block(BlockId::GENESIS);
        store.install_entry(
            BlockId::GENESIS,
            Entry {
                block: genesis,
                cum_work: 0,
                jump: BlockId::GENESIS,
                jump_h: 0,
                jump2: BlockId::GENESIS,
                jump2_h: 0,
            },
        );
        store
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: BlockId) -> usize {
        (id.0 & self.mask) as usize
    }

    #[inline]
    fn slot_of(&self, id: BlockId) -> usize {
        (id.0 >> self.shift) as usize
    }

    /// Writes `id`'s one-time entry and publishes it (`Release`). Only
    /// the thread that allocated `id` may call this, exactly once.
    fn install_entry(&self, id: BlockId, entry: Entry) {
        let shard_idx = self.shard_of(id);
        let slot = self.slot_of(id);
        let (chunk, off) = self.shards[shard_idx].chunk_for_write(slot, |k| {
            self.chunk_below(shard_idx, k, self.flat.count.load(Ordering::Acquire))
        });
        // SAFETY: this thread owns `id` (it came from our fetch_add, or
        // construction-time genesis), so no other writer touches the
        // slot, and no reader looks before the `ready` publication.
        unsafe { (*chunk.entries[off].get()).write(entry) };
        chunk.ready[off].store(true, Ordering::Release);
    }

    /// WAL-replay install: re-creates a committed block at its original
    /// id with its original digest (recorded verbatim — the mint-time
    /// nonce is folded in and not persisted) and the same skew-binary
    /// jump metadata the original mint computed. Replay runs in commit
    /// order, which is parent-closed, so the parent's entry is always
    /// present; and it runs on a *fresh* store before any concurrent
    /// use, so every ancestor still lives in the spine (the flat tier is
    /// empty) and plain pushes to the live child lists are safe.
    fn install_recovered(&self, rec: &crate::wal::CommitRecord) {
        let (pm_height, pm_cum, p_jump, p_jump_h, p_jump2, p_jump2_h) = {
            let e = self.shards[self.shard_of(rec.parent)]
                .entry(self.slot_of(rec.parent))
                .expect("WAL replay is parent-closed");
            (
                e.block.height,
                e.cum_work,
                e.jump,
                e.jump_h,
                e.jump2,
                e.jump2_h,
            )
        };
        // Same merge rule as `mint_checked`: the jump is a function of
        // the parent's cached heights alone, so the recovered pointers
        // are bit-identical to the originals.
        let (jump, jump_h, jump2, jump2_h) = if pm_height - p_jump_h == p_jump_h - p_jump2_h {
            let (j2, j2h) = {
                let e = self.shards[self.shard_of(p_jump2)]
                    .entry(self.slot_of(p_jump2))
                    .expect("jump ancestors recover before their descendants");
                (e.jump, e.jump_h)
            };
            (p_jump2, p_jump2_h, j2, j2h)
        } else {
            (rec.parent, pm_height, p_jump, p_jump_h)
        };
        let block = Block {
            id: rec.id,
            parent: Some(rec.parent),
            height: pm_height + 1,
            producer: rec.producer,
            merit_index: rec.merit_index,
            work: rec.work,
            digest: rec.digest,
            payload: rec.payload.clone(),
        };
        // Recovered ids arrive in commit order, not allocation order:
        // keep the allocator ahead of the largest id seen so far.
        self.next_id.fetch_max(rec.id.0 + 1, Ordering::AcqRel);
        self.install_entry(
            rec.id,
            Entry {
                block,
                cum_work: pm_cum + rec.work,
                jump,
                jump_h,
                jump2,
                jump2_h,
            },
        );
        let shard = &self.shards[self.shard_of(rec.parent)];
        shard
            .children
            .lock()
            .live_mut(self.slot_of(rec.parent))
            .push(rec.id);
    }

    /// WAL-replay gap fill: non-member mints — orphans, `P`-rejected
    /// blocks, consensus losers — are never logged, yet they consumed
    /// ids, and the arena's readers (the id-ordered `snapshot`, the
    /// flattener walk) assume the id space is dense. Install an inert
    /// genesis-parented *ghost* at every unrecovered id below the
    /// allocator frontier: zero work, empty payload, a producer no real
    /// process uses. Ghosts never enter the membership, so every
    /// membership-filtered query is blind to them.
    fn fill_recovery_gaps(&self) {
        let frontier = self.next_id.load(Ordering::Acquire);
        for raw in 1..frontier {
            let id = BlockId(raw);
            if self.has_block(id) {
                continue;
            }
            let ghost = Block {
                id,
                parent: Some(BlockId::GENESIS),
                height: 1,
                producer: crate::ids::ProcessId(u32::MAX),
                merit_index: 0,
                work: 0,
                digest: crate::ids::mix2(0xB10C_DEAD, raw as u64),
                payload: Payload::Empty,
            };
            self.install_entry(
                id,
                Entry {
                    block: ghost,
                    cum_work: 0,
                    jump: BlockId::GENESIS,
                    jump_h: 0,
                    jump2: BlockId::GENESIS,
                    jump2_h: 0,
                },
            );
            let shard = &self.shards[self.shard_of(BlockId::GENESIS)];
            shard
                .children
                .lock()
                .live_mut(self.slot_of(BlockId::GENESIS))
                .push(id);
        }
    }

    /// WAL-replay epilogue: live child lists are kept in ascending-id
    /// order by construction ([`insert_sorted`] — arrival order alone
    /// would *not* be reproducible, since racing mints can allocate ids
    /// in one order and record the parent edge in the other), but
    /// replay pushes children in *commit* order and the ghost fill
    /// appends last. One sort per list restores the shared invariant,
    /// making recovered `for_each_child` answers bit-identical to the
    /// live tree's. Fresh store, single-threaded, nothing frozen
    /// (`moved == 0`).
    fn sort_recovered_children(&self) {
        for shard in self.shards.iter() {
            let mut children = shard.children.lock();
            debug_assert_eq!(children.moved, 0, "recovery precedes flattening");
            for list in children.lists.iter_mut() {
                list.sort_unstable();
            }
        }
    }

    /// Mints a new block under `parent` and returns its id. Safe to call
    /// from any number of threads; `parent` must be fully minted (callers
    /// obtain parents from published tips, commit logs, or their own
    /// earlier mints — all release/acquire-ordered after the parent's
    /// shard write).
    ///
    /// The jump pointer is computed exactly as `BlockStore::mint` does
    /// (skew-binary, distance a function of height alone), reading the
    /// parent's — fully immutable — ancestor metadata.
    pub fn mint(
        &self,
        parent: BlockId,
        producer: crate::ids::ProcessId,
        merit_index: u32,
        work: u64,
        nonce: u64,
        payload: Payload,
    ) -> BlockId {
        self.mint_checked(parent, producer, merit_index, work, nonce, payload, |_| {
            true
        })
        .0
    }

    /// [`mint`](Self::mint) with a predicate run on the fully-built block
    /// *before* it is installed — the built value lives on this stack, so
    /// the check runs with **no shard lock held** and the caller never
    /// pays a lock-plus-clone round trip to re-read what it just minted
    /// (the concurrent `append` prevalidates every candidate this way).
    /// The block is installed either way — a `P`-rejected mint still
    /// occupies its arena slot, exactly as before.
    #[allow(clippy::too_many_arguments)] // mirrors `mint`, plus the check
    pub fn mint_checked(
        &self,
        parent: BlockId,
        producer: crate::ids::ProcessId,
        merit_index: u32,
        work: u64,
        nonce: u64,
        payload: Payload,
        check: impl FnOnce(&Block) -> bool,
    ) -> (BlockId, bool) {
        // One read session on the parent collects everything a child
        // needs: height/digest/cumulative work plus the jump metadata
        // (cached in the spine [`Entry`]; re-derived by two slab hops for
        // a flattened parent — jump targets of flat blocks are ancestors,
        // hence flat themselves). The whole phase runs under one
        // `walk_guard` so a concurrent flattener cannot free a spine
        // chunk mid-read; the tier is re-checked per id (pin-then-recheck).
        let (jump, jump_h, jump2, jump2_h, pm_height, pm_digest, pm_cum) = {
            let _guard = self.walk_guard(parent);
            // Slab-side parent read, also the fallback when a spine read
            // loses the race against chunk retirement (the tier re-check
            // in `flat_after_retire` proves the slab copy is published).
            let flat_parent = |s: &Self| {
                let e = s.flat.entry(parent.0);
                let j = s.flat.entry(e.jump.0);
                let j2 = s.flat.entry(j.jump.0);
                (
                    e.height, e.digest, e.cum_work, e.jump, j.height, j.jump, j2.height,
                )
            };
            let spine_parent = |e: &Entry| {
                (
                    e.block.height,
                    e.block.digest,
                    e.cum_work,
                    e.jump,
                    e.jump_h,
                    e.jump2,
                    e.jump2_h,
                )
            };
            let (pm_height, pm_digest, pm_cum, p_jump, p_jump_h, p_jump2, p_jump2_h) =
                if self.is_flat(parent) {
                    flat_parent(self)
                } else {
                    match self.shards[self.shard_of(parent)].entry(self.slot_of(parent)) {
                        Some(e) => spine_parent(e),
                        None => {
                            assert!(self.flat_after_retire(parent), "parent fully minted");
                            flat_parent(self)
                        }
                    }
                };
            // Skew-binary jump, identical to `store::jump_for_child` but
            // fed from the cached heights: merge (jump two levels up)
            // when the two previous jump spans are equal, else point at
            // the parent.
            let (jump, jump_h, jump2, jump2_h) = if pm_height - p_jump_h == p_jump_h - p_jump2_h {
                // The merged jump target's own jump fields come from its
                // entry — the only extra read, and only on merge steps.
                let flat_j2 = |s: &Self| {
                    let e = s.flat.entry(p_jump2.0);
                    (e.jump, s.flat.entry(e.jump.0).height)
                };
                let (j2, j2h) = if self.is_flat(p_jump2) {
                    flat_j2(self)
                } else {
                    match self.shards[self.shard_of(p_jump2)].entry(self.slot_of(p_jump2)) {
                        Some(e) => (e.jump, e.jump_h),
                        None => {
                            assert!(
                                self.flat_after_retire(p_jump2),
                                "jump ancestors are fully minted"
                            );
                            flat_j2(self)
                        }
                    }
                };
                (p_jump2, p_jump2_h, j2, j2h)
            } else {
                (parent, pm_height, p_jump, p_jump_h)
            };
            (jump, jump_h, jump2, jump2_h, pm_height, pm_digest, pm_cum)
        };
        let height = pm_height + 1;
        let digest = Block::compute_digest(pm_digest, producer, nonce, &payload);
        let id = BlockId(self.next_id.fetch_add(1, Ordering::AcqRel));
        let block = Block {
            id,
            parent: Some(parent),
            height,
            producer,
            merit_index,
            work,
            digest,
            payload,
        };
        // The check is shielded: `id` is already allocated, and a slot
        // that never becomes ready is a *dead gap* — the flattener (and
        // with it chunk retirement and WAL compaction) would wedge behind
        // it forever, and every later `snapshot` would panic on it.
        // Installing the entry before resuming the unwind makes a
        // panicked check indistinguishable from a rejected one: the block
        // occupies its arena slot either way, and the id space stays
        // dense.
        let accepted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&block)));
        self.install_entry(
            id,
            Entry {
                block,
                cum_work: pm_cum + work,
                jump,
                jump_h,
                jump2,
                jump2_h,
            },
        );
        // Forward edge on the parent, after the entry is in place: anyone
        // discovering `id` through the child list finds a complete entry.
        {
            let shard = &self.shards[self.shard_of(parent)];
            let mut children = shard.children.lock();
            let pslot = self.slot_of(parent);
            if pslot < children.moved {
                // The parent's list froze into the slab while we minted
                // (watermark trails the tip, so this is the reorg-tail
                // case): record the child in the late-kids side table,
                // which flat-tier child reads merge after the frozen
                // list. Decided under the same lock the freeze held, so
                // exactly one of the two lists receives the child.
                drop(children);
                insert_sorted(self.flat.late_kids.lock().entry(parent.0).or_default(), id);
            } else {
                insert_sorted(children.live_mut(pslot), id);
            }
        }
        // Only now — entry installed, parent edge recorded — may a
        // panicked check continue unwinding: the arena sees a complete
        // (if unwanted) block, not a dead gap.
        let accepted = match accepted {
            Ok(a) => a,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (id, accepted)
    }

    /// Materializes a sequential [`BlockStore`] with identical ids,
    /// digests, and memoized indices — the bridge to every single-threaded
    /// checker (linearizability, criteria, differential replay).
    ///
    /// Requires quiescence (no in-flight `mint`), e.g. after joining the
    /// workload threads: ids `1..block_count()` are adopted in order, and
    /// an allocated id whose mint has not landed panics.
    pub fn snapshot(&self) -> BlockStore {
        let mut base = BlockStore::new();
        for raw in 1..self.block_count() as u32 {
            let id = BlockId(raw);
            assert!(
                self.has_block(id),
                "snapshot of half-minted {id} (snapshot requires quiescence)"
            );
            base.adopt(self.block(id));
        }
        base
    }

    /// Whether this store may flatten its finalized prefix (fixed at
    /// construction — see [`with_flattening`](Self::with_flattening)).
    pub fn flatten_capable(&self) -> bool {
        self.flatten_capable
    }

    /// Raises the flatten bound to `bound` (an *exclusive* id: everything
    /// below it may be moved to the slab tier). Monotone — lower bounds
    /// are ignored. Callers derive bounds from a committed-prefix depth
    /// threshold ([`FinalityWatermark`]); this is storage policy, not
    /// semantic finality: reads below the bound stay correct forever,
    /// reorgs included.
    pub fn raise_flatten_target(&self, bound: u32) {
        assert!(
            self.flatten_capable,
            "raise_flatten_target on a non-flattening store"
        );
        self.flat.target.fetch_max(bound, Ordering::AcqRel);
    }

    /// The current flatten bound (exclusive id).
    pub fn flatten_target(&self) -> u32 {
        self.flat.target.load(Ordering::Acquire)
    }

    /// Number of blocks flattened into the slab tier so far.
    pub fn flattened_count(&self) -> u32 {
        self.flat.count.load(Ordering::Acquire)
    }

    /// The epoch domain guarding retired spine chunks — exposed for the
    /// churn tests and observability (`retired_bytes_peak` of chunk
    /// memory, pending chunk garbage).
    pub fn reclaim_domain(&self) -> &EpochDomain {
        &self.reclaim
    }

    /// Flattens up to `budget` blocks of the finalized prefix into the
    /// slab tier, then retires any spine chunks wholly below the new
    /// frontier through the reclaim domain. Bounded work, safe to call
    /// from any thread next to the commit paths (single-flattener ticket
    /// inside; losers return immediately). Returns blocks flattened.
    ///
    /// Per block: copy the hot/cold halves into the slab, then — under
    /// the owning shard's children lock — freeze the child list
    /// (`pop_front` + `moved` bump). The `count` publication (one
    /// `Release` store per call) is what makes the batch visible to
    /// lock-free readers; the children-lock handoff covers the window in
    /// between for child reads. Stops early at a mid-mint straggler
    /// below the bound and resumes once it completes — which it always
    /// does: `mint_checked` installs the entry even when the `P` check
    /// panics, so an allocated id cannot become a permanent dead gap
    /// that would wedge flattening (and chunk retirement, and WAL
    /// compaction) behind it.
    pub fn flatten_some(&self, budget: usize) -> usize {
        if !self.flatten_capable || budget == 0 {
            return 0;
        }
        let bound = self
            .flat
            .target
            .load(Ordering::Acquire)
            .min(self.next_id.load(Ordering::Acquire));
        // relaxed: pre-ticket probe; a stale low read only means we take
        // the ticket and re-check, a stale high read skips one call.
        if self.flat.count.load(Ordering::Relaxed) >= bound {
            return 0;
        }
        let Some(mut cursors) = self.flat.work.try_lock() else {
            return 0; // another thread is flattening right now
        };
        // Sole flattener from here: `count` cannot move under us.
        // relaxed: only the ticket holder advances `count`, so this
        // re-read is of our own (or a happens-before) value.
        let start = self.flat.count.load(Ordering::Relaxed);
        let goal = bound.max(start).min(start.saturating_add(budget as u32));
        let mut next = start;
        while next < goal {
            let id = BlockId(next);
            let shard_idx = self.shard_of(id);
            let slot = self.slot_of(id);
            let Some(e) = self.shards[shard_idx].entry(slot) else {
                break; // mid-mint straggler below the bound: resume later
            };
            debug_assert!(
                e.block.parent.is_none_or(|p| p.0 < next),
                "finalized prefix is parent-closed"
            );
            let hot = FlatEntry {
                parent_raw: e.block.parent.map_or(FLAT_NO_PARENT, |p| p.0),
                height: e.block.height,
                jump: e.jump,
                cum_work: e.cum_work,
                digest: e.block.digest,
            };
            let payload = match &e.block.payload {
                Payload::Empty => None,
                p => Some(Box::new(p.clone())),
            };
            let cold = FlatCold {
                producer: e.block.producer,
                merit_index: e.block.merit_index,
                payload,
            };
            self.flat.install(next, hot, cold);
            {
                // Freeze the child list under the same lock mints push
                // through: after `moved` covers this slot, any reader or
                // minter holding the lock finds the slab copy instead.
                let mut children = self.shards[shard_idx].children.lock();
                debug_assert_eq!(children.moved, slot, "freeze follows slot order");
                let list = children.lists.pop_front().unwrap_or_default();
                self.flat.install_kids(next, list);
                children.moved += 1;
                // `pop_front` never returns capacity; shrink the deque
                // once it is mostly frozen so the live tier's footprint
                // tracks the live suffix, not the all-time peak.
                if children.lists.capacity() > 64
                    && children.lists.len() * 4 < children.lists.capacity()
                {
                    let want = (children.lists.len() * 2).max(64);
                    children.lists.shrink_to(want);
                }
            }
            next += 1;
        }
        if next > start {
            // One Release store publishes the whole batch to lock-free
            // readers (`id < count` ⇒ slots initialized).
            self.flat.count.store(next, Ordering::Release);
            self.retire_covered_chunks(&mut cursors, next);
        }
        (next - start) as usize
    }

    /// Whether spine chunk `k` of shard `s` lies wholly below `frontier`
    /// (an exclusive id): its largest id is that of slot `2^(k+1) - 2`.
    fn chunk_below(&self, s: usize, k: usize, frontier: u32) -> bool {
        let hi_slot = (1u64 << (k + 1)) - 2;
        (hi_slot << self.shift) | (s as u64) < frontier as u64
    }

    /// Retires the spine chunks that have newly fallen wholly below
    /// `frontier` (all their blocks are readable from the slab): each
    /// shard resumes at its cursor, so every chunk is swapped out exactly
    /// once and a frontier that crosses no chunk boundary touches no
    /// spine pointer. The swap to null unpublishes the chunk; in-flight
    /// readers that loaded the pointer earlier are covered by their
    /// `walk_guard` pin — the epoch domain frees the box only after their
    /// grace period passes.
    fn retire_covered_chunks(&self, cursors: &mut [u8], frontier: u32) {
        let mut retired_any = false;
        for (s, (shard, cursor)) in self.shards.iter().zip(cursors.iter_mut()).enumerate() {
            while (*cursor as usize) < SPINE && self.chunk_below(s, *cursor as usize, frontier) {
                let k = *cursor as usize;
                *cursor += 1;
                let p = shard.spine[k].swap(std::ptr::null_mut(), Ordering::AcqRel);
                // Every id of the chunk was flattened, which needs its
                // entry, so the chunk was installed.
                debug_assert!(!p.is_null(), "covered spine chunk {k} never installed");
                if p.is_null() {
                    continue;
                }
                let bytes = (1usize << k) * (std::mem::size_of::<Entry>() + 1);
                // SAFETY: the install site leaked exactly this box, and
                // only the single flattener (we hold the work ticket)
                // swaps spine pointers out.
                self.reclaim.retire_box(bytes, unsafe { Box::from_raw(p) });
                retired_any = true;
            }
        }
        if retired_any {
            self.reclaim.try_reclaim();
        }
    }

    /// Approximate resident heap bytes of the arena: live spine chunks
    /// (entries + ready flags), child-list capacity, the flat slab
    /// (hot/cold/kids slots plus out-of-line many-child boxes), and the
    /// late-kids side table. Payload heap (boxed payloads, transaction
    /// vectors) is excluded — it is workload-owned data both tiers carry
    /// equally. O(arena) on the slab scan; an observability probe, not a
    /// hot-path call.
    pub fn approx_heap_bytes(&self) -> usize {
        let mut total = 0usize;
        for shard in self.shards.iter() {
            for k in 0..SPINE {
                if !shard.spine[k].load(Ordering::Acquire).is_null() {
                    total += (1usize << k) * (std::mem::size_of::<Entry>() + 1);
                }
            }
            let children = shard.children.lock();
            total += children.lists.capacity() * std::mem::size_of::<Vec<BlockId>>();
            for l in children.lists.iter() {
                total += l.capacity() * std::mem::size_of::<BlockId>();
            }
        }
        let slot_bytes = std::mem::size_of::<FlatEntry>()
            + std::mem::size_of::<FlatCold>()
            + std::mem::size_of::<FlatKids>();
        for k in 0..SPINE {
            if !self.flat.spine[k].load(Ordering::Acquire).is_null() {
                total += (1usize << k) * slot_bytes;
            }
        }
        for id in 0..self.flat.count.load(Ordering::Acquire) {
            total += self.flat.kids_heap_bytes(id);
        }
        let late = self.flat.late_kids.lock();
        total += late.len() * std::mem::size_of::<(u32, Vec<BlockId>)>();
        for l in late.values() {
            total += l.capacity() * std::mem::size_of::<BlockId>();
        }
        total
    }
}

// SAFETY: the only interior mutability is (a) spine chunk slots, written
// exactly once by the thread owning the id and published with a
// Release/Acquire `ready` flag, immutable afterwards (chunks retired by
// the flattener are freed only through the epoch domain's grace period);
// (b) slab slots, written by the single flattener (work ticket) and
// published in batches by the `count` Release store, immutable
// afterwards; (c) child lists and the late-kids table, behind mutexes.
// All are safe to share across threads.
unsafe impl Sync for ShardedStore {}
// SAFETY: same argument as Sync above; no thread-affine state is held.
unsafe impl Send for ShardedStore {}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::new()
    }
}

/// The tier-check read protocol. Every read dispatches on one branch —
/// `id < flat.count` (Acquire) — to the slab or the spine. Spine reads on
/// a flatten-capable store additionally pin the chunk-reclaim domain
/// first ([`walk_guard`](Self::walk_guard)): pin-then-recheck makes them
/// safe against a concurrent flattener retiring the chunk (a chunk
/// observed unretired after the pin cannot be freed while the pin
/// lives — retirement happens after the pin, and the grace period covers
/// it). Non-capable stores never retire chunks, so their reads skip the
/// pin entirely and cost exactly what they did before the tier existed.
impl ShardedStore {
    /// Whether `id` lives in the flattened slab — the one branch on the
    /// read hot path.
    #[inline]
    fn is_flat(&self, id: BlockId) -> bool {
        id.0 < self.flat.count.load(Ordering::Acquire)
    }

    /// Pin for a spine read (or a walk that may touch the spine) rooted
    /// at `id`. `None` when no pin is needed: non-capable store, or `id`
    /// already flat — every id a walk visits from a flat block is a
    /// (smaller, hence flat) ancestor, so the walk never touches the
    /// spine at all.
    #[inline]
    fn walk_guard(&self, id: BlockId) -> Option<Guard<'_>> {
        if !self.flatten_capable || self.is_flat(id) {
            None
        } else {
            Some(self.reclaim.pin())
        }
    }

    /// Metadata read with the tier branch but *no* pin — callers hold a
    /// [`walk_guard`](Self::walk_guard) (or the store is non-capable).
    /// The tier is re-checked per read: a block may flatten between the
    /// caller's pin and this load, in which case the slab copy is
    /// already published and we read that instead — and re-checked once
    /// more on a `None` spine read, which closes the
    /// tier-check-vs-retirement window (see
    /// [`flat_after_retire`](Self::flat_after_retire)).
    #[inline]
    fn meta_raw(&self, id: BlockId) -> BlockMeta {
        if self.is_flat(id) {
            return self.flat_meta(id);
        }
        match self.shards[self.shard_of(id)].entry(self.slot_of(id)) {
            Some(e) => BlockMeta {
                parent: e.block.parent,
                height: e.block.height,
                work: e.block.work,
                cum_work: e.cum_work,
                digest: e.block.digest,
                jump: e.jump,
            },
            None => {
                assert!(self.flat_after_retire(id), "meta of a half-minted id");
                self.flat_meta(id)
            }
        }
    }

    /// The slow half of the tier-check read protocol: a spine read that
    /// came back `None` for an id the caller believes fully minted. Two
    /// causes are possible, and one tier re-check tells them apart:
    ///
    /// * The flattener retired the chunk *between* the caller's
    ///   `is_flat` load and the spine load. The retirement swap
    ///   (`AcqRel` in [`retire_covered_chunks`](Self::retire_covered_chunks))
    ///   is sequenced after the covering `count` publication, so a
    ///   reader whose `Acquire` pointer load observed the swapped null
    ///   is ordered after that publication — re-checking `is_flat` now
    ///   is *guaranteed* to route the read to the slab.
    /// * The id genuinely is not fully minted (possible only for probes
    ///   like `has_block`: callers reading "known" ids obtained them
    ///   through a release/acquire edge after the install, so their
    ///   spine read cannot miss). The re-check stays `false` and the
    ///   caller keeps its half-minted verdict.
    #[cold]
    fn flat_after_retire(&self, id: BlockId) -> bool {
        self.is_flat(id)
    }

    fn flat_meta(&self, id: BlockId) -> BlockMeta {
        let e = self.flat.entry(id.0);
        let parent = (e.parent_raw != FLAT_NO_PARENT).then_some(BlockId(e.parent_raw));
        // `work` is derived, not stored: the parent (a smaller id) is
        // flat whenever `id` is, so its cumulative work is one slab read
        // away. Genesis carries work 0 = its own cum_work.
        let work = match parent {
            Some(p) => e.cum_work.wrapping_sub(self.flat.entry(p.0).cum_work),
            None => e.cum_work,
        };
        BlockMeta {
            parent,
            height: e.height,
            work,
            cum_work: e.cum_work,
            digest: e.digest,
            jump: e.jump,
        }
    }

    /// Reconstructs a flattened block (payload cloned out of the slab).
    fn flat_block(&self, id: BlockId) -> Block {
        let m = self.flat_meta(id);
        let (producer, merit_index, payload) = self.flat.with_cold(id.0, |c| {
            (
                c.producer,
                c.merit_index,
                c.payload.as_deref().cloned().unwrap_or(Payload::Empty),
            )
        });
        Block {
            id,
            parent: m.parent,
            height: m.height,
            producer,
            merit_index,
            work: m.work,
            digest: m.digest,
            payload,
        }
    }

    /// The lean navigation triple (parent, height, jump) the ancestry
    /// walks run on: for a flat id this touches exactly one 32-byte slab
    /// line — no cold half, no derived `work`, no parent entry — which
    /// is where the walk-at-depth speedup comes from.
    #[inline]
    fn nav_raw(&self, id: BlockId) -> (Option<BlockId>, u32, BlockId) {
        if self.is_flat(id) {
            return self.flat_nav(id);
        }
        match self.shards[self.shard_of(id)].entry(self.slot_of(id)) {
            Some(e) => (e.block.parent, e.block.height, e.jump),
            None => {
                assert!(self.flat_after_retire(id), "walk through a half-minted id");
                self.flat_nav(id)
            }
        }
    }

    #[inline]
    fn flat_nav(&self, id: BlockId) -> (Option<BlockId>, u32, BlockId) {
        let e = self.flat.entry(id.0);
        (
            (e.parent_raw != FLAT_NO_PARENT).then_some(BlockId(e.parent_raw)),
            e.height,
            e.jump,
        )
    }

    /// [`BlockView::ancestor_at`]'s exact algorithm over
    /// [`nav_raw`](Self::nav_raw); callers hold the walk guard.
    fn ancestor_at_raw(&self, id: BlockId, height: u32) -> BlockId {
        let (mut parent, mut h, mut jump) = self.nav_raw(id);
        assert!(height <= h, "requested height {height} above block at {h}");
        let mut cur = id;
        while h > height {
            let (jp, jh, jj) = self.nav_raw(jump);
            if jh >= height {
                cur = jump;
                (parent, h, jump) = (jp, jh, jj);
            } else {
                cur = parent.expect("above genesis, parent exists");
                (parent, h, jump) = self.nav_raw(cur);
            }
        }
        cur
    }

    /// Children of `id` across tiers, in ascending-id order (the
    /// [`insert_sorted`] invariant, which WAL recovery reproduces).
    fn children_of(&self, id: BlockId) -> Vec<BlockId> {
        if self.is_flat(id) {
            let mut kids = self.flat.kids_clone(id.0);
            self.extend_with_late_kids(id, &mut kids);
            return kids;
        }
        {
            let children = self.shards[self.shard_of(id)].children.lock();
            let slot = self.slot_of(id);
            if slot >= children.moved {
                return children
                    .lists
                    .get(slot - children.moved)
                    .cloned()
                    .unwrap_or_default();
            }
            // Frozen while we approached. The flattener wrote the slab
            // list *before* bumping `moved` under this very lock, so the
            // copy is visible to us now even though the covering `count`
            // publication may not have landed yet.
        }
        let mut kids = self.flat.kids_clone(id.0);
        self.extend_with_late_kids(id, &mut kids);
        kids
    }

    /// Merges in children minted after `id`'s list froze. Both halves
    /// are id-sorted, but a late kid may carry a *smaller* id than a
    /// frozen-list member (its id was allocated before the freeze, its
    /// push landed after), so the concatenation is re-sorted to restore
    /// the global ascending-id order.
    fn extend_with_late_kids(&self, id: BlockId, kids: &mut Vec<BlockId>) {
        let late = self.flat.late_kids.lock();
        if let Some(extra) = late.get(&id.0) {
            kids.extend_from_slice(extra);
            kids.sort_unstable();
        }
    }
}

impl BlockView for ShardedStore {
    fn block_count(&self) -> usize {
        self.next_id.load(Ordering::Acquire) as usize
    }

    fn has_block(&self, id: BlockId) -> bool {
        if self.is_flat(id) {
            return true;
        }
        if !self.flatten_capable {
            return self.shards[self.shard_of(id)]
                .entry(self.slot_of(id))
                .is_some();
        }
        let _guard = self.reclaim.pin();
        self.is_flat(id)
            || self.shards[self.shard_of(id)]
                .entry(self.slot_of(id))
                .is_some()
            // A `None` spine read may have hit a chunk the flattener
            // retired between the two loads above; the final re-check
            // (ordered after the retirement swap) settles it so an
            // existing block is never reported absent.
            || self.flat_after_retire(id)
    }

    fn meta(&self, id: BlockId) -> BlockMeta {
        let _guard = self.walk_guard(id);
        self.meta_raw(id)
    }

    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&Block)) {
        let _guard = self.walk_guard(id);
        if self.is_flat(id) {
            f(&self.flat_block(id));
            return;
        }
        match self.shards[self.shard_of(id)].entry(self.slot_of(id)) {
            Some(e) => f(&e.block),
            None => {
                assert!(self.flat_after_retire(id), "block of a half-minted id");
                f(&self.flat_block(id));
            }
        }
    }

    fn for_each_child(&self, id: BlockId, f: &mut dyn FnMut(BlockId)) {
        debug_assert!(self.has_block(id), "children of a half-minted id");
        // Copy the child list out so `f` may query the store without any
        // lock held (no nested acquisition, no deadlock). Child reads
        // never touch spine chunks, so no walk guard is needed here.
        for c in self.children_of(id) {
            f(c);
        }
    }

    // Walk overrides: same algorithms as the trait defaults (bit-identical
    // answers — the differential suite checks this), but one epoch pin for
    // the *whole* walk instead of one per `meta`, and the lean `nav_raw`
    // read per step. Every id a walk visits is ≤ its starting id's height
    // ancestry, hence covered by a guard taken on the largest root id.

    fn parent(&self, id: BlockId) -> Option<BlockId> {
        let _guard = self.walk_guard(id);
        self.nav_raw(id).0
    }

    fn height(&self, id: BlockId) -> u32 {
        let _guard = self.walk_guard(id);
        self.nav_raw(id).1
    }

    fn ancestor_at(&self, id: BlockId, height: u32) -> BlockId {
        let _guard = self.walk_guard(id);
        self.ancestor_at_raw(id, height)
    }

    fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        let _guard = self.walk_guard(BlockId(a.0.max(b.0)));
        let (ha, hb) = (self.nav_raw(a).1, self.nav_raw(b).1);
        if ha > hb {
            return false;
        }
        self.ancestor_at_raw(b, ha) == a
    }

    fn common_ancestor(&self, a: BlockId, b: BlockId) -> BlockId {
        let _guard = self.walk_guard(BlockId(a.0.max(b.0)));
        let (ha, hb) = (self.nav_raw(a).1, self.nav_raw(b).1);
        let (mut x, mut y) = if ha <= hb {
            (a, self.ancestor_at_raw(b, ha))
        } else {
            (self.ancestor_at_raw(a, hb), b)
        };
        while x != y {
            let ((px, _, jx), (py, _, jy)) = (self.nav_raw(x), self.nav_raw(y));
            if jx != jy {
                x = jx;
                y = jy;
            } else {
                x = px.expect("disjoint roots");
                y = py.expect("disjoint roots");
            }
        }
        x
    }

    fn path_from_genesis(&self, tip: BlockId) -> Vec<BlockId> {
        let _guard = self.walk_guard(tip);
        let mut out = Vec::with_capacity(self.nav_raw(tip).1 as usize + 1);
        let mut cur = Some(tip);
        while let Some(id) = cur {
            out.push(id);
            cur = self.nav_raw(id).0;
        }
        out.reverse();
        out
    }
}

/// Stage-1 state — the serialization point of commit decisions: what a
/// block's mint resolution, membership insert, and selection scoring
/// must see atomically. Publication state deliberately lives elsewhere
/// ([`PubState`]) so the fsync and pointer swap of one batch can overlap
/// the next batch's drain.
struct SelState {
    tree: TreeMembership,
    /// Membership inserts in commit order (parent-closed by construction):
    /// replaying it into the sequential machinery must reproduce the same
    /// selected chain (see `tests/selection_differential.rs`).
    commit_log: Vec<BlockId>,
    /// Per-id commit-log position + 1, indexed by `BlockId` (0 = not
    /// committed). Paired with the tree-level `published_upto` counter
    /// this answers `is_committed` *publication-aware*: a block counts as
    /// committed once a publication covering its log entry has swapped
    /// in — the same instant its appender may be told `Some(id)`.
    log_pos: Vec<u32>,
    /// Per-rule selection scratch (GHOST subtree weights live here), fed
    /// by the batched scoring path.
    aux: SelectionAux,
    /// The selected tip over the committed membership — authoritative,
    /// unlike the lag-prone `published_tip` hint.
    tip: BlockId,
}

/// Durability state riding the publication lock.
struct WalState {
    wal: Wal,
    /// Longest commit-log prefix whose every id is below the flatten
    /// target — storage-final, so safe to checkpoint. A monotone cursor:
    /// both the commit log and the flatten target only grow.
    final_prefix: usize,
}

/// Stage-2 state — everything publication needs, behind its own lock so
/// stage 1 never waits on an fsync. Lock order: `publ` is only ever
/// *waited on* with `sel` released; the inline fast path may *claim* it
/// inside `sel` via a non-blocking `try_lock` (safe because no holder of
/// `publ` ever waits on `sel`). The only locks taken while holding
/// `publ` are the `staged` and `pending_ckpt` leaves.
struct PubState {
    /// The published `{b0}⌢f(bt)` chain, advanced in place a whole
    /// batch at a time (`crate::tipcache::advance_chain`): a direct
    /// extension pushes, anything else splices at the fork.
    chain: Blockchain,
    /// The durable commit log, when this tree was opened with
    /// [`ConcurrentBlockTree::open_durable`]. The WAL append runs here
    /// in stage 2: one group-commit fsync covers every batch staged
    /// since the previous publication, and persist-then-ack holds
    /// because statuses land only after
    /// [`publish_staged`](ConcurrentBlockTree::publish_staged) returns.
    wal: Option<WalState>,
    /// Commit-log mirror (durable trees only), extended as batches
    /// publish: lets the checkpoint cursor and its prefix snapshot run
    /// entirely under the publication lock without retaking `sel`.
    logged_ids: Vec<BlockId>,
    /// Recycled batch buffer: publishers drain the staged queue by
    /// swapping this (empty, capacity retained) in, and park the drained
    /// vector back here once published — the steady state allocates
    /// nothing per publication.
    spare: Vec<PubBatch>,
}

/// One stage-1 batch awaiting publication — the handoff unit between
/// the selection lock and the publication lock.
struct PubBatch {
    /// Commit-log length after this batch: what `published_upto`
    /// becomes once a swap covers it.
    upto: u64,
    /// The selected tip after this batch.
    tip: BlockId,
    /// The batch's newly committed ids in commit order, for the stage-2
    /// WAL append (left empty on volatile trees, which publish
    /// tip-only).
    ids: Vec<BlockId>,
}

/// The publication lock claimed inside `sel` by an uncontended append
/// (one non-blocking try), with the run it publishes in commit-log
/// order: everything staged before, then the claimant's own batch.
type Claim<'t> = (crate::sync::MutexGuard<'t, PubState>, Vec<PubBatch>);

/// What the caller of a commit episode brings to the selection lock
/// besides whatever queued.
enum Own<'r> {
    /// Nothing: a woken queued appender, whose request rides in the
    /// queue like any other.
    Queued,
    /// The caller's uncontended append: its stack request, resolved
    /// after the queued ones exactly as a drainer resolves them, but
    /// never pushed.
    Append(&'r CommitReq),
    /// The caller's graft of a minted block under its committed parent.
    Graft { id: BlockId, parent: BlockId },
}

/// One commit episode between stage 1
/// ([`commit_locked`](ConcurrentBlockTree::commit_locked)) and its
/// [`settle`](ConcurrentBlockTree::settle), which runs with the
/// selection lock released so responses wait on stage 2 without the lock
/// waiting too. `CommitQueue::take_all` removed `batch` from the queue,
/// so whoever holds this owes every request a status, delivered only
/// *after* the covering publication (publish-before-respond).
struct Episode<'t> {
    batch: Vec<*const CommitReq>,
    /// Outcome per request, index-aligned with `batch`; a missing tail
    /// (user-code panic mid-batch) resolves as rejected.
    outcomes: Vec<Option<BlockId>>,
    /// The uncontended append's publication claim, if it won one.
    claim: Option<Claim<'t>>,
    /// A user-code panic captured in stage 1, resumed by settlement after
    /// the statuses are delivered — nobody waits forever.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// An epoch-guarded borrowed view of the published chain `{b0}⌢f(bt)` —
/// what [`ConcurrentBlockTree::read`] returns.
///
/// Dereferences to [`Blockchain`]; the pointee stays valid for as long as
/// the view (and its epoch pin) lives, **without** bumping the chain's
/// shared `Arc` refcount — which is what lets full-chain reads scale
/// across reader threads instead of serializing on one refcount cache
/// line. Call [`to_owned`](Self::to_owned) to upgrade to an owned
/// [`Blockchain`] (the `Arc` clone) when the snapshot must outlive the
/// view — e.g. to store it in a recorded history.
///
/// Holding a view parks its epoch pin: retired snapshots accumulate (but
/// are never unsafe) until it drops. Hold views briefly; hold
/// [`Blockchain`]s long.
pub struct ChainView<'t> {
    chain: *const Blockchain,
    _guard: Guard<'t>,
}

impl std::ops::Deref for ChainView<'_> {
    type Target = Blockchain;

    #[inline]
    fn deref(&self) -> &Blockchain {
        // SAFETY: the pointee was published via `Box::into_raw` and is
        // retired through the epoch domain this view's guard pins — it
        // cannot be freed before the guard drops, and published chains
        // are immutable.
        unsafe { &*self.chain }
    }
}

impl ChainView<'_> {
    /// Upgrades to an owned snapshot (an `Arc` clone of the underlying
    /// buffer) that survives past this view.
    pub fn to_owned(&self) -> Blockchain {
        (**self).clone()
    }
}

impl PartialEq<Blockchain> for ChainView<'_> {
    fn eq(&self, other: &Blockchain) -> bool {
        **self == *other
    }
}

impl PartialEq for ChainView<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for ChainView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl std::fmt::Display for ChainView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&**self, f)
    }
}

/// A thread-safe BlockTree: Def. 3.1 semantics under concurrent appenders
/// with lock-free O(1) `read()`.
///
/// See the module docs for the architecture. The selection function and
/// validity predicate are immutable over the computation, as the paper
/// requires.
pub struct ConcurrentBlockTree<F: SelectionFn, P: ValidityPredicate> {
    store: ShardedStore,
    selection: F,
    predicate: P,
    /// Committed-prefix depth threshold behind the storage watermark:
    /// every publication derives `chain[len-1-depth]` as the new
    /// (monotone) flatten bound. Disabled ⇒ the store is not even
    /// flatten-capable and reads pay zero overhead.
    watermark: FinalityWatermark,
    sel: Mutex<SelState>,
    /// Stage-2 publication state (chain, WAL, checkpoint cursor); see
    /// [`PubState`] for the lock order.
    publ: Mutex<PubState>,
    /// Stage-1 → stage-2 handoff: batches staged under `sel` in
    /// commit-log order, popped (all at once) under `publ`. A leaf lock:
    /// pushed to inside `sel`, popped inside `publ`, never held across
    /// any other acquisition.
    staged: Mutex<Vec<PubBatch>>,
    /// Commit-log length covered by staged batches (monotone; written
    /// under `sel`). With `published_upto` this forms the fast path of
    /// [`publish_staged`](Self::publish_staged): publication caught up
    /// means some other publisher already covered everything this
    /// thread staged.
    staged_upto: AtomicU64,
    /// Commit-log length covered by the current publication (monotone;
    /// written under `publ` after the swap, read lock-free by
    /// `is_committed`).
    published_upto: AtomicU64,
    /// Whether commits must be persisted. Set once in `open_durable`
    /// before the tree is shared; gates the per-batch id copy the
    /// stage-2 WAL append consumes.
    durable: bool,
    /// Pending appends awaiting a batch drain (see `crate::commit`).
    queue: CommitQueue,
    /// Grace-period tracking for readers of `published`. Declared before
    /// `spares`: fields drop in declaration order, so the domain's drop
    /// (which runs pending recycle items against the bin) precedes the
    /// bin's.
    epochs: EpochDomain,
    /// Reclaimed publication boxes awaiting reuse (see
    /// `publish_batches_locked`). Boxed because pending epoch items hold
    /// its *address*: the tree struct itself may be moved by the owner
    /// between an append and the drop, but the bin's heap allocation
    /// never moves.
    spares: Box<RecycleBin<Blockchain>>,
    /// Current `{b0}⌢f(bt)`; always a valid leaked box.
    published: AtomicPtr<Blockchain>,
    /// The published chain's tip id, readable without touching the box.
    published_tip: AtomicU32,
    /// Monotone commit-generation counter, bumped *after* every
    /// publication swap (generation-after-publication: a thread that
    /// observes generation g can already `read()` the chain g published).
    /// This is what decide-path waiters park on instead of spinning.
    commit_gen: AtomicU64,
    /// Threads currently parked (or about to park) on `gen_cv`.
    /// Publications skip the condvar entirely while this is zero, so the
    /// uncontended commit path pays one load, no lock, no syscall.
    gen_waiters: AtomicUsize,
    /// Pairs with `gen_cv`; protects nothing — it exists to close the
    /// check-then-park race (see [`wait_commit_past`](Self::wait_commit_past)).
    gen_lock: Mutex<()>,
    gen_cv: Condvar,
    /// Appends committed on the inline fast path (no queue traffic).
    inline_commits: AtomicU64,
    /// Wall nanoseconds spent in stage 1 (mint resolution, membership
    /// inserts, scoring, staging) while holding the selection lock. One
    /// timer rule covers both stages: an episode is clocked exactly when
    /// it drained queued requests — the appends the per-batched ratios
    /// divide by. Episodes that took nothing off the queue (uncontended
    /// appends, grafts) run unclocked: per-operation clock reads would
    /// tax exactly the paths the pipeline exists to keep cheap.
    stat_drain_ns: AtomicU64,
    /// The slice of `stat_drain_ns` spent in batched selection scoring.
    stat_score_ns: AtomicU64,
    /// Wall nanoseconds spent publishing (WAL group commit, chain
    /// splice, pointer swap) while holding the publication lock, under
    /// the same timer rule as `stat_drain_ns`.
    stat_publish_ns: AtomicU64,
    /// A WAL checkpoint claimed under the publication lock (by
    /// `maybe_wal_checkpoint`) but not yet written: the O(prefix) record
    /// encoding, temp-file write, fsync, and rename all run in
    /// [`run_pending_checkpoint`] *off* both pipeline locks — parked
    /// appenders wake on commit latency, not maintenance latency. Lock
    /// order: this mutex is only ever taken either alone (the take) or
    /// *inside* `publ` (the stash), never held while waiting on another
    /// lock.
    ///
    /// [`run_pending_checkpoint`]: Self::run_pending_checkpoint
    pending_ckpt: Mutex<Option<PendingCheckpoint>>,
    /// Degraded-mode latch (durable trees only): set — never cleared —
    /// when a data-path WAL append fails, because a failed fsync may
    /// have silently dropped the dirty pages it claimed to cover and a
    /// retry that "succeeds" proves nothing (the fsyncgate rule).
    /// Commit paths fail fast with a [`DurabilityError`] once this is
    /// up; reads of the already-published prefix keep working.
    poisoned: AtomicBool,
    /// The first [`DurabilityError`] that poisoned the tree, kept for
    /// every subsequent degraded-mode response. A leaf lock (taken
    /// alone, never while waiting on another).
    poison_err: Mutex<Option<DurabilityError>>,
}

/// A claimed WAL checkpoint awaiting its off-lock IO: the detached job
/// plus the finalized commit-log prefix it covers (ids only — records
/// are rebuilt from the arena off-lock, where the reads are lock-free).
struct PendingCheckpoint {
    job: CheckpointJob,
    ids: Vec<BlockId>,
}

/// Default finality depth for [`ConcurrentBlockTree`]: blocks this many
/// links behind the selected tip are flattened into the slab tier. Deep
/// enough that reorg tails essentially never reach below it (the
/// late-kids path stays cold), shallow enough that long-running trees
/// keep their resident prefix compact.
pub const DEFAULT_FINALITY_DEPTH: u32 = 128;

/// Flattening work per commit-path visit (blocks copied to the slab).
/// Like the amortized reclamation sweep, this bounds the latency any
/// single append donates to background maintenance; a batch of B appends
/// advances the watermark by B, so a budget ≥ 1 per publication keeps up
/// and 64 lets the flattener catch up quickly after bursts.
const FLATTEN_BUDGET: usize = 64;

impl<F: SelectionFn, P: ValidityPredicate> ConcurrentBlockTree<F, P> {
    /// A tree holding only `b0`, with [`DEFAULT_SHARDS`] store shards and
    /// the [`DEFAULT_FINALITY_DEPTH`] storage watermark.
    pub fn new(selection: F, predicate: P) -> Self {
        ConcurrentBlockTree::with_shards(DEFAULT_SHARDS, selection, predicate)
    }

    /// A tree holding only `b0`, with an explicit shard count.
    pub fn with_shards(shards: usize, selection: F, predicate: P) -> Self {
        ConcurrentBlockTree::with_config(
            shards,
            FinalityWatermark::new(DEFAULT_FINALITY_DEPTH),
            selection,
            predicate,
        )
    }

    /// Full-control constructor: shard count plus the finality watermark
    /// driving finalized-prefix flattening.
    /// [`FinalityWatermark::disabled`] yields a tree whose store never
    /// flattens (and whose reads skip the tier machinery's epoch pin).
    pub fn with_config(
        shards: usize,
        watermark: FinalityWatermark,
        selection: F,
        predicate: P,
    ) -> Self {
        ConcurrentBlockTree {
            store: if watermark.is_enabled() {
                ShardedStore::with_flattening(shards)
            } else {
                ShardedStore::with_shards(shards)
            },
            selection,
            predicate,
            watermark,
            sel: Mutex::new(SelState {
                tree: TreeMembership::genesis_only(),
                commit_log: Vec::new(),
                log_pos: Vec::new(),
                aux: SelectionAux::new(),
                tip: BlockId::GENESIS,
            }),
            publ: Mutex::new(PubState {
                chain: Blockchain::genesis(),
                wal: None,
                logged_ids: Vec::new(),
                spare: Vec::new(),
            }),
            staged: Mutex::new(Vec::new()),
            staged_upto: AtomicU64::new(0),
            published_upto: AtomicU64::new(0),
            durable: false,
            queue: CommitQueue::new(),
            epochs: EpochDomain::new(),
            spares: Box::new(RecycleBin::new(RECLAIM_PENDING)),
            published: AtomicPtr::new(Box::into_raw(Box::new(Blockchain::genesis()))),
            published_tip: AtomicU32::new(BlockId::GENESIS.0),
            commit_gen: AtomicU64::new(0),
            gen_waiters: AtomicUsize::new(0),
            gen_lock: Mutex::new(()),
            gen_cv: Condvar::new(),
            inline_commits: AtomicU64::new(0),
            stat_drain_ns: AtomicU64::new(0),
            stat_score_ns: AtomicU64::new(0),
            stat_publish_ns: AtomicU64::new(0),
            pending_ckpt: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            poison_err: Mutex::new(None),
        }
    }

    /// Whether the tree has entered degraded (read-only) mode after a
    /// data-path persistence failure. Monotone: once poisoned, every
    /// commit path returns [`DurabilityError`] and only reads of the
    /// already-published prefix keep working. Always `false` on
    /// volatile trees.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The error that poisoned the tree, or `None` while healthy.
    pub fn durability_error(&self) -> Option<DurabilityError> {
        if self.is_poisoned() {
            Some(self.poison_error())
        } else {
            None
        }
    }

    /// Latches degraded mode: records the first error, raises the flag,
    /// and wakes every parked decide-path waiter — a poisoned tree
    /// publishes no further generations, so without the wakeup they
    /// would sleep until their deadlines.
    fn poison_with(&self, err: DurabilityError) {
        {
            let mut slot = self.poison_err.lock();
            if slot.is_none() {
                *slot = Some(err);
            }
        }
        self.poisoned.store(true, Ordering::Release);
        // Same lock-then-notify shape as publication: a waiter between
        // its poison recheck (under `gen_lock`) and its park either sees
        // the flag there or is already parked when this notify fires.
        drop(self.gen_lock.lock());
        self.gen_cv.notify_all();
    }

    /// The stored poisoning error (or the generic marker if the flag
    /// won the race to a caller before the slot was filled).
    fn poison_error(&self) -> DurabilityError {
        (*self.poison_err.lock()).unwrap_or(DurabilityError::Poisoned)
    }

    /// The degraded-mode exit check every commit path runs on its own
    /// outcome: an id may be acked only if some publication covers it —
    /// on a poisoned tree that means a publication that succeeded
    /// *before* the poisoning. Anything else (an uncovered insert, or a
    /// commit skipped outright) surfaces the poisoning error instead of
    /// a status the durable log cannot corroborate.
    fn guard_outcome(&self, outcome: Option<BlockId>) -> Result<Option<BlockId>, DurabilityError> {
        match outcome {
            Some(id) if self.is_poisoned() && !self.is_committed(id) => Err(self.poison_error()),
            o => Ok(o),
        }
    }

    /// `read()`: the blockchain `{b0}⌢f(bt)` as an epoch-guarded borrowed
    /// [`ChainView`]. Lock-free and refcount-free — one epoch pin (a CAS
    /// on a thread-private padded slot) plus one `Acquire` pointer load;
    /// O(1) regardless of chain length, tree size, or writer activity,
    /// and readers on different threads touch no common cache line.
    pub fn read(&self) -> ChainView<'_> {
        let guard = self.epochs.pin();
        // The pin (SeqCst CAS + fence) happens before this load, so the
        // loaded box cannot complete a grace period while `guard` lives.
        let p = self.published.load(Ordering::Acquire);
        ChainView {
            chain: p,
            _guard: guard,
        }
    }

    /// `read()` upgraded to an owned [`Blockchain`] in one call — for
    /// callers that store the snapshot (recorded histories, replays).
    pub fn read_owned(&self) -> Blockchain {
        self.read().to_owned()
    }

    /// The tip of `f(bt)` — one `Acquire` load of the published tip id;
    /// no lock, no pin, no pointer chase.
    ///
    /// This is a monotone *hint*, not an operation linearized with
    /// [`read`](Self::read): the tip id is a separate atomic from the
    /// chain pointer, so a caller interleaving both may see this value
    /// lag a just-observed chain by one in-flight publication. The BT-ADT
    /// surface of Def. 3.1 (append/read — what the recorded-history
    /// checkers judge) is unaffected; internal users treat it as the
    /// optimistic mint target, where a stale answer only costs a re-mint
    /// in the drain. Callers that need the tip consistent with a chain
    /// should take one `read()` and use [`Blockchain::tip`].
    pub fn selected_tip(&self) -> BlockId {
        BlockId(self.published_tip.load(Ordering::Acquire))
    }

    /// `append(b)` per Def. 3.1, safe under concurrent appenders: mints
    /// `candidate` under the tip of `f(bt)`; if valid it joins the tree
    /// (returning its id), else the tree is unchanged and `None` returns.
    ///
    /// Two-speed (see `crate::commit`): the mint and validity check run
    /// outside any lock against the published tip — the candidate's
    /// payload is *moved* into the arena, never cloned (a re-mint after a
    /// lost tip race reads it back from the orphan; that is the only copy
    /// on the whole path). The append's [`CommitReq`] lives on this
    /// stack frame either way. Then:
    ///
    /// * **Inline fast path**: if the selection mutex is free on the
    ///   first CAS (`try_lock`), this thread runs the commit episode
    ///   itself: whatever queued meanwhile, then its own request — never
    ///   pushed, so no queue traffic and no cross-thread status
    ///   roundtrip. With a single appender this is every append, and it
    ///   costs the mint plus one uncontended lock (per stage).
    /// * **Staged queue**: otherwise a drainer is at work; push the
    ///   request onto the MPSC queue and race for the drain ticket.
    ///   Whichever appender wins drains the *whole* queue as one stage-1
    ///   batch (one staged publication), re-minting stale-parent requests
    ///   under the authoritative tip.
    ///
    /// Either way the append returns only after the publication covering
    /// its commit: publish-before-respond. The linearization point is the
    /// resolution under the selection lock; the recorded-history suites
    /// check both paths from the outside (the inline path is
    /// indistinguishable from a batch of one).
    ///
    /// `Ok(None)` means the validity predicate `P` rejected the block —
    /// the Def. 3.1 rejection, tree unchanged. `Err` means the tree is
    /// [poisoned](Self::is_poisoned): a data-path persistence failure
    /// degraded it to read-only and this append was **not** durably
    /// committed (volatile trees never return `Err`).
    pub fn append(&self, candidate: CandidateBlock) -> Result<Option<BlockId>, DurabilityError> {
        if self.is_poisoned() {
            return Err(self.poison_error());
        }
        let CandidateBlock {
            producer,
            merit_index,
            work,
            nonce,
            payload,
        } = candidate;
        let parent = self.selected_tip();
        // The mint installs the block either way; the check runs on the
        // locally built value, so prevalidation costs no extra shard
        // crossing and no clone.
        let (minted, prevalidated) =
            self.store
                .mint_checked(parent, producer, merit_index, work, nonce, payload, |b| {
                    self.predicate.is_valid(&self.store, b)
                });
        if !prevalidated {
            // `P` refused the block. If the tip it was minted under is
            // still the published one, the rejection is definitive and
            // linearizes right here — no need to take the lock or enter
            // the commit queue. The check must read the *published chain
            // itself*, not the `published_tip` hint: the hint is stored
            // after the pointer swap, so it can lag a chain another
            // operation has already observed, and deciding a response
            // from the lagging value could contradict the recorded
            // history. (The hint is only ever the optimistic mint target
            // above, where staleness costs a re-mint, never an outcome.)
            let published = self.read();
            if published.tip() == parent {
                return Ok(None);
            }
            // The tip moved under us: re-decide under the authoritative
            // tip (inline or in the drain).
        }
        let req = CommitReq::new(minted, parent, prevalidated, nonce);
        if let Some(mut sel) = self.sel.try_lock() {
            // Inline fast path: one CAS. The episode resolves `req`
            // before returning, unless a user-code panic unwinds out of
            // `settle` first.
            let episode = self.commit_locked(&mut sel, Own::Append(&req));
            drop(sel);
            self.settle(episode);
        } else {
            // SAFETY: `req` lives on this stack frame, and we do not
            // return until it is resolved; `take_all` unlinks it before
            // any drainer dereferences it (see the queue's contract).
            unsafe { self.queue.push(&req) };
            // A drainer holds the lock right now (the try_lock above
            // just failed). Donate the rest of this slice instead of
            // immediately racing for the drain ticket: on a time-sliced
            // core this is what lets peers enqueue behind us and the
            // incumbent resolve the whole pile as one batch — without it,
            // batches only form when the scheduler happens to preempt a
            // lock holder.
            std::thread::yield_now();
        }
        loop {
            match req.poll() {
                Some(Polled::Committed(id)) => return self.guard_outcome(Some(id)),
                Some(Polled::Rejected) => return Ok(None),
                Some(Polled::Poisoned) => return Err(self.poison_error()),
                None => {}
            }
            // The drain ticket is the mutex acquisition itself: a
            // *parked* waiter — not a spinning one — while a drainer is
            // at work. The incumbent usually resolves us before we wake;
            // a woken thread that is still pending becomes the next
            // drainer for whatever queued meanwhile (combining-lock
            // pattern, no scheduler convoy when the holder gets
            // preempted). If our request was taken but its publication
            // is still in flight (the taker is fsyncing in stage 2), the
            // `publish_staged` inside `settle` parks us on the
            // publication lock — again parked, never spinning.
            let episode = {
                let mut sel = self.sel.lock();
                self.commit_locked(&mut sel, Own::Queued)
            };
            let settled =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.settle(episode)));
            if let Err(panic) = settled {
                // A user-code panic in this episode must not unwind past
                // `req` while an earlier episode that took it may still
                // resolve it. That episode is past stage 1, so its
                // settlement delivers the status.
                while req.poll().is_none() {
                    std::thread::yield_now();
                }
                std::panic::resume_unwind(panic);
            }
        }
    }

    /// Mints `candidate` under an explicit committed `parent` (the refined
    /// append of Def. 3.7, where the oracle fixes the parent — and the
    /// fork-builder for adversarial workloads). Returns the new id if `P`
    /// accepted the block; `Err` once the tree is
    /// [poisoned](Self::is_poisoned) (see [`append`](Self::append)).
    pub fn graft(
        &self,
        parent: BlockId,
        candidate: CandidateBlock,
    ) -> Result<Option<BlockId>, DurabilityError> {
        let id = self.store.mint(
            parent,
            candidate.producer,
            candidate.merit_index,
            candidate.work,
            candidate.nonce,
            candidate.payload,
        );
        self.graft_minted(id)
    }

    /// Commits a block already minted into the arena (via
    /// [`ShardedStore::mint`] on [`store`](Self::store)) under its minted
    /// parent, which must itself be committed. Returns the id if `P`
    /// accepted the block, `None` (leaving it a non-member orphan)
    /// otherwise.
    ///
    /// This is the commit half of the refined append: oracle-gated
    /// workloads (`Θ_F` consumeToken feedback) mint first, ask the oracle
    /// which mints won, and commit exactly those. It runs the same commit
    /// episode as `append` — grafts already pay for the lock, and queued
    /// appenders are parked on it, so any pending batch resolves first.
    ///
    /// Idempotent: grafting an already-committed block is a no-op that
    /// returns `Some(id)` without inserting, re-publishing, or touching
    /// the durable log. The dead-winner recovery rule depends on this —
    /// *any* process that observes a committed-K winner may graft it
    /// (`btadt-registers`' `TreeConsensus`), so the same block is
    /// routinely grafted by several racing processes and only the first
    /// may mutate the tree.
    ///
    /// On a [poisoned](Self::is_poisoned) tree the idempotent half
    /// survives — a block covered by a pre-poisoning publication still
    /// acks `Ok(Some(id))` — but nothing new commits: everything else
    /// returns `Err`.
    ///
    /// # Panics
    ///
    /// If the parent is not committed, before any queued request is
    /// taken.
    pub fn graft_minted(&self, id: BlockId) -> Result<Option<BlockId>, DurabilityError> {
        if self.is_poisoned() {
            return self.guard_outcome(Some(id));
        }
        let valid = {
            let block = self.store.block(id);
            self.predicate.is_valid(&self.store, &block)
        };
        if !valid {
            return Ok(None);
        }
        let parent = self
            .store
            .parent(id)
            .expect("grafted blocks are not genesis");
        let episode = {
            let mut sel = self.sel.lock();
            self.commit_locked(&mut sel, Own::Graft { id, parent })
        };
        self.settle(episode);
        self.guard_outcome(Some(id))
    }

    /// Amortized reclamation: sweep only when the backlog crosses
    /// [`RECLAIM_PENDING`] (callers outside the hot path may always call
    /// [`EpochDomain::try_reclaim`] directly via [`epochs`](Self::epochs)).
    fn maybe_reclaim(&self) {
        if self.epochs.pending_items() >= RECLAIM_PENDING {
            self.epochs.try_reclaim();
        }
    }

    /// Bounded incremental flattening, run next to [`maybe_reclaim`] on
    /// every commit path — off the selection lock, so parked appenders
    /// never wait on it. A no-op unless the watermark is enabled and has
    /// moved past the flattened frontier; the single-flattener ticket
    /// inside [`ShardedStore::flatten_some`] keeps concurrent visitors
    /// from duplicating work (losers return immediately).
    ///
    /// [`maybe_reclaim`]: Self::maybe_reclaim
    fn maybe_flatten(&self) {
        if self.watermark.is_enabled() {
            self.store.flatten_some(FLATTEN_BUDGET);
        }
    }

    /// Whether `id` has been committed to the tree membership (not merely
    /// minted into the arena) *and* covered by a publication — the same
    /// instant its committer may be told so, which keeps this answer
    /// consistent with `read()` now that publication trails the
    /// membership insert by a pipeline stage. Takes the selection lock
    /// briefly for the position lookup.
    ///
    /// A publication swaps the chain pointer *before* it stores
    /// `published_upto`, so a reader may already hold a chain containing
    /// `id` while the counter lags. A member the counter does not cover
    /// yet is therefore also probed on the published chain (the same
    /// lock-free probe [`wait_committed`](Self::wait_committed) uses):
    /// whatever `read()` shows, this answers `true` for.
    pub fn is_committed(&self, id: BlockId) -> bool {
        if id == BlockId::GENESIS {
            return true;
        }
        let pos = {
            let sel = self.sel.lock();
            sel.log_pos.get(id.0 as usize).copied().unwrap_or(0)
        };
        if pos == 0 {
            return false;
        }
        self.published_upto.load(Ordering::Acquire) >= pos as u64
            || self.read().ids().get(self.store.meta(id).height as usize) == Some(&id)
    }

    /// Decide-path hook: blocks until `id` is committed to the membership
    /// or `deadline` passes; returns whether it committed. Membership is
    /// never retracted, so a `true` stays true.
    ///
    /// This is how a decide orders itself after the winner's graft
    /// (Protocol A's graft-before-decide): a process that learned a block
    /// through a side channel — the oracle's `K`-set feedback — must not
    /// act on it before the block's committer has grafted it. The caller
    /// owns the stall diagnostic (the commit is another thread's
    /// obligation, so only the caller knows who wedged).
    ///
    /// The probe is lock-free — a chain block sits at the index equal to
    /// its height in the published prefix, and commits stage their
    /// publication inside the same critical section as their insert, so
    /// most waits resolve off one epoch-pinned `read()` — and between
    /// probes the waiter *parks*
    /// on the commit generation ([`wait_commit_past`]): commits are the
    /// only events that can change the answer, so the thread wakes
    /// exactly when one lands instead of burning its time slice in a
    /// `yield_now` loop, which is what collapsed the contended decide
    /// path on time-sliced cores (a pack of spinning losers kept
    /// preempting the one winner whose graft they were all waiting for).
    ///
    /// [`wait_commit_past`]: Self::wait_commit_past
    pub fn wait_committed(&self, id: BlockId, deadline: std::time::Instant) -> bool {
        let height = self.store.meta(id).height as usize;
        loop {
            // Generation first, probes second: a commit landing after the
            // probes bumps the generation and the park below returns
            // immediately — no missed wakeup.
            let gen = self.commit_generation();
            if self.read().ids().get(height) == Some(&id) {
                return true;
            }
            // The selection lock answers for members *off* the selected
            // chain too; we take it at most once per commit generation,
            // so a pack of waiters cannot convoy the very lock the
            // committer needs for the graft.
            if self.is_committed(id) {
                return true;
            }
            // Poisoned: no further commit can land, so the probes above
            // already gave the final answer.
            if self.is_poisoned() || std::time::Instant::now() >= deadline {
                return self.is_committed(id);
            }
            self.wait_commit_past(gen, deadline);
        }
    }

    /// Stage 1 of a commit episode, under the selection lock: takes the
    /// queue, resolves and inserts every queued request and then the
    /// caller's own append (re-minting a request whose optimistic parent
    /// went stale under the authoritative tip), scores those inserts in
    /// one *batched* pass, inserts and scores the caller's own graft in a
    /// pass of its own (a graft need not extend the pending tip), and
    /// stages one publication covering everything inserted. Publication
    /// itself (WAL, splice, swap) and the responses are
    /// [`settle`](Self::settle)'s duty, performed off this lock.
    ///
    /// User code (`P::is_valid`, the selection rule) runs under one
    /// shield. A request's outcome is recorded *before* its membership
    /// insert, and inserts update membership + commit log *before*
    /// scoring, so whatever panics, the recorded outcomes match the state
    /// the membership and commit log actually reached. The panic then
    /// travels in the episode: the selection state is re-derived from the
    /// membership and the batch staged anyway
    /// ([`rescue_and_stage`](Self::rescue_and_stage)), so every status
    /// settlement delivers is covered by a publication and the tree stays
    /// serviceable instead of degraded.
    ///
    /// During resolution the evolving tip is tracked without consulting
    /// the selection rule: a committed request always extends the tip it
    /// was resolved under (the fast path requires it, the re-mint path
    /// constructs it), and for every shipped rule an extension of the
    /// selected tip is itself selected — chain rules score it strictly
    /// higher or tie-winning by inherited lexicographic priority, and
    /// GHOST's descent, having reached the parent, continues through its
    /// only new child. The batched scoring pass re-derives the tip
    /// through the rule afterwards and is authoritative; debug builds
    /// cross-check both against the full-scan oracle.
    fn commit_locked<'t>(&'t self, sel: &mut SelState, own: Own<'_>) -> Episode<'t> {
        if let Own::Graft { parent, .. } = own {
            // Checked before the queue is taken: a misused graft must not
            // strand the requests it would otherwise owe statuses.
            assert!(
                sel.tree.contains(parent),
                "graft parent {parent} not committed to the tree"
            );
        }
        let batch = self.queue.take_all();
        let mut outcomes: Vec<Option<BlockId>> = Vec::with_capacity(batch.len());
        let own_req = match own {
            Own::Append(req) => Some(req),
            _ => None,
        };
        if self.is_poisoned() {
            // Degraded mode: the requests still get settled (owners are
            // parked on these very statuses), but nothing is resolved or
            // inserted — membership must not grow past what the durable
            // log can corroborate. The empty outcomes vector makes
            // settlement poison every request a prior publication does
            // not already cover.
            if let Some(req) = own_req {
                req.resolve_poisoned();
            }
            return Episode {
                batch,
                outcomes,
                claim: None,
                panic: None,
            };
        }
        if own_req.is_some() {
            // relaxed: stats counter, read only by pipeline_stats().
            self.inline_commits.fetch_add(1, Ordering::Relaxed);
        }
        // The one timer rule: clock exactly the episodes that drained
        // queued requests (their scoring passes included).
        let t0 = (!batch.is_empty()).then(std::time::Instant::now);
        // The episode's inserts are the commit-log suffix from here.
        let from = sel.commit_log.len();
        let mut pending_tip = sel.tip;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let queued = batch.iter().map(|&req_ptr| {
                // SAFETY: `take_all` transferred ownership of the node;
                // its enqueueing appender is blocked polling until
                // settlement resolves it.
                unsafe { &*req_ptr }
            });
            for (i, req) in queued.chain(own_req).enumerate() {
                let target = self.resolve_target_locked(pending_tip, req);
                // Queued statuses wait for the covering publication. The
                // caller's own request was never pushed: only its owner
                // polls it, after settlement, so it resolves right away.
                if i < batch.len() {
                    outcomes.push(target);
                } else {
                    req.resolve(target);
                }
                if let Some(id) = target {
                    self.insert_locked(sel, id, pending_tip);
                    pending_tip = id;
                }
            }
            self.score_inserts_locked(sel, from, t0.is_some());
            debug_assert_eq!(
                sel.tip, pending_tip,
                "a committed insert always extends the selected tip"
            );
            if let Own::Graft { id, parent } = own {
                // A duplicate graft inserts nothing: someone committed
                // this block first (`P` is deterministic, so their
                // verdict was ours) and staged its covering batch in the
                // same critical section as the insert, so settlement's
                // `publish_staged` waits that publication in.
                if !sel.tree.contains(id) {
                    let graft_from = sel.commit_log.len();
                    self.insert_locked(sel, id, parent);
                    self.score_inserts_locked(sel, graft_from, t0.is_some());
                }
            }
        }));
        let inserted = sel.commit_log.len() > from;
        let mut claim = None;
        let mut panic = None;
        match run {
            Ok(()) if inserted => claim = self.stage_locked(sel, from, own_req.is_some()),
            Ok(()) => {}
            Err(payload) => {
                if inserted {
                    self.rescue_and_stage(sel, from);
                }
                panic = Some(payload);
            }
        }
        if let Some(t0) = t0 {
            self.stat_drain_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed); // relaxed: stats counter
        }
        Episode {
            batch,
            outcomes,
            claim,
            panic,
        }
    }

    /// Settles a commit episode with the selection lock released: runs
    /// stage 2 — the claimed run, then whatever peers staged meanwhile
    /// ([`publish_staged`](Self::publish_staged)) — then delivers every
    /// status the episode owes — publish-before-respond: the publication
    /// covering those commits has swapped in by now — then the
    /// maintenance tail, then resumes whichever panic stage 1 captured.
    fn settle(&self, episode: Episode<'_>) {
        let Episode {
            batch,
            outcomes,
            claim,
            panic,
        } = episode;
        let timed = !batch.is_empty();
        if let Some((mut publ, run)) = claim {
            self.publish_run(&mut publ, run, timed);
        }
        self.publish_staged(timed);
        let poisoned = self.is_poisoned();
        for (i, &req_ptr) in batch.iter().enumerate() {
            // SAFETY: owners are still polling (they only return once a
            // status lands), and only this settler holds the taken nodes;
            // after `resolve` the node is never touched again by this
            // thread.
            let req = unsafe { &*req_ptr };
            if req.poll().is_some() {
                continue;
            }
            if !poisoned {
                req.resolve(outcomes.get(i).copied().flatten());
                continue;
            }
            // Degraded mode: only statuses the durable log can
            // corroborate may still be delivered — a commit covered by a
            // pre-poisoning publication, or a volatile `P`-rejection (no
            // durability claim to break). An uncovered insert, or a
            // request the poisoned episode skipped outright, gets the
            // poison status instead.
            match outcomes.get(i).copied() {
                Some(Some(id)) if self.is_committed(id) => req.resolve(Some(id)),
                Some(None) => req.resolve(None),
                _ => req.resolve_poisoned(),
            }
        }
        // Reclamation, flattening, and checkpoint IO run off both locks:
        // parked appenders wake on commit latency, not on maintenance
        // latency.
        self.maybe_reclaim();
        self.maybe_flatten();
        self.run_pending_checkpoint();
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Folds the commit-log suffix from `from` — newly committed ids —
    /// into the selection aux and advances the authoritative tip: one
    /// `score_inserts` + `apply_partial` pass, whatever the suffix's
    /// length. `timed` charges the pass to `stat_score_ns`; callers pass
    /// the episode's drain-timer condition, so scoring time is a slice of
    /// `stat_drain_ns` by construction. Runs user code; callers shield it
    /// (the stage-1 panic contract).
    fn score_inserts_locked(&self, sel: &mut SelState, from: usize, timed: bool) {
        let SelState {
            tree,
            commit_log,
            aux,
            tip,
            ..
        } = sel;
        let inserted = &commit_log[from..];
        if inserted.is_empty() {
            return;
        }
        let t0 = timed.then(std::time::Instant::now);
        let partial = self.selection.score_inserts(&self.store, inserted);
        *tip = self
            .selection
            .apply_partial(&self.store, tree, aux, &partial, *tip);
        if let Some(t0) = t0 {
            self.stat_score_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed); // relaxed: stats counter
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            *tip,
            self.selection.select_tip(&self.store, tree),
            "incremental {} selection diverged from the full-scan oracle",
            self.selection.name()
        );
    }

    /// Stage-1 panic recovery: re-derives the selection aux and tip from
    /// the — always consistent — membership with a full `select_tip`
    /// scan, then stages the commit-log suffix from `from` so its
    /// statuses are covered by a publication. The rescan runs selection
    /// user code again, so it is shielded: if it panics too, staging is
    /// skipped and responses fall back to matching only the commit log (a
    /// tree whose selection panics nondeterministically offers nothing
    /// stronger).
    fn rescue_and_stage(&self, sel: &mut SelState, from: usize) {
        let rescued = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sel.aux.reset();
            self.selection.select_tip(&self.store, &sel.tree)
        }));
        if let Ok(tip) = rescued {
            sel.tip = tip;
            self.stage_locked(sel, from, false);
        }
    }

    /// Stages a publication record covering everything committed so far
    /// — the stage-1 → stage-2 handoff, carrying the commit-log suffix
    /// from `from` for the WAL. Runs under the selection lock (staging
    /// order is commit-log order) in the *same* critical section as the
    /// inserts: an observer that sees the membership change
    /// (`is_committed`, a duplicate graft) can rely on the covering batch
    /// already being staged, so its own `publish_staged` suffices to wait
    /// the publication in.
    ///
    /// With `claim` — an uncontended append's episode — one non-blocking
    /// try for the publication lock: `sel → publ` in *claim* order only,
    /// safe because no holder of `publ` ever waits on `sel`. On success
    /// the batch never touches the staged queue: settlement publishes the
    /// returned run directly once the selection lock drops. The
    /// uncontended append thereby pays one lock pair per stage and zero
    /// allocation, while a busy publisher (an fsync in flight) degrades
    /// gracefully to the queue.
    fn stage_locked<'t>(&'t self, sel: &SelState, from: usize, claim: bool) -> Option<Claim<'t>> {
        let upto = sel.commit_log.len() as u64;
        let ids = if self.durable {
            sel.commit_log[from..].to_vec()
        } else {
            Vec::new()
        };
        let batch = PubBatch {
            upto,
            tip: sel.tip,
            ids,
        };
        let claimed = if claim { self.publ.try_lock() } else { None };
        let Some(mut publ) = claimed else {
            self.staged.lock().push(batch);
            self.staged_upto.store(upto, Ordering::Release);
            return None;
        };
        // Everything already staged publishes ahead of our batch, in the
        // same run. Untaken staged batches always sit strictly above
        // `published_upto` (runs are taken whole, in order), so a
        // caught-up publication proves the queue is empty and the take —
        // a mutex round trip — can be skipped. Both counters are stable
        // here: stagers need `sel`, takers need `publ`, and we hold both.
        let mut batches = std::mem::take(&mut publ.spare);
        if self.published_upto.load(Ordering::Acquire) < self.staged_upto.load(Ordering::Acquire) {
            std::mem::swap(&mut *self.staged.lock(), &mut batches);
        }
        batches.push(batch);
        self.staged_upto.store(upto, Ordering::Release);
        Some((publ, batches))
    }

    /// Stage 2 of the commit pipeline: publishes every staged batch —
    /// WAL group commit, in-place chain advance, boxed-chain pointer
    /// swap — under the publication lock, with the selection lock
    /// already released so the next episode proceeds concurrently.
    /// `timed` charges the hold to `stat_publish_ns` (the one timer
    /// rule).
    ///
    /// Whoever holds the lock pops *all* staged batches, so batches
    /// publish strictly in commit-log order no matter which thread ends
    /// up publishing, and batches staged while a publisher was fsyncing
    /// collapse into its successor's single publication (one fsync, one
    /// swap). On return, everything the calling thread staged beforehand
    /// is covered by a publication — its own or another's.
    fn publish_staged(&self, timed: bool) {
        if self.published_upto.load(Ordering::Acquire) >= self.staged_upto.load(Ordering::Acquire) {
            return;
        }
        let mut publ = self.publ.lock();
        let mut batches = std::mem::take(&mut publ.spare);
        std::mem::swap(&mut *self.staged.lock(), &mut batches);
        // An empty pop means the previous holder popped our batch and
        // published it before releasing the lock we just acquired.
        self.publish_run(&mut publ, batches, timed);
    }

    /// Publishes a popped (or claimed) run, if non-empty, under the held
    /// publication lock, and parks the drained vector back in
    /// `PubState::spare` — the steady state allocates nothing per
    /// publication.
    fn publish_run(&self, publ: &mut PubState, mut batches: Vec<PubBatch>, timed: bool) {
        if !batches.is_empty() {
            let t0 = timed.then(std::time::Instant::now);
            // Failure latches the poison flag inside; every settlement
            // and exit check downstream reads it.
            let _ = self.publish_batches_locked(publ, &batches);
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                self.stat_publish_ns.fetch_add(ns, Ordering::Relaxed); // relaxed: stats counter
            }
        }
        batches.clear();
        publ.spare = batches;
    }

    /// Decides where a request's mint lands against the authoritative
    /// tree state, *without* touching membership: the original mint when
    /// its optimistic parent is still `tip` (the evolving batch tip),
    /// else a fresh re-mint under it. Returns the id to commit, or `None`
    /// when `P` rejects (either mint stays a non-member arena orphan, as
    /// a lost optimistic race always did). Runs user code
    /// (`P::is_valid`); callers record the outcome before inserting — the
    /// panic contract of the commit episode.
    fn resolve_target_locked(&self, tip: BlockId, req: &CommitReq) -> Option<BlockId> {
        if req.parent == tip {
            return req.prevalidated.then_some(req.minted);
        }
        // The optimistic parent lost the race: re-mint under the current
        // selected tip and decide against the tree state at this — the
        // linearization — point. The stale mint's immutable fields come
        // back from the arena: `append` *moved* the payload into it, so
        // this clone — on the re-mint path only — is the sole payload
        // copy the append path ever makes. `mint_checked` runs `P` on
        // the locally built block, same as the fast path.
        let mut fields = None;
        self.store.with_block(req.minted, &mut |b| {
            fields = Some((b.producer, b.merit_index, b.work, b.payload.clone()));
        });
        let (producer, merit_index, work, payload) =
            fields.expect("the stale mint is fully minted in the arena");
        let (id, valid) =
            self.store
                .mint_checked(tip, producer, merit_index, work, req.nonce, payload, |b| {
                    self.predicate.is_valid(&self.store, b)
                });
        valid.then_some(id)
    }

    /// Membership insert + commit log + position index, under the
    /// selection lock. Scoring is separate
    /// ([`score_inserts_locked`](Self::score_inserts_locked)) so a batch
    /// pays one pass; publication is stage 2.
    fn insert_locked(&self, sel: &mut SelState, id: BlockId, parent: BlockId) {
        let fresh = sel.tree.insert_with_parent(Some(parent), id);
        assert!(fresh, "the commit log holds no duplicates");
        sel.commit_log.push(id);
        let pos = sel.commit_log.len() as u32;
        let idx = id.0 as usize;
        if sel.log_pos.len() <= idx {
            sel.log_pos.resize(idx + 1, 0);
        }
        sel.log_pos[idx] = pos;
    }

    /// The publication critical section proper — persist, splice, swap,
    /// retire — for a non-empty run of staged batches in commit-log
    /// order.
    ///
    /// `Err` means the WAL append failed (or the WAL was already
    /// poisoned): the run is **not** published — no chain advance, no
    /// `published_upto`/tip store, no generation bump — so nothing any
    /// reader or waiter can observe ever gets ahead of durability. The
    /// tree is poisoned before this returns; callers surface the error
    /// through their own exit checks and settlement.
    fn publish_batches_locked(
        &self,
        publ: &mut PubState,
        batches: &[PubBatch],
    ) -> Result<(), DurabilityError> {
        // Persist-then-ack: every commit this publication will expose
        // must be durable *before* the pointer swap makes it readable —
        // and the swap itself precedes the generation bump, the condvar
        // wakeups, and every settlement status store, so nothing
        // observable ever gets ahead of the fsync. One `append_batch`
        // call per publication means one fsync covers every batch in the
        // run: group commit riding the pipeline's natural cadence,
        // encoding borrowed arena data straight into the WAL's reused
        // scratch buffer — no per-record allocation, no payload clone.
        // All commit paths — inline, drain, graft, recovery, and the
        // panic-path rescue — funnel their batches through here, so this
        // is the one choke point durability needs.
        if let Some(ws) = publ.wal.as_mut() {
            let store = &self.store;
            let appended = ws.wal.append_batch(|framer| {
                for batch in batches {
                    for &id in &batch.ids {
                        store.with_block(id, &mut |b| {
                            framer.record(RecordRef {
                                id,
                                parent: b.parent.expect("committed blocks are never genesis"),
                                producer: b.producer,
                                merit_index: b.merit_index,
                                work: b.work,
                                digest: b.digest,
                                payload: &b.payload,
                            });
                        });
                    }
                }
            });
            if let Err(e) = appended {
                // A tree that cannot persist must not ack: acking an
                // unpersisted commit would let a crash forget a response
                // some caller already acted on — the one thing the WAL
                // exists to prevent. The WAL poisoned itself (fsyncgate:
                // no retry can prove the dirty pages survived); latch
                // the tree-level flag and abandon the run unpublished.
                let err = DurabilityError::PersistFailed { kind: e.kind() };
                self.poison_with(err);
                return Err(self.poison_error());
            }
            for batch in batches {
                publ.logged_ids.extend_from_slice(&batch.ids);
            }
        }
        let last = batches
            .last()
            .expect("publish_batches_locked takes a non-empty run");
        advance_chain(&self.store, &mut publ.chain, last.tip);
        // Reuse a reclaimed publication box when one is available: the
        // uncontended path retires one box per append, so without the
        // bin every commit paid a malloc here and a free in the sweep.
        let boxed = match self.spares.take() {
            Some(mut spare) => {
                *spare = publ.chain.clone();
                spare
            }
            None => Box::new(publ.chain.clone()),
        };
        // Watermark advance rides the publication (the pipeline's
        // natural cadence): the block `depth` links behind the new tip —
        // and everything below it — is storage-final. `fetch_max` inside
        // keeps the bound monotone across reorgs that shorten the chain.
        if let Some(bound) = self.watermark.target_for(boxed.ids()) {
            self.store.raise_flatten_target(bound);
        }
        // WAL compaction rides the same cadence, gated geometrically
        // inside `wants_checkpoint` so it stays amortized O(1) per
        // commit. Runs after the watermark raise so this publication's
        // own finality advance is already visible to the prefix cursor.
        self.maybe_wal_checkpoint(publ);
        let fresh = Box::into_raw(boxed);
        let old = self.published.swap(fresh, Ordering::AcqRel);
        self.published_tip.store(last.tip.0, Ordering::Release);
        // Published-upto after the swap: `is_committed` may say yes only
        // once the chain that corroborates it is readable.
        self.published_upto.store(last.upto, Ordering::Release);
        // Generation-after-publication: the counter moves only once the
        // swap is visible, so a waiter that observes the new generation
        // can already `read()` the chain that covers this batch run.
        self.commit_gen.fetch_add(1, Ordering::SeqCst);
        if self.gen_waiters.load(Ordering::SeqCst) > 0 {
            // Lock-then-notify closes the check-then-park race: a waiter
            // between its generation recheck (under `gen_lock`) and its
            // park either sees the new generation there, or is already
            // parked when this notify fires. With no waiters registered
            // the publication pays one relaxed-ish load and nothing else.
            drop(self.gen_lock.lock());
            self.gen_cv.notify_all();
        }
        // SAFETY: `old` came from `Box::into_raw` in `with_config` or a
        // previous publication; reconstituting the box moves ownership
        // into the epoch domain, which frees it only after every reader
        // pinned at (or before) the swap has unpinned.
        let old = unsafe { Box::from_raw(old) };
        let bytes = old.approx_heap_bytes();
        // SAFETY: `spares` outlives `epochs` (declaration order), the
        // domain's drop runs every pending item, and the bin sits behind
        // its own heap allocation so the address the deferred item keeps
        // stays valid even if the tree struct is moved before the item
        // runs.
        unsafe { self.epochs.retire_box_recycling(bytes, old, &self.spares) };
        Ok(())
    }

    /// Advances the storage-final prefix cursor and, when the geometric
    /// gate says it is worth it, *claims* a checkpoint of that prefix.
    /// The prefix is the longest leading run of the durable log whose
    /// ids sit below the flatten target — the same
    /// [`FinalityWatermark`]-derived bound the slab tier trusts, so
    /// compaction never captures an entry a reorg could still disturb
    /// in layout. The log is *not* id-sorted (grafts commit
    /// out-of-mint-order), so the cursor walks entries, not ids.
    ///
    /// Only the claim and an O(prefix) id memcpy happen here, under the
    /// publication lock (the cursor walks `PubState::logged_ids`, the
    /// published commit-log mirror, so `sel` is never touched); the
    /// O(prefix) record encoding and the write + fsync + rename run
    /// later in [`run_pending_checkpoint`](Self::run_pending_checkpoint),
    /// off both locks — a geometric-gate firing must not stall the
    /// pipeline for a prefix-sized IO pause.
    fn maybe_wal_checkpoint(&self, publ: &mut PubState) {
        let Some(ws) = publ.wal.as_mut() else { return };
        // Without a watermark the membership is still append-only and
        // never retracted, so the entire durable log is final.
        let bound = if self.watermark.is_enabled() {
            self.store.flatten_target()
        } else {
            u32::MAX
        };
        while ws.final_prefix < publ.logged_ids.len() && publ.logged_ids[ws.final_prefix].0 < bound
        {
            ws.final_prefix += 1;
        }
        if ws.wal.wants_checkpoint(ws.final_prefix as u64) {
            let job = ws.wal.begin_checkpoint(ws.final_prefix as u64);
            let ids = publ.logged_ids[..ws.final_prefix].to_vec();
            // The in-flight flag inside the WAL guarantees the slot is
            // free: no second claim can fire until this one settles.
            *self.pending_ckpt.lock() = Some(PendingCheckpoint { job, ids });
        }
    }

    /// Runs a claimed WAL checkpoint, if one is pending — called on the
    /// commit paths next to [`maybe_reclaim`](Self::maybe_reclaim) and
    /// [`maybe_flatten`](Self::maybe_flatten), with both pipeline locks
    /// released. Record encoding reads the arena lock-free
    /// (checkpointed ids are storage-final, their blocks immutable), and
    /// the WAL job writes a temp file and renames — never the active
    /// segment — so concurrent appends and their group-commit fsyncs
    /// proceed unimpeded. Only the coverage bookkeeping at the end
    /// briefly retakes the publication lock; covered segments are
    /// unlinked after it is released again. Checkpoint IO failures are
    /// non-fatal: the claim is aborted and the log keeps its segments,
    /// staying correct, merely uncompacted.
    fn run_pending_checkpoint(&self) {
        let Some(PendingCheckpoint { job, ids }) = self.pending_ckpt.lock().take() else {
            return;
        };
        let store = &self.store;
        let records: Vec<CommitRecord> = ids.iter().map(|&id| wal_record_of(store, id)).collect();
        let outcome = job.run(&records);
        drop(records);
        let (dead, vfs) = {
            let mut publ = self.publ.lock();
            let ws = publ
                .wal
                .as_mut()
                .expect("a durable tree never loses its WAL");
            let vfs = ws.wal.vfs();
            let dead = match outcome {
                Ok(done) => ws.wal.finish_checkpoint(done),
                Err(e) => {
                    // Non-fatal: the claim is released and the failure
                    // counted; the log keeps its segments — correct,
                    // merely uncompacted.
                    ws.wal.fail_checkpoint(&e);
                    Vec::new()
                }
            };
            (dead, vfs)
        };
        // Covered segments are unlinked off the lock, through the same
        // VFS seam as every other WAL IO. A failed unlink is harmless
        // (replay skips fully checkpointed segments by start index) but
        // counted, so leaks are observable.
        let mut failed = 0u64;
        for path in dead {
            if vfs.remove_file(&path).is_err() {
                failed += 1;
            }
        }
        if failed > 0 {
            if let Some(ws) = self.publ.lock().wal.as_mut() {
                ws.wal.note_unlink_failures(failed);
            }
        }
    }

    /// Durability counters of the underlying WAL (fsyncs, records,
    /// bytes, compaction activity), or `None` for a volatile tree.
    /// Takes the publication lock.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.publ.lock().wal.as_ref().map(|ws| ws.wal.stats())
    }

    /// Opens a **durable** tree backed by the WAL directory in `config`,
    /// recovering whatever a previous incarnation persisted there.
    ///
    /// Fresh directory: an empty tree that logs every commit. Existing
    /// directory: the commit log is replayed in order — arena entries
    /// reinstalled at their original ids with their original digests and
    /// jump pointers, membership and `ChainCache` rebuilt, commit
    /// generation advanced past every recovered publication — and the
    /// tree resumes appending (and logging) where the crash left off. A
    /// torn tail on the last segment is trimmed, not fatal: those
    /// records were never acked.
    ///
    /// Two recovery caveats, both inherent to what is (deliberately) not
    /// persisted:
    ///
    /// * Mint-time nonces are folded into digests but not stored, so
    ///   recovered blocks carry their recorded digest verbatim rather
    ///   than recomputing it.
    /// * Non-member mints (orphans, `P`-rejected blocks, consensus
    ///   losers) are not logged. Their ids are re-filled as inert
    ///   genesis-parented *ghosts* so the arena keeps the dense id space
    ///   its invariants assume; membership-filtered queries never see
    ///   them, but raw arena walks (e.g. `children` of genesis) will.
    pub fn open_durable(
        shards: usize,
        watermark: FinalityWatermark,
        selection: F,
        predicate: P,
        config: WalConfig,
    ) -> std::io::Result<Self> {
        let (wal, records) = Wal::open(config)?;
        let mut tree = ConcurrentBlockTree::with_config(shards, watermark, selection, predicate);
        // Owned and unshared here, so the flag needs no synchronization;
        // it must be set before any commit path can observe the tree.
        tree.durable = true;
        let log_mirror = {
            let mut sel = tree.sel.lock();
            for rec in &records {
                tree.store.install_recovered(rec);
                tree.insert_locked(&mut sel, rec.id, rec.parent);
            }
            tree.store.fill_recovery_gaps();
            tree.store.sort_recovered_children();
            // One full-scan derivation instead of an incremental pass:
            // replay is offline (nothing is published yet), so the O(n)
            // oracle scan is both simpler and no slower.
            // The aux stays reset — the first live scoring pass re-seeds
            // it from the membership.
            sel.tip = tree.selection.select_tip(&tree.store, &sel.tree);
            if !records.is_empty() {
                // Stage the recovered chain with no new ids: the WAL
                // append in stage 2 frames zero records (everything is
                // already durable), but the splice, the watermark raise,
                // and the tip/generation stores all run as on any commit.
                tree.stage_locked(&sel, sel.commit_log.len(), false);
            }
            sel.commit_log.clone()
        };
        {
            let mut publ = tree.publ.lock();
            publ.wal = Some(WalState {
                wal,
                final_prefix: 0,
            });
            publ.logged_ids = log_mirror;
        }
        if !records.is_empty() {
            tree.publish_staged(false);
            // One generation per historical publication keeps recovered
            // counters comparable with the live tree's. A fresh (empty)
            // WAL skips this: a durable tree that never published stays
            // at generation 0, exactly like a fresh volatile tree, so
            // `wait_commit_past(0)` parks until a real commit lands.
            tree.commit_gen
                .store(records.len() as u64 + 1, Ordering::SeqCst);
        }
        tree.run_pending_checkpoint();
        Ok(tree)
    }

    /// The current commit generation — advances by one with every chain
    /// publication (batched drain, inline commit, or graft). Pair with
    /// [`wait_commit_past`](Self::wait_commit_past) to sleep until the
    /// tree moves instead of polling it.
    pub fn commit_generation(&self) -> u64 {
        self.commit_gen.load(Ordering::SeqCst)
    }

    /// Parks this thread until the commit generation moves past `seen`
    /// or `deadline` passes, and returns the generation observed on the
    /// way out. The protocol is the standard missed-wakeup-free shape:
    /// callers load the generation *before* probing whatever state they
    /// are waiting on, then hand that pre-probe value here — a commit
    /// landing between the probe and the park changes the generation,
    /// and the recheck under `gen_lock` returns immediately.
    pub fn wait_commit_past(&self, seen: u64, deadline: std::time::Instant) -> u64 {
        self.gen_waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.gen_lock.lock();
        loop {
            if self.commit_gen.load(Ordering::SeqCst) != seen {
                break;
            }
            // A poisoned tree publishes no further generations — waiters
            // must not sleep out their deadlines waiting for one
            // (`poison_with` notifies under this same lock).
            if self.is_poisoned() {
                break;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _timed_out) = self.gen_cv.wait_timeout(guard, deadline - now);
            guard = g;
        }
        drop(guard);
        self.gen_waiters.fetch_sub(1, Ordering::SeqCst);
        self.commit_gen.load(Ordering::SeqCst)
    }

    /// Number of committed blocks (including genesis).
    pub fn len(&self) -> usize {
        self.sel.lock().tree.len()
    }

    /// Whether the tree holds no blocks — always `false` in practice (a
    /// committed tree contains at least `b0`), but answered from the
    /// membership rather than hardcoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sharded arena (all minted blocks, including orphaned and
    /// `P`-rejected mints).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The selection function `f`.
    pub fn selection(&self) -> &F {
        &self.selection
    }

    /// The validity predicate `P`.
    pub fn predicate(&self) -> &P {
        &self.predicate
    }

    /// The finality watermark driving finalized-prefix flattening.
    pub fn watermark(&self) -> FinalityWatermark {
        self.watermark
    }

    /// The epoch-reclamation domain guarding published snapshots —
    /// exposed for observability (`retired_bytes_peak`, pending garbage)
    /// and the churn stress tests.
    pub fn epochs(&self) -> &EpochDomain {
        &self.epochs
    }

    /// Commit-pipeline counters (batch count, batched appends, largest
    /// batch, inline fast-path commits) plus the stage timing totals:
    /// `drain_lock_ns` (stage 1, selection lock held), `score_ns` (the
    /// batched-scoring slice of it), and `publish_ns` (stage 2,
    /// publication lock held). Before this pipeline split, everything in
    /// all three ran under the one selection lock. The timings cover
    /// exactly the commit episodes that drained queued requests — the
    /// `batched_appends` the ratios divide by; episodes that took
    /// nothing off the queue (uncontended appends, grafts) commit and
    /// publish unclocked, so the ratios compare like with like.
    pub fn pipeline_stats(&self) -> PipelineStats {
        let mut stats = self.queue.stats();
        // relaxed: approximate observability snapshot, counters are
        // independent of each other and of the pipeline state.
        stats.inline_appends = self.inline_commits.load(Ordering::Relaxed);
        stats.drain_lock_ns = self.stat_drain_ns.load(Ordering::Relaxed); // relaxed: stats snapshot
        stats.score_ns = self.stat_score_ns.load(Ordering::Relaxed); // relaxed: stats snapshot
        stats.publish_ns = self.stat_publish_ns.load(Ordering::Relaxed); // relaxed: stats snapshot
        stats
    }

    /// The membership commit order so far (parent-closed). Takes the
    /// selection lock.
    pub fn commit_log(&self) -> Vec<BlockId> {
        self.sel.lock().commit_log.clone()
    }

    /// The tip re-derived by the full Def. 3.1 rescan over the committed
    /// membership — the specification oracle for differential checks.
    /// Takes the selection lock.
    pub fn selected_tip_full_scan(&self) -> BlockId {
        let sel = self.sel.lock();
        self.selection.select_tip(&self.store, &sel.tree)
    }

    /// Sequential snapshot of the arena (see [`ShardedStore::snapshot`];
    /// requires quiescence).
    pub fn snapshot_store(&self) -> BlockStore {
        self.store.snapshot()
    }
}

/// Builds the durable record of a committed block straight from the
/// arena: one `with_block` read session, the digest copied verbatim (the
/// mint-time nonce is folded into it and not otherwise recoverable).
fn wal_record_of(store: &ShardedStore, id: BlockId) -> CommitRecord {
    let mut rec = None;
    store.with_block(id, &mut |b| {
        rec = Some(CommitRecord {
            id,
            parent: b.parent.expect("committed blocks are never genesis"),
            producer: b.producer,
            merit_index: b.merit_index,
            work: b.work,
            digest: b.digest,
            payload: b.payload.clone(),
        });
    });
    rec.expect("committed blocks are fully minted in the arena")
}

impl<F: SelectionFn, P: ValidityPredicate> Drop for ConcurrentBlockTree<F, P> {
    fn drop(&mut self) {
        let p = self.published.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: the current publication is the one outstanding leaked
        // box (every predecessor was retired into the epoch domain, which
        // drops after this body and frees them); no reader can be alive,
        // since readers borrow `self`.
        drop(unsafe { Box::from_raw(p) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::selection::{Ghost, HeaviestWork, LongestChain};
    use crate::validity::{AcceptAll, DigestPrefix};

    #[test]
    fn sharded_mint_matches_blockstore() {
        // The same mint sequence must produce identical ids, digests,
        // heights, jumps, and cumulative work in both stores.
        let sharded = ShardedStore::with_shards(4);
        let mut seq = BlockStore::new();
        let mut prev = BlockId::GENESIS;
        for i in 0..40u64 {
            let parent = if i % 5 == 0 { BlockId::GENESIS } else { prev };
            let a = sharded.mint(parent, ProcessId(0), 0, 1 + i % 3, i, Payload::Empty);
            let b = seq.mint(parent, ProcessId(0), 0, 1 + i % 3, i, Payload::Empty);
            assert_eq!(a, b);
            assert_eq!(sharded.meta(a), seq.meta(a), "block {i}");
            prev = a;
        }
        assert_eq!(sharded.block_count(), seq.block_count());
        for i in 0..seq.block_count() as u32 {
            let id = BlockId(i);
            let mut sh_kids = Vec::new();
            sharded.for_each_child(id, &mut |c| sh_kids.push(c));
            assert_eq!(sh_kids.as_slice(), seq.children(id));
        }
    }

    #[test]
    fn sharded_ancestry_queries_agree_with_sequential() {
        let sharded = ShardedStore::new();
        let mut prev = BlockId::GENESIS;
        let mut ids = vec![prev];
        for i in 0..64u64 {
            prev = sharded.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
            ids.push(prev);
        }
        let snap = sharded.snapshot();
        for h in [0u32, 1, 13, 40, 63] {
            assert_eq!(sharded.ancestor_at(prev, h), ids[h as usize]);
            assert_eq!(sharded.ancestor_at(prev, h), snap.ancestor_at(prev, h));
        }
        assert!(sharded.is_ancestor(ids[10], ids[50]));
        assert!(!sharded.is_ancestor(ids[50], ids[10]));
        let fork = sharded.mint(ids[20], ProcessId(1), 1, 1, 99, Payload::Empty);
        assert_eq!(sharded.common_ancestor(fork, prev), ids[20]);
    }

    #[test]
    fn fresh_tree_reads_genesis() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        assert_eq!(bt.read(), Blockchain::genesis());
        assert_eq!(bt.read_owned(), Blockchain::genesis());
        assert_eq!(bt.selected_tip(), BlockId::GENESIS);
        assert_eq!(bt.len(), 1);
    }

    #[test]
    fn sequential_appends_extend_the_chain() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        for i in 0..10 {
            assert!(bt
                .append(CandidateBlock::simple(ProcessId(0), i))
                .unwrap()
                .is_some());
        }
        assert_eq!(bt.read().len(), 11);
        assert_eq!(bt.len(), 11);
        assert_eq!(bt.selected_tip(), bt.selected_tip_full_scan());
    }

    #[test]
    fn rejected_append_leaves_tree_unchanged() {
        let bt = ConcurrentBlockTree::new(LongestChain, DigestPrefix { zero_bits: 64 });
        assert!(bt
            .append(CandidateBlock::simple(ProcessId(0), 1))
            .unwrap()
            .is_none());
        assert_eq!(bt.read(), Blockchain::genesis());
        assert_eq!(bt.len(), 1);
        // The rejected mint still occupies an arena slot, as on BlockTree.
        assert_eq!(bt.store().block_count(), 2);
    }

    #[test]
    fn graft_builds_forks_and_reorgs() {
        let bt = ConcurrentBlockTree::new(HeaviestWork, AcceptAll);
        let a = bt
            .graft(BlockId::GENESIS, CandidateBlock::simple(ProcessId(0), 1))
            .unwrap()
            .unwrap();
        let _a2 = bt
            .graft(a, CandidateBlock::simple(ProcessId(0), 2))
            .unwrap()
            .unwrap();
        let heavy = bt
            .graft(
                BlockId::GENESIS,
                CandidateBlock::simple(ProcessId(1), 3).with_work(10),
            )
            .unwrap()
            .unwrap();
        assert_eq!(bt.selected_tip(), heavy, "work 10 beats work 2");
        assert_eq!(bt.read().ids(), &[BlockId::GENESIS, heavy]);
    }

    #[test]
    fn held_views_and_owned_snapshots_survive_later_appends() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        bt.append(CandidateBlock::simple(ProcessId(0), 1)).unwrap();
        let view = bt.read(); // borrowed: parks an epoch pin
        let snap = bt.read_owned(); // owned: refcounted, pin released
        for i in 2..20 {
            bt.append(CandidateBlock::simple(ProcessId(0), i)).unwrap();
        }
        // The borrowed view still sees the chain it pinned — the epoch
        // guard kept the retired box alive across 18 publications.
        assert_eq!(view.len(), 2, "pinned view is immutable");
        assert_eq!(snap.len(), 2, "owned snapshot is immutable");
        assert!(view.is_prefix_of(&bt.read_owned()));
        assert!(snap.is_prefix_of(&bt.read_owned()));
        drop(view);
        assert_eq!(bt.read().len(), 20);
    }

    #[test]
    fn retired_snapshots_are_reclaimed_after_readers_pass() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let n = 4 * RECLAIM_PENDING as u64;
        for i in 0..n {
            bt.append(CandidateBlock::simple(ProcessId(0), i)).unwrap();
            // Reads come and go: no pin outlives an iteration.
            assert_eq!(bt.read().len() as u64, i + 2);
        }
        // Every publication retired a box; with no reader parked, the
        // threshold-triggered sweeps must have kept the backlog near the
        // reclaim threshold, not at the commit count.
        assert!(
            bt.epochs().pending_items() <= 2 * RECLAIM_PENDING,
            "pending garbage stays bounded: {} items",
            bt.epochs().pending_items()
        );
        assert!(bt.epochs().reclaimed_items() >= n / 2);
    }

    /// Uncontended appends take the inline fast path: no queue traffic,
    /// no batches — the pipeline counters must say so.
    #[test]
    fn uncontended_appends_commit_inline() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        for i in 0..50 {
            assert!(bt
                .append(CandidateBlock::simple(ProcessId(0), i))
                .unwrap()
                .is_some());
        }
        let stats = bt.pipeline_stats();
        assert_eq!(stats.inline_appends, 50, "single appender never queues");
        assert_eq!(stats.batched_appends, 0);
        assert_eq!(stats.batches, 0);
        assert_eq!(bt.read().len(), 51);
    }

    /// Regression (allocation diet): `append` must *move* the candidate's
    /// payload into the arena — the committed block's transaction buffer
    /// is the very allocation the caller built, not a clone. Before, the
    /// payload was cloned unconditionally (even for blocks `P` rejected
    /// before enqueue).
    #[test]
    fn append_moves_the_payload_into_the_arena() {
        use crate::block::{Payload, Tx};
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let txs = vec![Tx::new(0, 1, 2, 17)];
        let data_ptr = txs.as_ptr();
        let cand = CandidateBlock::simple(ProcessId(0), 1).with_payload(Payload::Transactions(txs));
        let id = bt.append(cand).unwrap().expect("AcceptAll");
        bt.store().with_block(id, &mut |b| match &b.payload {
            Payload::Transactions(v) => {
                assert_eq!(v.as_ptr(), data_ptr, "payload moved, not cloned")
            }
            other => panic!("payload kind changed: {other:?}"),
        });
        // A `P`-rejected candidate's payload is also moved (the mint
        // happens before prevalidation), never cloned on the way to the
        // rejection: same identity check on the orphan mint.
        let bt = ConcurrentBlockTree::new(LongestChain, DigestPrefix { zero_bits: 64 });
        let txs = vec![Tx::new(1, 3, 4, 5)];
        let data_ptr = txs.as_ptr();
        let cand = CandidateBlock::simple(ProcessId(0), 2).with_payload(Payload::Transactions(txs));
        assert!(
            bt.append(cand).unwrap().is_none(),
            "64 zero bits rejects everything"
        );
        let orphan = BlockId(1); // sole non-genesis mint
        bt.store().with_block(orphan, &mut |b| match &b.payload {
            Payload::Transactions(v) => {
                assert_eq!(v.as_ptr(), data_ptr, "rejected payload moved too")
            }
            other => panic!("payload kind changed: {other:?}"),
        });
    }

    /// `wait_committed` now parks on the commit generation: a waiter must
    /// wake when another thread's graft lands (not just poll), and a
    /// block that never commits must come back `false` at the deadline.
    #[test]
    fn wait_committed_parks_until_the_commit_lands() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        // Mint into the arena only — not yet a member (the winner's mint
        // before its graft, in Protocol-A terms).
        let minted = bt
            .store()
            .mint(BlockId::GENESIS, ProcessId(0), 0, 1, 7, Payload::Empty);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                bt.wait_committed(minted, deadline)
            });
            // Give the waiter time to park, then commit.
            std::thread::sleep(std::time::Duration::from_millis(20));
            bt.graft_minted(minted).unwrap().expect("AcceptAll");
            assert!(waiter.join().expect("waiter"), "woken by the graft");
        });
        // An orphan that never commits: the deadline answer is `false`.
        let orphan = bt
            .store()
            .mint(BlockId::GENESIS, ProcessId(1), 1, 1, 8, Payload::Empty);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(30);
        assert!(!bt.wait_committed(orphan, deadline));
    }

    /// Whatever `read()` shows is committed: a publication swaps the
    /// chain in before it advances `published_upto`, and a reader caught
    /// in that window must still get `true` from `is_committed`. Release
    /// builds race hard enough to land in the window many times a run.
    #[test]
    fn is_committed_agrees_with_read_under_appenders() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let per_thread = if cfg!(debug_assertions) {
            2_000
        } else {
            200_000
        };
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let (bt, done) = (&bt, &done);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let nonce = (t as u64) << 32 | i;
                        bt.append(CandidateBlock::simple(ProcessId(t), nonce))
                            .unwrap();
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            while done.load(Ordering::SeqCst) < 2 {
                let tip = bt.read().tip();
                assert!(
                    bt.is_committed(tip),
                    "read() showed {tip}, is_committed denies it"
                );
            }
        });
    }

    #[test]
    fn concurrent_appenders_commit_every_block_exactly_once() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let per_thread = 50u64;
        let threads = 4u32;
        std::thread::scope(|s| {
            for t in 0..threads {
                let bt = &bt;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let nonce = (t as u64) << 32 | i;
                        assert!(bt
                            .append(CandidateBlock::simple(ProcessId(t), nonce))
                            .unwrap()
                            .is_some());
                    }
                });
            }
        });
        let expected = (threads as u64 * per_thread) as usize + 1;
        assert_eq!(bt.len(), expected, "every append committed");
        // Longest-chain appends always extend the tip: a single path.
        assert_eq!(bt.read().len(), expected);
        assert_eq!(bt.selected_tip(), bt.selected_tip_full_scan());
        let log = bt.commit_log();
        assert_eq!(log.len(), expected - 1);
        let mut sorted = log.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), log.len(), "no double commits");
        // Every append resolved through exactly one of the two paths:
        // inline (uncontended try_lock) or the staged queue.
        let stats = bt.pipeline_stats();
        assert_eq!(
            stats.inline_appends + stats.batched_appends,
            (threads as u64) * per_thread
        );
        assert!(stats.batches <= stats.batched_appends);
        assert_eq!(stats.batches == 0, stats.batched_appends == 0);
    }

    #[test]
    fn concurrent_readers_observe_monotone_prefix_chains() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let bt = &bt;
                s.spawn(move || {
                    let mut last = bt.read_owned();
                    for _ in 0..400 {
                        let now = bt.read();
                        assert!(
                            last.is_prefix_of(&now),
                            "longest-chain published reads grow monotonically"
                        );
                        last = now.to_owned();
                    }
                });
            }
            let bt = &bt;
            s.spawn(move || {
                for i in 0..200 {
                    bt.append(CandidateBlock::simple(ProcessId(0), i)).unwrap();
                }
            });
        });
        assert_eq!(bt.read().len(), 201);
    }

    #[test]
    fn concurrent_ghost_grafts_agree_with_full_scan() {
        let bt = ConcurrentBlockTree::new(Ghost::default(), AcceptAll);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let bt = &bt;
                s.spawn(move || {
                    for i in 0..30u64 {
                        // Fork off a block of the current chain at a
                        // pseudo-random depth — real reorg pressure.
                        let chain = bt.read();
                        let ids = chain.ids();
                        let r = crate::ids::splitmix64_at((t as u64) << 8, i);
                        let parent = ids[(r as usize) % ids.len()];
                        drop(chain);
                        let _ = bt.graft(
                            parent,
                            CandidateBlock::simple(ProcessId(t), (t as u64) << 32 | i),
                        );
                    }
                });
            }
        });
        assert_eq!(bt.len(), 121);
        assert_eq!(bt.selected_tip(), bt.selected_tip_full_scan());
        // And the snapshot replays to the same selection.
        let snap = bt.snapshot_store();
        let mut tree = TreeMembership::genesis_only();
        for id in bt.commit_log() {
            tree.insert(&snap, id);
        }
        assert_eq!(Ghost::default().select_tip(&snap, &tree), bt.selected_tip());
    }

    /// A selection rule that panics in the scoring pass that covers its
    /// nth membership insert — injected user-code failure inside the
    /// drain's critical section.
    struct PanicOnInsert {
        at: u32,
        seen: std::sync::atomic::AtomicU32,
    }

    impl crate::selection::SelectionFn for PanicOnInsert {
        fn select_tip(
            &self,
            store: &dyn crate::store::BlockView,
            tree: &TreeMembership,
        ) -> BlockId {
            LongestChain.select_tip(store, tree)
        }

        fn score_inserts(
            &self,
            store: &dyn crate::store::BlockView,
            inserts: &[BlockId],
        ) -> crate::selection::AuxPartial {
            let n = inserts.len() as u32;
            let before = self.seen.fetch_add(n, Ordering::SeqCst);
            if (before + 1..=before + n).contains(&self.at) {
                panic!("injected selection panic");
            }
            LongestChain.score_inserts(store, inserts)
        }

        fn apply_partial(
            &self,
            store: &dyn crate::store::BlockView,
            tree: &TreeMembership,
            aux: &mut crate::selection::SelectionAux,
            partial: &crate::selection::AuxPartial,
            current_tip: BlockId,
        ) -> BlockId {
            LongestChain.apply_partial(store, tree, aux, partial, current_tip)
        }

        fn name(&self) -> &'static str {
            "panic-on-insert"
        }
    }

    /// A panic in user code inside the batch drain must kill only the
    /// draining thread: every other appender whose request was already
    /// taken off the queue gets resolved by the unwind path — recorded
    /// outcomes (covered by the recovery publication) or rejected —
    /// instead of spinning forever. Completion of this test is half the
    /// assertion (before the unwind handling, the non-panicking threads
    /// hung); the read-after-response check inside the appenders is the
    /// other half.
    #[test]
    fn drainer_panic_resolves_the_batch_instead_of_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let bt = ConcurrentBlockTree::new(
            PanicOnInsert {
                at: 5,
                seen: std::sync::atomic::AtomicU32::new(0),
            },
            AcceptAll,
        );
        let mut reported: Vec<BlockId> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3u32)
                .map(|t| {
                    let bt = &bt;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..4u64 {
                            // The injected panic (and, in debug builds, the
                            // cache-divergence asserts that follow it) stay
                            // on whichever thread drains — catch and move on.
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                bt.append(CandidateBlock::simple(
                                    ProcessId(t),
                                    (t as u64) << 32 | i,
                                ))
                            }));
                            if let Ok(Ok(Some(id))) = r {
                                // Publish-before-respond must survive the
                                // panic path: a committed response, even
                                // one delivered by the drainer's unwind
                                // recovery, is covered by a publication
                                // (longest-chain commits here form one
                                // growing path, so later publications
                                // only extend it).
                                assert!(
                                    bt.read().ids().contains(&id),
                                    "append responded committed but the \
                                     published chain lacks {id}"
                                );
                                mine.push(id);
                            }
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                reported.extend(h.join().expect("appender threads terminate"));
            }
        });
        // Every append call terminated (returned or panicked in place);
        // the pre-panic commits went through, and every id an append
        // *reported* as committed really is in the commit log — even the
        // ones whose statuses the unwind path delivered.
        assert!(bt.len() >= 4, "pre-panic commits landed: {}", bt.len());
        let log: std::collections::HashSet<_> = bt.commit_log().into_iter().collect();
        for id in reported {
            assert!(log.contains(&id), "reported-committed {id} not in log");
        }
    }

    fn panic_on_insert(at: u32) -> PanicOnInsert {
        PanicOnInsert {
            at,
            seen: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// The inline episode's shield, deterministically: the appender's
    /// own scoring pass panics after its insert, and the rescue still
    /// publishes that insert before the panic resumes.
    #[test]
    fn inline_panic_still_publishes_its_insert() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let bt = ConcurrentBlockTree::new(panic_on_insert(3), AcceptAll);
        for i in 0..2 {
            bt.append(CandidateBlock::simple(ProcessId(0), i))
                .unwrap()
                .expect("AcceptAll");
        }
        let third = catch_unwind(AssertUnwindSafe(|| {
            bt.append(CandidateBlock::simple(ProcessId(0), 2))
        }));
        assert!(third.is_err(), "the third insert's scoring panics");
        assert_eq!(bt.read().len(), 4, "the panicked insert is published");
        assert_eq!(bt.commit_log(), bt.read().ids()[1..]);
        bt.append(CandidateBlock::simple(ProcessId(0), 3))
            .unwrap()
            .expect("the tree stays serviceable");
        assert_eq!(bt.read().len(), 5);
        assert_eq!(bt.selected_tip(), bt.selected_tip_full_scan());
    }

    /// The graft episode's shield, deterministically: a request queued
    /// ahead of the graft resolves and publishes even though the graft's
    /// own scoring pass panics.
    #[test]
    fn graft_panic_still_resolves_the_queued_batch() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Inserts: `a` is the 1st, the queued `x` the 2nd, the graft the
        // 3rd — the one that panics.
        let bt = ConcurrentBlockTree::new(panic_on_insert(3), AcceptAll);
        let a = bt
            .append(CandidateBlock::simple(ProcessId(0), 0))
            .unwrap()
            .expect("AcceptAll");
        let x = bt.store().mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let req = CommitReq::new(x, a, true, 1);
        // SAFETY: `req` outlives the graft below, whose episode takes and
        // resolves it; nothing dereferences it afterwards.
        unsafe { bt.queue.push(&req) };
        let fork = bt
            .store()
            .mint(BlockId::GENESIS, ProcessId(1), 0, 1, 2, Payload::Empty);
        let graft = catch_unwind(AssertUnwindSafe(|| bt.graft_minted(fork)));
        assert!(graft.is_err(), "the graft's scoring panics");
        assert_eq!(req.poll(), Some(Polled::Committed(x)));
        assert!(
            bt.read().ids().contains(&x),
            "the queued commit is published"
        );
    }

    /// The one timer rule covers scoring: an episode that drained a
    /// single queued request clocks its scoring pass as a slice of its
    /// stage-1 hold, and an uncontended append clocks neither.
    #[test]
    fn drained_scoring_is_clocked_inside_the_drain_hold() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let a = bt
            .append(CandidateBlock::simple(ProcessId(0), 0))
            .unwrap()
            .expect("AcceptAll");
        let inline = bt.pipeline_stats();
        assert_eq!((inline.drain_lock_ns, inline.score_ns), (0, 0));
        let x = bt.store().mint(a, ProcessId(0), 0, 1, 1, Payload::Empty);
        let req = CommitReq::new(x, a, true, 1);
        // SAFETY: `req` outlives the episode below, which takes and
        // resolves it; nothing dereferences it afterwards.
        unsafe { bt.queue.push(&req) };
        let episode = bt.commit_locked(&mut bt.sel.lock(), Own::Queued);
        bt.settle(episode);
        assert_eq!(req.poll(), Some(Polled::Committed(x)));
        let drained = bt.pipeline_stats();
        assert!(drained.score_ns > 0, "the drained pass is clocked");
        assert!(drained.score_ns <= drained.drain_lock_ns);
    }

    /// A woken queued appender whose request an earlier episode took
    /// must not unwind out of `append`, dropping that stack request,
    /// while the earlier episode still owes it a status — even when the
    /// appender's own episode hits a user-code panic. The test holds the
    /// earlier episode unsettled across the panic.
    #[test]
    fn queued_appender_waits_for_its_status_before_unwinding() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        // Inserts: A's request is the 1st, the test's `c` the 2nd — the
        // one whose scoring panics, in A's own episode.
        let bt = ConcurrentBlockTree::new(panic_on_insert(2), AcceptAll);
        let finished = AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut sel = bt.sel.lock();
            let a = s.spawn(|| {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    bt.append(CandidateBlock::simple(ProcessId(0), 0))
                }));
                finished.store(true, Ordering::SeqCst);
                r.is_err()
            });
            // A cannot take `sel`, so it queues its request and parks on
            // the lock; the first episode that finds the request keeps it.
            let held = loop {
                let episode = bt.commit_locked(&mut sel, Own::Queued);
                if !episode.batch.is_empty() {
                    break episode;
                }
                std::thread::yield_now();
            };
            let a_id = sel.tip;
            let c_id = bt.store().mint(a_id, ProcessId(1), 0, 1, 1, Payload::Empty);
            let c = CommitReq::new(c_id, a_id, true, 1);
            // SAFETY: `c` outlives its resolution, which the loop below
            // waits for; nothing dereferences it afterwards.
            unsafe { bt.queue.push(&c) };
            drop(sel);
            // A's episode takes `c`, panics scoring it, and resolves it
            // during settlement, just before resuming the panic.
            while c.poll().is_none() {
                std::thread::yield_now();
            }
            assert_eq!(c.poll(), Some(Polled::Committed(c_id)));
            std::thread::sleep(std::time::Duration::from_millis(200));
            assert!(
                !finished.load(Ordering::SeqCst),
                "A left `append` while the held episode still owes its request a status"
            );
            bt.settle(held);
            assert!(
                a.join().expect("A catches its own panic"),
                "A resumes its episode's panic once its status lands"
            );
        });
        assert_eq!(bt.commit_log(), bt.read().ids()[1..]);
    }

    /// A graft under an uncommitted parent is a caller bug and panics —
    /// but before its episode takes the queue, so the requests parked
    /// there are still resolved by the next episode instead of stranded.
    #[test]
    fn misused_graft_strands_no_queued_appender() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let x = bt
            .store()
            .mint(BlockId::GENESIS, ProcessId(0), 0, 1, 1, Payload::Empty);
        let req = CommitReq::new(x, BlockId::GENESIS, true, 1);
        // SAFETY: `req` outlives the append below, whose episode takes and
        // resolves it; nothing dereferences it afterwards.
        unsafe { bt.queue.push(&req) };
        let loose = bt
            .store()
            .mint(BlockId::GENESIS, ProcessId(1), 0, 1, 2, Payload::Empty);
        let child = bt
            .store()
            .mint(loose, ProcessId(1), 0, 1, 3, Payload::Empty);
        let misuse = catch_unwind(AssertUnwindSafe(|| bt.graft_minted(child)));
        let msg = misuse.expect_err("a graft under an uncommitted parent panics");
        let msg = msg
            .downcast_ref::<String>()
            .expect("formatted assert message");
        assert!(msg.contains("not committed to the tree"), "{msg}");
        bt.append(CandidateBlock::simple(ProcessId(2), 4))
            .unwrap()
            .expect("AcceptAll");
        assert!(req.poll().is_some(), "the queued request was resolved");
    }

    #[test]
    fn snapshot_reproduces_the_arena() {
        let bt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        for i in 0..12 {
            if i % 3 == 0 {
                let _ = bt.graft(
                    BlockId::GENESIS,
                    CandidateBlock::simple(ProcessId(1), 100 + i),
                );
            } else {
                let _ = bt.append(CandidateBlock::simple(ProcessId(0), i));
            }
        }
        let snap = bt.snapshot_store();
        assert_eq!(snap.block_count(), bt.store().block_count());
        for i in 0..snap.block_count() as u32 {
            assert_eq!(snap.meta(BlockId(i)), bt.store().meta(BlockId(i)));
        }
    }

    #[test]
    fn flattened_tier_preserves_every_read() {
        // Build a fork-heavy arena, record every read, flatten most of
        // it incrementally, and require bit-identical answers after.
        let store = ShardedStore::with_flattening(4);
        let mut all = vec![BlockId::GENESIS];
        let mut prev = BlockId::GENESIS;
        for i in 0..80u64 {
            let parent = if i % 7 == 0 {
                all[(i as usize * 13) % all.len()]
            } else {
                prev
            };
            let payload = if i % 5 == 0 {
                Payload::Opaque(i)
            } else {
                Payload::Empty
            };
            let id = store.mint(parent, ProcessId((i % 3) as u32), 0, 1 + i % 4, i, payload);
            all.push(id);
            prev = id;
        }
        let metas: Vec<BlockMeta> = all.iter().map(|&id| store.meta(id)).collect();
        let blocks: Vec<Block> = all.iter().map(|&id| store.block(id)).collect();
        let kids: Vec<Vec<BlockId>> = all
            .iter()
            .map(|&id| {
                let mut v = Vec::new();
                store.for_each_child(id, &mut |c| v.push(c));
                v
            })
            .collect();
        store.raise_flatten_target(60);
        let mut done = 0;
        while done < 60 {
            let n = store.flatten_some(7);
            assert!(n > 0, "bounded flattening makes progress");
            done += n;
        }
        assert_eq!(store.flattened_count(), 60);
        assert_eq!(store.flatten_some(8), 0, "no work past the bound");
        for (i, &id) in all.iter().enumerate() {
            assert_eq!(store.meta(id), metas[i], "meta of {id}");
            assert_eq!(store.block(id), blocks[i], "block of {id}");
            let mut v = Vec::new();
            store.for_each_child(id, &mut |c| v.push(c));
            assert_eq!(v, kids[i], "children of {id}");
        }
        // Walks crossing the tier boundary agree with the sequential
        // mirror of the same arena.
        let snap = store.snapshot();
        for &a in &all {
            for &b in all.iter().step_by(9) {
                assert_eq!(store.is_ancestor(a, b), snap.is_ancestor(a, b));
                assert_eq!(store.common_ancestor(a, b), snap.common_ancestor(a, b));
            }
        }
    }

    #[test]
    fn flattening_retires_spine_chunks_through_the_epoch_domain() {
        let store = ShardedStore::with_flattening(1);
        let mut prev = BlockId::GENESIS;
        for i in 0..2045u64 {
            prev = store.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
        }
        let before = store.approx_heap_bytes();
        store.raise_flatten_target(2000);
        while store.flatten_some(256) > 0 {}
        assert_eq!(store.flattened_count(), 2000);
        let dom = store.reclaim_domain();
        assert!(dom.retired_bytes_peak() > 0, "spine chunks were retired");
        // Nothing is pinned: a quiescent sweep frees every retired chunk.
        assert!(dom.reclaim_quiescent() > 0);
        assert_eq!(dom.pending_items(), 0);
        assert_eq!(dom.retired_bytes(), 0);
        let after = store.approx_heap_bytes();
        assert!(
            after < before,
            "flattened arena should be smaller: {after} !< {before}"
        );
        // Deep walks still cross the tier boundary correctly.
        assert_eq!(store.height(prev), 2045);
        assert_eq!(store.ancestor_at(prev, 0), BlockId::GENESIS);
        assert_eq!(store.ancestor_at(prev, 1234), BlockId(1234));
        assert!(store.is_ancestor(BlockId(1), prev));
    }

    /// The retirement cursor swaps out each spine chunk exactly once, as
    /// soon as its id range falls wholly below the flat frontier — and a
    /// flatten call that moves no frontier retires nothing.
    #[test]
    fn retirement_cursor_retires_each_covered_chunk_once() {
        let store = ShardedStore::with_flattening(16);
        let mut prev = BlockId::GENESIS;
        for i in 0..20_000u64 {
            prev = store.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
        }
        let covered = |frontier: u32| {
            (0..store.shard_count())
                .flat_map(|s| (0..SPINE).map(move |k| (s, k)))
                .filter(|&(s, k)| store.chunk_below(s, k, frontier))
                .count() as u64
        };
        let dom = store.reclaim_domain();
        let retired = || dom.pending_items() as u64 + dom.reclaimed_items();
        // Frontiers on and off chunk boundaries, flattened in small steps.
        for target in [1, 17, 300, 4_111, 12_345, 19_000] {
            store.raise_flatten_target(target);
            while store.flatten_some(97) > 0 {}
            assert_eq!(store.flattened_count(), target);
            assert_eq!(retired(), covered(target), "frontier {target}");
        }
        for _ in 0..1_000 {
            assert_eq!(store.flatten_some(64), 0, "frontier unmoved");
        }
        assert_eq!(retired(), covered(19_000), "no chunk retired twice");
        assert_eq!(store.ancestor_at(prev, 5_000), BlockId(5_000));
    }

    #[test]
    fn retired_chunk_reads_reroute_to_the_slab() {
        // Deterministic replay of the state a reader in the
        // tier-check-vs-retirement window observes: the spine chunk is
        // already swapped to null while the id is flat. The `None`
        // fallback (`flat_after_retire`, used by meta_raw / nav_raw /
        // has_block / mint_checked) must confirm the flat tier, and the
        // slab readers must serve the id.
        let store = ShardedStore::with_flattening(1);
        let mut prev = BlockId::GENESIS;
        for i in 0..2045u64 {
            prev = store.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
        }
        store.raise_flatten_target(2000);
        while store.flatten_some(256) > 0 {}
        assert_eq!(store.flattened_count(), 2000);
        // One shard ⇒ slot == id; chunks k ≤ 9 (ids through 1022) lie
        // wholly below the 2000 frontier and are retired.
        for id in [BlockId::GENESIS, BlockId(1), BlockId(500), BlockId(1022)] {
            assert!(
                store.shards[store.shard_of(id)]
                    .entry(store.slot_of(id))
                    .is_none(),
                "{id:?}'s chunk is retired"
            );
            assert!(store.flat_after_retire(id), "fallback reroutes {id:?}");
            assert_eq!(store.meta_raw(id).height, id.0);
            assert_eq!(store.flat_nav(id).1, id.0);
            assert_eq!(store.flat_block(id).height, id.0);
        }
        // The first unretired chunk still serves spine reads directly.
        assert!(store.shards[0].entry(1023).is_some());
        // A never-minted id keeps its half-minted verdict through the
        // same fallback (`has_block` is the only caller that probes).
        assert!(!store.has_block(BlockId(1 << 20)));
    }

    #[test]
    fn children_minted_under_flattened_parents_are_still_visible() {
        let store = ShardedStore::with_flattening(2);
        let mut prev = BlockId::GENESIS;
        for i in 0..50u64 {
            prev = store.mint(prev, ProcessId(0), 0, 1, i, Payload::Empty);
        }
        store.raise_flatten_target(51);
        while store.flatten_some(64) > 0 {}
        assert_eq!(store.flattened_count(), 51, "the whole arena is flat");
        // Fork under a deep flattened parent: the child lands in the
        // late-kids side table and merges after the frozen list.
        let deep = BlockId(10);
        let late = store.mint(deep, ProcessId(1), 0, 5, 99, Payload::Opaque(7));
        let mut kids = Vec::new();
        store.for_each_child(deep, &mut |c| kids.push(c));
        assert_eq!(kids, vec![BlockId(11), late], "frozen first, late after");
        assert_eq!(store.parent(late), Some(deep));
        assert_eq!(store.height(late), 11);
        assert_eq!(store.meta(late).work, 5);
        assert_eq!(store.common_ancestor(late, prev), deep);
        assert_eq!(store.cumulative_work(late), store.cumulative_work(deep) + 5);
    }

    /// A `P` check that panics after its id is allocated must not leave
    /// a permanent dead gap: the flattener (and with it chunk retirement
    /// and WAL compaction) would wedge behind the never-ready slot
    /// forever. `mint_checked` shields the check, so the block lands in
    /// the arena like any rejected mint and the panic resumes after.
    #[test]
    fn panicked_checks_leave_no_dead_gap() {
        let store = ShardedStore::with_flattening(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.mint_checked(
                BlockId::GENESIS,
                ProcessId(0),
                0,
                1,
                0,
                Payload::Empty,
                |_| panic!("boom"),
            )
        }));
        assert!(unwound.is_err(), "the check's panic still propagates");
        let b = store.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 1, Payload::Empty);
        // The panicked mint's slot is occupied, not a gap...
        assert!(store.has_block(BlockId(1)));
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3, "quiescent snapshot adopts everything");
        // ...so flattening proceeds straight past it instead of wedging.
        store.raise_flatten_target(3);
        while store.flatten_some(8) > 0 {}
        assert_eq!(
            store.flattened_count(),
            3,
            "flattened past the panicked mint"
        );
        assert_eq!(store.parent(b), Some(BlockId::GENESIS));
    }

    /// `snapshot` rests on quiescence: an allocated id whose mint has
    /// not landed panics the snapshot instead of being skipped, and once
    /// the mint lands the same store snapshots whole.
    #[test]
    fn snapshot_requires_quiescence() {
        let store = ShardedStore::with_shards(1);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let store_ref = &store;
            let straggler = s.spawn(move || {
                store_ref.mint_checked(
                    BlockId::GENESIS,
                    ProcessId(7),
                    0,
                    3,
                    9,
                    Payload::Opaque(9),
                    |_| {
                        let _ = rx.recv(); // stall mid-mint, id allocated
                        true
                    },
                )
            });
            while store.block_count() < 2 {
                std::thread::yield_now();
            }
            let c = store.mint(BlockId::GENESIS, ProcessId(0), 0, 1, 1, Payload::Empty);
            let live = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.snapshot()));
            let err = live.expect_err("a half-minted id panics the snapshot");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted assert message");
            assert!(msg.contains("quiescence"), "{msg}");
            tx.send(()).unwrap();
            let (sid, ok) = straggler.join().unwrap();
            assert!(ok);
            assert_eq!(sid, BlockId(1));
            let snap = store.snapshot();
            assert_eq!(snap.block_count(), 3);
            for id in 0..3 {
                assert_eq!(snap.meta(BlockId(id)), store.meta(BlockId(id)));
            }
            assert_eq!(snap.children(BlockId::GENESIS), &[sid, c], "id order");
        });
    }

    #[test]
    fn tree_watermark_flattens_the_committed_prefix() {
        let bt = ConcurrentBlockTree::with_config(
            4,
            FinalityWatermark::new(16),
            LongestChain,
            AcceptAll,
        );
        assert!(bt.store().flatten_capable());
        for i in 0..200u64 {
            bt.append(CandidateBlock::simple(ProcessId(0), i)).unwrap();
        }
        let target = bt.store().flatten_target();
        assert!(target > 0, "the watermark advanced");
        assert_eq!(
            bt.store().flattened_count(),
            target,
            "the per-publication budget keeps up with sequential appends"
        );
        let snap = bt.snapshot_store();
        for id in 0..snap.block_count() as u32 {
            assert_eq!(bt.store().meta(BlockId(id)), snap.meta(BlockId(id)));
            assert_eq!(bt.store().block(BlockId(id)), snap.block(BlockId(id)));
        }
        assert_eq!(bt.selected_tip(), bt.selected_tip_full_scan());

        let plain = ConcurrentBlockTree::with_config(
            4,
            FinalityWatermark::disabled(),
            LongestChain,
            AcceptAll,
        );
        assert!(!plain.store().flatten_capable());
        for i in 0..40u64 {
            plain
                .append(CandidateBlock::simple(ProcessId(0), i))
                .unwrap();
        }
        assert_eq!(plain.store().flattened_count(), 0);
        assert_eq!(plain.store().flatten_target(), 0);
    }
}
