//! The staged commit pipeline: an in-tree MPSC queue batching appends
//! through the selection lock.
//!
//! PR 2's `append` serialized every commit individually through the
//! selection mutex: one lock handoff, one incremental re-selection fold,
//! one boxed-chain publication *per append* — which is why append
//! throughput stayed flat from 1 to 8 threads. The queue below is the
//! *contended* path only: an appender whose `try_lock` on the selection
//! mutex succeeds first time commits inline — its stack request is
//! resolved in place and never pushed, so there is no queue traffic and
//! no cross-thread status roundtrip (see `ConcurrentBlockTree::append`)
//! — and the fixed cost below is paid exactly when a drainer is already
//! at work and batching pays for it. The pipeline splits a contended
//! append into stages:
//!
//! 1. **Mint** (parallel, no locks): the appender mints its candidate
//!    against the published tip and pre-validates it, exactly as before.
//! 2. **Enqueue** (lock-free): the appender pushes a [`CommitReq`] onto
//!    the [`CommitQueue`] — a multi-producer stack whose consumer grabs
//!    the whole pending list with one `swap`.
//! 3. **Drain** (one winner): whichever enqueued appender acquires the
//!    selection mutex — one CAS when uncontended, so the solo-appender
//!    path pays nothing extra — drains the queue as a batch: mint
//!    resolution + membership insert per request, then one selection
//!    scoring pass over every insert (`SelectionFn::score_inserts` +
//!    `apply_partial`, see `crate::selection`) and a *single* chain
//!    publication for the whole batch. Contended appenders park on the
//!    mutex (no spin convoy); the incumbent drainer usually resolves
//!    them before they wake, and a woken appender that is still pending
//!    becomes the next drainer for whatever queued meanwhile — a
//!    combining lock, with no dedicated committer thread to wake, park,
//!    or shut down.
//!
//! Request nodes live on the enqueueing appender's stack: the appender
//! only returns after the drainer publishes the batch and resolves the
//! request (`status` stored `Release`, polled `Acquire`), and the drainer
//! never touches a request after resolving it — so the node's lifetime
//! covers every access without any allocation per append.
//!
//! The linearization point of a batched append is its resolution inside
//! the drain (under the selection lock, against the tree state at that
//! instant); the publish-before-respond contract is preserved because
//! statuses are stored only *after* the batch's publication swap. The
//! recorded-history checkers (Wing–Gong, windowed, LMR, commit-log
//! replay) run unchanged over the batched path — they are the oracle
//! that this restructuring changed nothing observable.
//!
//! Durability (PR 7) rides the same cadence: on a durable tree (see
//! [`crate::wal`] and `ConcurrentBlockTree::open_durable`) the WAL
//! append + fsync sit at the top of the publication step, so one
//! `fdatasync` covers the entire drained batch — group commit falls out
//! of the one-publication-per-batch rule for free — and the
//! publish-before-respond contract is strengthened to persist-then-ack:
//! statuses (and every decide-path wakeup downstream of them) are
//! stored only after the batch's records are on disk.

use crate::ids::BlockId;
use crate::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::ptr;

const PENDING: u32 = 0;
const COMMITTED: u32 = 1;
const REJECTED: u32 = 2;
/// The tree's WAL was poisoned before this request's batch persisted:
/// the commit was *not* made durable and must not be reported as
/// committed — the owner surfaces a `DurabilityError` instead.
const POISONED: u32 = 3;

/// Outcome of a resolved [`CommitReq`], as seen by its polling owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Polled {
    /// Committed (and, on a durable tree, persisted) as this id.
    Committed(BlockId),
    /// Rejected by the validity predicate (a legitimate answer).
    Rejected,
    /// Never persisted: the tree degraded before this batch's group
    /// commit. The owner must report a durability error, not an ack.
    Poisoned,
}

/// One in-flight append: the optimistic mint plus the race context the
/// drainer resolves it against.
///
/// The candidate itself is *not* carried: its payload was moved into the
/// arena by the optimistic mint, and the drainer's re-mint path (the only
/// consumer that ever needs it again) reads the immutable fields back
/// from that arena orphan — so an append allocates nothing per request
/// and clones nothing on the happy path.
pub(crate) struct CommitReq {
    /// Intrusive link, owned by the queue between `push` and `take_all`.
    next: AtomicPtr<CommitReq>,
    /// The optimistic mint (already in the arena, not yet a member).
    pub minted: BlockId,
    /// The published tip the mint chained to.
    pub parent: BlockId,
    /// Whether `P` accepted the optimistic mint.
    pub prevalidated: bool,
    /// The candidate's nonce — the one immutable input a re-mint cannot
    /// recover from the arena orphan (blocks fold it into the digest but
    /// do not store it).
    pub nonce: u64,
    /// PENDING / COMMITTED / REJECTED.
    status: AtomicU32,
    /// The committed id (meaningful once status is COMMITTED).
    result: AtomicU32,
}

impl CommitReq {
    pub fn new(minted: BlockId, parent: BlockId, prevalidated: bool, nonce: u64) -> Self {
        CommitReq {
            next: AtomicPtr::new(ptr::null_mut()),
            minted,
            parent,
            prevalidated,
            nonce,
            status: AtomicU32::new(PENDING),
            result: AtomicU32::new(0),
        }
    }

    /// Publishes the outcome. The drainer must not touch the request
    /// after this call — the enqueueing appender is free to return (and
    /// pop the node's stack frame) the moment the status lands.
    pub fn resolve(&self, outcome: Option<BlockId>) {
        match outcome {
            Some(id) => {
                // relaxed: the Release store of `status` below orders this
                // payload write before any Acquire reader of COMMITTED.
                self.result.store(id.0, Ordering::Relaxed);
                self.status.store(COMMITTED, Ordering::Release);
            }
            None => self.status.store(REJECTED, Ordering::Release),
        }
    }

    /// Resolves the request as never-persisted (see [`Polled::Poisoned`]).
    /// Same touch-nothing-after contract as [`resolve`](Self::resolve).
    pub fn resolve_poisoned(&self) {
        self.status.store(POISONED, Ordering::Release);
    }

    /// `None` while pending, `Some(outcome)` once resolved.
    pub fn poll(&self) -> Option<Polled> {
        match self.status.load(Ordering::Acquire) {
            PENDING => None,
            // relaxed: the Acquire load of COMMITTED above synchronizes
            // with resolve()'s Release store, making `result` visible.
            COMMITTED => Some(Polled::Committed(BlockId(
                self.result.load(Ordering::Relaxed),
            ))),
            POISONED => Some(Polled::Poisoned),
            _ => Some(Polled::Rejected),
        }
    }
}

/// Lock-free multi-producer commit queue with whole-batch consumption.
///
/// Producers push with a CAS on `head` (a Treiber push); the drainer
/// takes the entire pending list with a single `swap(null)` and restores
/// FIFO order by reversing — after the swap it owns every node
/// exclusively, so no stub nodes or mid-queue races exist. Fairness
/// within a batch follows enqueue order.
pub(crate) struct CommitQueue {
    head: AtomicPtr<CommitReq>,
    /// Drains that found at least one request.
    drains: AtomicU64,
    /// Requests resolved across all drains.
    drained: AtomicU64,
    /// Largest single batch.
    max_batch: AtomicU64,
}

impl CommitQueue {
    pub fn new() -> Self {
        CommitQueue {
            head: AtomicPtr::new(ptr::null_mut()),
            drains: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        }
    }

    /// Enqueues `req`.
    ///
    /// # Safety
    ///
    /// `req` must stay valid until [`CommitReq::resolve`] runs for it —
    /// guaranteed by the append protocol: the owner blocks on
    /// [`CommitReq::poll`] and the node is removed from the queue (by
    /// `take_all`) before any drainer dereferences it.
    pub unsafe fn push(&self, req: *const CommitReq) {
        let node = req as *mut CommitReq;
        loop {
            // relaxed: stale head snapshots only cost a CAS retry.
            let head = self.head.load(Ordering::Relaxed);
            // relaxed: the `next` link is published by the Release CAS.
            (*node).next.store(head, Ordering::Relaxed);
            if self
                .head
                // relaxed: failure ordering — a failed attempt publishes
                // nothing and just retries the loop.
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Takes every pending request, oldest first. The caller owns the
    /// returned nodes until it resolves them.
    pub fn take_all(&self) -> Vec<*const CommitReq> {
        // Empty-queue fast path: the inline commit path probes the queue
        // on every uncontended append, and a plain load keeps that probe
        // off the RMW path (a swap dirties the line even when null).
        if self.head.load(Ordering::Acquire).is_null() {
            return Vec::new();
        }
        let mut node = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        let mut batch: Vec<*const CommitReq> = Vec::new();
        while !node.is_null() {
            batch.push(node as *const CommitReq);
            // SAFETY: the swap transferred exclusive ownership of the
            // whole list to this caller; nodes are alive per `push`'s
            // contract (their owners are still polling).
            // relaxed: the Acquire swap above saw each pusher's Release
            // CAS, which ordered its `next` store before the handoff.
            node = unsafe { (*node).next.load(Ordering::Relaxed) };
        }
        batch.reverse();
        if !batch.is_empty() {
            // relaxed: observability counters — read only by stats(), no
            // ordering with the drained payloads required.
            self.drains.fetch_add(1, Ordering::Relaxed);
            self.drained
                .fetch_add(batch.len() as u64, Ordering::Relaxed); // relaxed: stats counter
            self.max_batch
                .fetch_max(batch.len() as u64, Ordering::Relaxed); // relaxed: stats counter
        }
        batch
    }

    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            // relaxed: approximate observability snapshot; counters are
            // independent and need no ordering with each other.
            batches: self.drains.load(Ordering::Relaxed),
            batched_appends: self.drained.load(Ordering::Relaxed), // relaxed: stats snapshot
            max_batch: self.max_batch.load(Ordering::Relaxed),     // relaxed: stats snapshot
            inline_appends: 0,
            score_ns: 0,
            publish_ns: 0,
            drain_lock_ns: 0,
        }
    }
}

/// Observability for the staged pipeline (reported by the benchmark's
/// `concurrent.*` per-layer metrics).
///
/// The `*_ns` counters decompose where commit time goes under the
/// two-stage pipeline — `drain_lock_ns` is wall time holding the
/// selection (stage-1) lock, `score_ns` the slice of it spent in
/// selection scoring, `publish_ns` wall time holding the publication
/// (stage-2) lock — so the bench can report the in-lock share of a
/// contended drain and prove the publication critical section shrank.
/// One timer rule governs all three: they clock exactly the commit
/// episodes that drained queued requests, i.e. the work behind
/// `batched_appends`. Episodes that took nothing off the queue —
/// uncontended inline appends and grafts — run unclocked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Non-empty drain passes.
    pub batches: u64,
    /// Appends resolved through the queue.
    pub batched_appends: u64,
    /// Largest batch resolved in one drain.
    pub max_batch: u64,
    /// Appends committed on the uncontended inline fast path — no queue,
    /// no status roundtrip (filled in by the tree; the queue itself never
    /// sees these).
    pub inline_appends: u64,
    /// Wall nanoseconds spent in selection scoring (stage 1, outside the
    /// publication lock) in episodes that drained queued requests — a
    /// slice of `drain_lock_ns` (filled in by the tree).
    pub score_ns: u64,
    /// Wall nanoseconds holding the publication lock (stage 2: WAL group
    /// commit + chain splice + pointer swap) in episodes that drained
    /// queued requests (filled in by the tree).
    pub publish_ns: u64,
    /// Wall nanoseconds holding the selection (stage-1) lock in episodes
    /// that drained queued requests (filled in by the tree).
    pub drain_lock_ns: u64,
}

impl PipelineStats {
    /// Mean appends per commit batch. An inline commit is a batch of
    /// size 1 — counting it keeps the series comparable across thread
    /// counts (a solo appender commits everything inline and used to
    /// report 0.00 here).
    pub fn mean_batch(&self) -> f64 {
        let batches = self.batches + self.inline_appends;
        if batches == 0 {
            0.0
        } else {
            (self.batched_appends + self.inline_appends) as f64 / batches as f64
        }
    }
}

/// The finality watermark: how deep below the published tip a block must
/// sit before the storage layer may treat it as final and flatten it into
/// the immutable slab tier (see `ShardedStore::flatten_some`).
///
/// This is a *storage* policy, not a semantic one — a reorg past the
/// watermark stays correct (flattened reads are bit-identical and frozen
/// child lists keep absorbing late children), it just means the flattened
/// prefix briefly contains blocks the selection abandoned. The depth
/// trades resident spine memory against that risk window; `depth == 0`
/// disables flattening entirely.
///
/// Each publication maps the fresh chain to an **id-space bound** via
/// [`target_for`](Self::target_for): ids are minted parent-first, so every
/// id at or below the id of the block `depth` links behind the tip is an
/// ancestor-or-orphan of the finalized prefix. The bound is advanced with
/// a `fetch_max`, so the watermark is monotone even across reorgs that
/// shorten the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinalityWatermark {
    depth: u32,
}

impl FinalityWatermark {
    /// A watermark `depth` links below the published tip.
    pub const fn new(depth: u32) -> Self {
        FinalityWatermark { depth }
    }

    /// Flattening disabled: no target is ever produced.
    pub const fn disabled() -> Self {
        FinalityWatermark { depth: 0 }
    }

    /// Whether this watermark ever produces a flatten target.
    pub const fn is_enabled(&self) -> bool {
        self.depth > 0
    }

    /// The configured depth (0 = disabled).
    pub const fn depth(&self) -> u32 {
        self.depth
    }

    /// The exclusive id bound of the finalized prefix for a just-published
    /// chain (`ids` = genesis..tip), or `None` while the chain is shorter
    /// than the depth (or flattening is disabled).
    pub fn target_for(&self, ids: &[BlockId]) -> Option<u32> {
        if self.depth == 0 || ids.len() <= self.depth as usize {
            return None;
        }
        Some(ids[ids.len() - 1 - self.depth as usize].0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(nonce: u64) -> CommitReq {
        CommitReq::new(BlockId(nonce as u32 + 1), BlockId::GENESIS, true, nonce)
    }

    #[test]
    fn take_all_preserves_enqueue_order() {
        let q = CommitQueue::new();
        let (a, b, c) = (req(0), req(1), req(2));
        // SAFETY: the requests are stack locals that outlive every queue
        // operation in this test.
        unsafe {
            q.push(&a);
            q.push(&b);
            q.push(&c);
        }
        let batch = q.take_all();
        assert_eq!(batch.len(), 3);
        // SAFETY: the pointers come from the live locals pushed above.
        assert_eq!(unsafe { (*batch[0]).minted }, a.minted);
        assert_eq!(unsafe { (*batch[1]).minted }, b.minted); // SAFETY: as above
        assert_eq!(unsafe { (*batch[2]).minted }, c.minted); // SAFETY: as above
        assert!(q.take_all().is_empty(), "queue drained");
        let stats = q.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_appends, 3);
        assert_eq!(stats.max_batch, 3);
    }

    #[test]
    fn resolve_and_poll_round_trip() {
        let r = req(7);
        assert_eq!(r.poll(), None);
        r.resolve(Some(BlockId(42)));
        assert_eq!(r.poll(), Some(Polled::Committed(BlockId(42))));
        let r2 = req(8);
        r2.resolve(None);
        assert_eq!(r2.poll(), Some(Polled::Rejected));
        let r3 = req(9);
        r3.resolve_poisoned();
        assert_eq!(r3.poll(), Some(Polled::Poisoned));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "yield-loop timing stress; the modelcheck suite covers the push/drain races"
    )]
    fn concurrent_producers_lose_no_requests() {
        let q = CommitQueue::new();
        let reqs: Vec<Vec<CommitReq>> = (0..4)
            .map(|t| (0..100).map(|i| req((t as u64) << 32 | i)).collect())
            .collect();
        let taken = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for thread_reqs in &reqs {
                let q = &q;
                s.spawn(move || {
                    for r in thread_reqs {
                        // SAFETY: `reqs` outlives the scope; nodes stay
                        // valid for the whole test.
                        unsafe { q.push(r) };
                    }
                });
            }
            let (q, taken) = (&q, &taken);
            s.spawn(move || {
                // Concurrent drains while producers push.
                for _ in 0..50 {
                    let batch = q.take_all();
                    taken
                        .lock()
                        .unwrap()
                        .extend(batch.iter().map(|&p| p as usize));
                    std::thread::yield_now();
                }
            });
        });
        // Final sweep after all producers joined.
        let batch = q.take_all();
        taken
            .lock()
            .unwrap()
            .extend(batch.iter().map(|&p| p as usize));
        let mut seen = taken.into_inner().unwrap();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 400, "every pushed request drained exactly once");
    }

    #[test]
    fn watermark_target_is_depth_behind_the_tip() {
        let ids: Vec<BlockId> = (0..10).map(BlockId).collect();
        let w = FinalityWatermark::new(3);
        // Tip is ids[9]; three links back is ids[6]; bound is exclusive.
        assert_eq!(w.target_for(&ids), Some(7));
        // Exactly depth+1 blocks: only the root is final.
        assert_eq!(w.target_for(&ids[..4]), Some(1));
        // Chains not longer than the depth produce no target.
        assert_eq!(w.target_for(&ids[..3]), None);
        assert_eq!(w.target_for(&ids[..1]), None);
        assert_eq!(FinalityWatermark::new(1).target_for(&ids), Some(9));
    }

    #[test]
    fn disabled_watermark_never_targets() {
        let ids: Vec<BlockId> = (0..100).map(BlockId).collect();
        let w = FinalityWatermark::disabled();
        assert!(!w.is_enabled());
        assert_eq!(w.depth(), 0);
        assert_eq!(w.target_for(&ids), None);
    }
}
