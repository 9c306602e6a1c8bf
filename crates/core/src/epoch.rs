//! Epoch-based reclamation: grace periods for lock-free readers.
//!
//! The concurrent BT-ADT publishes its selected chain through an atomic
//! pointer (`crate::concurrent`). Readers dereference that pointer without
//! any lock, so the writer may never free a swapped-out snapshot while a
//! reader might still be looking at it. PR 2 solved this by *never*
//! freeing (retire-until-drop) — correct, but one leaked box per commit.
//! This module supplies the missing piece: a small quiescent-state /
//! epoch-reclamation domain, vendored in-tree like the other shims (no
//! external crates).
//!
//! # Protocol
//!
//! * The domain keeps a **global epoch** `G` (63-bit, wrapping) and a
//!   fixed array of cache-line-padded **reader slots**.
//! * A reader calls [`EpochDomain::pin`] before touching any protected
//!   pointer: the returned [`Guard`] claims a free slot and publishes the
//!   current epoch in it (a `SeqCst` RMW, re-validated with `SeqCst`
//!   loads), and clears the slot on drop. Pins are cheap — one CAS on a slot that is
//!   effectively thread-private (per-thread start hint, 128-byte padding),
//!   so concurrent readers do **not** bounce a shared cache line the way a
//!   shared `Arc` refcount does.
//! * A writer that unlinks an object calls [`EpochDomain::retire`] (or
//!   [`EpochDomain::defer`]): the object joins a garbage bag tagged with
//!   the epoch read *after* the unlink. Bags live in [`LOCAL_BAG_SLOTS`]
//!   thread-hinted slots, so a retirer locks a mutex that is effectively
//!   its own — retiring never contends with other retirers or with a
//!   concurrent sweep (the commit pipeline retires on every publication;
//!   a global garbage mutex was measurable on that path).
//! * [`EpochDomain::try_reclaim`] advances `G` by one when every pinned
//!   slot already carries `G`, and frees every bag at least
//!   [`GRACE_EPOCHS`] (= 2) epochs old. The two-epoch grace period is the
//!   standard safety margin: a reader pinned in epoch `e` can only hold
//!   pointers unlinked in `e - 1` or later, and `G` cannot advance twice
//!   past a live pin — so by the time a bag's age reaches 2, every reader
//!   that could have seen its contents has unpinned at least once. (Every
//!   racy access on the pin and advance paths is `SeqCst`, so the model's
//!   single total order closes the one-advance race where a just-published
//!   pin is missed by a concurrent scan.)
//!
//! A pinned reader never blocks writers or other readers — it only delays
//! *reclamation*. Conversely `pin` never waits on writers: the slot claim
//! spins only when more threads hold guards simultaneously than there are
//! slots (256 by default).
//!
//! Epochs wrap at 2^63. All comparisons are age-based
//! (`wrapping_sub` masked to 63 bits), so the protocol survives a full
//! wrap — exercised by the unit tests via [`EpochDomain::with_config`].

use crate::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// Reader slots per domain. More slots than the workload has
/// simultaneously pinned readers costs only idle memory; fewer makes
/// `pin` spin until a slot frees.
pub const DEFAULT_READER_SLOTS: usize = 256;

/// Retire-bag slots per domain. Retirers hash to a slot by the same
/// per-thread hint the reader slots use, so in steady state each retiring
/// thread owns "its" bag mutex outright — [`EpochDomain::retire`] never
/// touches a lock another thread is holding, which is what keeps
/// reclamation bookkeeping off the commit pipeline's drain path (two
/// appenders finishing simultaneously used to collide on one global
/// garbage mutex: one retiring, one sweeping).
/// Model builds shrink the slot count: every bag mutex a sweep visits is
/// a schedule point, and 16 slots would multiply the explored state
/// space without adding any interleaving the 2-slot version misses.
pub const LOCAL_BAG_SLOTS: usize = if cfg!(btadt_model) { 2 } else { 16 };

/// Bags this many epochs old are safe to free (see the module docs).
pub const GRACE_EPOCHS: u64 = 2;

/// Epochs live in 63 bits: slot values encode `(epoch << 1) | 1` so the
/// zero word can mean "unpinned" even across an epoch wrap.
const EPOCH_MASK: u64 = (1 << 63) - 1;

/// Age of `epoch` relative to `global`, wrap-safe (bags are always
/// retired at or before the current global epoch, so the modular
/// distance is the true age).
#[inline]
fn age(global: u64, epoch: u64) -> u64 {
    global.wrapping_sub(epoch) & EPOCH_MASK
}

/// One reader slot, padded to its own cache line pair so pins by
/// different threads never share a line.
#[repr(align(128))]
struct Slot(AtomicU64);

/// A deferred drop. The common case — retiring a boxed value — is stored
/// as a raw pointer plus a monomorphized drop shim, so the *retire path
/// allocates nothing*; arbitrary closures (rare) still box.
enum Deferred {
    /// `Box<T>` turned raw; dropped by the paired shim. The pointer came
    /// from `Box::into_raw` in [`EpochDomain::retire`], which also makes
    /// it safe to send across threads (the boxed `T: Send`).
    // SAFETY: the unsafe shim is only ever the monomorphized drop for the
    // exact `T` the pointer was constructed with.
    Ptr(*mut (), unsafe fn(*mut ())),
    /// As `Ptr`, but the shim hands the box to a [`RecycleBin`] (the
    /// third word) instead of the allocator — see
    /// [`EpochDomain::retire_box_recycling`].
    // SAFETY: as `Ptr`; the third word is the bin the shim was paired with.
    Recycle(*mut (), unsafe fn(*mut (), *const ()), *const ()),
    Closure(Box<dyn FnOnce() + Send>),
}

// SAFETY: `Ptr` is only ever constructed from `Box<T: Send>` (see
// `retire`), and the pointer is owned uniquely by the bag until dropped.
unsafe impl Send for Deferred {}

impl Deferred {
    fn run(self) {
        match self {
            // SAFETY: constructed from `Box::into_raw` with the matching
            // concrete type's drop shim; run exactly once.
            Deferred::Ptr(p, drop_fn) => unsafe { drop_fn(p) },
            // SAFETY: per `retire_box_recycling`'s contract the bin
            // behind `ctx` outlives the domain, hence this call.
            Deferred::Recycle(p, shim, ctx) => unsafe { shim(p, ctx) },
            Deferred::Closure(f) => f(),
        }
    }
}

/// A bounded stash of spare boxes, fed by
/// [`EpochDomain::retire_box_recycling`] once each box's grace period has
/// passed and drained by whoever publishes next — on the commit hot path
/// this turns the per-publication `malloc`/`free` round trip (one boxed
/// snapshot per append, uncontended) into a mutex-guarded `Vec` pop/push.
pub struct RecycleBin<T> {
    spares: Mutex<Vec<Box<T>>>,
    cap: usize,
}

impl<T> RecycleBin<T> {
    /// A bin that keeps at most `cap` spares (beyond that, boxes fall
    /// back to the allocator).
    pub fn new(cap: usize) -> Self {
        RecycleBin {
            spares: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// Pops a spare, if any. The box still holds its old value — callers
    /// overwrite it (`*b = new_value`).
    pub fn take(&self) -> Option<Box<T>> {
        self.spares.lock().pop()
    }

    fn put(&self, value: Box<T>) {
        let mut spares = self.spares.lock();
        if spares.len() < self.cap {
            spares.push(value);
        }
    }
}

/// # Safety
///
/// `p` must come from `Box::<T>::into_raw` and `ctx` from a
/// `&RecycleBin<T>` that outlives the call (the
/// `retire_box_recycling` contract). Called at most once per pointer.
unsafe fn recycle_shim<T>(p: *mut (), ctx: *const ()) {
    // SAFETY: the function's contract — `p` is an unaliased box of `T`.
    let value = unsafe { Box::from_raw(p as *mut T) };
    // SAFETY: the function's contract — the bin behind `ctx` is alive.
    let bin = unsafe { &*(ctx as *const RecycleBin<T>) };
    bin.put(value);
}

/// # Safety
///
/// `p` must come from `Box::<T>::into_raw` (see `retire`); called at
/// most once per pointer.
unsafe fn drop_box_shim<T>(p: *mut ()) {
    // SAFETY: the function's contract — `p` is an unaliased box of `T`.
    drop(unsafe { Box::from_raw(p as *mut T) });
}

/// Garbage retired during one epoch.
struct Bag {
    epoch: u64,
    items: Vec<Deferred>,
    bytes: usize,
}

#[derive(Default)]
struct Garbage {
    bags: VecDeque<Bag>,
}

/// One retire-bag slot, padded so two threads retiring into neighbouring
/// slots never share a cache line.
#[repr(align(128))]
#[derive(Default)]
struct LocalBags(Mutex<Garbage>);

/// An epoch-reclamation domain: one global epoch, a slot array for
/// readers, and per-thread deferred-drop bag slots for writers.
///
/// The domain does not spawn threads and holds no locks while readers
/// pin; garbage lives in [`LOCAL_BAG_SLOTS`] thread-hinted bag slots, so
/// a retiring writer takes only a mutex no other thread is using —
/// concurrent retirers, and retirers racing a sweep, no longer serialize
/// on one global garbage lock.
pub struct EpochDomain {
    global: AtomicU64,
    slots: Box<[Slot]>,
    /// One past the highest slot index ever claimed: advance scans stop
    /// here, so the cost of `try_advance` tracks the number of reader
    /// threads the domain has actually seen, not the slot capacity.
    slots_high: AtomicUsize,
    locals: Box<[LocalBags]>,
    /// Bytes currently parked in bags (as reported by retire callers).
    retired_bytes: AtomicUsize,
    /// High-water mark of `retired_bytes` — the boundedness witness the
    /// churn stress and the benchmark's `epoch.retired_bytes_peak` report.
    retired_bytes_peak: AtomicUsize,
    /// Items currently parked in bags.
    pending_items: AtomicUsize,
    /// Items freed over the domain's lifetime.
    reclaimed_items: AtomicU64,
}

impl EpochDomain {
    /// A domain with [`DEFAULT_READER_SLOTS`] slots starting at epoch 0.
    pub fn new() -> Self {
        EpochDomain::with_config(DEFAULT_READER_SLOTS, 0)
    }

    /// A domain with an explicit slot count and start epoch (the start
    /// epoch is how the tests drive the protocol across a 63-bit wrap).
    pub fn with_config(slots: usize, start_epoch: u64) -> Self {
        assert!(slots > 0, "need at least one reader slot");
        EpochDomain {
            global: AtomicU64::new(start_epoch & EPOCH_MASK),
            slots: (0..slots).map(|_| Slot(AtomicU64::new(0))).collect(),
            slots_high: AtomicUsize::new(0),
            locals: (0..LOCAL_BAG_SLOTS).map(|_| LocalBags::default()).collect(),
            retired_bytes: AtomicUsize::new(0),
            retired_bytes_peak: AtomicUsize::new(0),
            pending_items: AtomicUsize::new(0),
            reclaimed_items: AtomicU64::new(0),
        }
    }

    /// Pins the current epoch, claiming a reader slot. Protected pointers
    /// loaded while the guard lives stay allocated until after it drops.
    /// Nested pins from one thread claim independent slots and are safe
    /// in any drop order.
    ///
    /// # Panics
    ///
    /// When this thread already holds at least as many live guards *on
    /// this domain* as the domain has slots and no slot is free: waiting
    /// would deadlock on our own pins, so the bug (a loop accumulating
    /// `Guard`s / `ChainView`s instead of dropping or upgrading them) is
    /// reported instead of spinning silently forever. Pins held on other
    /// domains never trigger this.
    pub fn pin(&self) -> Guard<'_> {
        let n = self.slots.len();
        let mut idx = slot_hint() % n;
        let mut probes = 0usize;
        loop {
            let slot = &self.slots[idx].0;
            // relaxed: availability probe only — the SeqCst CAS below is
            // what actually claims the slot (and re-checks it is free).
            if slot.load(Ordering::Relaxed) == 0 {
                // Register the slot in the scan range *before* claiming
                // it: a scan whose watermark load misses this slot is
                // then ordered before the registration — and so before
                // the claim and its re-validation below — i.e. it behaves
                // exactly like a scan from before the pin existed.
                // (Publishing the watermark after the claim left a window
                // where a just-claimed slot was invisible to `try_advance`
                // for as long as the reader stayed preempted, letting the
                // epoch advance arbitrarily far past a live pin.) The
                // watermark never shrinks and steady-state pins re-use
                // their hinted slot, so the fetch_max runs once per slot
                // ever; relaxed: a stale read just repeats it idempotently.
                if self.slots_high.load(Ordering::Relaxed) < idx + 1 {
                    self.slots_high.fetch_max(idx + 1, Ordering::SeqCst);
                }
                // relaxed: an optimistic epoch guess — the re-validation
                // loop after the SeqCst claim repairs any staleness.
                let mut e = self.global.load(Ordering::Relaxed) & EPOCH_MASK;
                if slot
                    // relaxed: failure ordering — a lost claim publishes
                    // nothing and moves on to probe the next slot.
                    .compare_exchange(0, (e << 1) | 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    // No separate fence: the claim is a *SeqCst RMW* and
                    // every racy access it must order against — the
                    // re-validation loads below, `try_advance`'s slot and
                    // epoch scans, the re-publication stores — is SeqCst
                    // too, and the C++20 model's single total order
                    // respects program order among them (an explicit
                    // fence between two SeqCst accesses adds nothing; on
                    // x86 it was a redundant `mfence` on every read).
                    // Protected loads under the guard cannot float above
                    // the claim either: an acquire RMW forbids it.
                    //
                    // Re-validate: the global epoch may have advanced
                    // between the load above and the claim becoming
                    // visible (this thread may have been preempted
                    // mid-pin). A stale slot value is itself *safe* — it
                    // blocks every advance outright — but republishing
                    // the current epoch restores the invariant the
                    // two-epoch grace period is sized for: once `pin`
                    // returns, at most one advance can miss this slot.
                    // The loop terminates because a visible stale slot
                    // stops the epoch from moving further.
                    loop {
                        let g = self.global.load(Ordering::SeqCst) & EPOCH_MASK;
                        if g == e {
                            break;
                        }
                        slot.store((g << 1) | 1, Ordering::SeqCst);
                        e = g;
                    }
                    set_slot_hint(idx);
                    live_pins_inc(self as *const EpochDomain as usize);
                    return Guard {
                        domain: self,
                        idx,
                        _not_send: PhantomData,
                    };
                }
            }
            idx = (idx + 1) % n;
            probes += 1;
            if probes.is_multiple_of(n) {
                // Every slot held by a live guard. If this thread itself
                // holds a domain's worth of guards *on this domain*, no
                // slot can ever free while we wait here — fail loudly
                // rather than livelock.
                let own = live_pins_of(self as *const EpochDomain as usize);
                assert!(
                    own < n,
                    "epoch self-deadlock: this thread holds {own} live \
                     pins on a {n}-slot domain — drop or `to_owned()` \
                     views instead of accumulating them"
                );
                // Held by other threads (or our pins on other domains):
                // wait for one to free.
                std::thread::yield_now();
            }
        }
    }

    /// Retires `value`: it is dropped once every reader pinned at (or
    /// before) this call has unpinned. `bytes` is the caller's estimate of
    /// the heap the value keeps alive, tracked for the boundedness stats.
    ///
    /// Allocation-free on the commit hot path when `value` is already a
    /// `Box` ([`retire_box`](Self::retire_box)); this generic form boxes
    /// once and then rides the same pointer representation.
    pub fn retire<T: Send + 'static>(&self, bytes: usize, value: T) {
        self.retire_box(bytes, Box::new(value));
    }

    /// [`retire`](Self::retire) for an already-boxed value — stores the
    /// raw pointer plus a drop shim, no closure allocation per retire
    /// (the commit pipeline retires one snapshot box per publication;
    /// boxing a closure around each was a second allocation on every
    /// uncontended append).
    pub fn retire_box<T: Send + 'static>(&self, bytes: usize, value: Box<T>) {
        self.push_deferred(
            bytes,
            Deferred::Ptr(Box::into_raw(value) as *mut (), drop_box_shim::<T>),
        );
    }

    /// As [`retire_box`](Self::retire_box), but after the grace period
    /// the box is offered to `bin` for reuse instead of freed — the
    /// allocation-free loop for a hot path that retires one box per
    /// publication and immediately needs a fresh one.
    ///
    /// # Safety
    ///
    /// `bin` must stay alive — **at its current address** — until this
    /// item is reclaimed; in the worst case, until this domain is dropped
    /// (the domain's `Drop` runs every pending item). The deferred item
    /// keeps the raw pointer, so a bin embedded by value in a movable
    /// struct is *not* enough: moving the struct between this call and
    /// reclamation leaves the pointer dangling into the old location.
    /// Satisfy both halves by heap-allocating the bin (e.g.
    /// `Box<RecycleBin<T>>`) in the same struct as the domain, declared
    /// *after* it (fields drop in declaration order, and the box's
    /// contents never move).
    pub unsafe fn retire_box_recycling<T: Send + 'static>(
        &self,
        bytes: usize,
        value: Box<T>,
        bin: &RecycleBin<T>,
    ) {
        self.push_deferred(
            bytes,
            Deferred::Recycle(
                Box::into_raw(value) as *mut (),
                recycle_shim::<T>,
                bin as *const RecycleBin<T> as *const (),
            ),
        );
    }

    /// As [`retire`](Self::retire), for an arbitrary deferred action.
    pub fn defer(&self, bytes: usize, f: impl FnOnce() + Send + 'static) {
        self.push_deferred(bytes, Deferred::Closure(Box::new(f)));
    }

    fn push_deferred(&self, bytes: usize, item: Deferred) {
        // Read the epoch *after* the caller unlinked the object (program
        // order); tagging with this (or any earlier) epoch is safe — the
        // grace period is measured from unlink visibility.
        let e = self.global.load(Ordering::SeqCst);
        {
            // Thread-hinted bag slot: in steady state this mutex is this
            // thread's alone — one uncontended CAS, no line shared with
            // concurrent retirers or sweepers.
            let mut g = self.locals[slot_hint() % self.locals.len()].0.lock();
            match g.bags.back_mut() {
                Some(bag) if bag.epoch == e => {
                    bag.items.push(item);
                    bag.bytes += bytes;
                }
                _ => g.bags.push_back(Bag {
                    epoch: e,
                    items: vec![item],
                    bytes,
                }),
            }
        }
        // relaxed: boundedness accounting only — the bag mutex orders the
        // garbage itself; these counters feed stats and the sweep trigger.
        let now = self.retired_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Load-then-max: the peak only moves on a new high, so the common
        // case is one load instead of a cmpxchg loop per retire.
        // relaxed: stats high-water mark, no ordering needed.
        if self.retired_bytes_peak.load(Ordering::Relaxed) < now {
            self.retired_bytes_peak.fetch_max(now, Ordering::Relaxed); // relaxed: stats peak
        }
        self.pending_items.fetch_add(1, Ordering::Relaxed); // relaxed: sweep-trigger counter
    }

    /// Tries to advance the global epoch (possible iff every pinned slot
    /// already carries it), then frees every bag at least [`GRACE_EPOCHS`]
    /// old. Returns the number of items freed. Never blocks on readers.
    pub fn try_reclaim(&self) -> usize {
        self.try_advance();
        let mut ripe: Vec<Bag> = Vec::new();
        for local in self.locals.iter() {
            let mut garbage = local.0.lock();
            // Load the global epoch *after* acquiring this slot's bag
            // lock. A concurrent `try_reclaim` may advance the epoch
            // between a pre-lock load and the scan, after which a racing
            // `defer` tags a fresh bag with the newer epoch — under a
            // stale `g` that bag's wrap-masked age reads as 2^63-1 and it
            // would be freed with zero grace period while a reader still
            // holds its contents. Loading under the same lock the
            // deferrer held restores the invariant the age computation
            // needs: every bag visible in this slot was tagged from an
            // epoch load ordered before this one, so `age(g, epoch)` is a
            // true, small age. (The load is per-slot for exactly that
            // reason — one pre-loop load would be stale for later slots.)
            let g = self.global.load(Ordering::SeqCst);
            // Bags are pushed in near-epoch order; a racy retire may land
            // one slightly out of place, so scan rather than front-pop.
            let mut i = 0;
            while i < garbage.bags.len() {
                let a = age(g, garbage.bags[i].epoch);
                // Belt and braces: an age in the upper half of the range
                // could only mean a bag tagged *ahead* of `g` — treat it
                // as brand new (not ripe), never as ancient.
                if (GRACE_EPOCHS..=EPOCH_MASK / 2).contains(&a) {
                    ripe.push(garbage.bags.remove(i).expect("index in range"));
                } else {
                    i += 1;
                }
            }
        }
        // Run the deferred drops outside the bag lock.
        let mut freed = 0;
        for bag in ripe {
            // relaxed: boundedness accounting, mirrors the defer-side add.
            self.retired_bytes.fetch_sub(bag.bytes, Ordering::Relaxed);
            freed += bag.items.len();
            for item in bag.items {
                item.run();
            }
        }
        if freed > 0 {
            // relaxed: sweep-trigger/stats counters, no ordering needed.
            self.pending_items.fetch_sub(freed, Ordering::Relaxed);
            self.reclaimed_items
                .fetch_add(freed as u64, Ordering::Relaxed); // relaxed: stats counter
        }
        freed
    }

    /// Drives the full grace period at a *quiescent point* (caller
    /// vouches no pin is live): [`try_reclaim`](Self::try_reclaim)
    /// advances the epoch at most once per call, so `GRACE_EPOCHS + 1`
    /// sweeps age every bag retired before this call past the grace
    /// window and free it. Returns the total items freed. With readers
    /// still pinned this is safe but may leave a residue, exactly like
    /// repeated `try_reclaim` calls.
    pub fn reclaim_quiescent(&self) -> usize {
        let mut freed = 0;
        for _ in 0..=GRACE_EPOCHS {
            freed += self.try_reclaim();
        }
        freed
    }

    /// One epoch-advance attempt: `G → G + 1` iff every active slot is
    /// pinned at `G`.
    fn try_advance(&self) -> bool {
        fence(Ordering::SeqCst);
        let g = self.global.load(Ordering::SeqCst);
        // `slots_high` is a SeqCst watermark bumped *before* a slot's
        // first claim: a scan whose watermark load misses a slot is
        // ordered (in the SeqCst total order) before that slot's
        // registration, claim, and epoch re-validation — equivalent to a
        // scan from before the pin existed. The only advance that can
        // miss a registered, pinned slot is one racing the slot's final
        // epoch store, which is the single miss the two-epoch grace
        // period absorbs. Unclaimed tail slots are provably zero.
        let high = self.slots_high.load(Ordering::SeqCst);
        for slot in self.slots.iter().take(high) {
            let v = slot.0.load(Ordering::SeqCst);
            if v != 0 && (v >> 1) != g {
                return false;
            }
        }
        self.global
            .compare_exchange(
                g,
                g.wrapping_add(1) & EPOCH_MASK,
                Ordering::SeqCst,
                // relaxed: failure ordering — a lost advance race changes
                // nothing; the next sweep simply retries.
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// The current global epoch (63-bit, wrapping).
    pub fn global_epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Number of slots currently pinned.
    pub fn pinned_readers(&self) -> usize {
        let high = self.slots_high.load(Ordering::Acquire);
        self.slots
            .iter()
            .take(high)
            .filter(|s| s.0.load(Ordering::SeqCst) != 0)
            .count()
    }

    /// Items currently awaiting reclamation.
    pub fn pending_items(&self) -> usize {
        self.pending_items.load(Ordering::Relaxed) // relaxed: stats snapshot
    }

    /// Bytes currently awaiting reclamation (as reported by retirers).
    pub fn retired_bytes(&self) -> usize {
        self.retired_bytes.load(Ordering::Relaxed) // relaxed: stats snapshot
    }

    /// High-water mark of [`retired_bytes`](Self::retired_bytes).
    pub fn retired_bytes_peak(&self) -> usize {
        self.retired_bytes_peak.load(Ordering::Relaxed) // relaxed: stats snapshot
    }

    /// Items freed over the domain's lifetime.
    pub fn reclaimed_items(&self) -> u64 {
        self.reclaimed_items.load(Ordering::Relaxed) // relaxed: stats snapshot
    }
}

impl Default for EpochDomain {
    fn default() -> Self {
        EpochDomain::new()
    }
}

impl Drop for EpochDomain {
    fn drop(&mut self) {
        // `&mut self`: no guard can be alive (guards borrow the domain),
        // so everything parked — in every bag slot — is free to go.
        for local in self.locals.iter() {
            let garbage = std::mem::take(&mut *local.0.lock());
            for bag in garbage.bags {
                for item in bag.items {
                    item.run();
                }
            }
        }
    }
}

impl std::fmt::Debug for EpochDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochDomain")
            .field("global_epoch", &self.global_epoch())
            .field("pinned_readers", &self.pinned_readers())
            .field("pending_items", &self.pending_items())
            .field("retired_bytes", &self.retired_bytes())
            .finish()
    }
}

/// An active pin: while it lives, nothing retired at or after the pin is
/// freed. Dropping it releases the slot (readers must not hold guards
/// longer than they need the borrowed data — a parked guard only delays
/// reclamation, never correctness).
pub struct Guard<'d> {
    domain: &'d EpochDomain,
    idx: usize,
    /// Guards are deliberately `!Send`: the slot-hint cache is per
    /// thread, and keeping pins thread-local keeps the reasoning simple.
    _not_send: PhantomData<*mut ()>,
}

impl Guard<'_> {
    /// The epoch this guard pinned.
    pub fn epoch(&self) -> u64 {
        // relaxed: reading our own slot — the owning thread wrote it.
        self.domain.slots[self.idx].0.load(Ordering::Relaxed) >> 1
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.domain.slots[self.idx].0.store(0, Ordering::Release);
        live_pins_dec(self.domain as *const EpochDomain as usize);
    }
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard")
            .field("slot", &self.idx)
            .field("epoch", &self.epoch())
            .finish()
    }
}

thread_local! {
    /// Per-thread starting slot, so repeated pins land on the same
    /// (cached, uncontended) slot. Shared across domains — it is only a
    /// probe hint.
    static SLOT_HINT: Cell<usize> = const { Cell::new(usize::MAX) };

    /// Fast one-entry cache of the live-guard ledger: `(domain, count)`
    /// for the single domain this thread is currently pinning. The first
    /// pin on a *second* domain while this entry is occupied falls back
    /// to `LIVE_PINS`.
    static PIN_FAST: Cell<(usize, usize)> = const { Cell::new((0, 0)) };

    /// Live guards held by this thread, per domain (keyed by domain
    /// address) — overflow of `PIN_FAST`, together they are the
    /// self-deadlock detector in [`EpochDomain::pin`]. Almost always
    /// empty; entries are removed when their count returns to zero, so a
    /// long-lived thread touching many short-lived domains does not
    /// accumulate stale keys.
    static LIVE_PINS: std::cell::RefCell<Vec<(usize, usize)>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn live_pins_inc(domain: usize) {
    // One-entry fast cache: in the overwhelmingly common case a thread
    // pins exactly one domain at a time, and the whole ledger is two
    // `Cell` accesses — the `RefCell<Vec>` path below only runs when a
    // thread interleaves guards on multiple domains.
    let (d, c) = PIN_FAST.get();
    if d == domain {
        PIN_FAST.set((d, c + 1));
        return;
    }
    if c == 0 {
        PIN_FAST.set((domain, 1));
        return;
    }
    LIVE_PINS.with(|pins| {
        let mut pins = pins.borrow_mut();
        if let Some(entry) = pins.iter_mut().find(|(d, _)| *d == domain) {
            entry.1 += 1;
        } else {
            pins.push((domain, 1));
        }
    });
}

fn live_pins_dec(domain: usize) {
    let (d, c) = PIN_FAST.get();
    if d == domain && c > 0 {
        PIN_FAST.set((d, c - 1));
        return;
    }
    LIVE_PINS.with(|pins| {
        let mut pins = pins.borrow_mut();
        let i = pins
            .iter()
            .position(|(d, _)| *d == domain)
            .expect("a live guard was counted at pin time");
        pins[i].1 -= 1;
        if pins[i].1 == 0 {
            pins.swap_remove(i);
        }
    });
}

fn live_pins_of(domain: usize) -> usize {
    let (d, c) = PIN_FAST.get();
    let fast = if d == domain { c } else { 0 };
    fast + LIVE_PINS.with(|pins| {
        pins.borrow()
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    })
}

/// Seeds distinct threads at distinct slots.
static HINT_SEED: AtomicUsize = AtomicUsize::new(0);

/// Model-checking hook: resets the process-global slot-hint seed.
///
/// The explorer runs each interleaving on fresh OS threads (so the
/// `SLOT_HINT` thread-locals start clean), but `HINT_SEED` is a global
/// that would otherwise keep growing across executions and hand later
/// executions different slots — breaking schedule replay. Suites call
/// this at the top of every explored body.
#[cfg(btadt_model)]
pub fn reset_slot_hint_seed() {
    // relaxed: test-only hook, called before any model thread spawns.
    HINT_SEED.store(0, Ordering::Relaxed);
}

fn slot_hint() -> usize {
    SLOT_HINT.with(|h| {
        let v = h.get();
        if v == usize::MAX {
            // relaxed: unique-id handout; no ordering with anything else.
            let v = HINT_SEED.fetch_add(1, Ordering::Relaxed);
            h.set(v);
            v
        } else {
            v
        }
    })
}

fn set_slot_hint(idx: usize) {
    SLOT_HINT.with(|h| h.set(idx));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn count_retire(domain: &EpochDomain, counter: &Arc<AtomicU32>) {
        let c = Arc::clone(counter);
        domain.defer(8, move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn quiescent_reclaim_after_grace_period() {
        let d = EpochDomain::new();
        let freed = Arc::new(AtomicU32::new(0));
        count_retire(&d, &freed);
        // Age 0: nothing freed yet.
        assert_eq!(d.try_reclaim(), 0);
        assert_eq!(freed.load(Ordering::SeqCst), 0);
        // Two more advances push the bag past the grace period.
        assert!(d.try_reclaim() + d.try_reclaim() >= 1);
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        assert_eq!(d.pending_items(), 0);
        assert_eq!(d.reclaimed_items(), 1);
    }

    #[test]
    fn pinned_reader_blocks_reclamation_until_unpin() {
        let d = EpochDomain::new();
        let freed = Arc::new(AtomicU32::new(0));
        let guard = d.pin();
        count_retire(&d, &freed);
        for _ in 0..10 {
            assert_eq!(d.try_reclaim(), 0, "a live pin blocks the grace period");
        }
        assert_eq!(freed.load(Ordering::SeqCst), 0);
        assert_eq!(d.pending_items(), 1);
        drop(guard);
        while d.try_reclaim() == 0 {}
        assert_eq!(freed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_block_independently() {
        let d = EpochDomain::new();
        let freed = Arc::new(AtomicU32::new(0));
        let outer = d.pin();
        let inner = d.pin();
        assert_ne!(outer.idx, inner.idx, "nested pins claim distinct slots");
        assert_eq!(d.pinned_readers(), 2);
        count_retire(&d, &freed);
        // Dropping the inner pin alone must not open the grace period.
        drop(inner);
        for _ in 0..6 {
            assert_eq!(d.try_reclaim(), 0);
        }
        assert_eq!(freed.load(Ordering::SeqCst), 0);
        drop(outer);
        while d.try_reclaim() == 0 {}
        assert_eq!(freed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn epoch_wraps_through_the_63_bit_boundary() {
        // Start just below the wrap point and drive the whole protocol
        // across it: pins, retires, and the grace period all keep working.
        let d = EpochDomain::with_config(8, EPOCH_MASK - 1);
        let freed = Arc::new(AtomicU32::new(0));
        for step in 0..6u64 {
            let g = d.pin();
            count_retire(&d, &freed);
            drop(g);
            d.try_reclaim();
            let _ = step;
        }
        // Everything retired at least two epochs ago must be gone.
        while d.try_reclaim() > 0 {}
        d.try_reclaim();
        assert!(d.global_epoch() < 8, "epoch wrapped to a small value");
        assert!(
            freed.load(Ordering::SeqCst) >= 4,
            "reclamation kept pace across the wrap: {} freed",
            freed.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn reader_pinned_across_many_advances_only_delays() {
        let d = EpochDomain::new();
        let freed = Arc::new(AtomicU32::new(0));
        let guard = d.pin();
        // Other readers come and go; the parked guard pins its own epoch.
        for _ in 0..20 {
            let g2 = d.pin();
            count_retire(&d, &freed);
            drop(g2);
            d.try_reclaim();
        }
        assert_eq!(freed.load(Ordering::SeqCst), 0, "parked pin held the line");
        assert_eq!(d.pending_items(), 20);
        drop(guard);
        while d.pending_items() > 0 {
            d.try_reclaim();
        }
        assert_eq!(freed.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn bytes_accounting_tracks_peak() {
        let d = EpochDomain::new();
        d.retire(100, vec![0u8; 100]);
        d.retire(50, vec![0u8; 50]);
        assert_eq!(d.retired_bytes(), 150);
        assert_eq!(d.retired_bytes_peak(), 150);
        while d.retired_bytes() > 0 {
            d.try_reclaim();
        }
        assert_eq!(d.retired_bytes_peak(), 150, "peak is sticky");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "iteration-heavy stress; the modelcheck suite covers this interleaving space"
    )]
    fn concurrent_pin_unpin_is_exclusive_per_slot() {
        let d = EpochDomain::with_config(4, 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let g = d.pin();
                        assert!(d.pinned_readers() >= 1);
                        drop(g);
                    }
                });
            }
        });
        assert_eq!(d.pinned_readers(), 0);
    }

    #[test]
    #[should_panic(expected = "epoch self-deadlock")]
    fn accumulating_more_pins_than_slots_panics() {
        let d = EpochDomain::with_config(4, 0);
        let _held: Vec<Guard<'_>> = (0..4).map(|_| d.pin()).collect();
        // All four slots belong to this thread: waiting can never
        // succeed, so the fifth pin must fail loudly.
        let _fifth = d.pin();
    }

    #[test]
    fn pins_on_other_domains_do_not_trip_the_self_deadlock_check() {
        let a = EpochDomain::with_config(8, 0);
        let b = EpochDomain::with_config(2, 0);
        // Hold more pins on `a` than `b` has slots.
        let held: Vec<Guard<'_>> = (0..4).map(|_| a.pin()).collect();
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            let b = &b;
            s.spawn(move || {
                let g1 = b.pin();
                let g2 = b.pin();
                tx.send(()).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop((g1, g2));
            });
            rx.recv().unwrap();
            // `b` is full and we hold ≥ |b| guards — but on `a`: this
            // must wait for the other thread, not report a self-deadlock.
            let g = b.pin();
            drop(g);
        });
        drop(held);
        assert_eq!(a.pinned_readers(), 0);
        assert_eq!(b.pinned_readers(), 0);
    }

    /// Regression: `try_reclaim` once loaded the global epoch *before*
    /// taking the bag lock. A concurrent reclaimer could advance the
    /// epoch in that window, a racing `defer` would tag a fresh bag with
    /// the newer epoch, and the stale-`g` scan read the bag's wrap-masked
    /// age as 2^63-1 — freeing it with zero grace period under a live
    /// pin. This test races reclaimers against deferrers and pinned
    /// readers over a shared pointer; the deferred drop poisons the value
    /// first, so a violated grace period fails the reader's assert
    /// instead of passing silently.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "iteration-heavy stress; the modelcheck suite covers this interleaving space"
    )]
    fn racing_reclaimers_never_free_inside_the_grace_period() {
        const MAGIC: u64 = 0xA11C_E0FF_C0FF_EE00;
        const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;
        let d = EpochDomain::new();
        let ptr = AtomicUsize::new(Box::into_raw(Box::new(MAGIC)) as usize);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (d, ptr) = (&d, &ptr);
                s.spawn(move || {
                    for _ in 0..3_000 {
                        let fresh = Box::into_raw(Box::new(MAGIC)) as usize;
                        let old = ptr.swap(fresh, Ordering::AcqRel);
                        // SAFETY: `old` was unlinked by the swap above, so
                        // this deferred drop owns it once the grace ends.
                        d.defer(8, move || unsafe {
                            let p = old as *mut u64;
                            p.write_volatile(POISON);
                            drop(Box::from_raw(p));
                        });
                        // Reclaim on every retire: concurrent reclaimers
                        // are exactly the interleaving that once freed
                        // bags off a stale epoch load.
                        d.try_reclaim();
                    }
                });
            }
            for _ in 0..2 {
                let (d, ptr) = (&d, &ptr);
                s.spawn(move || {
                    for _ in 0..6_000 {
                        let g = d.pin();
                        let p = ptr.load(Ordering::Acquire) as *const u64;
                        // SAFETY: read under a live pin; the writer defers
                        // the free past the grace period.
                        let v = unsafe { p.read_volatile() };
                        assert_eq!(v, MAGIC, "grace period violated under a live pin");
                        drop(g);
                    }
                });
            }
        });
        while d.pending_items() > 0 {
            d.try_reclaim();
        }
        // SAFETY: all threads joined; the final linked box is still owned.
        drop(unsafe { Box::from_raw(ptr.load(Ordering::Acquire) as *mut u64) });
    }

    /// Per-thread bag slots: retirers on many threads (more threads than
    /// slots, forcing some sharing) must lose nothing — every deferred
    /// item is freed exactly once, and quiescent reclamation drains every
    /// slot to zero.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "iteration-heavy stress; the modelcheck suite covers this interleaving space"
    )]
    fn concurrent_retirers_across_bag_slots_drain_fully() {
        let d = EpochDomain::new();
        let freed = Arc::new(AtomicU32::new(0));
        let per_thread = 500u32;
        let threads = super::LOCAL_BAG_SLOTS + 3;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (d, freed) = (&d, &freed);
                s.spawn(move || {
                    for i in 0..per_thread {
                        count_retire(d, freed);
                        if i % 64 == 0 {
                            d.try_reclaim();
                        }
                    }
                });
            }
        });
        while d.pending_items() > 0 {
            d.try_reclaim();
        }
        assert_eq!(freed.load(Ordering::SeqCst), threads as u32 * per_thread);
        assert_eq!(d.retired_bytes(), 0, "byte ledger balances across slots");
        assert_eq!(
            d.reclaimed_items(),
            (threads as u32 * per_thread) as u64,
            "each item freed exactly once"
        );
    }

    #[test]
    fn domain_drop_runs_all_deferred_items() {
        let freed = Arc::new(AtomicU32::new(0));
        {
            let d = EpochDomain::new();
            for _ in 0..5 {
                count_retire(&d, &freed);
            }
        }
        assert_eq!(freed.load(Ordering::SeqCst), 5);
    }
}
