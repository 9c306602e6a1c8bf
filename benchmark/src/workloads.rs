//! The four workloads. Each run sets its workload up `episodes` times
//! (`setup_s` is the median set-up) and splits the measured time evenly
//! among the episodes. In every measured phase exactly two load threads
//! call the library in a closed loop — each call blocks on its ack, as a
//! caller of the library does — until the phase's time is up. Inputs come
//! from seeded tapes generated before timing starts. Output checks run
//! after each phase, outside the timed region.

use crate::hist::Histogram;
use crate::layers;
use crate::spans::{SpanBuf, Tracer};
use btadt_core::block::{Payload, Tx};
use btadt_core::blocktree::CandidateBlock;
use btadt_core::chain::Blockchain;
use btadt_core::commit::FinalityWatermark;
use btadt_core::concurrent::{ConcurrentBlockTree, DEFAULT_FINALITY_DEPTH, DEFAULT_SHARDS};
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::{Ghost, LongestChain, SelectionFn};
use btadt_core::store::BlockView;
use btadt_core::validity::{AcceptAll, ValidityPredicate};
use btadt_core::wal::{Wal, WalConfig};
use btadt_oracle::{Merits, SharedOracle, ThetaOracle};
use btadt_registers::TreeConsensus;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AppendRead,
    ForkGhost,
    DurableAppend,
    Consensus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AppendRead,
        Workload::ForkGhost,
        Workload::DurableAppend,
        Workload::Consensus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AppendRead => "append-read",
            Workload::ForkGhost => "fork-ghost",
            Workload::DurableAppend => "durable-append",
            Workload::Consensus => "consensus",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `FULL` is the benchmark; `SMOKE` keeps every code path but
/// finishes in well under a second, for the unit test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Set-ups per run.
    pub episodes: usize,
    /// Length of the windows measured time is cut into, in ms.
    pub window_ms: u64,
    /// Blocks appended before an `append-read` phase.
    pub prefill: u64,
    /// Blocks appended before a `consensus` phase: the ledger its rounds
    /// extend.
    pub consensus_prefill: u64,
    /// Blocks (one graft in five) in the `fork-ghost` starting tree.
    pub ghost_prefill: u64,
    /// Records `durable-append` writes before the reopen it recovers from.
    pub durable_seed: u64,
    /// Commits after which an episode stops early: a bound on memory.
    pub max_commits: u64,
    /// Blocks replayed onto standalone stores, and commits replayed
    /// through the longest-chain scorer, by the traced run.
    pub replay: usize,
    /// Commits replayed through the GHOST scorer (O(depth) each).
    pub ghost_replay: usize,
    /// Records replayed through a standalone WAL without and with fsync.
    pub wal_replay: usize,
    pub wal_fsync_replay: usize,
    /// The configuration ladder: blocks prefilled per rung, appends timed
    /// per rung, and appends timed on the fsync rung.
    pub ladder_prefill: u64,
    pub ladder_appends: u64,
    pub ladder_fsync_appends: u64,
}

pub const FULL: Sizes = Sizes {
    episodes: 5,
    window_ms: 500,
    prefill: 600_000,
    consensus_prefill: 300_000,
    ghost_prefill: 6_000,
    durable_seed: 200_000,
    max_commits: 3_000_000,
    replay: 200_000,
    ghost_replay: 10_000,
    wal_replay: 20_000,
    wal_fsync_replay: 2_000,
    ladder_prefill: 600_000,
    ladder_appends: 200_000,
    ladder_fsync_appends: 2_000,
};

pub const SMOKE: Sizes = Sizes {
    episodes: 2,
    window_ms: 10,
    prefill: 2_000,
    consensus_prefill: 500,
    ghost_prefill: 200,
    durable_seed: 500,
    max_commits: 100_000,
    replay: 1_000,
    ghost_replay: 200,
    wal_replay: 200,
    wal_fsync_replay: 20,
    ladder_prefill: 500,
    ladder_appends: 300,
    ladder_fsync_appends: 20,
};

impl Sizes {
    pub fn to_json(self) -> String {
        format!(
            "{{\"episodes\":{},\"window_ms\":{},\"prefill\":{},\"consensus_prefill\":{},\"ghost_prefill\":{},\"durable_seed\":{},\
             \"max_commits\":{},\"replay\":{},\"ghost_replay\":{},\"wal_replay\":{},\
             \"wal_fsync_replay\":{},\"ladder_prefill\":{},\"ladder_appends\":{},\
             \"ladder_fsync_appends\":{}}}",
            self.episodes,
            self.window_ms,
            self.prefill,
            self.consensus_prefill,
            self.ghost_prefill,
            self.durable_seed,
            self.max_commits,
            self.replay,
            self.ghost_replay,
            self.wal_replay,
            self.wal_fsync_replay,
            self.ladder_prefill,
            self.ladder_appends,
            self.ladder_fsync_appends
        )
    }
}

pub struct Run<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Scratch directory for WAL files, inside the build's target directory.
    pub work: PathBuf,
    pub tracer: &'a Tracer,
}

/// Counter totals over every measured phase of a run (after − before),
/// the raw material of the per-layer ratios.
#[derive(Default)]
pub struct Deltas {
    pub tree: Counters,
    pub tokens: u64,
    pub proposes: u64,
    pub short_circuits: u64,
    pub visibility_waits: u64,
}

pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The reopen (recovery) part of each durable set-up.
    pub recovery_s: Vec<f64>,
    pub measured_s: f64,
    pub commits: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The full windows of every measured phase. End-to-end metrics are
    /// medians over windows, so interference from other tenants of the
    /// machine moves them only if it lasts through most of the run.
    pub windows: Vec<Window>,
    pub read_ns: Histogram,
    pub lookup_ns: Histogram,
    pub deltas: Deltas,
    /// (commits, seconds) of the untraced and the traced episodes of a
    /// traced run, for the tracing overhead.
    pub untraced: (u64, f64),
    pub traced: (u64, f64),
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            setup_s: Vec::new(),
            recovery_s: Vec::new(),
            measured_s: 0.0,
            commits: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            windows: Vec::new(),
            read_ns: Histogram::new(),
            lookup_ns: Histogram::new(),
            deltas: Deltas::default(),
            untraced: (0, 0.0),
            traced: (0, 0.0),
            layers: BTreeMap::new(),
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Takes in both load threads of a phase that lasted `secs` seconds.
    fn absorb(&mut self, loads: [Load; 2], secs: f64, window: Duration, tracer: &Tracer) {
        let full = (secs / window.as_secs_f64()) as usize;
        for i in 0..full {
            let mut w = Window::new();
            for l in &loads {
                if let Some(lw) = l.windows.get(i) {
                    w.commits += lw.commits;
                    w.latency.merge(&lw.latency);
                }
            }
            self.windows.push(w);
        }
        for l in loads {
            self.read_ns.merge(&l.read);
            self.lookup_ns.merge(&l.lookup);
            self.attempted += l.ops;
            self.failed += l.failed;
            tracer.absorb(l.spans);
        }
    }
}

/// Commits completed in one window of a measured phase, and the latency of
/// every committing call that completed in it.
pub struct Window {
    pub commits: u64,
    pub latency: Histogram,
}

impl Window {
    fn new() -> Self {
        Window {
            commits: 0,
            latency: Histogram::new(),
        }
    }
}

/// Runs every episode of `run.workload`, then (traced runs only) the
/// configuration ladder.
pub fn execute(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    std::fs::create_dir_all(&run.work).expect("create the benchmark's work directory");
    let tr = run.tracer;
    tr.span("run", 0, |root| {
        let phase_secs = run.seconds / run.sizes.episodes as f64;
        for ep in 0..run.sizes.episodes {
            // A traced run leaves its first episode untraced: the gap
            // between the two rates is the tracing overhead.
            let traced = tr.on() && ep > 0;
            let last = ep + 1 == run.sizes.episodes;
            let before = (out.commits, out.measured_s);
            tr.span("episode", root, |id| {
                let ep = Episode {
                    run,
                    index: ep as u64,
                    secs: phase_secs,
                    traced,
                    last,
                    span: id,
                };
                match run.workload {
                    Workload::AppendRead => append_read(&ep, &mut out),
                    Workload::ForkGhost => fork_ghost(&ep, &mut out),
                    Workload::DurableAppend => durable_append(&ep, &mut out),
                    Workload::Consensus => consensus(&ep, &mut out),
                }
            });
            let delta = (out.commits - before.0, out.measured_s - before.1);
            let slot = if traced {
                &mut out.traced
            } else {
                &mut out.untraced
            };
            slot.0 += delta.0;
            slot.1 += delta.1;
        }
        if tr.on() {
            tr.span("ladder", root, |id| layers::ladder(run, id, &mut out));
        }
    });
    let _ = std::fs::remove_dir_all(&run.work);
    out
}

struct Episode<'a> {
    run: &'a Run<'a>,
    index: u64,
    secs: f64,
    traced: bool,
    last: bool,
    span: u64,
}

impl Episode<'_> {
    /// Seeds each input stream from the run seed, the episode and a
    /// per-stream constant.
    fn tape(&self, stream: u64) -> Tape {
        Tape::new(self.run.seed ^ (self.index << 56), stream)
    }

    /// A load thread's recorder; `counts_commits` is false for a thread
    /// whose calls commit nothing of their own.
    fn load(&self, thread: u32, counts_commits: bool) -> Load {
        Load {
            start: Instant::now(),
            window: Duration::from_millis(self.run.sizes.window_ms),
            windows: (0..=(self.secs * 1e3) as u64 / self.run.sizes.window_ms)
                .map(|_| Window::new())
                .collect(),
            counts_commits,
            read: Histogram::new(),
            lookup: Histogram::new(),
            spans: self.run.tracer.local(thread, self.traced),
            ops: 0,
            failed: 0,
            commits: 0,
        }
    }

    fn window(&self) -> Duration {
        Duration::from_millis(self.run.sizes.window_ms)
    }

    fn layers_due(&self) -> bool {
        self.run.tracer.on() && self.last
    }
}

const TAPE_LEN: usize = 1 << 16;

/// A ring of seeded words, generated before timing; op `i` uses cell `i`.
pub struct Tape(Box<[u64]>);

impl Tape {
    pub fn new(seed: u64, stream: u64) -> Tape {
        let s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Tape((0..TAPE_LEN as u64).map(|i| splitmix64_at(s, i)).collect())
    }

    #[inline]
    pub fn at(&self, i: u64) -> u64 {
        self.0[i as usize & (TAPE_LEN - 1)]
    }

    /// A nonce distinct for every `i`.
    #[inline]
    pub fn nonce(&self, i: u64) -> u64 {
        self.at(i) ^ i.rotate_left(40)
    }
}

/// One load thread's measurements, all allocated before the phase starts.
struct Load {
    start: Instant,
    window: Duration,
    windows: Vec<Window>,
    counts_commits: bool,
    read: Histogram,
    lookup: Histogram,
    spans: SpanBuf,
    /// Calls made into the library, and how many failed.
    ops: u64,
    failed: u64,
    commits: u64,
}

impl Load {
    /// Records one committing call; failed calls (`Err`, `Ok(None)`)
    /// count as attempted and failed.
    #[inline]
    fn commit(&mut self, name: &'static str, parent: u64, t0: Instant, t1: Instant, ok: bool) {
        let ns = nanos(t0, t1);
        let w = (nanos(self.start, t1) / self.window.as_nanos() as u64) as usize;
        if let Some(w) = self.windows.get_mut(w) {
            w.latency.record(ns);
            w.commits += (ok && self.counts_commits) as u64;
        }
        if self.ops.is_multiple_of(64) {
            self.spans.record(name, parent, t0, t1);
        }
        self.ops += 1;
        if ok {
            self.commits += 1;
        } else {
            self.failed += 1;
        }
    }

    /// A timed `read()` of the tip and length.
    #[inline]
    fn timed_read<F: SelectionFn, P: ValidityPredicate>(
        &mut self,
        tree: &ConcurrentBlockTree<F, P>,
        parent: u64,
    ) {
        let t0 = Instant::now();
        let v = tree.read();
        black_box((v.tip(), v.len()));
        drop(v);
        let t1 = Instant::now();
        if self.read.count().is_multiple_of(8) {
            self.spans.record("read", parent, t0, t1);
        }
        self.read.record(nanos(t0, t1));
        self.ops += 1;
    }
}

#[inline]
fn nanos(t0: Instant, t1: Instant) -> u64 {
    t1.saturating_duration_since(t0).as_nanos() as u64
}

struct Phase {
    stop: AtomicBool,
    /// Set when load thread 1 has returned.
    done1: AtomicBool,
    start: Barrier,
}

// relaxed: the two flags publish no data — everything a load thread
// records is read only after the thread is joined.
impl Phase {
    #[inline]
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Ends the phase early (a load thread reached `max_commits`).
    fn end(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    #[inline]
    fn t1_done(&self) -> bool {
        self.done1.load(Ordering::Relaxed)
    }
}

/// Runs two load threads for `secs` seconds (or until one of them sets
/// `stop` itself) and returns their results with the phase's wall time,
/// from the start barrier to the later thread's return.
fn run_phase<A: Send, B: Send>(
    secs: f64,
    t1: impl FnOnce(&Phase) -> A + Send,
    t2: impl FnOnce(&Phase) -> B + Send,
) -> (A, B, f64) {
    let ph = Phase {
        stop: AtomicBool::new(false),
        done1: AtomicBool::new(false),
        start: Barrier::new(3),
    };
    std::thread::scope(|s| {
        let ph = &ph;
        let h1 = s.spawn(move || {
            ph.start.wait();
            let a = t1(ph);
            ph.done1.store(true, Ordering::Relaxed);
            a
        });
        let h2 = s.spawn(move || {
            ph.start.wait();
            t2(ph)
        });
        ph.start.wait();
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs);
        while !ph.stopped() {
            let now = Instant::now();
            if now >= end {
                break;
            }
            std::thread::sleep((end - now).min(Duration::from_millis(20)));
        }
        ph.end();
        let a = h1.join().expect("load thread 1 panicked");
        let b = h2.join().expect("load thread 2 panicked");
        (a, b, t0.elapsed().as_secs_f64())
    })
}

/// Appends `n` blocks from one thread (set-up, untimed per call).
pub fn prefill<F: SelectionFn, P: ValidityPredicate>(
    tree: &ConcurrentBlockTree<F, P>,
    n: u64,
    tape: &Tape,
) {
    for i in 0..n {
        let r = tree.append(CandidateBlock::simple(ProcessId(0), tape.nonce(i)));
        assert!(matches!(r, Ok(Some(_))), "prefill append {i} failed: {r:?}");
    }
}

/// A tree's counters: read before and after each phase, and summed
/// (as after − before) over a run.
#[derive(Default)]
pub struct Counters {
    pub batches: u64,
    pub batched_appends: u64,
    pub inline_appends: u64,
    pub drain_lock_ns: u64,
    pub publish_ns: u64,
    pub publications: u64,
    pub minted: u64,
    pub members: u64,
    pub reclaimed: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_checkpoints: u64,
    pub wal_rolled: u64,
}

impl Counters {
    fn of<F: SelectionFn, P: ValidityPredicate>(tree: &ConcurrentBlockTree<F, P>) -> Counters {
        let s = tree.pipeline_stats();
        let w = tree.wal_stats().unwrap_or_default();
        Counters {
            batches: s.batches,
            batched_appends: s.batched_appends,
            inline_appends: s.inline_appends,
            drain_lock_ns: s.drain_lock_ns,
            publish_ns: s.publish_ns,
            publications: tree.commit_generation(),
            minted: tree.store().block_count() as u64,
            members: tree.len() as u64,
            reclaimed: tree.epochs().reclaimed_items(),
            wal_records: w.records,
            wal_bytes: w.bytes,
            wal_fsyncs: w.fsyncs,
            wal_checkpoints: w.checkpoints,
            wal_rolled: w.segments_rolled,
        }
    }

    fn add_delta(&mut self, a: &Counters, b: &Counters) {
        self.batches += b.batches - a.batches;
        self.batched_appends += b.batched_appends - a.batched_appends;
        self.inline_appends += b.inline_appends - a.inline_appends;
        self.drain_lock_ns += b.drain_lock_ns - a.drain_lock_ns;
        self.publish_ns += b.publish_ns - a.publish_ns;
        self.publications += b.publications - a.publications;
        self.minted += b.minted - a.minted;
        self.members += b.members - a.members;
        self.reclaimed += b.reclaimed - a.reclaimed;
        self.wal_records += b.wal_records - a.wal_records;
        self.wal_bytes += b.wal_bytes - a.wal_bytes;
        self.wal_fsyncs += b.wal_fsyncs - a.wal_fsyncs;
        self.wal_checkpoints += b.wal_checkpoints - a.wal_checkpoints;
        self.wal_rolled += b.wal_rolled - a.wal_rolled;
    }
}

/// Measures one phase on `tree`: counters around it, time into the
/// outcome. Returns both threads' results and the phase's length.
fn measure<F: SelectionFn, P: ValidityPredicate, A: Send, B: Send>(
    ep: &Episode,
    out: &mut Outcome,
    tree: &ConcurrentBlockTree<F, P>,
    t1: impl FnOnce(&Phase, u64) -> A + Send,
    t2: impl FnOnce(&Phase, u64) -> B + Send,
) -> (A, B, f64) {
    let before = Counters::of(tree);
    let (a, b, secs) = ep.run.tracer.span("measure", ep.span, |id| {
        run_phase(ep.secs, move |ph| t1(ph, id), move |ph| t2(ph, id))
    });
    out.deltas.tree.add_delta(&before, &Counters::of(tree));
    out.measured_s += secs;
    (a, b, secs)
}

fn timed_setup<T>(ep: &Episode, out: &mut Outcome, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = ep.run.tracer.span("setup", ep.span, |_| f());
    out.setup_s.push(t0.elapsed().as_secs_f64());
    v
}

/// `append-read`: one appender and one reader on the default tree,
/// prefilled far beyond the caches.
fn append_read(ep: &Episode, out: &mut Outcome) {
    let sizes = ep.run.sizes;
    let (pre, appends, heights) = (ep.tape(0), ep.tape(1), ep.tape(2));
    let tree = timed_setup(ep, out, || {
        let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        prefill(&tree, sizes.prefill, &pre);
        tree
    });
    const SAMPLES: usize = 256;
    let ((l1, ()), (l2, samples, bad_lookups), secs) = measure(
        ep,
        out,
        &tree,
        |ph, span| {
            let mut l = ep.load(1, true);
            while !ph.stopped() {
                let cand = CandidateBlock::simple(ProcessId(1), appends.nonce(l.ops));
                let t0 = Instant::now();
                let r = tree.append(cand);
                let t1 = Instant::now();
                l.commit("append", span, t0, t1, matches!(r, Ok(Some(_))));
                if l.commits >= sizes.max_commits {
                    ph.end();
                }
            }
            (l, ())
        },
        |ph, span| {
            let mut l = ep.load(2, true);
            let mut samples: Vec<Blockchain> = Vec::with_capacity(SAMPLES);
            let (mut reads, mut lookups, mut bad) = (0u64, 0u64, 0u64);
            // Runs until the appender finishes: 7 reads, then 1 lookup.
            while !ph.t1_done() {
                if (reads + lookups) % 8 == 7 {
                    let timed = lookups % 8 == 0;
                    let t0 = timed.then(Instant::now);
                    let v = tree.read();
                    let (tip, len) = (v.tip(), v.len());
                    let h = (heights.at(lookups) % len as u64) as u32;
                    let a = tree.store().ancestor_at(tip, h);
                    if let Some(t0) = t0 {
                        let t1 = Instant::now();
                        if lookups % 64 == 0 {
                            l.spans.record("lookup", span, t0, t1);
                        }
                        l.lookup.record(nanos(t0, t1));
                    }
                    if lookups % 64 == 0 && v.ids()[h as usize] != a {
                        bad += 1;
                    }
                    lookups += 1;
                    l.ops += 1;
                } else if reads % 8 == 0 {
                    l.timed_read(&tree, span);
                    reads += 1;
                } else {
                    let v = tree.read();
                    black_box((v.tip(), v.len()));
                    if reads % 4096 == 1 && samples.len() < SAMPLES {
                        samples.push(v.to_owned());
                    }
                    reads += 1;
                    l.ops += 1;
                }
            }
            (l, samples, bad)
        },
    );
    out.commits += l1.commits;
    let appended = l1.commits;
    out.absorb([l1, l2], secs, ep.window(), ep.run.tracer);
    if ep.layers_due() {
        layers::tree_layers(ep.run, ep.span, &tree, out);
    }
    ep.run.tracer.span("check", ep.span, |_| {
        let chain = tree.read_owned();
        let expect = sizes.prefill + appended + 1;
        if chain.len() as u64 != expect {
            out.fail(format!(
                "append-read: read().len() is {} after {} prefilled and {} appended blocks",
                chain.len(),
                sizes.prefill,
                appended
            ));
        }
        for s in &samples {
            if !s.is_prefix_of(&chain) {
                out.fail(
                    "append-read: a chain the reader saw is not a prefix of the final chain".into(),
                );
            }
        }
        if bad_lookups > 0 {
            out.failed += bad_lookups;
            out.errors.push(format!(
                "append-read: {bad_lookups} ancestor_at lookups disagreed with the chain"
            ));
        }
    });
}

/// `fork-ghost`: an appender and a forker (one graft per four appends,
/// under a seeded block among the last 64 of the chain it reads) on a
/// GHOST tree — selection scoring dominates.
fn fork_ghost(ep: &Episode, out: &mut Outcome) {
    let sizes = ep.run.sizes;
    let (pre, appends, forks) = (ep.tape(0), ep.tape(1), ep.tape(3));
    let tree = timed_setup(ep, out, || {
        let tree = ConcurrentBlockTree::new(Ghost::default(), AcceptAll);
        for i in 0..sizes.ghost_prefill {
            let cand = CandidateBlock::simple(ProcessId(0), pre.nonce(i));
            let r = if i % 5 == 4 {
                tree.graft(fork_parent(&tree, pre.at(!i)), cand)
            } else {
                tree.append(cand)
            };
            assert!(
                matches!(r, Ok(Some(_))),
                "fork-ghost prefill {i} failed: {r:?}"
            );
        }
        tree
    });
    let appended = AtomicU64::new(0);
    let (l1, l2, secs) = measure(
        ep,
        out,
        &tree,
        |ph, span| {
            let mut l = ep.load(1, true);
            while !ph.stopped() {
                let cand = CandidateBlock::simple(ProcessId(1), appends.nonce(l.ops));
                let t0 = Instant::now();
                let r = tree.append(cand);
                let t1 = Instant::now();
                l.commit("append", span, t0, t1, matches!(r, Ok(Some(_))));
                // relaxed: a pacing hint for the forker, publishes nothing.
                appended.store(l.commits, Ordering::Relaxed);
                if l.commits >= sizes.max_commits {
                    ph.end();
                }
            }
            l
        },
        |ph, span| {
            let mut l = ep.load(2, true);
            let mut grafts = 0u64;
            while !ph.stopped() {
                // relaxed: pacing only (see the appender).
                if grafts * 4 >= appended.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                    continue;
                }
                let timed = grafts.is_multiple_of(8);
                let t0 = timed.then(Instant::now);
                let parent = fork_parent(&tree, forks.at(grafts));
                if let Some(t0) = t0 {
                    let t1 = Instant::now();
                    if grafts.is_multiple_of(64) {
                        l.spans.record("read", span, t0, t1);
                    }
                    l.read.record(nanos(t0, t1));
                }
                l.ops += 1;
                let cand = CandidateBlock::simple(ProcessId(2), forks.nonce(grafts));
                let t0 = Instant::now();
                let r = tree.graft(parent, cand);
                let t1 = Instant::now();
                l.commit("graft", span, t0, t1, matches!(r, Ok(Some(_))));
                grafts += 1;
            }
            l
        },
    );
    let committed = l1.commits + l2.commits;
    out.commits += committed;
    out.absorb([l1, l2], secs, ep.window(), ep.run.tracer);
    if ep.layers_due() {
        layers::tree_layers(ep.run, ep.span, &tree, out);
    }
    ep.run.tracer.span("check", ep.span, |_| {
        let (tip, full) = (tree.selected_tip(), tree.selected_tip_full_scan());
        if tip != full {
            out.fail(format!(
                "fork-ghost: selected tip {tip} but the full scan selects {full}"
            ));
        }
        let log = tree.commit_log().len() as u64;
        if log != sizes.ghost_prefill + committed {
            out.fail(format!(
                "fork-ghost: commit log holds {log} blocks, expected {} prefilled + {committed}",
                sizes.ghost_prefill
            ));
        }
    });
}

/// The fork point of a graft: a seeded block among the last 64 of the
/// chain `read()` returns.
fn fork_parent<F: SelectionFn, P: ValidityPredicate>(
    tree: &ConcurrentBlockTree<F, P>,
    r: u64,
) -> BlockId {
    let v = tree.read();
    let ids = v.ids();
    let back = (r % ids.len().min(64) as u64) as usize;
    ids[ids.len() - 1 - back]
}

/// `durable-append`: two appenders with 8-transaction payloads on a
/// durable tree recovered from a seeded log; every ack waits for its fsync.
fn durable_append(ep: &Episode, out: &mut Outcome) {
    let sizes = ep.run.sizes;
    let dir = ep.run.work.join(format!("durable-{}", ep.index));
    let _ = std::fs::remove_dir_all(&dir);
    let (pre, tapes) = (ep.tape(0), [ep.tape(4), ep.tape(5)]);
    let open = |config: WalConfig| {
        ConcurrentBlockTree::open_durable(
            DEFAULT_SHARDS,
            FinalityWatermark::new(DEFAULT_FINALITY_DEPTH),
            LongestChain,
            AcceptAll,
            config,
        )
        .expect("open the durable tree")
    };
    let (tree, recovery) = timed_setup(ep, out, || {
        prefill(
            &open(WalConfig::new(&dir).no_fsync()),
            sizes.durable_seed,
            &pre,
        );
        sync_dir(&dir);
        let t0 = Instant::now();
        let tree = open(WalConfig::new(&dir));
        (tree, t0.elapsed().as_secs_f64())
    });
    out.recovery_s.push(recovery);
    let thread = |who: u32, tape: &Tape, ph: &Phase, span: u64| {
        let mut l = ep.load(who, true);
        let mut acked = Vec::with_capacity(1 << 16);
        while !ph.stopped() {
            let i = l.ops;
            let txs = (0..8).map(|j| tx(tape.at(i * 8 + j))).collect();
            let cand = CandidateBlock::simple(ProcessId(who), tape.nonce(i))
                .with_payload(Payload::Transactions(txs));
            let t0 = Instant::now();
            let r = tree.append(cand);
            let t1 = Instant::now();
            l.commit("append", span, t0, t1, matches!(r, Ok(Some(_))));
            if let Ok(Some(id)) = r {
                acked.push(id);
            }
        }
        (l, acked)
    };
    let ((l1, acked1), (l2, acked2), secs) = measure(
        ep,
        out,
        &tree,
        |ph, span| thread(1, &tapes[0], ph, span),
        |ph, span| thread(2, &tapes[1], ph, span),
    );
    out.commits += l1.commits + l2.commits;
    out.absorb([l1, l2], secs, ep.window(), ep.run.tracer);
    if ep.layers_due() {
        layers::tree_layers(ep.run, ep.span, &tree, out);
    }
    let records = ep.run.tracer.span("check", ep.span, |_| {
        let stats = tree.wal_stats().expect("a durable tree has WAL stats");
        if tree.is_poisoned()
            || stats.checkpoint_failures
                + stats.segment_unlink_failures
                + stats.rotation_failures
                + stats.eintr_retries
                > 0
            || stats.last_error.is_some()
        {
            out.fail(format!(
                "durable-append: WAL failure counters are not zero: {stats:?}"
            ));
        }
        drop(tree);
        let (_wal, records) = Wal::open(WalConfig::new(&dir)).expect("reopen the WAL");
        let mut pos = vec![0usize; records.iter().map(|r| r.id.index() + 1).max().unwrap_or(0)];
        for (i, r) in records.iter().enumerate() {
            pos[r.id.index()] = i + 1;
        }
        for (who, acked) in [(1, &acked1), (2, &acked2)] {
            let mut last = 0;
            for id in acked {
                match pos.get(id.index()).copied().unwrap_or(0) {
                    0 => {
                        out.fail(format!(
                            "durable-append: acked {id} of thread {who} was not recovered"
                        ));
                        break;
                    }
                    p if p <= last => {
                        out.fail(format!(
                            "durable-append: thread {who}'s acks recovered out of order at {id}"
                        ));
                        break;
                    }
                    p => last = p,
                }
            }
        }
        records
    });
    if ep.layers_due() {
        let d = &out.deltas.tree;
        let rpf = d.wal_records as f64 / d.wal_fsyncs.max(1) as f64;
        layers::wal_replay(ep.run, ep.span, &records, rpf, out);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flushes every file of a log written without fsync, so that none of the
/// set-up's dirty pages are written back during the measured phase.
pub fn sync_dir(dir: &Path) {
    let files = std::fs::read_dir(dir).expect("list the WAL directory");
    for path in files.map(|e| e.expect("list the WAL directory").path()) {
        File::open(&path)
            .and_then(|f| f.sync_all())
            .expect("sync a seeded WAL file");
    }
    File::open(dir)
        .and_then(|f| f.sync_all())
        .expect("sync the WAL directory");
}

fn tx(r: u64) -> Tx {
    Tx::new(r, (r & 0xFFFF) as u32, ((r >> 16) & 0xFFFF) as u32, r >> 32)
}

/// Slots of the consensus round ring. The installer of round r waits
/// until the other proposer has finished round r − RING.
const RING: u64 = 1024;

type Instance<'t> = TreeConsensus<'t, LongestChain, AcceptAll>;

/// A ring slot: the round it holds and that round's instance.
type Slot<'t> = Option<(u64, Arc<Instance<'t>>)>;

/// `consensus`: two proposers in every one of a chain of Protocol A
/// rounds; round r + 1 is anchored at round r's decision and installed by
/// whichever proposer decides first.
fn consensus(ep: &Episode, out: &mut Outcome) {
    let sizes = ep.run.sizes;
    let (pre, tapes) = (ep.tape(0), [ep.tape(6), ep.tape(7)]);
    let (tree, oracle) = timed_setup(ep, out, || {
        let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        prefill(&tree, sizes.consensus_prefill, &pre);
        let oracle = SharedOracle::new(ThetaOracle::frugal(
            1,
            Merits::uniform(2),
            1.6,
            ep.run.seed ^ ep.index,
        ));
        (tree, oracle)
    });
    let prefix = tree.commit_log().len();
    let tokens_before = oracle.tokens_granted();
    let slots: Mutex<Vec<Slot>> = Mutex::new(vec![None; RING as usize]);
    slots.lock().expect("ring lock")[0] = Some((
        0,
        Arc::new(TreeConsensus::new(&tree, &oracle, tree.read().tip())),
    ));
    // Rounds installed so far; written only under the `slots` lock.
    let installed = AtomicU64::new(1);
    let finished = [AtomicU64::new(0), AtomicU64::new(0)];
    let proposer = |who: usize, ph: &Phase, span: u64| {
        // Proposer 0 takes part in every round: its calls count the
        // decisions.
        let mut l = ep.load(who as u32 + 1, who == 0);
        let (mut decisions, mut short, mut waits) = (Vec::with_capacity(1 << 20), 0u64, 0u64);
        let mut round = 0u64;
        loop {
            let inst = match &slots.lock().expect("ring lock")[(round % RING) as usize] {
                Some((r, inst)) if *r == round => Arc::clone(inst),
                _ => unreachable!("round {round} is installed before anyone reaches it"),
            };
            let cand = CandidateBlock::simple(ProcessId(who as u32), tapes[who].nonce(round));
            let t0 = Instant::now();
            let r = inst.propose(who, cand);
            let t1 = Instant::now();
            l.commit("propose", span, t0, t1, r.is_ok());
            let Ok(o) = r else { break };
            decisions.push(o.decided);
            short += o.minted.is_none() as u64;
            finished[who].store(round + 1, Ordering::SeqCst);
            let next = round + 1;
            if installed.load(Ordering::SeqCst) <= next && !ph.stopped() {
                // The decision can be on the published chain before
                // `is_committed` says so, and `TreeConsensus::new` asserts
                // the latter: wait for it, and count the waits.
                while !tree.is_committed(o.decided) {
                    waits += 1;
                    std::thread::yield_now();
                }
                while finished[1 - who].load(Ordering::SeqCst) + RING <= next {
                    std::thread::yield_now();
                }
            }
            {
                let mut s = slots.lock().expect("ring lock");
                if installed.load(Ordering::SeqCst) <= next {
                    // Once stopped, no round is installed, so both
                    // proposers end at the same round.
                    if ph.stopped() {
                        break;
                    }
                    s[(next % RING) as usize] = Some((
                        next,
                        Arc::new(TreeConsensus::new(&tree, &oracle, o.decided)),
                    ));
                    installed.store(next + 1, Ordering::SeqCst);
                }
            }
            round = next;
        }
        (l, decisions, short, waits)
    };
    let ((l1, d1, s1, w1), (l2, d2, s2, w2), secs) = measure(
        ep,
        out,
        &tree,
        |ph, span| proposer(0, ph, span),
        |ph, span| proposer(1, ph, span),
    );
    let rounds = installed.load(Ordering::SeqCst);
    out.commits += rounds;
    let d = &mut out.deltas;
    // Proposers make no other calls.
    d.proposes += l1.ops + l2.ops;
    d.short_circuits += s1 + s2;
    d.visibility_waits += w1 + w2;
    d.tokens += oracle.tokens_granted() - tokens_before;
    out.absorb([l1, l2], secs, ep.window(), ep.run.tracer);
    if ep.layers_due() {
        layers::tree_layers(ep.run, ep.span, &tree, out);
    }
    ep.run.tracer.span("check", ep.span, |_| {
        if d1 != d2 || d1.len() as u64 != rounds {
            out.fail(format!(
                "consensus: proposers decided {} and {} rounds of {rounds}, or disagreed",
                d1.len(),
                d2.len()
            ));
        }
        if tree.commit_log()[prefix..] != d1[..] {
            out.fail("consensus: the commit log past the prefill is not the decisions".into());
        }
        if !oracle.fork_coherent() {
            out.fail("consensus: the oracle is not fork coherent".into());
        }
    });
}
