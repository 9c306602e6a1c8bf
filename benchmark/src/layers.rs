//! Per-layer metrics for the traced run. Each layer is measured from
//! outside, through its public functions: counter deltas over the measured
//! phases, getters read at the end, and replays of the run's own block
//! stream onto standalone instances of the layer. A metric whose layer the
//! workload does not use reads 0.

use crate::spans::Tracer;
use crate::workloads::{prefill, sync_dir, Outcome, Run, Tape};
use btadt_core::block::Payload;
use btadt_core::blocktree::{BlockTree, CandidateBlock};
use btadt_core::commit::FinalityWatermark;
use btadt_core::concurrent::{
    ConcurrentBlockTree, ShardedStore, DEFAULT_FINALITY_DEPTH, DEFAULT_SHARDS,
};
use btadt_core::ids::{BlockId, ProcessId};
use btadt_core::selection::{Ghost, LongestChain, SelectionAux, SelectionFn};
use btadt_core::store::{BlockView, TreeMembership};
use btadt_core::validity::{AcceptAll, ValidityPredicate};
use btadt_core::wal::{CommitRecord, Wal, WalConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every per-layer metric, named `layer.metric` after the layer's module.
pub const PER_LAYER: &[crate::Spec] = &[
    ("concurrent.inline_share", "ratio", "higher"),
    ("concurrent.mean_batch", "count", "higher"),
    ("concurrent.publications_per_commit", "ratio", "lower"),
    ("concurrent.sel_hold_ns_per_batched", "ns", "lower"),
    ("concurrent.publ_hold_ns_per_batched", "ns", "lower"),
    ("store.flatten_lag_blocks", "count", "lower"),
    ("store.orphan_share", "ratio", "lower"),
    ("store.arena_bytes_per_block", "B", "lower"),
    ("store.lookup_p50_ns", "ns", "lower"),
    ("store.lookup_p99_ns", "ns", "lower"),
    ("store.mint_ns", "ns", "lower"),
    ("store.flatten_ns_per_block", "ns", "lower"),
    ("store.ancestor_ns_flat", "ns", "lower"),
    ("store.ancestor_ns_unflat", "ns", "lower"),
    ("selection.score_ns_per_insert.longest", "ns", "lower"),
    ("selection.score_ns_per_insert.ghost", "ns", "lower"),
    ("epoch.pin_ns", "ns", "lower"),
    ("epoch.retired_bytes_peak", "B", "lower"),
    ("epoch.pending_items_end", "count", "lower"),
    ("epoch.reclaimed_per_publication", "ratio", "higher"),
    ("chain.read_p50_ns", "ns", "lower"),
    ("chain.read_p99_ns", "ns", "lower"),
    ("chain.read_ns_quiescent", "ns", "lower"),
    ("wal.fsyncs_per_commit", "ratio", "lower"),
    ("wal.records_per_fsync", "ratio", "higher"),
    ("wal.bytes_per_record", "B", "lower"),
    ("wal.checkpoints", "count", "lower"),
    ("wal.segments_rolled", "count", "lower"),
    ("wal.recovery_ms", "ms", "lower"),
    ("wal.append_ns_fsync", "ns", "lower"),
    ("wal.append_ns_nofsync", "ns", "lower"),
    ("oracle.tokens_per_decision", "ratio", "lower"),
    ("tree_consensus.short_circuit_share", "ratio", "higher"),
    ("tree_consensus.orphans_per_decision", "ratio", "lower"),
    ("tree_consensus.anchor_visibility_waits", "count", "lower"),
    ("ladder.blocktree_ns", "ns", "lower"),
    ("ladder.tree_noflat_ns", "ns", "lower"),
    ("ladder.tree_default_ns", "ns", "lower"),
    ("ladder.durable_nofsync_ns", "ns", "lower"),
    ("ladder.durable_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Calls `f(0..n)` in batches of 1 000, one span per batch, and returns
/// the mean nanoseconds per call.
fn per_call(
    tr: &Tracer,
    parent: u64,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let mut total = Duration::ZERO;
    let mut i = 0;
    while i < n {
        let end = (i + 1000).min(n);
        let t0 = Instant::now();
        for j in i..end {
            f(j);
        }
        let t1 = Instant::now();
        tr.record(name, parent, t0, t1);
        total += t1 - t0;
        i = end;
    }
    total.as_nanos() as f64 / n.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Layers read off the last episode's finished, quiescent tree.
pub fn tree_layers<F: SelectionFn, P: ValidityPredicate>(
    run: &Run,
    parent: u64,
    tree: &ConcurrentBlockTree<F, P>,
    out: &mut Outcome,
) {
    let tr = run.tracer;
    tr.span("layers", parent, |id| {
        let store = tree.store();
        let m = &mut out.layers;
        let lag = if store.flatten_capable() {
            store
                .flatten_target()
                .saturating_sub(store.flattened_count())
        } else {
            0
        };
        m.insert("store.flatten_lag_blocks", lag as f64);
        m.insert(
            "store.arena_bytes_per_block",
            store.approx_heap_bytes() as f64 / store.block_count() as f64,
        );
        let epochs = tree.epochs();
        m.insert(
            "epoch.retired_bytes_peak",
            epochs.retired_bytes_peak() as f64,
        );
        m.insert("epoch.pending_items_end", epochs.pending_items() as f64);
        m.insert(
            "epoch.pin_ns",
            per_call(tr, id, "epoch.pin", 100_000, |_| {
                drop(black_box(epochs.pin()))
            }),
        );
        m.insert(
            "chain.read_ns_quiescent",
            per_call(tr, id, "chain.read", 100_000, |_| {
                let v = tree.read();
                black_box((v.tip(), v.len()));
            }),
        );
        store_replay(run, id, store, out);
        let log = tree.commit_log();
        let rules: [(_, &dyn SelectionFn, _); 2] = [
            (
                "selection.score_ns_per_insert.longest",
                &LongestChain,
                run.sizes.replay,
            ),
            (
                "selection.score_ns_per_insert.ghost",
                &Ghost::default(),
                run.sizes.ghost_replay,
            ),
        ];
        for (key, rule, n) in rules {
            let (ns, ok) = score_replay(tr, id, key, rule, store, &log[..n.min(log.len())]);
            out.layers.insert(key, ns);
            if !ok {
                out.fail(format!(
                    "{key}: the incremental tip differs from the full scan"
                ));
            }
        }
    });
}

/// Replays the first `replay` blocks of the tree's arena, in id order
/// (parents first, so the ids come out the same), onto a plain store and a
/// flattening store; then flattens the latter and runs the same seeded
/// ancestor queries on both.
fn store_replay(run: &Run, parent: u64, store: &ShardedStore, out: &mut Outcome) {
    let tr = run.tracer;
    let n = run.sizes.replay.min(store.block_count() - 1);
    let mut plain_in: Vec<_> = (1..=n as u32)
        .map(|i| {
            let b = store.block(BlockId(i));
            (
                b.parent.expect("only genesis has no parent"),
                b.producer,
                b.merit_index,
                b.work,
                b.digest,
                b.payload,
            )
        })
        .collect();
    let mut flat_in = plain_in.clone();
    let mint = |s: &ShardedStore, args: &mut (BlockId, ProcessId, u32, u64, u64, Payload)| {
        s.mint(
            args.0,
            args.1,
            args.2,
            args.3,
            args.4,
            std::mem::take(&mut args.5),
        );
    };
    let plain = ShardedStore::with_shards(store.shard_count());
    let mint_ns = per_call(tr, parent, "store.mint", n, |j| {
        mint(&plain, &mut plain_in[j])
    });
    let flat = ShardedStore::with_flattening(store.shard_count());
    flat_in.iter_mut().for_each(|args| mint(&flat, args));
    flat.raise_flatten_target(n as u32 + 1);
    let t0 = Instant::now();
    let mut flattened = 0;
    loop {
        let t = Instant::now();
        let k = flat.flatten_some(1000);
        if k == 0 {
            break;
        }
        tr.record("store.flatten", parent, t, Instant::now());
        flattened += k;
    }
    let flatten_ns = t0.elapsed().as_nanos() as f64 / flattened.max(1) as f64;
    let tape = Tape::new(run.seed, 8);
    let queries: Vec<(BlockId, u32)> = (0..n as u64)
        .map(|i| {
            let r = tape.nonce(i);
            let id = BlockId(1 + (r % n as u64) as u32);
            (id, ((r >> 32) % (plain.height(id) as u64 + 1)) as u32)
        })
        .collect();
    let mut answers = [vec![BlockId::GENESIS; n], vec![BlockId::GENESIS; n]];
    let [unflat_ans, flat_ans] = &mut answers;
    let unflat_ns = per_call(tr, parent, "store.ancestor_unflat", n, |j| {
        unflat_ans[j] = plain.ancestor_at(queries[j].0, queries[j].1)
    });
    let flat_ns = per_call(tr, parent, "store.ancestor_flat", n, |j| {
        flat_ans[j] = flat.ancestor_at(queries[j].0, queries[j].1)
    });
    if answers[0] != answers[1] {
        out.fail("store replay: flattened and plain stores answer ancestor_at differently".into());
    }
    let m = &mut out.layers;
    m.insert("store.mint_ns", mint_ns);
    m.insert("store.flatten_ns_per_block", flatten_ns);
    m.insert("store.ancestor_ns_unflat", unflat_ns);
    m.insert("store.ancestor_ns_flat", flat_ns);
}

/// Replays `ids` (a commit-log prefix) through `rule`'s batch-scoring API
/// one insert at a time — membership insert, `score_inserts`,
/// `apply_partial` — and returns the mean ns per insert and whether the
/// tip it lands on matches the full scan.
fn score_replay(
    tr: &Tracer,
    parent: u64,
    name: &'static str,
    rule: &dyn SelectionFn,
    store: &ShardedStore,
    ids: &[BlockId],
) -> (f64, bool) {
    let mut members = TreeMembership::genesis_only();
    let mut aux = SelectionAux::new();
    let mut tip = BlockId::GENESIS;
    let ns = per_call(tr, parent, name, ids.len(), |j| {
        let id = ids[j];
        members.insert_with_parent(store.parent(id), id);
        let partial = rule.score_inserts(store, &[id]);
        tip = rule.apply_partial(store, &members, &mut aux, &partial, tip);
    });
    (ns, tip == rule.select_tip(store, &members))
}

/// Appends the tail of the recovered log to fresh standalone WALs, in the
/// group-commit batch size the run observed: once without fsync, once with.
pub fn wal_replay(
    run: &Run,
    parent: u64,
    records: &[CommitRecord],
    records_per_fsync: f64,
    out: &mut Outcome,
) {
    let batch = (records_per_fsync.round() as usize).max(1);
    let cases = [
        (
            "wal.append_nofsync",
            "wal.append_ns_nofsync",
            run.sizes.wal_replay,
            false,
        ),
        (
            "wal.append_fsync",
            "wal.append_ns_fsync",
            run.sizes.wal_fsync_replay,
            true,
        ),
    ];
    for (span, key, n, fsync) in cases {
        let dir = run.work.join(span);
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig::new(&dir);
        let config = if fsync { config } else { config.no_fsync() };
        let (mut wal, _) = Wal::open(config).expect("open a replay WAL");
        let tail = &records[records.len() - n.min(records.len())..];
        let mut chunks: Vec<Vec<CommitRecord>> =
            tail.chunks(batch).map(<[CommitRecord]>::to_vec).collect();
        let per_chunk = per_call(run.tracer, parent, span, chunks.len(), |j| {
            wal.append_commits(std::mem::take(&mut chunks[j]))
                .expect("replay WAL append");
        });
        out.layers.insert(
            key,
            per_chunk * chunks.len() as f64 / tail.len().max(1) as f64,
        );
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One appender, no reader: the `append-read` op stream on `ladder_prefill`
/// blocks, through five configurations that each add one layer.
pub fn ladder(run: &Run, parent: u64, out: &mut Outcome) {
    let s = run.sizes;
    let tr = run.tracer;
    let (pre, stream) = (Tape::new(run.seed, 0), Tape::new(run.seed, 1));
    let cand = |i: u64| CandidateBlock::simple(ProcessId(1), stream.nonce(i));
    let mut failed = 0u64;
    let mut bt = BlockTree::new(LongestChain, AcceptAll);
    for i in 0..s.ladder_prefill {
        let prefilled = bt.append(CandidateBlock::simple(ProcessId(0), pre.nonce(i)));
        assert!(prefilled, "ladder prefill append {i} failed");
    }
    let blocktree_ns = per_call(
        tr,
        parent,
        "ladder.blocktree",
        s.ladder_appends as usize,
        |i| {
            failed += !bt.append(cand(i as u64)) as u64;
        },
    );
    drop(bt);
    let mut timed = |name, tree: &ConcurrentBlockTree<LongestChain, AcceptAll>, n: u64| {
        per_call(tr, parent, name, n as usize, |i| {
            failed += !matches!(tree.append(cand(i as u64)), Ok(Some(_))) as u64;
        })
    };
    let tree = ConcurrentBlockTree::with_config(
        DEFAULT_SHARDS,
        FinalityWatermark::disabled(),
        LongestChain,
        AcceptAll,
    );
    prefill(&tree, s.ladder_prefill, &pre);
    let noflat_ns = timed("ladder.tree_noflat", &tree, s.ladder_appends);
    drop(tree);
    let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
    prefill(&tree, s.ladder_prefill, &pre);
    let default_ns = timed("ladder.tree_default", &tree, s.ladder_appends);
    drop(tree);
    let dir = run.work.join("ladder");
    let open = |fsync: bool| {
        let config = WalConfig::new(&dir);
        ConcurrentBlockTree::open_durable(
            DEFAULT_SHARDS,
            FinalityWatermark::new(DEFAULT_FINALITY_DEPTH),
            LongestChain,
            AcceptAll,
            if fsync { config } else { config.no_fsync() },
        )
        .expect("open a ladder WAL")
    };
    let _ = std::fs::remove_dir_all(&dir);
    let tree = open(false);
    prefill(&tree, s.ladder_prefill, &pre);
    let nofsync_ns = timed("ladder.durable_nofsync", &tree, s.ladder_appends);
    drop(tree);
    let _ = std::fs::remove_dir_all(&dir);
    // The fsync rung recovers its prefill from a log written without fsync.
    prefill(&open(false), s.ladder_prefill, &pre);
    sync_dir(&dir);
    let durable_ns = timed("ladder.durable", &open(true), s.ladder_fsync_appends);
    let _ = std::fs::remove_dir_all(&dir);
    if failed > 0 {
        out.fail(format!("ladder: {failed} appends failed"));
    }
    let m = &mut out.layers;
    m.insert("ladder.blocktree_ns", blocktree_ns);
    m.insert("ladder.tree_noflat_ns", noflat_ns);
    m.insert("ladder.tree_default_ns", default_ns);
    m.insert("ladder.durable_nofsync_ns", nofsync_ns);
    m.insert("ladder.durable_ns", durable_ns);
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(out: &Outcome) -> Vec<(&'static str, f64)> {
    let (c, d) = (&out.deltas, &out.deltas.tree);
    let mut m = out.layers.clone();
    let queued = d.batched_appends;
    m.insert(
        "concurrent.inline_share",
        ratio(d.inline_appends, d.inline_appends + queued),
    );
    m.insert(
        "concurrent.mean_batch",
        ratio(d.inline_appends + queued, d.inline_appends + d.batches),
    );
    m.insert(
        "concurrent.publications_per_commit",
        ratio(d.publications, out.commits),
    );
    m.insert(
        "concurrent.sel_hold_ns_per_batched",
        ratio(d.drain_lock_ns, queued),
    );
    m.insert(
        "concurrent.publ_hold_ns_per_batched",
        ratio(d.publish_ns, queued),
    );
    let orphans = d.minted - d.members;
    m.insert("store.orphan_share", ratio(orphans, d.minted));
    m.insert("store.lookup_p50_ns", out.lookup_ns.quantile(0.5));
    m.insert("store.lookup_p99_ns", out.lookup_ns.quantile(0.99));
    m.insert("chain.read_p50_ns", out.read_ns.quantile(0.5));
    m.insert("chain.read_p99_ns", out.read_ns.quantile(0.99));
    m.insert(
        "epoch.reclaimed_per_publication",
        ratio(d.reclaimed, d.publications),
    );
    m.insert("wal.fsyncs_per_commit", ratio(d.wal_fsyncs, out.commits));
    m.insert("wal.records_per_fsync", ratio(d.wal_records, d.wal_fsyncs));
    m.insert("wal.bytes_per_record", ratio(d.wal_bytes, d.wal_records));
    m.insert("wal.checkpoints", d.wal_checkpoints as f64);
    m.insert("wal.segments_rolled", d.wal_rolled as f64);
    m.insert("wal.recovery_ms", crate::median(&out.recovery_s) * 1e3);
    if c.proposes > 0 {
        m.insert("oracle.tokens_per_decision", ratio(c.tokens, out.commits));
        m.insert(
            "tree_consensus.short_circuit_share",
            ratio(c.short_circuits, c.proposes),
        );
        m.insert(
            "tree_consensus.orphans_per_decision",
            ratio(orphans, out.commits),
        );
        m.insert(
            "tree_consensus.anchor_visibility_waits",
            c.visibility_waits as f64,
        );
    }
    let rate = |(commits, secs): (u64, f64)| {
        if secs > 0.0 {
            commits as f64 / secs
        } else {
            0.0
        }
    };
    let (plain, traced) = (rate(out.untraced), rate(out.traced));
    if plain > 0.0 && traced > 0.0 {
        m.insert("trace.overhead_pct", (plain - traced) / plain * 100.0);
    }
    for k in m.keys() {
        assert!(
            PER_LAYER.iter().any(|(name, ..)| name == k),
            "unlisted per-layer metric {k}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, ..)| (name, m.get(name).copied().unwrap_or(0.0)))
        .collect()
}
