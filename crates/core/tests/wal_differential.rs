//! Crash-recovery differential coverage for the durable commit log.
//!
//! Recovery is a *storage* transform: replaying the WAL must rebuild a
//! tree whose every membership-visible answer is bit-identical to the
//! tree that wrote it. The suite checks that from the outside:
//!
//! 1. a 20-seed differential — a fork-heavy concurrent workload (racing
//!    appenders plus explicit grafts) on a durable tree that checkpoints
//!    every 32 records, hard-dropped (no shutdown hook exists, by design:
//!    every publication already fsynced), recovered from its checkpoint
//!    plus the segment tail, and compared answer-for-answer: commit log,
//!    selected chain, tip, meta/block, membership-filtered children,
//!    ancestry/LCA — and, before the drop, zero IO-failure counters and
//!    an exact fsync count on the default `StdVfs` (checked again under
//!    compaction, case 4);
//! 2. a torn-tail case: the last segment truncated mid-record must trim
//!    to the acked prefix, not panic, and keep accepting appends;
//! 3. recover-then-continue: a recovered tree keeps appending, stays
//!    consistent, and survives a second recovery;
//! 4. compaction: checkpoints driven by the finality watermark drop
//!    covered segments without changing a single replayed answer.

use btadt_core::prelude::*;
use std::path::PathBuf;

/// Deterministic split-mix style generator (no external dependency).
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn tmp_wal_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "btadt-waldiff-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn members_of(log: &[BlockId]) -> std::collections::HashSet<BlockId> {
    let mut m: std::collections::HashSet<BlockId> = log.iter().copied().collect();
    m.insert(BlockId::GENESIS);
    m
}

/// Children restricted to committed members, in id order. Non-member
/// mints (orphans, losers) are not persisted — their ids come back as
/// genesis-parented ghosts — so only the membership-filtered view is
/// comparable across a crash.
fn member_children(
    store: &ShardedStore,
    id: BlockId,
    members: &std::collections::HashSet<BlockId>,
) -> Vec<BlockId> {
    let mut kids = Vec::new();
    store.for_each_child(id, &mut |c| {
        if members.contains(&c) {
            kids.push(c);
        }
    });
    kids.sort_unstable();
    kids
}

type Tree = ConcurrentBlockTree<LongestChain, AcceptAll>;

fn open_tree(dir: &std::path::Path, watermark: FinalityWatermark) -> Tree {
    open_tree_with(watermark, WalConfig::new(dir).segment_bytes(4096))
}

fn open_tree_with(watermark: FinalityWatermark, config: WalConfig) -> Tree {
    ConcurrentBlockTree::open_durable(4, watermark, LongestChain, AcceptAll, config)
        .expect("WAL opens")
}

/// Fork-heavy concurrent workload: `threads` appenders racing `append`,
/// each occasionally grafting a fork under a random committed block.
fn run_workload(bt: &Tree, seed0: u64, threads: u64, per_thread: u64) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut seed = seed0
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(t * 0xC2B2_AE35)
                    | 1;
                for i in 0..per_thread {
                    let r = lcg(&mut seed);
                    let payload = match r % 3 {
                        0 => Payload::Empty,
                        1 => Payload::Opaque(r),
                        _ => Payload::Transactions(vec![Tx::new(
                            r,
                            (r % 7) as u32,
                            (r % 11) as u32,
                            r % 1000,
                        )]),
                    };
                    let cand = CandidateBlock::simple(ProcessId((r % 5) as u32), t << 32 | i)
                        .with_payload(payload)
                        .with_work(1 + r % 5);
                    if r.is_multiple_of(4) {
                        // A quarter of ops graft a fork off a random
                        // committed block instead of extending the tip.
                        let chain = bt.read_owned();
                        let ids = chain.ids();
                        let parent = ids[(lcg(&mut seed) as usize) % ids.len()];
                        let _ = bt.graft(parent, cand).expect("healthy WAL cannot poison");
                    } else {
                        bt.append(cand).expect("AcceptAll admits everything");
                    }
                }
            });
        }
    });
}

/// Everything recovery promises to reproduce, captured from a live tree.
struct Expected {
    commit_log: Vec<BlockId>,
    chain_ids: Vec<BlockId>,
    tip: BlockId,
    meta: Vec<(BlockId, BlockMeta)>,
    blocks: Vec<(BlockId, Block)>,
    children: Vec<(BlockId, Vec<BlockId>)>,
    ancestry: Vec<(BlockId, BlockId, bool, BlockId, BlockId)>,
}

fn capture(bt: &Tree, seed: &mut u64) -> Expected {
    let commit_log = bt.commit_log();
    let members = members_of(&commit_log);
    let chain = bt.read_owned();
    let store = bt.store();
    let mut ids: Vec<BlockId> = members.iter().copied().collect();
    ids.sort_unstable();
    let meta = ids.iter().map(|&id| (id, store.meta(id))).collect();
    let blocks = ids.iter().map(|&id| (id, store.block(id))).collect();
    let children = ids
        .iter()
        .map(|&id| (id, member_children(store, id, &members)))
        .collect();
    let mut ancestry = Vec::new();
    for _ in 0..200 {
        let a = ids[(lcg(seed) as usize) % ids.len()];
        let b = ids[(lcg(seed) as usize) % ids.len()];
        let cut = (lcg(seed) % (store.height(a) as u64 + 1)) as u32;
        ancestry.push((
            a,
            b,
            store.is_ancestor(a, b),
            store.common_ancestor(a, b),
            store.ancestor_at(a, cut),
        ));
    }
    Expected {
        commit_log,
        chain_ids: chain.ids().to_vec(),
        tip: chain.tip(),
        meta,
        blocks,
        children,
        ancestry,
    }
}

/// What a fresh durable tree on the default `StdVfs` and a healthy disk
/// must report: no IO failure of any kind, and every fsync accounted
/// for — the fresh segment's directory sync, one data fsync per
/// publication, one sync per segment roll and two per checkpoint. A WAL
/// that gains an fsync site fails here.
fn assert_healthy_io(bt: &Tree, ctx: &str) {
    let stats = bt.wal_stats().expect("durable tree");
    assert!(
        stats.checkpoint_failures == 0
            && stats.segment_unlink_failures == 0
            && stats.rotation_failures == 0
            && stats.eintr_retries == 0
            && stats.last_error.is_none(),
        "{ctx}: IO failures on a healthy disk: {stats:?}"
    );
    assert_eq!(
        stats.fsyncs,
        1 + bt.commit_generation() + stats.segments_rolled + 2 * stats.checkpoints,
        "{ctx}: fsyncs must track publications, rolls and checkpoints: {stats:?}"
    );
}

fn assert_matches(bt: &Tree, want: &Expected, ctx: &str) {
    assert_eq!(bt.commit_log(), want.commit_log, "{ctx}: commit log");
    let chain = bt.read_owned();
    assert_eq!(chain.ids(), &want.chain_ids[..], "{ctx}: selected chain");
    assert_eq!(chain.tip(), want.tip, "{ctx}: tip");
    assert_eq!(bt.selected_tip(), want.tip, "{ctx}: published tip");
    assert_eq!(
        bt.selected_tip_full_scan(),
        want.tip,
        "{ctx}: Def. 3.1 rescan tip"
    );
    let members = members_of(&want.commit_log);
    let store = bt.store();
    for (id, m) in &want.meta {
        assert_eq!(store.meta(*id), *m, "{ctx}: meta of {id}");
    }
    for (id, b) in &want.blocks {
        assert_eq!(store.block(*id), *b, "{ctx}: block of {id}");
    }
    for (id, kids) in &want.children {
        assert_eq!(
            member_children(store, *id, &members),
            *kids,
            "{ctx}: children of {id}"
        );
    }
    for &(a, b, is_anc, lca, cut_anc) in &want.ancestry {
        assert_eq!(store.is_ancestor(a, b), is_anc, "{ctx}: is_ancestor");
        assert_eq!(store.common_ancestor(a, b), lca, "{ctx}: LCA {a},{b}");
        let cut = store.height(cut_anc);
        assert_eq!(store.ancestor_at(a, cut), cut_anc, "{ctx}: ancestor_at");
    }
}

#[test]
fn recovery_is_bit_identical_across_seeds() {
    for seed0 in 0..20u64 {
        let dir = tmp_wal_dir("seeds");
        let mut seed = seed0.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
        // Each seed's ~180 commits stay far below the default checkpoint
        // interval; at 32 records every seed checkpoints and compacts.
        let open = || {
            open_tree_with(
                FinalityWatermark::disabled(),
                WalConfig::new(&dir)
                    .segment_bytes(4096)
                    .checkpoint_interval(32),
            )
        };
        let ctx = format!("seed {seed0}");
        let want = {
            let bt = open();
            run_workload(&bt, seed0, 3, 60);
            let stats = bt.wal_stats().expect("durable tree");
            let log = bt.commit_log();
            assert_eq!(stats.records, log.len() as u64, "every commit logged");
            assert!(stats.checkpoints >= 1, "{ctx}: checkpointed: {stats:?}");
            assert!(
                stats.segments_dropped >= 1,
                "{ctx}: covered segments were deleted: {stats:?}"
            );
            assert_healthy_io(&bt, &ctx);
            capture(&bt, &mut seed)
            // Hard drop — no flush hook exists, and none is needed:
            // every publication already fsynced before any ack.
        };
        let bt = open();
        assert_matches(&bt, &want, &ctx);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn torn_tail_is_trimmed_to_the_acked_prefix() {
    let dir = tmp_wal_dir("torn");
    let want = {
        let bt = open_tree(&dir, FinalityWatermark::disabled());
        for i in 0..50u64 {
            bt.append(CandidateBlock::simple(ProcessId((i % 3) as u32), i))
                .unwrap();
        }
        bt.commit_log()
    };
    // Truncate the highest-numbered segment mid-record: the torn suffix
    // simulates a crash inside an append_commits that never acked.
    let last_seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .max()
        .expect("a segment exists");
    let data = std::fs::read(&last_seg).unwrap();
    std::fs::write(&last_seg, &data[..data.len() - 5]).unwrap();
    let bt = open_tree(&dir, FinalityWatermark::disabled());
    let log = bt.commit_log();
    assert_eq!(log.len(), want.len() - 1, "exactly the torn record is gone");
    assert_eq!(log[..], want[..log.len()], "recovered log is a prefix");
    let stats = bt.wal_stats().unwrap();
    assert!(stats.trimmed_bytes > 0, "the trim was recorded");
    // The trimmed tree is fully serviceable: appends go through and the
    // chain re-extends past the lost block.
    for i in 100..140u64 {
        bt.append(CandidateBlock::simple(ProcessId(0), i)).unwrap();
    }
    assert_eq!(bt.commit_log().len(), want.len() - 1 + 40);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_trees_keep_appending_and_survive_a_second_crash() {
    let dir = tmp_wal_dir("continue");
    let mut seed = 7u64;
    {
        let bt = open_tree(&dir, FinalityWatermark::disabled());
        run_workload(&bt, 3, 2, 40);
    }
    let want = {
        let bt = open_tree(&dir, FinalityWatermark::disabled());
        // Continue the workload on the recovered tree: fresh mints must
        // slot in above the recovered id space (ghosts included).
        run_workload(&bt, 4, 2, 40);
        let log = bt.commit_log();
        assert!(log.len() >= 160, "both rounds committed");
        capture(&bt, &mut seed)
    };
    let bt = open_tree(&dir, FinalityWatermark::disabled());
    assert_matches(&bt, &want, "second recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A brand-new durable tree must look exactly like a brand-new volatile
/// tree to generation watchers: generation 0, and `wait_commit_past(0)`
/// parks until a real commit lands instead of returning immediately
/// (the recovery path bumps the generation only when records were
/// actually replayed).
#[test]
fn fresh_durable_trees_start_at_generation_zero() {
    let dir = tmp_wal_dir("gen0");
    let bt = open_tree(&dir, FinalityWatermark::disabled());
    assert_eq!(
        bt.commit_generation(),
        ConcurrentBlockTree::new(LongestChain, AcceptAll).commit_generation(),
        "fresh durable == fresh volatile"
    );
    assert_eq!(bt.commit_generation(), 0);
    let t0 = std::time::Instant::now();
    let wait = std::time::Duration::from_millis(50);
    bt.wait_commit_past(0, t0 + wait);
    assert!(
        t0.elapsed() >= wait,
        "no publication ever happened: the waiter must park to deadline"
    );
    bt.append(CandidateBlock::simple(ProcessId(0), 1)).unwrap();
    assert!(bt.commit_generation() > 0, "real commits still advance it");
    // And a tree recovered from a non-empty log starts past zero, one
    // generation per historical publication as before.
    drop(bt);
    let bt = open_tree(&dir, FinalityWatermark::disabled());
    assert_eq!(bt.commit_generation(), 2, "1 replayed record + 1");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_drops_segments_without_changing_answers() {
    let dir = tmp_wal_dir("compact");
    let mut seed = 11u64;
    let want = {
        // A tight watermark finalizes aggressively, so the checkpoint
        // cursor advances and compaction actually runs.
        let bt = open_tree_with(
            FinalityWatermark::new(8),
            WalConfig::new(&dir)
                .segment_bytes(1024)
                .checkpoint_interval(64),
        );
        for i in 0..600u64 {
            bt.append(CandidateBlock::simple(ProcessId((i % 3) as u32), i))
                .unwrap();
        }
        let stats = bt.wal_stats().unwrap();
        assert!(stats.checkpoints >= 1, "compaction checkpointed: {stats:?}");
        assert!(
            stats.segments_dropped >= 1,
            "covered segments were deleted: {stats:?}"
        );
        assert_healthy_io(&bt, "compaction");
        capture(&bt, &mut seed)
    };
    let bt = open_tree(&dir, FinalityWatermark::new(8));
    assert_matches(&bt, &want, "post-compaction recovery");
    // Flattening is incremental and rides commit paths; after a few
    // appends the recovered tree re-flattens its finalized prefix.
    for i in 1000..1010u64 {
        bt.append(CandidateBlock::simple(ProcessId(0), i)).unwrap();
    }
    while bt.store().flatten_some(64) > 0 {}
    assert!(
        bt.store().flattened_count() > 0,
        "recovered tree re-flattens its finalized prefix"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
