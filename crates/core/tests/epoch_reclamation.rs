//! Reclamation churn stress: appenders retiring snapshots through the
//! epoch domain while readers pin and unpin around them.
//!
//! What these tests establish, from the outside:
//!
//! * **No use-after-free**: every borrowed `ChainView` taken mid-churn is
//!   internally consistent (genesis-rooted, id-monotone, tip/len
//!   coherent) and byte-identical to its owned upgrade — a freed or
//!   recycled buffer would tear these invariants long before a crash.
//! * **Bounded retirement**: the retired-bag population returns to zero
//!   at every quiescent point after the grace period is driven, and the
//!   byte high-water mark stays far below the retire-everything-forever
//!   volume that PR 2's retire list would have accumulated.
//!
//! The CI `soak` job runs this suite in release mode at
//! `RUST_TEST_THREADS=1` and `4` — serial for maximum intra-test
//! contention, parallel for scheduler noise on top.

use btadt_core::blocktree::CandidateBlock;
use btadt_core::chain::Blockchain;
use btadt_core::concurrent::ConcurrentBlockTree;
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::LongestChain;
use btadt_core::validity::AcceptAll;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Drains every ripe bag at a quiescent point.
fn reclaim_fully<F, P>(tree: &ConcurrentBlockTree<F, P>)
where
    F: btadt_core::selection::SelectionFn,
    P: btadt_core::validity::ValidityPredicate,
{
    tree.epochs().reclaim_quiescent();
}

/// Workload shape of one churn round.
#[derive(Clone, Copy)]
struct Churn {
    appenders: usize,
    readers: usize,
    appends_each: usize,
    reads_each: usize,
}

/// One churn round: appenders and readers race, then everyone quiesces at
/// the barrier and the main thread checks the reclamation ledger.
fn churn_round(
    tree: &ConcurrentBlockTree<LongestChain, AcceptAll>,
    seed: u64,
    round: u64,
    churn: Churn,
    max_pending_seen: &AtomicUsize,
) {
    let Churn {
        appenders,
        readers,
        appends_each,
        reads_each,
    } = churn;
    let barrier = Barrier::new(appenders + readers);
    std::thread::scope(|s| {
        for a in 0..appenders {
            let (tree, barrier) = (tree, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..appends_each {
                    let nonce = (round << 40) | ((a as u64) << 20) | i as u64;
                    tree.append(CandidateBlock::simple(ProcessId(a as u32), nonce))
                        .expect("AcceptAll");
                }
            });
        }
        for _ in 0..readers {
            let (tree, barrier, max_pending_seen) = (tree, &barrier, max_pending_seen);
            s.spawn(move || {
                barrier.wait();
                let mut last: Option<Blockchain> = None;
                for i in 0..reads_each {
                    let view = tree.read();
                    // Integrity of the borrowed view: a reclaimed-under-us
                    // buffer would tear these invariants.
                    let ids = view.ids();
                    assert_eq!(ids[0], BlockId::GENESIS, "views are genesis-rooted");
                    assert_eq!(view.tip(), *ids.last().unwrap());
                    assert_eq!(view.len(), ids.len());
                    assert!(
                        ids.windows(2).all(|w| w[0] < w[1]),
                        "longest-chain append-only commits are id-monotone"
                    );
                    // The owned upgrade must be bit-identical.
                    let owned = view.to_owned();
                    assert_eq!(owned.ids(), ids);
                    drop(view);
                    if let Some(prev) = &last {
                        assert!(
                            prev.is_prefix_of(&owned),
                            "reader-local monotonicity under churn"
                        );
                    }
                    last = Some(owned);
                    max_pending_seen.fetch_max(tree.epochs().pending_items(), Ordering::Relaxed);
                    if splitmix64_at(seed ^ 0xC0_11EC, (round << 16) | i as u64).is_multiple_of(5) {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

#[test]
fn churn_stress_bounds_retired_bags_across_20_seeds() {
    for seed in 0..20u64 {
        let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        let max_pending = AtomicUsize::new(0);
        let churn = Churn {
            appenders: 2,
            readers: 2,
            appends_each: 60,
            reads_each: 120,
        };
        let rounds = 3u64;
        for round in 0..rounds {
            churn_round(&tree, seed, round, churn, &max_pending);
            // Quiescent point: no pins are live, so driving the grace
            // period must empty the bags completely.
            reclaim_fully(&tree);
            assert_eq!(
                tree.epochs().pending_items(),
                0,
                "seed {seed} round {round}: quiescent reclaim leaves residue"
            );
        }
        let total_appends = rounds as usize * churn.appenders * churn.appends_each;
        assert_eq!(tree.len(), total_appends + 1, "seed {seed}: all committed");
        // Boundedness: at no sampled instant did the bags approach the
        // one-retiree-per-commit volume that retire-until-drop accrues.
        let peak = max_pending.load(Ordering::Relaxed);
        assert!(
            peak < total_appends,
            "seed {seed}: pending garbage ({peak}) reached commit volume ({total_appends})"
        );
        // The ledger balances: everything retired was eventually freed.
        assert_eq!(tree.epochs().retired_bytes(), 0, "seed {seed}");
        assert!(tree.epochs().retired_bytes_peak() > 0, "seed {seed}");
        assert!(
            tree.epochs().reclaimed_items() as usize >= total_appends / 2,
            "seed {seed}: reclamation kept pace"
        );
    }
}

/// Retirement now lands in per-thread bag slots (no global garbage
/// mutex) and sweeps fire once 256 boxes are pending. From the outside
/// that must look like: (a) the pending peak of an uncontended
/// (inline-path, batch ≈ 1) run stays within a small multiple of the
/// threshold — sweeps still fire; (b) at quiescence, every slot drains
/// to zero — no bag is stranded in a slot whose retiring thread has
/// exited.
#[test]
fn per_thread_bags_bound_the_peak_and_drain_at_quiescence() {
    let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
    let max_pending = AtomicUsize::new(0);
    // Phase 1: a long uncontended run — every append publishes (and
    // retires) individually, the worst case for sweep frequency.
    for i in 0..2_000u64 {
        tree.append(CandidateBlock::simple(ProcessId(0), i))
            .expect("AcceptAll");
        max_pending.fetch_max(tree.epochs().pending_items(), Ordering::Relaxed);
    }
    assert!(
        max_pending.load(Ordering::Relaxed) <= 2 * 256,
        "inline-path pending peak {} exceeded twice the threshold cap",
        max_pending.load(Ordering::Relaxed)
    );
    // Phase 2: retiring threads come and go — bags must outlive their
    // retirers (slots belong to the domain, not to thread-local storage).
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..200u64 {
                    tree.append(CandidateBlock::simple(
                        ProcessId(t),
                        (1 << 52) | ((t as u64) << 24) | i,
                    ))
                    .expect("AcceptAll");
                }
            });
        }
    });
    // Quiescent: every slot must hand over everything it parked.
    reclaim_fully(&tree);
    assert_eq!(tree.epochs().pending_items(), 0, "all bag slots drained");
    assert_eq!(tree.epochs().retired_bytes(), 0, "byte ledger balances");
    assert_eq!(tree.len(), 2_801);
}

/// A reader parked on a view is the worst case for reclamation: nothing
/// it can see may be freed, everything after it must still be freed once
/// it lets go — and the view itself must stay valid throughout.
#[test]
fn parked_reader_delays_but_never_loses_reclamation() {
    let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
    for i in 0..10u64 {
        tree.append(CandidateBlock::simple(ProcessId(0), i))
            .unwrap();
    }
    let parked = tree.read();
    let before = parked.to_owned();
    // Churn past the parked reader.
    std::thread::scope(|s| {
        for t in 0..3u32 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..100u64 {
                    tree.append(CandidateBlock::simple(
                        ProcessId(t),
                        (1 << 50) | ((t as u64) << 20) | i,
                    ))
                    .unwrap();
                }
            });
        }
    });
    reclaim_fully(&tree);
    let pending_while_parked = tree.epochs().pending_items();
    assert!(
        pending_while_parked > 0,
        "a parked pin must hold back at least the grace window"
    );
    // The parked view is still exactly what it was.
    assert_eq!(parked, before);
    assert!(parked.is_prefix_of(&tree.read_owned()));
    drop(parked);
    reclaim_fully(&tree);
    assert_eq!(
        tree.epochs().pending_items(),
        0,
        "after the reader unpins the backlog drains fully"
    );
    assert_eq!(tree.len(), 311);
}

/// Regression: deferred recycle items keep the *address* of the tree's
/// spare-box bin, and the tree struct itself is movable safe Rust.
/// Building a tree in one stack frame, appending (each publication parks
/// a recycle item), and returning the tree by value must leave those
/// items pointing at a still-valid bin. Before the bin was boxed, the
/// move left them dangling into the dead frame and the drop below
/// deadlocked on a mutex read from reused stack memory — found by the
/// deep-tree bench, whose grow closure returns its tree.
#[test]
fn tree_survives_a_move_with_pending_recycled_chains() {
    fn build() -> ConcurrentBlockTree<LongestChain, AcceptAll> {
        let tree = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        for i in 0..500u64 {
            tree.append(CandidateBlock::simple(ProcessId(0), i))
                .expect("AcceptAll");
        }
        tree // moved to the caller with recycle items still pending
    }
    let tree = build();
    // A second move, through the heap and back.
    let tree = *Box::new(tree);
    for i in 0..100u64 {
        tree.append(CandidateBlock::simple(ProcessId(1), (1 << 40) | i))
            .expect("AcceptAll");
    }
    assert_eq!(tree.len(), 601);
    reclaim_fully(&tree);
    assert_eq!(tree.epochs().pending_items(), 0);
    drop(tree); // must terminate and balance the byte ledger
}

/// Interleaved graft reorgs + appends + readers: reclamation under chains
/// that shrink as well as grow (reorg splices retire buffers, not just
/// boxes).
#[test]
fn reorg_churn_reclaims_superseded_buffers() {
    for seed in 0..6u64 {
        let tree = ConcurrentBlockTree::new(btadt_core::selection::HeaviestWork, AcceptAll);
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let tree = &tree;
                s.spawn(move || {
                    for i in 0..40u64 {
                        let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                        let view = tree.read();
                        let ids = view.ids();
                        let parent = ids[(r as usize >> 4) % ids.len()];
                        drop(view);
                        tree.graft(
                            parent,
                            CandidateBlock::simple(ProcessId(t), (t as u64) << 32 | i)
                                .with_work(1 + r % 4),
                        )
                        .expect("AcceptAll");
                    }
                });
            }
            let tree = &tree;
            s.spawn(move || {
                for _ in 0..200 {
                    let view = tree.read();
                    assert_eq!(view.ids()[0], BlockId::GENESIS);
                    assert_eq!(view.to_owned().ids(), view.ids());
                }
            });
        });
        assert_eq!(tree.selected_tip(), tree.selected_tip_full_scan());
        reclaim_fully(&tree);
        assert_eq!(tree.epochs().pending_items(), 0, "seed {seed}");
        assert_eq!(tree.epochs().retired_bytes(), 0, "seed {seed}");
    }
}
