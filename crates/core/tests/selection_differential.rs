//! Differential tests: the incremental selection path (`score_inserts` +
//! `apply_partial`, driven by `ChainCache`) must agree bit-for-bit with
//! the full-scan `select_tip` oracle of Def. 3.1 — on every insert of
//! randomized fork-heavy workloads, for every shipped selection rule.
//! This is what preserves the paper's hierarchy/criteria results across
//! the performance refactor: every consistency checker consumes chains
//! produced by `read()`, and `read()` now comes off the cache.
//!
//! Two workload shapes:
//!
//! * **mint-order**: blocks join the membership the moment they are
//!   minted, with parents biased toward recent blocks (long competing
//!   branches) but free to hit any block (wide shallow forks);
//! * **shuffled delivery**: the tree is minted first, then membership
//!   inserts replay in a random parent-closed order — the shape replicas
//!   see under out-of-order networks, where consecutive inserts land in
//!   unrelated subtrees.
//!
//! Combined, the two scenarios exceed 1000 distinct random sequences.

use btadt_core::block::Payload;
use btadt_core::chain::Blockchain;
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::{
    Ghost, GhostWeight, HeaviestWork, LongestChain, SelectionAux, SelectionFn,
};
use btadt_core::store::{BlockStore, TreeMembership};
use btadt_core::tipcache::ChainCache;

fn rules() -> Vec<(&'static str, Box<dyn SelectionFn>)> {
    vec![
        ("longest", Box::new(LongestChain)),
        ("heaviest", Box::new(HeaviestWork)),
        (
            "ghost-count",
            Box::new(Ghost {
                weight: GhostWeight::BlockCount,
            }),
        ),
        (
            "ghost-work",
            Box::new(Ghost {
                weight: GhostWeight::Work,
            }),
        ),
    ]
}

/// Draw the parent for the next mint: half the time a recent block (deep
/// competing branches), otherwise any block (wide forks near the root).
fn pick_parent(seed: u64, step: u64, minted: &[BlockId]) -> BlockId {
    let r = splitmix64_at(seed ^ 0x9A_2E17, step);
    let idx = if r & 1 == 0 {
        let window = minted.len().min(5);
        minted.len() - 1 - (r as usize >> 1) % window
    } else {
        (r as usize >> 1) % minted.len()
    };
    minted[idx]
}

/// One mint-order sequence: returns how many inserts were checked.
fn run_mint_order_sequence(seed: u64) -> usize {
    let n_blocks = 24 + (splitmix64_at(seed, 0) % 40) as usize;
    let mut store = BlockStore::new();
    let mut tree = TreeMembership::genesis_only();
    let rules = rules();
    let mut caches: Vec<ChainCache> = rules.iter().map(|_| ChainCache::new()).collect();
    let mut minted = vec![BlockId::GENESIS];

    for step in 0..n_blocks as u64 {
        let parent = pick_parent(seed, step, &minted);
        let work = 1 + splitmix64_at(seed ^ 0x3052, step) % 4;
        let b = store.mint(
            parent,
            ProcessId((step % 4) as u32),
            (step % 4) as u32,
            work,
            step,
            Payload::Empty,
        );
        minted.push(b);
        tree.insert(&store, b);
        for ((name, rule), cache) in rules.iter().zip(caches.iter_mut()) {
            cache.on_insert(rule.as_ref(), &store, &tree, b);
            let oracle_tip = rule.select_tip(&store, &tree);
            assert_eq!(
                cache.tip(),
                oracle_tip,
                "seed {seed} step {step}: incremental {name} diverged from full scan"
            );
            assert_eq!(
                cache.chain(),
                Blockchain::from_tip(&store, oracle_tip),
                "seed {seed} step {step}: cached {name} chain diverged"
            );
        }
    }
    n_blocks
}

/// One shuffled-delivery sequence: mint the whole tree, then insert the
/// membership in a random parent-closed order.
fn run_shuffled_sequence(seed: u64) -> usize {
    let n_blocks = 20 + (splitmix64_at(seed, 1) % 30) as usize;
    let mut store = BlockStore::new();
    let mut minted = vec![BlockId::GENESIS];
    for step in 0..n_blocks as u64 {
        let parent = pick_parent(seed, step, &minted);
        let work = 1 + splitmix64_at(seed ^ 0x3053, step) % 4;
        minted.push(store.mint(
            parent,
            ProcessId((step % 3) as u32),
            (step % 3) as u32,
            work,
            step,
            Payload::Empty,
        ));
    }

    let mut tree = TreeMembership::genesis_only();
    let rules = rules();
    let mut caches: Vec<ChainCache> = rules.iter().map(|_| ChainCache::new()).collect();
    // Ready set: minted blocks whose parent is already a member.
    let mut pending: Vec<BlockId> = minted[1..].to_vec();
    let mut step = 0u64;
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| {
                store
                    .parent(pending[i])
                    .map(|p| tree.contains(p))
                    .unwrap_or(true)
            })
            .collect();
        let pick = ready[(splitmix64_at(seed ^ 0x5417, step) as usize) % ready.len()];
        let b = pending.swap_remove(pick);
        tree.insert(&store, b);
        for ((name, rule), cache) in rules.iter().zip(caches.iter_mut()) {
            cache.on_insert(rule.as_ref(), &store, &tree, b);
            let oracle_tip = rule.select_tip(&store, &tree);
            assert_eq!(
                cache.tip(),
                oracle_tip,
                "seed {seed} delivery {step}: incremental {name} diverged from full scan"
            );
        }
        step += 1;
    }
    n_blocks
}

#[test]
fn incremental_matches_full_scan_on_mint_order_workloads() {
    let mut inserts = 0;
    for seed in 0..800u64 {
        inserts += run_mint_order_sequence(seed);
    }
    assert!(
        inserts > 10_000,
        "workload should be substantial: {inserts}"
    );
}

#[test]
fn incremental_matches_full_scan_on_shuffled_delivery() {
    let mut inserts = 0;
    for seed in 0..300u64 {
        inserts += run_shuffled_sequence(0xD15_7269 ^ seed);
    }
    assert!(inserts > 5_000, "workload should be substantial: {inserts}");
}

/// The same agreement through the public `BlockTree` API, mixing tip
/// appends with explicit forks via `graft`, and checking the `read()`
/// output (the externally observable surface of Def. 3.1).
#[test]
fn blocktree_reads_match_full_scan_under_grafted_forks() {
    use btadt_core::blocktree::{BlockTree, CandidateBlock};
    use btadt_core::validity::AcceptAll;

    for seed in 0..120u64 {
        let mut bt = BlockTree::new(LongestChain, AcceptAll);
        let mut ids = vec![BlockId::GENESIS];
        for step in 0..60u64 {
            let r = splitmix64_at(seed ^ 0xB10C7, step);
            let id = if r.is_multiple_of(3) {
                // Fork: graft under an arbitrary known block.
                let parent = ids[(r as usize >> 8) % ids.len()];
                bt.graft(parent, CandidateBlock::simple(ProcessId(0), step))
            } else {
                let before = bt.store().len();
                bt.append(CandidateBlock::simple(ProcessId(1), step));
                Some(BlockId(before as u32))
            };
            if let Some(id) = id {
                ids.push(id);
            }
            assert_eq!(
                bt.selected_tip(),
                bt.selected_tip_full_scan(),
                "seed {seed} step {step}: BlockTree cache diverged"
            );
            assert_eq!(
                bt.read(),
                Blockchain::from_tip(bt.store(), bt.selected_tip_full_scan()),
                "seed {seed} step {step}: read() diverged from Def. 3.1"
            );
        }
    }
}

/// The concurrent↔sequential differential: race threads on a
/// `ConcurrentBlockTree`, then replay the run's committed insert order
/// into the sequential machinery (snapshot arena + `TreeMembership` +
/// `ChainCache`) and demand the identical final tip and chain — per rule,
/// with the full-scan `select_tip` as the ultimate oracle at every step.
fn concurrent_replay_matches_sequential<F: btadt_core::selection::SelectionFn + Clone>(
    rule: F,
    seed: u64,
) {
    use btadt_core::blocktree::CandidateBlock;
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::validity::AcceptAll;

    let cbt = ConcurrentBlockTree::new(rule.clone(), AcceptAll);
    std::thread::scope(|s| {
        // Two appenders extending the selected tip…
        for t in 0..2u32 {
            let cbt = &cbt;
            s.spawn(move || {
                for i in 0..25u64 {
                    let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                    let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                        .with_work(1 + r % 4);
                    cbt.append(cand).expect("AcceptAll");
                }
            });
        }
        // …and two fork builders grafting at random depths of the
        // published chain (real reorg pressure for heaviest/GHOST).
        for t in 2..4u32 {
            let cbt = &cbt;
            s.spawn(move || {
                for i in 0..25u64 {
                    let chain = cbt.read();
                    let ids = chain.ids();
                    let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                    let parent = ids[(r as usize >> 3) % ids.len()];
                    let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                        .with_work(1 + r % 4);
                    cbt.graft(parent, cand).expect("AcceptAll");
                }
            });
        }
    });

    let store = cbt.snapshot_store();
    let log = cbt.commit_log();
    assert_eq!(log.len(), 100, "every commit recorded");

    let mut tree = TreeMembership::genesis_only();
    let mut cache = ChainCache::new();
    for (step, &id) in log.iter().enumerate() {
        tree.insert(&store, id);
        cache.on_insert(&rule, &store, &tree, id);
        assert_eq!(
            cache.tip(),
            rule.select_tip(&store, &tree),
            "seed {seed} step {step}: replay diverged from full scan"
        );
    }
    assert_eq!(
        cache.tip(),
        cbt.selected_tip(),
        "seed {seed}: sequential replay tip ≠ concurrent tip"
    );
    assert_eq!(
        cache.chain(),
        cbt.read_owned(),
        "seed {seed}: sequential replay chain ≠ concurrent published chain"
    );
    assert_eq!(cbt.selected_tip(), cbt.selected_tip_full_scan());
}

#[test]
fn concurrent_runs_replay_to_identical_selection_longest() {
    for seed in 0..8u64 {
        concurrent_replay_matches_sequential(LongestChain, seed);
    }
}

#[test]
fn concurrent_runs_replay_to_identical_selection_heaviest() {
    for seed in 0..8u64 {
        concurrent_replay_matches_sequential(HeaviestWork, 0xC0FFEE ^ seed);
    }
}

#[test]
fn concurrent_runs_replay_to_identical_selection_ghost() {
    for seed in 0..8u64 {
        concurrent_replay_matches_sequential(
            Ghost {
                weight: GhostWeight::BlockCount,
            },
            0x6057 ^ seed,
        );
        concurrent_replay_matches_sequential(
            Ghost {
                weight: GhostWeight::Work,
            },
            0x6058 ^ seed,
        );
    }
}

/// Mixed inline/staged commits replay identically: a solo phase (every
/// append takes the uncontended inline fast path — no queue) followed by
/// a contended phase (appends race, some riding the staged queue), then
/// the whole commit log replays through the sequential machinery to the
/// identical chain. The pipeline counters prove both paths actually ran;
/// the replay proves the paths are observationally one.
#[test]
fn mixed_inline_and_staged_commits_replay_identically() {
    use btadt_core::blocktree::CandidateBlock;
    use btadt_core::concurrent::ConcurrentBlockTree;
    use btadt_core::validity::AcceptAll;

    for seed in 0..6u64 {
        let cbt = ConcurrentBlockTree::new(LongestChain, AcceptAll);
        // Solo phase: 30 appends from one thread — all inline.
        for i in 0..30u64 {
            cbt.append(CandidateBlock::simple(ProcessId(0), i).with_work(1 + (seed + i) % 3))
                .expect("AcceptAll");
        }
        let solo = cbt.pipeline_stats();
        assert_eq!(solo.inline_appends, 30, "seed {seed}: solo phase is inline");
        assert_eq!(
            solo.batched_appends, 0,
            "seed {seed}: solo phase never queues"
        );
        // Contended phase: 4 racing appenders — inline when the lock is
        // free, staged when a drainer holds it (the split depends on the
        // scheduler; the sum may not).
        std::thread::scope(|s| {
            for t in 1..5u32 {
                let cbt = &cbt;
                s.spawn(move || {
                    for i in 0..20u64 {
                        let r = splitmix64_at(seed ^ ((t as u64) << 8), i);
                        let cand = CandidateBlock::simple(ProcessId(t), ((t as u64) << 32) | i)
                            .with_work(1 + r % 4);
                        cbt.append(cand).expect("AcceptAll");
                    }
                });
            }
        });
        let stats = cbt.pipeline_stats();
        assert_eq!(
            stats.inline_appends + stats.batched_appends,
            110,
            "seed {seed}: every append resolved on exactly one path"
        );
        // Replay the commit log sequentially: both paths linearized into
        // one insert order that reproduces the published chain.
        let store = cbt.snapshot_store();
        let log = cbt.commit_log();
        assert_eq!(log.len(), 110, "seed {seed}");
        let mut tree = TreeMembership::genesis_only();
        let mut cache = ChainCache::new();
        for &id in &log {
            tree.insert(&store, id);
            cache.on_insert(&LongestChain, &store, &tree, id);
        }
        assert_eq!(
            cache.chain(),
            cbt.read_owned(),
            "seed {seed}: mixed-path replay diverged from the published chain"
        );
        assert_eq!(
            cbt.selected_tip(),
            cbt.selected_tip_full_scan(),
            "seed {seed}"
        );
    }
}

/// One scoring pass over a drained batch (`score_inserts` over the whole
/// batch, `apply_partial` once) must land exactly where the one-insert-
/// at-a-time fold lands, and both on the full-scan `select_tip` oracle,
/// after every batch. 20 seeds of fork-heavy random batches, for
/// longest, heaviest, and both GHOST weightings.
#[test]
fn batch_scoring_matches_serial_fold() {
    for seed in 0..20u64 {
        // Mint a fork-heavy tree; mint order is parent-closed, so any
        // consecutive slice of it is a valid drained batch.
        let n_blocks = 40 + (splitmix64_at(seed, 7) % 50) as usize;
        let mut store = BlockStore::new();
        let mut minted = vec![BlockId::GENESIS];
        for step in 0..n_blocks as u64 {
            let parent = pick_parent(seed ^ 0x7EA2, step, &minted);
            let work = 1 + splitmix64_at(seed ^ 0x3054, step) % 4;
            minted.push(store.mint(
                parent,
                ProcessId((step % 4) as u32),
                (step % 4) as u32,
                work,
                step,
                Payload::Empty,
            ));
        }

        for (name, rule) in rules() {
            let mut batches = Vec::new();
            let mut next = 1usize;
            while next <= n_blocks {
                // Drained batches of 1..=6 commits, like a contended drain.
                let want = 1 + (splitmix64_at(seed ^ 0xBA7C, batches.len() as u64) % 6) as usize;
                let end = (next + want).min(n_blocks + 1);
                batches.push(minted[next..end].to_vec());
                next = end;
            }
            assert_batched_matches_serial(
                rule.as_ref(),
                &store,
                &batches,
                &format!("seed {seed} rule {name}"),
            );
        }
    }
}

/// Feeds `batches` (parent-closed, in order) through one scoring pass per
/// batch and, on a membership of its own, one pass per insert — exactly
/// as the pre-pipeline drain did, so the serial state is warmed against
/// the tree-so-far, never against a tree that already holds the rest of
/// the batch. After every batch both tips must equal the full scan.
fn assert_batched_matches_serial(
    rule: &dyn SelectionFn,
    store: &BlockStore,
    batches: &[Vec<BlockId>],
    ctx: &str,
) {
    let mut tree = TreeMembership::genesis_only();
    let mut aux = SelectionAux::new();
    let mut tip = BlockId::GENESIS;
    let mut serial_tree = TreeMembership::genesis_only();
    let mut serial_aux = SelectionAux::new();
    let mut serial_tip = BlockId::GENESIS;
    for (batch_no, batch) in batches.iter().enumerate() {
        for &id in batch {
            tree.insert(store, id);
        }
        let partial = rule.score_inserts(store, batch);
        tip = rule.apply_partial(store, &tree, &mut aux, &partial, tip);

        for &id in batch {
            serial_tree.insert(store, id);
            let partial = rule.score_inserts(store, &[id]);
            serial_tip =
                rule.apply_partial(store, &serial_tree, &mut serial_aux, &partial, serial_tip);
        }
        let oracle = rule.select_tip(store, &tree);
        assert_eq!(
            tip, serial_tip,
            "{ctx} batch {batch_no}: batched tip diverged from the serial fold"
        );
        assert_eq!(
            tip, oracle,
            "{ctx} batch {batch_no}: batched tip diverged from the full scan"
        );
    }
}

/// Deep reorgs through one-pass scoring, for both GHOST weightings: a
/// 2,000-block chain, a competing branch forked within 10 blocks of
/// genesis that grows until it outweighs the chain, then the chain
/// overtaking it again — fed in mixed batches, so both flips happen at a
/// deep fork inside a multi-insert pass. The benchmark's grafts attach
/// within 64 blocks of the tip, and the other differentials stay under
/// 90 blocks, so nothing else drives these paths.
#[test]
fn ghost_deep_reorgs_match_serial_fold() {
    for weight in [GhostWeight::BlockCount, GhostWeight::Work] {
        let rule = Ghost { weight };
        let seed = weight as u64;
        let mut store = BlockStore::new();
        let mut main = vec![BlockId::GENESIS];
        let mut step = 0u64;
        let mut mint = |store: &mut BlockStore, parent: BlockId| {
            step += 1;
            let work = 1 + splitmix64_at(seed ^ 0xDEE9, step) % 4;
            store.mint(parent, ProcessId(0), 0, work, step, Payload::Empty)
        };
        let mut batches: Vec<Vec<BlockId>> = Vec::new();
        // The chain, extended at its tip in batches of 1..=6.
        while main.len() <= 2_000 {
            let want = 1 + (splitmix64_at(seed ^ 0xC4A1, batches.len() as u64) % 6) as usize;
            let batch: Vec<BlockId> = (0..want)
                .map(|_| {
                    let b = mint(&mut store, *main.last().unwrap());
                    main.push(b);
                    b
                })
                .collect();
            batches.push(batch);
        }
        let fork_at = main[1 + (splitmix64_at(seed, 1) % 9) as usize];
        let mut rival = vec![fork_at];
        let mut flips = 0;
        let mut on_rival = false;
        // Mixed batches of 2..=6: mostly the favoured branch, at least
        // one block of the other. The rival is favoured until the full
        // scan selects it; then the chain is, until it is selected again.
        let mut tree = TreeMembership::full(&store);
        while flips < 2 {
            assert!(
                batches.len() < 20_000,
                "{weight:?}: the reorgs never happened"
            );
            let want = 2 + (splitmix64_at(seed ^ 0x5EED, batches.len() as u64) % 5) as usize;
            let batch: Vec<BlockId> = (0..want)
                .map(|i| {
                    let to_rival = on_rival == (i == 0);
                    let branch = if to_rival { &mut rival } else { &mut main };
                    let b = mint(&mut store, *branch.last().unwrap());
                    branch.push(b);
                    b
                })
                .collect();
            for &b in &batch {
                tree.insert(&store, b);
            }
            batches.push(batch);
            let selected_rival = store.is_ancestor(rival[1], rule.select_tip(&store, &tree));
            if selected_rival != on_rival {
                on_rival = selected_rival;
                flips += 1;
            }
        }
        assert_batched_matches_serial(&rule, &store, &batches, &format!("{weight:?}"));
    }
}

/// Repeated reads of an unchanged tip must share one snapshot allocation —
/// the zero-rewalk guarantee (`path_from_genesis` is off the read path).
#[test]
fn unchanged_tip_reads_share_the_snapshot() {
    use btadt_core::blocktree::{BlockTree, CandidateBlock};
    use btadt_core::validity::AcceptAll;

    let mut bt = BlockTree::new(LongestChain, AcceptAll);
    for i in 0..50 {
        bt.append(CandidateBlock::simple(ProcessId(0), i));
    }
    let a = bt.read();
    let b = bt.read();
    assert_eq!(a, b);
    assert_eq!(
        a.ids().as_ptr(),
        b.ids().as_ptr(),
        "reads of an unchanged tip must be Arc clones, not fresh walks"
    );
    bt.append(CandidateBlock::simple(ProcessId(0), 99));
    let c = bt.read();
    // Frontier appends extend the shared buffer in place: the held
    // snapshot keeps its shorter view, no copy-on-write happens.
    assert_eq!(c.len(), a.len() + 1);
    assert_eq!(a, b, "held snapshot is unmoved by the append");
    assert!(a.is_prefix_of(&c));
}
