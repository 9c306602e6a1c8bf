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

use btadt_core::block::{Block, Payload};
use btadt_core::chain::Blockchain;
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::{
    Ghost, GhostWeight, HeaviestWork, LongestChain, SelectionAux, SelectionFn,
};
use btadt_core::store::{BlockMeta, BlockStore, BlockView, TreeMembership};
use btadt_core::tipcache::ChainCache;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

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
    assert_batched_matches_serial_across_resets(rule, store, batches, &[], ctx);
}

/// [`assert_batched_matches_serial`] whose batched run drops its aux after
/// each batch listed in `resets` and re-derives its tip with the full
/// scan, as `rescue_and_stage` and `ChainCache::rebuild` do, so the next
/// pass rebuilds the aux from the tree as it stands. The serial fold never
/// resets: both must still land on the full scan after every batch.
fn assert_batched_matches_serial_across_resets(
    rule: &dyn SelectionFn,
    store: &BlockStore,
    batches: &[Vec<BlockId>],
    resets: &[usize],
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
        if resets.contains(&batch_no) {
            aux.reset();
            tip = oracle;
        }
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

/// Mints the trees the GHOST reset tests feed: seeded work, unique
/// nonces, and the batches in feeding order. `tree` holds what was fed so
/// far, for full-scan checks while building.
struct Grower {
    store: BlockStore,
    tree: TreeMembership,
    batches: Vec<Vec<BlockId>>,
    seed: u64,
    step: u64,
}

impl Grower {
    fn new(seed: u64) -> Self {
        Grower {
            store: BlockStore::new(),
            tree: TreeMembership::genesis_only(),
            batches: Vec::new(),
            seed,
            step: 0,
        }
    }

    /// Mints a block under `parent`; it is not a member until fed.
    fn mint(&mut self, parent: BlockId, work: u64) -> BlockId {
        self.step += 1;
        self.store
            .mint(parent, ProcessId(0), 0, work, self.step, Payload::Empty)
    }

    /// Mints a block of seeded work 1..=4 at the end of `branch`.
    fn extend(&mut self, branch: &mut Vec<BlockId>) -> BlockId {
        let work = 1 + splitmix64_at(self.seed ^ 0x3057, self.step) % 4;
        let b = self.mint(*branch.last().unwrap(), work);
        branch.push(b);
        b
    }

    fn feed(&mut self, batch: Vec<BlockId>) {
        for &b in &batch {
            self.tree.insert(&self.store, b);
        }
        self.batches.push(batch);
    }

    /// Extends `branch` by `n` blocks, fed in seeded batches of 1..=6.
    fn grow(&mut self, branch: &mut Vec<BlockId>, mut n: usize) {
        while n > 0 {
            let want = 1 + (splitmix64_at(self.seed ^ 0xC4A2, self.batches.len() as u64) % 6);
            let want = (want as usize).min(n);
            let batch = (0..want).map(|_| self.extend(branch)).collect();
            self.feed(batch);
            n -= want;
        }
    }

    /// Hangs a branch of `len` blocks under `main[at]` for each
    /// `(at, len)`; returns them, fork point first.
    fn hang(&mut self, main: &[BlockId], at: &[(usize, usize)]) -> Vec<Vec<BlockId>> {
        at.iter()
            .map(|&(h, len)| {
                let mut branch = vec![main[h]];
                self.grow(&mut branch, len);
                branch
            })
            .collect()
    }

    fn last_batch(&self) -> usize {
        self.batches.len() - 1
    }

    fn selected(&self, rule: &Ghost) -> BlockId {
        rule.select_tip(&self.store, &self.tree)
    }

    /// GHOST's weight of the member subtree under `root`, recounted.
    fn subtree_weight(&self, rule: &Ghost, root: BlockId) -> u64 {
        self.store
            .ids()
            .filter(|&b| self.tree.contains(b) && self.store.is_ancestor(root, b))
            .map(|b| match rule.weight {
                GhostWeight::BlockCount => 1,
                GhostWeight::Work => self.store.work_of(b).max(1),
            })
            .sum()
    }

    /// Grows a rival under `main[at]` to exactly the weight of
    /// `main[at + 1]`'s subtree, fed in batches of up to 3. Its first
    /// block's digest compares `side` against `main[at + 1]`'s (minted
    /// candidates that miss stay non-members). Returns the rival, fork
    /// point first.
    fn tie_rival(
        &mut self,
        rule: &Ghost,
        main: &[BlockId],
        at: usize,
        side: std::cmp::Ordering,
    ) -> Vec<BlockId> {
        let incumbent = main[at + 1];
        let mut gap = self.subtree_weight(rule, incumbent);
        let first = loop {
            let c = self.mint(main[at], 1);
            if self
                .store
                .digest_of(c)
                .cmp(&self.store.digest_of(incumbent))
                == side
            {
                break c;
            }
        };
        gap -= 1;
        let mut rival = vec![main[at], first];
        let mut batch = vec![first];
        while gap > 0 {
            let work = (1 + splitmix64_at(self.seed ^ 0x71E, self.step) % 4).min(gap);
            gap -= match rule.weight {
                GhostWeight::BlockCount => 1,
                GhostWeight::Work => work,
            };
            batch.push(self.mint(*rival.last().unwrap(), work));
            rival.push(*batch.last().unwrap());
            if batch.len() == 3 {
                self.feed(std::mem::take(&mut batch));
            }
        }
        if !batch.is_empty() {
            self.feed(batch);
        }
        assert_eq!(
            self.subtree_weight(rule, rival[1]),
            self.subtree_weight(rule, incumbent),
            "the rival must tie"
        );
        rival
    }
}

/// An aux rebuilt mid-stream must carry on exactly like one that never
/// was, through a reorg whose new spine passes a nested fork. The tree: a
/// 400-block chain with lighter branches hanging at heights 50, 150, 250
/// and 330. A fork nested 10 blocks into the lowest branch then grows,
/// with the chain growing beside it, until the full scan selects it, so
/// the spine leaves the chain at height 50 and turns off that branch at
/// height 60; then the chain grows until it is selected again. The
/// batched run resets once the branches hang off the deep tip, halfway
/// through the nested fork's growth, and right after each flip.
#[test]
fn ghost_reset_then_nested_fork_reorg_matches_serial_fold() {
    for weight in [GhostWeight::BlockCount, GhostWeight::Work] {
        let rule = Ghost { weight };
        let mut g = Grower::new(0x7E57 ^ weight as u64);
        let mut main = vec![BlockId::GENESIS];
        g.grow(&mut main, 400);
        let branches = g.hang(&main, &[(50, 40), (150, 30), (250, 20), (330, 10)]);
        assert_eq!(g.selected(&rule), *main.last().unwrap());
        let mut resets = vec![g.last_batch()];
        let mut nested = vec![branches[0][10]];
        let (mut flips, mut on_nested, mut midway) = (0, false, false);
        // Mixed batches of 2..=6: one block of the branch not favoured,
        // the rest on the favoured one, as in the deep-reorg test above.
        while flips < 2 {
            assert!(
                g.batches.len() < 5_000,
                "{weight:?}: the reorgs never happened"
            );
            let want = 2 + splitmix64_at(g.seed ^ 0x5EED, g.batches.len() as u64) % 5;
            let batch = (0..want)
                .map(|i| {
                    let to_nested = on_nested == (i == 0);
                    g.extend(if to_nested { &mut nested } else { &mut main })
                })
                .collect();
            g.feed(batch);
            if !midway && nested.len() > 150 {
                midway = true;
                resets.push(g.last_batch());
            }
            let selected_nested = g.store.is_ancestor(nested[1], g.selected(&rule));
            if selected_nested != on_nested {
                on_nested = selected_nested;
                flips += 1;
                resets.push(g.last_batch());
            }
        }
        assert!(
            midway,
            "{weight:?}: the nested fork won before the midway reset"
        );
        assert_batched_matches_serial_across_resets(
            &rule,
            &g.store,
            &g.batches,
            &resets,
            &format!("nested fork {weight:?}"),
        );
    }
}

/// Ties after a reset: two member children of a spine block weigh the
/// same, so the larger digest decides. On a 300-block chain with lighter
/// branches hanging at heights 60, 140 and 220, a rival grows under
/// `main[250]` to exactly the weight of `main[251]`'s subtree, but with
/// the smaller digest, so the chain keeps the spine; then a rival with the
/// larger digest ties `main[201]`'s subtree and takes it. The chain and
/// that rival then extend by equal weights in turn, so the spine flips on
/// every tie. Last, a rival with the larger digest ties `main[101]`'s
/// subtree, whose weight runs through the reorged spine. The batched run
/// resets once the branches hang and right after the first tie.
#[test]
fn ghost_reset_then_digest_ties_match_serial_fold() {
    use std::cmp::Ordering::{Greater, Less};
    for weight in [GhostWeight::BlockCount, GhostWeight::Work] {
        let rule = Ghost { weight };
        let mut g = Grower::new(0x71E5 ^ weight as u64);
        let mut main = vec![BlockId::GENESIS];
        g.grow(&mut main, 300);
        g.hang(&main, &[(60, 20), (140, 15), (220, 10)]);
        let mut resets = vec![g.last_batch()];
        g.tie_rival(&rule, &main, 250, Less);
        assert_eq!(g.selected(&rule), *main.last().unwrap(), "{weight:?}");
        resets.push(g.last_batch());
        let mut rival = g.tie_rival(&rule, &main, 200, Greater);
        assert_eq!(g.selected(&rule), *rival.last().unwrap(), "{weight:?}");
        for round in 0..4u64 {
            let work = 1 + splitmix64_at(g.seed ^ 0xA17, round) % 4;
            // The chain pulls ahead, then the rival ties and wins again.
            for branch in [&mut main, &mut rival] {
                let b = g.mint(*branch.last().unwrap(), work);
                branch.push(b);
                g.feed(vec![b]);
                assert_eq!(g.selected(&rule), b, "{weight:?} round {round}");
            }
        }
        // A tie below that reorg weighs the spine child through it.
        let low = g.tie_rival(&rule, &main, 100, Greater);
        assert_eq!(g.selected(&rule), *low.last().unwrap(), "{weight:?}");
        assert_batched_matches_serial_across_resets(
            &rule,
            &g.store,
            &g.batches,
            &resets,
            &format!("digest ties {weight:?}"),
        );
    }
}

/// `BlockStore` behind only the five required `BlockView` methods,
/// counting `meta` reads. Every provided method (`parent`, `height`,
/// `ancestor_at`, …) reads through `meta`, so the count is the block
/// metadata a call touches.
struct MetaCounter<'a> {
    store: &'a BlockStore,
    metas: AtomicUsize,
}

impl BlockView for MetaCounter<'_> {
    fn block_count(&self) -> usize {
        BlockView::block_count(self.store)
    }

    fn has_block(&self, id: BlockId) -> bool {
        BlockView::has_block(self.store, id)
    }

    fn meta(&self, id: BlockId) -> BlockMeta {
        self.metas.fetch_add(1, AtomicOrdering::Relaxed);
        BlockView::meta(self.store, id)
    }

    fn with_block(&self, id: BlockId, f: &mut dyn FnMut(&Block)) {
        BlockView::with_block(self.store, id, f)
    }

    fn for_each_child(&self, id: BlockId, f: &mut dyn FnMut(BlockId)) {
        BlockView::for_each_child(self.store, id, f)
    }
}

/// GHOST's per-insert cost follows the fork, not the depth. On the
/// benchmark's `fork-ghost` shape (appends at the selected tip, and one
/// graft in five under a seeded block among the last 64 of the selected
/// chain), a 20,000-block tree is grown through the incremental path,
/// then 1,000 more single inserts are scored, and none of their
/// `apply_partial` calls may read more than 2,000 block metas. A walk to
/// genesis reads one per height, over 16,000 here. Counted, not timed, so
/// it holds in debug builds too.
#[test]
fn ghost_insert_cost_follows_the_fork_not_the_depth() {
    const WARM: u64 = 20_000;
    const MEASURED: u64 = 1_000;
    const BOUND: usize = 2_000;
    for weight in [GhostWeight::BlockCount, GhostWeight::Work] {
        let rule = Ghost { weight };
        let seed = 0xF06 ^ weight as u64;
        let mut store = BlockStore::new();
        let mut tree = TreeMembership::genesis_only();
        let mut aux = SelectionAux::new();
        let mut tip = BlockId::GENESIS;
        let mut worst = 0;
        for step in 0..WARM + MEASURED {
            let parent = if step % 5 == 4 {
                let back = (splitmix64_at(seed, step) % 64) as u32;
                store.ancestor_at(tip, store.height(tip).saturating_sub(back))
            } else {
                tip
            };
            let work = 1 + splitmix64_at(seed ^ 0x3058, step) % 4;
            let producer = ProcessId((step % 5 == 4) as u32);
            let id = store.mint(parent, producer, 0, work, step, Payload::Empty);
            tree.insert(&store, id);
            let partial = rule.score_inserts(&store, &[id]);
            let view = MetaCounter {
                store: &store,
                metas: AtomicUsize::new(0),
            };
            tip = rule.apply_partial(&view, &tree, &mut aux, &partial, tip);
            if step >= WARM {
                worst = worst.max(view.metas.into_inner());
            }
        }
        assert_eq!(tip, rule.select_tip(&store, &tree), "{weight:?}");
        assert!(
            store.height(tip) > 16_000,
            "{weight:?}: the tree should be deep, tip at {}",
            store.height(tip)
        );
        assert!(
            worst <= BOUND,
            "{weight:?}: one insert read {worst} metas (bound {BOUND})"
        );
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
