//! Bench F1 — BlockTree primitive operations (the substrate behind the
//! Fig. 1 transition system): append, read, graft, ancestor queries, and
//! prefix tests as the tree grows.

use btadt_core::blocktree::{BlockTree, CandidateBlock};
use btadt_core::chain::Blockchain;
use btadt_core::ids::{splitmix64_at, BlockId, ProcessId};
use btadt_core::selection::{Ghost, HeaviestWork, LongestChain, SelectionFn};
use btadt_core::store::{BlockStore, TreeMembership};
use btadt_core::validity::AcceptAll;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn linear_tree(n: u64) -> BlockTree<LongestChain, AcceptAll> {
    let mut bt = BlockTree::new(LongestChain, AcceptAll);
    for i in 0..n {
        bt.append(CandidateBlock::simple(ProcessId(0), i));
    }
    bt
}

/// A store with a comb shape: a trunk of length n with a fork at every
/// vertex (worst-ish case for leaves/selection scans).
fn comb_store(n: u32) -> (BlockStore, TreeMembership) {
    use btadt_core::block::Payload;
    let mut s = BlockStore::new();
    let mut trunk = BlockId::GENESIS;
    for i in 0..n {
        let next = s.mint(trunk, ProcessId(0), 0, 1, i as u64 * 2, Payload::Empty);
        s.mint(trunk, ProcessId(1), 1, 1, i as u64 * 2 + 1, Payload::Empty);
        trunk = next;
    }
    let m = TreeMembership::full(&s);
    (s, m)
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktree/append");
    for &n in &[100u64, 1_000, 10_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(linear_tree(n).len()));
        });
    }
    g.finish();
}

fn bench_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktree/read");
    for &n in &[100u64, 1_000, 10_000] {
        let bt = linear_tree(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &bt, |b, bt| {
            b.iter(|| black_box(bt.read().len()));
        });
    }
    g.finish();
}

fn bench_selection_functions(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktree/selection");
    let (store, members) = comb_store(500);
    let fns: Vec<(&str, Box<dyn SelectionFn>)> = vec![
        ("longest", Box::new(LongestChain)),
        ("heaviest", Box::new(HeaviestWork)),
        ("ghost", Box::new(Ghost::default())),
    ];
    for (name, f) in &fns {
        g.bench_function(*name, |b| {
            b.iter(|| black_box(f.select_tip(&store, &members)));
        });
    }
    g.finish();
}

/// The F1 headline: an append+read loop (the canonical BT-ADT client) at
/// 10k/100k blocks, incremental selection cache vs the full Def. 3.1
/// rescan (`selected_tip_full_scan` + `Blockchain::from_tip`, the seed's
/// original read path). The acceptance bar for the incremental refactor
/// is ≥10x at 100k.
fn bench_append_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktree/append_read");
    g.sample_size(10);
    for &n in &[10_000u64, 100_000] {
        g.throughput(Throughput::Elements(2 * n)); // one append + one read per block
        g.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, &n| {
            b.iter(|| black_box(btadt_bench::append_read_incremental(n)));
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, &n| {
            b.iter(|| black_box(btadt_bench::append_read_full_scan(n)));
        });
    }
    g.finish();
}

/// The commit episode's scoring step in isolation: fold a fork-heavy
/// 64-insert batch one insert at a time (`score_inserts` + `apply_partial`
/// per block, as `ChainCache` does) vs in one pass over the batch (as a
/// drained commit episode does), per rule. The one-pass path is what
/// stage 1 runs under the selection lock, so its margin here is
/// critical-section time saved per drain.
fn bench_batch_scoring(c: &mut Criterion) {
    use btadt_core::selection::SelectionAux;

    let mut g = c.benchmark_group("blocktree/batch_score");
    let (store, members) = comb_store(500);
    // The batch: the last 32 comb teeth (trunk + fork per vertex) — 64
    // blocks spread across two subtrees with interleaved parents.
    let n = store.len() as u32;
    let batch: Vec<BlockId> = (n - 64..n).map(BlockId).collect();
    let tip_before = BlockId(n - 65);
    let fns: Vec<(&str, Box<dyn SelectionFn>)> = vec![
        ("longest", Box::new(LongestChain)),
        ("heaviest", Box::new(HeaviestWork)),
        ("ghost", Box::new(Ghost::default())),
    ];
    for (name, f) in &fns {
        let serial = |aux: &mut SelectionAux| {
            let mut t = tip_before;
            for &id in &batch {
                let partial = f.score_inserts(&store, &[id]);
                t = f.apply_partial(&store, &members, aux, &partial, t);
            }
            t
        };
        // Warm auxes outside the timed loop: both paths measure steady
        // state, not the one-off full rebuild.
        let mut serial_aux = SelectionAux::new();
        serial(&mut serial_aux);
        let mut batched_aux = serial_aux.clone();
        g.bench_function(BenchmarkId::new("serial_fold", name), |b| {
            b.iter(|| black_box(serial(&mut serial_aux)));
        });
        g.bench_function(BenchmarkId::new("batched", name), |b| {
            b.iter(|| {
                let partial = f.score_inserts(&store, &batch);
                black_box(f.apply_partial(&store, &members, &mut batched_aux, &partial, tip_before))
            });
        });
    }
    g.finish();
}

/// The `fork-ghost` shape on a sequential GHOST `BlockTree`: appends at
/// the selected tip plus one graft per four appends, each under a seeded
/// block among the last 64 of the selected chain.
fn ghost_fork_tree(n: u64) -> BlockTree<Ghost, AcceptAll> {
    let mut bt = BlockTree::new(Ghost::default(), AcceptAll);
    for i in 0..n {
        let cand = CandidateBlock::simple(ProcessId((i % 5 == 4) as u32), i);
        if i % 5 == 4 {
            let (store, tip) = (bt.store(), bt.selected_tip());
            let back = (splitmix64_at(0x6057, i) % 64) as u32;
            let parent = store.ancestor_at(tip, store.height(tip).saturating_sub(back));
            bt.graft(parent, cand);
        } else {
            bt.append(cand);
        }
    }
    bt
}

/// GHOST insert cost against depth: each iteration grows
/// [`ghost_fork_tree`] to 10k or 100k blocks, so the time per element is
/// the mean insert cost over every depth up to n. An insert that walks
/// to genesis costs about 10× more per element at 100k than at 10k; one
/// that stops where its fork meets the selected chain costs about the
/// same, up to the store's own slowdown as it grows (compare
/// `append_read/incremental`).
fn bench_ghost_deep(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktree/ghost_deep");
    g.sample_size(10);
    for &n in &[10_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(ghost_fork_tree(n).len()));
        });
    }
    g.finish();
}

fn bench_ancestry(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktree/ancestry");
    let bt = linear_tree(10_000);
    let store = bt.store();
    let tip = bt.selected_tip();
    g.bench_function("is_ancestor_depth_10k", |b| {
        b.iter(|| black_box(store.is_ancestor(BlockId(1), tip)));
    });
    g.bench_function("common_ancestor_depth_10k", |b| {
        b.iter(|| black_box(store.common_ancestor(tip, BlockId(5_000))));
    });
    let chain_a = Blockchain::from_tip(store, tip);
    let chain_b = Blockchain::from_tip(store, BlockId(9_000));
    g.bench_function("prefix_test_len_10k", |b| {
        b.iter(|| black_box(chain_b.is_prefix_of(&chain_a)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_append,
    bench_read,
    bench_selection_functions,
    bench_append_read,
    bench_batch_scoring,
    bench_ghost_deep,
    bench_ancestry
);
criterion_main!(benches);
