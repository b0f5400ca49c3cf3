//! Criterion microbenches for the parallel executor's synchronization
//! path: the per-quantum barrier round-trip the coordinator pays to
//! open and close a conservative window, and the end-to-end cost of a
//! domain-decomposed run against the identical serial run — which on a
//! single core is a direct measurement of the split + window + walk
//! (cross-domain merge) overhead, since no real concurrency can hide
//! it.

use criterion::{criterion_group, criterion_main, Criterion};
use occamy_core::BmKind;
use occamy_sim::topology::{fabric, BmSpec, FabricCfg, FabricTopo, SchedKind};
use occamy_sim::{CcAlgo, FlowDesc, SimConfig, World, MS, US};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// One conservative window costs the coordinator two barrier waits
/// (start the workers on the window, then wait for the window to
/// drain) plus the serial walk. This measures just the barrier
/// round-trips: `rounds` quanta across `workers` worker threads.
fn barrier_rounds(workers: usize, rounds: u64) -> u64 {
    let start = Barrier::new(workers + 1);
    let end = Barrier::new(workers + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                start.wait();
                if done.load(Ordering::SeqCst) {
                    return;
                }
                end.wait();
            });
        }
        for _ in 0..rounds {
            start.wait();
            end.wait();
        }
        done.store(true, Ordering::SeqCst);
        start.wait();
    });
    rounds
}

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_sync_quantum");
    for workers in [2usize, 4] {
        group.bench_function(format!("barrier_roundtrip_{workers}w_x1k"), |b| {
            b.iter(|| black_box(barrier_rounds(workers, 1_000)));
        });
    }
    group.finish();
}

/// A k=4 fat-tree (16 hosts, 4 pods → 4 event domains) running a
/// shifted permutation plus a small incast — enough cross-pod traffic
/// that every window carries cross-domain arrivals through the merge
/// walk.
fn build_world(threads: usize) -> World {
    let mut sim = SimConfig::large_scale();
    sim.threads = threads;
    let mut w = fabric(FabricCfg {
        topo: FabricTopo::FatTree { k: 4 },
        host_rate_bps: 25_000_000_000,
        fabric_rate_bps: 25_000_000_000,
        oversubscription: 1.0,
        link_prop_ps: 10 * US,
        buffer_per_8ports_bytes: 500_000,
        classes: 1,
        bm: BmSpec::uniform(BmKind::Occamy, 8.0),
        sched: SchedKind::Fifo,
        sim,
    });
    let n = w.hosts.len();
    for src in 0..n {
        w.add_flow(FlowDesc {
            src,
            dst: (src + 5) % n,
            bytes: 400_000,
            start_ps: (src as u64) * US,
            prio: 0,
            cc: CcAlgo::Dctcp,
            query: None,
            is_query: false,
        });
    }
    w
}

fn run_world(threads: usize) -> u64 {
    let mut w = build_world(threads);
    w.run_to_completion(200 * MS);
    assert!(w.all_flows_done());
    w.metrics.events_processed
}

/// Serial vs domain-decomposed execution of the identical workload.
/// The `threads4` minus `serial` gap divided by `ParStats::windows`
/// is the full per-quantum sync cost (split amortized away, barrier
/// wakeups, exec-log bookkeeping, and the cross-domain merge walk).
fn bench_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_sync_run");
    group.sample_size(10);
    group.bench_function("fat_tree_k4_permutation/serial", |b| {
        b.iter(|| black_box(run_world(1)));
    });
    group.bench_function("fat_tree_k4_permutation/threads4", |b| {
        b.iter(|| black_box(run_world(4)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_barrier, bench_run
}
criterion_main!(benches);
