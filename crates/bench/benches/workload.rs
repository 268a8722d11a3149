//! Multi-query workload benchmarks: joint planning cost and the
//! predicted benefit of sharing, across workload sizes and overlap
//! degrees. This is the `BENCH_workload.json` source in CI
//! (`cargo bench --bench workload -- --smoke`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paotr_core::plan::Engine;
use paotr_exec::{AcceptAll, ServeConfig, ServeLoop};
use paotr_gen::workload::{workload_instance, WorkloadConfig, LARGE_WORKLOAD_QUERIES};
use paotr_multi::{planner_by_name, Workload};

fn workload(queries: usize, overlap: f64, seed: usize) -> Workload {
    // At 128 queries this config is exactly the seed-stable
    // `large_workload` preset shared with the experiments sweep
    // (`WorkloadConfig::large_workload` delegates to `with_overlap`).
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(queries, overlap), seed);
    Workload::from_trees(trees, catalog).expect("generated workloads validate")
}

/// Planning wall-time of every workload planner, across sizes (128 =
/// the `large_workload` preset).
fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_plan");
    group.sample_size(10);
    for &queries in &[4usize, 16, 64, LARGE_WORKLOAD_QUERIES] {
        let w = workload(queries, 0.6, 0);
        for name in paotr_multi::planner_names() {
            let planner = planner_by_name(name).expect("built-in");
            group.bench_with_input(BenchmarkId::new(name, queries), &w, |b, w| {
                b.iter(|| {
                    // fresh engine: measure real planning, not cache hits
                    let engine = Engine::new();
                    planner.plan(w, &engine).expect("workloads plan")
                })
            });
        }
        // Per-round fan-out over four scoped threads: gates the
        // round-dispatch overhead alongside the sequential planner above.
        if queries >= 64 {
            let pooled = paotr_multi::SharedGreedyPlanner {
                threads: paotr_par::ThreadCount::Fixed(4),
            };
            group.bench_with_input(
                BenchmarkId::new("shared-greedy-pool4", queries),
                &w,
                |b, w| {
                    b.iter(|| {
                        let engine = Engine::new();
                        paotr_multi::WorkloadPlanner::plan(&pooled, w, &engine)
                            .expect("workloads plan")
                    })
                },
            );
        }
    }
    group.finish();
}

/// Shared-tick execution throughput: joint vs. independent plans,
/// every query served every tick under accept-all admission.
fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_sim");
    group.sample_size(10);
    let engine = Engine::new();
    let w = workload(16, 0.6, 0);
    let cfg = ServeConfig {
        ticks: 50,
        seed: 1,
        ..Default::default()
    };
    for name in ["independent", "shared-greedy"] {
        let joint = planner_by_name(name)
            .expect("built-in")
            .plan(&w, &engine)
            .expect("workloads plan");
        group.bench_function(BenchmarkId::new("16q_50ticks", name), |b| {
            b.iter(|| {
                ServeLoop::new(&w, &joint, cfg)
                    .run(&mut AcceptAll, &engine)
                    .expect("plans serve")
            })
        });
    }
    group.finish();
}

/// Interference analysis cost (the pre-planning pass serving dashboards).
fn bench_interference(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_interference");
    group.sample_size(10);
    let engine = Engine::new();
    for &queries in &[16usize, 64] {
        let w = workload(queries, 0.5, 0);
        group.bench_with_input(BenchmarkId::from_parameter(queries), &w, |b, w| {
            b.iter(|| w.interference(&engine).expect("analysis succeeds"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planning, bench_execution, bench_interference);
criterion_main!(benches);
