//! Arrangement benchmarks: recurring high-overlap serving with
//! maintained arrangements vs. per-tick re-pull, at 16/64/256 queries.
//! This is the `BENCH_arrange.json` source in CI
//! (`cargo bench --bench arrange -- --smoke`).
//!
//! The point under test is wall-clock, not energy (the energy win is
//! asserted by `paotr-exec`'s acceptance test): serving through rings
//! must not cost more runtime than it saves in pull bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paotr_core::plan::Engine;
use paotr_exec::{AcceptAll, ArrangeConfig, ArrivalSpec, ServeConfig, ServeLoop};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};

/// A recurring (periodic, every tick) high-overlap serving loop.
fn serve_loop(queries: usize, arrange: bool) -> (ServeLoop, Engine) {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(queries, 0.6), 0);
    let workload = Workload::from_trees(trees, catalog).expect("generated workloads validate");
    let engine = Engine::new();
    let joint = planner_by_name("shared-greedy")
        .expect("built-in")
        .plan(&workload, &engine)
        .expect("workloads plan");
    let config = ServeConfig {
        ticks: 60,
        seed: 1,
        arrivals: ArrivalSpec::Periodic { every: 1 },
        drift: None,
        arrange: arrange.then(ArrangeConfig::default),
        faults: None,
        record_verdicts: false,
    };
    (ServeLoop::new(&workload, &joint, config), engine)
}

/// Sixty recurring ticks per mode and workload size.
fn bench_arrange(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrange");
    group.sample_size(10);
    for queries in [16usize, 64, 256] {
        let (repull, engine) = serve_loop(queries, false);
        group.bench_function(BenchmarkId::new("repull", format!("{queries}q")), |b| {
            b.iter(|| repull.run(&mut AcceptAll, &engine).expect("serve runs"))
        });
        let (arranged, engine) = serve_loop(queries, true);
        group.bench_function(BenchmarkId::new("maintained", format!("{queries}q")), |b| {
            b.iter(|| arranged.run(&mut AcceptAll, &engine).expect("serve runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_arrange);
criterion_main!(benches);
