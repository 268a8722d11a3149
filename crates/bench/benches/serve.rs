//! Serving-runtime benchmarks: the tick loop's throughput under the
//! accept-all baseline, budgeted admission, and drift tracking. This is
//! the `BENCH_serve.json` source in CI
//! (`cargo bench --bench serve -- --smoke`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paotr_core::plan::Engine;
use paotr_exec::{AcceptAll, ArrivalSpec, DriftConfig, EnergyBudget, ServeConfig, ServeLoop};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};

fn serve_loop(drift: bool) -> (ServeLoop, Engine) {
    let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(16, 0.6), 0);
    let workload = Workload::from_trees(trees, catalog).expect("generated workloads validate");
    let engine = Engine::new();
    let joint = planner_by_name("shared-greedy")
        .expect("built-in")
        .plan(&workload, &engine)
        .expect("workloads plan");
    let config = ServeConfig {
        ticks: 100,
        seed: 1,
        arrivals: ArrivalSpec::Poisson { rate: 0.8 },
        drift: drift.then(DriftConfig::default),
        arrange: None,
        faults: None,
        record_verdicts: false,
    };
    (ServeLoop::new(&workload, &joint, config), engine)
}

/// One hundred served ticks of a 16-query workload, per policy.
fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    let (serve, engine) = serve_loop(false);
    group.bench_function(BenchmarkId::new("accept-all", "16q_100ticks"), |b| {
        b.iter(|| serve.run(&mut AcceptAll, &engine).expect("serve runs"))
    });
    group.bench_function(BenchmarkId::new("energy-budget", "16q_100ticks"), |b| {
        b.iter(|| {
            serve
                .run(&mut EnergyBudget::shedding(300.0), &engine)
                .expect("serve runs")
        })
    });
    let (drifting, engine) = serve_loop(true);
    group.bench_function(BenchmarkId::new("drift-tracking", "16q_100ticks"), |b| {
        b.iter(|| drifting.run(&mut AcceptAll, &engine).expect("serve runs"))
    });
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
