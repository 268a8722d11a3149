//! Benchmarks of the schedule cost evaluators.
//!
//! Verifies the complexity story of Section IV-A: the Proposition 2
//! evaluator is `O(|L| * D * N^2)`-ish, the literal transcription pays a
//! constant-factor penalty over the compiled kernel, and the closed-form
//! AND evaluator is linear.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paotr_core::cost::{and_eval, dnf_eval, CostModel};
use paotr_core::plan::planners::ReadOnceDnfPlanner;
use paotr_core::plan::{Planner, QueryRef};
use paotr_core::prelude::*;
use paotr_gen::{random_dnf_instance, DnfConfig, ParamDistributions, Shape};
use rand::prelude::*;
use std::hint::black_box;

fn instance(terms: usize, per_term: usize, rho: f64, seed: u64) -> DnfInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    random_dnf_instance(
        DnfConfig {
            terms,
            shape: Shape::PerTerm(per_term),
            rho,
        },
        &ParamDistributions::paper(),
        &mut rng,
    )
}

fn bench_dnf_evaluators(c: &mut Criterion) {
    let mut group = c.benchmark_group("dnf_expected_cost");
    for (n, m) in [(2usize, 5usize), (5, 10), (10, 20)] {
        let inst = instance(n, m, 2.0, 42);
        let schedule = DnfSchedule::declaration_order(&inst.tree);
        group.bench_with_input(
            BenchmarkId::new("literal_prop2", format!("{n}x{m}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    black_box(dnf_eval::expected_cost(
                        &inst.tree,
                        &inst.catalog,
                        black_box(&schedule),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// The compiled evaluator vs. the literal transcription — the
/// `BENCH_core.json` group CI regression-checks (planners bottom out in
/// thousands of these calls per joint-planning invocation). A `kernel`
/// row times one reset of `CostModel`'s push state plus one push per
/// leaf; `kernel_coverage` does the same under prior coverage.
fn bench_cost_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_kernel");
    for (n, m) in [(2usize, 5usize), (5, 10), (10, 20)] {
        let inst = instance(n, m, 2.0, 42);
        let schedule = DnfSchedule::declaration_order(&inst.tree);
        let label = format!("{n}x{m}");
        group.bench_with_input(BenchmarkId::new("literal", &label), &inst, |b, inst| {
            b.iter(|| {
                black_box(dnf_eval::expected_cost(
                    &inst.tree,
                    &inst.catalog,
                    black_box(&schedule),
                ))
            })
        });
        let model = CostModel::new(&inst.tree, &inst.catalog);
        let mut scratch = model.make_scratch();
        group.bench_function(BenchmarkId::new("kernel", &label), |b| {
            b.iter(|| black_box(model.expected_cost(black_box(&schedule), &mut scratch)))
        });
        let coverage: Vec<f64> = (0..inst.catalog.len())
            .map(|k| (k % 3) as f64 * 0.75)
            .collect();
        group.bench_function(BenchmarkId::new("kernel_coverage", &label), |b| {
            b.iter(|| {
                black_box(model.expected_cost_with_coverage(
                    black_box(schedule.order()),
                    &coverage,
                    &mut scratch,
                ))
            })
        });
        // End-to-end heuristic planning on the kernel: the dynamic
        // AND-ordered planner (the paper's best heuristic) prices every
        // candidate term every round against the pushed prefix — the hot
        // loop this group gates in CI.
        group.bench_function(BenchmarkId::new("heuristic_and_inc_cp_dyn", &label), |b| {
            b.iter(|| black_box(Heuristic::AndIncCOverPDynamic.schedule(&inst.tree, &inst.catalog)))
        });
        group.bench_function(BenchmarkId::new("heuristic_read_once_dnf", &label), |b| {
            b.iter(|| {
                black_box(ReadOnceDnfPlanner.plan(&QueryRef::from(&inst.tree), &inst.catalog))
            })
        });
    }
    group.finish();

    // Model compilation cost, reported but not CI-gated: a sub-µs
    // allocation-bound number whose run-to-run medians are too noisy
    // for the 25% regression gate on shared runners.
    let mut build = c.benchmark_group("cost_kernel_build");
    for (n, m) in [(2usize, 5usize), (10, 20)] {
        let inst = instance(n, m, 2.0, 42);
        build.bench_function(BenchmarkId::new("compile", format!("{n}x{m}")), |b| {
            b.iter(|| black_box(CostModel::new(&inst.tree, &inst.catalog)))
        });
    }
    build.finish();
}

fn bench_and_evaluator(c: &mut Criterion) {
    let mut group = c.benchmark_group("and_expected_cost");
    for m in [5usize, 20, 100] {
        let mut rng = StdRng::seed_from_u64(m as u64);
        let catalog = StreamCatalog::from_costs((0..4).map(|_| rng.gen_range(1.0..10.0)))
            .expect("valid costs");
        let tree = AndTree::new(
            (0..m)
                .map(|_| {
                    Leaf::raw(
                        StreamId(rng.gen_range(0..4)),
                        rng.gen_range(1..=5),
                        Prob::new(rng.gen_range(0.0..1.0)).expect("valid"),
                    )
                })
                .collect(),
        )
        .expect("non-empty");
        let schedule = AndSchedule::identity(m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &tree, |b, tree| {
            b.iter(|| {
                black_box(and_eval::expected_cost(
                    tree,
                    &catalog,
                    black_box(&schedule),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dnf_evaluators,
    bench_cost_kernel,
    bench_and_evaluator
);
criterion_main!(benches);
