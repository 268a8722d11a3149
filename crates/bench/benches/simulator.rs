//! Benchmarks of the sensor-stream substrate: raw stream advance, engine
//! evaluation throughput, and the full calibrate-schedule-measure
//! pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use paotr_core::algo::heuristics::Heuristic;
use paotr_core::prelude::*;
use rand::prelude::*;
use std::hint::black_box;
use stream_sim::{
    Comparator, EnergyMeter, EnergyModel, FaultPlan, FaultySource, MemoryPolicy, PipelineConfig,
    Predicate, Scheduler, SensorModel, SensorSource, SimLeaf, SimQuery, SimStream, WindowOp,
};

fn query() -> (SimQuery, StreamCatalog) {
    let mk = |s: usize, op: WindowOp, w: u32, cmp: Comparator, thr: f64| SimLeaf {
        stream: StreamId(s),
        predicate: Predicate::new(op, w, cmp, thr),
    };
    (
        SimQuery::new(vec![
            vec![
                mk(0, WindowOp::Avg, 5, Comparator::Gt, 100.0),
                mk(1, WindowOp::Max, 10, Comparator::Lt, 0.2),
            ],
            vec![
                mk(0, WindowOp::Avg, 3, Comparator::Lt, 60.0),
                mk(2, WindowOp::Min, 4, Comparator::Lt, 0.92),
            ],
        ])
        .expect("valid query"),
        StreamCatalog::from_costs([1.0, 0.5, 6.0]).expect("valid costs"),
    )
}

fn sensors() -> Vec<SensorSource> {
    vec![
        SensorSource::new(SensorModel::Sine {
            offset: 82.0,
            amplitude: 24.0,
            period: 181.0,
            noise: 4.0,
        }),
        SensorSource::new(SensorModel::Spiky {
            base: 0.8,
            spike: 0.05,
            spike_prob: 0.25,
            noise: 0.15,
        }),
        SensorSource::new(SensorModel::RandomWalk {
            start: 0.97,
            step: 0.005,
            min: 0.85,
            max: 1.0,
        }),
    ]
}

fn bench_stream_advance(c: &mut Criterion) {
    c.bench_function("stream_advance_x1000", |b| {
        let mut stream = SimStream::new(
            SensorSource::new(SensorModel::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            }),
            64,
        );
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            stream.advance_by(1000, &mut rng);
            black_box(stream.latest())
        })
    });
}

fn bench_engine_evaluation(c: &mut Criterion) {
    let (q, cat) = query();
    let mut rng = StdRng::seed_from_u64(2);
    let mut streams: Vec<SimStream> = sensors()
        .into_iter()
        .map(|s| SimStream::new(s, 32))
        .collect();
    for s in &mut streams {
        s.advance_by(16, &mut rng);
    }
    let schedule = DnfSchedule::from_order_unchecked(q.leaf_refs());
    let mut scheduler = Scheduler::new(cat.len(), MemoryPolicy::ClearEachQuery);
    let mut meter = EnergyMeter::new(EnergyModel::from_catalog(&cat));
    let none = FaultPlan::none();
    let src = FaultySource::wrap(&streams, &none);
    c.bench_function("engine_evaluate", |b| {
        b.iter(|| {
            scheduler.begin_tick(&[&q], &src);
            black_box(scheduler.run_query(&q, &schedule, &src, &mut meter, None))
        })
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let (q, cat) = query();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("calibrate_schedule_measure_500", |b| {
        b.iter(|| {
            let report = stream_sim::run_pipeline(
                &q,
                sensors(),
                &cat,
                PipelineConfig {
                    warmup_evaluations: 100,
                    measure_evaluations: 400,
                    ..Default::default()
                },
                |tree, cat| Heuristic::AndIncCOverPDynamic.schedule(tree, cat),
            );
            black_box(report.mean_cost)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_stream_advance,
    bench_engine_evaluation,
    bench_full_pipeline
);
criterion_main!(benches);
