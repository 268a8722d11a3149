//! End-to-end continuous-monitoring simulation — the paper's deployment
//! pipeline.
//!
//! [`run_pipeline`] reproduces the full loop a smartphone would run:
//!
//! 1. **warm-up**: evaluate the query for a number of ticks with a naive
//!    schedule, recording a trace;
//! 2. **calibrate**: estimate leaf probabilities from the trace and build
//!    the scheduling skeleton;
//! 3. **schedule**: apply any scheduling policy — typically a
//!    [`paotr_core::plan::Engine`] plan or one planner from the
//!    [`paotr_core::plan::PlannerRegistry`];
//! 4. **measure**: run the query with the optimized schedule and report
//!    energy statistics.
//!
//! Comparing the measured energy across scheduling policies is the
//! system-level counterpart of the paper's expected-cost comparisons.

use crate::device::MemoryPolicy;
use crate::energy::EnergyModel;
use crate::faults::{FaultPlan, FaultySource};
use crate::query::SimQuery;
use crate::runtime::{EnergyMeter, Scheduler, Verdict};
use crate::source::SensorSource;
use crate::stream::SimStream;
use crate::trace::{calibrated_skeleton, TraceLog};
use paotr_core::schedule::DnfSchedule;
use paotr_core::stream::StreamCatalog;
use paotr_core::tree::DnfTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Query evaluations in the calibration phase.
    pub warmup_evaluations: usize,
    /// Query evaluations in the measurement phase.
    pub measure_evaluations: usize,
    /// Sensor ticks between consecutive query evaluations.
    pub ticks_between: usize,
    /// Device memory policy.
    pub policy: MemoryPolicy,
    /// RNG seed for the sensor data.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            warmup_evaluations: 200,
            measure_evaluations: 1000,
            ticks_between: 1,
            policy: MemoryPolicy::ClearEachQuery,
            seed: 0,
        }
    }
}

/// Measurement-phase statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Mean energy per query evaluation in the measurement phase.
    pub mean_cost: f64,
    /// Fraction of evaluations where the query was TRUE.
    pub truth_rate: f64,
    /// Total items pulled per stream in the measurement phase.
    pub items_pulled: Vec<u64>,
    /// The calibrated skeleton used for scheduling.
    pub skeleton: DnfTree,
    /// The schedule the policy chose.
    pub schedule: DnfSchedule,
    /// Empirical per-leaf success-rate estimates (flat order).
    pub estimated_probs: Vec<f64>,
}

/// Runs the calibrate-then-measure pipeline. `make_schedule` receives the
/// calibrated skeleton and the catalog and returns the schedule to use in
/// the measurement phase.
///
/// Streams are sized and warmed to the query's widest windows, so every
/// leaf is readable from the first evaluation.
///
/// # Panics
/// Panics if `models` does not hold one sensor model per catalog stream.
pub fn run_pipeline(
    query: &SimQuery,
    models: Vec<SensorSource>,
    catalog: &StreamCatalog,
    config: PipelineConfig,
    make_schedule: impl FnOnce(&DnfTree, &StreamCatalog) -> DnfSchedule,
) -> PipelineReport {
    assert_eq!(models.len(), catalog.len(), "one sensor model per stream");
    let horizons = query.max_windows(catalog.len());
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Streams retain enough history for the largest window.
    let mut streams: Vec<SimStream> = models
        .into_iter()
        .zip(&horizons)
        .map(|(m, &w)| SimStream::new(m, (w.max(1) as usize) * 2))
        .collect();
    // Warm every stream up to its window.
    let max_w = horizons.iter().copied().max().unwrap_or(1).max(1) as usize;
    for s in &mut streams {
        s.advance_by(max_w, &mut rng);
    }

    let energy = EnergyModel::from_catalog(catalog);
    let none = FaultPlan::none();
    let mut scheduler = Scheduler::new(catalog.len(), config.policy);
    let mut meter = EnergyMeter::new(energy.clone());

    // Phase 1: warm-up with the declaration-order schedule, tracing.
    let naive = DnfSchedule::from_order_unchecked(query.leaf_refs());
    let mut log = TraceLog::default();
    for _ in 0..config.warmup_evaluations {
        let src = FaultySource::wrap(&streams, &none);
        scheduler.begin_tick(&[query], &src);
        scheduler.run_query(query, &naive, &src, &mut meter, Some(&mut log));
        for s in &mut streams {
            s.advance_by(config.ticks_between, &mut rng);
        }
    }

    // Phase 2: calibrate.
    let estimated_probs = crate::trace::estimate_probabilities(&log, query);
    let skeleton = calibrated_skeleton(&log, query);

    // Phase 3: schedule.
    let schedule = make_schedule(&skeleton, catalog);

    // Phase 4: measure with a fresh device memory and meter.
    let mut scheduler = Scheduler::new(catalog.len(), config.policy);
    let mut meter = EnergyMeter::new(energy);
    let mut truths = 0usize;
    for _ in 0..config.measure_evaluations {
        let src = FaultySource::wrap(&streams, &none);
        scheduler.begin_tick(&[query], &src);
        let out = scheduler.run_query(query, &schedule, &src, &mut meter, None);
        truths += usize::from(out.verdict == Verdict::True);
        for s in &mut streams {
            s.advance_by(config.ticks_between, &mut rng);
        }
    }

    PipelineReport {
        mean_cost: meter.total_cost() / config.measure_evaluations.max(1) as f64,
        truth_rate: truths as f64 / config.measure_evaluations.max(1) as f64,
        items_pulled: meter.items_pulled().to_vec(),
        skeleton,
        schedule,
        estimated_probs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Comparator, Predicate, WindowOp};
    use crate::query::SimLeaf;
    use crate::source::SensorModel;
    use paotr_core::algo::heuristics::Heuristic;
    use paotr_core::stream::StreamId;

    /// Heart-rate-style scenario: HR sine around 80 bpm, SPO2 walk ~0.97.
    fn telehealth_query() -> (SimQuery, Vec<SensorSource>, StreamCatalog) {
        let hr = SensorModel::Sine {
            offset: 80.0,
            amplitude: 25.0,
            period: 97.0,
            noise: 3.0,
        };
        let spo2 = SensorModel::RandomWalk {
            start: 0.97,
            step: 0.004,
            min: 0.85,
            max: 1.0,
        };
        let q = SimQuery::new(vec![
            vec![SimLeaf {
                stream: StreamId(0),
                predicate: Predicate::new(WindowOp::Avg, 5, Comparator::Gt, 100.0),
            }],
            vec![
                SimLeaf {
                    stream: StreamId(0),
                    predicate: Predicate::new(WindowOp::Avg, 3, Comparator::Lt, 60.0),
                },
                SimLeaf {
                    stream: StreamId(1),
                    predicate: Predicate::new(WindowOp::Min, 4, Comparator::Lt, 0.92),
                },
            ],
        ])
        .unwrap();
        let cat = StreamCatalog::from_costs([1.0, 4.0]).unwrap();
        (q, vec![SensorSource::new(hr), SensorSource::new(spo2)], cat)
    }

    #[test]
    fn pipeline_produces_calibrated_schedule_and_stats() {
        let (q, models, cat) = telehealth_query();
        // Plan through the engine facade: the calibrated skeleton is a
        // shared DNF tree, so the default planner is the paper's best
        // heuristic.
        let engine = paotr_core::plan::Engine::new();
        let report = run_pipeline(
            &q,
            models,
            &cat,
            PipelineConfig {
                warmup_evaluations: 100,
                measure_evaluations: 200,
                ..Default::default()
            },
            |tree, cat| {
                let plan = engine.plan(tree, cat).expect("DNF skeletons always plan");
                plan.body
                    .to_dnf_schedule(tree)
                    .expect("schedule-shaped plan")
            },
        );
        assert!(report.mean_cost > 0.0);
        assert!((0.0..=1.0).contains(&report.truth_rate));
        assert_eq!(report.schedule.len(), 3);
        assert_eq!(report.estimated_probs.len(), 3);
        // HR > 100 happens sometimes (sine peaks at ~105): estimate must
        // be strictly inside (0,1) thanks to smoothing.
        assert!(report.estimated_probs.iter().all(|p| *p > 0.0 && *p < 1.0));
    }

    #[test]
    fn optimized_schedule_is_no_worse_than_naive_on_energy() {
        let (q, models, cat) = telehealth_query();
        let cfg = PipelineConfig {
            warmup_evaluations: 150,
            measure_evaluations: 400,
            ..Default::default()
        };
        let naive = run_pipeline(&q, models.clone(), &cat, cfg, |tree, _| {
            DnfSchedule::from_order_unchecked(tree.leaf_refs().collect())
        });
        let optimized = run_pipeline(&q, models, &cat, cfg, |tree, cat| {
            Heuristic::AndIncCOverPDynamic.schedule(tree, cat)
        });
        // Same data (same seed): the optimized schedule should not spend
        // meaningfully more energy than declaration order.
        assert!(
            optimized.mean_cost <= naive.mean_cost * 1.05,
            "optimized {} vs naive {}",
            optimized.mean_cost,
            naive.mean_cost
        );
    }

    #[test]
    fn retain_policy_is_cheaper_than_clearing() {
        let (q, models, cat) = telehealth_query();
        let base = PipelineConfig {
            warmup_evaluations: 50,
            measure_evaluations: 300,
            ..Default::default()
        };
        let cleared = run_pipeline(&q, models.clone(), &cat, base, |tree, cat| {
            Heuristic::AndIncCStatic.schedule(tree, cat)
        });
        let retained = run_pipeline(
            &q,
            models,
            &cat,
            PipelineConfig {
                policy: MemoryPolicy::Retain,
                ..base
            },
            |tree, cat| Heuristic::AndIncCStatic.schedule(tree, cat),
        );
        assert!(
            retained.mean_cost <= cleared.mean_cost + 1e-9,
            "retain {} vs clear {}",
            retained.mean_cost,
            cleared.mean_cost
        );
    }
}
