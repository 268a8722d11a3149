//! Smartphone social-sensing workload (CenceMe-style, reference [1] of
//! the paper): many concurrent context queries sharing a few sensors.
//!
//! The phone runs several boolean context rules ("am I running?", "am I
//! in a loud place?", "conversation detected?") over GPS, accelerometer
//! and microphone streams. Because all rules share the same three
//! sensors, the shared-stream model is the norm, not the exception. This
//! example builds a battery model and compares battery lifetime under
//! different scheduling heuristics.
//!
//! ```text
//! cargo run --release --example smartphone_sensing
//! ```

use paotr::core::algo::heuristics::Heuristic;
use paotr::core::plan::Engine;
use paotr::core::prelude::*;
use paotr::gen::instance_seed;
use paotr::sim::{run_pipeline, PipelineConfig, SensorModel, SensorSource};
use rand::prelude::*;

/// Battery capacity in cost units (arbitrary energy scale).
const BATTERY: f64 = 250_000.0;

fn main() {
    // ------------------------------------------------------------------
    // Part 1: analytic comparison over a fleet of random context rules.
    // ------------------------------------------------------------------
    // 40 random DNF context rules over 3 sensor streams: GPS (expensive),
    // accelerometer (cheap), microphone (moderate).
    let catalog = StreamCatalog::from_costs([8.0, 1.0, 3.0]).expect("three streams");
    let mut rng = StdRng::seed_from_u64(instance_seed(paotr::gen::Experiment::Custom(1), 0, 0));
    let queries: Vec<DnfTree> = (0..40)
        .map(|_| {
            let n_terms = rng.gen_range(2..=4);
            let terms: Vec<Vec<Leaf>> = (0..n_terms)
                .map(|_| {
                    (0..rng.gen_range(1..=4))
                        .map(|_| {
                            Leaf::raw(
                                StreamId(rng.gen_range(0..3)),
                                rng.gen_range(1..=8),
                                Prob::new(rng.gen_range(0.05..0.95)).expect("in range"),
                            )
                        })
                        .collect()
                })
                .collect();
            DnfTree::from_leaves(terms).expect("non-empty terms")
        })
        .collect();

    println!("40 random context rules over GPS / accel / mic, shared streams\n");
    println!(
        "{:<28} {:>14} {:>18}",
        "heuristic", "E[cost] total", "battery evals"
    );
    // The serving shape: one engine, many queries, one catalog. Each
    // heuristic plans the whole fleet (plans are cached, so a production
    // loop re-planning every wave hits the cache).
    let engine = Engine::new();
    let names: Vec<String> = engine
        .registry()
        .paper_set()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    for name in &names {
        let total: f64 = queries
            .iter()
            .map(|q| engine.plan_with(name, q, &catalog))
            .map(|plan| plan.expect("every heuristic plans every DNF rule"))
            .map(|plan| plan.cost_or_nan())
            .sum();
        // How many rounds of evaluating all 40 rules fit in the battery?
        let rounds = BATTERY / total;
        println!("{:<28} {:>14.2} {:>18.0}", name, total, rounds);
    }
    let stats = engine.cache_stats();
    println!(
        "\n(engine cache: {} plans computed, {} served from cache)\n",
        stats.misses, stats.hits
    );

    // ------------------------------------------------------------------
    // Part 2: one rule end-to-end on simulated sensors.
    // "Running outside detected": fast accel AND moving GPS, OR loud mic
    // AND fast accel.
    // ------------------------------------------------------------------
    let mut b = InstanceBuilder::new();
    let gps = b.stream("gps_speed", 8.0);
    let accel = b.stream("accel_mag", 1.0);
    let mic = b.stream("mic_level", 3.0);
    let rule = b
        .term(|t| t.leaf(accel, 6, 0.3).leaf(gps, 3, 0.2))
        .term(|t| t.leaf(mic, 5, 0.25).leaf(accel, 6, 0.3))
        .build()
        .expect("context rule");
    // Concrete predicates matching the abstract rule shape.
    let query = paotr::sim::SimQuery::new(vec![
        vec![
            paotr::sim::SimLeaf {
                stream: accel,
                predicate: paotr::sim::Predicate::new(
                    paotr::sim::WindowOp::Avg,
                    6,
                    paotr::sim::Comparator::Gt,
                    1.2,
                ),
            },
            paotr::sim::SimLeaf {
                stream: gps,
                predicate: paotr::sim::Predicate::new(
                    paotr::sim::WindowOp::Avg,
                    3,
                    paotr::sim::Comparator::Gt,
                    2.0,
                ),
            },
        ],
        vec![
            paotr::sim::SimLeaf {
                stream: mic,
                predicate: paotr::sim::Predicate::new(
                    paotr::sim::WindowOp::Max,
                    5,
                    paotr::sim::Comparator::Gt,
                    0.7,
                ),
            },
            paotr::sim::SimLeaf {
                stream: accel,
                predicate: paotr::sim::Predicate::new(
                    paotr::sim::WindowOp::Avg,
                    6,
                    paotr::sim::Comparator::Gt,
                    1.2,
                ),
            },
        ],
    ])
    .expect("valid sim query");

    let sensors = || {
        vec![
            SensorSource::new(SensorModel::RandomWalk {
                start: 1.0,
                step: 0.6,
                min: 0.0,
                max: 6.0,
            }),
            SensorSource::new(SensorModel::Gaussian {
                mean: 1.0,
                std_dev: 0.5,
            }),
            SensorSource::new(SensorModel::Spiky {
                base: 0.3,
                spike: 0.9,
                spike_prob: 0.2,
                noise: 0.1,
            }),
        ]
    };
    let config = PipelineConfig {
        warmup_evaluations: 300,
        measure_evaluations: 2000,
        ..Default::default()
    };

    println!("\n\"running outside\" rule on simulated sensors (energy per evaluation):");
    for (name, h) in [
        (
            "stream-ordered (Lim et al.)",
            Heuristic::StreamOrdered(Default::default()),
        ),
        ("leaf-ord., inc. C", Heuristic::LeafIncC),
        (
            "AND-ord., inc. C/p, dynamic",
            Heuristic::AndIncCOverPDynamic,
        ),
    ] {
        let report = run_pipeline(&query, sensors(), &rule.catalog, config, |t, c| {
            h.schedule(t, c)
        });
        println!(
            "  {:<28} {:>10.4} energy/eval, detection rate {:>5.1}%, lifetime {:>9.0} evals",
            name,
            report.mean_cost,
            report.truth_rate * 100.0,
            BATTERY / report.mean_cost
        );
    }
}
