//! `paotr simulate` — run a query against simulated sensors end to end.
//!
//! Each stream gets a default Gaussian sensor whose mean/spread are
//! derived from the thresholds that mention it, so every predicate has a
//! non-trivial truth probability out of the box. The pipeline calibrates
//! leaf probabilities from a warm-up trace, schedules with the paper's
//! best heuristic, and reports measured energy.

use crate::compile;
use crate::flags::{costs, Flags};
use paotr_core::plan::Engine;
use paotr_qlang::Expr;
use std::collections::HashMap;
use stream_sim::{run_pipeline, MemoryPolicy, PipelineConfig, SensorModel, SensorSource};

pub(crate) struct Options {
    costs: HashMap<String, f64>,
    evals: usize,
    policy: MemoryPolicy,
    seed: u64,
}

pub(crate) fn options(flags: &mut Flags) -> Result<Options, String> {
    Ok(Options {
        costs: costs(flags)?,
        evals: flags.or("--evals", 1000, "an integer")?,
        policy: if flags.switch("--retain")? {
            MemoryPolicy::Retain
        } else {
            MemoryPolicy::ClearEachQuery
        },
        seed: flags.or("--seed", 1, "an integer")?,
    })
}

pub fn run(args: &[String]) -> Result<(), String> {
    let (query, flags) = Flags::after_query(args)?;
    let opts = flags.read(options)?;
    let (expr, compiled) = compile(&query, &opts.costs)?;
    let query = paotr_qlang::to_sim_query(&expr, &compiled)
        .ok_or("simulate supports DNF-shaped queries")?;

    // Derive per-stream sensor models from the thresholds mentioning them:
    // Gaussian with mean = average threshold, sd = half the threshold
    // spread (or 25% of |mean|).
    let models: Vec<SensorSource> = (0..compiled.catalog.len())
        .map(|k| {
            let name = compiled.catalog.name(paotr_core::stream::StreamId(k));
            let thresholds = collect_thresholds(&expr, &name);
            let mean = thresholds.iter().sum::<f64>() / thresholds.len().max(1) as f64;
            let spread = thresholds
                .iter()
                .map(|t| (t - mean).abs())
                .fold(0.0f64, f64::max)
                .max(mean.abs() * 0.25)
                .max(1.0);
            SensorSource::new(SensorModel::Gaussian {
                mean,
                std_dev: spread,
            })
        })
        .collect();

    let config = PipelineConfig {
        warmup_evaluations: (opts.evals / 5).max(50),
        measure_evaluations: opts.evals,
        ticks_between: 1,
        policy: opts.policy,
        seed: opts.seed,
    };
    // The engine picks the class default: Greiner on read-once queries,
    // the paper's best heuristic on shared ones. Calibration re-plans
    // with refreshed probabilities, so the plan cache carries repeats.
    let engine = Engine::new();
    let report = run_pipeline(&query, models, &compiled.catalog, config, |tree, cat| {
        engine
            .plan(tree, cat)
            .ok()
            .and_then(|p| p.body.to_dnf_schedule(tree))
            .expect("DNF queries always plan to a schedule")
    });

    println!(
        "calibrated probabilities : {:?}",
        report
            .estimated_probs
            .iter()
            .map(|p| (p * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!("chosen schedule          : {}", report.schedule);
    println!("energy per evaluation    : {:.4}", report.mean_cost);
    println!(
        "query TRUE rate          : {:.1}%",
        report.truth_rate * 100.0
    );
    for (k, items) in report.items_pulled.iter().enumerate() {
        println!(
            "items pulled from {:<6} : {items}",
            compiled.catalog.name(paotr_core::stream::StreamId(k))
        );
    }
    Ok(())
}

fn collect_thresholds(expr: &Expr, stream: &str) -> Vec<f64> {
    match expr {
        Expr::Pred(p) if p.stream == stream => vec![p.threshold],
        Expr::Pred(_) => Vec::new(),
        Expr::And(cs) | Expr::Or(cs) => cs
            .iter()
            .flat_map(|c| collect_thresholds(c, stream))
            .collect(),
    }
}
