//! Serving sweep: arrival rate × energy budget.
//!
//! Beyond the paper: serve a generated 16-query workload through the
//! `paotr_exec` serving loop under Poisson arrivals, sweeping the
//! per-tick energy budget from severely constrained to unconstrained,
//! for the independent baseline and the shared-greedy joint plan.
//! Because the budget policy reasons in worst-case energy and shared
//! execution coalesces pulls, the joint plan fits more queries into the
//! same envelope — this sweep measures how much. Writes `serve.csv`.

use crate::common::{progress_line, Options};
use paotr_core::plan::Engine;
use paotr_exec::{AcceptAll, ArrivalSpec, EnergyBudget, ServeConfig, ServeLoop};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};
use std::io::Write;

/// One `(rate, budget, planner)` aggregate.
#[derive(Debug, Clone)]
pub struct Row {
    /// Poisson arrival rate (arrivals per query per tick).
    pub rate: f64,
    /// Budget as a fraction of the unconstrained max tick energy
    /// (`f64::INFINITY` = no admission control).
    pub budget_factor: f64,
    /// Joint planner serving the workload.
    pub planner: String,
    /// Served evaluations per tick.
    pub throughput: f64,
    /// Fraction of arrivals shed.
    pub shed_rate: f64,
    /// Mean energy per tick.
    pub energy_per_tick: f64,
    /// Largest single-tick energy observed.
    pub max_tick_energy: f64,
}

/// Arrival rates swept.
const RATES: [f64; 3] = [0.25, 0.5, 1.0];
/// Budget factors swept (fractions of the unconstrained shared-greedy
/// max tick energy; infinity = accept-all).
const BUDGET_FACTORS: [f64; 4] = [0.25, 0.5, 1.0, f64::INFINITY];
/// Queries in the served workload.
pub const QUERIES: usize = 16;

/// Runs the sweep; `--scale` controls instances per cell (4 at full
/// scale).
pub fn run(opts: &Options) -> Vec<Row> {
    let per_cell = opts.scaled(4);
    let ticks = 200usize;
    let engine = Engine::new();
    let planners = ["independent", "shared-greedy"];
    let mut rows = Vec::new();
    let total = RATES.len();
    for (done, &rate) in RATES.iter().enumerate() {
        // acc[(budget, planner)] -> (throughput, shed, e/tick, max)
        let mut acc = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); BUDGET_FACTORS.len() * 2];
        for index in 0..per_cell {
            let (trees, catalog) =
                workload_instance(WorkloadConfig::with_overlap(QUERIES, 0.6), index);
            let workload = Workload::from_trees(trees, catalog).expect("generated workloads");
            let config = ServeConfig {
                ticks,
                seed: opts.seed ^ index as u64,
                arrivals: ArrivalSpec::Poisson { rate },
                ..Default::default()
            };
            let loops: Vec<ServeLoop> = planners
                .iter()
                .map(|p| {
                    let joint = planner_by_name(p)
                        .expect("built-in")
                        .plan(&workload, &engine)
                        .expect("workloads plan");
                    ServeLoop::new(&workload, &joint, config)
                })
                .collect();
            // The accept-all runs double as the infinite-budget cells
            // (an infinite `EnergyBudget` admits bitwise-identically,
            // pinned by the exec acceptance tests), so each planner is
            // served unconstrained exactly once per instance.
            let unconstrained: Vec<_> = loops
                .iter()
                .map(|s| s.run(&mut AcceptAll, &engine).expect("serve runs"))
                .collect();
            // Budgets are fractions of the *unconstrained shared* peak:
            // one absolute envelope both planners must live inside.
            let reference = unconstrained[1].max_tick_energy;
            for (b, &factor) in BUDGET_FACTORS.iter().enumerate() {
                for (p, serve) in loops.iter().enumerate() {
                    let report = if factor.is_infinite() {
                        unconstrained[p].clone()
                    } else {
                        serve
                            .run(&mut EnergyBudget::shedding(reference * factor), &engine)
                            .expect("serve runs")
                    };
                    let slot = &mut acc[b * 2 + p];
                    slot.0 += report.throughput();
                    slot.1 += report.shed as f64 / report.arrivals.max(1) as f64;
                    slot.2 += report.mean_tick_energy();
                    slot.3 += report.max_tick_energy;
                }
            }
        }
        let n = per_cell as f64;
        for (b, &factor) in BUDGET_FACTORS.iter().enumerate() {
            for (p, name) in planners.iter().enumerate() {
                let (tp, shed, e, max) = acc[b * 2 + p];
                rows.push(Row {
                    rate,
                    budget_factor: factor,
                    planner: name.to_string(),
                    throughput: tp / n,
                    shed_rate: shed / n,
                    energy_per_tick: e / n,
                    max_tick_energy: max / n,
                });
            }
        }
        progress_line(done + 1, total, "serve rate cells");
    }
    write_csv(opts, &rows);
    rows
}

fn write_csv(opts: &Options, rows: &[Row]) {
    let path = opts.path("serve.csv");
    let mut f = std::fs::File::create(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    writeln!(
        f,
        "rate,budget_factor,planner,throughput,shed_rate,energy_per_tick,max_tick_energy"
    )
    .expect("write csv header");
    for r in rows {
        let factor = if r.budget_factor.is_finite() {
            format!("{}", r.budget_factor)
        } else {
            "inf".into()
        };
        writeln!(
            f,
            "{},{factor},{},{:.4},{:.4},{:.4},{:.4}",
            r.rate, r.planner, r.throughput, r.shed_rate, r.energy_per_tick, r.max_tick_energy
        )
        .expect("write csv row");
    }
}

/// Headline: shared-greedy vs independent throughput at the tightest
/// budget and the highest rate, plus whether every budgeted cell
/// respected its envelope (max tick energy <= budget is asserted by the
/// serve tests; here we report the measured advantage).
pub fn report(rows: &[Row]) -> (f64, f64) {
    let pick = |planner: &str| {
        rows.iter()
            .find(|r| {
                r.rate == RATES[RATES.len() - 1]
                    && r.budget_factor == BUDGET_FACTORS[0]
                    && r.planner == planner
            })
            .map(|r| r.throughput)
            .unwrap_or(0.0)
    };
    let indep = pick("independent");
    let shared = pick("shared-greedy");
    let advantage = if indep > 0.0 { shared / indep } else { 1.0 };
    (shared, advantage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_serve_sweep_produces_rows_and_respects_envelopes() {
        let dir = std::env::temp_dir().join("paotr_serve_sweep_test");
        let opts = Options {
            scale: 0.25, // 1 instance per cell
            out_dir: dir.clone(),
            ..Default::default()
        };
        crate::common::ensure_dir(&dir);
        let rows = run(&opts);
        assert_eq!(rows.len(), RATES.len() * BUDGET_FACTORS.len() * 2);
        // budgeted shared-greedy never serves less than independent
        for &rate in &RATES {
            for &factor in &BUDGET_FACTORS {
                let get = |p: &str| {
                    rows.iter()
                        .find(|r| r.rate == rate && r.budget_factor == factor && r.planner == p)
                        .unwrap()
                        .throughput
                };
                assert!(
                    get("shared-greedy") >= get("independent") - 1e-12,
                    "rate {rate} factor {factor}"
                );
            }
        }
        let (shared, advantage) = report(&rows);
        assert!(shared > 0.0);
        assert!(advantage >= 1.0);
        let csv = std::fs::read_to_string(dir.join("serve.csv")).unwrap();
        assert!(csv.contains("inf"));
        assert!(!csv.contains("NaN"));
    }
}
