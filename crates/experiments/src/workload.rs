//! Multi-query workload sweep: workload size × stream-overlap degree.
//!
//! Beyond the paper: for each `(queries, overlap)` cell, plan a batch of
//! generated workloads with every joint planner, validate predictions by
//! serving every query every tick, and record the sharing ratio and
//! measured speedup over the independent baseline. Writes `workload.csv`.

use crate::common::{progress_line, Options};
use paotr_core::plan::Engine;
use paotr_exec::{compare, ServeConfig};
use paotr_gen::workload::{workload_instance, WorkloadConfig, LARGE_WORKLOAD_QUERIES};
use paotr_multi::{default_planners, Workload};
use std::io::Write;

/// One `(cell, planner)` aggregate.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of queries in the workload.
    pub queries: usize,
    /// Target overlap degree.
    pub overlap: f64,
    /// Measured mean pairwise stream overlap (across instances).
    pub measured_overlap: f64,
    /// Workload planner name.
    pub planner: String,
    /// Mean predicted sharing ratio.
    pub sharing_ratio: f64,
    /// Mean predicted speedup vs. independent.
    pub predicted_speedup: f64,
    /// Mean measured (simulated-energy) speedup vs. independent;
    /// `None` for prediction-only cells (no simulation ran).
    pub simulated_speedup: Option<f64>,
}

/// Workload sizes swept with full shared-pull simulation.
const QUERY_COUNTS: [usize; 3] = [4, 8, 16];
/// Overlap degrees swept.
const OVERLAPS: [f64; 3] = [0.2, 0.5, 0.8];
/// Overlap degrees for the 128-query `large_workload` preset cells
/// (prediction-only — simulating 128 queries per tick would dominate
/// the sweep; `simulated_speedup` is NaN on these rows).
const LARGE_OVERLAPS: [f64; 2] = [0.2, 0.6];

/// Runs the sweep; `--scale` controls instances per cell (10 at full
/// scale).
pub fn run(opts: &Options) -> Vec<Row> {
    let per_cell = opts.scaled(10);
    let engine = Engine::new();
    let planner_names: Vec<String> = default_planners()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let mut rows = Vec::new();
    let total = QUERY_COUNTS.len() * OVERLAPS.len();
    let mut done = 0;
    for &queries in &QUERY_COUNTS {
        for &overlap in &OVERLAPS {
            let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); planner_names.len()];
            let mut measured_overlap = 0.0;
            for index in 0..per_cell {
                let (trees, catalog) =
                    workload_instance(WorkloadConfig::with_overlap(queries, overlap), index);
                let workload =
                    Workload::from_trees(trees, catalog).expect("generated workloads validate");
                measured_overlap += workload
                    .interference(&engine)
                    .expect("analysis succeeds")
                    .mean_pairwise_overlap();
                let outcomes = compare(
                    &workload,
                    &engine,
                    &default_planners(),
                    Some(ServeConfig {
                        ticks: 120,
                        seed: opts.seed ^ index as u64,
                        ticks_between: 1,
                        ..Default::default()
                    }),
                )
                .expect("workloads plan");
                for (slot, o) in acc.iter_mut().zip(&outcomes) {
                    slot.0 += o.sharing_ratio;
                    slot.1 += o.speedup;
                    slot.2 += o.simulated_speedup.unwrap_or(1.0);
                }
            }
            let n = per_cell as f64;
            for (name, (sharing, speedup, sim)) in planner_names.iter().zip(&acc) {
                rows.push(Row {
                    queries,
                    overlap,
                    measured_overlap: measured_overlap / n,
                    planner: name.clone(),
                    sharing_ratio: sharing / n,
                    predicted_speedup: speedup / n,
                    simulated_speedup: Some(sim / n),
                });
            }
            done += 1;
            progress_line(done, total, "workload cells");
        }
    }

    // Planning-scale cells: the seed-stable 128-query `large_workload`
    // preset (also the top size of the `workload_plan` bench group),
    // prediction-only.
    let large_per_cell = opts.scaled(5);
    for &overlap in &LARGE_OVERLAPS {
        let mut acc: Vec<(f64, f64)> = vec![(0.0, 0.0); planner_names.len()];
        let mut measured_overlap = 0.0;
        for index in 0..large_per_cell {
            let (trees, catalog) =
                workload_instance(WorkloadConfig::large_workload(overlap), index);
            let workload =
                Workload::from_trees(trees, catalog).expect("generated workloads validate");
            measured_overlap += workload
                .interference(&engine)
                .expect("analysis succeeds")
                .mean_pairwise_overlap();
            let outcomes =
                compare(&workload, &engine, &default_planners(), None).expect("workloads plan");
            for (slot, o) in acc.iter_mut().zip(&outcomes) {
                slot.0 += o.sharing_ratio;
                slot.1 += o.speedup;
            }
        }
        let n = large_per_cell as f64;
        for (name, (sharing, speedup)) in planner_names.iter().zip(&acc) {
            rows.push(Row {
                queries: LARGE_WORKLOAD_QUERIES,
                overlap,
                measured_overlap: measured_overlap / n,
                planner: name.clone(),
                sharing_ratio: sharing / n,
                predicted_speedup: speedup / n,
                simulated_speedup: None,
            });
        }
        eprintln!("  large_workload cell done (overlap {overlap})");
    }

    write_csv(opts, &rows);
    rows
}

fn write_csv(opts: &Options, rows: &[Row]) {
    let path = opts.path("workload.csv");
    let mut f = std::fs::File::create(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    writeln!(
        f,
        "queries,overlap,measured_overlap,planner,sharing_ratio,predicted_speedup,simulated_speedup"
    )
    .expect("write csv header");
    for r in rows {
        // Prediction-only cells have no measured speedup: serialize
        // `n/a` instead of printing NaN into the CSV.
        let sim = r
            .simulated_speedup
            .map(|s| format!("{s:.4}"))
            .unwrap_or_else(|| "n/a".into());
        writeln!(
            f,
            "{},{},{:.4},{},{:.4},{:.4},{sim}",
            r.queries,
            r.overlap,
            r.measured_overlap,
            r.planner,
            r.sharing_ratio,
            r.predicted_speedup,
        )
        .expect("write csv row");
    }
}

/// Headline numbers: the best joint planner's mean measured speedup on
/// the largest / most-overlapping cell, and whether sharing grows with
/// overlap.
pub fn report(rows: &[Row]) -> (f64, bool) {
    let best_cell = rows
        .iter()
        .filter(|r| {
            r.queries == *QUERY_COUNTS.last().unwrap()
                && r.overlap == *OVERLAPS.last().unwrap()
                && r.planner == "shared-greedy"
        })
        .filter_map(|r| r.simulated_speedup)
        .next()
        .unwrap_or(1.0);
    // sharing ratio should be monotone-ish in overlap for shared-greedy
    let mut monotone = true;
    for &queries in &QUERY_COUNTS {
        let series: Vec<f64> = OVERLAPS
            .iter()
            .filter_map(|&o| {
                rows.iter()
                    .find(|r| {
                        r.queries == queries && r.overlap == o && r.planner == "shared-greedy"
                    })
                    .map(|r| r.sharing_ratio)
            })
            .collect();
        if series.windows(2).any(|w| w[1] < w[0] - 0.1) {
            monotone = false;
        }
    }
    (best_cell, monotone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_rows_for_every_cell_and_planner() {
        let dir = std::env::temp_dir().join("paotr_workload_sweep_test");
        let opts = Options {
            scale: 0.1, // 1 instance per cell
            out_dir: dir.clone(),
            ..Default::default()
        };
        crate::common::ensure_dir(&dir);
        let rows = run(&opts);
        assert_eq!(
            rows.len(),
            (QUERY_COUNTS.len() * OVERLAPS.len() + LARGE_OVERLAPS.len()) * 3
        );
        assert!(rows.iter().all(|r| r.predicted_speedup >= 1.0 - 1e-9));
        // large-preset cells are prediction-only
        let large: Vec<_> = rows
            .iter()
            .filter(|r| r.queries == LARGE_WORKLOAD_QUERIES)
            .collect();
        assert_eq!(large.len(), LARGE_OVERLAPS.len() * 3);
        assert!(large.iter().all(|r| r.simulated_speedup.is_none()));
        let (best, _) = report(&rows);
        assert!(best > 1.0, "16-query/0.8-overlap speedup {best} <= 1");
        let csv = std::fs::read_to_string(dir.join("workload.csv")).unwrap();
        assert!(
            csv.contains(",n/a"),
            "prediction-only rows serialize n/a, not NaN"
        );
        assert!(!csv.contains("NaN"), "no NaN may reach the CSV");
    }
}
