//! Arrangement sweep: maintained arrangements vs. per-tick re-pull.
//!
//! Beyond the paper: serve recurring high-overlap workloads (every
//! query due every tick) through the `paotr_exec` serving loop with
//! and without persistent arrangements, sweeping the query count. For
//! each cell the sweep records the physical item bill (pulled +
//! maintained), the energy, and the arrangement hit volume — the
//! measured shape of the maintain-vs-repull crossover the cost model
//! decides analytically. Writes `arrange.csv`.

use crate::common::{progress_line, Options};
use paotr_core::plan::Engine;
use paotr_exec::{AcceptAll, ArrangeConfig, ArrivalSpec, ServeConfig, ServeLoop};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, Workload};
use std::io::Write;

/// One `(queries, mode)` aggregate.
#[derive(Debug, Clone)]
pub struct Row {
    /// Queries in the served workload.
    pub queries: usize,
    /// `"maintained"` or `"repull"`.
    pub mode: String,
    /// Stream items fetched from sensors per tick (pulls + maintenance).
    pub fetched_per_tick: f64,
    /// Energy per tick.
    pub energy_per_tick: f64,
    /// Window items served from maintained rings per tick.
    pub hit_items_per_tick: f64,
    /// Live arrangements at the end of the run.
    pub arrangements: f64,
}

/// Query counts swept.
const QUERY_COUNTS: [usize; 3] = [16, 64, 256];
/// Pairwise stream overlap of the generated workloads.
pub const OVERLAP: f64 = 0.6;

/// Runs the sweep; `--scale` controls instances per cell (4 at full
/// scale).
pub fn run(opts: &Options) -> Vec<Row> {
    let per_cell = opts.scaled(4);
    let ticks = 200usize;
    let engine = Engine::new();
    let mut rows = Vec::new();
    for (done, &queries) in QUERY_COUNTS.iter().enumerate() {
        // acc[mode] -> (fetched, energy, hits, arrangements)
        let mut acc = [(0.0f64, 0.0f64, 0.0f64, 0.0f64); 2];
        for index in 0..per_cell {
            let (trees, catalog) =
                workload_instance(WorkloadConfig::with_overlap(queries, OVERLAP), index);
            let workload = Workload::from_trees(trees, catalog).expect("generated workloads");
            let joint = planner_by_name("shared-greedy")
                .expect("built-in")
                .plan(&workload, &engine)
                .expect("workloads plan");
            for (m, arrange) in [None, Some(ArrangeConfig::default())]
                .into_iter()
                .enumerate()
            {
                let config = ServeConfig {
                    ticks,
                    seed: opts.seed ^ index as u64,
                    arrivals: ArrivalSpec::Periodic { every: 1 },
                    arrange,
                    ..Default::default()
                };
                let report = ServeLoop::new(&workload, &joint, config)
                    .run(&mut AcceptAll, &engine)
                    .expect("serve runs");
                let slot = &mut acc[m];
                slot.0 += report.fetched_items() as f64 / ticks as f64;
                slot.1 += report.total_energy / ticks as f64;
                slot.2 += report.arrangement_hit_items as f64 / ticks as f64;
                slot.3 += report.arrangements as f64;
            }
        }
        let n = per_cell as f64;
        for (m, mode) in ["repull", "maintained"].iter().enumerate() {
            let (fetched, energy, hits, arrs) = acc[m];
            rows.push(Row {
                queries,
                mode: mode.to_string(),
                fetched_per_tick: fetched / n,
                energy_per_tick: energy / n,
                hit_items_per_tick: hits / n,
                arrangements: arrs / n,
            });
        }
        progress_line(done + 1, QUERY_COUNTS.len(), "arrange query cells");
    }
    write_csv(opts, &rows);
    rows
}

fn write_csv(opts: &Options, rows: &[Row]) {
    let path = opts.path("arrange.csv");
    let mut f = std::fs::File::create(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    writeln!(
        f,
        "queries,mode,fetched_per_tick,energy_per_tick,hit_items_per_tick,arrangements"
    )
    .expect("write csv header");
    for r in rows {
        writeln!(
            f,
            "{},{},{:.4},{:.4},{:.4},{:.2}",
            r.queries,
            r.mode,
            r.fetched_per_tick,
            r.energy_per_tick,
            r.hit_items_per_tick,
            r.arrangements
        )
        .expect("write csv row");
    }
}

/// Headline: the fetched-item saving at the largest swept workload.
pub fn report(rows: &[Row]) -> (usize, f64) {
    let queries = QUERY_COUNTS[QUERY_COUNTS.len() - 1];
    let pick = |mode: &str| {
        rows.iter()
            .find(|r| r.queries == queries && r.mode == mode)
            .map(|r| r.fetched_per_tick)
            .unwrap_or(f64::NAN)
    };
    let repull = pick("repull");
    let saving = if repull > 0.0 {
        1.0 - pick("maintained") / repull
    } else {
        f64::NAN
    };
    (queries, saving)
}
