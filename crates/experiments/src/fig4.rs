//! Figure 4 + its inline statistics (experiment FIG4/STAT4).
//!
//! 157,000 random shared AND-trees; for each, the cost of the schedule
//! produced by the read-once greedy of \[7\] (Smith) and by the optimal
//! Algorithm 1, both evaluated under the *shared* cost model. The paper
//! plots both costs for all instances sorted by increasing optimal cost,
//! and reports: max ratio 1.86, >10% worse on 19.54% of instances, >1% on
//! 60.20%, ties on 11.29%.

use crate::common::{progress_line, timed, Options};
use paotr_core::plan::planners::{ExhaustivePlanner, GreedyPlanner, SmithPlanner};
use paotr_core::plan::{Planner, QueryRef};
use paotr_gen::{
    fig4_grid, instance_seed, random_and_instance, Experiment, ParamDistributions,
    FIG4_INSTANCES_PER_CONFIG,
};
use paotr_stats::{ratios, Chart, RatioSummary, Series, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-instance result row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Grid configuration index.
    pub config: usize,
    /// Leaves in the tree.
    pub leaves: usize,
    /// Target sharing ratio.
    pub rho: f64,
    /// Cost of Algorithm 1's schedule (optimal).
    pub optimal: f64,
    /// Cost of the read-once greedy's schedule.
    pub read_once: f64,
}

/// Runs the experiment and returns all rows.
pub fn run(opts: &Options) -> Vec<Row> {
    let grid = fig4_grid();
    let per_config = opts.scaled(FIG4_INSTANCES_PER_CONFIG);
    let total = grid.len() * per_config;
    eprintln!(
        "FIG4: {} configs x {per_config} instances = {total} AND-trees",
        grid.len()
    );
    let dist = ParamDistributions::paper();

    let (rows, secs) = timed(|| {
        paotr_par::par_tasks_with_progress(
            total,
            opts.threads,
            |i| {
                let config = i / per_config;
                let instance = i % per_config;
                let seed = instance_seed(Experiment::Fig4, config, instance);
                let mut rng = StdRng::seed_from_u64(seed);
                let (tree, catalog) = random_and_instance(grid[config], &dist, &mut rng);
                let query = QueryRef::from(&tree);
                let opt_cost = GreedyPlanner
                    .plan(&query, &catalog)
                    .expect("AND-trees always plan")
                    .expected_cost
                    .expect("AND planners price their schedules");
                let ro_cost = SmithPlanner
                    .plan(&query, &catalog)
                    .expect("AND-trees always plan")
                    .expected_cost
                    .expect("AND planners price their schedules");
                Row {
                    config,
                    leaves: grid[config].leaves,
                    rho: grid[config].rho,
                    optimal: opt_cost,
                    read_once: ro_cost,
                }
            },
            |done| progress_line(done, total, "fig4"),
        )
    });
    eprintln!("  fig4 swept {total} instances in {secs:.1}s");
    rows
}

/// Writes CSV, SVG and Markdown artifacts; returns the ratio summary.
pub fn report(rows: &[Row], opts: &Options) -> RatioSummary {
    // Sort by increasing optimal cost, as in the paper's plot.
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by(|a, b| a.optimal.total_cmp(&b.optimal));

    // CSV with every instance.
    let mut table = Table::new([
        "config",
        "leaves",
        "rho",
        "optimal_cost",
        "read_once_cost",
        "ratio",
    ]);
    for r in &sorted {
        table.push_row([
            r.config.to_string(),
            r.leaves.to_string(),
            format!("{:.6}", r.rho),
            paotr_stats::fmt_f64(r.optimal),
            paotr_stats::fmt_f64(r.read_once),
            paotr_stats::fmt_f64(r.read_once / r.optimal.max(1e-300)),
        ]);
    }
    table
        .write_csv(opts.path("fig4.csv"))
        .expect("write fig4.csv");

    // Figure: both cost series against instance rank (downsampled to keep
    // the SVG tractable).
    let stride = (sorted.len() / 4000).max(1);
    let opt_pts: Vec<(f64, f64)> = sorted
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, r)| (i as f64, r.optimal))
        .collect();
    let ro_pts: Vec<(f64, f64)> = sorted
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, r)| (i as f64, r.read_once))
        .collect();
    let mut chart = Chart::new(
        "Figure 4: read-once greedy [7] vs optimal Algorithm 1 (shared AND-trees)",
        "Shared instances sorted by increasing optimal cost",
        "Cost",
    );
    chart.push(Series::dots("Algorithm in [7]", ro_pts, 1));
    chart.push(Series::line("Optimal algorithm", opt_pts, 0));
    chart
        .write_svg(opts.path("fig4.svg"))
        .expect("write fig4.svg");

    // Inline statistics.
    let opt: Vec<f64> = sorted.iter().map(|r| r.optimal).collect();
    let ro: Vec<f64> = sorted.iter().map(|r| r.read_once).collect();
    let summary = RatioSummary::from_ratios(&ratios(&ro, &opt));

    let md = format!(
        "# Figure 4 (shared AND-trees)\n\n{} instances.\n\n{}\n\n\
         | statistic | paper | measured |\n|---|---|---|\n\
         | max ratio | 1.86 | {:.2} |\n\
         | >10% worse | 19.54% | {:.2}% |\n\
         | >1% worse | 60.20% | {:.2}% |\n\
         | ties | 11.29% | {:.2}% |\n",
        rows.len(),
        summary.paper_sentence("The algorithm in [7]", "the optimal"),
        summary.max,
        summary.frac_over_10pct * 100.0,
        summary.frac_over_1pct * 100.0,
        summary.frac_ties * 100.0,
    );
    std::fs::write(opts.path("fig4.md"), md).expect("write fig4.md");
    summary
}

/// Spot-verifies Algorithm 1 against exhaustive search on a sample of the
/// generated instances (m <= 9 to keep m! tractable); returns the number
/// of instances checked.
pub fn verify_optimality(opts: &Options, samples: usize) -> usize {
    let grid = fig4_grid();
    let small: Vec<usize> = (0..grid.len()).filter(|&c| grid[c].leaves <= 9).collect();
    let dist = ParamDistributions::paper();
    let checked = paotr_par::par_tasks(samples, opts.threads, |i| {
        let config = small[i % small.len()];
        let seed = instance_seed(Experiment::Fig4, config, 10_000 + i);
        let mut rng = StdRng::seed_from_u64(seed);
        let (tree, catalog) = random_and_instance(grid[config], &dist, &mut rng);
        let query = QueryRef::from(&tree);
        let greedy_cost = GreedyPlanner
            .plan(&query, &catalog)
            .expect("plans")
            .cost_or_nan();
        let best = ExhaustivePlanner
            .plan(&query, &catalog)
            .expect("<= 9 leaves")
            .cost_or_nan();
        assert!(
            greedy_cost <= best + 1e-9,
            "Algorithm 1 not optimal: {greedy_cost} > {best} on config {config}"
        );
        1usize
    });
    checked.into_iter().sum()
}
