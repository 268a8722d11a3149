//! Figure 5 + its inline statistic (experiment FIG5/STAT5).
//!
//! 21,600 "small" DNF instances. Every heuristic's schedule cost is
//! compared to the exact optimum, computed by branch-and-bound over
//! depth-first schedules (sound by Theorem 2) seeded with the best
//! heuristic cost as incumbent. The figure plots, per heuristic, the
//! ratio-to-optimal achieved vs the fraction of instances; the paper's
//! headline is that "AND-ordered, increasing C/p, dynamic" is the best
//! heuristic on 83.8% of the small instances.

use crate::common::{progress_line, timed, Options};
use paotr_core::algo::exhaustive::{dnf_search, SearchOptions};
use paotr_core::algo::heuristics::{paper_set, Heuristic};
use paotr_core::plan::planners::HeuristicPlanner;
use paotr_core::plan::{Planner as _, QueryRef};
use paotr_gen::{fig5_grid, fig5_instance, DNF_INSTANCES_PER_CONFIG};
use paotr_stats::{best_counts, Chart, Profile, Series, Table};

/// Node budget per instance for the exact search. Instances that exceed
/// it are excluded from the profiles (and counted); with Proposition-1
/// pruning and heuristic incumbents this is rarely hit.
const NODE_LIMIT: u64 = 5_000_000;

/// Per-instance result: heuristic costs (paper legend order) + optimum.
#[derive(Debug, Clone)]
pub struct Row {
    /// Grid configuration index (kept in the CSV artifacts for
    /// per-configuration analysis).
    pub config: usize,
    /// One cost per heuristic, in `paper_set` order.
    pub heuristic_costs: Vec<f64>,
    /// Exact optimal cost, when the search completed.
    pub optimal: Option<f64>,
}

/// Runs the sweep.
pub fn run(opts: &Options) -> Vec<Row> {
    let grid = fig5_grid();
    let per_config = opts.scaled(DNF_INSTANCES_PER_CONFIG);
    let total = grid.len() * per_config;
    eprintln!(
        "FIG5: {} configs x {per_config} instances = {total} small DNF trees",
        grid.len()
    );
    let heuristics = paper_set(opts.seed);

    let (rows, secs) = timed(|| {
        paotr_par::par_tasks_with_progress(
            total,
            opts.threads,
            |i| {
                let config = i / per_config;
                let instance = i % per_config;
                let inst = fig5_instance(config, instance);
                let query = QueryRef::from(&inst);
                let costs: Vec<f64> = heuristics
                    .iter()
                    .map(|&h| {
                        HeuristicPlanner::new(h)
                            .plan(&query, &inst.catalog)
                            .expect("heuristics plan every DNF")
                            .cost_or_nan()
                    })
                    .collect();
                let incumbent = costs.iter().copied().fold(f64::INFINITY, f64::min);
                let result = dnf_search(
                    &inst.tree,
                    &inst.catalog,
                    SearchOptions {
                        // +epsilon so a schedule matching the incumbent is
                        // still recovered (we need the true optimum value).
                        incumbent: incumbent * (1.0 + 1e-9) + 1e-12,
                        node_limit: NODE_LIMIT,
                        ..Default::default()
                    },
                );
                Row {
                    config,
                    heuristic_costs: costs,
                    optimal: result.complete.then_some(result.cost.min(incumbent)),
                }
            },
            |done| progress_line(done, total, "fig5"),
        )
    });
    eprintln!("  fig5 swept {total} instances in {secs:.1}s");
    rows
}

/// Writes artifacts; returns `(profiles, win fraction of the best
/// heuristic, solved fraction)`.
pub fn report(rows: &[Row], opts: &Options) -> (Vec<Profile>, f64, f64) {
    let heuristics = paper_set(opts.seed);
    let solved: Vec<&Row> = rows.iter().filter(|r| r.optimal.is_some()).collect();
    let solved_frac = solved.len() as f64 / rows.len() as f64;

    // Ratio-to-optimal profiles, one per heuristic.
    let profiles: Vec<Profile> = heuristics
        .iter()
        .enumerate()
        .map(|(h, heur)| {
            let ratios: Vec<f64> = solved
                .iter()
                .map(|r| {
                    let o = r.optimal.expect("filtered to solved");
                    if o == 0.0 {
                        1.0
                    } else {
                        r.heuristic_costs[h] / o
                    }
                })
                .collect();
            Profile::new(heur.name(), &ratios)
        })
        .collect();

    write_profile_artifacts(
        &profiles,
        opts,
        "fig5",
        "Figure 5: ratio to optimal, small DNF instances",
        "Ratio to Optimal",
    );

    // Per-instance costs, for external analysis.
    let mut per_instance = Table::new(
        std::iter::once("config".to_string())
            .chain(heuristics.iter().map(|h| h.name().to_string()))
            .chain(std::iter::once("optimal".to_string()))
            .collect::<Vec<_>>(),
    );
    for r in rows {
        per_instance.push_row(
            std::iter::once(r.config.to_string())
                .chain(r.heuristic_costs.iter().map(|&c| paotr_stats::fmt_f64(c)))
                .chain(std::iter::once(
                    r.optimal
                        .map(paotr_stats::fmt_f64)
                        .unwrap_or_else(|| "timeout".into()),
                ))
                .collect::<Vec<_>>(),
        );
    }
    per_instance
        .write_csv(opts.path("fig5_instances.csv"))
        .expect("write fig5_instances.csv");

    // STAT5: how often is each heuristic (one of) the best *heuristic*.
    let cost_matrix: Vec<Vec<f64>> = rows.iter().map(|r| r.heuristic_costs.clone()).collect();
    let wins = best_counts(&cost_matrix);
    let mut table = Table::new(["heuristic", "best on (% of instances)", "AUC (mean ratio)"]);
    for ((h, &w), p) in heuristics.iter().zip(&wins).zip(&profiles) {
        table.push_row([
            h.name().to_string(),
            format!("{:.1}", w as f64 / rows.len() as f64 * 100.0),
            format!("{:.4}", p.auc(201)),
        ]);
    }
    table
        .write_csv(opts.path("fig5_wins.csv"))
        .expect("write fig5_wins.csv");

    let best_idx = heuristics
        .iter()
        .position(|h| matches!(h, Heuristic::AndIncCOverPDynamic))
        .expect("paper set contains the dynamic C/p heuristic");
    let best_frac = wins[best_idx] as f64 / rows.len() as f64;

    let md = format!(
        "# Figure 5 (small DNF instances vs optimal)\n\n\
         {} instances, exact optimum found on {:.2}% (node limit {}).\n\n\
         Best-heuristic counts:\n\n{}\n\
         Paper: \"AND-ordered, increasing C/p, dynamic\" best in 83.8% of cases; \
         measured: {:.1}%.\n",
        rows.len(),
        solved_frac * 100.0,
        NODE_LIMIT,
        table.to_markdown(),
        best_frac * 100.0,
    );
    std::fs::write(opts.path("fig5.md"), md).expect("write fig5.md");

    (profiles, best_frac, solved_frac)
}

/// Shared plotting/CSV code for Figures 5 and 6.
pub fn write_profile_artifacts(
    profiles: &[Profile],
    opts: &Options,
    stem: &str,
    title: &str,
    y_label: &str,
) {
    let points = 201;
    let mut chart = Chart::new(title, "Percentage of instances", y_label);
    chart.x_range = Some((0.0, 100.0));
    chart.y_range = Some((1.0, 10.0));
    let mut table_headers = vec!["percentage".to_string()];
    for p in profiles {
        table_headers.push(p.name.clone());
    }
    let mut table = Table::new(table_headers);
    let curves: Vec<Vec<(f64, f64)>> = profiles.iter().map(|p| p.curve(points)).collect();
    for i in 0..points {
        let mut row = vec![format!("{:.1}", curves[0][i].0)];
        for c in &curves {
            row.push(paotr_stats::fmt_f64(c[i].1));
        }
        table.push_row(row);
    }
    table
        .write_csv(opts.path(&format!("{stem}.csv")))
        .expect("write profile csv");
    for (i, p) in profiles.iter().enumerate() {
        chart.push(Series::line(p.name.clone(), curves[i].clone(), i));
    }
    chart
        .write_svg(opts.path(&format!("{stem}.svg")))
        .expect("write profile svg");
}
