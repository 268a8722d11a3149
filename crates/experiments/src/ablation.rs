//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Stream-ordered leaf order** — the paper replaces \[4\]'s
//!    decreasing-d order with increasing-d (Proposition 1) and claims it
//!    wins or ties "in the vast majority of the cases"; we measure the
//!    win/tie/loss split, plus the increasing-R vs decreasing-R reading
//!    of the stream metric.
//! 2. **Static vs dynamic AND-ordered metrics** — the paper observes
//!    dynamic is "marginally better".
//! 3. **Branch-and-bound reductions** — search nodes explored with and
//!    without Proposition-1 ordering and incumbent pruning.

use crate::common::Options;
use paotr_core::algo::exhaustive::{dnf_search, SearchOptions};
use paotr_core::algo::heuristics::{
    and_ordered, stream_ordered, AndKey, CostMode, Heuristic, StreamConfig,
};
use paotr_core::algo::heuristics::{LeafOrder, StreamOrder};
use paotr_core::cost::{CostModel, EvalScratch};
use paotr_gen::{fig5_grid, fig5_instance};
use paotr_stats::Table;

/// Win/tie/loss counts of one variant against another.
#[derive(Debug, Clone, Copy, Default)]
struct Duel {
    /// Variant A strictly cheaper.
    pub wins: usize,
    /// Equal cost (within 1e-12 relative).
    pub ties: usize,
    /// Variant A strictly more expensive.
    pub losses: usize,
}

impl Duel {
    fn record(&mut self, a: f64, b: f64) {
        let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
        if a + tol < b {
            self.wins += 1;
        } else if b + tol < a {
            self.losses += 1;
        } else {
            self.ties += 1;
        }
    }

    fn row(&self, label: &str) -> [String; 4] {
        [
            label.to_string(),
            self.wins.to_string(),
            self.ties.to_string(),
            self.losses.to_string(),
        ]
    }
}

/// Runs all ablations over a sample of the small-instance grid.
pub fn run(opts: &Options, per_config: usize) -> Table {
    let grid_len = fig5_grid().len();
    let mut inc_vs_dec_d = Duel::default();
    let mut inc_vs_dec_r = Duel::default();
    let mut dyn_vs_stat = Duel::default();
    let mut nodes_prop1 = 0u64;
    let mut nodes_plain = 0u64;
    let mut nodes_nopruning = 0u64;
    let mut searched = 0usize;

    let results = paotr_par::par_tasks(grid_len * per_config, opts.threads, |i| {
        let config = i / per_config;
        let inst = fig5_instance(config, 5_000 + i % per_config);
        let tree = &inst.tree;
        let cat = &inst.catalog;

        let model = CostModel::new(tree, cat);
        let mut scratch = EvalScratch::new();
        let mut cost =
            |s: &paotr_core::schedule::DnfSchedule| model.freeze_prefix(s.order(), &mut scratch);

        // 1a: stream-ordered, increasing vs decreasing d.
        let inc_d = cost(&stream_ordered::schedule(
            tree,
            cat,
            StreamConfig::default(),
        ));
        let dec_d = cost(&stream_ordered::schedule(
            tree,
            cat,
            StreamConfig {
                leaf_order: LeafOrder::DecreasingD,
                ..Default::default()
            },
        ));
        // 1b: increasing vs decreasing R.
        let dec_r = cost(&stream_ordered::schedule(
            tree,
            cat,
            StreamConfig {
                stream_order: StreamOrder::DecreasingR,
                ..Default::default()
            },
        ));

        // 2: dynamic vs static C/p.
        let stat = cost(&and_ordered::schedule(
            tree,
            cat,
            AndKey::IncreasingCOverP,
            CostMode::Static,
        ));
        let dynamic = cost(&and_ordered::schedule(
            tree,
            cat,
            AndKey::IncreasingCOverP,
            CostMode::Dynamic,
        ));

        // 3: search-effort comparison on small instances only.
        let search_stats = if tree.num_leaves() <= 12 {
            let incumbent = Heuristic::AndIncCOverPDynamic
                .schedule_with_cost(tree, cat)
                .1;
            let base = SearchOptions {
                incumbent: incumbent * (1.0 + 1e-9),
                node_limit: 10_000_000,
                ..Default::default()
            };
            let with = dnf_search(tree, cat, base);
            let without_prop1 = dnf_search(
                tree,
                cat,
                SearchOptions {
                    prop1_ordering: false,
                    ..base
                },
            );
            let without_pruning = dnf_search(
                tree,
                cat,
                SearchOptions {
                    prune: false,
                    node_limit: 10_000_000,
                    ..base
                },
            );
            Some((
                with.stats.nodes,
                without_prop1.stats.nodes,
                without_pruning.stats.nodes,
            ))
        } else {
            None
        };

        (inc_d, dec_d, dec_r, stat, dynamic, search_stats)
    });

    for (inc_d, dec_d, dec_r, stat, dynamic, search) in results {
        inc_vs_dec_d.record(inc_d, dec_d);
        inc_vs_dec_r.record(inc_d, dec_r);
        dyn_vs_stat.record(dynamic, stat);
        if let Some((a, b, c)) = search {
            nodes_prop1 += a;
            nodes_plain += b;
            nodes_nopruning += c;
            searched += 1;
        }
    }

    let mut table = Table::new(["comparison (A vs B)", "A wins", "ties", "A loses"]);
    table.push_row(inc_vs_dec_d.row("stream-ord.: increasing d vs decreasing d ([4])"));
    table.push_row(inc_vs_dec_r.row("stream-ord.: increasing R vs decreasing R"));
    table.push_row(dyn_vs_stat.row("AND-ord. inc C/p: dynamic vs static"));
    table
        .write_csv(opts.path("ablation_duels.csv"))
        .expect("write ablation_duels.csv");

    let mut effort = Table::new(["search variant", "total nodes", "instances"]);
    effort.push_row([
        "B&B + Prop.1 + pruning".to_string(),
        nodes_prop1.to_string(),
        searched.to_string(),
    ]);
    effort.push_row([
        "B&B + pruning (no Prop.1)".to_string(),
        nodes_plain.to_string(),
        searched.to_string(),
    ]);
    effort.push_row([
        "B&B + Prop.1 (no pruning)".to_string(),
        nodes_nopruning.to_string(),
        searched.to_string(),
    ]);
    effort
        .write_csv(opts.path("ablation_search.csv"))
        .expect("write ablation_search.csv");

    let md = format!(
        "# Ablations\n\n## Heuristic variants (win/tie/loss on cost)\n\n{}\n\
         ## Exhaustive-search effort (leaf placements explored, {} instances <= 12 leaves)\n\n{}\n",
        table.to_markdown(),
        searched,
        effort.to_markdown()
    );
    std::fs::write(opts.path("ablation.md"), md).expect("write ablation.md");
    table
}
