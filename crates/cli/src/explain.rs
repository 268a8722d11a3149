//! `paotr explain` — print the metrics every heuristic family sorts by.
//!
//! For a DNF query this shows, side by side, exactly the numbers the
//! paper's heuristics compare: per-leaf `C`, `q`, `C/q` (leaf-ordered
//! family), per-AND `C`, `p`, `C/p` (AND-ordered family, static), and
//! per-stream `R(S)` (the Lim et al. stream-ordered metric).

use crate::compile;
use crate::flags::{costs, Flags};
use paotr_core::algo::heuristics::stream_ordered;
use paotr_core::cost::and_eval;

pub fn run(args: &[String]) -> Result<(), String> {
    let (query, flags) = Flags::after_query(args)?;
    let costs = flags.read(costs)?;
    let (_, compiled) = compile(&query, &costs)?;
    let dnf = compiled
        .tree
        .as_dnf()
        .ok_or("explain currently supports DNF-shaped queries")?;
    let cat = &compiled.catalog;

    println!("Leaf metrics (leaf-ordered heuristics sort by these):");
    println!(
        "{:<10} {:<10} {:>8} {:>8} {:>8} {:>10}",
        "leaf", "stream", "d", "C=d*c", "q", "C/q"
    );
    for (r, leaf) in dnf.leaves() {
        let c = leaf.standalone_cost(cat);
        let q = leaf.fail();
        let ratio = if q > 0.0 { c / q } else { f64::INFINITY };
        println!(
            "{:<10} {:<10} {:>8} {:>8.3} {:>8.3} {:>10.3}",
            r.to_string(),
            cat.name(leaf.stream),
            leaf.items,
            c,
            q,
            ratio
        );
    }

    println!("\nAND-node metrics (AND-ordered heuristics; leaves via Algorithm 1):");
    println!("{:<8} {:>10} {:>8} {:>10}", "AND", "C", "p", "C/p");
    for (i, term) in dnf.terms().iter().enumerate() {
        use paotr_core::plan::{planners::GreedyPlanner, Planner, QueryRef};
        let at = term.as_and_tree();
        let plan = GreedyPlanner
            .plan(&QueryRef::from(&at), cat)
            .map_err(|e| e.to_string())?;
        let s = plan
            .body
            .as_and()
            .expect("AND-tree planner emits an AND schedule");
        let (c, p) = and_eval::expected_cost_and_prob(&at, cat, s);
        let ratio = if p > 0.0 { c / p } else { f64::INFINITY };
        println!("and{:<5} {:>10.4} {:>8.4} {:>10.4}", i + 1, c, p, ratio);
    }

    println!("\nStream metrics (stream-ordered heuristic, increasing R):");
    println!("{:<10} {:>10}", "stream", "R(S)");
    let mut metrics = stream_ordered::stream_metrics(&dnf, cat);
    metrics.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (k, r) in metrics {
        println!("{:<10} {:>10.4}", cat.name(k), r);
    }
    Ok(())
}
