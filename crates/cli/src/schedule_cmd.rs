//! `paotr schedule` — compute and price schedules for a query.
//!
//! All planning is routed through [`paotr_core::plan::Engine`]: the
//! default planner per query class, `--heuristic NAME` for any registry
//! planner, `--all` for the paper's heuristic set, `--optimal` for the
//! exhaustive baseline. General (non-DNF) trees take the engine's
//! default planner and ignore the planner flags.

use crate::flags::{costs, Flags};
use crate::{compile, plan_by_name};
use paotr_core::plan::{Engine, Plan, QueryRef};
use paotr_core::tree::display;
use std::collections::HashMap;

pub(crate) struct Options {
    costs: HashMap<String, f64>,
    planner: Option<String>,
    all: bool,
    optimal: bool,
    seed: u64,
}

pub(crate) fn options(flags: &mut Flags) -> Result<Options, String> {
    Ok(Options {
        costs: costs(flags)?,
        planner: flags.text_of(&["--heuristic", "--planner"], "a planner name")?,
        all: flags.switch("--all")?,
        optimal: flags.switch("--optimal")?,
        seed: flags.or("--seed", 42, "an integer")?,
    })
}

pub fn run(args: &[String]) -> Result<(), String> {
    let (query, flags) = Flags::after_query(args)?;
    let opts = flags.read(options)?;
    let (_, compiled) = compile(&query, &opts.costs)?;
    let engine = Engine::new();

    let print_one = |plan: &Plan| {
        let cost = match plan.expected_cost {
            Some(c) => format!("{c:<10.4}"),
            None => "(n/a)     ".to_string(),
        };
        println!(
            "{:<28} E[cost] = {cost} {}",
            plan.planner,
            plan.body_display()
        );
    };

    let Some(dnf) = compiled.tree.as_dnf() else {
        // General trees: the engine dispatches to the recursive heuristic.
        let query = QueryRef::from(&compiled.tree);
        let plan = engine
            .plan(query, &compiled.catalog)
            .map_err(|e| e.to_string())?;
        println!("{}", display::render_query_tree(&compiled.tree));
        println!(
            "general AND-OR tree ({} leaves); `{}` planner order:",
            compiled.tree.num_leaves(),
            plan.planner
        );
        print_one(&plan);
        return Ok(());
    };

    println!("{}", display::render_dnf_named(&dnf, &compiled.catalog));
    let query = QueryRef::from(&dnf);
    if opts.all {
        // Iterate the registry's paper-set view, not a hard-coded list.
        for planner in engine.registry().paper_set() {
            let plan = plan_by_name(&engine, planner.name(), opts.seed, query, &compiled.catalog)?;
            print_one(&plan);
        }
    } else {
        let name = opts.planner.as_deref().unwrap_or("and-inc-cp-dyn");
        let plan = plan_by_name(&engine, name, opts.seed, query, &compiled.catalog)?;
        print_one(&plan);
    }
    if opts.optimal || opts.all {
        match engine.plan_with("exhaustive", query, &compiled.catalog) {
            Ok(plan) => {
                println!(
                    "{:<28} E[cost] = {:<10.4} {}",
                    "OPTIMAL (exhaustive DF)",
                    plan.cost_or_nan(),
                    plan.body_display()
                );
            }
            Err(e) => println!("(no exhaustive optimum: {e})"),
        }
    }
    Ok(())
}
