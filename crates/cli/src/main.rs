//! `paotr` — command-line front end for the PAOTR library.
//!
//! ```text
//! paotr schedule "(AVG(A,5) < 70 @0.6 AND MAX(B,4) > 100 @0.2) OR C < 3 @0.5" \
//!       [--costs A=1,B=2.5,C=8] [--heuristic NAME | --all] [--optimal]
//! paotr explain  "<query>" [--costs ...]      # heuristic metrics per leaf/AND/stream
//! paotr simulate "<query>" [--costs ...] [--evals N] [--retain]
//! paotr workload [--queries N] [--overlap F] [--seed S] [--planner NAME | --compare]
//! paotr serve    [--queries N] [--arrivals poisson|periodic] [--budget J] [--compare]
//! paotr serve    --daemon [--budget J] [--listen ADDR] [--snapshot PATH]
//! paotr check    snapshot <path> | query "<q>" | workload [--planner NAME | --all]
//! ```
//!
//! Probabilities come from `@` annotations (default 0.5). Stream costs
//! default to 1.0. Every subcommand reads its options through
//! [`flags::Flags`].

#![forbid(unsafe_code)]
mod check_cmd;
mod daemon_cmd;
mod explain;
mod flags;
mod schedule_cmd;
mod serve_cmd;
mod simulate_cmd;
#[cfg(test)]
mod tests;
mod workload_cmd;

use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        print_help();
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "schedule" => schedule_cmd::run(rest),
        "explain" => explain::run(rest),
        "simulate" => simulate_cmd::run(rest),
        "workload" => workload_cmd::run(rest),
        "serve" => serve_cmd::run(rest),
        "check" => check_cmd::run(rest),
        "--help" | "-h" | "help" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("{}", help());
    // One source of truth: the registry, not a hand-rolled name table.
    let registry = paotr_core::plan::PlannerRegistry::with_defaults();
    let names = registry.names().join(", ");
    println!("  {names}");
}

fn help() -> &'static str {
    "paotr — cost-optimal execution of boolean query trees with shared streams\n\n\
     usage:\n\
     \x20 paotr schedule \"<query>\" [--costs A=1,B=2] [--heuristic|--planner NAME | --all]\n\
     \x20                [--optimal] [--seed S]\n\
     \x20 paotr explain  \"<query>\" [--costs A=1,B=2]\n\
     \x20 paotr simulate \"<query>\" [--costs A=1,B=2] [--evals N] [--retain] [--seed S]\n\
     \x20 paotr workload [--queries N] [--overlap F] [--seed S] [--evals N]\n\
     \x20                [--planner independent|shared-greedy|batch-aware | --compare]\n\
     \x20                [--no-sim] [--threads N]\n\
     \x20 paotr serve    [--queries N] [--overlap F] [--seed S] [--ticks N]\n\
     \x20                [--arrivals poisson|periodic] [--rate F] [--every N]\n\
     \x20                [--budget J] [--defer] [--no-drift] [--drift-tolerance F]\n\
     \x20                [--planner NAME | --compare] [--check-budget J]\n\
     \x20                [--arrange] [--arrange-grace N]\n\
     \x20                [--faults] [--fault-seed S] [--fault-rate P] [--outage-streams F]\n\
     \x20                [--outage-len N] [--outage-gap N] [--retries N] [--no-stale]\n\
     \x20 paotr serve    --daemon [--seed S] [--planner NAME] [--budget J] [--shed]\n\
     \x20                [--replan-after N] [--max-sessions N] [--max-window N]\n\
     \x20                [--listen ADDR] [--snapshot PATH] [--idle-timeout MS]\n\
     \x20                [--arrange] [--arrange-grace N]\n\
     \x20                [--faults] [--fault-seed S] [--fault-rate P] [--outage-streams F]\n\
     \x20                [--outage-len N] [--outage-gap N] [--retries N] [--no-stale]\n\
     \x20 paotr check    snapshot <path>\n\
     \x20 paotr check    query \"<query or file>\" [--costs A=1,B=2]\n\
     \x20 paotr check    workload [--queries N] [--overlap F] [--seed S]\n\
     \x20                [--planner NAME | --all] [--budget J]\n\n\
     `--arrange-grace N` alone also turns arrangements on; any fault flag\n\
     turns fault injection on.\n\n\
     query syntax: AVG|MAX|MIN|SUM|LAST(stream, window) CMP threshold [@ prob],\n\
     \x20 bare `stream CMP x` = LAST(stream,1); AND/&& binds tighter than OR/||.\n\n\
     planner names (for --heuristic; default and-inc-cp-dyn):"
}

/// Plans `query` with the planner named `name`, honoring `--seed` for
/// the seeded heuristics. The accepted names are exactly
/// [`paotr_core::plan::PlannerRegistry::names`]; heuristic names parse
/// through [`Heuristic`](paotr_core::algo::heuristics::Heuristic)'s
/// `FromStr`, so the CLI has no name table of its own.
pub(crate) fn plan_by_name<'a>(
    engine: &paotr_core::plan::Engine,
    name: &str,
    seed: u64,
    query: impl Into<paotr_core::plan::QueryRef<'a>>,
    catalog: &paotr_core::stream::StreamCatalog,
) -> Result<paotr_core::plan::Plan, String> {
    use paotr_core::algo::heuristics::Heuristic;
    use paotr_core::plan::{planners::HeuristicPlanner, Planner};
    if engine.registry().get(name).is_none() {
        return Err(format!("unknown planner `{name}` (see --help)"));
    }
    match name.parse::<Heuristic>() {
        // Seeded heuristics bypass the cache so --seed is honored.
        Ok(h) if h.with_seed(seed) != h => HeuristicPlanner::new(h.with_seed(seed))
            .plan(&query.into(), catalog)
            .map_err(|e| e.to_string()),
        _ => engine
            .plan_with(name, query, catalog)
            .map_err(|e| e.to_string()),
    }
}

/// Parses `query` and compiles it against the cost table.
pub(crate) fn compile(
    query: &str,
    costs: &HashMap<String, f64>,
) -> Result<(paotr_qlang::Expr, paotr_qlang::Compiled), String> {
    let expr = paotr_qlang::parse(query).map_err(|e| format!("\n{}", e.render(query)))?;
    let compiled =
        paotr_qlang::compile(&expr, costs).map_err(|e| format!("\n{}", e.render(query)))?;
    Ok((expr, compiled))
}
