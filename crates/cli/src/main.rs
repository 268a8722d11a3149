//! `paotr` — command-line front end for the PAOTR library.
//!
//! ```text
//! paotr schedule "(AVG(A,5) < 70 @0.6 AND MAX(B,4) > 100 @0.2) OR C < 3 @0.5" \
//!       [--costs A=1,B=2.5,C=8] [--heuristic NAME | --all | --optimal]
//! paotr explain  "<query>" [--costs ...]      # heuristic metrics per leaf/AND/stream
//! paotr simulate "<query>" [--costs ...] [--evals N] [--retain]
//! paotr workload [--queries N] [--overlap F] [--seed S] [--planner NAME | --compare]
//! paotr serve    [--queries N] [--arrivals poisson|periodic] [--budget J] [--compare]
//! paotr serve    --daemon [--budget J] [--listen ADDR] [--snapshot PATH]
//! paotr check    snapshot <path> | query "<q>" | workload [--planner NAME | --all]
//! ```
//!
//! Probabilities come from `@` annotations (default 0.5). Stream costs
//! default to 1.0.

#![forbid(unsafe_code)]
mod check_cmd;
mod daemon_cmd;
mod explain;
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
    println!(
        "paotr — cost-optimal execution of boolean query trees with shared streams\n\n\
         usage:\n\
         \x20 paotr schedule \"<query>\" [--costs A=1,B=2] [--heuristic NAME | --all | --optimal]\n\
         \x20                [--seed S]\n\
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
         query syntax: AVG|MAX|MIN|SUM|LAST(stream, window) CMP threshold [@ prob],\n\
         \x20 bare `stream CMP x` = LAST(stream,1); AND/&& binds tighter than OR/||.\n\n\
         planner names (for --heuristic; default and-inc-cp-dyn):"
    );
    // One source of truth: the registry, not a hand-rolled name table.
    let registry = paotr_core::plan::PlannerRegistry::with_defaults();
    let names = registry.names().join(", ");
    println!("  {names}");
}

/// Shared argument plumbing for the subcommands.
pub(crate) struct CommonArgs {
    pub query: String,
    pub costs: HashMap<String, f64>,
    pub rest: Vec<(String, Option<String>)>,
}

pub(crate) fn parse_common(args: &[String]) -> Result<CommonArgs, String> {
    let Some((query, flags)) = args.split_first() else {
        return Err("expected a query string".into());
    };
    if query.starts_with("--") {
        return Err("the query string must come before flags".into());
    }
    let mut costs = HashMap::new();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        let flag = &flags[i];
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument `{flag}`"));
        }
        let value = flags.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
        if flag == "--costs" {
            let spec = value.clone().ok_or("--costs expects e.g. A=1,B=2.5")?;
            for pair in spec.split(',') {
                let (name, cost) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad cost `{pair}`"))?;
                let cost: f64 = cost
                    .parse()
                    .map_err(|_| format!("bad cost value `{cost}`"))?;
                costs.insert(name.trim().to_string(), cost);
            }
        } else {
            rest.push((flag.clone(), value.clone()));
        }
        i += if value.is_some() { 2 } else { 1 };
    }
    Ok(CommonArgs {
        query: query.clone(),
        costs,
        rest,
    })
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

/// Parses the query and compiles it against the cost table.
pub(crate) fn compile(
    common: &CommonArgs,
) -> Result<(paotr_qlang::Expr, paotr_qlang::Compiled), String> {
    let expr =
        paotr_qlang::parse(&common.query).map_err(|e| format!("\n{}", e.render(&common.query)))?;
    let compiled = paotr_qlang::compile(&expr, &common.costs)
        .map_err(|e| format!("\n{}", e.render(&common.query)))?;
    Ok((expr, compiled))
}
