//! `paotr check` — static verification without executing anything.
//!
//! ```text
//! paotr check snapshot <path>
//! paotr check query "<query or file>" [--costs A=1,B=2]
//! paotr check workload [--queries N] [--overlap F] [--seed S]
//!                      [--planner NAME | --all] [--budget J]
//! ```
//!
//! Exit status is non-zero when any violation is found, so the command
//! doubles as a CI gate.

use crate::flags::{costs, energy, planners, Flags, WorkloadSpec};
use paotr_check::{check_snapshot_file, lint_query, verify_energy, verify_joint, CheckReport};
use paotr_core::plan::Engine;
use paotr_exec::EnergyBudget;
use paotr_multi::WorkloadPlanner;

pub fn run(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(
            "expected a subject: `check snapshot <path>`, `check query <q>`, \
             or `check workload [...]`"
                .into(),
        );
    };
    match sub.as_str() {
        "snapshot" => snapshot(rest),
        "query" => query(rest),
        "workload" => workload(rest),
        other => Err(format!(
            "unknown check subject `{other}` (expected snapshot, query, or workload)"
        )),
    }
}

/// Renders a report and turns a dirty one into a CLI error.
fn finish(report: CheckReport) -> Result<(), String> {
    print!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} violation(s) found", report.errors.len()))
    }
}

fn snapshot(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: paotr check snapshot <path>".into());
    };
    finish(check_snapshot_file(path).map_err(|e| e.to_string())?)
}

fn query(args: &[String]) -> Result<(), String> {
    let (query, flags) = Flags::after_query(args)?;
    let costs = flags.read(costs)?;
    // A query argument naming a readable file is linted from the file;
    // anything else is treated as inline source.
    let source = match std::fs::read_to_string(&query) {
        Ok(text) => text.trim_end().to_string(),
        Err(_) => query,
    };
    // Surface parse errors through the parser's own caret diagnostic.
    paotr_qlang::parse(&source).map_err(|e| format!("\n{}", e.render(&source)))?;
    let report = lint_query(&source, &costs);
    for e in &report.errors {
        if let paotr_check::CheckError::Lint(l) = e {
            println!("{}\n", l.render(&source));
        }
    }
    finish(report)
}

pub(crate) struct WorkloadOptions {
    spec: WorkloadSpec,
    planners: Vec<Box<dyn WorkloadPlanner>>,
    budget: Option<f64>,
}

pub(crate) fn workload_options(flags: &mut Flags) -> Result<WorkloadOptions, String> {
    Ok(WorkloadOptions {
        spec: WorkloadSpec::read(flags)?,
        planners: planners(flags, "--all")?,
        budget: energy(flags, "--budget")?,
    })
}

fn workload(args: &[String]) -> Result<(), String> {
    let opts = Flags::parse(args)?.read(workload_options)?;
    let workload = opts.spec.build()?;
    let engine = Engine::new();

    let WorkloadSpec {
        queries,
        overlap,
        seed,
    } = opts.spec;
    let mut combined = CheckReport::new(format!(
        "workload (queries={queries}, overlap={overlap}, seed={seed})"
    ));
    for p in opts.planners {
        let joint = p.plan(&workload, &engine).map_err(|e| e.to_string())?;
        let mut report = verify_joint(&joint, &workload);
        if let Some(j) = opts.budget {
            report.merge(verify_energy(
                &joint,
                &workload,
                &EnergyBudget::shedding(j),
                1.0,
            ));
        }
        println!(
            "{:<14} {} checks, {} violations",
            p.name(),
            report.checks_run,
            report.errors.len()
        );
        combined.merge(report);
    }
    finish(combined)
}
