//! `paotr serve` — serve a generated workload through the tick-driven
//! serving runtime: arrival processes, admission control and drift
//! re-planning, with a live summary rendered through `paotr_stats`.

use crate::flags::{arrange, energy, faults, planner_lineup, Flags, WorkloadSpec};
use paotr_core::plan::Engine;
use paotr_exec::{
    AcceptAll, AdmissionPolicy, ArrivalSpec, DriftConfig, EnergyBudget, ServeConfig, ServeLoop,
    ServeReport,
};
use paotr_multi::WorkloadPlanner;

pub(crate) struct Options {
    spec: WorkloadSpec,
    config: ServeConfig,
    budget: Option<f64>,
    defer: bool,
    planners: Vec<Box<dyn WorkloadPlanner>>,
    check_budget: Option<f64>,
}

pub(crate) fn options(flags: &mut Flags) -> Result<Options, String> {
    let spec = WorkloadSpec::read(flags)?;
    let ticks = flags.count("--ticks")?.unwrap_or(400);
    let arrivals = flags.text("--arrivals", "poisson|periodic")?;
    let rate: f64 = flags.or("--rate", 0.5, "a number")?;
    let every = flags.or("--every", 1, "an integer >= 1")?;
    let arrivals = match arrivals.as_deref().unwrap_or("poisson") {
        "poisson" if rate.is_finite() && rate > 0.0 => ArrivalSpec::Poisson { rate },
        "poisson" => return Err("--rate expects a finite number > 0".into()),
        "periodic" if every > 0 => ArrivalSpec::Periodic { every },
        "periodic" => return Err("--every expects an integer >= 1".into()),
        other => {
            return Err(format!(
                "--arrivals expects poisson|periodic, got `{other}`"
            ))
        }
    };
    let budget = energy(flags, "--budget")?;
    let defer = flags.switch("--defer")?;
    let drift = !flags.switch("--no-drift")?;
    let tolerance = flags.or("--drift-tolerance", 0.15, "a number")?;
    let config = ServeConfig {
        ticks,
        seed: spec.seed,
        arrivals,
        drift: drift.then_some(DriftConfig {
            tolerance,
            ..Default::default()
        }),
        arrange: arrange(flags)?,
        faults: faults(flags)?,
        record_verdicts: false,
    };
    Ok(Options {
        spec,
        config,
        budget,
        defer,
        planners: planner_lineup(flags)?,
        check_budget: energy(flags, "--check-budget")?,
    })
}

pub fn run(args: &[String]) -> Result<(), String> {
    // `--daemon` switches to the long-running protocol daemon, which
    // reads its own options.
    let mut flags = Flags::parse(args)?;
    if flags.switch("--daemon")? {
        return crate::daemon_cmd::run(flags);
    }
    let Options {
        spec,
        config,
        budget,
        defer,
        planners,
        check_budget,
    } = flags.read(options)?;
    let workload = spec.build()?;
    let engine = Engine::new();

    println!(
        "serving            : {} queries, {} streams, {} ticks, {} arrivals ({})",
        workload.len(),
        workload.catalog().len(),
        config.ticks,
        config.arrivals.name(),
        match config.arrivals {
            ArrivalSpec::Poisson { rate } => format!("rate {rate}/tick"),
            ArrivalSpec::Periodic { every } => format!("every {every} ticks"),
        }
    );
    println!(
        "admission          : {}",
        match (budget, defer) {
            (None, _) => "accept-all (no budget)".to_string(),
            (Some(b), false) => format!("energy-budget {b} J/tick, shed"),
            (Some(b), true) => format!("energy-budget {b} J/tick, defer"),
        }
    );
    println!(
        "drift re-planning  : {}",
        match config.drift {
            Some(d) => format!("tolerance {}", d.tolerance),
            None => "off".into(),
        }
    );
    if let Some(f) = &config.faults {
        println!(
            "fault injection    : seed {}, transient rate {}, outages {:.0}% of streams \
             ({} down / {} up ticks), {} attempts, stale serving {}",
            f.seed,
            f.transient_rate,
            f.outage_streams * 100.0,
            f.outage_len,
            f.outage_gap,
            f.max_attempts,
            if f.stale_serve { "on" } else { "off" }
        );
    }
    println!();

    let mut reports: Vec<ServeReport> = Vec::new();
    for planner in &planners {
        let name = planner.name();
        let joint = planner
            .plan(&workload, &engine)
            .map_err(|e| e.to_string())?;
        let serve = ServeLoop::new(&workload, &joint, config);
        let mut policy: Box<dyn AdmissionPolicy> = match (budget, defer) {
            (None, _) => Box::new(AcceptAll),
            (Some(b), false) => Box::new(EnergyBudget::shedding(b)),
            (Some(b), true) => Box::new(EnergyBudget::deferring(b)),
        };
        let quarter = (config.ticks / 4).max(1);
        // Track the hottest tick so a budget violation names the
        // offending tick, not just the worst energy.
        let mut worst_tick = 0u64;
        let mut worst_energy = 0.0f64;
        let report = serve
            .run_with_progress(policy.as_mut(), &engine, |t| {
                if t.energy > worst_energy {
                    worst_energy = t.energy;
                    worst_tick = t.tick;
                }
                if (t.tick + 1) % quarter as u64 == 0 {
                    eprintln!(
                        "  [{name}] tick {:>5}: due {:>3}  admitted {:>3}  shed {:>3}  \
                         deferred {:>3}  energy {:>8.2}",
                        t.tick + 1,
                        t.due,
                        t.admitted,
                        t.shed,
                        t.deferred,
                        t.energy
                    );
                }
            })
            .map_err(|e| e.to_string())?;
        // Hard post-hoc check: `--budget` is enforced by admission, so a
        // violation here is a runtime bug; `--check-budget` audits a run
        // that had no admission ceiling. Either way the offense is fatal.
        if let Some(b) = check_budget.or(budget) {
            if report.max_tick_energy > b + 1e-9 {
                return Err(format!(
                    "budget violated at tick {worst_tick}: {worst_energy:.3} J > {b} J/tick \
                     (planner {name})"
                ));
            }
        }
        reports.push(report);
    }

    println!();
    print!("{}", ServeReport::summary_table(&reports).to_markdown());
    if config.arrange.is_some() {
        println!();
        for r in &reports {
            println!(
                "arrangements [{:>13}]: {} maintained, {} items served from rings, \
                 {} pulled + {} maintained items ({:.2} J pulls + {:.2} J maintenance)",
                r.planner,
                r.arrangements,
                r.arrangement_hit_items,
                r.pulled_items.iter().sum::<u64>(),
                r.maintained_items,
                r.pull_energy,
                r.maintain_energy
            );
        }
    }
    if config.faults.is_some() {
        println!();
        for r in &reports {
            let det = r.determined() as f64 / (r.evals.max(1)) as f64;
            println!(
                "chaos [{:>13}]: {} retries ({:.2} J), {} failed reads, verdicts \
                 {} determined ({:.1}%) / {} degraded / {} unknown, {} stale leaves \
                 (max staleness {}), {} outage re-plans",
                r.planner,
                r.retries,
                r.retry_energy,
                r.failed_reads,
                r.determined(),
                det * 100.0,
                r.degraded_verdicts,
                r.unknown_verdicts,
                r.stale_serves,
                r.max_staleness,
                r.outage_replans
            );
        }
    }
    if let Some(b) = budget {
        println!();
        println!(
            "per-tick energy stayed within the {b} J budget on every tick of every run \
             (worst observed: {:.2} J)",
            reports
                .iter()
                .map(|r| r.max_tick_energy)
                .fold(0.0, f64::max)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    fn run(args: &str) -> Result<(), String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        super::run(&args)
    }

    #[test]
    fn serves_poisson_with_budget_end_to_end() {
        run("--queries 6 --ticks 40 --arrivals poisson --rate 0.6 --budget 30 --compare").unwrap();
    }

    #[test]
    fn serves_periodic_accept_all() {
        run("--queries 4 --ticks 20 --arrivals periodic --every 2 --no-drift").unwrap();
    }

    #[test]
    fn serves_under_fault_injection_with_budget() {
        run(
            "--queries 6 --ticks 40 --arrivals periodic --budget 60 --faults --fault-seed 42 \
             --outage-streams 0.5 --retries 2",
        )
        .unwrap();
    }

    #[test]
    fn rejects_bad_flags() {
        for bad in [
            "--bogus",
            "--arrivals nope",
            "--planner nope",
            "--queries 0",
            "--rate 0",
            "--fault-rate 1.5",
            "--outage-streams -0.1",
            "--retries 0",
            "--arrivals periodic --every 0",
            "--budget -1",
        ] {
            assert!(run(bad).is_err(), "{bad}");
        }
    }
}
