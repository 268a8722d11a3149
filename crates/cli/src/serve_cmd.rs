//! `paotr serve` — serve a generated workload through the tick-driven
//! serving runtime: arrival processes, admission control and drift
//! re-planning, with a live summary rendered through `paotr_stats`.

use paotr_core::plan::Engine;
use paotr_exec::{
    AcceptAll, AdmissionPolicy, ArrivalSpec, DriftConfig, EnergyBudget, FaultSpec, ServeConfig,
    ServeLoop, ServeReport,
};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, planner_names, Workload};

pub fn run(args: &[String]) -> Result<(), String> {
    // `--daemon` switches to the long-running protocol daemon; every
    // other flag then belongs to `daemon_cmd`.
    if args.iter().any(|a| a == "--daemon") {
        let rest: Vec<String> = args.iter().filter(|a| *a != "--daemon").cloned().collect();
        return crate::daemon_cmd::run(&rest);
    }
    let mut queries = 16usize;
    let mut overlap = 0.5f64;
    let mut seed = 0u64;
    let mut ticks = 400usize;
    let mut arrivals = "poisson".to_string();
    let mut rate = 0.5f64;
    let mut every = 1u64;
    let mut budget: Option<f64> = None;
    let mut defer = false;
    let mut drift = true;
    let mut drift_tolerance = 0.15f64;
    let mut planner: Option<String> = None;
    let mut compare_all = false;
    let mut check_budget: Option<f64> = None;
    let mut arrange = false;
    let mut arrange_grace = paotr_exec::ArrangeConfig::default().grace;
    let mut faults: Option<FaultSpec> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        let take = |name: &str| -> Result<String, String> {
            value
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        let parse_num = |name: &str, out: &mut f64| -> Result<(), String> {
            *out = take(name)?
                .parse()
                .map_err(|_| format!("{name} expects a number"))?;
            Ok(())
        };
        match flag {
            "--queries" => {
                queries = take("--queries")?
                    .parse()
                    .map_err(|_| "--queries expects an integer".to_string())?;
                i += 2;
            }
            "--overlap" => {
                parse_num("--overlap", &mut overlap)?;
                i += 2;
            }
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
                i += 2;
            }
            "--ticks" => {
                ticks = take("--ticks")?
                    .parse()
                    .map_err(|_| "--ticks expects an integer".to_string())?;
                i += 2;
            }
            "--arrivals" => {
                arrivals = take("--arrivals")?;
                i += 2;
            }
            "--rate" => {
                parse_num("--rate", &mut rate)?;
                i += 2;
            }
            "--every" => {
                every = take("--every")?
                    .parse()
                    .map_err(|_| "--every expects an integer >= 1".to_string())?;
                i += 2;
            }
            "--budget" => {
                let mut b = 0.0;
                parse_num("--budget", &mut b)?;
                budget = Some(b);
                i += 2;
            }
            "--defer" => {
                defer = true;
                i += 1;
            }
            "--no-drift" => {
                drift = false;
                i += 1;
            }
            "--drift-tolerance" => {
                parse_num("--drift-tolerance", &mut drift_tolerance)?;
                i += 2;
            }
            "--planner" => {
                planner = Some(take("--planner")?);
                i += 2;
            }
            "--compare" => {
                compare_all = true;
                i += 1;
            }
            "--check-budget" => {
                let mut b = 0.0;
                parse_num("--check-budget", &mut b)?;
                check_budget = Some(b);
                i += 2;
            }
            "--arrange" => {
                arrange = true;
                i += 1;
            }
            "--arrange-grace" => {
                arrange_grace = take("--arrange-grace")?
                    .parse()
                    .map_err(|_| "--arrange-grace expects an integer".to_string())?;
                i += 2;
            }
            other => match parse_fault_flag(other, value, &mut faults)? {
                Some(used) => i += used,
                None => return Err(format!("unknown flag `{other}`")),
            },
        }
    }
    if queries == 0 {
        return Err("--queries must be at least 1".into());
    }
    if ticks == 0 {
        return Err("--ticks must be at least 1".into());
    }
    let arrivals = match arrivals.as_str() {
        "poisson" => {
            if !(rate.is_finite() && rate > 0.0) {
                return Err("--rate expects a finite number > 0".into());
            }
            ArrivalSpec::Poisson { rate }
        }
        "periodic" => {
            if every == 0 {
                return Err("--every expects an integer >= 1".into());
            }
            ArrivalSpec::Periodic { every }
        }
        other => {
            return Err(format!(
                "--arrivals expects poisson|periodic, got `{other}`"
            ))
        }
    };
    if let Some(b) = budget {
        if !(b.is_finite() && b >= 0.0) {
            return Err("--budget expects a finite energy value >= 0".into());
        }
    }
    if let Some(b) = check_budget {
        if !(b.is_finite() && b >= 0.0) {
            return Err("--check-budget expects a finite energy value >= 0".into());
        }
    }
    let config = WorkloadConfig::with_overlap(queries, overlap);
    let (trees, catalog) = workload_instance(config, seed as usize);
    let workload = Workload::from_trees(trees, catalog).map_err(|e| e.to_string())?;
    let engine = Engine::new();

    let serve_config = ServeConfig {
        ticks,
        seed,
        arrivals,
        ticks_between: 1,
        drift: drift.then_some(DriftConfig {
            tolerance: drift_tolerance,
            ..Default::default()
        }),
        arrange: arrange.then_some(paotr_exec::ArrangeConfig {
            grace: arrange_grace,
        }),
        faults,
        record_verdicts: false,
    };

    println!(
        "serving            : {} queries, {} streams, {} ticks, {} arrivals ({})",
        workload.len(),
        workload.catalog().len(),
        ticks,
        arrivals.name(),
        match arrivals {
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
        if drift {
            format!("tolerance {drift_tolerance}")
        } else {
            "off".into()
        }
    );
    if let Some(f) = &faults {
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

    let chosen: Vec<String> = if compare_all {
        planner_names().iter().map(|s| s.to_string()).collect()
    } else {
        let name = planner.as_deref().unwrap_or("shared-greedy");
        if planner_by_name(name).is_none() {
            return Err(format!(
                "unknown workload planner `{name}` (expected one of: {})",
                planner_names().join(", ")
            ));
        }
        if name == "independent" {
            vec![name.to_string()]
        } else {
            vec!["independent".to_string(), name.to_string()]
        }
    };

    let mut reports: Vec<ServeReport> = Vec::new();
    for name in &chosen {
        let joint = planner_by_name(name)
            .expect("validated above")
            .plan(&workload, &engine)
            .map_err(|e| e.to_string())?;
        let serve = ServeLoop::new(&workload, &joint, serve_config);
        let mut policy: Box<dyn AdmissionPolicy> = match (budget, defer) {
            (None, _) => Box::new(AcceptAll),
            (Some(b), false) => Box::new(EnergyBudget::shedding(b)),
            (Some(b), true) => Box::new(EnergyBudget::deferring(b)),
        };
        let quarter = (ticks / 4).max(1);
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
    if arrange {
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
    if faults.is_some() {
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

/// Applies one fault-injection flag, shared by `serve` and
/// `serve --daemon`, to `faults`. Returns how many arguments the flag
/// consumed, or `None` when `flag` is not a fault flag.
pub(crate) fn parse_fault_flag(
    flag: &str,
    value: Option<&String>,
    faults: &mut Option<FaultSpec>,
) -> Result<Option<usize>, String> {
    fn parse<T: std::str::FromStr>(
        flag: &str,
        value: Option<&String>,
        what: &str,
    ) -> Result<T, String> {
        value
            .ok_or_else(|| format!("{flag} expects a value"))?
            .parse()
            .map_err(|_| format!("{flag} expects {what}"))
    }
    let share = |what: &str| {
        let x: f64 = parse(flag, value, "a number")?;
        if x.is_finite() && (0.0..=1.0).contains(&x) {
            Ok(x)
        } else {
            Err(format!("{flag} expects {what}"))
        }
    };
    let mut spec = faults.unwrap_or_default();
    let used = match flag {
        "--faults" => 1,
        "--no-stale" => {
            spec.stale_serve = false;
            1
        }
        "--fault-seed" => {
            spec.seed = parse(flag, value, "an integer")?;
            2
        }
        "--fault-rate" => {
            spec.transient_rate = share("a probability in [0, 1]")?;
            2
        }
        "--outage-streams" => {
            spec.outage_streams = share("a share in [0, 1]")?;
            2
        }
        "--outage-len" => {
            spec.outage_len = parse(flag, value, "an integer")?;
            2
        }
        "--outage-gap" => {
            spec.outage_gap = parse(flag, value, "an integer")?;
            2
        }
        "--retries" => {
            spec.max_attempts = parse(flag, value, "an integer >= 1")
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "--retries expects an integer >= 1".to_string())?;
            2
        }
        _ => return Ok(None),
    };
    *faults = Some(spec);
    Ok(Some(used))
}

#[cfg(test)]
mod tests {
    #[test]
    fn serves_poisson_with_budget_end_to_end() {
        super::run(&[
            "--queries".into(),
            "6".into(),
            "--ticks".into(),
            "40".into(),
            "--arrivals".into(),
            "poisson".into(),
            "--rate".into(),
            "0.6".into(),
            "--budget".into(),
            "30".into(),
            "--compare".into(),
        ])
        .unwrap();
    }

    #[test]
    fn serves_periodic_accept_all() {
        super::run(&[
            "--queries".into(),
            "4".into(),
            "--ticks".into(),
            "20".into(),
            "--arrivals".into(),
            "periodic".into(),
            "--every".into(),
            "2".into(),
            "--no-drift".into(),
        ])
        .unwrap();
    }

    #[test]
    fn serves_under_fault_injection_with_budget() {
        super::run(&[
            "--queries".into(),
            "6".into(),
            "--ticks".into(),
            "40".into(),
            "--arrivals".into(),
            "periodic".into(),
            "--budget".into(),
            "60".into(),
            "--faults".into(),
            "--fault-seed".into(),
            "42".into(),
            "--outage-streams".into(),
            "0.5".into(),
            "--retries".into(),
            "2".into(),
        ])
        .unwrap();
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(super::run(&["--bogus".into()]).is_err());
        assert!(super::run(&["--arrivals".into(), "nope".into()]).is_err());
        assert!(super::run(&["--planner".into(), "nope".into()]).is_err());
        assert!(super::run(&["--queries".into(), "0".into()]).is_err());
        assert!(super::run(&["--rate".into(), "0".into()]).is_err());
        assert!(super::run(&["--fault-rate".into(), "1.5".into()]).is_err());
        assert!(super::run(&["--outage-streams".into(), "-0.1".into()]).is_err());
        assert!(super::run(&["--retries".into(), "0".into()]).is_err());
        assert!(super::run(&[
            "--arrivals".into(),
            "periodic".into(),
            "--every".into(),
            "0".into()
        ])
        .is_err());
        assert!(super::run(&["--budget".into(), "-1".into()]).is_err());
    }
}
