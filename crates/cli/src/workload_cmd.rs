//! `paotr workload` — joint planning of multi-query workloads.
//!
//! Generates a random workload over one shared catalog (via
//! `paotr_gen::workload`), analyses cross-query stream interference,
//! plans it with one or all workload planners and — unless `--no-sim` —
//! validates predictions against the energy measured by serving every
//! query every tick through `paotr_exec`'s serve loop.

use paotr_core::plan::Engine;
use paotr_exec::{compare, ServeConfig};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{
    default_planners, planner_by_name, SharedGreedyPlanner, Workload, WorkloadPlanner,
};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut queries = 16usize;
    let mut overlap = 0.5f64;
    let mut seed = 0usize;
    let mut evals = 300usize;
    let mut planner: Option<String> = None;
    let mut compare_all = false;
    let mut simulate = true;
    let mut threads: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        let take = |name: &str| -> Result<String, String> {
            value
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag {
            "--queries" => {
                queries = take("--queries")?
                    .parse()
                    .map_err(|_| "--queries expects an integer".to_string())?;
                i += 2;
            }
            "--overlap" => {
                overlap = take("--overlap")?
                    .parse()
                    .map_err(|_| "--overlap expects a number in [0, 1]".to_string())?;
                i += 2;
            }
            "--seed" => {
                seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
                i += 2;
            }
            "--evals" => {
                evals = take("--evals")?
                    .parse()
                    .map_err(|_| "--evals expects an integer".to_string())?;
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
            "--no-sim" => {
                simulate = false;
                i += 1;
            }
            "--threads" => {
                let t: usize = take("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer >= 1".to_string())?;
                if t == 0 {
                    return Err("--threads expects an integer >= 1".into());
                }
                threads = Some(t);
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if queries == 0 {
        return Err("--queries must be at least 1".into());
    }

    let config = WorkloadConfig::with_overlap(queries, overlap);
    let (trees, catalog) = workload_instance(config, seed);
    let workload = Workload::from_trees(trees, catalog).map_err(|e| e.to_string())?;
    let engine = Engine::new();

    let interference = workload.interference(&engine).map_err(|e| e.to_string())?;
    println!(
        "workload           : {} queries, {} streams, {} leaves (seed {seed})",
        workload.len(),
        workload.catalog().len(),
        workload.num_leaves()
    );
    println!(
        "stream overlap     : {:.1}% mean pairwise ({} streams shared by >1 query)",
        interference.mean_pairwise_overlap() * 100.0,
        interference.shared_streams()
    );
    println!(
        "amortizable pulls  : {:.2} expected items/tick",
        interference.total_expected_overlap()
    );
    println!();

    // `--threads` pins shared-greedy's per-round fan-out (planning
    // results are identical at any thread count; this is a wall-clock
    // knob).
    let with_threads = |mut planners: Vec<Box<dyn WorkloadPlanner>>| {
        if let Some(t) = threads {
            for p in &mut planners {
                if p.name() == "shared-greedy" {
                    *p = Box::new(SharedGreedyPlanner {
                        threads: paotr_par::ThreadCount::Fixed(t),
                    });
                }
            }
        }
        planners
    };

    let planners = with_threads(if compare_all {
        default_planners()
    } else {
        let name = planner.as_deref().unwrap_or("shared-greedy");
        let chosen = planner_by_name(name).ok_or_else(|| {
            format!(
                "unknown workload planner `{name}` (expected one of: {})",
                paotr_multi::planner_names().join(", ")
            )
        })?;
        if name == "independent" {
            vec![chosen]
        } else {
            // keep the baseline so sharing ratio / sim speedup are defined
            vec![planner_by_name("independent").expect("built-in"), chosen]
        }
    });

    let sim = simulate.then_some(ServeConfig {
        ticks: evals,
        seed: seed as u64,
        ticks_between: 1,
        ..Default::default()
    });
    let outcomes = compare(&workload, &engine, &planners, sim).map_err(|e| e.to_string())?;

    println!(
        "{:<15} {:>10} {:>9} {:>9} {:>16} {:>12}",
        "planner", "E[cost]", "sharing", "speedup", "sim energy/tick", "sim speedup"
    );
    for o in &outcomes {
        let sim_energy = o
            .simulated_energy
            .map(|e| format!("{e:.2}"))
            .unwrap_or_else(|| "-".into());
        let sim_speedup = o
            .simulated_speedup
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<15} {:>10.2} {:>8.1}% {:>8.2}x {:>16} {:>12}",
            o.planner,
            o.aggregate_predicted,
            o.sharing_ratio * 100.0,
            o.speedup,
            sim_energy,
            sim_speedup
        );
    }

    // Plan-cache attribution: how much planning work the engine paid for
    // once vs. served again from the cache — the cross-planner sharing
    // win in wall-clock terms.
    let stats = engine.cache_stats();
    println!();
    println!(
        "plan cache         : {} hits / {} misses ({:.1}% hit rate, {} entries)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries
    );
    println!(
        "planning latency   : {:.3} ms planned (misses) vs {:.3} ms served from cache (hits)",
        stats.planned_time().as_secs_f64() * 1e3,
        stats.served_time().as_secs_f64() * 1e3
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_compare_end_to_end() {
        super::run(&[
            "--queries".into(),
            "6".into(),
            "--overlap".into(),
            "0.6".into(),
            "--evals".into(),
            "40".into(),
            "--compare".into(),
        ])
        .unwrap();
    }

    #[test]
    fn runs_single_planner_without_simulation() {
        super::run(&[
            "--queries".into(),
            "4".into(),
            "--planner".into(),
            "batch-aware".into(),
            "--no-sim".into(),
        ])
        .unwrap();
    }

    #[test]
    fn rejects_unknown_flags_and_planners() {
        assert!(super::run(&["--bogus".into()]).is_err());
        assert!(super::run(&["--planner".into(), "nope".into()]).is_err());
        assert!(super::run(&["--queries".into(), "0".into()]).is_err());
        assert!(super::run(&["--threads".into(), "zero".into()]).is_err());
        assert!(super::run(&["--threads".into(), "0".into()]).is_err());
    }

    #[test]
    fn threads_flag_pins_the_shared_greedy_pool() {
        super::run(&[
            "--queries".into(),
            "5".into(),
            "--threads".into(),
            "2".into(),
            "--no-sim".into(),
            "--compare".into(),
        ])
        .unwrap();
    }
}
