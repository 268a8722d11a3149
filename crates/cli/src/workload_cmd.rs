//! `paotr workload` — joint planning of multi-query workloads.
//!
//! Generates a random workload over one shared catalog (via
//! `paotr_gen::workload`), analyses cross-query stream interference,
//! plans it with one or all workload planners and — unless `--no-sim` —
//! validates predictions against the energy measured by serving every
//! query every tick through `paotr_exec`'s serve loop.

use crate::flags::{planner_lineup, Flags, WorkloadSpec};
use paotr_core::plan::Engine;
use paotr_exec::{compare, ServeConfig};
use paotr_multi::{SharedGreedyPlanner, WorkloadPlanner};

pub(crate) struct Options {
    spec: WorkloadSpec,
    evals: usize,
    planners: Vec<Box<dyn WorkloadPlanner>>,
    simulate: bool,
}

pub(crate) fn options(flags: &mut Flags) -> Result<Options, String> {
    let spec = WorkloadSpec::read(flags)?;
    let evals = flags.or("--evals", 300, "an integer")?;
    let mut planners = planner_lineup(flags)?;
    let simulate = !flags.switch("--no-sim")?;
    // `--threads` pins shared-greedy's per-round fan-out (planning
    // results are identical at any thread count; this is a wall-clock
    // knob).
    if let Some(t) = flags.count("--threads")? {
        for p in &mut planners {
            if p.name() == "shared-greedy" {
                *p = Box::new(SharedGreedyPlanner {
                    threads: paotr_par::ThreadCount::Fixed(t),
                });
            }
        }
    }
    Ok(Options {
        spec,
        evals,
        planners,
        simulate,
    })
}

pub fn run(args: &[String]) -> Result<(), String> {
    let Options {
        spec,
        evals,
        planners,
        simulate,
    } = Flags::parse(args)?.read(options)?;
    let seed = spec.seed;
    let workload = spec.build()?;
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

    let sim = simulate.then_some(ServeConfig {
        ticks: evals,
        seed,
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
    fn run(args: &str) -> Result<(), String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        super::run(&args)
    }

    #[test]
    fn runs_compare_end_to_end() {
        run("--queries 6 --overlap 0.6 --evals 40 --compare").unwrap();
    }

    #[test]
    fn runs_single_planner_without_simulation() {
        run("--queries 4 --planner batch-aware --no-sim").unwrap();
    }

    #[test]
    fn rejects_unknown_flags_and_planners() {
        for bad in [
            "--bogus",
            "--planner nope",
            "--queries 0",
            "--threads zero",
            "--threads 0",
        ] {
            assert!(run(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn threads_flag_pins_the_shared_greedy_pool() {
        run("--queries 5 --threads 2 --no-sim --compare").unwrap();
    }
}
