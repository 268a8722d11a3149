//! Unit tests for CLI argument handling.

use crate::flags::{costs, Flags};
use crate::plan_by_name;
use paotr_core::plan::Engine;
use std::collections::HashMap;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn parses_query_and_costs() {
    let a = args(&["A < 1 AND B < 2", "--costs", "A=2,B=0.5"]);
    let (query, flags) = Flags::after_query(&a).unwrap();
    assert_eq!(query, "A < 1 AND B < 2");
    let c = flags.read(costs).unwrap();
    assert_eq!(c["A"], 2.0);
    assert_eq!(c["B"], 0.5);
    assert_eq!(c.len(), 2);
}

#[test]
fn collects_unknown_flags_for_subcommands() {
    let a = args(&["--heuristic", "leaf-inc-c", "--all", "--bogus"]);
    let read = |flags: &mut Flags| {
        let name = flags.text("--heuristic", "a planner name")?;
        Ok((name, flags.switch("--all")?))
    };
    let (name, all) = read(&mut Flags::parse(&a).unwrap()).unwrap();
    assert_eq!(name.as_deref(), Some("leaf-inc-c"));
    assert!(all);
    // the first flag nothing asked for is the error
    let err = Flags::parse(&a).unwrap().read(read).unwrap_err();
    assert_eq!(err, "unknown flag `--bogus`");
}

#[test]
fn rejects_missing_query() {
    assert!(Flags::after_query(&args(&[])).is_err());
    assert!(Flags::after_query(&args(&["--costs", "A=1"])).is_err());
    // a bare token is neither a flag nor a flag's value
    assert!(Flags::after_query(&args(&["A < 1", "--costs", "A=1", "B"])).is_err());
}

#[test]
fn rejects_malformed_costs() {
    for bad in [&["--costs", "A"][..], &["--costs", "A=x"], &["--costs"]] {
        assert!(Flags::parse(&args(bad)).unwrap().read(costs).is_err());
    }
}

#[test]
fn the_last_occurrence_wins_and_errors_name_the_flag() {
    let a = args(&[
        "--seed", "1", "--seed", "2", "--budget", "-1", "--ticks", "x",
    ]);
    let mut flags = Flags::parse(&a).unwrap();
    assert_eq!(flags.get::<u64>("--seed", "an integer"), Ok(Some(2)));
    // a value starting with a single `-` is still the flag's value
    assert_eq!(flags.text("--budget", "a number"), Ok(Some("-1".into())));
    assert_eq!(
        flags.get::<usize>("--ticks", "an integer"),
        Err("--ticks expects an integer".into())
    );
    assert_eq!(flags.or("--every", 7u64, "an integer"), Ok(7));
    let mut flags = Flags::parse(&args(&["--planner", "--all"])).unwrap();
    assert_eq!(
        flags.text("--planner", "a planner name"),
        Err("--planner expects a planner name".into())
    );
}

/// A switch followed by a bare token used to swallow it silently.
#[test]
fn switches_given_a_value_are_refused() {
    let err =
        crate::simulate_cmd::run(&args(&["A < 1", "--retain", "5", "--evals", "10"])).unwrap_err();
    assert!(err.contains("--retain"), "{err}");
    assert!(crate::schedule_cmd::run(&args(&["A < 1", "--all", "x"])).is_err());
    assert!(crate::schedule_cmd::run(&args(&["A < 1", "--optimal", "x"])).is_err());
}

/// The general-tree branch of `schedule` used to return before any
/// flag was checked.
#[test]
fn schedule_checks_flags_on_general_trees() {
    let query = "(A < 1 OR B < 2) AND C < 3";
    assert!(crate::schedule_cmd::run(&args(&[query, "--bogus"])).is_err());
    assert!(crate::schedule_cmd::run(&args(&[query, "--seed", "x"])).is_err());
    crate::schedule_cmd::run(&args(&[query, "--costs", "A=2"])).unwrap();
}

/// `check workload --budget NaN` used to print `OK (0 violations)`.
#[test]
fn budgets_must_be_finite_and_non_negative_everywhere() {
    for bad in ["NaN", "inf", "-1"] {
        let check = args(&["workload", "--queries", "2", "--budget", bad]);
        assert!(crate::check_cmd::run(&check).is_err(), "check {bad}");
        for flag in ["--budget", "--check-budget"] {
            let serve = args(&["--queries", "2", "--ticks", "2", flag, bad]);
            assert!(crate::serve_cmd::run(&serve).is_err(), "serve {flag} {bad}");
        }
        let daemon = args(&["--daemon", "--budget", bad]);
        assert!(crate::serve_cmd::run(&daemon).is_err(), "daemon {bad}");
    }
}

/// `--overlap NaN` used to build a workload with zero cold streams,
/// and `-3` one with 156 streams at 0% overlap.
#[test]
fn overlap_must_be_a_share_everywhere() {
    let commands = |overlap: &str| {
        [
            (
                "workload",
                args(&["--queries", "2", "--no-sim", "--overlap", overlap]),
            ),
            (
                "serve",
                args(&["--queries", "2", "--ticks", "2", "--overlap", overlap]),
            ),
            (
                "check",
                args(&["workload", "--queries", "2", "--overlap", overlap]),
            ),
        ]
    };
    let run = |name: &str, a: &[String]| match name {
        "workload" => crate::workload_cmd::run(a),
        "serve" => crate::serve_cmd::run(a),
        _ => crate::check_cmd::run(a),
    };
    for bad in ["NaN", "-3", "1.5"] {
        for (name, a) in commands(bad) {
            let expect = Err("--overlap expects a share in [0, 1]".to_string());
            assert_eq!(run(name, &a), expect, "{name} --overlap {bad}");
        }
    }
    for good in ["0", "1"] {
        for (name, a) in commands(good) {
            assert_eq!(run(name, &a), Ok(()), "{name} --overlap {good}");
        }
    }
}

/// The flag names in the `--help` usage entry that starts with
/// `usage`.
fn help_flags(usage: &str) -> Vec<String> {
    let entry: Vec<String> = crate::help()
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .skip_while(|l| !l.starts_with(usage))
        .enumerate()
        .take_while(|(i, l)| *i == 0 || l.starts_with('['))
        .map(|(_, l)| l)
        .collect();
    assert!(!entry.is_empty(), "no help entry `{usage}`");
    entry
        .join(" ")
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--") && *w != "--daemon")
        .map(str::to_string)
        .collect()
}

/// The flag names `options` asks [`Flags`] for.
fn asked<T>(options: fn(&mut Flags) -> Result<T, String>) -> Vec<String> {
    let mut flags = Flags::parse(&[]).unwrap();
    assert!(options(&mut flags).is_ok(), "defaults must be valid");
    flags.asked.iter().map(|s| s.to_string()).collect()
}

#[test]
fn help_lists_exactly_the_flags_each_subcommand_reads() {
    let entries: [(&str, Vec<String>); 8] = [
        ("paotr schedule", asked(crate::schedule_cmd::options)),
        ("paotr explain", asked(costs)),
        ("paotr simulate", asked(crate::simulate_cmd::options)),
        ("paotr workload", asked(crate::workload_cmd::options)),
        ("paotr serve [", asked(crate::serve_cmd::options)),
        ("paotr serve --daemon", asked(crate::daemon_cmd::options)),
        ("paotr check query", asked(costs)),
        (
            "paotr check workload",
            asked(crate::check_cmd::workload_options),
        ),
    ];
    for (usage, mut read) in entries {
        let mut listed = help_flags(usage);
        for names in [&mut read, &mut listed] {
            names.sort();
            names.dedup();
        }
        assert_eq!(read, listed, "`{usage}`: flags read vs. flags in --help");
    }
}

#[test]
fn compile_reports_parse_errors_with_rendering() {
    let err = crate::compile("A <", &HashMap::new()).unwrap_err();
    assert!(err.contains('^'), "rendered caret expected: {err}");
}

#[test]
fn accepts_exactly_the_registry_names() {
    let engine = Engine::new();
    let query = paotr_qlang::compile_str("(A < 1 AND B < 2) OR A > 9").unwrap();
    let dnf = query.tree.as_dnf().unwrap();
    // every registry name is accepted (planners that do not support the
    // query class report UnsupportedQuery, not an unknown-name error)
    for name in engine.registry().names() {
        match plan_by_name(&engine, name, 1, &dnf, &query.catalog) {
            // Seeded heuristics fold the non-default seed into the
            // reported planner name (it is their cache identity).
            Ok(plan) => assert!(
                plan.planner == name || plan.planner == format!("{name}@seed=1"),
                "`{name}` reported planner `{}`",
                plan.planner
            ),
            Err(e) => assert!(
                e.contains("does not support"),
                "`{name}` should be a known planner, got: {e}"
            ),
        }
    }
    // ...and nothing else is
    let err = plan_by_name(&engine, "bogus", 1, &dnf, &query.catalog).unwrap_err();
    assert!(err.contains("unknown planner"), "{err}");
}

#[test]
fn seed_flag_reaches_the_random_heuristic() {
    let engine = Engine::new();
    let query = paotr_qlang::compile_str("(A < 1 AND B < 2) OR (C < 3 AND D < 4)").unwrap();
    let dnf = query.tree.as_dnf().unwrap();
    let a = plan_by_name(&engine, "leaf-random", 7, &dnf, &query.catalog).unwrap();
    let b = plan_by_name(&engine, "leaf-random", 7, &dnf, &query.catalog).unwrap();
    assert_eq!(a, b, "same seed, same plan");
    let c = (0..32)
        .map(|s| plan_by_name(&engine, "leaf-random", s, &dnf, &query.catalog).unwrap())
        .any(|p| p != a);
    assert!(c, "some seed must permute four leaves differently");
}

#[test]
fn check_rejects_unknown_subjects_and_flags() {
    assert!(crate::check_cmd::run(&args(&[])).is_err());
    assert!(crate::check_cmd::run(&args(&["plans"])).is_err());
    assert!(crate::check_cmd::run(&args(&["workload", "--bogus"])).is_err());
}

#[test]
fn check_workload_passes_for_every_planner() {
    let a = args(&["workload", "--queries", "4", "--all"]);
    crate::check_cmd::run(&a).unwrap();
}

#[test]
fn check_query_flags_lints_with_nonzero_result() {
    // clean query: ok
    crate::check_cmd::run(&args(&["query", "A < 1 AND B > 2"])).unwrap();
    // absorbed term: reported as an error result
    assert!(crate::check_cmd::run(&args(&["query", "A < 1 OR (A < 1 AND B > 2)"])).is_err());
    // syntax errors surface the parser's caret diagnostic
    let err = crate::check_cmd::run(&args(&["query", "AND AND"])).unwrap_err();
    assert!(err.contains("^"), "{err}");
}

#[test]
fn check_snapshot_accepts_committed_fixtures() {
    for fixture in [
        "tests/fixtures/snapshot_v1.snap",
        "tests/fixtures/snapshot_v2.snap",
    ] {
        // cargo test runs with cwd = crates/cli
        let path = format!("../serverd/{fixture}");
        crate::check_cmd::run(&args(&["snapshot", &path])).unwrap();
    }
    let bad = "../check/tests/fixtures/snapshot_refcount_imbalance.snap";
    assert!(crate::check_cmd::run(&args(&["snapshot", bad])).is_err());
}
