//! `bench-diff` — compares a fresh criterion-shim JSON bench artifact
//! against a committed baseline and fails on median regressions.
//!
//! ```text
//! bench-diff <baseline.json> <fresh.json> \
//!     [--max-regression 0.25] [--groups workload_plan,cost_kernel] \
//!     [--normalize <benchmark-name>]
//! ```
//!
//! * Only benchmarks whose name starts with one of `--groups` (prefix
//!   before the first `/`) gate the exit code; everything else is
//!   reported informationally.
//! * A gated benchmark present in the baseline but missing from the
//!   fresh run fails the check (silent coverage loss reads as a pass).
//! * Regression = `fresh_median > baseline_median * (1 + max_regression)`.
//! * `--normalize <name>` divides every median by that benchmark's
//!   median *from the same file* before comparing. The committed
//!   baselines are produced on whatever machine regenerated them last,
//!   while CI runs on shared runners — absolute medians would gate
//!   hardware, not code. Normalizing compares machine-independent
//!   ratios instead. The special value `@gated-sum` uses the sum of
//!   the gated group's medians (over benchmarks present in both files)
//!   as the reference — far more noise-resistant than any single
//!   benchmark, at the cost of not detecting a perfectly uniform
//!   slowdown of the whole group (indistinguishable from a slower
//!   machine anyway).
//!
//! The JSON format is the criterion shim's: an array of
//! `{"name": ..., "mean_ns": ..., "median_ns": ...}` rows (`median_ns`
//! falls back to `mean_ns` for artifacts produced before medians were
//! recorded). Parsing is a deliberately tiny hand-rolled scanner so the
//! tool stays dependency-free.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut max_regression = 0.25f64;
    let mut groups: Vec<String> = vec!["workload_plan".into(), "cost_kernel".into()];
    let mut normalize: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regression" => {
                max_regression = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max-regression expects a number"));
                i += 2;
            }
            "--normalize" => {
                normalize = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| usage("--normalize expects a benchmark name"))
                        .clone(),
                );
                i += 2;
            }
            "--groups" => {
                groups = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage("--groups expects a comma-separated list"))
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                i += 2;
            }
            p if !p.starts_with("--") => {
                paths.push(&args[i]);
                i += 1;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two JSON paths: <baseline> <fresh>");
    }
    let mut baseline = load(paths[0]);
    let mut fresh = load(paths[1]);
    // Raw (pre-normalization) medians: failure messages always report
    // the offending entry's actual median pair, not just its group or
    // its machine-relative ratio.
    let raw_baseline = baseline.clone();
    let raw_fresh = fresh.clone();
    let in_groups = |name: &str, groups: &[String]| {
        let group = name.split('/').next().unwrap_or(name);
        groups.iter().any(|g| g == group)
    };
    if let Some(reference) = &normalize {
        if reference == "@gated-sum" {
            // Reference = sum of gated medians over the benchmarks both
            // files measured, so the denominators aggregate identical
            // workloads.
            let shared: Vec<&String> = baseline
                .keys()
                .filter(|n| fresh.contains_key(*n) && in_groups(n, &groups))
                .collect();
            if shared.is_empty() {
                usage("no gated benchmarks shared by both files to normalize by");
            }
            let base_sum: f64 = shared.iter().map(|n| baseline[*n]).sum();
            let fresh_sum: f64 = shared.iter().map(|n| fresh[*n]).sum();
            if base_sum <= 0.0 || fresh_sum <= 0.0 {
                usage("gated-sum reference is zero");
            }
            for v in baseline.values_mut() {
                *v /= base_sum;
            }
            for v in fresh.values_mut() {
                *v /= fresh_sum;
            }
        } else {
            rescale(&mut baseline, reference, paths[0]);
            rescale(&mut fresh, reference, paths[1]);
        }
    }

    let gated = |name: &str| in_groups(name, &groups);

    let mut failures = Vec::new();
    // A gated group that is absent from either file means the gate is
    // not testing anything — fail loudly instead of passing silently
    // (a renamed group or a bench target that stopped running would
    // otherwise disable its own regression check).
    for group in &groups {
        let in_base = baseline
            .keys()
            .any(|n| in_groups(n, std::slice::from_ref(group)));
        let in_fresh = fresh
            .keys()
            .any(|n| in_groups(n, std::slice::from_ref(group)));
        match (in_base, in_fresh) {
            (false, _) => failures.push(format!(
                "gated group `{group}` has no benchmarks in the baseline {} — \
                 regenerate the baseline or fix --groups",
                paths[0]
            )),
            (true, false) => failures.push(format!(
                "gated group `{group}` missing entirely from the fresh run {} — \
                 did the bench target run?",
                paths[1]
            )),
            (true, true) => {}
        }
    }
    let unit = if normalize.is_some() { "ratio" } else { "µs" };
    println!(
        "{:<64} {:>12} {:>12} {:>8}  gate",
        "benchmark",
        format!("base {unit}"),
        format!("fresh {unit}"),
        "delta"
    );
    for (name, base_ns) in &baseline {
        let Some(fresh_ns) = fresh.get(name) else {
            if gated(name) {
                failures.push(format!(
                    "`{name}` missing from the fresh run (baseline median {:.4} µs)",
                    raw_baseline[name] / 1e3
                ));
            }
            continue;
        };
        let delta = if *base_ns > 0.0 {
            fresh_ns / base_ns - 1.0
        } else {
            0.0
        };
        let is_gated = gated(name);
        let regressed = is_gated && delta > max_regression;
        let scale = if normalize.is_some() { 1.0 } else { 1e3 };
        println!(
            "{:<64} {:>12.4} {:>12.4} {:>+7.1}%  {}{}",
            name,
            base_ns / scale,
            fresh_ns / scale,
            delta * 100.0,
            if is_gated { "yes" } else { "-" },
            if regressed { "  << REGRESSION" } else { "" }
        );
        if regressed {
            // Always lead with the entry's raw median pair — under
            // normalization the gated values are unitless ratios, which
            // tell a reader *that* something regressed but not by how
            // many microseconds.
            let mut msg = format!(
                "`{name}` regressed {:.1}% (median {:.4} µs -> {:.4} µs",
                delta * 100.0,
                raw_baseline[name] / 1e3,
                raw_fresh[name] / 1e3,
            );
            if normalize.is_some() {
                msg.push_str(&format!(
                    "; normalized {:.4} -> {:.4}",
                    base_ns / scale,
                    fresh_ns / scale
                ));
            }
            msg.push_str(&format!(", limit +{:.0}%)", max_regression * 100.0));
            failures.push(msg);
        }
    }
    for name in fresh.keys() {
        if !baseline.contains_key(name) {
            println!("{name:<64} (new benchmark, no baseline)");
        }
    }

    if failures.is_empty() {
        println!(
            "\nbench-diff: OK — no gated median regressed more than {:.0}% (groups: {})",
            max_regression * 100.0,
            groups.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nbench-diff: FAILED");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "bench-diff: {msg}\n\
         usage: bench-diff <baseline.json> <fresh.json> \
         [--max-regression F] [--groups a,b,...] [--normalize <benchmark>]"
    );
    std::process::exit(2)
}

/// Divides every median in `rows` by the reference benchmark's median
/// (same file), turning absolute times into machine-relative ratios.
fn rescale(rows: &mut BTreeMap<String, f64>, reference: &str, path: &str) {
    let Some(&denom) = rows.get(reference) else {
        usage(&format!(
            "normalize reference `{reference}` missing from {path}"
        ));
    };
    if denom <= 0.0 {
        usage(&format!(
            "normalize reference `{reference}` is zero in {path}"
        ));
    }
    for v in rows.values_mut() {
        *v /= denom;
    }
}

/// Loads `{name -> median_ns}` from a criterion-shim JSON artifact
/// (`mean_ns` when no median was recorded).
fn load(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let Some(name) = str_field(line, "name") else {
            continue;
        };
        let value = num_field(line, "median_ns").or_else(|| num_field(line, "mean_ns"));
        if let Some(v) = value {
            out.insert(name, v);
        }
    }
    if out.is_empty() {
        usage(&format!("{path} holds no benchmark rows"));
    }
    out
}

/// Extracts `"key": "value"` from a single-row JSON object (shim rows
/// never contain escaped quotes in practice; escapes are unescaped for
/// completeness).
fn str_field(row: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &row[row.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extracts `"key": <number>` from a single-row JSON object.
fn num_field(row: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &row[row.find(&tag)? + tag.len()..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}
