// Pinned aggregates are stored at full captured precision on purpose.
#![allow(clippy::excessive_precision)]

//! Pin of everything the joint workload planners decide.
//!
//! For the `workload_plan` bench shapes (4 / 16 / 64 / 128 queries at
//! 0.6 overlap, instance 0) plus 12 seeded random workloads (random
//! shapes, overlap and weights), this records, for `independent`,
//! `shared-greedy` and `batch-aware`:
//!
//! * the query order;
//! * every query's leaf schedule;
//! * the materialised streams and their ring windows;
//!
//! and folds the records into one FNV-1a digest. Each workload's
//! weighted aggregate predicted cost is checked separately against a
//! stored value at 1e-12 relative, not bitwise: the order in which the
//! shared-tick model sums a query's items may move last bits without
//! changing any decision. Any change to a pick, a re-plan or a
//! materialisation shows up as a digest mismatch; the per-workload
//! records are printed to locate it.

use paotr_core::leaf::LeafRef;
use paotr_core::plan::Engine;
use paotr_gen::distributions::ParamDistributions;
use paotr_gen::workload::{random_workload, workload_instance, WorkloadConfig};
use paotr_multi::{planner_by_name, planner_names, Workload, WorkloadQuery};
use rand::prelude::*;
use std::fmt::Write as _;

/// Digest of every record below, taken on the arena-kernel code.
const PIN: u64 = 0x02de_1ad3_e5f3_a4ac;

/// Weighted aggregate predicted cost per workload and planner, in
/// record order (workloads outer, `planner_names()` inner).
const AGGREGATES: &[f64] = &[
    1.37257093431553386e2, // bench4/independent
    8.08521226215971751e1, // bench4/shared-greedy
    8.45495462142347378e1, // bench4/batch-aware
    8.60659288975249183e2, // bench16/independent
    1.91642751585218264e2, // bench16/shared-greedy
    2.30127987908475859e2, // bench16/batch-aware
    3.99356584285887993e3, // bench64/independent
    4.72752490411767042e2, // bench64/shared-greedy
    6.72849093500972685e2, // bench64/batch-aware
    5.77059267774574892e3, // bench128/independent
    8.20556084522202923e2, // bench128/shared-greedy
    1.17216889575520986e3, // bench128/batch-aware
    2.34614053260141930e2, // random0/independent
    1.64030337872719770e2, // random0/shared-greedy
    1.64250621665499352e2, // random0/batch-aware
    6.32880661603369504e2, // random1/independent
    2.09110516343637187e2, // random1/shared-greedy
    2.39659341105088288e2, // random1/batch-aware
    2.92758889026124450e2, // random2/independent
    1.50558519430153922e2, // random2/shared-greedy
    2.12950115667568895e2, // random2/batch-aware
    7.97236117266357155e2, // random3/independent
    4.55482616523719201e1, // random3/shared-greedy
    5.26407032398860224e1, // random3/batch-aware
    4.13148047635964872e2, // random4/independent
    2.72143475465234019e2, // random4/shared-greedy
    2.92512461501884559e2, // random4/batch-aware
    1.11378198715586427e3, // random5/independent
    7.30020736198754776e2, // random5/shared-greedy
    8.81993646817427930e2, // random5/batch-aware
    2.26804350218581135e2, // random6/independent
    1.55169373393494652e2, // random6/shared-greedy
    1.56338321232169761e2, // random6/batch-aware
    1.04591749569716285e3, // random7/independent
    4.26344884195073575e2, // random7/shared-greedy
    6.38056041912694468e2, // random7/batch-aware
    7.18768513425446940e2, // random8/independent
    2.68832492431898572e2, // random8/shared-greedy
    3.61724692678696101e2, // random8/batch-aware
    8.60368245597962158e1, // random9/independent
    7.12680639451607618e1, // random9/shared-greedy
    8.35060633444252147e1, // random9/batch-aware
    1.26187004914936779e2, // random10/independent
    5.77681278612816911e1, // random10/shared-greedy
    9.39108699136906324e1, // random10/batch-aware
    3.36147351435153780e2, // random11/independent
    6.66136486292359535e1, // random11/shared-greedy
    6.82102869267981191e1, // random11/batch-aware
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn order_str(order: &[LeafRef]) -> String {
    let parts: Vec<String> = order
        .iter()
        .map(|r| format!("{}.{}", r.term, r.leaf))
        .collect();
    parts.join(",")
}

/// The `workload_plan` bench shapes.
fn bench_shapes() -> Vec<(String, Workload)> {
    [4usize, 16, 64, 128]
        .iter()
        .map(|&n| {
            let (trees, catalog) = workload_instance(WorkloadConfig::with_overlap(n, 0.6), 0);
            (
                format!("bench{n}"),
                Workload::from_trees(trees, catalog).unwrap(),
            )
        })
        .collect()
}

/// 2–24 queries of 1–4 terms of 1–4 leaves over 1–5 hot streams and 0–3
/// private streams per query; weights are uniform one time in three,
/// otherwise drawn from `[0.25, 4)`.
fn random_workloads() -> Vec<(String, Workload)> {
    let mut rng = StdRng::seed_from_u64(0x51ed_2701);
    (0..12)
        .map(|i| {
            let config = WorkloadConfig {
                queries: rng.gen_range(2..=24),
                terms_per_query: rng.gen_range(1..=4),
                leaves_per_term: rng.gen_range(1..=4),
                hot_streams: rng.gen_range(1..=5),
                cold_streams_per_query: rng.gen_range(0..=3),
            };
            let (trees, catalog) = random_workload(config, &ParamDistributions::paper(), &mut rng);
            let uniform = rng.gen_bool(1.0 / 3.0);
            let queries = trees
                .into_iter()
                .enumerate()
                .map(|(q, tree)| WorkloadQuery {
                    name: format!("q{q}"),
                    tree,
                    weight: if uniform {
                        1.0
                    } else {
                        rng.gen_range(0.25..4.0)
                    },
                })
                .collect();
            (
                format!("random{i}"),
                Workload::new(queries, catalog).unwrap(),
            )
        })
        .collect()
}

#[test]
fn joint_plans_are_pinned() {
    let mut lines = String::new();
    let mut aggregates = Vec::new();
    for (tag, workload) in bench_shapes().into_iter().chain(random_workloads()) {
        let weights = workload.weights();
        for name in planner_names() {
            let planner = planner_by_name(name).expect("built-in planner");
            let joint = planner.plan(&workload, &Engine::new()).unwrap();
            let _ = write!(lines, "{tag}/{name} order={:?}", joint.order);
            for s in &joint.schedules {
                let _ = write!(lines, " [{}]", order_str(s.order()));
            }
            for m in &joint.materialized {
                let _ = write!(lines, " m{}:{}", m.stream.0, m.window);
            }
            lines.push('\n');
            aggregates.push((format!("{tag}/{name}"), joint.aggregate_predicted(&weights)));
        }
    }

    let digest = fnv1a(lines.as_bytes());
    let mut table = String::new();
    for (tag, a) in &aggregates {
        let _ = writeln!(table, "    {a:.17e}, // {tag}");
    }
    assert!(
        digest == PIN,
        "joint-plan pin moved: digest {digest:#018x}, pinned {PIN:#018x}\n{lines}\naggregates:\n{table}"
    );
    assert_eq!(aggregates.len(), AGGREGATES.len(), "aggregates:\n{table}");
    for ((tag, got), &want) in aggregates.iter().zip(AGGREGATES) {
        assert!(
            (got - want).abs() <= 1e-12 * got.abs().max(want.abs()),
            "{tag}: aggregate {got:.17e} vs pinned {want:.17e}"
        );
    }
}
