//! Bit-level pin of everything the Proposition-2 evaluators decide.
//!
//! For 300 seeded random DNF instances plus the instance of the
//! `dnf_branch_and_bound` bench, this records
//!
//! * `dnf_search` with default options and with `completion_bound:
//!   false`, and `dnf_all_schedules` (instances with at most 7 leaves):
//!   the schedule order, `cost.to_bits()`, `stats.nodes`,
//!   `stats.pruned` and `complete`;
//! * `Plan::expected_cost.to_bits()` for every registry planner that
//!   prices a DNF schedule through the Proposition-2 evaluators:
//!   `read-once-dnf`, every heuristic, `exhaustive` and
//!   `branch-and-bound`;
//!
//! and folds the records into one FNV-1a digest. Any change to the
//! evaluators' arithmetic, to the branch-and-bound's expansion order or
//! pruning, or to a heuristic's tie-breaking shows up here as a digest
//! mismatch; the per-instance records are printed to locate it.

use paotr_core::algo::exhaustive::{dnf_all_schedules, dnf_search, SearchOptions};
use paotr_core::algo::heuristics::all_variants;
use paotr_core::leaf::{Leaf, LeafRef};
use paotr_core::plan::planners::MAX_EXHAUSTIVE_DNF_LEAVES;
use paotr_core::plan::{PlannerRegistry, QueryRef};
use paotr_core::prob::Prob;
use paotr_core::stream::{StreamCatalog, StreamId};
use paotr_core::tree::DnfTree;
use rand::prelude::*;
use std::fmt::Write as _;

/// Digest of every record below, taken on the evaluator-era code.
const PIN: u64 = 0x47e8_2e6d_bff9_7c99;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn leaf(s: usize, d: u32, p: f64) -> Leaf {
    Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
}

/// 1–6 terms, at most [`MAX_EXHAUSTIVE_DNF_LEAVES`] leaves, 1–4 streams
/// read by the query inside a catalog of up to 6 (so some catalogs are
/// wider than the query), windows 1–5, and leaf probabilities that are
/// exactly 0 or exactly 1 one time in ten each.
fn random_instance(rng: &mut StdRng) -> (DnfTree, StreamCatalog) {
    let n_streams = rng.gen_range(1..=4);
    let extra = if rng.gen_bool(0.3) {
        rng.gen_range(1..=2)
    } else {
        0
    };
    let cat = StreamCatalog::from_costs((0..n_streams + extra).map(|_| rng.gen_range(0.5..10.0)))
        .unwrap();
    let n_terms: usize = rng.gen_range(1..=6);
    // Wide terms only in narrow trees, so the exponential searches stay
    // fast in debug builds.
    let per_term: usize = [12, 9, 6, 4, 3, 3][n_terms - 1];
    let mut total = 0;
    let mut terms = Vec::new();
    for _ in 0..n_terms {
        let m = rng
            .gen_range(1..=per_term)
            .min(MAX_EXHAUSTIVE_DNF_LEAVES - total);
        if m == 0 {
            break;
        }
        total += m;
        terms.push(
            (0..m)
                .map(|_| {
                    let p = match rng.gen_range(0..10) {
                        0 => 0.0,
                        1 => 1.0,
                        _ => rng.gen_range(0.02..0.98),
                    };
                    leaf(rng.gen_range(0..n_streams), rng.gen_range(1..=5), p)
                })
                .collect(),
        );
    }
    (DnfTree::from_leaves(terms).unwrap(), cat)
}

/// The `dnf_branch_and_bound` bench instance (4 terms, 12-leaf cap,
/// `rho = 2`, paper distributions, seed 31337), written out bit for bit
/// so this test needs no generator crate.
fn bench_instance() -> (DnfTree, StreamCatalog) {
    let costs: &[u64] = &[
        0x401f_c2e0_a62f_1866,
        0x400b_846d_368f_53f0,
        0x4021_f9bc_a541_474b,
        0x401f_00cc_c3b2_7d0d,
        0x4000_15cb_1cf8_a14f,
    ];
    let terms: &[&[(usize, u32, u64)]] = &[
        &[
            (3, 2, 0x3fdb_7761_c729_65ae),
            (0, 4, 0x3fea_c65a_3846_e70d),
            (3, 4, 0x3fd3_8a15_0c0f_301c),
            (4, 3, 0x3fe6_fbef_be4a_44ad),
        ],
        &[(1, 5, 0x3fef_c36b_b0c9_3607)],
        &[(3, 3, 0x3f9f_5328_b8c8_8d40), (1, 4, 0x3fbf_5aee_20d4_4178)],
        &[
            (3, 5, 0x3fd4_9ac1_daa3_8d78),
            (3, 1, 0x3fe0_9d5c_67ab_5bb6),
            (2, 4, 0x3fe4_73da_dad6_74ab),
        ],
    ];
    let cat = StreamCatalog::from_costs(costs.iter().map(|&c| f64::from_bits(c))).unwrap();
    let tree = DnfTree::from_leaves(
        terms
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&(s, d, p)| leaf(s, d, f64::from_bits(p)))
                    .collect()
            })
            .collect(),
    )
    .unwrap();
    (tree, cat)
}

fn order_str(order: &[LeafRef]) -> String {
    let parts: Vec<String> = order
        .iter()
        .map(|r| format!("{}.{}", r.term, r.leaf))
        .collect();
    parts.join(",")
}

/// `read-once-dnf`, the 13 heuristics, `exhaustive`, `branch-and-bound`.
fn planner_names() -> Vec<String> {
    let heuristics = all_variants();
    assert_eq!(heuristics.len(), 13);
    std::iter::once("read-once-dnf".to_string())
        .chain(heuristics.iter().map(|h| h.id().to_string()))
        .chain(["exhaustive".to_string(), "branch-and-bound".to_string()])
        .collect()
}

fn record(out: &mut String, tree: &DnfTree, cat: &StreamCatalog, registry: &PlannerRegistry) {
    for (tag, opts) in [
        ("search", SearchOptions::default()),
        (
            "nobound",
            SearchOptions {
                completion_bound: false,
                ..Default::default()
            },
        ),
    ] {
        let r = dnf_search(tree, cat, opts);
        let _ = write!(
            out,
            " {tag}=[{}] {:016x} n{} p{} c{}",
            order_str(r.schedule.order()),
            r.cost.to_bits(),
            r.stats.nodes,
            r.stats.pruned,
            r.complete
        );
    }
    if tree.num_leaves() <= 7 {
        let (s, c) = dnf_all_schedules(tree, cat);
        let _ = write!(out, " all=[{}] {:016x}", order_str(s.order()), c.to_bits());
    }
    let query = QueryRef::from(tree);
    for name in planner_names() {
        let planner = registry.get(&name).expect("registered planner");
        if !planner.supports(&query) {
            continue;
        }
        let plan = planner.plan(&query, cat).unwrap();
        let cost = plan.expected_cost.expect("DNF plans are priced");
        let _ = write!(out, " {name}={:016x}", cost.to_bits());
    }
    out.push('\n');
}

#[test]
fn proposition_2_decisions_are_bitwise_pinned() {
    let registry = PlannerRegistry::with_defaults();
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
    let mut lines = String::new();
    for i in 0..300 {
        let (tree, cat) = random_instance(&mut rng);
        let _ = write!(lines, "#{i}");
        record(&mut lines, &tree, &cat, &registry);
    }
    let (tree, cat) = bench_instance();
    lines.push_str("#bench");
    record(&mut lines, &tree, &cat, &registry);

    let digest = fnv1a(lines.as_bytes());
    assert!(
        digest == PIN,
        "Proposition-2 pin moved: digest {digest:#018x}, pinned {PIN:#018x}\n{lines}"
    );
}
