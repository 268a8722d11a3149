//! Exhaustive and branch-and-bound optimal schedule searches.
//!
//! These exponential searches serve two roles in the paper and here:
//!
//! * they provide the **optimal baselines** the heuristics are compared
//!   against (Figure 5 uses an exhaustive search over depth-first
//!   schedules, justified by Theorem 2);
//! * they are the **test oracles** for the polynomial algorithms
//!   (Algorithm 1 must match `and_all_permutations_impl` on every small
//!   instance).
//!
//! The DNF search is a branch-and-bound: partial expected costs only grow
//! as leaves are appended (marginal costs are non-negative), so a partial
//! schedule whose cost already reaches the incumbent can be pruned. Two
//! further reductions, both justified in the paper, are available:
//! restricting to depth-first schedules (Theorem 2) and forcing
//! same-stream leaves of an AND node to appear in increasing item order
//! (Proposition 1).

use crate::cost::model::{CostModel, EvalScratch};
use crate::leaf::LeafRef;
use crate::schedule::{AndSchedule, DnfSchedule};
use crate::stream::StreamCatalog;
use crate::tree::{AndTree, DnfTree};

/// Upper bound on AND-tree exhaustive search size (12! permutations).
pub(crate) const MAX_AND_EXHAUSTIVE: usize = 12;

/// Optimal AND-tree schedule by enumerating all `m!` permutations with
/// cost-based pruning. Returns the schedule and its expected cost.
/// Crate-internal workhorse behind
/// [`ExhaustivePlanner`](crate::plan::planners::ExhaustivePlanner).
///
/// Pruning uses an admissible *remaining-demand* lower bound: every
/// still-uncovered item of stream `k` (up to the widest window an unused
/// leaf opens) must be pulled by some unused leaf, whose reach
/// probability is at least `reach · Π unused p / p_puller` — so summing
/// `cost_k · reach · Π p / pmax(k, t)` over uncovered items never
/// exceeds any completion's true cost.
///
/// # Panics
/// Panics when the tree has more than [`MAX_AND_EXHAUSTIVE`] leaves.
pub(crate) fn and_all_permutations_impl(
    tree: &AndTree,
    catalog: &StreamCatalog,
) -> (AndSchedule, f64) {
    let m = tree.len();
    assert!(
        m <= MAX_AND_EXHAUSTIVE,
        "exhaustive search over {m}! permutations is intractable"
    );

    struct Ctx<'a> {
        tree: &'a AndTree,
        catalog: &'a StreamCatalog,
        best_cost: f64,
        best: Vec<usize>,
        prefix: Vec<usize>,
        used: Vec<bool>,
        // Remaining-demand bound scratch (reused across every node).
        max_d: usize,
        demand: Vec<u32>,
        pmax: Vec<f64>,
        touched: Vec<usize>,
    }

    /// Admissible lower bound on the cost any completion adds.
    fn lower_bound(ctx: &mut Ctx<'_>, reach: f64, acquired: &[u32]) -> f64 {
        if reach <= 0.0 {
            return 0.0;
        }
        for &k in &ctx.touched {
            ctx.demand[k] = 0;
            for t in 0..ctx.max_d {
                ctx.pmax[k * ctx.max_d + t] = 0.0;
            }
        }
        ctx.touched.clear();
        let mut p_rem = 1.0;
        for j in 0..ctx.tree.len() {
            if ctx.used[j] {
                continue;
            }
            let leaf = ctx.tree.leaf(j);
            let k = leaf.stream.0;
            let p = leaf.prob.value();
            p_rem *= p;
            if ctx.demand[k] == 0 {
                ctx.touched.push(k);
            }
            ctx.demand[k] = ctx.demand[k].max(leaf.items);
            for t in 0..leaf.items as usize {
                let slot = &mut ctx.pmax[k * ctx.max_d + t];
                if *slot < p {
                    *slot = p;
                }
            }
        }
        let mut bound = 0.0;
        for &k in &ctx.touched {
            let unit = ctx.catalog.cost(crate::stream::StreamId(k));
            for t in (acquired[k] + 1)..=ctx.demand[k] {
                let pmax = ctx.pmax[k * ctx.max_d + (t - 1) as usize];
                if pmax > 0.0 {
                    bound += unit * reach * p_rem / pmax;
                }
            }
        }
        bound
    }

    fn rec(ctx: &mut Ctx<'_>, cost: f64, reach: f64, acquired: &mut Vec<u32>) {
        if ctx.prefix.len() == ctx.tree.len() {
            if cost < ctx.best_cost {
                ctx.best_cost = cost;
                ctx.best = ctx.prefix.clone();
            }
            return;
        }
        // Any completion adds at least the remaining-demand bound.
        if cost + lower_bound(ctx, reach, acquired) >= ctx.best_cost {
            return;
        }
        for j in 0..ctx.tree.len() {
            if ctx.used[j] {
                continue;
            }
            let leaf = ctx.tree.leaf(j);
            let have = acquired[leaf.stream.0];
            let extra = if leaf.items > have {
                reach * f64::from(leaf.items - have) * ctx.catalog.cost(leaf.stream)
            } else {
                0.0
            };
            ctx.used[j] = true;
            ctx.prefix.push(j);
            let saved = acquired[leaf.stream.0];
            acquired[leaf.stream.0] = saved.max(leaf.items);
            rec(ctx, cost + extra, reach * leaf.prob.value(), acquired);
            acquired[leaf.stream.0] = saved;
            ctx.prefix.pop();
            ctx.used[j] = false;
        }
    }

    let max_d = tree
        .leaves()
        .iter()
        .map(|l| l.items as usize)
        .max()
        .unwrap_or(0);
    let mut ctx = Ctx {
        tree,
        catalog,
        best_cost: f64::INFINITY,
        best: Vec::new(),
        prefix: Vec::with_capacity(m),
        used: vec![false; m],
        max_d,
        demand: vec![0; catalog.len()],
        pmax: vec![0.0; catalog.len() * max_d],
        touched: Vec::with_capacity(catalog.len()),
    };
    let mut acquired = vec![0u32; catalog.len()];
    rec(&mut ctx, 0.0, 1.0, &mut acquired);
    (AndSchedule::from_order_unchecked(ctx.best), ctx.best_cost)
}

/// Options for the DNF branch-and-bound search.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Only explore depth-first schedules (sound by Theorem 2).
    pub depth_first_only: bool,
    /// Within an AND node, keep same-stream leaves in increasing item
    /// order (sound by Proposition 1).
    pub prop1_ordering: bool,
    /// Prune branches whose partial cost reaches the incumbent.
    pub prune: bool,
    /// Additionally prune on the admissible open-term completion bound
    /// (see `CostModel::completion_lower_bound`); only applied
    /// to depth-first searches, where the phase argument holds.
    pub completion_bound: bool,
    /// Initial incumbent (e.g. the best heuristic cost); `INFINITY` if
    /// unknown.
    pub incumbent: f64,
    /// Abort the search after exploring this many leaf placements and
    /// report `complete = false` (safety valve for adversarial shapes).
    pub node_limit: u64,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            depth_first_only: true,
            prop1_ordering: true,
            prune: true,
            completion_bound: true,
            incumbent: f64::INFINITY,
            node_limit: u64::MAX,
        }
    }
}

/// Search statistics, used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of leaf placements explored.
    pub nodes: u64,
    /// Number of branches cut by the incumbent bound.
    pub pruned: u64,
}

/// Result of an exhaustive DNF search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// An optimal schedule (within the searched class).
    pub schedule: DnfSchedule,
    /// Its expected cost.
    pub cost: f64,
    /// Search effort counters.
    pub stats: SearchStats,
    /// False when the search hit `node_limit` and the result is only the
    /// best schedule found so far.
    pub complete: bool,
}

/// Optimal DNF schedule over **depth-first** schedules (the paper's
/// exhaustive baseline for Figure 5) with default pruning options.
pub(crate) fn dnf_optimal_impl(tree: &DnfTree, catalog: &StreamCatalog) -> (DnfSchedule, f64) {
    let r = dnf_search(tree, catalog, SearchOptions::default());
    (r.schedule, r.cost)
}

/// Optimal DNF schedule over **all** leaf permutations — exponentially
/// larger search space; only for tiny instances and for verifying
/// Theorem 2 empirically.
pub fn dnf_all_schedules(tree: &DnfTree, catalog: &StreamCatalog) -> (DnfSchedule, f64) {
    let r = dnf_search(
        tree,
        catalog,
        SearchOptions {
            depth_first_only: false,
            prop1_ordering: false,
            ..Default::default()
        },
    );
    (r.schedule, r.cost)
}

/// Configurable branch-and-bound over DNF schedules.
///
/// The search walks one [`CostModel`] push/pop state with prefix deltas
/// — no state or term-state clones anywhere in the recursion — and, for
/// depth-first searches, prunes on the admissible open-term completion
/// bound in addition to the running partial cost.
pub fn dnf_search(tree: &DnfTree, catalog: &StreamCatalog, opts: SearchOptions) -> SearchResult {
    /// Remaining leaves of one term, as per-stream queues in increasing-d
    /// order (Proposition 1); consumed leaves are flagged, not removed,
    /// so scheduling a leaf is an O(1) reversible mutation.
    struct TermState {
        /// Per-stream queues, Proposition 1 order within each.
        queues: Vec<Vec<LeafRef>>,
        /// Parallel to `queues`: true once the leaf is scheduled.
        consumed: Vec<Vec<bool>>,
        remaining: usize,
    }

    struct Ctx<'m> {
        model: &'m CostModel,
        /// The pushed-prefix state the search walks.
        state: EvalScratch,
        opts: SearchOptions,
        total_leaves: usize,
        best_cost: f64,
        best: Vec<LeafRef>,
        prefix: Vec<LeafRef>,
        stats: SearchStats,
        truncated: bool,
        terms: Vec<TermState>,
        /// Per-depth child buffers, reused across the whole search.
        children: Vec<Vec<(f64, usize, LeafRef)>>,
        /// Open-term leaf buffer for the completion bound.
        remaining_buf: Vec<LeafRef>,
    }

    impl Ctx<'_> {
        fn push_candidates(&mut self, ti: usize, depth: usize) {
            let term = &self.terms[ti];
            for (qi, q) in term.queues.iter().enumerate() {
                for (li, &r) in q.iter().enumerate() {
                    if term.consumed[qi][li] {
                        continue;
                    }
                    self.stats.nodes += 1;
                    self.children[depth].push((0.0, ti, r));
                    if self.opts.prop1_ordering {
                        break; // only the queue front is schedulable
                    }
                }
            }
        }

        /// Admissible lower bound on completing open term `ti` from the
        /// current pushed state (0 when the bound is disabled or the
        /// phase argument does not apply).
        fn open_term_bound(&mut self, ti: usize) -> f64 {
            if !self.opts.completion_bound || !self.opts.depth_first_only || !self.opts.prune {
                return 0.0;
            }
            self.remaining_buf.clear();
            let term = &self.terms[ti];
            for (qi, q) in term.queues.iter().enumerate() {
                for (li, &r) in q.iter().enumerate() {
                    if !term.consumed[qi][li] {
                        self.remaining_buf.push(r);
                    }
                }
            }
            self.model
                .completion_lower_bound(ti, &self.remaining_buf, &mut self.state)
        }
    }

    fn rec(ctx: &mut Ctx, open: Option<usize>, depth: usize) {
        if ctx.stats.nodes >= ctx.opts.node_limit {
            ctx.truncated = true;
            return;
        }
        let cost = ctx.state.pushed_cost();
        if ctx.opts.prune && cost >= ctx.best_cost {
            ctx.stats.pruned += 1;
            return;
        }
        if ctx.state.pushed_len() == ctx.total_leaves {
            if cost < ctx.best_cost {
                ctx.best_cost = cost;
                ctx.best = ctx.prefix.clone();
            }
            return;
        }
        // Tighter admissible bound: the open term must be completed
        // before anything else (depth-first), and that completion costs
        // at least the frozen-state floor.
        if let Some(i) = open {
            if ctx.opts.depth_first_only {
                let lb = ctx.open_term_bound(i);
                if cost + lb >= ctx.best_cost {
                    ctx.stats.pruned += 1;
                    return;
                }
            }
        }
        ctx.children[depth].clear();
        match open {
            Some(i) if ctx.opts.depth_first_only => ctx.push_candidates(i, depth),
            _ => {
                for ti in 0..ctx.terms.len() {
                    if ctx.terms[ti].remaining > 0 {
                        ctx.push_candidates(ti, depth);
                    }
                }
            }
        }
        // Expand children cheapest-first: a good first descent gives a
        // near-optimal incumbent immediately, which makes the cost-bound
        // pruning drastically more effective on hard instances. Marginals
        // come from the non-mutating `peek`; committing to a child is a
        // push on the shared state, reverted by a bitwise-exact pop.
        for c in ctx.children[depth].iter_mut() {
            c.0 = ctx.model.peek(c.2, &ctx.state);
        }
        // total_cmp + index tie-break: the expansion order (and with it
        // the discovered incumbent on cost ties) must not depend on the
        // candidate-buffer fill order or on NaN marginals.
        ctx.children[depth].sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        for ci in 0..ctx.children[depth].len() {
            let (marginal, ti, r) = ctx.children[depth][ci];
            if ctx.opts.prune && cost + marginal >= ctx.best_cost {
                ctx.stats.pruned += 1;
                continue;
            }
            ctx.model.push(r, &mut ctx.state);
            let term = &mut ctx.terms[ti];
            let (qi, li) = term
                .queues
                .iter()
                .enumerate()
                .find_map(|(qi, q)| q.iter().position(|&x| x == r).map(|li| (qi, li)))
                .expect("candidate comes from a queue");
            term.consumed[qi][li] = true;
            term.remaining -= 1;
            let open2 = if term.remaining > 0 { Some(ti) } else { None };
            ctx.prefix.push(r);
            rec(ctx, open2, depth + 1);
            ctx.prefix.pop();
            let term = &mut ctx.terms[ti];
            term.consumed[qi][li] = false;
            term.remaining += 1;
            ctx.model.pop(&mut ctx.state);
        }
    }

    let total_leaves = tree.num_leaves();
    let n_streams = catalog.len();
    let make_terms = || -> Vec<TermState> {
        (0..tree.num_terms())
            .map(|i| {
                let mut queues: Vec<Vec<LeafRef>> = vec![Vec::new(); n_streams];
                let mut refs: Vec<LeafRef> = (0..tree.term(i).len())
                    .map(|j| LeafRef::new(i, j))
                    .collect();
                // increasing d, ties by leaf index: the Proposition 1 order
                refs.sort_by_key(|&r| (tree.leaf(r).items, r.leaf));
                for r in refs {
                    queues[tree.leaf(r).stream.0].push(r);
                }
                queues.retain(|q| !q.is_empty());
                let consumed = queues.iter().map(|q| vec![false; q.len()]).collect();
                TermState {
                    consumed,
                    remaining: tree.term(i).len(),
                    queues,
                }
            })
            .collect()
    };

    let model = CostModel::new(tree, catalog);
    let mut state = EvalScratch::new();
    model.freeze_prefix(&[], &mut state);
    let mut ctx = Ctx {
        model: &model,
        state,
        opts,
        total_leaves,
        best_cost: opts.incumbent,
        best: Vec::new(),
        prefix: Vec::with_capacity(total_leaves),
        stats: SearchStats::default(),
        truncated: false,
        terms: make_terms(),
        children: vec![Vec::new(); total_leaves + 1],
        remaining_buf: Vec::with_capacity(total_leaves),
    };
    rec(&mut ctx, None, 0);

    // If the incumbent was already optimal and nothing strictly better was
    // found, re-run once without an incumbent to recover a schedule.
    if ctx.best.is_empty() {
        let mut ctx2 = Ctx {
            model: &model,
            state: ctx.state,
            opts: SearchOptions {
                incumbent: f64::INFINITY,
                ..opts
            },
            total_leaves,
            best_cost: f64::INFINITY,
            best: Vec::new(),
            prefix: Vec::with_capacity(total_leaves),
            stats: ctx.stats,
            truncated: ctx.truncated,
            terms: make_terms(),
            children: ctx.children,
            remaining_buf: ctx.remaining_buf,
        };
        rec(&mut ctx2, None, 0);
        ctx = ctx2;
    }

    SearchResult {
        schedule: DnfSchedule::from_order_unchecked(ctx.best),
        cost: ctx.best_cost,
        stats: ctx.stats,
        complete: !ctx.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::dnf_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn random_instance(
        rng: &mut StdRng,
        max_terms: usize,
        max_leaves: usize,
    ) -> (DnfTree, StreamCatalog) {
        let n_streams = rng.gen_range(1..=3);
        let cat =
            StreamCatalog::from_costs((0..n_streams).map(|_| rng.gen_range(1.0..10.0))).unwrap();
        let n_terms = rng.gen_range(1..=max_terms);
        let mut terms = Vec::new();
        let mut total = 0;
        for _ in 0..n_terms {
            let m = rng.gen_range(1..=3.min(max_leaves - total).max(1));
            total += m;
            terms.push(
                (0..m)
                    .map(|_| {
                        leaf(
                            rng.gen_range(0..n_streams),
                            rng.gen_range(1..=3),
                            rng.gen_range(0.0..1.0),
                        )
                    })
                    .collect(),
            );
            if total >= max_leaves {
                break;
            }
        }
        (DnfTree::from_leaves(terms).unwrap(), cat)
    }

    #[test]
    fn and_exhaustive_finds_figure_2_optimum() {
        let t = AndTree::new(vec![leaf(0, 1, 0.75), leaf(0, 2, 0.1), leaf(1, 1, 0.5)]).unwrap();
        let cat = StreamCatalog::unit(2);
        let (s, c) = and_all_permutations_impl(&t, &cat);
        assert!((c - 1.825).abs() < 1e-12);
        assert_eq!(s.order(), &[0, 1, 2]);
    }

    /// Theorem 2: the best depth-first schedule matches the best schedule
    /// overall, on random small instances.
    #[test]
    fn depth_first_schedules_are_dominant() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..60 {
            let (t, cat) = random_instance(&mut rng, 3, 7);
            let (_, df_cost) = dnf_optimal_impl(&t, &cat);
            let (_, all_cost) = dnf_all_schedules(&t, &cat);
            assert!(
                (df_cost - all_cost).abs() < 1e-9,
                "trial {trial}: depth-first {df_cost} vs all {all_cost}"
            );
        }
    }

    /// Proposition 1 pruning never loses the optimum.
    #[test]
    fn prop1_pruning_is_lossless() {
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..60 {
            let (t, cat) = random_instance(&mut rng, 3, 7);
            let with = dnf_search(&t, &cat, SearchOptions::default());
            let without = dnf_search(
                &t,
                &cat,
                SearchOptions {
                    prop1_ordering: false,
                    ..Default::default()
                },
            );
            assert!(
                (with.cost - without.cost).abs() < 1e-9,
                "trial {trial}: {} vs {}",
                with.cost,
                without.cost
            );
            assert!(with.stats.nodes <= without.stats.nodes);
        }
    }

    /// The open-term completion bound never loses the optimum and never
    /// explores more nodes than the plain incumbent prune.
    #[test]
    fn completion_bound_is_lossless_and_helps() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut helped = false;
        for trial in 0..60 {
            let (t, cat) = random_instance(&mut rng, 3, 8);
            let with = dnf_search(&t, &cat, SearchOptions::default());
            let without = dnf_search(
                &t,
                &cat,
                SearchOptions {
                    completion_bound: false,
                    ..Default::default()
                },
            );
            assert!(
                (with.cost - without.cost).abs() < 1e-9,
                "trial {trial}: {} vs {}",
                with.cost,
                without.cost
            );
            assert!(with.stats.nodes <= without.stats.nodes, "trial {trial}");
            helped |= with.stats.nodes < without.stats.nodes;
        }
        assert!(helped, "bound never fired across 60 random instances");
    }

    #[test]
    fn pruning_reduces_nodes_without_changing_cost() {
        let mut rng = StdRng::seed_from_u64(13);
        let (t, cat) = random_instance(&mut rng, 3, 8);
        let pruned = dnf_search(&t, &cat, SearchOptions::default());
        let full = dnf_search(
            &t,
            &cat,
            SearchOptions {
                prune: false,
                ..Default::default()
            },
        );
        assert!((pruned.cost - full.cost).abs() < 1e-9);
        assert!(pruned.stats.nodes <= full.stats.nodes);
    }

    #[test]
    fn incumbent_from_heuristic_is_safe() {
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..20 {
            let (t, cat) = random_instance(&mut rng, 3, 6);
            let base = dnf_optimal_impl(&t, &cat).1;
            // Deliberately pass the *exact* optimum as incumbent: search
            // must still return a schedule achieving it.
            let r = dnf_search(
                &t,
                &cat,
                SearchOptions {
                    incumbent: base,
                    ..Default::default()
                },
            );
            assert!(r.schedule.len() == t.num_leaves());
            let c = dnf_eval::expected_cost(&t, &cat, &r.schedule);
            assert!((c - base).abs() < 1e-9);
        }
    }

    #[test]
    fn returned_schedule_cost_matches_reported_cost() {
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..30 {
            let (t, cat) = random_instance(&mut rng, 3, 7);
            let (s, c) = dnf_optimal_impl(&t, &cat);
            let check = dnf_eval::expected_cost(&t, &cat, &s);
            assert!((c - check).abs() < 1e-9);
            assert!(s.is_depth_first(&t));
        }
    }
}
