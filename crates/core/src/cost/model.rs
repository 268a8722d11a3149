//! The compiled, allocation-free Proposition-2 evaluator.
//!
//! [`CostModel`] compiles one `(DnfTree, StreamCatalog)` pair once into
//! flat arrays — leaf probabilities, window sizes and *local* stream ids
//! (only the streams the tree actually touches), term boundaries as
//! index ranges into one backing `Vec` — so that evaluating a schedule
//! costs no heap allocation and no work proportional to the catalog
//! size. A reusable [`EvalScratch`] holds every per-call buffer; after
//! the first evaluation of a given model, repeated calls are pure array
//! arithmetic.
//!
//! Semantics are identical to the literal Proposition 2 transcription in
//! [`crate::cost::dnf_eval`] (property tests pin the two to ≤ 1e-9
//! relative error); this evaluator exists because every planner — the
//! greedy multi-query loops above all — bottoms out in thousands of
//! schedule evaluations per planning call. The catalog-size independence
//! matters in multi-query serving: a 128-query workload may catalog
//! hundreds of streams while each query reads a handful.
//!
//! There is one algorithm, an *incremental* state on the scratch
//! ([`CostModel::push`] / [`CostModel::pop`] / [`CostModel::peek`] /
//! [`CostModel::completion_lower_bound`]): per `(stream, item)` bucket,
//! factor 1 is the product of `1 - reach` over the bucket's members in
//! push order and factor 2 the product of `1 - success` over completed
//! terms without a member there, so a leaf's marginal cost is an
//! `O(window)` sum. Prior coverage (items an earlier query already
//! pulled this tick) only changes where factor 1 starts: item `t` of
//! stream `k` starts at `clamp(t - coverage_k, 0, 1)`, the fraction of
//! it still to pay for. Pricing a whole schedule, with or without
//! coverage, resets the state and pushes the schedule; the
//! branch-and-bound walks it, the dynamic heuristics extend it term by
//! term, and the joint planners read its per-stream items.

use crate::leaf::LeafRef;
use crate::schedule::DnfSchedule;
use crate::stream::{StreamCatalog, StreamId};
use crate::tree::DnfTree;

const NO_LOCAL: u32 = u32::MAX;

/// A `(DnfTree, StreamCatalog)` pair compiled for repeated schedule
/// evaluation. Construction is `O(leaves + catalog)`; evaluation via
/// [`CostModel::expected_cost`] / [`CostModel::expected_cost_with_coverage`]
/// allocates nothing when reusing an [`EvalScratch`].
#[derive(Debug, Clone)]
pub struct CostModel {
    n_terms: usize,
    n_local: usize,
    max_d: usize,
    num_leaves: usize,
    catalog_len: usize,
    /// Flat-leaf range of each term: leaves of term `i` occupy
    /// `term_start[i]..term_start[i + 1]`.
    term_start: Vec<u32>,
    /// Per flat leaf: local stream id, window size, success probability.
    leaf_stream: Vec<u32>,
    leaf_items: Vec<u32>,
    leaf_prob: Vec<f64>,
    /// Per term: product of its leaf probabilities.
    term_success: Vec<f64>,
    /// Local stream id -> global [`StreamId`] index.
    global_of_local: Vec<u32>,
    /// Global stream index -> local id (or `NO_LOCAL` when untouched).
    local_of_global: Vec<u32>,
    /// Per local stream: per-item acquisition cost.
    unit_cost: Vec<f64>,
}

/// Reusable per-evaluation buffers for a [`CostModel`]: the pushed
/// prefix of [`CostModel::push`] and the temporaries of the isolated-term
/// and completion-bound helpers. One scratch per thread; sized on first
/// use and only regrown when bound to a larger model. Pricing a schedule
/// on it replaces the pushed prefix.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Pushed-leaf count per term (completion test).
    seen: Vec<u32>,
    /// Items acquired per local stream (isolated term evaluation).
    acquired: Vec<u32>,
    /// Reach probability per term: the product of its pushed leaves'
    /// probabilities.
    running: Vec<f64>,
    /// Items of each (term, local stream) already required by the
    /// term's pushed leaves (the first-case test of Proposition 2): term
    /// `a` has a member in bucket `(k, t)` exactly when
    /// `t <= covered[a][k]`.
    covered: Vec<u32>,
    /// Expected items the pushed prefix pulls per *local* stream.
    items: Vec<f64>,
    /// Factor 1 per bucket: the unpaid fraction of the item under prior
    /// coverage times `Π (1 - reach)` over the bucket's members, in push
    /// order (see [`CostModel::push`]).
    bucket_f1: Vec<f64>,
    /// Factor 2 per bucket: `Π (1 - success)` over completed terms
    /// without a member in the bucket, in completion order.
    bucket_f2: Vec<f64>,
    /// Expected cost of the pushed prefix.
    pushed_total: f64,
    /// One frame per pushed leaf, for [`CostModel::pop`].
    undo: Vec<Undo>,
    /// Bucket factors overwritten by pushes, restored verbatim by pops
    /// (nothing is divided back out, so a push/pop pair is the exact
    /// identity).
    undo_log: Vec<f64>,
    /// Completion-bound buffers, all zero between calls: widest
    /// remaining window per local stream, best remaining success
    /// probability per bucket, and the streams touched.
    demand: Vec<u32>,
    pmax: Vec<f64>,
    touched: Vec<usize>,
}

/// What one [`CostModel::push`] overwrote outside the undo log.
#[derive(Debug, Clone, Copy)]
struct Undo {
    leaf: LeafRef,
    total: f64,
    items: f64,
    reach: f64,
    covered: u32,
    completed: bool,
}

impl CostModel {
    /// Compiles `tree` against `catalog`.
    ///
    /// # Panics
    /// Panics when a leaf references a stream outside the catalog (the
    /// same contract as the literal evaluator's indexing).
    pub fn new(tree: &DnfTree, catalog: &StreamCatalog) -> CostModel {
        let n_terms = tree.num_terms();
        let num_leaves = tree.num_leaves();
        let catalog_len = catalog.len();

        let mut local_of_global = vec![NO_LOCAL; catalog_len];
        let mut global_of_local = Vec::new();
        let mut unit_cost = Vec::new();

        let mut term_start = Vec::with_capacity(n_terms + 1);
        let mut leaf_stream = Vec::with_capacity(num_leaves);
        let mut leaf_items = Vec::with_capacity(num_leaves);
        let mut leaf_prob = Vec::with_capacity(num_leaves);
        let mut term_success = Vec::with_capacity(n_terms);
        let mut max_d = 0usize;

        term_start.push(0u32);
        for term in tree.terms() {
            let mut success = 1.0;
            for leaf in term.leaves() {
                let g = leaf.stream.0;
                assert!(g < catalog_len, "leaf stream {g} outside the catalog");
                let local = if local_of_global[g] == NO_LOCAL {
                    let l = global_of_local.len() as u32;
                    local_of_global[g] = l;
                    global_of_local.push(g as u32);
                    unit_cost.push(catalog.cost(leaf.stream));
                    l
                } else {
                    local_of_global[g]
                };
                leaf_stream.push(local);
                leaf_items.push(leaf.items);
                leaf_prob.push(leaf.prob.value());
                max_d = max_d.max(leaf.items as usize);
                success *= leaf.prob.value();
            }
            term_success.push(success);
            term_start.push(leaf_stream.len() as u32);
        }

        CostModel {
            n_terms,
            n_local: global_of_local.len(),
            max_d,
            num_leaves,
            catalog_len,
            term_start,
            leaf_stream,
            leaf_items,
            leaf_prob,
            term_success,
            global_of_local,
            local_of_global,
            unit_cost,
        }
    }

    /// A scratch pre-sized for this model (any [`EvalScratch`] works;
    /// this one avoids even the first-call growth).
    pub fn make_scratch(&self) -> EvalScratch {
        let mut s = EvalScratch::default();
        s.reserve(self);
        s
    }

    /// Number of distinct streams the tree touches.
    #[inline]
    pub fn num_streams_touched(&self) -> usize {
        self.n_local
    }

    /// The global ids of the streams the tree touches, in first-use
    /// order (the kernel's local stream order).
    pub fn touched_streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.global_of_local.iter().map(|&g| StreamId(g as usize))
    }

    /// Expected cost of `schedule` — Proposition 2, priced by pushing
    /// the schedule onto a reset state (see [`CostModel::freeze_prefix`]).
    pub fn expected_cost(&self, schedule: &DnfSchedule, scratch: &mut EvalScratch) -> f64 {
        self.expected_cost_with_coverage(schedule.order(), &[], scratch)
    }

    /// Expected cost of the (possibly partial) schedule `order` under
    /// *prior coverage* (see
    /// [`crate::cost::dnf_eval::expected_items_with_coverage`]).
    /// `coverage` is indexed by global stream id and may be empty (no
    /// coverage); coverage equal to a stream's widest window makes its
    /// pulls free, which is how maintained arrangements are priced.
    ///
    /// The call resets the pushed state on `scratch` under `coverage`
    /// and pushes `order`, so afterwards [`CostModel::items_per_stream`]
    /// and [`CostModel::add_items_to`] expose the per-stream item
    /// decomposition of the returned cost, and further pushes extend the
    /// order under the same coverage.
    ///
    /// `order` may be any *prefix* of a schedule — a subset of the
    /// model's leaves, each at most once. Terms with unscheduled leaves
    /// never complete within the prefix.
    ///
    /// # Panics
    /// Panics when `coverage` is neither empty nor `catalog.len()` long,
    /// or when `order` repeats a leaf (debug builds).
    pub fn expected_cost_with_coverage(
        &self,
        order: &[LeafRef],
        coverage: &[f64],
        scratch: &mut EvalScratch,
    ) -> f64 {
        if cfg!(debug_assertions) {
            // A repeated leaf would double-count `seen` and silently
            // mis-classify its term as completed — catch it loudly.
            let mut used = vec![false; self.num_leaves];
            for &r in order {
                let flat = self.flat(r);
                assert!(!used[flat], "leaf {r:?} appears twice in the order");
                used[flat] = true;
            }
        }
        self.reset(coverage, scratch);
        for &r in order {
            self.push(r, scratch);
        }
        scratch.pushed_total
    }

    /// Resets the incremental state on `scratch` to `prefix` pushed in
    /// order (see [`CostModel::push`]) with no prior coverage, and
    /// returns the prefix's expected cost — the sum of the push
    /// marginals, which is also how every planner prices a finished
    /// schedule.
    pub fn freeze_prefix(&self, prefix: &[LeafRef], scratch: &mut EvalScratch) -> f64 {
        self.expected_cost_with_coverage(prefix, &[], scratch)
    }

    /// Empties the pushed prefix on `scratch` and starts factor 1 of
    /// every bucket `(k, t)` at the unpaid fraction of item `t`,
    /// `clamp(t - coverage_k, 0, 1)` — exactly 1 without coverage.
    fn reset(&self, coverage: &[f64], scratch: &mut EvalScratch) {
        assert!(
            coverage.is_empty() || coverage.len() == self.catalog_len,
            "coverage must be empty or have one entry per catalog stream"
        );
        scratch.reserve(self);
        let max_d = self.max_d;
        let n_buckets = self.n_local * max_d;
        scratch.running[..self.n_terms].fill(1.0);
        scratch.seen[..self.n_terms].fill(0);
        scratch.covered[..self.n_terms * self.n_local].fill(0);
        scratch.items[..self.n_local].fill(0.0);
        for (k, &g) in self.global_of_local.iter().enumerate() {
            let cov = coverage.get(g as usize).copied().unwrap_or(0.0);
            for (t, f1) in scratch.bucket_f1[k * max_d..(k + 1) * max_d]
                .iter_mut()
                .enumerate()
            {
                *f1 = (f64::from(t as u32 + 1) - cov).clamp(0.0, 1.0);
            }
        }
        scratch.bucket_f2[..n_buckets].fill(1.0);
        scratch.pushed_total = 0.0;
        scratch.undo.clear();
        scratch.undo_log.clear();
    }

    /// The marginal expected cost leaf `r` would add if pushed now,
    /// without mutating the state — `O(window)`.
    pub fn peek(&self, r: LeafRef, scratch: &EvalScratch) -> f64 {
        let (k, items) = self.peek_items(r, scratch);
        items * self.unit_cost[k]
    }

    /// The local stream of leaf `r` and the expected items it would pull
    /// there if pushed now.
    fn peek_items(&self, r: LeafRef, scratch: &EvalScratch) -> (usize, f64) {
        let flat = self.flat(r);
        let k = self.leaf_stream[flat] as usize;
        let cov = scratch.covered[r.term * self.n_local + k] as usize;
        let base = k * self.max_d;
        // Items up to `cov` are free (first case of Proposition 2); the
        // rest are priced by their bucket's two factors.
        let mut items = 0.0;
        for b in base + cov..base + cov.max(self.leaf_items[flat] as usize) {
            items += scratch.bucket_f1[b] * scratch.bucket_f2[b];
        }
        (k, items * scratch.running[r.term])
    }

    /// Appends leaf `r` to the pushed prefix on `scratch` (reset by
    /// [`CostModel::freeze_prefix`] or
    /// [`CostModel::expected_cost_with_coverage`]) and returns its
    /// marginal expected cost.
    pub fn push(&self, r: LeafRef, scratch: &mut EvalScratch) -> f64 {
        let (k, items) = self.peek_items(r, scratch);
        let marginal = items * self.unit_cost[k];
        let flat = self.flat(r);
        let d = self.leaf_items[flat];
        let ck = r.term * self.n_local + k;
        let cov = scratch.covered[ck];
        let reach = scratch.running[r.term];
        // The leaf joins every bucket above its term's coverage.
        let base = k * self.max_d;
        let joined = base + cov as usize..base + cov.max(d) as usize;
        scratch
            .undo_log
            .extend_from_slice(&scratch.bucket_f1[joined.clone()]);
        for f1 in &mut scratch.bucket_f1[joined] {
            *f1 *= 1.0 - reach;
        }
        scratch.covered[ck] = cov.max(d);
        scratch.running[r.term] = reach * self.leaf_prob[flat];
        scratch.seen[r.term] += 1;
        debug_assert!(
            scratch.seen[r.term] as usize <= self.term_len(r.term),
            "leaf pushed twice or term over-filled"
        );
        let completed = scratch.seen[r.term] as usize == self.term_len(r.term);
        if completed {
            // The term completes: its success discounts factor 2 of
            // every bucket it has no member in.
            let fail = 1.0 - scratch.running[r.term];
            let row = r.term * self.n_local;
            let max_d = self.max_d;
            scratch
                .undo_log
                .extend_from_slice(&scratch.bucket_f2[..self.n_local * max_d]);
            for k in 0..self.n_local {
                let cov = scratch.covered[row + k] as usize;
                for f2 in &mut scratch.bucket_f2[k * max_d + cov..(k + 1) * max_d] {
                    *f2 *= fail;
                }
            }
        }
        scratch.undo.push(Undo {
            leaf: r,
            total: scratch.pushed_total,
            items: scratch.items[k],
            reach,
            covered: cov,
            completed,
        });
        scratch.items[k] += items;
        scratch.pushed_total += marginal;
        marginal
    }

    /// Reverts the most recent [`CostModel::push`] bitwise and returns
    /// the leaf it removed.
    ///
    /// # Panics
    /// Panics when nothing is pushed.
    pub fn pop(&self, scratch: &mut EvalScratch) -> LeafRef {
        let u = scratch.undo.pop().expect("pop on an empty prefix");
        let r = u.leaf;
        let flat = self.flat(r);
        let k = self.leaf_stream[flat] as usize;
        let log = &mut scratch.undo_log;
        if u.completed {
            let n_buckets = self.n_local * self.max_d;
            let from = log.len() - n_buckets;
            scratch.bucket_f2[..n_buckets].copy_from_slice(&log[from..]);
            log.truncate(from);
        }
        let base = k * self.max_d;
        let lo = base + u.covered as usize;
        let hi = base + u.covered.max(self.leaf_items[flat]) as usize;
        let from = log.len() - (hi - lo);
        scratch.bucket_f1[lo..hi].copy_from_slice(&log[from..]);
        log.truncate(from);
        scratch.covered[r.term * self.n_local + k] = u.covered;
        scratch.running[r.term] = u.reach;
        scratch.seen[r.term] -= 1;
        scratch.items[k] = u.items;
        scratch.pushed_total = u.total;
        r
    }

    /// Marginal expected cost of pushing every leaf of `tail` — all of
    /// **one open term**, in order — onto the pushed prefix: bitwise the
    /// sum of their [`CostModel::push`] marginals, without mutating the
    /// state. The dynamic AND-ordered heuristics price every candidate
    /// term against one prefix this way.
    pub fn frozen_append_cost(&self, tail: &[LeafRef], scratch: &mut EvalScratch) -> f64 {
        let Some(&first) = tail.first() else {
            return 0.0;
        };
        let term = first.term;
        let row = term * self.n_local;
        // Within-tail coverage starts from the term's pushed coverage.
        for &r in tail {
            debug_assert_eq!(r.term, term, "extension leaves belong to one term");
            let k = self.leaf_stream[self.flat(r)] as usize;
            scratch.acquired[k] = scratch.covered[row + k];
        }
        let mut reach = scratch.running[term];
        let mut delta = 0.0;
        for &r in tail {
            let flat = self.flat(r);
            let k = self.leaf_stream[flat] as usize;
            let d = self.leaf_items[flat];
            let have = scratch.acquired[k];
            let base = k * self.max_d;
            let mut leaf_items_out = 0.0;
            for b in base + have as usize..base + have.max(d) as usize {
                leaf_items_out += scratch.bucket_f1[b] * scratch.bucket_f2[b];
            }
            delta += leaf_items_out * reach * self.unit_cost[k];
            scratch.acquired[k] = have.max(d);
            reach *= self.leaf_prob[flat];
        }
        delta
    }

    /// An **admissible lower bound** on the cost any depth-first
    /// completion adds while finishing open term `term`, whose
    /// still-unpushed leaves are `remaining`.
    ///
    /// While a term is open, a depth-first schedule places *all* of its
    /// remaining leaves before anything else, so during that phase the
    /// completed-term set and the cross-term bucket members are frozen:
    /// factors 1 and 2 of Proposition 2 are exactly the pushed state's
    /// bucket factors for every item the phase must pay for (items above
    /// the term's coverage, up to its widest remaining window). Only the
    /// payer's reach probability is unknown; it is bounded below by
    /// reaching the payer *last* (`prefix · Π remaining p / p_payer`,
    /// maximized over eligible payers). Summing these floors never
    /// exceeds the true completion cost, so branch-and-bound may prune on
    /// `pushed_cost() + bound ≥ incumbent` without losing the optimum.
    pub fn completion_lower_bound(
        &self,
        term: usize,
        remaining: &[LeafRef],
        scratch: &mut EvalScratch,
    ) -> f64 {
        if remaining.is_empty() {
            return 0.0;
        }
        let prefix = scratch.running[term];
        if prefix <= 0.0 {
            return 0.0;
        }
        let max_d = self.max_d;
        grow(&mut scratch.demand, self.n_local, 0);
        grow(&mut scratch.pmax, self.n_local * max_d, 0.0);
        let mut p_rem = 1.0;
        for &r in remaining {
            debug_assert_eq!(r.term, term, "remaining leaves belong to the open term");
            let flat = self.flat(r);
            let k = self.leaf_stream[flat] as usize;
            let d = self.leaf_items[flat];
            let p = self.leaf_prob[flat];
            p_rem *= p;
            if scratch.demand[k] == 0 {
                scratch.touched.push(k);
            }
            scratch.demand[k] = scratch.demand[k].max(d);
            for slot in &mut scratch.pmax[k * max_d..k * max_d + d as usize] {
                if *slot < p {
                    *slot = p;
                }
            }
        }

        let mut bound = 0.0;
        for &k in &scratch.touched {
            let unit = self.unit_cost[k];
            if unit <= 0.0 {
                continue;
            }
            let cov = scratch.covered[term * self.n_local + k] as usize;
            for b in k * max_d + cov..k * max_d + scratch.demand[k] as usize {
                let pmax = scratch.pmax[b];
                let f3_floor = if pmax > 0.0 {
                    prefix * p_rem / pmax
                } else {
                    0.0
                };
                bound += unit * scratch.bucket_f1[b] * scratch.bucket_f2[b] * f3_floor;
            }
        }
        for &k in &scratch.touched {
            scratch.demand[k] = 0;
            scratch.pmax[k * max_d..(k + 1) * max_d].fill(0.0);
        }
        scratch.touched.clear();
        bound
    }

    /// Number of terms (AND nodes) of the compiled tree.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.n_terms
    }

    /// Number of leaves of term `i`.
    #[inline]
    pub fn term_len(&self, term: usize) -> usize {
        (self.term_start[term + 1] - self.term_start[term]) as usize
    }

    /// Success probability of term `i` — the product of its leaf
    /// probabilities in declaration order (bitwise equal to
    /// `AndTree::success_prob` on the extracted term).
    #[inline]
    pub fn term_success_prob(&self, term: usize) -> f64 {
        self.term_success[term]
    }

    /// Within-term Smith order of term `i`: leaf offsets sorted by
    /// non-decreasing `d·c/q` ratio, ties by offset — the same order
    /// `algo::smith` produces for the term in isolation, computed from
    /// the compiled arrays without building an `AndTree`.
    pub fn term_smith_order(&self, term: usize, out: &mut Vec<usize>) {
        let start = self.term_start[term] as usize;
        out.clear();
        out.extend(0..self.term_len(term));
        out.sort_by(|&a, &b| {
            let ra = self.leaf_smith_ratio(start + a);
            let rb = self.leaf_smith_ratio(start + b);
            ra.total_cmp(&rb).then(a.cmp(&b))
        });
    }

    #[inline]
    fn leaf_smith_ratio(&self, flat: usize) -> f64 {
        crate::algo::smith::smith_ratio(
            self.leaf_items[flat],
            self.unit_cost[self.leaf_stream[flat] as usize],
            1.0 - self.leaf_prob[flat],
        )
    }

    /// Expected cost of evaluating term `i` **in isolation** under the
    /// within-term `order` (leaf offsets) — bitwise equal to
    /// `cost::and_eval::expected_cost` on the extracted term, but using
    /// a local-stream scratch buffer instead of a catalog-wide one.
    pub fn term_isolated_cost(
        &self,
        term: usize,
        order: &[usize],
        scratch: &mut EvalScratch,
    ) -> f64 {
        scratch.reserve(self);
        let start = self.term_start[term] as usize;
        for j in 0..self.term_len(term) {
            scratch.acquired[self.leaf_stream[start + j] as usize] = 0;
        }
        let mut reach = 1.0;
        let mut cost = 0.0;
        for &j in order {
            let flat = start + j;
            let k = self.leaf_stream[flat] as usize;
            let have = scratch.acquired[k];
            if self.leaf_items[flat] > have {
                cost += reach * f64::from(self.leaf_items[flat] - have) * self.unit_cost[k];
                scratch.acquired[k] = self.leaf_items[flat];
            }
            reach *= self.leaf_prob[flat];
        }
        cost
    }

    /// The per-stream item decomposition of the pushed prefix on
    /// `scratch`: `(stream, expected items pulled)` for every touched
    /// stream. Untouched catalog streams pull nothing.
    pub fn items_per_stream<'s>(
        &'s self,
        scratch: &'s EvalScratch,
    ) -> impl Iterator<Item = (StreamId, f64)> + 's {
        self.global_of_local
            .iter()
            .zip(&scratch.items)
            .map(|(&g, &i)| (StreamId(g as usize), i))
    }

    /// Adds the pushed prefix's per-stream items into a global,
    /// catalog-indexed accumulator (e.g. a coverage vector).
    pub fn add_items_to(&self, scratch: &EvalScratch, out: &mut [f64]) {
        for (k, &g) in self.global_of_local.iter().enumerate() {
            out[g as usize] += scratch.items[k];
        }
    }

    /// The pushed prefix's items as a full catalog-indexed vector
    /// (allocates; for callers that need the literal-evaluator shape).
    pub fn items_vec(&self, scratch: &EvalScratch) -> Vec<f64> {
        let mut out = vec![0.0; self.catalog_len];
        self.add_items_to(scratch, &mut out);
        out
    }

    /// The widest window the tree opens on global stream `k`
    /// (0 when untouched). Used by coverage-discounting planners.
    pub fn max_window(&self, stream: StreamId) -> u32 {
        let local = self.local_of_global[stream.0];
        if local == NO_LOCAL {
            return 0;
        }
        let mut w = 0;
        for (flat, &s) in self.leaf_stream.iter().enumerate() {
            if s == local {
                w = w.max(self.leaf_items[flat]);
            }
        }
        w
    }

    #[inline]
    fn flat(&self, r: LeafRef) -> usize {
        self.term_start[r.term] as usize + r.leaf
    }
}

impl EvalScratch {
    /// A fresh, unsized scratch (grown on first use).
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Expected cost of the prefix pushed by [`CostModel::push`].
    #[inline]
    pub fn pushed_cost(&self) -> f64 {
        self.pushed_total
    }

    /// Number of leaves pushed by [`CostModel::push`].
    #[inline]
    pub fn pushed_len(&self) -> usize {
        self.undo.len()
    }

    /// Grows every buffer to fit `model` (no-op once large enough).
    fn reserve(&mut self, model: &CostModel) {
        let n_buckets = model.n_local * model.max_d;
        grow(&mut self.seen, model.n_terms, 0);
        grow(&mut self.acquired, model.n_local, 0);
        grow(&mut self.running, model.n_terms, 1.0);
        grow(&mut self.covered, model.n_terms * model.n_local, 0);
        grow(&mut self.items, model.n_local, 0.0);
        grow(&mut self.bucket_f1, n_buckets, 1.0);
        grow(&mut self.bucket_f2, n_buckets, 1.0);
    }
}

fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::dnf_eval;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use rand::prelude::*;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    fn example() -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
                vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
                vec![leaf(2, 1, 0.9), leaf(0, 2, 0.5)],
            ])
            .unwrap(),
            StreamCatalog::from_costs([2.0, 3.0, 0.5]).unwrap(),
        )
    }

    #[test]
    fn kernel_matches_literal_on_random_schedules() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let mut rng = StdRng::seed_from_u64(99);
        let mut refs: Vec<LeafRef> = t.leaf_refs().collect();
        for _ in 0..60 {
            refs.shuffle(&mut rng);
            let s = DnfSchedule::new(refs.clone(), &t).unwrap();
            let literal = dnf_eval::expected_cost(&t, &cat, &s);
            let kernel = model.expected_cost(&s, &mut scratch);
            assert!(
                (literal - kernel).abs() < 1e-12,
                "literal {literal} vs kernel {kernel}"
            );
        }
    }

    #[test]
    fn kernel_matches_literal_under_coverage() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let s = DnfSchedule::declaration_order(&t);
        for coverage in [
            vec![0.0, 0.0, 0.0],
            vec![1.5, 0.25, 1.0],
            vec![9.0, 9.0, 9.0],
            // Coverage equal to a stream's widest window prices a
            // maintained arrangement: stream 0 alone, then every stream.
            vec![5.0, 0.0, 0.0],
            vec![5.0, 2.0, 1.0],
        ] {
            let literal = dnf_eval::expected_items_with_coverage(&t, &cat, &s, &coverage);
            let cost = model.expected_cost_with_coverage(s.order(), &coverage, &mut scratch);
            let items = model.items_vec(&scratch);
            for (k, (a, b)) in literal.iter().zip(&items).enumerate() {
                assert!((a - b).abs() < 1e-12, "stream {k}: literal {a} kernel {b}");
            }
            let dot: f64 = literal
                .iter()
                .enumerate()
                .map(|(k, i)| i * cat.cost(StreamId(k)))
                .sum();
            assert!((dot - cost).abs() < 1e-12);
        }
        // An arranged stream pulls nothing, and only its own items go.
        let bare = model.expected_cost(&s, &mut scratch);
        let items = model.items_vec(&scratch);
        let arranged = model.expected_cost_with_coverage(s.order(), &[5.0, 0.0, 0.0], &mut scratch);
        let expect = bare - items[0] * 2.0;
        assert!((arranged - expect).abs() < 1e-12, "{arranged} vs {expect}");
        assert_eq!(model.items_vec(&scratch)[0], 0.0);
        assert_eq!(model.items_vec(&scratch)[1..], items[1..]);
        let all = model.expected_cost_with_coverage(s.order(), &[5.0, 2.0, 1.0], &mut scratch);
        assert_eq!(all, 0.0);
    }

    #[test]
    fn local_streams_ignore_catalog_width() {
        // Same tree over a catalog with 100 unused streams: identical
        // results, and the kernel only tracks the 3 touched streams.
        let (t, _) = example();
        let mut costs = vec![7.0; 100];
        costs[0] = 2.0;
        costs[1] = 3.0;
        costs[2] = 0.5;
        let wide = StreamCatalog::from_costs(costs).unwrap();
        let model = CostModel::new(&t, &wide);
        assert_eq!(model.num_streams_touched(), 3);
        let mut scratch = model.make_scratch();
        let s = DnfSchedule::declaration_order(&t);
        let kernel = model.expected_cost(&s, &mut scratch);
        let literal = dnf_eval::expected_cost(&t, &wide, &s);
        assert!((kernel - literal).abs() < 1e-12);
        let touched: Vec<usize> = model.touched_streams().map(|s| s.0).collect();
        assert_eq!(touched, vec![0, 1, 2]);
        assert_eq!(model.max_window(StreamId(0)), 5);
        assert_eq!(model.max_window(StreamId(50)), 0);
    }

    #[test]
    fn scratch_is_reusable_across_models() {
        let (t, cat) = example();
        let small = DnfTree::from_leaves(vec![vec![leaf(0, 2, 0.5)]]).unwrap();
        let m1 = CostModel::new(&t, &cat);
        let m2 = CostModel::new(&small, &cat);
        let mut scratch = EvalScratch::new();
        let s1 = DnfSchedule::declaration_order(&t);
        let s2 = DnfSchedule::declaration_order(&small);
        for _ in 0..3 {
            let a = m1.expected_cost(&s1, &mut scratch);
            let b = m2.expected_cost(&s2, &mut scratch);
            assert!((a - dnf_eval::expected_cost(&t, &cat, &s1)).abs() < 1e-12);
            assert!((b - dnf_eval::expected_cost(&small, &cat, &s2)).abs() < 1e-12);
        }
    }

    #[test]
    fn prefix_costs_match_the_incremental_evaluator_bitwise_totals() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let mut pushed = model.make_scratch();
        let mut rng = StdRng::seed_from_u64(17);
        let mut refs: Vec<LeafRef> = t.leaf_refs().collect();
        for _ in 0..30 {
            refs.shuffle(&mut rng);
            model.freeze_prefix(&[], &mut pushed);
            for cut in 0..=refs.len() {
                let priced = model.expected_cost_with_coverage(&refs[..cut], &[], &mut scratch);
                assert_eq!(priced, pushed.pushed_cost(), "prefix len {cut}");
                assert_eq!(
                    model.items_vec(&scratch),
                    model.items_vec(&pushed),
                    "prefix len {cut}"
                );
                if cut < refs.len() {
                    model.push(refs[cut], &mut pushed);
                }
            }
        }
    }

    #[test]
    fn frozen_append_cost_matches_incremental_marginals() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let mut probe = model.make_scratch();
        // Push every whole-term prefix; price each remaining term.
        let term_refs: Vec<Vec<LeafRef>> = (0..t.num_terms())
            .map(|i| (0..t.term(i).len()).map(|j| LeafRef::new(i, j)).collect())
            .collect();
        for placed in 0..t.num_terms() {
            let prefix: Vec<LeafRef> = term_refs[..placed].concat();
            let frozen_cost = model.freeze_prefix(&prefix, &mut scratch);
            for (candidate, refs) in term_refs.iter().enumerate().skip(placed) {
                let fast = model.frozen_append_cost(refs, &mut scratch);
                let mut slow = 0.0;
                for &r in refs {
                    slow += model.push(r, &mut scratch);
                }
                for _ in refs {
                    model.pop(&mut scratch);
                }
                assert_eq!(
                    fast, slow,
                    "prefix {placed} term {candidate}: frozen {fast} vs marginals {slow}"
                );
                let grown = [prefix.as_slice(), refs].concat();
                let delta = model.freeze_prefix(&grown, &mut probe) - frozen_cost;
                assert!(
                    (fast - delta).abs() < 1e-12,
                    "prefix {placed} term {candidate}: frozen {fast} vs repriced {delta}"
                );
            }
        }
        assert_eq!(model.frozen_append_cost(&[], &mut scratch), 0.0);
    }

    #[test]
    fn committing_terms_matches_refreezing_the_grown_prefix() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let term_refs: Vec<Vec<LeafRef>> = (0..t.num_terms())
            .map(|i| (0..t.term(i).len()).map(|j| LeafRef::new(i, j)).collect())
            .collect();
        // Walk the terms in a non-trivial order, committing one by one.
        let walk = [2usize, 0, 1];
        let mut committed = model.make_scratch();
        model.freeze_prefix(&[], &mut committed);
        let mut prefix: Vec<LeafRef> = Vec::new();
        for (step, &i) in walk.iter().enumerate() {
            for &r in &term_refs[i] {
                model.push(r, &mut committed);
            }
            prefix.extend(term_refs[i].iter().copied());
            let mut fresh = model.make_scratch();
            model.freeze_prefix(&prefix, &mut fresh);
            for (cand, refs) in term_refs.iter().enumerate() {
                if walk[..=step].contains(&cand) {
                    continue;
                }
                let a = model.frozen_append_cost(refs, &mut committed);
                let b = model.frozen_append_cost(refs, &mut fresh);
                assert!(
                    (a - b).abs() < 1e-12,
                    "step {step} candidate {cand}: committed {a} vs refrozen {b}"
                );
            }
        }
    }

    #[test]
    fn term_helpers_match_the_and_tree_path_bitwise() {
        use crate::cost::and_eval;
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let mut order = Vec::new();
        for (i, term) in t.terms().iter().enumerate() {
            assert_eq!(model.term_len(i), term.len());
            let at = term.as_and_tree();
            let smith = crate::algo::smith::schedule_impl(&at, &cat);
            model.term_smith_order(i, &mut order);
            assert_eq!(order.as_slice(), smith.order(), "term {i}");
            let (cost, prob) = and_eval::expected_cost_and_prob(&at, &cat, &smith);
            let kernel_cost = model.term_isolated_cost(i, &order, &mut scratch);
            assert_eq!(kernel_cost, cost, "term {i} cost");
            assert_eq!(model.term_success_prob(i), prob, "term {i} prob");
        }
    }

    /// More terms than a `u64` term mask holds, with random windows on
    /// three streams, still price like the literal evaluator.
    #[test]
    fn more_than_64_terms_falls_back_to_the_scan_path() {
        let mut rng = StdRng::seed_from_u64(3);
        let terms: Vec<Vec<Leaf>> = (0..70)
            .map(|_| {
                vec![leaf(
                    rng.gen_range(0..3),
                    rng.gen_range(1..=3),
                    rng.gen_range(0.05..0.95),
                )]
            })
            .collect();
        let t = DnfTree::from_leaves(terms).unwrap();
        let cat = StreamCatalog::from_costs([1.0, 2.0, 3.0]).unwrap();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let s = DnfSchedule::declaration_order(&t);
        let literal = dnf_eval::expected_cost(&t, &cat, &s);
        let kernel = model.expected_cost(&s, &mut scratch);
        assert!((literal - kernel).abs() < 1e-9, "{literal} vs {kernel}");
    }

    /// The tree the push/pop tests have always run on.
    fn evaluator_tree() -> (DnfTree, StreamCatalog) {
        (
            DnfTree::from_leaves(vec![
                vec![leaf(0, 3, 0.4), leaf(1, 1, 0.7)],
                vec![leaf(0, 5, 0.6), leaf(1, 2, 0.2)],
                vec![leaf(0, 2, 0.9), leaf(2, 1, 0.5)],
            ])
            .unwrap(),
            StreamCatalog::from_costs([2.0, 3.0, 0.5]).unwrap(),
        )
    }

    fn pushed(model: &CostModel, order: &[LeafRef]) -> EvalScratch {
        let mut scratch = model.make_scratch();
        model.freeze_prefix(order, &mut scratch);
        scratch
    }

    #[test]
    fn marginals_sum_to_total() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut scratch = pushed(&model, &[]);
        let s = DnfSchedule::declaration_order(&t);
        let mut sum = 0.0;
        for &r in s.order() {
            sum += model.push(r, &mut scratch);
        }
        assert!((sum - scratch.pushed_cost()).abs() < 1e-12);
    }

    #[test]
    fn matches_literal_evaluator_on_random_schedules() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut rng = StdRng::seed_from_u64(42);
        let mut refs: Vec<LeafRef> = t.leaf_refs().collect();
        for _ in 0..50 {
            refs.shuffle(&mut rng);
            let s = DnfSchedule::new(refs.clone(), &t).unwrap();
            let literal = dnf_eval::expected_cost(&t, &cat, &s);
            let total = pushed(&model, s.order()).pushed_cost();
            assert!(
                (literal - total).abs() < 1e-10,
                "literal {literal} vs incremental {total}"
            );
        }
    }

    #[test]
    fn matches_enumeration_on_random_schedules() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut rng = StdRng::seed_from_u64(7);
        let mut refs: Vec<LeafRef> = t.leaf_refs().collect();
        for _ in 0..10 {
            refs.shuffle(&mut rng);
            let s = DnfSchedule::new(refs.clone(), &t).unwrap();
            let exact = crate::cost::assignment::dnf_expected_cost(&t, &cat, &s);
            assert!((exact - pushed(&model, s.order()).pushed_cost()).abs() < 1e-10);
        }
    }

    #[test]
    fn clone_preserves_independent_state() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let order: Vec<LeafRef> = t.leaf_refs().collect();
        let mut a = pushed(&model, &order[..1]);
        let mut b = a.clone();
        model.push(order[1], &mut a);
        model.push(order[2], &mut b);
        assert_ne!(a.pushed_cost(), b.pushed_cost());
        assert_eq!(a.pushed_len(), 2);
        assert_eq!(b.pushed_len(), 2);
    }

    #[test]
    fn survival_prob_tracks_completed_terms() {
        // Stream 2 is read only by term 2, so its item pays factor 2 in
        // full: the probability that no completed term succeeded.
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut scratch = pushed(&model, &[]);
        let probe = LeafRef::new(2, 1);
        assert_eq!(model.peek(probe, &scratch), 0.5);
        model.push(LeafRef::new(0, 0), &mut scratch);
        model.push(LeafRef::new(0, 1), &mut scratch);
        // term 0 success prob = 0.4 * 0.7 = 0.28
        assert!((model.peek(probe, &scratch) - 0.72 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn remaining_counts() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut scratch = pushed(&model, &[]);
        assert_eq!(scratch.pushed_len(), 0);
        model.push(LeafRef::new(1, 0), &mut scratch);
        assert_eq!(scratch.pushed_len(), 1);
        assert_eq!(model.pop(&mut scratch), LeafRef::new(1, 0));
        assert_eq!(scratch.pushed_len(), 0);
    }

    #[test]
    fn marginal_of_covered_item_is_zero() {
        // Second leaf of a term on the same stream with smaller d: free.
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 5, 0.5), leaf(0, 3, 0.5)]]).unwrap();
        let cat = StreamCatalog::unit(1);
        let model = CostModel::new(&t, &cat);
        let mut scratch = pushed(&model, &[]);
        assert!(model.push(LeafRef::new(0, 0), &mut scratch) > 0.0);
        assert_eq!(model.push(LeafRef::new(0, 1), &mut scratch), 0.0);
    }

    #[test]
    fn pop_restores_state_bitwise() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let refs: Vec<LeafRef> = t.leaf_refs().collect();
        let mut scratch = pushed(&model, &[refs[0], refs[2]]);
        // Snapshot through observable behaviour: every peek must be
        // identical after a push/pop round-trip (bitwise, not approx).
        let before: Vec<f64> = refs[3..].iter().map(|&r| model.peek(r, &scratch)).collect();
        let total = scratch.pushed_cost();
        for &r in &refs[3..] {
            model.push(r, &mut scratch);
        }
        for _ in &refs[3..] {
            model.pop(&mut scratch);
        }
        assert_eq!(scratch.pushed_cost(), total, "total restored exactly");
        assert_eq!(scratch.pushed_len(), 2);
        let after: Vec<f64> = refs[3..].iter().map(|&r| model.peek(r, &scratch)).collect();
        assert_eq!(before, after, "peeks restored exactly");
        assert_eq!(
            model.pop(&mut scratch),
            refs[2],
            "pop returns the removed leaf"
        );
    }

    #[test]
    fn push_pop_interleaving_matches_fresh_evaluator() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut rng = StdRng::seed_from_u64(77);
        let mut refs: Vec<LeafRef> = t.leaf_refs().collect();
        for _ in 0..20 {
            refs.shuffle(&mut rng);
            let mut walker = pushed(&model, &[]);
            // Random walk: push, sometimes pop and re-push.
            for &r in &refs {
                model.push(r, &mut walker);
                if rng.gen_bool(0.5) {
                    model.pop(&mut walker);
                    model.push(r, &mut walker);
                }
            }
            assert_eq!(
                walker.pushed_cost(),
                pushed(&model, &refs).pushed_cost(),
                "walked state equals freshly built state"
            );
        }
    }

    #[test]
    fn completion_bound_is_admissible_for_open_terms() {
        let (t, cat) = evaluator_tree();
        let model = CostModel::new(&t, &cat);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = model.make_scratch();
        for _ in 0..200 {
            // Random prefix that leaves term `open` partially scheduled.
            let open = rng.gen_range(0..t.num_terms());
            let mut prefix: Vec<LeafRef> = Vec::new();
            let mut rest: Vec<LeafRef> = Vec::new();
            for (i, term) in t.terms().iter().enumerate() {
                let mut refs: Vec<LeafRef> = (0..term.len()).map(|j| LeafRef::new(i, j)).collect();
                refs.shuffle(&mut rng);
                if i == open {
                    let keep = rng.gen_range(0..term.len());
                    rest = refs.split_off(keep);
                    prefix.extend(refs);
                } else if rng.gen_bool(0.5) {
                    prefix.extend(refs);
                }
            }
            // schedule prefix terms first (depth-first-ish), open last
            model.freeze_prefix(&prefix, &mut scratch);
            let bound = model.completion_lower_bound(open, &rest, &mut scratch);
            // true cost of completing the open term, any order of `rest`
            let mut true_cost = 0.0;
            for &r in &rest {
                true_cost += model.push(r, &mut scratch);
            }
            assert!(
                bound <= true_cost + 1e-9,
                "bound {bound} exceeds true completion {true_cost}"
            );
        }
    }

    #[test]
    fn accepts_more_than_64_terms() {
        // No term limit: 65 single-leaf terms on one stream push, peek
        // and pop like any other tree.
        let terms: Vec<Vec<Leaf>> = (0..65).map(|_| vec![leaf(0, 1, 0.5)]).collect();
        let t = DnfTree::from_leaves(terms).unwrap();
        let cat = StreamCatalog::unit(1);
        let model = CostModel::new(&t, &cat);
        let s = DnfSchedule::declaration_order(&t);
        let mut scratch = pushed(&model, s.order());
        let literal = dnf_eval::expected_cost(&t, &cat, &s);
        assert!((scratch.pushed_cost() - literal).abs() < 1e-12);
        let last = model.pop(&mut scratch);
        assert_eq!(last, LeafRef::new(64, 0));
        let peeked = model.peek(last, &scratch);
        assert_eq!(model.push(last, &mut scratch), peeked);
    }
}
