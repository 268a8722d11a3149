//! The compiled, allocation-free cost kernel.
//!
//! [`CostModel`] compiles one `(DnfTree, StreamCatalog)` pair into flat
//! arena arrays — leaf probabilities, window sizes and *local* stream
//! ids (only the streams the tree actually touches), term boundaries as
//! index ranges into one backing `Vec` — so that evaluating a schedule
//! costs no heap allocation and no work proportional to the catalog
//! size. A reusable [`EvalScratch`] holds every per-call buffer; after
//! the first evaluation of a given model, repeated calls are pure array
//! arithmetic.
//!
//! Semantics are identical to the literal Proposition 2 transcription in
//! [`crate::cost::dnf_eval`] (property tests pin the two to ≤ 1e-9
//! relative error); this kernel exists because every planner — the
//! greedy multi-query loops above all — bottoms out in thousands of
//! schedule evaluations per planning call. The catalog-size independence
//! matters in multi-query serving: a 128-query workload may catalog
//! hundreds of streams while each query reads a handful.
//!
//! The scratch also carries the one *incremental* Proposition-2 state
//! ([`CostModel::push`] / [`CostModel::pop`] / [`CostModel::peek`] /
//! [`CostModel::completion_lower_bound`]): per `(stream, item)` bucket,
//! factor 1 is the product of `1 - reach` over the bucket's members in
//! push order and factor 2 the product of `1 - success` over completed
//! terms without a member there, so a leaf's marginal cost is an
//! `O(window)` sum. The branch-and-bound walks it, the dynamic
//! heuristics extend it term by term, and every planner prices its
//! final schedule with it.

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

/// Reusable per-evaluation buffers for a [`CostModel`]. One scratch per
/// thread; sized on first use and only regrown when bound to a larger
/// model. It also holds the incremental pushed-prefix state of
/// [`CostModel::push`], which any other evaluation on it discards.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Schedule position of each flat leaf.
    pos: Vec<u32>,
    /// Scheduled-leaf count per term (partial-order completion test).
    seen: Vec<u32>,
    /// Items acquired per local stream (isolated term evaluation).
    acquired: Vec<u32>,
    /// Reach probability of each flat leaf within its term.
    eval_prob: Vec<f64>,
    /// Running per-term prefix probability (build-time temporary).
    running: Vec<f64>,
    /// Position after which each term is fully scheduled.
    completed_pos: Vec<u32>,
    /// Items of each (term, local stream) already required by earlier
    /// same-term leaves (the first-case test of Proposition 2).
    covered: Vec<u32>,
    /// Member arena bucketed by `(local stream, item)`: bucket `b` holds
    /// `member_*[bucket_start[b]..bucket_start[b + 1]]`.
    bucket_start: Vec<u32>,
    cursor: Vec<u32>,
    member_term: Vec<u32>,
    member_pos: Vec<u32>,
    member_eval: Vec<f64>,
    /// Term bitmask per bucket (valid when the model has ≤ 64 terms).
    bucket_mask: Vec<u64>,
    /// Expected items pulled per *local* stream — the evaluation output.
    items: Vec<f64>,
    /// Pushed-prefix factor 1 per bucket: `Π (1 - reach)` over the
    /// bucket's members, in push order (see [`CostModel::push`]). The
    /// pushed state also reuses `running` (reach per term), `seen` and
    /// `covered`: term `a` has a member in bucket `(k, t)` exactly when
    /// `t <= covered[a][k]`.
    bucket_f1: Vec<f64>,
    /// Pushed-prefix factor 2 per bucket: `Π (1 - success)` over
    /// completed terms without a member in the bucket, in completion
    /// order.
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

    /// Expected cost of `schedule` — Proposition 2, arena kernel.
    pub fn expected_cost(&self, schedule: &DnfSchedule, scratch: &mut EvalScratch) -> f64 {
        self.expected_cost_with_coverage(schedule.order(), &[], scratch)
    }

    /// Expected cost of the (possibly partial) schedule `order` under
    /// *prior coverage* (see
    /// [`crate::cost::dnf_eval::expected_items_with_coverage`]).
    /// `coverage` is indexed by global stream id and may be empty (no
    /// coverage). After the call, [`CostModel::items_per_stream`] and
    /// [`CostModel::add_items_to`] expose the per-stream item
    /// decomposition of the returned cost.
    ///
    /// `order` may be any *prefix* of a schedule — a subset of the
    /// model's leaves, each at most once. Terms with unscheduled leaves
    /// are treated as never completing within the prefix, exactly like
    /// [`CostModel::push`]ing the same prefix.
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
        self.appended_cost(order, &[], coverage, scratch)
    }

    /// Expected cost of `order` when the streams flagged in `arranged`
    /// (catalog-indexed; may be empty) are served from maintained
    /// arrangements: their pulls are free — the maintenance that pays
    /// for them is priced separately, per stream, by
    /// [`crate::cost::arrange::ArrangeTerm`] — while unarranged streams
    /// keep their full re-pull cost. Implemented as full prior coverage
    /// on the arranged streams, so the short-circuiting expectation
    /// stays exact.
    pub fn expected_cost_arranged(
        &self,
        order: &[LeafRef],
        arranged: &[bool],
        scratch: &mut EvalScratch,
    ) -> f64 {
        assert!(
            arranged.is_empty() || arranged.len() == self.catalog_len,
            "arranged must be empty or have one entry per catalog stream"
        );
        if arranged.iter().all(|&a| !a) {
            return self.expected_cost_with_coverage(order, &[], scratch);
        }
        let coverage: Vec<f64> = (0..self.catalog_len)
            .map(|k| {
                if arranged[k] {
                    f64::from(self.max_window(StreamId(k)))
                } else {
                    0.0
                }
            })
            .collect();
        self.expected_cost_with_coverage(order, &coverage, scratch)
    }

    /// Expected cost of the (possibly partial) schedule `prefix ⧺ tail`
    /// without materializing the concatenation — the *schedule-delta*
    /// primitive of the dynamic heuristics: evaluating
    /// `appended_cost(prefix, candidate, ..) - appended_cost(prefix, &[], ..)`
    /// prices a candidate extension with zero allocation.
    pub fn appended_cost(
        &self,
        prefix: &[LeafRef],
        tail: &[LeafRef],
        coverage: &[f64],
        scratch: &mut EvalScratch,
    ) -> f64 {
        assert!(
            coverage.is_empty() || coverage.len() == self.catalog_len,
            "coverage must be empty or have one entry per catalog stream"
        );
        debug_assert!(
            prefix.len() + tail.len() <= self.num_leaves,
            "schedule uses each leaf at most once"
        );
        #[cfg(debug_assertions)]
        {
            // A repeated leaf would double-count `seen` and silently
            // mis-classify its term as completed — catch it loudly.
            let mut used = vec![false; self.num_leaves];
            for &r in prefix.iter().chain(tail) {
                let flat = self.flat(r);
                assert!(!used[flat], "leaf {r:?} appears twice in the order");
                used[flat] = true;
            }
        }
        scratch.reserve(self);
        let order = || prefix.iter().chain(tail);

        let n_terms = self.n_terms;
        let n_local = self.n_local;
        let max_d = self.max_d;
        let n_buckets = n_local * max_d;
        let use_masks = n_terms <= 64;

        // Pass 1: positions, reach probabilities, completion positions.
        for r in &mut scratch.running[..n_terms] {
            *r = 1.0;
        }
        for c in &mut scratch.completed_pos[..n_terms] {
            *c = 0;
        }
        for s in &mut scratch.seen[..n_terms] {
            *s = 0;
        }
        for (p, &r) in order().enumerate() {
            let flat = self.flat(r);
            scratch.pos[flat] = p as u32;
            scratch.eval_prob[flat] = scratch.running[r.term];
            scratch.running[r.term] *= self.leaf_prob[flat];
            scratch.seen[r.term] += 1;
            if scratch.completed_pos[r.term] < p as u32 {
                scratch.completed_pos[r.term] = p as u32;
            }
        }
        // A term with unscheduled leaves never completes within this
        // (possibly partial) order: push its completion past any
        // position so factor 2 ignores it.
        for t in 0..n_terms {
            let len = (self.term_start[t + 1] - self.term_start[t]) as usize;
            if (scratch.seen[t] as usize) < len {
                scratch.completed_pos[t] = u32::MAX;
            }
        }

        // Pass 2: count L_{k,t} members per bucket. Scanning the global
        // order visits each term's leaves in schedule order, which is
        // exactly the per-term walk the literal evaluator sorts for.
        for c in &mut scratch.covered[..n_terms * n_local] {
            *c = 0;
        }
        for b in &mut scratch.bucket_start[..n_buckets + 1] {
            *b = 0;
        }
        for &r in order() {
            let flat = self.flat(r);
            let k = self.leaf_stream[flat] as usize;
            let d = self.leaf_items[flat];
            let cov = &mut scratch.covered[r.term * n_local + k];
            for t in (*cov + 1)..=d.max(*cov) {
                // count into the slot *after* the bucket: prefix-summing
                // turns counts into start offsets in place.
                scratch.bucket_start[k * max_d + t as usize] += 1;
            }
            *cov = (*cov).max(d);
        }
        // Counts were staged one slot after their bucket, so an
        // *inclusive* prefix sum leaves `bucket_start[b]` = first slot of
        // bucket `b` and `bucket_start[b + 1]` = one past its last.
        let mut acc = 0u32;
        for b in &mut scratch.bucket_start[..n_buckets + 1] {
            acc += *b;
            *b = acc;
        }
        let n_members = acc as usize;

        // Pass 3: fill the member arena.
        scratch.cursor[..n_buckets].copy_from_slice(&scratch.bucket_start[..n_buckets]);
        for c in &mut scratch.covered[..n_terms * n_local] {
            *c = 0;
        }
        if use_masks {
            for m in &mut scratch.bucket_mask[..n_buckets] {
                *m = 0;
            }
        }
        scratch.grow_members(n_members);
        for &r in order() {
            let flat = self.flat(r);
            let k = self.leaf_stream[flat] as usize;
            let d = self.leaf_items[flat];
            let cov = &mut scratch.covered[r.term * n_local + k];
            for t in (*cov + 1)..=d.max(*cov) {
                let b = k * max_d + (t - 1) as usize;
                let slot = scratch.cursor[b] as usize;
                scratch.cursor[b] += 1;
                scratch.member_term[slot] = r.term as u32;
                scratch.member_pos[slot] = scratch.pos[flat];
                scratch.member_eval[slot] = scratch.eval_prob[flat];
                if use_masks {
                    scratch.bucket_mask[b] |= 1u64 << (r.term as u32 & 63);
                }
            }
            *cov = (*cov).max(d);
        }

        // Main loop: sum C_{i,j,t} over leaves and items, per stream.
        for i in &mut scratch.items[..n_local] {
            *i = 0.0;
        }
        for &r in order() {
            let flat = self.flat(r);
            let k = self.leaf_stream[flat] as usize;
            let my_pos = scratch.pos[flat];
            let f3 = scratch.eval_prob[flat];
            let cov_k = if coverage.is_empty() {
                0.0
            } else {
                coverage[self.global_of_local[k] as usize]
            };
            let mut leaf_items_out = 0.0;
            for t in 1..=self.leaf_items[flat] {
                let need = (f64::from(t) - cov_k).clamp(0.0, 1.0);
                if need == 0.0 {
                    continue;
                }
                let b = k * max_d + (t - 1) as usize;
                let lo = scratch.bucket_start[b] as usize;
                let hi = scratch.bucket_start[b + 1] as usize;

                // First case of Proposition 2: a same-term member earlier
                // in the schedule makes the item free.
                let mut same_term_earlier = false;
                let mut f1 = 1.0;
                for m in lo..hi {
                    if scratch.member_pos[m] < my_pos {
                        if scratch.member_term[m] as usize == r.term {
                            same_term_earlier = true;
                            break;
                        }
                        f1 *= 1.0 - scratch.member_eval[m];
                    }
                }
                if same_term_earlier {
                    continue;
                }
                // Factor 2: no completed AND node without a member in
                // L_{k,t} evaluated to TRUE.
                let mut f2 = 1.0;
                if use_masks {
                    let mask = scratch.bucket_mask[b];
                    for a in 0..n_terms {
                        if scratch.completed_pos[a] < my_pos && mask >> (a & 63) & 1 == 0 {
                            f2 *= 1.0 - self.term_success[a];
                        }
                    }
                } else {
                    for a in 0..n_terms {
                        if scratch.completed_pos[a] >= my_pos {
                            continue;
                        }
                        let in_set = (lo..hi).any(|m| scratch.member_term[m] as usize == a);
                        if !in_set {
                            f2 *= 1.0 - self.term_success[a];
                        }
                    }
                }
                leaf_items_out += f1 * f2 * need;
            }
            scratch.items[k] += leaf_items_out * f3;
        }

        let mut cost = 0.0;
        for k in 0..n_local {
            cost += scratch.items[k] * self.unit_cost[k];
        }
        cost
    }

    /// Expected cost of many candidate orders over this one compiled
    /// tree with one scratch — the batch shape every heuristic planner's
    /// inner loop reduces to. Each order may be partial (see
    /// [`CostModel::expected_cost_with_coverage`]); results are returned
    /// in input order. Equivalent to (but allocation-free over) one
    /// [`CostModel::expected_cost_with_coverage`] call per order.
    pub fn expected_cost_batch(
        &self,
        orders: &[&[LeafRef]],
        coverage: &[f64],
        scratch: &mut EvalScratch,
    ) -> Vec<f64> {
        orders
            .iter()
            .map(|order| self.appended_cost(order, &[], coverage, scratch))
            .collect()
    }

    /// Resets the incremental state on `scratch` to `prefix` pushed in
    /// order (see [`CostModel::push`]) and returns the prefix's expected
    /// cost — the sum of the push marginals, which is also how every
    /// planner prices a finished schedule.
    pub fn freeze_prefix(&self, prefix: &[LeafRef], scratch: &mut EvalScratch) -> f64 {
        scratch.reserve_pushed(self);
        let n_buckets = self.n_local * self.max_d;
        scratch.running[..self.n_terms].fill(1.0);
        scratch.seen[..self.n_terms].fill(0);
        scratch.covered[..self.n_terms * self.n_local].fill(0);
        scratch.bucket_f1[..n_buckets].fill(1.0);
        scratch.bucket_f2[..n_buckets].fill(1.0);
        scratch.pushed_total = 0.0;
        scratch.undo.clear();
        scratch.undo_log.clear();
        for &r in prefix {
            self.push(r, scratch);
        }
        scratch.pushed_total
    }

    /// The marginal expected cost leaf `r` would add if pushed now,
    /// without mutating the state — `O(window)`.
    pub fn peek(&self, r: LeafRef, scratch: &EvalScratch) -> f64 {
        let flat = self.flat(r);
        let k = self.leaf_stream[flat] as usize;
        let cov = scratch.covered[r.term * self.n_local + k] as usize;
        let base = k * self.max_d;
        // Items up to `cov` are free (first case of Proposition 2); the
        // rest are priced by their bucket's two factors.
        let mut marginal = 0.0;
        for b in base + cov..base + cov.max(self.leaf_items[flat] as usize) {
            marginal += scratch.bucket_f1[b] * scratch.bucket_f2[b];
        }
        marginal * scratch.running[r.term] * self.unit_cost[k]
    }

    /// Appends leaf `r` to the pushed prefix on `scratch` (reset by
    /// [`CostModel::freeze_prefix`]) and returns its marginal expected
    /// cost. Any other evaluation on the same scratch discards the
    /// pushed state.
    pub fn push(&self, r: LeafRef, scratch: &mut EvalScratch) -> f64 {
        let marginal = self.peek(r, scratch);
        let flat = self.flat(r);
        let k = self.leaf_stream[flat] as usize;
        let d = self.leaf_items[flat];
        let ck = r.term * self.n_local + k;
        let cov = scratch.covered[ck];
        let reach = scratch.running[r.term];
        // The leaf joins every bucket above its term's coverage.
        let base = k * self.max_d;
        for b in base + cov as usize..base + cov.max(d) as usize {
            scratch.undo_log.push(scratch.bucket_f1[b]);
            scratch.bucket_f1[b] *= 1.0 - reach;
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
            for k in 0..self.n_local {
                let cov = scratch.covered[row + k] as usize;
                for t in 0..self.max_d {
                    let b = k * self.max_d + t;
                    scratch.undo_log.push(scratch.bucket_f2[b]);
                    if t >= cov {
                        scratch.bucket_f2[b] *= fail;
                    }
                }
            }
        }
        scratch.undo.push(Undo {
            leaf: r,
            total: scratch.pushed_total,
            reach,
            covered: cov,
            completed,
        });
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

    /// The per-stream item decomposition of the last evaluation run on
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

    /// Adds the last evaluation's per-stream items into a global,
    /// catalog-indexed accumulator (e.g. a coverage vector).
    pub fn add_items_to(&self, scratch: &EvalScratch, out: &mut [f64]) {
        for (k, &g) in self.global_of_local.iter().enumerate() {
            out[g as usize] += scratch.items[k];
        }
    }

    /// The last evaluation's items as a full catalog-indexed vector
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
        self.reserve_pushed(model);
        grow(&mut self.pos, model.num_leaves, 0);
        grow(&mut self.eval_prob, model.num_leaves, 0.0);
        grow(&mut self.completed_pos, model.n_terms, 0);
        grow(&mut self.bucket_start, n_buckets + 1, 0);
        grow(&mut self.cursor, n_buckets, 0);
        grow(&mut self.bucket_mask, n_buckets, 0);
        grow(&mut self.items, model.n_local, 0.0);
    }

    /// Grows the pushed-prefix state to fit `model` — only what
    /// [`CostModel::push`] touches, so pricing one schedule on a fresh
    /// scratch stays cheap.
    fn reserve_pushed(&mut self, model: &CostModel) {
        let n_buckets = model.n_local * model.max_d;
        grow(&mut self.seen, model.n_terms, 0);
        grow(&mut self.acquired, model.n_local, 0);
        grow(&mut self.running, model.n_terms, 1.0);
        grow(&mut self.covered, model.n_terms * model.n_local, 0);
        grow(&mut self.bucket_f1, n_buckets, 1.0);
        grow(&mut self.bucket_f2, n_buckets, 1.0);
    }

    fn grow_members(&mut self, n: usize) {
        grow(&mut self.member_term, n, 0);
        grow(&mut self.member_pos, n, 0);
        grow(&mut self.member_eval, n, 0.0);
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
    fn arranged_streams_cost_nothing_to_pull() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let s = DnfSchedule::declaration_order(&t);
        let full = model.expected_cost_arranged(s.order(), &[], &mut scratch);
        assert_eq!(full, model.expected_cost(&s, &mut scratch));
        // Arranging stream 0 removes exactly its item contribution.
        let arranged = model.expected_cost_arranged(s.order(), &[true, false, false], &mut scratch);
        model.expected_cost(&s, &mut scratch);
        let items0 = model
            .items_per_stream(&scratch)
            .find(|(k, _)| *k == StreamId(0))
            .map(|(_, i)| i)
            .unwrap();
        let expect = model.expected_cost(&s, &mut scratch) - items0 * 2.0;
        assert!((arranged - expect).abs() < 1e-12, "{arranged} vs {expect}");
        // Arranging everything makes evaluation free.
        let all = model.expected_cost_arranged(s.order(), &[true, true, true], &mut scratch);
        assert!(all.abs() < 1e-12, "{all}");
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
                let kernel = model.appended_cost(&refs[..cut], &[], &[], &mut scratch);
                assert!(
                    (kernel - pushed.pushed_cost()).abs() < 1e-12,
                    "prefix len {cut}: kernel {kernel} vs incremental {}",
                    pushed.pushed_cost()
                );
                if cut < refs.len() {
                    model.push(refs[cut], &mut pushed);
                }
            }
        }
    }

    #[test]
    fn appended_cost_equals_concatenated_evaluation() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let refs: Vec<LeafRef> = t.leaf_refs().collect();
        for cut in 0..=refs.len() {
            let (prefix, tail) = refs.split_at(cut);
            let chained = model.appended_cost(prefix, tail, &[], &mut scratch);
            let whole = model.expected_cost_with_coverage(&refs, &[], &mut scratch);
            assert_eq!(chained, whole, "cut {cut}");
        }
    }

    #[test]
    fn batch_evaluation_matches_one_at_a_time() {
        let (t, cat) = example();
        let model = CostModel::new(&t, &cat);
        let mut scratch = model.make_scratch();
        let mut rng = StdRng::seed_from_u64(23);
        let mut refs: Vec<LeafRef> = t.leaf_refs().collect();
        let orders: Vec<Vec<LeafRef>> = (0..8)
            .map(|_| {
                refs.shuffle(&mut rng);
                let cut = rng.gen_range(1..=refs.len());
                refs[..cut].to_vec()
            })
            .collect();
        let views: Vec<&[LeafRef]> = orders.iter().map(|o| o.as_slice()).collect();
        let coverage = vec![0.5, 0.0, 1.5];
        let batch = model.expected_cost_batch(&views, &coverage, &mut scratch);
        for (order, got) in orders.iter().zip(&batch) {
            let one = model.expected_cost_with_coverage(order, &coverage, &mut scratch);
            assert_eq!(one, *got);
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
            let kernel = model.appended_cost(&prefix, &[], &[], &mut probe);
            assert!((frozen_cost - kernel).abs() < 1e-12);
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
                let delta = model.appended_cost(&prefix, refs, &[], &mut probe) - kernel;
                assert!(
                    (fast - delta).abs() < 1e-12,
                    "prefix {placed} term {candidate}: frozen {fast} vs appended {delta}"
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
