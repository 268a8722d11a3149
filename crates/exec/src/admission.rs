//! Admission control: which due queries actually run this tick?
//!
//! A serving device has an energy envelope; evaluating every due query
//! every tick can exceed it. An [`AdmissionPolicy`] sees the tick's due
//! queries plus an [`AdmissionCtx`] (weights and *worst-case* pull
//! costs) and splits them into admitted / deferred / shed.
//!
//! The budgeted policy reasons in worst-case energy, not expected
//! energy, so its guarantee is unconditional: within one tick all
//! windows end at the same timestamp, so under shared execution the
//! items pulled on stream `k` never exceed the widest admitted window
//! on `k` — the admitted set's measured energy is bounded by
//! `sum_k c(k) * max_q w_q(k)`, which the policy keeps under budget.
//! (Under isolated execution the bound is additive per query instead;
//! the context knows which execution mode is being served.)

use paotr_core::stream::StreamId;

/// What the policy may look at: per-query weights, per-query per-stream
/// maximum windows, per-stream item costs, request ages, and the
/// execution mode.
#[derive(Debug, Clone)]
pub struct AdmissionCtx<'a> {
    /// Per-query weights (workload order).
    pub weights: &'a [f64],
    /// Per-query maximum window on every stream (catalog-indexed).
    pub windows: &'a [Vec<u32>],
    /// Per-stream per-item costs.
    pub costs: &'a [f64],
    /// Tick on which each query's pending request first arrived (only
    /// meaningful for queries in the due set). Deferred requests keep
    /// their original arrival tick, so equal-weight ties resolve
    /// oldest-request-first instead of by workload index — without this
    /// a request could starve behind an endless run of equal-weight
    /// fresh arrivals with lower indices, and soak runs under churn
    /// would not be reproducible across registries that number their
    /// queries differently.
    pub pending_since: &'a [u64],
    /// True when admitted queries share one device memory per tick
    /// (joint plans); false for the isolated independent baseline.
    pub shared: bool,
    /// Worst-case multiplier for fault-injected serving: with up to
    /// `a` sensor contacts per leaf (retries are priced as pulls), a
    /// stream's tick spend is bounded by `a` times its widest admitted
    /// window, so admission scales every worst case by this factor.
    /// `1.0` for fault-free runs.
    pub retry_factor: f64,
}

impl AdmissionCtx<'_> {
    /// Worst-case energy of query `q` run against empty memory.
    pub(crate) fn worst_case_query(&self, q: usize) -> f64 {
        let base: f64 = self.windows[q]
            .iter()
            .zip(self.costs)
            .map(|(&w, c)| f64::from(w) * c)
            .sum();
        base * self.retry_factor
    }

    /// Worst-case energy *added* by admitting `q` on top of an admitted
    /// set whose per-stream window maxima are `acc`. Under shared
    /// execution only the window excess beyond the current maxima can
    /// cost anything; under isolated execution each query repays its
    /// full worst case.
    pub(crate) fn marginal_cost(&self, acc: &[u32], q: usize) -> f64 {
        if !self.shared {
            return self.worst_case_query(q);
        }
        let base: f64 = self.windows[q]
            .iter()
            .zip(acc)
            .zip(self.costs)
            .map(|((&w, &have), c)| f64::from(w.saturating_sub(have)) * c)
            .sum();
        base * self.retry_factor
    }

    /// Folds `q`'s windows into the admitted set's per-stream maxima.
    pub(crate) fn absorb(&self, acc: &mut [u32], q: usize) {
        for (a, &w) in acc.iter_mut().zip(&self.windows[q]) {
            *a = (*a).max(w);
        }
    }

    /// Worst-case energy of a whole admitted set (used by reports; the
    /// policies build it incrementally via `AdmissionCtx::marginal_cost`).
    pub fn worst_case_set(&self, admitted: &[usize]) -> f64 {
        if !self.shared {
            return admitted.iter().map(|&q| self.worst_case_query(q)).sum();
        }
        let n = self.costs.len();
        let base: f64 = (0..n)
            .map(|k| {
                let w = admitted
                    .iter()
                    .map(|&q| self.windows[q][k])
                    .max()
                    .unwrap_or(0);
                f64::from(w) * self.costs[k]
            })
            .sum();
        base * self.retry_factor
    }

    /// Convenience: per-query windows from concrete sim queries.
    pub(crate) fn query_windows(
        queries: &[stream_sim::SimQuery],
        n_streams: usize,
    ) -> Vec<Vec<u32>> {
        queries.iter().map(|q| q.max_windows(n_streams)).collect()
    }

    /// Convenience: per-stream costs from a catalog.
    pub fn stream_costs(catalog: &paotr_core::stream::StreamCatalog) -> Vec<f64> {
        (0..catalog.len())
            .map(|k| catalog.cost(StreamId(k)))
            .collect()
    }
}

/// One tick's admission decision. The three lists partition the due
/// set; each is sorted by workload index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Admission {
    /// Queries that run this tick.
    pub admitted: Vec<usize>,
    /// Queries pushed to the next tick (request kept pending).
    pub deferred: Vec<usize>,
    /// Queries dropped outright (request discarded).
    pub shed: Vec<usize>,
}

/// A per-tick admission strategy.
pub trait AdmissionPolicy {
    /// Stable kebab-case name for reports (`accept-all`,
    /// `energy-budget`).
    fn name(&self) -> &str;

    /// Splits the tick's due queries (sorted by workload index) into
    /// admitted / deferred / shed.
    fn admit(&mut self, tick: u64, due: &[usize], ctx: &AdmissionCtx<'_>) -> Admission;
}

/// The no-admission baseline: everything due runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl AdmissionPolicy for AcceptAll {
    fn name(&self) -> &str {
        "accept-all"
    }

    fn admit(&mut self, _tick: u64, due: &[usize], _ctx: &AdmissionCtx<'_>) -> Admission {
        Admission {
            admitted: due.to_vec(),
            ..Admission::default()
        }
    }
}

/// Energy-budget admission: admit queries heaviest-weight-first while
/// the admitted set's worst-case tick energy stays under the budget;
/// the rest are shed (default) or deferred to the next tick.
#[derive(Debug, Clone, Copy)]
pub struct EnergyBudget {
    /// Worst-case energy allowed per tick.
    pub budget_per_tick: f64,
    /// Keep rejected requests pending (`true`) instead of dropping
    /// them.
    pub defer: bool,
}

impl EnergyBudget {
    /// A shedding budget policy.
    pub fn shedding(budget_per_tick: f64) -> EnergyBudget {
        EnergyBudget {
            budget_per_tick,
            defer: false,
        }
    }

    /// A deferring budget policy.
    pub fn deferring(budget_per_tick: f64) -> EnergyBudget {
        EnergyBudget {
            budget_per_tick,
            defer: true,
        }
    }
}

impl AdmissionPolicy for EnergyBudget {
    fn name(&self) -> &str {
        if self.defer {
            "energy-budget-defer"
        } else {
            "energy-budget"
        }
    }

    fn admit(&mut self, _tick: u64, due: &[usize], ctx: &AdmissionCtx<'_>) -> Admission {
        // Heaviest weight first; equal weights rank oldest pending
        // request first (insertion tick, so deferred requests cannot
        // starve behind fresh equal-weight arrivals), then workload
        // index so the decision is fully deterministic.
        let mut ranked: Vec<usize> = due.to_vec();
        ranked.sort_by(|&a, &b| {
            ctx.weights[b]
                .total_cmp(&ctx.weights[a])
                .then(ctx.pending_since[a].cmp(&ctx.pending_since[b]))
                .then(a.cmp(&b))
        });
        let mut acc = vec![0u32; ctx.costs.len()];
        let mut used = 0.0f64;
        let mut out = Admission::default();
        for q in ranked {
            let marginal = ctx.marginal_cost(&acc, q);
            if used + marginal <= self.budget_per_tick + 1e-9 {
                used += marginal;
                ctx.absorb(&mut acc, q);
                out.admitted.push(q);
            } else if self.defer {
                out.deferred.push(q);
            } else {
                out.shed.push(q);
            }
        }
        out.admitted.sort_unstable();
        out.deferred.sort_unstable();
        out.shed.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO_SINCE: [u64; 8] = [0; 8];

    fn ctx<'a>(
        weights: &'a [f64],
        windows: &'a [Vec<u32>],
        costs: &'a [f64],
        shared: bool,
    ) -> AdmissionCtx<'a> {
        AdmissionCtx {
            weights,
            windows,
            costs,
            pending_since: &ZERO_SINCE[..weights.len()],
            shared,
            retry_factor: 1.0,
        }
    }

    #[test]
    fn accept_all_admits_everything() {
        let weights = [1.0, 2.0];
        let windows = vec![vec![3, 0], vec![0, 4]];
        let costs = [1.0, 1.0];
        let c = ctx(&weights, &windows, &costs, true);
        let a = AcceptAll.admit(0, &[0, 1], &c);
        assert_eq!(a.admitted, vec![0, 1]);
        assert!(a.deferred.is_empty() && a.shed.is_empty());
    }

    #[test]
    fn budget_sheds_low_weight_queries_first() {
        // Three queries on one stream of cost 1: windows 5, 5, 5;
        // shared worst case of any subset is 5. Budget 5 admits all —
        // coalescing makes the set free beyond the first.
        let weights = [1.0, 3.0, 2.0];
        let windows = vec![vec![5], vec![5], vec![5]];
        let costs = [1.0];
        let c = ctx(&weights, &windows, &costs, true);
        let a = EnergyBudget::shedding(5.0).admit(0, &[0, 1, 2], &c);
        assert_eq!(a.admitted, vec![0, 1, 2]);

        // Isolated execution repays per query: only the two heaviest
        // fit a budget of 10.
        let c = ctx(&weights, &windows, &costs, false);
        let a = EnergyBudget::shedding(10.0).admit(0, &[0, 1, 2], &c);
        assert_eq!(a.admitted, vec![1, 2], "heaviest two by weight");
        assert_eq!(a.shed, vec![0]);
    }

    #[test]
    fn zero_budget_sheds_or_defers_everything() {
        let weights = [1.0, 1.0];
        let windows = vec![vec![2, 0], vec![0, 1]];
        let costs = [1.0, 4.0];
        let c = ctx(&weights, &windows, &costs, true);
        let a = EnergyBudget::shedding(0.0).admit(0, &[0, 1], &c);
        assert!(a.admitted.is_empty());
        assert_eq!(a.shed, vec![0, 1]);
        let a = EnergyBudget::deferring(0.0).admit(0, &[0, 1], &c);
        assert!(a.admitted.is_empty());
        assert_eq!(a.deferred, vec![0, 1]);
    }

    #[test]
    fn zero_cost_streams_fit_any_budget() {
        let weights = [1.0];
        let windows = vec![vec![9]];
        let costs = [0.0];
        let c = ctx(&weights, &windows, &costs, true);
        let a = EnergyBudget::shedding(0.0).admit(0, &[0], &c);
        assert_eq!(a.admitted, vec![0], "free pulls fit a zero budget");
    }

    /// Regression (PR 5 follow-on): among equal-weight due requests the
    /// oldest pending one is admitted first. Before the explicit
    /// insertion-tick tie-break, a request deferred for many ticks
    /// could lose every round to a fresh equal-weight arrival with a
    /// lower workload index.
    #[test]
    fn equal_weight_ties_admit_the_oldest_pending_request_first() {
        let weights = [1.0, 1.0, 1.0];
        // One stream, every query needs the same 5-item window; isolated
        // execution so a budget of 5 admits exactly one query per tick.
        let windows = vec![vec![5], vec![5], vec![5]];
        let costs = [1.0];
        // q2 has been pending since tick 0 (deferred earlier); q0 just
        // arrived on tick 1. Index order would pick q0 — the tie-break
        // must pick the older q2.
        let pending_since = [1u64, 1, 0];
        let c = AdmissionCtx {
            weights: &weights,
            windows: &windows,
            costs: &costs,
            pending_since: &pending_since,
            shared: false,
            retry_factor: 1.0,
        };
        let a = EnergyBudget::deferring(5.0).admit(1, &[0, 2], &c);
        assert_eq!(a.admitted, vec![2], "oldest pending request wins the tie");
        assert_eq!(a.deferred, vec![0]);
        // Equal ages fall back to workload index.
        let a = EnergyBudget::deferring(5.0).admit(1, &[0, 1], &c);
        assert_eq!(a.admitted, vec![0]);
        assert_eq!(a.deferred, vec![1]);
    }

    #[test]
    fn retry_factor_scales_every_worst_case() {
        let weights = [1.0];
        let windows = vec![vec![5]];
        let costs = [1.0];
        let mut c = ctx(&weights, &windows, &costs, true);
        c.retry_factor = 3.0;
        assert_eq!(c.worst_case_query(0), 15.0);
        assert_eq!(c.worst_case_set(&[0]), 15.0);
        assert_eq!(c.marginal_cost(&[0u32], 0), 15.0);
        let a = EnergyBudget::shedding(5.0).admit(0, &[0], &c);
        assert!(
            a.admitted.is_empty(),
            "a 5-item window with 3 attempts cannot fit a budget of 5"
        );
    }

    #[test]
    fn marginal_and_set_worst_cases_agree() {
        let weights = [1.0, 1.0, 1.0];
        let windows = vec![vec![5, 0], vec![3, 2], vec![6, 1]];
        let costs = [2.0, 1.0];
        for shared in [true, false] {
            let c = ctx(&weights, &windows, &costs, shared);
            let mut acc = vec![0u32; 2];
            let mut used = 0.0;
            for q in 0..3 {
                used += c.marginal_cost(&acc, q);
                c.absorb(&mut acc, q);
            }
            let direct = c.worst_case_set(&[0, 1, 2]);
            assert!(
                (used - direct).abs() < 1e-12,
                "shared={shared}: {used} vs {direct}"
            );
        }
    }
}
