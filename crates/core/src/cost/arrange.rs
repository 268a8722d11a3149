//! The arrangement term: maintain-vs-repull crossover.
//!
//! A maintained arrangement (see `stream_sim::ArrangementStore`) turns a
//! stream's recurring window pulls into incremental maintenance: after
//! a one-time fill of `window` items, each serving tick fetches only
//! the `delta` items produced since the last tick, and *every* reader
//! of the stream is served from the maintained ring for free. Whether
//! that trade pays depends on three quantities:
//!
//! * **re-pull traffic** — the expected items per tick the stream
//!   costs *without* the arrangement. Under shared execution this is
//!   the expected widest window among the readers that actually touch
//!   the stream in a tick (short-circuiting means a reader's leaves
//!   are only sometimes reached), so it grows with the reader count;
//! * **tick rate** — `delta`, the items produced between consecutive
//!   serving ticks: maintenance pays `min(delta, window)` per tick
//!   (a gap wider than the window just rebuilds the ring);
//! * **fill amortization** — the one-time `window`-item fill spread
//!   over the `horizon` ticks the arrangement is expected to live.
//!
//! [`ArrangeTerm`] packages those into one comparable pair of per-tick
//! item rates; joint planners materialize a stream exactly when
//! [`ArrangeTerm::should_materialize`] holds. Item rates (not energies)
//! are compared because both sides price the same stream: the
//! per-item cost `c(S_k)` cancels.

/// One stream's maintain-vs-repull decision input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrangeTerm {
    /// Widest window any reader needs on the stream (the ring size).
    pub window: u32,
    /// Queries reading the stream under the joint plan.
    pub readers: u32,
    /// Items the stream produces between consecutive serving ticks.
    pub delta: f64,
    /// Expected items per tick the stream costs without an arrangement
    /// (under the joint plan being priced — shared pulls already
    /// coalesced).
    pub repull_items: f64,
    /// Ticks the one-time fill is amortized over (the arrangement's
    /// expected lifetime; recurring serving uses a large horizon).
    pub horizon: f64,
}

/// Default fill-amortization horizon: long-running serving keeps an
/// arrangement for many ticks, so the fill is a rounding term. Kept
/// finite so one-shot workloads (horizon explicitly 1) still price the
/// fill at full weight.
pub const DEFAULT_HORIZON: f64 = 256.0;

impl ArrangeTerm {
    /// The term under the default serving horizon.
    pub fn new(window: u32, readers: u32, delta: f64, repull_items: f64) -> ArrangeTerm {
        ArrangeTerm {
            window,
            readers,
            delta,
            repull_items,
            horizon: DEFAULT_HORIZON,
        }
    }

    /// The analytic re-pull rate when `readers` independent readers
    /// each touch the stream with probability `access_prob` per tick,
    /// all at window `window`: one shared pull of the window whenever
    /// at least one reader accesses. The closed form the crossover
    /// proptest pins against brute-force simulation.
    pub fn independent_readers(
        window: u32,
        readers: u32,
        access_prob: f64,
        delta: f64,
        horizon: f64,
    ) -> ArrangeTerm {
        assert!(
            (0.0..=1.0).contains(&access_prob),
            "access probability must be in [0, 1]"
        );
        let p_any = 1.0 - (1.0 - access_prob).powi(readers as i32);
        ArrangeTerm {
            window,
            readers,
            delta,
            repull_items: f64::from(window) * p_any,
            horizon,
        }
    }

    /// Expected items per tick maintenance costs: the incremental
    /// append (capped at a ring rebuild) plus the amortized fill.
    /// Infinite with no readers — an unread arrangement can never pay.
    pub(crate) fn maintain_items(&self) -> f64 {
        if self.readers == 0 {
            return f64::INFINITY;
        }
        let incremental = self.delta.min(f64::from(self.window));
        incremental + f64::from(self.window) / self.horizon.max(1.0)
    }

    /// Expected items per tick the arrangement saves (negative when
    /// maintaining costs more than re-pulling).
    pub fn savings(&self) -> f64 {
        self.repull_items - self.maintain_items()
    }

    /// True when maintaining the stream beats re-pulling it.
    pub fn should_materialize(&self) -> bool {
        self.savings() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_wide_windows_materialize() {
        // 8 readers re-pulling a 16-item window almost every tick vs.
        // one new item per tick: maintenance wins by an order of
        // magnitude.
        let t = ArrangeTerm::independent_readers(16, 8, 0.9, 1.0, 256.0);
        assert!(t.repull_items > 15.9);
        assert!(t.maintain_items() < 1.1);
        assert!(t.should_materialize());
    }

    #[test]
    fn cold_streams_stay_on_repull() {
        // One reader touching the stream 5% of ticks: re-pull costs
        // 0.05 * 4 items per tick, maintenance at least 1.
        let t = ArrangeTerm::independent_readers(4, 1, 0.05, 1.0, 256.0);
        assert!(t.repull_items < 0.25);
        assert!(!t.should_materialize());
        assert!(t.savings() < 0.0);
    }

    #[test]
    fn fast_ticking_streams_cap_maintenance_at_a_rebuild() {
        // 10 items between serving ticks on a 4-item window: maintenance
        // rebuilds the ring (4 items), never pays the full 10.
        let t = ArrangeTerm::new(4, 2, 10.0, 3.9);
        assert!((t.maintain_items() - (4.0 + 4.0 / 256.0)).abs() < 1e-12);
        assert!(!t.should_materialize(), "3.9 re-pulled < 4.015 maintained");
    }

    #[test]
    fn short_horizons_price_the_fill_at_full_weight() {
        // Same traffic, horizon 1: the whole fill lands on one tick.
        let long = ArrangeTerm::independent_readers(8, 4, 0.8, 1.0, 256.0);
        let short = ArrangeTerm {
            horizon: 1.0,
            ..long
        };
        assert!(long.should_materialize());
        assert!(
            !short.should_materialize(),
            "8-item fill per tick never pays"
        );
        assert!(short.maintain_items() > long.maintain_items());
    }

    #[test]
    fn zero_readers_never_materialize() {
        let t = ArrangeTerm::new(8, 0, 1.0, 100.0);
        assert!(t.maintain_items().is_infinite());
        assert!(!t.should_materialize());
    }

    #[test]
    fn more_readers_raise_the_repull_side_only() {
        let few = ArrangeTerm::independent_readers(8, 1, 0.1, 1.0, 256.0);
        let many = ArrangeTerm::independent_readers(8, 16, 0.1, 1.0, 256.0);
        assert!(many.repull_items > few.repull_items);
        assert_eq!(many.maintain_items(), few.maintain_items());
        assert!(!few.should_materialize());
        assert!(many.should_materialize());
    }
}
