//! # paotr-arrange — persistent shared stream arrangements
//!
//! Every execution path used to re-pull stream windows from scratch on
//! each tick: device memory is wiped between ticks, so a recurring
//! query pays its full window every time even though only one new item
//! exists per tick. This crate provides the alternative the shared
//!-arrangements literature argues for: **maintained state** shared by
//! all readers of a stream.
//!
//! An [`Arrangement`] is a ring buffer of the most recent items of one
//! stream at one window spec, kept current by *incremental maintenance*
//! (append the items produced since the last maintenance, evict expired
//! ones). An [`ArrangementStore`] holds the arrangements of one serving
//! runtime, keyed by `(stream, window)`, with:
//!
//! * **reader refcounts** — queries acquire an arrangement while they
//!   plan to read through it and release it when they unregister;
//! * **amortized maintenance** — one sensor contact per stream per tick
//!   covers every arrangement of that stream (the widest need wins, the
//!   rest absorb for free), so the per-reader cost shrinks as readers
//!   share;
//! * **grace-period eviction** — a zero-reader arrangement survives
//!   [`ArrangeConfig::grace`] maintenance ticks (so churny sessions
//!   re-acquire warm state) and is then dropped. During grace the
//!   arrangement is *not* maintained — it goes stale for free and
//!   catches up (at most one window of items) if re-acquired.
//!
//! The store is deliberately independent of any stream trait: callers
//! hand it newest-first item slices (the `recent(n)` shape every stream
//! source already serves), so the crate depends only on `paotr-core`
//! and slots under the scheduler the serving loop and the daemon share. Whether maintaining beats re-pulling for a given stream is
//! decided by the planner through `paotr_core::cost::arrange` — the
//! store only executes the decision.
#![forbid(unsafe_code)]

use paotr_core::stream::StreamId;
use std::collections::{BTreeMap, VecDeque};

/// Store-level knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrangeConfig {
    /// Maintenance ticks a zero-reader arrangement survives before
    /// eviction. `0` evicts at the first tick after the last release.
    pub grace: u64,
}

impl Default for ArrangeConfig {
    fn default() -> ArrangeConfig {
        ArrangeConfig { grace: 8 }
    }
}

/// One maintained window of one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrangement {
    stream: StreamId,
    window: u32,
    readers: u32,
    /// Maintained items, oldest first (back = newest); at most `window`.
    ring: VecDeque<f64>,
    /// Timestamp of the newest maintained item (0 = never maintained).
    maintained_to: u64,
    /// Store clock at which the reader count hit zero.
    zero_reader_since: Option<u64>,
}

impl Arrangement {
    fn new(stream: StreamId, window: u32) -> Arrangement {
        Arrangement {
            stream,
            window,
            readers: 0,
            ring: VecDeque::with_capacity(window as usize),
            maintained_to: 0,
            zero_reader_since: None,
        }
    }

    /// The arranged stream.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The window spec (ring capacity, in items).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Live readers.
    pub fn readers(&self) -> u32 {
        self.readers
    }

    /// Timestamp of the newest maintained item (0 = never maintained).
    pub fn maintained_to(&self) -> u64 {
        self.maintained_to
    }

    /// Store clock at which the arrangement lost its last reader
    /// (`None` while it has readers).
    pub fn zero_reader_since(&self) -> Option<u64> {
        self.zero_reader_since
    }

    /// Items a maintenance at stream time `now` must fetch to bring
    /// this arrangement current: the production gap, capped at the
    /// window (a long-stale ring is simply rebuilt from the newest
    /// `window` items).
    pub(crate) fn need(&self, now: u64) -> u32 {
        let gap = now.saturating_sub(self.maintained_to);
        gap.min(u64::from(self.window)) as u32
    }

    /// Absorbs `data` (newest first, covering at least [`need`]) at
    /// stream time `now`: appends the missing items, evicts expired
    /// ones. No-op when the gap exceeds the data provided (a stale
    /// free-rider waits for its own fetch).
    ///
    /// [`need`]: Arrangement::need
    fn absorb(&mut self, now: u64, data: &[f64]) {
        let take = self.need(now) as usize;
        if take == 0 || take > data.len() {
            return;
        }
        while self.ring.len() + take > self.window as usize {
            self.ring.pop_front();
        }
        for v in data[..take].iter().rev() {
            self.ring.push_back(*v);
        }
        self.maintained_to = now;
    }

    /// True when a `window`-item read at stream time `now` can be
    /// served from the ring.
    fn can_serve(&self, now: u64, window: u32) -> bool {
        self.window >= window && self.maintained_to == now && self.ring.len() >= window as usize
    }

    /// The newest `window` items, newest first. Caller checks
    /// [`can_serve`](Arrangement::can_serve).
    fn read(&self, window: u32) -> Vec<f64> {
        self.ring
            .iter()
            .rev()
            .take(window as usize)
            .copied()
            .collect()
    }
}

/// Lifetime counters of one store (snapshot- and telemetry-facing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrangeStats {
    /// Live arrangements.
    pub arrangements: usize,
    /// Reads served from maintained state.
    pub hits: u64,
    /// Items served from maintained state (items the device did not
    /// re-pull from a sensor).
    pub hit_items: u64,
    /// Items fetched by maintenance (the physical sensor contacts the
    /// arrangements cost).
    pub maintained_items: u64,
    /// Arrangements evicted after their grace period.
    pub evictions: u64,
}

/// Refcounted arrangements of one serving runtime, keyed by
/// `(stream, window)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrangementStore {
    config: ArrangeConfig,
    arrangements: BTreeMap<(usize, u32), Arrangement>,
    /// Maintenance ticks seen (drives grace-period eviction).
    clock: u64,
    hits: u64,
    hit_items: u64,
    maintained_items: u64,
    evictions: u64,
}

impl Default for ArrangementStore {
    fn default() -> ArrangementStore {
        ArrangementStore::new(ArrangeConfig::default())
    }
}

impl ArrangementStore {
    /// An empty store under `config`.
    pub fn new(config: ArrangeConfig) -> ArrangementStore {
        ArrangementStore {
            config,
            arrangements: BTreeMap::new(),
            clock: 0,
            hits: 0,
            hit_items: 0,
            maintained_items: 0,
            evictions: 0,
        }
    }

    /// Live arrangements.
    pub fn len(&self) -> usize {
        self.arrangements.len()
    }

    /// True when no arrangement is live.
    pub fn is_empty(&self) -> bool {
        self.arrangements.is_empty()
    }

    /// Maintenance ticks seen.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Lifetime counters plus the live arrangement count.
    pub fn stats(&self) -> ArrangeStats {
        ArrangeStats {
            arrangements: self.arrangements.len(),
            hits: self.hits,
            hit_items: self.hit_items,
            maintained_items: self.maintained_items,
            evictions: self.evictions,
        }
    }

    /// Live arrangements in `(stream, window)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Arrangement> {
        self.arrangements.values()
    }

    /// Adds a reader to the `(stream, window)` arrangement, creating it
    /// cold when absent. Returns true when the arrangement was created
    /// by this call.
    pub fn acquire(&mut self, stream: StreamId, window: u32) -> bool {
        assert!(window > 0, "arrangement windows must be positive");
        let mut created = false;
        let arr = self
            .arrangements
            .entry((stream.0, window))
            .or_insert_with(|| {
                created = true;
                Arrangement::new(stream, window)
            });
        arr.readers += 1;
        arr.zero_reader_since = None;
        created
    }

    /// Drops a reader from the `(stream, window)` arrangement. The last
    /// release starts the grace period; the arrangement is evicted by
    /// [`begin_tick`](ArrangementStore::begin_tick) once it expires.
    pub fn release(&mut self, stream: StreamId, window: u32) -> Result<(), String> {
        let arr = self
            .arrangements
            .get_mut(&(stream.0, window))
            .ok_or_else(|| format!("no arrangement for stream {stream} window {window}"))?;
        if arr.readers == 0 {
            return Err(format!(
                "arrangement for stream {stream} window {window} has no readers"
            ));
        }
        arr.readers -= 1;
        if arr.readers == 0 {
            arr.zero_reader_since = Some(self.clock);
        }
        Ok(())
    }

    /// Advances the maintenance clock and evicts arrangements whose
    /// grace period expired. Call once per serving tick, before
    /// [`maintain`](ArrangementStore::maintain). Returns the number
    /// evicted.
    pub fn begin_tick(&mut self) -> usize {
        self.clock += 1;
        let grace = self.config.grace;
        let clock = self.clock;
        let before = self.arrangements.len();
        self.arrangements.retain(|_, a| match a.zero_reader_since {
            Some(since) if a.readers == 0 => clock.saturating_sub(since) <= grace,
            _ => true,
        });
        let evicted = before - self.arrangements.len();
        self.evictions += evicted as u64;
        evicted
    }

    /// Items one maintenance fetch for stream `k` at stream time `now`
    /// must cover: the widest need among the stream's arrangements
    /// *with readers* (zero-reader arrangements in grace go stale for
    /// free and catch up if re-acquired).
    pub(crate) fn maintenance_need(&self, k: StreamId, now: u64) -> u32 {
        self.stream_range(k)
            .filter(|a| a.readers > 0)
            .map(|a| a.need(now))
            .max()
            .unwrap_or(0)
    }

    /// Maintains every arrangement of stream `k` at stream time `now`
    /// with one fetch: `fetch(n)` returns the newest `n` items (newest
    /// first), exactly the `recent` shape of every stream source.
    /// Returns the items fetched — the physical cost of this
    /// maintenance, to be priced by the caller's energy meter.
    /// Arrangements whose need exceeds the fetch (stale free-riders)
    /// are skipped and catch up on a later fetch of their own.
    pub fn maintain(
        &mut self,
        k: StreamId,
        now: u64,
        fetch: impl FnOnce(usize) -> Option<Vec<f64>>,
    ) -> u32 {
        let need = self.maintenance_need(k, now);
        if need == 0 {
            return 0;
        }
        let Some(data) = fetch(need as usize) else {
            return 0;
        };
        assert!(
            data.len() >= need as usize,
            "fetch returned {} items, maintenance needs {need}",
            data.len()
        );
        for a in self.stream_range_mut(k) {
            a.absorb(now, &data);
        }
        self.maintained_items += u64::from(need);
        need
    }

    /// Serves a `window`-item read of stream `k` at stream time `now`
    /// from maintained state, newest first. `None` when no arrangement
    /// covers the window current to `now` — the caller falls back to a
    /// priced pull. The smallest covering arrangement wins (ties are
    /// impossible: keys are unique).
    pub fn serve(&mut self, k: StreamId, now: u64, window: u32) -> Option<Vec<f64>> {
        let hit = self
            .stream_range(k)
            .find(|a| a.can_serve(now, window))
            .map(|a| a.read(window));
        if hit.is_some() {
            self.hits += 1;
            self.hit_items += u64::from(window);
        }
        hit
    }

    /// Serves a `window`-item read of stream `k` from the *freshest*
    /// maintained state regardless of currency — the degraded-mode
    /// fallback for a stream in outage. Returns the window and its
    /// staleness (`now - maintained_to`); `None` when no ring is wide
    /// and full enough. Counter-free: stale serves are accounted by the
    /// caller (they carry no bit-for-bit guarantee, so they must not
    /// inflate the hit statistics replay tests compare).
    pub fn serve_stale(&self, k: StreamId, now: u64, window: u32) -> Option<(Vec<f64>, u64)> {
        self.stream_range(k)
            .filter(|a| a.window >= window && a.ring.len() >= window as usize)
            .max_by_key(|a| a.maintained_to)
            .map(|a| (a.read(window), now.saturating_sub(a.maintained_to)))
    }

    /// Restores a persisted arrangement shell (ring contents are
    /// re-derived from replayed streams via
    /// [`refill`](ArrangementStore::refill)).
    pub fn restore_arrangement(
        &mut self,
        stream: StreamId,
        window: u32,
        readers: u32,
        maintained_to: u64,
        zero_reader_since: Option<u64>,
    ) -> Result<(), String> {
        if window == 0 {
            return Err("arrangement window must be positive".into());
        }
        if readers > 0 && zero_reader_since.is_some() {
            return Err("an arrangement with readers cannot be in grace".into());
        }
        let mut arr = Arrangement::new(stream, window);
        arr.readers = readers;
        arr.maintained_to = maintained_to;
        arr.zero_reader_since = zero_reader_since;
        if self.arrangements.insert((stream.0, window), arr).is_some() {
            return Err(format!(
                "duplicate arrangement for stream {stream} window {window}"
            ));
        }
        Ok(())
    }

    /// Refills the `(stream, window)` arrangement's ring with `data` —
    /// the newest items up to and including its persisted
    /// `maintained_to`, newest first, possibly fewer than a full window
    /// when history has been trimmed. Counter-free: a restore must not
    /// re-charge maintenance the snapshotted run already paid.
    pub fn refill(&mut self, stream: StreamId, window: u32, data: &[f64]) -> Result<(), String> {
        let arr = self
            .arrangements
            .get_mut(&(stream.0, window))
            .ok_or_else(|| format!("no arrangement for stream {stream} window {window}"))?;
        arr.ring.clear();
        for v in data.iter().take(window as usize).rev() {
            arr.ring.push_back(*v);
        }
        Ok(())
    }

    /// Restores persisted counters (snapshot restore).
    pub fn restore_counters(
        &mut self,
        clock: u64,
        hits: u64,
        hit_items: u64,
        maintained_items: u64,
        evictions: u64,
    ) {
        self.clock = clock;
        self.hits = hits;
        self.hit_items = hit_items;
        self.maintained_items = maintained_items;
        self.evictions = evictions;
    }

    fn stream_range(&self, k: StreamId) -> impl Iterator<Item = &Arrangement> {
        self.arrangements
            .range((k.0, 0)..=(k.0, u32::MAX))
            .map(|(_, a)| a)
    }

    fn stream_range_mut(&mut self, k: StreamId) -> impl Iterator<Item = &mut Arrangement> {
        self.arrangements
            .range_mut((k.0, 0)..=(k.0, u32::MAX))
            .map(|(_, a)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: StreamId = StreamId(0);
    const B: StreamId = StreamId(1);

    /// Stream `k` as a pure function of time: item at timestamp t is
    /// `t as f64`, so data checks read literally.
    fn fetch_at(now: u64) -> impl FnOnce(usize) -> Option<Vec<f64>> {
        move |n| Some((0..n as u64).map(|i| (now - i) as f64).collect())
    }

    fn store() -> ArrangementStore {
        ArrangementStore::new(ArrangeConfig { grace: 2 })
    }

    #[test]
    fn cold_fill_then_incremental_maintenance() {
        let mut s = store();
        s.acquire(A, 4);
        assert_eq!(
            s.maintenance_need(A, 10),
            4,
            "cold ring needs a full window"
        );
        assert_eq!(s.maintain(A, 10, fetch_at(10)), 4);
        assert_eq!(s.maintenance_need(A, 10), 0, "current ring needs nothing");
        assert_eq!(s.maintain(A, 11, fetch_at(11)), 1, "one new item per tick");
        assert_eq!(s.serve(A, 11, 4), Some(vec![11.0, 10.0, 9.0, 8.0]));
        assert_eq!(s.stats().maintained_items, 5);
        assert_eq!(s.stats().hit_items, 4);
    }

    #[test]
    fn serve_misses_stale_or_uncovered_reads() {
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, 10, fetch_at(10));
        assert_eq!(s.serve(A, 11, 4), None, "stale by one tick");
        assert_eq!(s.serve(A, 10, 5), None, "window wider than the spec");
        assert_eq!(s.serve(B, 10, 1), None, "unknown stream");
        assert_eq!(
            s.serve(A, 10, 3),
            Some(vec![10.0, 9.0, 8.0]),
            "narrower is fine"
        );
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn one_fetch_maintains_every_arrangement_of_the_stream() {
        let mut s = store();
        s.acquire(A, 3);
        s.acquire(A, 6);
        assert_eq!(s.maintenance_need(A, 20), 6, "widest need wins");
        assert_eq!(s.maintain(A, 20, fetch_at(20)), 6, "one physical fetch");
        assert_eq!(s.serve(A, 20, 3), Some(vec![20.0, 19.0, 18.0]));
        assert_eq!(s.serve(A, 20, 6).map(|d| d.len()), Some(6));
        assert_eq!(
            s.stats().maintained_items,
            6,
            "the narrow ring rode for free"
        );
    }

    #[test]
    fn gap_larger_than_window_rebuilds_the_ring() {
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, 10, fetch_at(10));
        // 90 ticks later: only the newest 4 items matter.
        assert_eq!(s.maintenance_need(A, 100), 4);
        s.maintain(A, 100, fetch_at(100));
        assert_eq!(s.serve(A, 100, 4), Some(vec![100.0, 99.0, 98.0, 97.0]));
    }

    #[test]
    fn refcounts_gate_eviction_through_the_grace_period() {
        let mut s = store();
        assert!(s.acquire(A, 4), "first acquire creates");
        assert!(!s.acquire(A, 4), "second acquire only counts");
        s.release(A, 4).unwrap();
        s.begin_tick();
        assert_eq!(s.len(), 1, "one reader left");
        s.release(A, 4).unwrap();
        // grace = 2: survives two more ticks, gone on the third.
        s.begin_tick();
        s.begin_tick();
        assert_eq!(s.len(), 1, "in grace");
        assert_eq!(s.begin_tick(), 1, "grace expired");
        assert_eq!(s.len(), 0);
        assert_eq!(s.stats().evictions, 1);
        assert!(s.release(A, 4).is_err(), "evicted arrangements are gone");
    }

    #[test]
    fn grace_arrangements_go_stale_for_free_and_catch_up_on_reacquire() {
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, 10, fetch_at(10));
        s.release(A, 4).unwrap();
        s.begin_tick();
        assert_eq!(s.maintenance_need(A, 11), 0, "no readers, no maintenance");
        assert_eq!(s.maintain(A, 11, fetch_at(11)), 0);
        s.acquire(A, 4);
        assert_eq!(s.maintenance_need(A, 12), 2, "catches up the missed gap");
        s.maintain(A, 12, fetch_at(12));
        assert_eq!(s.serve(A, 12, 4), Some(vec![12.0, 11.0, 10.0, 9.0]));
    }

    #[test]
    fn release_balances_are_checked() {
        let mut s = store();
        assert!(s.release(A, 4).is_err(), "never acquired");
        s.acquire(A, 4);
        s.release(A, 4).unwrap();
        assert!(s.release(A, 4).is_err(), "double release");
    }

    #[test]
    fn restore_rebuilds_shells_and_refills_rings() {
        let mut s = store();
        s.restore_arrangement(A, 4, 2, 30, None).unwrap();
        s.restore_arrangement(B, 2, 0, 25, Some(5)).unwrap();
        s.restore_counters(7, 3, 12, 40, 1);
        assert_eq!(s.clock(), 7);
        assert_eq!(s.stats().hits, 3);
        assert!(
            s.restore_arrangement(A, 4, 1, 30, None).is_err(),
            "duplicate key"
        );
        assert!(
            s.restore_arrangement(A, 8, 1, 30, Some(2)).is_err(),
            "readers and grace are exclusive"
        );
        // Refill one short of the window (the post-restore state when the
        // stream buffer cannot reach one item past its capacity): serving
        // waits until the next maintenance completes the ring.
        s.refill(A, 4, &[30.0, 29.0, 28.0]).unwrap();
        assert_eq!(s.serve(A, 30, 4), None, "ring still one short");
        assert_eq!(s.maintain(A, 31, fetch_at(31)), 1);
        assert_eq!(s.serve(A, 31, 4), Some(vec![31.0, 30.0, 29.0, 28.0]));
    }

    #[test]
    fn store_equality_and_clone_cover_live_state() {
        let mut s = store();
        s.acquire(A, 4);
        s.maintain(A, 10, fetch_at(10));
        let c = s.clone();
        assert_eq!(s, c);
        s.maintain(A, 11, fetch_at(11));
        assert_ne!(s, c, "maintenance moves observable state");
    }
}
