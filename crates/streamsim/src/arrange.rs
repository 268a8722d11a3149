//! Persistent shared stream arrangements.
//!
//! Every execution path used to re-pull stream windows from scratch on
//! each tick: device memory is wiped between ticks, so a recurring
//! query pays its full window every time even though only one new item
//! exists per tick. This module provides the alternative the shared
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
//!   catches up (at most one window of items) if re-acquired;
//! * **pricing, not copying** — a reader asks
//!   [`covers`](ArrangementStore::covers) whether its window is already
//!   on the device, then reads it from the stream once. Ring values are
//!   read back only by [`serve_stale`](ArrangementStore::serve_stale)
//!   (degraded serving while a stream is out).
//!
//! The store reads the [`SimStream`] it maintains directly: a
//! maintenance copies the newest items from the stream's buffer into
//! the rings, and a restore refills each ring as the stream's
//! [`replay`](ArrangementStore::replay) passes the ring's
//! `maintained_to`. Both halves of the ring↔stream time alignment live
//! here. Whether maintaining beats re-pulling for a given stream is
//! decided by the planner through `paotr_core::cost::arrange` — the
//! store only executes the decision.

use crate::stream::SimStream;
use paotr_core::stream::StreamId;
use rand::Rng;
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
    fn need(&self, now: u64) -> u32 {
        let gap = now.saturating_sub(self.maintained_to);
        gap.min(u64::from(self.window)) as u32
    }

    /// Absorbs the items `stream` produced since the last maintenance,
    /// given a fetch of `fetched` newest items at the stream's current
    /// time: appends the missing items, evicts expired ones. No-op when
    /// the gap exceeds the fetch (a stale free-rider waits for its own
    /// fetch).
    fn absorb(&mut self, stream: &SimStream, fetched: u32) {
        let now = stream.now();
        let take = self.need(now);
        if take == 0 || take > fetched {
            return;
        }
        let take = take as usize;
        while self.ring.len() + take > self.window as usize {
            self.ring.pop_front();
        }
        self.ring.extend(stream.tail(take));
        self.maintained_to = now;
    }

    /// Replaces the ring with the stream's newest `window` items (fewer
    /// when the stream holds fewer): what maintenance left in the ring
    /// when the stream's clock stood where it stands now.
    fn refill(&mut self, stream: &SimStream) {
        self.ring.clear();
        self.ring.extend(stream.tail(self.window as usize));
    }

    /// True when the ring holds a full `window`-item read.
    fn holds(&self, window: u32) -> bool {
        self.window >= window && self.ring.len() >= window as usize
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
    /// release starts the grace period; the arrangement is evicted at
    /// the first scheduler tick after it expires.
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
    pub(crate) fn begin_tick(&mut self) -> usize {
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

    /// Maintains every arrangement of stream `k` with one fetch of the
    /// stream's newest items, read straight from its buffer. Returns
    /// the items fetched — the physical cost of this maintenance, to be
    /// priced by the caller's energy meter; 0 when nothing is due or
    /// the stream holds too few items. Arrangements whose need exceeds
    /// the fetch (stale free-riders) are skipped and catch up on a
    /// later fetch of their own.
    pub(crate) fn maintain(&mut self, k: StreamId, stream: &SimStream) -> u32 {
        let need = self.maintenance_need(k, stream.now());
        if need == 0 || stream.len() < need as usize {
            return 0;
        }
        for a in self.stream_range_mut(k) {
            a.absorb(stream, need);
        }
        self.maintained_items += u64::from(need);
        need
    }

    /// True (and a counted hit) when a ring wide, full and current to
    /// `now` covers a `window`-item read of stream `k`: it holds exactly
    /// the stream's newest items, so the read costs no pull. `false`
    /// sends the caller to a priced pull.
    pub(crate) fn covers(&mut self, k: StreamId, now: u64, window: u32) -> bool {
        let hit = self
            .stream_range(k)
            .any(|a| a.holds(window) && a.maintained_to == now);
        if hit {
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
    pub(crate) fn serve_stale(
        &self,
        k: StreamId,
        now: u64,
        window: u32,
    ) -> Option<(Vec<f64>, u64)> {
        let a = self
            .stream_range(k)
            .filter(|a| a.holds(window))
            .max_by_key(|a| a.maintained_to)?;
        let data = a.ring.iter().rev().take(window as usize).copied().collect();
        Some((data, now.saturating_sub(a.maintained_to)))
    }

    /// Restores a persisted arrangement shell; its ring is refilled by
    /// [`replay`](ArrangementStore::replay).
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

    /// Produces `n` items on stream `k` (the replay a restore runs),
    /// refilling each ring of `k` from the stream's buffer when the
    /// stream's clock reaches the ring's `maintained_to`. Every ring
    /// therefore comes back holding what maintenance left in it, also
    /// one that lags behind an outage. Rings maintained outside the
    /// replayed span, or never, are left alone. Counter-free: a restore
    /// must not re-charge maintenance the snapshotted run already paid.
    pub fn replay<R: Rng + ?Sized>(
        &mut self,
        k: StreamId,
        stream: &mut SimStream,
        n: usize,
        rng: &mut R,
    ) {
        let (start, end) = (stream.now(), stream.now() + n as u64);
        let mut rings: Vec<&mut Arrangement> = self
            .stream_range_mut(k)
            .filter(|a| a.maintained_to > start && a.maintained_to <= end)
            .collect();
        rings.sort_by_key(|a| a.maintained_to);
        for a in rings {
            stream.advance_by((a.maintained_to - stream.now()) as usize, rng);
            a.refill(stream);
        }
        stream.advance_by((end - stream.now()) as usize, rng);
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
