//! Deterministic fault injection for serving runs.
//!
//! The paper's queries run on energy-constrained devices over physical
//! sensor streams — an environment where streams drop out and reads
//! fail. This module is the seeded chaos layer that lets every execution
//! path (`serve`, the daemon, the soaks) replay under an *identical*
//! fault schedule:
//!
//! * [`FaultSpec`] — the few knobs of a fault regime (transient-failure
//!   rate, share of outage-prone streams, outage shape, retry budget,
//!   stale-serve switch) plus a seed;
//! * [`FaultPlan`] — the pure-function schedule derived from a spec:
//!   `is_out(stream, now)` and `read_fails(stream, now, attempt)` are
//!   deterministic hashes, so the plan needs no state, no horizon and
//!   no stream count — a restored daemon replays the exact same faults
//!   tick-for-tick;
//! * [`FaultySource`] — the catalog's streams seen through one plan:
//!   the read view the [`Scheduler`](crate::Scheduler) runs on. Each
//!   stream's own clock keys the plan; window reads go to the
//!   [`SimStream`] untouched.
//!
//! The scheduler's three-valued evaluation and retry pricing live in
//! `runtime`; this module only decides *when* things fail.

use crate::stream::SimStream;
use paotr_core::stream::StreamId;
use paotr_gen::seeds::mix;

const SALT_SELECT: u64 = 0xfa17_5e1e_c700_0001;
const SALT_SHAPE: u64 = 0xfa17_5a9e_0000_0002;
const SALT_TRANSIENT: u64 = 0xfa17_7a27_0000_0003;

/// Converts a hash to a uniform f64 in `[0, 1)` (same construction as
/// the workspace's rand shim: top 53 bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The knobs of one fault regime. `Copy` and tiny on purpose: specs
/// ride inside serve/daemon configs and snapshots, and a spec plus the
/// streams' clocks fully determines every fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for all fault decisions (domain-separated from data seeds).
    pub seed: u64,
    /// Probability that one sensor contact fails transiently.
    pub transient_rate: f64,
    /// Share of streams that are outage-prone (selected by hash).
    pub outage_streams: f64,
    /// Mean length of an outage, in ticks.
    pub outage_len: u64,
    /// Mean up-time between outages of one stream, in ticks.
    pub outage_gap: u64,
    /// Sensor contacts allowed per leaf read (1 = no retries).
    pub max_attempts: u32,
    /// Serve unreadable leaves from stale arrangement rings (degraded
    /// verdicts) instead of reporting them unknown.
    pub stale_serve: bool,
}

impl FaultSpec {
    /// The no-fault spec: every rate zero, one attempt, no stale
    /// serving. Running under this spec is bit-for-bit the fault-free
    /// path.
    pub fn none() -> FaultSpec {
        FaultSpec {
            seed: 0,
            transient_rate: 0.0,
            outage_streams: 0.0,
            outage_len: 0,
            outage_gap: 0,
            max_attempts: 1,
            stale_serve: false,
        }
    }
}

impl Default for FaultSpec {
    /// The canonical chaos regime used by the soaks: 5% transient
    /// failures, 10% of streams cycling through ~12-tick outages every
    /// ~30 ticks, 3 attempts per read, stale serving on.
    fn default() -> FaultSpec {
        FaultSpec {
            seed: 0,
            transient_rate: 0.05,
            outage_streams: 0.10,
            outage_len: 12,
            outage_gap: 30,
            max_attempts: 3,
            stale_serve: true,
        }
    }
}

/// A seeded fault schedule: a pure function from `(stream, now)` to
/// outage state and from `(stream, now, attempt)` to transient-failure
/// decisions. Streams picked as outage-prone cycle through
/// up-for-`gap`/down-for-`len` phases whose exact lengths and offsets
/// are per-stream hashes, so outages are staggered rather than global.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
    forced_out: Vec<usize>,
}

impl FaultPlan {
    /// The schedule of `spec`.
    pub fn new(spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            spec,
            forced_out: Vec::new(),
        }
    }

    /// The empty schedule: nothing ever fails.
    pub fn none() -> FaultPlan {
        FaultPlan::new(FaultSpec::none())
    }

    /// A schedule that additionally holds `streams` in permanent
    /// outage — the deterministic "kill exactly these" knob tests use.
    pub fn with_forced_outages(spec: FaultSpec, streams: Vec<usize>) -> FaultPlan {
        FaultPlan {
            spec,
            forced_out: streams,
        }
    }

    /// The spec this plan was derived from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The (up, down, phase) cycle of stream `k`, or `None` if the
    /// stream is not outage-prone under this plan.
    fn cycle(&self, k: usize) -> Option<(u64, u64, u64)> {
        let s = &self.spec;
        if s.outage_streams <= 0.0 || s.outage_len == 0 || s.outage_gap == 0 {
            return None;
        }
        let select = mix(s.seed ^ mix(SALT_SELECT ^ k as u64));
        if unit(select) >= s.outage_streams {
            return None;
        }
        // Jitter the cycle per stream: up in [gap/2, 3*gap/2], down in
        // [len/2, 3*len/2], plus a random phase so outages stagger.
        let h1 = mix(s.seed ^ mix(SALT_SHAPE ^ k as u64));
        let h2 = mix(h1);
        let h3 = mix(h2);
        let up = (s.outage_gap / 2 + h1 % (s.outage_gap + 1)).max(1);
        let down = (s.outage_len / 2 + h2 % (s.outage_len + 1)).max(1);
        let phase = h3 % (up + down);
        Some((up, down, phase))
    }

    /// Whether stream `k` is in hard outage at stream time `now`. A
    /// stream in outage cannot be contacted at all: pulls fail without
    /// charge and arrangement maintenance skips it.
    pub(crate) fn is_out(&self, k: StreamId, now: u64) -> bool {
        if self.forced_out.contains(&k.0) {
            return true;
        }
        match self.cycle(k.0) {
            Some((up, down, phase)) => (now.wrapping_add(phase)) % (up + down) < down,
            None => false,
        }
    }

    /// Whether the `attempt`-th sensor contact with stream `k` at
    /// stream time `now` fails transiently: the radio was woken (and is
    /// billed) but no data came back.
    pub(crate) fn read_fails(&self, k: StreamId, now: u64, attempt: u32) -> bool {
        if self.spec.transient_rate <= 0.0 {
            return false;
        }
        let h = mix(mix(self.spec.seed ^ SALT_TRANSIENT)
            ^ mix((k.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ mix(now.wrapping_mul(0x2545_f491_4f6c_dd1d))
            ^ mix(u64::from(attempt).wrapping_mul(0x517c_c1b7_2722_0a95)));
        unit(h) < self.spec.transient_rate
    }

    /// The outage signature over `n` streams at stream time `now`
    /// (`true` = out). The serving loop diffs consecutive signatures to
    /// trigger outage re-planning.
    pub fn outage_signature(&self, n: usize, now: u64) -> Vec<bool> {
        (0..n).map(|k| self.is_out(StreamId(k), now)).collect()
    }
}

/// A whole catalog's streams (index = stream id) seen through one
/// [`FaultPlan`]: two borrows, built per tick without allocating.
/// Callers wrap unconditionally — under [`FaultPlan::none`] nothing
/// ever fails — so faulted and fault-free runs share one code path.
#[derive(Debug, Clone, Copy)]
pub struct FaultySource<'a> {
    pub(crate) streams: &'a [SimStream],
    pub(crate) plan: &'a FaultPlan,
}

impl<'a> FaultySource<'a> {
    /// The view of `streams` under `plan`.
    pub fn wrap(streams: &'a [SimStream], plan: &'a FaultPlan) -> FaultySource<'a> {
        FaultySource { streams, plan }
    }
}
