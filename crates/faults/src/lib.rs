//! # paotr-faults — deterministic fault injection for serving runs
//!
//! The paper's queries run on energy-constrained devices over physical
//! sensor streams — an environment where streams drop out and reads
//! fail. This crate is the seeded chaos layer that lets every execution
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
//! * [`FaultySource`] — a decorator implementing [`StreamSource`] that
//!   prices sensor contacts through a plan (`is_out`, `contact_fails`)
//!   while leaving window reads (`recent`) untouched.
//!
//! The scheduler's three-valued evaluation and retry pricing live in
//! `stream_sim::runtime`; this crate only decides *when* things fail.
#![forbid(unsafe_code)]

use paotr_gen::seeds::mix;
use stream_sim::StreamSource;

pub use paotr_core::stream::StreamId;

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

    /// Whether stream `k` is in hard outage at stream time `now`.
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
    /// stream time `now` fails transiently.
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

/// [`StreamSource`] decorator that replays a [`FaultPlan`] over an
/// inner source. Reads (`now`, `recent`) pass through untouched —
/// faults only decide the outage flag and whether a *sensor contact*
/// fails (`contact_fails`), exactly the surface the scheduler's retry
/// and Kleene paths consume.
#[derive(Debug)]
pub struct FaultySource<'a, S> {
    inner: &'a S,
    plan: &'a FaultPlan,
    stream: StreamId,
}

impl<'a, S: StreamSource> FaultySource<'a, S> {
    /// Wraps a whole catalog's streams (index = stream id) under one
    /// plan. Callers wrap unconditionally — under [`FaultPlan::none`]
    /// the decorator is a pass-through — so faulty and fault-free runs
    /// share one code path.
    pub fn wrap(streams: &'a [S], plan: &'a FaultPlan) -> Vec<FaultySource<'a, S>> {
        streams
            .iter()
            .enumerate()
            .map(|(k, inner)| FaultySource {
                inner,
                plan,
                stream: StreamId(k),
            })
            .collect()
    }
}

impl<S: StreamSource> StreamSource for FaultySource<'_, S> {
    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn recent(&self, n: usize) -> Option<Vec<f64>> {
        self.inner.recent(n)
    }

    fn is_out(&self) -> bool {
        self.plan.is_out(self.stream, self.inner.now())
    }

    fn contact_fails(&self, attempt: u32) -> bool {
        self.plan.read_fails(self.stream, self.inner.now(), attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use stream_sim::gaussian_streams;

    #[test]
    fn none_plan_never_fails() {
        let plan = FaultPlan::none();
        for k in 0..32 {
            for now in 0..200 {
                assert!(!plan.is_out(StreamId(k), now));
                assert!(!plan.read_fails(StreamId(k), now, 0));
            }
        }
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(FaultSpec {
            seed: 7,
            ..FaultSpec::default()
        });
        let b = FaultPlan::new(FaultSpec {
            seed: 7,
            ..FaultSpec::default()
        });
        let c = FaultPlan::new(FaultSpec {
            seed: 8,
            ..FaultSpec::default()
        });
        let sig_a: Vec<Vec<bool>> = (0..100).map(|t| a.outage_signature(64, t)).collect();
        let sig_b: Vec<Vec<bool>> = (0..100).map(|t| b.outage_signature(64, t)).collect();
        let sig_c: Vec<Vec<bool>> = (0..100).map(|t| c.outage_signature(64, t)).collect();
        assert_eq!(sig_a, sig_b, "same seed, same schedule");
        assert_ne!(sig_a, sig_c, "different seed, different schedule");
    }

    #[test]
    fn outage_share_roughly_matches_spec() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 3,
            outage_streams: 0.10,
            ..FaultSpec::default()
        });
        let prone = (0..1000)
            .filter(|&k| (0..60).any(|t| plan.is_out(StreamId(k), t)))
            .count();
        assert!(
            (60..160).contains(&prone),
            "~10% of 1000 streams should be outage-prone, got {prone}"
        );
    }

    #[test]
    fn outages_cycle_up_and_down() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 1,
            outage_streams: 1.0,
            ..FaultSpec::default()
        });
        let k = StreamId(0);
        let out: Vec<bool> = (0..200).map(|t| plan.is_out(k, t)).collect();
        assert!(out.iter().any(|&b| b), "a prone stream goes down");
        assert!(out.iter().any(|&b| !b), "and comes back up");
    }

    #[test]
    fn transient_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 5,
            transient_rate: 0.05,
            ..FaultSpec::default()
        });
        let fails = (0..10_000)
            .filter(|&i| plan.read_fails(StreamId(i % 16), i as u64 / 16, 0))
            .count();
        assert!(
            (300..800).contains(&fails),
            "~5% of 10k contacts should fail, got {fails}"
        );
    }

    #[test]
    fn forced_outages_are_permanent() {
        let plan = FaultPlan::with_forced_outages(FaultSpec::none(), vec![2]);
        for now in 0..100 {
            assert!(plan.is_out(StreamId(2), now));
            assert!(!plan.is_out(StreamId(1), now));
        }
    }

    #[test]
    fn faulty_source_gates_contacts_not_local_reads() {
        let mut rng = StdRng::seed_from_u64(11);
        let streams = gaussian_streams(&[8], &mut rng);
        let plan = FaultPlan::with_forced_outages(FaultSpec::none(), vec![0]);
        let wrapped = FaultySource::wrap(&streams, &plan);
        assert_eq!(StreamSource::now(&wrapped[0]), streams[0].now());
        assert_eq!(wrapped[0].recent(8), streams[0].recent(8));
        assert!(wrapped[0].is_out());
        assert!(!wrapped[0].contact_fails(0), "an outage is not a transient");

        let live = FaultPlan::none();
        let wrapped = FaultySource::wrap(&streams, &live);
        assert!(!wrapped[0].is_out());
        assert!(!wrapped[0].contact_fails(0));

        // Contacts fail exactly where the plan says, keyed on
        // (stream, now, attempt).
        let flaky = FaultPlan::new(FaultSpec {
            transient_rate: 0.5,
            ..FaultSpec::none()
        });
        let wrapped = FaultySource::wrap(&streams, &flaky);
        let now = streams[0].now();
        assert!(
            (0..16).all(|a| wrapped[0].contact_fails(a) == flaky.read_fails(StreamId(0), now, a))
        );
        assert_eq!(wrapped[0].recent(8), streams[0].recent(8));
    }
}
