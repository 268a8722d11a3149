//! Arrival processes: when does each query of a served workload ask to
//! be evaluated?
//!
//! Joint-plan measurement and the bench paths evaluate every query
//! every tick; a serving deployment does not — queries arrive on their own clocks
//! (a dashboard refreshing once a minute, an alert firing on demand).
//! `ArrivalProcess` turns an [`ArrivalSpec`] into a deterministic
//! per-query stream of arrival ticks, seeded through
//! [`paotr_gen::seeds`] (domain [`Experiment::Serve`]) so a serve run
//! is reproducible from `(workload seed, serve seed)` alone.

use paotr_gen::seeds::{instance_seed, Experiment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape of a query's arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// One arrival every `every` ticks, starting at tick 0 (`every = 1`
    /// evaluates every query every tick, as joint-plan measurement
    /// does).
    Periodic {
        /// Ticks between arrivals (>= 1).
        every: u64,
    },
    /// Poisson arrivals: independent exponential inter-arrival times
    /// with mean `1 / rate` ticks, rounded up to the next tick.
    Poisson {
        /// Expected arrivals per tick (> 0).
        rate: f64,
    },
}

impl ArrivalSpec {
    /// Stable name for reports (`periodic` / `poisson`).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalSpec::Periodic { .. } => "periodic",
            ArrivalSpec::Poisson { .. } => "poisson",
        }
    }
}

/// A deterministic per-query arrival clock.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalProcess {
    spec: ArrivalSpec,
    rng: StdRng,
    /// Continuous arrival clock for Poisson processes.
    clock: f64,
    /// Tick of the next arrival.
    next_due: u64,
}

impl ArrivalProcess {
    /// The arrival clock of query `query` under `spec`. `seed` is the
    /// serve-level seed; the per-query RNG is derived through the
    /// [`Experiment::Serve`] seed domain, so distinct queries get
    /// decorrelated arrival streams from one seed.
    ///
    /// # Panics
    /// Panics on `Periodic { every: 0 }` or a non-positive/non-finite
    /// Poisson rate.
    pub(crate) fn new(spec: ArrivalSpec, seed: u64, query: usize) -> ArrivalProcess {
        match spec {
            ArrivalSpec::Periodic { every } => {
                assert!(every >= 1, "periodic arrivals need every >= 1");
            }
            ArrivalSpec::Poisson { rate } => {
                assert!(
                    rate.is_finite() && rate > 0.0,
                    "poisson arrivals need a finite rate > 0"
                );
            }
        }
        let mut p = ArrivalProcess {
            spec,
            rng: StdRng::seed_from_u64(instance_seed(Experiment::Serve, query, seed as usize)),
            clock: 0.0,
            next_due: 0,
        };
        // The first arrival: tick 0 for periodic processes, the first
        // exponential waiting time for Poisson ones.
        if let ArrivalSpec::Poisson { .. } = spec {
            p.schedule_next();
        }
        p
    }

    /// Number of arrivals with due tick `<= tick`; each is consumed and
    /// the clock advances past it. Calling once per tick in order
    /// yields every arrival exactly once.
    pub(crate) fn poll(&mut self, tick: u64) -> u64 {
        let mut count = 0;
        while self.next_due <= tick {
            count += 1;
            self.schedule_next();
        }
        count
    }

    fn schedule_next(&mut self) {
        match self.spec {
            ArrivalSpec::Periodic { every } => {
                self.next_due += every;
            }
            ArrivalSpec::Poisson { rate } => {
                // Exponential inter-arrival; 1 - U keeps ln away from 0.
                let u: f64 = self.rng.gen::<f64>();
                self.clock += -(1.0 - u).ln() / rate;
                // Strictly advance so a burst cannot stall the loop on
                // one tick forever.
                self.next_due = (self.clock.ceil() as u64).max(self.next_due + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_fires_every_k_ticks() {
        let mut p = ArrivalProcess::new(ArrivalSpec::Periodic { every: 3 }, 0, 0);
        let fired: Vec<u64> = (0..10).map(|t| p.poll(t)).collect();
        assert_eq!(fired, vec![1, 0, 0, 1, 0, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn poisson_rate_is_roughly_realised() {
        let rate = 0.3;
        let ticks = 20_000u64;
        let mut total = 0u64;
        for q in 0..4 {
            let mut p = ArrivalProcess::new(ArrivalSpec::Poisson { rate }, 7, q);
            for t in 0..ticks {
                total += p.poll(t);
            }
        }
        let measured = total as f64 / (4 * ticks) as f64;
        assert!(
            (measured - rate).abs() < 0.03,
            "rate {rate}, measured {measured}"
        );
    }

    #[test]
    fn arrivals_are_seed_deterministic_and_query_decorrelated() {
        let run = |seed, q| {
            let mut p = ArrivalProcess::new(ArrivalSpec::Poisson { rate: 0.5 }, seed, q);
            (0..200).map(|t| p.poll(t)).collect::<Vec<_>>()
        };
        assert_eq!(run(1, 0), run(1, 0));
        assert_ne!(run(1, 0), run(2, 0));
        assert_ne!(run(1, 0), run(1, 1));
    }

    #[test]
    fn poisson_never_stalls_on_one_tick() {
        // A huge rate still yields at most one consumed arrival batch
        // per poll, with next_due strictly advancing.
        let mut p = ArrivalProcess::new(ArrivalSpec::Poisson { rate: 50.0 }, 3, 0);
        let mut last = p.next_due;
        for t in 0..50 {
            p.poll(t);
            assert!(p.next_due > t, "next_due must pass the polled tick");
            assert!(p.next_due >= last);
            last = p.next_due;
        }
    }

    #[test]
    #[should_panic(expected = "every >= 1")]
    fn zero_period_rejected() {
        let _ = ArrivalProcess::new(ArrivalSpec::Periodic { every: 0 }, 0, 0);
    }

    #[test]
    #[should_panic(expected = "rate > 0")]
    fn bad_rate_rejected() {
        let _ = ArrivalProcess::new(ArrivalSpec::Poisson { rate: 0.0 }, 0, 0);
    }
}
