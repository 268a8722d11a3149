//! Synthetic sensor models.
//!
//! The paper's motivating deployment reads real sensors (GPS,
//! accelerometer, heart rate, SPO2) on wearable platforms; we do not have
//! that hardware, so this module provides deterministic-given-a-seed
//! synthetic generators that exercise the same code paths: periodic
//! signals (heart rate, accelerometer magnitude), random walks (GPS
//! drift), and spiky signals (event-like sensors). The scheduling problem
//! only observes windowed predicates over these values, so any generator
//! with controllable predicate probabilities is an adequate stand-in
//! (see DESIGN.md, substitutions).

use rand::Rng;

/// A synthetic sensor signal model producing one value per tick.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorModel {
    /// A constant value (degenerate but useful in tests).
    Constant(f64),
    /// `offset + amplitude * sin(2 pi t / period) + uniform(-noise, noise)`.
    Sine {
        /// Mean level.
        offset: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Period in ticks.
        period: f64,
        /// Half-width of the uniform noise term.
        noise: f64,
    },
    /// Gaussian random walk clamped into `[min, max]`.
    RandomWalk {
        /// Starting level.
        start: f64,
        /// Standard deviation of each step.
        step: f64,
        /// Lower clamp.
        min: f64,
        /// Upper clamp.
        max: f64,
    },
    /// Baseline with occasional spikes: with probability `spike_prob` the
    /// value is `spike`, otherwise `base` plus uniform noise.
    Spiky {
        /// Baseline value.
        base: f64,
        /// Spike value.
        spike: f64,
        /// Per-tick spike probability.
        spike_prob: f64,
        /// Half-width of baseline noise.
        noise: f64,
    },
    /// Independent Gaussian samples.
    Gaussian {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
}

/// Stateful generator wrapping a [`SensorModel`].
#[derive(Debug, Clone)]
pub struct SensorSource {
    model: SensorModel,
    tick: u64,
    walk_level: f64,
}

impl SensorSource {
    /// Creates a generator at tick 0.
    pub fn new(model: SensorModel) -> SensorSource {
        let walk_level = match model {
            SensorModel::RandomWalk { start, .. } => start,
            _ => 0.0,
        };
        SensorSource {
            model,
            tick: 0,
            walk_level,
        }
    }

    /// Generates the next value.
    pub(crate) fn next_value<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let t = self.tick;
        self.tick += 1;
        match self.model {
            SensorModel::Constant(v) => v,
            SensorModel::Sine {
                offset,
                amplitude,
                period,
                noise,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t as f64 / period;
                let n = if noise > 0.0 {
                    rng.gen_range(-noise..noise)
                } else {
                    0.0
                };
                offset + amplitude * phase.sin() + n
            }
            SensorModel::RandomWalk { step, min, max, .. } => {
                self.walk_level = (self.walk_level + gaussian(rng) * step).clamp(min, max);
                self.walk_level
            }
            SensorModel::Spiky {
                base,
                spike,
                spike_prob,
                noise,
            } => {
                if rng.gen::<f64>() < spike_prob {
                    spike
                } else if noise > 0.0 {
                    base + rng.gen_range(-noise..noise)
                } else {
                    base
                }
            }
            SensorModel::Gaussian { mean, std_dev } => mean + gaussian(rng) * std_dev,
        }
    }
}

/// Standard normal sample via Box-Muller (rand's `StandardNormal` lives in
/// `rand_distr`, which we deliberately avoid depending on).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn constant_source_is_constant() {
        let mut s = SensorSource::new(SensorModel::Constant(42.0));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(s.next_value(&mut rng), 42.0);
        }
        assert_eq!(s.tick, 10);
    }

    #[test]
    fn sine_oscillates_around_offset() {
        let mut s = SensorSource::new(SensorModel::Sine {
            offset: 70.0,
            amplitude: 10.0,
            period: 60.0,
            noise: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<f64> = (0..120).map(|_| s.next_value(&mut rng)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 70.0).abs() < 0.5, "mean {mean}");
        assert!(vals.iter().any(|&v| v > 78.0));
        assert!(vals.iter().any(|&v| v < 62.0));
    }

    #[test]
    fn random_walk_respects_clamps() {
        let mut s = SensorSource::new(SensorModel::RandomWalk {
            start: 0.5,
            step: 0.4,
            min: 0.0,
            max: 1.0,
        });
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = s.next_value(&mut rng);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn spiky_spikes_at_roughly_expected_rate() {
        let mut s = SensorSource::new(SensorModel::Spiky {
            base: 0.0,
            spike: 100.0,
            spike_prob: 0.1,
            noise: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(4);
        let spikes = (0..10_000)
            .filter(|_| s.next_value(&mut rng) == 100.0)
            .count();
        assert!((800..1200).contains(&spikes), "spikes {spikes}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let model = SensorModel::Gaussian {
            mean: 0.0,
            std_dev: 1.0,
        };
        let run = |seed| {
            let mut s = SensorSource::new(model.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| s.next_value(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
