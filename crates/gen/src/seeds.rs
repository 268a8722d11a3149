//! Deterministic seed derivation.
//!
//! Every generated instance is addressed by `(experiment, config index,
//! instance index)` and gets a seed derived by a SplitMix64-style mixer.
//! Re-running any experiment therefore regenerates byte-identical
//! instances, and instances can be regenerated individually (e.g. to
//! reproduce one outlier from a CSV row) without replaying the whole
//! sweep.

/// Experiment identifiers (domain separation for seed derivation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 4: AND-tree comparison.
    Fig4,
    /// Figure 5: small DNF instances vs optimal.
    Fig5,
    /// Figure 6: large DNF instances vs best heuristic.
    Fig6,
    /// Multi-query workloads over one shared catalog.
    Workload,
    /// Serving-loop arrival processes (one stream of arrival times per
    /// query of a served workload).
    Serve,
    /// Daemon churn scripts (register/unregister/tick event streams for
    /// the serving daemon's soak and bench harnesses).
    Daemon,
    /// Free-form experiments (tests, examples).
    Custom(u64),
}

impl Experiment {
    fn tag(self) -> u64 {
        match self {
            Experiment::Fig4 => 0x0f19_64b5_17c4_0001,
            Experiment::Fig5 => 0x0f19_64b5_17c4_0005,
            Experiment::Fig6 => 0x0f19_64b5_17c4_0006,
            Experiment::Workload => 0x0f19_64b5_17c4_0010,
            Experiment::Serve => 0x0f19_64b5_17c4_0020,
            Experiment::Daemon => 0x0f19_64b5_17c4_0040,
            Experiment::Custom(t) => t ^ 0xc0ff_ee00_dead_beef,
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed for instance `instance` of configuration `config` of `experiment`.
pub fn instance_seed(experiment: Experiment, config: usize, instance: usize) -> u64 {
    let a = mix(experiment.tag());
    let b = mix(a ^ (config as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    mix(b ^ (instance as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic() {
        assert_eq!(
            instance_seed(Experiment::Fig4, 3, 17),
            instance_seed(Experiment::Fig4, 3, 17)
        );
    }

    #[test]
    fn seeds_differ_across_axes() {
        let base = instance_seed(Experiment::Fig4, 0, 0);
        assert_ne!(base, instance_seed(Experiment::Fig4, 0, 1));
        assert_ne!(base, instance_seed(Experiment::Fig4, 1, 0));
        assert_ne!(base, instance_seed(Experiment::Fig5, 0, 0));
        assert_ne!(base, instance_seed(Experiment::Custom(0), 0, 0));
    }

    #[test]
    fn mixer_spreads_small_inputs() {
        // consecutive inputs should differ in many bits
        let a = mix(1);
        let b = mix(2);
        assert!((a ^ b).count_ones() > 16);
    }
}
