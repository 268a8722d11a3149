//! Energy accounting.
//!
//! The paper's cost is "e.g., energy consumption due to byte transfers":
//! linear in the number of items pulled, with a per-stream per-item rate
//! `c(S_k)`. [`EnergyModel`] implements that linear model plus an optional
//! per-contact radio wake-up surcharge — an ablation knob: with a non-zero
//! wake-up cost the true cost is no longer exactly linear in items, which
//! lets experiments probe how robust the schedules are to model error.

use paotr_core::stream::{StreamCatalog, StreamId};

/// Energy cost model for pulling items from sensors.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    per_item: Vec<f64>,
    /// Fixed cost charged whenever a pull contacts a sensor (0 in the
    /// paper's model).
    pub wakeup_cost: f64,
}

impl EnergyModel {
    /// Linear model taken from a stream catalog (the paper's model).
    pub fn from_catalog(catalog: &StreamCatalog) -> EnergyModel {
        EnergyModel {
            per_item: catalog.iter().map(|(_, info)| info.cost).collect(),
            wakeup_cost: 0.0,
        }
    }

    /// Energy for pulling `items` new items from stream `k`
    /// (zero items = no contact = no cost).
    pub(crate) fn pull_cost(&self, k: StreamId, items: u32) -> f64 {
        if items == 0 {
            0.0
        } else {
            self.wakeup_cost + f64::from(items) * self.per_item[k.0]
        }
    }

    /// Number of streams covered.
    pub(crate) fn len(&self) -> usize {
        self.per_item.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_matches_catalog() {
        let cat = StreamCatalog::from_costs([2.0, 5.0]).unwrap();
        let e = EnergyModel::from_catalog(&cat);
        assert_eq!(e.pull_cost(StreamId(0), 3), 6.0);
        assert_eq!(e.pull_cost(StreamId(1), 1), 5.0);
        assert_eq!(e.pull_cost(StreamId(1), 0), 0.0);
    }

    #[test]
    fn wakeup_surcharge_applies_per_contact() {
        let cat = StreamCatalog::from_costs([1.0]).unwrap();
        let mut e = EnergyModel::from_catalog(&cat);
        e.wakeup_cost = 10.0;
        assert_eq!(e.pull_cost(StreamId(0), 2), 12.0);
        assert_eq!(e.pull_cost(StreamId(0), 0), 0.0);
    }
}
