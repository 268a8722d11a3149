//! Live daemon counters.
//!
//! One flat struct of monotone counters plus last-tick gauges. The
//! counters are part of the snapshot format — after a restore they
//! continue exactly from their persisted values, so long-lived
//! dashboards see one uninterrupted series across daemon restarts.

use crate::json::Json;
use paotr_exec::TickCounters;
use std::ops::Deref;

/// The daemon's lifetime counters and last-tick gauges: the tick
/// driver's [`TickCounters`] plus the counters only the daemon keeps.
/// Derefs to the tick counters, so `telemetry.evals` reads through.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Counters the tick driver updates: ticks, evaluations, verdicts,
    /// admission and energy.
    pub counters: TickCounters,
    /// Successful `register` commands.
    pub registers: u64,
    /// Successful `unregister` commands.
    pub unregisters: u64,
    /// Churn-triggered full joint re-plans.
    pub churn_replans: u64,
    /// Live arrangements after the most recent tick (gauge).
    pub arrangements: u64,
    /// Window items served from maintained arrangements instead of
    /// priced sensor pulls.
    pub arrange_hit_items: u64,
}

impl Deref for Telemetry {
    type Target = TickCounters;

    fn deref(&self) -> &TickCounters {
        &self.counters
    }
}

impl Telemetry {
    /// Evaluations served per tick.
    pub fn evals_per_tick(&self) -> f64 {
        self.evals as f64 / self.ticks.max(1) as f64
    }

    /// Energy still available under `budget` relative to the most
    /// recent tick's spend (`None` without a budget).
    pub fn headroom(&self, budget: Option<f64>) -> Option<f64> {
        budget.map(|b| b - self.last_tick_energy)
    }

    /// Serializes to the snapshot/stats JSON object. The arrangement
    /// and fault counters are emitted only when non-zero, so daemons
    /// that never arranged or faulted render exactly the version-1
    /// telemetry object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("ticks", Json::from_u64(self.ticks)),
            ("evals", Json::from_u64(self.evals)),
            ("truths", Json::from_u64(self.truths)),
            ("registers", Json::from_u64(self.registers)),
            ("unregisters", Json::from_u64(self.unregisters)),
            ("shed", Json::from_u64(self.shed)),
            ("deferred", Json::from_u64(self.deferred)),
            ("drift_replans", Json::from_u64(self.drift_replans)),
            ("churn_replans", Json::from_u64(self.churn_replans)),
            ("total_energy", Json::Num(self.total_energy)),
            ("max_tick_energy", Json::Num(self.max_tick_energy)),
            ("last_tick_energy", Json::Num(self.last_tick_energy)),
        ];
        let optional = [
            ("maintain_energy", Json::Num(self.maintain_energy)),
            ("arrangements", Json::from_u64(self.arrangements)),
            ("arrange_hit_items", Json::from_u64(self.arrange_hit_items)),
            ("retries", Json::from_u64(self.retries)),
            ("retry_energy", Json::Num(self.retry_energy)),
            ("failed_reads", Json::from_u64(self.failed_reads)),
            ("unknown_verdicts", Json::from_u64(self.unknown_verdicts)),
            ("degraded_verdicts", Json::from_u64(self.degraded_verdicts)),
            ("stale_serves", Json::from_u64(self.stale_serves)),
        ];
        fields.extend(
            optional
                .into_iter()
                .filter(|(_, v)| v.as_f64() != Some(0.0)),
        );
        Json::obj(fields)
    }

    /// Deserializes from the snapshot/stats JSON object.
    pub fn from_json(v: &Json) -> Result<Telemetry, String> {
        let u = |k: &str| v.field("telemetry", k, Json::as_u64);
        let f = |k: &str| v.field("telemetry", k, Json::as_f64);
        // Arrangement and fault counters arrived after version 1; absent
        // keys (every version-1 document) mean zero.
        let opt_u = |k: &str| v.get(k).map_or(Ok(0), |_| u(k));
        let opt_f = |k: &str| v.get(k).map_or(Ok(0.0), |_| f(k));
        Ok(Telemetry {
            counters: TickCounters {
                ticks: u("ticks")?,
                evals: u("evals")?,
                truths: u("truths")?,
                shed: u("shed")?,
                deferred: u("deferred")?,
                drift_replans: u("drift_replans")?,
                retries: opt_u("retries")?,
                failed_reads: opt_u("failed_reads")?,
                unknown_verdicts: opt_u("unknown_verdicts")?,
                degraded_verdicts: opt_u("degraded_verdicts")?,
                stale_serves: opt_u("stale_serves")?,
                total_energy: f("total_energy")?,
                max_tick_energy: f("max_tick_energy")?,
                last_tick_energy: f("last_tick_energy")?,
                maintain_energy: opt_f("maintain_energy")?,
                retry_energy: opt_f("retry_energy")?,
            },
            registers: u("registers")?,
            unregisters: u("unregisters")?,
            churn_replans: u("churn_replans")?,
            arrangements: opt_u("arrangements")?,
            arrange_hit_items: opt_u("arrange_hit_items")?,
        })
    }

    /// A `paotr_stats` rendering of the live state — what the `stats`
    /// protocol command returns under `"table"`.
    pub fn table(&self, live_sessions: usize, budget: Option<f64>) -> paotr_stats::Table {
        let mut t = paotr_stats::Table::new(["metric", "value"]);
        let rows: Vec<(&str, String)> = vec![
            ("ticks", self.ticks.to_string()),
            ("live sessions", live_sessions.to_string()),
            ("evals", self.evals.to_string()),
            ("evals/tick", format!("{:.2}", self.evals_per_tick())),
            (
                "truth rate",
                if self.evals > 0 {
                    format!("{:.3}", self.truths as f64 / self.evals as f64)
                } else {
                    "n/a".into()
                },
            ),
            ("registers", self.registers.to_string()),
            ("unregisters", self.unregisters.to_string()),
            ("shed", self.shed.to_string()),
            ("deferred", self.deferred.to_string()),
            ("drift re-plans", self.drift_replans.to_string()),
            ("churn re-plans", self.churn_replans.to_string()),
            ("total energy", format!("{:.2}", self.total_energy)),
            ("max tick energy", format!("{:.2}", self.max_tick_energy)),
            ("last tick energy", format!("{:.2}", self.last_tick_energy)),
            ("maintenance energy", format!("{:.2}", self.maintain_energy)),
            ("arrangements", self.arrangements.to_string()),
            ("arranged items served", self.arrange_hit_items.to_string()),
            ("retries", self.retries.to_string()),
            ("retry energy", format!("{:.2}", self.retry_energy)),
            ("failed reads", self.failed_reads.to_string()),
            ("unknown verdicts", self.unknown_verdicts.to_string()),
            ("degraded verdicts", self.degraded_verdicts.to_string()),
            ("stale serves", self.stale_serves.to_string()),
            (
                "energy headroom",
                self.headroom(budget)
                    .map(|h| format!("{h:.2}"))
                    .unwrap_or_else(|| "unbounded".into()),
            ),
        ];
        for (k, v) in rows {
            t.push_row([k.to_string(), v]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Telemetry {
        Telemetry {
            counters: TickCounters {
                ticks: 100,
                evals: 480,
                truths: 200,
                shed: 4,
                deferred: 16,
                drift_replans: 2,
                retries: 17,
                failed_reads: 9,
                unknown_verdicts: 4,
                degraded_verdicts: 2,
                stale_serves: 11,
                total_energy: 1234.5,
                max_tick_energy: 19.25,
                last_tick_energy: 11.5,
                maintain_energy: 40.25,
                retry_energy: 6.75,
            },
            registers: 9,
            unregisters: 3,
            churn_replans: 1,
            arrangements: 5,
            arrange_hit_items: 320,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = sample();
        let back = Telemetry::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let mut j = sample().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "shed");
        }
        let err = Telemetry::from_json(&j).unwrap_err();
        assert!(err.contains("shed"), "{err}");
    }

    #[test]
    fn zero_arrangement_counters_render_the_version_1_object() {
        let base = sample();
        let t = Telemetry {
            counters: TickCounters {
                maintain_energy: 0.0,
                retries: 0,
                retry_energy: 0.0,
                failed_reads: 0,
                unknown_verdicts: 0,
                degraded_verdicts: 0,
                stale_serves: 0,
                ..base.counters
            },
            arrangements: 0,
            arrange_hit_items: 0,
            ..base
        };
        let rendered = t.to_json().to_string_compact();
        for key in [
            "maintain_energy",
            "arrangements",
            "arrange_hit_items",
            "retries",
            "retry_energy",
            "failed_reads",
            "unknown_verdicts",
            "degraded_verdicts",
            "stale_serves",
        ] {
            assert!(!rendered.contains(key), "`{key}` leaked into:\n{rendered}");
        }
        let back = Telemetry::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back, "absent keys parse back as zero");
    }

    #[test]
    fn headroom_and_rates() {
        let t = sample();
        assert_eq!(t.headroom(Some(20.0)), Some(8.5));
        assert_eq!(t.headroom(None), None);
        assert!((t.evals_per_tick() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn table_renders_every_counter() {
        let md = sample().table(6, Some(20.0)).to_markdown();
        for needle in [
            "live sessions",
            "6",
            "drift re-plans",
            "energy headroom",
            "8.50",
        ] {
            assert!(md.contains(needle), "missing `{needle}` in:\n{md}");
        }
    }
}
