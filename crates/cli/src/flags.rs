//! `Flags`, the one argument parser every subcommand reads its options
//! through, and one reader per option group that several subcommands
//! share.
//!
//! The tokens split once into `--flag value` and `--switch` pairs: a
//! flag takes the next token as its value unless that token starts with
//! `--`, so `--budget -1` still reaches the range check. A subcommand
//! then asks for each option by name and type. The last occurrence of a
//! flag wins, a parse error names the flag and what it expects, a
//! switch given a value is refused, and [`Flags::read`] reports the
//! first flag nothing asked for.

use paotr_exec::{ArrangeConfig, FaultSpec};
use paotr_gen::workload::{workload_instance, WorkloadConfig};
use paotr_multi::{
    default_planners, planner_by_name, planner_names, IndependentPlanner, Workload, WorkloadPlanner,
};
use std::collections::HashMap;
use std::str::FromStr;

/// The `--flag value` / `--switch` tokens of one subcommand.
pub(crate) struct Flags {
    given: Vec<(String, Option<String>)>,
    /// Every name a reader asked for, in asking order.
    pub(crate) asked: Vec<&'static str>,
}

impl Flags {
    /// Splits `args`, which hold flags only.
    pub fn parse(args: &[String]) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut tokens = args.iter().peekable();
        while let Some(flag) = tokens.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = tokens.next_if(|v| !v.starts_with("--")).cloned();
            given.push((flag.clone(), value));
        }
        Ok(Flags {
            given,
            asked: Vec::new(),
        })
    }

    /// Splits `args`, whose first token is a query string.
    pub fn after_query(args: &[String]) -> Result<(String, Flags), String> {
        let Some((query, flags)) = args.split_first() else {
            return Err("expected a query string".into());
        };
        if query.starts_with("--") {
            return Err("the query string must come before flags".into());
        }
        Ok((query.clone(), Flags::parse(flags)?))
    }

    /// Reads every option with `options`, then refuses the first flag
    /// it did not ask for.
    pub fn read<T>(
        mut self,
        options: impl FnOnce(&mut Flags) -> Result<T, String>,
    ) -> Result<T, String> {
        let read = options(&mut self)?;
        match self
            .given
            .iter()
            .find(|(flag, _)| !self.asked.contains(&flag.as_str()))
        {
            Some((flag, _)) => Err(format!("unknown flag `{flag}`")),
            None => Ok(read),
        }
    }

    /// The value of the last of `names` given, which are aliases.
    pub fn text_of(
        &mut self,
        names: &[&'static str],
        what: &str,
    ) -> Result<Option<String>, String> {
        self.asked.extend_from_slice(names);
        match self
            .given
            .iter()
            .rev()
            .find(|(flag, _)| names.contains(&flag.as_str()))
        {
            None => Ok(None),
            Some((flag, None)) => Err(format!("{flag} expects {what}")),
            Some((_, value)) => Ok(value.clone()),
        }
    }

    /// The value of the last `name` given.
    pub fn text(&mut self, name: &'static str, what: &str) -> Result<Option<String>, String> {
        self.text_of(&[name], what)
    }

    /// The last `name` given, parsed as a `T`.
    pub fn get<T: FromStr>(&mut self, name: &'static str, what: &str) -> Result<Option<T>, String> {
        self.text(name, what)?
            .map(|v| v.parse().map_err(|_| format!("{name} expects {what}")))
            .transpose()
    }

    /// The last `name` given parsed as a `T`, or `default`.
    pub fn or<T: FromStr>(
        &mut self,
        name: &'static str,
        default: T,
        what: &str,
    ) -> Result<T, String> {
        Ok(self.get(name, what)?.unwrap_or(default))
    }

    /// The last `name` given, parsed as a count of at least 1.
    pub fn count<T: FromStr + Default + PartialEq>(
        &mut self,
        name: &'static str,
    ) -> Result<Option<T>, String> {
        const WHAT: &str = "an integer >= 1";
        match self.get(name, WHAT)? {
            Some(n) if n == T::default() => Err(format!("{name} expects {WHAT}")),
            n => Ok(n),
        }
    }

    /// Whether any flag asked for since the `first`-th ask is given.
    pub fn given_since(&self, first: usize) -> bool {
        let names = &self.asked[first..];
        self.given
            .iter()
            .any(|(flag, _)| names.contains(&flag.as_str()))
    }

    /// Whether switch `name` is given; refused when it carries a value.
    pub fn switch(&mut self, name: &'static str) -> Result<bool, String> {
        self.asked.push(name);
        let mut given = self.given.iter().filter(|(flag, _)| flag == name);
        match given.clone().find_map(|(_, value)| value.as_ref()) {
            Some(value) => Err(format!("{name} takes no value, got `{value}`")),
            None => Ok(given.next().is_some()),
        }
    }
}

/// `--costs A=1,B=2.5`: per-stream costs; unnamed streams cost 1.
pub(crate) fn costs(flags: &mut Flags) -> Result<HashMap<String, f64>, String> {
    let mut costs = HashMap::new();
    let Some(spec) = flags.text("--costs", "e.g. A=1,B=2.5")? else {
        return Ok(costs);
    };
    for pair in spec.split(',') {
        let (name, cost) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad cost `{pair}`"))?;
        let cost: f64 = cost
            .parse()
            .map_err(|_| format!("bad cost value `{cost}`"))?;
        costs.insert(name.trim().to_string(), cost);
    }
    Ok(costs)
}

/// A share flag such as `--overlap F`: a number in [0, 1] (NaN is
/// refused), `default` when absent.
fn share(flags: &mut Flags, name: &'static str, default: f64) -> Result<f64, String> {
    const WHAT: &str = "a share in [0, 1]";
    match flags.or(name, default, WHAT)? {
        x if (0.0..=1.0).contains(&x) => Ok(x),
        _ => Err(format!("{name} expects {WHAT}")),
    }
}

/// `--queries N --overlap F --seed S`: the generated workload.
pub(crate) struct WorkloadSpec {
    pub queries: usize,
    pub overlap: f64,
    pub seed: u64,
}

impl WorkloadSpec {
    pub fn read(flags: &mut Flags) -> Result<WorkloadSpec, String> {
        Ok(WorkloadSpec {
            queries: flags.count("--queries")?.unwrap_or(16),
            overlap: share(flags, "--overlap", 0.5)?,
            seed: flags.or("--seed", 0, "an integer")?,
        })
    }

    pub fn build(&self) -> Result<Workload, String> {
        let config = WorkloadConfig::with_overlap(self.queries, self.overlap);
        let (trees, catalog) = workload_instance(config, self.seed as usize);
        Workload::from_trees(trees, catalog).map_err(|e| e.to_string())
    }
}

/// `--planner NAME` (default `shared-greedy`), or every workload
/// planner when switch `all` is given.
pub(crate) fn planners(
    flags: &mut Flags,
    all: &'static str,
) -> Result<Vec<Box<dyn WorkloadPlanner>>, String> {
    let name = flags.text("--planner", "a planner name")?;
    if flags.switch(all)? {
        return Ok(default_planners());
    }
    let name = name.as_deref().unwrap_or("shared-greedy");
    let chosen = planner_by_name(name).ok_or_else(|| {
        format!(
            "unknown workload planner `{name}` (expected one of: {})",
            planner_names().join(", ")
        )
    })?;
    Ok(vec![chosen])
}

/// `--planner NAME | --compare`, with the `independent` baseline first
/// so sharing ratios and speedups are defined.
pub(crate) fn planner_lineup(flags: &mut Flags) -> Result<Vec<Box<dyn WorkloadPlanner>>, String> {
    let mut lineup = planners(flags, "--compare")?;
    if lineup[0].name() != "independent" {
        lineup.insert(0, Box::new(IndependentPlanner));
    }
    Ok(lineup)
}

/// An energy-per-tick flag such as `--budget J`: finite and >= 0.
pub(crate) fn energy(flags: &mut Flags, name: &'static str) -> Result<Option<f64>, String> {
    const WHAT: &str = "a finite energy value >= 0";
    match flags.get::<f64>(name, WHAT)? {
        Some(j) if !(j.is_finite() && j >= 0.0) => Err(format!("{name} expects {WHAT}")),
        j => Ok(j),
    }
}

/// `--arrange` / `--arrange-grace N`: either one turns arrangements on.
pub(crate) fn arrange(flags: &mut Flags) -> Result<Option<ArrangeConfig>, String> {
    let on = flags.switch("--arrange")?;
    let grace = flags.get("--arrange-grace", "an integer")?;
    Ok((on || grace.is_some()).then(|| ArrangeConfig {
        grace: grace.unwrap_or(ArrangeConfig::default().grace),
    }))
}

/// The fault-injection flags; any one of them turns faults on, with
/// [`FaultSpec::default`] for the rest.
pub(crate) fn faults(flags: &mut Flags) -> Result<Option<FaultSpec>, String> {
    let first = flags.asked.len();
    flags.switch("--faults")?;
    let d = FaultSpec::default();
    let spec = FaultSpec {
        seed: flags.or("--fault-seed", d.seed, "an integer")?,
        transient_rate: share(flags, "--fault-rate", d.transient_rate)?,
        outage_streams: share(flags, "--outage-streams", d.outage_streams)?,
        outage_len: flags.or("--outage-len", d.outage_len, "an integer")?,
        outage_gap: flags.or("--outage-gap", d.outage_gap, "an integer")?,
        max_attempts: flags.count("--retries")?.unwrap_or(d.max_attempts),
        stale_serve: d.stale_serve && !flags.switch("--no-stale")?,
    };
    Ok(flags.given_since(first).then_some(spec))
}
