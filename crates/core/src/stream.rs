//! Data streams and the stream catalog.
//!
//! In the paper's model a query is evaluated over a set of sensor data
//! streams `S = {S_1, ..., S_s}`; stream `S_k` has a *per data item*
//! acquisition cost `c(S_k)` (e.g. the energy, in joules, needed to pull
//! one item over the radio). The [`StreamCatalog`] holds these costs and
//! optional human-readable names; trees refer to streams by [`StreamId`].

use crate::error::{Error, Result};
use std::fmt;

/// Identifier of a data stream: an index into a [`StreamCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

impl StreamId {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StreamId {
    /// Formats a stream id as a spreadsheet-style name: `A`, `B`, ..., `Z`,
    /// `AA`, `AB`, ... matching the paper's examples which call streams
    /// `A`, `B`, `C`, `D`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", default_stream_name(self.0))
    }
}

/// Produces the default display name for stream index `i`
/// (`A`, `B`, ..., `Z`, `AA`, `AB`, ...).
pub(crate) fn default_stream_name(mut i: usize) -> String {
    let mut out = Vec::new();
    loop {
        out.push(b'A' + (i % 26) as u8);
        if i < 26 {
            break;
        }
        i = i / 26 - 1;
    }
    out.reverse();
    String::from_utf8(out).expect("ASCII letters")
}

/// Per-stream metadata: acquisition cost per data item and an optional name.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// Cost of acquiring one data item from this stream (finite, `>= 0`).
    pub cost: f64,
    /// Optional human-readable name (defaults to `A`, `B`, ...).
    pub name: Option<String>,
}

/// The set of streams a query can reference, with per-item costs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamCatalog {
    streams: Vec<StreamInfo>,
}

impl StreamCatalog {
    /// An empty catalog.
    pub fn new() -> StreamCatalog {
        StreamCatalog::default()
    }

    /// Catalog of `n` streams that all have unit per-item cost.
    pub fn unit(n: usize) -> StreamCatalog {
        StreamCatalog {
            streams: vec![
                StreamInfo {
                    cost: 1.0,
                    name: None
                };
                n
            ],
        }
    }

    /// Catalog built from a list of per-item costs.
    pub fn from_costs<I: IntoIterator<Item = f64>>(costs: I) -> Result<StreamCatalog> {
        let mut cat = StreamCatalog::new();
        for c in costs {
            cat.add(c)?;
        }
        Ok(cat)
    }

    /// Adds a stream with the given per-item cost; returns its id.
    pub fn add(&mut self, cost: f64) -> Result<StreamId> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(Error::InvalidCost(cost));
        }
        let id = StreamId(self.streams.len());
        self.streams.push(StreamInfo { cost, name: None });
        Ok(id)
    }

    /// Adds a named stream with the given per-item cost; returns its id.
    /// Names must be unique within the catalog (ids already are by
    /// construction), so [`StreamCatalog::find`] always identifies a
    /// single stream.
    pub fn add_named(&mut self, name: impl Into<String>, cost: f64) -> Result<StreamId> {
        let name = name.into();
        if self.find(&name).is_some() {
            return Err(Error::DuplicateStreamName(name));
        }
        let id = self.add(cost)?;
        self.streams[id.0].name = Some(name);
        Ok(id)
    }

    /// Number of streams in the catalog.
    #[inline]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when the catalog holds no streams.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Per-item cost of stream `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn cost(&self, id: StreamId) -> f64 {
        self.streams[id.0].cost
    }

    /// Display name for stream `id` (falls back to `A`, `B`, ...).
    pub fn name(&self, id: StreamId) -> String {
        match self.streams.get(id.0).and_then(|s| s.name.clone()) {
            Some(n) => n,
            None => default_stream_name(id.0),
        }
    }

    /// Looks a stream up by name (only finds explicitly named streams).
    pub fn find(&self, name: &str) -> Option<StreamId> {
        self.streams
            .iter()
            .position(|s| s.name.as_deref() == Some(name))
            .map(StreamId)
    }

    /// Iterator over `(StreamId, &StreamInfo)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, &StreamInfo)> {
        self.streams
            .iter()
            .enumerate()
            .map(|(i, s)| (StreamId(i), s))
    }

    /// Replaces the cost of an existing stream.
    pub fn set_cost(&mut self, id: StreamId, cost: f64) -> Result<()> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(Error::InvalidCost(cost));
        }
        match self.streams.get_mut(id.0) {
            Some(s) => {
                s.cost = cost;
                Ok(())
            }
            None => Err(Error::UnknownStream {
                stream: id.0,
                catalog_len: self.len(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_names_follow_spreadsheet_scheme() {
        assert_eq!(default_stream_name(0), "A");
        assert_eq!(default_stream_name(1), "B");
        assert_eq!(default_stream_name(25), "Z");
        assert_eq!(default_stream_name(26), "AA");
        assert_eq!(default_stream_name(27), "AB");
        assert_eq!(default_stream_name(26 + 26 * 26), "AAA");
    }

    #[test]
    fn unit_catalog_has_unit_costs() {
        let cat = StreamCatalog::unit(3);
        assert_eq!(cat.len(), 3);
        for (id, _) in cat.iter() {
            assert_eq!(cat.cost(id), 1.0);
        }
    }

    #[test]
    fn add_and_lookup() {
        let mut cat = StreamCatalog::new();
        let a = cat.add(2.0).unwrap();
        let b = cat.add_named("heart_rate", 5.0).unwrap();
        assert_eq!(cat.cost(a), 2.0);
        assert_eq!(cat.cost(b), 5.0);
        assert_eq!(cat.name(b), "heart_rate");
        assert_eq!(cat.name(a), "A");
        assert_eq!(cat.find("heart_rate"), Some(b));
        assert_eq!(cat.find("nope"), None);
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut cat = StreamCatalog::new();
        cat.add_named("hr", 1.0).unwrap();
        assert_eq!(
            cat.add_named("hr", 2.0),
            Err(Error::DuplicateStreamName("hr".into()))
        );
        // the failed add must not have grown the catalog
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.cost(StreamId(0)), 1.0);
        // distinct names still work; default (unnamed) streams are exempt
        cat.add_named("spo2", 2.0).unwrap();
        cat.add(3.0).unwrap();
        cat.add(4.0).unwrap();
        assert_eq!(cat.len(), 4);
    }

    #[test]
    fn rejects_bad_costs() {
        let mut cat = StreamCatalog::new();
        assert!(cat.add(-1.0).is_err());
        assert!(cat.add(f64::NAN).is_err());
        assert!(cat.add(f64::INFINITY).is_err());
    }

    #[test]
    fn checked_lookup_detects_unknown_stream() {
        let cat = StreamCatalog::unit(2);
        let mut cat = cat;
        assert!(cat.set_cost(StreamId(1), 2.0).is_ok());
        assert_eq!(
            cat.set_cost(StreamId(2), 2.0),
            Err(Error::UnknownStream {
                stream: 2,
                catalog_len: 2
            })
        );
    }

    #[test]
    fn set_cost_updates_and_validates() {
        let mut cat = StreamCatalog::unit(1);
        cat.set_cost(StreamId(0), 4.5).unwrap();
        assert_eq!(cat.cost(StreamId(0)), 4.5);
        assert!(cat.set_cost(StreamId(0), -2.0).is_err());
        assert!(cat.set_cost(StreamId(9), 1.0).is_err());
    }

    #[test]
    fn display_uses_default_name() {
        assert_eq!(StreamId(0).to_string(), "A");
        assert_eq!(StreamId(3).to_string(), "D");
    }
}
