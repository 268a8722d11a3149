//! Stable structural fingerprints for plan-cache keys.
//!
//! The [`Engine`](super::Engine) cache keys plans by
//! `(query fingerprint, catalog fingerprint, planner name)`. Fingerprints
//! are computed with a hand-rolled FNV-1a so they are stable across Rust
//! releases and platforms (unlike `DefaultHasher`), making cached plan
//! hit-rates reproducible in logs and tests.
//!
//! Fingerprints capture exactly what planning depends on: tree shape,
//! per-leaf `(stream, items, probability)`, and per-stream costs. Stream
//! *names* are display-only and excluded. Collisions are possible in
//! principle (64-bit) but never affect correctness guarantees beyond the
//! cache returning a plan for a colliding query, which is the standard
//! trade-off for fingerprint-keyed caches.

use super::QueryRef;
use crate::leaf::Leaf;
use crate::stream::StreamCatalog;
use crate::tree::Node;

/// FNV-1a accumulator over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn leaf(&mut self, l: &Leaf) {
        self.word(l.stream.0 as u64);
        self.word(u64::from(l.items));
        self.f64(l.prob.value());
    }
}

// Class tags keep an AND-tree, its 1-term DNF wrapping, and its general
// wrapping distinct: planners normalize differently per representation.
const TAG_AND: u64 = 0xA1;
const TAG_DNF: u64 = 0xD2;
const TAG_GENERAL: u64 = 0x6E;
const TAG_NODE_AND: u64 = 0x11;
const TAG_NODE_OR: u64 = 0x22;
const TAG_NODE_LEAF: u64 = 0x33;

fn node(h: &mut Fnv, n: &Node) {
    match n {
        Node::Leaf(l) => {
            h.word(TAG_NODE_LEAF);
            h.leaf(l);
        }
        Node::And(children) => {
            h.word(TAG_NODE_AND);
            h.word(children.len() as u64);
            children.iter().for_each(|c| node(h, c));
        }
        Node::Or(children) => {
            h.word(TAG_NODE_OR);
            h.word(children.len() as u64);
            children.iter().for_each(|c| node(h, c));
        }
    }
}

/// Structural fingerprint of a query; see the module docs for what it
/// covers.
pub(crate) fn query_fingerprint(query: &QueryRef<'_>) -> u64 {
    let mut h = Fnv::new();
    match query {
        QueryRef::And(t) => {
            h.word(TAG_AND);
            h.word(t.len() as u64);
            t.leaves().iter().for_each(|l| h.leaf(l));
        }
        QueryRef::Dnf(t) => {
            h.word(TAG_DNF);
            h.word(t.num_terms() as u64);
            for term in t.terms() {
                h.word(term.len() as u64);
                term.leaves().iter().for_each(|l| h.leaf(l));
            }
        }
        QueryRef::General(t) => {
            h.word(TAG_GENERAL);
            node(&mut h, t.root());
        }
    }
    h.0
}

/// Fingerprint of a catalog's planning-relevant content (per-stream
/// costs, in id order; names excluded).
pub fn catalog_fingerprint(catalog: &StreamCatalog) -> u64 {
    let mut h = Fnv::new();
    h.word(catalog.len() as u64);
    for (_, info) in catalog.iter() {
        h.f64(info.cost);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::Prob;
    use crate::stream::StreamId;
    use crate::tree::{AndTree, DnfTree};

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn catalog_fingerprint_tracks_costs_not_names() {
        let mut a = StreamCatalog::from_costs([1.0, 2.0]).unwrap();
        let b = StreamCatalog::from_costs([1.0, 2.0]).unwrap();
        assert_eq!(catalog_fingerprint(&a), catalog_fingerprint(&b));
        let named = {
            let mut c = StreamCatalog::new();
            c.add_named("hr", 1.0).unwrap();
            c.add_named("spo2", 2.0).unwrap();
            c
        };
        assert_eq!(catalog_fingerprint(&named), catalog_fingerprint(&b));
        a.set_cost(StreamId(1), 2.5).unwrap();
        assert_ne!(catalog_fingerprint(&a), catalog_fingerprint(&b));
    }

    #[test]
    fn term_boundaries_matter() {
        // {(l0, l1)} vs {(l0), (l1)}: same leaves, different shape.
        let one = DnfTree::from_leaves(vec![vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]]).unwrap();
        let two = DnfTree::from_leaves(vec![vec![leaf(0, 1, 0.5)], vec![leaf(1, 1, 0.5)]]).unwrap();
        assert_ne!(
            query_fingerprint(&QueryRef::from(&one)),
            query_fingerprint(&QueryRef::from(&two))
        );
    }

    #[test]
    fn leaf_order_matters() {
        let a = AndTree::new(vec![leaf(0, 1, 0.5), leaf(1, 1, 0.5)]).unwrap();
        let b = AndTree::new(vec![leaf(1, 1, 0.5), leaf(0, 1, 0.5)]).unwrap();
        assert_ne!(
            query_fingerprint(&QueryRef::from(&a)),
            query_fingerprint(&QueryRef::from(&b))
        );
    }
}
