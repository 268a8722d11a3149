//! Pretty-printing of query trees.
//!
//! Renders trees in an indented ASCII form similar to the paper's figures,
//! e.g. Figure 2's AND-tree prints as:
//!
//! ```text
//! and
//! ├── A[1] p=0.75
//! ├── A[2] p=0.1
//! └── B[1] p=0.5
//! ```

use crate::stream::StreamCatalog;
use crate::tree::dnf::DnfTree;
use crate::tree::general::{Node, QueryTree};
use std::fmt::Write as _;

/// Renders a general tree as indented ASCII art.
pub fn render_query_tree(tree: &QueryTree) -> String {
    let mut out = String::new();
    render_node(tree.root(), "", "", &mut out);
    out
}

/// Renders a DNF tree using the catalog's stream names.
pub fn render_dnf_named(tree: &DnfTree, catalog: &StreamCatalog) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "or");
    let n = tree.num_terms();
    for (i, term) in tree.terms().iter().enumerate() {
        let (branch, pad) = if i + 1 == n {
            ("└── ", "    ")
        } else {
            ("├── ", "│   ")
        };
        let _ = writeln!(out, "{branch}and{}", i + 1);
        let m = term.len();
        for (j, l) in term.leaves().iter().enumerate() {
            let leaf_branch = if j + 1 == m {
                "└── "
            } else {
                "├── "
            };
            let _ = writeln!(
                out,
                "{pad}{leaf_branch}{}[{}] p={}",
                catalog.name(l.stream),
                l.items,
                l.prob
            );
        }
    }
    out
}

fn render_node(node: &Node, branch: &str, pad: &str, out: &mut String) {
    match node {
        Node::Leaf(l) => {
            let _ = writeln!(out, "{branch}{l}");
        }
        Node::And(cs) => {
            let _ = writeln!(out, "{branch}and");
            render_children(cs, pad, out);
        }
        Node::Or(cs) => {
            let _ = writeln!(out, "{branch}or");
            render_children(cs, pad, out);
        }
    }
}

fn render_children(children: &[Node], pad: &str, out: &mut String) {
    let n = children.len();
    for (i, c) in children.iter().enumerate() {
        let last = i + 1 == n;
        let branch = format!("{pad}{}", if last { "└── " } else { "├── " });
        let child_pad = format!("{pad}{}", if last { "    " } else { "│   " });
        render_node(c, &branch, &child_pad, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaf::Leaf;
    use crate::prob::Prob;
    use crate::stream::StreamId;

    fn leaf(s: usize, d: u32, p: f64) -> Leaf {
        Leaf::new(StreamId(s), d, Prob::new(p).unwrap()).unwrap()
    }

    #[test]
    fn renders_figure_2_tree() {
        let t = DnfTree::from_leaves(vec![vec![
            leaf(0, 1, 0.75),
            leaf(0, 2, 0.1),
            leaf(1, 1, 0.5),
        ]])
        .unwrap();
        let s = render_query_tree(&QueryTree::from(t));
        assert!(s.starts_with("or\n"));
        assert!(s.contains("A[1] p=0.75"));
        assert!(s.contains("A[2] p=0.1"));
        assert!(s.contains("B[1] p=0.5"));
    }

    #[test]
    fn named_rendering_uses_catalog_names() {
        let mut cat = StreamCatalog::new();
        cat.add_named("heart", 1.0).unwrap();
        let t = DnfTree::from_leaves(vec![vec![leaf(0, 3, 0.5)]]).unwrap();
        let s = render_dnf_named(&t, &cat);
        assert!(s.contains("heart[3]"));
        assert!(s.contains("and1"));
    }

    #[test]
    fn nested_general_tree_rendering() {
        let t = QueryTree::new(Node::or(vec![
            Node::and(vec![
                Node::Leaf(leaf(0, 1, 0.5)),
                Node::or(vec![
                    Node::Leaf(leaf(1, 1, 0.5)),
                    Node::Leaf(leaf(2, 1, 0.5)),
                ]),
            ]),
            Node::Leaf(leaf(3, 1, 0.5)),
        ]))
        .unwrap();
        let s = render_query_tree(&t);
        // two operators plus four leaves = six lines plus inner or
        assert_eq!(s.lines().count(), 7);
        assert!(s.lines().next().unwrap().starts_with("or"));
    }
}
