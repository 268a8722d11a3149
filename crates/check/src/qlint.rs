//! Lints for qlang query sources.
//!
//! `paotr check query` runs these over a parsed query and reports each
//! finding with the byte offset of the offending predicate, rendered as
//! the same caret diagnostic the parser uses for syntax errors:
//!
//! * **unused-stream** — a stream declared in the cost table
//!   (`--costs A=2`) is never referenced by the query;
//! * **duplicate-term** — two AND-terms probe the identical predicate
//!   set: `X OR X` can only waste planning work;
//! * **constant-leaf** — a predicate annotated `@ 0` or `@ 1` is
//!   constant-foldable: an always-false leaf kills its whole AND-term,
//!   an always-true leaf can be dropped from it (its window would still
//!   be pulled at full price);
//! * **absorbed-term** — a term whose predicate set is a strict
//!   superset of another term's is shadowed by absorption
//!   (`X ∨ (X ∧ Y) = X`): it can never decide the query alone.

use crate::report::{CheckError, CheckReport};
use paotr_qlang::{Expr, PredicateAst};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// The lint rules `paotr check query` knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintRule {
    /// A declared stream the query never reads.
    UnusedStream,
    /// Two AND-terms with the same predicate set.
    DuplicateTerm,
    /// A `p ∈ {0, 1}` predicate that folds to a constant.
    ConstantLeaf,
    /// A term shadowed by absorption.
    AbsorbedTerm,
}

impl LintRule {
    /// Stable kebab-case rule name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            LintRule::UnusedStream => "unused-stream",
            LintRule::DuplicateTerm => "duplicate-term",
            LintRule::ConstantLeaf => "constant-leaf",
            LintRule::AbsorbedTerm => "absorbed-term",
        }
    }
}

/// One lint finding, anchored at a byte offset of the source (offset 0
/// for findings without a source site, like an unused declaration that
/// only exists in the cost table).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLint {
    /// Which rule fired.
    pub rule: LintRule,
    /// Byte offset of the offending predicate (parser convention).
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl QueryLint {
    /// Renders the same one-line caret diagnostic as
    /// [`paotr_qlang::ParseError::render`].
    pub fn render(&self, source: &str) -> String {
        let offset = self.offset.min(source.len());
        format!(
            "warning[{}]: {}\n  | {}\n  | {}^",
            self.rule.name(),
            self.message,
            source,
            " ".repeat(source[..offset].chars().count())
        )
    }
}

impl fmt::Display for QueryLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (at byte {})",
            self.rule.name(),
            self.message,
            self.offset
        )
    }
}

/// A term flattened to comparable predicate keys plus the offset of its
/// first predicate. The key is the predicate's full semantics
/// (aggregate, stream, window, comparison, threshold, probability), so
/// two terms compare equal exactly when they probe the same thing.
struct FlatTerm {
    keys: BTreeSet<String>,
    offset: usize,
}

fn predicate_key(p: &PredicateAst) -> String {
    format!(
        "{}({},{}){}{}@{:?}",
        p.agg.name(),
        p.stream,
        p.window,
        p.cmp.symbol(),
        p.threshold,
        p.prob
    )
}

/// Walks `expr` in source order, handing each predicate its offset from
/// the parser's span vector.
fn each_predicate<'e>(
    expr: &'e Expr,
    offsets: &[usize],
    f: &mut impl FnMut(&'e PredicateAst, usize),
) {
    fn walk<'e>(
        e: &'e Expr,
        offsets: &[usize],
        next: &mut usize,
        f: &mut impl FnMut(&'e PredicateAst, usize),
    ) {
        match e {
            Expr::Pred(p) => {
                let off = offsets.get(*next).copied().unwrap_or(0);
                *next += 1;
                f(p, off);
            }
            Expr::And(cs) | Expr::Or(cs) => {
                for c in cs {
                    walk(c, offsets, next, f);
                }
            }
        }
    }
    let mut next = 0;
    walk(expr, offsets, &mut next, f);
}

/// The query's top-level AND-terms (a bare predicate or conjunction is
/// one term), flattened to predicate-key sets. `None` for nested
/// shapes where "term" has no flat meaning — term-level lints skip
/// those, predicate-level lints still run.
fn flat_terms(expr: &Expr, offsets: &[usize]) -> Option<Vec<FlatTerm>> {
    let mut next = 0;
    let mut term_of = |e: &Expr| -> Option<FlatTerm> {
        let mut keys = BTreeSet::new();
        let mut offset = usize::MAX;
        let mut flat = true;
        let mut count = |p: &PredicateAst, off: usize| {
            keys.insert(predicate_key(p));
            if offset == usize::MAX {
                offset = off;
            }
        };
        match e {
            Expr::Pred(p) => {
                count(p, offsets.get(next).copied().unwrap_or(0));
                next += 1;
            }
            Expr::And(cs) => {
                for c in cs {
                    match c {
                        Expr::Pred(p) => {
                            count(p, offsets.get(next).copied().unwrap_or(0));
                            next += 1;
                        }
                        _ => flat = false,
                    }
                }
            }
            Expr::Or(_) => flat = false,
        }
        flat.then_some(FlatTerm {
            keys,
            offset: if offset == usize::MAX { 0 } else { offset },
        })
    };
    match expr {
        Expr::Or(parts) => parts.iter().map(&mut term_of).collect(),
        other => term_of(other).map(|t| vec![t]),
    }
}

/// Lints `source` against the rules above. `declared` is the stream
/// cost table the query was compiled with (`--costs`); pass an empty
/// map when none was given. Parse failures are *not* lints — the
/// caller should surface the parser's own error instead; this returns
/// an empty clean report for unparseable sources.
pub fn lint_query(source: &str, declared: &HashMap<String, f64>) -> CheckReport {
    let mut report = CheckReport::new("query");
    let Ok((expr, offsets)) = paotr_qlang::parse_spanned(source) else {
        return report;
    };
    let push = |report: &mut CheckReport, lint: QueryLint| report.push(CheckError::Lint(lint));

    // unused-stream: declared cost table entries the query never reads.
    report.checks_run += 1;
    let mut used = BTreeSet::new();
    each_predicate(&expr, &offsets, &mut |p, _| {
        used.insert(p.stream.clone());
    });
    let mut unused: Vec<&String> = declared.keys().filter(|n| !used.contains(*n)).collect();
    unused.sort();
    for name in unused {
        push(
            &mut report,
            QueryLint {
                rule: LintRule::UnusedStream,
                offset: 0,
                message: format!("stream `{name}` is declared in the cost table but never read"),
            },
        );
    }

    // constant-leaf: p ∈ {0, 1} probabilities fold.
    report.checks_run += 1;
    each_predicate(&expr, &offsets, &mut |p, off| {
        if let Some(prob) = p.prob {
            if prob == 0.0 || prob == 1.0 {
                push(
                    &mut report,
                    QueryLint {
                        rule: LintRule::ConstantLeaf,
                        offset: off,
                        message: format!(
                            "predicate on `{}` is annotated `@ {prob}` and folds to a constant",
                            p.stream
                        ),
                    },
                );
            }
        }
    });

    // duplicate-term / absorbed-term need the flat DNF term view.
    report.checks_run += 2;
    if let Some(terms) = flat_terms(&expr, &offsets) {
        for (i, a) in terms.iter().enumerate() {
            for b in terms.iter().take(i) {
                if a.keys == b.keys {
                    push(
                        &mut report,
                        QueryLint {
                            rule: LintRule::DuplicateTerm,
                            offset: a.offset,
                            message: "this OR-term duplicates an earlier term".into(),
                        },
                    );
                    break;
                }
            }
        }
        for (i, a) in terms.iter().enumerate() {
            // `a` is absorbed when some other term's predicates are a
            // strict subset of its own.
            let absorbed = terms
                .iter()
                .enumerate()
                .any(|(j, b)| i != j && b.keys.len() < a.keys.len() && b.keys.is_subset(&a.keys));
            if absorbed {
                push(
                    &mut report,
                    QueryLint {
                        rule: LintRule::AbsorbedTerm,
                        offset: a.offset,
                        message: "this OR-term is absorbed by a smaller term \
                                  (X OR (X AND Y) = X)"
                            .into(),
                    },
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(source: &str, declared: &[(&str, f64)]) -> Vec<&'static str> {
        let declared: HashMap<String, f64> =
            declared.iter().map(|(n, c)| (n.to_string(), *c)).collect();
        lint_query(source, &declared)
            .errors
            .iter()
            .map(|e| e.rule())
            .collect()
    }

    #[test]
    fn clean_query_is_clean() {
        assert!(rules_of("A < 1 AND B > 2", &[("A", 1.0), ("B", 2.0)]).is_empty());
    }

    #[test]
    fn unused_declared_stream_is_flagged() {
        assert_eq!(
            rules_of("A < 1", &[("A", 1.0), ("C", 5.0)]),
            ["unused-stream"]
        );
    }

    #[test]
    fn constant_probabilities_are_flagged() {
        assert_eq!(rules_of("A < 1 @0", &[]), ["constant-leaf"]);
        assert_eq!(rules_of("A < 1 @1", &[]), ["constant-leaf"]);
        assert!(rules_of("A < 1 @0.5", &[]).is_empty());
    }

    #[test]
    fn duplicate_terms_are_flagged_once_at_the_later_term() {
        let report = lint_query("A < 1 OR A < 1", &HashMap::new());
        let dups: Vec<&QueryLint> = report
            .errors
            .iter()
            .filter_map(|e| match e {
                CheckError::Lint(l) if l.rule == LintRule::DuplicateTerm => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(dups.len(), 1);
        // offset points at the second `A`
        assert_eq!(dups[0].offset, 9);
    }

    #[test]
    fn absorbed_superset_term_is_flagged() {
        assert_eq!(
            rules_of("A < 1 OR (A < 1 AND B > 2)", &[]),
            ["absorbed-term"]
        );
        // distinct predicates on the same stream are not absorption
        assert!(rules_of("A < 1 OR (A < 2 AND B > 2)", &[]).is_empty());
    }

    #[test]
    fn unparseable_source_is_not_a_lint() {
        assert!(lint_query("AND AND", &HashMap::new()).is_clean());
    }
}
