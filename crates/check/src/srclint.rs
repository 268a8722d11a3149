//! The repo's custom source lint (the `src-lint` bin).
//!
//! Four rules, each born from a real defect class in this codebase's
//! history:
//!
//! * **float-cmp** — `partial_cmp(..).unwrap()` / `.expect(..)` in f64
//!   comparators. PR 4 fixed a family of NaN-sort panics scattered
//!   across six planners; `total_cmp` is total and never panics.
//!   Applies everywhere, bins included.
//! * **bare-unwrap** — `.unwrap()` with no message in library code.
//!   Outside tests and bins an invariant worth unwrapping is worth
//!   documenting (`expect("why this holds")`) or worth a typed error.
//! * **unsafe-block** — `unsafe` anywhere, test modules included. Every
//!   crate root also carries `#![forbid(unsafe_code)]`.
//! * **serve-panic** — `panic!`, `unreachable!`, `todo!` or
//!   `unimplemented!` in the non-test code of the serving crates
//!   (`streamsim`, `arrange`, `exec`, `serverd`). A cold
//!   stream used to abort the tick runtime through such a `panic!`;
//!   serving paths return typed errors or degrade (an unreadable leaf
//!   is Kleene-unknown) instead.
//!
//! Any line can opt out with an inline `// lint:allow(<rule>)` on the
//! same line or the line directly above; the escape hatch is meant to
//! be grep-able, so each use stays visible.
//!
//! The walker is std-only (same pattern as `bench-diff`): no syn, no
//! regex — line-oriented scanning, cheap enough to run on every CI
//! push. Code after a `#[cfg(test)]` marker is treated as test code.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is binary-facing: `bare-unwrap` does not apply
/// (a CLI that unwraps prints a panic to its own user; the daemon and
/// library paths must not).
const BIN_CRATES: [&str; 3] = ["crates/cli", "crates/experiments", "crates/bench"];

/// Crates (under `crates/`) whose `src/` serves requests:
/// `serve-panic` applies there.
const SERVING_CRATES: [&str; 4] = ["streamsim", "arrange", "exec", "serverd"];

/// The panicking macros `serve-panic` rejects.
const PANIC_MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];

/// The lint's own implementation necessarily spells out the patterns it
/// hunts for; it is fully exempt (and lives in a `forbid(unsafe_code)`
/// crate regardless).
const SELF: &str = "crates/check/src/srclint.rs";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintHit {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl fmt::Display for LintHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// True when `line` (or the previous line) carries a
/// `lint:allow(<rule>)` marker for `rule`.
fn allowed(rule: &str, line: &str, prev: Option<&str>) -> bool {
    let marker = |l: &str| {
        l.split("lint:allow(").skip(1).any(|rest| {
            rest.split(')')
                .next()
                .is_some_and(|rules| rules.split(',').any(|r| r.trim() == rule))
        })
    };
    marker(line) || prev.is_some_and(marker)
}

/// True when the byte at `idx` is an identifier character.
fn is_ident_byte(line: &str, idx: usize) -> bool {
    line.as_bytes()
        .get(idx)
        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
}

/// True when the bytes around an `unsafe` match keep it from being the
/// keyword (`unsafe_code`, `unsafely`, ...).
fn is_unsafe_keyword(line: &str, idx: usize) -> bool {
    // Preceded by start or a non-identifier character, and followed by
    // one too.
    (idx == 0 || !is_ident_byte(line, idx - 1)) && !is_ident_byte(line, idx + "unsafe".len())
}

/// True when `line` invokes one of [`PANIC_MACROS`] (not as the tail of
/// a longer identifier such as `my_todo!`).
fn invokes_panic_macro(line: &str) -> bool {
    PANIC_MACROS.iter().any(|m| {
        line.match_indices(m)
            .any(|(idx, _)| idx == 0 || !is_ident_byte(line, idx - 1))
    })
}

/// True when the line is inside a string literal context we can cheaply
/// dodge: doc comments and plain comments. (Full string-literal
/// tracking is overkill for four rules; the allow marker covers the
/// rare false positive.)
fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("*") || t.starts_with("/*")
}

/// Scans one file's text. `path` is the workspace-relative label used
/// in findings and for the per-file rule exemptions; pass the real
/// relative path when linting a tree, or any label in tests.
pub(crate) fn lint_source(path: &str, text: &str) -> Vec<LintHit> {
    let norm = path.replace('\\', "/");
    if norm.ends_with(SELF) {
        return Vec::new();
    }
    let in_tests_dir = norm.contains("/tests/") || norm.ends_with("/tests.rs");
    let serving = SERVING_CRATES
        .iter()
        .any(|c| norm.starts_with(&format!("crates/{c}/src/")));
    let in_bin = norm.contains("/bin/")
        || norm.ends_with("/main.rs")
        || BIN_CRATES
            .iter()
            .any(|c| norm.starts_with(&format!("{c}/")));

    let mut hits = Vec::new();
    let mut prev: Option<&str> = None;
    // Everything after the first `#[cfg(test)]` is treated as test code
    // (the repo keeps test modules at the end of each file). Brace
    // counting would be tempting but breaks on files whose string
    // literals contain braces, like the JSON codec.
    let mut in_test_mod = false;

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.contains("#[cfg(test)]") {
            in_test_mod = true;
        }

        if is_comment(line) {
            prev = Some(line);
            continue;
        }
        let exempt_code = in_tests_dir || in_test_mod;

        // float-cmp: a partial_cmp whose Option is force-unwrapped.
        if !exempt_code
            && line.contains("partial_cmp")
            && (line.contains(".unwrap()") || line.contains(".expect("))
            && !allowed("float-cmp", line, prev)
        {
            hits.push(LintHit {
                file: norm.clone(),
                line: lineno,
                rule: "float-cmp",
                snippet: line.trim().to_string(),
            });
        }

        // bare-unwrap: undocumented unwraps in library code.
        if !exempt_code
            && !in_bin
            && line.contains(".unwrap()")
            && !line.contains("partial_cmp") // already reported above
            && !allowed("bare-unwrap", line, prev)
        {
            hits.push(LintHit {
                file: norm.clone(),
                line: lineno,
                rule: "bare-unwrap",
                snippet: line.trim().to_string(),
            });
        }

        // serve-panic: an abort on a serving path.
        if !exempt_code
            && serving
            && invokes_panic_macro(line)
            && !allowed("serve-panic", line, prev)
        {
            hits.push(LintHit {
                file: norm.clone(),
                line: lineno,
                rule: "serve-panic",
                snippet: line.trim().to_string(),
            });
        }

        // unsafe-block: the keyword anywhere. Test modules are not
        // exempt — unsafe in tests is still unsafe.
        if !allowed("unsafe-block", line, prev) {
            let mut search = 0;
            while let Some(pos) = line[search..].find("unsafe") {
                let idx = search + pos;
                if is_unsafe_keyword(line, idx) {
                    hits.push(LintHit {
                        file: norm.clone(),
                        line: lineno,
                        rule: "unsafe-block",
                        snippet: line.trim().to_string(),
                    });
                    break;
                }
                search = idx + "unsafe".len();
            }
        }

        prev = Some(line);
    }
    hits
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src` tree under `workspace_root`. Paths in
/// findings are workspace-relative.
pub fn lint_tree(workspace_root: &Path) -> std::io::Result<Vec<LintHit>> {
    let crates_dir = workspace_root.join("crates");
    let mut crates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    let mut hits = Vec::new();
    for krate in crates {
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for file in files {
            let text = std::fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(workspace_root)
                .unwrap_or(&file)
                .to_string_lossy()
                .to_string();
            hits.extend(lint_source(&rel, &text));
        }
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, text: &str) -> Vec<&'static str> {
        lint_source(path, text)
            .into_iter()
            .map(|h| h.rule)
            .collect()
    }

    #[test]
    fn partial_cmp_unwrap_fires_everywhere_even_in_bins() {
        let bad = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(rules_of("crates/core/src/x.rs", bad), ["float-cmp"]);
        assert_eq!(rules_of("crates/cli/src/x.rs", bad), ["float-cmp"]);
        let expect = "v.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\"));\n";
        assert_eq!(rules_of("crates/core/src/x.rs", expect), ["float-cmp"]);
    }

    #[test]
    fn total_cmp_is_clean() {
        let good = "v.sort_by(|a, b| a.total_cmp(b));\n";
        assert!(rules_of("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn bare_unwrap_fires_in_lib_code_only() {
        let bad = "let x = map.get(&k).unwrap();\n";
        assert_eq!(rules_of("crates/core/src/x.rs", bad), ["bare-unwrap"]);
        // bins, tests dirs, and post-#[cfg(test)] code are exempt
        assert!(rules_of("crates/cli/src/x.rs", bad).is_empty());
        assert!(rules_of("crates/core/src/bin/tool.rs", bad).is_empty());
        assert!(rules_of("crates/core/tests/x.rs", bad).is_empty());
        let tested = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{bad}}}\n");
        assert!(rules_of("crates/core/src/x.rs", &tested).is_empty());
        // expect() with a message is the sanctioned form
        let expect = "let x = map.get(&k).expect(\"inserted above\");\n";
        assert!(rules_of("crates/core/src/x.rs", expect).is_empty());
    }

    #[test]
    fn unsafe_fires_outside_audited_files_including_tests() {
        let bad = "let p = unsafe { &*ptr };\n";
        assert_eq!(rules_of("crates/core/src/x.rs", bad), ["unsafe-block"]);
        let tested = format!("#[cfg(test)]\nmod tests {{\n{bad}}}\n");
        assert_eq!(rules_of("crates/core/src/x.rs", &tested), ["unsafe-block"]);
        // identifier containing the substring is not the keyword
        let ident = "forbid_unsafe_code_everywhere();\n";
        assert!(rules_of("crates/core/src/x.rs", ident).is_empty());
    }

    #[test]
    fn serve_panic_fires_in_serving_crates_only() {
        for bad in [
            "panic!(\"cold stream\");\n",
            "_ => unreachable!(),\n",
            "todo!()\n",
            "unimplemented!(\"later\")\n",
        ] {
            for krate in SERVING_CRATES {
                let path = format!("crates/{krate}/src/x.rs");
                assert_eq!(rules_of(&path, bad), ["serve-panic"], "{path}: {bad}");
            }
            // Planning crates, bins and test code are out of scope.
            assert!(rules_of("crates/core/src/x.rs", bad).is_empty());
            assert!(rules_of("crates/cli/src/x.rs", bad).is_empty());
            assert!(rules_of("crates/serverd/tests/x.rs", bad).is_empty());
            let tested = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{bad}}}\n");
            assert!(rules_of("crates/exec/src/x.rs", &tested).is_empty());
        }
        // Not the macros: longer identifiers, non-macro paths, comments
        // and asserts.
        let clean = "my_todo!(); std::panic::catch_unwind(f); assert!(ok);\n// panic!()\n";
        assert!(rules_of("crates/exec/src/x.rs", clean).is_empty());
        let allowed = "panic!(\"x\"); // lint:allow(serve-panic)\n";
        assert!(rules_of("crates/exec/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_same_or_previous_line() {
        let same = "let x = o.unwrap(); // lint:allow(bare-unwrap)\n";
        assert!(rules_of("crates/core/src/x.rs", same).is_empty());
        let prev = "// lint:allow(bare-unwrap)\nlet x = o.unwrap();\n";
        assert!(rules_of("crates/core/src/x.rs", prev).is_empty());
        // marker for a different rule does not suppress
        let wrong = "let x = o.unwrap(); // lint:allow(float-cmp)\n";
        assert_eq!(rules_of("crates/core/src/x.rs", wrong), ["bare-unwrap"]);
    }

    #[test]
    fn comment_lines_do_not_fire() {
        let doc = "// calls .unwrap() internally\nlet y = 1;\n";
        assert!(rules_of("crates/core/src/x.rs", doc).is_empty());
    }

    #[test]
    fn the_lint_is_self_exempt() {
        assert!(rules_of(SELF, "let x = o.unwrap(); unsafe {}\n").is_empty());
    }
}
