//! CI entry point for the custom source lint.
//!
//! Usage: `src-lint [workspace-root]`. With no argument, walks up from
//! the current directory to the first ancestor containing both a
//! `Cargo.toml` and a `crates/` directory. Prints one line per finding
//! and exits non-zero when anything fired.
#![forbid(unsafe_code)]

use paotr_check::srclint::lint_tree;
use std::path::PathBuf;
use std::process::ExitCode;

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(arg) => PathBuf::from(arg),
        None => match find_root() {
            Some(r) => r,
            None => {
                eprintln!(
                    "src-lint: no workspace root found (run from inside the repo or pass it)"
                );
                return ExitCode::FAILURE;
            }
        },
    };
    match lint_tree(&root) {
        Ok(hits) if hits.is_empty() => {
            println!("src-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(hits) => {
            for h in &hits {
                println!("{h}");
            }
            eprintln!("src-lint: {} violation(s)", hits.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("src-lint: {e}");
            ExitCode::FAILURE
        }
    }
}
