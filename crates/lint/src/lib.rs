//! `mpic-lint`: the workspace's own static-analysis gate.
//!
//! The workspace ships a determinism contract (bit-identical results
//! across worker counts) and a small audited unsafe surface (the exec
//! layer's job pointer). Neither is something rustc checks for us — so
//! this crate does, with a hand-rolled lexer (no external parser
//! dependencies) and nine deny-by-default rules; see [`rules`] for the
//! catalogue.
//!
//! Run it as `cargo run --release -p mpic-lint`; exit status 1 means
//! findings. CI runs it as a required job, and the crate's own test
//! suite asserts the real workspace lints clean, so `cargo test` fails
//! the moment a violation lands anywhere in the tree.

pub mod lexer;
pub mod rules;

use rules::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a full workspace scan.
#[derive(Debug)]
pub struct LintReport {
    /// How many `.rs` files were lexed and checked.
    pub files_scanned: usize,
    /// All violations, in path-then-line order.
    pub findings: Vec<Finding>,
}

/// The workspace root, resolved from this crate's own manifest dir so
/// the binary works from any cwd.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// Every first-party `.rs` file under the workspace root, sorted.
/// `vendor/` (third-party stand-ins) and `target/` are skipped.
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Scans the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> LintReport {
    let files = collect_sources(root);
    let mut findings = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = fs::read_to_string(f) else {
            continue;
        };
        findings.extend(rules::lint_file(&rel, &src));
    }
    LintReport {
        files_scanned: files.len(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The self-check: the workspace this linter ships in must satisfy
    /// its own rules. This is the test that makes every `cargo test`
    /// run a static-analysis gate.
    #[test]
    fn workspace_lints_clean() {
        let report = lint_workspace(&workspace_root());
        assert!(
            report.files_scanned >= 30,
            "suspiciously few files scanned ({}): wrong root?",
            report.files_scanned
        );
        let rendered: Vec<String> = report
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect();
        assert!(
            report.findings.is_empty(),
            "workspace has lint findings:\n{}",
            rendered.join("\n")
        );
    }

    /// The scan must cover the bench binaries and this crate itself —
    /// no carve-outs in the file walk.
    #[test]
    fn scan_covers_bench_bins_and_the_linter_itself() {
        let files = collect_sources(&workspace_root());
        let rels: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        assert!(
            rels.iter().any(|r| r.contains("crates/bench/src/bin/")),
            "bench bins missing from scan: {rels:?}"
        );
        assert!(rels.iter().any(|r| r.ends_with("crates/lint/src/rules.rs")));
        assert!(rels
            .iter()
            .any(|r| r.ends_with("crates/machine/src/exec.rs")));
        assert!(rels
            .iter()
            .any(|r| r.ends_with("tests/parallel_determinism.rs")));
        assert!(
            !rels.iter().any(|r| r.contains("/vendor/")),
            "vendored third-party stand-ins must not be linted"
        );
    }
}
