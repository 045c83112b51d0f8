//! `alae-lint`: workspace static analysis for the ALAE repository.
//!
//! ALAE's selling point is *exactness*, and the exactness claims rest on
//! invariants no compiler pass checks: `unsafe` confined to two audited
//! kernel modules, panic-freedom in the serving path, steady-state zero
//! allocation in the fork arena, and no blocking I/O while holding server
//! locks.  This crate machine-checks them with a hand-rolled lexer
//! ([`lexer`]) — no regex, no syn, no crates.io — and five rule families
//! ([`rules`], [`manifest`]) driven by the checked-in `lint.toml`
//! ([`config`]).
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p alae-lint --release
//! ```
//!
//! Findings print as `file:line: rule: message` and the process exits
//! nonzero when any are found.  CI runs the binary as the lint gate.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod manifest;
pub mod rules;

use config::LintConfig;
use rules::Finding;
use std::path::{Path, PathBuf};

/// Lint every `.rs` file under `root` (rules 1–4) plus the workspace
/// manifests (rule 5).  Returns the sorted findings and the number of
/// source files checked.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<(Vec<Finding>, usize), String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    collect_rust_files(root, root, config, &mut files)?;
    files.sort();
    for rel in &files {
        let source =
            std::fs::read(root.join(rel)).map_err(|err| format!("failed to read {rel}: {err}"))?;
        findings.extend(rules::lint_source(rel, &source, config));
    }
    findings.extend(manifest::check_workspace(root, config));
    findings.sort();
    findings.dedup();
    Ok((findings, files.len()))
}

/// Recursively collect workspace-relative paths of `.rs` files, skipping
/// `target`, VCS metadata and the configured excludes.
fn collect_rust_files(
    root: &Path,
    dir: &Path,
    config: &LintConfig,
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|err| format!("failed to list {}: {err}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|err| format!("failed to read dir entry: {err}"))?;
        let path = entry.path();
        let Some(rel) = relative_to(root, &path) else {
            continue;
        };
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if config.is_excluded(&rel) {
            continue;
        }
        let file_type = entry
            .file_type()
            .map_err(|err| format!("failed to stat {rel}: {err}"))?;
        if file_type.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(root, &path, config, out)?;
        } else if file_type.is_file() && rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn relative_to(root: &Path, path: &Path) -> Option<String> {
    let rel: PathBuf = path.strip_prefix(root).ok()?.to_path_buf();
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    Some(parts.join("/"))
}
