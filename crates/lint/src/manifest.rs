//! Rule family 5: workspace consistency.
//!
//! Two checks that read `Cargo.toml`s and crate roots instead of Rust
//! source:
//!
//! * **crate-root unsafe headers** — every workspace crate root carries
//!   `#![forbid(unsafe_code)]`, except the crates listed in
//!   `[consistency] deny_unsafe_roots`, which must carry
//!   `#![deny(unsafe_code)]` and scope each allowlisted module with
//!   `#![allow(unsafe_code)]`.
//! * **feature forwarding** — for each tracked feature `F`: whenever a
//!   crate declares `F` and has a path dependency that also declares `F`,
//!   the declaring crate's `F` list must forward `"<dep>/F"`.  This is what
//!   keeps `--features fault-inject` (and friends) meaning the same thing no
//!   matter which workspace member cargo is invoked from.

use crate::config::LintConfig;
use crate::rules::{Finding, Rule};
use std::collections::BTreeMap;
use std::path::Path;

/// The slice of one `Cargo.toml` the consistency rule needs.
#[derive(Debug, Default)]
pub struct Manifest {
    /// Workspace-relative directory ("" for the root package).
    pub rel_dir: String,
    /// `[workspace] members` (root manifest only).
    pub members: Vec<String>,
    /// `[dependencies]` entries with a `path`: key → (path, line).
    pub path_deps: Vec<(String, String)>,
    /// `[features]` table: name → (forward list, line of the key).
    pub features: BTreeMap<String, (Vec<String>, usize)>,
}

/// Parse the TOML subset used by the workspace manifests: sections,
/// `key = "str"`, `key = [array]` (multi-line allowed) and inline
/// dependency tables (`key = { path = "..", ... }`).
pub fn parse_manifest(rel_dir: &str, text: &str) -> Manifest {
    let mut manifest = Manifest {
        rel_dir: rel_dir.to_string(),
        ..Manifest::default()
    };
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        while (value.starts_with('[') && !value.ends_with(']'))
            || (value.starts_with('{') && !value.ends_with('}'))
        {
            let Some((_, next)) = lines.next() else { break };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        match section.as_str() {
            "workspace" if key == "members" => {
                manifest.members = parse_string_array(&value);
            }
            "dependencies" => {
                if let Some(path) = inline_table_value(&value, "path") {
                    manifest.path_deps.push((key, path));
                }
            }
            "features" => {
                manifest
                    .features
                    .insert(key, (parse_string_array(&value), idx + 1));
            }
            _ => {}
        }
    }
    manifest
}

/// Run the consistency checks over the workspace rooted at `root`.
/// `read` abstracts the filesystem so fixtures can exercise the rule.
pub fn check_workspace(root: &Path, config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let root_manifest_path = root.join("Cargo.toml");
    let Ok(root_text) = std::fs::read_to_string(&root_manifest_path) else {
        findings.push(Finding {
            file: "Cargo.toml".to_string(),
            line: 1,
            rule: Rule::Consistency,
            message: "workspace root Cargo.toml missing or unreadable".to_string(),
        });
        return findings;
    };
    let root_manifest = parse_manifest("", &root_text);

    // Collect every member manifest (the root package included).
    let mut manifests: Vec<Manifest> = vec![root_manifest];
    let member_dirs: Vec<String> = manifests[0].members.clone();
    for dir in &member_dirs {
        let path = root.join(dir).join("Cargo.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => manifests.push(parse_manifest(dir, &text)),
            Err(_) => findings.push(Finding {
                file: format!("{dir}/Cargo.toml"),
                line: 1,
                rule: Rule::Consistency,
                message: "workspace member manifest missing or unreadable".to_string(),
            }),
        }
    }

    check_crate_roots(root, config, &manifests, &mut findings);
    check_feature_forwards(config, &manifests, &mut findings);
    findings
}

/// Every crate root forbids unsafe code, except the deny-listed crates
/// whose allowlisted modules carry a scoped allowance.
fn check_crate_roots(
    root: &Path,
    config: &LintConfig,
    manifests: &[Manifest],
    findings: &mut Vec<Finding>,
) {
    for manifest in manifests {
        let Some((rel, text)) = crate_root_source(root, &manifest.rel_dir) else {
            continue;
        };
        let denies = config.deny_unsafe_roots.contains(&manifest.rel_dir);
        let (required, level) = if denies {
            ("#![deny(unsafe_code)]", "deny")
        } else {
            ("#![forbid(unsafe_code)]", "forbid")
        };
        if !text.contains(required) {
            findings.push(Finding {
                file: rel,
                line: 1,
                rule: Rule::Consistency,
                message: format!("crate root must {level} unsafe code with `{required}`"),
            });
        }
    }
    // Each allowlisted unsafe module must scope its allowance explicitly.
    for module in &config.unsafe_allowed {
        let Ok(text) = std::fs::read_to_string(root.join(module)) else {
            continue;
        };
        if !text.contains("#![allow(unsafe_code)]") {
            findings.push(Finding {
                file: module.clone(),
                line: 1,
                rule: Rule::Consistency,
                message: "allowlisted unsafe module must carry `#![allow(unsafe_code)]`"
                    .to_string(),
            });
        }
    }
}

/// The root source file of the crate in `rel_dir`: `src/lib.rs`, falling
/// back to `src/main.rs` for binary-only crates.
fn crate_root_source(root: &Path, rel_dir: &str) -> Option<(String, String)> {
    for candidate in ["src/lib.rs", "src/main.rs"] {
        let rel = if rel_dir.is_empty() {
            candidate.to_string()
        } else {
            format!("{rel_dir}/{candidate}")
        };
        let path = root.join(&rel);
        if let Ok(text) = std::fs::read_to_string(&path) {
            return Some((rel, text));
        }
    }
    None
}

/// Declared features must forward to every path dependency declaring the
/// same feature.
fn check_feature_forwards(
    config: &LintConfig,
    manifests: &[Manifest],
    findings: &mut Vec<Finding>,
) {
    // Resolve each manifest by its normalized workspace-relative directory.
    let by_dir: BTreeMap<String, &Manifest> =
        manifests.iter().map(|m| (m.rel_dir.clone(), m)).collect();
    for manifest in manifests {
        for feature in &config.features {
            let Some((forwards, line)) = manifest.features.get(feature) else {
                continue;
            };
            for (dep_key, dep_path) in &manifest.path_deps {
                let Some(dep_dir) = normalize_path(&manifest.rel_dir, dep_path) else {
                    continue;
                };
                let Some(dep_manifest) = by_dir.get(&dep_dir) else {
                    continue;
                };
                if !dep_manifest.features.contains_key(feature) {
                    continue;
                }
                let wanted = format!("{dep_key}/{feature}");
                let optional = format!("{dep_key}?/{feature}");
                if !forwards.contains(&wanted) && !forwards.contains(&optional) {
                    let file = if manifest.rel_dir.is_empty() {
                        "Cargo.toml".to_string()
                    } else {
                        format!("{}/Cargo.toml", manifest.rel_dir)
                    };
                    findings.push(Finding {
                        file,
                        line: *line,
                        rule: Rule::Consistency,
                        message: format!(
                            "feature `{feature}` must forward `{wanted}` (dependency `{dep_key}` declares `{feature}`)"
                        ),
                    });
                }
            }
        }
    }
}

/// Resolve `path` (as written in a dependency entry) against the manifest's
/// directory, returning a normalized workspace-relative directory.
fn normalize_path(base_dir: &str, path: &str) -> Option<String> {
    let mut parts: Vec<&str> = if base_dir.is_empty() {
        Vec::new()
    } else {
        base_dir.split('/').collect()
    };
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop()?;
            }
            other => parts.push(other),
        }
    }
    Some(parts.join("/"))
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Pull every quoted string out of `["a", "b"]` (or a single `"a"`).
fn parse_string_array(value: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut rest = value;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        items.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    items
}

/// Extract `key = "value"` from an inline table `{ ... }`.
fn inline_table_value(value: &str, key: &str) -> Option<String> {
    let inner = value.strip_prefix('{')?.strip_suffix('}')?;
    for part in inner.split(',') {
        let (k, v) = part.split_once('=')?;
        if k.trim() == key {
            return v
                .trim()
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::to_string);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_deps_and_features() {
        let text = r#"
[package]
name = "demo"

[dependencies]
alae-suffix = { path = "../suffix", default-features = false }
rand = { path = "../rand-shim", package = "alae-rand-shim" }

[features]
default = ["occ-counters"]
occ-counters = [
    "alae-suffix/occ-counters",
]
"#;
        let m = parse_manifest("crates/demo", text);
        assert_eq!(m.path_deps.len(), 2);
        assert_eq!(m.path_deps[0].0, "alae-suffix");
        assert_eq!(m.path_deps[0].1, "../suffix");
        let (fwd, _) = &m.features["occ-counters"];
        assert_eq!(fwd, &vec!["alae-suffix/occ-counters".to_string()]);
    }

    #[test]
    fn normalizes_relative_dep_paths() {
        assert_eq!(
            normalize_path("crates/core", "../suffix").as_deref(),
            Some("crates/suffix")
        );
        assert_eq!(
            normalize_path("crates/harness", "../..").as_deref(),
            Some("")
        );
        assert_eq!(
            normalize_path("", "crates/suffix").as_deref(),
            Some("crates/suffix")
        );
    }
}
