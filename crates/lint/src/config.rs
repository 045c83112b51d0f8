//! The checked-in lint configuration (`lint.toml` at the workspace root).
//!
//! The parser covers exactly the TOML subset the config uses — `[section]`
//! headers, `key = "string"` and `key = ["a", "b"]` (single- or
//! multi-line) — so the lint stays dependency-free.

use std::collections::BTreeMap;

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Path prefixes (relative to the workspace root) never walked.
    pub exclude: Vec<String>,
    /// The only files allowed to contain `unsafe` (each must justify every
    /// block with a SAFETY comment and scope `#![allow(unsafe_code)]`).
    pub unsafe_allowed: Vec<String>,
    /// Files/directories under the panic policy (no `.unwrap()`,
    /// `.expect(`, `panic!`, `todo!`, `unreachable!` outside test code).
    pub panic_paths: Vec<String>,
    /// Allocating constructors banned inside marked regions.
    pub no_alloc_banned: Vec<String>,
    /// Files/directories checked for blocking calls under a live lock.
    pub lock_paths: Vec<String>,
    /// Call patterns considered blocking for the lock rule.
    pub blocking_calls: Vec<String>,
    /// Crate directories whose roots carry `#![deny(unsafe_code)]` (with
    /// scoped module allowances) instead of `#![forbid(unsafe_code)]`.
    pub deny_unsafe_roots: Vec<String>,
    /// Features whose forwarding must be consistent across the workspace.
    pub features: Vec<String>,
}

impl LintConfig {
    /// Parse the `lint.toml` text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let sections = parse_sections(text)?;
        let mut config = Self::default();
        for (section, values) in &sections {
            for (key, value) in values {
                let slot = match (section.as_str(), key.as_str()) {
                    ("files", "exclude") => &mut config.exclude,
                    ("unsafe", "allowed") => &mut config.unsafe_allowed,
                    ("panic", "paths") => &mut config.panic_paths,
                    ("no_alloc", "banned") => &mut config.no_alloc_banned,
                    ("locks", "paths") => &mut config.lock_paths,
                    ("locks", "blocking") => &mut config.blocking_calls,
                    ("consistency", "deny_unsafe_roots") => &mut config.deny_unsafe_roots,
                    ("consistency", "features") => &mut config.features,
                    (section, key) => {
                        return Err(format!("lint.toml: unknown key [{section}] {key}"));
                    }
                };
                *slot = value.clone();
            }
        }
        Ok(config)
    }

    /// Whether `rel` (a `/`-separated workspace-relative path) is `path`
    /// itself or lies underneath it.
    pub fn path_matches(rel: &str, path: &str) -> bool {
        rel == path || rel.starts_with(&format!("{path}/"))
    }

    pub fn is_excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|p| Self::path_matches(rel, p))
    }

    pub fn unsafe_is_allowed(&self, rel: &str) -> bool {
        self.unsafe_allowed.iter().any(|p| rel == p)
    }

    pub fn under_panic_policy(&self, rel: &str) -> bool {
        self.panic_paths.iter().any(|p| Self::path_matches(rel, p))
    }

    pub fn under_lock_policy(&self, rel: &str) -> bool {
        self.lock_paths.iter().any(|p| Self::path_matches(rel, p))
    }
}

type Sections = BTreeMap<String, Vec<(String, Vec<String>)>>;

fn parse_sections(text: &str) -> Result<Sections, String> {
    let mut sections: Sections = BTreeMap::new();
    let mut current = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            current = name.trim().to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint.toml:{}: expected `key = ...`", lineno + 1));
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        // A multi-line array: keep consuming lines until the bracket closes.
        while value.starts_with('[') && !value.ends_with(']') {
            let Some((_, next)) = lines.next() else {
                return Err(format!("lint.toml:{}: unterminated array", lineno + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let items = parse_value(&value)
            .map_err(|err| format!("lint.toml:{}: {err} (key {key})", lineno + 1))?;
        if current.is_empty() {
            return Err(format!("lint.toml:{}: key outside a [section]", lineno + 1));
        }
        sections
            .entry(current.clone())
            .or_default()
            .push((key, items));
    }
    Ok(sections)
}

/// A `#` starts a comment unless inside a quoted string.
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

/// Parse `"string"` (one item) or `["a", "b"]` (many).
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_string(part)?);
        }
        Ok(items)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

fn parse_string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let text = r#"
# top comment
[files]
exclude = ["target", "crates/lint/tests/fixtures"]

[unsafe]
allowed = [
    "crates/server/src/signals.rs", # trailing comment
    "crates/store/src/mmap.rs",
]

[locks]
paths = ["crates/server/src"]
blocking = ["read_exact"]
"#;
        let config = LintConfig::parse(text).unwrap();
        assert_eq!(config.exclude.len(), 2);
        assert_eq!(config.unsafe_allowed.len(), 2);
        assert_eq!(config.blocking_calls, vec!["read_exact"]);
        assert!(config.is_excluded("target/debug/foo.rs"));
        assert!(config.unsafe_is_allowed("crates/store/src/mmap.rs"));
        assert!(!config.unsafe_is_allowed("crates/store/src/lib.rs"));
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(LintConfig::parse("[nope]\nx = \"y\"\n").is_err());
    }

    #[test]
    fn path_matching_is_component_wise() {
        assert!(LintConfig::path_matches("src/search.rs", "src/search.rs"));
        assert!(LintConfig::path_matches(
            "crates/server/src/lib.rs",
            "crates/server/src"
        ));
        assert!(!LintConfig::path_matches(
            "src/search_extra.rs",
            "src/search.rs"
        ));
    }
}
