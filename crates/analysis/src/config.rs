//! `analysis.toml` loading.
//!
//! The workspace vendors no TOML crate, so this module parses the small
//! subset the config actually uses: `[section.sub]` headers and `key =`
//! (possibly multiline) arrays of strings. Anything outside that subset
//! is a hard error — the config is checked in, so failing loudly beats
//! guessing.

use std::collections::BTreeMap;
use std::fmt;

/// Configuration for one lint: where it applies and where it is
/// excused.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Path prefixes (workspace-relative) the lint scans. Empty means
    /// "every scanned file".
    pub scope: Vec<String>,
    /// Path prefixes exempted wholesale (with a reason recorded in the
    /// config comments, not here).
    pub allow: Vec<String>,
}

impl LintConfig {
    /// Whether `path` falls inside this lint's scope (ignoring the
    /// allow list). The config audit reruns a lint over allowlisted
    /// files to see whether each entry still excuses anything.
    pub fn in_scope(&self, path: &str) -> bool {
        self.scope.is_empty() || self.scope.iter().any(|p| path_has_prefix(path, p))
    }

    /// Whether `path` falls inside this lint's scope and outside its
    /// allow list.
    pub fn applies_to(&self, path: &str) -> bool {
        self.in_scope(path) && !self.allow.iter().any(|p| path_has_prefix(path, p))
    }
}

/// The parsed `analysis.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directory prefixes to walk for `.rs` files.
    pub roots: Vec<String>,
    /// Prefixes excluded from the walk (vendored code, fixtures…).
    pub skip: Vec<String>,
    /// Lint name → configuration. A lint runs iff its table exists.
    pub lints: BTreeMap<String, LintConfig>,
}

/// A config-loading failure, with the offending line when known.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "analysis.toml:{}: {}", self.line, self.message)
        } else {
            write!(f, "analysis.toml: {}", self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError { line, message: message.into() })
}

/// True when `path` equals `prefix` or sits beneath it (component-wise,
/// so `crates/fl-data` is not a prefix match for `crates/fl`).
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// Parses the TOML subset described in the module docs.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section: Vec<String> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return err(lineno, "unterminated section header");
            };
            section = name.split('.').map(|s| s.trim().to_string()).collect();
            if section.iter().any(String::is_empty) {
                return err(lineno, "empty section name component");
            }
            // The header alone enables a lint: `[lints.x]` with no keys
            // is a valid "run with defaults" configuration.
            if let [s, lint] = section.as_slice() {
                if s == "lints" {
                    cfg.lints.entry(lint.clone()).or_default();
                }
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            return err(lineno, format!("expected `key = value`, got `{line}`"));
        };
        let key = line[..eq].trim().to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // Multiline arrays: keep consuming until the bracket closes
        // outside any string literal.
        while value.starts_with('[') && !array_closed(&value) {
            let Some((_, next)) = lines.next() else {
                return err(lineno, format!("unterminated array for key `{key}`"));
            };
            value.push(' ');
            value.push_str(strip_toml_comment(next).trim());
        }
        apply(&mut cfg, &section, &key, &value, lineno)?;
    }
    if cfg.roots.is_empty() {
        return err(0, "missing or empty `workspace.roots`");
    }
    Ok(cfg)
}

fn apply(
    cfg: &mut Config,
    section: &[String],
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<(), ConfigError> {
    match section {
        [s] if s == "workspace" => match key {
            "roots" => cfg.roots = parse_string_array(value, lineno)?,
            "skip" => cfg.skip = parse_string_array(value, lineno)?,
            other => return err(lineno, format!("unknown workspace key `{other}`")),
        },
        [s, name] if s == "lints" => {
            let lint = cfg.lints.entry(name.clone()).or_default();
            match key {
                "scope" => lint.scope = parse_string_array(value, lineno)?,
                "allow" => lint.allow = parse_string_array(value, lineno)?,
                other => return err(lineno, format!("unknown lint key `{other}`")),
            }
        }
        _ => return err(lineno, format!("unknown section `[{}]`", section.join("."))),
    }
    Ok(())
}

/// Removes a `#` comment, respecting `"` string boundaries.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Whether a `[` array literal has its matching `]` (strings ignored).
fn array_closed(value: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

fn parse_string(value: &str) -> Option<String> {
    let v = value.trim();
    let inner = v.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v.strip_prefix('[').and_then(|r| r.strip_suffix(']')).ok_or_else(|| {
        ConfigError { line: lineno, message: format!("expected an array, got `{value}`") }
    })?;
    let mut out = Vec::new();
    for item in split_top_level(inner) {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        match parse_string(item) {
            Some(s) => out.push(s),
            None => return err(lineno, format!("array item `{item}` is not a quoted string")),
        }
    }
    Ok(out)
}

/// Splits on commas outside string literals.
fn split_top_level(inner: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_and_multiline_arrays() {
        let text = r#"
# top comment
[workspace]
roots = ["crates", "src"]
skip = [
    "vendor",           # vendored stand-ins
    "crates/analysis/tests/fixtures",
]

[lints.determinism]
scope = ["crates/fl/src"]
allow = ["crates/tensor/src/parallel.rs"]

[lints.suppression-audit]
"#;
        let cfg = parse(text).unwrap();
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.skip.len(), 2);
        let det = &cfg.lints["determinism"];
        assert!(det.applies_to("crates/fl/src/lm.rs"));
        assert!(!det.applies_to("crates/nn/src/optim.rs"));
        assert!(cfg.lints.contains_key("suppression-audit"), "a bare header enables a lint");
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        assert!(path_has_prefix("crates/fl/src/lm.rs", "crates/fl"));
        assert!(!path_has_prefix("crates/fl-data/src/lib.rs", "crates/fl"));
        assert!(path_has_prefix("crates/tensor/src/parallel.rs", "crates/tensor/src/parallel.rs"));
    }

    #[test]
    fn rejects_unquoted_items_and_missing_roots() {
        assert!(parse("[workspace]\nroots = [crates]\n").is_err());
        assert!(parse("[lints.no-panic]\nscope = [\"x\"]\n").is_err());
        assert!(parse("[workspace]\nroots = [\"c\"]\n[lints.no-panic]\nmode = \"x\"\n").is_err());
    }
}
