//! L3 — unsafe hygiene.
//!
//! Only the SIMD microkernels in `fedmp-tensor` are allowed to contain
//! `unsafe` (intrinsic loads and stores behind checked sub-slices);
//! every other crate carries `#![forbid(unsafe_code)]`. This
//! lint enforces the same rule statically across the whole tree —
//! including code the compiler might not currently build (cfg'd-out
//! modules, examples) — and additionally requires every `unsafe`
//! occurrence in the allowlisted files to carry a `// SAFETY:` comment
//! on the same line or the lines directly above it.
//!
//! Unlike the determinism/no-panic lints, this one does **not** skip
//! `#[cfg(test)]` regions: unsafe code is unsafe in tests too.

use crate::config::LintConfig;
use crate::diagnostics::Sink;
use crate::scanner::{contains_token, SourceFile};

pub const NAME: &str = "unsafe-hygiene";

pub fn check(file: &SourceFile, cfg: &LintConfig, out: &mut Sink) {
    let allowed_file = cfg.allow.iter().any(|p| crate::config::path_has_prefix(&file.path, p));
    for (idx, line) in file.lines.iter().enumerate() {
        if !contains_token(&line.code, "unsafe") {
            continue;
        }
        if !allowed_file {
            out.report(
                file,
                idx,
                NAME,
                format!(
                    "`unsafe` outside the allowlisted modules ({}); all other crates are \
                     `#![forbid(unsafe_code)]` — move the code behind a safe API in \
                     fedmp-tensor or find a safe formulation",
                    cfg.allow.join(", ")
                ),
            );
        } else if !has_safety_comment(file, idx) {
            out.report(
                file,
                idx,
                NAME,
                "`unsafe` without a `// SAFETY:` comment; state the invariant that makes \
                 this sound on the line above (why the raw pointers are disjoint, why the \
                 lifetime is honored, ...)",
            );
        }
    }
}

/// A `SAFETY:` comment counts when it is on the `unsafe` line itself or
/// on the contiguous run of comment-only / attribute-only lines
/// immediately above it.
fn has_safety_comment(file: &SourceFile, idx: usize) -> bool {
    if file.lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        let code = l.code.trim();
        if code.is_empty() || code.starts_with("#[") {
            if l.comment.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn cfg() -> LintConfig {
        LintConfig {
            allow: vec!["crates/tensor/src/parallel.rs".to_string()],
            ..LintConfig::default()
        }
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n";
        let file = scan("crates/fl/src/lm.rs", src);
        let mut out = Sink::new();
        check(&file, &cfg(), &mut out);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].line, 3);
        assert!(out.findings[0].message.contains("forbid(unsafe_code)"));
    }

    #[test]
    fn allowlisted_unsafe_needs_a_safety_comment() {
        let src = "fn f(p: *mut f32) {\n    unsafe { *p = 0.0 };\n}\n\n// SAFETY: the pointer is valid for writes by construction.\nunsafe fn g(p: *mut f32) { unsafe { *p = 1.0 } }\n";
        let file = scan("crates/tensor/src/parallel.rs", src);
        let mut out = Sink::new();
        check(&file, &cfg(), &mut out);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].line, 2);
        assert!(out.findings[0].message.contains("SAFETY:"));
    }

    #[test]
    fn safety_comment_above_attributes_still_counts() {
        let src = "// SAFETY: disjoint bands, see BandQueue docs.\n#[allow(clippy::mut_from_ref)]\nunsafe impl<T: Send> Sync for Q<T> {}\n";
        let file = scan("crates/tensor/src/parallel.rs", src);
        let mut out = Sink::new();
        check(&file, &cfg(), &mut out);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "// unsafe is discussed here\nlet s = \"unsafe\";\n";
        let file = scan("crates/fl/src/lm.rs", src);
        let mut out = Sink::new();
        check(&file, &cfg(), &mut out);
        assert!(out.findings.is_empty());
    }
}
