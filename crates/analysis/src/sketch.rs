//! A structural "syntax sketch" over the stripped scanner view.
//!
//! The line-oriented lints (L1–L4) need no structure, but the
//! structural ones do: *where does an `ordered_map` closure start
//! and end*, *which function does this call edge point at*. A full
//! parser (`syn`, rustc) would answer all of that — and
//! drag in exactly the dependency footprint this crate exists to
//! avoid. This module builds the minimal substitute: the scanner has
//! already blanked strings, chars and comments, so parentheses and
//! braces in the remaining text are *real* delimiters and plain
//! counting is exact. On top of that we extract:
//!
//! - **call extents**: for a callee pattern like `ordered_map(` or
//!   `.spawn(`, the byte range between its matched parentheses — the
//!   whole argument list, closures included, however many lines it
//!   spans;
//! - **function items**: name, compacted signature and brace-matched
//!   body range for every `fn`, which the call-summary pass
//!   ([`crate::callgraph`]) turns into per-crate emit/return facts;
//! - **call idents**: identifiers immediately followed by `(`, the
//!   dependency-free stand-in for call edges.
//!
//! Everything is offset-based against one joined text so multi-line
//! constructs need no special casing; [`Sketch::line_at`] maps any
//! offset back to a 1-indexed line for diagnostics.

use crate::scanner::SourceFile;

/// A byte range (half-open) inside [`Sketch::text`] — the inside of a
/// matched `(...)` or `{...}` pair, delimiters excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub start: usize,
    pub end: usize,
}

impl Extent {
    pub fn contains(&self, other: &Extent) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// One `fn` item found in the sketch.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's identifier.
    pub name: String,
    /// `fn` keyword through the byte before the body `{` (or the `;`
    /// for bodyless declarations), whitespace removed — enough to see
    /// return types like `impl Iterator<Item = f32>`.
    pub sig: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Body range between the braces; `None` for trait-method
    /// declarations and other bodyless forms.
    pub body: Option<Extent>,
}

/// The structural sketch of one scanned file.
#[derive(Debug)]
pub struct Sketch {
    /// All stripped code lines joined with `\n`.
    pub text: String,
    /// Byte offset where each 0-indexed line starts in `text`.
    line_starts: Vec<usize>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

impl Sketch {
    pub fn build(file: &SourceFile) -> Sketch {
        let mut text = String::new();
        let mut line_starts = Vec::with_capacity(file.lines.len());
        for line in &file.lines {
            line_starts.push(text.len());
            text.push_str(&line.code);
            text.push('\n');
        }
        let fns = find_fns(&text, &line_starts);
        Sketch { text, line_starts, fns }
    }

    /// 1-indexed line containing byte `offset`.
    pub fn line_at(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i.max(1),
        }
    }

    /// Extents of every call whose text ends with `needle` (which must
    /// end in `(`): the range between that `(` and its matching `)`.
    /// A needle starting with an identifier character is matched
    /// token-boundary-aware on its left, so `ordered_map(` does not
    /// hit `reordered_map(`.
    pub fn call_extents(&self, needle: &str) -> Vec<Extent> {
        debug_assert!(needle.ends_with('('));
        let bytes = self.text.as_bytes();
        let mut out = Vec::new();
        let mut from = 0usize;
        while let Some(pos) = self.text[from..].find(needle) {
            let at = from + pos;
            from = at + 1;
            let first = needle.as_bytes()[0];
            let bounded = !(first.is_ascii_alphanumeric() || first == b'_')
                || at == 0
                || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
            if !bounded {
                continue;
            }
            let open = at + needle.len() - 1;
            if let Some(close) = match_delim(&self.text, open, b'(', b')') {
                out.push(Extent { start: open + 1, end: close });
            }
        }
        out
    }
}

/// Offset of the delimiter closing the one at `open`, or `None` when
/// the text is unbalanced (half-written code; the lint then skips the
/// region rather than guessing).
fn match_delim(text: &str, open: usize, od: u8, cd: u8) -> Option<usize> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[open], od);
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == od {
            depth += 1;
        } else if b == cd {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Public paren-matching entry for other structural passes.
pub fn match_paren(text: &str, open: usize) -> Option<usize> {
    match_delim(text, open, b'(', b')')
}

/// Public angle-bracket matching (turbofish) for other passes. Plain
/// counting is acceptable here because the scanner already blanked
/// string/char literals, and `<`/`>` as comparison operators simply
/// fail to balance — callers treat `None` as "not a turbofish".
pub fn match_angle(text: &str, open: usize) -> Option<usize> {
    match_delim(text, open, b'<', b'>')
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn find_fns(text: &str, line_starts: &[usize]) -> Vec<FnItem> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find("fn ") {
        let at = from + pos;
        from = at + 3;
        if at > 0 && is_ident_char(bytes[at - 1]) {
            continue; // `often `, `burn ` … not the keyword
        }
        // Name: the identifier after `fn` (skipping whitespace).
        let mut i = at + 3;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn(usize) -> T` in type position
        }
        let name = text[name_start..i].to_string();
        // Walk to the body `{` or terminating `;`, tracking paren
        // depth so `{` inside default-argument-ish positions (none in
        // Rust, but closures in const generics) cannot confuse us.
        let mut depth = 0i64;
        let mut body = None;
        let mut sig_end = None;
        let mut j = i;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                b'{' if depth == 0 => {
                    sig_end = Some(j);
                    body = match_delim(text, j, b'{', b'}')
                        .map(|close| Extent { start: j + 1, end: close });
                    break;
                }
                b';' if depth == 0 => {
                    sig_end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(sig_end) = sig_end else { continue };
        let sig: String = text[at..sig_end].chars().filter(|c| !c.is_whitespace()).collect();
        let line = match line_starts.binary_search(&at) {
            Ok(k) => k + 1,
            Err(k) => k.max(1),
        };
        out.push(FnItem { name, sig, line, body });
    }
    out
}

/// Identifiers immediately followed by `(` within `text[range]`,
/// reported as `(absolute_offset, name)`. Control-flow keywords and
/// the ubiquitous `Some`/`Ok`/`Err`/`None` constructors are skipped —
/// they are never call edges worth following.
pub fn call_idents(text: &str, range: Extent) -> Vec<(usize, String)> {
    const SKIP: &[&str] = &[
        "if", "while", "for", "match", "return", "loop", "fn", "move", "else", "in", "as", "Some",
        "Ok", "Err", "None",
    ];
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end {
        let c = bytes[i];
        if is_ident_char(c) && !c.is_ascii_digit() && (i == 0 || !is_ident_char(bytes[i - 1])) {
            let start = i;
            while i < range.end && is_ident_char(bytes[i]) {
                i += 1;
            }
            let name = &text[start..i];
            // Allow a turbofish between name and `(`: `sum::<f32>(`.
            let mut k = i;
            if bytes.get(k) == Some(&b':') && bytes.get(k + 1) == Some(&b':') {
                if bytes.get(k + 2) == Some(&b'<') {
                    if let Some(close) = match_delim(text, k + 2, b'<', b'>') {
                        k = close + 1;
                    }
                } else {
                    continue; // path segment, not a call — keep walking
                }
            }
            if bytes.get(k) == Some(&b'(') && !SKIP.contains(&name) {
                out.push((start, name.to_string()));
            }
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn sketch(src: &str) -> Sketch {
        Sketch::build(&scan("crates/fl/src/x.rs", src))
    }

    #[test]
    fn call_extents_span_multiline_closures() {
        let s = sketch("let out = ordered_map(items, |i, x| {\n    let y = x + 1;\n    y\n});\n");
        let ext = s.call_extents("ordered_map(");
        assert_eq!(ext.len(), 1);
        let body = &s.text[ext[0].start..ext[0].end];
        assert!(body.contains("let y = x + 1;"));
        assert_eq!(s.line_at(ext[0].start), 1);
        assert!(s.call_extents("reordered_map(").is_empty());
    }

    #[test]
    fn parens_in_stripped_strings_cannot_unbalance_extents() {
        let s = sketch("go(\"((((\", |x| x)(1);\n");
        let ext = s.call_extents("go(");
        assert_eq!(ext.len(), 1);
        assert!(s.text[ext[0].start..ext[0].end].ends_with("|x| x"));
    }

    #[test]
    fn fn_items_carry_signature_and_body() {
        let s = sketch(
            "pub fn deltas(xs: &[f32]) -> impl Iterator<Item = f32> + '_ {\n    xs.iter().map(|v| v * 0.5)\n}\n\ntrait T { fn decl(&self) -> usize; }\n",
        );
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "deltas");
        assert!(s.fns[0].sig.contains("implIterator<Item=f32>"));
        assert!(s.fns[0].body.is_some());
        assert_eq!(s.fns[1].name, "decl");
        assert!(s.fns[1].body.is_none());
    }

    #[test]
    fn call_idents_take_last_path_segment_and_skip_keywords() {
        let s = sketch(
            "fn f() {\n    exec::ordered_map(v, g);\n    if cond(x) { h(y) } else { Some(z) }\n}\n",
        );
        let body = s.fns[0].body.unwrap();
        let names: Vec<String> = call_idents(&s.text, body).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["ordered_map", "cond", "h"]);
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let s = sketch("fn f() { let x = total.sum::<f32>(); }\n");
        let body = s.fns[0].body.unwrap();
        let names: Vec<String> = call_idents(&s.text, body).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["sum"]);
    }
}
