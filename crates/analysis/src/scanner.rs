//! A comment- and string-aware line scanner for Rust source.
//!
//! The linter deliberately avoids a full parser: every rule it enforces
//! is expressible over *code tokens per line*, provided comments and
//! string literals are reliably stripped first (so `"HashMap"` in a
//! message, or `unwrap` in a doc comment, never trips a lint). This
//! module produces that view: for each physical line, the code with
//! comments removed and string/char literal *contents* blanked, the
//! comment text (for suppression directives), whether the
//! line sits inside a `#[cfg(test)]` item, and any
//! `// fedmp-analysis: allow(<lint>) -- <reason>` suppressions that
//! apply to it.

/// One inline suppression parsed from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The lint name inside `allow(...)`.
    pub lint: String,
    /// Whether the mandatory `-- <reason>` trailer was present and
    /// non-empty. Reason-less suppressions do **not** suppress; they
    /// are reported by the `suppression` meta-lint instead.
    pub reason_ok: bool,
    /// 1-indexed line of the directive comment itself (which may be
    /// above the code line it covers). The suppression-audit lint keys
    /// its used/dead bookkeeping on this line.
    pub line: usize,
}

/// One physical source line, post-stripping.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments removed and literal contents blanked.
    /// Structure (braces, calls, turbofish) is preserved verbatim.
    pub code: String,
    /// The comment text carried by this line (line, block and doc
    /// comments concatenated).
    pub comment: String,
    /// True when the line is inside an item gated by `#[cfg(test)]`.
    pub in_test: bool,
    /// Suppressions that apply to this line (its own trailing comment,
    /// plus any suppression-only comment lines directly above).
    pub suppressions: Vec<Suppression>,
}

impl Line {
    /// Whether a well-formed suppression for `lint` covers this line.
    pub fn suppresses(&self, lint: &str) -> bool {
        self.suppressions.iter().any(|s| s.reason_ok && s.lint == lint)
    }
}

/// A scanned source file: its workspace-relative path and line table.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the scanned root, with `/` separators.
    pub path: String,
    /// Per-line stripped view, 0-indexed (diagnostics add 1).
    pub lines: Vec<Line>,
    /// Lines carrying a `fedmp-analysis:` marker that failed to parse
    /// or omitted the mandatory reason (1-indexed).
    pub malformed_suppressions: Vec<usize>,
    /// Every well-formed directive in the file, in order, whether or
    /// not it attached to a code line. The suppression-audit lint
    /// diffs this list against the suppressions that actually fired.
    pub directives: Vec<Suppression>,
}

/// Scans `source`, producing the stripped line table for `path`.
pub fn scan(path: &str, source: &str) -> SourceFile {
    let stripped = strip(source);
    let mut lines: Vec<Line> = stripped
        .into_iter()
        .map(|(code, comment)| Line { code, comment, in_test: false, suppressions: Vec::new() })
        .collect();
    mark_test_regions(&mut lines);
    let (malformed, directives) = attach_suppressions(&mut lines);
    SourceFile { path: path.to_string(), lines, malformed_suppressions: malformed, directives }
}

/// Character-level stripping pass: returns `(code, comment)` per line.
fn strip(source: &str) -> Vec<(String, String)> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut out = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = Mode::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; every other mode
            // continues across it.
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            out.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if c == '\'' {
                    // Distinguish char literals from lifetimes: a char
                    // literal is `'\..'` or `'X'`; everything else
                    // (e.g. `'a` in `&'a str`) passes through as code.
                    if next == Some('\\') || (chars.get(i + 2) == Some(&'\'') && next.is_some()) {
                        code.push_str("''");
                        mode = Mode::Char;
                        i += 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    // Raw / byte / raw-byte string openers: r", r#",
                    // br", b" etc. Anything else falls through as code.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = c != 'b' || j > i + 1;
                    if chars.get(j) == Some(&'"') && (is_raw || hashes == 0) {
                        if c == 'b' && j == i + 1 {
                            // Plain byte string b"...": ordinary escapes.
                            code.push_str("b\"");
                            mode = Mode::Str;
                            i = j + 1;
                        } else {
                            code.push_str("r\"");
                            mode = Mode::RawStr(hashes);
                            i = j + 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 { Mode::Code } else { Mode::BlockComment(depth - 1) };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped character (contents blanked)
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        code.push('"');
                        mode = Mode::Code;
                        i = j;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            Mode::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        out.push((code, comment));
    }
    out
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Marks every line inside a `#[cfg(test)]`-gated item. Brace counting
/// over the stripped code is exact because literal/comment braces are
/// already gone.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth = 0i64;
    let mut pending: Option<i64> = None; // depth at which the attr appeared
    let mut region: Option<i64> = None; // depth owning the test item's block
    for line in lines.iter_mut() {
        let mut active = region.is_some();
        let compact: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        if region.is_none()
            && (compact.contains("#[cfg(test)]") || compact.contains("#[cfg(all(test"))
        {
            pending = Some(depth);
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(p) = pending {
                        if region.is_none() && depth == p + 1 {
                            region = Some(depth);
                            pending = None;
                            active = true;
                        }
                    }
                }
                '}' => {
                    if region == Some(depth) {
                        region = None;
                    }
                    depth -= 1;
                }
                // `#[cfg(test)] use …;` — the attribute gated a
                // braceless item; nothing further to mark.
                ';' if pending == Some(depth) => {
                    pending = None;
                    active = true;
                }
                _ => {}
            }
        }
        line.in_test = active || region.is_some();
    }
}

/// Parses `fedmp-analysis: allow(<lint>) -- <reason>` directives and
/// attaches them to the line they cover (their own line when it has
/// code, otherwise the next code-bearing line). Returns the 1-indexed
/// lines whose directive was malformed or reason-less.
///
/// A directive must *begin* the comment (after doc-comment `/`/`!`
/// markers and whitespace). Mid-sentence mentions of the marker —
/// prose *about* the directive syntax — are not directive attempts.
fn attach_suppressions(lines: &mut [Line]) -> (Vec<usize>, Vec<Suppression>) {
    const MARKER: &str = "fedmp-analysis:";
    let mut malformed = Vec::new();
    let mut directives = Vec::new();
    let mut pending: Vec<Suppression> = Vec::new();
    for (idx, line) in lines.iter_mut().enumerate() {
        let has_code = !line.code.trim().is_empty();
        let anchored = line.comment.trim_start_matches(['/', '!', ' ', '\t']);
        if let Some(tail) = anchored.strip_prefix(MARKER) {
            match parse_directive(tail, idx + 1) {
                Some(s) => {
                    if !s.reason_ok {
                        malformed.push(idx + 1);
                    }
                    directives.push(s.clone());
                    if has_code {
                        line.suppressions.push(s);
                    } else {
                        pending.push(s);
                    }
                }
                None => malformed.push(idx + 1),
            }
        }
        if has_code && !pending.is_empty() {
            line.suppressions.append(&mut pending);
        }
    }
    (malformed, directives)
}

/// Parses the tail after `fedmp-analysis:`. Expected shape:
/// ` allow(<lint>) -- <reason>`.
fn parse_directive(tail: &str, line: usize) -> Option<Suppression> {
    let tail = tail.trim_start();
    let rest = tail.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    if lint.is_empty() || !lint.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return None;
    }
    let after = rest[close + 1..].trim_start();
    let reason_ok = match after.strip_prefix("--") {
        Some(reason) => !reason.trim().is_empty(),
        None => false,
    };
    Some(Suppression { lint, reason_ok, line })
}

/// True when `needle` occurs in `haystack` delimited by non-identifier
/// characters on both sides (so `Instant` does not match
/// `InstantaneousRate`).
pub fn contains_token(haystack: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !haystack[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + needle.len();
        let after_ok =
            !haystack[end..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = "let x = \"HashMap in a string\"; // HashMap in a comment\nlet y = 1;\n";
        let f = scan("a.rs", src);
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
        assert_eq!(f.lines[1].code.trim(), "let y = 1;");
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "let a = r#\"unsafe { } \"# ; let b = '\\u{1F600}'; let c = b\"unsafe\";\n";
        let f = scan("a.rs", src);
        assert!(!f.lines[0].code.contains("unsafe"), "{}", f.lines[0].code);
    }

    #[test]
    fn lifetimes_survive_stripping() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        let f = scan("a.rs", src);
        assert!(f.lines[0].code.contains("&'a str"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "a /* one /* two */ still */ b\n/* open\nunsafe\n*/ c\n";
        let f = scan("a.rs", src);
        assert_eq!(f.lines[0].code.replace(' ', ""), "ab");
        assert!(f.lines[2].code.trim().is_empty());
        assert!(f.lines[2].comment.contains("unsafe"));
        assert_eq!(f.lines[3].code.trim(), "c");
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let f = scan("a.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn suppressions_attach_to_next_code_line() {
        let src = "// fedmp-analysis: allow(determinism) -- reads a config knob\nlet v = std::env::var(\"X\");\nlet w = 2; // fedmp-analysis: allow(no-panic) -- checked above\n";
        let f = scan("a.rs", src);
        assert!(f.lines[1].suppresses("determinism"));
        assert!(f.lines[2].suppresses("no-panic"));
        assert!(f.malformed_suppressions.is_empty());
    }

    #[test]
    fn prose_mentions_of_the_marker_are_not_directives() {
        let src = "// the linter reads fedmp-analysis: allow(...) comments\nlet x = 1;\n/// Docs showing `fedmp-analysis:` mid-sentence are fine too.\nlet y = 2;\n";
        let f = scan("a.rs", src);
        assert!(f.malformed_suppressions.is_empty(), "{:?}", f.malformed_suppressions);
        assert!(f.lines.iter().all(|l| l.suppressions.is_empty()));
    }

    #[test]
    fn reasonless_suppressions_are_malformed_and_inert() {
        let src = "let v = 1; // fedmp-analysis: allow(determinism)\n";
        let f = scan("a.rs", src);
        assert_eq!(f.malformed_suppressions, vec![1]);
        assert!(!f.lines[0].suppresses("determinism"));
    }

    #[test]
    fn directives_are_recorded_with_their_own_line() {
        let src = "// fedmp-analysis: allow(determinism) -- env knob\nlet v = std::env::var(\"X\");\nlet w = 2; // fedmp-analysis: allow(no-panic) -- total\n";
        let f = scan("a.rs", src);
        assert_eq!(f.directives.len(), 2);
        assert_eq!((f.directives[0].line, f.directives[0].lint.as_str()), (1, "determinism"));
        assert_eq!((f.directives[1].line, f.directives[1].lint.as_str()), (3, "no-panic"));
        // The standalone directive covers line 2 but keeps line 1 as
        // its own identity.
        assert_eq!(f.lines[1].suppressions[0].line, 1);
    }

    #[test]
    fn dangling_directive_at_eof_is_still_recorded() {
        // No code line follows, so it suppresses nothing — exactly the
        // shape the suppression-audit lint must be able to see.
        let src = "let x = 1;\n// fedmp-analysis: allow(determinism) -- covers nothing\n";
        let f = scan("a.rs", src);
        assert_eq!(f.directives.len(), 1);
        assert!(f.lines.iter().all(|l| l.suppressions.is_empty()));
    }

    #[test]
    fn raw_strings_with_hashes_hide_quotes_and_markers() {
        // A `"#` inside r##"..."## must not close the literal, and a
        // directive-shaped string must not become a directive. The
        // trailing real comment still parses.
        let src = "let a = r##\"tricky \"# not the end // fedmp-analysis: allow(no-panic) -- fake\"##; // real comment\nlet b = x.unwrap();\n";
        let f = scan("a.rs", src);
        assert!(f.lines[0].code.contains("let a = r\""), "{}", f.lines[0].code);
        assert!(!f.lines[0].code.contains("tricky"));
        assert!(f.directives.is_empty(), "{:?}", f.directives);
        assert_eq!(f.lines[0].comment.trim(), "real comment");
        assert!(f.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn multiline_raw_string_keeps_banned_tokens_blanked() {
        let src = "let q = r#\"line one\nHashMap across lines\nunsafe { }\"#;\nlet z = 1;\n";
        let f = scan("a.rs", src);
        for l in &f.lines[0..3] {
            assert!(!l.code.contains("HashMap") && !l.code.contains("unsafe"), "{:?}", l.code);
        }
        assert_eq!(f.lines[3].code.trim(), "let z = 1;");
    }

    #[test]
    fn nested_block_comments_do_not_resurface_code() {
        // The inner `*/` must not close the outer comment; everything
        // up to the second `*/` stays comment, including directive
        // markers, which never parse from inside a block.
        let src = "/* outer /* inner */ still comment fedmp-analysis: allow(x) */ let k = 1;\n/* a /* b /* c */ */ unsafe */ let m = 2;\n";
        let f = scan("a.rs", src);
        assert_eq!(f.lines[0].code.trim(), "let k = 1;");
        assert!(f.directives.is_empty());
        assert_eq!(f.lines[1].code.trim(), "let m = 2;");
        assert!(!f.lines[1].code.contains("unsafe"));
    }

    #[test]
    fn token_matching_respects_boundaries() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("struct HashMapLike;", "HashMap"));
        assert!(contains_token("Instant::now()", "Instant"));
        assert!(!contains_token("InstantRate", "Instant"));
    }
}
