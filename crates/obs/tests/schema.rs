//! Keeps `docs/TRACE_SCHEMA.md` honest: every event kind the enum can
//! produce must be documented with exactly the fields it serialises, no
//! section may document a kind the enum no longer has, the
//! worked excerpt must be what the current schema writes, and the
//! documented schema version must match the code.

use fedmp_obs::{TraceEvent, SCHEMA_VERSION};

fn schema_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/TRACE_SCHEMA.md");
    std::fs::read_to_string(path).expect("docs/TRACE_SCHEMA.md exists")
}

#[test]
fn every_event_kind_is_documented() {
    let doc = schema_doc();
    for kind in TraceEvent::KINDS {
        assert!(
            doc.contains(&format!("`{kind}`")),
            "event kind `{kind}` is missing from docs/TRACE_SCHEMA.md"
        );
    }
}

/// The reverse direction: every backticked CamelCase name in a `### `
/// heading is a kind the enum still has, so a retired kind's section
/// cannot outlive it. One heading may name several kinds (the fault
/// pair shares a section).
#[test]
fn every_documented_kind_exists() {
    let doc = schema_doc();
    let mut documented = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let Some(heading) = line.strip_prefix("### ") else { continue };
        // Odd-indexed fragments sit inside backticks.
        for name in heading.split('`').skip(1).step_by(2) {
            if name.starts_with(|c: char| c.is_ascii_uppercase())
                && name.chars().all(|c| c.is_ascii_alphanumeric())
            {
                assert!(
                    TraceEvent::KINDS.contains(&name),
                    "docs/TRACE_SCHEMA.md:{}: heading documents `{name}`, which TraceEvent::KINDS does not have",
                    idx + 1
                );
                documented.push(name);
            }
        }
    }
    assert!(
        documented.contains(&"FaultInjected") && documented.contains(&"FaultRecovered"),
        "the shared fault-pair heading must yield both kinds: {documented:?}"
    );
}

#[test]
fn schema_version_matches_the_doc() {
    let doc = schema_doc();
    assert!(
        doc.contains(SCHEMA_VERSION),
        "docs/TRACE_SCHEMA.md does not mention schema version {SCHEMA_VERSION}"
    );
}

#[test]
fn sample_events_serialise_under_their_documented_kind() {
    for ev in TraceEvent::samples() {
        let line = serde_json::to_string(&ev).unwrap();
        assert!(
            line.starts_with(&format!("{{\"{}\":", ev.kind())),
            "event {line} is not externally tagged by its kind"
        );
    }
}

/// Kind and field names, in written order, of one `{"Kind":{…}}` line.
fn kind_and_fields(line: &str) -> (String, Vec<String>) {
    let value: serde_json::Value = serde_json::from_str(line).expect("event line is JSON");
    let (kind, body) = &value.as_object().expect("event is an object")[0];
    let fields = body.as_object().expect("event body is an object");
    (kind.clone(), fields.iter().map(|(name, _)| name.clone()).collect())
}

/// The two kind tests above cross-check *kinds* only;
/// this one holds each kind's field table to the serialised form, so a
/// retired or added field cannot stay (or go missing) in the doc.
#[test]
fn field_tables_list_exactly_the_serialised_fields() {
    let doc = schema_doc();
    let events = doc.split("\n## ").find(|s| s.starts_with("Events")).expect("an Events chapter");
    for ev in TraceEvent::samples() {
        let (kind, mut serialised) = kind_and_fields(&serde_json::to_string(&ev).unwrap());
        let section = events
            .split("\n### ")
            .find(|s| s.lines().next().is_some_and(|h| h.contains(&format!("`{kind}`"))))
            .unwrap_or_else(|| panic!("no `### {kind}` section in docs/TRACE_SCHEMA.md"));
        // A row marked "(`Kind` only)" belongs to that kind alone (the
        // two fault events share one table).
        let mut documented: Vec<String> = section
            .lines()
            .filter(|row| !row.contains("` only)") || row.contains(&format!("(`{kind}` only)")))
            .filter_map(|row| row.strip_prefix("| `")?.split('`').next())
            .map(str::to_string)
            .collect();
        serialised.sort();
        documented.sort();
        assert_eq!(documented, serialised, "field table of `{kind}` in docs/TRACE_SCHEMA.md");
    }
}

/// Every event line of the worked excerpt parses, and re-serialising it
/// under the current schema writes the same fields in the same order —
/// an excerpt recorded before a field was retired still *parses* (the
/// key is ignored), which is exactly why parsing alone is not enough.
#[test]
fn worked_excerpt_is_what_the_current_schema_writes() {
    let doc = schema_doc();
    let excerpt = doc
        .split("```jsonl\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("docs/TRACE_SCHEMA.md has a ```jsonl worked excerpt");
    let mut checked = 0;
    for line in excerpt.lines().filter(|l| !l.starts_with("{\"schema\"")) {
        let event: TraceEvent = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("excerpt line does not parse: {e}\n{line}"));
        let rewritten = serde_json::to_string(&event).unwrap();
        assert_eq!(kind_and_fields(line), kind_and_fields(&rewritten), "excerpt line {line}");
        checked += 1;
    }
    assert!(checked >= 5, "worked excerpt lost its event lines ({checked} found)");
}
