//! Every document under docs/ must be reachable from README.md — the
//! README is the entry point, and an unlinked doc is a dead doc.

use std::fs;
use std::path::Path;

#[test]
fn every_doc_is_linked_from_readme() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");

    let docs = fs::read_dir(root.join("docs")).expect("list docs/");
    let mut missing = Vec::new();
    let mut seen = 0usize;
    for entry in docs {
        let entry = entry.expect("docs/ entry");
        if !entry.file_type().expect("file type").is_file() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_str().expect("utf-8 doc name");
        seen += 1;
        let link = format!("docs/{name}");
        if !readme.contains(&link) {
            missing.push(link);
        }
    }

    assert!(seen >= 4, "expected at least 4 docs, found {seen}");
    assert!(missing.is_empty(), "docs not referenced from README.md: {missing:?}");
}

#[test]
fn readme_doc_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");

    // Any `docs/<FILE>.md` token mentioned in the README must exist on disk.
    let mut checked = 0usize;
    for (idx, _) in readme.match_indices("docs/") {
        let rest = &readme[idx..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '/' | '_' | '.' | '-')))
            .unwrap_or(rest.len());
        let token = rest[..end].trim_end_matches('.');
        if !token.ends_with(".md") {
            continue;
        }
        checked += 1;
        assert!(root.join(token).is_file(), "README.md references {token} which does not exist");
    }
    assert!(checked >= 4, "expected ≥4 docs/ references, found {checked}");
}

/// The crate map lives once, in docs/ARCHITECTURE.md (README and DESIGN
/// link to it instead of carrying their own): every `crates/*`
/// directory must be named there.
#[test]
fn every_crate_is_in_the_architecture_crate_map() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let map = fs::read_to_string(root.join("docs/ARCHITECTURE.md")).expect("read ARCHITECTURE.md");
    let mut seen = 0usize;
    for entry in fs::read_dir(root.join("crates")).expect("list crates/") {
        let entry = entry.expect("crates/ entry");
        if !entry.file_type().expect("file type").is_dir() {
            continue;
        }
        seen += 1;
        let heading = format!("### `crates/{}`", entry.file_name().to_str().expect("utf-8 name"));
        assert!(map.contains(&heading), "docs/ARCHITECTURE.md has no `{heading}` section");
    }
    assert!(seen >= 11, "expected the 11 workspace crates, found {seen}");
    for doc in ["README.md", "DESIGN.md"] {
        let body = fs::read_to_string(root.join(doc)).expect("read doc");
        assert!(body.contains("docs/ARCHITECTURE.md"), "{doc} must link to the crate map");
    }
}
