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

/// The documents (and the CI workflow) that tell a reader what to run.
fn runnable_docs(root: &Path) -> Vec<(String, String)> {
    let mut paths: Vec<_> =
        ["README.md", "EXPERIMENTS.md", "DESIGN.md", ".github/workflows/ci.yml"]
            .iter()
            .map(|p| root.join(p))
            .collect();
    paths.extend(
        fs::read_dir(root.join("docs")).expect("list docs/").map(|e| e.expect("entry").path()),
    );
    paths.retain(|p| p.extension().is_some_and(|ext| ext == "md" || ext == "yml"));
    paths
        .iter()
        .map(|p| (p.display().to_string(), fs::read_to_string(p).expect("read doc")))
        .collect()
}

/// Every `--bin <name>` a document tells the reader to run is a binary
/// some workspace crate builds: a `[[bin]]` table, a `src/bin/` entry,
/// or a package with a `src/main.rs`.
#[test]
fn every_bin_the_docs_name_is_built_by_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bins = std::collections::BTreeSet::new();
    for entry in fs::read_dir(root.join("crates")).expect("list crates/") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let mut section = "";
        for line in manifest.lines() {
            if line.starts_with('[') {
                section = line.trim();
            } else if let Some(name) =
                line.strip_prefix("name = \"").and_then(|rest| rest.strip_suffix('"'))
            {
                let is_bin = section == "[[bin]]"
                    || (section == "[package]" && dir.join("src/main.rs").is_file());
                if is_bin {
                    bins.insert(name.to_string());
                }
            }
        }
        for bin in fs::read_dir(dir.join("src/bin")).into_iter().flatten() {
            let path = bin.expect("src/bin entry").path();
            bins.insert(path.file_stem().expect("stem").to_string_lossy().into_owned());
        }
    }
    assert!(bins.contains("paper") && bins.contains("fedmp-node"), "bins found: {bins:?}");

    let mut checked = 0usize;
    for (doc, body) in runnable_docs(root) {
        for (idx, flag) in body.match_indices("--bin ") {
            let rest = &body[idx + flag.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-')))
                .unwrap_or(rest.len());
            if end == 0 {
                continue; // a placeholder such as `--bin <name>`
            }
            checked += 1;
            assert!(
                bins.contains(&rest[..end]),
                "{doc} names `--bin {}`: no such bin",
                &rest[..end]
            );
        }
    }
    assert!(checked >= 20, "expected the docs to name bins, found {checked} mentions");
}

/// Every `paper -- <word>...` in a document is a subcommand of `paper`
/// or a run of ids from its experiment table (read from its `main.rs`).
#[test]
fn every_paper_experiment_the_docs_name_is_in_the_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = fs::read_to_string(root.join("crates/bench/src/bin/paper/main.rs"))
        .expect("read paper/main.rs");
    let ids: Vec<&str> = table
        .match_indices("id: \"")
        .filter_map(|(idx, pat)| table[idx + pat.len()..].split('"').next())
        .collect();
    assert!(ids.len() >= 20, "expected the 20-row experiment table, found {ids:?}");
    let subcommands = ["all", "check", "list", "probe", "run"];

    let id_shaped = |w: &str| {
        !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut checked = 0usize;
    for (doc, body) in runnable_docs(root) {
        for (idx, pat) in body.match_indices("paper -- ") {
            let line = body[idx + pat.len()..].lines().next().unwrap_or("");
            for (nth, word) in line.split_whitespace().enumerate() {
                // A closing backtick or punctuation ends the command.
                let name =
                    word.trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
                if !id_shaped(name) {
                    break;
                }
                checked += 1;
                let known = ids.contains(&name) || (nth == 0 && subcommands.contains(&name));
                assert!(known, "{doc} names `paper -- {name}`: no such experiment");
                if name.len() != word.len() || subcommands.contains(&name) {
                    break;
                }
            }
        }
    }
    assert!(checked >= 20, "expected the docs to name experiments, found {checked} mentions");
}
