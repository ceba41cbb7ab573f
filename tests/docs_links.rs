//! Every document under docs/ must be reachable from README.md — the
//! README is the entry point, and an unlinked doc is a dead doc.

use std::fs;
use std::path::{Path, PathBuf};

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
    assert!(seen >= 10, "expected the 10 workspace crates, found {seen}");
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
/// or a package with a `src/main.rs`. Every `-p <name>` is a workspace
/// package.
#[test]
fn every_bin_the_docs_name_is_built_by_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bins = std::collections::BTreeSet::new();
    let mut packages = std::collections::BTreeSet::new();
    let crates = fs::read_dir(root.join("crates")).expect("list crates/");
    let dirs = crates.map(|entry| entry.expect("crates/ entry").path());
    for dir in dirs.chain([root.to_path_buf()]) {
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let mut section = "";
        for line in manifest.lines() {
            if line.starts_with('[') {
                section = line.trim();
            } else if let Some(name) =
                line.strip_prefix("name = \"").and_then(|rest| rest.strip_suffix('"'))
            {
                if section == "[package]" {
                    packages.insert(name.to_string());
                }
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
    assert!(packages.contains("fedmp-bench"), "packages found: {packages:?}");

    let mut checked = 0usize;
    for (doc, body) in runnable_docs(root) {
        // `-p` counts only as a cargo flag: `mkdir -p dir` is not one.
        let cargo_args = body.lines().filter_map(|line| line.split_once("cargo ").map(|(_, a)| a));
        let flags = body
            .match_indices("--bin ")
            .map(|(idx, flag)| (&body[idx + flag.len()..], flag, &bins))
            .chain(cargo_args.flat_map(|args| {
                args.match_indices(" -p ")
                    .map(|(idx, flag)| (&args[idx + flag.len()..], flag, &packages))
            }));
        for (rest, flag, known) in flags {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-')))
                .unwrap_or(rest.len());
            if end == 0 {
                continue; // a placeholder such as `--bin <name>`
            }
            checked += 1;
            assert!(
                known.contains(&rest[..end]),
                "{doc} names `{}{}`: no such target",
                flag.trim_start(),
                &rest[..end]
            );
        }
    }
    assert!(checked >= 20, "expected the docs to name bins, found {checked} mentions");
}

/// The documents that cite test files and test functions: the
/// top-level docs, everything under docs/, and the verify skill.
fn citing_docs(root: &Path) -> Vec<(PathBuf, String)> {
    let mut docs: Vec<_> =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
            .iter()
            .map(|p| root.join(p))
            .collect();
    docs.extend(
        fs::read_dir(root.join("docs")).expect("list docs/").map(|e| e.expect("entry").path()),
    );
    docs.retain(|p| p.extension().is_some_and(|ext| ext == "md"));
    docs.into_iter().map(|p| (p.clone(), fs::read_to_string(&p).expect("read doc"))).collect()
}

/// Every backticked `…tests/<name>.rs` path in the docs and the verify
/// skill names a file that exists: from the root, under `crates/`, or
/// under some `crates/*/` (a crate-relative `tests/proptests.rs`).
#[test]
fn every_test_file_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut bases = vec![root.to_path_buf(), root.join("crates")];
    bases.extend(
        fs::read_dir(root.join("crates"))
            .expect("list crates/")
            .map(|e| e.expect("crates/ entry").path()),
    );

    let path_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '/' | '_' | '.' | '-');
    let mut checked = 0usize;
    for (doc, body) in citing_docs(root) {
        for span in body.split('`').skip(1).step_by(2) {
            for token in span.split(|c: char| !path_char(c)) {
                if !(token.ends_with(".rs")
                    && (token.starts_with("tests/") || token.contains("/tests/")))
                {
                    continue;
                }
                checked += 1;
                assert!(
                    bases.iter().any(|base| base.join(token).is_file()),
                    "{} names `{token}`, which does not exist",
                    doc.display()
                );
            }
        }
    }
    assert!(checked >= 20, "expected the docs to name test files, found {checked}");
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `fn` declared under the tree's Rust sources, with its file.
fn tree_fns(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for dir in ["crates", "tests", "src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut fns = Vec::new();
    for file in files {
        let body = fs::read_to_string(&file).expect("read source");
        for (idx, pat) in body.match_indices("fn ") {
            if body[..idx].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let rest = &body[idx + pat.len()..];
            let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(0);
            fns.push((file.clone(), rest[..end].to_string()));
        }
    }
    fns
}

/// Every backticked test-function name in the docs names a `fn` in the
/// tree, as every test file they name must exist. A citation is either
/// `<file>.rs::<name>` (a `fn <name>` in a file of that name) or a bare
/// name of four or more snake_case words, the shape of this repo's test
/// names (a `fn` of that name, or of that prefix when written
/// `<prefix>*`). A bare name may instead be a lint the manifests set, a
/// metric BENCHMARK.json declares, or one of `outside_the_tree`.
#[test]
fn every_test_function_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fns = tree_fns(root);
    let mut configured = String::new();
    for manifest in ["Cargo.toml", "crates/tensor/Cargo.toml", "BENCHMARK.json"] {
        configured += &fs::read_to_string(root.join(manifest)).expect("read manifest");
    }
    // A Linux wait channel the verify skill tells the reader to look for.
    let outside_the_tree = ["unix_stream_data_wait"];

    let word =
        |w: &str| !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit());
    let mut checked = 0usize;
    for (doc, body) in citing_docs(root) {
        for span in body.split('`').skip(1).step_by(2) {
            let (file, name) = match span.rsplit_once("::") {
                Some((file, name)) if file.ends_with(".rs") => (Some(file), name),
                _ => (None, span),
            };
            let (stem, glob) = match name.strip_suffix('*') {
                Some(stem) => (stem.trim_end_matches('_'), true),
                None => (name, false),
            };
            let words = stem.split('_').count();
            if !stem.split('_').all(word) || (file.is_none() && words < 4) {
                continue;
            }
            checked += 1;
            let found = fns.iter().any(|(path, f)| {
                file.is_none_or(|file| path.ends_with(file))
                    && if glob { f.starts_with(stem) } else { f == stem }
            });
            let elsewhere = file.is_none()
                && !glob
                && (configured.contains(&format!("\"{stem}\""))
                    || configured.contains(&format!("{stem} ="))
                    || outside_the_tree.contains(&stem));
            assert!(
                found || elsewhere,
                "{} names `{span}`, which is no fn in the tree",
                doc.display()
            );
        }
    }
    assert!(checked >= 8, "expected the docs to name test functions, found {checked}");
}

/// Every entry point the docs name exists: a backticked span that is
/// exactly a `run_*` identifier names a `fn` in the tree, and
/// `name(_suffix)` names both `name` and `name_suffix`. (The test above
/// skips such names when they run under four words.)
#[test]
fn every_entry_point_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fns = tree_fns(root);
    let ident = |s: &str| {
        s.starts_with("run_")
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut checked = 0usize;
    for (doc, body) in citing_docs(root) {
        for span in body.split('`').skip(1).step_by(2) {
            let names = match span.strip_suffix(')').and_then(|s| s.split_once("(_")) {
                Some((name, suffix)) => vec![name.to_string(), format!("{name}_{suffix}")],
                None => vec![span.to_string()],
            };
            if !names.iter().all(|name| ident(name)) {
                continue;
            }
            for name in names {
                checked += 1;
                assert!(
                    fns.iter().any(|(_, f)| *f == name),
                    "{} names `{span}`, but no fn `{name}` is in the tree",
                    doc.display()
                );
            }
        }
    }
    assert!(checked >= 20, "expected the docs to name entry points, found {checked}");
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
