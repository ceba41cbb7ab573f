//! The `fedmp-analysis` CLI.
//!
//! ```text
//! cargo run -p fedmp-analysis -- check [--format text|json] [--root DIR] [--config FILE]
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

use fedmp_analysis::diagnostics::Report;

const USAGE: &str = "\
fedmp-analysis — workspace invariant linter

USAGE:
    fedmp-analysis check [--format FMT] [--root DIR] [--config FILE]

OPTIONS:
    --format FMT     output format: text (default) or json
    --json           shorthand for --format json
    --root DIR       workspace root to scan (default: current directory)
    --config FILE    config file (default: <root>/analysis.toml)
    -h, --help       print this help
";

#[derive(Clone, Copy)]
enum Format {
    Text,
    Json,
}

struct Args {
    format: Format,
    root: PathBuf,
    config: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    // The CLI boundary is the one sanctioned argv read in the
    // workspace — nothing downstream of config parsing sees it.
    // fedmp-analysis: allow(determinism) -- argv parsing is the CLI entry point, not simulation state
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("check") => {}
        Some("-h") | Some("--help") => return Err(String::new()),
        Some(other) => return Err(format!("unknown subcommand `{other}`")),
        None => return Err("missing subcommand (expected `check`)".to_string()),
    }
    let mut args = Args { format: Format::Text, root: PathBuf::from("."), config: None };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--json" => args.format = Format::Json,
            "--format" => {
                let fmt = argv
                    .next()
                    .ok_or_else(|| "--format requires an argument (text|json)".to_string())?;
                args.format = match fmt.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--root" => {
                args.root = argv
                    .next()
                    .map(PathBuf::from)
                    .ok_or_else(|| "--root requires a directory argument".to_string())?;
            }
            "--config" => {
                args.config = Some(
                    argv.next()
                        .map(PathBuf::from)
                        .ok_or_else(|| "--config requires a file argument".to_string())?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let config_path = args.config.clone().unwrap_or_else(|| args.root.join("analysis.toml"));
    let outcome = match fedmp_analysis::check_with_config_path(&args.root, &config_path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fedmp-analysis: {e}");
            return ExitCode::from(2);
        }
    };

    let status = if outcome.is_clean() { "clean" } else { "violations" };
    match args.format {
        Format::Json => {
            let report = Report {
                status: status.to_string(),
                files_scanned: outcome.files_scanned,
                lints: outcome.lints_run.clone(),
                summary: outcome.summary.clone(),
                diagnostics: outcome.diagnostics.clone(),
            };
            match serde_json::to_string_pretty(&report) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    eprintln!("fedmp-analysis: failed to serialize report: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Format::Text => {
            for d in &outcome.diagnostics {
                println!("{}", d.render());
            }
            println!(
                "fedmp-analysis: {} file(s) scanned, {} lint(s) active, {} finding(s)",
                outcome.files_scanned,
                outcome.lints_run.len(),
                outcome.diagnostics.len()
            );
        }
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
