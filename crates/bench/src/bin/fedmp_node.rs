//! fedmp-node: one FedMP protocol participant as a real OS process.
//!
//! ```text
//! # parameter server: binds the socket, re-execs itself once per
//! # worker, runs the round protocol, reaps every child.
//! fedmp-node --role ps [--socket P] [--workers N] [--rounds N] \
//!            [--seed S] [--chaos] [--trace out.jsonl]
//!
//! # worker: connects to the PS socket and serves rounds until
//! # Shutdown (spawned by the ps role; the index is appended by the
//! # process spawner).
//! fedmp-node --role worker --socket P --worker I
//! ```
//!
//! The PS side is `fedmp_core::run_sockets` over
//! [`fedmp_fl::ProcessNodes`]: the experiment spec travels to each
//! worker inside the Setup frame ([`fedmp_core::spec_blob`]), so the
//! whole deployment derives its data, model and chaos fate draws from
//! the `--seed` value alone. `--chaos` switches on §V-A availability
//! faults plus the seeded demo chaos plan, re-mapped to packet-level
//! faults by the transport. `--trace` records the PS-side event stream
//! (see `docs/TRACE_SCHEMA.md`); recording the same seed twice and
//! `trace diff`-ing the artifacts is the reproducibility check CI runs.
//!
//! No path of this binary panics (the `deny` below): every failure
//! exits with a typed message. The workspace's determinism bans
//! (`clippy.toml`) hold here too; the only ambient input is the
//! argument list itself.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use core::time::Duration;
use fedmp_core::{run_manifest, run_sockets, spec_blob, task_from_blob, ExperimentSpec, TaskKind};
use fedmp_fl::{
    serve_worker, unique_socket_path, ChaosOptions, FaultOptions, FedMpOptions, ProcessNodes,
    SocketRunOptions, SyncMethod,
};
use fedmp_obs::TraceSession;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Ps,
    Worker,
}

struct Cli {
    role: Role,
    socket: Option<PathBuf>,
    worker: usize,
    workers: usize,
    rounds: usize,
    seed: u64,
    chaos: bool,
    trace: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fedmp-node --role ps [--socket P] [--workers N] [--rounds N] [--seed S] \
         [--chaos] [--trace out.jsonl]\n\
         \x20      fedmp-node --role worker --socket P --worker I"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Cli> {
    let mut role = None;
    let mut cli = Cli {
        role: Role::Ps,
        socket: None,
        worker: 0,
        workers: 3,
        rounds: 3,
        seed: 0,
        chaos: false,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag.as_str() == "--chaos" {
            cli.chaos = true;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--role" => {
                role = match value.as_str() {
                    "ps" => Some(Role::Ps),
                    "worker" => Some(Role::Worker),
                    _ => return None,
                }
            }
            "--socket" => cli.socket = Some(PathBuf::from(value)),
            "--worker" => cli.worker = value.parse().ok()?,
            "--workers" => cli.workers = value.parse().ok()?,
            "--rounds" => cli.rounds = value.parse().ok()?,
            "--seed" => cli.seed = value.parse().ok()?,
            "--trace" => cli.trace = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    cli.role = role?;
    Some(cli)
}

#[expect(
    clippy::disallowed_methods,
    reason = "a CLI's behaviour is its argument list; everything downstream of parse() is driven \
              by --seed"
)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Some(cli) if cli.role == Role::Ps => run_ps(&cli),
        Some(cli) => run_worker(&cli),
        None => usage(),
    }
}

/// Parameter-server role: bind, spawn one `--role worker` child per
/// worker by re-executing this binary, run the socket protocol, reap.
fn run_ps(cli: &Cli) -> ExitCode {
    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.workers = cli.workers;
    spec.seed = cli.seed;
    spec.fl.seed = cli.seed;
    spec.fl.rounds = cli.rounds;
    spec.fl.eval_every = cli.rounds.max(1);

    let (opts, chaos) = if cli.chaos {
        (
            FedMpOptions {
                faults: Some(FaultOptions {
                    fail_prob: 0.2,
                    recover_rounds: 1,
                    ..Default::default()
                }),
                ..Default::default()
            },
            ChaosOptions::demo(cli.seed),
        )
    } else {
        (FedMpOptions::default(), ChaosOptions::none())
    };

    let socket = match &cli.socket {
        Some(p) => p.clone(),
        None => unique_socket_path("node"),
    };
    let sock = SocketRunOptions::new(socket.clone(), spec_blob(&spec));
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fedmp-node: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spawner = ProcessNodes {
        program,
        args: vec![
            "--role".to_string(),
            "worker".to_string(),
            "--socket".to_string(),
            socket.display().to_string(),
        ],
    };

    let session = match &cli.trace {
        None => None,
        Some(out) => {
            let manifest = run_manifest("FedMP-sockets", &spec);
            match TraceSession::to_file(out, &manifest) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("fedmp-node: cannot open trace output {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let run = run_sockets(&spec, &SyncMethod::FedMp(opts), &chaos, &sock, &mut spawner);
    drop(session); // flush + close before reporting

    match run {
        Ok(history) => {
            let retries: usize = history.rounds.iter().map(|r| r.retries).sum();
            let exclusions: usize = history.rounds.iter().map(|r| r.exclusions).sum();
            let acc = history.final_accuracy().unwrap_or(f32::NAN);
            println!(
                "fedmp-node ps: {} rounds over {} worker processes  \
                 retransmits {retries}  exclusions {exclusions}  final acc {acc:.4}",
                history.rounds.len(),
                cli.workers,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fedmp-node ps: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker role: serve rounds on the PS socket until Shutdown. The
/// dataset shard is rebuilt from the Setup frame's spec blob, so a
/// worker needs nothing but the socket path and its index.
fn run_worker(cli: &Cli) -> ExitCode {
    let Some(socket) = cli.socket.clone() else {
        return usage();
    };
    match serve_worker(&socket, cli.worker, 40, Duration::from_millis(5), task_from_blob) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fedmp-node worker {}: {e}", cli.worker);
            ExitCode::FAILURE
        }
    }
}
