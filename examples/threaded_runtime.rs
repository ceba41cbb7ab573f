//! The threaded PS/worker runtime: one in-process worker node thread
//! per worker behind a Unix-domain socket, models moved as checksummed
//! binary wire frames — the same protocol `fedmp-node` processes speak,
//! and the closest in-process analogue of the paper's physical
//! prototype. Verifies that it produces exactly the same training
//! history as the in-process loop engine.
//!
//! ```text
//! cargo run --release --example threaded_runtime
//! ```

use fedmp::fl::{run_fedmp, run_fedmp_threaded, FedMpOptions, FlSetup};
use fedmp::prelude::*;

fn main() {
    let spec = {
        let mut s = ExperimentSpec::small(TaskKind::CnnMnist);
        s.fl.rounds = 6;
        s.fl.eval_every = 2;
        s
    };
    let built = spec.build();
    let setup =
        FlSetup::with_cost_scale(&built.task, built.devices.clone(), built.time, built.cost_scale);
    let opts = FedMpOptions::default();

    println!("running the sequential loop engine…");
    let sequential = run_fedmp(&spec.fl, &setup, built.model.clone(), &opts);
    println!("running the threaded runtime (1 socket node thread/worker, wire frames)…");
    let threaded = run_fedmp_threaded(&spec.fl, &setup, built.model.clone(), &opts)
        .expect("clean transport: only socket or protocol failures are terminal");

    println!("\n  round   loop-engine loss   threaded loss   identical?");
    for (a, b) in sequential.rounds.iter().zip(threaded.rounds.iter()) {
        println!(
            "  {:>5}   {:>16.4}   {:>13.4}   {}",
            a.round,
            a.train_loss,
            b.train_loss,
            a.train_loss == b.train_loss && a.ratios == b.ratios && a.eval == b.eval
        );
    }

    // Show the actual wire cost of one exchange.
    let full_frame = fedmp::fl::encode_state(&built.model.state());
    println!("\nfull-model wire frame: {} bytes", full_frame.len());
    let plan = fedmp::pruning::plan_sequential(&built.model, built.task.input_chw, 0.6);
    let sub = fedmp::pruning::extract_sequential(&built.model, &plan);
    let sub_frame = fedmp::fl::encode_state(&sub.state());
    println!(
        "alpha=0.6 sub-model frame: {} bytes ({:.0}% of full)",
        sub_frame.len(),
        100.0 * sub_frame.len() as f64 / full_frame.len() as f64
    );
}
