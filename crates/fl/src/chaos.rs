//! The deterministic transport fault plane for the threaded runtime.
//!
//! A [`ChaosPlan`] is a *pure function* from `(seed, round, worker)` to
//! a [`ChaosDraw`]: which transport faults hit that worker's exchange
//! that round. Both ends of the connection — the PS deciding whether a
//! downlink is lost, the worker deciding whether to corrupt its upload
//! or crash — evaluate the same plan and therefore agree on every
//! fault without exchanging any extra state. That is what keeps chaos
//! runs bit-identical at any executor thread count: the faults are a
//! function of the seed, never of scheduling.
//!
//! The draws model the §V-A failure surface of a real edge deployment:
//!
//! - **corruption** — an upload frame arrives with a flipped byte; the
//!   PS detects it via the wire checksum and requests a retransmit
//!   (bounded, exponential backoff on the virtual clock);
//! - **loss** — a downlink or uplink never arrives; the PS excludes the
//!   worker for the round when its deadline passes;
//! - **delay** — a worker's arrival is pushed late, so the §V-A
//!   deadline excludes it as a straggler;
//! - **crash** — the worker node closes its connection and exits
//!   mid-round (the stand-in for a device reset); the PS respawns and
//!   reconnects it on the next round.

use crate::barrier::{Action, Barrier, Event, Outcome};
use crate::engine::worker_rng;
use bytes::Bytes;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Knobs of the transport fault plane. [`ChaosOptions::none`] disables
/// every fault, under which the threaded runtime is bit-identical to a
/// chaos-free run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosOptions {
    /// Extra seed mixed into the per-(round, worker) draws, so chaos
    /// schedules can be varied independently of the experiment seed.
    pub seed: u64,
    /// Probability a worker's upload arrives corrupted this round.
    pub corrupt_prob: f64,
    /// When corruption fires, how many consecutive sends (first upload
    /// plus retransmits) arrive corrupted: uniform in
    /// `1..=max_corrupt_sends`. Values above `max_retransmits` make
    /// retry exhaustion (and exclusion) reachable.
    pub max_corrupt_sends: u32,
    /// Probability the exchange is lost entirely (split evenly between
    /// the downlink and the uplink direction).
    pub drop_prob: f64,
    /// Probability the worker's arrival is delayed by `delay_secs`.
    pub delay_prob: f64,
    /// Virtual seconds a delayed arrival is pushed late.
    pub delay_secs: f64,
    /// Probability the worker node crashes on receiving its dispatch.
    pub crash_prob: f64,
    /// Retransmit budget per worker per round; a frame still corrupt
    /// after this many resends excludes the worker for the round.
    pub max_retransmits: u32,
    /// Base virtual-clock backoff: retransmit attempt `a` (1-based)
    /// charges `backoff_secs · 2^(a−1)` to the worker's arrival time.
    pub backoff_secs: f64,
    /// Quorum fraction: a round aggregates only when at least
    /// `max(1, ceil(quorum_frac · online))` models survived exclusion.
    /// 0.0 keeps the loop-engine semantics (any single arrival counts).
    pub quorum_frac: f64,
}

impl ChaosOptions {
    /// No chaos at all: every probability zero, loop-engine quorum
    /// semantics. The defaults for the recovery knobs (3 retransmits,
    /// 0.5 s base backoff) still apply if faults are enabled field-wise.
    pub fn none() -> Self {
        ChaosOptions {
            seed: 0,
            corrupt_prob: 0.0,
            max_corrupt_sends: 1,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_secs: 0.0,
            crash_prob: 0.0,
            max_retransmits: 3,
            backoff_secs: 0.5,
            quorum_frac: 0.0,
        }
    }

    /// The fixed plan used by the chaos smoke tooling and tests: every
    /// fault class likely to fire within a few rounds of a small fleet
    /// (corruption, both drop directions, deadline-busting delays and
    /// at least one crash/rejoin), with a retransmit budget that some
    /// corruption streaks exhaust.
    pub fn demo(seed: u64) -> Self {
        ChaosOptions {
            seed,
            corrupt_prob: 0.5,
            max_corrupt_sends: 3,
            drop_prob: 0.25,
            delay_prob: 0.3,
            delay_secs: 5.0,
            crash_prob: 0.2,
            max_retransmits: 2,
            backoff_secs: 0.5,
            quorum_frac: 0.34,
        }
    }

    /// Whether every fault probability is zero (the plan can never
    /// change an exchange).
    pub fn is_noop(&self) -> bool {
        self.corrupt_prob <= 0.0
            && self.drop_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.crash_prob <= 0.0
    }

    /// The quorum for a round with `online` dispatched workers:
    /// `max(1, ceil(quorum_frac · online))`.
    pub fn quorum(&self, online: usize) -> usize {
        ((online as f64 * self.quorum_frac.clamp(0.0, 1.0)).ceil() as usize).max(1)
    }

    /// Virtual backoff charged for retransmit attempt `attempt`
    /// (1-based): `backoff_secs · 2^(attempt−1)`, via the shared
    /// `backoff_scale` schedule.
    pub fn backoff_for(&self, attempt: u32) -> f64 {
        self.backoff_secs * backoff_scale(attempt)
    }

    /// Total virtual backoff after `retries` retransmits: the geometric
    /// sum `backoff_secs · (2^retries − 1)`.
    pub fn backoff_total(&self, retries: u32) -> f64 {
        self.backoff_secs * (2f64.powi(retries.min(62) as i32) - 1.0)
    }
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self::none()
    }
}

/// The one exponential-backoff schedule both recovery layers share:
/// attempt `a` (1-based) scales the base delay by `2^(a−1)`, with the
/// exponent capped at 62 so the factor never overflows. The runtime's
/// virtual-clock retransmit penalty ([`ChaosOptions::backoff_for`])
/// and the transport's wall-clock connect/accept retries
/// ([`backoff`]) both derive from this function, which is what keeps
/// the two layers in lockstep.
pub(crate) fn backoff_scale(attempt: u32) -> f64 {
    (1u64 << attempt.saturating_sub(1).min(62)) as f64
}

/// Wall-clock flavour of the shared schedule, used by `fl::transport`
/// for connect/accept retry sleeps: `base · 2^(attempt−1)` with the
/// same exponent cap, saturating at `Duration::from_nanos(u64::MAX)`
/// instead of overflowing.
pub fn backoff(base: core::time::Duration, attempt: u32) -> core::time::Duration {
    let factor = 1u64 << attempt.saturating_sub(1).min(62);
    let nanos = base.as_nanos().saturating_mul(factor as u128).min(u64::MAX as u128) as u64;
    core::time::Duration::from_nanos(nanos)
}

/// One worker-round's fault decisions, drawn by [`ChaosPlan::draw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChaosDraw {
    /// The worker node crashes on receiving this round's dispatch
    /// (overrides every other fault).
    pub crash: bool,
    /// The downlink never reaches the worker.
    pub drop_down: bool,
    /// The trained upload never reaches the PS.
    pub drop_up: bool,
    /// How many consecutive sends of this round's upload arrive
    /// corrupted (0 = clean).
    pub corrupt_sends: u32,
    /// Virtual seconds this worker's arrival is delayed.
    pub delay_secs: f64,
}

impl ChaosDraw {
    /// Whether the peer completes its local step: it neither crashes on
    /// the dispatch nor misses it.
    pub fn trains(&self) -> bool {
        !self.crash && !self.drop_down
    }

    /// Settles the upload on a one-slot collection [`Barrier`] with the
    /// retransmit budget `max_retransmits`, fed the transcript an
    /// in-protocol peer produces under this draw: a crash is `Gone`, a
    /// drop in either direction is `Lost`, and otherwise send `k` is
    /// corrupt while `k < corrupt_sends`, resent whenever the barrier
    /// asks. Returns the retransmits spent and the outcome.
    pub fn settle(&self, max_retransmits: u32) -> (u32, Outcome<()>) {
        let mut barrier = Barrier::new(1, max_retransmits);
        if self.crash {
            barrier.on(0, Event::Gone);
        } else if self.drop_down || self.drop_up {
            barrier.on(0, Event::Lost);
        } else {
            let mut sends = 0;
            while barrier.on(0, Event::Upload { payload: (), intact: sends >= self.corrupt_sends })
                == Action::Retransmit
            {
                sends += 1;
            }
        }
        barrier.finish().remove(0)
    }
}

/// A seeded chaos schedule: [`ChaosOptions`] plus the run seed. `Copy`
/// so each worker node carries its own plan; every copy produces the
/// same draws.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPlan {
    seed: u64,
    opts: ChaosOptions,
}

impl ChaosPlan {
    /// Builds the plan for a run: the experiment seed is mixed with the
    /// chaos seed so the same experiment can replay different fault
    /// schedules (and vice versa).
    pub fn new(run_seed: u64, opts: &ChaosOptions) -> Self {
        ChaosPlan {
            seed: run_seed ^ opts.seed.rotate_left(17) ^ 0xC4A0_5000_0000_0001,
            opts: *opts,
        }
    }

    /// The options the plan was built from.
    pub fn options(&self) -> &ChaosOptions {
        &self.opts
    }

    /// The fault decisions for `(round, worker)` — a pure function of
    /// the plan's seed, identical wherever it is evaluated. The draw
    /// order is fixed (crash, drop + direction, corruption + streak
    /// length, delay) so every consumer consumes the same RNG stream.
    pub fn draw(&self, round: usize, worker: usize) -> ChaosDraw {
        if self.opts.is_noop() {
            return ChaosDraw {
                crash: false,
                drop_down: false,
                drop_up: false,
                corrupt_sends: 0,
                delay_secs: 0.0,
            };
        }
        let mut rng = worker_rng(self.seed, round, worker);
        let crash = rng.gen::<f64>() < self.opts.crash_prob;
        let drop_roll = rng.gen::<f64>();
        let drop_down = drop_roll < self.opts.drop_prob * 0.5;
        let drop_up = !drop_down && drop_roll < self.opts.drop_prob;
        let corrupt_sends = if rng.gen::<f64>() < self.opts.corrupt_prob {
            let span = self.opts.max_corrupt_sends.max(1) as f64;
            1 + (rng.gen::<f64>() * span) as u32
        } else {
            // Keep the RNG stream shape identical whether or not the
            // corruption coin lands, so adjusting corrupt_prob does not
            // silently reshuffle the delay draws.
            let _ = rng.gen::<f64>();
            0
        };
        let delay_secs =
            if rng.gen::<f64>() < self.opts.delay_prob { self.opts.delay_secs } else { 0.0 };
        let corrupt_sends = corrupt_sends.min(self.opts.max_corrupt_sends.max(1));
        ChaosDraw { crash, drop_down, drop_up, corrupt_sends, delay_secs }
    }
}

/// A transit-corrupted copy of a wire frame: one byte in the middle of
/// the body flipped, which the CRC-32C frame checksum always detects
/// (a CRC-32 catches every burst of up to 32 bits).
/// Deterministic (no RNG) so a corrupted send is a pure function of the
/// clean frame.
pub(crate) fn corrupted_copy(frame: &Bytes) -> Bytes {
    if frame.is_empty() {
        return frame.clone();
    }
    let mut bad = frame.to_vec();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    Bytes::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_state, frame_checksum_ok};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn draws_are_coordinate_deterministic() {
        let plan = ChaosPlan::new(42, &ChaosOptions::demo(7));
        for round in 0..20 {
            for worker in 0..8 {
                assert_eq!(plan.draw(round, worker), plan.draw(round, worker));
            }
        }
        // Different coordinates produce different schedules somewhere.
        let all: Vec<ChaosDraw> = (0..20)
            .flat_map(|r| (0..8).map(move |w| (r, w)))
            .map(|(r, w)| plan.draw(r, w))
            .collect();
        assert!(all.iter().any(|d| *d != all[0]), "chaos plan is constant");
    }

    #[test]
    fn noop_plan_never_faults() {
        let plan = ChaosPlan::new(9, &ChaosOptions::none());
        for round in 0..50 {
            for worker in 0..8 {
                let d = plan.draw(round, worker);
                assert!(!d.crash && !d.drop_down && !d.drop_up);
                assert_eq!(d.corrupt_sends, 0);
                assert_eq!(d.delay_secs, 0.0);
            }
        }
    }

    #[test]
    fn demo_plan_reaches_every_fault_class() {
        let plan = ChaosPlan::new(3, &ChaosOptions::demo(11));
        let draws: Vec<ChaosDraw> =
            (0..40).flat_map(|r| (0..4).map(move |w| plan.draw(r, w))).collect();
        assert!(draws.iter().any(|d| d.crash), "no crashes drawn");
        assert!(draws.iter().any(|d| d.drop_down), "no downlink drops drawn");
        assert!(draws.iter().any(|d| d.drop_up), "no uplink drops drawn");
        assert!(draws.iter().any(|d| d.corrupt_sends > 0), "no corruption drawn");
        assert!(
            draws.iter().any(|d| d.corrupt_sends > ChaosOptions::demo(11).max_retransmits),
            "no retry-exhausting corruption streaks drawn"
        );
        assert!(draws.iter().any(|d| d.delay_secs > 0.0), "no delays drawn");
    }

    #[test]
    fn corrupted_copy_fails_the_checksum_and_is_reversible() {
        let mut rng = seeded_rng(301);
        let m = zoo::cnn_mnist(0.1, &mut rng);
        let frame = encode_state(&m.state());
        let bad = corrupted_copy(&frame);
        assert_eq!(bad.len(), frame.len());
        assert!(frame_checksum_ok(&frame));
        assert!(!frame_checksum_ok(&bad));
        // Corrupting the corrupted copy restores the original frame.
        assert_eq!(corrupted_copy(&bad), frame);
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let opts = ChaosOptions { backoff_secs: 0.5, ..ChaosOptions::none() };
        assert_eq!(opts.backoff_for(1), 0.5);
        assert_eq!(opts.backoff_for(2), 1.0);
        assert_eq!(opts.backoff_for(3), 2.0);
        assert_eq!(opts.backoff_total(0), 0.0);
        assert_eq!(opts.backoff_total(3), 0.5 + 1.0 + 2.0);
        assert!(opts.backoff_total(u32::MAX).is_finite());
    }

    #[test]
    fn shared_backoff_schedule_is_pinned_across_layers() {
        use core::time::Duration;
        // The scale itself: 1, 1, 2, 4, 8, … capped at 2^62.
        assert_eq!(backoff_scale(0), 1.0);
        assert_eq!(backoff_scale(1), 1.0);
        assert_eq!(backoff_scale(2), 2.0);
        assert_eq!(backoff_scale(3), 4.0);
        assert_eq!(backoff_scale(4), 8.0);
        assert_eq!(backoff_scale(63), (1u64 << 62) as f64);
        assert_eq!(backoff_scale(u32::MAX), (1u64 << 62) as f64);
        // Wall-clock flavour pins the exact same doubling sequence.
        let base = Duration::from_millis(10);
        assert_eq!(backoff(base, 1), Duration::from_millis(10));
        assert_eq!(backoff(base, 2), Duration::from_millis(20));
        assert_eq!(backoff(base, 3), Duration::from_millis(40));
        assert_eq!(backoff(base, 4), Duration::from_millis(80));
        // Saturates rather than overflowing at absurd attempt counts.
        assert_eq!(backoff(Duration::from_secs(1), u32::MAX), Duration::from_nanos(u64::MAX));
        assert_eq!(backoff(Duration::ZERO, u32::MAX), Duration::ZERO);
        // The virtual-clock layer is the same schedule scaled by secs.
        let opts = ChaosOptions { backoff_secs: 0.25, ..ChaosOptions::none() };
        for attempt in 1..=8 {
            assert_eq!(opts.backoff_for(attempt), 0.25 * backoff_scale(attempt));
        }
    }

    #[test]
    fn quorum_rounds_up_and_never_hits_zero() {
        let opts = ChaosOptions { quorum_frac: 0.34, ..ChaosOptions::none() };
        assert_eq!(opts.quorum(0), 1);
        assert_eq!(opts.quorum(3), 2);
        assert_eq!(opts.quorum(30), 11);
        assert_eq!(ChaosOptions::none().quorum(30), 1);
        let all = ChaosOptions { quorum_frac: 1.0, ..ChaosOptions::none() };
        assert_eq!(all.quorum(4), 4);
    }
}
