//! # fedmp-bandit
//!
//! The Extended Upper Confidence Bound (E-UCB) online-learning algorithm
//! of the FedMP paper (§IV-C, Algorithm 1), plus discrete comparators
//! used by the ablation benchmarks.
//!
//! E-UCB treats the continuous pruning-ratio space `[0, α_max)` as a
//! growing set of partition regions (leaves of an incremental regression
//! tree). Each round it computes a **discounted** UCB per region
//! (Eqs. 9–11), pulls an arm uniformly inside the best region, and
//! splits that region at the pulled arm until region diameters fall
//! below the exploration granularity `θ`.
//!
//! ```
//! use fedmp_bandit::{Bandit, EUcbAgent, EUcbConfig};
//!
//! let mut agent = EUcbAgent::new(EUcbConfig::default());
//! for _ in 0..50 {
//!     let ratio = agent.select();
//!     // environment: reward peaks at ratio 0.5
//!     let reward = 1.0 - (ratio - 0.5).abs();
//!     agent.observe(reward);
//! }
//! assert!(agent.num_regions() > 1);
//! ```

mod discrete;
mod eucb;
mod reward;

pub use discrete::{DiscreteUcb, EpsilonGreedy};
pub use eucb::{EUcbAgent, EUcbConfig};
pub use reward::{eucb_reward, RewardConfig};

/// Common interface for the pruning-ratio decision policies, so the
/// ablation benches can swap them freely.
pub trait Bandit {
    /// Chooses the next arm (a pruning ratio). Must be followed by
    /// exactly one [`Bandit::observe`] call.
    fn select(&mut self) -> f32;
    /// Reports the reward of the last selected arm.
    fn observe(&mut self, reward: f32);
}
