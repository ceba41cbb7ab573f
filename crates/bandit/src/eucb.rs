//! E-UCB: discounted UCB over an adaptively partitioned continuous arm
//! space (paper Algorithm 1).

use crate::Bandit;
use fedmp_tensor::parallel::sum_f32;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// E-UCB hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EUcbConfig {
    /// Exploration granularity θ: regions whose diameter is below θ are
    /// not split further. The paper recommends θ ∈ [0.01, 0.05] (§V-B).
    pub theta: f32,
    /// Discount factor λ ∈ (0, 1) weighting recent rewards more (the
    /// paper uses 0.95).
    pub lambda: f32,
    /// Upper bound of the arm space: ratios are drawn from `[0, alpha_max)`.
    /// Kept below 1 so every sub-model retains at least one unit.
    pub alpha_max: f32,
    /// Exploration weight ξ scaling the padding function. Discounting
    /// caps the effective per-region sample count at `1/(1−λ)`, so the
    /// raw Eq. 10 padding never vanishes; following the tunable-ξ form of
    /// Garivier & Moulines's D-UCB we scale the padding by
    /// `ξ · (discounted mean |reward|)`, which makes exploration pressure
    /// reward-scale-invariant.
    pub explore_weight: f32,
    /// Split rule ablation: `false` (default) splits the chosen region
    /// at the pulled arm (Algorithm 1 line 8); `true` always splits at
    /// the midpoint. Compared by `paper -- ablation_bandit` in
    /// `fedmp-bench`.
    pub split_at_midpoint: bool,
    /// RNG seed for within-region arm sampling.
    pub seed: u64,
}

impl Default for EUcbConfig {
    fn default() -> Self {
        EUcbConfig {
            theta: 0.02,
            lambda: 0.95,
            alpha_max: 0.8,
            explore_weight: 0.1,
            split_at_midpoint: false,
            seed: 0,
        }
    }
}

/// One leaf of the incremental partition tree: the half-open interval
/// `[lo, hi)` of the arm space.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Region {
    lo: f32,
    hi: f32,
}

impl Region {
    fn contains(&self, x: f32) -> bool {
        x >= self.lo && x < self.hi
    }
    fn diameter(&self) -> f32 {
        self.hi - self.lo
    }
}

/// Per-worker E-UCB agent (the paper creates one agent per worker).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EUcbAgent {
    cfg: EUcbConfig,
    regions: Vec<Region>,
    /// `(arm, reward)` per completed round, oldest first.
    history: Vec<(f32, f32)>,
    /// Arm awaiting its reward.
    pending: Option<f32>,
    #[serde(skip, default = "default_rng")]
    rng: StdRng,
}

fn default_rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

impl EUcbAgent {
    /// A fresh agent with the whole arm space as a single region
    /// (Algorithm 1, line 1).
    pub fn new(cfg: EUcbConfig) -> Self {
        assert!(cfg.theta > 0.0, "theta must be positive");
        assert!(cfg.lambda > 0.0 && cfg.lambda < 1.0, "lambda must be in (0, 1)");
        assert!(cfg.alpha_max > 0.0 && cfg.alpha_max < 1.0, "alpha_max must be in (0, 1)");
        let rng = StdRng::seed_from_u64(cfg.seed);
        EUcbAgent {
            regions: vec![Region { lo: 0.0, hi: cfg.alpha_max }],
            history: Vec::new(),
            pending: None,
            cfg,
            rng,
        }
    }

    /// Current number of partition regions (tree leaves).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The current partition as `(lo, hi)` pairs, sorted by `lo`.
    pub fn regions(&self) -> Vec<(f32, f32)> {
        let mut v: Vec<(f32, f32)> = self.regions.iter().map(|r| (r.lo, r.hi)).collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bounds"));
        v
    }

    /// Completed round count.
    pub fn rounds(&self) -> usize {
        self.history.len()
    }

    /// Discounted visit count `N_k(λ, P)` of a region (Eq. 9's
    /// denominator).
    fn discounted_count(&self, region: &Region) -> f32 {
        let k = self.history.len();
        sum_f32(
            self.history
                .iter()
                .enumerate()
                .filter(|(_, (arm, _))| region.contains(*arm))
                .map(|(s, _)| self.cfg.lambda.powi((k - s) as i32)),
        )
    }

    /// Discounted empirical mean reward `R̄_k(λ, P)` (Eq. 9).
    fn discounted_mean(&self, region: &Region) -> f32 {
        let k = self.history.len();
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for (s, (arm, reward)) in self.history.iter().enumerate() {
            if region.contains(*arm) {
                let w = self.cfg.lambda.powi((k - s) as i32);
                num += w * reward;
                den += w;
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Discounted mean reward magnitude — the adaptive scale `B` of the
    /// padding function.
    fn reward_scale(&self) -> f32 {
        let k = self.history.len();
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for (s, (_, reward)) in self.history.iter().enumerate() {
            let w = self.cfg.lambda.powi((k - s) as i32);
            num += w * reward.abs();
            den += w;
        }
        if den > 0.0 {
            (num / den).max(1e-6)
        } else {
            1.0
        }
    }

    /// Global discounted mean reward — the prior an unvisited region
    /// inherits.
    fn global_mean(&self) -> f32 {
        let k = self.history.len();
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for (s, (_, reward)) in self.history.iter().enumerate() {
            let w = self.cfg.lambda.powi((k - s) as i32);
            num += w * reward;
            den += w;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Upper confidence bound `U_k(P) = R̄ + c` (Eqs. 10–11).
    ///
    /// Splitting creates a fresh child region almost every round; giving
    /// unvisited regions an infinite bound (as textbook UCB does) would
    /// force exploration on nearly every pull and leave no horizon for
    /// exploitation. Following the practical-Lipschitz-bandit treatment
    /// the paper cites ([37]), an unvisited region instead **inherits
    /// the global mean as its prior** with a small pseudo-count, keeping
    /// optimism bounded.
    fn ucb(&self, region: &Region, n_total: f32) -> f32 {
        if self.history.is_empty() {
            return f32::INFINITY; // very first pull: nothing known yet
        }
        let n = self.discounted_count(region);
        let scale = self.cfg.explore_weight * self.reward_scale();
        let log_term = 2.0 * n_total.max(std::f32::consts::E).ln();
        if n <= 0.0 {
            let pseudo = 0.5f32;
            return self.global_mean() + scale * (log_term / pseudo).sqrt();
        }
        self.discounted_mean(region) + scale * (log_term / n).sqrt()
    }

    /// Discards the pending pull without a reward, as if `select()` had
    /// never been called. Used when the pulled arm's outcome is
    /// unobservable — the worker's upload was lost, corrupted beyond
    /// the retransmit budget, or the worker crashed — so the arm must
    /// not bias the statistics with a made-up reward. A no-op with
    /// nothing pending.
    pub fn abandon(&mut self) {
        self.pending = None;
    }
}

impl Bandit for EUcbAgent {
    /// Algorithm 1 lines 3–8: choose the region maximising the UCB, pull
    /// an arm uniformly inside it, and split the region at the pulled arm
    /// while its diameter exceeds θ.
    fn select(&mut self) -> f32 {
        assert!(self.pending.is_none(), "select() called twice without observe()");
        let n_total = sum_f32(self.regions.iter().map(|r| self.discounted_count(r)));

        // Best region by UCB (ties: first, i.e. lowest creation index).
        let mut best = 0usize;
        let mut best_ucb = f32::NEG_INFINITY;
        for (j, r) in self.regions.iter().enumerate() {
            let u = self.ucb(r, n_total);
            if u > best_ucb {
                best_ucb = u;
                best = j;
            }
        }
        let region = self.regions[best];
        let arm = if region.diameter() > 0.0 {
            self.rng.gen_range(region.lo..region.hi)
        } else {
            region.lo
        };

        // Split while the region diameter exceeds θ (line 7–8), but —
        // as incremental regression trees do (the paper's §IV-C
        // implementation) — only once the leaf has accumulated enough
        // (discounted) samples to justify the finer partition. Without
        // this, the tree outgrows the horizon and the policy degenerates
        // into round-robin exploration of unvisited leaves.
        let enough_data = self.discounted_count(&region) >= 1.5;
        if region.diameter() > self.cfg.theta && enough_data {
            let margin = 0.05 * region.diameter();
            let split = if !self.cfg.split_at_midpoint
                && arm > region.lo + margin
                && arm < region.hi - margin
            {
                arm
            } else {
                0.5 * (region.lo + region.hi)
            };
            self.regions[best] = Region { lo: region.lo, hi: split };
            self.regions.push(Region { lo: split, hi: region.hi });
        }

        self.pending = Some(arm);
        arm
    }

    /// Algorithm 1 line 12: records the observed reward for the pending
    /// arm. Emits a `BanditDecision` trace event when tracing is
    /// enabled (engines observe in worker-index order, so the events'
    /// positions attribute them).
    fn observe(&mut self, reward: f32) {
        let arm = self.pending.take().expect("observe() without a pending select()");
        assert!(reward.is_finite(), "reward must be finite");
        self.history.push((arm, reward));
        fedmp_obs::emit(|| fedmp_obs::TraceEvent::BanditDecision {
            arm,
            reward,
            regions: self.regions.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(env: impl Fn(f32) -> f32, rounds: usize, cfg: EUcbConfig) -> (EUcbAgent, Vec<f32>) {
        let mut agent = EUcbAgent::new(cfg);
        let mut arms = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let a = agent.select();
            arms.push(a);
            agent.observe(env(a));
        }
        (agent, arms)
    }

    #[test]
    fn partition_always_covers_arm_space_disjointly() {
        let cfg = EUcbConfig::default();
        let (agent, _) = run(|a| 1.0 - (a - 0.4).abs(), 120, cfg);
        let regions = agent.regions();
        assert!((regions[0].0 - 0.0).abs() < 1e-7);
        assert!((regions.last().unwrap().1 - cfg.alpha_max).abs() < 1e-6);
        for w in regions.windows(2) {
            assert!((w[0].1 - w[1].0).abs() < 1e-6, "gap/overlap between {w:?}");
        }
    }

    #[test]
    fn converges_near_the_optimal_arm() {
        // Reward peaks at α* = 0.6; late arms should concentrate nearby.
        let cfg = EUcbConfig { seed: 3, lambda: 0.99, explore_weight: 0.1, ..Default::default() };
        let (_, arms) = run(|a| 1.0 - 2.0 * (a - 0.6).abs(), 300, cfg);
        let late = &arms[200..];
        let close = late.iter().filter(|&&a| (a - 0.6).abs() < 0.15).count();
        assert!(close * 2 > late.len(), "only {close}/{} late arms near optimum", late.len());
    }

    #[test]
    fn theta_bounds_region_granularity() {
        let cfg = EUcbConfig { theta: 0.1, ..Default::default() };
        let (agent, _) = run(|a| a, 200, cfg);
        // No region that was ever split has diameter < θ·margin; all
        // regions are ≥ some fraction of θ (split stops below θ).
        for (lo, hi) in agent.regions() {
            assert!(hi - lo > 0.1 * 0.04, "degenerate region [{lo}, {hi})");
        }
        // And the tree stopped growing: with θ=0.1 over [0,0.9) at most
        // ~2·(0.9/0.1) leaves even with uneven splits.
        assert!(agent.num_regions() <= 40, "{} regions", agent.num_regions());
    }

    #[test]
    fn smaller_theta_grows_bigger_tree() {
        let coarse = run(|a| a, 200, EUcbConfig { theta: 0.2, ..Default::default() }).0;
        let fine = run(|a| a, 200, EUcbConfig { theta: 0.02, ..Default::default() }).0;
        assert!(fine.num_regions() > coarse.num_regions());
    }

    #[test]
    fn arms_stay_in_range() {
        let cfg = EUcbConfig { alpha_max: 0.7, ..Default::default() };
        let (_, arms) = run(|a| a, 100, cfg);
        assert!(arms.iter().all(|&a| (0.0..0.7).contains(&a)));
    }

    #[test]
    fn unvisited_regions_are_explored_first() {
        let mut agent = EUcbAgent::new(EUcbConfig::default());
        // Round 1 splits [0, 0.9) into two; round 2 must visit the
        // still-unvisited half (infinite UCB).
        let a1 = agent.select();
        agent.observe(10.0); // huge reward for the visited half
        let a2 = agent.select();
        agent.observe(0.0);
        let (lo, hi) = if a1 < a2 { (a1, a2) } else { (a2, a1) };
        assert!(lo < hi, "second arm should explore the other region");
    }

    #[test]
    fn discounting_adapts_to_nonstationary_rewards() {
        // Optimum moves from 0.2 to 0.7 halfway; a discounted agent must
        // follow.
        let cfg = EUcbConfig { seed: 5, lambda: 0.8, explore_weight: 0.3, ..Default::default() };
        let mut agent = EUcbAgent::new(cfg);
        let mut arms = Vec::new();
        for k in 0..400 {
            let a = agent.select();
            let optimum = if k < 200 { 0.2 } else { 0.7 };
            agent.observe(1.0 - 2.0 * (a - optimum).abs());
            arms.push(a);
        }
        // Directional adaptation: mean distance to the *new* optimum must
        // shrink from right after the shift to the end of the run, and
        // the final stretch must beat a uniform-random policy (≈ 0.28).
        let err = |range: std::ops::Range<usize>| {
            arms[range.clone()].iter().map(|a| (a - 0.7f32).abs()).sum::<f32>() / range.len() as f32
        };
        let just_after = err(200..260);
        let late = err(340..400);
        assert!(
            late < just_after,
            "no adaptation: err {just_after:.3} right after shift vs {late:.3} late"
        );
        assert!(late < 0.28, "late tracking error {late:.3} no better than random");
    }

    #[test]
    #[should_panic(expected = "observe() without a pending select()")]
    fn observe_without_select_panics() {
        let mut agent = EUcbAgent::new(EUcbConfig::default());
        agent.observe(1.0);
    }

    #[test]
    #[should_panic(expected = "select() called twice")]
    fn double_select_panics() {
        let mut agent = EUcbAgent::new(EUcbConfig::default());
        let _ = agent.select();
        let _ = agent.select();
    }

    #[test]
    fn abandon_discards_the_pending_pull() {
        let mut agent = EUcbAgent::new(EUcbConfig::default());
        let _ = agent.select();
        agent.abandon();
        // A fresh select is legal again, and the abandoned pull left no
        // reward behind.
        let _ = agent.select();
        agent.observe(0.5);
        assert_eq!(agent.rounds(), 1);
        // Abandoning with nothing pending is a no-op.
        agent.abandon();
        let _ = agent.select();
        agent.observe(0.25);
        assert_eq!(agent.rounds(), 2);
    }
}
