//! Run histories: what every engine records, and the derived metrics the
//! paper reports (time-to-target-accuracy, accuracy-within-budget).

use serde::{Deserialize, Serialize};

/// One aggregation round's record.
#[derive(Debug, Clone, Serialize)]
pub struct RoundRecord {
    /// Round index k.
    pub round: usize,
    /// Cumulative virtual time (s) at the end of the round.
    pub sim_time: f64,
    /// This round's duration `T^k = maxₙ Tₙ` (or the aggregation
    /// interval under the async engines).
    pub round_time: f64,
    /// Mean computation seconds across participating workers.
    pub mean_comp: f64,
    /// Mean communication seconds across participating workers.
    pub mean_comm: f64,
    /// Mean local training loss this round (NaN when nothing was kept).
    pub train_loss: f32,
    /// Test metrics, when this round was evaluated. For classifiers the
    /// pair is `(loss, accuracy)`; for language models `(loss,
    /// perplexity)`.
    pub eval: Option<(f32, f32)>,
    /// Pruning ratio per participating worker this round (empty for
    /// non-pruning engines).
    pub ratios: Vec<f32>,
    /// Models actually merged into the global model this round (0 when
    /// the round skipped aggregation, e.g. all workers offline or a
    /// quorum miss).
    pub participants: usize,
    /// Frame retransmissions the PS requested this round (threaded
    /// runtime; always 0 for the loop engines).
    pub retries: usize,
    /// Online workers whose contribution was discarded this round
    /// (deadline, corruption, loss or crash).
    pub exclusions: usize,
}

/// What `derive(Deserialize)` would write, but for `train_loss`: JSON
/// has no NaN, so an empty round's loss is written as `null` and must
/// read back as NaN — a history has to survive its own JSON. (The last
/// three fields are newer than some stored histories, hence optional.)
impl Deserialize for RoundRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        const TY: &str = "RoundRecord";
        let o =
            v.as_object().ok_or_else(|| serde::DeError::new("expected object for RoundRecord"))?;
        let train_loss: Option<f32> = serde::__get_field(o, "train_loss", TY)?;
        Ok(RoundRecord {
            round: serde::__get_field(o, "round", TY)?,
            sim_time: serde::__get_field(o, "sim_time", TY)?,
            round_time: serde::__get_field(o, "round_time", TY)?,
            mean_comp: serde::__get_field(o, "mean_comp", TY)?,
            mean_comm: serde::__get_field(o, "mean_comm", TY)?,
            train_loss: train_loss.unwrap_or(f32::NAN),
            eval: serde::__get_field(o, "eval", TY)?,
            ratios: serde::__get_field(o, "ratios", TY)?,
            participants: serde::__get_field_or_default(o, "participants", TY)?,
            retries: serde::__get_field_or_default(o, "retries", TY)?,
            exclusions: serde::__get_field_or_default(o, "exclusions", TY)?,
        })
    }
}

impl Default for RoundRecord {
    fn default() -> Self {
        RoundRecord {
            round: 0,
            sim_time: 0.0,
            round_time: 0.0,
            mean_comp: 0.0,
            mean_comm: 0.0,
            train_loss: f32::NAN,
            eval: None,
            ratios: vec![],
            participants: 0,
            retries: 0,
            exclusions: 0,
        }
    }
}

/// A full engine run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunHistory {
    /// Method name (for reports).
    pub method: String,
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
}

impl RunHistory {
    /// Creates an empty history for a named method.
    pub fn new(method: impl Into<String>) -> Self {
        RunHistory { method: method.into(), rounds: Vec::new() }
    }

    /// First virtual time at which test accuracy reached `target`
    /// (`None` if never). Linear scan over evaluated rounds.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.eval.is_some_and(|(_, acc)| acc >= target))
            .map(|r| r.sim_time)
    }

    /// First virtual time at which LM perplexity dropped to `target`.
    pub fn time_to_perplexity(&self, target: f32) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.eval.is_some_and(|(_, ppl)| ppl <= target))
            .map(|r| r.sim_time)
    }

    /// Best test accuracy achieved within a virtual-time budget — the
    /// Table III metric.
    pub fn best_accuracy_within(&self, budget: f64) -> Option<f32> {
        self.rounds
            .iter()
            .take_while(|r| r.sim_time <= budget)
            .filter_map(|r| r.eval.map(|(_, acc)| acc))
            .fold(None, |best, acc| Some(best.map_or(acc, |b: f32| b.max(acc))))
    }

    /// Lowest perplexity within a budget (Table IV).
    pub fn best_perplexity_within(&self, budget: f64) -> Option<f32> {
        self.rounds
            .iter()
            .take_while(|r| r.sim_time <= budget)
            .filter_map(|r| r.eval.map(|(_, p)| p))
            .fold(None, |best, p| Some(best.map_or(p, |b: f32| b.min(p))))
    }

    /// Final cumulative virtual time.
    pub fn total_time(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.sim_time)
    }

    /// Final evaluated accuracy, if any round was evaluated.
    pub fn final_accuracy(&self) -> Option<f32> {
        self.rounds.iter().rev().find_map(|r| r.eval.map(|(_, a)| a))
    }

    /// The `(time, accuracy)` series of evaluated rounds — the Fig. 6
    /// curves.
    pub fn accuracy_curve(&self) -> Vec<(f64, f32)> {
        self.rounds.iter().filter_map(|r| r.eval.map(|(_, a)| (r.sim_time, a))).collect()
    }

    /// The `(round, accuracy)` series — the Fig. 7 curves.
    pub fn accuracy_by_round(&self) -> Vec<(usize, f32)> {
        self.rounds.iter().filter_map(|r| r.eval.map(|(_, a)| (r.round, a))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, t: f64, acc: Option<f32>) -> RoundRecord {
        RoundRecord {
            round,
            sim_time: t,
            round_time: 1.0,
            mean_comp: 0.5,
            mean_comm: 0.5,
            train_loss: 1.0,
            eval: acc.map(|a| (0.5, a)),
            ..Default::default()
        }
    }

    fn history() -> RunHistory {
        let mut h = RunHistory::new("test");
        h.rounds = vec![
            record(0, 10.0, Some(0.3)),
            record(1, 20.0, None),
            record(2, 30.0, Some(0.6)),
            record(3, 40.0, Some(0.55)),
            record(4, 50.0, Some(0.8)),
        ];
        h
    }

    #[test]
    fn time_to_accuracy_scans_in_order() {
        let h = history();
        assert_eq!(h.time_to_accuracy(0.5), Some(30.0));
        assert_eq!(h.time_to_accuracy(0.8), Some(50.0));
        assert_eq!(h.time_to_accuracy(0.9), None);
    }

    #[test]
    fn best_accuracy_within_budget() {
        let h = history();
        assert_eq!(h.best_accuracy_within(45.0), Some(0.6));
        assert_eq!(h.best_accuracy_within(5.0), None);
        assert_eq!(h.best_accuracy_within(100.0), Some(0.8));
    }

    #[test]
    fn curves_skip_unevaluated_rounds() {
        let h = history();
        assert_eq!(h.accuracy_curve().len(), 4);
        assert_eq!(h.accuracy_by_round()[1], (2, 0.6));
        assert_eq!(h.final_accuracy(), Some(0.8));
        assert_eq!(h.total_time(), 50.0);
    }

    #[test]
    fn perplexity_helpers_use_min_semantics() {
        let mut h = RunHistory::new("lm");
        h.rounds = vec![record(0, 1.0, Some(150.0)), record(1, 2.0, Some(120.0))];
        assert_eq!(h.time_to_perplexity(130.0), Some(2.0));
        assert_eq!(h.best_perplexity_within(3.0), Some(120.0));
    }
}
