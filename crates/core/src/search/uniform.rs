//! The "uniform selection" baseline of Fig. 5 — the manual method a
//! designer without automated DSE would use:
//!
//! > "particular approximate circuits are deterministically selected to
//! > exhibit the same error WMED (relatively to the output range)."
//!
//! For each target error level, every slot independently picks the
//! candidate whose relative WMED is closest to the level; one
//! configuration per level.

use super::hill::SearchOptions;
use super::{ConfigBatch, Estimator};
use crate::config::{ConfigSpace, Configuration};
use crate::job::CancelToken;
use crate::pareto::{ParetoFront, TradeoffPoint};

/// The manual uniform-WMED-level selection: the [`uniform_selection`]
/// configurations (one per error level, [`SearchOptions::uniform_levels`]
/// levels) are estimated in one call and Pareto-filtered. Deterministic
/// and RNG-free; the eval budget is ignored beyond capping the level
/// count.
pub(crate) fn search(
    space: &ConfigSpace,
    estimator: &dyn Estimator,
    opts: &SearchOptions,
    cancel: &CancelToken,
) -> ParetoFront<Configuration> {
    if cancel.is_cancelled() {
        return ParetoFront::new();
    }
    let levels = opts.uniform_levels.max(2).min(opts.max_evals.max(2));
    let mut sp = autoax_telemetry::span("search.uniform");
    sp.field("levels", levels);
    let (configs, batch) = {
        let _t = super::phase::PhaseTimer::start(super::phase::Phase::Propose);
        let configs = uniform_selection(space, levels);
        let batch = ConfigBatch::from_configs(&configs);
        (configs, batch)
    };
    let mut estimates: Vec<TradeoffPoint> = Vec::with_capacity(batch.len());
    super::estimate_round(estimator, &batch, None, &mut estimates);
    let _t = super::phase::PhaseTimer::start(super::phase::Phase::Insert);
    configs
        .into_iter()
        .zip(estimates)
        .map(|(c, p)| (p, c))
        .collect()
}

/// Generates `levels` configurations with uniformly spaced relative-WMED
/// targets (deduplicated, so fewer may be returned).
///
/// The level grid spans `[0, max_rel]` where `max_rel` is the largest
/// relative WMED available in any slot — beyond it no slot has circuits to
/// offer.
pub fn uniform_selection(space: &ConfigSpace, levels: usize) -> Vec<Configuration> {
    assert!(levels >= 2, "need at least two levels");
    // relative WMED of member m in slot s: wmed / output_range(slot class)
    let rel: Vec<Vec<f64>> = space
        .slots()
        .iter()
        .map(|s| {
            let range = s.signature.output_range();
            s.members.iter().map(|m| m.wmed / range).collect()
        })
        .collect();
    let max_rel = rel
        .iter()
        .flat_map(|v| v.iter().copied())
        .fold(0.0f64, f64::max);
    let mut out: Vec<Configuration> = Vec::new();
    for level in 0..levels {
        let target = max_rel * level as f64 / (levels - 1) as f64;
        let config = Configuration::from_genes(
            rel.iter()
                .map(|slot_rel| {
                    slot_rel
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            (*a - target).abs().total_cmp(&(*b - target).abs())
                        })
                        .map(|(i, _)| i as u16)
                        .expect("non-empty slot")
                })
                .collect(),
        );
        if out.last() != Some(&config) {
            out.push(config);
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SlotChoices, SlotMember};
    use autoax_circuit::charlib::CircuitId;
    use autoax_circuit::OpSignature;

    fn space_with_wmeds(slot_wmeds: Vec<Vec<f64>>) -> ConfigSpace {
        ConfigSpace::new(
            slot_wmeds
                .into_iter()
                .enumerate()
                .map(|(i, ws)| SlotChoices {
                    name: format!("s{i}"),
                    signature: OpSignature::ADD8, // range 510
                    members: ws
                        .into_iter()
                        .enumerate()
                        .map(|(k, w)| SlotMember {
                            id: CircuitId(k as u32),
                            wmed: w,
                        })
                        .collect(),
                })
                .collect(),
        )
    }

    #[test]
    fn first_level_is_exact_configuration() {
        let space = space_with_wmeds(vec![vec![0.0, 10.0, 40.0], vec![0.0, 5.0, 80.0]]);
        let configs = uniform_selection(&space, 5);
        assert_eq!(configs[0], Configuration::from_genes(vec![0, 0]));
    }

    #[test]
    fn last_level_picks_highest_error_members() {
        let space = space_with_wmeds(vec![vec![0.0, 10.0, 40.0], vec![0.0, 5.0, 40.0]]);
        let configs = uniform_selection(&space, 5);
        let last = configs.last().unwrap();
        assert_eq!(*last, Configuration::from_genes(vec![2, 2]));
    }

    #[test]
    fn levels_are_deduplicated() {
        // only two distinct members -> many levels collapse
        let space = space_with_wmeds(vec![vec![0.0, 100.0]]);
        let configs = uniform_selection(&space, 10);
        assert!(configs.len() <= 2, "{configs:?}");
    }

    #[test]
    fn slots_track_the_same_relative_level() {
        // slot A range up to rel 40/510, slot B also but with finer steps;
        // at mid level both should pick mid-range members
        let space = space_with_wmeds(vec![
            vec![0.0, 20.0, 40.0],
            vec![0.0, 10.0, 20.0, 30.0, 40.0],
        ]);
        let configs = uniform_selection(&space, 3);
        let mid = &configs[1];
        assert_eq!(mid.genes()[0], 1); // 20 of {0,20,40}
        assert_eq!(mid.genes()[1], 2); // 20 of {0,10,20,30,40}
    }
}
