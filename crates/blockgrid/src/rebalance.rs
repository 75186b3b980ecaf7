//! Dynamic load rebalancing: cost model, trigger policy, and migration
//! planning.
//!
//! The paper's load balancing (Sec. 5.1.2) is *static*: blocks are weighted
//! once by region composition and assigned before the run. The moving-window
//! frozen-temperature setup, however, drags the solidification front through
//! the block structure for the whole run, so any static assignment drifts
//! toward imbalance. This module supplies the rank-agnostic half of the
//! dynamic answer (waLBerla-style runtime block migration):
//!
//! * [`CostModel`] — per-block cost estimates fed by measured sweep seconds
//!   (EWMA-smoothed), with a region-composition prior for blocks that have
//!   never been timed (cold start, or freshly received migrants);
//! * [`blend_weights`] — reconciles measured and prior-only blocks onto one
//!   scale so they can be balanced together;
//! * [`RebalancePolicy`] — when to check, when to act, how to assign;
//! * [`plan_rebalance`] — the target assignment from
//!   `crate::balance::assign_lpt`, post-processed by a
//!   migration-minimizing diff against the current placement.
//!
//! The communication half (gather → decide → broadcast → p2p migration) lives
//! in `eutectica-core::timeloop`, which owns the ranks; everything here is
//! pure and deterministic so the planning step can run on rank 0 and its
//! outcome broadcast verbatim.

use std::collections::BTreeMap;

use crate::balance;

/// Configuration of the dynamic rebalancer.
///
/// Attached to a `DistributedSim` via `set_rebalance_policy`; every rank must
/// attach an identical policy (the trigger is collective).
#[derive(Clone, Debug)]
pub struct RebalancePolicy {
    /// Run the collective imbalance check every this many steps (0 disables
    /// the periodic check; forced plans still fire).
    pub every: usize,
    /// Rebalance when measured `max/avg` rank load exceeds this (e.g. 1.15).
    pub threshold: f64,
    /// EWMA smoothing factor in `(0, 1]` for measured per-block sweep
    /// seconds; 1.0 keeps only the newest sample.
    pub alpha: f64,
    /// A planned move is cancelled if keeping the block on its current rank
    /// leaves every rank within `(1 + slack)` of the plan's bottleneck.
    pub slack: f64,
    /// Forced migration plans: at step `s`, adopt the given placement
    /// unconditionally (adversarial/testing hook; validated at plan time).
    pub forced: Vec<(u64, Vec<usize>)>,
}

impl RebalancePolicy {
    /// Policy checking every `every` steps against `threshold`, with
    /// defaults: `alpha = 0.3`, `slack = 0.05`, no forced plans.
    pub fn new(every: usize, threshold: f64) -> Self {
        RebalancePolicy {
            every,
            threshold,
            alpha: 0.3,
            slack: 0.05,
            forced: Vec::new(),
        }
    }

    /// Append a forced plan: at step `step`, migrate to `placement`
    /// (block id → rank) regardless of measured imbalance.
    pub fn with_forced_plan(mut self, step: u64, placement: Vec<usize>) -> Self {
        self.forced.push((step, placement));
        self
    }

    /// The forced placement registered for `step`, if any.
    pub fn forced_at(&self, step: u64) -> Option<&[usize]> {
        self.forced
            .iter()
            .find(|(s, _)| *s == step)
            .map(|(_, p)| p.as_slice())
    }
}

/// Cost knowledge about one block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEntry {
    /// EWMA of measured sweep seconds per step, if the block has ever been
    /// timed on some rank. Travels with the block when it migrates.
    pub measured: Option<f64>,
    /// Region-composition prior (arbitrary units — e.g. estimated sweep
    /// seconds from `regions::block_weight`); used until measurements exist.
    pub prior: f64,
}

/// Per-block cost model held by each rank for the blocks it currently owns.
#[derive(Clone, Debug)]
pub struct CostModel {
    alpha: f64,
    entries: BTreeMap<usize, CostEntry>,
}

impl CostModel {
    /// Empty model with EWMA factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        CostModel {
            alpha,
            entries: BTreeMap::new(),
        }
    }

    /// Start tracking `block` with cold-start prior `prior` (no measurement).
    pub fn track(&mut self, block: usize, prior: f64) {
        self.entries.insert(
            block,
            CostEntry {
                measured: None,
                prior,
            },
        );
    }

    /// Stop tracking `block` (it migrated away), returning its entry so the
    /// sender can ship accumulated knowledge with the block.
    pub fn untrack(&mut self, block: usize) -> Option<CostEntry> {
        self.entries.remove(&block)
    }

    /// Adopt `entry` for `block` (it migrated here) — measurements made by
    /// the previous owner keep informing the model.
    pub fn adopt(&mut self, block: usize, entry: CostEntry) {
        self.entries.insert(block, entry);
    }

    /// Fold a new measurement (sweep seconds per step) into the EWMA.
    pub fn observe(&mut self, block: usize, seconds: f64) {
        if let Some(e) = self.entries.get_mut(&block) {
            e.measured = Some(match e.measured {
                Some(prev) => prev + self.alpha * (seconds - prev),
                None => seconds,
            });
        }
    }

    /// Snapshot of all tracked blocks as `(id, measured, prior)`, ascending
    /// by id — the gather payload for the collective imbalance check.
    pub fn snapshot(&self) -> Vec<(usize, Option<f64>, f64)> {
        self.entries
            .iter()
            .map(|(&id, e)| (id, e.measured, e.prior))
            .collect()
    }
}

/// Reconcile measured and prior-only blocks onto one weight scale.
///
/// Measured blocks use their EWMA seconds directly. Prior-only blocks use
/// `prior × ratio`, where `ratio = Σ measured / Σ prior` over the measured
/// blocks — i.e. the priors are rescaled by how the measured blocks' actual
/// cost compares to their own priors, so mixed populations balance sensibly.
/// With no measurements (cold start) the priors are used as-is. Blocks
/// absent from `entries` (should not happen) get the mean weight.
pub fn blend_weights(entries: &[(usize, Option<f64>, f64)], n_blocks: usize) -> Vec<f64> {
    let mut measured_sum = 0.0;
    let mut prior_sum = 0.0;
    for &(_, m, p) in entries {
        if let Some(m) = m {
            measured_sum += m;
            prior_sum += p;
        }
    }
    let ratio = if measured_sum > 0.0 && prior_sum > 0.0 {
        measured_sum / prior_sum
    } else {
        1.0
    };
    let mut weights = vec![f64::NAN; n_blocks];
    for &(id, m, p) in entries {
        if id < n_blocks {
            weights[id] = match m {
                Some(m) => m,
                None => p * ratio,
            };
        }
    }
    let known: Vec<f64> = weights.iter().copied().filter(|w| w.is_finite()).collect();
    let mean = if known.is_empty() {
        1.0
    } else {
        known.iter().sum::<f64>() / known.len() as f64
    };
    for w in &mut weights {
        if !w.is_finite() || *w <= 0.0 {
            *w = mean.max(f64::MIN_POSITIVE);
        }
    }
    weights
}

/// One block changing owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMove {
    /// Global block id.
    pub block: usize,
    /// Current owner rank.
    pub from: usize,
    /// New owner rank.
    pub to: usize,
}

/// A planned placement change.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// New placement: block id → owner rank.
    pub placement: Vec<usize>,
    /// Blocks that change owner, ascending by block id.
    pub moves: Vec<BlockMove>,
}

impl MigrationPlan {
    /// True when the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Diff two placements into the move list, ascending by block id.
fn moves_between(current: &[usize], target: &[usize]) -> Vec<BlockMove> {
    assert_eq!(current.len(), target.len());
    current
        .iter()
        .zip(target)
        .enumerate()
        .filter(|(_, (&c, &t))| c != t)
        .map(|(block, (&from, &to))| BlockMove { block, from, to })
        .collect()
}

/// Compute a rebalancing plan: target assignment from `strategy`, then a
/// migration-minimizing diff against `current`.
///
/// The diff pass walks blocks in ascending id (deterministic) and cancels a
/// planned move when keeping the block on its current rank leaves every rank
/// within `(1 + slack)` of the target's bottleneck load — cheap migrations
/// only. A cancellation is refused when it would leave the target rank with
/// zero blocks: every rank must keep at least one block, because the
/// moving-window shift is a collective that every block-owning rank joins.
pub fn plan_rebalance(
    weights: &[f64],
    current: &[usize],
    n_ranks: usize,
    slack: f64,
) -> MigrationPlan {
    assert_eq!(weights.len(), current.len());
    let target = balance::assign_lpt(weights, n_ranks);
    let placement = minimize_moves(weights, current, &target, n_ranks, slack);
    let moves = moves_between(current, &placement);
    MigrationPlan { placement, moves }
}

/// Re-home the blocks of dead ranks onto the survivors — the
/// shrink-and-continue planner. Survivors keep every block they already own
/// (their state is intact or restorable in place; moving it would cost
/// migrations for no balance reason a later rebalance cannot recover), and
/// each orphaned block is assigned longest-processing-time-first to the
/// least-loaded survivor.
///
/// Deterministic: orphans are visited heaviest-first with ascending id as
/// the tie-break, and load ties pick the lowest survivor rank — every
/// survivor computes the identical plan from the replicated weights, so no
/// coordinator broadcast is needed during recovery.
///
/// # Panics
/// Panics if `survivors` is empty.
pub fn plan_shrink(weights: &[f64], current: &[usize], survivors: &[usize]) -> MigrationPlan {
    assert_eq!(weights.len(), current.len());
    assert!(!survivors.is_empty(), "cannot shrink to zero ranks");
    let alive = |r: usize| survivors.contains(&r);
    let mut placement = current.to_vec();
    let mut load: BTreeMap<usize, f64> = survivors.iter().map(|&r| (r, 0.0)).collect();
    for (b, &r) in current.iter().enumerate() {
        if alive(r) {
            *load.get_mut(&r).unwrap() += weights[b];
        }
    }
    let mut orphans: Vec<usize> = (0..current.len()).filter(|&b| !alive(current[b])).collect();
    // Heaviest first, ascending id on weight ties (LPT).
    orphans.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for b in orphans {
        let (&home, _) = load
            .iter()
            .min_by(|(ra, la), (rb, lb)| {
                la.partial_cmp(lb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ra.cmp(rb))
            })
            .expect("survivor set is non-empty");
        placement[b] = home;
        *load.get_mut(&home).unwrap() += weights[b];
    }
    let moves = moves_between(current, &placement);
    MigrationPlan { placement, moves }
}

/// Cancel moves from `target` whose reversal keeps the bottleneck within
/// `(1 + slack)` of the target's own bottleneck. Deterministic: blocks are
/// visited in ascending id. Never empties a rank.
fn minimize_moves(
    weights: &[f64],
    current: &[usize],
    target: &[usize],
    n_ranks: usize,
    slack: f64,
) -> Vec<usize> {
    let mut out = target.to_vec();
    let mut load = vec![0.0f64; n_ranks];
    let mut count = vec![0usize; n_ranks];
    for (b, &r) in out.iter().enumerate() {
        load[r] += weights[b];
        count[r] += 1;
    }
    let bottleneck = load.iter().fold(0.0f64, |m, &v| m.max(v));
    let cap = bottleneck * (1.0 + slack.max(0.0));
    // Global short-circuit: if the *current* placement already sits within
    // the slack of the target's bottleneck (and idles no rank), keep it
    // wholesale. This is what makes a perfectly tied population a strict
    // no-op: greedy per-block cancellation cannot undo a cosmetic reshuffle
    // (each single reversal transiently overloads a rank), but the whole
    // placement is trivially as good as the target.
    let mut cur_load = vec![0.0f64; n_ranks];
    let mut cur_count = vec![0usize; n_ranks];
    for (b, &r) in current.iter().enumerate() {
        if r < n_ranks {
            cur_load[r] += weights[b];
            cur_count[r] += 1;
        } else {
            cur_load.clear(); // foreign rank: disable the short-circuit
            break;
        }
    }
    if cur_load.len() == n_ranks
        && cur_count.iter().all(|&c| c >= 1)
        && cur_load.iter().fold(0.0f64, |m, &v| m.max(v)) <= cap
    {
        return current.to_vec();
    }
    for b in 0..out.len() {
        let (cur, tgt) = (current[b], out[b]);
        if cur == tgt {
            continue;
        }
        if count[tgt] > 1 && load[cur] + weights[b] <= cap {
            load[tgt] -= weights[b];
            count[tgt] -= 1;
            load[cur] += weights[b];
            count[cur] += 1;
            out[b] = cur;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::imbalance;

    #[test]
    fn ewma_and_migration_of_entries() {
        let mut m = CostModel::new(0.5);
        m.track(3, 2.0);
        assert_eq!(m.snapshot(), vec![(3, None, 2.0)]);
        m.observe(3, 4.0);
        assert_eq!(m.snapshot(), vec![(3, Some(4.0), 2.0)]);
        m.observe(3, 2.0);
        assert_eq!(m.snapshot(), vec![(3, Some(3.0), 2.0)]);
        // Observation of an untracked block is ignored (stale timing after
        // the block migrated away must not resurrect it).
        m.observe(7, 1.0);
        assert_eq!(m.snapshot().len(), 1);
        let e = m.untrack(3).unwrap();
        let mut m2 = CostModel::new(0.5);
        m2.adopt(3, e);
        assert_eq!(m2.snapshot(), vec![(3, Some(3.0), 2.0)]);
    }

    #[test]
    fn blend_rescales_priors_to_measured_scale() {
        // Two measured blocks run 10× slower than their priors predicted;
        // the unmeasured block's prior is rescaled by the same factor.
        let entries = vec![(0, Some(10.0), 1.0), (1, Some(30.0), 3.0), (2, None, 2.0)];
        let w = blend_weights(&entries, 3);
        assert_eq!(w, vec![10.0, 30.0, 20.0]);
        // Cold start: priors pass through unscaled.
        let cold = vec![(0, None, 1.5), (1, None, 2.5)];
        assert_eq!(blend_weights(&cold, 2), vec![1.5, 2.5]);
        // Missing / non-finite entries degrade to the mean, never 0 or NaN.
        let holey = vec![(0, Some(4.0), 1.0)];
        let w = blend_weights(&holey, 2);
        assert_eq!(w, vec![4.0, 4.0]);
    }

    #[test]
    fn plan_reaches_balance_and_minimizes_moves() {
        // One hot block (the front) on an otherwise uniform column.
        let mut weights = vec![1.0; 12];
        weights[1] = 4.0;
        let current = vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]; // static triples: rank 0 overloaded
        let before = imbalance(&weights, &current, 4);
        assert!(before > 1.5, "scenario should start imbalanced: {before}");
        let plan = plan_rebalance(&weights, &current, 4, 0.05);
        let after = imbalance(&weights, &plan.placement, 4);
        assert!(after <= 1.15, "LPT should even this out: {after}");
        // Every rank keeps at least one block.
        for r in 0..4 {
            assert!(plan.placement.contains(&r));
        }
        // Moves are exactly the diff, ascending by id.
        assert_eq!(plan.moves, moves_between(&current, &plan.placement));
        for w in plan.moves.windows(2) {
            assert!(w[0].block < w[1].block);
        }
    }

    #[test]
    fn planning_is_deterministic_and_stable_on_ties() {
        let weights = vec![1.0; 8];
        let current = vec![0, 0, 1, 1, 2, 2, 3, 3];
        // Already perfectly balanced: the move-minimizer must cancel every
        // cosmetic reshuffle LPT proposes, yielding the identity plan.
        let plan = plan_rebalance(&weights, &current, 4, 0.0);
        assert!(plan.is_empty(), "balanced ties must not migrate: {plan:?}");
        assert_eq!(plan.placement, current);
        let again = plan_rebalance(&weights, &current, 4, 0.0);
        assert_eq!(plan.placement, again.placement);
    }

    #[test]
    fn minimizer_never_empties_a_rank() {
        // Target puts the single heavy block alone on rank 1; the slack is
        // huge so the minimizer wants to cancel everything — but cancelling
        // the move of block 2 would empty rank 1.
        let weights = vec![1.0, 1.0, 9.0];
        let current = vec![0, 0, 0];
        let plan = plan_rebalance(&weights, &current, 2, 1e9);
        for r in 0..2 {
            assert!(
                plan.placement.contains(&r),
                "rank {r} emptied: {:?}",
                plan.placement
            );
        }
    }

    #[test]
    fn forced_plans_resolve_by_step() {
        let p = RebalancePolicy::new(0, 1.15)
            .with_forced_plan(3, vec![1, 0])
            .with_forced_plan(5, vec![0, 1]);
        assert_eq!(p.forced_at(3), Some(&[1usize, 0][..]));
        assert_eq!(p.forced_at(5), Some(&[0usize, 1][..]));
        assert_eq!(p.forced_at(4), None);
    }

    #[test]
    fn shrink_rehomes_only_orphans_lpt() {
        // Rank 1 died; its blocks (3, 4, 5) must land on survivors 0 and 2,
        // heaviest orphan first onto the least-loaded survivor. Survivors'
        // own blocks never move.
        let weights = vec![1.0, 1.0, 1.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0];
        let current = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let plan = plan_shrink(&weights, &current, &[0, 2]);
        for (b, (&old, &new)) in current.iter().zip(&plan.placement).enumerate() {
            if old != 1 {
                assert_eq!(old, new, "survivor block {b} moved");
            } else {
                assert!([0, 2].contains(&new), "orphan {b} on dead rank");
            }
        }
        // LPT: block 3 (w=4) → rank 0 (load tie 3=3, lowest rank wins);
        // block 4 (w=2) → rank 2 (3 < 7); block 5 (w=1) → rank 2 (5 < 7).
        assert_eq!(plan.placement[3], 0);
        assert_eq!(plan.placement[4], 2);
        assert_eq!(plan.placement[5], 2);
        assert_eq!(plan.moves.len(), 3);
        assert!(plan.moves.iter().all(|m| m.from == 1));
    }

    #[test]
    fn shrink_is_deterministic_and_balances_ties() {
        let weights = vec![1.0; 8];
        let current = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let a = plan_shrink(&weights, &current, &[0, 2, 3]);
        let b = plan_shrink(&weights, &current, &[0, 2, 3]);
        assert_eq!(a.placement, b.placement);
        // The two orphans (rank 1's blocks) split across the least-loaded
        // survivors; no survivor ends with more than 3 blocks.
        for r in [0usize, 2, 3] {
            let n = a.placement.iter().filter(|&&p| p == r).count();
            assert!((2..=3).contains(&n), "rank {r} owns {n}");
        }
        assert!(a.placement.iter().all(|&r| r != 1));
    }

    #[test]
    fn shrink_to_single_survivor_takes_everything() {
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let current = vec![0, 1, 2, 3];
        let plan = plan_shrink(&weights, &current, &[2]);
        assert_eq!(plan.placement, vec![2, 2, 2, 2]);
        assert_eq!(plan.moves.len(), 3);
    }
}
