//! Placement invariance of dynamic load rebalancing: a run with in-flight
//! block migration must be *bit*-identical to the same run with static
//! placement — for periodic measured-cost rebalancing, for adversarial
//! forced migration plans that move every block, across serial and threaded
//! sweeps and every communication-hiding combination.
//!
//! Physics must never observe where a block lives.

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::rebalance::{CostEntry, RebalancePolicy};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::KernelConfig;
use eutectica_core::migrate::{decode_block, encode_block};
use eutectica_core::params::ModelParams;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{run_distributed, OverlapOptions, RebalanceStats};
use eutectica_core::{N_COMP, N_PHASES};
use proptest::prelude::*;
use std::collections::BTreeSet;

const DOMAIN: [usize; 3] = [8, 8, 16];
const BLOCKS: [usize; 3] = [2, 1, 2]; // 4 blocks: ids 0,1 low-z / 2,3 high-z
const STEPS: usize = 5;

/// A planar front low in the domain: blocks 0 and 1 hold the interface,
/// blocks 2 and 3 are pure liquid — a real cost imbalance, so periodic
/// policies actually have something to move.
fn init_fn(b: &mut BlockState) {
    eutectica_core::init::init_planar_front(b, 0, 4);
}

/// `STEPS` steps with `policy` attached after init (`None`: static
/// placement, no rebalancer at all). Returns the final blocks in global id
/// order — they may finish on another rank than they started on — plus
/// the per-rank stats.
fn run(
    n_ranks: usize,
    threads: usize,
    overlap: OverlapOptions,
    policy: Option<RebalancePolicy>,
) -> (Vec<BlockState>, Vec<RebalanceStats>) {
    let out = run_distributed(
        ModelParams::ag_al_cu(),
        Decomposition::new(DomainSpec::directional(DOMAIN, BLOCKS)),
        n_ranks,
        KernelConfig::default(),
        overlap,
        move |sim| {
            sim.set_threads(threads);
            sim.init_blocks(init_fn);
            sim.set_rebalance_policy(policy.clone());
            sim.step_n(STEPS);
            let ids = sim.local_block_ids().to_vec();
            let stats = sim.rebalance_stats().cloned().unwrap_or_default();
            let blocks = std::mem::take(&mut sim.blocks);
            (ids.into_iter().zip(blocks).collect::<Vec<_>>(), stats)
        },
    );
    let mut stats = Vec::new();
    let mut tagged: Vec<(usize, BlockState)> = Vec::new();
    for (blocks, st) in out {
        stats.push(st);
        tagged.extend(blocks);
    }
    tagged.sort_by_key(|(id, _)| *id);
    (tagged.into_iter().map(|(_, b)| b).collect(), stats)
}

fn baseline(n_ranks: usize, threads: usize, overlap: OverlapOptions) -> Vec<BlockState> {
    run(n_ranks, threads, overlap, None).0
}

fn rebalanced(
    n_ranks: usize,
    threads: usize,
    overlap: OverlapOptions,
    policy: RebalancePolicy,
) -> (Vec<BlockState>, Vec<RebalanceStats>) {
    run(n_ranks, threads, overlap, Some(policy))
}

/// Interiors bit-for-bit (ghosts excluded: under `hide_mu` the µ ghost
/// refresh is deferred by one step *by design*, in both runs).
fn assert_bit_identical(a: &[BlockState], b: &[BlockState], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: block count");
    for (bi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.origin, y.origin, "{what}: block {bi} origin");
        for (cx, cy, cz) in x.dims.interior_iter() {
            for c in 0..N_PHASES {
                assert_eq!(
                    x.phi_src.at(c, cx, cy, cz).to_bits(),
                    y.phi_src.at(c, cx, cy, cz).to_bits(),
                    "{what}: phi[{c}] block {bi} at ({cx},{cy},{cz})"
                );
            }
            for c in 0..N_COMP {
                assert_eq!(
                    x.mu_src.at(c, cx, cy, cz).to_bits(),
                    y.mu_src.at(c, cx, cy, cz).to_bits(),
                    "{what}: mu[{c}] block {bi} at ({cx},{cy},{cz})"
                );
            }
        }
    }
}

/// Periodic measured-cost rebalancing never changes the physics, whether or
/// not any given check decides to migrate — serial and threaded sweeps, all
/// four communication-hiding combinations.
#[test]
fn periodic_rebalancing_is_bit_identical() {
    for overlap in OverlapOptions::ALL {
        for threads in [1usize, 3] {
            let base = baseline(2, threads, overlap);
            let (moved, stats) = rebalanced(2, threads, overlap, RebalancePolicy::new(2, 1.0));
            assert!(stats.iter().all(|s| s.checks >= 2), "checks must run");
            assert_bit_identical(
                &base,
                &moved,
                &format!("periodic threads={threads} {overlap:?}"),
            );
        }
    }
}

/// Adversarial forced plans swap *every* block between the ranks mid-run —
/// twice — and the result is still bit-identical to never moving anything.
#[test]
fn adversarial_forced_plans_migrate_every_block_bit_identically() {
    for overlap in OverlapOptions::ALL {
        for threads in [1usize, 3] {
            let base = baseline(2, threads, overlap);
            // Static placement is [0,0,1,1]; after step 2 swap the ranks
            // wholesale, after step 4 swap back. Every block migrates twice.
            let policy = RebalancePolicy::new(0, f64::INFINITY)
                .with_forced_plan(2, vec![1, 1, 0, 0])
                .with_forced_plan(4, vec![0, 0, 1, 1]);
            let (moved, stats) = rebalanced(2, threads, overlap, policy);
            let migrated: BTreeSet<usize> = stats
                .iter()
                .flat_map(|s| s.migrated_away.iter().copied())
                .collect();
            assert_eq!(
                migrated,
                (0..4).collect::<BTreeSet<_>>(),
                "every block must migrate at least once"
            );
            let sent: u64 = stats.iter().map(|s| s.blocks_sent).sum();
            let received: u64 = stats.iter().map(|s| s.blocks_received).sum();
            assert_eq!(sent, 8, "4 blocks x 2 forced swaps");
            assert_eq!(sent, received);
            assert!(stats.iter().all(|s| s.rebalances == 2));
            assert_bit_identical(
                &base,
                &moved,
                &format!("forced threads={threads} {overlap:?}"),
            );
        }
    }
}

/// `threshold = inf` measures but never migrates: the rebalancer in
/// pure-observation mode is exactly the static run.
#[test]
fn infinite_threshold_observes_without_migrating() {
    let overlap = OverlapOptions::default();
    let base = baseline(2, 1, overlap);
    let (moved, stats) = rebalanced(2, 1, overlap, RebalancePolicy::new(2, f64::INFINITY));
    for s in &stats {
        assert_eq!(s.rebalances, 0);
        assert_eq!(s.blocks_sent, 0);
        assert!(s.migrated_away.is_empty());
        assert!(s.checks >= 2);
        assert!(s.first_imbalance_before.unwrap() >= 1.0);
    }
    assert_bit_identical(&base, &moved, "observe-only");
}

/// CI matrix entry point: `EUTECTICA_TEST_RANKS` × `EUTECTICA_TEST_THREADS`
/// ({1,4} × {1,4}) runs a forced rotation plan (every block to the next
/// rank, then the next again) on that layout and compares bit-for-bit
/// against the serial single-rank static baseline.
#[test]
fn matrix_combo_rebalanced_matches_static_serial_baseline() {
    let get = |k: &str, d: usize| {
        std::env::var(k)
            .ok()
            .map(|v| v.parse().expect("rank/thread counts must be integers"))
            .unwrap_or(d)
    };
    let ranks = get("EUTECTICA_TEST_RANKS", 2);
    let threads = get("EUTECTICA_TEST_THREADS", 2);
    let overlap = OverlapOptions::default();
    let decomp = Decomposition::new(DomainSpec::directional(DOMAIN, BLOCKS));
    let static_rank: Vec<usize> = (0..4).map(|id| decomp.rank_of(id, ranks)).collect();
    let rotate =
        |by: usize| -> Vec<usize> { static_rank.iter().map(|&r| (r + by) % ranks).collect() };
    let policy = RebalancePolicy::new(0, f64::INFINITY)
        .with_forced_plan(1, rotate(1))
        .with_forced_plan(3, rotate(2));
    let base = baseline(1, 1, overlap);
    let (moved, stats) = rebalanced(ranks, threads, overlap, policy);
    if ranks > 1 {
        let sent: u64 = stats.iter().map(|s| s.blocks_sent).sum();
        assert!(sent > 0, "rotation on {ranks} ranks must migrate blocks");
    }
    assert_bit_identical(
        &base,
        &moved,
        &format!("matrix ranks={ranks} threads={threads}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Block-level migration round trip: *all four* persistent buffers (φ
    /// and µ, src and the staggered half-step dst targets), every ghost
    /// cell, the window-shifted origin, and the cost-model entry survive
    /// serialize → ship → deserialize bit-exactly for arbitrary dims.
    #[test]
    fn migrated_block_roundtrips_bit_identically(
        nx in 1usize..6, ny in 1usize..6, nz in 1usize..6,
        ox in 0usize..64, oz in 0usize..1024,
        seed in any::<u64>(),
    ) {
        let dims = GridDims::new(nx, ny, nz, 1);
        let mut st = BlockState::new(dims, [ox, 0, oz]);
        let mut s = seed | 1;
        let mut next = || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            f64::from_bits(s.wrapping_mul(0x2545_f491_4f6c_dd1d))
        };
        for v in st.phi_src.raw_mut() { *v = next(); }
        for v in st.phi_dst.raw_mut() { *v = next(); }
        for v in st.mu_src.raw_mut() { *v = next(); }
        for v in st.mu_dst.raw_mut() { *v = next(); }
        let entry = CostEntry { measured: Some(f64::from_bits(seed | 1)), prior: 2.25 };
        let bytes = encode_block(&st, 9, &entry);
        let (id, back, e) = decode_block(&bytes, dims, u64::MAX).unwrap();
        prop_assert_eq!(id, 9);
        prop_assert_eq!(e, entry);
        prop_assert_eq!(back.origin, st.origin);
        for (a, b) in [
            (st.phi_src.raw(), back.phi_src.raw()),
            (st.phi_dst.raw(), back.phi_dst.raw()),
            (st.mu_src.raw(), back.mu_src.raw()),
            (st.mu_dst.raw(), back.mu_dst.raw()),
        ] {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
