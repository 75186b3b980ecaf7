//! Checkpoint sets of a campaign job.
//!
//! A campaign multiplexes many small single-block simulations onto one
//! rank universe; each job owns an isolated checkpoint namespace
//! `<root>/job_<key>/step_<n>/` built from the same `EUTECKP2` block files
//! and CRC-sealed `EUTECMF1` manifests as the distributed sets in
//! [`crate::ckpt`]. Isolation is the point: a job's rollback, retention
//! pruning, or corrupt set never touches a sibling's directory, and a
//! surviving rank can adopt a dead rank's job by reading that job's
//! namespace alone — no shared manifest couples the fleet.
//!
//! This module makes a job's `Simulation` a [`SimCheckpointExt`], so jobs
//! write, restore, validate and prune their sets through the same
//! [`crate::resilient::StepRecovery`] path as the ranks of a distributed
//! run. A job's set is its one block (id 0) plus a manifest decomposing
//! the domain as one block. Restores are **bit-exact** at
//! [`Precision::F64`], which the campaign isolation property tests rely
//! on: a job resumed from its own set continues on the identical
//! trajectory it would have taken undisturbed.

use std::path::Path;

use eutectica_blockgrid::decomp::DomainSpec;
use eutectica_core::health::HealthReport;
use eutectica_core::solver::Simulation;
use eutectica_telemetry::Telemetry;

use crate::ckpt::{self, CkptError, Manifest, Precision};
use crate::resilient::SimCheckpointExt;

/// The decomposition a job's manifest records: the domain as one block.
fn one_block_spec(sim: &Simulation) -> DomainSpec {
    let d = sim.state.dims;
    DomainSpec::directional([d.nx, d.ny, d.nz], [1, 1, 1])
}

impl SimCheckpointExt for Simulation {
    /// Write the block file, then the manifest (both atomic
    /// tmp+fsync+rename), so a set is either complete or invisible to
    /// restores.
    fn write_set(&self, root: &Path, precision: Precision) -> Result<u64, CkptError> {
        let step = self.steps() as u64;
        let dir = ckpt::set_dir(root, step);
        std::fs::create_dir_all(&dir)?;
        let entry = ckpt::write_block_file(&dir, &self.state, 0, self.time(), precision)?;
        let manifest = Manifest {
            step,
            time: self.time(),
            window_shifts: self.window_shifts() as u64,
            precision,
            spec: one_block_spec(self),
            blocks: vec![entry],
        };
        ckpt::write_manifest_file(&dir, &manifest)?;
        Ok(entry.file_bytes)
    }

    /// Replace the block with the set's (keeping its boundary conditions)
    /// and jump the progress counters to the set's.
    fn restore_set(&mut self, dir: &Path, byte_budget: u64) -> Result<(), CkptError> {
        let manifest = ckpt::read_manifest_file(dir)?;
        manifest.require_spec(one_block_spec(self))?;
        ckpt::read_block_from_set(dir, &manifest, 0, byte_budget)?.adopt(0, &mut self.state)?;
        self.state.apply_bc_src();
        self.set_progress(
            manifest.time,
            manifest.step as usize,
            manifest.window_shifts as usize,
        );
        Ok(())
    }

    fn take_unhealthy_report(&mut self) -> Option<HealthReport> {
        Simulation::take_unhealthy_report(self)
    }

    fn health_scan_now(&self) -> Option<HealthReport> {
        Simulation::health_scan_now(self)
    }

    fn project_phi_to_simplex(&mut self) -> u64 {
        Simulation::project_phi_to_simplex(self)
    }

    fn telemetry(&self) -> &Telemetry {
        Simulation::telemetry(self)
    }

    /// A job's namespace has one writer.
    fn prunes_sets(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use super::*;
    use crate::resilient::{AfterStep, StepRecovery};
    use eutectica_blockgrid::GridDims;
    use eutectica_core::params::ModelParams;
    use eutectica_core::state::BlockState;
    use eutectica_core::{N_COMP, N_PHASES};

    fn state_with_pattern(seed: u64) -> BlockState {
        let dims = GridDims::new(5, 4, 6, 1);
        let mut s = BlockState::new(dims, [0, 0, 7]);
        for (i, (x, y, z)) in dims.interior_iter().enumerate() {
            let v = ((i as u64).wrapping_mul(seed) % 997) as f64 / 997.0;
            s.phi_src
                .set_cell(x, y, z, [v * 0.5, 0.25, 0.25 - v * 0.25, 0.5 - v * 0.5]);
            s.mu_src.set_cell(x, y, z, [v - 0.5, 0.5 - v]);
        }
        s.sync_dst_from_src();
        s
    }

    /// A job holding `state_with_pattern(seed)` at the given progress.
    fn job(seed: u64, step: usize, time: f64, window_shifts: usize) -> Simulation {
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), [5, 4, 6]).unwrap();
        sim.state = state_with_pattern(seed);
        sim.set_progress(time, step, window_shifts);
        sim
    }

    /// The namespace of job `key` under `root`, as the campaign runner
    /// lays it out.
    fn ns(root: &Path, key: u32) -> PathBuf {
        root.join(format!("job_{key:05}"))
    }

    fn recovery(root: PathBuf, keep: Option<usize>) -> StepRecovery {
        StepRecovery {
            root: Some(root),
            precision: Precision::F64,
            keep,
            max_rollbacks: 0,
            rollbacks: 0,
            restore_skips: 0,
        }
    }

    /// A fresh job restored from the newest usable set of `namespace`:
    /// the set's step and the simulation, `None` when there is no set.
    fn resume(namespace: PathBuf) -> Option<(u64, Simulation)> {
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), [5, 4, 6]).unwrap();
        let step = recovery(namespace, None).resume(&mut sim).unwrap()?;
        Some((step, sim))
    }

    fn progress(sim: &Simulation) -> (usize, f64, usize) {
        (sim.steps(), sim.time(), sim.window_shifts())
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eutectica_jobckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn f64_roundtrip_is_bit_exact_and_namespaced() {
        let root = tmp("rt");
        let a = job(3, 40, 3.2, 2);
        let b = job(11, 10, 0.8, 0);
        a.write_checkpoint_set(&ns(&root, 0), Precision::F64)
            .unwrap();
        b.write_checkpoint_set(&ns(&root, 1), Precision::F64)
            .unwrap();

        let (step, ra) = resume(ns(&root, 0)).unwrap();
        assert_eq!(step, 40);
        assert_eq!(progress(&ra), (40, 3.2, 2));
        for c in 0..N_PHASES {
            for (x, y, z) in a.state.dims.interior_iter() {
                assert_eq!(
                    a.state.phi_src.at(c, x, y, z).to_bits(),
                    ra.state.phi_src.at(c, x, y, z).to_bits()
                );
            }
        }
        for c in 0..N_COMP {
            for (x, y, z) in a.state.dims.interior_iter() {
                assert_eq!(
                    a.state.mu_src.at(c, x, y, z).to_bits(),
                    ra.state.mu_src.at(c, x, y, z).to_bits()
                );
            }
        }
        assert_eq!(ra.state.origin, a.state.origin);
        // Sibling namespaces are independent: job 1 restores its own set.
        let (_, rb) = resume(ns(&root, 1)).unwrap();
        assert_eq!(progress(&rb), (10, 0.8, 0));
        // An unknown job has no set.
        assert!(resume(ns(&root, 9)).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_newest_set_descends_to_previous() {
        let root = tmp("descend");
        let mut s = job(5, 10, 1.0, 0);
        s.write_checkpoint_set(&ns(&root, 2), Precision::F64)
            .unwrap();
        s.set_progress(2.0, 20, 0);
        s.write_checkpoint_set(&ns(&root, 2), Precision::F64)
            .unwrap();
        // Corrupt the newest block file; restore must fall back to step 10.
        let newest = ns(&root, 2).join("step_0000000020");
        fs::write(newest.join(ckpt::block_file_name(0)), b"garbage").unwrap();
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), [5, 4, 6]).unwrap();
        let mut rec = recovery(ns(&root, 2), None);
        assert_eq!(rec.resume(&mut sim).unwrap(), Some(10));
        assert_eq!(sim.steps(), 10);
        assert_eq!(rec.restore_skips, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn job_checkpoints_are_counted_like_a_ranks() {
        let root = tmp("counted");
        let mut s = job(5, 10, 1.0, 0);
        s.set_telemetry(Telemetry::new(0));
        let first = s
            .write_checkpoint_set(&ns(&root, 3), Precision::F64)
            .unwrap();
        s.set_progress(2.0, 20, 0);
        let second = s
            .write_checkpoint_set(&ns(&root, 3), Precision::F64)
            .unwrap();
        s.restore_from_set(&ckpt::set_dir(&ns(&root, 3), 10), ckpt::DEFAULT_BYTE_BUDGET)
            .unwrap();
        assert_eq!(s.steps(), 10);
        let counters = s.telemetry().metrics_snapshot().counters;
        assert_eq!(counters["ckpt/sets_written"], 2);
        assert_eq!(counters["ckpt/bytes_written"], first + second);
        assert!(counters["ckpt/wall_ns"] > 0);
        assert_eq!(counters["ckpt/restores"], 1);
        assert!(counters["ckpt/restore_wall_ns"] > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pruning_is_per_job() {
        let root = tmp("prune");
        let mut s = job(7, 10, 10.0, 0);
        let mut rec = recovery(ns(&root, 0), Some(1));
        for step in [10usize, 20] {
            s.set_progress(step as f64, step, 0);
            s.write_checkpoint_set(&ns(&root, 0), Precision::F64)
                .unwrap();
        }
        job(7, 10, 1.0, 0)
            .write_checkpoint_set(&ns(&root, 1), Precision::F64)
            .unwrap();
        // The step-30 cadence write prunes job 0 to its newest set.
        s.set_progress(30.0, 30, 0);
        assert!(matches!(
            rec.after_step(&mut s, true).unwrap(),
            AfterStep::Checkpointed(_)
        ));
        let removed = s.telemetry().metrics_snapshot().counters["ckpt/sets_pruned"];
        assert_eq!(removed, 2);
        // Job 0 keeps only its newest set; job 1 is untouched.
        assert_eq!(resume(ns(&root, 0)).unwrap().0, 30);
        assert_eq!(resume(ns(&root, 1)).unwrap().0, 10);
        let _ = fs::remove_dir_all(&root);
    }
}
