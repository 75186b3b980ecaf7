//! Job-namespaced checkpoint sets for campaign fleets.
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
//! Restores are **bit-exact** at [`Precision::F64`], which the campaign
//! isolation property tests rely on: a job resumed from its own set
//! continues on the identical trajectory it would have taken undisturbed.

use std::fs;
use std::path::{Path, PathBuf};

use eutectica_blockgrid::decomp::DomainSpec;
use eutectica_core::state::BlockState;

use crate::ckpt::{self, CkptError, Manifest, Precision};

/// The checkpoint namespace of campaign job `job` under the campaign root.
fn job_root(root: &Path, job: u32) -> PathBuf {
    root.join(format!("job_{job:05}"))
}

/// Progress counters a job checkpoint carries alongside its fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobProgress {
    /// Completed steps at checkpoint time.
    pub step: u64,
    /// Simulation time.
    pub time: f64,
    /// Moving-window shift count.
    pub window_shifts: u64,
}

/// A restored job checkpoint: the block fields plus the progress counters
/// to resume from.
#[derive(Debug)]
pub struct JobRestore {
    /// Restored source fields (dst synced, default boundary conditions —
    /// the caller re-applies its own before stepping).
    pub state: BlockState,
    /// Progress recorded in the set's manifest.
    pub progress: JobProgress,
}

/// Write one complete checkpoint set for `job` under its namespace:
/// block file first, manifest last (both atomic tmp+fsync+rename), so a
/// set is either complete-with-manifest or invisible to restore. Returns
/// the set directory.
pub fn write_job_checkpoint(
    root: &Path,
    job: u32,
    state: &BlockState,
    progress: JobProgress,
    precision: Precision,
) -> Result<PathBuf, CkptError> {
    let dir = ckpt::set_dir(&job_root(root, job), progress.step);
    fs::create_dir_all(&dir)?;
    let entry = ckpt::write_block_file(&dir, state, 0, progress.time, precision)?;
    let d = state.dims;
    let manifest = Manifest {
        step: progress.step,
        time: progress.time,
        window_shifts: progress.window_shifts,
        precision,
        spec: DomainSpec::directional([d.nx, d.ny, d.nz], [1, 1, 1]),
        blocks: vec![entry],
    };
    ckpt::write_manifest_file(&dir, &manifest)?;
    Ok(dir)
}

/// Restore the newest *readable* checkpoint of `job`, descending past
/// torn or corrupt sets exactly like the distributed restore driver.
/// `Ok(None)` when the job has no usable set (including a missing
/// namespace — a job that never checkpointed restarts from its initial
/// condition instead).
pub fn restore_job_latest(
    root: &Path,
    job: u32,
    budget: u64,
) -> Result<Option<JobRestore>, CkptError> {
    let jr = job_root(root, job);
    let mut limit = None;
    loop {
        let Some((step, dir)) = ckpt::find_latest_checkpoint_at_or_below(&jr, limit)? else {
            return Ok(None);
        };
        match restore_set(&dir, budget) {
            Ok(r) => return Ok(Some(r)),
            Err(_) if step > 0 => limit = Some(step - 1),
            Err(_) => return Ok(None),
        }
    }
}

/// Read and validate the single-block set in `dir`.
fn restore_set(dir: &Path, budget: u64) -> Result<JobRestore, CkptError> {
    let manifest = ckpt::read_manifest_file(dir)?;
    let block = ckpt::read_block_from_set(dir, &manifest, 0, budget)?;
    Ok(JobRestore {
        state: block.state,
        progress: JobProgress {
            step: manifest.step,
            time: manifest.time,
            window_shifts: manifest.window_shifts,
        },
    })
}

/// Retention for one job's namespace: keep the newest `keep` valid sets,
/// delete older ones (plus aborted-write debris). Sibling namespaces are
/// untouched by construction. Returns the number of directories removed.
pub fn prune_job_checkpoints(root: &Path, job: u32, keep: usize) -> Result<usize, CkptError> {
    ckpt::prune_checkpoint_sets(&job_root(root, job), keep, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::GridDims;
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

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eutectica_jobckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn f64_roundtrip_is_bit_exact_and_namespaced() {
        let root = tmp("rt");
        let a = state_with_pattern(3);
        let b = state_with_pattern(11);
        let pa = JobProgress {
            step: 40,
            time: 3.2,
            window_shifts: 2,
        };
        let pb = JobProgress {
            step: 10,
            time: 0.8,
            window_shifts: 0,
        };
        write_job_checkpoint(&root, 0, &a, pa, Precision::F64).unwrap();
        write_job_checkpoint(&root, 1, &b, pb, Precision::F64).unwrap();

        let ra = restore_job_latest(&root, 0, ckpt::DEFAULT_BYTE_BUDGET)
            .unwrap()
            .unwrap();
        assert_eq!(ra.progress, pa);
        for c in 0..N_PHASES {
            for (x, y, z) in a.dims.interior_iter() {
                assert_eq!(
                    a.phi_src.at(c, x, y, z).to_bits(),
                    ra.state.phi_src.at(c, x, y, z).to_bits()
                );
            }
        }
        for c in 0..N_COMP {
            for (x, y, z) in a.dims.interior_iter() {
                assert_eq!(
                    a.mu_src.at(c, x, y, z).to_bits(),
                    ra.state.mu_src.at(c, x, y, z).to_bits()
                );
            }
        }
        assert_eq!(ra.state.origin, a.origin);
        // Sibling namespaces are independent: job 1 restores its own set.
        let rb = restore_job_latest(&root, 1, ckpt::DEFAULT_BYTE_BUDGET)
            .unwrap()
            .unwrap();
        assert_eq!(rb.progress, pb);
        // An unknown job has no set.
        assert!(restore_job_latest(&root, 9, ckpt::DEFAULT_BYTE_BUDGET)
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_newest_set_descends_to_previous() {
        let root = tmp("descend");
        let s = state_with_pattern(5);
        write_job_checkpoint(
            &root,
            2,
            &s,
            JobProgress {
                step: 10,
                time: 1.0,
                window_shifts: 0,
            },
            Precision::F64,
        )
        .unwrap();
        let newest = write_job_checkpoint(
            &root,
            2,
            &s,
            JobProgress {
                step: 20,
                time: 2.0,
                window_shifts: 0,
            },
            Precision::F64,
        )
        .unwrap();
        // Corrupt the newest block file; restore must fall back to step 10.
        fs::write(newest.join(ckpt::block_file_name(0)), b"garbage").unwrap();
        let r = restore_job_latest(&root, 2, ckpt::DEFAULT_BYTE_BUDGET)
            .unwrap()
            .unwrap();
        assert_eq!(r.progress.step, 10);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pruning_is_per_job() {
        let root = tmp("prune");
        let s = state_with_pattern(7);
        for step in [10u64, 20, 30] {
            write_job_checkpoint(
                &root,
                0,
                &s,
                JobProgress {
                    step,
                    time: step as f64,
                    window_shifts: 0,
                },
                Precision::F64,
            )
            .unwrap();
        }
        write_job_checkpoint(
            &root,
            1,
            &s,
            JobProgress {
                step: 10,
                time: 1.0,
                window_shifts: 0,
            },
            Precision::F64,
        )
        .unwrap();
        let removed = prune_job_checkpoints(&root, 0, 1).unwrap();
        assert_eq!(removed, 2);
        // Job 0 keeps only its newest set; job 1 is untouched.
        assert_eq!(
            restore_job_latest(&root, 0, ckpt::DEFAULT_BYTE_BUDGET)
                .unwrap()
                .unwrap()
                .progress
                .step,
            30
        );
        assert_eq!(
            restore_job_latest(&root, 1, ckpt::DEFAULT_BYTE_BUDGET)
                .unwrap()
                .unwrap()
                .progress
                .step,
            10
        );
        let _ = fs::remove_dir_all(&root);
    }
}
