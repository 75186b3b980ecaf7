//! Intra-rank work-sharing for the φ/µ sweeps: a small, dependency-free
//! persistent thread pool that partitions a block's interior into
//! contiguous z-slabs and runs the range-restricted kernels
//! ([`kernels::phi_sweep_range`] / [`kernels::mu_sweep_range`]) across the
//! workers — the hybrid (MPI × OpenMP) layer of the paper's Sec. 5
//! evaluation, with rank threads in `eutectica-comm` playing MPI and this
//! pool playing OpenMP.
//!
//! # Determinism
//!
//! Every sweep variant reads only the source fields and writes each
//! destination cell of its slab exactly once, and the staggered-buffer
//! kernels reprefill their z-slab buffer at the slab start from source
//! faces (pinned bit-exact against carried values by the kernel
//! flag-equivalence tests). A slab partition therefore computes *exactly*
//! the serial sweep's cells, in any order and at any thread count — the
//! threaded result is bit-identical to the serial one.
//!
//! # Panics
//!
//! Worker panics are caught, reported back over the completion channel,
//! and re-raised on the calling thread once every worker has finished the
//! current task, so the pool never deadlocks on a poisoned job.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::kernels::{self, KernelConfig, MuPart};
use crate::params::ModelParams;
use crate::state::BlockState;
use eutectica_telemetry::Telemetry;

/// Raw-pointer wrapper that asserts thread-safety of *disjoint* accesses.
///
/// # Safety invariant
///
/// Concurrent users must partition the pointee so no two threads touch the
/// same memory mutably: here, every sweep job writes only its own z-slab of
/// the destination field and reads source fields that no job writes. The
/// wrapper exists to keep that single `unsafe` contract in one documented
/// place instead of scattered casts.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

/// One work-sharing request: call `f(k)` for `k = first, first+stride, …`
/// below `jobs`, then acknowledge on `done` (false = a job panicked).
struct Task {
    f: &'static (dyn Fn(usize) + Sync),
    first: usize,
    stride: usize,
    jobs: usize,
    done: Sender<bool>,
}

fn worker_loop(rx: Receiver<Task>) {
    while let Ok(task) = rx.recv() {
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let mut k = task.first;
            while k < task.jobs {
                (task.f)(k);
                k += task.stride;
            }
        }))
        .is_ok();
        // The caller may itself have panicked and dropped the receiver.
        let _ = task.done.send(ok);
    }
}

/// Persistent pool of `threads - 1` workers; the calling thread is the
/// remaining participant, so `SweepPool::new(1)` spawns nothing and runs
/// everything inline (the serial configuration costs zero).
pub struct SweepPool {
    threads: usize,
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl SweepPool {
    /// Pool with `threads` total participants (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for w in 1..threads {
            let (tx, rx) = channel::<Task>();
            senders.push(tx);
            handles.push(
                // The rank threads' 8 MiB: unoptimized kernels keep their
                // SIMD temporaries on the stack and overflow the default.
                std::thread::Builder::new()
                    .name(format!("sweep-{w}"))
                    .stack_size(8 << 20)
                    .spawn(move || worker_loop(rx))
                    .expect("failed to spawn sweep-pool worker"),
            );
        }
        Self {
            threads,
            senders,
            handles,
        }
    }

    /// Total participants (workers + the calling thread).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0), …, f(jobs-1)` across the pool, caller participating.
    /// Returns once every job has completed; re-raises job panics here.
    pub(crate) fn run(&self, jobs: usize, f: &(dyn Fn(usize) + Sync)) {
        if jobs == 0 {
            return;
        }
        let workers = self.senders.len().min(jobs - 1);
        if workers == 0 {
            for k in 0..jobs {
                f(k);
            }
            return;
        }
        // SAFETY: only the lifetime is erased. `run` does not return until
        // every worker has acknowledged completion of this task on `done`,
        // so no worker can observe `f` after it goes out of scope.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let (done_tx, done_rx) = channel::<bool>();
        let stride = workers + 1;
        for (w, tx) in self.senders.iter().take(workers).enumerate() {
            tx.send(Task {
                f: f_static,
                first: w + 1,
                stride,
                jobs,
                done: done_tx.clone(),
            })
            .expect("sweep-pool worker thread is gone");
        }
        drop(done_tx);
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let mut k = 0;
            while k < jobs {
                f(k);
                k += stride;
            }
        }));
        let mut workers_ok = true;
        for _ in 0..workers {
            // A recv error means a worker died without acknowledging —
            // treat it like a panic rather than hanging forever.
            workers_ok &= done_rx.recv().unwrap_or(false);
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        assert!(workers_ok, "a sweep-pool worker panicked");
    }

    /// φ-sweep over `state`, work-shared across z-slabs. Bit-identical to
    /// [`kernels::phi_sweep`] at any thread count (see module docs).
    pub fn phi_sweep(
        &self,
        params: &ModelParams,
        state: &mut BlockState,
        time: f64,
        cfg: KernelConfig,
        tel: &Telemetry,
    ) {
        // Summary transitions happen here, once, on the calling thread; the
        // workers below share the block and only read the summaries.
        let (z0, z1) = kernels::phi_sweep_prepare(state, cfg);
        let parts = self.threads.min(z1 - z0);
        if parts <= 1 {
            kernels::phi_sweep_range(params, state, time, cfg, z0, z1);
            return;
        }
        let ptr = SendPtr(state as *mut BlockState);
        self.run(parts, &|k| {
            let _slab = tel.span_cat("phi_slab", "compute");
            // SAFETY: job k writes only the z-slab `slab(z0, z1, parts, k)`
            // of φ_dst; slabs are disjoint and all other accessed fields
            // are read-only during the sweep (SendPtr invariant).
            let state = unsafe { &mut *ptr.get() };
            let (lo, hi) = slab(z0, z1, parts, k);
            kernels::phi_sweep_range(params, state, time, cfg, lo, hi);
        });
    }

    /// µ-sweep over `state` (any [`MuPart`]), work-shared across z-slabs.
    /// Bit-identical to [`kernels::mu_sweep`] at any thread count; the
    /// `NeighborOnly` accumulation touches only its own µ_dst cell, so it
    /// partitions just like the full sweep.
    pub fn mu_sweep(
        &self,
        params: &ModelParams,
        state: &mut BlockState,
        time: f64,
        cfg: KernelConfig,
        part: MuPart,
        tel: &Telemetry,
    ) {
        let (z0, z1) = state.dims.interior_z_range();
        let parts = self.threads.min(z1 - z0);
        if parts <= 1 {
            kernels::mu_sweep(params, state, time, cfg, part);
            return;
        }
        // Every µ-kernel takes µ_dst whole ("anything may be written"):
        // drop its summary here so that no worker has to.
        state.mu_dst.raw_mut();
        let ptr = SendPtr(state as *mut BlockState);
        self.run(parts, &|k| {
            let _slab = tel.span_cat("mu_slab", "compute");
            // SAFETY: as in `phi_sweep` — disjoint µ_dst z-slabs, read-only
            // sources.
            let state = unsafe { &mut *ptr.get() };
            let (lo, hi) = slab(z0, z1, parts, k);
            kernels::mu_sweep_range(params, state, time, cfg, part, lo, hi);
        });
    }
}

impl Drop for SweepPool {
    fn drop(&mut self) {
        self.senders.clear(); // workers' recv() errors out → they exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for SweepPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Balanced contiguous slab `k` of `parts` over `z0..z1`: the first
/// `(z1-z0) % parts` slabs get one extra slice. Shared with the health
/// scans so they partition exactly like the sweeps.
#[inline]
pub(crate) fn slab(z0: usize, z1: usize, parts: usize, k: usize) -> (usize, usize) {
    let n = z1 - z0;
    let (base, rem) = (n / parts, n % parts);
    let lo = z0 + k * base + k.min(rem);
    (lo, lo + base + usize::from(k < rem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn slabs_tile_the_range_exactly() {
        for (z0, z1) in [(1, 9), (2, 3), (1, 1), (3, 20)] {
            for parts in 1..=8usize {
                let parts = parts.min((z1 - z0).max(1));
                let mut next = z0;
                for k in 0..parts {
                    let (lo, hi) = slab(z0, z1, parts, k);
                    assert_eq!(lo, next, "gap before slab {k}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, z1, "slabs do not cover {z0}..{z1}/{parts}");
            }
        }
    }

    #[test]
    fn run_executes_every_job_exactly_once() {
        let pool = SweepPool::new(4);
        for jobs in [0usize, 1, 3, 4, 7, 100] {
            let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            pool.run(jobs, &|k| {
                hits[k].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn single_thread_pool_spawns_no_workers() {
        let pool = SweepPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.senders.is_empty());
        let ran = AtomicUsize::new(0);
        pool.run(5, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }

    /// A 4 MiB stack frame: more than a default 2 MiB thread has. Out of
    /// line, so only the thread that calls it needs the room.
    #[inline(never)]
    fn four_mib_frame() -> u8 {
        let buf = std::hint::black_box([1u8; 4 << 20]);
        buf[buf.len() - 1]
    }

    #[test]
    fn workers_get_the_rank_threads_stack() {
        let pool = SweepPool::new(2);
        let on_worker = AtomicUsize::new(0);
        pool.run(2, &|_| {
            if std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("sweep-"))
            {
                assert_eq!(four_mib_frame(), 1);
                on_worker.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(on_worker.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let pool = SweepPool::new(3);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(6, &|k| {
                assert!(k != 4, "job 4 goes boom");
            });
        }));
        assert!(res.is_err());
        // The pool stays usable after a poisoned task.
        let ran = AtomicUsize::new(0);
        pool.run(6, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }
}
