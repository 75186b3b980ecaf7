//! Performance metrics: MLUP/s accounting, exact FLOP counting, and memory
//! traffic estimates.
//!
//! "The presented performance results are measured in MLUP/s, which stands
//! for 'million lattice cell updates per second'" (Sec. 5). The roofline
//! analysis of Sec. 5.1.1 additionally needs the exact number of floating
//! point operations per cell update (the paper: 1384 FLOPs for a µ-cell) and
//! the bytes moved per update (≤ 680 B under the 50 %-cache-reuse
//! assumption); `Counting` measures the former by running the generic
//! reference kernel on an instrumented scalar type, [`mu_bytes_per_cell`]
//! derives the latter from the field layout.

use core::ops::{Add, Div, Mul, Sub};
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::kernels::{gather19, ref_mu_cell_faces, ref_phi_cell_faces, GeneralModel, Scratch};
use crate::params::ModelParams;
use crate::{N_COMP, N_PHASES};

/// Abstraction over f64 used by the reference kernel so the identical code
/// path can run on [`Counting`] for FLOP measurement.
pub(crate) trait Real:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// Lift a constant. Constants do not count as operations.
    fn from_f64(v: f64) -> Self;
    /// Extract the value.
    fn to_f64(self) -> f64;
    /// Square root (counted separately — hardware `vsqrtsd` class).
    fn sqrt(self) -> Self;
    /// Maximum (a comparison/blend, not a FLOP).
    fn max(self, o: Self) -> Self;
}

impl Real for f64 {
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        f64::max(self, o)
    }
}

// Process-wide tallies. They used to be `thread_local!` `Cell`s, which
// silently read back 0 when the counted arithmetic ran on a worker thread
// (e.g. under the sweep pool); relaxed atomics make counts visible across
// threads, and `MEASURE_GUARD` serializes whole reset→run→read sections so
// concurrently running measurements (cargo test runs tests in parallel)
// cannot bleed into each other's tallies.
static ADDS: AtomicU64 = AtomicU64::new(0);
static MULS: AtomicU64 = AtomicU64::new(0);
static DIVS: AtomicU64 = AtomicU64::new(0);
static SQRTS: AtomicU64 = AtomicU64::new(0);
static MEASURE_GUARD: Mutex<()> = Mutex::new(());

/// Hold the process-wide measurement lock for one reset→run→read section.
fn measure_lock() -> MutexGuard<'static, ()> {
    MEASURE_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// FLOP tally per operation class.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FlopCount {
    /// Additions and subtractions.
    pub adds: u64,
    /// Multiplications.
    pub muls: u64,
    /// Divisions.
    pub divs: u64,
    /// Square roots.
    pub sqrts: u64,
}

impl FlopCount {
    /// Total floating-point operations (divisions and square roots count 1
    /// each; their *latency* weight is handled by the in-core model).
    pub fn total(&self) -> u64 {
        self.adds + self.muls + self.divs + self.sqrts
    }

    /// Imbalance between additions and multiplications, the paper's
    /// explanation for not reaching peak: "imbalance in the number of
    /// additions and multiplication". 1.0 = perfectly balanced.
    pub fn add_mul_balance(&self) -> f64 {
        let (a, m) = (self.adds as f64, self.muls as f64);
        if a.max(m) == 0.0 {
            return 1.0;
        }
        a.min(m) / a.max(m)
    }
}

/// Instrumented scalar that tallies every arithmetic operation.
#[derive(Copy, Clone, Debug, PartialEq, PartialOrd)]
pub(crate) struct Counting(pub f64);

impl Real for Counting {
    #[inline]
    fn from_f64(v: f64) -> Self {
        Counting(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.0
    }
    #[inline]
    fn sqrt(self) -> Self {
        SQRTS.fetch_add(1, Ordering::Relaxed);
        Counting(self.0.sqrt())
    }
    #[inline]
    fn max(self, o: Self) -> Self {
        Counting(self.0.max(o.0))
    }
}

impl Add for Counting {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        ADDS.fetch_add(1, Ordering::Relaxed);
        Counting(self.0 + o.0)
    }
}

impl Sub for Counting {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // the `+` increments the op counter
    fn sub(self, o: Self) -> Self {
        ADDS.fetch_add(1, Ordering::Relaxed);
        Counting(self.0 - o.0)
    }
}

impl Mul for Counting {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // the `+` increments the op counter
    fn mul(self, o: Self) -> Self {
        MULS.fetch_add(1, Ordering::Relaxed);
        Counting(self.0 * o.0)
    }
}

impl Div for Counting {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // the `+` increments the op counter
    fn div(self, o: Self) -> Self {
        DIVS.fetch_add(1, Ordering::Relaxed);
        Counting(self.0 / o.0)
    }
}

fn reset_counters() {
    ADDS.store(0, Ordering::Relaxed);
    MULS.store(0, Ordering::Relaxed);
    DIVS.store(0, Ordering::Relaxed);
    SQRTS.store(0, Ordering::Relaxed);
}

fn read_counters() -> FlopCount {
    FlopCount {
        adds: ADDS.load(Ordering::Relaxed),
        muls: MULS.load(Ordering::Relaxed),
        divs: DIVS.load(Ordering::Relaxed),
        sqrts: SQRTS.load(Ordering::Relaxed),
    }
}

/// Measure the FLOPs of one φ-cell update by running the reference kernel
/// on the instrumented type (an interface-like cell, so no term is skipped).
/// Coefficients are frozen per slice, so this is the per-cell cost of the
/// T(z)-amortized kernels — the quantity the paper reports.
pub fn phi_flops_per_cell(params: &ModelParams) -> FlopCount {
    // Lock before the first `Counting` op: even model construction tallies,
    // and a concurrent measurement must not observe it.
    let _measure = measure_lock();
    let mut model = GeneralModel::<Counting>::from_params(params);
    model.freeze_at(params, 0.97);
    let mut scratch = Scratch::<Counting>::new(N_PHASES);
    let mk = |v: [f64; 4]| -> Vec<Counting> { v.iter().map(|&x| Counting(x)).collect() };
    let stencil: [Vec<Counting>; 7] = [
        mk([0.4, 0.2, 0.1, 0.3]),
        mk([0.45, 0.2, 0.1, 0.25]),
        mk([0.35, 0.2, 0.1, 0.35]),
        mk([0.4, 0.25, 0.1, 0.25]),
        mk([0.4, 0.15, 0.1, 0.35]),
        mk([0.5, 0.2, 0.1, 0.2]),
        mk([0.3, 0.2, 0.1, 0.4]),
    ];
    let mu = [Counting(0.05), Counting(-0.02)];
    reset_counters();
    // `buffered = true`: staggered faces evaluated once per cell, exactly
    // like the optimized kernels whose rate the roofline compares against.
    ref_phi_cell_faces(
        &model,
        params,
        &stencil,
        &mu,
        Counting(0.97),
        &mut scratch,
        true,
    );
    read_counters()
}

/// Measure the FLOPs of one µ-cell update (interface cell, full J_at path),
/// with temperature-dependent coefficients frozen per slice (the paper's
/// amortized counting).
pub fn mu_flops_per_cell(params: &ModelParams) -> FlopCount {
    let _measure = measure_lock();
    let mut model = GeneralModel::<Counting>::from_params(params);
    model.freeze_at(params, 0.97);
    count_mu_cell(params, &model)
}

/// FLOPs of one µ-cell update with every temperature-dependent coefficient
/// recomputed per cell — the per-cell cost of the pre-T(z) rungs. The
/// difference to [`mu_flops_per_cell`] is exactly the arithmetic that the
/// T(z) optimization amortizes.
pub fn mu_flops_per_cell_unamortized(params: &ModelParams) -> FlopCount {
    let _measure = measure_lock();
    let model = GeneralModel::<Counting>::from_params(params);
    count_mu_cell(params, &model)
}

fn count_mu_cell(params: &ModelParams, model: &GeneralModel<Counting>) -> FlopCount {
    let mut scratch = Scratch::<Counting>::new(N_PHASES);
    // Build a small field with an interface so every J_at guard passes.
    let dims = eutectica_blockgrid::GridDims::cube(3);
    let mut phi = eutectica_blockgrid::field::SoaField::<N_PHASES>::new(dims, [0.0; N_PHASES]);
    for z in 0..dims.tz() {
        for y in 0..dims.ty() {
            for x in 0..dims.tx() {
                let f = (x + 2 * y + 3 * z) as f64 * 0.021;
                let raw = [0.30 + f, 0.20 - 0.5 * f, 0.10 + 0.2 * f, 0.40 - 0.7 * f];
                phi.set_cell(x, y, z, crate::simplex::project_to_simplex(raw));
            }
        }
    }
    let ps = phi.comps();
    let i = dims.idx(2, 2, 2);
    let (sy, sz) = (dims.sy(), dims.sz());
    let mut phi19: Vec<Vec<Counting>> = Vec::new();
    gather19(&ps, i, sy, sz, &mut phi19);
    let phi_new7: [Vec<Counting>; 7] = core::array::from_fn(|k| {
        phi19[k]
            .iter()
            .map(|p| Counting((p.0 * 0.99 + 0.0025).clamp(0.0, 1.0)))
            .collect()
    });
    let mu7: [Vec<Counting>; 7] =
        core::array::from_fn(|k| vec![Counting(0.01 * k as f64), Counting(-0.02 * k as f64)]);
    reset_counters();
    let _ = ref_mu_cell_faces(
        model,
        params,
        &phi19,
        &phi_new7,
        &mu7,
        Counting(0.97),
        Counting(0.9695),
        Counting(0.9705),
        &mut scratch,
        true,
    );
    read_counters()
}

/// Bytes that must cross the memory interface per µ-cell update under the
/// paper's cache model: "approximately half of the required data for one
/// update can be held in cache" — the reused x-y-slices of the stencil load
/// once. Loads: φ_src (D3C19 → ~19/2 cells × 4 comps), φ_dst (same), µ_src
/// (D3C7 → ~7/2 × 2), write µ_dst (2) + write-allocate.
pub fn mu_bytes_per_cell() -> usize {
    let f = 8; // f64
    let phi_loads = (19usize.div_ceil(2)) * N_PHASES * 2; // src + dst
    let mu_loads = 7usize.div_ceil(2) * N_COMP;
    let mu_store = N_COMP * 2; // store + write-allocate fill
    (phi_loads + mu_loads + mu_store) * f
}

/// Same estimate for the φ-kernel (D3C7 on φ, local µ, write φ_dst).
pub fn phi_bytes_per_cell() -> usize {
    let f = 8;
    let phi_loads = 7usize.div_ceil(2) * N_PHASES;
    let mu_loads = N_COMP;
    let phi_store = N_PHASES * 2;
    (phi_loads + mu_loads + phi_store) * f
}

/// Million lattice-cell updates per second.
pub(crate) fn mlups(cells: usize, steps: usize, seconds: f64) -> f64 {
    (cells as f64 * steps as f64) / seconds / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_type_counts() {
        let _measure = measure_lock();
        reset_counters();
        let a = Counting(2.0);
        let b = Counting(3.0);
        let _ = a + b;
        let _ = a * b;
        let _ = a / b;
        let _ = (a - b).sqrt();
        let c = read_counters();
        assert_eq!(c.adds, 2); // one add, one sub
        assert_eq!(c.muls, 1);
        assert_eq!(c.divs, 1);
        assert_eq!(c.sqrts, 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn counts_from_spawned_threads_are_visible() {
        // Regression: with `thread_local!` tallies, operations performed on
        // a worker thread (as the sweep pool does) read back as 0 here.
        let _measure = measure_lock();
        reset_counters();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let a = Counting(1.5);
                    let b = Counting(2.5);
                    let _ = a + b;
                    let _ = a * b;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let c = read_counters();
        assert_eq!(c.adds, 3);
        assert_eq!(c.muls, 3);
    }

    #[test]
    fn kernel_flop_counts_are_substantial_and_stable() {
        let p = ModelParams::ag_al_cu();
        let phi = phi_flops_per_cell(&p);
        let mu = mu_flops_per_cell(&p);
        // The paper's µ-kernel does 1384 FLOPs/cell; ours is the same order.
        assert!(
            mu.total() > 500 && mu.total() < 5000,
            "µ FLOPs implausible: {mu:?}"
        );
        assert!(
            phi.total() > 200 && phi.total() < 3000,
            "φ FLOPs implausible: {phi:?}"
        );
        // Deterministic.
        assert_eq!(phi, phi_flops_per_cell(&p));
        assert_eq!(mu, mu_flops_per_cell(&p));
        // The T(z) amortization removes a substantial share of the work.
        let un = mu_flops_per_cell_unamortized(&p);
        assert!(
            un.total() > mu.total() + 200,
            "amortization too small: {} -> {}",
            un.total(),
            mu.total()
        );
    }

    #[test]
    fn byte_estimates() {
        assert_eq!(mu_bytes_per_cell(), (10 * 4 * 2 + 4 * 2 + 4) * 8);
        assert!(phi_bytes_per_cell() < mu_bytes_per_cell());
    }

    #[test]
    fn mlups_math() {
        assert!((mlups(1_000_000, 10, 2.0) - 5.0).abs() < 1e-12);
    }
}
