//! Compute-kernel variants: the paper's full optimization ladder.
//!
//! Fig. 6 of the paper builds the φ- and µ-kernels up through six rungs;
//! [`OptLevel`] reproduces them:
//!
//! | rung | paper label | here |
//! |------|-------------|------|
//! | 0 | "general purpose C code" | [`PhiVariant::Reference`] / [`MuVariant::Reference`]: runtime-N/K code with per-cell indirect calls |
//! | 1 | "basic waLBerla implementation" | specialized scalar N=4/K=2 kernels |
//! | 2 | "with SIMD intrinsics" | explicit vectorization: cellwise φ (4 phases = 4 lanes), four-cell µ |
//! | 3 | "with T(z) optimization" | per-slice precomputation of temperature-dependent terms |
//! | 4 | "with staggered buffer" | staggered face values buffered and reused (halves face work) |
//! | 5 | "with shortcuts" | region-dependent term skipping (bulk / pure / solid checks) |
//!
//! Fig. 5 additionally compares three φ vectorization strategies at rung ≥ 2:
//! [`PhiVariant::SimdCellwise`] (with and without shortcuts) and
//! [`PhiVariant::SimdFourCell`].
//!
//! All variants implement the identical discretization in
//! [`crate::model`]; `tests/kernel_equivalence.rs` pins them against each
//! other ("a regularly running test suite checks all kernel versions for
//! equivalence").
//!
//! # One door, one ISA switch
//!
//! [`phi_sweep`], [`phi_sweep_prepare`], [`phi_sweep_range`], [`mu_sweep`]
//! and [`mu_sweep_range`] are the only public way into a sweep; each takes
//! the [`KernelConfig`] whole. The kernel files below keep one
//! `pub(super)` entry per kernel; the explicit-SIMD ones take the same `cfg`
//! parameter, and the expansion of its three flags into const generics is
//! written once (`with_flags!`). The flags are rungs 3–5 of the ladder and
//! build on rung 2: the reference and scalar kernels ignore them, as they
//! ignore `isa`.
//!
//! The explicitly vectorized variants are generic over the ISA backend
//! `V: SimdF64x4` and instantiated at **runtime** by
//! [`eutectica_simd::dispatch`], the workspace's single
//! `#[target_feature]` + feature-detection construct: [`SimdIsa`] (a field
//! of [`KernelConfig`]) says whether the AVX2+FMA instantiation is allowed,
//! the host says whether it is possible. Both instantiations produce
//! bit-identical results, so the selection never changes physics.
//! [`SimdIsa::parse`] is the selection's only text form.
//!
//! For the AVX2 instantiation to be AVX2 machine code, the complete kernel
//! body has to inline into `dispatch`'s wrapper; see
//! [`eutectica_simd::IsaGeneric::run`] for the two rules (everything
//! generic over `V` is `#[inline(always)]`, nothing that touches a `V` is a
//! closure — use `simd_common::per_phase!` / `per_comp!` for arrays) and
//! `.github/scripts/kernel-codegen.sh` for the check.

pub mod reference;
pub mod scalar_mu;
pub mod scalar_phi;
pub mod simd_common;
pub mod simd_mu;
pub mod simd_phi;

use crate::params::ModelParams;
use crate::state::BlockState;
use crate::N_PHASES;
use eutectica_simd::{dispatch, IsaGeneric, SimdF64x4};

/// `with_flags!(cfg, kernel[lead..](args..))` calls
/// `kernel::<lead.., TZ, STAG, SC>(args..)` with the three runtime
/// flags of a [`KernelConfig`] expanded to the kernel's trailing const
/// generics — the one bool → const-generic table of the module.
macro_rules! with_flags {
    ($cfg:expr, $kernel:ident[$($lead:tt),*]($($arg:expr),*)) => {
        match ($cfg.tz_precompute, $cfg.staggered_buffer, $cfg.shortcuts) {
            (false, false, false) => $kernel::<$($lead,)* false, false, false>($($arg),*),
            (false, false, true) => $kernel::<$($lead,)* false, false, true>($($arg),*),
            (false, true, false) => $kernel::<$($lead,)* false, true, false>($($arg),*),
            (false, true, true) => $kernel::<$($lead,)* false, true, true>($($arg),*),
            (true, false, false) => $kernel::<$($lead,)* true, false, false>($($arg),*),
            (true, false, true) => $kernel::<$($lead,)* true, false, true>($($arg),*),
            (true, true, false) => $kernel::<$($lead,)* true, true, false>($($arg),*),
            (true, true, true) => $kernel::<$($lead,)* true, true, true>($($arg),*),
        }
    };
}
pub(crate) use with_flags;

/// φ-kernel implementation selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PhiVariant {
    /// General-purpose runtime-N code with per-cell dynamic dispatch.
    Reference,
    /// Specialized scalar N=4 kernel.
    Scalar,
    /// Explicit SIMD, one cell at a time: the 4 phases fill the 4 lanes.
    /// Allows branching per cell (the paper's fastest strategy).
    SimdCellwise,
    /// Explicit SIMD, four cells at a time (lanes = cells). Can only take
    /// shortcuts if the condition holds for all four cells.
    SimdFourCell,
}

/// µ-kernel implementation selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MuVariant {
    /// General-purpose runtime-N/K code.
    Reference,
    /// Specialized scalar kernel.
    Scalar,
    /// Explicit SIMD, four cells at a time (the only viable strategy for
    /// the µ-kernel per Sec. 5.1.1).
    SimdFourCell,
}

/// Which part of the split µ-sweep to run (Algorithm 2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MuPart {
    /// Unsplit update (Algorithm 1).
    Full,
    /// Local-φ-dependency part: gradient flux + source + drift (line 6).
    LocalOnly,
    /// Neighbor-φ-dependency part: add −∇·J_at (line 8).
    NeighborOnly,
}

/// ISA backend selector for the explicitly vectorized kernel variants.
///
/// Resolution happens at **runtime** (`is_x86_feature_detected!`), not at
/// compile time, so a binary built without `-C target-cpu=native` still
/// selects the AVX2+FMA instantiation on a capable host. The two
/// instantiations are bit-identical (the `eutectica-simd` backends assert
/// bit-exact semantics op-by-op), so the choice only affects speed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SimdIsa {
    /// Best ISA selectable at runtime: AVX2+FMA when detected, else the
    /// portable backend.
    #[default]
    Auto,
    /// Portable backend (scalar emulation of the 4-lane ops).
    Portable,
    /// AVX2+FMA backend. Falls back to the (bit-identical) portable
    /// instantiation when the host lacks the features; [`SimdIsa::parse`]
    /// reports a typed [`IsaError::Unavailable`] instead of falling back.
    Avx2,
}

/// Why a name did not select a [`SimdIsa`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsaError {
    /// The name is not one of `auto`, `portable`, `avx2`.
    Unknown {
        /// The offending name.
        name: String,
    },
    /// `avx2` was asked for on a host without AVX2+FMA.
    Unavailable,
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::Unknown { name } => {
                write!(f, "unknown ISA '{name}' (expected auto, portable or avx2)")
            }
            IsaError::Unavailable => write!(f, "ISA 'avx2' unavailable: host CPU lacks AVX2+FMA"),
        }
    }
}

impl std::error::Error for IsaError {}

impl SimdIsa {
    /// The selection named `auto`, `portable` or `avx2`. Availability is
    /// checked here: `avx2` on a host without AVX2+FMA is a typed
    /// [`IsaError::Unavailable`], never a silent fallback.
    pub fn parse(name: &str) -> Result<SimdIsa, IsaError> {
        Self::parse_on(name, eutectica_simd::avx2_available())
    }

    /// [`SimdIsa::parse`] for a host that has (`avx2`) or lacks AVX2+FMA.
    fn parse_on(name: &str, avx2: bool) -> Result<SimdIsa, IsaError> {
        match name {
            "auto" => Ok(SimdIsa::Auto),
            "portable" => Ok(SimdIsa::Portable),
            "avx2" if avx2 => Ok(SimdIsa::Avx2),
            "avx2" => Err(IsaError::Unavailable),
            _ => Err(IsaError::Unknown {
                name: name.to_string(),
            }),
        }
    }

    /// Whether this selection lets [`eutectica_simd::dispatch`] pick the
    /// AVX2+FMA instantiation when the host has it.
    #[inline]
    fn allows_avx2(self) -> bool {
        self != SimdIsa::Portable
    }

    /// The backend this selection resolves to on this host (`"avx2"` or
    /// `"portable"`).
    pub fn resolved_name(self) -> &'static str {
        if self.allows_avx2() && eutectica_simd::avx2_available() {
            "avx2"
        } else {
            "portable"
        }
    }
}

/// Full kernel configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// φ-kernel implementation.
    pub phi: PhiVariant,
    /// µ-kernel implementation.
    pub mu: MuVariant,
    /// ISA instantiation for the explicit-SIMD variants (ignored by the
    /// reference and scalar variants).
    pub isa: SimdIsa,
    /// Precompute temperature-dependent terms once per z-slice. Like the
    /// two flags below, a rung on top of the explicit-SIMD variants
    /// (ignored by the reference and scalar variants).
    pub tz_precompute: bool,
    /// Buffer staggered face values and reuse them (3 instead of 6 face
    /// evaluations per cell).
    pub staggered_buffer: bool,
    /// Region-dependent shortcuts (bulk skip, pure-cell driving skip,
    /// solid/liquid J_at skip).
    pub shortcuts: bool,
}

/// The cumulative optimization rungs of Fig. 6.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Rung 0: general-purpose reference code.
    Reference,
    /// Rung 1: basic specialized implementation.
    Basic,
    /// Rung 2: + explicit SIMD vectorization.
    Simd,
    /// Rung 3: + T(z) per-slice precomputation.
    SimdTz,
    /// Rung 4: + staggered buffer.
    SimdTzBuf,
    /// Rung 5: + shortcuts.
    SimdTzBufShortcuts,
}

impl OptLevel {
    /// All rungs in ladder order.
    pub const LADDER: [OptLevel; 6] = [
        OptLevel::Reference,
        OptLevel::Basic,
        OptLevel::Simd,
        OptLevel::SimdTz,
        OptLevel::SimdTzBuf,
        OptLevel::SimdTzBufShortcuts,
    ];

    /// The paper's label for this rung.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Reference => "general purpose code",
            OptLevel::Basic => "basic implementation",
            OptLevel::Simd => "with SIMD intrinsics",
            OptLevel::SimdTz => "with T(z) optimization",
            OptLevel::SimdTzBuf => "with staggered buffer",
            OptLevel::SimdTzBufShortcuts => "with shortcuts",
        }
    }

    /// The kernel configuration of this rung.
    pub fn config(self) -> KernelConfig {
        match self {
            OptLevel::Reference => KernelConfig {
                phi: PhiVariant::Reference,
                mu: MuVariant::Reference,
                isa: SimdIsa::Auto,
                tz_precompute: false,
                staggered_buffer: false,
                shortcuts: false,
            },
            OptLevel::Basic => KernelConfig {
                phi: PhiVariant::Scalar,
                mu: MuVariant::Scalar,
                isa: SimdIsa::Auto,
                tz_precompute: false,
                staggered_buffer: false,
                shortcuts: false,
            },
            OptLevel::Simd => KernelConfig {
                phi: PhiVariant::SimdCellwise,
                mu: MuVariant::SimdFourCell,
                isa: SimdIsa::Auto,
                tz_precompute: false,
                staggered_buffer: false,
                shortcuts: false,
            },
            OptLevel::SimdTz => KernelConfig {
                tz_precompute: true,
                ..OptLevel::Simd.config()
            },
            OptLevel::SimdTzBuf => KernelConfig {
                staggered_buffer: true,
                ..OptLevel::SimdTz.config()
            },
            OptLevel::SimdTzBufShortcuts => KernelConfig {
                shortcuts: true,
                ..OptLevel::SimdTzBuf.config()
            },
        }
    }
}

impl Default for KernelConfig {
    /// The production configuration: the fastest rung of the ladder.
    fn default() -> Self {
        OptLevel::SimdTzBufShortcuts.config()
    }
}

/// Run the φ-sweep over a block's interior with the selected variant:
/// `φ_dst ← φ-kernel(φ_src, µ_src)` (Algorithm 1, line 1).
pub fn phi_sweep(params: &ModelParams, state: &mut BlockState, time: f64, cfg: KernelConfig) {
    let (z0, z1) = phi_sweep_prepare(state, cfg);
    phi_sweep_range(params, state, time, cfg, z0, z1);
}

/// The phase a cell is exactly pure in — bitwise the unit vector `e_p` —
/// if there is one. The slab-level shortcuts require this of a constant
/// zone's value: it implies every per-group bulk / pure predicate of the
/// kernels, whatever they compare.
pub(crate) fn pure_phase_of(cell: [f64; N_PHASES]) -> Option<usize> {
    let bits = cell.map(f64::to_bits);
    for p in 0..N_PHASES {
        let mut unit = [0.0f64.to_bits(); N_PHASES];
        unit[p] = 1.0f64.to_bits();
        if bits == unit {
            return Some(p);
        }
    }
    None
}

/// The once-per-sweep part of [`phi_sweep`], run on the calling thread
/// before any [`phi_sweep_range`] worker shares the block: returns the
/// z-range the cell loop still has to cover and leaves `φ_dst`'s summary in
/// a state no worker needs to write.
///
/// With the default kernels (`shortcuts`, cellwise φ) this is where the
/// sweep becomes proportional to the front. `φ_src`'s constant zone (see
/// [`SoaField`]) is tightened; if it is pure, every cell of the slabs from
/// `const_from + 1` up is a bulk cell whose update is the identity, so the
/// cell loop ends there and `φ_dst` is *declared* to hold the same constant
/// above — which writes nothing when it already does, the steady state.
/// Every other configuration sweeps the whole interior and drops `φ_dst`'s
/// summary, as its `comps_mut` would.
///
/// [`SoaField`]: eutectica_blockgrid::field::SoaField
///
/// Under `debug_assertions` the summaries of all four fields are verified
/// by a full scan first.
pub fn phi_sweep_prepare(state: &mut BlockState, cfg: KernelConfig) -> (usize, usize) {
    debug_assert!(
        state.phi_src.summary_holds()
            && state.phi_dst.summary_holds()
            && state.mu_src.summary_holds()
            && state.mu_dst.summary_holds(),
        "a field's constant-slab summary does not describe its contents"
    );
    let (z0, z1) = state.dims.interior_z_range();
    if !(cfg.shortcuts && cfg.phi == PhiVariant::SimdCellwise) {
        state.phi_dst.comps_mut();
        return (z0, z1);
    }
    state.phi_src.tighten();
    let (const_from, val) = state.phi_src.const_zone();
    let active_end = match pure_phase_of(val) {
        Some(_) => (const_from + 1).clamp(z0, z1),
        None => z1,
    };
    if active_end < z1 {
        state.phi_dst.extend_const_zone(active_end, val);
    }
    if active_end > z0 {
        // What the cell loop is about to write leaves φ_dst's zone here.
        state.phi_dst.comps_mut_below(active_end);
    }
    (z0, active_end)
}

/// Like [`phi_sweep`] restricted to the z-slices `z0..z1` (absolute,
/// ghost-inclusive coordinates with `g <= z0 <= z1 <= g + nz`). All
/// variants read only the source fields and write each `φ_dst` cell of the
/// slab exactly once, so a disjoint slab partition run in any order (or
/// concurrently) produces the full sweep's result bit-for-bit. Runs the
/// cell loop on every slab asked for; [`phi_sweep_prepare`] says which
/// slabs need it.
pub fn phi_sweep_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    z0: usize,
    z1: usize,
) {
    if z0 >= z1 {
        return;
    }
    let args = SweepArgs {
        params,
        state,
        time,
        cfg,
        z0,
        z1,
    };
    match cfg.phi {
        PhiVariant::Reference => reference::phi_sweep_reference_range(params, state, time, z0, z1),
        PhiVariant::Scalar => scalar_phi::phi_sweep_scalar_range(params, state, time, z0, z1),
        PhiVariant::SimdCellwise => dispatch(cfg.isa.allows_avx2(), PhiCellwise(args)),
        PhiVariant::SimdFourCell => dispatch(cfg.isa.allows_avx2(), PhiFourCell(args)),
    }
}

/// Run the µ-sweep over a block's interior with the selected variant:
/// `µ_dst ← µ-kernel(µ_src, φ_src, φ_dst)` (Algorithm 1, line 4).
pub fn mu_sweep(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    part: MuPart,
) {
    let (z0, z1) = state.dims.interior_z_range();
    mu_sweep_range(params, state, time, cfg, part, z0, z1);
}

/// Like [`mu_sweep`] restricted to the z-slices `z0..z1` (see
/// [`phi_sweep_range`]). The [`MuPart::NeighborOnly`] accumulation reads
/// and writes only its own cell of `µ_dst`, so it is slab-safe too.
pub fn mu_sweep_range(
    params: &ModelParams,
    state: &mut BlockState,
    time: f64,
    cfg: KernelConfig,
    part: MuPart,
    z0: usize,
    z1: usize,
) {
    let args = SweepArgs {
        params,
        state,
        time,
        cfg,
        z0,
        z1,
    };
    match cfg.mu {
        MuVariant::Reference => {
            reference::mu_sweep_reference_range(params, state, time, part, z0, z1)
        }
        MuVariant::Scalar => scalar_mu::mu_sweep_scalar_range(params, state, time, part, z0, z1),
        MuVariant::SimdFourCell => dispatch(cfg.isa.allows_avx2(), MuFourCell(args, part)),
    }
}

/// What a range sweep takes, bundled so a vectorized kernel can travel
/// through [`eutectica_simd::dispatch`] as one value.
struct SweepArgs<'a> {
    params: &'a ModelParams,
    state: &'a mut BlockState,
    time: f64,
    cfg: KernelConfig,
    z0: usize,
    z1: usize,
}

struct PhiCellwise<'a>(SweepArgs<'a>);
struct PhiFourCell<'a>(SweepArgs<'a>);
struct MuFourCell<'a>(SweepArgs<'a>, MuPart);

impl IsaGeneric for PhiCellwise<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64x4>(self) {
        let a = self.0;
        simd_phi::phi_sweep_cellwise_range::<V>(a.params, a.state, a.time, a.cfg, a.z0, a.z1);
    }
}

impl IsaGeneric for PhiFourCell<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64x4>(self) {
        let a = self.0;
        simd_phi::phi_sweep_fourcell_range::<V>(a.params, a.state, a.time, a.cfg, a.z0, a.z1);
    }
}

impl IsaGeneric for MuFourCell<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64x4>(self) {
        let (a, part) = (self.0, self.1);
        simd_mu::mu_sweep_fourcell_range::<V>(a.params, a.state, a.time, a.cfg, part, a.z0, a.z1);
    }
}

/// Gather the 4 phase values of linear cell `i` from SoA component slices.
#[inline(always)]
pub(crate) fn get4(c: &[&[f64]; 4], i: usize) -> [f64; 4] {
    [c[0][i], c[1][i], c[2][i], c[3][i]]
}

/// Gather the 2 µ components of linear cell `i`.
#[inline(always)]
pub(crate) fn get2(c: &[&[f64]; 2], i: usize) -> [f64; 2] {
    [c[0][i], c[1][i]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let l = OptLevel::LADDER;
        assert_eq!(l[0].config().phi, PhiVariant::Reference);
        assert_eq!(l[1].config().phi, PhiVariant::Scalar);
        for rung in &l[2..] {
            assert_eq!(rung.config().phi, PhiVariant::SimdCellwise);
            assert_eq!(rung.config().mu, MuVariant::SimdFourCell);
        }
        assert!(!l[2].config().tz_precompute);
        assert!(l[3].config().tz_precompute && !l[3].config().staggered_buffer);
        assert!(l[4].config().staggered_buffer && !l[4].config().shortcuts);
        assert!(l[5].config().shortcuts);
        assert_eq!(KernelConfig::default(), l[5].config());
    }

    #[test]
    fn avx2_availability_matches_runtime_detection() {
        match SimdIsa::parse("avx2") {
            Ok(isa) => assert!(eutectica_simd::avx2_available() && isa == SimdIsa::Avx2),
            Err(e) => assert!(!eutectica_simd::avx2_available() && e == IsaError::Unavailable),
        }
    }

    /// The "never silently degrade" contract on both kinds of host, from
    /// one build.
    #[test]
    fn avx2_is_unavailable_exactly_on_a_host_without_avx2() {
        assert_eq!(SimdIsa::parse_on("avx2", false), Err(IsaError::Unavailable));
        assert!(IsaError::Unavailable.to_string().contains("AVX2"));
        assert_eq!(SimdIsa::parse_on("avx2", true), Ok(SimdIsa::Avx2));
        for avx2 in [false, true] {
            assert_eq!(SimdIsa::parse_on("auto", avx2), Ok(SimdIsa::Auto));
            assert_eq!(SimdIsa::parse_on("portable", avx2), Ok(SimdIsa::Portable));
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        for bad in [
            "",
            "simd",
            "simd-avx2",
            "AVX2",
            "avx2+tz",
            "reference",
            "scalar+tz",
        ] {
            for avx2 in [false, true] {
                let err = SimdIsa::parse_on(bad, avx2).unwrap_err();
                assert_eq!(err, IsaError::Unknown { name: bad.into() });
                assert!(err.to_string().contains("auto, portable or avx2"));
            }
        }
    }

    /// The face slots a skipped bulk group leaves in the staggered buffer
    /// (zeroed by the φ skip, constant-coefficient fluxes in µ) are read by
    /// whatever follows it in x (carry), y (row buffer) and z (plane
    /// buffer). Put an interface group right there and require the buffered
    /// sweep to reproduce the unbuffered one — which recomputes those faces
    /// from the cells — bit for bit.
    #[test]
    fn faces_left_by_skipped_groups_match_the_recomputed_ones() {
        use crate::simplex::project_to_simplex;
        use eutectica_blockgrid::GridDims;
        use rand::{Rng, SeedableRng};

        let params = ModelParams::ag_al_cu();
        let dims = GridDims::new(12, 5, 5, 1);
        let mut isas = vec![SimdIsa::Portable];
        if eutectica_simd::avx2_available() {
            isas.push(SimdIsa::Avx2);
        }
        // The bulk group is x = 4..8 at y = z = 2 (interior); the interface
        // group follows it along one axis.
        for (label, at) in [("x", (8, 2, 2)), ("y", (4, 3, 2)), ("z", (4, 2, 3))] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let mut base = BlockState::new(dims, [0, 0, 3]);
            for z in 0..dims.tz() {
                for y in 0..dims.ty() {
                    for x in 0..dims.tx() {
                        base.phi_src.set_cell(x, y, z, [0.0, 1.0, 0.0, 0.0]);
                        base.phi_dst.set_cell(x, y, z, [0.0, 1.0, 0.0, 0.0]);
                        let mu = [rng.random_range(-0.3..0.3), rng.random_range(-0.3..0.3)];
                        base.mu_src.set_cell(x, y, z, mu);
                    }
                }
            }
            for x in at.0..at.0 + 4 {
                let raw: [f64; 4] = core::array::from_fn(|_| rng.random_range(0.0..1.0));
                let cell = project_to_simplex(raw);
                base.phi_src.set_cell(x + 1, at.1 + 1, at.2 + 1, cell);
                base.phi_dst.set_cell(x + 1, at.1 + 1, at.2 + 1, cell);
            }
            for &isa in &isas {
                for tz in [false, true] {
                    let run = |stag: bool| {
                        let cfg = KernelConfig {
                            isa,
                            tz_precompute: tz,
                            staggered_buffer: stag,
                            ..KernelConfig::default()
                        };
                        let mut s = base.clone();
                        phi_sweep(&params, &mut s, 0.2, cfg);
                        mu_sweep(&params, &mut s, 0.2, cfg, MuPart::Full);
                        s
                    };
                    let (plain, buffered) = (run(false), run(true));
                    for (field, a, b) in [
                        ("phi", plain.phi_dst.raw(), buffered.phi_dst.raw()),
                        ("mu", plain.mu_dst.raw(), buffered.mu_dst.raw()),
                    ] {
                        let diff = a
                            .iter()
                            .zip(b)
                            .position(|(p, q)| p.to_bits() != q.to_bits());
                        assert_eq!(
                            diff, None,
                            "{label} {isa:?} tz={tz}: {field}_dst (raw index)"
                        );
                    }
                }
            }
        }
    }
}
