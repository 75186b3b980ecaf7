//! Runtime kernel-backend registry and telemetry-driven autotuner.
//!
//! The optimization ladder of Fig. 5/6 ([`super::OptLevel`]) picks a kernel
//! variant *globally*; this module names every rung in a **registry** that
//! [`resolve`]s a name to its [`KernelConfig`] at runtime (the sweep entry
//! points [`super::phi_sweep_range`] / [`super::mu_sweep_range`] take the
//! configuration), and adds an [`Autotuner`] that measures the candidates
//! per block on the running machine and pins the fastest — the refactor waLBerla
//! underwent to grow heterogeneous backends, and the reason per-machine
//! kernel choice is worth real speedups: the fastest variant depends on
//! region content (bulk vs front) and on the host ISA.
//!
//! # Registry grammar
//!
//! A backend name is a family, optionally followed by `+`-separated
//! toggles:
//!
//! ```text
//! family := reference | scalar | simd | simd-avx2 | simd-portable
//! name   := family [+tz] [+buf] [+sc]
//! ```
//!
//! `tz` enables per-slice T(z) precomputation, `buf` the staggered face
//! buffer, `sc` the region shortcuts — the ladder's cumulative toggles,
//! here freely combinable. `simd` resolves the ISA at runtime
//! ([`SimdIsa::Auto`]); `simd-avx2` *requires* AVX2+FMA and reports a typed
//! [`BackendError::Unavailable`] when the host lacks the features, instead
//! of silently degrading; `simd-portable` forces the bit-identical portable
//! instantiation.
//!
//! # Equivalence guarantee
//!
//! Every registered backend computes the identical discretization.
//! `tests/kernel_equivalence.rs` iterates the registry: `simd-*` backends
//! are bit-exact against each other (same FMA contraction and summation
//! order, toggles only reorganize identical arithmetic or skip exactly-zero
//! terms); `reference`/`scalar` families agree to a stated `1e-11`
//! tolerance. The [`Autotuner`]'s default candidate set
//! ([`AutotunePolicy::bit_exact`]) stays inside one bit-exact family, so
//! its mid-run variant switches are bit-identical to pinning any single
//! candidate — autotuning never changes physics.

use std::collections::BTreeMap;
use std::fmt;

use super::{KernelConfig, MuVariant, PhiVariant, SimdIsa};

/// Why a backend could not be resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The name does not parse as `family[+tz][+buf][+sc]`.
    Unknown {
        /// The offending name.
        name: String,
    },
    /// The family exists but cannot run on this host.
    Unavailable {
        /// The requested name.
        name: String,
        /// Human-readable reason (host lacks AVX2+FMA).
        reason: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unknown { name } => write!(
                f,
                "unknown kernel backend '{name}' (families: {}; toggles: +tz +buf +sc)",
                FAMILIES.join(", ")
            ),
            BackendError::Unavailable { name, reason } => {
                write!(f, "kernel backend '{name}' unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// The registered backend families, in ladder order.
pub const FAMILIES: [&str; 5] = ["reference", "scalar", "simd", "simd-avx2", "simd-portable"];

/// Canonical name for a family + toggle combination.
fn backend_name(family: &str, tz: bool, buf: bool, sc: bool) -> String {
    let mut name = family.to_string();
    if tz {
        name.push_str("+tz");
    }
    if buf {
        name.push_str("+buf");
    }
    if sc {
        name.push_str("+sc");
    }
    name
}

/// Resolve a registry name to the kernel configuration it names.
///
/// Availability is checked *here*, at resolve time: `simd-avx2` on a host
/// without AVX2+FMA is a typed [`BackendError::Unavailable`], never a
/// silent fallback.
pub fn resolve(name: &str) -> Result<KernelConfig, BackendError> {
    resolve_on(name, eutectica_simd::avx2_available())
}

/// [`resolve`] for a host that has (`avx2`) or lacks AVX2+FMA.
fn resolve_on(name: &str, avx2: bool) -> Result<KernelConfig, BackendError> {
    let mut parts = name.split('+');
    let family = parts.next().unwrap_or("");
    let (mut tz, mut buf, mut sc) = (false, false, false);
    for t in parts {
        match t {
            "tz" => tz = true,
            "buf" => buf = true,
            "sc" => sc = true,
            _ => {
                return Err(BackendError::Unknown {
                    name: name.to_string(),
                })
            }
        }
    }
    let (phi, mu, isa) = match family {
        "reference" => (PhiVariant::Reference, MuVariant::Reference, SimdIsa::Auto),
        "scalar" => (PhiVariant::Scalar, MuVariant::Scalar, SimdIsa::Auto),
        "simd" => (
            PhiVariant::SimdCellwise,
            MuVariant::SimdFourCell,
            SimdIsa::Auto,
        ),
        "simd-portable" => (
            PhiVariant::SimdCellwise,
            MuVariant::SimdFourCell,
            SimdIsa::Portable,
        ),
        "simd-avx2" => {
            if !avx2 {
                return Err(BackendError::Unavailable {
                    name: name.to_string(),
                    reason: "host CPU lacks AVX2+FMA".to_string(),
                });
            }
            (
                PhiVariant::SimdCellwise,
                MuVariant::SimdFourCell,
                SimdIsa::Avx2,
            )
        }
        _ => {
            return Err(BackendError::Unknown {
                name: name.to_string(),
            })
        }
    };
    Ok(KernelConfig {
        phi,
        mu,
        isa,
        tz_precompute: tz,
        staggered_buffer: buf,
        shortcuts: sc,
    })
}

/// Every registry name: each family × the ladder's cumulative toggle
/// combinations (none, `+tz`, `+tz+buf`, `+tz+buf+sc`). The equivalence
/// suite iterates this list; resolving an entry may still yield
/// [`BackendError::Unavailable`] (e.g. `simd-avx2` on a non-AVX2 host).
pub fn registry_names() -> Vec<String> {
    let mut names = Vec::new();
    for family in FAMILIES {
        for (tz, buf, sc) in [
            (false, false, false),
            (true, false, false),
            (true, true, false),
            (true, true, true),
        ] {
            names.push(backend_name(family, tz, buf, sc));
        }
    }
    names
}

/// The ISA the explicitly vectorized kernels resolve to on this host
/// (`"avx2"` or `"portable"`), under the default [`SimdIsa::Auto`]
/// selection. This is the *runtime* answer — independent of the target
/// features the binary was compiled with.
pub fn active_simd_backend() -> &'static str {
    SimdIsa::Auto.resolved_name()
}

/// One autotune candidate: a named, runnable kernel configuration.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Registry-style name, used in telemetry counters and summaries.
    pub name: String,
    /// The configuration the time loop runs while this candidate is
    /// selected.
    pub cfg: KernelConfig,
}

/// Autotuner policy: the candidate set and the warmup protocol.
#[derive(Clone, Debug)]
pub struct AutotunePolicy {
    /// Candidate variants, measured in order. **Bit-identity caveat:** the
    /// autotuner switches variants mid-run, so a run is bit-identical to an
    /// untuned run only if all candidates are bit-identical to each other —
    /// which [`AutotunePolicy::bit_exact`] guarantees. Custom sets that mix
    /// families (e.g. `scalar` with `simd`) trade bit-reproducibility for
    /// search breadth.
    pub candidates: Vec<Candidate>,
    /// Measured steps per candidate per block before moving on. The first
    /// step after every switch is discarded (cache/branch warm-in).
    pub warmup_steps: usize,
    /// EWMA smoothing factor for per-step sweep seconds, as in the
    /// rebalancer's cost model.
    pub alpha: f64,
    /// Re-evaluate a block's pinned choice when its dominant region class
    /// changes, checked every this many steps (0 = never re-check). The
    /// fastest variant is region-dependent, so a block that solidifies from
    /// front to bulk is worth re-tuning.
    pub recheck_every: usize,
}

impl AutotunePolicy {
    /// The default, physics-preserving policy: candidates are the
    /// explicitly vectorized family's cumulative toggle rungs × the ISA
    /// instantiations available on this host — all bit-identical to each
    /// other (pinned by the kernel-equivalence suite), so mid-run switches
    /// are bit-identical to pinning any single candidate.
    pub fn bit_exact() -> Self {
        let mut candidates = Vec::new();
        let mut isas: Vec<&str> = vec!["simd-portable"];
        if eutectica_simd::avx2_available() {
            // Fastest-first: measured in order, so on capable hosts the
            // AVX2 candidates warm up first.
            isas.insert(0, "simd-avx2");
        }
        for family in isas {
            for (tz, buf, sc) in [
                (true, true, true),
                (true, true, false),
                (true, false, false),
                (false, false, false),
            ] {
                let name = backend_name(family, tz, buf, sc);
                let cfg = resolve(&name).expect("bit-exact candidates resolve by construction");
                candidates.push(Candidate { name, cfg });
            }
        }
        Self {
            candidates,
            warmup_steps: 3,
            alpha: 0.5,
            recheck_every: 64,
        }
    }
}

/// Counters of one rank's autotuner.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AutotuneStats {
    /// Blocks whose warmup finished and pinned a winner.
    pub pins: u64,
    /// Pinned blocks sent back to warmup by a region-class change or
    /// migration.
    pub retunes: u64,
    /// Candidate switches performed (warmup advances and re-pins).
    pub switches: u64,
}

/// Per-block tuning state.
#[derive(Clone, Debug)]
struct BlockTune {
    /// Index into the policy's candidate list currently running.
    cand: usize,
    /// Warmup finished; `cand` is the winner.
    pinned: bool,
    /// Discard the next sample (first step after a switch).
    skip_next: bool,
    /// Samples folded into `ewma[cand]` so far this warmup round.
    measured: usize,
    /// Per-candidate EWMA of sweep seconds per step.
    ewma: Vec<Option<f64>>,
    /// Dominant region class (`0` interface, `1` liquid, `2` solid) at the
    /// start of the current tuning round.
    class: usize,
    /// Interior cells, for MLUP/s-based region-rate estimates.
    cells: u64,
}

/// Telemetry-driven per-block kernel autotuner.
///
/// Reuses the rebalancer's measurement machinery conceptually: per-block
/// sweep seconds per step, folded into an EWMA per candidate. Protocol per
/// block: run each candidate for `warmup_steps` measured steps (first step
/// after every switch discarded), then pin the argmin. A pinned block keeps
/// feeding its winner's EWMA, so the estimates stay fresh. Re-tuning is
/// triggered by migration ([`Autotuner::untrack`]/[`Autotuner::track`] —
/// the new rank's cache topology may prefer a different variant) and by
/// dominant-region reclassification ([`Autotuner::note_region_class`]).
///
/// The autotuner is **rank-local**: variant choice affects no communication
/// (ghost exchange is identical for every variant), so no collective
/// coordination is needed and different ranks may pin different winners.
#[derive(Clone, Debug)]
pub struct Autotuner {
    policy: AutotunePolicy,
    blocks: BTreeMap<usize, BlockTune>,
    /// Measured MLUP/s EWMA per dominant region class
    /// (`[interface, liquid, solid]`, the ordering of
    /// [`crate::regions::DEFAULT_REGION_RATES`]).
    region_rate: [Option<f64>; 3],
    stats: AutotuneStats,
}

impl Autotuner {
    /// New autotuner with the given policy (panics on an empty candidate
    /// set).
    pub fn new(policy: AutotunePolicy) -> Self {
        assert!(
            !policy.candidates.is_empty(),
            "autotune policy needs at least one candidate"
        );
        Self {
            policy,
            blocks: BTreeMap::new(),
            region_rate: [None; 3],
            stats: AutotuneStats::default(),
        }
    }

    /// The policy this autotuner runs.
    pub fn policy(&self) -> &AutotunePolicy {
        &self.policy
    }

    /// Counters.
    pub fn stats(&self) -> &AutotuneStats {
        &self.stats
    }

    /// Start (or restart) tuning block `id`: `class` is its dominant region
    /// (`0` interface, `1` liquid, `2` solid), `cells` its interior cell
    /// count.
    pub fn track(&mut self, id: usize, class: usize, cells: u64) {
        let n = self.policy.candidates.len();
        self.blocks.insert(
            id,
            BlockTune {
                cand: 0,
                pinned: n == 1,
                skip_next: true,
                measured: 0,
                ewma: vec![None; n],
                class,
                cells,
            },
        );
        if n == 1 {
            self.stats.pins += 1;
        }
    }

    /// Stop tuning block `id` (it migrated away).
    pub fn untrack(&mut self, id: usize) {
        self.blocks.remove(&id);
    }

    /// The configuration block `id` should run this step: the candidate
    /// currently under measurement, or the pinned winner. `None` for
    /// untracked blocks.
    pub fn config_for(&self, id: usize) -> Option<KernelConfig> {
        let t = self.blocks.get(&id)?;
        Some(self.policy.candidates[t.cand].cfg)
    }

    /// Feed one step's measured sweep seconds for block `id`. Returns the
    /// winner's name when this sample completes the block's warmup (a pin
    /// event, for telemetry counters).
    pub fn observe(&mut self, id: usize, secs: f64) -> Option<String> {
        let alpha = self.policy.alpha;
        let warmup = self.policy.warmup_steps;
        let t = self.blocks.get_mut(&id)?;
        if secs <= 0.0 || !secs.is_finite() {
            return None;
        }
        if t.skip_next {
            t.skip_next = false;
            return None;
        }
        let e = &mut t.ewma[t.cand];
        *e = Some(match *e {
            Some(prev) => alpha * secs + (1.0 - alpha) * prev,
            None => secs,
        });
        if t.pinned {
            // Keep the winner's estimate (and the region rates) fresh.
            let (class, rate) = (t.class, t.cells as f64 / secs / 1e6);
            Self::fold_region_rate(&mut self.region_rate, class, rate, alpha);
            return None;
        }
        t.measured += 1;
        if t.measured < warmup {
            return None;
        }
        // This candidate's round is done; advance or pin.
        t.measured = 0;
        t.skip_next = true;
        self.stats.switches += 1;
        if t.cand + 1 < self.policy.candidates.len() {
            t.cand += 1;
            return None;
        }
        // All candidates measured: pin the argmin (ties → first, i.e. the
        // earliest-measured candidate — deterministic).
        let (winner, best) = t
            .ewma
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|v| (i, v)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("warmup measured every candidate");
        t.cand = winner;
        t.pinned = true;
        self.stats.pins += 1;
        let (class, rate) = (t.class, t.cells as f64 / best / 1e6);
        Self::fold_region_rate(&mut self.region_rate, class, rate, alpha);
        Some(self.policy.candidates[winner].name.clone())
    }

    fn fold_region_rate(rates: &mut [Option<f64>; 3], class: usize, mlups: f64, alpha: f64) {
        if mlups <= 0.0 || !mlups.is_finite() {
            return;
        }
        let e = &mut rates[class];
        *e = Some(match *e {
            Some(prev) => alpha * mlups + (1.0 - alpha) * prev,
            None => mlups,
        });
    }

    /// Report block `id`'s current dominant region class. A pinned block
    /// whose class changed re-enters warmup (the fastest variant is
    /// region-dependent); returns true when that retune was triggered.
    pub fn note_region_class(&mut self, id: usize, class: usize) -> bool {
        let Some(t) = self.blocks.get_mut(&id) else {
            return false;
        };
        if t.class == class {
            return false;
        }
        t.class = class;
        if !t.pinned || self.policy.candidates.len() == 1 {
            return false;
        }
        t.pinned = false;
        t.cand = 0;
        t.measured = 0;
        t.skip_next = true;
        t.ewma.fill(None);
        self.stats.retunes += 1;
        true
    }

    /// True once every tracked block has pinned a winner.
    pub fn all_pinned(&self) -> bool {
        self.blocks.values().all(|t| t.pinned)
    }

    /// Chosen-variant census: `variant name → number of blocks currently
    /// pinned to it` (blocks still warming up are not counted).
    pub fn pinned_summary(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for t in self.blocks.values() {
            if t.pinned {
                *m.entry(self.policy.candidates[t.cand].name.clone())
                    .or_insert(0) += 1;
            }
        }
        m
    }

    /// Per-block view: `(block id, current variant name, pinned?)`, in
    /// block-id order.
    pub fn per_block(&self) -> Vec<(usize, String, bool)> {
        self.blocks
            .iter()
            .map(|(&id, t)| (id, self.policy.candidates[t.cand].name.clone(), t.pinned))
            .collect()
    }

    /// Measured per-region kernel rates `[interface, liquid, solid]` in
    /// MLUP/s, with classes this autotuner has not measured yet filled from
    /// `fallback`. Seeds the rebalancer's cold-start priors in place of the
    /// hardcoded [`crate::regions::DEFAULT_REGION_RATES`] guesses.
    pub fn region_rates_or(&self, fallback: [f64; 3]) -> [f64; 3] {
        core::array::from_fn(|i| self.region_rate[i].unwrap_or(fallback[i]))
    }

    /// True once at least one region class has a measured rate.
    pub fn has_region_rates(&self) -> bool {
        self.region_rate.iter().any(Option::is_some)
    }
}

/// The dominant region class of a block for autotune/prior purposes:
/// `0` interface (front + solid-solid), `1` liquid bulk, `2` solid bulk —
/// the ordering of [`crate::regions::DEFAULT_REGION_RATES`].
pub fn dominant_region_class(counts: &crate::regions::RegionCounts) -> usize {
    let groups = [
        counts.front + counts.solid_interface,
        counts.liquid_bulk,
        counts.solid_bulk,
    ];
    groups
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_known_names() {
        for name in registry_names() {
            match resolve(&name) {
                Ok(cfg) => {
                    assert_eq!(cfg.tz_precompute, name.contains("+tz"));
                    assert_eq!(cfg.staggered_buffer, name.contains("+buf"));
                    assert_eq!(cfg.shortcuts, name.contains("+sc"));
                }
                Err(BackendError::Unavailable { name: n, .. }) => {
                    assert!(n.starts_with("simd-avx2"));
                    assert!(!eutectica_simd::avx2_available());
                }
                Err(e) => panic!("registry name {name} failed: {e}"),
            }
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        for bad in ["", "simd2", "simd+fast", "avx2", "scalar+tz+nope"] {
            assert!(matches!(resolve(bad), Err(BackendError::Unknown { .. })));
        }
    }

    #[test]
    fn avx2_availability_matches_runtime_detection() {
        match resolve("simd-avx2") {
            Ok(cfg) => {
                assert!(eutectica_simd::avx2_available());
                assert_eq!(cfg.isa, SimdIsa::Avx2);
            }
            Err(BackendError::Unavailable { .. }) => assert!(!eutectica_simd::avx2_available()),
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    /// The "never silently degrade" contract on both kinds of host, from
    /// one build.
    #[test]
    fn simd_avx2_is_unavailable_exactly_on_a_host_without_avx2() {
        for toggles in ["", "+tz", "+tz+buf", "+tz+buf+sc"] {
            let name = format!("simd-avx2{toggles}");
            match resolve_on(&name, false) {
                Err(BackendError::Unavailable { name: n, reason }) => {
                    assert_eq!(n, name);
                    assert!(reason.contains("AVX2"), "reason: {reason}");
                }
                other => panic!("{name} on a host without AVX2: {other:?}"),
            }
            assert_eq!(resolve_on(&name, true).unwrap().isa, SimdIsa::Avx2);
            for (family, isa) in [
                ("simd", SimdIsa::Auto),
                ("simd-portable", SimdIsa::Portable),
            ] {
                for avx2 in [false, true] {
                    let cfg = resolve_on(&format!("{family}{toggles}"), avx2).unwrap();
                    assert_eq!(cfg.isa, isa);
                    assert_eq!(cfg.phi, PhiVariant::SimdCellwise);
                }
            }
        }
    }

    fn tiny_policy(n: usize) -> AutotunePolicy {
        let base = resolve("simd-portable").unwrap();
        AutotunePolicy {
            candidates: (0..n)
                .map(|i| Candidate {
                    name: format!("cand-{i}"),
                    cfg: base,
                })
                .collect(),
            warmup_steps: 2,
            alpha: 0.5,
            recheck_every: 0,
        }
    }

    /// Drive a block through warmup with candidate `k` given synthetic
    /// per-step costs `costs[k]`; returns the pinned winner index.
    fn run_warmup(tuner: &mut Autotuner, id: usize, costs: &[f64]) -> usize {
        // Per candidate: 1 discarded sample + warmup_steps measured.
        for _ in 0..costs.len() * (tuner.policy.warmup_steps + 1) {
            let cand = tuner.blocks[&id].cand;
            tuner.observe(id, costs[cand]);
        }
        let t = &tuner.blocks[&id];
        assert!(t.pinned, "warmup did not pin");
        t.cand
    }

    #[test]
    fn autotuner_pins_the_cheapest_candidate() {
        let mut tuner = Autotuner::new(tiny_policy(3));
        tuner.track(7, 0, 1_000_000);
        let winner = run_warmup(&mut tuner, 7, &[3e-3, 1e-3, 2e-3]);
        assert_eq!(winner, 1);
        assert_eq!(tuner.stats().pins, 1);
        assert_eq!(tuner.per_block(), [(7, "cand-1".to_string(), true)]);
        let summary = tuner.pinned_summary();
        assert_eq!(summary.get("cand-1"), Some(&1));
        // Region rates were seeded from the winner: 1e6 cells in 1e-3 s
        // per step = 1000 MLUP/s for class 0, fallback elsewhere.
        let rates = tuner.region_rates_or([1.0, 2.0, 3.0]);
        assert!((rates[0] - 1000.0).abs() < 1.0, "rates: {rates:?}");
        assert_eq!(rates[1], 2.0);
        assert_eq!(rates[2], 3.0);
    }

    #[test]
    fn region_reclassification_triggers_retune() {
        let mut tuner = Autotuner::new(tiny_policy(2));
        tuner.track(0, 1, 1000);
        run_warmup(&mut tuner, 0, &[1e-3, 2e-3]);
        assert!(!tuner.note_region_class(0, 1), "same class must not retune");
        assert!(tuner.note_region_class(0, 2), "class change must retune");
        assert!(!tuner.all_pinned());
        assert_eq!(tuner.stats().retunes, 1);
        // The block re-pins after another warmup round.
        run_warmup(&mut tuner, 0, &[2e-3, 1e-3]);
        assert_eq!(tuner.per_block(), [(0, "cand-1".to_string(), true)]);
    }

    #[test]
    fn single_candidate_pins_immediately() {
        let mut tuner = Autotuner::new(tiny_policy(1));
        tuner.track(3, 0, 1000);
        assert!(tuner.all_pinned());
        assert_eq!(tuner.per_block(), [(3, "cand-0".to_string(), true)]);
    }

    #[test]
    fn bit_exact_policy_stays_in_the_simd_family() {
        let policy = AutotunePolicy::bit_exact();
        assert!(!policy.candidates.is_empty());
        for c in &policy.candidates {
            assert_eq!(c.cfg.phi, PhiVariant::SimdCellwise);
            assert_eq!(c.cfg.mu, MuVariant::SimdFourCell);
            assert!(c.name.starts_with("simd-"), "candidate {}", c.name);
        }
        if !eutectica_simd::avx2_available() {
            assert!(policy
                .candidates
                .iter()
                .all(|c| c.cfg.isa == SimdIsa::Portable));
        }
    }
}
