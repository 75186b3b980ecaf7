//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! T(z) precompute, staggered buffer, shortcuts, the split µ-kernel
//! overhead (the reason φ-overlap loses), anti-trapping cost, and the fast
//! inverse square root.

use criterion::{criterion_group, criterion_main, Criterion};
use eutectica_blockgrid::GridDims;
use eutectica_core::kernels::{mu_sweep, phi_sweep, KernelConfig, MuPart, OptLevel, SimdIsa};
use eutectica_core::params::ModelParams;
use eutectica_core::regions::{build_scenario, Scenario};
use eutectica_simd::{dispatch, IsaGeneric, SimdF64x4};

fn flag_ablations(c: &mut Criterion) {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(32);
    let base = OptLevel::SimdTzBufShortcuts.config();
    let cases = [
        ("full", base),
        (
            "no_tz",
            KernelConfig {
                tz_precompute: false,
                ..base
            },
        ),
        (
            "no_staggered_buffer",
            KernelConfig {
                staggered_buffer: false,
                ..base
            },
        ),
        (
            "no_shortcuts",
            KernelConfig {
                shortcuts: false,
                ..base
            },
        ),
    ];
    for (kernel, is_phi) in [("phi", true), ("mu", false)] {
        let mut group = c.benchmark_group(format!("ablation_{kernel}"));
        group.throughput(criterion::Throughput::Elements(
            dims.interior_volume() as u64
        ));
        for (name, cfg) in cases {
            let mut state = build_scenario(Scenario::Interface, dims);
            phi_sweep(&params, &mut state, 0.0, base);
            group.bench_function(name, |b| {
                b.iter(|| {
                    if is_phi {
                        phi_sweep(&params, &mut state, 0.0, cfg);
                    } else {
                        mu_sweep(&params, &mut state, 0.0, cfg, MuPart::Full);
                    }
                });
            });
        }
        group.finish();
    }
}

/// The φ-overlap overhead: the split µ-sweep computes the per-slice
/// temperature terms twice (Sec. 3.3 — "this overhead is much bigger than
/// the benefit of communication hiding").
fn split_mu_overhead(c: &mut Criterion) {
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(32);
    let cfg = OptLevel::SimdTzBufShortcuts.config();
    let mut group = c.benchmark_group("mu_split");
    group.throughput(criterion::Throughput::Elements(
        dims.interior_volume() as u64
    ));
    let mut state = build_scenario(Scenario::Interface, dims);
    phi_sweep(&params, &mut state, 0.0, cfg);
    group.bench_function("unsplit", |b| {
        b.iter(|| mu_sweep(&params, &mut state, 0.0, cfg, MuPart::Full));
    });
    group.bench_function("split_local_plus_neighbor", |b| {
        b.iter(|| {
            mu_sweep(&params, &mut state, 0.0, cfg, MuPart::LocalOnly);
            mu_sweep(&params, &mut state, 0.0, cfg, MuPart::NeighborOnly);
        });
    });
    group.finish();
}

/// Anti-trapping current cost (the model ablation of refs. [29] vs [30]).
fn anti_trapping_cost(c: &mut Criterion) {
    let mut params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(32);
    let cfg = OptLevel::SimdTzBuf.config();
    let mut group = c.benchmark_group("anti_trapping");
    group.throughput(criterion::Throughput::Elements(
        dims.interior_volume() as u64
    ));
    let mut state = build_scenario(Scenario::Interface, dims);
    phi_sweep(&params, &mut state, 0.0, cfg);
    group.bench_function("with_atc", |b| {
        b.iter(|| mu_sweep(&params, &mut state, 0.0, cfg, MuPart::Full));
    });
    params.enable_atc = false;
    group.bench_function("without_atc", |b| {
        b.iter(|| mu_sweep(&params, &mut state, 0.0, cfg, MuPart::Full));
    });
    group.finish();
}

/// The φ-field layout experiment of Sec. 5.1.1: SoA (production, chosen for
/// the µ-kernel's 38 cell loads) vs AoS (one contiguous vector load per
/// cell for the cellwise φ-kernel). The paper measured "no notable
/// differences" thanks to the kernel's high arithmetic intensity.
fn phi_layout(c: &mut Criterion) {
    use eutectica_core::kernels::phi_sweep_cellwise_aos;
    let params = ModelParams::ag_al_cu();
    let dims = GridDims::cube(32);
    // Rung 4, the configuration the AoS kernel implements.
    let cfg = OptLevel::SimdTzBuf.config();
    println!("phi_layout: SIMD backend {}", cfg.isa.resolved_name());
    let mut group = c.benchmark_group("phi_layout");
    group.throughput(criterion::Throughput::Elements(
        dims.interior_volume() as u64
    ));
    let base = build_scenario(Scenario::Interface, dims);
    let mut soa_state = base.clone();
    group.bench_function("soa_cellwise", |b| {
        b.iter(|| phi_sweep(&params, &mut soa_state, 0.0, cfg));
    });
    let aos = base.phi_src.to_aos();
    let mut out = base.phi_dst.clone();
    group.bench_function("aos_cellwise", |b| {
        b.iter(|| phi_sweep_cellwise_aos(&params, &aos, &base.mu_src, &mut out, 0, 0.0, cfg.isa));
    });
    group.finish();
}

/// Σ 1/√x over `xs`, four values per vector: exact for `newton == None`,
/// else Lomont's estimate refined by that many Newton steps.
struct RsqrtSum<'a> {
    xs: &'a [f64],
    newton: Option<u32>,
}

impl IsaGeneric for RsqrtSum<'_> {
    type Output = [f64; 4];

    #[inline(always)]
    fn run<V: SimdF64x4>(self) -> [f64; 4] {
        let mut acc = V::zero();
        for x in self.xs.chunks_exact(4) {
            let x = V::load(x, 0);
            acc += match self.newton {
                None => x.rsqrt(),
                Some(iters) => x.rsqrt_fast(iters),
            };
        }
        acc.to_array()
    }
}

/// Fast inverse square root (Lomont [20]) vs exact.
fn rsqrt_variants(c: &mut Criterion) {
    println!("rsqrt: SIMD backend {}", SimdIsa::Auto.resolved_name());
    let mut group = c.benchmark_group("rsqrt");
    let xs: Vec<f64> = (0..4096).map(|i| 0.001 + i as f64 * 0.37).collect();
    for (name, newton) in [
        ("exact".to_string(), None),
        ("lomont_2_newton".to_string(), Some(2)),
        ("lomont_4_newton".to_string(), Some(4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| dispatch(true, RsqrtSum { xs: &xs, newton }));
        });
    }
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(4));
    targets = flag_ablations, split_mu_overhead, anti_trapping_cost, phi_layout, rsqrt_variants
}
criterion_main!(ablations);
