//! Field allocations of every path that builds or rebuilds a block, counted
//! by a `#[global_allocator]` (hence a test binary of its own).
//!
//! A block keeps four fields: φ and µ, each as a src/dst pair. Building one
//! (construction + initial condition), decoding one from a checkpoint file
//! or a migration frame, and restoring a job from its checkpoint set must
//! each allocate exactly those four buffers, and must never hold more field
//! bytes than it keeps: no field is allocated to be overwritten or thrown
//! away. Copying src into dst reuses dst's buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eutectica_blockgrid::codec::{self, DEFAULT_FIELD_BYTE_BUDGET};
use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::rebalance::CostEntry;
use eutectica_blockgrid::GridDims;
use eutectica_comm::Universe;
use eutectica_core::init::{init_directional_block, init_planar_front, VoronoiSeeds};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::migrate;
use eutectica_core::params::ModelParams;
use eutectica_core::solver::Simulation;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_core::{N_COMP, N_PHASES};
use eutectica_pfio::ckpt::{self, Precision, DEFAULT_BYTE_BUDGET};
use eutectica_pfio::resilient::SimCheckpointExt;
use eutectica_telemetry::Telemetry;

/// Interior cells of every block in these tests.
const CELLS: [usize; 3] = [16, 12, 20];
/// Cells of such a block, one ghost layer included.
const VOLUME: usize = (CELLS[0] + 2) * (CELLS[1] + 2) * (CELLS[2] + 2);
/// Bytes of a φ field and of a µ field. No other allocation of the paths
/// measured here has either size.
const PHI_BYTES: usize = N_PHASES * VOLUME * 8;
const MU_BYTES: usize = N_COMP * VOLUME * 8;
/// Bytes of the four fields one block keeps.
const BLOCK_BYTES: u64 = 2 * (PHI_BYTES + MU_BYTES) as u64;

fn dims() -> GridDims {
    let d = GridDims::new(CELLS[0], CELLS[1], CELLS[2], 1);
    assert_eq!(d.volume(), VOLUME);
    d
}

/// What this thread's allocator calls did to field-sized buffers.
#[derive(Clone, Copy, Default)]
struct Fields {
    /// Field-sized allocations made.
    allocs: u64,
    /// Field-sized bytes alive now.
    live: u64,
    /// Most field-sized bytes alive at once.
    peak: u64,
    /// Allocations of at least a µ field's size, field-sized or not.
    large: u64,
    /// Bytes of those.
    large_bytes: u64,
}

thread_local! {
    static FIELDS: Cell<Fields> = const {
        Cell::new(Fields { allocs: 0, live: 0, peak: 0, large: 0, large_bytes: 0 })
    };
}

fn is_field(size: usize) -> bool {
    size == PHI_BYTES || size == MU_BYTES
}

fn note_alloc(size: usize) {
    if size < MU_BYTES {
        return;
    }
    // Unavailable while a thread is torn down; those are not measured.
    let _ = FIELDS.try_with(|f| {
        let mut v = f.get();
        v.large += 1;
        v.large_bytes += size as u64;
        if is_field(size) {
            v.allocs += 1;
            v.live += size as u64;
            v.peak = v.peak.max(v.live);
        }
        f.set(v);
    });
}

fn note_dealloc(size: usize) {
    if !is_field(size) {
        return;
    }
    let _ = FIELDS.try_with(|f| {
        let mut v = f.get();
        v.live = v.live.saturating_sub(size as u64);
        f.set(v);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counters are a
// `const`-initialised thread-local `Cell` without destructor, so touching
// them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_dealloc(layout.size());
        note_alloc(new_size);
        // SAFETY: as above; `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with field-sized allocations counted; returns its result, the
/// field allocations it made and the most field bytes it held at once on
/// top of those alive before.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = FIELDS.with(|c| {
        let mut v = c.get();
        v.peak = v.live;
        c.set(v);
        v
    });
    let out = f();
    let after = FIELDS.with(Cell::get);
    (out, after.allocs - before.allocs, after.peak - before.live)
}

/// Run `f` and return its result with the allocations of at least a µ
/// field's size it made (field-sized or not) and their total bytes.
fn measured_large<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = FIELDS.with(Cell::get);
    let out = f();
    let after = FIELDS.with(Cell::get);
    (
        out,
        after.large - before.large,
        after.large_bytes - before.large_bytes,
    )
}

fn seeds() -> VoronoiSeeds {
    VoronoiSeeds::generate(
        [CELLS[0], CELLS[1]],
        4,
        ModelParams::ag_al_cu().sys.eutectic_fractions(),
        5,
    )
}

/// An initialised block with some of its dst differing from src, as a
/// block has it between steps.
fn evolved_block() -> BlockState {
    let mut b = BlockState::new(dims(), [0, 0, 3]);
    init_directional_block(&mut b, &seeds(), 9);
    b.phi_dst.set_cell(3, 4, 5, [0.25; N_PHASES]);
    b.mu_dst.set_cell(3, 4, 5, [0.5, -0.5]);
    b
}

fn same_fields(a: &BlockState, b: &BlockState) -> bool {
    a.dims == b.dims
        && a.origin == b.origin
        && a.phi_src.raw() == b.phi_src.raw()
        && a.phi_dst.raw() == b.phi_dst.raw()
        && a.mu_src.raw() == b.mu_src.raw()
        && a.mu_dst.raw() == b.mu_dst.raw()
}

#[test]
fn build_and_init_allocate_each_field_once() {
    let ((), allocs, peak) = measured(|| {
        let mut sim = Simulation::new(ModelParams::ag_al_cu(), CELLS).unwrap();
        sim.init_directional(7);
        std::hint::black_box(&sim);
    });
    assert_eq!(
        (allocs, peak),
        (4, BLOCK_BYTES),
        "Simulation + Voronoi init"
    );

    let ((), allocs, peak) = measured(|| {
        let mut b = BlockState::new(dims(), [0, 0, 0]);
        init_planar_front(&mut b, 1, 6);
        std::hint::black_box(&b);
    });
    assert_eq!((allocs, peak), (4, BLOCK_BYTES), "block + planar init");
}

#[test]
fn distributed_build_allocates_four_fields_per_block() {
    Universe::run(1, |rank| {
        let cells = [CELLS[0], CELLS[1], 2 * CELLS[2]];
        let params = ModelParams::ag_al_cu();
        let ((), allocs, peak) = measured(|| {
            let mut sim = DistributedSim::new(
                &rank,
                params.clone(),
                Decomposition::new(DomainSpec::directional(cells, [1, 1, 2])),
                KernelConfig::default(),
                OverlapOptions::default(),
            );
            sim.set_telemetry(Telemetry::disabled());
            sim.init_blocks(|b| init_directional_block(b, &seeds(), 9));
            std::hint::black_box(&sim);
        });
        assert_eq!((allocs, peak), (8, 2 * BLOCK_BYTES), "two blocks");
    });
}

#[test]
fn syncing_dst_reuses_its_buffers() {
    let mut b = evolved_block();
    let ((), allocs, peak) = measured(|| b.sync_dst_from_src());
    assert_eq!((allocs, peak), (0, 0));
    assert_eq!(b.phi_dst.raw(), b.phi_src.raw());
    assert_eq!(b.mu_dst.raw(), b.mu_src.raw());
}

#[test]
fn checkpoint_decode_and_job_restore_allocate_each_field_once() {
    let b = evolved_block();
    for precision in [Precision::F32, Precision::F64] {
        let file = ckpt::encode_block(&b, 0, 1.5, precision);
        let (dec, allocs, peak) =
            measured(|| ckpt::decode_block(&file, DEFAULT_BYTE_BUDGET).unwrap());
        assert_eq!((allocs, peak), (4, BLOCK_BYTES), "{precision:?} decode");
        // The file holds the interior of src; ghosts are liquid, dst = src.
        let mut want = BlockState::new(dims(), b.origin);
        for (x, y, z) in dims().interior_iter() {
            let round = |v: f64| match precision {
                Precision::F32 => v as f32 as f64,
                Precision::F64 => v,
            };
            want.phi_src
                .set_cell(x, y, z, b.phi_src.cell(x, y, z).map(round));
            want.mu_src
                .set_cell(x, y, z, b.mu_src.cell(x, y, z).map(round));
        }
        want.sync_dst_from_src();
        assert!(same_fields(&dec.state, &want), "{precision:?} decode");
    }

    // A campaign job's rollback: the resident block is replaced by the
    // restored one, whose fields are the only ones allocated.
    let root = std::env::temp_dir().join(format!("eut_field_allocs_{}", std::process::id()));
    let mut job = Simulation::new(ModelParams::ag_al_cu(), CELLS).unwrap();
    job.state = b.clone();
    job.set_progress(2.0, 40, 1);
    job.write_checkpoint_set(&root, Precision::F64).unwrap();
    let dir = ckpt::find_latest_checkpoint(&root).unwrap().unwrap().1;
    let mut resident = Simulation::new(ModelParams::ag_al_cu(), CELLS).unwrap();
    let ((), allocs, peak) = measured(|| {
        resident
            .restore_from_set(&dir, DEFAULT_BYTE_BUDGET)
            .unwrap();
    });
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!((allocs, peak), (4, BLOCK_BYTES), "job restore");
    let restored = &resident.state;
    assert!(dims().interior_iter().all(|(x, y, z)| {
        restored.phi_src.cell(x, y, z) == b.phi_src.cell(x, y, z)
            && restored.mu_src.cell(x, y, z) == b.mu_src.cell(x, y, z)
    }));
}

#[test]
fn migration_decode_allocates_each_field_once() {
    let b = evolved_block();
    let entry = CostEntry {
        measured: Some(0.5),
        prior: 1.0,
    };
    let frame = migrate::encode_block(&b, 11, &entry);
    let (decoded, allocs, peak) =
        measured(|| migrate::decode_block(&frame, b.dims, DEFAULT_FIELD_BYTE_BUDGET).unwrap());
    assert_eq!((allocs, peak), (4, BLOCK_BYTES));
    let (id, st, _) = decoded;
    assert_eq!(id, 11);
    assert!(same_fields(&st, &b), "migration is bit-exact, dst included");
}

#[test]
fn migration_encode_allocates_one_frame() {
    let b = evolved_block();
    let entry = CostEntry {
        measured: None,
        prior: 2.0,
    };
    let (frame, large, bytes) = measured_large(|| migrate::encode_block(&b, 5, &entry));
    assert_eq!(
        (large, bytes),
        (1, frame.len() as u64),
        "one frame-sized buffer"
    );
    assert_eq!(frame.capacity(), frame.len());
    // The wire bytes: the block header, then each field's length and its
    // stand-alone codec encoding.
    let fields = [
        codec::encode_soa(&b.phi_src),
        codec::encode_soa(&b.phi_dst),
        codec::encode_soa(&b.mu_src),
        codec::encode_soa(&b.mu_dst),
    ];
    let body: usize = fields.iter().map(|f| 8 + f.len()).sum();
    let mut want = frame[..frame.len() - body].to_vec();
    for f in &fields {
        want.extend_from_slice(&(f.len() as u64).to_le_bytes());
        want.extend_from_slice(f);
    }
    assert_eq!(frame, want);
}
