//! Heap allocations of the steady-state ghost exchange, counted by a
//! `#[global_allocator]` (hence a test binary of its own).
//!
//! `refresh_src_ghosts` runs every sequenced phase of the φ and µ exchange
//! plus boundary handling and a barrier — no sweeps, whose scratch slabs
//! would drown the signal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eutectica_blockgrid::decomp::{Decomposition, DomainSpec};
use eutectica_blockgrid::ghost;
use eutectica_blockgrid::Face;
use eutectica_comm::Universe;
use eutectica_core::init::{init_directional_block, VoronoiSeeds};
use eutectica_core::kernels::KernelConfig;
use eutectica_core::params::ModelParams;
use eutectica_core::timeloop::{DistributedSim, OverlapOptions};
use eutectica_core::N_COMP;
use eutectica_telemetry::Telemetry;

/// Allocations at least this large are face payloads in these tests: the
/// smallest message of a 16³ block (a µ x-face) is this size, and the only
/// other allocation of a steady-state exchange, the channel's 31-message
/// block, stays near 1 kB.
const PAYLOAD_BYTES: usize = 4096;

thread_local! {
    /// (all allocations, allocations of at least `PAYLOAD_BYTES`) made by
    /// this thread. Rank threads count separately.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn note(size: usize) {
    // Unavailable while a thread is torn down; those are not measured.
    let _ = ALLOCS.try_with(|a| {
        let (all, big) = a.get();
        a.set((all + 1, big + (size >= PAYLOAD_BYTES) as u64));
    });
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell` without destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above; `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> (u64, u64) {
    ALLOCS.with(Cell::get)
}

/// One rank's simulation on `blocks` 16³ blocks, initialised and refreshed
/// twice so every lazily grown structure has reached its steady size.
fn warmed_up(rank: &eutectica_comm::Rank, blocks: [usize; 3]) -> DistributedSim<'_> {
    let cells = blocks.map(|b| 16 * b);
    let params = ModelParams::ag_al_cu();
    let mut sim = DistributedSim::new(
        rank,
        params.clone(),
        Decomposition::new(DomainSpec::directional(cells, blocks)),
        KernelConfig::default(),
        OverlapOptions::default(),
    );
    sim.set_telemetry(Telemetry::disabled());
    let seeds = VoronoiSeeds::generate([cells[0], cells[1]], 4, params.sys.eutectic_fractions(), 3);
    sim.init_blocks(|b| init_directional_block(b, &seeds, 4));
    sim.refresh_src_ghosts();
    sim
}

const ROUNDS: u64 = 5;

/// Same-rank faces — two-field copies in x and z, in-field copies for the
/// blocks that are their own y neighbor — touch the heap not at all.
#[test]
fn local_faces_allocate_nothing() {
    Universe::run(1, |rank| {
        let mut sim = warmed_up(&rank, [2, 1, 2]);
        let before = allocs();
        for _ in 0..ROUNDS {
            sim.refresh_src_ghosts();
        }
        assert_eq!(allocs(), before, "(all, payload-sized) allocations");
    });
}

/// Remote faces cost one payload buffer per message sent and none per
/// message received. (Each send also allocates the `Bytes` handle's
/// fixed-size shared node, which is far below `PAYLOAD_BYTES`.)
#[test]
fn remote_faces_allocate_one_buffer_per_message() {
    Universe::run(2, |rank| {
        // Rank r owns the z-column of blocks at x = r: z faces are
        // same-rank copies, y faces in-field copies, x faces messages.
        let mut sim = warmed_up(&rank, [2, 1, 2]);
        // µ carries the fewest components, so its faces are the smallest.
        let smallest = Face::ALL
            .iter()
            .map(|&f| ghost::message_bytes(sim.blocks[0].dims, f, N_COMP))
            .min()
            .unwrap();
        assert!(smallest as usize >= PAYLOAD_BYTES, "threshold above a face");

        let sent_before = rank.stats().messages_sent;
        let received_before = rank.stats().messages_received;
        let (_, payloads_before) = allocs();
        for _ in 0..ROUNDS {
            sim.refresh_src_ghosts();
        }
        let (_, payloads) = allocs();
        let sent = rank.stats().messages_sent - sent_before;
        let received = rank.stats().messages_received - received_before;
        // Two blocks × two remote x faces, all to one peer: one frame each
        // for φ and µ, both ways.
        assert_eq!(sent, 2 * ROUNDS);
        assert_eq!(received, 2 * ROUNDS);
        assert_eq!(payloads - payloads_before, sent, "payload buffers");
    });
}
