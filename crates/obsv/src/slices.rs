//! Downsampled 2-D field slices for live streaming.
//!
//! A slice is one x–y cross-section of φ (one phase) or µ (one component)
//! at a fixed global z, downsampled by an integer stride. Each rank
//! extracts the cells it owns, the pieces are gathered to rank 0 and
//! assembled into a full-domain frame small enough to push over the live
//! endpoint every few steps (a 512² plane at stride 4 is 16 k values).
//!
//! Extraction reads `phi_src`/`mu_src` only — it never writes to the
//! simulation state, which is half of the observability plane's inertness
//! guarantee (the other half being collective-order discipline, see
//! [`crate::observables`]).

use eutectica_comm::{bytes_to_f64s, f64s_to_bytes, Rank};
use eutectica_core::state::BlockState;
use eutectica_telemetry::JsonObject;

/// Which field a slice samples.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum SliceField {
    /// Order parameter of one phase (0..N_PHASES).
    Phi(usize),
    /// Chemical potential of one component (0..N_COMP).
    Mu(usize),
}

impl SliceField {
    /// Wire name, e.g. `"phi0"` / `"mu1"`.
    pub(crate) fn name(self) -> String {
        match self {
            SliceField::Phi(p) => format!("phi{p}"),
            SliceField::Mu(c) => format!("mu{c}"),
        }
    }

    fn sample(self, b: &BlockState, x: usize, y: usize, z: usize) -> f64 {
        match self {
            SliceField::Phi(p) => b.phi_src.at(p, x, y, z),
            SliceField::Mu(c) => b.mu_src.at(c, x, y, z),
        }
    }
}

/// One assembled cross-section, ready for the wire.
#[derive(Clone, Debug)]
pub(crate) struct SliceFrame {
    /// Field sampled.
    pub field: SliceField,
    /// Time-loop step the slice was taken at.
    pub step: usize,
    /// Simulation time.
    pub time: f64,
    /// Global z of the cross-section (window coordinates).
    pub z: usize,
    /// Downsampling stride in x and y.
    pub downsample: usize,
    /// Downsampled width (x extent).
    pub w: usize,
    /// Downsampled height (y extent).
    pub h: usize,
    /// Row-major values, x fastest; `w * h` entries.
    pub data: Vec<f64>,
}

impl SliceFrame {
    /// NDJSON wire form: `{"type":"slice","field":...,"data":[...]}`.
    pub(crate) fn to_json(&self) -> String {
        let mut data = String::with_capacity(self.data.len() * 8 + 2);
        data.push('[');
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                data.push(',');
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            // 5 significant digits keeps frames small; this is a viz
            // stream, not a checkpoint.
            data.push_str(&format!("{v:.5}"));
        }
        data.push(']');
        JsonObject::new()
            .str_field("type", "slice")
            .str_field("field", &self.field.name())
            .int_field("step", self.step as u64)
            .num_field("time", self.time)
            .int_field("z", self.z as u64)
            .int_field("downsample", self.downsample as u64)
            .int_field("w", self.w as u64)
            .int_field("h", self.h as u64)
            .raw_field("data", &data)
            .finish()
    }
}

/// Downsampled extent of `n` cells at stride `ds`.
fn ds_extent(n: usize, ds: usize) -> usize {
    n.div_ceil(ds)
}

/// Extract the locally owned downsampled cells of the cross-section as
/// `(flat_index, value)` pairs in the `w × h` downsampled grid.
fn extract_local(
    blocks: &[BlockState],
    domain_cells: [usize; 3],
    field: SliceField,
    z: usize,
    ds: usize,
) -> Vec<(u32, f64)> {
    let w = ds_extent(domain_cells[0], ds);
    let mut out = Vec::new();
    for b in blocks {
        let g = b.dims.ghost;
        let [ox, oy, oz] = b.origin;
        if z < oz || z >= oz + b.dims.nz {
            continue;
        }
        let lz = z - oz + g;
        for gy in (0..domain_cells[1]).step_by(ds) {
            if gy < oy || gy >= oy + b.dims.ny {
                continue;
            }
            for gx in (0..domain_cells[0]).step_by(ds) {
                if gx < ox || gx >= ox + b.dims.nx {
                    continue;
                }
                let v = field.sample(b, gx - ox + g, gy - oy + g, lz);
                let idx = (gy / ds) * w + gx / ds;
                out.push((idx as u32, v));
            }
        }
    }
    out
}

/// Gather one cross-section to rank 0.
///
/// With a rank this is a collective: every rank must call it with
/// identical `(field, z, ds)` arguments (it performs one `gather`), and it
/// returns `Some(frame)` on rank 0, `None` elsewhere. Without one (a
/// single-process simulation) the local blocks are the whole domain.
/// Cells nobody owns (impossible for a valid decomposition) would remain 0.
#[allow(clippy::too_many_arguments)] // a collective: all call sites pass the full tuple
pub(crate) fn gather_slice(
    rank: Option<&Rank>,
    blocks: &[BlockState],
    domain_cells: [usize; 3],
    field: SliceField,
    step: usize,
    time: f64,
    z: usize,
    ds: usize,
) -> Option<SliceFrame> {
    assert!(ds >= 1, "downsample stride must be >= 1");
    let local = extract_local(blocks, domain_cells, field, z, ds);
    // Rank 0 receives every rank's (idx, value) pairs as f64s — indices up
    // to 2^32 are exact. Without a rank the local pairs are all there is.
    let pieces = match rank {
        None => None,
        Some(rank) => {
            let mut flat = Vec::with_capacity(local.len() * 2);
            for &(idx, v) in &local {
                flat.extend([idx as f64, v]);
            }
            Some(rank.gather(0, f64s_to_bytes(&flat))?)
        }
    };
    let w = ds_extent(domain_cells[0], ds);
    let h = ds_extent(domain_cells[1], ds);
    let mut data = vec![0.0f64; w * h];
    match pieces {
        None => {
            for (idx, v) in local {
                data[idx as usize] = v;
            }
        }
        Some(pieces) => {
            for piece in pieces {
                for pair in bytes_to_f64s(&piece).chunks_exact(2) {
                    let idx = pair[0] as usize;
                    if idx < data.len() {
                        data[idx] = pair[1];
                    }
                }
            }
        }
    }
    Some(SliceFrame {
        field,
        step,
        time,
        z,
        downsample: ds,
        w,
        h,
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eutectica_blockgrid::GridDims;

    fn block_with_gradient(origin: [usize; 3], n: usize) -> BlockState {
        let mut b = BlockState::new(GridDims::cube(n), origin);
        let g = b.dims.ghost;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let v = (origin[0] + x) as f64 + 10.0 * (origin[1] + y) as f64;
                    b.phi_src.comp_mut(0)[b.dims.idx(x + g, y + g, z + g)] = v;
                }
            }
        }
        b
    }

    #[test]
    fn extracts_downsampled_cells_in_global_coords() {
        let blocks = vec![
            block_with_gradient([0, 0, 0], 4),
            block_with_gradient([4, 0, 0], 4),
        ];
        let cells = [8, 4, 4];
        let pairs = extract_local(&blocks, cells, SliceField::Phi(0), 2, 2);
        // Stride 2 over 8×4 → 4×2 grid, all owned locally.
        assert_eq!(pairs.len(), 8);
        let w = ds_extent(cells[0], 2);
        for (idx, v) in pairs {
            let gx = (idx as usize % w) * 2;
            let gy = (idx as usize / w) * 2;
            assert_eq!(v, gx as f64 + 10.0 * gy as f64);
        }
    }

    #[test]
    fn slice_json_round_trips() {
        let frame = SliceFrame {
            field: SliceField::Mu(1),
            step: 40,
            time: 3.2,
            z: 12,
            downsample: 2,
            w: 2,
            h: 2,
            data: vec![0.5, -0.25, f64::NAN, 1.0],
        };
        let v = crate::json::parse(&frame.to_json()).unwrap();
        assert_eq!(v.str("type"), Some("slice"));
        assert_eq!(v.str("field"), Some("mu1"));
        assert_eq!(v.get("z").unwrap().as_u64(), Some(12));
        let data = v.get("data").unwrap().as_arr().unwrap();
        assert_eq!(data.len(), 4);
        assert_eq!(data[1].as_f64(), Some(-0.25));
        assert_eq!(data[2].as_f64(), Some(0.0)); // non-finite scrubbed
    }
}
