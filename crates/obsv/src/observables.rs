//! In-situ physics observables computed from the *running* distributed
//! state, without checkpointing.
//!
//! At a configurable step cadence the observer reduces, across all ranks:
//! front position / RMS roughness / velocity, per-phase fractions, a
//! cross-section lamella census with a lamellar-spacing estimate,
//! interface-area density, and the undercooling at the front. The result
//! is a typed [`ObservableRecord`], written as NDJSON to an optional
//! metrics file and published to an optional [`FrameBus`] (the live
//! endpoint) on rank 0.
//!
//! ## Inertness
//!
//! Observation only *reads* `phi_src`/`mu_src` and only *communicates*
//! via fresh collectives (`Rank::gather`/`Rank::broadcast` and the
//! slice gathers) executed in identical order on every rank at the same
//! step — it never writes simulation state and never reorders the sweep's
//! own messages, so fields are bit-identical with the plane on or off
//! (enforced by `tests/live_observability.rs`).
//!
//! ## Front position from integrated solid content
//!
//! Per-column front height maps ([`eutectica_analysis::front`]) are not
//! additive across a z-decomposed domain, so the distributed reducer uses
//! the integrated solid content per column, Σ_z (1 − φ_ℓ), which is: the
//! two agree for a sharp front, and the content sum is exact under any
//! block decomposition and under moving-window shifts (block origins
//! carry the lab-frame offset).

use std::io::Write as _;
use std::sync::Arc;

use eutectica_analysis::ccl::label_3d;
use eutectica_comm::{bytes_to_f64s, f64s_to_bytes, Rank};
use eutectica_core::params::ModelParams;
use eutectica_core::solver::Simulation;
use eutectica_core::state::BlockState;
use eutectica_core::timeloop::DistributedSim;
use eutectica_core::{LIQ, N_PHASES};
use eutectica_telemetry::{JsonObject, Telemetry};

use crate::bus::FrameBus;
#[cfg(test)]
use crate::json::{parse_frame, JsonError, Value};
use crate::slices::{gather_slice, SliceField};

/// Number of solid phases (census targets).
const N_SOLID: usize = 3;

/// Fields streamed as slice frames with every observation.
const SLICE_FIELDS: [SliceField; 2] = [SliceField::Phi(0), SliceField::Mu(0)];

/// Downsampling stride of streamed slice frames.
const SLICE_DOWNSAMPLE: usize = 2;

/// The census cross-section sits this many cells below the mean front.
const LAMELLA_OFFSET: f64 = 4.0;

/// How often to observe. Each observation publishes one observable frame,
/// one slice frame per entry of `SLICE_FIELDS` and one telemetry
/// `metrics` frame.
#[derive(Clone, Debug)]
pub struct ObservablesConfig {
    /// Observation cadence in time-loop steps (0 disables everything).
    pub every: usize,
}

impl ObservablesConfig {
    /// Config observing every `every` steps.
    pub fn with_every(every: usize) -> Self {
        Self { every }
    }
}

/// One cadenced in-situ observation (global, lab-frame quantities).
#[derive(Clone, Debug, PartialEq)]
pub struct ObservableRecord {
    /// Time-loop step.
    pub step: usize,
    /// Simulation time.
    pub time: f64,
    /// Mean front position in lab-frame cells (window shifts included).
    pub front_mean: f64,
    /// RMS front roughness in cells.
    pub front_rms: f64,
    /// Mean front velocity in cells/time since the previous observation
    /// (0 on the first).
    pub front_velocity: f64,
    /// Global solid fraction.
    pub solid_fraction: f64,
    /// Global per-phase volume fractions (order: solid phases, liquid).
    pub phase_fractions: [f64; N_PHASES],
    /// Lamellae per solid phase in the census cross-section.
    pub lamella_count: [u64; N_SOLID],
    /// Lamellar-spacing estimate per solid phase: √(cross-section area /
    /// count) in cells; 0 where the phase has no lamellae.
    pub lamellar_spacing: [f64; N_SOLID],
    /// Lab-frame z of the census cross-section.
    pub census_z: usize,
    /// Undercooling ΔT = T_eu − T(front, t) at the mean front position.
    pub undercooling: f64,
    /// Diffuse-interface area density ∫|∇φ_α| dV / V over solid phases.
    pub interface_density: f64,
    /// Moving-window shifts so far.
    pub window_shifts: usize,
}

impl ObservableRecord {
    /// NDJSON wire form: `{"type":"observable",...}`.
    pub(crate) fn to_json(&self) -> String {
        let arr_f = |v: &[f64]| {
            let items: Vec<String> = v
                .iter()
                .map(|x| format!("{}", if x.is_finite() { *x } else { 0.0 }))
                .collect();
            format!("[{}]", items.join(","))
        };
        let arr_u = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(","))
        };
        JsonObject::new()
            .str_field("type", "observable")
            .int_field("step", self.step as u64)
            .num_field("time", self.time)
            .num_field("front_mean", self.front_mean)
            .num_field("front_rms", self.front_rms)
            .num_field("front_velocity", self.front_velocity)
            .num_field("solid_fraction", self.solid_fraction)
            .raw_field("phase_fractions", &arr_f(&self.phase_fractions))
            .raw_field("lamella_count", &arr_u(&self.lamella_count))
            .raw_field("lamellar_spacing", &arr_f(&self.lamellar_spacing))
            .int_field("census_z", self.census_z as u64)
            .num_field("undercooling", self.undercooling)
            .num_field("interface_density", self.interface_density)
            .int_field("window_shifts", self.window_shifts as u64)
            .finish()
    }

    /// Parse a wire frame back into a record (the smoke client / tests).
    #[cfg(test)]
    pub(crate) fn from_json(line: &str) -> Result<Self, JsonError> {
        let v = parse_frame(line, "observable")?;
        let mut phase_fractions = [0.0; N_PHASES];
        fill(&mut phase_fractions, &v, "phase_fractions", Value::as_f64)?;
        let mut lamella_count = [0u64; N_SOLID];
        fill(&mut lamella_count, &v, "lamella_count", Value::as_u64)?;
        let mut lamellar_spacing = [0.0; N_SOLID];
        fill(&mut lamellar_spacing, &v, "lamellar_spacing", Value::as_f64)?;
        Ok(Self {
            step: v.req_u64("step")? as usize,
            time: v.req_num("time")?,
            front_mean: v.req_num("front_mean")?,
            front_rms: v.req_num("front_rms")?,
            front_velocity: v.req_num("front_velocity")?,
            solid_fraction: v.req_num("solid_fraction")?,
            phase_fractions,
            lamella_count,
            lamellar_spacing,
            census_z: v.req_u64("census_z")? as usize,
            undercooling: v.req_num("undercooling")?,
            interface_density: v.req_num("interface_density")?,
            window_shifts: v.req_u64("window_shifts")? as usize,
        })
    }
}

/// Decode the leading elements of the required array member `field` into
/// `out` (a shorter array leaves the rest of `out` as it is); an element
/// `as_kind` rejects is [`JsonError::BadValue`].
#[cfg(test)]
fn fill<T>(
    out: &mut [T],
    v: &Value,
    field: &'static str,
    as_kind: fn(&Value) -> Option<T>,
) -> Result<(), JsonError> {
    for (slot, x) in out.iter_mut().zip(v.req_arr(field)?) {
        *slot = as_kind(x).ok_or(JsonError::BadValue { field })?;
    }
    Ok(())
}

/// Rank-local partial sums, reduced to rank 0 in one gather.
struct Partials {
    /// Smallest block origin z (lab frame) — the domain bottom.
    min_origin_z: f64,
    /// Interior cells summed over local blocks.
    cells: f64,
    /// Σ φ_p over local interiors, per phase.
    phase_sums: [f64; N_PHASES],
    /// Σ |∇φ| over local interiors (density × volume).
    interface_total: f64,
    /// Integrated solid content Σ_z (1 − φ_ℓ) per global (x, y) column;
    /// full cross-section, zero where not locally owned.
    col_solid: Vec<f64>,
}

impl Partials {
    fn compute(blocks: &[BlockState], domain_cells: [usize; 3]) -> Self {
        let ncols = domain_cells[0] * domain_cells[1];
        let mut p = Self {
            min_origin_z: f64::INFINITY,
            cells: 0.0,
            phase_sums: [0.0; N_PHASES],
            interface_total: 0.0,
            col_solid: vec![0.0; ncols],
        };
        for b in blocks {
            let d = b.dims;
            let g = d.ghost;
            p.min_origin_z = p.min_origin_z.min(b.origin[2] as f64);
            p.cells += d.interior_volume() as f64;
            p.interface_total +=
                eutectica_analysis::front::interface_area_density(b) * d.interior_volume() as f64;
            for ph in 0..N_PHASES {
                let comp = b.phi_src.comp(ph);
                let mut s = 0.0;
                for z in g..g + d.nz {
                    for y in g..g + d.ny {
                        let row = d.idx(g, y, z);
                        s += comp[row..row + d.nx].iter().sum::<f64>();
                    }
                }
                p.phase_sums[ph] += s;
            }
            let liq = b.phi_src.comp(LIQ);
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let col = (b.origin[1] + y) * domain_cells[0] + b.origin[0] + x;
                    let mut s = 0.0;
                    for z in 0..d.nz {
                        s += 1.0 - liq[d.idx(x + g, y + g, z + g)];
                    }
                    p.col_solid[col] += s;
                }
            }
        }
        p
    }

    fn to_f64s(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(7 + self.col_solid.len());
        out.push(self.min_origin_z);
        out.push(self.cells);
        out.extend_from_slice(&self.phase_sums);
        out.push(self.interface_total);
        out.extend_from_slice(&self.col_solid);
        out
    }

    fn merge_f64s(&mut self, vals: &[f64]) {
        self.min_origin_z = self.min_origin_z.min(vals[0]);
        self.cells += vals[1];
        for (i, s) in self.phase_sums.iter_mut().enumerate() {
            *s += vals[2 + i];
        }
        self.interface_total += vals[2 + N_PHASES];
        let base = 3 + N_PHASES;
        for (c, v) in self.col_solid.iter_mut().zip(&vals[base..]) {
            *c += v;
        }
    }

    fn empty(domain_cells: [usize; 3]) -> Self {
        Self {
            min_origin_z: f64::INFINITY,
            cells: 0.0,
            phase_sums: [0.0; N_PHASES],
            interface_total: 0.0,
            col_solid: vec![0.0; domain_cells[0] * domain_cells[1]],
        }
    }
}

/// The in-situ observer: reduce, record, stream.
pub struct InSituObserver {
    cfg: ObservablesConfig,
    /// (time, lab-frame front) at the previous observation.
    prev_front: Option<(f64, f64)>,
    out: Option<std::io::BufWriter<std::fs::File>>,
    bus: Option<Arc<FrameBus>>,
    records: Vec<ObservableRecord>,
}

impl InSituObserver {
    /// Observer with the given config, no outputs attached.
    pub fn new(cfg: ObservablesConfig) -> Self {
        Self {
            cfg,
            prev_front: None,
            out: None,
            bus: None,
            records: Vec::new(),
        }
    }

    /// Write NDJSON records (and slice/metrics frames) to `path`.
    /// Only meaningful on rank 0 — other ranks never emit.
    pub fn with_output_path(mut self, path: &str) -> std::io::Result<Self> {
        self.out = Some(std::io::BufWriter::new(std::fs::File::create(path)?));
        Ok(self)
    }

    /// Publish frames to `bus` (the live endpoint's broadcast hub).
    pub fn with_bus(mut self, bus: Arc<FrameBus>) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Records accumulated on this rank (rank 0 only; empty elsewhere).
    pub fn records(&self) -> &[ObservableRecord] {
        &self.records
    }

    /// Whether step `step` is an observation step under this config.
    pub fn due(&self, step: usize) -> bool {
        self.cfg.every != 0 && step > 0 && step % self.cfg.every == 0
    }

    /// Observe a distributed simulation. **Collective**: every rank must
    /// call this at the same steps (drive it from the same step hook on
    /// all ranks). Cheap no-op on non-observation steps. Returns the new
    /// record on rank 0.
    pub fn observe_distributed(&mut self, sim: &DistributedSim) -> Option<ObservableRecord> {
        self.observe(&View {
            rank: Some(sim.comm_rank()),
            blocks: &sim.blocks,
            domain_cells: sim.decomp().spec.cells,
            params: &sim.params,
            step: sim.step_index(),
            time: sim.time(),
            window_shifts: sim.window_shifts(),
            telemetry: sim.telemetry(),
        })
    }

    /// Observe a single-process [`Simulation`] (the examples path). Same
    /// record, no communication.
    pub fn observe_single(&mut self, sim: &Simulation) -> Option<ObservableRecord> {
        let d = sim.state.dims;
        self.observe(&View {
            rank: None,
            blocks: std::slice::from_ref(&sim.state),
            domain_cells: [d.nx, d.ny, d.nz],
            params: &sim.params,
            step: sim.steps(),
            time: sim.time(),
            window_shifts: sim.window_shifts(),
            telemetry: sim.telemetry(),
        })
    }

    /// The one observe body: reduce, fix the census plane, census and
    /// stream slices, and (on rank 0) finalize and emit.
    fn observe(&mut self, v: &View) -> Option<ObservableRecord> {
        if !self.due(v.step) {
            return None;
        }
        let domain_cells = v.domain_cells;
        let local = Partials::compute(v.blocks, domain_cells);

        // 1. Reduce partials to rank 0.
        let reduced = match v.rank {
            None => Some(local),
            Some(rank) => rank
                .gather(0, f64s_to_bytes(&local.to_f64s()))
                .map(|pieces| {
                    let mut total = Partials::empty(domain_cells);
                    for piece in &pieces {
                        total.merge_f64s(&bytes_to_f64s(piece));
                    }
                    total
                }),
        };

        // 2. Rank 0 fixes the census plane; everyone learns it.
        let census_z = {
            let z = reduced.as_ref().map_or(0.0, |t| {
                let ncols = t.col_solid.len().max(1) as f64;
                let front = t.min_origin_z + t.col_solid.iter().sum::<f64>() / ncols;
                let lo = t.min_origin_z;
                let hi = t.min_origin_z + (domain_cells[2] - 1) as f64;
                (front - LAMELLA_OFFSET).clamp(lo, hi)
            });
            let z = match v.rank {
                None => z,
                Some(rank) => bytes_to_f64s(&rank.broadcast(0, f64s_to_bytes(&[z])))[0],
            };
            z.round() as usize
        };
        let slice = |field, ds| {
            gather_slice(
                v.rank,
                v.blocks,
                domain_cells,
                field,
                v.step,
                v.time,
                census_z,
                ds,
            )
        };

        // 3. Full-resolution census slices of the solid phases.
        let mut lamella_count = [0u64; N_SOLID];
        let mut lamellar_spacing = [0.0; N_SOLID];
        for (ph, (count, spacing)) in lamella_count
            .iter_mut()
            .zip(lamellar_spacing.iter_mut())
            .enumerate()
        {
            if let Some(frame) = slice(SliceField::Phi(ph), 1) {
                let mask: Vec<bool> = frame.data.iter().map(|&v| v > 0.5).collect();
                let labels = label_3d(&mask, [frame.w, frame.h, 1], [true, true, false]);
                *count = labels.count as u64;
                if labels.count > 0 {
                    *spacing = ((frame.w * frame.h) as f64 / labels.count as f64).sqrt();
                }
            }
        }

        // 4. Streamed slice frames.
        let slice_frames: Vec<_> = SLICE_FIELDS
            .into_iter()
            .filter_map(|field| slice(field, SLICE_DOWNSAMPLE))
            .collect();

        // 5. Rank 0 finalizes and emits; other ranks are done.
        let total = reduced?;
        let record = finalize(
            &total,
            v,
            census_z,
            lamella_count,
            lamellar_spacing,
            &mut self.prev_front,
        );
        self.emit(&record, &slice_frames, v.telemetry);
        self.records.push(record.clone());
        Some(record)
    }

    /// Write + publish one observation's frames and surface bus drop
    /// counters in telemetry.
    fn emit(
        &mut self,
        record: &ObservableRecord,
        slices: &[crate::slices::SliceFrame],
        tel: &Telemetry,
    ) {
        let mut frames: Vec<String> = Vec::with_capacity(slices.len() + 2);
        frames.push(record.to_json());
        for s in slices {
            frames.push(s.to_json());
        }
        frames.push(metrics_frame(tel, record.step, record.time));
        for f in &frames {
            if let Some(out) = &mut self.out {
                let _ = writeln!(out, "{f}");
            }
            if let Some(bus) = &self.bus {
                bus.publish(Arc::from(f.as_str()));
            }
        }
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
        tel.counter_add("obsv_frames", frames.len() as u64);
        if let Some(bus) = &self.bus {
            let stats = bus.stats();
            tel.gauge_set("obsv_bus_dropped", stats.dropped as f64);
            tel.gauge_set("obsv_bus_subscribers", stats.subscribers as f64);
        }
    }
}

/// Telemetry counters/gauges as one `{"type":"metrics"}` frame, read via
/// the torn-read-safe [`Telemetry::sample`] cut.
fn metrics_frame(tel: &Telemetry, step: usize, time: f64) -> String {
    let snap = tel.sample().metrics;
    let mut counters = JsonObject::new();
    for (k, v) in &snap.counters {
        counters = counters.int_field(k, *v);
    }
    let mut gauges = JsonObject::new();
    for (k, v) in &snap.gauges {
        gauges = gauges.num_field(k, *v);
    }
    JsonObject::new()
        .str_field("type", "metrics")
        .int_field("step", step as u64)
        .num_field("time", time)
        .raw_field("counters", &counters.finish())
        .raw_field("gauges", &gauges.finish())
        .finish()
}

/// What one observation reads: the blocks, the rank they live on (`None`
/// for a single-process `Simulation`, whose gathers and broadcast are
/// then identities) and the record's scalar context.
struct View<'a> {
    rank: Option<&'a Rank>,
    blocks: &'a [BlockState],
    domain_cells: [usize; 3],
    params: &'a ModelParams,
    step: usize,
    time: f64,
    window_shifts: usize,
    telemetry: &'a Telemetry,
}

/// Build the record from the reduced partials (rank 0).
fn finalize(
    total: &Partials,
    v: &View,
    census_z: usize,
    lamella_count: [u64; N_SOLID],
    lamellar_spacing: [f64; N_SOLID],
    prev_front: &mut Option<(f64, f64)>,
) -> ObservableRecord {
    let time = v.time;
    let ncols = total.col_solid.len().max(1) as f64;
    let mean_content = total.col_solid.iter().sum::<f64>() / ncols;
    let front_mean = total.min_origin_z + mean_content;
    let front_rms = (total
        .col_solid
        .iter()
        .map(|c| (c - mean_content) * (c - mean_content))
        .sum::<f64>()
        / ncols)
        .sqrt();
    let front_velocity = match prev_front {
        Some((t0, f0)) if time > *t0 => (front_mean - *f0) / (time - *t0),
        _ => 0.0,
    };
    *prev_front = Some((time, front_mean));

    let cells = total.cells.max(1.0);
    let mut phase_fractions = [0.0; N_PHASES];
    for (f, s) in phase_fractions.iter_mut().zip(&total.phase_sums) {
        *f = s / cells;
    }
    ObservableRecord {
        step: v.step,
        time,
        front_mean,
        front_rms,
        front_velocity,
        solid_fraction: 1.0 - phase_fractions[LIQ],
        phase_fractions,
        lamella_count,
        lamellar_spacing,
        census_z,
        undercooling: v.params.sys.t_eu - v.params.temperature(front_mean, time),
        interface_density: total.interface_total / cells,
        window_shifts: v.window_shifts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_round_trips() {
        let rec = ObservableRecord {
            step: 40,
            time: 3.2,
            front_mean: 12.5,
            front_rms: 0.75,
            front_velocity: 0.41,
            solid_fraction: 0.39,
            phase_fractions: [0.1, 0.14, 0.15, 0.61],
            lamella_count: [3, 2, 4],
            lamellar_spacing: [9.2, 11.3, 8.0],
            census_z: 8,
            undercooling: 0.021,
            interface_density: 0.33,
            window_shifts: 5,
        };
        let line = rec.to_json();
        let back = ObservableRecord::from_json(&line).unwrap();
        assert_eq!(back, rec);

        // An integer field holds a non-negative integral number, an array
        // its element type — nothing is coerced.
        let bad = |field| Err(JsonError::BadValue { field });
        for value in ["-3", "1.5", "\"40\""] {
            let poked = line.replace("\"step\":40", &format!("\"step\":{value}"));
            assert_ne!(poked, line);
            assert_eq!(ObservableRecord::from_json(&poked), bad("step"), "{value}");
        }
        let poked = line.replace("\"lamella_count\":[3,", "\"lamella_count\":[\"3\",");
        assert_ne!(poked, line);
        assert_eq!(ObservableRecord::from_json(&poked), bad("lamella_count"));
        assert_eq!(
            ObservableRecord::from_json(&line.replace("\"census_z\"", "\"z\"")),
            Err(JsonError::Missing { field: "census_z" })
        );
    }

    #[test]
    fn planar_front_observables_are_sane() {
        let params = ModelParams::ag_al_cu();
        let mut sim = Simulation::new(params, [12, 12, 24]).unwrap();
        sim.init_planar(0, 10); // solid AlFcc below z = 10
        let mut obs = InSituObserver::new(ObservablesConfig::with_every(1));
        // due() requires step > 0; fake one observation by stepping 0 times
        // is not possible, so drive via the partials directly.
        let d = sim.state.dims;
        let view = View {
            rank: None,
            blocks: std::slice::from_ref(&sim.state),
            domain_cells: [d.nx, d.ny, d.nz],
            params: &sim.params,
            step: 0,
            time: 0.0,
            window_shifts: 0,
            telemetry: sim.telemetry(),
        };
        let total = Partials::compute(view.blocks, view.domain_cells);
        let rec = finalize(
            &total,
            &view,
            6,
            [1, 0, 0],
            [12.0, 0.0, 0.0],
            &mut obs.prev_front,
        );
        // Sharp planar front at z = 10: integrated content == height.
        assert!(
            (rec.front_mean - 10.0).abs() < 0.5,
            "front {}",
            rec.front_mean
        );
        assert!(rec.front_rms < 1e-9);
        assert!((rec.solid_fraction - 10.0 / 24.0).abs() < 0.05);
        assert!((rec.phase_fractions[0] - rec.solid_fraction).abs() < 1e-9);
        assert!(rec.undercooling.is_finite());
    }

    #[test]
    fn cadence_gates_observation() {
        let obs = InSituObserver::new(ObservablesConfig::with_every(20));
        assert!(!obs.due(0));
        assert!(!obs.due(19));
        assert!(obs.due(20));
        assert!(obs.due(40));
        let off = InSituObserver::new(ObservablesConfig::with_every(0));
        assert!(!off.due(20));
    }
}
