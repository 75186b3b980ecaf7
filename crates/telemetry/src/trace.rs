//! Export sinks: Chrome trace-event JSON (one timeline lane per rank,
//! loadable in `chrome://tracing` or Perfetto) and per-step JSON-lines
//! records.

use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::JsonObject;
use crate::Histogram;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Trace lanes per rank: lane ids are `rank * LANE_STRIDE + thread_lane`,
/// so a rank and its sweep-pool workers group together and sort in order.
/// 256 intra-rank lanes is far beyond any plausible `--threads` value.
pub(crate) const LANE_STRIDE: u32 = 256;

/// Chrome-trace `tid` for a given rank and intra-rank thread lane
/// (lane 0 is the rank thread itself, 1.. are sweep-pool workers).
pub fn lane_tid(rank: usize, lane: u32) -> u32 {
    rank as u32 * LANE_STRIDE + lane
}

/// Process-wide trace epoch. First call pins it; all span timestamps are
/// expressed relative to this instant so rank threads share one timeline.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span, in Chrome trace-event terms.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Span name (event `name`).
    pub name: String,
    /// Category (event `cat`), e.g. `"compute"` or `"comm"`.
    pub cat: String,
    /// Start time in microseconds since [`epoch`].
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Lane id — see [`lane_tid`]: `rank * LANE_STRIDE + thread_lane`.
    pub tid: u32,
}

impl TraceEvent {
    /// Serialize as one complete (`"ph":"X"`) trace event object.
    pub(crate) fn to_json(&self) -> String {
        JsonObject::new()
            .str_field("name", &self.name)
            .str_field("cat", &self.cat)
            .str_field("ph", "X")
            .num_field("ts", self.ts_us)
            .num_field("dur", self.dur_us)
            .int_field("pid", 0)
            .int_field("tid", self.tid as u64)
            .finish()
    }
}

/// Write events from all ranks as a Chrome trace file
/// (`{"traceEvents":[…]}` object form). `events_per_rank[r]` holds rank
/// r's events; every distinct `tid` seen in the events gets a named lane
/// (`"rank R"` for the rank thread, `"rank R · worker L"` for sweep-pool
/// workers) sorted so a rank's workers sit directly under it.
pub fn write_chrome_trace(path: &Path, events_per_rank: &[Vec<TraceEvent>]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut tids: Vec<u32> = events_per_rank
        .iter()
        .flatten()
        .map(|e| e.tid)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    // Ranks without events still get an (empty) named lane.
    for rank in 0..events_per_rank.len() {
        let tid = lane_tid(rank, 0);
        if !tids.contains(&tid) {
            tids.push(tid);
        }
    }
    tids.sort_unstable();
    let mut first = true;
    let mut emit = |w: &mut io::BufWriter<std::fs::File>, line: &str| -> io::Result<()> {
        if !first {
            w.write_all(b",\n")?;
        }
        first = false;
        w.write_all(line.as_bytes())
    };
    for &tid in &tids {
        let (rank, lane) = (tid / LANE_STRIDE, tid % LANE_STRIDE);
        let lane_name = if lane == 0 {
            format!("rank {rank}")
        } else {
            format!("rank {rank} · worker {lane}")
        };
        let name_meta = JsonObject::new()
            .str_field("name", "thread_name")
            .str_field("ph", "M")
            .int_field("pid", 0)
            .int_field("tid", tid as u64)
            .raw_field(
                "args",
                &JsonObject::new().str_field("name", &lane_name).finish(),
            )
            .finish();
        let sort_meta = JsonObject::new()
            .str_field("name", "thread_sort_index")
            .str_field("ph", "M")
            .int_field("pid", 0)
            .int_field("tid", tid as u64)
            .raw_field(
                "args",
                &JsonObject::new()
                    .int_field("sort_index", tid as u64)
                    .finish(),
            )
            .finish();
        emit(&mut w, &name_meta)?;
        emit(&mut w, &sort_meta)?;
    }
    for events in events_per_rank {
        for e in events {
            emit(&mut w, &e.to_json())?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

/// One per-step observability record, serialized as a JSONL line.
///
/// Schema (all fields always present):
/// `rank`, `step` — integers; `wall_ms`, `mlups`, `compute_ms`,
/// `phi_comm_ms`, `mu_comm_ms`, `bc_ms`, `recv_wait_ms` — floats;
/// `cells_updated`, `ghost_bytes_sent`, `ghost_bytes_received`,
/// `window_shifts` — integers; `recv_wait_hist_ns` — array of
/// `[bucket_lower_edge_ns, count]` pairs for non-empty log2 buckets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepRecord {
    /// Rank that produced the record.
    pub rank: usize,
    /// Zero-based step index.
    pub step: usize,
    /// Wall time of the whole step in milliseconds.
    pub wall_ms: f64,
    /// Million lattice-cell updates per second for this step.
    pub mlups: f64,
    /// Interior cells updated this step (per sweep pair).
    pub cells_updated: u64,
    /// Time in kernel sweeps this step (ms).
    pub compute_ms: f64,
    /// Exposed φ communication time this step (ms).
    pub phi_comm_ms: f64,
    /// Exposed µ communication time this step (ms).
    pub mu_comm_ms: f64,
    /// Boundary-condition application time this step (ms).
    pub bc_ms: f64,
    /// Ghost bytes sent this step.
    pub ghost_bytes_sent: u64,
    /// Ghost bytes received this step.
    pub ghost_bytes_received: u64,
    /// Time spent blocked in receives this step (ms).
    pub recv_wait_ms: f64,
    /// Per-step recv-wait latency histogram (nanoseconds).
    pub recv_wait_hist: Histogram,
    /// Moving-window shifts applied this step.
    pub window_shifts: u64,
}

impl StepRecord {
    /// One JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self
            .recv_wait_hist
            .nonzero_buckets()
            .iter()
            .map(|(edge, count)| format!("[{edge},{count}]"))
            .collect();
        JsonObject::new()
            .int_field("rank", self.rank as u64)
            .int_field("step", self.step as u64)
            .num_field("wall_ms", self.wall_ms)
            .num_field("mlups", self.mlups)
            .int_field("cells_updated", self.cells_updated)
            .num_field("compute_ms", self.compute_ms)
            .num_field("phi_comm_ms", self.phi_comm_ms)
            .num_field("mu_comm_ms", self.mu_comm_ms)
            .num_field("bc_ms", self.bc_ms)
            .int_field("ghost_bytes_sent", self.ghost_bytes_sent)
            .int_field("ghost_bytes_received", self.ghost_bytes_received)
            .num_field("recv_wait_ms", self.recv_wait_ms)
            .raw_field("recv_wait_hist_ns", &format!("[{}]", hist.join(",")))
            .int_field("window_shifts", self.window_shifts)
            .finish()
    }
}

/// Write step records (typically from several ranks) as JSON lines.
pub fn write_jsonl(path: &Path, records: &[StepRecord]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        w.write_all(r.to_json().as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_file_is_wellformed() {
        let dir = std::env::temp_dir().join("eutectica_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let ev = |name: &str, cat: &str, ts: f64, tid: u32| TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ts_us: ts,
            dur_us: 5.0,
            tid,
        };
        write_chrome_trace(
            &path,
            &[
                vec![
                    ev("phi_sweep", "compute", 0.0, lane_tid(0, 0)),
                    ev("phi_slab", "compute", 0.5, lane_tid(0, 2)),
                ],
                vec![ev("phi_comm", "comm", 1.0, lane_tid(1, 0))],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"rank 1\""));
        // Worker shards show up as their own named lanes under the rank.
        assert!(text.contains("\"rank 0 · worker 2\""));
        // Balanced braces/brackets — crude but effective well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                text.matches(open).count(),
                text.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn step_record_serializes_all_fields() {
        let mut rec = StepRecord {
            rank: 1,
            step: 7,
            wall_ms: 2.5,
            mlups: 12.0,
            cells_updated: 4096,
            ..Default::default()
        };
        rec.recv_wait_hist.record(0);
        rec.recv_wait_hist.record(900);
        let line = rec.to_json();
        assert!(line.contains("\"rank\":1"));
        assert!(line.contains("\"step\":7"));
        assert!(line.contains("\"mlups\":12"));
        assert!(line.contains("\"recv_wait_hist_ns\":[[0,1],[512,1]]"));
        assert!(line.contains("\"window_shifts\":0"));
    }
}
