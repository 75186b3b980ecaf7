//! Bench-side spans: one record per call the driver makes into the program
//! (setup, each `step()`, each checkpoint write, each observation, restore,
//! finalisation). Kept in memory, written at exit. A disabled tracer takes
//! no timestamps, so the untraced run pays nothing for it.

use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder of one thread (one rank). All tracers of a run share the
/// `epoch`, so their spans line up on one time axis.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rank: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, rank: usize) -> Self {
        Self {
            enabled,
            epoch,
            rank,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Pair with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            rank: self.rank,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenate per-rank span lists, re-basing the parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Durations in seconds of every span called `name` on `rank`.
pub fn durations(spans: &[Span], name: &str, rank: usize) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.rank == rank)
        .map(Span::secs)
        .collect()
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Write the spans of one traced run as JSON.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (i, (s, own)) in spans.iter().zip(&own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"rank\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent}}}{sep}",
            s.name, s.rank, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
