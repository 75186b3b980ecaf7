//! Observability substrate for the eutectica solver stack.
//!
//! The design mirrors waLBerla's hierarchical timing pools (Bauer et al.,
//! SC'15): every rank builds a *timing tree* out of cheap RAII spans while
//! it runs, a *metrics registry* accumulates counters / gauges / log2-bucket
//! histograms next to it, and at the end of a run the per-rank trees are
//! *reduced* across ranks into a min/avg/max report. Three sinks turn the
//! collected data into artifacts:
//!
//! - a human-readable tree report ([`ReducedTree::report`]),
//! - JSON-lines per-step snapshots ([`StepRecord`]),
//! - Chrome trace-event JSON ([`write_chrome_trace`]) loadable in
//!   `chrome://tracing` / Perfetto.
//!
//! The crate is dependency-free; cross-rank reduction is closure-based
//! ([`reduce_with`]) so the communication layer can depend on telemetry
//! (for histograms in its statistics) without a cycle.
//!
//! # Threading model
//!
//! A [`Telemetry`] handle is `Send + Sync` and may be used concurrently
//! from any number of threads (the hybrid sweep pool opens spans on worker
//! threads while the rank thread times the enclosing phase). Internally the
//! state is *sharded per thread*: the first span or metric update from a
//! thread lazily creates that thread's shard (its own timing tree, metrics
//! registry, and trace buffer, each behind an uncontended mutex), so hot
//! paths never contend across threads. Shards are merged on every snapshot
//! call: tree nodes with equal paths accumulate, counters sum, histograms
//! merge, and for duplicate gauges the lowest lane (the rank thread that
//! created the handle) wins. Each shard gets its own Chrome-trace lane
//! (`tid = rank * LANE_STRIDE + lane`) so worker activity is visible as
//! separate timeline rows under the rank.
//!
//! # Cost model
//!
//! A [`Telemetry`] handle is an `Arc` and clones for pennies. A disabled
//! handle ([`Telemetry::disabled`]) makes [`Telemetry::span`] and every
//! metric update a branch-and-return — no clock read, no allocation, no
//! thread-local access — so instrumented code paths stay numerically and
//! (near) temporally identical to uninstrumented ones.

mod json;
mod metrics;
mod reduce;
mod trace;

pub use json::{escape, JsonObject};
pub use metrics::Histogram;
pub use reduce::{reduce_with, ReducedTree};
pub use trace::{epoch, lane_tid, write_chrome_trace, write_jsonl, StepRecord};

use metrics::MetricsSnapshot;
use trace::TraceEvent;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// Lock that shrugs off poisoning: a panicking worker thread (caught and
/// re-raised by the sweep pool) must not wedge the whole telemetry handle.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One node of the in-construction timing tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    cat: &'static str,
    children: Vec<usize>,
    total: Duration,
    count: u64,
}

/// Arena-backed timing tree plus the stack of currently open spans.
#[derive(Debug)]
struct TreeState {
    nodes: Vec<Node>,
    stack: Vec<usize>,
}

impl TreeState {
    fn new() -> Self {
        let root = Node {
            name: "",
            cat: "",
            children: Vec::new(),
            total: Duration::ZERO,
            count: 0,
        };
        Self {
            nodes: vec![root],
            stack: vec![0],
        }
    }

    /// Child of `parent` named `name`, created on first use.
    fn child(&mut self, parent: usize, name: &'static str, cat: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            cat,
            children: Vec::new(),
            total: Duration::ZERO,
            count: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Accumulate every node of `src` into `self`, matching by path.
    fn merge_from(&mut self, src: &TreeState) {
        fn rec(dst: &mut TreeState, dst_node: usize, src: &TreeState, src_node: usize) {
            for &c in &src.nodes[src_node].children {
                let (name, cat, total, count) = {
                    let sn = &src.nodes[c];
                    (sn.name, sn.cat, sn.total, sn.count)
                };
                let d = dst.child(dst_node, name, cat);
                dst.nodes[d].total += total;
                dst.nodes[d].count += count;
                rec(dst, d, src, c);
            }
        }
        rec(self, 0, src, 0);
    }
}

/// One thread's slice of a [`Telemetry`] handle's state.
struct Shard {
    /// Per-handle lane number: 0 for the thread that built the handle,
    /// then in order of first use.
    lane: u32,
    /// Chrome-trace lane id (`rank * LANE_STRIDE + lane`).
    tid: u32,
    state: Mutex<ShardState>,
}

struct ShardState {
    tree: TreeState,
    metrics: MetricsSnapshot,
    trace: Vec<TraceEvent>,
}

impl ShardState {
    fn new() -> Self {
        Self {
            tree: TreeState::new(),
            metrics: MetricsSnapshot::default(),
            trace: Vec::new(),
        }
    }
}

struct Inner {
    enabled: bool,
    rank: usize,
    trace_on: AtomicBool,
    next_lane: AtomicU32,
    /// Membership epoch stamped onto samples (see [`Telemetry::set_epoch`]).
    membership_epoch: AtomicU64,
    shards: Mutex<Vec<Arc<Shard>>>,
}

thread_local! {
    /// Cache mapping `Inner` allocations to this thread's shard. Keyed by
    /// a `Weak` so a dead entry still pins its `Inner` allocation's address
    /// (no ABA false hit after a handle is dropped); dead entries are
    /// pruned whenever a new shard is created.
    static SHARD_CACHE: RefCell<Vec<(Weak<Inner>, Arc<Shard>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Handle to one rank's telemetry state (timing tree + metrics registry +
/// optional trace buffer). Clones share the same state; keep one per rank.
/// Safe to share with worker threads — see the module docs' threading model.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Telemetry {
    /// An enabled collector for the given rank. Also pins the process-wide
    /// trace epoch so span timestamps from all rank threads share a
    /// timeline.
    pub fn new(rank: usize) -> Self {
        let _ = epoch();
        Self::build(rank, true)
    }

    /// A collector whose spans and metric updates are no-ops. Use this as
    /// the default so instrumentation costs nothing unless asked for.
    pub fn disabled() -> Self {
        Self::build(0, false)
    }

    fn build(rank: usize, enabled: bool) -> Self {
        let tel = Self {
            inner: Arc::new(Inner {
                enabled,
                rank,
                trace_on: AtomicBool::new(false),
                next_lane: AtomicU32::new(0),
                membership_epoch: AtomicU64::new(0),
                shards: Mutex::new(Vec::new()),
            }),
        };
        if tel.is_enabled() {
            // Claim lane 0 for the building thread (the rank thread), so
            // its gauges win merges and its trace lane sorts first.
            let _ = tel.shard();
        }
        tel
    }

    /// Whether this handle records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The calling thread's shard, created on first use.
    fn shard(&self) -> Arc<Shard> {
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let key = Arc::as_ptr(&self.inner);
            if let Some((_, s)) = cache.iter().find(|(w, _)| std::ptr::eq(w.as_ptr(), key)) {
                return s.clone();
            }
            cache.retain(|(w, _)| w.strong_count() > 0);
            let lane = self.inner.next_lane.fetch_add(1, Ordering::Relaxed);
            let shard = Arc::new(Shard {
                lane,
                tid: lane_tid(self.inner.rank, lane),
                state: Mutex::new(ShardState::new()),
            });
            lock(&self.inner.shards).push(shard.clone());
            cache.push((Arc::downgrade(&self.inner), shard.clone()));
            shard
        })
    }

    /// All shards, lowest lane first (merge order must be deterministic).
    fn shards_by_lane(&self) -> Vec<Arc<Shard>> {
        let mut shards = lock(&self.inner.shards).clone();
        shards.sort_by_key(|s| s.lane);
        shards
    }

    /// Set the membership epoch stamped onto every subsequent
    /// [`Telemetry::sample`]. A shrink-recovery driver bumps this right
    /// after a membership round installs a new epoch, so external samplers
    /// can attribute counters recorded between a failed collective and the
    /// recovery barrier to the correct rank set.
    pub fn set_epoch(&self, epoch: u64) {
        self.inner.membership_epoch.store(epoch, Ordering::SeqCst);
    }

    /// The membership epoch currently stamped onto samples.
    fn membership_epoch(&self) -> u64 {
        self.inner.membership_epoch.load(Ordering::SeqCst)
    }

    /// Start buffering per-span trace events for Chrome trace export.
    pub fn enable_trace(&self) {
        if self.is_enabled() {
            self.inner.trace_on.store(true, Ordering::Relaxed);
        }
    }

    /// Open a span nested under the innermost span open *on this thread*.
    /// Dropping the returned guard closes it and accrues its wall time into
    /// the calling thread's shard of the timing tree.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_cat(name, "default")
    }

    /// Like [`Telemetry::span`] with an explicit trace category
    /// (e.g. `"compute"`, `"comm"`).
    #[inline]
    pub fn span_cat(&self, name: &'static str, cat: &'static str) -> Span {
        if !self.is_enabled() {
            return Span { live: None };
        }
        let shard = self.shard();
        let node = {
            let mut st = lock(&shard.state);
            let parent = *st.tree.stack.last().expect("span stack never empty");
            let node = st.tree.child(parent, name, cat);
            st.tree.stack.push(node);
            node
        };
        Span {
            live: Some(SpanLive {
                inner: self.inner.clone(),
                shard,
                node,
                start: Instant::now(),
            }),
        }
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.is_enabled() && delta > 0 {
            let shard = self.shard();
            *lock(&shard.state)
                .metrics
                .counters
                .entry(name.to_string())
                .or_insert(0) += delta;
        }
    }

    /// Add several counter deltas under one shard-lock acquisition, so a
    /// concurrent [`Telemetry::sample`] sees either none or all of the
    /// batch — use this for counters with cross-key invariants (e.g.
    /// "bytes sent" and "messages sent" updated together).
    pub fn counters_add(&self, deltas: &[(&str, u64)]) {
        if !self.is_enabled() {
            return;
        }
        let shard = self.shard();
        let mut st = lock(&shard.state);
        for (name, delta) in deltas {
            if *delta > 0 {
                *st.metrics.counters.entry(name.to_string()).or_insert(0) += delta;
            }
        }
    }

    /// Set the named gauge to `value` (last write on this thread wins; on
    /// snapshot merge, the lowest lane that set the gauge wins).
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.is_enabled() {
            let shard = self.shard();
            lock(&shard.state)
                .metrics
                .gauges
                .insert(name.to_string(), value);
        }
    }

    /// A prefixed view of this collector: every metric name recorded
    /// through the returned [`Lane`] is namespaced as `<prefix>/<name>`.
    /// Used for per-entity metric lanes (e.g. `campaign/job/7/steps`) so
    /// co-resident workloads on one rank never collide on metric names.
    pub fn lane(&self, prefix: &str) -> Lane {
        Lane {
            tel: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Merge a whole externally built histogram into the named one.
    pub fn hist_merge(&self, name: &str, hist: &Histogram) {
        if self.is_enabled() {
            let shard = self.shard();
            lock(&shard.state)
                .metrics
                .histograms
                .entry(name.to_string())
                .or_default()
                .merge(hist);
        }
    }

    /// Copy of the accumulated metrics, merged across all thread shards:
    /// counters sum, histograms merge, duplicate gauges resolve to the
    /// lowest lane's value.
    ///
    /// Shards are visited one at a time, so writers that update *between*
    /// this call's per-shard locks can skew cross-shard invariants; an
    /// external sampler polling a live run should use
    /// [`Telemetry::sample`], which takes one consistent cut.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for shard in self.shards_by_lane() {
            merge_metrics_into(&mut out, &lock(&shard.state).metrics);
        }
        out
    }

    /// Flatten the timing tree into rows (depth-first, insertion order),
    /// merging all thread shards: nodes with equal paths accumulate, and
    /// sibling order follows the lowest lane that first recorded the path.
    pub fn tree_snapshot(&self) -> TimingTreeSnapshot {
        let mut merged = TreeState::new();
        for shard in self.shards_by_lane() {
            merged.merge_from(&lock(&shard.state).tree);
        }
        tree_rows(&merged)
    }

    /// One *consistent* cut of metrics and timing tree across every thread
    /// shard, for external samplers polling a live run (the observability
    /// plane's metrics frames).
    ///
    /// Unlike [`Telemetry::metrics_snapshot`] + [`Telemetry::tree_snapshot`]
    /// — which take per-shard locks one at a time, twice, and can tear
    /// cross-shard or tree-vs-metrics invariants when workers write
    /// mid-merge — this holds *all* shard locks simultaneously while
    /// merging. It also holds the shard registry until every listed shard
    /// is locked: a thread registering its first shard in between could
    /// otherwise write there, then on into a listed shard, and the cut
    /// would see the second write without the first. Locks are taken
    /// registry first, then in lane order; a writer takes the registry only
    /// while it holds no shard lock, and then at most its own shard lock,
    /// so no ordering deadlock is possible. Writers block for the duration
    /// of one merge (microseconds at live-export cadence).
    pub fn sample(&self) -> TelemetrySample {
        let registry = lock(&self.inner.shards);
        let mut shards = registry.clone();
        shards.sort_by_key(|s| s.lane);
        let guards: Vec<_> = shards.iter().map(|s| lock(&s.state)).collect();
        drop(registry);
        // Read the epoch while every shard lock is held: a recovery driver
        // bumps it before resuming metric writes, so a sample can never pair
        // post-recovery counters with the pre-recovery epoch.
        let epoch = self.membership_epoch();
        let mut metrics = MetricsSnapshot::default();
        let mut merged = TreeState::new();
        for st in &guards {
            merge_metrics_into(&mut metrics, &st.metrics);
            merged.merge_from(&st.tree);
        }
        TelemetrySample {
            epoch,
            metrics,
            tree: tree_rows(&merged),
        }
    }

    /// Total accrued time of the tree node at `path` ("a/b/c"), if present.
    pub fn node_secs(&self, path: &str) -> Option<f64> {
        self.tree_snapshot()
            .rows
            .iter()
            .find(|r| r.path == path)
            .map(|r| r.total_secs)
    }

    /// Take the buffered trace events from every thread shard (empties the
    /// buffers), lowest lane first.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for shard in self.shards_by_lane() {
            out.append(&mut lock(&shard.state).trace);
        }
        out
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("rank", &self.inner.rank)
            .finish()
    }
}

struct SpanLive {
    inner: Arc<Inner>,
    shard: Arc<Shard>,
    node: usize,
    start: Instant,
}

/// RAII guard returned by [`Telemetry::span`]; closes the span on drop.
/// Drop it on the thread that opened it — the span stack is per-thread.
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
pub struct Span {
    live: Option<SpanLive>,
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let elapsed = live.start.elapsed();
        let mut st = lock(&live.shard.state);
        debug_assert_eq!(
            st.tree.stack.last(),
            Some(&live.node),
            "spans closed out of order"
        );
        st.tree.stack.pop();
        st.tree.nodes[live.node].total += elapsed;
        st.tree.nodes[live.node].count += 1;
        if live.inner.trace_on.load(Ordering::Relaxed) {
            let ep = epoch();
            let (name, cat) = {
                let n = &st.tree.nodes[live.node];
                (n.name.to_string(), n.cat.to_string())
            };
            st.trace.push(TraceEvent {
                name,
                cat,
                ts_us: live.start.saturating_duration_since(ep).as_secs_f64() * 1e6,
                dur_us: elapsed.as_secs_f64() * 1e6,
                tid: live.shard.tid,
            });
        }
    }
}

/// A name-prefixed view of a [`Telemetry`] collector (see
/// [`Telemetry::lane`]). Cheap to create per entity; shares the parent's
/// shards, so lane metrics appear in the parent's snapshots under their
/// prefixed names.
#[derive(Clone)]
pub struct Lane {
    tel: Telemetry,
    prefix: String,
}

impl Lane {
    /// The full metric name this lane records `name` under.
    fn scoped(&self, name: &str) -> String {
        format!("{}/{}", self.prefix, name)
    }

    /// [`Telemetry::counter_add`] under this lane's prefix.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.tel.counter_add(&self.scoped(name), delta);
    }

    /// [`Telemetry::gauge_set`] under this lane's prefix.
    #[cfg(test)]
    fn gauge_set(&self, name: &str, value: f64) {
        self.tel.gauge_set(&self.scoped(name), value);
    }
}

/// Open a span for the rest of the enclosing scope:
/// `span!(tel, "phi_sweep")` or `span!(tel, "pack", "comm")`.
#[macro_export]
macro_rules! span {
    ($tel:expr, $name:expr) => {
        let _span_guard = $tel.span($name);
    };
    ($tel:expr, $name:expr, $cat:expr) => {
        let _span_guard = $tel.span_cat($name, $cat);
    };
}

/// One consistent cut of a [`Telemetry`] handle's state — see
/// [`Telemetry::sample`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySample {
    /// Membership epoch in effect when the sample was cut (0 until a
    /// shrink recovery installs a later one via [`Telemetry::set_epoch`]).
    pub epoch: u64,
    /// Merged counters / gauges / histograms.
    pub metrics: MetricsSnapshot,
    /// Merged timing tree.
    pub tree: TimingTreeSnapshot,
}

/// Merge one shard's metrics into an accumulating snapshot: counters sum,
/// histograms merge, first (lowest-lane) gauge wins.
fn merge_metrics_into(out: &mut MetricsSnapshot, src: &MetricsSnapshot) {
    for (k, v) in &src.counters {
        *out.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, v) in &src.gauges {
        out.gauges.entry(k.clone()).or_insert(*v);
    }
    for (k, h) in &src.histograms {
        out.histograms.entry(k.clone()).or_default().merge(h);
    }
}

/// Flatten a merged tree into depth-first rows.
fn tree_rows(merged: &TreeState) -> TimingTreeSnapshot {
    fn walk(st: &TreeState, node: usize, prefix: &str, depth: usize, rows: &mut Vec<TimingRow>) {
        for &c in &st.nodes[node].children {
            let n = &st.nodes[c];
            let path = if prefix.is_empty() {
                n.name.to_string()
            } else {
                format!("{prefix}/{}", n.name)
            };
            rows.push(TimingRow {
                path: path.clone(),
                depth,
                cat: n.cat.to_string(),
                total_secs: n.total.as_secs_f64(),
                count: n.count,
            });
            walk(st, c, &path, depth + 1, rows);
        }
    }
    let mut rows = Vec::new();
    walk(merged, 0, "", 0, &mut rows);
    TimingTreeSnapshot { rows }
}

/// One flattened timing-tree node.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingRow {
    /// Slash-joined path from the root, e.g. `"step/phi_sweep"`.
    pub path: String,
    /// Nesting depth (root children are 0).
    pub depth: usize,
    /// Trace category of the node.
    pub cat: String,
    /// Total accrued wall time in seconds.
    pub total_secs: f64,
    /// Number of times the span was closed.
    pub count: u64,
}

/// Depth-first flattening of one rank's timing tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimingTreeSnapshot {
    /// Rows in depth-first order, parents before children.
    pub rows: Vec<TimingRow>,
}

impl TimingTreeSnapshot {
    /// Compact wire form for cross-rank gathers (exact f64 round-trip).
    fn serialize(&self) -> Vec<u8> {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "{}\x1f{}\x1f{}\x1f{:016x}\x1f{}\n",
                r.depth,
                r.path,
                r.cat,
                r.total_secs.to_bits(),
                r.count
            ));
        }
        out.into_bytes()
    }

    /// Inverse of [`TimingTreeSnapshot::serialize`].
    fn deserialize(bytes: &[u8]) -> Self {
        let text = String::from_utf8_lossy(bytes);
        let rows = text
            .lines()
            .filter_map(|line| {
                let mut it = line.split('\x1f');
                Some(TimingRow {
                    depth: it.next()?.parse().ok()?,
                    path: it.next()?.to_string(),
                    cat: it.next()?.to_string(),
                    total_secs: f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?),
                    count: it.next()?.parse().ok()?,
                })
            })
            .collect();
        Self { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_prefix_metric_names() {
        let tel = Telemetry::new(0);
        let lane = tel.lane("campaign/job/3");
        lane.counter_add("steps", 5);
        lane.counter_add("steps", 2);
        lane.gauge_set("progress", 0.5);
        let m = tel.metrics_snapshot();
        assert_eq!(m.counters.get("campaign/job/3/steps"), Some(&7));
        assert_eq!(m.gauges.get("campaign/job/3/progress"), Some(&0.5));
        assert_eq!(lane.scoped("rollbacks"), "campaign/job/3/rollbacks");
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let tel = Telemetry::new(0);
        for _ in 0..3 {
            let _outer = tel.span("step");
            {
                span!(tel, "phi_sweep", "compute");
                std::hint::black_box(0u64);
            }
            span!(tel, "mu_sweep", "compute");
        }
        let snap = tel.tree_snapshot();
        let paths: Vec<&str> = snap.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["step", "step/phi_sweep", "step/mu_sweep"]);
        assert!(snap.rows.iter().all(|r| r.count == 3));
        // Children are nested: parent total covers child totals.
        assert!(snap.rows[0].total_secs >= snap.rows[1].total_secs + snap.rows[2].total_secs);
    }

    #[test]
    fn snapshot_serialization_round_trips_exactly() {
        let tel = Telemetry::new(2);
        {
            let _a = tel.span("a");
            span!(tel, "b");
        }
        let snap = tel.tree_snapshot();
        assert_eq!(TimingTreeSnapshot::deserialize(&snap.serialize()), snap);
    }

    #[test]
    fn disabled_spans_are_cheap() {
        // The acceptance bar for the compile-out/disable path: a disabled
        // span must cost a branch, not a syscall. 1M spans in well under a
        // second leaves two orders of magnitude of slack even on a loaded
        // CI box (the real cost is single-digit ns per span).
        let tel = Telemetry::disabled();
        let n = 1_000_000u64;
        let start = Instant::now();
        for i in 0..n {
            let _g = tel.span("hot");
            tel.counter_add("c", std::hint::black_box(i) & 1);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "1M disabled spans took {elapsed:?}"
        );
        assert!(tel.tree_snapshot().rows.is_empty());
        assert!(tel.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn metrics_registry_accumulates() {
        let tel = Telemetry::new(0);
        tel.counter_add("bytes", 10);
        tel.counter_add("bytes", 5);
        tel.gauge_set("mlups", 1.5);
        tel.gauge_set("mlups", 2.5);
        let mut waits = Histogram::default();
        for ns in [0, 1, 1000] {
            waits.record(ns);
        }
        tel.hist_merge("wait_ns", &waits);
        let m = tel.metrics_snapshot();
        assert_eq!(m.counters["bytes"], 15);
        assert_eq!(m.gauges["mlups"], 2.5);
        let h = &m.histograms["wait_ns"];
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1001);
    }

    #[test]
    fn spans_and_metrics_from_worker_threads_merge() {
        let tel = Telemetry::new(3);
        tel.enable_trace();
        tel.counter_add("cells", 10);
        {
            let _outer = tel.span("step");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let t = tel.clone();
                        let _g = t.span_cat("phi_slab", "compute");
                        t.counter_add("cells", 7);
                        let mut slab = Histogram::default();
                        slab.record(42);
                        t.hist_merge("slab_ns", &slab);
                    });
                }
            });
        }
        // Counters sum across threads; worker tree nodes appear as their
        // own root-level paths with accumulated counts.
        let m = tel.metrics_snapshot();
        assert_eq!(m.counters["cells"], 24);
        assert_eq!(m.histograms["slab_ns"].count(), 2);
        let snap = tel.tree_snapshot();
        let slab = snap.rows.iter().find(|r| r.path == "phi_slab").unwrap();
        assert_eq!(slab.count, 2);
        assert!(snap.rows.iter().any(|r| r.path == "step"));
        // Each worker got its own trace lane; the rank thread is lane 0.
        let trace = tel.take_trace();
        let mut tids: Vec<u32> = trace.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert!(tids.contains(&lane_tid(3, 0)), "rank-thread lane missing");
        assert_eq!(
            tids.iter().filter(|&&t| t != lane_tid(3, 0)).count(),
            2,
            "expected one extra lane per worker thread: {tids:?}"
        );
    }

    #[test]
    fn gauge_merge_prefers_the_building_thread() {
        let tel = Telemetry::new(0);
        tel.gauge_set("mlups", 1.0);
        std::thread::scope(|s| {
            s.spawn(|| tel.gauge_set("mlups", 99.0));
        });
        assert_eq!(tel.metrics_snapshot().gauges["mlups"], 1.0);
    }

    #[test]
    fn telemetry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }

    #[test]
    fn sample_matches_individual_snapshots_when_quiescent() {
        let tel = Telemetry::new(0);
        tel.counter_add("cells", 7);
        tel.gauge_set("mlups", 3.5);
        {
            let _s = tel.span("step");
        }
        let s = tel.sample();
        assert_eq!(s.metrics, tel.metrics_snapshot());
        assert_eq!(s.tree, tel.tree_snapshot());
        assert_eq!(s.metrics.counters["cells"], 7);
        assert_eq!(s.tree.rows[0].path, "step");
    }

    /// Two writer threads bump counters in *different shards* in strict
    /// alternation (ping then pong), so at every instant
    /// `ping - pong ∈ {0, 1}`. A sampler using the all-locks-at-once cut
    /// must never observe anything else; the one-shard-at-a-time
    /// `metrics_snapshot` can (that is the torn read this guards against).
    #[test]
    fn sample_sees_a_consistent_cross_shard_cut() {
        use std::sync::atomic::AtomicU64;

        let tel = Telemetry::new(0);
        let turn = AtomicU64::new(0);
        let rounds: u64 = 500;
        fn wait(turn: &AtomicU64, want: u64) {
            while turn.load(Ordering::Acquire) != want {
                std::thread::yield_now();
            }
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..rounds {
                    wait(&turn, 2 * i);
                    tel.counter_add("ping", 1);
                    turn.store(2 * i + 1, Ordering::Release);
                }
            });
            s.spawn(|| {
                for i in 0..rounds {
                    wait(&turn, 2 * i + 1);
                    tel.counter_add("pong", 1);
                    turn.store(2 * i + 2, Ordering::Release);
                }
            });
            let mut observed = 0u64;
            while turn.load(Ordering::Acquire) < 2 * rounds {
                let m = tel.sample().metrics;
                let ping = m.counters.get("ping").copied().unwrap_or(0);
                let pong = m.counters.get("pong").copied().unwrap_or(0);
                assert!(
                    ping == pong || ping == pong + 1,
                    "torn cross-shard read: ping {ping} pong {pong}"
                );
                observed += 1;
            }
            assert!(observed > 0);
        });
        let m = tel.sample().metrics;
        assert_eq!(m.counters["ping"], rounds);
        assert_eq!(m.counters["pong"], rounds);
    }

    /// A ping/pong across a simulated shrink recovery: the writer bumps the
    /// membership epoch *before* recording any post-recovery counter, so a
    /// sample whose counters include post-recovery pongs must carry the new
    /// epoch — counters can never be attributed to the pre-recovery epoch.
    #[test]
    fn samples_tag_counters_with_the_membership_epoch_across_recovery() {
        use std::sync::atomic::AtomicU64;

        let tel = Telemetry::new(0);
        assert_eq!(tel.sample().epoch, 0, "samples start at epoch 0");
        let turn = AtomicU64::new(0);
        let rounds: u64 = 200;
        fn wait(turn: &AtomicU64, want: u64) {
            while turn.load(Ordering::Acquire) != want {
                std::thread::yield_now();
            }
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..rounds {
                    wait(&turn, 2 * i);
                    tel.counter_add("ping", 1);
                    turn.store(2 * i + 1, Ordering::Release);
                }
            });
            s.spawn(|| {
                for i in 0..rounds {
                    wait(&turn, 2 * i + 1);
                    // Simulated recovery boundary: install the epoch first,
                    // then record the first post-recovery counter.
                    tel.set_epoch(i + 1);
                    tel.counter_add("pong", 1);
                    turn.store(2 * i + 2, Ordering::Release);
                }
            });
            while turn.load(Ordering::Acquire) < 2 * rounds {
                let s = tel.sample();
                let pong = s.metrics.counters.get("pong").copied().unwrap_or(0);
                assert!(
                    s.epoch >= pong,
                    "sample holds {pong} post-recovery pongs but is tagged epoch {}",
                    s.epoch
                );
            }
        });
        let s = tel.sample();
        assert_eq!(s.epoch, rounds);
        assert_eq!(s.metrics.counters["pong"], rounds);
    }

    /// `counters_add` batches updates under one lock: a sampler never sees
    /// half the batch, even within a single shard.
    #[test]
    fn batched_counters_are_atomic_under_sampling() {
        let tel = Telemetry::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..2_000 {
                    tel.counters_add(&[("msgs", 1), ("bytes", 1)]);
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let m = tel.sample().metrics;
                let a = m.counters.get("msgs").copied().unwrap_or(0);
                let b = m.counters.get("bytes").copied().unwrap_or(0);
                assert_eq!(a, b, "sampler saw half a counters_add batch");
            }
        });
        assert_eq!(tel.sample().metrics.counters["msgs"], 2_000);
    }
}
