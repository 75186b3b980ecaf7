//! Cross-rank reduction of timing trees into a min/avg/max report,
//! mirroring waLBerla's reduced timing pools. Reduction itself is a pure
//! function over gathered snapshots; the gather is injected as a closure so
//! this crate needs no dependency on the communication layer.

use crate::{TimingRow, TimingTreeSnapshot};

/// One node of the rank-reduced tree.
#[derive(Clone, Debug, PartialEq)]
pub struct ReducedRow {
    /// Slash-joined path from the root.
    pub path: String,
    /// Nesting depth.
    pub depth: usize,
    /// Number of ranks that reported this node.
    pub ranks: usize,
    /// Largest per-rank call count.
    pub count: u64,
    /// Minimum total seconds across reporting ranks.
    pub min_secs: f64,
    /// Mean total seconds across reporting ranks.
    pub avg_secs: f64,
    /// Maximum total seconds across reporting ranks.
    pub max_secs: f64,
}

/// Timing tree reduced across ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReducedTree {
    /// Number of ranks that contributed.
    pub n_ranks: usize,
    /// Rows in rank-0 depth-first order; nodes unknown to rank 0 are
    /// appended in sorted path order so the result is deterministic.
    pub rows: Vec<ReducedRow>,
}

/// Reduce already-gathered snapshots (deterministic in the rank order of
/// `snaps`; row order never depends on timing values).
pub(crate) fn reduce_snapshots(snaps: &[TimingTreeSnapshot]) -> ReducedTree {
    // Row order: rank 0's depth-first order first, then any paths only
    // other ranks saw, sorted.
    let mut order: Vec<&TimingRow> = Vec::new();
    let mut known: Vec<&str> = Vec::new();
    if let Some(first) = snaps.first() {
        for r in &first.rows {
            order.push(r);
            known.push(&r.path);
        }
    }
    let mut extra: Vec<&TimingRow> = snaps
        .iter()
        .skip(1)
        .flat_map(|s| s.rows.iter())
        .filter(|r| !known.contains(&r.path.as_str()))
        .collect();
    extra.sort_by(|a, b| a.path.cmp(&b.path));
    extra.dedup_by(|a, b| a.path == b.path);
    order.extend(extra);

    let rows = order
        .iter()
        .map(|proto| {
            let mut ranks = 0usize;
            let mut count = 0u64;
            let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for s in snaps {
                if let Some(r) = s.rows.iter().find(|r| r.path == proto.path) {
                    ranks += 1;
                    count = count.max(r.count);
                    min = min.min(r.total_secs);
                    max = max.max(r.total_secs);
                    sum += r.total_secs;
                }
            }
            ReducedRow {
                path: proto.path.clone(),
                depth: proto.depth,
                ranks,
                count,
                min_secs: min,
                avg_secs: sum / ranks.max(1) as f64,
                max_secs: max,
            }
        })
        .collect();
    ReducedTree {
        n_ranks: snaps.len(),
        rows,
    }
}

/// Gather-and-reduce: serialize this rank's snapshot, hand it to `gather`
/// (which returns `Some(all ranks' payloads)` on the root and `None`
/// elsewhere), and reduce on the root.
///
/// `gather` is typically `|b| rank.gather(0, …)` from the communication
/// layer; see `Rank::reduce_timing` there for the one-call wrapper.
pub fn reduce_with<F>(snap: &TimingTreeSnapshot, gather: F) -> Option<ReducedTree>
where
    F: FnOnce(Vec<u8>) -> Option<Vec<Vec<u8>>>,
{
    let gathered = gather(snap.serialize())?;
    let snaps: Vec<TimingTreeSnapshot> = gathered
        .iter()
        .map(|b| TimingTreeSnapshot::deserialize(b))
        .collect();
    Some(reduce_snapshots(&snaps))
}

impl ReducedTree {
    /// Human-readable table: one line per node, indented by depth, with
    /// call count and min/avg/max seconds across ranks.
    pub fn report(&self) -> String {
        let mut out = format!(
            "timing tree reduced over {} rank{} (seconds, min/avg/max across ranks)\n",
            self.n_ranks,
            if self.n_ranks == 1 { "" } else { "s" }
        );
        out.push_str(&format!(
            "{:<34} {:>8}  {:>12} {:>12} {:>12}\n",
            "node", "calls", "min", "avg", "max"
        ));
        for r in &self.rows {
            let leaf = r.path.rsplit('/').next().unwrap_or(&r.path);
            out.push_str(&format!(
                "{:indent$}{:<w$} {:>8}  {:>12.6} {:>12.6} {:>12.6}\n",
                "",
                leaf,
                r.count,
                r.min_secs,
                r.avg_secs,
                r.max_secs,
                indent = 2 * r.depth,
                w = 34usize.saturating_sub(2 * r.depth),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, depth: usize, secs: f64, count: u64) -> TimingRow {
        TimingRow {
            path: path.to_string(),
            depth,
            cat: "default".to_string(),
            total_secs: secs,
            count,
        }
    }

    #[test]
    fn reduce_computes_min_avg_max_in_rank0_order() {
        let r0 = TimingTreeSnapshot {
            rows: vec![row("step", 0, 2.0, 4), row("step/phi", 1, 1.0, 4)],
        };
        let r1 = TimingTreeSnapshot {
            rows: vec![
                row("step", 0, 4.0, 4),
                row("step/phi", 1, 3.0, 4),
                row("step/extra", 1, 0.5, 1),
            ],
        };
        let red = reduce_snapshots(&[r0, r1]);
        assert_eq!(red.n_ranks, 2);
        let paths: Vec<&str> = red.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["step", "step/phi", "step/extra"]);
        assert_eq!(red.rows[0].min_secs, 2.0);
        assert_eq!(red.rows[0].avg_secs, 3.0);
        assert_eq!(red.rows[0].max_secs, 4.0);
        assert_eq!(red.rows[2].ranks, 1);
        assert_eq!(red.rows[2].avg_secs, 0.5);
        // Report mentions every node and the rank count.
        let rep = red.report();
        assert!(rep.contains("2 ranks"));
        assert!(rep.contains("extra"));
    }

    #[test]
    fn reduce_with_passes_serialized_snapshot_through_gather() {
        let snap = TimingTreeSnapshot {
            rows: vec![row("a", 0, 1.25, 2)],
        };
        // Non-root: gather yields None.
        assert!(reduce_with(&snap, |_| None).is_none());
        // Root: identity gather of two copies.
        let red = reduce_with(&snap, |b| Some(vec![b.clone(), b])).unwrap();
        assert_eq!(red.rows.len(), 1);
        assert_eq!(red.rows[0].min_secs, 1.25);
        assert_eq!(red.rows[0].max_secs, 1.25);
    }
}
