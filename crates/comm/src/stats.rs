//! Per-rank traffic and wait counters, and their universe-wide aggregate.

use std::time::Duration;

use eutectica_telemetry::Histogram;

/// Cumulative per-rank communication statistics (drives the Fig. 8 analysis).
///
/// Totals only: which field a ghost message belongs to is known to the
/// exchange plan that sent it, not to the transport. These counters see
/// every message on the wire, so they are where fault-injected drops and
/// duplicates show.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Total bytes passed to `send`/`isend`.
    pub bytes_sent: u64,
    /// Number of point-to-point messages sent.
    pub messages_sent: u64,
    /// Total bytes pulled off the wire by this rank.
    pub bytes_received: u64,
    /// Number of point-to-point messages received.
    pub messages_received: u64,
    /// Wall time spent blocked inside `recv`/`wait`.
    pub recv_wait_time: Duration,
    /// Log2-bucket histogram of per-receive wait latency in nanoseconds
    /// (bucket 0 counts receives satisfied from the pending store).
    pub recv_wait_hist: Histogram,
    /// Receives aborted by failure detection (peer death, timeout, or
    /// universe shutdown) instead of completing.
    pub aborted_receives: u64,
    /// Sends whose destination rank had already terminated (the message is
    /// lost, as with MPI to a failed process).
    pub sends_to_dead: u64,
    /// Stale messages purged by a membership round: sent under a previous
    /// epoch (or by a now-dead rank) and fenced out instead of delivered.
    pub fenced_messages: u64,
}

impl CommStats {
    /// Accumulate another rank's statistics into this one (for
    /// Universe-level totals).
    pub(crate) fn merge(&mut self, other: &CommStats) {
        self.bytes_sent += other.bytes_sent;
        self.messages_sent += other.messages_sent;
        self.bytes_received += other.bytes_received;
        self.messages_received += other.messages_received;
        self.recv_wait_time += other.recv_wait_time;
        self.recv_wait_hist.merge(&other.recv_wait_hist);
        self.aborted_receives += other.aborted_receives;
        self.sends_to_dead += other.sends_to_dead;
        self.fenced_messages += other.fenced_messages;
    }
}

/// Per-rank and aggregated communication statistics for a whole
/// [`Universe::run_with_stats`](crate::Universe::run_with_stats) execution.
#[derive(Clone, Debug, Default)]
pub struct CommSummary {
    /// Final statistics of each rank, in rank order.
    pub per_rank: Vec<CommStats>,
    /// Element-wise sum over all ranks.
    pub total: CommStats,
}

impl CommSummary {
    /// Build the aggregate from per-rank snapshots.
    pub(crate) fn from_per_rank(per_rank: Vec<CommStats>) -> Self {
        let mut total = CommStats::default();
        for s in &per_rank {
            total.merge(s);
        }
        Self { per_rank, total }
    }

    /// Human-readable table: one line per rank plus the totals line.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<8} {:>14} {:>10} {:>14} {:>10} {:>14}\n",
            "rank", "sent B", "sent #", "recv B", "recv #", "recv wait s"
        );
        let line = |name: &str, s: &CommStats| {
            format!(
                "{:<8} {:>14} {:>10} {:>14} {:>10} {:>14.6}\n",
                name,
                s.bytes_sent,
                s.messages_sent,
                s.bytes_received,
                s.messages_received,
                s.recv_wait_time.as_secs_f64()
            )
        };
        for (r, s) in self.per_rank.iter().enumerate() {
            out.push_str(&line(&r.to_string(), s));
        }
        out.push_str(&line("total", &self.total));
        out
    }
}
