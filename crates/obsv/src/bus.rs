//! Bounded-lag broadcast of observability frames.
//!
//! The simulation publishes frames (NDJSON lines) at its own rate; any
//! number of subscribers consume at theirs. The two rates are decoupled by
//! a bounded per-subscriber queue: [`FrameBus::publish`] *never blocks* —
//! when a subscriber's queue is full the frame is dropped for that
//! subscriber and its drop counter advances. A stalled, slow, or
//! disconnecting consumer therefore costs the time loop one `try_send`
//! per frame, nothing more (the inertness and step-budget guarantees of
//! the observability plane rest on this property).
//!
//! Frames are reference-counted (`Arc<str>`), so fan-out to N subscribers
//! clones a pointer, not the payload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shared counters of one subscriber, visible from both ends.
#[derive(Debug, Default)]
struct SubCounters {
    /// Frames enqueued for this subscriber.
    sent: AtomicU64,
    /// Frames dropped because the subscriber's queue was full.
    dropped: AtomicU64,
}

struct SubEntry {
    id: u64,
    tx: SyncSender<Arc<str>>,
    counters: Arc<SubCounters>,
}

/// Aggregate counters of a [`FrameBus`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Frames ever published (independent of subscriber count).
    pub published: u64,
    /// Sum of frames enqueued across all subscribers, ever.
    pub sent: u64,
    /// Sum of frames dropped across all subscribers, ever (bounded-lag
    /// back-pressure releases; disconnect purges are not counted here).
    pub dropped: u64,
    /// Currently connected subscribers.
    pub subscribers: usize,
}

/// Broadcast hub: one publisher side, N bounded-queue subscribers.
pub struct FrameBus {
    capacity: usize,
    subs: Mutex<Vec<SubEntry>>,
    next_id: AtomicU64,
    published: AtomicU64,
    sent: AtomicU64,
    dropped: AtomicU64,
}

impl FrameBus {
    /// New bus whose subscribers each buffer up to `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "subscriber queues need capacity >= 1");
        Self {
            capacity,
            subs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            published: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Attach a new subscriber; frames published from now on are delivered
    /// to (or dropped for) it until the `Subscription` is dropped.
    pub fn subscribe(self: &Arc<Self>) -> Subscription {
        let (tx, rx) = std::sync::mpsc::sync_channel(self.capacity);
        let counters = Arc::new(SubCounters::default());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subs.lock().unwrap().push(SubEntry {
            id,
            tx,
            counters: counters.clone(),
        });
        Subscription {
            bus: self.clone(),
            id,
            rx,
            counters,
        }
    }

    /// Broadcast one frame. Never blocks: full queues drop the frame (per
    /// subscriber), disconnected subscribers are removed. Returns the
    /// number of subscribers the frame was actually enqueued for.
    pub fn publish(&self, frame: Arc<str>) -> usize {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut subs = self.subs.lock().unwrap();
        let mut delivered = 0;
        subs.retain(|s| match s.tx.try_send(frame.clone()) {
            Ok(()) => {
                s.counters.sent.fetch_add(1, Ordering::Relaxed);
                self.sent.fetch_add(1, Ordering::Relaxed);
                delivered += 1;
                true
            }
            Err(TrySendError::Full(_)) => {
                s.counters.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        delivered
    }

    /// Aggregate counters (drop counts are exact: every publish either
    /// enqueues or increments `dropped`, per subscriber).
    pub fn stats(&self) -> BusStats {
        BusStats {
            published: self.published.load(Ordering::Relaxed),
            sent: self.sent.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            subscribers: self.subs.lock().unwrap().len(),
        }
    }

    fn unsubscribe(&self, id: u64) {
        self.subs.lock().unwrap().retain(|s| s.id != id);
    }
}

impl std::fmt::Debug for FrameBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameBus")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Consumer end of one bounded subscriber queue.
pub struct Subscription {
    bus: Arc<FrameBus>,
    id: u64,
    rx: Receiver<Arc<str>>,
    counters: Arc<SubCounters>,
}

impl Subscription {
    /// Next frame, waiting up to `timeout`. `None` on timeout; once the
    /// publisher side is gone and the queue drained, also `None`.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Arc<str>> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Next frame if one is already queued.
    pub fn try_recv(&self) -> Option<Arc<str>> {
        self.rx.try_recv().ok()
    }

    /// Frames enqueued for this subscriber so far.
    pub fn sent(&self) -> u64 {
        self.counters.sent.load(Ordering::Relaxed)
    }

    /// Frames dropped for this subscriber so far (publisher found the
    /// queue full).
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Eager removal keeps stats().subscribers honest even if nothing
        // is published after the disconnect.
        self.bus.unsubscribe(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_delivers_to_all() {
        let bus = Arc::new(FrameBus::new(8));
        let a = bus.subscribe();
        let b = bus.subscribe();
        assert_eq!(bus.publish(Arc::from("x")), 2);
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)).unwrap().as_ref(),
            "x"
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap().as_ref(),
            "x"
        );
    }

    #[test]
    fn full_queue_drops_exactly() {
        let bus = Arc::new(FrameBus::new(3));
        let sub = bus.subscribe();
        for i in 0..10 {
            bus.publish(Arc::from(format!("{i}").as_str()));
        }
        assert_eq!(sub.sent(), 3);
        assert_eq!(sub.dropped(), 7);
        let s = bus.stats();
        assert_eq!((s.published, s.sent, s.dropped), (10, 3, 7));
        // The three oldest frames survive (queue, not ring): 0, 1, 2.
        assert_eq!(sub.try_recv().unwrap().as_ref(), "0");
    }

    #[test]
    fn disconnect_removes_subscriber() {
        let bus = Arc::new(FrameBus::new(2));
        let sub = bus.subscribe();
        assert_eq!(bus.stats().subscribers, 1);
        drop(sub);
        assert_eq!(bus.stats().subscribers, 0);
        assert_eq!(bus.publish(Arc::from("x")), 0);
    }

    #[test]
    fn publish_never_blocks_on_stalled_subscriber() {
        let bus = Arc::new(FrameBus::new(1));
        let _stalled = bus.subscribe(); // never reads
        let t = std::time::Instant::now();
        for _ in 0..100_000 {
            bus.publish(Arc::from("frame"));
        }
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "publish must be wait-free against stalled consumers"
        );
        assert_eq!(bus.stats().dropped, 99_999);
    }
}
