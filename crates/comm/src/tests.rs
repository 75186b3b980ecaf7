//! Unit tests of the crate, grouped by the module they exercise. They share
//! one `tests` module so each keeps its `tests::<name>` path.

use std::time::{Duration, Instant};

use super::*;
use crate::membership::MembershipChange;

// ----- wire tags and payload helpers -----

#[test]
fn campaign_tags_stay_inside_the_user_space() {
    assert!(campaign_tag(0) >= CAMPAIGN_TAG_BASE);
    assert!(campaign_tag(1_000_000) < MAX_USER_TAG);
    // Epoch stamping round-trips a campaign tag like any user tag.
    assert_eq!(user_tag(campaign_tag(7)), campaign_tag(7));
    // Campaign traffic routes by key over plain point-to-point sends.
    let got = Universe::run(2, |r| {
        if r.rank() == 1 {
            for job in [3u32, 1, 2] {
                r.send(0, campaign_tag(job), f64s_to_bytes(&[job as f64]));
            }
            0.0
        } else {
            // Receive in key order regardless of send order.
            (1u32..=3)
                .map(|job| bytes_to_f64s(&r.recv(1, campaign_tag(job)))[0])
                .sum()
        }
    });
    assert_eq!(got[0], 6.0);
}

#[test]
#[should_panic(expected = "overflows the user-tag space")]
fn campaign_tag_overflow_panics() {
    let _ = campaign_tag(MAX_USER_TAG - CAMPAIGN_TAG_BASE);
}

#[test]
fn f64_bytes_roundtrip() {
    let vals = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, std::f64::consts::PI];
    let b = f64s_to_bytes(&vals);
    assert_eq!(bytes_to_f64s(&b), vals);
}

// ----- point-to-point and collectives -----

#[test]
fn ring_exchange() {
    let got = Universe::run(5, |r| {
        let right = (r.rank() + 1) % r.size();
        let left = (r.rank() + r.size() - 1) % r.size();
        r.send(right, 1, f64s_to_bytes(&[r.rank() as f64 * 2.0]));
        bytes_to_f64s(&r.recv(left, 1))[0]
    });
    assert_eq!(got, vec![8.0, 0.0, 2.0, 4.0, 6.0]);
}

#[test]
fn out_of_order_matching_by_tag() {
    // Rank 0 sends two messages with different tags; rank 1 receives
    // them in the opposite order.
    let got = Universe::run(2, |r| {
        if r.rank() == 0 {
            r.send(1, 10, f64s_to_bytes(&[1.0]));
            r.send(1, 20, f64s_to_bytes(&[2.0]));
            0.0
        } else {
            let b = bytes_to_f64s(&r.recv(0, 20))[0];
            let a = bytes_to_f64s(&r.recv(0, 10))[0];
            10.0 * a + b
        }
    });
    assert_eq!(got[1], 12.0);
}

#[test]
fn fifo_within_same_src_tag() {
    let got = Universe::run(2, |r| {
        if r.rank() == 0 {
            for i in 0..10 {
                r.send(1, 5, f64s_to_bytes(&[i as f64]));
            }
            vec![]
        } else {
            (0..10).map(|_| bytes_to_f64s(&r.recv(0, 5))[0]).collect()
        }
    });
    assert_eq!(got[1], (0..10).map(|i| i as f64).collect::<Vec<_>>());
}

#[test]
fn self_send_works() {
    let got = Universe::run(1, |r| {
        r.send(0, 3, f64s_to_bytes(&[42.0]));
        bytes_to_f64s(&r.recv(0, 3))[0]
    });
    assert_eq!(got, vec![42.0]);
}

#[test]
fn irecv_wait_overlap_pattern() {
    // The Algorithm-2 pattern: post receives, send, compute, then wait.
    let got = Universe::run(3, |r| {
        let right = (r.rank() + 1) % r.size();
        let left = (r.rank() + r.size() - 1) % r.size();
        let req = r.irecv(left, 9);
        r.isend(right, 9, f64s_to_bytes(&[r.rank() as f64]));
        let local = 100.0 * r.rank() as f64; // "compute"
        let remote = bytes_to_f64s(&r.wait(req))[0];
        local + remote
    });
    assert_eq!(got, vec![2.0, 100.0, 201.0]);
}

#[test]
fn allreduce_ops() {
    for (op, expect) in [
        (ReduceOp::Sum, 0.0 + 1.0 + 2.0 + 3.0),
        (ReduceOp::Min, 0.0),
        (ReduceOp::Max, 3.0),
    ] {
        let got = Universe::run(4, move |r| r.allreduce_f64(r.rank() as f64, op));
        assert_eq!(got, vec![expect; 4], "{op:?}");
    }
}

#[test]
fn allreduce_u64s_sums_elementwise() {
    let got = Universe::run(4, |r| {
        let v = [r.rank() as u64, 10 * r.rank() as u64, 1];
        r.allreduce_u64s(&v)
    });
    assert_eq!(got, vec![vec![6, 60, 4]; 4]);
    // Empty vectors are a valid degenerate reduction.
    let got = Universe::run(3, |r| r.allreduce_u64s(&[]));
    assert_eq!(got, vec![Vec::<u64>::new(); 3]);
}

#[test]
fn gather_and_broadcast() {
    let got = Universe::run(4, |r| {
        let gathered = r.gather(2, f64s_to_bytes(&[r.rank() as f64]));
        if r.rank() == 2 {
            let v: Vec<f64> = gathered
                .unwrap()
                .iter()
                .map(|b| bytes_to_f64s(b)[0])
                .collect();
            assert_eq!(v, vec![0.0, 1.0, 2.0, 3.0]);
        } else {
            assert!(gathered.is_none());
        }
        let b = r.broadcast(1, f64s_to_bytes(&[7.5 * (r.rank() == 1) as u8 as f64]));
        bytes_to_f64s(&b)[0]
    });
    assert_eq!(got, vec![7.5; 4]);
}

#[test]
fn barrier_orders_phases() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PHASE1: AtomicUsize = AtomicUsize::new(0);
    let got = Universe::run(4, |r| {
        PHASE1.fetch_add(1, Ordering::SeqCst);
        r.barrier();
        PHASE1.load(Ordering::SeqCst)
    });
    assert_eq!(got, vec![4; 4]);
}

#[test]
fn timing_tree_reduces_across_ranks() {
    use eutectica_telemetry::Telemetry;
    let got = Universe::run(4, |r| {
        let tel = Telemetry::new(r.rank());
        {
            let _step = tel.span("step");
            let _inner = tel.span_cat("exchange", "comm");
        }
        let red = r.reduce_timing(&tel.tree_snapshot());
        assert_eq!(red.is_some(), r.rank() == 0);
        red.map(|t| {
            (
                t.n_ranks,
                t.rows
                    .iter()
                    .map(|row| row.path.clone())
                    .collect::<Vec<_>>(),
            )
        })
    });
    let (n, paths) = got[0].clone().unwrap();
    assert_eq!(n, 4);
    assert_eq!(paths, ["step", "step/exchange"]);
}

#[test]
fn dead_rank_is_detected_not_deadlocked() {
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(10));
    let out = Universe::run_surviving(3, cfg, |r| {
        if r.rank() == 1 {
            panic!("injected death");
        }
        // Ranks 0 and 2 wait on rank 1 — must error, not hang.
        catch_comm(|| r.recv(1, 5)).unwrap_err()
    });
    assert_eq!(out.dead.len(), 1);
    assert_eq!(out.dead[0].0, 1);
    assert!(out.dead[0].1.contains("injected death"));
}

#[test]
fn recv_times_out_with_error() {
    let cfg = UniverseCfg::with_timeout(Duration::from_millis(50));
    let out = Universe::run_surviving(2, cfg, |r| {
        if r.rank() == 0 {
            // Never sends.
            Ok(())
        } else {
            catch_comm(|| r.recv(0, 3)).map(|_| ())
        }
    });
    assert!(out.dead.is_empty());
    match &out.results[1] {
        Some(Err(CommError::Timeout { op, src, .. })) => {
            assert_eq!(*op, "recv");
            assert_eq!(*src, Some(0));
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn aborted_receives_are_counted() {
    let cfg = UniverseCfg::with_timeout(Duration::from_millis(40));
    let out = Universe::run_surviving(2, cfg, |r| {
        if r.rank() == 1 {
            let _ = catch_comm(|| r.recv(0, 1));
            r.stats().aborted_receives
        } else {
            0
        }
    });
    assert!(out.dead.is_empty());
    assert_eq!(out.results[1], Some(1));
}

#[test]
fn message_send_after_peer_death_is_lost_not_fatal() {
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(5));
    let out = Universe::run_surviving(2, cfg, |r| {
        if r.rank() == 0 {
            panic!("gone");
        }
        // Wait until rank 0 is reaped, then send into the void.
        while catch_comm(|| r.recv(0, 1)).is_ok() {}
        r.send(0, 2, f64s_to_bytes(&[1.0]));
        r.stats().sends_to_dead
    });
    assert_eq!(out.dead[0].0, 0);
}

// ----- traffic statistics -----

#[test]
fn stats_count_bytes_and_messages() {
    let got = Universe::run(2, |r| {
        if r.rank() == 0 {
            r.send(1, 1, f64s_to_bytes(&[1.0, 2.0, 3.0]));
            r.send(1, 2, f64s_to_bytes(&[4.0]));
        } else {
            let _ = r.recv(0, 1);
            let _ = r.recv(0, 2);
        }
        r.barrier();
        let s = r.stats();
        (
            s.bytes_sent,
            s.messages_sent,
            s.bytes_received,
            s.messages_received,
            s.recv_wait_hist.count(),
        )
    });
    assert_eq!(got[0], (32, 2, 0, 0, 0));
    // Every receive left a latency observation.
    assert_eq!(got[1], (0, 0, 32, 2, 2));
}

#[test]
fn universe_summary_aggregates_ranks() {
    let (_, summary) = Universe::run_with_stats(3, |r| {
        let right = (r.rank() + 1) % r.size();
        let left = (r.rank() + r.size() - 1) % r.size();
        r.send(right, 4, f64s_to_bytes(&[0.0; 4]));
        let _ = r.recv(left, 4);
    });
    assert_eq!(summary.per_rank.len(), 3);
    assert_eq!(summary.total.bytes_sent, 3 * 32);
    assert_eq!(summary.total.bytes_received, 3 * 32);
    assert_eq!(summary.total.messages_sent, 3);
    assert_eq!(summary.total.messages_received, 3);
    let rep = summary.report();
    assert!(rep.contains("total"));
    assert!(rep.lines().count() >= 5, "{rep}");
}

// ----- fault injection -----

#[test]
fn fault_plan_decisions_are_deterministic() {
    let plan = FaultPlan::new(42)
        .drop_messages(Some(7), 0.5)
        .duplicate_messages(None, 0.3)
        .corrupt_messages(Some(9), 0.2);
    for _ in 0..3 {
        let a: Vec<_> = (0..64)
            .map(|i| {
                let d = plan.decide(0, 1, 7, i);
                (d.drop, d.duplicate, d.corrupt)
            })
            .collect();
        let b: Vec<_> = (0..64)
            .map(|i| {
                let d = plan.decide(0, 1, 7, i);
                (d.drop, d.duplicate, d.corrupt)
            })
            .collect();
        assert_eq!(a, b);
    }
    // Roughly the configured rates over many samples.
    let drops = (0..10_000)
        .filter(|&i| plan.decide(0, 1, 7, i).drop)
        .count();
    assert!((3_500..6_500).contains(&drops), "drop rate off: {drops}");
}

#[test]
fn injected_kill_fires_at_step() {
    let plan = FaultPlan::new(1).kill(1, 3);
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(5)).with_faults(plan);
    let out = Universe::run_surviving(2, cfg, |r| {
        for step in 0..10u64 {
            r.fault_step(step);
            let _ = catch_comm(|| r.barrier());
        }
    });
    assert_eq!(out.dead[0].0, 1);
    assert!(
        out.dead[0].1.contains("killed at step 3"),
        "{}",
        out.dead[0].1
    );
}

// ----- failure detection and shrink recovery -----

/// Drive [`Rank::recover_membership`] to completion, retrying typed
/// second-death errors like a shrink driver would.
fn recover(r: &Rank) -> MembershipChange {
    for _ in 0..16 {
        match catch_comm(|| r.recover_membership()) {
            Ok(Some(change)) => return change,
            Ok(None) => panic!("recover called with nothing to fence"),
            Err(CommError::RankDead { .. }) => continue,
            Err(e) => panic!("membership round failed: {e}"),
        }
    }
    panic!("membership round did not converge");
}

#[test]
fn barrier_detects_dead_rank() {
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(10));
    let out = Universe::run_surviving(3, cfg, |r| {
        if r.rank() == 2 {
            panic!("dies before barrier");
        }
        catch_comm(|| r.barrier())
    });
    assert_eq!(out.dead[0].0, 2);
}

#[test]
fn shrink_recovery_installs_epoch_and_survivors_continue() {
    let plan = FaultPlan::new(9).kill(2, 1);
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
    let out = Universe::run_surviving(3, cfg, |r| {
        for step in 0..4u64 {
            r.fault_step(step);
            if catch_comm(|| r.allreduce_f64(1.0, ReduceOp::Sum)).is_err() {
                let change = recover(&r);
                assert_eq!(change.epoch, 1);
                assert_eq!(change.alive, vec![0, 1]);
                assert_eq!(change.newly_dead.len(), 1);
                assert_eq!(change.newly_dead[0].0, 2);
            }
        }
        // Post-shrink point-to-point (epoch-stamped tags) + collective.
        let peer = 1 - r.rank();
        r.send(peer, 11, f64s_to_bytes(&[r.rank() as f64]));
        let got = bytes_to_f64s(&r.recv(peer, 11))[0];
        (r.epoch(), r.allreduce_f64(got, ReduceOp::Sum))
    });
    assert_eq!(out.dead.len(), 1);
    assert_eq!(out.dead[0].0, 2);
    for rank in [0, 1] {
        let (epoch, sum) = out.results[rank].expect("survivor result");
        assert_eq!(epoch, 1);
        assert_eq!(sum, 1.0); // 0 + 1 over the survivors
    }
    assert!(out.results[2].is_none());
}

#[test]
fn second_death_inside_recovery_is_typed_and_retry_converges() {
    // Rank 3 dies at step 1; rank 2 dies the moment it enters the
    // membership round. Survivors must see a typed error (never a hang)
    // and converge on retry.
    let plan = FaultPlan::new(4)
        .kill(3, 1)
        .kill_in_phase(2, FaultPhase::Recovery, 0);
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
    let out = Universe::run_surviving(4, cfg, |r| {
        for step in 0..3u64 {
            r.fault_step(step);
            if catch_comm(|| r.barrier()).is_err() {
                recover(&r);
            }
        }
        (r.epoch(), r.alive_ranks())
    });
    let dead: Vec<usize> = out.dead.iter().map(|d| d.0).collect();
    assert_eq!(dead.len(), 2);
    assert!(dead.contains(&2) && dead.contains(&3));
    for rank in [0, 1] {
        let (epoch, alive) = out.results[rank].clone().expect("survivor result");
        assert_eq!(epoch, 1);
        assert_eq!(alive, vec![0, 1]);
    }
}

#[test]
fn post_shrink_collectives_remap_dead_root() {
    let plan = FaultPlan::new(3).kill(0, 1);
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
    let out = Universe::run_surviving(3, cfg, |r| {
        for step in 0..2u64 {
            r.fault_step(step);
            if catch_comm(|| r.barrier()).is_err() {
                recover(&r);
            }
        }
        // Requested root 0 is dead: the lowest survivor takes over, so
        // root-pinned protocols keep working after the shrink.
        let gathered = r.gather(0, f64s_to_bytes(&[r.rank() as f64]));
        let bc = bytes_to_f64s(&r.broadcast(0, f64s_to_bytes(&[r.rank() as f64 * 10.0])))[0];
        (gathered.map(|g| bytes_to_f64s(&g[2])[0]), bc)
    });
    assert_eq!(out.dead[0].0, 0);
    let (g1, bc1) = out.results[1].expect("rank 1 result");
    let (g2, bc2) = out.results[2].expect("rank 2 result");
    assert_eq!(g1, Some(2.0), "rank 1 acts as gather root");
    assert_eq!(g2, None);
    assert_eq!(bc1, 10.0, "rank 1's payload is broadcast");
    assert_eq!(bc2, 10.0);
}

#[test]
fn stale_pre_shrink_messages_are_fenced() {
    let plan = FaultPlan::new(5).kill(2, 1);
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
    let out = Universe::run_surviving(3, cfg, |r| {
        if r.rank() == 0 {
            // Epoch-0 message that is never received before the shrink.
            r.send(1, 5, f64s_to_bytes(&[1.0]));
        }
        for step in 0..2u64 {
            r.fault_step(step);
            if catch_comm(|| r.barrier()).is_err() {
                recover(&r);
            }
        }
        if r.rank() == 0 {
            r.send(1, 5, f64s_to_bytes(&[99.0]));
            0.0
        } else {
            // The epoch-1 receive must match only the post-shrink send;
            // the stale epoch-0 message was purged by the flush round.
            let v = bytes_to_f64s(&r.recv(0, 5))[0];
            assert!(
                r.stats().fenced_messages >= 1,
                "stale pre-shrink message was not fenced"
            );
            v
        }
    });
    assert_eq!(out.dead[0].0, 2);
    assert_eq!(out.results[1], Some(99.0));
}

#[test]
fn fail_fast_aborts_receives_unrelated_to_the_dead_rank() {
    // Without fail-fast, a receive from a live-but-silent source waits
    // out the full timeout even though a third rank died; the shrink
    // driver needs every survivor at the membership round promptly.
    let cfg = UniverseCfg::with_timeout(Duration::from_secs(30)).with_fail_fast();
    let out = Universe::run_surviving(3, cfg, |r| {
        if r.rank() == 2 {
            panic!("boom");
        }
        let start = Instant::now();
        let err = catch_comm(|| r.recv(1 - r.rank(), 1)).unwrap_err();
        assert!(
            matches!(err, CommError::RankDead { rank: 2, .. }),
            "expected typed death, got {err}"
        );
        start.elapsed() < Duration::from_secs(10)
    });
    assert_eq!(out.results[0], Some(true));
    assert_eq!(out.results[1], Some(true));
}
