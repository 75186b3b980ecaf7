//! Collectives under deterministic fault injection: every operation must
//! either complete correctly or fail with a `CommError` within its timeout
//! — never hang. Each test body runs under a watchdog thread so a
//! reintroduced deadlock fails the test instead of stalling the suite.

use std::sync::mpsc;
use std::time::Duration;

use eutectica_comm::{
    bytes_to_f64s, catch_comm, f64s_to_bytes, CommError, FaultPlan, Rank, ReduceOp, Universe,
    UniverseCfg, COLLECTIVE_TAG,
};

/// Run `f` on its own thread and panic if it does not finish in `limit`.
fn watchdog<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("watchdogged-test".into())
        .spawn(move || {
            let out = f();
            let _ = tx.send(());
            out
        })
        .unwrap();
    match rx.recv_timeout(limit) {
        Ok(()) => handle.join().expect("test body panicked"),
        Err(_) => panic!("test hung: no completion within {limit:?}"),
    }
}

const WATCHDOG: Duration = Duration::from_secs(60);

fn cfg_with(plan: FaultPlan) -> UniverseCfg {
    // Short op timeout so dropped messages surface fast; detection still
    // races far ahead of the watchdog.
    UniverseCfg::with_timeout(Duration::from_millis(400)).with_faults(plan)
}

/// Run `op` on `n` ranks, each under `catch_comm`, and return every rank's
/// value or the `CommError` its operation failed with. Message faults must
/// never kill a rank: `why` is the assertion message if one died.
fn run_op<T: Send + 'static>(
    n: usize,
    cfg: UniverseCfg,
    why: &'static str,
    op: impl Fn(&Rank) -> T + Send + Sync + 'static,
) -> Vec<Result<T, CommError>> {
    let out = Universe::run_surviving(n, cfg, move |r| catch_comm(|| op(&r)));
    assert!(out.dead.is_empty(), "{why}: {:?}", out.dead);
    out.results
        .into_iter()
        .map(|r| r.expect("a surviving rank returns"))
        .collect()
}

/// Whatever faults hit the collectives, every rank must come back with
/// either a correct value or a CommError — and agree on which.
fn outcome_is_sane<T: PartialEq + std::fmt::Debug>(results: &[Result<T, CommError>], expected: &T) {
    for (rank, r) in results.iter().enumerate() {
        match r {
            Ok(v) => assert_eq!(v, expected, "rank {rank} got a wrong value"),
            Err(CommError::Timeout { .. })
            | Err(CommError::RankDead { .. })
            | Err(CommError::Shutdown { .. }) => {}
        }
    }
}

#[test]
fn allreduce_with_dropped_messages_errors_or_completes() {
    watchdog(WATCHDOG, || {
        for seed in 0..8 {
            let plan = FaultPlan::new(seed).drop_messages(Some(COLLECTIVE_TAG | 1), 0.4);
            let got = run_op(
                4,
                cfg_with(plan),
                "no rank should die from dropped messages",
                |r| r.allreduce_f64(r.rank() as f64 + 1.0, ReduceOp::Sum),
            );
            outcome_is_sane(&got, &10.0);
        }
    });
}

#[test]
fn allreduce_with_duplicated_messages_stays_correct() {
    watchdog(WATCHDOG, || {
        // Duplicates are absorbed by source+tag matching: the stray copy
        // sits in the pending store and the reduction result is unchanged.
        for seed in 0..8 {
            let plan = FaultPlan::new(seed).duplicate_messages(None, 0.5);
            let got = run_op(4, cfg_with(plan), "duplicates must not kill ranks", |r| {
                r.allreduce_f64(r.rank() as f64, ReduceOp::Max)
            });
            outcome_is_sane(&got, &3.0);
        }
    });
}

#[test]
fn gather_under_drops_and_duplicates_never_hangs() {
    watchdog(WATCHDOG, || {
        for seed in 0..8 {
            let plan = FaultPlan::new(seed)
                .drop_messages(Some(COLLECTIVE_TAG | 2), 0.3)
                .duplicate_messages(Some(COLLECTIVE_TAG | 2), 0.3);
            let got = run_op(
                3,
                cfg_with(plan),
                "gather faults must not kill ranks",
                |r| r.gather(0, f64s_to_bytes(&[r.rank() as f64])),
            );
            match &got[0] {
                Ok(Some(bufs)) => {
                    let v: Vec<f64> = bufs.iter().map(|b| bytes_to_f64s(b)[0]).collect();
                    assert_eq!(v, vec![0.0, 1.0, 2.0]);
                }
                Ok(None) => panic!("root must receive Some"),
                Err(e) => assert!(matches!(e, CommError::Timeout { .. }), "{e:?}"),
            }
            for (rank, r) in got.iter().enumerate().skip(1) {
                // Non-root ranks only send; they always succeed with None.
                assert!(matches!(r, Ok(None)), "rank {rank}: {r:?}");
            }
        }
    });
}

#[test]
fn broadcast_under_drops_errors_or_delivers() {
    watchdog(WATCHDOG, || {
        for seed in 0..8 {
            let plan = FaultPlan::new(seed).drop_messages(Some(COLLECTIVE_TAG | 3), 0.4);
            let got = run_op(
                4,
                cfg_with(plan),
                "broadcast faults must not kill ranks",
                |r| {
                    let payload = f64s_to_bytes(&[if r.rank() == 1 { 6.5 } else { 0.0 }]);
                    bytes_to_f64s(&r.broadcast(1, payload))[0]
                },
            );
            outcome_is_sane(&got, &6.5);
        }
    });
}

#[test]
fn corrupted_point_to_point_payload_is_delivered_corrupted() {
    watchdog(WATCHDOG, || {
        // Corruption flips exactly one deterministic bit; the transport
        // must deliver (detection is the checkpoint layer's CRC job).
        let plan = FaultPlan::new(3).corrupt_messages(Some(7), 1.0);
        let got = run_op(2, cfg_with(plan), "corruption must not kill ranks", |r| {
            if r.rank() == 0 {
                r.send(1, 7, f64s_to_bytes(&[1.0]));
                0.0
            } else {
                bytes_to_f64s(&r.recv(0, 7))[0]
            }
        });
        let received = got[1].as_ref().unwrap();
        assert_ne!(*received, 1.0, "payload should have been corrupted");
    });
}

#[test]
fn delayed_messages_arrive_within_timeout() {
    watchdog(WATCHDOG, || {
        let plan = FaultPlan::new(5).delay_messages(Some(9), 1.0, Duration::from_millis(30));
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(5)).with_faults(plan);
        let got = run_op(2, cfg, "delays must not kill ranks", |r| {
            if r.rank() == 0 {
                r.send(1, 9, f64s_to_bytes(&[2.5]));
                0.0
            } else {
                bytes_to_f64s(&r.recv(0, 9))[0]
            }
        });
        assert_eq!(got[1], Ok(2.5));
    });
}

#[test]
fn rank_killed_mid_collective_surfaces_rank_dead() {
    watchdog(WATCHDOG, || {
        let plan = FaultPlan::new(0).kill(2, 1);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(20)).with_faults(plan);
        let out = Universe::run_surviving(4, cfg, |r| {
            for step in 0..4u64 {
                r.fault_step(step);
                let v = catch_comm(|| r.allreduce_f64(1.0, ReduceOp::Sum))?;
                assert_eq!(v, 4.0);
            }
            Ok::<(), CommError>(())
        });
        assert!(!out.dead.is_empty(), "the injected kill must fire");
        assert_eq!(
            out.dead[0].0, 2,
            "injected kill must be first death: {:?}",
            out.dead
        );
    });
}

#[test]
fn same_seed_same_faults_different_seed_different_faults() {
    watchdog(WATCHDOG, || {
        // Reproducibility: the set of ranks that observe errors under a
        // given seed is identical across runs.
        let observe = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).drop_messages(Some(COLLECTIVE_TAG | 1), 0.5);
            run_op(
                4,
                cfg_with(plan),
                "dropped messages must not kill ranks",
                |r| r.allreduce_f64(1.0, ReduceOp::Sum),
            )
            .iter()
            .map(Result::is_err)
            .collect()
        };
        let a1 = observe(11);
        let a2 = observe(11);
        assert_eq!(a1, a2, "same seed must reproduce the same failures");
        let distinct = (0..32)
            .map(observe)
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "seeds must actually vary the faults");
    });
}

#[test]
fn message_fault_rules_survive_a_shrink() {
    watchdog(WATCHDOG, || {
        // A rule names the tag the application sends; the epoch stamp a
        // shrink adds to the wire tag must not hide the message from it.
        // Tag 8 is a marker: FIFO delivery puts a surviving tag-7 message
        // ahead of it, so the receive count tells whether tag 7 got through.
        let plan = FaultPlan::new(1).kill(2, 1).drop_messages(Some(7), 1.0);
        let cfg = UniverseCfg::with_timeout(Duration::from_secs(10)).with_faults(plan);
        let out = Universe::run_surviving(3, cfg, |r| {
            let mut arrived = Vec::new();
            for step in 0..2u64 {
                r.fault_step(step);
                if catch_comm(|| r.barrier()).is_err() {
                    let change = catch_comm(|| r.recover_membership())
                        .expect("no second death races the round")
                        .expect("the round fences rank 2");
                    assert_eq!(change.alive, vec![0, 1]);
                }
                match r.rank() {
                    0 => {
                        r.send(1, 7, f64s_to_bytes(&[step as f64]));
                        r.send(1, 8, f64s_to_bytes(&[step as f64]));
                    }
                    1 => {
                        let before = r.stats().messages_received;
                        let _ = r.recv(0, 8);
                        arrived.push((r.epoch(), r.stats().messages_received - before));
                    }
                    _ => {}
                }
            }
            arrived
        });
        assert_eq!(out.dead[0].0, 2);
        // One message (the marker) per epoch: tag 7 is dropped in both.
        assert_eq!(out.results[1], Some(vec![(0, 1), (1, 1)]));
    });
}
