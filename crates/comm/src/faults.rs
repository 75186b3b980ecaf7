//! Deterministic fault injection: rank kills at announced steps or protocol
//! phases, and seeded per-message drop / duplicate / corrupt / delay rules.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::time::Duration;

use bytes::Bytes;

use crate::{user_tag, Rank, Tag};

/// splitmix64 — the deterministic per-message hash behind [`FaultPlan`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Uniform value in `[0, 1)` from a hash.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One message-fault rule: probabilities of dropping, duplicating,
/// corrupting (single deterministic bit flip) or delaying messages whose tag
/// matches.
#[derive(Clone, Copy, Debug, Default)]
struct MsgRule {
    /// The tag the application sends (epoch stamp stripped); `None` matches
    /// every tag, collectives included.
    tag: Option<Tag>,
    drop: f64,
    duplicate: f64,
    corrupt: f64,
    delay_prob: f64,
    delay: Duration,
}

/// Application phases the fault-injection layer can target with a kill —
/// chosen to hit the protocol windows where a death is hardest to survive:
/// mid-collective, mid-migration, or inside the recovery round itself.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultPhase {
    /// Inside a collective field-health scan (announced by the timeloop).
    HealthScan,
    /// Inside a block-migration epoch (announced by the timeloop).
    Migration,
    /// Inside a collective gather (announced by [`Rank::gather`] itself, so
    /// observable gathers are covered without instrumentation).
    Gather,
    /// Inside a membership-recovery round — the second-death-in-recovery
    /// window ([`Rank::recover_membership`] announces it on entry).
    Recovery,
}

/// Deterministic, seed-driven fault-injection plan.
///
/// Three classes of faults are supported:
///
/// * **rank kills** — [`FaultPlan::kill`] terminates a rank (by panic) when
///   the application announces the given step via [`Rank::fault_step`],
///   exercising the full failure-detection and restart path;
/// * **phase kills** — [`FaultPlan::kill_in_phase`] terminates a rank at the
///   n-th time it enters a [`FaultPhase`] (health scan, migration epoch,
///   collective gather, recovery round), exercising deaths *inside* the
///   protocols that are hardest to survive;
/// * **message faults** — per-tag probabilities of dropping, duplicating,
///   corrupting (one bit flip) or delaying each sent message. A rule names
///   the tag the application sends and keeps matching it in every
///   membership epoch.
///
/// Every per-message decision is a pure function of
/// `(seed, src, dst, wire tag, per-pair message index)`, so a given plan
/// produces the *same* faults on every run regardless of thread scheduling —
/// failures found in CI reproduce locally from the seed alone.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed mixed into every per-message fault decision.
    pub seed: u64,
    kills: Vec<(usize, u64)>,
    phase_kills: Vec<(usize, FaultPhase, u64)>,
    rules: Vec<MsgRule>,
}

/// Sender-side decision for one message.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MsgDecision {
    pub(crate) drop: bool,
    pub(crate) duplicate: bool,
    pub(crate) corrupt: bool,
    delay: Option<Duration>,
    /// Hash used to pick the flipped bit when corrupting.
    corrupt_hash: u64,
}

impl FaultPlan {
    /// New empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Kill `rank` when it announces `step` via [`Rank::fault_step`].
    pub fn kill(mut self, rank: usize, step: u64) -> Self {
        self.kills.push((rank, step));
        self
    }

    /// Kill `rank` the `occurrence`-th time (0-based) it enters `phase`
    /// (announced via [`Rank::fault_phase`]; [`FaultPhase::Gather`] and
    /// [`FaultPhase::Recovery`] are announced by the comm layer itself).
    pub fn kill_in_phase(mut self, rank: usize, phase: FaultPhase, occurrence: u64) -> Self {
        self.phase_kills.push((rank, phase, occurrence));
        self
    }

    /// Drop messages with `tag` (`None` = any tag) with probability `prob`.
    pub fn drop_messages(self, tag: Option<Tag>, prob: f64) -> Self {
        self.rule(MsgRule {
            tag,
            drop: prob,
            ..MsgRule::default()
        })
    }

    /// Duplicate messages with `tag` (`None` = any tag) with probability
    /// `prob`.
    pub fn duplicate_messages(self, tag: Option<Tag>, prob: f64) -> Self {
        self.rule(MsgRule {
            tag,
            duplicate: prob,
            ..MsgRule::default()
        })
    }

    /// Flip one deterministic payload bit of messages with `tag` (`None` =
    /// any tag) with probability `prob`.
    pub fn corrupt_messages(self, tag: Option<Tag>, prob: f64) -> Self {
        self.rule(MsgRule {
            tag,
            corrupt: prob,
            ..MsgRule::default()
        })
    }

    /// Delay messages with `tag` (`None` = any tag) by `delay` with
    /// probability `prob` (sender-side, bounded).
    pub fn delay_messages(self, tag: Option<Tag>, prob: f64, delay: Duration) -> Self {
        self.rule(MsgRule {
            tag,
            delay_prob: prob,
            delay,
            ..MsgRule::default()
        })
    }

    fn rule(mut self, rule: MsgRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The faults for the `index`-th message from `src` to `dst` under the
    /// epoch-stamped wire tag `tag`. Rules match the application's tag; the
    /// hash keeps the wire tag, so each epoch draws its own decisions.
    pub(crate) fn decide(&self, src: usize, dst: usize, tag: Tag, index: u64) -> MsgDecision {
        let mut d = MsgDecision::default();
        let base = splitmix64(
            self.seed
                ^ splitmix64((src as u64) << 42 ^ (dst as u64) << 21 ^ tag as u64)
                ^ splitmix64(index.wrapping_mul(0xd1b54a32d192ed03)),
        );
        let app_tag = user_tag(tag);
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.tag.is_some_and(|t| t != app_tag) {
                continue;
            }
            // Independent hash per (rule, category).
            let h = |cat: u64| splitmix64(base ^ splitmix64((i as u64) << 8 | cat));
            if rule.drop > 0.0 && u01(h(1)) < rule.drop {
                d.drop = true;
            }
            if rule.duplicate > 0.0 && u01(h(2)) < rule.duplicate {
                d.duplicate = true;
            }
            if rule.corrupt > 0.0 && u01(h(3)) < rule.corrupt {
                d.corrupt = true;
                d.corrupt_hash = h(4);
            }
            if rule.delay_prob > 0.0 && u01(h(5)) < rule.delay_prob {
                d.delay = Some(rule.delay);
            }
        }
        d
    }
}

impl Rank {
    /// Announce the application step to the fault-injection layer: if the
    /// universe's [`FaultPlan`] kills this rank at `step`, this call panics
    /// (simulating a crash) and the universe reaps the rank.
    pub fn fault_step(&self, step: u64) {
        if let Some(plan) = &self.faults {
            if plan.kills.contains(&(self.rank, step)) {
                panic!(
                    "fault injection: rank {} killed at step {} (seed {})",
                    self.rank, step, plan.seed
                );
            }
        }
    }

    /// Announce entry into an application/protocol phase to the
    /// fault-injection layer: if the universe's [`FaultPlan`] kills this
    /// rank at this occurrence of `phase`, this call panics (simulating a
    /// crash inside the phase). Occurrences are counted per rank only while
    /// a plan with phase kills is attached, so they are deterministic.
    pub fn fault_phase(&self, phase: FaultPhase) {
        if let Some(plan) = &self.faults {
            if !plan.phase_kills.is_empty() {
                let occurrence = next_index(&self.phase_counters, phase);
                if plan.phase_kills.contains(&(self.rank, phase, occurrence)) {
                    panic!(
                        "fault injection: rank {} killed in phase {:?} (occurrence {}, seed {})",
                        self.rank, phase, occurrence, plan.seed
                    );
                }
            }
        }
    }

    /// Apply the plan's message faults to one outgoing message under wire
    /// tag `tag`: `None` if it is dropped, else the payload (one bit flipped
    /// if corrupted) and whether it goes out twice. A delayed message is
    /// held here, on the sender.
    pub(crate) fn message_faults(
        &self,
        dst: usize,
        tag: Tag,
        payload: Bytes,
    ) -> Option<(Bytes, bool)> {
        let Some(plan) = self.faults.as_deref().filter(|p| !p.rules.is_empty()) else {
            return Some((payload, false));
        };
        let index = next_index(&self.fault_counters, (dst, tag));
        let d = plan.decide(self.rank, dst, tag, index);
        if let Some(delay) = d.delay {
            std::thread::sleep(delay);
        }
        if d.drop {
            return None;
        }
        if d.corrupt && !payload.is_empty() {
            let mut bytes = payload.to_vec();
            let bit = (d.corrupt_hash % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            return Some((Bytes::from(bytes), d.duplicate));
        }
        Some((payload, d.duplicate))
    }
}

/// Post-increment `key`'s counter: 0 the first time, then 1, 2, ...
fn next_index<K: Hash + Eq>(counters: &RefCell<HashMap<K, u64>>, key: K) -> u64 {
    let mut counters = counters.borrow_mut();
    let n = counters.entry(key).or_insert(0);
    *n += 1;
    *n - 1
}
