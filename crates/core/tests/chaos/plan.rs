//! Deterministic fault schedules for the chaos harness.
//!
//! A [`ChaosPlan`] is a seeded, reproducible sequence of events: worker
//! crashes, restarts, partitions, heals and recovery ticks, coordinator
//! crashes and recoveries, link loss, acked ingest batches and overload
//! bursts, interleaved with query batteries. One generator emits every
//! kind from one seed, so each plan runs them all together. It keeps
//! every schedule *survivable*: at most `max_dead` shards are
//! unavailable at any instant, so a cluster with replication factor ≥
//! `max_dead` never loses data and the harness's truthfulness and
//! final-equality invariants stay sound.
//!
//! The harness (`main.rs`) executes plans against a live cluster and
//! checks every query against a centralized oracle; printing the seed
//! makes any failing schedule replayable.

use stcam_net::NodeId;

/// A small deterministic RNG (SplitMix64) for schedule generation.
///
/// Self-contained so chaos schedules depend on nothing but the seed —
/// not on a global RNG's call history or a platform's entropy source.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Creates a generator from `seed`. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..n` (`n` must be nonzero).
    pub fn gen_range(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One step of a chaos schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Crash a worker (fabric drops its traffic and pending RPCs).
    Kill(NodeId),
    /// Restart a previously crashed worker's transport. A node restarted
    /// before any recovery tick noticed its crash simply stops timing out
    /// (exercising suspicion decay); a node restarted after being failed
    /// out of the ring is readmitted — state reset, shard re-synced — by
    /// the next [`Recover`](ChaosEvent::Recover) tick's rejoin handshake.
    Restart(NodeId),
    /// Isolate this group from the rest of the cluster.
    Partition(Vec<NodeId>),
    /// Heal the active partition.
    Heal,
    /// Run a recovery tick (`check_and_recover`): failed shards are
    /// reassigned and promoted on their successors, restarted failed-out
    /// workers rejoin the ring, and replica coverage is repaired.
    Recover,
    /// Issue a battery of strict and best-effort queries and check them
    /// against the oracle.
    Queries,
    /// Set the uniform message-drop probability on **every** fabric link
    /// to `permille / 1000` (`0` restores a reliable network). Expressed
    /// in permille so the event stays `Eq`-comparable for plan replay.
    Loss {
        /// Drop probability in permille, `0..=1000`.
        permille: u16,
    },
    /// Ingest `count` fresh observations (deterministically derived from
    /// ids `base .. base + count`) through the **acked** write path while
    /// whatever fault the schedule last injected is still active. The
    /// harness records which observations were acknowledged; the
    /// write-durability oracle then asserts every acked observation
    /// appears in all subsequent strict query answers.
    Ingest {
        /// First observation id of the batch.
        base: u64,
        /// Number of observations in the batch.
        count: u32,
    },
    /// Crash the *coordinator's* control-plane transport. Reads keep
    /// serving from the last published plan (the query plane's pooled
    /// endpoints are separate fabric nodes); recovery ticks stall until
    /// [`CoordinatorRecover`](ChaosEvent::CoordinatorRecover).
    CoordinatorCrash,
    /// Restart the coordinator's transport and rebuild the control plane
    /// from the surviving cluster — worker census, fenced epoch adoption,
    /// ownership/registration recovery, repair (see
    /// `Cluster::restart_coordinator`).
    CoordinatorRecover,
    /// Saturate the admission gate with a burst of bulk-tenant queries
    /// while whatever fault the schedule last injected is still active.
    /// The harness issues high-priority tenant queries concurrently and
    /// asserts they are never *silently* degraded — every shed or partial
    /// answer must carry a truthful completeness account (or a typed
    /// rejection), and the bulk flood must not starve them.
    Overload,
}

/// A seeded, survivable fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The schedule, executed in order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Generates a deterministic plan for a cluster of `workers` nodes
    /// (ids `1..=workers`), about `steps` fault events long, never
    /// leaving more than `max_dead` in-ring shards unavailable at once.
    /// Set `max_dead` to the replication factor: then every unavailable
    /// shard still has a live replica, so queries can stay complete and
    /// recovery can always restore the data.
    ///
    /// The worker-fault schedule always starts with a kill, runs a
    /// `Queries` battery after every event, and ends healed + recovered
    /// with a final battery. Spliced in, each from its own RNG stream so
    /// that a seed gives the same kills, partitions and recoveries
    /// whatever else rides along:
    ///
    /// - after every mid-plan battery, an `Ingest` batch of 8–16 fresh
    ///   observations (ids chain from 2³², far above any preload) and an
    ///   `Overload` burst, so writes and a bulk flood land while faults
    ///   are active;
    /// - a coordinator crash or recovery after some of those bursts. The
    ///   first always crashes, so every plan exercises reconstruction;
    ///   the coordinator is recovered before every `Recover` tick (a dead
    ///   control plane would fail the whole ring out) and before the
    ///   convergence tail, whose closing battery then runs against a
    ///   rebuilt control plane;
    /// - when `loss_permille > 0`, a `Loss { permille }` first and a
    ///   `Loss { permille: 0 }` right before the convergence tail, whose
    ///   durability checks must not depend on link luck.
    ///
    /// # Panics
    ///
    /// Panics if `loss_permille > 1000` (more than certain loss).
    pub fn generate(
        seed: u64,
        workers: u32,
        steps: usize,
        max_dead: usize,
        loss_permille: u16,
    ) -> ChaosPlan {
        assert!(
            loss_permille <= 1000,
            "loss_permille must be ≤ 1000, got {loss_permille}"
        );
        let (body, tail) = Self::schedule(seed, workers, steps, max_dead);
        let mut batches = ChaosRng::new(seed ^ 0x1057_1057_1057_1057);
        let mut outages = ChaosRng::new(seed ^ 0x434F_4F52_4446_4C54);
        let mut next_base: u64 = 1 << 32;
        let (mut crashed, mut crashed_once) = (false, false);
        let mut events = Vec::new();
        if loss_permille > 0 {
            events.push(ChaosEvent::Loss {
                permille: loss_permille,
            });
        }
        for event in body {
            if crashed && event == ChaosEvent::Recover {
                events.push(ChaosEvent::CoordinatorRecover);
                crashed = false;
            }
            let battery = event == ChaosEvent::Queries;
            events.push(event);
            if !battery {
                continue;
            }
            let count = 8 + batches.gen_range(9) as u32;
            events.push(ChaosEvent::Ingest {
                base: next_base,
                count,
            });
            next_base += u64::from(count);
            events.push(ChaosEvent::Overload);
            // A crash rate of 1/3 with a recover rate of 1/2 makes
            // outages span roughly two batteries, long enough to cover
            // worker faults.
            let draw = outages.gen_range(6);
            if !crashed && (!crashed_once || draw < 2) {
                events.push(ChaosEvent::CoordinatorCrash);
                (crashed, crashed_once) = (true, true);
            } else if crashed && draw < 3 {
                events.push(ChaosEvent::CoordinatorRecover);
                crashed = false;
            }
        }
        if crashed {
            events.push(ChaosEvent::CoordinatorRecover);
        }
        if loss_permille > 0 {
            events.push(ChaosEvent::Loss { permille: 0 });
        }
        events.extend(tail);
        ChaosPlan { events }
    }

    /// The worker-fault schedule: returns the fault body (each event
    /// followed by a `Queries` battery) and the deterministic convergence
    /// tail (heal, recover, final battery) separately, so
    /// [`generate`](Self::generate) can splice the other kinds around
    /// them.
    fn schedule(
        seed: u64,
        workers: u32,
        steps: usize,
        max_dead: usize,
    ) -> (Vec<ChaosEvent>, Vec<ChaosEvent>) {
        let mut rng = ChaosRng::new(seed);
        let mut events = Vec::new();
        // Membership bookkeeping mirroring the cluster's state machine:
        // failed-out shards leave `in_ring` at Recover (into `down_out`),
        // a Restart of a failed-out shard parks it in `up_out` until the
        // next Recover rejoins it, and crashed/isolated in-ring shards
        // are "unavailable" and must stay ≤ max_dead.
        let mut in_ring: Vec<NodeId> = (1..=workers).map(NodeId).collect();
        let mut crashed: Vec<NodeId> = Vec::new();
        let mut down_out: Vec<NodeId> = Vec::new();
        let mut up_out: Vec<NodeId> = Vec::new();
        let mut isolated: Option<Vec<NodeId>> = None;
        let unavailable = |in_ring: &[NodeId],
                           crashed: &[NodeId],
                           isolated: &Option<Vec<NodeId>>| {
            in_ring
                .iter()
                .filter(|n| crashed.contains(n) || isolated.as_ref().is_some_and(|g| g.contains(n)))
                .count()
        };
        for step in 0..steps {
            let down = unavailable(&in_ring, &crashed, &isolated);
            let budget = max_dead.saturating_sub(down);
            // Candidate victims: in-ring, currently fully available.
            let healthy: Vec<NodeId> = in_ring
                .iter()
                .copied()
                .filter(|n| {
                    !crashed.contains(n) && !isolated.as_ref().is_some_and(|g| g.contains(n))
                })
                .collect();
            let choice = if step == 0 { 0 } else { rng.gen_range(6) };
            match choice {
                // Kill — forced first so every plan exercises failover.
                0 | 1 if budget > 0 && healthy.len() > 2 => {
                    let victim = healthy[rng.gen_range(healthy.len())];
                    crashed.push(victim);
                    events.push(ChaosEvent::Kill(victim));
                }
                2 if !crashed.is_empty() || !down_out.is_empty() => {
                    // Restart either an in-ring crashed shard (comes back
                    // with its data, never noticed missing) or a
                    // failed-out one (comes back empty, rejoins at the
                    // next Recover).
                    let idx = rng.gen_range(crashed.len() + down_out.len());
                    let victim = if idx < crashed.len() {
                        crashed.swap_remove(idx)
                    } else {
                        let victim = down_out.swap_remove(idx - crashed.len());
                        up_out.push(victim);
                        victim
                    };
                    events.push(ChaosEvent::Restart(victim));
                }
                3 if isolated.is_none() && budget > 0 && healthy.len() > 2 => {
                    let size = 1 + rng.gen_range(budget.min(healthy.len() - 2));
                    let mut pool = healthy.clone();
                    let group: Vec<NodeId> = (0..size)
                        .map(|_| pool.swap_remove(rng.gen_range(pool.len())))
                        .collect();
                    isolated = Some(group.clone());
                    events.push(ChaosEvent::Partition(group));
                }
                4 if isolated.is_some() => {
                    isolated = None;
                    events.push(ChaosEvent::Heal);
                }
                5 if (down > 0 || !up_out.is_empty()) && in_ring.len() > 2 => {
                    // Recovery fails crashed shards out of the ring and
                    // rejoins restarted ones; an isolated group heals
                    // first (the coordinator cannot tell a partition from
                    // a crash, and failing out an isolated majority would
                    // not be survivable).
                    if isolated.is_some() {
                        isolated = None;
                        events.push(ChaosEvent::Heal);
                    }
                    in_ring.retain(|n| !crashed.contains(n));
                    down_out.append(&mut crashed);
                    in_ring.append(&mut up_out);
                    events.push(ChaosEvent::Recover);
                }
                _ => continue,
            }
            events.push(ChaosEvent::Queries);
        }
        // Deterministic convergence tail: heal, recover, final battery.
        let mut tail = Vec::new();
        if isolated.is_some() {
            tail.push(ChaosEvent::Heal);
        }
        // A plan whose body never ticked recovery (its kills all
        // restarted first) still ends with one tick.
        if !crashed.is_empty() || !up_out.is_empty() || !events.contains(&ChaosEvent::Recover) {
            tail.push(ChaosEvent::Recover);
        }
        tail.push(ChaosEvent::Queries);
        (events, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kinds [`ChaosPlan::generate`] splices around the worker-fault
    /// schedule.
    fn spliced(event: &ChaosEvent) -> bool {
        matches!(
            event,
            ChaosEvent::Ingest { .. }
                | ChaosEvent::Overload
                | ChaosEvent::Loss { .. }
                | ChaosEvent::CoordinatorCrash
                | ChaosEvent::CoordinatorRecover
        )
    }

    #[test]
    fn same_seed_same_plan() {
        let a = ChaosPlan::generate(42, 8, 12, 2, 50);
        let b = ChaosPlan::generate(42, 8, 12, 2, 50);
        assert_eq!(a.events, b.events);
        let c = ChaosPlan::generate(43, 8, 12, 2, 50);
        assert_ne!(a.events, c.events, "different seeds should diverge");
    }

    /// Replays each plan against a model of the ring: no step leaves more
    /// than `max_dead` shards unavailable, the first fault is a kill, the
    /// plan ends healed and recovered with a final battery, and some plan
    /// restarts a shard a `Recover` already failed out (the rejoin path).
    #[test]
    fn plans_stay_survivable_and_end_converged() {
        let mut rejoins = 0usize;
        for seed in 0..50 {
            let plan = ChaosPlan::generate(seed, 8, 20, 2, 50);
            let first_fault = plan.events.iter().find(|e| !spliced(e));
            assert!(
                matches!(first_fault, Some(ChaosEvent::Kill(_))),
                "seed {seed}: first fault should be a kill"
            );
            assert_eq!(
                plan.events.last(),
                Some(&ChaosEvent::Queries),
                "seed {seed}: plan must end with a final battery"
            );
            let mut in_ring: Vec<NodeId> = (1..=8).map(NodeId).collect();
            let mut crashed: Vec<NodeId> = Vec::new();
            let mut pending_rejoin: Vec<NodeId> = Vec::new();
            let mut isolated: Vec<NodeId> = Vec::new();
            for event in &plan.events {
                match event {
                    ChaosEvent::Kill(n) => {
                        assert!(!crashed.contains(n), "double kill in seed {seed}");
                        assert!(in_ring.contains(n), "killed out-of-ring shard, seed {seed}");
                        crashed.push(*n);
                    }
                    ChaosEvent::Restart(n) => {
                        if crashed.contains(n) {
                            crashed.retain(|c| c != n);
                        } else {
                            // Restart of a failed-out shard: it waits for
                            // the next Recover's rejoin handshake.
                            assert!(
                                !in_ring.contains(n),
                                "restart of a healthy in-ring shard, seed {seed}"
                            );
                            pending_rejoin.push(*n);
                            rejoins += 1;
                        }
                    }
                    ChaosEvent::Partition(group) => isolated.clone_from(group),
                    ChaosEvent::Heal => isolated.clear(),
                    ChaosEvent::Recover => {
                        assert!(
                            isolated.is_empty(),
                            "recover while partitioned, seed {seed}"
                        );
                        in_ring.retain(|n| !crashed.contains(n));
                        crashed.clear();
                        in_ring.append(&mut pending_rejoin);
                    }
                    _ => assert!(spliced(event) || *event == ChaosEvent::Queries),
                }
                let down = in_ring
                    .iter()
                    .filter(|n| crashed.contains(n) || isolated.contains(n))
                    .count();
                assert!(down <= 2, "seed {seed}: {down} unavailable > budget");
                assert!(in_ring.len() >= 2, "seed {seed}: ring shrank below 2");
            }
            assert!(
                pending_rejoin.is_empty(),
                "seed {seed}: plan ends with a restarted shard never rejoined"
            );
            assert!(isolated.is_empty(), "seed {seed}: plan ends partitioned");
            assert!(
                in_ring.iter().all(|n| !crashed.contains(n)),
                "seed {seed}: plan ends with a crashed in-ring shard"
            );
        }
        assert!(rejoins > 0, "no plan in 0..50 exercised worker rejoin");
    }

    /// The splices are insertion-only: a plan stripped of its ingest,
    /// overload, loss and coordinator events is the worker-fault schedule
    /// itself. Around it, ingest ids chain densely, coordinator outages
    /// pair up and never overlap a recovery tick, and the coordinator and
    /// the links are back before the convergence tail.
    #[test]
    fn stripped_plans_equal_the_base_schedule() {
        for seed in [7u64, 11, 23, 47] {
            for permille in [0, 50] {
                let plan = ChaosPlan::generate(seed, 8, 15, 2, permille);
                let (mut base, tail) = ChaosPlan::schedule(seed, 8, 15, 2);
                let stripped: Vec<ChaosEvent> = plan
                    .events
                    .iter()
                    .filter(|e| !spliced(e))
                    .cloned()
                    .collect();
                base.extend(tail.iter().cloned());
                assert_eq!(stripped, base, "seed {seed}: fault schedule drifted");
                assert!(
                    plan.events.ends_with(&tail),
                    "seed {seed}: nothing may be spliced into the tail"
                );
                let before_tail = &plan.events[plan.events.len() - tail.len() - 1];
                let restored = if permille > 0 {
                    ChaosEvent::Loss { permille: 0 }
                } else {
                    ChaosEvent::Overload
                };
                assert!(
                    *before_tail == restored || *before_tail == ChaosEvent::CoordinatorRecover,
                    "seed {seed}: {before_tail:?} precedes the convergence tail"
                );

                let mut expect = 1u64 << 32;
                let mut coordinator_down = false;
                for event in &plan.events {
                    match event {
                        ChaosEvent::Ingest { base, count } => {
                            assert_eq!(*base, expect, "seed {seed}: id ranges must chain");
                            assert!((8..=16).contains(count), "seed {seed}: batch {count}");
                            expect = base + u64::from(*count);
                        }
                        ChaosEvent::CoordinatorCrash => {
                            assert!(!coordinator_down, "seed {seed}: double crash");
                            coordinator_down = true;
                        }
                        ChaosEvent::CoordinatorRecover => {
                            assert!(coordinator_down, "seed {seed}: recover without a crash");
                            coordinator_down = false;
                        }
                        ChaosEvent::Recover => assert!(
                            !coordinator_down,
                            "seed {seed}: recovery tick while the coordinator is down"
                        ),
                        _ => {}
                    }
                }
                assert!(
                    !coordinator_down,
                    "seed {seed}: plan ends with the coordinator down"
                );
            }
        }
    }

    /// Every plan runs every fault kind, and a loss bracket exactly when
    /// it asks for loss.
    #[test]
    fn every_plan_holds_every_event_kind() {
        for seed in 0..200 {
            for permille in [0, 50] {
                let plan = ChaosPlan::generate(seed, 8, 10, 2, permille);
                let has = |kind: fn(&ChaosEvent) -> bool| plan.events.iter().any(kind);
                for (name, present) in [
                    ("kill", has(|e| matches!(e, ChaosEvent::Kill(_)))),
                    ("recover", has(|e| *e == ChaosEvent::Recover)),
                    ("ingest", has(|e| matches!(e, ChaosEvent::Ingest { .. }))),
                    ("overload", has(|e| *e == ChaosEvent::Overload)),
                    (
                        "coordinator crash",
                        has(|e| *e == ChaosEvent::CoordinatorCrash),
                    ),
                    (
                        "coordinator recovery",
                        has(|e| *e == ChaosEvent::CoordinatorRecover),
                    ),
                ] {
                    assert!(present, "seed {seed}: no {name}");
                }
                let losses: Vec<&ChaosEvent> = plan
                    .events
                    .iter()
                    .filter(|e| matches!(e, ChaosEvent::Loss { .. }))
                    .collect();
                let bracket = [
                    &ChaosEvent::Loss { permille },
                    &ChaosEvent::Loss { permille: 0 },
                ];
                if permille > 0 {
                    assert_eq!(losses, bracket, "seed {seed}: loss bracket");
                    assert_eq!(plan.events.first(), Some(bracket[0]), "seed {seed}");
                } else {
                    assert!(losses.is_empty(), "seed {seed}: loss on a loss-free plan");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss_permille")]
    fn plans_reject_impossible_drop_rates() {
        let _ = ChaosPlan::generate(1, 8, 10, 2, 1001);
    }

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = ChaosRng::new(99);
        let mut b = ChaosRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = ChaosRng::new(1);
        let mut buckets = [0usize; 8];
        for _ in 0..800 {
            buckets[r.gen_range(8)] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 50), "skewed draw: {buckets:?}");
    }
}
