//! Seeded chaos harness: deterministic fault schedules against a live
//! cluster, with every query checked against a centralized oracle.
//!
//! Each schedule is a [`plan::ChaosPlan`]: worker crashes, restarts,
//! partitions, heals and recovery ticks, coordinator crashes and
//! reconstructions, link loss, acked ingest batches and overload bursts,
//! all from one seed and interleaved with query batteries. Every fault
//! goes in through the cluster's one fault surface, `Cluster::fabric()`,
//! or through the coordinator's own crash and restart. The generator keeps
//! schedules survivable (at most `replication` shards unavailable at
//! once), so the invariants here are unconditional:
//!
//! * a **strict** query either errors or equals the oracle exactly;
//! * a **best-effort** range result is a subset of the oracle, and every
//!   dropped hit's owner appears in the reported missing set
//!   (truthfulness);
//! * a full (`completeness.is_full()`) best-effort result equals the
//!   oracle;
//! * after the plan's convergence tail (heal + recover), completeness
//!   returns to full and no data has been lost;
//! * **write durability**: every observation the cluster *acknowledged*
//!   to the writer joins the oracle, so each later battery asserts acked
//!   data is never missing from a strict (or full best-effort) answer —
//!   the acked-ingest contract under kills, outages and message loss;
//! * **no silent degradation**: during an overload burst a high-priority
//!   tenant is never saturation-shed, and no tenant gets a partial answer
//!   without its shed reason;
//! * **notification**: a standing query over the whole extent, registered
//!   before the first step, notifies exactly the acked rows, and no row
//!   more often than it was handed to `ingest`.
//!
//! `CHAOS_SEED` (one `u64`) and `CHAOS_DROP` (the link loss in permille)
//! pick one schedule; without either, a fixed set runs. The seed and the
//! drop rate are printed before each run so any failure is replayable.

mod plan;

use std::collections::{HashMap, HashSet};
use std::time::Duration as StdDuration;

use stcam::{
    CentralizedStore, Cluster, ClusterConfig, Deadline, HeatmapOp, Knn, OpPolicy, Predicate,
    Priority, QueryCtx, QueryMode, QueryOpts, RangeOp, ShedReason, StcamError, TenantBudget,
    TenantId,
};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_net::{LinkModel, NodeId};
use stcam_world::{EntityClass, EntityId};

use plan::{ChaosEvent, ChaosPlan};

const WORKERS: u32 = 8;
const REPLICATION: usize = 2;
const OBSERVATIONS: u64 = 600;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
}

fn window_all() -> TimeInterval {
    TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000))
}

fn obs(i: u64) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), i),
        camera: CameraId(0),
        time: Timestamp::from_millis((i % 60) * 1000),
        position: Point::new((i as f64 * 41.0) % 1600.0, (i as f64 * 59.0) % 1600.0),
        class: EntityClass::Car,
        signature: Signature::latent_for_entity(i),
        truth: Some(EntityId(i)),
    }
}

/// The admission gate's saturation threshold (in units of in-flight
/// scatter width). Each tenant-scoped query against 8 workers reserves a
/// width of 8, so two concurrent `*_ctx` queries saturate the gate —
/// low enough that overload bursts actually exercise load-shedding.
/// Queries without a tenant context (everything the batteries issue)
/// bypass admission, so this does not perturb the other invariants.
const SATURATION_WIDTH: usize = 12;

/// Bulk queries in one overload burst.
const OVERLOAD_BURST: usize = 24;

/// The high-priority tenant of overload bursts (never load-shed).
const VIP: TenantId = TenantId(1);
/// The flooding bulk tenant of overload bursts (first to be shed).
const BULK: TenantId = TenantId(2);

fn config() -> ClusterConfig {
    ClusterConfig::new(extent(), WORKERS as usize)
        .with_replication(REPLICATION)
        .with_link(LinkModel::instant())
        // Short timeout so sub-queries to dead nodes fail over fast.
        .with_rpc_timeout(StdDuration::from_millis(250))
}

/// Acked ingest replicates synchronously before acknowledging, so this
/// settles on the first poll; it stays as a belt-and-braces barrier (and
/// would catch a regression to fire-and-forget replication).
fn settle_replication(cluster: &Cluster) {
    let expected = OBSERVATIONS * REPLICATION.min(WORKERS as usize - 1) as u64;
    let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
    loop {
        let stats = cluster.stats().expect("stats on a healthy cluster");
        let replicas: u64 = stats
            .workers
            .iter()
            .map(|(_, s)| s.replica_observations)
            .sum();
        if replicas >= expected {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replication never settled: {replicas}/{expected}"
        );
        std::thread::sleep(StdDuration::from_millis(20));
    }
}

/// Launches a preloaded cluster plus two oracle stores: `oracle` holds
/// everything the cluster has **acknowledged** (must be served), `upper`
/// holds everything ever **sent** (may be served). They start equal and
/// only diverge while a lossy plan has writes in limbo.
fn launch_with_data() -> (Cluster, CentralizedStore, CentralizedStore) {
    let cluster = Cluster::launch(config()).expect("launch");
    let plane = cluster.query_plane();
    plane.admission().set_saturation_width(SATURATION_WIDTH);
    let batch: Vec<Observation> = (0..OBSERVATIONS).map(obs).collect();
    let mut oracle = CentralizedStore::flat();
    oracle.ingest(batch.clone());
    let mut upper = CentralizedStore::flat();
    upper.ingest(batch.clone());
    let accepted = cluster.ingest(batch).expect("ingest");
    assert_eq!(
        accepted, OBSERVATIONS as usize,
        "acked ingest must accept the whole preload on a healthy cluster"
    );
    cluster.flush().expect("flush");
    settle_replication(&cluster);
    (cluster, oracle, upper)
}

fn sorted_ids(observations: &[Observation]) -> Vec<ObservationId> {
    let mut ids: Vec<ObservationId> = observations.iter().map(|o| o.id).collect();
    ids.sort();
    ids
}

/// One battery of strict and best-effort queries, each checked against
/// the oracles. `oracle` is the acked lower bound (these observations
/// must be served), `upper` the sent upper bound (anything served must
/// come from here — writes in limbo may be partially present on some
/// shards). When the two are equal (nothing in limbo) the checks
/// degenerate to exact set equality. `tag` identifies the plan step for
/// failure messages.
fn battery(
    cluster: &Cluster,
    oracle: &CentralizedStore,
    upper: &CentralizedStore,
    seed: u64,
    tag: &str,
) {
    let window = window_all();
    let region = extent();
    let oracle_hits = oracle.range_query(region, window);
    let oracle_ids = sorted_ids(&oracle_hits);
    let upper_ids = sorted_ids(&upper.range_query(region, window));
    let in_limbo = upper_ids.len() != oracle_ids.len();
    let in_upper = |id: &ObservationId| upper_ids.binary_search(id).is_ok();

    // Strict range: errors are allowed mid-fault, lies are not — and no
    // acked observation may ever be missing from a strict answer.
    match cluster.query(RangeOp::new(region, window), &QueryOpts::STRICT) {
        Ok(d) => {
            assert!(
                d.completeness.is_full(),
                "seed {seed} {tag}: strict Ok but completeness not full"
            );
            let got_ids = sorted_ids(&d.value);
            for id in &oracle_ids {
                assert!(
                    got_ids.binary_search(id).is_ok(),
                    "seed {seed} {tag}: acked observation {id:?} missing from a strict answer"
                );
            }
            for id in &got_ids {
                assert!(
                    in_upper(id),
                    "seed {seed} {tag}: strict range invented {id:?}"
                );
            }
        }
        Err(StcamError::PartialFailure { .. }) | Err(StcamError::NoQuorum) => {}
        Err(e) => panic!("seed {seed} {tag}: unexpected strict range error: {e}"),
    }

    // Best-effort range: a truthful subset of what was sent, containing
    // everything acked when it claims to be full.
    let d = cluster
        .query(RangeOp::new(region, window), &QueryOpts::BEST_EFFORT)
        .expect("best-effort range never fails on shard loss");
    assert!(
        d.completeness.subset,
        "seed {seed} {tag}: a range result is always a subset"
    );
    let got_ids = sorted_ids(&d.value);
    for id in &got_ids {
        assert!(
            in_upper(id),
            "seed {seed} {tag}: best-effort range invented {id:?}"
        );
    }
    if d.completeness.is_full() {
        for id in &oracle_ids {
            assert!(
                got_ids.binary_search(id).is_ok(),
                "seed {seed} {tag}: full best-effort range dropped acked {id:?}"
            );
        }
    } else {
        // Truthfulness: every dropped acked hit's owner is reported
        // missing.
        let partition = cluster.partition();
        for o in &oracle_hits {
            if got_ids.binary_search(&o.id).is_err() {
                let owner = partition.owner_of(o.position);
                assert!(
                    d.completeness.missing.contains(&owner),
                    "seed {seed} {tag}: dropped {:?} but its owner {owner} \
                     is not in the missing set {:?}",
                    o.id,
                    d.completeness.missing
                );
            }
        }
    }

    // Best-effort heat-map: per-cell counts never exceed what was sent,
    // and never undercount what was acked when full.
    let buckets = GridSpec::covering(extent(), 200.0);
    let oracle_heat = oracle.heatmap(&buckets, window);
    let upper_heat = upper.heatmap(&buckets, window);
    let d = cluster
        .query(HeatmapOp { buckets, window }, &QueryOpts::BEST_EFFORT)
        .expect("best-effort heatmap never fails on shard loss");
    for (cell, (&got, &cap)) in d.value.iter().zip(upper_heat.iter()).enumerate() {
        assert!(
            got <= cap,
            "seed {seed} {tag}: heatmap cell {cell} overcounts ({got} > {cap})"
        );
    }
    if d.completeness.is_full() {
        for (cell, (&got, &floor)) in d.value.iter().zip(oracle_heat.iter()).enumerate() {
            assert!(
                got >= floor,
                "seed {seed} {tag}: full heatmap cell {cell} undercounts acked \
                 ({got} < {floor})"
            );
        }
    }

    // Best-effort kNN: equality when full and nothing is in limbo (limbo
    // observations can legitimately perturb the ranking); a degraded
    // ranking must admit it may not be a subset of the true answer.
    let at = Point::new(800.0, 800.0);
    let oracle_knn: Vec<ObservationId> = oracle
        .knn_query(at, window, 15)
        .iter()
        .map(|o| o.id)
        .collect();
    match cluster.query(Knn { at, window, k: 15 }, &QueryOpts::BEST_EFFORT) {
        Ok(d) => {
            if d.completeness.is_full() {
                let got: Vec<ObservationId> = d.value.iter().map(|o| o.id).collect();
                if in_limbo {
                    for id in &got {
                        assert!(
                            in_upper(id),
                            "seed {seed} {tag}: full best-effort knn invented {id:?}"
                        );
                    }
                } else {
                    assert_eq!(
                        got, oracle_knn,
                        "seed {seed} {tag}: full best-effort knn diverged from oracle"
                    );
                }
            } else {
                assert!(
                    !d.completeness.subset,
                    "seed {seed} {tag}: degraded knn must not claim subset semantics"
                );
            }
        }
        // Routing can fail outright when the seed shard has no live host.
        Err(StcamError::NoQuorum) => {}
        Err(e) => panic!("seed {seed} {tag}: unexpected best-effort knn error: {e}"),
    }
}

/// One high-priority tenant query under (possible) overload. The
/// no-silent-timeout contract: the answer is either `Ok` with a truthful
/// completeness account (full, or carrying the shed reason that degraded
/// it) or a *typed* error — never a quietly partial answer, and never a
/// saturation shed (High priority is exempt from load-shedding).
fn vip_query(cluster: &Cluster, seed: u64, tag: &str) {
    let ctx = QueryCtx::new(VIP)
        .with_priority(Priority::High)
        .with_deadline(Deadline::within(StdDuration::from_secs(10)));
    match cluster.query(
        RangeOp::new(extent(), window_all()),
        &QueryOpts {
            mode: QueryMode::Strict,
            ctx: Some(ctx),
        },
    ) {
        Ok(d) => {
            assert!(
                d.completeness.is_full() || d.completeness.shed.is_some(),
                "seed {seed} {tag}: silently degraded high-priority answer \
                 (missing {:?}, no shed reason)",
                d.completeness.missing
            );
            assert!(
                !matches!(d.completeness.shed, Some(ShedReason::Saturated)),
                "seed {seed} {tag}: high-priority tenant was saturation-shed"
            );
        }
        Err(StcamError::AdmissionRejected { retry_after_ms, .. }) => {
            // The VIP budget is unlimited, so only concurrency-free
            // rejections (expired deadline) are possible — and the hint
            // must be sane.
            assert!(
                retry_after_ms < 10_000,
                "seed {seed} {tag}: absurd retry-after hint {retry_after_ms} ms"
            );
        }
        Err(StcamError::PartialFailure { .. })
        | Err(StcamError::NoQuorum)
        | Err(StcamError::Net(_)) => {}
        Err(e) => panic!("seed {seed} {tag}: untyped high-priority failure: {e}"),
    }
}

/// One bulk-tenant query during an overload burst. Strict requests may be
/// downgraded to best-effort by the gate, but never silently: an `Ok`
/// answer that is not full must carry its shed reason.
fn bulk_query(cluster: &Cluster, seed: u64, tag: &str) {
    let ctx = QueryCtx::new(BULK).with_priority(Priority::Bulk);
    match cluster.query(
        RangeOp::new(extent(), window_all()),
        &QueryOpts {
            mode: QueryMode::Strict,
            ctx: Some(ctx),
        },
    ) {
        Ok(d) => {
            assert!(
                d.completeness.is_full() || d.completeness.shed.is_some(),
                "seed {seed} {tag}: bulk Strict answer degraded without a shed reason \
                 (missing {:?})",
                d.completeness.missing
            );
        }
        Err(StcamError::AdmissionRejected { .. })
        | Err(StcamError::PartialFailure { .. })
        | Err(StcamError::NoQuorum)
        | Err(StcamError::Net(_)) => {}
        Err(e) => panic!("seed {seed} {tag}: untyped bulk failure: {e}"),
    }
}

fn execute_plan(seed: u64, plan: &ChaosPlan) {
    let (cluster, mut oracle, mut upper) = launch_with_data();
    // Tenants for overload bursts: the VIP is unmetered, the bulk tenant
    // merely well-known — the saturation gate, not its private budget, is
    // what sheds it.
    cluster.register_tenant(VIP, TenantBudget::unlimited());
    cluster.register_tenant(BULK, TenantBudget::unlimited());
    // Observations sent but not yet acknowledged (in `upper`, not in
    // `oracle`); retried at every later ingest step — worker-side id
    // dedup absorbs the repeats.
    let mut limbo: Vec<Observation> = Vec::new();
    // The notification oracle: every row the steps acked, and how often
    // each was handed to `ingest` (a row is notified once per ack).
    let everything = Predicate {
        region: extent(),
        class: None,
    };
    let standing = cluster
        .register_continuous(everything)
        .unwrap_or_else(|e| panic!("seed {seed}: register standing query: {e}"));
    let mut acked: HashSet<ObservationId> = HashSet::new();
    let mut handed: HashMap<ObservationId, u32> = HashMap::new();
    let lossy = plan
        .events
        .iter()
        .any(|e| matches!(e, ChaosEvent::Loss { permille } if *permille > 0));
    if lossy {
        // Under message loss a single lost probe must not fail a live
        // worker out of the ring, and a lost promotion must not orphan a
        // replica log: give both idempotent ops a real retry budget.
        cluster.set_op_policy("probe", OpPolicy::new(StdDuration::from_millis(750)));
        cluster.set_op_policy(
            "promote",
            OpPolicy {
                timeout: StdDuration::from_millis(250),
                max_attempts: 6,
            },
        );
    }
    for (step, event) in plan.events.iter().enumerate() {
        let tag = format!("step {step} ({event:?})");
        match event {
            ChaosEvent::Kill(n) => cluster.fabric().crash(*n),
            ChaosEvent::Restart(n) => cluster.fabric().restart(*n),
            ChaosEvent::Partition(group) => cluster.fabric().partition(&[group.as_slice()]),
            ChaosEvent::Heal => cluster.fabric().heal_partition(),
            ChaosEvent::Recover => {
                cluster.check_and_recover();
            }
            ChaosEvent::Queries => battery(&cluster, &oracle, &upper, seed, &tag),
            ChaosEvent::Loss { permille } => {
                cluster
                    .fabric()
                    .set_drop_probability(f64::from(*permille) / 1000.0);
            }
            ChaosEvent::Ingest { base, count } => {
                // One delivery attempt per observation per step: singleton
                // batches make the accepted count identify exactly which
                // observations were acknowledged, so the oracle only ever
                // contains acked data. Whatever the cluster cannot ack
                // right now (owner crashed or isolated and recovery has
                // not noticed) joins the limbo ledger.
                let fresh: Vec<Observation> =
                    (0..u64::from(*count)).map(|i| obs(base + i)).collect();
                upper.ingest(fresh.clone());
                let mut batch = std::mem::take(&mut limbo);
                batch.extend(fresh);
                for o in batch {
                    *handed.entry(o.id).or_default() += 1;
                    match cluster.ingest(vec![o.clone()]) {
                        Ok(1) => {
                            acked.insert(o.id);
                            oracle.ingest(vec![o]);
                        }
                        Ok(0) => limbo.push(o),
                        Ok(n) => {
                            panic!("seed {seed} {tag}: impossible accepted count {n}")
                        }
                        Err(e) => panic!("seed {seed} {tag}: acked ingest errored: {e}"),
                    }
                }
            }
            ChaosEvent::CoordinatorCrash => cluster.crash_coordinator(),
            ChaosEvent::CoordinatorRecover => {
                let report = cluster
                    .restart_coordinator()
                    .unwrap_or_else(|e| panic!("seed {seed} {tag}: reconstruction failed: {e}"));
                assert!(
                    !report.responders.is_empty(),
                    "seed {seed} {tag}: census reached no workers"
                );
            }
            ChaosEvent::Overload => {
                // Bulk flood from several threads so in-flight scatter
                // width actually crosses the saturation threshold, with
                // concurrent high-priority queries interleaved — the
                // no-silent-timeout contract is asserted per answer.
                let flooders = 4usize;
                let share = OVERLOAD_BURST.div_ceil(flooders);
                std::thread::scope(|scope| {
                    for _ in 0..flooders {
                        let (cluster, tag) = (&cluster, &tag);
                        scope.spawn(move || {
                            for _ in 0..share {
                                bulk_query(cluster, seed, tag);
                            }
                        });
                    }
                    let (cluster, tag) = (&cluster, &tag);
                    scope.spawn(move || {
                        for _ in 0..4 {
                            vip_query(cluster, seed, tag);
                        }
                    });
                });
            }
        }
    }

    // The write barrier after the tail healed everything: batch copies
    // parked in the retry window drain now (they dedup against what
    // already landed), so the final checks see a quiesced cluster.
    cluster.flush().expect("final flush on the healed cluster");
    // Nothing may stay in limbo on a healed, recovered cluster: every
    // observation ever sent must now acknowledge, and joins the oracle so
    // the final assertions check full equality.
    if !limbo.is_empty() {
        let batch = std::mem::take(&mut limbo);
        let deadline = std::time::Instant::now() + StdDuration::from_secs(10);
        loop {
            for o in &batch {
                *handed.entry(o.id).or_default() += 1;
            }
            match cluster.ingest(batch.clone()) {
                Ok(n) if n == batch.len() => break,
                outcome => assert!(
                    std::time::Instant::now() < deadline,
                    "seed {seed}: limbo never drained on the healed cluster: {outcome:?}"
                ),
            }
            std::thread::sleep(StdDuration::from_millis(10));
        }
        acked.extend(batch.iter().map(|o| o.id));
        oracle.ingest(batch);
    }
    assert_eq!(
        oracle.range_query(extent(), window_all()).len(),
        upper.range_query(extent(), window_all()).len(),
        "seed {seed}: oracle bookkeeping out of sync after limbo drain"
    );

    // Every acked row was notified — its matches rode the reply that
    // acked it — and none more often than it was handed in.
    let mut notified: HashMap<ObservationId, u32> = HashMap::new();
    loop {
        let batch = cluster.poll_notifications(StdDuration::from_millis(100));
        if batch.is_empty() {
            break;
        }
        for n in batch.into_iter().filter(|n| n.query == standing) {
            for row in n.matches {
                *notified.entry(row.id).or_default() += 1;
            }
        }
    }
    let notified_ids: HashSet<ObservationId> = notified.keys().copied().collect();
    assert_eq!(
        notified_ids, acked,
        "seed {seed}: notified ids != acked ids"
    );
    for (id, &times) in &notified {
        let sent = handed.get(id).copied().unwrap_or(0);
        assert!(
            times <= sent,
            "seed {seed}: {id:?} notified {times} times, handed in {sent}"
        );
    }

    // The plan's convergence tail healed and recovered everything, so
    // completeness must be back to full with no data lost.
    let d = cluster
        .query(
            RangeOp::new(extent(), window_all()),
            &QueryOpts::BEST_EFFORT,
        )
        .expect("final best-effort range");
    assert!(
        d.completeness.is_full(),
        "seed {seed}: completeness did not return to full; missing {:?}",
        d.completeness.missing
    );
    assert_eq!(
        sorted_ids(&d.value),
        sorted_ids(&oracle.range_query(extent(), window_all())),
        "seed {seed}: data lost despite replication covering every fault"
    );
    cluster
        .range_query(extent(), window_all())
        .expect("strict queries work again after convergence");

    // Every plan starts with a kill and queries before recovering, so the
    // run must have exercised the replica-failover read path.
    let failovers: u64 = cluster.op_stats().iter().map(|(_, s)| s.failovers).sum();
    assert!(
        failovers > 0,
        "seed {seed}: plan never exercised replica failover"
    );

    // Post-heal replica invariant: anti-entropy converges, after which
    // every cell an alive owner holds is mirrored — digest-equal — at its
    // `replication` alive ring successors.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(30);
    loop {
        let report = cluster.repair();
        if report.converged {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "seed {seed}: repair never converged ({} cells still under-replicated \
             after {} rounds)",
            report.under_replicated_after,
            report.rounds
        );
    }
    assert_eq!(
        cluster.under_replicated_cells(),
        0,
        "seed {seed}: under-replication gauge nonzero after repair converged"
    );
    cluster.shutdown();
}

/// The schedules to run, as (seed, drop permille): `CHAOS_SEED` and
/// `CHAOS_DROP` pick one (seed 11 and no loss when either is missing);
/// without both, seeds 11, 23 and 47 run loss-free and seed 11 at 5 %.
fn schedules() -> Vec<(u64, u16)> {
    let seed = std::env::var("CHAOS_SEED").ok().map(|s| {
        s.trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got {s:?}"))
    });
    let drop = std::env::var("CHAOS_DROP").ok().map(|s| {
        let p: u16 = s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_DROP must be a permille u16, got {s:?}"));
        assert!(p <= 1000, "CHAOS_DROP must be ≤ 1000 permille");
        p
    });
    match (seed, drop) {
        (None, None) => vec![(11, 0), (23, 0), (47, 0), (11, 50)],
        (seed, drop) => vec![(seed.unwrap_or(11), drop.unwrap_or(0))],
    }
}

/// Every fault kind from one seed: worker kills, restarts, partitions
/// and recovery ticks, coordinator outages, link loss, acked writes and
/// overload bursts interleaved, with every invariant of the module doc
/// checked at every battery and at the end. The schedules run side by
/// side, one cluster each.
#[test]
fn chaos_schedules_hold_every_invariant() {
    std::thread::scope(|scope| {
        for (seed, permille) in schedules() {
            scope.spawn(move || {
                // Printed even on success so a failing CI log always
                // names the schedule that was running.
                println!(
                    "chaos: running seed {seed} at {permille}\u{2030} drop \
                     (replay with CHAOS_SEED={seed} CHAOS_DROP={permille})"
                );
                let plan = ChaosPlan::generate(seed, WORKERS, 10, REPLICATION, permille);
                execute_plan(seed, &plan);
            });
        }
    });
}

/// Standing queries survive a coordinator crash with **no memory**: the
/// rebuilt coordinator re-learns every registration from the worker
/// census (the only copy left), re-registers them under the new epoch,
/// and notifications keep flowing — once per match, including on cells
/// whose ownership the reconstruction re-derived.
#[test]
fn standing_queries_survive_coordinator_reconstruction() {
    let (cluster, _oracle, _upper) = launch_with_data();
    let hot = BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
    let standing = cluster
        .register_continuous(Predicate {
            region: hot,
            class: None,
        })
        .expect("register standing query");
    // Drain the preload's notifications so the post-recovery count is
    // exact.
    let _ = cluster.poll_notifications(StdDuration::from_millis(200));

    cluster.crash_coordinator();
    // Reads outlive the control plane: the last published plan still
    // serves strict queries during the outage.
    let strict = cluster
        .range_query(extent(), window_all())
        .expect("strict range during coordinator outage");
    assert_eq!(strict.len(), OBSERVATIONS as usize);

    let report = cluster
        .restart_coordinator()
        .expect("reconstruction on a healthy ring");
    assert_eq!(
        report.responders.len(),
        WORKERS as usize,
        "census must reach the whole ring"
    );
    assert_eq!(
        report.recovered_registrations, 1,
        "the standing query must be re-learned from the census"
    );
    let recovered = cluster.registrations();
    assert_eq!(
        recovered.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![standing],
        "recovered registration ids diverged"
    );

    // Fresh matches inside the hot region notify exactly once each.
    let fresh: Vec<Observation> = (0..40u64)
        .map(|i| {
            let mut o = obs(2_000_000 + i);
            o.position = Point::new(
                10.0 + (i as f64 * 9.7) % 380.0,
                10.0 + (i as f64 * 7.3) % 380.0,
            );
            o
        })
        .collect();
    let accepted = cluster.ingest(fresh).expect("ingest after reconstruction");
    assert_eq!(accepted, 40, "post-reconstruction ingest must fully ack");
    let notifications = cluster.poll_notifications(StdDuration::from_secs(5));
    let matched: usize = notifications
        .iter()
        .filter(|n| n.query == standing)
        .map(|n| n.matches.len())
        .sum();
    assert_eq!(
        matched, 40,
        "standing query must fire exactly once per match after reconstruction"
    );
    cluster.shutdown();
}

/// The per-link loss knob degrades exactly the links census recovery
/// depends on: every coordinator↔worker direction drops 5% of frames
/// (data and query-plane links stay clean) while the restarted
/// coordinator probes, censuses, republishes, and repairs. The
/// idempotent control ops retry through the drops, reconstruction
/// converges, and the asymmetric loss never touches the read path.
#[test]
fn reconstruction_survives_degraded_coordinator_links() {
    let (cluster, oracle, _upper) = launch_with_data();
    // The same retry budgets the lossy schedules run under: a dropped
    // probe or promotion must cost a retry, not the reconstruction.
    cluster.set_op_policy("probe", OpPolicy::new(StdDuration::from_millis(750)));
    for op in ["census", "promote"] {
        cluster.set_op_policy(
            op,
            OpPolicy {
                timeout: StdDuration::from_millis(250),
                max_attempts: 6,
            },
        );
    }

    cluster.crash_coordinator();
    let fabric = cluster.fabric();
    for w in 1..=WORKERS {
        fabric.set_link_drop_probability(NodeId(0), NodeId(w), 0.05);
        fabric.set_link_drop_probability(NodeId(w), NodeId(0), 0.05);
    }
    let report = cluster
        .restart_coordinator()
        .expect("reconstruction over degraded control links");
    assert_eq!(
        report.responders.len(),
        WORKERS as usize,
        "census must reach the whole ring through 5% control-link loss"
    );
    for w in 1..=WORKERS {
        fabric.clear_link_drop_probability(NodeId(0), NodeId(w));
        fabric.clear_link_drop_probability(NodeId(w), NodeId(0));
    }
    let strict = cluster
        .range_query(extent(), window_all())
        .expect("strict range after lossy reconstruction");
    assert_eq!(
        sorted_ids(&strict),
        sorted_ids(&oracle.range_query(extent(), window_all())),
        "data diverged across a reconstruction over lossy control links"
    );
    cluster.shutdown();
}

/// Satellite regression: a worker that died *before* the coordinator
/// crashed must still be rejoinable afterwards. The rebuilt coordinator
/// never saw it alive — it keeps the silent candidate on its roster
/// (its replica logs were promoted at failover, so no census names it),
/// keeps probing it, and readmits it once it restarts.
#[test]
fn worker_restart_after_coordinator_loss_still_rejoins() {
    let (cluster, oracle, _upper) = launch_with_data();
    let victim = NodeId(4);
    cluster.fabric().crash(victim);
    let failed = cluster.check_and_recover();
    assert!(failed.contains(&victim), "kill undetected: {failed:?}");

    cluster.crash_coordinator();
    let report = cluster
        .restart_coordinator()
        .expect("reconstruction with one dead worker");
    assert_eq!(
        report.responders.len(),
        WORKERS as usize - 1,
        "census must reach every survivor"
    );
    // The dead member is nobody's primary under the rebuilt map, but the
    // roster kept it: once it restarts, recovery ticks readmit it
    // without any pre-crash memory.
    cluster.fabric().restart(victim);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(30);
    while cluster.partition().cells_of(victim).is_empty() {
        cluster.check_and_recover();
        assert!(
            std::time::Instant::now() < deadline,
            "worker never rejoined the reconstructed coordinator's ring"
        );
        std::thread::sleep(StdDuration::from_millis(50));
    }
    // Nothing was lost across the double fault, and replication holds.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(30);
    while !cluster.repair().converged {
        assert!(
            std::time::Instant::now() < deadline,
            "repair never converged after rejoin"
        );
    }
    let strict = cluster
        .range_query(extent(), window_all())
        .expect("strict range after the double fault");
    assert_eq!(
        sorted_ids(&strict),
        sorted_ids(&oracle.range_query(extent(), window_all())),
        "data lost across coordinator crash + worker rejoin"
    );
    cluster.shutdown();
}

/// Standing-query registration churn across a worker rejoin: the rejoin
/// handshake clears the worker's interest index, the coordinator
/// re-registers every standing query, and re-registration under the same
/// id must *replace* (not duplicate) — notifications keep flowing
/// afterwards, once per match.
#[test]
fn continuous_registrations_survive_churn_across_rejoin() {
    let (cluster, _oracle, _upper) = launch_with_data();
    let hot = BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
    let keep = cluster
        .register_continuous(Predicate {
            region: hot,
            class: None,
        })
        .expect("register keeper");
    // Churn: a second registration that is repeatedly dropped and
    // re-added around the fault window.
    let churn = cluster
        .register_continuous(Predicate {
            region: hot,
            class: None,
        })
        .expect("register churner");

    let victim = NodeId(3);
    cluster.fabric().crash(victim);
    let failed = cluster.check_and_recover();
    assert!(failed.contains(&victim), "kill undetected: {failed:?}");
    cluster.unregister_continuous(churn).expect("unregister");
    let churn2 = cluster
        .register_continuous(Predicate {
            region: hot,
            class: None,
        })
        .expect("re-register churner");
    cluster.fabric().restart(victim);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(30);
    while cluster.partition().cells_of(victim).is_empty() {
        cluster.check_and_recover();
        assert!(
            std::time::Instant::now() < deadline,
            "restarted worker never rejoined"
        );
        std::thread::sleep(StdDuration::from_millis(50));
    }

    // Fresh matching observations land inside the hot region, spread so
    // the rejoined worker's shard is covered too.
    let fresh: Vec<Observation> = (0..40u64)
        .map(|i| {
            let mut o = obs(1_000_000 + i);
            o.position = Point::new(
                10.0 + (i as f64 * 9.7) % 380.0,
                10.0 + (i as f64 * 7.3) % 380.0,
            );
            o
        })
        .collect();
    let accepted = cluster.ingest(fresh).expect("ingest after rejoin");
    assert_eq!(accepted, 40, "post-rejoin ingest must fully ack");

    let notifications = cluster.poll_notifications(StdDuration::from_secs(5));
    let count_for = |id| {
        notifications
            .iter()
            .filter(|n| n.query == id)
            .map(|n| n.matches.len())
            .sum::<usize>()
    };
    assert_eq!(
        count_for(keep),
        40,
        "keeper must see every match exactly once after rejoin re-registration"
    );
    assert_eq!(
        count_for(churn2),
        40,
        "churned registration must see every match exactly once"
    );
    assert_eq!(
        count_for(churn),
        0,
        "unregistered query must stay silent after the churn"
    );
    cluster.shutdown();
}

/// The acceptance scenario from the issue: 8 workers, replication 2, one
/// worker killed mid-stream. Best-effort range, kNN and heat-map queries
/// issued BEFORE any recovery tick succeed with full completeness by
/// reading the dead shard from its replicas; strict reads succeed too.
#[test]
fn killed_worker_is_served_by_replicas_before_recovery() {
    let (cluster, oracle, _upper) = launch_with_data();
    let victim = NodeId(3);
    cluster.fabric().crash(victim);
    // No check_and_recover: the dead worker is still in the ring and the
    // partition map; only replica failover can answer for its shard.

    let d = cluster
        .query(
            RangeOp::new(extent(), window_all()),
            &QueryOpts::BEST_EFFORT,
        )
        .expect("range during crash window");
    assert!(
        d.completeness.is_full(),
        "range not full: missing {:?}",
        d.completeness.missing
    );
    assert!(
        d.completeness.shards_from_replica >= 1,
        "dead shard was not served from a replica"
    );
    assert!(
        d.completeness
            .replicas_used
            .iter()
            .any(|&(s, _)| s == victim),
        "failover did not target the killed worker's shard: {:?}",
        d.completeness.replicas_used
    );
    assert_eq!(
        sorted_ids(&d.value),
        sorted_ids(&oracle.range_query(extent(), window_all()))
    );

    let at = Point::new(800.0, 800.0);
    let d = cluster
        .query(
            Knn {
                at,
                window: window_all(),
                k: 15,
            },
            &QueryOpts::BEST_EFFORT,
        )
        .expect("knn during crash window");
    assert!(
        d.completeness.is_full(),
        "knn not full: missing {:?}",
        d.completeness.missing
    );
    let got: Vec<ObservationId> = d.value.iter().map(|o| o.id).collect();
    let want: Vec<ObservationId> = oracle
        .knn_query(at, window_all(), 15)
        .iter()
        .map(|o| o.id)
        .collect();
    assert_eq!(got, want, "knn diverged from oracle during crash window");

    let buckets = GridSpec::covering(extent(), 200.0);
    let d = cluster
        .query(
            HeatmapOp {
                buckets,
                window: window_all(),
            },
            &QueryOpts::BEST_EFFORT,
        )
        .expect("heatmap during crash window");
    assert!(
        d.completeness.is_full(),
        "heatmap not full: missing {:?}",
        d.completeness.missing
    );
    assert_eq!(d.value, oracle.heatmap(&buckets, window_all()));

    // Strict mode rides the same failover path, so it succeeds too.
    let strict = cluster
        .range_query(extent(), window_all())
        .expect("strict range during crash window with replication 2");
    assert_eq!(strict.len(), OBSERVATIONS as usize);

    // The peer table's failure streaks noticed the dead node on the way.
    assert!(
        cluster
            .suspicions()
            .iter()
            .any(|&(n, s)| n == victim && s > 0),
        "killed worker never became suspect: {:?}",
        cluster.suspicions()
    );
    cluster.shutdown();
}

/// Split-brain fencing: two *live* coordinator instances over one
/// cluster. After the fresh instance reconstructs (adopting a strictly
/// higher epoch), every control mutation from the stale instance is
/// rejected by the workers — a zombie coordinator cannot corrupt routes,
/// evict data, or wipe a worker through a rejoin handshake.
#[test]
fn stale_coordinator_instance_is_fenced_out() {
    use stcam::{
        Coordinator, PartitionMap, PartitionPolicy, Worker, WorkerConfig, STALE_EPOCH_ERROR,
    };
    use stcam_geo::Duration;
    use stcam_index::IndexConfig;
    use stcam_net::Fabric;

    let fabric = Fabric::new(LinkModel::instant());
    let worker_ids: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let partition = PartitionMap::build(
        PartitionPolicy::UniformHash,
        extent(),
        400.0,
        worker_ids.clone(),
        None,
    );
    let index = IndexConfig::new(extent(), 100.0, Duration::from_secs(60));
    let mut handles = Vec::new();
    for &id in &worker_ids {
        let endpoint = fabric.register(id);
        handles.push(Worker::spawn(
            endpoint,
            WorkerConfig {
                index: index.clone(),
                read_threads: 0,
            },
        ));
    }
    let timeout = StdDuration::from_millis(250);
    let mut fresh = Coordinator::new(
        fabric.register(NodeId(0)),
        vec![fabric.register(NodeId(20_000))],
        partition.clone(),
        1,
        timeout,
    );
    let stale = Coordinator::new(
        fabric.register(NodeId(999)),
        vec![fabric.register(NodeId(20_001))],
        partition,
        1,
        timeout,
    );
    // Both instances start at the same epoch; the fresh one reconstructs
    // (as a restarted incarnation would) and adopts a strictly higher one.
    fresh.broadcast_routes();
    stale.broadcast_routes();
    let report = fresh
        .reconstruct(&worker_ids)
        .expect("reconstruct on a healthy ring");
    assert!(
        report.adopted_epoch >= 2,
        "reconstruction must adopt a fenced epoch, got {}",
        report.adopted_epoch
    );
    // The stale instance's control mutations now bounce off every worker
    // with an explicit stale-epoch rejection.
    let err = stale
        .evict_before(Timestamp::from_secs(1))
        .expect_err("a stale coordinator's evict must be fenced");
    match err {
        StcamError::Remote(msg) => assert!(
            msg.contains(STALE_EPOCH_ERROR),
            "expected a stale-epoch rejection, got: {msg}"
        ),
        other => panic!("expected a remote stale-epoch rejection, got: {other}"),
    }
    // Its route broadcasts are rejected too: a second census observes the
    // fenced epoch everywhere, not the stale instance's.
    stale.broadcast_routes();
    let again = fresh
        .reconstruct(&worker_ids)
        .expect("second reconstruction");
    assert_eq!(
        again.adopted_epoch,
        report.adopted_epoch + 1,
        "a stale broadcast must not move any installed route epoch"
    );
    for handle in handles {
        handle.shutdown();
    }
}

/// A reconstruction whose promotion never lands does not claim an epoch.
/// The only survivor holds a dead primary's replica log and refuses every
/// `Promote`. Publishing would route the dead primary's cells to a shard
/// without its rows, so the control loop never cuts over, and
/// `reconstruct` returns the refusal instead of an adopted epoch.
#[test]
fn reconstruction_fails_while_its_promotion_is_refused() {
    use stcam::{CensusReport, Coordinator, DigestReport, PartitionMap, ReplicaDigestEntry};
    use stcam::{Request, Response};
    use stcam_codec::{decode_from_slice, encode_to_vec};
    use stcam_net::{Fabric, Waker};

    let fabric = Fabric::new(LinkModel::instant());
    let holder = NodeId(1);
    let dead = NodeId(2);
    let grid = GridSpec::covering(extent(), 800.0);
    let endpoint = fabric.register(holder);
    let waker = endpoint.waker();
    let survivor = std::thread::spawn(move || {
        while let Some(envelope) = endpoint.recv() {
            if Waker::is_wake(&envelope) {
                break;
            }
            let answer = match decode_from_slice::<Request>(&envelope.payload) {
                Ok(Request::Census) => Response::Census(CensusReport {
                    epoch: 3,
                    grid: Some(grid),
                    replica_of: vec![dead],
                    ..CensusReport::default()
                }),
                Ok(Request::CellDigest { .. }) => Response::Digests(DigestReport {
                    primary: Vec::new(),
                    replicas: vec![ReplicaDigestEntry {
                        primary: dead,
                        cell: 0,
                        count: 1,
                        checksum: 7,
                    }],
                }),
                Ok(Request::Promote { .. }) => Response::Error("promotion refused".into()),
                _ => Response::Ack,
            };
            let _ = endpoint.reply(&envelope, encode_to_vec(&answer));
        }
    });
    let partition = PartitionMap::uniform(extent(), 800.0, vec![holder, dead]);
    let mut coordinator = Coordinator::new(
        fabric.register(NodeId(0)),
        vec![fabric.register(NodeId(20_000))],
        partition,
        1,
        StdDuration::from_millis(250),
    );
    let epoch = coordinator.query_plane().epoch();
    let err = coordinator
        .reconstruct(&[holder])
        .expect_err("no epoch may be adopted while the promotion fails");
    assert!(
        matches!(&err, StcamError::Remote(msg) if msg.contains("promotion refused")),
        "expected the refusal, got: {err}"
    );
    assert_eq!(
        coordinator.query_plane().epoch(),
        epoch,
        "no plan published"
    );
    waker.wake();
    survivor.join().expect("survivor thread");
}

/// A worker that crashed, was failed out of the ring, and later restarts
/// is readmitted by the rejoin handshake even while the links drop 5% of
/// messages — and afterwards owns cells and serves strict reads again.
#[test]
fn restarted_worker_rejoins_under_loss() {
    let (cluster, oracle, _upper) = launch_with_data();
    let victim = NodeId(2);
    cluster.fabric().crash(victim);
    let failed = cluster.check_and_recover();
    assert!(
        failed.contains(&victim),
        "kill was not detected: {failed:?}"
    );

    // Lossy links from here on: the rejoin probe and the repair stream
    // must survive dropped messages, so give probes real retry room.
    cluster.set_op_policy("probe", OpPolicy::new(StdDuration::from_millis(750)));
    cluster.fabric().set_drop_probability(0.05);
    cluster.fabric().restart(victim);

    // Rejoin may need more than one recovery tick under loss (a dropped
    // probe looks exactly like a still-dead worker).
    let deadline = std::time::Instant::now() + StdDuration::from_secs(30);
    loop {
        cluster.check_and_recover();
        let owns_cells = !cluster.partition().cells_of(victim).is_empty();
        if owns_cells && cluster.under_replicated_cells() == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "restarted worker never rejoined under loss \
             (owns_cells={owns_cells}, under_replicated={})",
            cluster.under_replicated_cells()
        );
        std::thread::sleep(StdDuration::from_millis(50));
    }

    // Heal the links and drive anti-entropy to convergence: repair ops
    // lost to the 5% drop (a failed evict leaves a stale copy) retry now.
    cluster.fabric().set_drop_probability(0.0);
    let deadline = std::time::Instant::now() + StdDuration::from_secs(30);
    while !cluster.repair().converged {
        assert!(
            std::time::Instant::now() < deadline,
            "repair never converged after links healed"
        );
    }
    let strict = cluster
        .range_query(extent(), window_all())
        .expect("strict range after rejoin");
    assert_eq!(
        sorted_ids(&strict),
        sorted_ids(&oracle.range_query(extent(), window_all())),
        "strict answer diverged from oracle after rejoin"
    );
    cluster.shutdown();
}
