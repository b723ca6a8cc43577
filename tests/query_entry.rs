//! The single read entry: every query kind through `Cluster::query`
//! under {`Strict`, `BestEffort`} × {`ctx: None`, `Some`}, checked
//! against the `CentralizedStore` oracle — healthy, with an unreplicated
//! dead shard, and with an already-expired deadline.

use std::time::Duration as StdDuration;

use stcam::exec::OpPolicy;
use stcam::{
    CentralizedStore, Cluster, ClusterConfig, Deadline, Degraded, HeatmapOp, Knn, KnnOp, Priority,
    Query, QueryCtx, QueryMode, QueryOpts, RangeOp, ShedReason, StcamError, TenantBudget, TenantId,
    TenantUsage, TopCellsOp, PROJ_THIN,
};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_net::{LinkModel, NodeId};
use stcam_world::{EntityClass, EntityId};

const TENANT: TenantId = TenantId(7);
const ROWS: u64 = 600;
const K: usize = 12;
const LIMIT: u32 = 25;
/// Bucket side of the heat-map grid: 8 × 8 over the extent.
const BUCKET_M: f64 = 200.0;
const BUCKET_COLS: u32 = 8;

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
}

fn window() -> TimeInterval {
    TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(10_000))
}

fn stream() -> Vec<Observation> {
    stream_of(ROWS)
}

fn stream_of(rows: u64) -> Vec<Observation> {
    (0..rows)
        .map(|i| Observation {
            id: ObservationId::compose(CameraId(0), i),
            camera: CameraId(0),
            time: Timestamp::from_millis((i % 60) * 1000),
            position: Point::new((i as f64 * 41.0) % 1600.0, (i as f64 * 59.0) % 1600.0),
            class: EntityClass::ALL[i as usize % EntityClass::ALL.len()],
            signature: Signature::latent_for_entity(i),
            truth: Some(EntityId(i)),
        })
        .collect()
}

/// A cluster and an oracle holding the same stream.
fn loaded(replication: usize, rpc_timeout: StdDuration) -> (Cluster, CentralizedStore) {
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 4)
            .with_replication(replication)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(rpc_timeout),
    )
    .unwrap();
    cluster.ingest(stream()).unwrap();
    cluster.flush().unwrap();
    let mut oracle = CentralizedStore::flat();
    oracle.ingest(stream());
    (cluster, oracle)
}

/// Asks one query and prints its typed answer as plain numbers, so
/// kinds with different output types share one table.
type Ask = Box<dyn Fn(&Cluster, &QueryOpts) -> Result<Degraded<Vec<u64>>, StcamError>>;

/// One row of the table: a query value behind a closure that prints its
/// typed answer as plain numbers, the oracle's print of the same answer,
/// and whether a lossy answer is still a subset of the complete one.
struct Kind {
    name: &'static str,
    ask: Ask,
    want: Vec<u64>,
    subset_on_loss: bool,
}

fn kind<Q: Query + Clone + 'static>(
    name: &'static str,
    q: Q,
    print: fn(Q::Output) -> Vec<u64>,
    want: Vec<u64>,
    subset_on_loss: bool,
) -> Kind {
    Kind {
        name,
        ask: Box::new(move |cluster, opts| {
            let d = cluster.query(q.clone(), opts)?;
            Ok(Degraded {
                value: print(d.value),
                completeness: d.completeness,
            })
        }),
        want,
        subset_on_loss,
    }
}

fn ids(rows: Vec<Observation>) -> Vec<u64> {
    rows.iter().map(|o| o.id.0).collect()
}

/// Id, then whether the thin projection blanked truth and signature.
fn thin_ids(rows: Vec<Observation>) -> Vec<u64> {
    rows.iter()
        .flat_map(|o| {
            let blank = o.truth.is_none() && o.signature.values().iter().all(|v| *v == 0.0);
            [o.id.0, u64::from(blank)]
        })
        .collect()
}

/// Every query kind over the whole extent, kNN anchored at `at`.
fn kinds(oracle: &CentralizedStore, at: Point) -> Vec<Kind> {
    let (region, window) = (extent(), window());
    let buckets = GridSpec::covering(region, BUCKET_M);
    let mut all = oracle.range_query(region, window);
    all.sort_by_key(|o| o.id);
    let trucks: Vec<u64> = all
        .iter()
        .filter(|o| o.class == EntityClass::Truck)
        .take(LIMIT as usize)
        .flat_map(|o| [o.id.0, 1])
        .collect();
    let nearest = ids(oracle.knn_query(at, window, K));
    let heat = oracle.heatmap(&buckets, window);
    let mut ranked: Vec<(u64, u64)> = (0..).zip(heat.iter().copied()).collect();
    ranked.retain(|&(_, count)| count > 0);
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let top: Vec<u64> = ranked.iter().take(K).flat_map(|&(i, c)| [i, c]).collect();
    let thin_trucks = RangeOp {
        class: Some(EntityClass::Truck),
        limit: LIMIT,
        projection: PROJ_THIN,
        ..RangeOp::new(region, window)
    };
    vec![
        kind("range", RangeOp::new(region, window), ids, ids(all), true),
        kind(
            "range class+limit+thin",
            thin_trucks,
            thin_ids,
            trucks,
            true,
        ),
        kind("knn", Knn { at, window, k: K }, ids, nearest.clone(), false),
        kind(
            "knn broadcast",
            KnnOp::broadcast(at, window, K),
            ids,
            nearest,
            false,
        ),
        kind("heatmap", HeatmapOp { buckets, window }, |v| v, heat, true),
        kind(
            "top cells",
            TopCellsOp {
                buckets,
                window,
                k: K,
            },
            |cells| {
                cells
                    .iter()
                    .flat_map(|(c, n)| [u64::from(c.row * BUCKET_COLS + c.col), *n])
                    .collect()
            },
            top,
            false,
        ),
    ]
}

/// {`Strict`, `BestEffort`} × {no tenant, `TENANT` with a far deadline}.
fn matrix() -> Vec<QueryOpts> {
    let ctx = Some(QueryCtx::new(TENANT).deadline_within(StdDuration::from_secs(30)));
    [QueryMode::Strict, QueryMode::BestEffort]
        .into_iter()
        .flat_map(|mode| [QueryOpts { mode, ctx: None }, QueryOpts { mode, ctx }])
        .collect()
}

#[test]
fn every_kind_mode_and_ctx_equals_the_oracle() {
    let (cluster, oracle) = loaded(1, StdDuration::from_secs(5));
    assert_eq!(GridSpec::covering(extent(), BUCKET_M).cols(), BUCKET_COLS);
    cluster.register_tenant(TENANT, TenantBudget::unlimited());
    let table = kinds(&oracle, Point::new(800.0, 800.0));
    let mut admitted = 0;
    for opts in matrix() {
        for kind in &table {
            let d = (kind.ask)(&cluster, &opts)
                .unwrap_or_else(|e| panic!("{} under {opts:?}: {e}", kind.name));
            assert_eq!(d.value, kind.want, "{} under {opts:?}", kind.name);
            assert!(d.completeness.is_full() && d.completeness.subset);
            assert_eq!(d.completeness.shed, None);
            admitted += u64::from(opts.ctx.is_some());
        }
        // `ctx: None` never reaches the admission gate; `Some` passes it
        // once per query, however many phases the query scatters.
        assert_eq!(cluster.tenant_usage(TENANT).admitted, admitted);
    }
    assert_eq!(admitted, 2 * table.len() as u64);

    // The three strict shorthands are `query(..).value`.
    let (region, window, at) = (extent(), window(), Point::new(300.0, 900.0));
    let buckets = GridSpec::covering(region, BUCKET_M);
    let strict = &QueryOpts::STRICT;
    assert_eq!(
        cluster.range_query(region, window).unwrap(),
        cluster
            .query(RangeOp::new(region, window), strict)
            .unwrap()
            .value
    );
    assert_eq!(
        cluster.knn_query(at, window, K).unwrap(),
        cluster
            .query(Knn { at, window, k: K }, strict)
            .unwrap()
            .value
    );
    assert_eq!(
        cluster.heatmap(&buckets, window).unwrap(),
        cluster
            .query(HeatmapOp { buckets, window }, strict)
            .unwrap()
            .value
    );
    cluster.shutdown();
}

#[test]
fn an_unreplicated_dead_shard_is_an_error_or_a_truthful_account() {
    let (cluster, oracle) = loaded(0, StdDuration::from_millis(240));
    let victim = NodeId(3);
    let partition = cluster.partition();
    let at = stream()
        .iter()
        .map(|o| o.position)
        .find(|&p| partition.owner_of(p) == victim)
        .expect("victim owns no observation");
    cluster.fabric().crash(victim);
    for opts in matrix() {
        for kind in kinds(&oracle, at) {
            let tag = format!("{} under {opts:?}", kind.name);
            match ((kind.ask)(&cluster, &opts), opts.mode) {
                (Err(StcamError::PartialFailure { missing }), QueryMode::Strict) => {
                    assert_eq!(missing, vec![victim], "{tag}");
                }
                (Ok(d), QueryMode::BestEffort) => {
                    assert_eq!(d.completeness.missing, vec![victim], "{tag}");
                    assert_eq!(d.completeness.subset, kind.subset_on_loss, "{tag}");
                    assert!(d.completeness.replicas_used.is_empty(), "{tag}");
                    assert_eq!(d.completeness.shed, None, "{tag}");
                    assert_ne!(d.value, kind.want, "{tag}: lost shard lost nothing");
                }
                (other, _) => panic!("{tag}: {other:?}"),
            }
        }
    }
    cluster.shutdown();
}

#[test]
fn a_deadline_is_met_with_a_dead_shard_left_to_wait_for() {
    // Two workers, one dead and unreplicated, three seconds of patience:
    // the read gives the dead shard up when the deadline passes, not
    // three clamped attempts and their back-offs later.
    let cluster = Cluster::launch(
        ClusterConfig::new(extent(), 2)
            .with_replication(0)
            .with_link(LinkModel::instant())
            .with_rpc_timeout(StdDuration::from_secs(3)),
    )
    .unwrap();
    cluster.ingest(stream()).unwrap();
    cluster.flush().unwrap();
    let victim = NodeId(2);
    cluster.fabric().crash(victim);
    for budget in [50, 200].map(StdDuration::from_millis) {
        let started = std::time::Instant::now();
        let opts = QueryOpts {
            mode: QueryMode::BestEffort,
            ctx: Some(QueryCtx::new(TENANT).deadline_within(budget)),
        };
        let d = cluster
            .query(RangeOp::new(extent(), window()), &opts)
            .unwrap();
        let took = started.elapsed();
        assert!(took >= budget, "{budget:?}: gave up early, at {took:?}");
        assert!(
            took < budget + StdDuration::from_millis(50),
            "{budget:?} overrun: {took:?}"
        );
        assert_eq!(d.completeness.missing, vec![victim]);
        assert_eq!(d.completeness.shed, Some(ShedReason::Deadline));
        assert!(!d.value.is_empty(), "the live shard answered");
    }
    cluster.shutdown();
}

#[test]
fn an_expired_deadline_is_rejected_for_every_kind() {
    let (cluster, oracle) = loaded(1, StdDuration::from_secs(5));
    let ctx = Some(QueryCtx::new(TENANT).with_deadline(Deadline::within(StdDuration::ZERO)));
    let table = kinds(&oracle, Point::new(800.0, 800.0));
    for mode in [QueryMode::Strict, QueryMode::BestEffort] {
        for kind in &table {
            match (kind.ask)(&cluster, &QueryOpts { mode, ctx }) {
                Err(StcamError::AdmissionRejected { retry_after_ms, .. }) => {
                    assert_eq!(retry_after_ms, 0, "{}", kind.name);
                }
                other => panic!("{} under {mode:?}: {other:?}", kind.name),
            }
        }
    }
    let usage = cluster.tenant_usage(TENANT);
    assert_eq!(
        (usage.admitted, usage.rejected),
        (0, 2 * table.len() as u64)
    );
    assert_eq!(usage.bytes_charged, 0, "a rejected query sent traffic");
    cluster.shutdown();
}

#[test]
fn one_ticket_meters_sheds_and_rejects_a_composite_query() {
    let (cluster, _) = loaded(1, StdDuration::from_secs(5));
    let (at, window) = (Point::new(800.0, 800.0), window());
    let knn = Knn { at, window, k: K };
    let knn_bytes = |cluster: &Cluster| -> u64 {
        let ops = cluster.op_stats();
        ["knn_phase1", "knn_phase2"]
            .iter()
            .filter_map(|name| ops.iter().find(|(n, _)| n == name))
            .map(|(_, s)| s.bytes_sent + s.bytes_received)
            .sum()
    };

    // Both phases ride one admission and one byte account.
    let probe = QueryCtx::new(TenantId(1));
    let strict = |ctx| QueryOpts {
        mode: QueryMode::Strict,
        ctx: Some(ctx),
    };
    let full = cluster.query(knn, &strict(probe)).unwrap();
    let one = knn_bytes(&cluster);
    assert_eq!(
        cluster.tenant_usage(TenantId(1)),
        TenantUsage {
            admitted: 1,
            bytes_charged: one,
            ..TenantUsage::default()
        }
    );

    // A bulk tenant whose first query overdraws its byte budget by less
    // than one burst: the next strict query is admitted shed —
    // downgraded, truthfully stamped — and the one after is rejected.
    cluster.register_tenant(
        TENANT,
        TenantBudget::unlimited().with_bytes_per_sec(one as f64 / 1.9),
    );
    let bulk = QueryCtx::new(TENANT).with_priority(Priority::Bulk);
    let first = cluster.query(knn, &strict(bulk)).unwrap();
    assert_eq!(first.completeness.shed, None);
    let second = cluster.query(knn, &strict(bulk)).unwrap();
    assert_eq!(second.completeness.shed, Some(ShedReason::OverBudget));
    assert!(second.completeness.is_full());
    assert_eq!(second.value, full.value);
    match cluster.query(knn, &strict(bulk)) {
        Err(StcamError::AdmissionRejected { retry_after_ms, .. }) => assert!(retry_after_ms > 0),
        other => panic!("deep byte debt admitted: {other:?}"),
    }
    let usage = cluster.tenant_usage(TENANT);
    assert_eq!((usage.admitted, usage.shed, usage.rejected), (2, 1, 1));
    assert_eq!(usage.bytes_charged, knn_bytes(&cluster) - one);
    cluster.shutdown();
}

/// Rows enough that each of `workers` answers a whole-extent range in at
/// least eight pages (a page holds ≈ 650 full rows), the oracle's answer
/// to that range, and how many page pulls the workers have served.
fn paged(workers: usize, link: LinkModel) -> (Cluster, Vec<Observation>) {
    let rows = stream_of(6_000 * workers as u64);
    let config = ClusterConfig::new(extent(), workers)
        .with_replication(0)
        .with_link(link)
        .with_rpc_timeout(StdDuration::from_secs(3));
    let cluster = Cluster::launch(config).unwrap();
    cluster.ingest(rows.clone()).unwrap();
    cluster.flush().unwrap();
    let mut oracle = CentralizedStore::flat();
    oracle.ingest(rows);
    (cluster, oracle.range_query(extent(), window()))
}

fn pulls_served(cluster: &Cluster) -> u64 {
    let workers = cluster.stats().unwrap().workers;
    workers
        .iter()
        .map(|(_, s)| s.served_count("fetch_page"))
        .sum()
}

#[test]
fn a_paged_range_under_loss_equals_the_oracle_row_for_row() {
    let (cluster, want) = paged(2, LinkModel::instant());
    let whole = RangeOp::new(extent(), window());
    // Loss-free first: a pair with no answered exchange waits its whole
    // timeout, and this settles the RTO of every (class, worker) pair.
    assert_eq!(
        cluster.query(whole, &QueryOpts::STRICT).unwrap().value,
        want
    );
    let pulls = pulls_served(&cluster);
    assert!(pulls >= 2 * 7, "{pulls} pulls: the answers did not page");
    // Six sends an exchange: at 5 % a frame, none runs out of them.
    cluster.set_op_policy(
        "range",
        OpPolicy {
            timeout: StdDuration::from_millis(500),
            max_attempts: 6,
        },
    );
    cluster.set_drop_probability(0.05);
    for round in 0..12 {
        let d = cluster.query(whole, &QueryOpts::STRICT);
        let d = d.unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(
            d.value == want,
            "round {round}: rows differ from the oracle"
        );
        assert!(d.completeness.is_full());
    }
    cluster.set_drop_probability(0.0);
    let stats = cluster.op_stats();
    let (_, range) = stats.iter().find(|(name, _)| *name == "range").unwrap();
    assert!(range.retries > 0, "5 % loss and nothing was re-sent");
    assert_eq!(range.failures, 0);
    cluster.shutdown();
}

#[test]
fn a_deadline_that_expires_mid_pull_is_a_timeout_not_a_short_result() {
    // 20 ms a hop: page 0 lands at 40 ms, pulls 1–4 at 80 ms, 5–8 at
    // 120 ms. A 100 ms deadline runs out with half the pages decoded.
    let hop = LinkModel {
        base_latency: StdDuration::from_millis(20),
        ..LinkModel::instant()
    };
    let (cluster, want) = paged(1, hop);
    let whole = RangeOp::new(extent(), window());
    assert_eq!(
        cluster.query(whole, &QueryOpts::STRICT).unwrap().value,
        want
    );
    assert!(pulls_served(&cluster) >= 8);
    let ctx = Some(QueryCtx::new(TENANT).deadline_within(StdDuration::from_millis(100)));
    let started = std::time::Instant::now();
    let mode = QueryMode::BestEffort;
    let d = cluster.query(whole, &QueryOpts { mode, ctx }).unwrap();
    let took = started.elapsed();
    assert!(
        took >= StdDuration::from_millis(100) && took < StdDuration::from_millis(150),
        "gave up at {took:?}"
    );
    assert_eq!(d.completeness.missing, vec![NodeId(1)]);
    assert_eq!(d.completeness.shed, Some(ShedReason::Deadline));
    assert!(
        d.value.is_empty(),
        "{} rows of a cut-off answer",
        d.value.len()
    );
    let ctx = Some(QueryCtx::new(TENANT).deadline_within(StdDuration::from_millis(100)));
    let mode = QueryMode::Strict;
    match cluster.query(whole, &QueryOpts { mode, ctx }) {
        Err(StcamError::PartialFailure { missing }) => assert_eq!(missing, vec![NodeId(1)]),
        other => panic!("a cut-off strict read answered {other:?}"),
    }
    cluster.shutdown();
}
