//! Figure 18 — control-plane outage: read availability while the
//! coordinator is down, and time-to-reconstruct vs worker count.
//!
//! For each ring size, stream an archive, register a standing query,
//! then crash the coordinator endpoint. The read path is a lock-free
//! query plane composing against the last *published* plan on its own
//! fabric endpoints, so strict and best-effort queries must keep
//! serving at full completeness through the entire outage, and so must
//! writes (the cluster's own ingestor); only control actions fail. In
//! the paired "+ worker kill" column a worker also dies *while no
//! coordinator is alive* — the worst case for a census-based restart,
//! because nobody is around to notice the failure when it happens.
//!
//! Recovery then runs [`Cluster::restart_coordinator`]: probe the
//! roster, gather per-worker censuses, adopt a fenced epoch above every
//! epoch the cluster has seen, rebuild the partition map and standing
//! registrations from worker truth, promote dead members' replica logs,
//! and republish routes. The bench times that whole sequence and audits
//! the result.
//!
//! In-run gates:
//!
//! * reads never stop: during a clean outage, strict availability is
//!   100% and mean best-effort completeness is 1.0;
//! * the census reaches every surviving worker and recovers the
//!   standing registration;
//! * a clean outage acks a new write, and no acked observation is lost
//!   across crash + reconstruction, even with the mid-outage kill (r = 1);
//! * reconstruction is bounded: well under the 10 s failover budget a
//!   human operator would tolerate.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig18_coordinator_outage
//! ```

use std::time::Duration;

use stcam::{Cluster, HeatmapOp, Knn, OpPolicy, Predicate, QueryOpts, RangeOp};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, square_extent, synthetic_stream, timed, window_secs,
    Figure, Fmt,
};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::NodeId;

const EXTENT_M: f64 = 8_000.0;
const WORKER_COUNTS: [usize; 3] = [4, 8, 16];
const RECONSTRUCT_BUDGET_S: f64 = 10.0;

/// One row of the experiment: availability probed during the outage and
/// the reconstruction audit after it.
struct Outcome {
    workers: usize,
    killed: usize,
    accepted: usize,
    strict_avail: f64,
    mean_completeness: f64,
    responders: usize,
    adopted_epoch: u64,
    reconstruct_s: f64,
    held: usize,
    lost: usize,
    registrations: usize,
}

/// Probes the outage window with strict and best-effort range / kNN /
/// heat-map queries. Returns (strict availability, mean best-effort
/// completeness fraction).
fn outage_availability(cluster: &Cluster, extent: BBox, rounds: usize) -> (f64, f64) {
    let window = window_secs(10_000);
    let buckets = GridSpec::covering(extent, extent.width() / 16.0);
    let mut strict_ok = 0u32;
    let mut strict_total = 0u32;
    let mut completeness_sum = 0.0;
    let mut best_effort_total = 0u32;
    for round in 0..rounds {
        let f = round as f64 / rounds.max(1) as f64;
        let at = Point::new(
            extent.min.x + extent.width() * (0.2 + 0.6 * f),
            extent.min.y + extent.height() * (0.8 - 0.6 * f),
        );
        strict_total += 3;
        strict_ok += u32::from(cluster.range_query(extent, window).is_ok());
        strict_ok += u32::from(cluster.knn_query(at, window, 10).is_ok());
        strict_ok += u32::from(cluster.heatmap(&buckets, window).is_ok());
        let fractions = [
            cluster
                .query(RangeOp::new(extent, window), &QueryOpts::BEST_EFFORT)
                .map(|d| d.completeness.fraction()),
            cluster
                .query(Knn { at, window, k: 10 }, &QueryOpts::BEST_EFFORT)
                .map(|d| d.completeness.fraction()),
            cluster
                .query(HeatmapOp { buckets, window }, &QueryOpts::BEST_EFFORT)
                .map(|d| d.completeness.fraction()),
        ];
        for fraction in fractions {
            best_effort_total += 1;
            completeness_sum += fraction.unwrap_or(0.0);
        }
    }
    (
        f64::from(strict_ok) / f64::from(strict_total.max(1)),
        completeness_sum / f64::from(best_effort_total.max(1)),
    )
}

/// Runs one outage experiment: crash the coordinator, optionally kill a
/// worker mid-outage, probe reads, reconstruct, audit.
fn run(workers: usize, kill_mid_outage: bool, archive: usize, rounds: usize) -> Outcome {
    let extent = square_extent(EXTENT_M);
    let cluster = launch(lan_config(extent, workers, 1));
    let stream = synthetic_stream(archive + 1, extent, 600, 61);
    let (stream, outage_write) = stream.split_at(archive);
    ingest_chunked(&cluster, stream, 1_000);
    cluster
        .register_continuous(Predicate {
            region: BBox::around(Point::new(EXTENT_M / 2.0, EXTENT_M / 2.0), 500.0),
            class: None,
        })
        .expect("register standing query");

    // Short read policies so a dead-primary sub-query (the worker-kill
    // column) fails over quickly instead of burning the default budget.
    for op in ["range", "knn_phase1", "knn_phase2", "heatmap"] {
        cluster.set_op_policy(op, OpPolicy::new(Duration::from_millis(600)));
    }

    cluster.crash_coordinator();
    let killed = usize::from(kill_mid_outage);
    if kill_mid_outage {
        // The last worker: dies while no coordinator is alive to see it.
        cluster.fabric().crash(NodeId(workers as u32));
    }
    // A row new to the archive, through the cluster's own ingestor: it
    // acks unless the dead worker owns it, and an ack outlives the crash.
    let accepted = cluster.ingest(outage_write.to_vec()).unwrap_or(0);
    let (strict_avail, mean_completeness) = outage_availability(&cluster, extent, rounds);

    let (report, reconstruct_s) = timed(|| {
        cluster
            .restart_coordinator()
            .expect("coordinator reconstruction")
    });

    let held = cluster
        .range_query(extent.inflated(100.0), window_secs(10_000))
        .expect("post-recovery audit")
        .len();
    let outcome = Outcome {
        workers,
        killed,
        accepted,
        strict_avail,
        mean_completeness,
        responders: report.responders.len(),
        adopted_epoch: report.adopted_epoch,
        reconstruct_s,
        held,
        lost: (archive + accepted).saturating_sub(held),
        registrations: cluster.registrations().len(),
    };
    cluster.shutdown();
    outcome
}

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 18: coordinator outage — read availability and reconstruction",
    );
    let archive = fig.scale().pick(40_000, 8_000);
    let rounds = fig.scale().pick(4usize, 2);
    fig.param("observations", archive);
    fig.param("replication", 1usize);
    fig.param("probe_rounds", rounds);
    fig.table("runs")
        .col("workers", "workers", Fmt::Plain)
        .col("killed", "killed_mid_outage", Fmt::Plain)
        .col("strict avail", "strict_availability", Fmt::Percent(0))
        .col("BE compl", "mean_completeness", Fmt::Fixed(3))
        .col("census", "census_of_survivors", Fmt::Plain)
        .col("epoch", "adopted_epoch", Fmt::Plain)
        .col("reconstruct s", "reconstruct_s", Fmt::Fixed(3))
        .col("held", "held", Fmt::Count)
        .col("lost", "lost", Fmt::Plain)
        .col("queries kept", "registrations_recovered", Fmt::Plain);

    let mut outcomes = Vec::new();
    for workers in WORKER_COUNTS {
        for kill in [false, true] {
            let o = run(workers, kill, archive, rounds);
            fig.row(cells![
                o.workers,
                o.killed,
                o.strict_avail,
                o.mean_completeness,
                [o.responders, o.workers - o.killed],
                o.adopted_epoch,
                o.reconstruct_s,
                o.held,
                o.lost,
                o.registrations,
            ]);
            outcomes.push(o);
        }
    }
    fig.note(
        "(the query plane serves reads against the last published plan on its own\n\
         endpoints, so a coordinator crash cannot interrupt them; reconstruction\n\
         rebuilds the control plane from worker censuses and promotes the replica\n\
         logs of anything that died while nobody was watching)",
    );
    fig.finish();

    for o in &outcomes {
        let tag = format!("{} workers, {} killed", o.workers, o.killed);
        if o.killed == 0 {
            assert_eq!(o.accepted, 1, "{tag}: ingest not acked during the outage");
            assert!(
                (o.strict_avail - 1.0).abs() < f64::EPSILON,
                "{tag}: reads stopped serving during a clean coordinator outage \
                 (strict availability {:.2})",
                o.strict_avail
            );
            assert!(
                (o.mean_completeness - 1.0).abs() < 1e-9,
                "{tag}: best-effort completeness degraded during a clean outage \
                 ({:.3})",
                o.mean_completeness
            );
        }
        assert_eq!(
            o.responders,
            o.workers - o.killed,
            "{tag}: census missed a surviving worker"
        );
        assert_eq!(o.lost, 0, "{tag}: lost {} acked observations", o.lost);
        assert_eq!(o.registrations, 1, "{tag}: standing query lost in recovery");
        assert!(
            o.reconstruct_s < RECONSTRUCT_BUDGET_S,
            "{tag}: reconstruction took {:.2} s (> {RECONSTRUCT_BUDGET_S} s budget)",
            o.reconstruct_s
        );
    }
    println!(
        "gates: reads served through every outage, census reached every survivor, \
         outage write acked, 0 observations lost, reconstruction < {RECONSTRUCT_BUDGET_S} s — ok"
    );
}
