//! Figure 18 — control-plane outage: read availability while the
//! coordinator is down, and time-to-reconstruct vs worker count.
//!
//! For each ring size, stream an archive, register a standing query,
//! then crash the coordinator endpoint. The read path is a lock-free
//! query plane composing against the last *published* plan on its own
//! fabric endpoints, so strict and best-effort queries must keep
//! serving at full completeness through the entire outage; only
//! control-plane writes (ingest routing, registration) fail. In the
//! paired "+ worker kill" column a worker also dies *while no
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
//! * zero acked observations are lost across crash + reconstruction,
//!   even with the mid-outage worker kill (replication ≥ 1);
//! * reconstruction is bounded: well under the 10 s failover budget a
//!   human operator would tolerate.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig18_coordinator_outage
//! ```
//!
//! Environment knobs (for CI smoke runs): `FIG18_ARCHIVE` (default
//! 40000), `FIG18_PROBE_ROUNDS` (default 4).

use std::time::Duration;

use stcam::{Cluster, HeatmapOp, Knn, OpPolicy, Predicate, QueryOpts, RangeOp};
use stcam_bench::report::{obj, Report, Value};
use stcam_bench::{
    fmt_count, ingest_chunked, lan_config, launch, square_extent, synthetic_stream, timed,
    window_secs, Table,
};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::NodeId;

const EXTENT_M: f64 = 8_000.0;
const WORKER_COUNTS: [usize; 3] = [4, 8, 16];
const RECONSTRUCT_BUDGET_S: f64 = 10.0;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One row of the experiment: availability probed during the outage and
/// the reconstruction audit after it.
struct Outcome {
    workers: usize,
    killed: usize,
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
    let stream = synthetic_stream(archive, extent, 600, 61);
    ingest_chunked(&cluster, &stream, 1_000);
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
    let killed = if kill_mid_outage {
        // The last worker: dies while no coordinator is alive to see it.
        cluster.kill_worker(NodeId(workers as u32));
        1
    } else {
        0
    };
    // Control-plane writes must stay truthful during the outage: with
    // no coordinator alive the acked sender parks traffic (or errors),
    // but must never claim an observation durable.
    let accepted = cluster.ingest(stream[..1].to_vec()).unwrap_or(0);
    assert_eq!(accepted, 0, "ingest acked with no coordinator alive");
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
        strict_avail,
        mean_completeness,
        responders: report.responders.len(),
        adopted_epoch: report.adopted_epoch,
        reconstruct_s,
        held,
        lost: archive.saturating_sub(held),
        registrations: cluster.registrations().len(),
    };
    cluster.shutdown();
    outcome
}

fn main() {
    let archive = env_usize("FIG18_ARCHIVE", 40_000);
    let rounds = env_usize("FIG18_PROBE_ROUNDS", 4).max(1);

    println!(
        "Figure 18: coordinator outage — read availability and reconstruction \
         ({} observations, replication 1)\n",
        fmt_count(archive as f64)
    );
    let mut table = Table::new(&[
        "workers",
        "killed",
        "strict avail",
        "BE compl",
        "census",
        "epoch",
        "reconstruct s",
        "held",
        "lost",
        "queries kept",
    ]);

    let mut outcomes = Vec::new();
    for workers in WORKER_COUNTS {
        for kill in [false, true] {
            let o = run(workers, kill, archive, rounds);
            table.row(&[
                o.workers.to_string(),
                o.killed.to_string(),
                format!("{:.0}%", o.strict_avail * 100.0),
                format!("{:.3}", o.mean_completeness),
                format!("{}/{}", o.responders, o.workers - o.killed),
                o.adopted_epoch.to_string(),
                format!("{:.3}", o.reconstruct_s),
                fmt_count(o.held as f64),
                o.lost.to_string(),
                o.registrations.to_string(),
            ]);
            outcomes.push(o);
        }
    }
    table.print();
    println!(
        "\n(the query plane serves reads against the last published plan on its own\n\
         endpoints, so a coordinator crash cannot interrupt them; reconstruction\n\
         rebuilds the control plane from worker censuses and promotes the replica\n\
         logs of anything that died while nobody was watching)"
    );

    let mut report = Report::new("fig18_coordinator_outage");
    report
        .set("archive", archive)
        .set("probe_rounds", rounds)
        .set("replication", 1usize)
        .set(
            "runs",
            Value::List(
                outcomes
                    .iter()
                    .map(|o| {
                        obj(vec![
                            ("workers", Value::from(o.workers)),
                            ("killed_mid_outage", Value::from(o.killed)),
                            ("strict_availability", Value::from(o.strict_avail)),
                            ("mean_completeness", Value::from(o.mean_completeness)),
                            ("census_responders", Value::from(o.responders)),
                            ("adopted_epoch", Value::from(o.adopted_epoch)),
                            ("reconstruct_s", Value::from(o.reconstruct_s)),
                            ("held", Value::from(o.held)),
                            ("lost", Value::from(o.lost)),
                            ("registrations_recovered", Value::from(o.registrations)),
                        ])
                    })
                    .collect(),
            ),
        );
    report.emit();

    for o in &outcomes {
        let tag = format!("{} workers, {} killed", o.workers, o.killed);
        if o.killed == 0 {
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
        "\noutage gate passed: reads served through every outage, census reached \
         every survivor, 0 observations lost, reconstruction < {RECONSTRUCT_BUDGET_S} s"
    );
}
