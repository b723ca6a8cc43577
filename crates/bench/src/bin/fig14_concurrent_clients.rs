//! Figure 14 — concurrent query clients vs. throughput.
//!
//! The headline number for the lock-free query plane: N client threads
//! issue a fixed mixed read workload (range / pruned kNN / heat-map)
//! against one shared cluster, and we report aggregate throughput as N
//! sweeps 1 → 16. Before the query plane, every read serialised on the
//! coordinator's mutex and a single fabric endpoint, so adding client
//! threads bought nothing; epoch-published plans and pooled endpoints
//! unblocked the client side, and the worker-side read-executor pool
//! removed the last serialisation point (each worker's single dispatch
//! loop), so the run now asserts ≥ 6× at 8 threads — and per-operation
//! telemetry must still account for every invocation issued by every
//! thread, exactly once. Per-op latency histograms report p50/p95/p99
//! alongside throughput.
//!
//! The metro link model (2 ms base latency between camera aggregation
//! sites) makes each query latency-dominated, which is the regime the
//! concurrency win targets: overlapping round trips, not multiplying
//! CPU. On a many-core host the sweep additionally overlaps worker
//! compute; the gate only assumes latency overlap plus the worker read
//! pool, so it holds on a single-core CI runner too.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig14_concurrent_clients
//! ```
//!
//! Environment knobs (for CI smoke runs):
//! `FIG14_ARCHIVE` (default 20000), `FIG14_OPS` (per-thread op count,
//! default 40), `FIG14_MAX_THREADS` (default 16), `FIG14_READ_THREADS`
//! (read-executor pool size per worker, default 4, 0 disables the
//! pool).

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::exec::LatencyHistogram;
use stcam::{Cluster, HeatmapOp, Knn, QueryOpts, RangeOp};
use stcam_bench::report::{obj, Report, Value};
use stcam_bench::{
    fmt_count, ingest_chunked, launch, op_stats, square_extent, synthetic_stream, timed,
    window_secs, Table,
};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::LinkModel;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Elementwise sum of histograms — the mixed workload's combined
/// latency distribution for one sweep point.
fn merge_latency(hists: &[LatencyHistogram]) -> LatencyHistogram {
    let mut out = LatencyHistogram::default();
    for h in hists {
        for (acc, c) in out.counts.iter_mut().zip(h.counts.iter()) {
            *acc += c;
        }
    }
    out
}

fn render_percentiles_ms(h: &LatencyHistogram) -> String {
    format!(
        "{:.1}/{:.1}/{:.1}",
        h.p50_micros() as f64 / 1e3,
        h.p95_micros() as f64 / 1e3,
        h.p99_micros() as f64 / 1e3
    )
}

/// The per-thread workload: `ops` queries cycling range → kNN →
/// heat-map, deterministic per thread index. Returns per-kind counts.
fn client(cluster: &Cluster, thread: usize, ops: usize, issued: &[AtomicU64; 3]) {
    let window = window_secs(600);
    let buckets = GridSpec::covering(square_extent(EXTENT_M), EXTENT_M / 64.0);
    let mut rng = StdRng::seed_from_u64(1000 + thread as u64);
    for i in 0..ops {
        let p = Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M));
        match i % 3 {
            0 => {
                cluster
                    .query(
                        RangeOp::new(BBox::around(p, 250.0), window),
                        &QueryOpts::STRICT,
                    )
                    .expect("range");
                issued[0].fetch_add(1, Ordering::Relaxed);
            }
            1 => {
                cluster
                    .query(
                        Knn {
                            at: p,
                            window,
                            k: 16,
                        },
                        &QueryOpts::STRICT,
                    )
                    .expect("knn");
                issued[1].fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                cluster
                    .query(HeatmapOp { buckets, window }, &QueryOpts::STRICT)
                    .expect("heatmap");
                issued[2].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn main() {
    let archive = env_usize("FIG14_ARCHIVE", 20_000);
    let ops = env_usize("FIG14_OPS", 40);
    let max_threads = env_usize("FIG14_MAX_THREADS", 16).max(1);
    let read_threads = env_usize("FIG14_READ_THREADS", 4);

    let extent = square_extent(EXTENT_M);
    let cluster = launch(
        stcam::ClusterConfig::new(extent, WORKERS)
            .with_replication(1)
            .with_read_concurrency(read_threads)
            .with_link(LinkModel::metro()),
    );
    let stream = synthetic_stream(archive, extent, 600, 41);
    ingest_chunked(&cluster, &stream, 1_000);

    println!(
        "Figure 14: concurrent query clients ({WORKERS} workers, {} archive, {ops} mixed ops/thread)\n",
        fmt_count(archive as f64)
    );

    let mut table = Table::new(&[
        "threads",
        "ops",
        "wall s",
        "ops/s",
        "speedup",
        "p50/p95/p99 ms",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    let mut baseline_ops_s = 0.0;
    let sweep: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    let mut speedup_at = std::collections::BTreeMap::new();

    for &threads in &sweep {
        let issued: [AtomicU64; 3] = Default::default();
        let before = [
            op_stats(&cluster, "range"),
            op_stats(&cluster, "knn_phase1"),
            op_stats(&cluster, "heatmap"),
        ];
        let ((), wall) = timed(|| {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (cluster, issued) = (&cluster, &issued);
                    scope.spawn(move || client(cluster, t, ops, issued));
                }
            });
        });
        // Telemetry must add up exactly: every thread's every query is
        // booked once in the shared account, no lost updates, no
        // cross-attribution.
        let deltas = [
            op_stats(&cluster, "range").since(&before[0]),
            op_stats(&cluster, "knn_phase1").since(&before[1]),
            op_stats(&cluster, "heatmap").since(&before[2]),
        ];
        for (kind, (d, issued)) in ["range", "knn_phase1", "heatmap"]
            .iter()
            .zip(deltas.iter().zip(&issued))
        {
            assert_eq!(
                d.invocations,
                issued.load(Ordering::Relaxed),
                "telemetry lost {kind} invocations at {threads} threads"
            );
            assert_eq!(d.failures, 0, "{kind} failures at {threads} threads");
        }
        let total_ops = (threads * ops) as f64;
        let ops_s = total_ops / wall;
        if threads == 1 {
            baseline_ops_s = ops_s;
        }
        let speedup = ops_s / baseline_ops_s;
        speedup_at.insert(threads, speedup);
        let mixed = merge_latency(&[deltas[0].latency, deltas[1].latency, deltas[2].latency]);
        table.row(&[
            format!("{threads}"),
            format!("{total_ops:.0}"),
            format!("{wall:.2}"),
            format!("{ops_s:.0}"),
            format!("{speedup:.2}x"),
            render_percentiles_ms(&mixed),
        ]);
        let latency_obj = |h: &LatencyHistogram| {
            obj(vec![
                ("p50_us", Value::from(h.p50_micros())),
                ("p95_us", Value::from(h.p95_micros())),
                ("p99_us", Value::from(h.p99_micros())),
            ])
        };
        rows.push(obj(vec![
            ("threads", Value::from(threads)),
            ("ops", Value::from(threads * ops)),
            ("wall_s", Value::from(wall)),
            ("ops_per_s", Value::from(ops_s)),
            ("speedup_vs_1", Value::from(speedup)),
            ("latency_mixed", latency_obj(&mixed)),
            ("latency_range", latency_obj(&deltas[0].latency)),
            ("latency_knn_phase1", latency_obj(&deltas[1].latency)),
            ("latency_heatmap", latency_obj(&deltas[2].latency)),
        ]));
    }
    table.print();
    println!(
        "\n(shared cluster, metro link model, {read_threads} read-executor threads/worker;\n\
         speedup is aggregate ops/s vs the single-client run — the pre-query-plane\n\
         architecture pinned this at ~1x, the pre-read-pool worker at ~3.8x)"
    );

    let mut report = Report::new("fig14_concurrent_clients");
    report
        .set("workers", WORKERS)
        .set("archive", archive)
        .set("ops_per_thread", ops)
        .set("read_threads", read_threads)
        .set("rows", rows);
    if let Some(&s8) = speedup_at.get(&8) {
        report.set("speedup_at_8", s8);
    }
    report.emit();
    cluster.shutdown();

    if let Some(&s8) = speedup_at.get(&8) {
        assert!(
            s8 >= 6.0,
            "read-path scaling regression: {s8:.2}x at 8 threads (< 6x)"
        );
        println!("scaling gate passed: {s8:.2}x at 8 threads (>= 6x)");
    }
}
