//! Table 2 — communication cost per operation type.
//!
//! Exact wire accounting for each operation class, on a fixed 8-worker
//! archive, from two independent meters that must agree in shape: the
//! instrumented fabric (every byte that crosses it) and the executor's
//! per-operation telemetry, which additionally splits query traffic into
//! request bytes up and result bytes down.
//!
//! Three regression gates ride on the accounting: no response frame, page
//! pulls included, exceeds the paging bound; pages come out ≥ 85 % full;
//! a full page frame encodes and decodes within 8 plain copies of its
//! bytes (moved as slices it takes ≈ 3, moved byte by byte hundreds).
//!
//! ```text
//! cargo run -p stcam-bench --release --bin tab2_comm_cost
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::exec::LatencyHistogram;
use stcam::paging::{encode_reply, Reply};
use stcam::{KnnOp, Predicate, QueryOpts, Response, TopCellsOp};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, op_stats, percentiles_ms, square_extent,
    synthetic_stream, timed, window_secs, Figure, Fmt,
};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, GridSpec, Point};
use stcam_net::FabricStats;
use std::hint::black_box;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;

/// One measured operation class: fabric msgs/KB per op, the executor's
/// request/result KB per op, and the operation's latency percentiles.
struct Row {
    label: String,
    msgs: f64,
    kb: f64,
    exec_up_down: [f64; 2],
    latency: Vec<LatencyHistogram>,
}

/// Seconds per 100 calls of `f`: the fastest of 20 rounds.
fn fastest<T>(f: impl Fn() -> T) -> f64 {
    let round = || timed(|| (0..100).for_each(|_| drop(black_box(f())))).1;
    (0..20).map(|_| round()).fold(f64::MAX, f64::min)
}

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Table 2: communication cost per operation (mean per op)",
    );
    let archive = fig.scale().pick(200_000, 20_000);
    let ops_n = fig.scale().pick(50usize, 10);
    fig.param("workers", WORKERS);
    fig.param("archive", archive);
    fig.param("ops", ops_n);
    let extent = square_extent(EXTENT_M);

    let stream = synthetic_stream(archive, extent, 600, 47);
    let run = |replication: usize| -> (Vec<Row>, u64) {
        let cluster = launch(lan_config(extent, WORKERS, replication));
        let mut rows = Vec::new();
        let mut mark = cluster.fabric_stats();
        let mut measure = |label: &str, exec_ops: &[&str], ops: usize, f: &mut dyn FnMut()| {
            let exec_before: Vec<_> = exec_ops
                .iter()
                .map(|name| op_stats(&cluster, name))
                .collect();
            f();
            let now = cluster.fabric_stats();
            let delta: FabricStats = now.since(&mark);
            mark = now;
            let mut latency = Vec::new();
            let (mut up, mut down) = (0u64, 0u64);
            for (name, before) in exec_ops.iter().zip(&exec_before) {
                let d = op_stats(&cluster, name).since(before);
                up += d.bytes_sent;
                down += d.bytes_received;
                latency.push(d.latency);
            }
            rows.push(Row {
                label: label.to_string(),
                msgs: delta.total_msgs as f64 / ops as f64,
                kb: delta.total_bytes as f64 / 1024.0 / ops as f64,
                exec_up_down: [up, down].map(|bytes| bytes as f64 / 1024.0 / ops as f64),
                latency,
            });
        };

        // An acked batch is one executor scatter, booked under two names.
        measure(
            "ingest (batch of 500)",
            &["ingest_seq", "replicate_seq"],
            (archive / 500).max(1),
            &mut || ingest_chunked(&cluster, &stream, 500),
        );

        let window = window_secs(600);
        let mut rng = StdRng::seed_from_u64(3);
        let mut coord = || rng.gen_range(0.0..EXTENT_M);
        let points: Vec<Point> = (0..ops_n).map(|_| Point::new(coord(), coord())).collect();
        measure("range 500 m", &["range"], ops_n, &mut || {
            for &p in &points {
                cluster
                    .range_query(BBox::around(p, 500.0), window)
                    .expect("range");
            }
        });
        measure(
            "kNN k=16 (pruned)",
            &["knn_phase1", "knn_phase2"],
            ops_n,
            &mut || {
                for &p in &points {
                    cluster.knn_query(p, window, 16).expect("knn");
                }
            },
        );
        measure(
            "kNN k=16 (broadcast)",
            &["knn_broadcast"],
            ops_n,
            &mut || {
                for &p in &points {
                    let broadcast = KnnOp::broadcast(p, window, 16);
                    cluster.query(broadcast, &QueryOpts::STRICT).expect("knn");
                }
            },
        );
        let buckets = GridSpec::covering(extent, EXTENT_M / 64.0);
        measure("heatmap 64×64 (partial)", &["heatmap"], ops_n, &mut || {
            for _ in 0..ops_n {
                cluster.heatmap(&buckets, window).expect("heatmap");
            }
        });
        measure("top-cells 64×64 k=16", &["top_cells"], ops_n, &mut || {
            for _ in 0..ops_n {
                cluster
                    .query(
                        TopCellsOp {
                            buckets,
                            window,
                            k: 16,
                        },
                        &QueryOpts::STRICT,
                    )
                    .expect("top_cells");
            }
        });
        measure(
            "register continuous",
            &["register_continuous"],
            ops_n,
            &mut || {
                for &p in &points {
                    cluster
                        .coordinator()
                        .register_continuous(Predicate::new(BBox::around(p, 250.0)))
                        .expect("register");
                }
            },
        );
        let max_response_bytes = cluster.fabric_stats().max_response_bytes;
        cluster.shutdown();
        (rows, max_response_bytes)
    };

    let (r0, max_resp_r0) = run(0);
    let (r2, max_resp_r2) = run(2);
    fig.table("rows")
        .col("operation", "operation", Fmt::Plain)
        .col("msgs (r=0)", "msgs_r0", Fmt::Fixed(1))
        .col("KB (r=0)", "kb_r0", Fmt::Fixed(1))
        .col("KB up/down (r=0)", "kb_up_down_r0", Fmt::Fixed(1))
        .col("p50/p95/p99 ms (r=0)", "latency_ms_r0", Fmt::Fixed(1))
        .col("msgs (r=2)", "msgs_r2", Fmt::Fixed(1))
        .col("KB (r=2)", "kb_r2", Fmt::Fixed(1));
    for (a, b) in r0.iter().zip(&r2) {
        fig.row(cells![
            a.label.as_str(),
            a.msgs,
            a.kb,
            a.exec_up_down,
            percentiles_ms(&a.latency),
            b.msgs,
            b.kb,
        ]);
    }
    // Paging: whole-extent full-row ranges over ever longer windows, on
    // one worker, so answers run from three pages to the whole archive.
    let cluster = launch(lan_config(extent, 1, 0));
    ingest_chunked(&cluster, &stream, 500);
    for i in 1..=ops_n as u64 {
        let window = window_secs(600 * i / ops_n as u64);
        cluster.range_query(extent, window).expect("range");
    }
    let pulls = cluster.stats().expect("stats").workers[0]
        .1
        .served_count("fetch_page");
    let pages = (pulls + ops_n as u64) as f64;
    let page_bytes = op_stats(&cluster, "range").bytes_received as f64 / pages;
    let fill = page_bytes / stcam::paging::PAGE_TARGET_BYTES as f64;
    let max_resp = max_resp_r0
        .max(max_resp_r2)
        .max(cluster.fabric_stats().max_response_bytes);
    cluster.shutdown();
    let page_max = stcam::paging::PAGE_MAX_BYTES as u64;
    // One full page frame, encoded then decoded, against a plain copy of it.
    let rows = Response::Observations(stream[..4_000].to_vec());
    let Reply::Pages(kind, payloads) = encode_reply(&rows) else {
        panic!("4 000 full rows fill more than one page");
    };
    let page = Response::ResultPage {
        cursor: 1,
        page: 0,
        pages: 2,
        kind,
        payload: payloads[0].clone(),
    };
    let frame = encode_to_vec(&page);
    let codec_ratio = fastest(|| decode_from_slice::<Response>(&encode_to_vec(black_box(&page))))
        / fastest(|| black_box(&frame).to_vec());
    fig.table("paging")
        .col("max response frame B", "max_response_bytes", Fmt::Plain)
        .col("page bound B", "page_max_bytes", Fmt::Plain)
        .col("pages per range", "pages_per_range", Fmt::Fixed(1))
        .col("mean page fill", "mean_page_fill", Fmt::Fixed(3))
        .col("page codec ÷ copy", "page_codec_over_copy", Fmt::Times(1));
    let per_range = pages / ops_n as f64;
    fig.row(cells![max_resp, page_max, per_range, fill, codec_ratio]);
    fig.note(
        "(r = replication factor; replication multiplies ingest traffic only.\n\
         KB up/down is the executor's request/result split — fabric totals also\n\
         include ingest routing and replica forwarding)",
    );
    fig.finish();

    // Paging must bound every response frame, page pulls included.
    assert!(
        max_resp <= page_max,
        "a {max_resp}-byte response frame escaped paging"
    );
    // Cutting by halving fills 50–100 % by luck of the size; one pass
    // sized from the bytes per row behind it fills every page but the last.
    assert!(fill >= 0.85, "pages are {fill:.3} full");
    assert!(codec_ratio <= 8.0, "page codec {codec_ratio:.1}x a copy");
    println!("gates: max response frame {max_resp} B (<= {page_max}), page fill {fill:.3} (>= 0.85), page codec {codec_ratio:.1}x a copy (<= 8) — ok");
}
