//! Figure 15 — acked ingest under lossy links.
//!
//! The headline for the reliable write path: with a uniform message drop
//! probability on **every** fabric link, a fixed stream is ingested
//! through the acknowledged path while the loss is active. The sweep
//! reports, per drop rate, how much of the stream was acknowledged
//! inline, the wall-clock and byte cost of the retransmissions, and —
//! after the links heal and `flush` drains anything still parked — the
//! durability audit: a strict full-range query must return every
//! observation the cluster ever acknowledged. The gate asserts exactly
//! that (zero acked loss) plus convergence (nothing unacked left behind
//! once the links are healthy), at every drop rate.
//!
//! Expected shape: acked throughput degrades gracefully with the drop
//! rate — when the measured retransmission timeout of an
//! `IngestSeq`/`ReplicateSeq` exchange runs out, about a millisecond
//! whatever the RPC timeout is (the last row runs at the default 5 s),
//! the sender probes; a worker the frame never reached bounces the probe
//! (`not held`) and gets the frame again, one that answered it replays
//! its stored answer (`replayed`).
//! `stall ms/drop` is that cost, (wall − lossless wall) ÷ dropped
//! frames. Bytes inflate by roughly the drop rate, and the audit column
//! stays at exactly zero lost — the acked contract is
//! loss-rate-independent.
//!
//! Each run first acknowledges a loss-free warm-up of [`WARM_CHUNKS`]
//! batches: a pair that has never been answered has no round trip to
//! estimate from and waits the whole timeout, by design.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig15_ingest_loss
//! ```
//!
//! The run asserts its gates: durability, and a stall of at most
//! [`MAX_STALL_MS_PER_DROP`] per dropped frame at 1 %.

use stcam_bench::{
    cells, lan_config, launch, square_extent, synthetic_stream, timed, window_secs, Figure, Fmt,
};

use std::time::Duration;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const REPLICATION: usize = 2;
/// Loss-free batches acknowledged before the links turn lossy.
const WARM_CHUNKS: usize = 10;
/// The gate on the 1 % row at the 100 ms timeout: a dropped frame that
/// waits out the timeout costs 103 ms, one re-sent after the old 10 ms
/// floor 10.5, one recovered by a probe after the 1 ms floor 1–3.
const MAX_STALL_MS_PER_DROP: f64 = 5.0;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 15: acked ingest under lossy links",
    );
    let stream_len = fig.scale().pick(20_000, 5_000);
    let chunk = fig.scale().pick(500, 250);
    fig.param("workers", WORKERS);
    fig.param("replication", REPLICATION);
    fig.param("observations", stream_len);
    fig.param("batch", chunk);

    let extent = square_extent(EXTENT_M);
    fig.table("rows")
        .col("drop", "drop", Fmt::Percent(0))
        .col("timeout ms", "rpc_timeout_ms", Fmt::Plain)
        .col("acked inline", "acked_inline", Fmt::Count)
        .col("wall s", "wall_s", Fmt::Fixed(2))
        .col("obs/s", "obs_per_s", Fmt::Fixed(0))
        .col("dropped", "dropped_frames", Fmt::Plain)
        .col("probes", "probes", Fmt::Plain)
        .col("not held", "not_held", Fmt::Plain)
        .col("replayed", "replayed", Fmt::Plain)
        .col("stall ms/drop", "stall_ms_per_drop", Fmt::Fixed(1))
        .col("bytes x", "bytes_ratio", Fmt::Times(2))
        .col("held after heal", "held_after_heal", Fmt::Count)
        .col("acked lost", "acked_lost", Fmt::Plain);
    let mut baseline_bytes = 0.0;
    let mut lossless_wall = 0.0;
    let warm_len = WARM_CHUNKS * chunk;

    // A lost message only surfaces when its sender stops waiting for the
    // answer; on the modelled LAN (sub-millisecond RTT) 100 ms is two
    // orders of magnitude of headroom. The last row keeps the default.
    let short = Some(Duration::from_millis(100));
    for (drop, rpc_timeout) in [(0.0f64, short), (0.01, short), (0.05, short), (0.01, None)] {
        let mut config = lan_config(extent, WORKERS, REPLICATION);
        if let Some(timeout) = rpc_timeout {
            config = config.with_rpc_timeout(timeout);
        }
        let timeout_ms = config.rpc_timeout.as_millis() as u64;
        let cluster = launch(config);
        let stream = synthetic_stream(warm_len + stream_len, extent, 600, 67);
        let (warm, stream) = stream.split_at(warm_len);
        for batch in warm.chunks(chunk) {
            cluster.ingest(batch.to_vec()).expect("warm-up ingest");
        }
        let before = cluster.fabric_stats();
        cluster.set_drop_probability(drop);

        // Acked ingest while the links are lossy: `accepted` certifies
        // owner + full replica set, so anything short of the chunk size
        // is parked in the sender, not lost.
        let (acked_inline, wall) = timed(|| {
            let mut acked = 0usize;
            for batch in stream.chunks(chunk) {
                acked += cluster.ingest(batch.to_vec()).expect("acked ingest");
            }
            acked
        });
        let lossy = cluster.fabric_stats().since(&before);
        let dropped = lossy.total_dropped;

        // Heal, then drain: flush is a write barrier over the parked
        // window, so on Ok the acked set is exactly the whole stream.
        cluster.set_drop_probability(0.0);
        cluster.flush().expect("flush after links healed");
        let held = cluster
            .range_query(extent.inflated(100.0), window_secs(10_000))
            .expect("durability audit")
            .len()
            - warm_len;
        let acked_lost = acked_inline.saturating_sub(held);

        let bytes = cluster.fabric_stats().since(&before).total_bytes as f64;
        if drop == 0.0 {
            baseline_bytes = bytes;
            lossless_wall = wall;
        }
        let bytes_x = bytes / baseline_bytes;
        let stall_ms_per_drop = (wall - lossless_wall).max(0.0) * 1e3 / dropped.max(1) as f64;
        fig.row(cells![
            drop,
            timeout_ms,
            acked_inline,
            wall,
            acked_inline as f64 / wall,
            dropped,
            lossy.total_probes,
            lossy.total_not_held,
            lossy.total_replayed,
            stall_ms_per_drop,
            bytes_x,
            held,
            acked_lost,
        ]);

        assert_eq!(
            acked_lost, 0,
            "acked-ingest contract violated at drop={drop}: {acked_lost} acked observations lost"
        );
        assert_eq!(
            held, stream_len,
            "convergence violated at drop={drop}: {held}/{stream_len} held after heal+flush"
        );
        assert!(
            drop != 0.01 || rpc_timeout.is_none() || stall_ms_per_drop <= MAX_STALL_MS_PER_DROP,
            "a dropped frame stalled its batch {stall_ms_per_drop:.1} ms at drop={drop}: \
             the write path is waiting out a floor or a timeout again"
        );
        cluster.shutdown();
    }
    fig.note(format!(
        "(uniform drop probability on every link while ingesting, after a loss-free\n\
         warm-up; `acked inline` is what the sender was told is durable before the\n\
         links healed; `probes` went out when a retransmission timeout ran out,\n\
         `not held` bounced back and brought the frame again, `replayed` brought\n\
         a lost answer again without executing it twice; `stall ms/drop` is\n\
         (wall - lossless wall) / dropped frames; the gates are zero acked loss,\n\
         full convergence once the links heal, and at most {MAX_STALL_MS_PER_DROP} ms\n\
         of stall per dropped frame at 1%)"
    ));
    fig.finish();
    println!("gates: zero acked loss at every drop rate, stall per drop within bound — ok");
}
