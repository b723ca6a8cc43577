//! Figure 4 — ingest throughput vs worker count, against the centralized
//! baseline.
//!
//! The stream arrives through four parallel edge ingestors (camera
//! aggregation points holding the partition map), mirroring a real
//! deployment where the coordinator is not on the ingest path.
//!
//! **Metric.** This harness may run on a host with fewer cores than the
//! modelled cluster has machines, where wall-clock cannot show parallel
//! speedup. The primary metric is therefore the *critical path*: the
//! busiest shard's measured busy time, which is what bounds sustained
//! throughput when every worker is its own machine. Wall-clock time is
//! reported alongside for transparency.
//!
//! Expected shape: the busiest shard's busy time falls roughly linearly
//! with worker count (shards shrink), so critical-path throughput rises
//! near-linearly and overtakes the single-node baseline immediately.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig4_ingest_scaling
//! ```

use stcam_bench::{
    cells, lan_config, launch, max_shard_busy_secs, square_extent, synthetic_stream, timed, Figure,
    Fmt,
};
use stcam_geo::Duration;
use stcam_index::{IndexConfig, StIndex};

const BATCH: usize = 500;
const SOURCES: usize = 4;
const EXTENT_M: f64 = 8_000.0;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 4: ingest throughput vs workers",
    );
    let stream_len = fig.scale().pick(400_000, 40_000);
    fig.param("observations", stream_len);
    fig.param("edge_sources", SOURCES);
    fig.param("batch", BATCH);
    let extent = square_extent(EXTENT_M);
    let stream = synthetic_stream(stream_len, extent, 600, 7);
    fig.table("rows")
        .col("system", "system", Fmt::Plain)
        .col("workers", "workers", Fmt::Plain)
        .col("wall s", "wall_s", Fmt::Fixed(2))
        .col("max-shard busy s", "max_shard_busy_s", Fmt::Fixed(2))
        .col("critical-path obs/s", "critical_path_obs_per_s", Fmt::Count)
        .col("scale-up", "scale_up", Fmt::Times(2));

    // Centralized baseline: same index, no network, one thread. Its busy
    // time IS its wall time.
    let index_config = IndexConfig::new(extent, 100.0, Duration::from_secs(10));
    let (_, base_busy) = timed(|| {
        let mut store = StIndex::new(index_config.clone());
        for chunk in stream.chunks(BATCH) {
            store.insert_batch(chunk.to_vec());
        }
        store
    });
    let base_rate = stream_len as f64 / base_busy;
    fig.row(cells![
        "centralized",
        1usize,
        base_busy,
        base_busy,
        base_rate,
        1.0
    ]);

    // Split the stream across the edge sources once, up front.
    let shares: Vec<Vec<_>> = (0..SOURCES)
        .map(|s| stream.iter().skip(s).step_by(SOURCES).cloned().collect())
        .collect();

    for workers in [1usize, 2, 4, 8, 16] {
        let cluster = launch(lan_config(extent, workers, 0));
        let ingestors: Vec<_> = (0..SOURCES).map(|_| cluster.create_ingestor()).collect();
        let (_, wall) = timed(|| {
            std::thread::scope(|scope| {
                for (ingestor, share) in ingestors.iter().zip(&shares) {
                    scope.spawn(move || {
                        for chunk in share.chunks(BATCH) {
                            ingestor.ingest(chunk.to_vec()).expect("ingest");
                        }
                        ingestor.flush().expect("flush");
                    });
                }
            });
        });
        let stats = cluster.stats().expect("stats");
        assert_eq!(
            stats.total_primary(),
            stream_len as u64,
            "observations lost"
        );
        let max_busy = max_shard_busy_secs(&stats);
        let critical_rate = stream_len as f64 / max_busy.max(1e-9);
        fig.row(cells![
            "distributed",
            workers,
            wall,
            max_busy,
            critical_rate,
            critical_rate / base_rate,
        ]);
        cluster.shutdown();
    }
    fig.note(
        "notes: critical path = busiest shard's busy time (the throughput bound when\n\
         each worker is its own machine); wall-clock on this host is core-limited.\n\
         replication 0; see tab3_recovery for the replication cost.",
    );
    fig.finish();
}
