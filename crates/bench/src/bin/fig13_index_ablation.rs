//! Figure 13 (ablation) — local index parameters: spatial cell size ×
//! temporal slice length × storage tier.
//!
//! The worker index's two knobs trade insert cost against query cost:
//! finer cells mean more buckets to manage but tighter range scans;
//! shorter slices mean finer retention/temporal pruning but more slice
//! structures. This sweep justifies the framework defaults (cell ≈
//! extent/80, slice 10 s) on the standard archive.
//!
//! Each configuration is measured twice — all-mutable and with closed
//! slices sealed into immutable columnar segments — so the table doubles
//! as the sealed-store ablation: what sealing costs (decode on
//! materialising scans) and what it buys (footer-resolved counts,
//! compressed residency) across the parameter grid.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig13_index_ablation
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam_bench::{cells, square_extent, synthetic_stream, timed, window_secs, Figure, Fmt};
use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
use stcam_index::{IndexConfig, StIndex};

const EXTENT_M: f64 = 8_000.0;

/// Per-tier measurements of one (cell, slice) configuration.
struct TierRun {
    insert_mobs: f64,
    range_ms: f64,
    trange_ms: f64,
    knn_ms: f64,
    resident_mb: f64,
}

fn measure(
    config: IndexConfig,
    stream: &[stcam_camnet::Observation],
    queries: usize,
    seed: u64,
) -> TierRun {
    let (index, insert_s) = timed(|| {
        let mut index = StIndex::new(config);
        index.insert_batch(stream.iter().cloned());
        index
    });

    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Point> = (0..queries)
        .map(|_| Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M)))
        .collect();
    let full_window = window_secs(600);

    let (_, range_s) = timed(|| {
        let mut total = 0usize;
        for &p in &points {
            total += index.range(BBox::around(p, 250.0), full_window).len();
        }
        total
    });
    // Temporally selective query: a 30 s window over a wide area
    // exercises slice pruning (and, sealed, footer counting).
    let (_, trange_s) = timed(|| {
        let mut total = 0usize;
        for (i, &p) in points.iter().enumerate() {
            let t0 = (i as u64 * 17) % 570;
            let window = TimeInterval::new(Timestamp::from_secs(t0), Timestamp::from_secs(t0 + 30));
            total += index.range_count(BBox::around(p, 1000.0), window);
        }
        total
    });
    let (_, knn_s) = timed(|| {
        let mut total = 0usize;
        for &p in &points {
            total += index.knn(p, full_window, 16).len();
        }
        total
    });
    TierRun {
        insert_mobs: stream.len() as f64 / insert_s / 1e6,
        range_ms: range_s * 1e3 / queries as f64,
        trange_ms: trange_s * 1e3 / queries as f64,
        knn_ms: knn_s * 1e3 / queries as f64,
        resident_mb: index.stats().resident_bytes as f64 / (1 << 20) as f64,
    }
}

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 13 (ablation): index cell size × slice length × tier\n\
         each measured cell: all-mutable / sealed-segment store",
    );
    let archive = fig.scale().pick(500_000, 50_000);
    let queries = fig.scale().pick(200usize, 50);
    fig.param("archive", archive);
    fig.param("queries", queries);
    let extent = square_extent(EXTENT_M);
    let mut stream = synthetic_stream(archive, extent, 600, 83);
    // Live ingest delivers observations in arrival ≈ timestamp order;
    // slice-close events (which drive sealing) depend on it.
    stream.sort_by_key(|o| o.time);
    fig.table("rows")
        .col("cell m", "cell_m", Fmt::Plain)
        .col("slice s", "slice_secs", Fmt::Plain)
        .col("insert Mobs/s", "insert_mobs_per_sec", Fmt::Fixed(2))
        .col("range 500 m ms", "range_ms", Fmt::Fixed(3))
        .col("count 30 s ms", "count_30s_ms", Fmt::Fixed(3))
        .col("knn16 ms", "knn_ms", Fmt::Fixed(3))
        .col("resident MB", "resident_mb", Fmt::Fixed(1));

    for cell_size in [25.0f64, 100.0, 400.0, 1600.0] {
        for slice_secs in [1u64, 10, 100] {
            let seed = (cell_size as u64) ^ slice_secs;
            let config = IndexConfig::new(extent, cell_size, Duration::from_secs(slice_secs));
            let mutable = measure(config.clone().without_sealing(), &stream, queries, seed);
            let sealed = measure(config, &stream, queries, seed);
            fig.row(cells![
                cell_size,
                slice_secs,
                [mutable.insert_mobs, sealed.insert_mobs],
                [mutable.range_ms, sealed.range_ms],
                [mutable.trange_ms, sealed.trange_ms],
                [mutable.knn_ms, sealed.knn_ms],
                [mutable.resident_mb, sealed.resident_mb],
            ]);
        }
    }
    fig.note("(framework default: cell = extent/80 = 100 m, slice = 10 s)");
    fig.finish();
}
