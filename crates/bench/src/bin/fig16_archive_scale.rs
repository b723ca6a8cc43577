//! Figure 16 — archive scale: flat memory ceiling under the tiered
//! mutable-head + sealed-segment store.
//!
//! Sweeps the archive from 10⁶ to 10⁷ observations at a **constant
//! ingest rate** (so the mutable head holds a fixed-size working set
//! throughout) with segment spilling enabled, and shows that
//!
//! 1. peak resident memory stays flat as the archive grows 10× — closed
//!    slices are frozen into compressed columnar segments and their
//!    payloads spilled to disk, leaving only the head and the per-segment
//!    footers resident, and
//! 2. query latency over the sealed tier stays within small factors of
//!    the all-mutable baseline — the per-segment cell directory lets
//!    `range`/`knn`/`heatmap` read back only the blocks a query touches.
//!
//! The time-windowed query mix has scale-independent result sizes (fixed
//! window × constant rate), so latencies are comparable across scales.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig16_archive_scale
//! ```
//!
//! Gates: every scale's peak resident memory stays under
//! [`CEILING_FACTOR`] × the head's working set, at every size; the
//! sealed/mutable latency ratios are gated whenever the smallest archive
//! is at least [`DEEP_WINDOW_SECS`] long — below that the baseline's deep
//! windows hold less data than the larger scales' and the ratios compare
//! different volumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam_bench::{
    cells, square_extent, synthetic_stream, timed, Figure, Fmt, LatencyStats, Value,
};
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::{IndexConfig, StIndex, DEFAULT_HEAD_SLICES};

const EXTENT_M: f64 = 8_000.0;
const CELL_M: f64 = 400.0;
const SLICE_SECS: u64 = 60;
/// Constant ingest rate: 10⁶ observations ≙ 600 s of archive.
const RATE_OBS_PER_SEC: u64 = 1_667;
const CHUNK_SECS: u64 = 60;
const QUERIES: usize = 400;
/// Deep-history analytics window (count / heatmap / archival range):
/// spans many slices, so interior segments resolve from their footers.
const DEEP_WINDOW_SECS: u64 = 600;
/// Heat-map bucket edge: a multiple of the index cell size, so sealed
/// blocks of interior cells aggregate straight from footer counts.
const HEAT_BUCKET_M: f64 = 1_200.0;
/// Slack over the head's working set ([`DEFAULT_HEAD_SLICES`] slices of
/// rows at the all-mutable baseline's bytes per row): segment footers
/// stay resident and grow with the archive — 4 % at 10⁷ rows.
const CEILING_FACTOR: f64 = 1.25;

/// One scale's measurements.
struct ScaleRun {
    n: usize,
    insert_s: f64,
    peak_resident: usize,
    spilled_bytes: usize,
    sealed_segments: usize,
    mix: QueryMix,
}

/// Latencies of the query mix at one scale.
struct QueryMix {
    /// Materialising range over the most recent 60 s (head-resident).
    recent: LatencyStats,
    /// Materialising range over a deep 600 s window (decode-bound).
    range: LatencyStats,
    /// `range_count` of a cell-aligned zone over a slice-aligned deep
    /// window (footer-resolved).
    count: LatencyStats,
    /// kNN-16 over a random 60 s window.
    knn: LatencyStats,
    /// Whole-extent heat-map over a slice-aligned deep window
    /// (footer-resolved for interior cells).
    heatmap: LatencyStats,
    hits: usize,
}

/// Streams `n` observations at the constant rate into `index`,
/// chunk-by-chunk (the full stream is never materialised — the point of
/// the experiment is that the *index* does not hold it either), sampling
/// the resident gauge after every chunk. Returns (peak resident, insert
/// seconds).
fn ingest_constant_rate(index: &mut StIndex, n: usize, extent: BBox, seed: u64) -> (usize, f64) {
    let chunk_n = (RATE_OBS_PER_SEC * CHUNK_SECS) as usize;
    let mut peak = 0usize;
    let mut inserted = 0usize;
    let mut chunk_no = 0u64;
    let (_, insert_s) = timed(|| {
        while inserted < n {
            let take = chunk_n.min(n - inserted);
            let mut chunk = synthetic_stream(take, extent, CHUNK_SECS, seed + chunk_no);
            let base_ms = chunk_no * CHUNK_SECS * 1000;
            for o in &mut chunk {
                o.time = Timestamp::from_millis(o.time.as_millis() + base_ms);
            }
            index.insert_batch(chunk);
            inserted += take;
            chunk_no += 1;
            peak = peak.max(index.stats().resident_bytes);
        }
    });
    (peak, insert_s)
}

/// The query mix. Windows have fixed durations and the ingest rate is
/// constant, so per-query result sizes are independent of archive depth
/// and latencies are comparable across scales. Two horizons are probed:
/// the most recent 60 s (the mutable head in the tiered config) and deep
/// 600 s analytics windows at random offsets (sealed segments).
fn query(index: &StIndex, archive_secs: u64, seed: u64) -> QueryMix {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Point> = (0..QUERIES)
        .map(|_| Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M)))
        .collect();
    let deep: Vec<u64> = (0..QUERIES)
        .map(|_| rng.gen_range(0..archive_secs.saturating_sub(DEEP_WINDOW_SECS).max(1)))
        .collect();
    // Analytics (count / heatmap) windows align to slice boundaries, as a
    // per-minute dashboard would: every overlapped segment is then fully
    // covered in time and interior cells resolve from footer counts alone.
    let max_slice = archive_secs.saturating_sub(DEEP_WINDOW_SECS) / SLICE_SECS;
    let aligned: Vec<u64> = (0..QUERIES)
        .map(|_| rng.gen_range(0..=max_slice) * SLICE_SECS)
        .collect();
    // Count regions align to the index grid (district-style zones in the
    // interior), so sealed blocks are either fully inside or fully outside.
    let grid_cells = (EXTENT_M / CELL_M) as u64;
    let span_cells = (HEAT_BUCKET_M / CELL_M) as u64;
    let zones: Vec<BBox> = (0..QUERIES)
        .map(|_| {
            let gx = rng.gen_range(1..grid_cells - span_cells) as f64;
            let gy = rng.gen_range(1..grid_cells - span_cells) as f64;
            // Half-open on the far edges: the district covers its own
            // cells, not the boundary line of the next row/column.
            BBox::from_corners(
                Point::new(gx * CELL_M, gy * CELL_M),
                Point::new(
                    ((gx + span_cells as f64) * CELL_M).next_down(),
                    ((gy + span_cells as f64) * CELL_M).next_down(),
                ),
            )
        })
        .collect();
    let short: Vec<u64> = (0..QUERIES)
        .map(|_| rng.gen_range(0..archive_secs.saturating_sub(60).max(1)))
        .collect();
    let window = |t0: u64, secs: u64| {
        TimeInterval::new(Timestamp::from_secs(t0), Timestamp::from_secs(t0 + secs))
    };
    let recent_window = window(archive_secs.saturating_sub(60), 60);

    // The latencies of QUERIES runs of `probe(i)`, and the rows they saw.
    let time = |probe: &dyn Fn(usize) -> usize| {
        let (rows, samples): (Vec<usize>, Vec<f64>) =
            (0..QUERIES).map(|i| timed(|| probe(i))).unzip();
        (rows.iter().sum(), LatencyStats::from_samples(&samples))
    };
    let around = |i: usize| BBox::around(points[i], 250.0);
    let deep_window = |i: usize| window(deep[i], DEEP_WINDOW_SECS);
    let aligned_window = |i: usize| window(aligned[i], DEEP_WINDOW_SECS);
    let buckets = GridSpec::covering(square_extent(EXTENT_M), HEAT_BUCKET_M);
    let (_, recent) = time(&|i| index.range(around(i), recent_window).len());
    let (hits, range) = time(&|i| index.range(around(i), deep_window(i)).len());
    let (_, count) = time(&|i| index.range_count(zones[i], aligned_window(i)));
    let (_, knn) = time(&|i| index.knn(points[i], window(short[i], 60), 16).len());
    let (_, heatmap) = time(&|i| index.heatmap(&buckets, aligned_window(i)).len());
    QueryMix {
        recent,
        range,
        count,
        knn,
        heatmap,
        hits,
    }
}

fn run_scale(n: usize, spill_dir: &std::path::Path, sealing: bool) -> ScaleRun {
    let extent = square_extent(EXTENT_M);
    let archive_secs = n as u64 / RATE_OBS_PER_SEC + 1;
    let mut config = IndexConfig::new(extent, CELL_M, Duration::from_secs(SLICE_SECS));
    config = if sealing {
        config.with_spill_dir(spill_dir)
    } else {
        config.without_sealing()
    };
    let mut index = StIndex::new(config);
    let (peak_resident, insert_s) = ingest_constant_rate(&mut index, n, extent, 41);
    let stats = index.stats();
    let mix = query(&index, archive_secs, 97);
    ScaleRun {
        n,
        insert_s,
        peak_resident,
        spilled_bytes: stats.spilled_bytes,
        sealed_segments: stats.sealed_segments,
        mix,
    }
}

/// Opens a table of runs; [`ScaleRun::cells`] is one row of it.
fn run_table(fig: &mut Figure, name: &'static str) {
    fig.table(name)
        .col("archive", "archive", Fmt::Count)
        .col("insert Mobs/s", "insert_mobs_per_sec", Fmt::Fixed(2))
        .col("peak resident MB", "peak_resident_mb", Fmt::Fixed(1))
        .col("spilled MB", "spilled_mb", Fmt::Fixed(1))
        .col("segments", "sealed_segments", Fmt::Plain)
        .col("deep-range hits", "hits", Fmt::Plain)
        .col("recent ms", "recent_ms", Fmt::Fixed(2))
        .col("range ms (mean/p50/p95)", "range_ms", Fmt::Fixed(2))
        .col("count ms", "count_ms", Fmt::Fixed(2))
        .col("knn16 ms", "knn_ms", Fmt::Fixed(2))
        .col("heatmap ms", "heatmap_ms", Fmt::Fixed(2));
}

impl ScaleRun {
    fn cells(&self) -> Vec<Value> {
        cells![
            self.n,
            self.n as f64 / self.insert_s / 1e6,
            self.peak_resident as f64 / (1 << 20) as f64,
            self.spilled_bytes as f64 / (1 << 20) as f64,
            self.sealed_segments,
            self.mix.hits,
            self.mix.recent.ms(),
            self.mix.range.ms(),
            self.mix.count.ms(),
            self.mix.knn.ms(),
            self.mix.heatmap.ms(),
        ]
    }
}

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 16 (archive scale): sealed-segment store at a constant ingest rate",
    );
    let scales: &[usize] = fig
        .scale()
        .pick(&[1_000_000, 3_000_000, 10_000_000], &[100_000, 300_000]);
    fig.param("archives", scales.to_vec());
    fig.param("rate_obs_per_sec", RATE_OBS_PER_SEC);
    let spill_dir = std::env::temp_dir().join(format!("stcam-fig16-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("create spill dir");

    // The all-mutable baseline at the smallest scale anchors the latency
    // comparison; by construction (fixed window × constant rate) per-query
    // work does not grow with archive depth.
    let baseline = run_scale(scales[0], &spill_dir, false);
    run_table(&mut fig, "all_mutable_baseline");
    fig.row(baseline.cells());

    run_table(&mut fig, "sealed");
    let runs: Vec<ScaleRun> = scales
        .iter()
        .map(|&n| run_scale(n, &spill_dir, true))
        .collect();
    for run in &runs {
        fig.row(run.cells());
    }
    let _ = std::fs::remove_dir_all(&spill_dir);

    let first = &runs[0];
    let last = &runs[runs.len() - 1];
    let ratio = |of: fn(&QueryMix) -> &LatencyStats| of(&last.mix).mean / of(&baseline.mix).mean;
    let range_ratio = ratio(|m| &m.range);
    fig.table("largest_vs_baseline")
        .col("archive", "archive_growth", Fmt::Times(0))
        .col("peak resident", "resident_growth", Fmt::Times(2))
        .col("recent", "recent_latency_ratio", Fmt::Times(2))
        .col("range", "range_latency_ratio", Fmt::Times(2))
        .col("count", "count_latency_ratio", Fmt::Times(2))
        .col("knn", "knn_latency_ratio", Fmt::Times(2))
        .col("heatmap", "heatmap_latency_ratio", Fmt::Times(2));
    fig.row(cells![
        last.n as f64 / first.n as f64,
        last.peak_resident as f64 / first.peak_resident.max(1) as f64,
        ratio(|m| &m.recent),
        range_ratio,
        ratio(|m| &m.count),
        ratio(|m| &m.knn),
        ratio(|m| &m.heatmap),
    ]);
    fig.finish();

    // The memory ceiling: whatever the archive, what stays resident is
    // the head — the slices not yet sealed — plus footers.
    let bytes_per_row = baseline.peak_resident as f64 / baseline.n as f64;
    let head_rows = (DEFAULT_HEAD_SLICES as u64 * SLICE_SECS * RATE_OBS_PER_SEC) as f64;
    let ceiling = CEILING_FACTOR * head_rows * bytes_per_row;
    for run in &runs {
        assert!(
            run.peak_resident as f64 <= ceiling,
            "memory ceiling broken at {} rows: peak resident {} B > {ceiling:.0} B",
            run.n,
            run.peak_resident
        );
    }
    print!(
        "gates: peak resident ≤ {:.1} MB ({CEILING_FACTOR} × a {DEFAULT_HEAD_SLICES}-slice head) at every scale",
        ceiling / (1 << 20) as f64
    );
    let baseline_secs = scales[0] as u64 / RATE_OBS_PER_SEC + 1;
    if baseline_secs < DEEP_WINDOW_SECS {
        println!(
            "; latency ratios not gated: the {baseline_secs} s baseline archive is \
             shorter than the {DEEP_WINDOW_SECS} s deep window — ok"
        );
        return;
    }
    // 0.1 ms of absolute slack keeps timer noise on the microsecond-
    // scale probes (recent / count) from flaking the ratio gates.
    const SLACK_S: f64 = 1e-4;
    for (name, sealed, base) in [
        ("recent", last.mix.recent.mean, baseline.mix.recent.mean),
        ("count", last.mix.count.mean, baseline.mix.count.mean),
        ("knn", last.mix.knn.mean, baseline.mix.knn.mean),
        ("heatmap", last.mix.heatmap.mean, baseline.mix.heatmap.mean),
    ] {
        assert!(
            sealed <= 2.0 * base + SLACK_S,
            "sealed {name} latency ×{:.2} the all-mutable baseline (gate: 2×)",
            sealed / base,
        );
    }
    // Deep materialising range, the one decode-bound operation: 1.25 ×
    // the ×4.06 it measured with its scan split over two threads; a serial
    // scan measured ×3.9–6.8 (median ×5.8) and fails this in most runs.
    assert!(
        range_ratio <= 5.1,
        "sealed deep-range latency ×{range_ratio:.2} the all-mutable baseline (gate: 5.1×)"
    );
    println!(", recent/count/knn/heatmap ratios ≤ 2.0, deep range ×{range_ratio:.2} ≤ 5.1 — ok");
}
