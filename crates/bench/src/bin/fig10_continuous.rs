//! Figure 10 — continuous-query cost vs number of standing queries.
//!
//! Registers 10–5 000 geo-fence predicates, streams a fixed workload, and
//! measures the ingest critical path (per-observation worker busy time)
//! and the matches, which ride the replies that ack the batches (gate:
//! they equal the (row, fence) pairs a scan of the stream finds). Per-obs
//! cost grows linearly with the standing queries a worker evaluates, so
//! each predicate registers only at workers whose shards overlap it: for
//! local predicates that divides the count by the cluster size.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig10_continuous
//! ```

use std::time::Duration as StdDuration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::{ClusterStats, Predicate};
use stcam_bench::{
    cells, ingest_chunked, lan_config, launch, square_extent, synthetic_stream, timed, Figure, Fmt,
};
use stcam_geo::{BBox, Point};

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const FENCE_RADIUS: f64 = 250.0;

fn main() {
    let mut fig = Figure::new(
        env!("CARGO_BIN_NAME"),
        "Figure 10: continuous-query cost vs standing queries",
    );
    let stream_len = fig.scale().pick(50_000, 10_000);
    fig.param("observations", stream_len);
    fig.param("workers", WORKERS);
    fig.param("fence_radius_m", FENCE_RADIUS);
    let extent = square_extent(EXTENT_M);
    let stream = synthetic_stream(stream_len, extent, 600, 41);
    fig.table("rows")
        .col("queries", "queries", Fmt::Plain)
        .col("ingest wall s", "ingest_wall_s", Fmt::Fixed(2))
        .col(
            "ingest busy µs/obs",
            "ingest_busy_us_per_obs",
            Fmt::Fixed(2),
        )
        .col("notifications", "notifications", Fmt::Plain)
        .col("matches", "matches", Fmt::Count)
        .col("expected", "expected", Fmt::Count)
        .col("queries/worker", "queries_per_worker", Fmt::Fixed(1));

    for count in [0usize, 10, 100, 1_000, 5_000] {
        let cluster = launch(lan_config(extent, WORKERS, 0));
        let mut rng = StdRng::seed_from_u64(count as u64 + 1);
        for _ in 0..count {
            let center = Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M));
            cluster
                .coordinator()
                .register_continuous(Predicate::new(BBox::around(center, FENCE_RADIUS)))
                .expect("register");
        }
        let in_fence = |(_, f): &(_, Predicate)| {
            stream
                .iter()
                .filter(|o| f.matches(o.position, o.class))
                .count()
        };
        let fences = cluster.coordinator().registrations();
        let expected: usize = fences.iter().map(in_fence).sum();
        // Busy time is summed over workers, per observation.
        let before = cluster.stats().expect("stats");
        let registered = before.workers.iter().map(|(_, s)| s.continuous_queries);
        let per_worker = registered.sum::<u64>() as f64 / before.workers.len() as f64;
        let busy = |s: &ClusterStats| s.workers.iter().map(|(_, w)| w.busy_micros).sum::<u64>();
        let ((), wall) = timed(|| ingest_chunked(&cluster, &stream, 500));
        let after = cluster.stats().expect("stats");
        let notifications = after.workers.iter().map(|(_, s)| s.notifications_sent);
        let delivered = cluster.poll_notifications(StdDuration::ZERO);
        let matches: usize = delivered.iter().map(|n| n.matches.len()).sum();
        fig.row(cells![
            count,
            wall,
            (busy(&after) - busy(&before)) as f64 / stream_len as f64,
            notifications.sum::<u64>(),
            matches,
            expected,
            per_worker,
        ]);
        assert_eq!(matches, expected, "{count} queries: matches delivered");
        cluster.shutdown();
    }
    fig.finish();
    println!("gates: every match delivered, once — ok");
}
