//! Figure 17 — multi-tenant overload: quotas, deadline scheduling, and
//! truthful load-shedding.
//!
//! A high-priority ("VIP") tenant runs a fixed query workload twice:
//! once on an idle cluster (the unloaded baseline), and once while a
//! bulk tenant floods the admission gate from a pool of closed-loop
//! threads at several times the cluster's measured query capacity. The
//! admission layer is what keeps the two runs comparable: the bulk
//! tenant's ops budget rejects most of the flood fast (with a
//! retry-after hint), the saturation gate sheds what it admits from
//! `Strict` to best-effort with a truthful `ShedReason`, and the VIP's
//! `High` priority exempts it from load-shedding entirely.
//!
//! In-run gates:
//!
//! * the bulk tenant's *offered* rate is ≥ 4× the measured cluster
//!   capacity (otherwise the run never exercised overload);
//! * the VIP's loaded p99 stays within 2× its unloaded baseline;
//! * 100% of degraded answers (both tenants) carry a truthful
//!   completeness account — a shed reason or a typed error, never a
//!   silently partial `Ok`;
//! * zero silent timeouts: every query resolves to a truthful `Ok` or a
//!   typed error.
//!
//! ```text
//! cargo run -p stcam-bench --release --bin fig17_tenant_overload
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stcam::{
    Cluster, Deadline, Priority, QueryCtx, QueryMode, QueryOpts, RangeOp, ShedReason, StcamError,
    TenantBudget, TenantId,
};
use stcam_bench::{
    cells, ingest_chunked, launch, square_extent, synthetic_stream, timed, window_secs, Figure, Fmt,
};
use stcam_geo::{BBox, Point};
use stcam_net::LinkModel;

const EXTENT_M: f64 = 8_000.0;
const WORKERS: usize = 8;
const VIP: TenantId = TenantId(1);
const BULK: TenantId = TenantId(2);
/// In-flight scatter width at which the gate saturates: two concurrent
/// 8-wide tenant queries. Low so the flood actually triggers shedding.
const SATURATION_WIDTH: usize = 2 * WORKERS;
/// Closed-loop bulk threads.
const FLOODERS: usize = 12;

/// Exact percentile from raw wall-clock samples (seconds).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Outcome tally of one tenant's queries during a phase.
#[derive(Default)]
struct Tally {
    ok_full: AtomicU64,
    ok_shed: AtomicU64,
    rejected: AtomicU64,
    typed_errors: AtomicU64,
    /// `Ok` answers that were incomplete with NO shed reason — silent
    /// degradation. The truthfulness gate requires this to stay zero.
    silent: AtomicU64,
}

impl Tally {
    fn book(&self, outcome: &Result<stcam::Degraded<Vec<stcam_camnet::Observation>>, StcamError>) {
        match outcome {
            Ok(d) if d.completeness.is_full() && d.completeness.shed.is_none() => {
                self.ok_full.fetch_add(1, Ordering::Relaxed)
            }
            Ok(d) if d.completeness.is_full() || d.completeness.shed.is_some() => {
                self.ok_shed.fetch_add(1, Ordering::Relaxed)
            }
            Ok(_) => self.silent.fetch_add(1, Ordering::Relaxed),
            Err(StcamError::AdmissionRejected { .. }) => {
                self.rejected.fetch_add(1, Ordering::Relaxed)
            }
            Err(StcamError::PartialFailure { .. } | StcamError::NoQuorum | StcamError::Net(_)) => {
                self.typed_errors.fetch_add(1, Ordering::Relaxed)
            }
            Err(e) => panic!("untyped (silent-timeout-class) failure: {e}"),
        };
    }

    fn total(&self) -> u64 {
        self.ok_full.load(Ordering::Relaxed)
            + self.ok_shed.load(Ordering::Relaxed)
            + self.rejected.load(Ordering::Relaxed)
            + self.typed_errors.load(Ordering::Relaxed)
            + self.silent.load(Ordering::Relaxed)
    }
}

/// The VIP workload: `ops` strict range queries around deterministic
/// random points, each with a real deadline and `High` priority.
/// Returns per-query wall-clock latencies in seconds.
fn vip_phase(cluster: &Cluster, ops: usize, seed: u64, tally: &Tally) -> Vec<f64> {
    let window = window_secs(600);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::with_capacity(ops);
    for _ in 0..ops {
        let p = Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M));
        let ctx = QueryCtx::new(VIP)
            .with_priority(Priority::High)
            .with_deadline(Deadline::within(Duration::from_secs(5)));
        let start = Instant::now();
        let out = cluster.query(
            RangeOp::new(BBox::around(p, 250.0), window),
            &QueryOpts {
                mode: QueryMode::Strict,
                ctx: Some(ctx),
            },
        );
        samples.push(start.elapsed().as_secs_f64());
        if let Ok(d) = &out {
            assert!(
                !matches!(d.completeness.shed, Some(ShedReason::Saturated)),
                "high-priority tenant was saturation-shed"
            );
        }
        tally.book(&out);
    }
    samples
}

/// One closed-loop bulk flooder: strict queries from the bulk tenant as
/// fast as the gate answers, until `stop` flips. Rejections honor the
/// gate's retry-after hint (capped so the offered rate stays several
/// times capacity) — the fast-reject contract only dampens overload if
/// clients actually back off on it.
fn bulk_flooder(cluster: &Cluster, seed: u64, stop: &AtomicBool, tally: &Tally) {
    let window = window_secs(600);
    let mut rng = StdRng::seed_from_u64(seed);
    while !stop.load(Ordering::Relaxed) {
        let p = Point::new(rng.gen_range(0.0..EXTENT_M), rng.gen_range(0.0..EXTENT_M));
        let ctx = QueryCtx::new(BULK).with_priority(Priority::Bulk);
        let out = cluster.query(
            RangeOp::new(BBox::around(p, 250.0), window),
            &QueryOpts {
                mode: QueryMode::Strict,
                ctx: Some(ctx),
            },
        );
        if let Err(StcamError::AdmissionRejected { retry_after_ms, .. }) = &out {
            // An impatient tenant: backs off, but at most 0.5 ms — enough
            // to keep the reject path from degenerating into a spin on
            // the admission lock, short enough that the offered rate
            // stays several times the cluster's capacity.
            let backoff = (*retry_after_ms * 1_000).min(500);
            std::thread::sleep(Duration::from_micros(backoff));
        }
        tally.book(&out);
    }
}

fn main() {
    let mut fig = Figure::new(env!("CARGO_BIN_NAME"), "Figure 17: multi-tenant overload");
    let archive = fig.scale().pick(10_000, 4_000);
    let ops = fig.scale().pick(120usize, 60);
    fig.param("workers", WORKERS);
    fig.param("archive", archive);
    fig.param("vip_ops_per_phase", ops);
    fig.param("bulk_flooders", FLOODERS);
    fig.param("saturation_width", SATURATION_WIDTH);

    let extent = square_extent(EXTENT_M);
    let cluster = launch(
        stcam::ClusterConfig::new(extent, WORKERS)
            .with_replication(1)
            .with_link(LinkModel::metro()),
    );
    let plane = cluster.query_plane();
    plane.admission().set_saturation_width(SATURATION_WIDTH);
    let stream = synthetic_stream(archive, extent, 600, 41);
    ingest_chunked(&cluster, &stream, 1_000);

    plane.admission().register(VIP, TenantBudget::unlimited());

    // Warmup: populate index snapshots, fault in code paths, settle the
    // scheduler — discarded, so a cold-start tail cannot skew the
    // baseline the overload phase is gated against.
    vip_phase(&cluster, ops.min(40), 3, &Tally::default());

    // Phase A — unloaded baseline: the VIP workload alone.
    let baseline_tally = Tally::default();
    let (mut baseline, baseline_wall) = timed(|| vip_phase(&cluster, ops, 7, &baseline_tally));
    baseline.sort_by(f64::total_cmp);
    let baseline_p99 = percentile(&baseline, 0.99);

    // Capacity calibration: `FLOODERS` concurrent unmetered VIP-class
    // clients — the cluster's saturated query throughput, which phase B's
    // offered bulk load must exceed 4×.
    let cal_tally = Tally::default();
    let cal_ops = (ops / 4).max(5);
    let ((), cal_wall) = timed(|| {
        std::thread::scope(|scope| {
            for t in 0..FLOODERS {
                let (cluster, cal_tally) = (&cluster, &cal_tally);
                scope.spawn(move || {
                    vip_phase(cluster, cal_ops, 100 + t as u64, cal_tally);
                });
            }
        });
    });
    let capacity = (FLOODERS * cal_ops) as f64 / cal_wall;

    // The bulk budget admits about a quarter of measured capacity as
    // real work; everything above it is rejected fast at the token
    // bucket, and admitted spikes are shed by the saturation gate.
    plane.admission().register(
        BULK,
        TenantBudget::unlimited().with_ops_per_sec(capacity / 4.0),
    );

    // Phase B — overload: bulk flood + the same VIP workload.
    let vip_tally = Tally::default();
    let bulk_tally = Tally::default();
    let stop = AtomicBool::new(false);
    let (mut loaded, loaded_wall) = std::thread::scope(|scope| {
        for t in 0..FLOODERS {
            let (cluster, stop, bulk_tally) = (&cluster, &stop, &bulk_tally);
            scope.spawn(move || bulk_flooder(cluster, 200 + t as u64, stop, bulk_tally));
        }
        let out = timed(|| vip_phase(&cluster, ops, 7, &vip_tally));
        stop.store(true, Ordering::Relaxed);
        out
    });
    loaded.sort_by(f64::total_cmp);
    let loaded_p99 = percentile(&loaded, 0.99);
    let offered = bulk_tally.total() as f64 / loaded_wall;
    let usage = plane.admission().usage(BULK);

    fig.table("phases")
        .col("phase", "phase", Fmt::Plain)
        .col("ops", "ops", Fmt::Plain)
        .col("wall s", "wall_s", Fmt::Fixed(2))
        .col("p50 ms", "p50_ms", Fmt::Fixed(1))
        .col("p95 ms", "p95_ms", Fmt::Fixed(1))
        .col("p99 ms", "p99_ms", Fmt::Fixed(1));
    for (name, samples, wall) in [
        ("baseline", &baseline, baseline_wall),
        ("overload", &loaded, loaded_wall),
    ] {
        fig.row(cells![
            name,
            samples.len(),
            wall,
            percentile(samples, 0.50) * 1e3,
            percentile(samples, 0.95) * 1e3,
            percentile(samples, 0.99) * 1e3,
        ]);
    }
    fig.table("outcomes")
        .col("tenant", "tenant", Fmt::Plain)
        .col("full", "ok_full", Fmt::Plain)
        .col("shed", "ok_shed", Fmt::Plain)
        .col("rejected", "rejected", Fmt::Plain)
        .col("typed errors", "typed_errors", Fmt::Plain)
        .col("silent", "silent", Fmt::Plain);
    for (who, t) in [
        ("baseline VIP", &baseline_tally),
        ("loaded VIP", &vip_tally),
        ("bulk", &bulk_tally),
    ] {
        let [full, shed, rejected, typed, silent] = [
            &t.ok_full,
            &t.ok_shed,
            &t.rejected,
            &t.typed_errors,
            &t.silent,
        ]
        .map(|n| n.load(Ordering::Relaxed));
        fig.row(cells![who, full, shed, rejected, typed, silent]);
    }
    let overload_factor = offered / capacity.max(1e-9);
    let p99_ratio = loaded_p99 / baseline_p99.max(1e-9);
    fig.table("overload")
        .col("capacity q/s", "capacity_qps", Fmt::Fixed(0))
        .col("bulk offered q/s", "bulk_offered_qps", Fmt::Fixed(0))
        .col("offered/capacity", "overload_factor", Fmt::Times(1))
        .col("VIP p99 loaded/baseline", "p99_ratio", Fmt::Times(2))
        .col("bulk bytes charged", "bulk_bytes_charged", Fmt::Count);
    fig.row(cells![
        capacity,
        offered,
        overload_factor,
        p99_ratio,
        usage.bytes_charged,
    ]);
    fig.finish();
    cluster.shutdown();

    assert!(
        offered >= 4.0 * capacity,
        "bulk tenant never overloaded the cluster: offered {offered:.0} q/s \
         < 4x capacity {capacity:.0} q/s"
    );
    // Truthfulness: zero silently degraded answers, either tenant,
    // either phase.
    for (who, t) in [
        ("baseline VIP", &baseline_tally),
        ("loaded VIP", &vip_tally),
        ("bulk", &bulk_tally),
    ] {
        assert_eq!(
            t.silent.load(Ordering::Relaxed),
            0,
            "{who}: degraded answers without a shed reason"
        );
    }
    // Deadline/priority isolation: the flood must not move the VIP's
    // tail by more than 2x (with a 2 ms floor so an idle-machine
    // microsecond baseline cannot fail the gate on noise).
    let bound = (2.0 * baseline_p99).max(baseline_p99 + 0.002);
    assert!(
        loaded_p99 <= bound,
        "VIP p99 regression under overload: {:.1} ms > bound {:.1} ms \
         (baseline {:.1} ms)",
        loaded_p99 * 1e3,
        bound * 1e3,
        baseline_p99 * 1e3
    );
    println!(
        "gates: offered {overload_factor:.1}x capacity (>= 4x), VIP p99 {p99_ratio:.2}x \
         baseline (<= 2x or +2 ms), 0 silent timeouts — ok"
    );
}
