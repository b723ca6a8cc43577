//! The four workloads, the phases that run them, and the end-to-end
//! metrics those phases yield.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{self, Answer};
use crate::gen::{Kind, Queries, Query, Reads, Row, Stream, Windows};
use crate::stats::{median, quantile_of};
use crate::sut::{self, Batch, Sut, Traffic, WorkerCounters};
use crate::trace::Recorder;

/// Observations per `Cluster::ingest` call.
pub const BATCH: usize = 500;
/// Every run warms a fresh cluster with this much before anything is
/// timed; the cost is part of `setup_s`.
const WARM_OBS: usize = 100_000;
const WARM_QUERIES: usize = 200;
/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 3;
/// Loss rate of every link during the timed phases of `stream_lossy`.
const DROP_PROBABILITY: f64 = 0.01;
/// Every n-th read is kept and compared with the oracle.
const CHECK_EVERY: usize = 50;
/// `--quick` divides every row count and the run length by this.
const QUICK_DIVISOR: usize = 20;

/// How a run's seconds are spent. Reads are always one closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    /// Closed-loop writes at full speed for half the run, then reads for
    /// the other half.
    Halves,
    /// Closed-loop writes until this many rows are in, then reads for what
    /// is left of the run and at least half of it.
    RowsThenReads(usize),
    /// Closed-loop writes of `rows` rows per second of run length, then
    /// `reads` reads per second of run length: sized, at the commit that
    /// added the benchmark, to take the run length. Counted, not timed,
    /// because the fabric draws its drops from one seeded sequence: only a
    /// fixed number of messages meets a repeatable number of timeouts.
    Counted { rows: usize, reads: usize },
    /// Open-loop writes at this many observations per second for the whole
    /// run, beside the reads.
    PacedBesideReads(usize),
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    lossy: bool,
    skewed: bool,
    /// Rows loaded during set-up, before the warm-up.
    preload: usize,
    plan: Plan,
    reads: Reads,
}

use Kind::{Heatmap as H, Knn as K, Range as R};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stream_clean",
        why: "full-speed acked ingest, then point reads on a quiet cluster: the write path does \
              the first phase, fixed per-query cost the second",
        lossy: false,
        skewed: false,
        preload: 0,
        plan: Plan::Halves,
        reads: Reads {
            mix: &[R, K, R, H],
            half: 100.0,
            windows: Windows::Recent,
        },
    },
    Workload {
        name: "stream_lossy",
        why: "the same two phases with 1% of frames dropped on every link: retransmission \
              timeouts and read retries do most of the waiting, which stream_clean bypasses",
        lossy: true,
        skewed: false,
        preload: 0,
        plan: Plan::Counted {
            rows: 12_000,
            reads: 200,
        },
        reads: Reads {
            mix: &[R, K, R, H],
            half: 100.0,
            windows: Windows::Recent,
        },
    },
    Workload {
        name: "archive_scan",
        why: "700 m ranges and kNNs over the full window of a sealed archive: block decode, \
              response encode, paging and merge dominate and fixed per-query cost vanishes",
        lossy: false,
        skewed: false,
        preload: 0,
        plan: Plan::RowsThenReads(2_400_000),
        reads: Reads {
            mix: &[R, K, H],
            half: 350.0,
            windows: Windows::Full,
        },
    },
    Workload {
        name: "live_mixed",
        why: "a paced open-loop writer beside a closed-loop reader on a hotspot: control lane \
              against read pool, snapshot invalidation, seal stalls, skewed partitions",
        lossy: false,
        skewed: true,
        preload: 500_000,
        plan: Plan::PacedBesideReads(50_000),
        reads: Reads {
            mix: &[R, R, R, K, R, R, R, H],
            half: 100.0,
            windows: Windows::Anywhere,
        },
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// One acknowledged (or failed) ingest call.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    pub obs: usize,
    /// From when the batch was due (open loop) or sent (closed loop)
    /// until `Cluster::ingest` returned.
    pub secs: f64,
    /// How long after it was due the batch was sent; 0 in a closed loop.
    pub late_secs: f64,
    pub ok: bool,
    /// Root span of the call in a traced run, else 0.
    pub span: u32,
}

/// One read.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub query: Query,
    /// When the call was made, since the read phase began.
    pub at_secs: f64,
    pub secs: f64,
    pub rows: usize,
    pub ok: bool,
    /// Root span of the call when it was recorded, else 0.
    pub span: u32,
}

/// A kept read, to be compared with the oracle after the phase.
struct Sample {
    query: Query,
    answer: Answer,
    /// Rows acknowledged when the read was issued.
    visible: usize,
}

/// The system's counters at a phase boundary.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub traffic: Traffic,
    pub workers: Vec<WorkerCounters>,
}

/// Everything one run observed, from which both kinds of metric are made.
pub struct Measured<'a> {
    pub workload: &'a Workload,
    /// Every row sent, in order; `rows[timed_from..]` went in while timing.
    pub rows: Vec<Row>,
    pub timed_from: usize,
    pub acks: Vec<Ack>,
    pub reads: Vec<Read>,
    pub flush_secs: f64,
    pub setup_secs: Vec<f64>,
    pub before: Snapshot,
    /// Between the write and the read phase; `None` when they overlap.
    pub between: Option<Snapshot>,
    pub after: Snapshot,
    pub write_wall_secs: f64,
    pub read_wall_secs: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn take_batches(stream: &mut Stream, rows: &mut Vec<Row>, count: usize) -> VecDeque<Batch> {
    let fresh = stream.take(count * BATCH);
    let batches = fresh.chunks(BATCH).map(sut::batch).collect();
    rows.extend(fresh);
    batches
}

/// Launches a cluster and brings it to the state the timed phases start
/// from, [`SETUPS`] times over; returns the last cluster and every time.
fn set_up(w: &Workload, opts: &Opts, prefix: &[Row]) -> Result<(Sut, Vec<f64>), String> {
    let warm_queries = if opts.quick { 10 } else { WARM_QUERIES };
    let now_ms = prefix.last().map_or(0, Row::time_ms);
    let mut secs = Vec::new();
    let mut kept: Option<Sut> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.shutdown();
        }
        let batches: Vec<Batch> = prefix.chunks(BATCH).map(sut::batch).collect();
        let mut queries = Queries::new(opts.seed.wrapping_add(1), w.reads);
        let start = Instant::now();
        let sut = Sut::launch(w.lossy)?;
        for batch in batches {
            let sent = batch.len();
            let accepted = sut.ingest(batch)?;
            if accepted != sent {
                return Err(format!("set-up: {accepted} of {sent} rows acknowledged"));
            }
        }
        sut.flush()?;
        for _ in 0..warm_queries {
            sut.query(&queries.next(now_ms))?;
        }
        secs.push(start.elapsed().as_secs_f64());
        kept = Some(sut);
    }
    Ok((kept.expect("SETUPS is at least one"), secs))
}

/// When a closed loop stops: at a time, or after so many rows or reads.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Count(usize),
}

/// One closed-loop client ingesting at full speed. Batches are generated
/// a hundred at a time between calls, so the generator's own cost is in
/// the phase's wall time but in no acknowledgement.
fn write_closed(
    sut: &Sut,
    stream: &mut Stream,
    rows: &mut Vec<Row>,
    until: Until,
    recorder: &mut Recorder,
) -> Vec<Ack> {
    let mut acks = Vec::new();
    let mut pending = VecDeque::new();
    let timed_from = rows.len();
    loop {
        match until {
            Until::Deadline(deadline) if Instant::now() >= deadline => break,
            Until::Count(target) if rows.len() - timed_from >= target && pending.is_empty() => {
                break
            }
            _ => {}
        }
        if pending.is_empty() {
            let count = match until {
                Until::Count(target) => (target - (rows.len() - timed_from))
                    .div_ceil(BATCH)
                    .min(100),
                Until::Deadline(_) => 100,
            };
            pending = take_batches(stream, rows, count);
        }
        let batch = pending.pop_front().expect("refilled above");
        let obs = batch.len();
        let sent = Instant::now();
        let result = sut.ingest(batch);
        let done = Instant::now();
        acks.push(Ack {
            obs,
            secs: (done - sent).as_secs_f64(),
            late_secs: 0.0,
            ok: result == Ok(obs),
            span: recorder.root("op.ingest", sent, done, acks.len() as u64),
        });
    }
    // Rows generated for batches the deadline cut off were never sent.
    rows.truncate(rows.len() - pending.iter().map(Vec::len).sum::<usize>());
    acks
}

/// One open-loop client sending a batch every `BATCH / rate` seconds,
/// whether or not the previous one was fast. Each acknowledgement is
/// timed from when its batch was due, so a stall is charged to every
/// batch that had to wait behind it.
fn write_paced(
    sut: &Sut,
    stream: &mut Stream,
    rate: usize,
    deadline: Instant,
    acked_rows: &AtomicUsize,
    recorder: &mut Recorder,
) -> (Vec<Row>, Vec<Ack>) {
    let period = Duration::from_secs_f64(BATCH as f64 / rate as f64);
    let start = Instant::now();
    let mut rows = Vec::new();
    let mut acks = Vec::new();
    loop {
        let due = start + period * acks.len() as u32;
        if due >= deadline {
            return (rows, acks);
        }
        let fresh = stream.take(BATCH);
        let batch = sut::batch(&fresh);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        let result = sut.ingest(batch);
        let done = Instant::now();
        let ok = result == Ok(BATCH);
        rows.extend(fresh);
        if ok {
            acked_rows.fetch_add(BATCH, Ordering::Release);
        }
        acks.push(Ack {
            obs: BATCH,
            secs: (done - due).as_secs_f64(),
            late_secs: (sent - due).as_secs_f64(),
            ok,
            span: recorder.root("op.ingest", sent, done, acks.len() as u64),
        });
    }
}

/// One closed-loop reader. `visible` says how many rows of the stream are
/// acknowledged, which anchors the next query's window and, for a kept
/// read, what the oracle scans.
fn read_closed(
    sut: &Sut,
    queries: &mut Queries,
    until: Until,
    visible: impl Fn() -> usize,
    recorder: &mut Recorder,
) -> (Vec<Read>, Vec<Sample>, Vec<String>) {
    let (mut reads, mut samples, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while match until {
        Until::Deadline(deadline) => Instant::now() < deadline,
        Until::Count(target) => reads.len() < target,
    } {
        let seen = visible();
        let newest_ms = seen.saturating_sub(1) as u64 * 1000 / crate::gen::OBS_PER_STREAM_SEC;
        let query = queries.next(newest_ms);
        let sent = Instant::now();
        let result = sut.query(&query);
        let done = Instant::now();
        // Recording skips every other cycle of the mix, so a traced run
        // holds its own untraced control for `trace.overhead_share`.
        let span = if (reads.len() / queries.cycle()).is_multiple_of(2) {
            let name = match query.kind {
                Kind::Range => "op.range",
                Kind::Knn => "op.knn",
                Kind::Heatmap => "op.heatmap",
            };
            recorder.root(name, sent, done, (1 << 32) | reads.len() as u64)
        } else {
            0
        };
        let mut read = Read {
            query,
            at_secs: (sent - start).as_secs_f64(),
            secs: (done - sent).as_secs_f64(),
            rows: 0,
            ok: false,
            span,
        };
        match result {
            Ok(reply) => {
                read.ok = true;
                read.rows = reply.rows();
                if reads.len().is_multiple_of(CHECK_EVERY) {
                    samples.push(Sample {
                        query,
                        answer: reply.answer(&query),
                        visible: seen,
                    });
                }
            }
            Err(e) => failures.push(format!("{} failed: {e}", query.kind.name())),
        }
        reads.push(read);
    }
    (reads, samples, failures)
}

/// Reads the counters with loss switched off, then switches it on if
/// `resume_loss`. Counters travel the same links: a lost `Stats` frame
/// would cost a timeout and, worse, shift every later frame's place in
/// the fabric's seeded drop sequence.
fn snapshot(sut: &Sut, resume_loss: bool) -> Result<Snapshot, String> {
    sut.set_drop_probability(0.0);
    let traffic = sut.traffic();
    let workers = sut.workers()?;
    if resume_loss {
        sut.set_drop_probability(DROP_PROBABILITY);
    }
    Ok(Snapshot { traffic, workers })
}

/// The write barrier, timed; returns its seconds.
fn flush(sut: &Sut, recorder: &mut Recorder, failures: &mut Vec<String>) -> f64 {
    let start = Instant::now();
    if let Err(e) = sut.flush() {
        failures.push(format!("flush failed: {e}"));
    }
    let end = Instant::now();
    recorder.root("op.flush", start, end, 0);
    (end - start).as_secs_f64()
}

/// Runs `w` once.
pub fn run<'a>(
    w: &'a Workload,
    opts: &Opts,
    recorder: &mut Recorder,
) -> Result<(Measured<'a>, Sut), String> {
    let scale = if opts.quick { QUICK_DIVISOR } else { 1 };
    let mut stream = if w.skewed {
        Stream::skewed(opts.seed)
    } else {
        Stream::uniform(opts.seed)
    };
    let mut rows = stream.take((w.preload + WARM_OBS) / scale);
    let (sut, setup_secs) = set_up(w, opts, &rows)?;
    let timed_from = rows.len();
    let mut queries = Queries::new(opts.seed, w.reads);
    let run_time = Duration::from_secs_f64(opts.seconds);

    let before = snapshot(&sut, w.lossy)?;
    let mut between = None;
    let mut failures = Vec::new();
    let flush_secs;
    let start = Instant::now();
    let (acks, write_wall_secs, reads, samples, read_wall_secs);
    if let Plan::PacedBesideReads(rate) = w.plan {
        let deadline = start + run_time;
        let acked_rows = AtomicUsize::new(rows.len());
        let mut writer_spans = recorder.sibling();
        let (written, read) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                write_paced(
                    &sut,
                    &mut stream,
                    rate,
                    deadline,
                    &acked_rows,
                    &mut writer_spans,
                )
            });
            let visible = || acked_rows.load(Ordering::Acquire);
            let read = read_closed(
                &sut,
                &mut queries,
                Until::Deadline(deadline),
                visible,
                recorder,
            );
            (writer.join().expect("the writer does not panic"), read)
        });
        recorder.absorb(writer_spans);
        rows.extend(written.0);
        acks = written.1;
        (reads, samples) = (read.0, read.1);
        failures.extend(read.2);
        write_wall_secs = start.elapsed().as_secs_f64();
        read_wall_secs = write_wall_secs;
        flush_secs = flush(&sut, recorder, &mut failures);
    } else {
        let per_run = |per_second: usize| (per_second as f64 * opts.seconds) as usize;
        let until = match w.plan {
            Plan::RowsThenReads(rows) => Until::Count(rows / scale),
            Plan::Counted { rows, .. } => Until::Count(per_run(rows)),
            _ => Until::Deadline(start + run_time / 2),
        };
        acks = write_closed(&sut, &mut stream, &mut rows, until, recorder);
        flush_secs = flush(&sut, recorder, &mut failures);
        write_wall_secs = start.elapsed().as_secs_f64();
        between = Some(snapshot(&sut, w.lossy)?);

        let reading = Instant::now();
        let until = match w.plan {
            Plan::Counted { reads, .. } => Until::Count(per_run(reads)),
            _ => Until::Deadline(
                reading + (run_time / 2).max(run_time.saturating_sub(reading - start)),
            ),
        };
        let visible = rows.len();
        let read = read_closed(&sut, &mut queries, until, || visible, recorder);
        (reads, samples) = (read.0, read.1);
        failures.extend(read.2);
        read_wall_secs = reading.elapsed().as_secs_f64();
    }
    let after = snapshot(&sut, false)?;

    // Every acknowledged row is held, once, as primary.
    let sent: usize = acks.iter().map(|a| a.obs).sum();
    failures.extend(
        acks.iter()
            .filter(|a| !a.ok)
            .map(|a| format!("ingest of {} rows failed or was acknowledged short", a.obs)),
    );
    let held: u64 = after.workers.iter().map(|wk| wk.primary_rows).sum();
    if held != rows.len() as u64 {
        failures.push(format!(
            "{held} rows held as primary after flush, {} sent",
            rows.len()
        ));
    }
    debug_assert_eq!(timed_from + sent, rows.len());
    for sample in &samples {
        let expected = check::expected(&rows[..sample.visible], &sample.query);
        if expected != sample.answer {
            failures.push(format!("wrong answer to {:?}", sample.query));
        }
    }

    let attempted = (acks.len() + reads.len()) as u64 + 1;
    let measured = Measured {
        workload: w,
        rows,
        timed_from,
        acks,
        reads,
        flush_secs,
        setup_secs,
        before,
        between,
        after,
        write_wall_secs,
        read_wall_secs,
        attempted,
        failures,
    };
    Ok((measured, sut))
}

impl Measured<'_> {
    pub fn secs_of(&self, kind: Kind) -> Vec<f64> {
        self.reads
            .iter()
            .filter(|r| r.query.kind == kind)
            .map(|r| r.secs)
            .collect()
    }

    pub fn acked_obs(&self) -> f64 {
        self.acks
            .iter()
            .filter(|a| a.ok)
            .map(|a| a.obs as f64)
            .sum()
    }

    /// Rows a range call returns per second of the call, at the median
    /// over the calls that returned any. Typical, not total: under loss the
    /// total is mostly retries, which `query_ops_per_s` already reports.
    pub fn rows_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .reads
            .iter()
            .filter(|r| r.query.kind == Kind::Range && r.rows > 0)
            .map(|r| r.rows as f64 / r.secs)
            .collect();
        median(&rates)
    }

    /// Bytes the fabric carried for reads between the two outer
    /// snapshots, by the executor's own account.
    pub fn read_bytes(&self) -> f64 {
        let of = |s: &Snapshot| -> u64 {
            s.traffic
                .ops
                .iter()
                .map(|o| o.bytes_up + o.bytes_down)
                .sum()
        };
        (of(&self.after) - of(&self.before)) as f64
    }

    /// Everything else the fabric carried: the write path.
    pub fn write_bytes(&self) -> f64 {
        (self.after.traffic.bytes - self.before.traffic.bytes) as f64 - self.read_bytes()
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ack_secs: Vec<f64> = self.acks.iter().map(|a| a.secs).collect();
        let range_secs = self.secs_of(Kind::Range);
        let ingest_secs = match self.workload.plan {
            // Paced: what was achieved of what was offered.
            Plan::PacedBesideReads(_) => self.write_wall_secs,
            // Closed loop: time inside the calls, the barrier included.
            _ => ack_secs.iter().sum::<f64>() + self.flush_secs,
        };
        let held: u64 = self.after.workers.iter().map(|w| w.primary_rows).sum();
        let resident: u64 = self.after.workers.iter().map(|w| w.resident_bytes).sum();
        let read_secs: f64 = self.reads.iter().map(|r| r.secs).sum();
        vec![
            Metric::new("setup_s", median(&self.setup_secs), "s"),
            Metric::new("ingest_obs_per_s", self.acked_obs() / ingest_secs, "1/s"),
            Metric::new("ingest_ack_p50_ms", quantile_of(&ack_secs, 0.5) * 1e3, "ms"),
            Metric::new(
                "query_ops_per_s",
                self.reads.len() as f64 / read_secs,
                "1/s",
            ),
            Metric::new("range_p50_ms", quantile_of(&range_secs, 0.5) * 1e3, "ms"),
            Metric::new(
                "knn_p50_ms",
                quantile_of(&self.secs_of(Kind::Knn), 0.5) * 1e3,
                "ms",
            ),
            Metric::new(
                "wire_bytes_per_obs",
                self.write_bytes() / self.acked_obs(),
                "bytes",
            ),
            Metric::new(
                "wire_bytes_per_query",
                self.read_bytes() / self.reads.len() as f64,
                "bytes",
            ),
            Metric::new(
                "resident_bytes_per_obs",
                resident as f64 / held as f64,
                "bytes",
            ),
        ]
    }

    /// What the run was given and how large it turned out, for the record.
    pub fn sizes(&self, opts: &Opts) -> Vec<(&'static str, f64)> {
        vec![
            ("size.seed", opts.seed as f64),
            ("size.seconds", opts.seconds),
            ("size.setup_rows", self.timed_from as f64),
            (
                "size.timed_rows",
                (self.rows.len() - self.timed_from) as f64,
            ),
            ("size.batches", self.acks.len() as f64),
            ("size.reads", self.reads.len() as f64),
            ("size.write_phase_s", self.write_wall_secs),
            ("size.read_phase_s", self.read_wall_secs),
            ("size.peak_rss_mb", peak_rss_mb()),
        ]
    }
}

/// This process's high-water resident set, or 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
