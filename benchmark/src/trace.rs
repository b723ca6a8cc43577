//! The traced run: spans around the client's calls, a replay of the run's
//! own inputs through each layer's public functions, and the per-layer
//! metrics both yield. Nothing inside `crates/` is instrumented; what the
//! replay cannot account for is reported as unattributed.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use crate::gen::{Kind, Row};
use crate::metrics::EXEC_PER_OP;
use crate::stats::{median, quantile_of};
use crate::sut::{self, Echo, Reply, Router, Shadow, Sut, READ_OPS, WORKERS};
use crate::workload::{Measured, Metric, Read, Snapshot, BATCH};

/// Batches, and reads of each kind, replayed layer by layer.
const REPLAYED: usize = 200;
/// An acknowledgement this many times the median took a stall.
const STALL_FACTOR: f64 = 10.0;

#[derive(Debug)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    request: u64,
}

/// Spans, kept in memory until the run ends. Switched off it records
/// nothing and every call returns span 0.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// A recorder for a second thread, on the same clock, whose ids
    /// cannot collide with this one's.
    pub fn sibling(&self) -> Recorder {
        Recorder {
            next_id: 1 << 30,
            spans: Vec::new(),
            ..*self
        }
    }

    pub fn absorb(&mut self, sibling: Recorder) {
        self.spans.extend(sibling.spans);
    }

    /// Records one client call.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) -> u32 {
        self.child(0, name, start, end, request)
    }

    fn child(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            end_us: (end - self.origin).as_secs_f64() * 1e6,
            request,
        });
        id
    }

    /// Runs `f` as a child span of `parent`; returns its result and how
    /// long it took, seconds.
    fn replay<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = black_box(f());
        let end = Instant::now();
        self.child(parent, name, start, end, 0);
        (value, (end - start).as_secs_f64())
    }

    /// Writes every span and the counter snapshots as JSON lines.
    pub fn write(&self, path: &std::path::Path, m: &Measured) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let boundaries = [
            ("before", Some(&m.before)),
            ("between", m.between.as_ref()),
            ("after", Some(&m.after)),
        ];
        for (at, snapshot) in boundaries {
            let Some(Snapshot { traffic, workers }) = snapshot else {
                continue;
            };
            let busy: Vec<String> = workers.iter().map(|w| w.busy_us.to_string()).collect();
            let rows: Vec<String> = workers.iter().map(|w| w.primary_rows.to_string()).collect();
            writeln!(
                out,
                "{{\"counters\": \"{at}\", \"fabric_msgs\": {}, \"fabric_bytes\": {}, \
                 \"fabric_dropped\": {}, \"worker_busy_us\": [{}], \"worker_primary_rows\": [{}]}}",
                traffic.msgs,
                traffic.bytes,
                traffic.dropped,
                busy.join(", "),
                rows.join(", "),
            )?;
        }
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \
                 \"end_us\": {:.1}, \"request\": {}}}",
                s.id, s.parent, s.name, s.start_us, s.end_us, s.request
            )?;
        }
        out.flush()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn put(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric::new(name, value, unit));
}

/// Seconds inside replayed child spans, and inside the client calls they
/// replay.
#[derive(Default)]
struct Attributed {
    children: f64,
    calls: f64,
}

impl Attributed {
    fn unattributed_share(&self) -> f64 {
        1.0 - ratio(self.children, self.calls)
    }
}

/// `client`: the whole phases, tails and stalls included.
fn client(m: &Measured, out: &mut Vec<Metric>) {
    let ack_secs: Vec<f64> = m.acks.iter().map(|a| a.secs).collect();
    let read_secs: Vec<f64> = m.reads.iter().map(|r| r.secs).collect();
    let max_ms = |secs: &mut dyn Iterator<Item = f64>| secs.fold(0.0, f64::max) * 1e3;
    let p99_ms = |secs: &[f64]| quantile_of(secs, 0.99) * 1e3;
    put(out, "client.ingest_ack_p99_ms", p99_ms(&ack_secs), "ms");
    put(
        out,
        "client.ingest_ack_max_ms",
        max_ms(&mut ack_secs.iter().copied()),
        "ms",
    );
    put(
        out,
        "client.range_p99_ms",
        p99_ms(&m.secs_of(Kind::Range)),
        "ms",
    );
    put(out, "client.query_p99_ms", p99_ms(&read_secs), "ms");
    put(
        out,
        "client.heatmap_p50_ms",
        quantile_of(&m.secs_of(Kind::Heatmap), 0.5) * 1e3,
        "ms",
    );
    put(out, "client.rows_per_s", m.rows_per_s(), "1/s");
    put(
        out,
        "client.generator_late_max_ms",
        max_ms(&mut m.acks.iter().map(|a| a.late_secs)),
        "ms",
    );
    put(
        out,
        "client.failed_share",
        ratio(m.failures.len() as f64, m.attempted as f64),
        "share",
    );

    // `ingest`: the write path seen through `Cluster::ingest` and `flush`.
    let stall = STALL_FACTOR * quantile_of(&ack_secs, 0.5);
    let stalls: Vec<f64> = ack_secs.iter().copied().filter(|&s| s > stall).collect();
    put(
        out,
        "ingest.stall_share",
        ratio(stalls.len() as f64, ack_secs.len() as f64),
        "share",
    );
    put(
        out,
        "ingest.stall_ms_per_stall",
        ratio(stalls.iter().sum::<f64>(), stalls.len() as f64) * 1e3,
        "ms",
    );
    put(out, "ingest.flush_ms", m.flush_secs * 1e3, "ms");
}

/// Feeds worker 0's share of the stream, batch by batch as it arrived,
/// through an index outside any worker. Returns the index, the seconds
/// spent inserting, and when each batch sent while timing went in.
fn build_shadow(
    m: &Measured,
    sut: &Sut,
    router: &Router,
    sealing: bool,
) -> (Shadow, f64, Vec<(Instant, Instant)>) {
    let mut shadow = sut.shadow_index(sealing);
    let mut secs = 0.0;
    let mut timed = Vec::new();
    for (i, chunk) in m.rows.chunks(BATCH).enumerate() {
        let mine: Vec<Row> = chunk
            .iter()
            .filter(|r| router.owner(r.x, r.y) == 0)
            .copied()
            .collect();
        let batch = sut::batch(&mine);
        let start = Instant::now();
        shadow.insert(batch);
        let end = Instant::now();
        secs += (end - start).as_secs_f64();
        if i >= m.timed_from / BATCH {
            timed.push((start, end));
        }
    }
    (shadow, secs, timed)
}

/// `camnet.batch`, `partition`, `net` and `index` inserts, on the first
/// batches of the run and on worker 0's share of all of them.
fn replay_writes(
    m: &Measured,
    sut: &Sut,
    router: &Router,
    echo: &Echo,
    recorder: &mut Recorder,
    out: &mut Vec<Metric>,
) -> Result<(Shadow, Shadow, Attributed), String> {
    let mut attributed = Attributed::default();
    let (mut encode, mut decode, mut route, mut frame_bytes, mut obs) = (0.0, 0.0, 0.0, 0, 0);
    let timed_rows = &m.rows[m.timed_from..];
    for (chunk, ack) in timed_rows.chunks(BATCH).zip(&m.acks).take(REPLAYED) {
        let batch = sut::batch(chunk);
        let (_, routing) = recorder.replay(ack.span, "partition.route", || {
            chunk.iter().map(|r| router.owner(r.x, r.y)).sum::<usize>()
        });
        let (frame, encoding) = recorder.replay(ack.span, "camnet.batch.encode", || {
            sut::encode_batch_frame(&batch)
        });
        // Each worker is sent its quarter of the batch, all at once.
        let (hop, _) = recorder.replay(ack.span, "net.round_trip", || {
            echo.round_trip(frame.len() / WORKERS)
        });
        let (rows, decoding) = recorder.replay(ack.span, "camnet.batch.decode", || {
            sut::decode_batch_frame(&frame)
        });
        if rows? != chunk.len() {
            return Err("a replayed batch frame decoded short".into());
        }
        route += routing;
        encode += encoding;
        decode += decoding;
        frame_bytes += frame.len();
        obs += chunk.len();
        attributed.children += routing + encoding + hop?.as_secs_f64() + decoding;
        attributed.calls += ack.secs;
    }
    let per_obs = |total: f64| ratio(total, obs as f64);
    let bytes_per_obs = per_obs(frame_bytes as f64);
    put(
        out,
        "camnet.batch.encode_ns_per_obs",
        per_obs(encode) * 1e9,
        "ns",
    );
    put(
        out,
        "camnet.batch.decode_ns_per_obs",
        per_obs(decode) * 1e9,
        "ns",
    );
    put(out, "camnet.batch.bytes_per_obs", bytes_per_obs, "bytes");
    put(
        out,
        "partition.route_ns_per_obs",
        per_obs(route) * 1e9,
        "ns",
    );
    put(
        out,
        "ingest.wire_amplification",
        ratio(ratio(m.write_bytes(), m.acked_obs()), bytes_per_obs),
        "ratio",
    );

    let (sealed, sealed_secs, inserts) = build_shadow(m, sut, router, true);
    let (unsealed, unsealed_secs, _) = build_shadow(m, sut, router, false);
    for (&(start, end), ack) in inserts.iter().zip(&m.acks).take(REPLAYED) {
        recorder.child(ack.span, "index.insert", start, end, 0);
        attributed.children += (end - start).as_secs_f64();
    }
    let per_row = |total: f64| ratio(total, sealed.rows() as f64);
    put(
        out,
        "index.insert_ns_per_obs",
        per_row(sealed_secs) * 1e9,
        "ns",
    );
    put(
        out,
        "index.insert_unsealed_ns_per_obs",
        per_row(unsealed_secs) * 1e9,
        "ns",
    );
    put(
        out,
        "index.seal_share",
        1.0 - ratio(unsealed_secs, sealed_secs),
        "share",
    );
    put(
        out,
        "index.resident_bytes_per_obs",
        per_row(sealed.resident_bytes() as f64),
        "bytes",
    );
    put(
        out,
        "index.sealed_segments",
        sealed.sealed_segments() as f64,
        "count",
    );
    Ok((sealed, unsealed, attributed))
}

/// `protocol`, `net` and `index` reads, on the first reads of each kind.
fn replay_reads(
    m: &Measured,
    router: &Router,
    echo: &Echo,
    (sealed, unsealed): (&Shadow, &Shadow),
    recorder: &mut Recorder,
    out: &mut Vec<Metric>,
) -> Result<Attributed, String> {
    let mut attributed = Attributed::default();
    let (mut request_encode, mut requests) = (0.0, 0);
    let (mut response_decode, mut view_secs) = (0.0, 0.0);
    let (mut sealed_range, mut head_range, mut range_rows) = (0.0, 0.0, 0);
    let (mut knn_secs, mut knns, mut heat_secs, mut heats) = (0.0, 0, 0.0, 0);
    let head_view = unsealed.view();
    for kind in Kind::ALL {
        // Only worker 0's share is in the shadow, so of the point reads
        // only those that worker 0 served can be replayed on it.
        let replayable = m.reads.iter().filter(|r| {
            r.query.kind == kind
                && r.span != 0
                && (kind == Kind::Heatmap || router.owner(r.query.x, r.query.y) == 0)
        });
        for Read {
            query, secs, span, ..
        } in replayable.take(REPLAYED)
        {
            let (request, encoding) = recorder.replay(*span, "protocol.request_encode", || {
                sut::encode_request(query)
            });
            request_encode += encoding;
            requests += 1;
            let mut children = encoding;
            // A kNN is two scatters: candidates, then the pruned fetch.
            for _ in 0..if kind == Kind::Knn { 2 } else { 1 } {
                let (hop, _) =
                    recorder.replay(*span, "net.round_trip", || echo.round_trip(request.len()));
                children += hop?.as_secs_f64();
            }
            let (view, viewing) = recorder.replay(*span, "index.read_view", || sealed.view());
            view_secs += viewing;
            let name = match kind {
                Kind::Range => "index.range",
                Kind::Knn => "index.knn",
                Kind::Heatmap => "index.heatmap",
            };
            let (reply, answering) = recorder.replay(*span, name, || view.query(query));
            children += viewing + answering;
            match (kind, reply) {
                (Kind::Range, Reply::Rows(rows)) => {
                    sealed_range += answering;
                    range_rows += rows.len();
                    let start = Instant::now();
                    black_box(head_view.query(query));
                    head_range += start.elapsed().as_secs_f64();
                    let frame = sut::encode_rows_response(rows);
                    let (decoded, decoding) =
                        recorder.replay(*span, "protocol.response_decode", || {
                            sut::decode_rows_response(&frame)
                        });
                    decoded?;
                    response_decode += decoding;
                    children += decoding;
                }
                (Kind::Knn, _) => {
                    knn_secs += answering;
                    knns += 1;
                }
                _ => {
                    heat_secs += answering;
                    heats += 1;
                }
            }
            attributed.children += children;
            attributed.calls += secs;
        }
    }
    let per_row = |total: f64| ratio(total, range_rows as f64) * 1e9;
    put(
        out,
        "protocol.request_encode_ns",
        ratio(request_encode, requests as f64) * 1e9,
        "ns",
    );
    put(
        out,
        "protocol.response_decode_ns_per_row",
        per_row(response_decode),
        "ns",
    );
    put(
        out,
        "index.read_view_us",
        ratio(view_secs, requests as f64) * 1e6,
        "us",
    );
    put(
        out,
        "index.range_sealed_ns_per_row",
        per_row(sealed_range),
        "ns",
    );
    put(
        out,
        "index.range_head_ns_per_row",
        per_row(head_range),
        "ns",
    );
    put(
        out,
        "index.knn_us",
        ratio(knn_secs, knns as f64) * 1e6,
        "us",
    );
    put(
        out,
        "index.heatmap_us",
        ratio(heat_secs, heats as f64) * 1e6,
        "us",
    );
    Ok(attributed)
}

/// `net`, `partition`, `exec`, `worker` and `paging`: differences of the
/// counters the system keeps, between the run's snapshots.
fn from_counters(m: &Measured, out: &mut Vec<Metric>) {
    // With overlapping phases there is no boundary between them: message
    // counts are split by the executor's account (a sub-query is a request
    // and its response), and the two busy-time figures share one interval,
    // which makes each an upper bound.
    let write_end = m.between.as_ref().unwrap_or(&m.after);
    let read_start = m.between.as_ref().unwrap_or(&m.before);
    let msgs = |from: &Snapshot, to: &Snapshot| (to.traffic.msgs - from.traffic.msgs) as f64;
    let sub_queries = |s: &Snapshot| s.traffic.ops.iter().map(|o| o.sub_queries).sum::<u64>();
    let (write_msgs, read_msgs) = if m.between.is_some() {
        (msgs(&m.before, write_end), msgs(read_start, &m.after))
    } else {
        let read = 2.0 * (sub_queries(&m.after) - sub_queries(&m.before)) as f64;
        (msgs(&m.before, &m.after) - read, read)
    };
    let reads = m.reads.len() as f64;
    put(
        out,
        "net.msgs_per_batch",
        ratio(write_msgs, m.acks.len() as f64),
        "count",
    );
    put(out, "net.msgs_per_query", ratio(read_msgs, reads), "count");
    put(
        out,
        "net.dropped_share",
        ratio(
            (m.after.traffic.dropped - m.before.traffic.dropped) as f64,
            msgs(&m.before, &m.after),
        ),
        "share",
    );
    put(
        out,
        "net.max_response_bytes",
        m.after.traffic.max_response_bytes as f64,
        "bytes",
    );

    let held = m.after.workers.iter().map(|w| w.primary_rows as f64);
    put(
        out,
        "partition.load_skew",
        ratio(
            held.clone().fold(0.0, f64::max),
            held.sum::<f64>() / WORKERS as f64,
        ),
        "ratio",
    );

    let (mut retries, mut invocations, mut failovers) = (0, 0, 0);
    for (i, op) in READ_OPS.iter().enumerate() {
        let (a, b) = (&m.after.traffic.ops[i], &m.before.traffic.ops[i]);
        let calls = (a.invocations - b.invocations) as f64;
        let values = [
            a.scatter_us - b.scatter_us,
            a.merge_us - b.merge_us,
            a.bytes_down - b.bytes_down,
            a.sub_queries - b.sub_queries,
        ];
        for ((what, unit), value) in EXEC_PER_OP.iter().zip(values) {
            put(
                out,
                format!("exec.{op}.{what}"),
                ratio(value as f64, calls),
                unit,
            );
        }
        retries += a.retries - b.retries;
        failovers += a.failovers - b.failovers;
        invocations += a.invocations - b.invocations;
    }
    put(
        out,
        "exec.retries_per_op",
        ratio(retries as f64, invocations as f64),
        "count",
    );
    put(out, "exec.failovers", failovers as f64, "count");

    let busy = |from: &Snapshot, to: &Snapshot| -> Vec<f64> {
        let pairs = to.workers.iter().zip(&from.workers);
        pairs.map(|(t, f)| (t.busy_us - f.busy_us) as f64).collect()
    };
    let wall_secs = if m.between.is_some() {
        m.write_wall_secs + m.read_wall_secs
    } else {
        m.write_wall_secs
    };
    let busiest = busy(&m.before, &m.after).into_iter().fold(0.0, f64::max);
    put(
        out,
        "worker.busy_us_per_obs",
        ratio(busy(&m.before, write_end).iter().sum(), m.acked_obs()),
        "us",
    );
    put(
        out,
        "worker.busy_us_per_query",
        ratio(busy(read_start, &m.after).iter().sum(), reads),
        "us",
    );
    put(
        out,
        "worker.busy_max_share",
        ratio(busiest, wall_secs * 1e6),
        "share",
    );

    let pages = |s: &Snapshot| s.workers.iter().map(|w| w.pages_served).sum::<u64>();
    put(
        out,
        "paging.pages_per_range",
        ratio(
            (pages(&m.after) - pages(&m.before)) as f64,
            m.secs_of(Kind::Range).len() as f64,
        ),
        "count",
    );
}

/// Reads per second of wall clock over the cycles of the mix that were
/// recorded, or over those that were not. A cycle lasts until the next one
/// starts, so whatever recording costs between calls is counted.
fn read_rate(reads: &[Read], recorded: bool) -> f64 {
    let (mut count, mut secs) = (0.0, 0.0);
    let mut cycle = 0;
    for (i, r) in reads.iter().enumerate().skip(1) {
        if (r.span != 0) != (reads[cycle].span != 0) {
            if (reads[cycle].span != 0) == recorded {
                count += (i - cycle) as f64;
                secs += r.at_secs - reads[cycle].at_secs;
            }
            cycle = i;
        }
    }
    ratio(count, secs)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(m: &Measured, sut: &Sut, recorder: &mut Recorder) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    client(m, &mut out);
    from_counters(m, &mut out);

    let echo = Echo::start();
    let router = sut.router();
    let (sealed, unsealed, writes) = replay_writes(m, sut, &router, &echo, recorder, &mut out)?;
    let reads = replay_reads(m, &router, &echo, (&sealed, &unsealed), recorder, &mut out)?;

    // `net`: what the simulator itself costs, on the link model's terms.
    let rtt_us = |payload: usize| -> Result<f64, String> {
        let trips: Result<Vec<f64>, String> = (0..REPLAYED)
            .map(|_| echo.round_trip(payload).map(|d| d.as_secs_f64() * 1e6))
            .collect();
        Ok(median(&trips?))
    };
    let small = rtt_us(64)?;
    let modelled = Echo::modelled_round_trip(64).as_secs_f64() * 1e6;
    put(&mut out, "net.echo_rtt_p50_us", small, "us");
    put(&mut out, "net.echo_overhead_us", small - modelled, "us");
    put(&mut out, "net.echo64k_rtt_p50_us", rtt_us(64 * 1024)?, "us");

    // `trace`: what recording cost, and what the replay cannot explain.
    put(
        &mut out,
        "trace.overhead_share",
        1.0 - ratio(read_rate(&m.reads, true), read_rate(&m.reads, false)),
        "share",
    );
    put(
        &mut out,
        "trace.unattributed_share_write",
        writes.unattributed_share(),
        "share",
    );
    put(
        &mut out,
        "trace.unattributed_share_read",
        reads.unattributed_share(),
        "share",
    );
    Ok(out)
}
