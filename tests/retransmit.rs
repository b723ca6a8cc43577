//! Retransmit early, give up late: the executor probes for a sub-query
//! when the measured retransmission timeout of its (operation, worker)
//! pair runs out, sends its frame again when the worker never got it, is
//! sent the stored answer again when the reply was lost, and fails it
//! only when the policy's whole patience (`timeout × max_attempts`) has
//! passed — so a lost frame costs milliseconds, a slow answer 16 bytes,
//! no request runs twice, and nothing fails that did not fail before.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use stcam::{Executor, OpPolicy, Request, Response, StcamError, Worker, WorkerConfig};
use stcam_camnet::{batch, CameraId, Observation, ObservationId, Signature};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::IndexConfig;
use stcam_net::{Endpoint, Fabric, LinkModel, NetError, NodeId, MIN_RTO, WIRE_OVERHEAD};

const CLIENT: NodeId = NodeId(0);
const SERVER: NodeId = NodeId(1);

fn want_ack(response: Response) -> Result<(), StcamError> {
    match response {
        Response::Ack => Ok(()),
        other => Err(StcamError::Remote(format!("{other:?}"))),
    }
}

/// Answers every request with `Ack` until `stop`, and returns what it was
/// handed: `(correlation, payload)` per delivery, in order.
fn serve_acks(server: Endpoint, stop: &AtomicBool) -> Vec<(u64, Vec<u8>)> {
    let mut handed = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if let Some(envelope) = server.recv_timeout(Duration::from_millis(5)) {
            let _ = server.reply(&envelope, encode_to_vec(&Response::Ack));
            handed.push((envelope.correlation, envelope.payload));
        }
    }
    handed
}

/// Sets the flag when dropped — also while a failed assertion unwinds, so
/// the helper threads of a scope stop and the failure is reported rather
/// than the run hanging.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn policy(timeout_ms: u64, max_attempts: u32) -> OpPolicy {
    OpPolicy {
        timeout: Duration::from_millis(timeout_ms),
        max_attempts,
    }
}

#[test]
fn a_silent_worker_gets_max_attempts_identical_frames_and_the_whole_patience() {
    let fabric = Fabric::new(LinkModel::instant());
    let silent = fabric.register(SERVER);
    let exec = Executor::new(fabric.register(CLIENT), policy(30, 3));
    let install = || {
        let started = Instant::now();
        let request = |_| Request::EvictBefore {
            cutoff: Timestamp::from_secs(40),
            epoch: 7,
        };
        let mut answers = exec.ask("evict", &[SERVER], request, want_ack);
        assert_eq!(answers.len(), 1);
        (answers.pop().unwrap(), started.elapsed())
    };

    // No sample for the pair, so the frame at 0 and probes at T and 2T;
    // failure at 3T.
    let (answer, took) = install();
    assert!(matches!(
        answer,
        (SERVER, Err(StcamError::Net(NetError::Timeout)))
    ));
    assert!(took >= Duration::from_millis(90), "gave up after {took:?}");
    let stats = exec.stats_for("evict");
    assert_eq!(
        (stats.retries, stats.sub_queries, stats.failures),
        (2, 3, 1)
    );
    // One frame and two 16-byte probes left the client; the worker's
    // fabric handed it the frame and dropped the probes of what it
    // still holds.
    let frame = silent.try_recv().expect("the first send").payload;
    assert!(silent.try_recv().is_none());
    let sent = exec.endpoint().stats();
    assert_eq!((sent.msgs_sent, sent.probes_sent), (3, 2));
    assert_eq!(
        sent.bytes_sent,
        frame.len() as u64 + WIRE_OVERHEAD + 2 * WIRE_OVERHEAD
    );
    assert_eq!(stats.bytes_sent, sent.bytes_sent);
    let held = silent.stats();
    assert_eq!((held.held_dropped, held.not_held_sent), (2, 0));

    exec.set_policy("evict", OpPolicy::no_retry(Duration::from_millis(30)));
    let (answer, took) = install();
    assert!(answer.1.is_err() && took >= Duration::from_millis(30));
    let once = exec.stats_for("evict").since(&stats);
    assert_eq!((once.retries, once.sub_queries, once.failures), (0, 1, 1));
    assert_eq!(exec.endpoint().stats().since(&sent).msgs_sent, 1);
}

#[test]
fn a_lost_frame_costs_an_rto_not_a_timeout() {
    // The regression gate. A scripted link loses the first copy of every
    // tenth request; at 200 ms of timeout that was 20 × 200 ms. Six sends:
    // the link also eats the probes sent before it heals, which on a
    // loaded host can take a few milliseconds.
    let fabric = Fabric::new(LinkModel::instant());
    let server = fabric.register(SERVER);
    let exec = Executor::new(fabric.register(CLIENT), policy(200, 6));
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        scope.spawn(|| serve_acks(server, &stop));
        // The link: armed by the client below, it heals as soon as it
        // has eaten one frame.
        scope.spawn(|| {
            let mut eaten = 0;
            while !stop.load(Ordering::Relaxed) {
                let dropped = fabric.stats().per_node[&CLIENT].msgs_dropped;
                if dropped > eaten {
                    eaten = dropped;
                    fabric.clear_link_drop_probability(CLIENT, SERVER);
                }
                thread::sleep(Duration::from_micros(500));
            }
        });
        let started = Instant::now();
        for n in 1..=200 {
            if n % 10 == 0 {
                fabric.set_link_drop_probability(CLIENT, SERVER, 1.0);
            }
            let answers = exec.ask("ping", &[SERVER], |_| Request::Ping, want_ack);
            assert!(answers[0].1.is_ok(), "exchange {n}: {:?}", answers[0].1);
        }
        let took = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        let stats = exec.stats_for("ping");
        assert_eq!(stats.failures, 0);
        assert!(stats.retries >= 20, "{} retries", stats.retries);
        // The link ate each armed exchange's frame, and any probe that
        // left (one RTO, ≈ 1 ms, later) before it healed; each lost frame
        // went out again exactly once, and every other send was a probe.
        assert!(fabric.stats().per_node[&CLIENT].msgs_dropped >= 20);
        let frame = encode_to_vec(&Request::Ping).len() as u64 + WIRE_OVERHEAD;
        assert_eq!(
            stats.bytes_sent,
            (200 + 20) * frame + stats.retries * WIRE_OVERHEAD
        );
        assert!(
            took < Duration::from_millis(1_500),
            "200 asks took {took:?}"
        );
    });
}

#[test]
fn a_re_send_repeats_the_frame_and_never_rebuilds_it() {
    // `ask`'s request closure numbers its requests (in `epoch`, which the
    // scripted workers ignore): under 5 % loss it must still run once per
    // target, and each worker must be handed each request exactly once —
    // a lost request goes out again as the bytes of the first, and a lost
    // reply is replayed by the worker's fabric, not executed again.
    let fabric = Fabric::with_seed(LinkModel::instant(), 23);
    let servers: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let endpoints: Vec<Endpoint> = servers.iter().map(|&n| fabric.register(n)).collect();
    let exec = Executor::new(fabric.register(CLIENT), policy(100, 6));
    let stop = AtomicBool::new(false);
    let rounds = 150u64;
    thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        let serving: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| scope.spawn(|| serve_acks(endpoint, &stop)))
            .collect();
        fabric.set_drop_probability(0.05);
        let mut next = 0u64;
        for _ in 0..rounds {
            let request = |_| {
                next += 1;
                Request::IngestSeq {
                    epoch: next,
                    batch: vec![],
                }
            };
            for (_, answer) in exec.ask("ingest_seq", &servers, request, want_ack) {
                answer.expect("six sends at 5 % loss");
            }
        }
        fabric.set_drop_probability(0.0);
        stop.store(true, Ordering::Relaxed);
        assert_eq!(next, rounds * 4, "one request per sub-query");
        let stats = exec.stats_for("ingest_seq");
        assert!(stats.retries > 0, "5 % loss and nothing was re-sent");
        let mut numbers = Vec::new();
        let mut redelivered = 0;
        for handle in serving {
            let mut handed: HashSet<u64> = HashSet::new();
            for (correlation, payload) in handle.join().unwrap() {
                if !handed.insert(correlation) {
                    redelivered += 1;
                    continue;
                }
                let Ok(Request::IngestSeq { epoch, .. }) = decode_from_slice(&payload) else {
                    panic!("not the request that was sent");
                };
                numbers.push(epoch);
            }
        }
        assert_eq!(redelivered, 0, "a worker was handed a request twice");
        assert!(
            fabric.stats().total_replayed > 0,
            "no reply was lost in {} sends",
            rounds * 4
        );
        numbers.sort_unstable();
        assert_eq!(numbers, (1..=rounds * 4).collect::<Vec<u64>>());
    });
}

/// How often `worker` has served `op`.
fn served(exec: &Executor, worker: NodeId, op: &str) -> u64 {
    let want = |response| match response {
        Response::Stats(stats) => Ok(stats.served_count(op)),
        other => Err(StcamError::Remote(format!("{other:?}"))),
    };
    let mut answers = exec.ask("stats", &[worker], |_| Request::Stats, want);
    answers.pop().unwrap().1.unwrap()
}

/// A worker that takes many retransmission timeouts to reach a request —
/// it is busy, not gone — answers it once, inside the patience, however
/// many probes the client sent meanwhile, and each probe costs 16 bytes.
/// `read_threads` picks the lane that serves `request`: the read pool,
/// or (0) the control lane.
fn a_busy_worker_executes_once(read_threads: usize, name: &'static str, request: Request) {
    let fabric = Fabric::new(LinkModel::instant());
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
    let config = WorkerConfig {
        index: IndexConfig::new(extent, 50.0, stcam_geo::Duration::from_secs(10)),
        read_threads,
    };
    let worker = Worker::spawn(fabric.register(SERVER), config);
    let exec = Executor::new(fabric.register(CLIENT), policy(5_000, 3));
    let other = fabric.register(NodeId(9));
    let ask = || {
        let started = Instant::now();
        let mut answers = exec.ask(name, &[SERVER], |_| request.clone(), Ok);
        answers.pop().unwrap().1.map(|_| started.elapsed())
    };
    // Quick answers settle the pair's RTO near the floor.
    for _ in 0..20 {
        ask().unwrap();
    }
    // Work for the same lane, sized to keep it busy for 120 ms — a
    // hundred times the floor, far past both probes: a heat-map over
    // four million buckets, as often as it takes.
    let busywork = encode_to_vec(&Request::Heatmap {
        buckets: GridSpec::new(Point::new(0.0, 0.0), 1.0, 2_000, 2_000),
        window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1)),
    });
    let busy = 120 * MIN_RTO;
    let started = Instant::now();
    other
        .call(SERVER, busywork.clone(), Duration::from_secs(60))
        .unwrap();
    let one = started.elapsed();
    let copies = busy.as_micros() / one.as_micros().max(1) + 1;
    for _ in 0..copies {
        // Started and dropped: the answers are of no interest.
        other.call_start(SERVER, &busywork).unwrap();
    }
    let before = (exec.stats_for(name), fabric.stats());
    let took = ask().expect("late, but inside the patience");
    assert!(took >= busy / 2, "answered after {took:?}: not busy");
    let during = exec.stats_for(name).since(&before.0);
    assert_eq!(
        (during.retries, during.failures),
        (2, 0),
        "the frame at 0, probes at one and three RTOs"
    );
    // The worker held the request, so both probes were dropped at its
    // door and the frame went out once.
    let frame = encode_to_vec(&request).len() as u64 + WIRE_OVERHEAD;
    assert_eq!(during.bytes_sent, frame + 2 * WIRE_OVERHEAD);
    let wire = fabric.stats().since(&before.1);
    assert_eq!(
        (
            wire.total_probes,
            wire.total_held_dropped,
            wire.total_not_held
        ),
        (2, 2, 0)
    );
    assert_eq!(served(&exec, SERVER, name), 21, "executed more than once");
    worker.shutdown();
}

#[test]
fn a_busy_read_pool_executes_a_re_sent_range_once() {
    let request = Request::Range {
        region: BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
        window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1)),
        limit: 0,
        projection: stcam::PROJ_FULL,
    };
    a_busy_worker_executes_once(1, "range", request);
}

#[test]
fn a_busy_control_lane_executes_a_re_sent_cell_digest_once() {
    let request = Request::CellDigest {
        grid: GridSpec::new(Point::new(0.0, 0.0), 100.0, 4, 4),
    };
    a_busy_worker_executes_once(0, "cell_digest", request);
}

fn row(n: u64) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(0), n),
        camera: CameraId(0),
        time: Timestamp::from_millis(n),
        position: Point::new((n % 400) as f64, (n / 400) as f64),
        class: stcam_world::EntityClass::Car,
        signature: Signature::latent_for_entity(n),
        truth: None,
    }
}

fn whole_range() -> Request {
    Request::Range {
        region: BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0)),
        window: TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1_000)),
        limit: 0,
        projection: stcam::PROJ_FULL,
    }
}

/// Asks `to` the whole range through the executor.
fn range_rows(exec: &Executor, to: NodeId) -> Result<Vec<Observation>, StcamError> {
    let want = |response| match response {
        Response::Observations(rows) => Ok(rows),
        other => Err(StcamError::Remote(format!("{other:?}"))),
    };
    let mut answers = exec.ask("range", &[to], |_| whole_range(), want);
    answers.pop().unwrap().1
}

#[test]
fn a_paged_answer_keeps_a_window_of_pulls_in_flight_and_no_more() {
    // A scripted worker answers a range with page 0 of eleven one-row
    // pages, then sits on the pulls it is sent until no more arrive:
    // what it holds then is what the executor keeps in flight.
    const PAGES: u32 = 11;
    const WINDOW: usize = 4;
    let fabric = Fabric::new(LinkModel::instant());
    let server = fabric.register(SERVER);
    let exec = Executor::new(fabric.register(CLIENT), policy(5_000, 3));
    let page = |page: u32| {
        let mut payload = Vec::new();
        batch::encode_batch(&[row(u64::from(page))], &mut payload);
        encode_to_vec(&Response::ResultPage {
            cursor: 7,
            page,
            pages: PAGES,
            kind: stcam::paging::PAGE_OBSERVATIONS,
            payload,
        })
    };
    thread::scope(|scope| {
        scope.spawn(|| {
            let ask = server.recv_timeout(Duration::from_secs(5)).unwrap();
            server.reply(&ask, page(0)).unwrap();
            let mut held = VecDeque::new();
            for owed in (1..PAGES as usize).rev() {
                let patience = |held: &VecDeque<_>| match held.len() {
                    0 => Duration::from_secs(5),
                    _ => Duration::from_millis(30),
                };
                while let Some(pull) = server.recv_timeout(patience(&held)) {
                    held.push_back(pull);
                }
                assert_eq!(held.len(), owed.min(WINDOW), "{owed} pages owed");
                let pull = held.pop_front().unwrap();
                let Ok(Request::FetchPage { cursor: 7, page: n }) =
                    decode_from_slice(&pull.payload)
                else {
                    panic!("not a pull of cursor 7");
                };
                assert_eq!(n as usize, PAGES as usize - owed, "pulls out of page order");
                server.reply(&pull, page(n)).unwrap();
            }
        });
        let rows = range_rows(&exec, SERVER).unwrap();
        assert_eq!(rows, (0..u64::from(PAGES)).map(row).collect::<Vec<_>>());
    });
    let stats = exec.stats_for("range");
    assert_eq!((stats.retries, stats.failures), (0, 0));
}

#[test]
fn a_cursor_evicted_mid_pull_makes_the_sub_query_ask_again() {
    // A real worker behind a relay. Ahead of the pull of page 2 the relay
    // parks 65 other paged reads at the worker — one more than it keeps
    // cursors for — so that pull finds its cursor gone.
    const PROXY: NodeId = NodeId(2);
    let fabric = Fabric::new(LinkModel::instant());
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
    let config = WorkerConfig {
        index: IndexConfig::new(extent, 50.0, stcam_geo::Duration::from_secs(10)),
        read_threads: 2,
    };
    let worker = Worker::spawn(fabric.register(SERVER), config);
    let proxy = fabric.register(PROXY);
    let exec = Executor::new(fabric.register(CLIENT), policy(5_000, 3));
    let rows: Vec<Observation> = (0..3_000).map(row).collect();
    let load = |_| Request::IngestSeq {
        epoch: 0,
        batch: rows.clone(),
    };
    exec.ask("ingest_seq", &[SERVER], load, Ok)[0]
        .1
        .as_ref()
        .unwrap();
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        scope.spawn(|| {
            let relay = |frame: Vec<u8>| proxy.call(SERVER, frame, Duration::from_secs(5));
            let mut evicted = false;
            while !stop.load(Ordering::Relaxed) {
                let Some(envelope) = proxy.recv_timeout(Duration::from_millis(5)) else {
                    continue;
                };
                let request = decode_from_slice::<Request>(&envelope.payload);
                if !evicted && matches!(request, Ok(Request::FetchPage { page: 2, .. })) {
                    evicted = true;
                    for _ in 0..65 {
                        relay(encode_to_vec(&whole_range())).unwrap();
                    }
                }
                let answer = relay(envelope.payload.clone()).unwrap();
                proxy.reply(&envelope, answer).unwrap();
            }
        });
        let mut got = range_rows(&exec, PROXY).unwrap();
        stop.store(true, Ordering::Relaxed);
        got.sort_by_key(|o| o.id);
        assert!(got == rows, "the answer asked for twice is not the rows");
    });
    let stats = exec.stats_for("range");
    assert!(stats.retries >= 1 && stats.failures == 0, "{stats:?}");
    assert_eq!(served(&exec, SERVER, "range"), 1 + 65 + 1);
    // Four pulls of the first ask (three of them refused), then more.
    assert!(served(&exec, SERVER, "fetch_page") > 4);
    worker.shutdown();
}
