//! Worker nodes: shard storage and sub-query serving.
//!
//! A spawned worker runs two execution lanes:
//!
//! * the **control lane** — the single thread behind [`Worker::run`],
//!   which owns all mutable state and serves every side-effecting
//!   request (ingest, replication, routing, repair, cell moves) in
//!   arrival order;
//! * the **read executor pool** — [`WorkerConfig::read_threads`] threads
//!   that answer read-only sub-queries concurrently against an immutable
//!   [`ReadView`] snapshot of the shard, taken by the control lane at
//!   dispatch time. Snapshots are cheap (`Arc` bumps over the sealed
//!   tier plus a copy-on-write head) and are reused across consecutive
//!   reads until the next mutating request invalidates them.
//!
//! Beside its own shard a worker holds a [`ReplicaLog`] per backed-up
//! primary — unindexed rows in a [`stcam_index::FlatIndex`], read only
//! by a failover [`Request::ReplicaRead`] and the digest sweep. One
//! function, `execute_read`, evaluates a read request, over a snapshot
//! or over a log.
//!
//! Per-link FIFO delivery plus sequential dispatch on the control lane
//! guarantee that a read observes every write the same client issued
//! before it. Oversize read results never ship as one frame: replies go
//! through [`crate::paging`], parking pages under a cursor served by
//! [`Request::FetchPage`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use stcam_camnet::{Observation, ObservationId, Signature, SIGNATURE_DIM};
use stcam_codec::{decode_from_slice, encode_to_vec, SegmentFrame};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::{cell_scope, IndexConfig, Predicate, ReadView, SealedSegment, StIndex};
use stcam_net::{Endpoint, Envelope, NodeId, Waker};

use crate::continuous::InterestIndex;
use crate::paging;
use crate::protocol::{Request, Response, WorkerStatsMsg, PROJ_THIN};
use crate::replica::{ReplicaLog, RowSource};

/// Parked paged results kept per worker; oldest cursors are evicted
/// beyond this, bounding the page store regardless of client behaviour.
/// A client that pulls promptly (the executor does, immediately after
/// page 0) never sees an eviction.
const PAGE_CURSORS: usize = 64;

/// The worker's slice of the routing plan: the macro grid plus the set of
/// cells (packed `row * cols + col`) this worker owns as of `epoch`.
/// Installed by [`Request::RouteUpdate`]; used to reject misrouted
/// ingest from stale senders.
#[derive(Debug)]
struct RouteInfo {
    epoch: u64,
    grid: stcam_geo::GridSpec,
    cells: HashSet<u32>,
}

impl RouteInfo {
    fn owns(&self, position: stcam_geo::Point) -> bool {
        let cell = self.grid.cell_of_clamped(position);
        self.cells
            .contains(&(cell.row * self.grid.cols() + cell.col))
    }
}

/// Static configuration of one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Configuration of the local shard index.
    pub index: IndexConfig,
    /// Size of the read executor pool the serving loop runs: read-only
    /// sub-queries are answered concurrently from index snapshots by this
    /// many threads. `0` disables the pool and serves everything
    /// sequentially on the control lane.
    pub read_threads: usize,
}

/// One parked paged result: the payloads of pages `1..` and their
/// encoding kind. Page 0 moves into the reply and is not kept: a lost one
/// is replayed by the transport, never pulled. Shared, so a pull copies
/// its page outside the store's lock.
#[derive(Debug)]
struct ParkedPages {
    kind: u8,
    rest: Vec<Vec<u8>>,
}

impl ParkedPages {
    /// The reply carrying page `page`, holding `payload`.
    fn reply(&self, cursor: u64, page: u32, payload: Vec<u8>) -> Response {
        Response::ResultPage {
            cursor,
            page,
            pages: self.rest.len() as u32 + 1,
            kind: self.kind,
            payload,
        }
    }

    /// The reply to a pull of page `page`; an application error when no
    /// such page is parked (the client retries the sub-query).
    fn page(&self, cursor: u64, page: u32) -> Response {
        let parked = page.checked_sub(1).and_then(|i| self.rest.get(i as usize));
        match parked {
            Some(payload) => self.reply(cursor, page, payload.clone()),
            None => Response::Error(format!("page {page} out of range for cursor {cursor}")),
        }
    }
}

/// State shared between the control lane and the read executor pool:
/// serve counters, busy-time accounting, and the parked-page store.
#[derive(Debug, Default)]
struct ReadShared {
    /// Requests served, keyed by operation name (both lanes).
    served: Mutex<HashMap<&'static str, u64>>,
    /// Cumulative time across both lanes from taking a request up to
    /// handing its encoded (or cut and parked) reply to the endpoint, µs.
    busy_micros: AtomicU64,
    /// Parked pages of oversize results, keyed by cursor (cursors are
    /// allocated in increasing order, so the smallest key is the oldest).
    pages: Mutex<BTreeMap<u64, Arc<ParkedPages>>>,
    /// Cursor allocator; the first issued cursor is 1.
    next_cursor: AtomicU64,
}

impl ReadShared {
    fn count(&self, op: &'static str) {
        *self.served.lock().entry(op).or_insert(0) += 1;
    }

    fn record_busy(&self, elapsed: std::time::Duration) {
        self.busy_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Parks pages `1..` of a paged result (`paging` cuts at least two)
    /// and returns its page-0 reply.
    fn park(&self, kind: u8, mut pages: Vec<Vec<u8>>) -> Response {
        let cursor = self.next_cursor.fetch_add(1, Ordering::Relaxed) + 1;
        let first = pages.remove(0);
        let parked = Arc::new(ParkedPages { kind, rest: pages });
        let mut store = self.pages.lock();
        store.insert(cursor, Arc::clone(&parked));
        while store.len() > PAGE_CURSORS {
            store.pop_first();
        }
        drop(store);
        parked.reply(cursor, 0, first)
    }

    /// Serves one page pull. Unknown cursors (evicted or invented) and
    /// out-of-range indices answer with an application error; the client
    /// treats it as a lost sub-query and retries the whole operation.
    fn fetch_page(&self, cursor: u64, page: u32) -> Response {
        let parked = self.pages.lock().get(&cursor).cloned();
        match parked {
            Some(parked) => parked.page(cursor, page),
            None => Response::Error(format!("unknown page cursor {cursor}")),
        }
    }
}

/// Replies to a request envelope, diverting oversize row results through
/// the paging store so no response frame exceeds the page bound. Both
/// lanes reply through here, so pagination is uniform.
fn reply_paged(endpoint: &Endpoint, shared: &ReadShared, envelope: &Envelope, response: Response) {
    let frame = match paging::encode_reply(&response) {
        paging::Reply::Frame(frame) => frame,
        paging::Reply::Pages(kind, pages) => encode_to_vec(&shared.park(kind, pages)),
    };
    let _ = endpoint.reply(envelope, frame);
}

/// Applies the column projection to a range answer: `PROJ_THIN` blanks
/// the signature and truth columns, which lets the batch codec elide the
/// signature bytes from the frame.
fn finish_rows(mut rows: Vec<Observation>, projection: u8) -> Vec<Observation> {
    if projection == PROJ_THIN {
        for row in &mut rows {
            row.signature = Signature::new([0.0; SIGNATURE_DIM]);
            row.truth = None;
        }
    }
    rows
}

/// Answers a range read over `rows`: the rows in `window` passing
/// `predicate`, only the `limit` lowest ids of them unless `limit` is 0
/// (the client's merge truncates the same way), in `projection`. The
/// class and the limit are tested inside the scan.
fn range_read(
    rows: &impl RowSource,
    predicate: Predicate,
    window: TimeInterval,
    limit: u32,
    projection: u8,
) -> Response {
    let hits = rows.range(&predicate, window, (limit != 0).then_some(limit as usize));
    Response::Observations(finish_rows(hits, projection))
}

/// Executes one read-only request over `rows` — a shard snapshot, or the
/// replica log a failover read addresses: the one place that decides
/// what each read kind means, whichever copy answers. Runs on pool
/// threads (and on the control lane for pool-less workers and replica
/// reads); must not touch worker state beyond `shared`.
fn execute_read(rows: &impl RowSource, shared: &ReadShared, request: Request) -> Response {
    match request {
        Request::Range {
            region,
            window,
            limit,
            projection,
        } => range_read(rows, Predicate::new(region), window, limit, projection),
        Request::RangeFiltered {
            region,
            window,
            class,
            limit,
            projection,
        } => {
            let predicate = Predicate {
                region,
                class: Some(class),
            };
            range_read(rows, predicate, window, limit, projection)
        }
        Request::Knn {
            at,
            window,
            k,
            max_distance,
        } => Response::Observations(rows.knn(at, window, k as usize, max_distance)),
        Request::Heatmap { buckets, window } => {
            // Always sparse: a shard's answer occupies only its own
            // region's buckets, so the dense vector is mostly zeros and the
            // sparse frame is smaller and far cheaper to varint-decode.
            let dense = rows.heatmap(&buckets, window);
            let occupied = (0u32..).zip(dense).filter(|&(_, count)| count > 0);
            Response::CellCounts(occupied.collect())
        }
        Request::FetchPage { cursor, page } => shared.fetch_page(cursor, page),
        other => Response::Error(format!("{} is not pool-servable", other.op_name())),
    }
}

/// One unit of pooled work: the request envelope plus the shard snapshot
/// it must be answered against.
#[derive(Debug)]
struct ReadJob {
    envelope: Envelope,
    request: Request,
    view: Arc<ReadView>,
}

/// The read executor pool: worker threads draining a shared MPMC channel
/// of [`ReadJob`]s. Dropping the pool closes the channel and joins the
/// threads after they drain the queue.
#[derive(Debug)]
struct ReadPool {
    tx: Option<crossbeam::channel::Sender<ReadJob>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReadPool {
    fn start(
        threads: usize,
        endpoint: &Arc<Endpoint>,
        shared: &Arc<ReadShared>,
    ) -> Option<ReadPool> {
        if threads == 0 {
            return None;
        }
        let (tx, rx) = crossbeam::channel::unbounded::<ReadJob>();
        let threads = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let endpoint = Arc::clone(endpoint);
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("stcam-read-{}-{i}", endpoint.id().0))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let started = std::time::Instant::now();
                            shared.count(job.request.op_name());
                            let response = execute_read(&*job.view, &shared, job.request);
                            reply_paged(&endpoint, &shared, &job.envelope, response);
                            shared.record_busy(started.elapsed());
                        }
                    })
                    .expect("spawn read executor thread")
            })
            .collect();
        Some(ReadPool {
            tx: Some(tx),
            threads,
        })
    }

    fn submit(&self, job: ReadJob) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(job);
        }
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        self.tx.take();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A worker node: owns the local shard, answers sub-queries from the
/// coordinator, and evaluates continuous-query predicates at ingest time.
/// Rows enter the primary shard through [`Request::IngestSeq`] (clients),
/// a `ReplicaLog` through [`Request::ReplicateSeq`] (the ingesting
/// sender), either through [`Request::InstallSegments`] (control plane),
/// and nothing else — replication is the *sender's* job, never forwarded
/// from here.
///
/// Normally driven via [`Worker::spawn`], which runs the serving loop on a
/// dedicated thread until [`WorkerHandle::shutdown`] (or fabric crash).
/// [`Worker::handle_request`] is public for deterministic single-threaded
/// tests.
#[derive(Debug)]
pub struct Worker {
    endpoint: Arc<Endpoint>,
    config: WorkerConfig,
    index: StIndex,
    /// One row log per primary this worker backs up.
    replicas: HashMap<NodeId, ReplicaLog>,
    /// Standing-query registrations, bucketed by (coarse cell, class)
    /// so ingest-time matching is sub-linear in the registration count.
    continuous: InterestIndex,
    /// Routing slice installed by `RouteUpdate` (absent until the first
    /// update; an uninstalled route accepts everything, preserving legacy
    /// single-worker setups that never publish a plan).
    route: Option<RouteInfo>,
    /// Ids ever inserted into the primary index via ingest or promotion:
    /// what keeps a batch from counting twice when it reaches this worker
    /// as a new request — re-driven after a park or a failover, or re-sent
    /// after the transport forgot its answer.
    seen: HashSet<ObservationId>,
    notifications_sent: u64,
    /// Serve counters, busy time, and the parked-page store — shared
    /// with the read executor pool while the serving loop runs.
    shared: Arc<ReadShared>,
}

/// The application error a worker answers to any control mutation whose
/// epoch is below the installed route epoch — the split-brain fence. A
/// stale coordinator sees this and must re-census before mutating.
pub const STALE_EPOCH_ERROR: &str = "stale control epoch";

impl Worker {
    /// Creates a worker serving on `endpoint`.
    pub fn new(endpoint: Endpoint, config: WorkerConfig) -> Self {
        let index = StIndex::new(config.index.clone());
        let continuous = InterestIndex::new(config.index.extent);
        Worker {
            endpoint: Arc::new(endpoint),
            config,
            index,
            replicas: HashMap::new(),
            continuous,
            route: None,
            seen: HashSet::new(),
            notifications_sent: 0,
            shared: Arc::new(ReadShared::default()),
        }
    }

    /// Spawns the serving loop on a new thread.
    pub fn spawn(endpoint: Endpoint, config: WorkerConfig) -> WorkerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_clone = Arc::clone(&stop);
        let waker = endpoint.waker();
        let id = endpoint.id();
        let join = std::thread::Builder::new()
            .name(format!("stcam-worker-{}", id.0))
            .spawn(move || {
                let mut worker = Worker::new(endpoint, config);
                worker.run(&stop_clone);
            })
            .expect("spawn worker thread");
        WorkerHandle {
            stop,
            waker,
            join: Some(join),
        }
    }

    /// Whether a request is one `execute_read` answers: eligible for the
    /// read executor pool, and (a page pull aside) for wrapping in a
    /// `ReplicaRead`. The `ReplicaRead` itself is not pooled: it reads the
    /// replica logs, which only the control lane owns — failover-only traffic.
    fn pool_servable(request: &Request) -> bool {
        matches!(
            request,
            Request::Range { .. }
                | Request::RangeFiltered { .. }
                | Request::Knn { .. }
                | Request::Heatmap { .. }
                | Request::FetchPage { .. }
        )
    }

    /// Serves requests until `stop` is set (blocking receive; a
    /// [`Waker`] message re-checks the flag), the fabric shuts down, or
    /// this node is crashed. Runs the read executor pool when
    /// [`WorkerConfig::read_threads`] is non-zero: reads are handed to
    /// the pool with a snapshot of the shard taken *here*, on the
    /// control lane — per-link FIFO then guarantees the snapshot holds
    /// every write the requesting client issued earlier. Any
    /// control-lane request may mutate the shard, so it invalidates the
    /// cached snapshot.
    pub fn run(&mut self, stop: &AtomicBool) {
        let pool = ReadPool::start(self.config.read_threads, &self.endpoint, &self.shared);
        let mut view: Option<Arc<ReadView>> = None;
        while !stop.load(Ordering::Relaxed) {
            let Some(envelope) = self.endpoint.recv() else {
                break;
            };
            if Waker::is_wake(&envelope) {
                continue;
            }
            let request = match decode_from_slice::<Request>(&envelope.payload) {
                Ok(r) => r,
                Err(e) => {
                    let resp = Response::Error(format!("bad request: {e}"));
                    let _ = self.endpoint.reply(&envelope, encode_to_vec(&resp));
                    continue;
                }
            };
            match &pool {
                Some(pool) if Self::pool_servable(&request) => {
                    let view =
                        Arc::clone(view.get_or_insert_with(|| Arc::new(self.index.read_view())));
                    pool.submit(ReadJob {
                        envelope,
                        request,
                        view,
                    });
                }
                _ => {
                    view = None;
                    self.dispatch_decoded(envelope, request);
                }
            }
        }
    }

    /// Executes a decoded request on the control lane and replies
    /// (paged when oversize).
    fn dispatch_decoded(&mut self, envelope: Envelope, request: Request) {
        let started = std::time::Instant::now();
        let response = self.handle_request(request);
        reply_paged(&self.endpoint, &self.shared, &envelope, response);
        self.shared.record_busy(started.elapsed());
    }

    /// Executes one request against local state and produces the response.
    ///
    /// One `match` destructures the request and calls its handler; every
    /// served request increments that operation's serve counter (keyed by
    /// [`Request::op_name`]).
    pub fn handle_request(&mut self, request: Request) -> Response {
        self.shared.count(request.op_name());
        if let Some(rejected) = self.fence(&request) {
            return rejected;
        }
        match request {
            Request::Ping => Response::Ack,
            Request::IngestSeq { epoch, batch } => self.serve_ingest_seq(epoch, batch),
            Request::ReplicateSeq { primary, batch, .. } => {
                self.replicas.entry(primary).or_default().append(batch);
                Response::Ack
            }
            Request::RouteUpdate { epoch, grid, cells } => {
                self.serve_route_update(epoch, grid, cells)
            }
            read @ (Request::Range { .. }
            | Request::RangeFiltered { .. }
            | Request::Knn { .. }
            | Request::Heatmap { .. }
            | Request::FetchPage { .. }) => {
                // The no-pool path; pooled workers answer these on
                // executor threads. Same evaluation either way.
                execute_read(&self.index.read_view(), &self.shared, read)
            }
            Request::RegisterContinuous { id, predicate } => {
                self.continuous.insert(id, predicate);
                Response::Ack
            }
            Request::UnregisterContinuous(id) => {
                self.continuous.remove(id);
                Response::Ack
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::EvictBefore { cutoff, .. } => self.serve_evict_before(cutoff),
            Request::Promote { failed, .. } => self.serve_promote(failed),
            Request::Census => self.serve_census(),
            // A read against the log held for an unreachable primary
            // (none held reads as an empty log): same evaluation, and
            // every scan is linear — acceptable while the primary is down.
            Request::ReplicaRead { of, inner }
                if Self::pool_servable(&inner) && !matches!(*inner, Request::FetchPage { .. }) =>
            {
                let rows = self.replicas.get(&of).map(ReplicaLog::rows);
                execute_read(rows.unwrap_or(&Default::default()), &self.shared, *inner)
            }
            Request::ReplicaRead { inner, .. } => {
                Response::Error(format!("{} is not replica-readable", inner.op_name()))
            }
            Request::CellDigest { grid } => self.serve_cell_digest(grid),
            Request::Rejoin { epoch, grid, cells } => self.serve_rejoin(epoch, grid, cells),
            Request::ExportSegments { region } => self.serve_export_segments(region),
            Request::InstallSegments {
                primary,
                grid,
                cell,
                truncate,
                frames,
                head,
            } => self.serve_install_segments(primary, grid, cell, truncate, frames, head),
        }
    }

    fn serve_ingest_seq(&mut self, epoch: u64, batch: Vec<Observation>) -> Response {
        // Partition the batch into observations this worker owns under
        // its installed routing slice and ones a stale sender misrouted.
        // A sender whose routing epoch is *newer* than the installed slice
        // is better informed (this worker missed a broadcast, e.g. on a
        // lossy link): accept permissively instead of NACKing writes the
        // newest plan really does route here, which would livelock the
        // sender's redo loop.
        let (owned, misrouted): (Vec<Observation>, Vec<Observation>) = match &self.route {
            Some(route) if route.epoch >= epoch => {
                batch.into_iter().partition(|o| route.owns(o.position))
            }
            _ => (batch, Vec::new()),
        };
        // Matched before the id filter: the matches are a function of the
        // registrations and the owned rows alone, so a re-driven batch
        // yields them again and the sender delivers those of the one send
        // it gets acknowledged.
        let matches = self.continuous.matching(&owned);
        self.notifications_sent += matches.len() as u64;
        // No onward replication: the ack certifies this worker's copy.
        let fresh: Vec<Observation> = owned
            .into_iter()
            .filter(|o| self.seen.insert(o.id))
            .collect();
        self.index.insert_batch(fresh);
        if misrouted.is_empty() && matches.is_empty() {
            Response::Ack
        } else {
            Response::Ingested {
                epoch: self.route.as_ref().map_or(0, |r| r.epoch),
                misrouted: misrouted.into_iter().map(|o| o.id).collect(),
                matches,
            }
        }
    }

    /// `Some(error)` when `request` is a control mutation or a replica
    /// write whose epoch is below the installed route epoch: the one-sided
    /// fence that keeps a stale coordinator instance from corrupting
    /// worker state (a rejoin is refused before its reset), and a copy
    /// routed under an older plan out of a replica log. An uninstalled
    /// route accepts every epoch (fresh workers must be governable), and
    /// an equal epoch passes — the live coordinator mutates under its
    /// current plan.
    fn fence(&self, request: &Request) -> Option<Response> {
        let epoch = match *request {
            Request::ReplicateSeq { epoch, .. }
            | Request::RouteUpdate { epoch, .. }
            | Request::EvictBefore { epoch, .. }
            | Request::Promote { epoch, .. }
            | Request::Rejoin { epoch, .. } => epoch,
            _ => return None,
        };
        let installed = self.route.as_ref()?.epoch;
        (epoch < installed).then(|| Response::Error(STALE_EPOCH_ERROR.into()))
    }

    fn serve_route_update(&mut self, epoch: u64, grid: GridSpec, cells: Vec<u32>) -> Response {
        self.route = Some(RouteInfo {
            epoch,
            grid,
            cells: cells.into_iter().collect(),
        });
        Response::Ack
    }

    /// Answers the anti-entropy sweep: sparse per-cell count/checksum
    /// digests over the primary shard and every held replica log,
    /// bucketed by the request's grid with clamping (the ingest routing
    /// rule), so the coordinator can compare copies without moving data.
    fn serve_cell_digest(&mut self, grid: GridSpec) -> Response {
        // Stream the shard through the accumulator instead of
        // materialising it: sealed segments decode block by block.
        let mut acc = crate::repair::DigestAccumulator::new(&grid);
        self.index.for_each(|o| acc.add(o));
        let primary = acc
            .finish()
            .into_iter()
            .map(|(cell, count, checksum)| crate::protocol::DigestEntry {
                cell,
                count,
                checksum,
            })
            .collect();
        let mut replicas: Vec<crate::protocol::ReplicaDigestEntry> = Vec::new();
        for (&of, log) in &self.replicas {
            let mut acc = crate::repair::DigestAccumulator::new(&grid);
            log.digest_into(&mut acc);
            replicas.extend(acc.finish().into_iter().map(|(cell, count, checksum)| {
                crate::protocol::ReplicaDigestEntry {
                    primary: of,
                    cell,
                    count,
                    checksum,
                }
            }));
        }
        replicas.sort_by_key(|e| (e.primary, e.cell));
        Response::Digests(crate::protocol::DigestReport { primary, replicas })
    }

    /// Readmission handshake for a restarted worker: drop **all** local
    /// state (the pre-crash incarnation's shard, replica logs, dedup ids,
    /// standing queries) and install the new
    /// epoch-stamped routing slice. The coordinator then bulk-syncs the
    /// shard via [`Request::InstallSegments`] and re-registers standing
    /// queries before publishing the plan that re-admits this node. Idempotent:
    /// re-clearing an empty worker and re-installing the same route are
    /// no-ops.
    fn serve_rejoin(&mut self, epoch: u64, grid: GridSpec, cells: Vec<u32>) -> Response {
        self.index = StIndex::new(self.config.index.clone());
        self.replicas.clear();
        self.seen.clear();
        self.continuous.clear();
        self.route = Some(RouteInfo {
            epoch,
            grid,
            cells: cells.into_iter().collect(),
        });
        Response::Ack
    }

    /// Exports the shard contents overlapping a region as whole sealed
    /// segment frames (split at cell boundaries) plus the loose
    /// mutable-head rows. The export reads without mutating, so it is safe
    /// to retry and the deterministic split keeps retried frames
    /// digest-identical.
    fn serve_export_segments(&mut self, region: BBox) -> Response {
        let (frames, head) = self.index.export_segments(region);
        Response::Segments { frames, head }
    }

    /// Writes one chunk of a cell stream into the copy `primary` names,
    /// once its frames decoded (and so verified). A replica log truncates
    /// the cell's rows and their ids when asked, then appends the rows of
    /// `frames` and `head` through its id set. The primary shard refuses
    /// a truncate while its installed route owns the cell — once a route
    /// excluding the cell is installed, `IngestSeq` NACKs every write to
    /// it, so nothing lands between a drain's export and its drop; before
    /// that, acked rows could — archives frames whole unless their digest
    /// is held, and passes `head` through the id filter.
    fn serve_install_segments(
        &mut self,
        primary: NodeId,
        grid: GridSpec,
        cell: u32,
        truncate: bool,
        frames: Vec<SegmentFrame>,
        head: Vec<Observation>,
    ) -> Response {
        let segments: Result<Vec<SealedSegment>, _> =
            frames.into_iter().map(SealedSegment::from_frame).collect();
        let segments = match segments {
            Ok(segments) => segments,
            Err(e) => return Response::Error(format!("bad segment frame: {e:?}")),
        };
        let region = cell_scope(&grid, cell);
        if primary != self.endpoint.id() {
            let log = self.replicas.entry(primary).or_default();
            if truncate {
                log.truncate(region);
            }
            let sealed = segments.iter().flat_map(SealedSegment::unseal);
            log.append(head.into_iter().chain(sealed));
            // An emptied log reads as "nothing held for that primary",
            // matching a fresh worker.
            if log.rows().is_empty() {
                self.replicas.remove(&primary);
            }
            return Response::Ack;
        }
        if truncate {
            let route = self.route.as_ref();
            if route.is_some_and(|r| r.grid != grid || r.cells.contains(&cell)) {
                return Response::Error(format!("cell {cell} is owned under the installed route"));
            }
            for removed in self.index.extract_range(region) {
                self.seen.remove(&removed.id);
            }
        }
        for segment in segments {
            // The id filter must know the archived ids even though the
            // rows never pass through insert.
            let rows = segment.unseal();
            if self.index.install_segment(segment) {
                self.seen.extend(rows.into_iter().map(|o| o.id));
            }
        }
        let fresh: Vec<Observation> = head
            .into_iter()
            .filter(|o| self.seen.insert(o.id))
            .collect();
        self.index.insert_batch(fresh);
        Response::Ack
    }

    fn serve_promote(&mut self, failed: NodeId) -> Response {
        let log = self.replicas.remove(&failed).unwrap_or_default().take();
        // The same observations may already be primary here — a sender
        // whose ack from `failed` was lost retransmits to this worker
        // after failover. Promote through the seen-id filter so they
        // count once; a retried `Promote` is likewise a no-op (the log
        // was removed above).
        let fresh: Vec<Observation> = log.into_iter().filter(|o| self.seen.insert(o.id)).collect();
        self.index.insert_batch(fresh);
        Response::Ack
    }

    fn serve_evict_before(&mut self, cutoff: Timestamp) -> Response {
        // Both copies evict by slice: a row goes iff its slice ends at or
        // before the cutoff, and its dedup id goes with it, so the copies
        // keep matching digests and a row sent again lands in both.
        let len = self.config.index.slice_len.as_millis();
        let kept_from = Timestamp::from_millis(cutoff.as_millis() / len * len);
        let everywhere = BBox::around(Point::ORIGIN, f64::MAX);
        let evicted = TimeInterval::new(Timestamp::ZERO, kept_from);
        for gone in self.index.range(everywhere, evicted) {
            self.seen.remove(&gone.id);
        }
        self.index.evict_before(cutoff);
        for log in self.replicas.values_mut() {
            log.evict_slices_before(cutoff, self.config.index.slice_len);
        }
        Response::Ack
    }

    /// Answers the control-plane census: installed route epoch, owned
    /// primary cells, held replica-log keys, and locally-installed
    /// standing registrations. A reconstructing coordinator derives its
    /// whole control state from these reports — worker state is the
    /// ground truth, coordinator memory only a cache of it.
    fn serve_census(&mut self) -> Response {
        let (epoch, grid, cells) = match &self.route {
            Some(r) => {
                let mut cells: Vec<u32> = r.cells.iter().copied().collect();
                cells.sort_unstable();
                (r.epoch, Some(r.grid), cells)
            }
            None => (0, None, Vec::new()),
        };
        let mut replica_of: Vec<NodeId> = self.replicas.keys().copied().collect();
        replica_of.sort_unstable_by_key(|n| n.0);
        let registrations = self
            .continuous
            .all()
            .into_iter()
            .map(|(id, predicate)| crate::protocol::CensusRegistration { id, predicate })
            .collect();
        Response::Census(crate::protocol::CensusReport {
            epoch,
            grid,
            cells,
            replica_of,
            registrations,
        })
    }

    /// Local statistics.
    pub fn stats(&self) -> WorkerStatsMsg {
        let mut served: Vec<(String, u64)> = self
            .shared
            .served
            .lock()
            .iter()
            .map(|(&op, &n)| (op.to_string(), n))
            .collect();
        served.sort();
        let index_stats = self.index.stats();
        WorkerStatsMsg {
            primary_observations: self.index.len() as u64,
            replica_observations: self
                .replicas
                .values()
                .map(|log| log.rows().len() as u64)
                .sum(),
            notifications_sent: self.notifications_sent,
            continuous_queries: self.continuous.len() as u64,
            busy_micros: self.shared.busy_micros.load(Ordering::Relaxed),
            resident_bytes: index_stats.resident_bytes as u64,
            sealed_segments: index_stats.sealed_segments as u64,
            newest_ms: index_stats.newest.map(|t| t.as_millis()),
            served,
        }
    }
}

/// Owner handle of a spawned worker thread.
#[derive(Debug)]
pub struct WorkerHandle {
    stop: Arc<AtomicBool>,
    /// Unblocks the serving loop's blocking receive so it observes the
    /// stop flag — works even when the node is crashed in the fabric.
    waker: Waker,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WorkerHandle {
    /// Stops the serving loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{ContinuousQueryId, Notification};
    use crate::protocol::PROJ_FULL;
    use crate::test_obs as obs;
    use stcam_camnet::Signature;
    use stcam_geo::Duration;
    use stcam_net::{Fabric, LinkModel};
    use stcam_world::EntityClass;
    use std::time::Duration as StdDuration;

    fn index_config() -> IndexConfig {
        IndexConfig::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            50.0,
            Duration::from_secs(10),
        )
    }

    fn config(read_threads: usize) -> WorkerConfig {
        WorkerConfig {
            index: index_config(),
            read_threads,
        }
    }

    fn lone_worker() -> (Fabric, Worker) {
        let fabric = Fabric::new(LinkModel::instant());
        let worker = Worker::new(fabric.register(NodeId(1)), config(0));
        (fabric, worker)
    }

    /// Fixture: a client write through the one client door.
    fn ingest_req(batch: Vec<Observation>) -> Request {
        Request::IngestSeq { epoch: 0, batch }
    }

    /// Fixture: a sender-side replica write for `primary`'s shard.
    fn replicate_req(primary: NodeId, batch: Vec<Observation>) -> Request {
        Request::ReplicateSeq {
            primary,
            epoch: 0,
            batch,
        }
    }

    /// Fixture: a control-plane write into the copy held for `primary`,
    /// at cell 0 of the 2×2 grid.
    fn install_req(
        primary: NodeId,
        truncate: bool,
        frames: Vec<SegmentFrame>,
        head: Vec<Observation>,
    ) -> Request {
        Request::InstallSegments {
            primary,
            grid: grid_2x2(),
            cell: 0,
            truncate,
            frames,
            head,
        }
    }

    /// Sorted sequence numbers of the replica log held for `primary`.
    fn log_seqs(worker: &Worker, primary: NodeId) -> Vec<u64> {
        let log = worker.replicas.get(&primary);
        let rows = log.into_iter().flat_map(|log| log.rows().iter());
        let mut seqs: Vec<u64> = rows.map(|o| o.id.seq()).collect();
        seqs.sort_unstable();
        seqs
    }

    fn window_all() -> TimeInterval {
        TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1_000))
    }

    #[test]
    fn ingest_then_range() {
        let (_fabric, mut worker) = lone_worker();
        assert_eq!(
            worker.handle_request(ingest_req(vec![obs(0, 500, 10.0, 10.0)])),
            Response::Ack
        );
        let resp = worker.handle_request(Request::Range {
            region: BBox::around(Point::new(10.0, 10.0), 5.0),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        });
        match resp {
            Response::Observations(hits) => assert_eq!(hits.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn knn_respects_max_distance() {
        // Both row sources gate the distance: the shard's index and the
        // replica log a failover read scans.
        let (_fabric, mut worker) = lone_worker();
        let near = obs(0, 0, 10.0, 0.0);
        let rows = vec![near.clone(), obs(1, 0, 100.0, 0.0)];
        worker.handle_request(ingest_req(rows.clone()));
        worker.handle_request(replicate_req(NodeId(7), rows));
        let knn = Request::Knn {
            at: Point::new(0.0, 0.0),
            window: window_all(),
            k: 5,
            max_distance: Some(50.0),
        };
        let replica_read = Request::ReplicaRead {
            of: NodeId(7),
            inner: Box::new(knn.clone()),
        };
        for read in [knn, replica_read] {
            let resp = worker.handle_request(read);
            assert_eq!(resp, Response::Observations(vec![near.clone()]));
        }
    }

    #[test]
    fn replica_writes_land_in_the_log_not_the_shard() {
        let (_fabric, mut replica) = lone_worker();
        replica.handle_request(replicate_req(
            NodeId(7),
            vec![obs(0, 0, 1.0, 1.0), obs(1, 0, 2.0, 2.0)],
        ));
        let stats = replica.stats();
        assert_eq!(stats.replica_observations, 2);
        assert_eq!(stats.primary_observations, 0);
        assert_eq!(log_seqs(&replica, NodeId(7)), vec![0, 1]);
    }

    #[test]
    fn promote_moves_replica_log_into_index() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(replicate_req(NodeId(4), vec![obs(0, 0, 5.0, 5.0)]));
        assert_eq!(
            worker.handle_request(Request::Promote {
                failed: NodeId(4),
                epoch: 0,
            }),
            Response::Ack
        );
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 1);
        assert_eq!(stats.replica_observations, 0);
        // Promoting an unknown primary is a harmless no-op.
        assert_eq!(
            worker.handle_request(Request::Promote {
                failed: NodeId(9),
                epoch: 0,
            }),
            Response::Ack
        );
    }

    #[test]
    fn continuous_query_matches_ride_the_ingest_reply() {
        let (_fabric, mut worker) = lone_worker();
        let query = ContinuousQueryId(7);
        worker.handle_request(Request::RegisterContinuous {
            id: query,
            predicate: Predicate {
                region: BBox::new(Point::new(0.0, 0.0), Point::new(50.0, 50.0)),
                class: Some(EntityClass::Car),
            },
        });
        let hit = obs(0, 0, 10.0, 10.0);
        let batch = vec![hit.clone(), obs(1, 0, 500.0, 500.0)];
        let matched = Response::Ingested {
            epoch: 0,
            misrouted: vec![],
            matches: vec![Notification {
                query,
                matches: vec![hit],
            }],
        };
        assert_eq!(worker.handle_request(ingest_req(batch.clone())), matched);
        // A batch that runs again (a re-drive) matches again; the id
        // filter only keeps the rows from being stored twice.
        assert_eq!(worker.handle_request(ingest_req(batch)), matched);
        assert_eq!(worker.stats().primary_observations, 2);
        // Unregistering stops the matches: a plain ack again.
        worker.handle_request(Request::UnregisterContinuous(query));
        assert_eq!(
            worker.handle_request(ingest_req(vec![obs(2, 0, 10.0, 10.0)])),
            Response::Ack
        );
    }

    #[test]
    fn eviction_trims_index_and_replica_logs_by_slice() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(ingest_req(vec![
            obs(0, 1_000, 1.0, 1.0),
            obs(3, 52_000, 1.0, 1.0),
        ]));
        let replica = |seq, t_ms| replicate_req(NodeId(9), vec![obs(seq, t_ms, 2.0, 2.0)]);
        for (seq, t_ms) in [(1, 1_000), (4, 52_000), (5, 57_000), (2, 90_000)] {
            worker.handle_request(replica(seq, t_ms));
        }
        let evict = |worker: &mut Worker, secs| {
            worker.handle_request(Request::EvictBefore {
                cutoff: Timestamp::from_secs(secs),
                epoch: 0,
            });
            worker.stats().primary_observations
        };
        // A cutoff inside the 50–60 s slice spares that slice whole, in
        // both copies.
        assert_eq!(evict(&mut worker, 55), 1);
        assert_eq!(log_seqs(&worker, NodeId(9)), vec![2, 4, 5]);
        // At its boundary the slice goes — and its dedup ids with it, so
        // a repair stream can put an evicted row back.
        assert_eq!(evict(&mut worker, 60), 0);
        assert_eq!(log_seqs(&worker, NodeId(9)), vec![2]);
        worker.handle_request(replica(4, 52_000));
        assert_eq!(log_seqs(&worker, NodeId(9)), vec![2, 4]);
    }

    #[test]
    fn range_filtered_applies_class_predicate() {
        let (_fabric, mut worker) = lone_worker();
        let mut truck = obs(0, 0, 100.0, 100.0);
        truck.class = EntityClass::Truck;
        worker.handle_request(ingest_req(vec![truck, obs(1, 0, 110.0, 110.0)]));
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(500.0, 500.0));
        match worker.handle_request(Request::RangeFiltered {
            region,
            window: window_all(),
            class: EntityClass::Truck,
            limit: 0,
            projection: PROJ_FULL,
        }) {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].class, EntityClass::Truck);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn export_install_bulk_syncs_a_fresh_worker() {
        let (fabric, mut source) = lone_worker();
        // Spread across enough slices that the head seals some of them.
        let mut batch: Vec<Observation> = (0..200)
            .map(|i| {
                obs(
                    i,
                    (i * 250) % 50_000,
                    (i * 37 % 1000) as f64,
                    (i * 61 % 1000) as f64,
                )
            })
            .collect();
        // One row outside the extent: it clamps into a border cell.
        batch.push(obs(200, 0, -50.0, 1200.0));
        assert_eq!(
            source.handle_request(ingest_req(batch.clone())),
            Response::Ack
        );
        let digest = |worker: &mut Worker| match worker
            .handle_request(Request::CellDigest { grid: grid_2x2() })
        {
            Response::Digests(report) => report,
            other => panic!("unexpected response {other:?}"),
        };
        let sealed = source.stats().sealed_segments;
        assert!(sealed > 0, "nothing sealed at the source");
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let Response::Segments { frames, head } =
            source.handle_request(Request::ExportSegments { region: everything })
        else {
            panic!("expected segments");
        };
        assert_eq!(frames.len() as u64, sealed);
        assert_eq!(
            frames.iter().map(|f| f.count as usize).sum::<usize>() + head.len(),
            batch.len()
        );
        // Install into a fresh worker; answers must match the source's.
        let mut target = Worker::new(fabric.register(NodeId(2)), config(0));
        assert_eq!(
            target.handle_request(install_req(NodeId(2), false, frames.clone(), head.clone())),
            Response::Ack
        );
        assert_eq!(target.stats().primary_observations, batch.len() as u64);
        assert_eq!(target.stats().sealed_segments, sealed);
        let probe = Request::Range {
            region: BBox::new(Point::new(100.0, 100.0), Point::new(800.0, 800.0)),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        };
        assert_eq!(
            source.handle_request(probe.clone()),
            target.handle_request(probe)
        );
        // Retransmission: digest dedup and the id filter drop everything.
        assert_eq!(
            target.handle_request(install_req(NodeId(2), false, frames, head)),
            Response::Ack
        );
        assert_eq!(target.stats().primary_observations, batch.len() as u64);
        assert_eq!(target.stats().sealed_segments, sealed);
        // The clamped row travels with the border cell it routes to — the
        // one region rule every copy exports by — and a cover relays the
        // export as stored: its frames land in a log as rows, and the two
        // copies' digests agree.
        let corner = cell_scope(&grid_2x2(), 2);
        let Response::Segments { frames, head } =
            target.handle_request(Request::ExportSegments { region: corner })
        else {
            panic!("expected segments");
        };
        assert!(!frames.is_empty(), "nothing sealed in the corner");
        let cover = Request::InstallSegments {
            primary: NodeId(2),
            grid: grid_2x2(),
            cell: 2,
            truncate: true,
            frames,
            head,
        };
        assert_eq!(source.handle_request(cover), Response::Ack);
        assert!(log_seqs(&source, NodeId(2)).contains(&200));
        let truth = digest(&mut target)
            .primary
            .into_iter()
            .find(|e| e.cell == 2);
        let copy = digest(&mut source).replicas;
        assert_eq!(copy.len(), 1);
        let truth = truth.expect("the corner is held");
        assert_eq!(
            (copy[0].cell, copy[0].count, copy[0].checksum),
            (2, truth.count, truth.checksum)
        );
    }

    #[test]
    fn a_batch_applied_twice_inserts_once() {
        // A batch re-driven after a park or a failover, or re-sent after
        // the transport forgot its answer, is a new request here; the id
        // filter must still count it once.
        let (_fabric, mut worker) = lone_worker();
        let batch = vec![obs(0, 500, 10.0, 10.0)];
        worker.handle_request(ingest_req(batch.clone()));
        // Still a full ack — the data is present, which is what an ack
        // certifies.
        assert_eq!(worker.handle_request(ingest_req(batch)), Response::Ack);
        assert_eq!(worker.stats().primary_observations, 1);
    }

    #[test]
    fn nack_names_the_misrouted_observations_and_the_epoch() {
        let (_fabric, mut worker) = lone_worker();
        // Own only cell 0 of a 2×1 macro grid splitting x at 500.
        worker.handle_request(Request::RouteUpdate {
            epoch: 7,
            grid: GridSpec::new(Point::ORIGIN, 500.0, 2, 1),
            cells: vec![0],
        });
        let mine = obs(0, 500, 100.0, 100.0);
        let theirs = obs(1, 500, 900.0, 100.0);
        let theirs_id = theirs.id;
        let resp = worker.handle_request(Request::IngestSeq {
            epoch: 3,
            batch: vec![mine, theirs],
        });
        assert_eq!(
            resp,
            Response::Ingested {
                epoch: 7,
                misrouted: vec![theirs_id],
                matches: vec![],
            }
        );
        // The owned observation was applied despite the nack.
        assert_eq!(worker.stats().primary_observations, 1);
    }

    #[test]
    fn route_update_ignores_older_epoch() {
        let (_fabric, mut worker) = lone_worker();
        let grid = GridSpec::new(Point::ORIGIN, 500.0, 2, 1);
        worker.handle_request(Request::RouteUpdate {
            epoch: 9,
            grid,
            cells: vec![0],
        });
        // A stale update must not widen ownership back to cell 1.
        worker.handle_request(Request::RouteUpdate {
            epoch: 4,
            grid,
            cells: vec![0, 1],
        });
        let resp = worker.handle_request(Request::IngestSeq {
            epoch: 4,
            batch: vec![obs(0, 500, 900.0, 100.0)],
        });
        assert!(
            matches!(resp, Response::Ingested { epoch: 9, .. }),
            "unexpected response {resp:?}"
        );
    }

    #[test]
    fn stale_epoch_control_mutations_are_fenced() {
        let (_fabric, mut worker) = lone_worker();
        let grid = GridSpec::new(Point::ORIGIN, 500.0, 2, 1);
        worker.handle_request(Request::RouteUpdate {
            epoch: 9,
            grid,
            cells: vec![0],
        });
        // Every control mutation and replica write below the installed
        // epoch is rejected with an explicit error — the stale sender
        // learns it is fenced.
        let cutoff = Timestamp::from_secs(100);
        let copy = vec![obs(1, 500, 100.0, 100.0)];
        for stale in [
            Request::RouteUpdate {
                epoch: 8,
                grid,
                cells: vec![0, 1],
            },
            Request::EvictBefore { cutoff, epoch: 8 },
            Request::Promote {
                failed: NodeId(7),
                epoch: 8,
            },
            Request::Rejoin {
                epoch: 8,
                grid,
                cells: vec![0, 1],
            },
            Request::ReplicateSeq {
                primary: NodeId(7),
                epoch: 8,
                batch: copy,
            },
        ] {
            let refused = worker.handle_request(stale);
            assert_eq!(refused, Response::Error(STALE_EPOCH_ERROR.into()));
        }
        // The fence rejected the rejoin *before* any state reset, and the
        // copy whole: the installed route is untouched and no log is held.
        assert!(
            matches!(
                worker.handle_request(Request::Census),
                Response::Census(ref r) if r.epoch == 9 && r.cells == vec![0] && r.replica_of.is_empty()
            ),
            "route must survive a fenced rejoin"
        );
        // The installed epoch itself (and anything above) passes.
        let current = Request::EvictBefore { cutoff, epoch: 9 };
        assert_eq!(worker.handle_request(current), Response::Ack);
    }

    #[test]
    fn census_reports_route_replicas_and_registrations() {
        use crate::protocol::{CensusRegistration, CensusReport};
        let (_fabric, mut worker) = lone_worker();
        // No route yet: an empty report at epoch 0.
        let resp = worker.handle_request(Request::Census);
        assert_eq!(resp, Response::Census(CensusReport::default()));
        // A replica log and a standing registration become census facts.
        worker.handle_request(replicate_req(NodeId(9), vec![obs(1, 500, 100.0, 100.0)]));
        let grid = GridSpec::new(Point::ORIGIN, 500.0, 2, 1);
        worker.handle_request(Request::RouteUpdate {
            epoch: 5,
            grid,
            cells: vec![1, 0],
        });
        let predicate = Predicate::new(BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0)));
        worker.handle_request(Request::RegisterContinuous {
            id: ContinuousQueryId(7),
            predicate,
        });
        let resp = worker.handle_request(Request::Census);
        assert_eq!(
            resp,
            Response::Census(CensusReport {
                epoch: 5,
                grid: Some(grid),
                cells: vec![0, 1],
                replica_of: vec![NodeId(9)],
                registrations: vec![CensusRegistration {
                    id: ContinuousQueryId(7),
                    predicate,
                }],
            })
        );
    }

    #[test]
    fn newer_sender_epoch_is_accepted_permissively() {
        let (_fabric, mut worker) = lone_worker();
        // Installed slice (epoch 7) owns only cell 0 — but the sender
        // writes under epoch 9, so its plan post-dates this worker's and
        // the out-of-slice observation must be accepted, not NACKed.
        worker.handle_request(Request::RouteUpdate {
            epoch: 7,
            grid: GridSpec::new(Point::ORIGIN, 500.0, 2, 1),
            cells: vec![0],
        });
        let resp = worker.handle_request(Request::IngestSeq {
            epoch: 9,
            batch: vec![obs(0, 500, 900.0, 100.0)],
        });
        assert_eq!(resp, Response::Ack);
        assert_eq!(worker.stats().primary_observations, 1);
    }

    #[test]
    fn replicate_seq_is_id_deduped() {
        let (_fabric, mut worker) = lone_worker();
        let batch = vec![obs(0, 500, 10.0, 10.0), obs(1, 500, 20.0, 20.0)];
        let replicate = || replicate_req(NodeId(4), batch.clone());
        assert_eq!(worker.handle_request(replicate()), Response::Ack);
        // The same ids again: appended zero times.
        assert_eq!(worker.handle_request(replicate()), Response::Ack);
        assert_eq!(worker.stats().replica_observations, 2);
    }

    #[test]
    fn promote_skips_observations_already_primary() {
        let (_fabric, mut worker) = lone_worker();
        let shared = obs(0, 500, 10.0, 10.0);
        // Arrives once as a replica for a primary that will fail…
        worker.handle_request(replicate_req(
            NodeId(4),
            vec![shared.clone(), obs(1, 500, 20.0, 20.0)],
        ));
        // …and once directly (sender retried to the successor).
        worker.handle_request(ingest_req(vec![shared]));
        worker.handle_request(Request::Promote {
            failed: NodeId(4),
            epoch: 0,
        });
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 2);
        assert_eq!(stats.replica_observations, 0);
    }

    /// What `inner` means over `rows`, worked out the slow way; a range in
    /// id order, as the client's merge leaves it.
    fn reference_answer(rows: &[Observation], inner: &Request) -> Response {
        let select = |region: &BBox, window: &TimeInterval, class: Option<_>, limit, thin| {
            let mut hits: Vec<Observation> = rows
                .iter()
                .filter(|o| region.contains(o.position) && window.contains(o.time))
                .filter(|o| class.is_none_or(|c| o.class == c))
                .cloned()
                .collect();
            hits.sort_by_key(|o| o.id);
            hits.truncate(if limit == 0 {
                usize::MAX
            } else {
                limit as usize
            });
            if thin {
                for o in &mut hits {
                    o.signature = Signature::new([0.0; SIGNATURE_DIM]);
                    o.truth = None;
                }
            }
            Response::Observations(hits)
        };
        match inner {
            Request::Range {
                region,
                window,
                limit,
                projection,
            } => select(region, window, None, *limit, *projection == PROJ_THIN),
            Request::RangeFiltered {
                region,
                window,
                class,
                limit,
                projection,
            } => select(
                region,
                window,
                Some(*class),
                *limit,
                *projection == PROJ_THIN,
            ),
            Request::Knn {
                at,
                window,
                k,
                max_distance,
            } => {
                let reach = max_distance.unwrap_or(f64::INFINITY);
                let mut hits: Vec<Observation> = rows
                    .iter()
                    .filter(|o| window.contains(o.time) && at.distance(o.position) <= reach)
                    .cloned()
                    .collect();
                crate::exec::sort_knn(&mut hits, *at);
                hits.truncate(*k as usize);
                Response::Observations(hits)
            }
            Request::Heatmap { buckets, window } => {
                let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
                for o in rows.iter().filter(|o| window.contains(o.time)) {
                    if let Some(cell) = buckets.cell_of(o.position) {
                        *counts
                            .entry(cell.row * buckets.cols() + cell.col)
                            .or_default() += 1;
                    }
                }
                Response::CellCounts(counts.into_iter().collect())
            }
            other => panic!("{} is not a shard read", other.op_name()),
        }
    }

    /// One function decides what a read means, whichever copy answers:
    /// the same rows as a primary shard and as a replica log give the
    /// reference answer to every read, pushdowns included.
    #[test]
    fn replica_read_answers_from_the_replica_log() {
        let fabric = Fabric::new(LinkModel::instant());
        let mut primary = Worker::new(fabric.register(NodeId(7)), config(0));
        let mut holder = Worker::new(fabric.register(NodeId(1)), config(0));
        // 30 rows over 87 s (nine 10 s slices, so the shard seals some),
        // cars and trucks alternating, spread over the extent.
        let rows: Vec<Observation> = (0..30u64)
            .map(|i| {
                let (x, y) = ((i * 97 % 1000) as f64, (i * 53 % 1000) as f64);
                let mut o = obs(i, i * 3_000, x, y);
                if i % 2 == 1 {
                    o.class = EntityClass::Truck;
                }
                o
            })
            .collect();
        primary.handle_request(ingest_req(rows.clone()));
        // The log fills newest first, and the holder's own shard must not
        // leak into replica reads.
        holder.handle_request(replicate_req(
            NodeId(7),
            rows.iter().rev().cloned().collect(),
        ));
        holder.handle_request(ingest_req(vec![obs(90, 0, 500.0, 500.0)]));

        let region = BBox::new(Point::new(0.0, 0.0), Point::new(600.0, 1000.0));
        let minute = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(60));
        let range = |limit, projection| Request::Range {
            region,
            window: minute,
            limit,
            projection,
        };
        let filtered = |class, limit| Request::RangeFiltered {
            region,
            window: minute,
            class,
            limit,
            projection: PROJ_FULL,
        };
        let (centre, tie) = (Point::new(300.0, 300.0), Point::new(48.5, 26.5));
        let knn = |at, k, max_distance| Request::Knn {
            at,
            window: minute,
            k,
            max_distance,
        };
        let heatmap = |cell_size, side| Request::Heatmap {
            buckets: GridSpec::new(Point::ORIGIN, cell_size, side, side),
            window: minute,
        };
        let (truck, bicycle) = (EntityClass::Truck, EntityClass::Bicycle);
        // Each read, and the least its answer must hold (rows, or counted
        // observations), so no line passes on empty answers.
        let table = [
            ("range", range(0, PROJ_FULL), 6),
            ("range limit", range(5, PROJ_FULL), 5),
            ("range thin", range(0, PROJ_THIN), 6),
            ("class held", filtered(truck, 0), 1),
            ("class held, limit 2", filtered(truck, 2), 2),
            ("class absent", filtered(bicycle, 0), 0),
            ("knn", knn(centre, 4, None), 4),
            ("knn within 250 m", knn(centre, 20, Some(250.0)), 1),
            ("knn, none within 100 m", knn(centre, 20, Some(100.0)), 0),
            ("knn k above population", knn(centre, 50, None), 20),
            ("knn, rows 0 and 1 tie, 0 wins", knn(tie, 1, None), 1),
            // The index grid is 50 m: buckets coarser and finer than it.
            ("heatmap coarse", heatmap(250.0, 4), 20),
            ("heatmap fine", heatmap(10.0, 100), 20),
        ];
        let size = |response: &Response| match response {
            Response::Observations(rows) => rows.len(),
            Response::CellCounts(cells) => cells.iter().map(|c| c.1 as usize).sum(),
            _ => 0,
        };
        let replica_read = |of, inner: &Request| Request::ReplicaRead {
            of,
            inner: Box::new(inner.clone()),
        };
        for (name, inner, at_least) in &table {
            let want = reference_answer(&rows, inner);
            assert!(size(&want) >= *at_least, "{name} is vacuous");
            let direct = primary.handle_request(inner.clone());
            assert_eq!(direct, want, "{name}, primary");
            let failover = holder.handle_request(replica_read(NodeId(7), inner));
            assert_eq!(failover, want, "{name}, replica");
            // A primary nothing is held for reads as an empty shard, not
            // as an error.
            let unknown = holder.handle_request(replica_read(NodeId(42), inner));
            assert_eq!(unknown, reference_answer(&[], inner), "{name}, unknown");
        }
        // Only shard reads may be wrapped: no mutation, and no page pull.
        let evict = Request::EvictBefore {
            cutoff: Timestamp::ZERO,
            epoch: 0,
        };
        let pull = Request::FetchPage { cursor: 1, page: 1 };
        for refused in [evict, pull] {
            match holder.handle_request(replica_read(NodeId(7), &refused)) {
                Response::Error(msg) => assert!(msg.contains("not replica-readable")),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let held = holder.stats().replica_observations;
        assert_eq!(held, 30, "a read mutated the log");
    }

    #[test]
    fn served_counters_track_per_op_traffic() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(Request::Ping);
        worker.handle_request(Request::Ping);
        worker.handle_request(ingest_req(vec![obs(0, 0, 10.0, 10.0)]));
        let stats = worker.stats();
        assert_eq!(stats.served_count("ping"), 2);
        assert_eq!(stats.served_count("ingest_seq"), 1);
        assert_eq!(stats.served_count("range"), 0);
    }

    #[test]
    fn heatmap_reports_sparse_nonzero_buckets() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(ingest_req(vec![
            obs(0, 0, 10.0, 10.0),   // cell (0, 0)
            obs(1, 0, 10.0, 15.0),   // cell (0, 0)
            obs(2, 0, 910.0, 910.0), // cell (9, 9)
        ]));
        let buckets = GridSpec::new(Point::new(0.0, 0.0), 100.0, 10, 10);
        match worker.handle_request(Request::Heatmap {
            buckets,
            window: window_all(),
        }) {
            Response::CellCounts(cells) => {
                assert_eq!(cells, vec![(0, 2), (99, 1)]);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn grid_2x2() -> GridSpec {
        GridSpec::new(Point::ORIGIN, 500.0, 2, 2)
    }

    #[test]
    fn cell_digest_covers_primary_and_replica_logs() {
        use stcam_index::observation_checksum;
        let (_fabric, mut worker) = lone_worker();
        let a = obs(0, 100, 100.0, 100.0); // cell 0
        let b = obs(1, 200, 100.0, 150.0); // cell 0
        let c = obs(2, 300, 900.0, 900.0); // cell 3
        worker.handle_request(ingest_req(vec![a.clone(), b.clone()]));
        worker.handle_request(replicate_req(NodeId(7), vec![c.clone()]));
        match worker.handle_request(Request::CellDigest { grid: grid_2x2() }) {
            Response::Digests(report) => {
                assert_eq!(report.primary.len(), 1);
                assert_eq!(report.primary[0].cell, 0);
                assert_eq!(report.primary[0].count, 2);
                assert_eq!(
                    report.primary[0].checksum,
                    observation_checksum(&a) ^ observation_checksum(&b)
                );
                assert_eq!(report.replicas.len(), 1);
                assert_eq!(report.replicas[0].primary, NodeId(7));
                assert_eq!(report.replicas[0].cell, 3);
                assert_eq!(report.replicas[0].count, 1);
                assert_eq!(report.replicas[0].checksum, observation_checksum(&c));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn install_overwrites_a_replica_log_cell_idempotently() {
        let (_fabric, mut worker) = lone_worker();
        // Stale copy in cell 0 of primary 4's log.
        worker.handle_request(replicate_req(
            NodeId(4),
            vec![obs(0, 100, 10.0, 10.0), obs(9, 100, 900.0, 900.0)],
        ));
        // Stream the authoritative contents: truncate, then two chunks.
        let fresh = [obs(1, 100, 20.0, 20.0), obs(2, 100, 30.0, 30.0)];
        worker.handle_request(install_req(NodeId(4), true, vec![], vec![fresh[0].clone()]));
        worker.handle_request(install_req(
            NodeId(4),
            false,
            vec![],
            vec![fresh[1].clone()],
        ));
        // A retransmitted chunk appends nothing (id dedup).
        worker.handle_request(install_req(
            NodeId(4),
            false,
            vec![],
            vec![fresh[1].clone()],
        ));
        // Cell 0 replaced (seq 0 gone, 1 and 2 in); cell 3 untouched
        // (seq 9 kept).
        assert_eq!(log_seqs(&worker, NodeId(4)), vec![1, 2, 9]);
        // Truncating the stale-id namespace re-admits the removed id.
        worker.handle_request(install_req(
            NodeId(4),
            true,
            vec![],
            vec![obs(0, 100, 10.0, 10.0)],
        ));
        assert_eq!(log_seqs(&worker, NodeId(4)), vec![0, 9]);
    }

    /// Sorted sequence numbers of everything in the primary shard.
    fn shard_seqs(worker: &mut Worker) -> Vec<u64> {
        let everything = Request::Range {
            region: BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12)),
            window: TimeInterval::ALL,
            limit: 0,
            projection: PROJ_FULL,
        };
        let Response::Observations(rows) = worker.handle_request(everything) else {
            panic!("expected observations");
        };
        let mut seqs: Vec<u64> = rows.iter().map(|o| o.id.seq()).collect();
        seqs.sort_unstable();
        seqs
    }

    fn drop_cell(cell: u32) -> Request {
        Request::InstallSegments {
            primary: NodeId(1), // == self: the primary shard
            grid: grid_2x2(),
            cell,
            truncate: true,
            frames: vec![],
            head: vec![],
        }
    }

    fn route(epoch: u64, cells: Vec<u32>) -> Request {
        Request::RouteUpdate {
            epoch,
            grid: grid_2x2(),
            cells,
        }
    }

    #[test]
    fn truncate_drops_a_ceded_primary_cell_and_releases_its_ids() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(ingest_req(vec![
            obs(0, 100, 10.0, 10.0),   // cell 0 — ceded
            obs(9, 100, 900.0, 900.0), // cell 3 — kept
        ]));
        assert_eq!(worker.handle_request(drop_cell(0)), Response::Ack);
        assert_eq!(shard_seqs(&mut worker), vec![9]);
        // The truncated id left the dedup filter: the same observation
        // can be installed back (rebalance return trip).
        let back = vec![obs(0, 100, 10.0, 10.0)];
        worker.handle_request(install_req(NodeId(1), false, vec![], back));
        assert_eq!(shard_seqs(&mut worker), vec![0, 9]);
    }

    #[test]
    fn truncate_of_a_route_owned_primary_cell_is_refused() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(ingest_req(vec![
            obs(0, 100, 10.0, 10.0),
            obs(9, 100, 900.0, 900.0),
        ]));
        worker.handle_request(route(3, vec![0, 3]));
        // Refused whole: the rows riding with the truncate do not land.
        let mut refused = drop_cell(0);
        if let Request::InstallSegments { head, .. } = &mut refused {
            head.push(obs(5, 100, 20.0, 20.0));
        }
        assert!(matches!(worker.handle_request(refused), Response::Error(_)));
        assert_eq!(
            shard_seqs(&mut worker),
            vec![0, 9],
            "refusal must change nothing"
        );
        // A grid the installed route cannot be judged against is refused
        // too, whatever the cell index.
        let mut other_grid = drop_cell(1);
        if let Request::InstallSegments { grid, .. } = &mut other_grid {
            *grid = GridSpec::new(Point::ORIGIN, 250.0, 2, 2);
        }
        assert!(matches!(
            worker.handle_request(other_grid),
            Response::Error(_)
        ));
        // Once a newer route cedes the cell, the same truncate goes through.
        worker.handle_request(route(4, vec![3]));
        assert_eq!(worker.handle_request(drop_cell(0)), Response::Ack);
        assert_eq!(shard_seqs(&mut worker), vec![9]);
    }

    #[test]
    fn redelivered_drain_is_a_no_op() {
        // The drain of a cell move as the old and new owner see it, every
        // message delivered twice: rows into `to`, truncate at `from`.
        let fabric = Fabric::new(LinkModel::instant());
        let mut from = Worker::new(fabric.register(NodeId(1)), config(0));
        let mut to = Worker::new(fabric.register(NodeId(2)), config(0));
        let stragglers = vec![obs(0, 100, 10.0, 10.0), obs(1, 100, 20.0, 20.0)];
        from.handle_request(ingest_req(stragglers.clone()));
        from.handle_request(ingest_req(vec![obs(9, 100, 900.0, 900.0)]));
        to.handle_request(ingest_req(vec![obs(0, 100, 10.0, 10.0)])); // landed earlier
        from.handle_request(route(2, vec![3]));
        for _ in 0..2 {
            let install = install_req(NodeId(2), false, vec![], stragglers.clone());
            assert_eq!(to.handle_request(install), Response::Ack);
            assert_eq!(shard_seqs(&mut to), vec![0, 1]);
        }
        for _ in 0..2 {
            assert_eq!(from.handle_request(drop_cell(0)), Response::Ack);
            assert_eq!(shard_seqs(&mut from), vec![9]);
        }
    }

    #[test]
    fn whole_frame_then_the_same_rows_as_head_stores_each_id_once() {
        let (fabric, mut source) = lone_worker();
        let batch: Vec<Observation> = (0..60)
            .map(|i| obs(i, (i * 1_000) % 50_000, 10.0 + i as f64, 10.0))
            .collect();
        source.handle_request(ingest_req(batch.clone()));
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let Response::Segments { frames, head } =
            source.handle_request(Request::ExportSegments { region: everything })
        else {
            panic!("expected segments");
        };
        assert!(!frames.is_empty(), "nothing sealed at the source");
        let mut target = Worker::new(fabric.register(NodeId(2)), config(0));
        // The copy lands whole frames on an empty cell …
        target.handle_request(install_req(NodeId(2), false, frames, head));
        // … and the drain re-delivers every row as `head`: the id filter
        // knows the archived rows, so nothing is stored twice.
        target.handle_request(install_req(NodeId(2), false, vec![], batch.clone()));
        assert_eq!(target.stats().primary_observations, batch.len() as u64);
        assert_eq!(shard_seqs(&mut target), (0..60).collect::<Vec<u64>>());
    }

    #[test]
    fn rejoin_resets_all_state_and_installs_route() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(ingest_req(vec![obs(0, 100, 10.0, 10.0)]));
        worker.handle_request(replicate_req(NodeId(4), vec![obs(1, 100, 20.0, 20.0)]));
        worker.handle_request(Request::RegisterContinuous {
            id: ContinuousQueryId(7),
            predicate: Predicate::new(BBox::around(Point::new(10.0, 10.0), 50.0)),
        });
        worker.handle_request(ingest_req(vec![obs(2, 100, 30.0, 30.0)]));
        assert_eq!(
            worker.handle_request(Request::Rejoin {
                epoch: 9,
                grid: grid_2x2(),
                cells: vec![0],
            }),
            Response::Ack
        );
        let stats = worker.stats();
        assert_eq!(stats.primary_observations, 0);
        assert_eq!(stats.replica_observations, 0);
        assert_eq!(stats.continuous_queries, 0);
        // Dedup ids cleared: a row the old shard held is applied again.
        worker.handle_request(Request::IngestSeq {
            epoch: 9,
            batch: vec![obs(2, 100, 30.0, 30.0)],
        });
        assert_eq!(worker.stats().primary_observations, 1);
        // The installed route rejects cells outside the new slice.
        let resp = worker.handle_request(Request::IngestSeq {
            epoch: 9,
            batch: vec![obs(3, 100, 900.0, 900.0)],
        });
        assert!(
            matches!(resp, Response::Ingested { epoch: 9, .. }),
            "unexpected response {resp:?}"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(worker_ep, config(0));
        let big: Vec<Observation> = (0..5_000u64)
            .map(|i| {
                obs(
                    i,
                    (i % 60) * 1000,
                    (i as f64 * 7.0) % 1000.0,
                    (i as f64 * 13.0) % 1000.0,
                )
            })
            .collect();
        let resp = client
            .call(
                NodeId(1),
                encode_to_vec(&ingest_req(big)),
                StdDuration::from_secs(10),
            )
            .unwrap();
        assert_eq!(decode_from_slice::<Response>(&resp).unwrap(), Response::Ack);
        let stats_bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&Request::Stats),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&stats_bytes).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.primary_observations, 5_000);
                assert!(s.busy_micros > 0, "busy time not recorded");
            }
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn spawned_worker_answers_rpc() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(worker_ep, config(0));
        let resp_bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&Request::Ping),
                StdDuration::from_secs(5),
            )
            .unwrap();
        assert_eq!(
            decode_from_slice::<Response>(&resp_bytes).unwrap(),
            Response::Ack
        );
        handle.shutdown();
    }

    #[test]
    fn malformed_request_yields_error_response() {
        let fabric = Fabric::new(LinkModel::instant());
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(worker_ep, config(0));
        let resp_bytes = client
            .call(NodeId(1), vec![250, 1, 2], StdDuration::from_secs(5))
            .unwrap();
        match decode_from_slice::<Response>(&resp_bytes).unwrap() {
            Response::Error(msg) => assert!(msg.contains("bad request")),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }

    /// Boots a pooled worker and loads `n` spread-out observations.
    fn pooled_worker_with_rows(
        fabric: &Fabric,
        read_threads: usize,
        n: u64,
    ) -> (stcam_net::Endpoint, WorkerHandle) {
        let worker_ep = fabric.register(NodeId(1));
        let client = fabric.register(NodeId(0));
        let handle = Worker::spawn(worker_ep, config(read_threads));
        let rows: Vec<Observation> = (0..n)
            .map(|i| {
                obs(
                    i,
                    (i % 900) * 1000,
                    (i as f64 * 7.0) % 1000.0,
                    (i as f64 * 13.0) % 1000.0,
                )
            })
            .collect();
        let resp = client
            .call(
                NodeId(1),
                encode_to_vec(&ingest_req(rows)),
                StdDuration::from_secs(10),
            )
            .unwrap();
        assert_eq!(decode_from_slice::<Response>(&resp).unwrap(), Response::Ack);
        (client, handle)
    }

    #[test]
    fn oversize_read_pages_and_client_reassembles() {
        let fabric = Fabric::new(LinkModel::instant());
        let (client, handle) = pooled_worker_with_rows(&fabric, 2, 4_000);
        let query = Request::Range {
            region: BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0)),
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        };
        let first = client
            .call(NodeId(1), encode_to_vec(&query), StdDuration::from_secs(10))
            .unwrap();
        assert!(
            first.len() <= crate::paging::PAGE_MAX_BYTES,
            "first frame of {} bytes exceeds the page bound",
            first.len()
        );
        let Response::ResultPage {
            cursor,
            page: 0,
            pages,
            kind,
            payload,
        } = decode_from_slice::<Response>(&first).unwrap()
        else {
            panic!("oversize result did not page");
        };
        assert!(pages > 1);
        let mut answer = crate::paging::empty_answer(kind).unwrap();
        crate::paging::append_page(&mut answer, &payload).unwrap();
        for page in 1..pages {
            let bytes = client
                .call(
                    NodeId(1),
                    encode_to_vec(&Request::FetchPage { cursor, page }),
                    StdDuration::from_secs(10),
                )
                .unwrap();
            assert!(bytes.len() <= crate::paging::PAGE_MAX_BYTES);
            let Response::ResultPage {
                cursor: c,
                page: p,
                kind: k,
                payload,
                ..
            } = decode_from_slice::<Response>(&bytes).unwrap()
            else {
                panic!("a pull answered with something else than a page");
            };
            assert_eq!((c, p, k), (cursor, page, kind));
            crate::paging::append_page(&mut answer, &payload).unwrap();
        }
        let Response::Observations(rows) = answer else {
            panic!("unexpected reassembly {answer:?}");
        };
        assert_eq!(rows.len(), 4_000);
        let seqs: std::collections::HashSet<u64> = rows.iter().map(|o| o.id.seq()).collect();
        assert_eq!(seqs.len(), 4_000, "paging duplicated or dropped rows");
        handle.shutdown();
    }

    #[test]
    fn range_limit_and_projection_push_down() {
        let (_fabric, mut worker) = lone_worker();
        worker.handle_request(ingest_req(vec![
            obs(3, 100, 10.0, 10.0),
            obs(1, 200, 11.0, 11.0),
            obs(2, 300, 12.0, 12.0),
        ]));
        let region = BBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
        // Per-shard limit keeps the lowest-id rows.
        match worker.handle_request(Request::Range {
            region,
            window: window_all(),
            limit: 2,
            projection: PROJ_FULL,
        }) {
            Response::Observations(hits) => {
                let seqs: Vec<u64> = hits.iter().map(|o| o.id.seq()).collect();
                assert_eq!(seqs, vec![1, 2]);
                assert!(hits.iter().all(|o| o.truth.is_some()));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Thin projection blanks the signature and truth columns.
        match worker.handle_request(Request::Range {
            region,
            window: window_all(),
            limit: 0,
            projection: PROJ_THIN,
        }) {
            Response::Observations(hits) => {
                assert_eq!(hits.len(), 3);
                for o in &hits {
                    assert!(o.truth.is_none());
                    assert!(o.signature.values().iter().all(|v| *v == 0.0));
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn unknown_page_cursor_is_an_error() {
        let fabric = Fabric::new(LinkModel::instant());
        let (client, handle) = pooled_worker_with_rows(&fabric, 1, 10);
        let bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&Request::FetchPage {
                    cursor: 999,
                    page: 0,
                }),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&bytes).unwrap() {
            Response::Error(msg) => assert!(msg.contains("unknown page cursor")),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn pooled_reads_observe_prior_ingest() {
        // Per-link FIFO plus control-lane snapshotting: a read issued
        // after an ingest ack must see the ingested rows, pool or not.
        let fabric = Fabric::new(LinkModel::instant());
        let (client, handle) = pooled_worker_with_rows(&fabric, 2, 100);
        let query = |region| Request::Range {
            region,
            window: window_all(),
            limit: 0,
            projection: PROJ_FULL,
        };
        let whole = BBox::new(Point::ORIGIN, Point::new(1000.0, 1000.0));
        let bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&query(whole)),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&bytes).unwrap() {
            Response::Observations(hits) => assert_eq!(hits.len(), 100),
            other => panic!("unexpected response {other:?}"),
        }
        // A second wave of writes is visible to the next pooled read.
        let more: Vec<Observation> = (100..150u64).map(|i| obs(i, 1_000, 5.0, 5.0)).collect();
        client
            .call(
                NodeId(1),
                encode_to_vec(&ingest_req(more)),
                StdDuration::from_secs(5),
            )
            .unwrap();
        let bytes = client
            .call(
                NodeId(1),
                encode_to_vec(&query(whole)),
                StdDuration::from_secs(5),
            )
            .unwrap();
        match decode_from_slice::<Response>(&bytes).unwrap() {
            Response::Observations(hits) => assert_eq!(hits.len(), 150),
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
    }
}
