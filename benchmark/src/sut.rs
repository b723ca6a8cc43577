//! The adapter: every call the benchmark makes into the system under test
//! is in this file, so a change to the system's API is a change here and
//! nowhere else. `README.md` lists the signatures pinned.
//!
//! Two groups. [`Sut`] drives a whole cluster through its facade, which is
//! what the end-to-end metrics time. The rest replays a run's own inputs
//! through one layer's public functions at a time, which is where the
//! per-layer metrics of a traced run come from.

use std::time::{Duration, Instant};

use stcam::{Cluster, ClusterConfig, PartitionMap, Request, Response, PROJ_FULL};
use stcam_camnet::batch::{decode_batch, encode_batch};
use stcam_camnet::{CameraId, Observation, ObservationId, Signature};
use stcam_codec::{decode_from_slice, encode_to_vec};
use stcam_geo::{BBox, GridSpec, Point, TimeInterval, Timestamp};
use stcam_index::{IndexConfig, ReadView, StIndex};
use stcam_net::{Endpoint, Fabric, LinkModel, NodeId, Waker};
use stcam_world::{EntityClass, EntityId};

use crate::check::Answer;
use crate::gen::{Kind, Query, Row, EXTENT_M, HEAT_CELLS};

pub const WORKERS: usize = 4;
const REPLICATION: usize = 1;
/// What `fig15_ingest_loss` runs lossy links with. At the default 5 s a
/// lost frame stalls its batch for 5 s and the workload takes minutes.
const LOSSY_RPC_TIMEOUT: Duration = Duration::from_millis(100);
/// The read operations of `Cluster::op_stats` the benchmark follows.
pub const READ_OPS: [&str; 4] = ["range", "knn_phase1", "knn_phase2", "heatmap"];

pub type Batch = Vec<Observation>;

pub fn batch(rows: &[Row]) -> Batch {
    rows.iter()
        .map(|row| Observation {
            id: ObservationId::compose(CameraId(row.camera()), row.seq / crate::gen::CAMERAS),
            camera: CameraId(row.camera()),
            time: Timestamp::from_millis(row.time_ms()),
            position: Point::new(row.x, row.y),
            class: EntityClass::from_u8(row.class).expect("generator draws classes 0..4"),
            signature: Signature::latent_for_entity(row.entity as u64),
            truth: Some(EntityId(row.seq)),
        })
        .collect()
}

fn extent() -> BBox {
    BBox::new(Point::new(0.0, 0.0), Point::new(EXTENT_M, EXTENT_M))
}

fn window(q: &Query) -> TimeInterval {
    TimeInterval::new(
        Timestamp::from_millis(q.t0_ms),
        Timestamp::from_millis(q.t1_ms),
    )
}

fn region(q: &Query) -> BBox {
    BBox::around(Point::new(q.x, q.y), q.half)
}

fn heat_grid() -> GridSpec {
    GridSpec::new(
        Point::new(0.0, 0.0),
        EXTENT_M / HEAT_CELLS as f64,
        HEAT_CELLS,
        HEAT_CELLS,
    )
}

/// What a read returned, still in the system's own types.
#[derive(Debug)]
pub enum Reply {
    Rows(Vec<Observation>),
    Counts(Vec<u64>),
}

impl Reply {
    /// Rows returned (0 for a heat-map).
    pub fn rows(&self) -> usize {
        match self {
            Reply::Rows(rows) => rows.len(),
            Reply::Counts(_) => 0,
        }
    }

    /// The reply as plain data the oracle can compare.
    pub fn answer(&self, q: &Query) -> Answer {
        match (self, q.kind) {
            (Reply::Counts(counts), _) => Answer::Counts(counts.clone()),
            (Reply::Rows(rows), Kind::Knn) => {
                let mut distances: Vec<f64> = rows
                    .iter()
                    .map(|o| crate::check::distance(o.position.x - q.x, o.position.y - q.y))
                    .collect();
                distances.sort_by(f64::total_cmp);
                Answer::Distances(distances)
            }
            (Reply::Rows(rows), _) => {
                let mut ids: Vec<u64> = rows.iter().map(|o| o.id.0).collect();
                ids.sort_unstable();
                Answer::Ids(ids)
            }
        }
    }
}

/// Traffic counters that cost nothing to read.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    pub msgs: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub max_response_bytes: u64,
    /// One entry per [`READ_OPS`] name, in that order.
    pub ops: [OpCounters; 4],
}

#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounters {
    pub invocations: u64,
    pub sub_queries: u64,
    pub retries: u64,
    pub failovers: u64,
    pub bytes_up: u64,
    pub bytes_down: u64,
    pub scatter_us: u64,
    pub merge_us: u64,
}

/// Per-worker counters; reading them is one `Stats` round trip each.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerCounters {
    pub primary_rows: u64,
    pub busy_us: u64,
    pub resident_bytes: u64,
    pub pages_served: u64,
}

/// A running cluster.
pub struct Sut {
    cluster: Cluster,
}

impl Sut {
    /// 4 workers, replication 1, LAN links, everything else at its
    /// default; `lossy` only shortens the RPC timeout (see
    /// [`LOSSY_RPC_TIMEOUT`]), loss itself is switched on later.
    pub fn launch(lossy: bool) -> Result<Sut, String> {
        let mut config = ClusterConfig::new(extent(), WORKERS)
            .with_replication(REPLICATION)
            .with_link(LinkModel::lan());
        if lossy {
            config = config.with_rpc_timeout(LOSSY_RPC_TIMEOUT);
        }
        let cluster = Cluster::launch(config).map_err(|e| e.to_string())?;
        Ok(Sut { cluster })
    }

    /// Acked ingest; the count durably accepted.
    pub fn ingest(&self, batch: Batch) -> Result<usize, String> {
        self.cluster.ingest(batch).map_err(|e| e.to_string())
    }

    pub fn flush(&self) -> Result<(), String> {
        self.cluster.flush().map_err(|e| e.to_string())
    }

    /// One `Strict` read.
    pub fn query(&self, q: &Query) -> Result<Reply, String> {
        match q.kind {
            Kind::Range => self
                .cluster
                .range_query(region(q), window(q))
                .map(Reply::Rows),
            Kind::Knn => self
                .cluster
                .knn_query(Point::new(q.x, q.y), window(q), q.k)
                .map(Reply::Rows),
            Kind::Heatmap => self
                .cluster
                .heatmap(&heat_grid(), window(q))
                .map(Reply::Counts),
        }
        .map_err(|e| e.to_string())
    }

    /// Loss rate of every link from now on.
    pub fn set_drop_probability(&self, p: f64) {
        self.cluster.set_drop_probability(p);
    }

    pub fn traffic(&self) -> Traffic {
        let fabric = self.cluster.fabric_stats();
        let ops = self.cluster.op_stats();
        Traffic {
            msgs: fabric.total_msgs,
            bytes: fabric.total_bytes,
            dropped: fabric.total_dropped,
            max_response_bytes: fabric.max_response_bytes,
            ops: READ_OPS.map(|name| {
                ops.iter()
                    .find(|(op, _)| *op == name)
                    .map(|(_, s)| OpCounters {
                        invocations: s.invocations,
                        sub_queries: s.sub_queries,
                        retries: s.retries,
                        failovers: s.failovers,
                        bytes_up: s.bytes_sent,
                        bytes_down: s.bytes_received,
                        scatter_us: s.scatter_micros,
                        merge_us: s.merge_micros,
                    })
                    .unwrap_or_default()
            }),
        }
    }

    pub fn workers(&self) -> Result<Vec<WorkerCounters>, String> {
        let stats = self.cluster.stats().map_err(|e| e.to_string())?;
        Ok(stats
            .workers
            .iter()
            .map(|(_, w)| WorkerCounters {
                primary_rows: w.primary_observations,
                busy_us: w.busy_micros,
                resident_bytes: w.resident_bytes,
                pages_served: w.served_count("fetch_page"),
            })
            .collect())
    }

    pub fn router(&self) -> Router {
        Router(self.cluster.partition())
    }

    /// An empty index configured as each worker's is, sealing as
    /// configured or not at all.
    pub fn shadow_index(&self, sealing: bool) -> Shadow {
        let c = self.cluster.config();
        let config = IndexConfig::new(c.extent, c.index_cell_size, c.slice_len);
        Shadow(StIndex::new(if sealing {
            config
        } else {
            config.without_sealing()
        }))
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

// ---------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------

/// `camnet::batch`: the columnar frame of one batch.
pub fn encode_batch_frame(batch: &[Observation]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_batch(batch, &mut frame);
    frame
}

/// `camnet::batch`: rows decoded from a frame.
pub fn decode_batch_frame(mut frame: &[u8]) -> Result<usize, String> {
    decode_batch(&mut frame)
        .map(|rows| rows.len())
        .map_err(|e| e.to_string())
}

/// `protocol`: the request a worker is sent for `q`.
pub fn encode_request(q: &Query) -> Vec<u8> {
    encode_to_vec(&match q.kind {
        Kind::Range => Request::Range {
            region: region(q),
            window: window(q),
            limit: 0,
            projection: PROJ_FULL,
        },
        Kind::Knn => Request::Knn {
            at: Point::new(q.x, q.y),
            window: window(q),
            k: q.k as u32,
            max_distance: None,
        },
        Kind::Heatmap => Request::Heatmap {
            buckets: heat_grid().into(),
            window: window(q),
        },
    })
}

/// `protocol`: the response frame that would carry these rows.
pub fn encode_rows_response(rows: Vec<Observation>) -> Vec<u8> {
    encode_to_vec(&Response::Observations(rows))
}

/// `protocol`: rows decoded from a response frame.
pub fn decode_rows_response(frame: &[u8]) -> Result<usize, String> {
    match decode_from_slice::<Response>(frame) {
        Ok(Response::Observations(rows)) => Ok(rows.len()),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// `partition`: who owns a position.
pub struct Router(PartitionMap);

impl Router {
    /// The owning worker, as an index into `0..WORKERS`.
    pub fn owner(&self, x: f64, y: f64) -> usize {
        let NodeId(id) = self.0.owner_of(Point::new(x, y));
        id as usize - 1
    }
}

/// `index`: one worker's index, outside any worker.
pub struct Shadow(StIndex);

impl Shadow {
    pub fn insert(&mut self, batch: Batch) {
        self.0.insert_batch(batch);
    }

    pub fn view(&self) -> ShadowView {
        ShadowView(self.0.read_view())
    }

    pub fn rows(&self) -> usize {
        self.0.len()
    }

    pub fn resident_bytes(&self) -> usize {
        self.0.stats().resident_bytes
    }

    pub fn sealed_segments(&self) -> usize {
        self.0.stats().sealed_segments
    }
}

pub struct ShadowView(ReadView);

impl ShadowView {
    pub fn query(&self, q: &Query) -> Reply {
        match q.kind {
            Kind::Range => Reply::Rows(self.0.range(region(q), window(q))),
            Kind::Knn => Reply::Rows(self.0.knn(Point::new(q.x, q.y), window(q), q.k)),
            Kind::Heatmap => Reply::Counts(self.0.heatmap(&heat_grid(), window(q))),
        }
    }
}

/// `net`: a private two-node fabric on the cluster's link model, one node
/// echoing whatever the other calls it with.
pub struct Echo {
    // Dropped last: the delivery thread lives as long as the fabric.
    client: Endpoint,
    server: Option<std::thread::JoinHandle<()>>,
    stop: Waker,
    _fabric: Fabric,
}

const ECHO_SERVER: NodeId = NodeId(2);

impl Echo {
    pub fn start() -> Echo {
        let fabric = Fabric::new(LinkModel::lan());
        let client = fabric.register(NodeId(1));
        let server = fabric.register(ECHO_SERVER);
        let stop = server.waker();
        let server = std::thread::spawn(move || {
            while let Some(envelope) = server.recv() {
                if Waker::is_wake(&envelope) {
                    return;
                }
                let _ = server.reply(&envelope, envelope.payload.clone());
            }
        });
        Echo {
            client,
            server: Some(server),
            stop,
            _fabric: fabric,
        }
    }

    /// One call and its reply, both carrying `payload_bytes`.
    pub fn round_trip(&self, payload_bytes: usize) -> Result<Duration, String> {
        let payload = vec![0u8; payload_bytes];
        let start = Instant::now();
        self.client
            .call(ECHO_SERVER, payload, Duration::from_secs(5))
            .map_err(|e| e.to_string())?;
        Ok(start.elapsed())
    }

    /// What the link model alone charges for that round trip.
    pub fn modelled_round_trip(payload_bytes: usize) -> Duration {
        2 * LinkModel::lan().latency_for(payload_bytes, 0.5)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.stop.wake();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}
