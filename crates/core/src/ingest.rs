//! The acknowledged write path: [`Ingestor`].
//!
//! Routing every observation through the coordinator would make it the
//! ingest bottleneck. In a deployment, camera aggregation points hold a
//! copy of the partition map and stream straight to the owning workers.
//! An [`Ingestor`] is that handle: it has its own fabric endpoint, reads
//! the published plan at the start of every routing round and never
//! takes the coordinator lock, so many ingest in parallel beside any
//! control action. `Cluster::ingest` is the cluster's own one.
//!
//! # Write-path reliability
//!
//! A wave of per-owner groups goes out in two [`Executor::ask`] rounds,
//! `"ingest_seq"` to the owners and `"replicate_seq"` of what each kept
//! to its successors, so the one scatter loop in `exec.rs` retransmits
//! lost frames under the two [`OpPolicy`](crate::OpPolicy) entries of
//! those names (the write path's only retry knob) and books every send
//! into [`OpStats`](crate::OpStats). Owners answer `Ack`, or `Ingested`
//! when they refuse misrouted rows or found standing-query matches, and
//! the transport replays that answer to a re-send. A group is accepted
//! only once its owner **and** a full replica set confirmed it, so an
//! ack certifies durability and strict-read visibility; anything short
//! of that, a hinted handoff included, is parked and re-driven by
//! [`flush`](Ingestor::flush), a true write barrier (see
//! `Ingestor::deliver_wave`). A plan published mid-call is picked up by
//! the next routing round: misrouted rows come back and re-route.
//!
//! The standing-query matches among the rows an owner kept go to the
//! cluster's notification channel only when the group is acked; a parked
//! group hands on nothing, and its re-drive brings them again. So a match
//! arrives exactly when its row is acked, once per ack.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use stcam_camnet::{Observation, ObservationId};
use stcam_net::{Endpoint, NodeId};

use crate::continuous::Notification;
use crate::error::StcamError;
use crate::exec::{all_alive, unexpected, want_ack, Executor};
use crate::plane::{QueryPlan, QueryPlane};
use crate::protocol::{Request, Response};

/// Max per-destination batch groups a single `ingest` call keeps in
/// flight concurrently (the backpressure window).
const INFLIGHT_WINDOW: usize = 8;
/// Routing rounds (deliver, re-read the plan, re-route leftovers) per call.
const MAX_ROUNDS: usize = 4;

/// One owner's share of a wave on its way into round two.
struct Group {
    /// The worker the plan routes `rows` to.
    primary: NodeId,
    /// What the owner kept of its share — or, when it did not answer,
    /// the whole share, which round two then writes as a hint.
    rows: Vec<Observation>,
    /// Whether everyone asked so far confirmed `rows`: the owner in
    /// round one, then each of its successors in round two.
    acked: bool,
    /// The standing-query matches the owner found among `rows`, handed on
    /// only if the group is acknowledged.
    matches: Vec<Notification>,
}

/// The owner's answer to `IngestSeq`: the ids it refuses to own (none
/// when it acked the whole batch) and the matches among the rest.
fn want_ingested(
    response: Response,
) -> Result<(HashSet<ObservationId>, Vec<Notification>), StcamError> {
    match response {
        Response::Ack => Ok((HashSet::new(), Vec::new())),
        Response::Ingested {
            misrouted, matches, ..
        } => Ok((misrouted.into_iter().collect(), matches)),
        other => Err(unexpected("ingest ack", other)),
    }
}

/// A parallel ingest handle with its own network endpoint; see the
/// module documentation above for the routing model and the
/// acknowledged-write contract. A handle is `Sync`: threads sharing one
/// share its parked window too.
#[derive(Debug)]
pub struct Ingestor {
    exec: Executor,
    plane: Arc<QueryPlane>,
    replication: usize,
    /// Observations accepted by no one yet (awaiting `flush`).
    pending: Mutex<Vec<Observation>>,
    /// Held for a whole [`flush`](Self::flush): a second barrier on a
    /// shared handle waits until the window the first one took is
    /// settled, instead of returning while it is still in flight.
    barrier: Mutex<()>,
    /// The cluster's notification channel, for acknowledged matches.
    notify: Sender<Notification>,
}

impl Ingestor {
    /// An ingestor sending through `endpoint` on the plane's shared
    /// executor account: its writes book into the same
    /// [`OpStats`](crate::OpStats) registry, obey the same policy table
    /// and book into the same peer table as the coordinator's. Matches of
    /// the groups it gets acknowledged go to `notify`.
    pub(crate) fn new(
        endpoint: Endpoint,
        plane: Arc<QueryPlane>,
        replication: usize,
        notify: Sender<Notification>,
    ) -> Self {
        Ingestor {
            exec: Executor::with_shared(endpoint, plane.exec_shared()),
            plane,
            replication,
            pending: Mutex::new(Vec::new()),
            barrier: Mutex::new(()),
            notify,
        }
    }

    /// This ingestor's node id on the fabric.
    pub fn id(&self) -> NodeId {
        self.exec.endpoint().id()
    }

    /// Observations this handle could not get acknowledged yet; they are
    /// parked and re-driven by [`flush`](Self::flush).
    pub fn pending(&self) -> usize {
        self.pending.lock().len()
    }

    /// Acknowledged ingest: groups the batch by owner under the published
    /// plan, sends at most `INFLIGHT_WINDOW` groups per wave to the
    /// owners and their replicas, retries lost traffic, and re-routes
    /// what a worker NACKs or a newer plan moved. Returns the number of
    /// observations durably **accepted**, not merely routed; anything
    /// unaccepted is parked and re-driven by [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// [`StcamError::NoQuorum`] when no worker is alive (ring membership
    /// is monotonic, so parking could never drain); unreachable workers
    /// park observations instead of erroring.
    pub fn ingest(&self, batch: Vec<Observation>) -> Result<usize, StcamError> {
        if self.plane.plan().alive.is_empty() {
            return Err(StcamError::NoQuorum);
        }
        Ok(self.drive(batch))
    }

    /// [`ingest`](Self::ingest) past its quorum check: it cannot fail,
    /// so every row handed in ends up accepted or parked.
    fn drive(&self, mut work: Vec<Observation>) -> usize {
        let mut accepted = 0usize;
        for _ in 0..MAX_ROUNDS {
            if work.is_empty() {
                break;
            }
            let plan = self.plane.plan();
            let mut groups: HashMap<NodeId, Vec<Observation>> = HashMap::new();
            for obs in work.drain(..) {
                let owner = plan.partition.owner_of(obs.position);
                groups.entry(owner).or_default().push(obs);
            }
            let mut queue = groups.into_iter().peekable();
            while queue.peek().is_some() {
                let wave = queue.by_ref().take(INFLIGHT_WINDOW).collect();
                accepted += self.deliver_wave(&plan, wave, &mut work);
            }
        }
        // Whatever re-routing did not settle within the round budget
        // waits for the flush barrier to re-drive it.
        self.pending.lock().extend(work);
        accepted
    }

    /// Delivers one wave of per-owner groups in two scatters and returns
    /// how many observations it got acknowledged. Rows an owner refused
    /// (or that a newer plan routes elsewhere) go to `redo`; rows that
    /// cannot be acknowledged under `plan` are parked.
    ///
    /// **Round one** sends `IngestSeq` to every owner `plan` calls alive;
    /// suspicion alone never diverts a write (a falsely suspected owner
    /// would strand the hint copy in a replica log that is never promoted).
    ///
    /// **Round two** sends `ReplicateSeq` of what each owner kept to its
    /// first `replication` *alive* ring successors
    /// ([`PartitionMap::alive_successors`]): the set failover reads consult
    /// and repair maintains, which is what lets an ack certify visibility.
    /// Only once all of them confirmed is the group acknowledged and its
    /// matches handed on; otherwise the copies that landed stand as hints
    /// and the group parks. A re-driven group is a new request, so the
    /// workers' id filters, not the transport, absorb the duplicates.
    ///
    /// The same round carries the **hinted handoff** of a group whose
    /// owner is dead in `plan` or did not answer while `plan` is current.
    /// Hints make the batch crash-durable but never certify an ack: the
    /// sender cannot tell a dead owner from a partitioned one, which would
    /// return and answer strict reads from a primary that never saw the
    /// batch. Such a group always parks.
    ///
    /// [`PartitionMap::alive_successors`]: crate::PartitionMap::alive_successors
    fn deliver_wave(
        &self,
        plan: &QueryPlan,
        wave: Vec<(NodeId, Vec<Observation>)>,
        redo: &mut Vec<Observation>,
    ) -> usize {
        let (live, dead): (Vec<_>, Vec<_>) = wave
            .into_iter()
            .partition(|(owner, _)| plan.alive.contains(owner));
        let owners: Vec<NodeId> = live.iter().map(|(owner, _)| *owner).collect();
        let mut shares = live.iter();
        let ingest = |_| {
            let (_, share) = shares.next().expect("one request per owner, in order");
            Request::IngestSeq {
                epoch: plan.epoch,
                batch: share.clone(),
            }
        };
        let answers = self.exec.ask("ingest_seq", &owners, ingest, want_ingested);
        let hinted = |(primary, rows)| Group {
            primary,
            rows,
            acked: false,
            matches: Vec::new(),
        };
        let mut groups: Vec<Group> = dead.into_iter().map(hinted).collect();
        for ((primary, share), (_, answer)) in live.into_iter().zip(answers) {
            match answer {
                // The owner applied what it owns; the rest re-routes
                // under the published plan (its NACK says ours is stale).
                Ok((misrouted, matches)) => {
                    let (back, rows): (Vec<_>, Vec<_>) =
                        share.into_iter().partition(|o| misrouted.contains(&o.id));
                    redo.extend(back);
                    groups.push(Group {
                        primary,
                        rows,
                        acked: true,
                        matches,
                    });
                }
                // A newer plan has been published since we routed:
                // recovery probably reassigned these cells, so the next
                // round re-routes (the workers' id filters drop a row
                // that did land).
                Err(_) if self.plane.epoch() > plan.epoch => redo.extend(share),
                // Our plan is current: the owner is unreachable and
                // recovery has not noticed yet.
                Err(_) => groups.push(hinted((primary, share))),
            }
        }
        groups.retain(|g| !g.rows.is_empty());
        // One entry per (group, successor) copy; a worker that succeeds
        // several owners is listed once for each.
        let mut copies: Vec<(usize, NodeId)> = Vec::new();
        for (i, group) in groups.iter().enumerate() {
            // A hint needs at least one copy, whatever the factor.
            let want = self.replication.max(usize::from(!group.acked));
            let successors = plan
                .partition
                .alive_successors(group.primary, want, &plan.alive);
            copies.extend(successors.into_iter().map(|successor| (i, successor)));
        }
        let successors: Vec<NodeId> = copies.iter().map(|&(_, successor)| successor).collect();
        let mut order = copies.iter();
        let replicate = |_| {
            let &(i, _) = order.next().expect("one request per copy, in order");
            Request::ReplicateSeq {
                primary: groups[i].primary,
                batch: groups[i].rows.clone(),
            }
        };
        let answers = self
            .exec
            .ask("replicate_seq", &successors, replicate, want_ack);
        for (&(i, _), (_, answer)) in copies.iter().zip(answers) {
            groups[i].acked &= answer.is_ok();
        }
        let mut accepted = 0usize;
        for group in groups {
            if group.acked {
                accepted += group.rows.len();
                for matches in group.matches {
                    // Fails only once the cluster and its receiver are gone.
                    let _ = self.notify.send(matches);
                }
            } else {
                self.pending.lock().extend(group.rows);
            }
        }
        accepted
    }

    /// Write barrier: re-drives the parked window under the published
    /// plan until it is empty, then confirms every alive worker has
    /// processed previously sent traffic (per-link FIFO + a ping round
    /// trip, retried under the `"flush"` policy).
    ///
    /// # Errors
    ///
    /// [`StcamError::PartialFailure`] naming the owners of observations
    /// that cannot be acknowledged within the round budget, or
    /// [`StcamError::NoQuorum`] with no worker alive: the window stays
    /// parked. Transport errors when an alive worker misses the ping.
    pub fn flush(&self) -> Result<(), StcamError> {
        let _barrier = self.barrier.lock();
        for _ in 0..MAX_ROUNDS {
            if self.pending.lock().is_empty() {
                break;
            }
            // Before the window is taken: on error the rows stay parked.
            if self.plane.plan().alive.is_empty() {
                return Err(StcamError::NoQuorum);
            }
            let parked = std::mem::take(&mut *self.pending.lock());
            self.drive(parked);
        }
        let plan = self.plane.plan();
        let owner = |o: &Observation| plan.partition.owner_of(o.position);
        let mut missing: Vec<NodeId> = self.pending.lock().iter().map(owner).collect();
        if !missing.is_empty() {
            missing.sort();
            missing.dedup();
            return Err(StcamError::PartialFailure { missing });
        }
        let alive = all_alive(&plan.alive);
        let answers = self.exec.ask("flush", &alive, |_| Request::Ping, want_ack);
        answers.into_iter().try_for_each(|(_, answer)| answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_geo::{BBox, Point, TimeInterval, Timestamp};
    use stcam_net::LinkModel;
    use stcam_world::{EntityClass, EntityId};
    use std::time::Duration as StdDuration;

    fn obs(seq: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_secs(1),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    #[test]
    fn parallel_ingestors_deliver_everything() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
        // Four handles, then four threads sharing the cluster's own one
        // (one endpoint, one parked window, concurrent barriers).
        for shared in [false, true] {
            let cluster = Cluster::launch(
                ClusterConfig::new(extent, 4)
                    .with_replication(0)
                    .with_link(LinkModel::instant()),
            )
            .unwrap();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let own = (!shared).then(|| cluster.create_ingestor());
                    let cluster = &cluster;
                    scope.spawn(move || {
                        for i in 0..250u64 {
                            let seq = t * 250 + i;
                            let row = vec![obs(
                                seq,
                                (seq as f64 * 7.0) % 1000.0,
                                (seq as f64 * 13.0) % 1000.0,
                            )];
                            let accepted = match &own {
                                Some(ingestor) => ingestor.ingest(row),
                                None => cluster.ingest(row),
                            };
                            assert_eq!(accepted.unwrap(), 1);
                        }
                        match &own {
                            Some(ingestor) => ingestor.flush().unwrap(),
                            None => cluster.flush().unwrap(),
                        }
                    });
                }
            });
            let mut held: Vec<u64> = cluster
                .range_query(extent, window)
                .unwrap()
                .iter()
                .map(|o| o.id.seq())
                .collect();
            held.sort_unstable();
            assert_eq!(held, (0..1000).collect::<Vec<u64>>(), "shared: {shared}");
            cluster.shutdown();
        }
    }

    #[test]
    fn ingestor_ids_are_distinct() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster =
            Cluster::launch(ClusterConfig::new(extent, 2).with_link(LinkModel::instant())).unwrap();
        let a = cluster.create_ingestor();
        let b = cluster.create_ingestor();
        assert_ne!(a.id(), b.id());
        cluster.shutdown();
    }

    #[test]
    fn acked_ingest_survives_a_lossy_link() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster = Cluster::launch(
            ClusterConfig::new(extent, 4)
                .with_replication(1)
                .with_link(LinkModel::instant())
                .with_rpc_timeout(StdDuration::from_millis(200)),
        )
        .unwrap();
        cluster.set_drop_probability(0.05);
        let ingestor = cluster.create_ingestor();
        let mut accepted = 0usize;
        for i in 0..200u64 {
            accepted += ingestor
                .ingest(vec![obs(
                    i,
                    (i as f64 * 7.0) % 1000.0,
                    (i as f64 * 13.0) % 1000.0,
                )])
                .unwrap();
        }
        cluster.set_drop_probability(0.0);
        ingestor.flush().unwrap();
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
        let stored = cluster.range_query(extent, window).unwrap().len();
        assert!(
            stored >= accepted,
            "acked {accepted} observations but only {stored} are queryable"
        );
        assert_eq!(stored, 200, "flush barrier must deliver the parked tail");
        cluster.shutdown();
    }

    #[test]
    fn stale_ingestor_recovers_routing_without_recreation() {
        let extent = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        let cluster = Cluster::launch(
            ClusterConfig::new(extent, 4)
                .with_replication(1)
                .with_link(LinkModel::instant())
                .with_rpc_timeout(StdDuration::from_millis(150)),
        )
        .unwrap();
        // The ingestor is created under the pre-failure plan.
        let ingestor = cluster.create_ingestor();
        let target = Point::new(500.0, 500.0);
        let old_owner = cluster.partition().owner_of(target);
        cluster.fabric().crash(old_owner);
        let failed = cluster.check_and_recover();
        assert_eq!(failed, vec![old_owner]);
        // Same handle, dead owner's cell: the call reads the plan
        // recovery published and goes straight to the new owner.
        let accepted = ingestor.ingest(vec![obs(7, target.x, target.y)]).unwrap();
        assert_eq!(accepted, 1, "stale ingestor failed to self-heal");
        // This was the cluster's only write: not one frame went to the
        // dead owner first.
        let ingest = cluster
            .op_stats()
            .into_iter()
            .find(|(op, _)| *op == "ingest_seq")
            .map(|(_, s)| s)
            .unwrap();
        assert_eq!((ingest.failures, ingest.retries), (0, 0));
        ingestor.flush().unwrap();
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(100));
        let hits = cluster.range_query(extent, window).unwrap();
        assert!(hits
            .iter()
            .any(|o| o.id == ObservationId::compose(CameraId(0), 7)));
        cluster.shutdown();
    }
}
