//! The control loop: observe → diff → act.
//!
//! Every control-plane entry point only sets a [`Desired`] state and runs
//! `Coordinator::reconcile`: observe (one [`Request::CellDigest`] sweep,
//! [`sweep`]), diff ([`diff`], a pure function), act (each action through
//! `Executor::ask`, spelled by [`Wire`]) — until the diff is empty.
//!
//! Dropping a diverged replica copy is safe by the ack contract: an
//! acknowledged row is always at its alive owner or in a dead owner's
//! replica logs, which are promoted while they hold anything the owners
//! lack; the sender's redo window re-delivers everything else.
//!
//! [`Request::CellDigest`]: crate::Request::CellDigest

use std::collections::{BTreeMap, BTreeSet, HashSet};

use stcam_camnet::Observation;
use stcam_codec::SegmentFrame;
use stcam_geo::GridSpec;
use stcam_index::{cell_scope, SealedSegment};
use stcam_net::NodeId;

use crate::error::StcamError;
use crate::exec::{unexpected, want_ack, Executor};
use crate::partition::PartitionMap;
use crate::plane::QueryPlan;
use crate::protocol::{DigestReport, Request, Response};
use crate::repair::STREAM_CHUNK;

/// What the control loop drives the cluster to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Desired<'a> {
    /// The partition map to publish and hold the data by.
    pub map: &'a PartitionMap,
    /// The workers to publish as alive; only they are observed.
    pub alive: &'a HashSet<NodeId>,
    /// Replica copies each owned cell needs at its alive ring successors.
    pub replication: usize,
    /// The published plan must outrank this epoch: the highest one a
    /// reconstructing census reported, so stale instances are fenced.
    pub fence: u64,
}

impl Desired<'_> {
    /// Whether `plan` already publishes this state.
    pub(crate) fn is_published(&self, plan: &QueryPlan) -> bool {
        &plan.partition == self.map && &plan.alive == self.alive && plan.epoch > self.fence
    }
}

/// One step toward the desired state. Every one may run twice, and a
/// failed one is planned again from the next round's digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Action {
    /// Copy `from`'s primary copy of `cell` into `to`'s primary shard,
    /// beside what it holds. `whole` ships sealed segments as frames,
    /// which dedup by digest alone: only onto a cell `to` holds nothing of.
    Ship {
        cell: u32,
        from: NodeId,
        to: NodeId,
        whole: bool,
    },
    /// Overwrite `holder`'s replica log for `owner` at `cell` with
    /// `owner`'s primary copy.
    Cover {
        cell: u32,
        owner: NodeId,
        holder: NodeId,
    },
    /// Finish a move: ship `from`'s final copy into `to` as rows unless
    /// the two agree, then drop it.
    Drain {
        cell: u32,
        from: NodeId,
        to: NodeId,
        ship: bool,
    },
    /// Empty `holder`'s replica log for `primary` at `cell`, or whole.
    Truncate {
        holder: NodeId,
        primary: NodeId,
        cell: Option<u32>,
    },
    /// Absorb `holder`'s replica log for the dead `failed` into its
    /// primary shard, through its id filter.
    Promote { holder: NodeId, failed: NodeId },
    /// The cutover: publish the desired map and alive set, send every
    /// alive worker its route, re-register the standing queries.
    Publish,
}

impl Action {
    fn truncate(holder: NodeId, primary: NodeId, cell: Option<u32>) -> Self {
        Action::Truncate {
            holder,
            primary,
            cell,
        }
    }
}

/// What one diff found.
#[derive(Debug, Default)]
pub(crate) struct Diff {
    /// The round's actions, in the order they must run.
    pub actions: Vec<Action>,
    /// Distinct owned cells whose copy at some required successor is
    /// missing or diverged.
    pub under_replicated_cells: usize,
}

/// A cell copy's `(count, checksum)`.
type Digest = (u32, u64);

/// What the cluster, as the digests `observed` show it, must do to reach
/// `want` from the `published` plan, given the cells this run `copied`.
/// The rules, in the order their actions run:
///
/// 1. **Moves**, while the cutover is pending: a cell whose published
///    owner is alive and not its desired owner is shipped there once per
///    run (under live writes its copies never agree before the cutover,
///    so `copied`, the diff's only memory, ends the copying).
/// 2. **Covers**: each copy the desired map requires (each alive owner's
///    cells at its alive ring successors) that differs from the owner's,
///    or whose cell another action changes, is overwritten from it —
///    before the cutover while a move is pending, so it never lowers the
///    factor, else after the promotions and drains.
/// 3. **Promotions**: a dead primary's log is promoted into one holder,
///    owning some of its cells if any does; every other copy that holder
///    or an alive primary already holds digest-equal is dropped whole,
///    and the rest are promoted too. One rule for failover, hints at
///    factor 0 and reconstruction; a failed promotion is planned again.
/// 4. **Publish**, when the desired state is not the published one.
/// 5. **Drains**, once nothing is pending: a primary copy of a cell
///    desired elsewhere goes to the desired owner, shipped unless the
///    owner's copy agrees and no promotion adds to it this round.
/// 6. **Truncates**: replica copies no map requires, except, while the
///    cutover is pending, those the published plan still reads.
///
/// On the state it was computed from, with no writes in between, a diff
/// leaves at most one more round — the drains after the cutover, or of
/// what a promotion put in a ceded cell, covered as they land — so it is
/// empty after at most two rounds.
pub(crate) fn diff(
    want: Desired<'_>,
    published: &QueryPlan,
    observed: &[(NodeId, DigestReport)],
    copied: &HashSet<u32>,
) -> Diff {
    let map = want.map;
    let old = &published.partition;
    let alive = |node: &NodeId| want.alive.contains(node);
    let pending = !want.is_published(published);
    // Cells compare across the two maps only on one grid.
    let moving = pending && map.grid() == old.grid();
    let mut primary: BTreeMap<(NodeId, u32), Digest> = BTreeMap::new();
    let mut logs: BTreeMap<(NodeId, NodeId, u32), Digest> = BTreeMap::new();
    for (node, report) in observed {
        for e in &report.primary {
            primary.insert((*node, e.cell), (e.count, e.checksum));
        }
        for e in &report.replicas {
            logs.insert((*node, e.primary, e.cell), (e.count, e.checksum));
        }
    }
    let seen = |node: NodeId| observed.iter().any(|(n, _)| *n == node);
    let owns = |owner, cell| map.owner_of_packed(cell) == owner;
    let successors =
        |m: &PartitionMap, owner| m.alive_successors(owner, want.replication, want.alive);
    let read = |holder, owner, cell| {
        moving && old.owner_of_packed(cell) == owner && successors(old, owner).contains(&holder)
    };
    // Owner cells the round's moves, promotions and drains change.
    let mut changed: BTreeSet<(NodeId, u32)> = BTreeSet::new();

    let mut moves = Vec::new();
    let mut live_move = false;
    for cell in (0..map.grid().cell_count() as u32).filter(|_| moving) {
        let from = old.owner_of_packed(cell);
        let to = map.owner_of_packed(cell);
        if from == to || !alive(&from) {
            continue;
        }
        live_move = true;
        if !copied.contains(&cell) {
            let whole = seen(to) && !primary.contains_key(&(to, cell));
            moves.push(Action::Ship {
                cell,
                from,
                to,
                whole,
            });
            changed.insert((to, cell));
        }
    }

    // Replica logs of dead primaries: failed → holder → cell → digest.
    let mut dead: BTreeMap<NodeId, BTreeMap<NodeId, BTreeMap<u32, Digest>>> = BTreeMap::new();
    for (&(holder, failed, cell), &digest) in &logs {
        if !alive(&failed) {
            let log = dead.entry(failed).or_default().entry(holder).or_default();
            log.insert(cell, digest);
        }
    }
    let stored: HashSet<(u32, Digest)> = primary.iter().map(|(&(_, c), &d)| (c, d)).collect();
    let mut promotes = Vec::new();
    let mut truncates = Vec::new();
    // Every (holder, cell) a promotion adds rows to.
    let mut absorbing: HashSet<(NodeId, u32)> = HashSet::new();
    for (&failed, holders) in &dead {
        // One holder, owning some of the log's cells if any does, absorbs
        // its log; every other copy it or an alive primary already holds
        // is dropped whole.
        let owning = holders
            .iter()
            .find(|(&h, log)| log.keys().any(|&c| owns(h, c)));
        let Some((&heir, absorbed)) = owning.or(holders.first_key_value()) else {
            continue;
        };
        for (&holder, log) in holders {
            let held = |(cell, digest): (&u32, &Digest)| {
                stored.contains(&(*cell, *digest))
                    || (holder != heir && absorbed.get(cell) == Some(digest))
            };
            if log.iter().all(held) {
                truncates.push(Action::truncate(holder, failed, None));
                continue;
            }
            promotes.push(Action::Promote { holder, failed });
            for &cell in log.keys() {
                absorbing.insert((holder, cell));
                if owns(holder, cell) {
                    changed.insert((holder, cell));
                }
            }
        }
    }

    let mut drains = Vec::new();
    for (&(from, cell), digest) in &primary {
        let to = map.owner_of_packed(cell);
        if pending || to == from || !alive(&to) {
            continue;
        }
        let agrees = primary.get(&(to, cell)) == Some(digest);
        let ship = !agrees || absorbing.contains(&(from, cell));
        drains.push(Action::Drain {
            cell,
            from,
            to,
            ship,
        });
        if ship {
            changed.insert((to, cell));
        }
    }

    // Sorted by cell, so the covers of one cell are adjacent and its copy
    // is fetched once.
    let mut covers: BTreeSet<Action> = BTreeSet::new();
    let mut under = HashSet::new();
    for &owner in map.workers() {
        if !alive(&owner) || !seen(owner) {
            continue;
        }
        let held = primary.range((owner, 0)..=(owner, u32::MAX));
        let touched = changed.range((owner, 0)..=(owner, u32::MAX));
        let cells = held
            .map(|(&(_, cell), _)| cell)
            .chain(touched.map(|&(_, cell)| cell));
        let cells: BTreeSet<u32> = cells.filter(|&cell| owns(owner, cell)).collect();
        for holder in successors(map, owner) {
            for &cell in &cells {
                let truth = primary.get(&(owner, cell));
                let differs = truth.is_some() && logs.get(&(holder, owner, cell)) != truth;
                if differs {
                    under.insert((owner, cell));
                }
                if differs || changed.contains(&(owner, cell)) {
                    covers.insert(Action::Cover {
                        cell,
                        owner,
                        holder,
                    });
                }
            }
        }
    }
    // A copy of an alive owner's cell is kept when covered, or at a
    // required successor while the owner holds the cell (or did not
    // answer), or while the published plan reads it.
    for &(holder, owner, cell) in logs.keys() {
        let holds = !seen(owner) || (owns(owner, cell) && primary.contains_key(&(owner, cell)));
        let required = successors(map, owner).contains(&holder) && holds;
        let covered = covers.contains(&Action::Cover {
            cell,
            owner,
            holder,
        });
        if alive(&owner) && !required && !covered && !read(holder, owner, cell) {
            truncates.push(Action::truncate(holder, owner, Some(cell)));
        }
    }

    let mut covers: Vec<Action> = covers.into_iter().collect();
    let mut actions = moves;
    if live_move {
        actions.append(&mut covers);
    }
    actions.extend(promotes);
    if pending {
        actions.push(Action::Publish);
    }
    actions.extend(drains);
    actions.extend(covers);
    actions.extend(truncates);
    Diff {
        actions,
        under_replicated_cells: under.len(),
    }
}

/// Sends the control message `name` to each of `targets` and waits for
/// every ack; the first failed target's error wins.
pub(crate) fn tell(
    exec: &Executor,
    name: &'static str,
    targets: &[NodeId],
    request: impl FnMut(NodeId) -> Request,
) -> Result<(), StcamError> {
    let answers = exec.ask(name, targets, request, want_ack);
    answers.into_iter().try_for_each(|(_, answer)| answer)
}

/// The answer of a control message asked of one worker.
fn only<T>(mut answers: Vec<(NodeId, Result<T, StcamError>)>) -> Result<T, StcamError> {
    answers.pop().expect("one target, one answer").1
}

/// One digest sweep of `workers` on `grid`; a worker that does not answer
/// contributes nothing (its copies count as missing this round).
pub(crate) fn sweep(
    exec: &Executor,
    grid: GridSpec,
    workers: &[NodeId],
) -> Vec<(NodeId, DigestReport)> {
    let want = |response| match response {
        Response::Digests(report) => Ok(report),
        other => Err(unexpected("digests", other)),
    };
    let digest = |_| Request::CellDigest { grid };
    let answers = exec.ask("cell_digest", workers, digest, want);
    let answered = answers.into_iter().filter_map(|(w, r)| Some((w, r.ok()?)));
    answered.collect()
}

/// Wire bytes of the loop's streaming so far: exports received plus
/// installs sent.
pub(crate) fn traffic(exec: &Executor) -> u64 {
    exec.stats_for("export_segments").bytes_received + exec.stats_for("install_segments").bytes_sent
}

/// What `ExportSegments` answers: sealed frames and mutable-head rows.
type Export = (Vec<SegmentFrame>, Vec<Observation>);

/// The messages one round's cell actions are spelled in, and the answers
/// the round reuses. Rows leave a copy only by `ExportSegments` and
/// enter one only by `InstallSegments`.
#[derive(Debug)]
pub(crate) struct Wire<'a> {
    exec: &'a Executor,
    grid: GridSpec,
    /// The last `(owner, cell)` copy a cover exported.
    exported: Option<((NodeId, u32), Export)>,
}

impl<'a> Wire<'a> {
    pub(crate) fn new(exec: &'a Executor, grid: GridSpec) -> Self {
        Wire {
            exec,
            grid,
            exported: None,
        }
    }

    /// `from`'s primary copy of `cell`.
    fn export(&self, from: NodeId, cell: u32) -> Result<Export, StcamError> {
        let region = cell_scope(&self.grid, cell);
        let export = |_| Request::ExportSegments { region };
        let want = |response| match response {
            Response::Segments { frames, head } => Ok((frames, head)),
            other => Err(unexpected("segments", other)),
        };
        only(self.exec.ask("export_segments", &[from], export, want))
    }

    /// Exports `from`'s copy of `cell` into `to`'s primary shard and
    /// returns the rows shipped: whole sealed frames, or rows that pass
    /// `to`'s id filter. Export reads, install dedups: every message may
    /// be re-sent.
    pub(crate) fn ship(
        &mut self,
        cell: u32,
        from: NodeId,
        to: NodeId,
        whole: bool,
    ) -> Result<usize, StcamError> {
        let (mut frames, mut head) = self.export(from, cell)?;
        if !whole {
            for frame in frames.drain(..) {
                head.extend(SealedSegment::from_frame(frame)?.unseal());
            }
        }
        self.install(to, to, Some(cell), false, frames, &head)
    }

    /// Ships `from`'s copy of `cell` into `to` as rows when `ship`, then
    /// drops it: `from` holds the route that cedes the cell, so it does
    /// not refuse. Returns the rows shipped.
    pub(crate) fn drain(
        &mut self,
        cell: u32,
        from: NodeId,
        to: NodeId,
        ship: bool,
    ) -> Result<usize, StcamError> {
        let shipped = ship.then(|| self.ship(cell, from, to, false)).transpose()?;
        self.install(from, from, Some(cell), true, Vec::new(), &[])?;
        Ok(shipped.unwrap_or(0))
    }

    /// Overwrites `holder`'s replica log for `owner` at `cell` with
    /// `owner`'s primary copy as it is stored — exported once for the
    /// covers of one cell. Returns the rows streamed.
    pub(crate) fn cover(
        &mut self,
        cell: u32,
        owner: NodeId,
        holder: NodeId,
    ) -> Result<usize, StcamError> {
        let key = (owner, cell);
        if self.exported.as_ref().is_none_or(|(k, _)| *k != key) {
            self.exported = None;
            self.exported = Some((key, self.export(owner, cell)?));
        }
        let (_, (frames, head)) = self.exported.as_ref().expect("exported above");
        self.install(holder, owner, Some(cell), true, frames.clone(), head)
    }

    /// Writes `frames` and `head` into `holder`'s copy of `cell` held for
    /// `primary` (its own primary shard when the two are equal), after
    /// removing the cell's contents when `truncate`, in bounded
    /// messages: the frames and the truncate go with the first, which
    /// carries no rows when `head` is empty, the rest append. No cell
    /// means the whole copy: the one cell of a grid over the extent,
    /// into which every position clamps. Returns the rows written.
    pub(crate) fn install(
        &self,
        holder: NodeId,
        primary: NodeId,
        cell: Option<u32>,
        truncate: bool,
        mut frames: Vec<SegmentFrame>,
        head: &[Observation],
    ) -> Result<usize, StcamError> {
        let extent = self.grid.extent();
        let whole = GridSpec::covering(extent, extent.width().max(extent.height()));
        let (grid, cell) = cell.map_or((whole, 0), |cell| (self.grid, cell));
        let rows = frames.iter().map(|f| f.count as usize).sum::<usize>() + head.len();
        let rowless = head.is_empty() && (truncate || !frames.is_empty());
        let chunks = rowless
            .then_some(head)
            .into_iter()
            .chain(head.chunks(STREAM_CHUNK));
        for (i, chunk) in chunks.enumerate() {
            tell(self.exec, "install_segments", &[holder], |_| {
                Request::InstallSegments {
                    primary,
                    grid,
                    cell,
                    truncate: truncate && i == 0,
                    frames: std::mem::take(&mut frames),
                    head: chunk.to_vec(),
                }
            })?;
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DigestEntry, ReplicaDigestEntry};
    use stcam_geo::{BBox, CellId, Point};

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(800.0, 800.0))
    }

    fn workers(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    /// The diff of `model` seen by `alive`, whose desired state is
    /// already published.
    fn settled(model: &Model, map: &PartitionMap, alive: &HashSet<NodeId>, r: usize) -> Diff {
        let want = Desired {
            map,
            alive,
            replication: r,
            fence: 0,
        };
        let plan = QueryPlan {
            epoch: 1,
            partition: map.clone(),
            alive: alive.clone(),
        };
        diff(want, &plan, &model.observe(want.alive), &HashSet::new())
    }

    /// A model holding `ids` in `primary` cells and in `logs` cells.
    fn holding(primary: &[(NodeId, u32)], logs: &[(NodeId, NodeId, u32)], ids: &[u64]) -> Model {
        let ids: BTreeSet<u64> = ids.iter().copied().collect();
        let primary = primary.iter().map(|&k| (k, ids.clone())).collect();
        let logs = logs.iter().map(|&k| (k, ids.clone())).collect();
        Model { primary, logs }
    }

    #[test]
    fn a_stray_is_drained_a_diverged_copy_covered_and_a_stale_one_truncated() {
        let map = PartitionMap::uniform(extent(), 400.0, workers(3));
        let alive: HashSet<NodeId> = map.workers().iter().copied().collect();
        let owner = map.owner_of_cell(CellId::new(0, 0));
        let next = map.alive_successors(owner, 1, &alive)[0];
        // The required successor holds a matching replica copy and a
        // stray primary copy (its drop was lost): only the drop is left.
        let stray = holding(&[(owner, 0), (next, 0)], &[(next, owner, 0)], &[1, 2]);
        let drain = Action::Drain {
            cell: 0,
            from: next,
            to: owner,
            ship: false,
        };
        let found = settled(&stray, &map, &alive, 1);
        assert_eq!(found.actions, vec![drain]);
        assert_eq!(found.under_replicated_cells, 0, "no data is missing");
        // A replica copy that differs from the owner's is overwritten.
        let mut diverged = holding(&[(owner, 0)], &[(next, owner, 0)], &[1, 2]);
        diverged.logs.values_mut().for_each(|ids| _ = ids.insert(3));
        let cover = Action::Cover {
            cell: 0,
            owner,
            holder: next,
        };
        let found = settled(&diverged, &map, &alive, 1);
        assert_eq!(found.actions, vec![cover]);
        assert_eq!(found.under_replicated_cells, 1);
        let found = settled(&diverged, &map, &alive, 0);
        assert_eq!(found.actions, vec![Action::truncate(next, owner, Some(0))]);
        assert_eq!(found.under_replicated_cells, 0, "no copy is required");
        // A replica copy of a cell the owner no longer holds is dropped.
        let stale = holding(&[], &[(next, owner, 0)], &[1, 2, 3]);
        let found = settled(&stale, &map, &alive, 1);
        assert_eq!(found.actions, vec![Action::truncate(next, owner, Some(0))]);
        assert_eq!(found.under_replicated_cells, 0, "no data is missing");
    }

    #[test]
    fn logs_outside_the_successor_set_are_truncated_and_dead_ones_promoted() {
        let map = PartitionMap::uniform(extent(), 400.0, workers(4));
        let mut alive: HashSet<NodeId> = map.workers().iter().copied().collect();
        // NodeId(3) holds logs for primaries 1 and 4. With r=1 and
        // everyone alive, 3 is a required successor of neither (1's
        // successor is 2, 4's wraps to 1), so both logs are truncated.
        let (one, three, four) = (NodeId(1), NodeId(3), NodeId(4));
        let model = holding(&[], &[(three, one, 0), (three, four, 1)], &[7]);
        let both = vec![
            Action::truncate(three, one, Some(0)),
            Action::truncate(three, four, Some(1)),
        ];
        assert_eq!(settled(&model, &map, &alive, 1).actions, both);
        // With 4 dead, its log at 3 holds rows no alive primary holds:
        // promoted, not dropped.
        alive.remove(&four);
        let actions = settled(&model, &map, &alive, 1).actions;
        let promote = Action::Promote {
            holder: three,
            failed: four,
        };
        assert!(actions.contains(&promote), "{actions:?}");
        assert!(actions.contains(&Action::truncate(three, one, Some(0))));
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::Truncate { primary, .. } if *primary == four)));
    }

    /// A failover's promotion that never landed: the heir owns the dead
    /// primary's cell, but the acked rows sit only in its replica log,
    /// invisible to strict reads. The diff promotes the log — again on
    /// every round the log is still there — and is done once it landed.
    #[test]
    fn an_unpromoted_log_of_a_dead_primary_is_promoted_until_it_lands() {
        let mut map = PartitionMap::uniform(extent(), 400.0, workers(3));
        let dead = map.owner_of_cell(CellId::new(0, 0));
        let mut alive: HashSet<NodeId> = map.workers().iter().copied().collect();
        alive.remove(&dead);
        let heir = map.alive_successors(dead, 1, &alive)[0];
        map.reassign(dead, heir);
        let unpromoted = holding(&[], &[(heir, dead, 0)], &[1, 2]);
        let promote = Action::Promote {
            holder: heir,
            failed: dead,
        };
        for _ in 0..2 {
            assert_eq!(settled(&unpromoted, &map, &alive, 0).actions, vec![promote]);
        }
        let promoted = holding(&[(heir, 0)], &[], &[1, 2]);
        assert!(settled(&promoted, &map, &alive, 0).actions.is_empty());
    }

    /// A cluster as the diff sees it: id sets per primary cell and per
    /// replica-log cell.
    #[derive(Debug, Clone, Default)]
    struct Model {
        /// (node, cell) → ids in that node's primary shard.
        primary: BTreeMap<(NodeId, u32), BTreeSet<u64>>,
        /// (holder, primary, cell) → ids in the holder's log for primary.
        logs: BTreeMap<(NodeId, NodeId, u32), BTreeSet<u64>>,
    }

    fn mix(id: u64) -> u64 {
        let z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn merge<K: Ord>(store: &mut BTreeMap<K, BTreeSet<u64>>, key: K, ids: BTreeSet<u64>) {
        if !ids.is_empty() {
            store.entry(key).or_default().extend(ids);
        }
    }

    fn digest(ids: &BTreeSet<u64>) -> Digest {
        (ids.len() as u32, ids.iter().fold(0, |a, &i| a ^ mix(i)))
    }

    impl Model {
        /// One digest sweep of the alive workers.
        fn observe(&self, alive: &HashSet<NodeId>) -> Vec<(NodeId, DigestReport)> {
            let report = |node: NodeId| {
                let mut report = DigestReport::default();
                for (&(_, cell), ids) in self.primary.iter().filter(|((n, _), _)| *n == node) {
                    let (count, checksum) = digest(ids);
                    report.primary.push(DigestEntry {
                        cell,
                        count,
                        checksum,
                    });
                }
                for (&(_, primary, cell), ids) in self.logs.iter().filter(|(k, _)| k.0 == node) {
                    let (count, checksum) = digest(ids);
                    report.replicas.push(ReplicaDigestEntry {
                        primary,
                        cell,
                        count,
                        checksum,
                    });
                }
                report
            };
            let nodes: BTreeSet<NodeId> = alive.iter().copied().collect();
            nodes.into_iter().map(|n| (n, report(n))).collect()
        }

        /// What `action` does to the cluster (every message lands). Whole
        /// frames installed beside rows the receiver holds would duplicate
        /// rows, so such a ship is an error.
        fn apply(
            &mut self,
            action: Action,
            want: Desired,
            plan: &mut QueryPlan,
        ) -> Result<(), String> {
            match action {
                Action::Ship {
                    cell,
                    from,
                    to,
                    whole,
                } => {
                    if whole && self.primary.contains_key(&(to, cell)) {
                        return Err(format!("whole frames of cell {cell} onto {to:?}'s rows"));
                    }
                    let ids = self.primary.get(&(from, cell)).cloned().unwrap_or_default();
                    merge(&mut self.primary, (to, cell), ids);
                }
                Action::Cover {
                    cell,
                    owner,
                    holder,
                } => {
                    let ids = self.primary.get(&(owner, cell)).cloned();
                    let ids = ids.unwrap_or_default();
                    self.logs.remove(&(holder, owner, cell));
                    merge(&mut self.logs, (holder, owner, cell), ids);
                }
                Action::Drain {
                    cell,
                    from,
                    to,
                    ship,
                } => {
                    let ids = self.primary.remove(&(from, cell)).unwrap_or_default();
                    if ship {
                        merge(&mut self.primary, (to, cell), ids);
                    }
                }
                Action::Truncate {
                    holder,
                    primary,
                    cell,
                } => {
                    let cut = |k: &(NodeId, NodeId, u32)| {
                        (k.0, k.1) == (holder, primary) && cell.is_none_or(|c| c == k.2)
                    };
                    self.logs.retain(|k, _| !cut(k));
                }
                Action::Promote { holder, failed } => {
                    let keys = self.logs.keys().copied();
                    let keys: Vec<_> = keys.filter(|k| k.0 == holder && k.1 == failed).collect();
                    for key in keys {
                        let ids = self.logs.remove(&key).unwrap_or_default();
                        merge(&mut self.primary, (holder, key.2), ids);
                    }
                }
                Action::Publish => {
                    *plan = QueryPlan {
                        epoch: plan.epoch.max(want.fence) + 1,
                        partition: want.map.clone(),
                        alive: want.alive.clone(),
                    };
                }
            }
            Ok(())
        }
    }

    /// A random starting state: three to six workers, a random alive set,
    /// factor 0–3, a published map that may still name dead owners, and a
    /// desired map over the alive workers that equals it or moves cells.
    /// Every primary cell and replica-log cell is a random subset of its
    /// cell's ids, or a stray equal to the owner's copy, which yields
    /// strays (a cell moving back among them), garbage, diverged and
    /// missing copies, hints at factor 0 and unpromoted logs of dead
    /// primaries.
    fn scenario(seed: u64) -> (Model, PartitionMap, HashSet<NodeId>, usize, QueryPlan, u64) {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            mix(state) % bound
        };
        let n = 3 + next(4) as u32;
        let ring = workers(n);
        let mut alive: HashSet<NodeId> = ring.iter().copied().filter(|_| next(10) < 7).collect();
        alive.insert(ring[next(u64::from(n)) as usize]);
        let live: Vec<NodeId> = ring.iter().copied().filter(|w| alive.contains(w)).collect();
        let grid = GridSpec::covering(extent(), [400.0, 800.0 / 3.0][next(2) as usize]);
        let cells = grid.cell_count() as u32;
        let old: Vec<Option<NodeId>> = (0..cells)
            .map(|_| Some(ring[next(u64::from(n)) as usize]))
            .collect();
        let published = PartitionMap::from_claims(grid, ring.clone(), &old);
        let same = next(3) == 0;
        let new: Vec<Option<NodeId>> = old
            .iter()
            .map(|&owner| match owner {
                Some(w) if alive.contains(&w) && (same || next(3) > 0) => Some(w),
                _ => Some(live[next(live.len() as u64) as usize]),
            })
            .collect();
        let desired_ring = if next(2) == 0 { &ring } else { &live };
        let desired = PartitionMap::from_claims(grid, desired_ring.clone(), &new);
        let mut model = Model::default();
        let mut ids = |cell: u32| -> BTreeSet<u64> {
            (0..8)
                .filter(|_| next(2) == 0)
                .map(|k| u64::from(cell) * 100 + k)
                .collect()
        };
        for cell in 0..cells {
            let owner = published.owner_of_packed(cell);
            let owned = ids(cell);
            merge(&mut model.primary, (owner, cell), owned.clone());
            for &node in &ring {
                let stray = ids(cell);
                if stray.len() % 4 == 0 {
                    merge(&mut model.primary, (node, cell), stray);
                } else if stray.len() % 4 == 3 {
                    // A stray that still agrees with the owner's copy.
                    merge(&mut model.primary, (node, cell), owned.clone());
                }
                for &primary in ring.iter().filter(|&&p| p != node) {
                    let log = ids(cell);
                    if log.len() % 6 == 0 {
                        merge(&mut model.logs, (node, primary, cell), log);
                    }
                }
            }
        }
        let alive_then = if ids(0).len() % 2 == 0 {
            alive.clone()
        } else {
            ring.iter().copied().collect()
        };
        let epoch = 1 + ids(0).len() as u64;
        let plan = QueryPlan {
            epoch,
            partition: published,
            alive: alive_then,
        };
        let fence = if ids(0).len() < 3 { epoch } else { 0 };
        (model, desired, alive, ids(0).len() % 4, plan, fence)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        /// From any starting state, applying the diff's actions reaches
        /// an empty diff within two rounds (see [`diff`]), and the end
        /// state is the desired one: the desired plan published, no cell
        /// under-replicated, every row that an alive primary or a dead
        /// primary's log held at the start present at its cell's desired
        /// owner and nowhere else, and every required successor's copy
        /// equal to its owner's.
        #[test]
        fn the_diff_converges_from_any_state_within_two_rounds(seed in proptest::any::<u64>()) {
            let (mut model, map, alive, replication, mut plan, fence) = scenario(seed);
            let want = Desired { map: &map, alive: &alive, replication, fence };
            let alive_held = model.primary.iter().filter(|((n, _), _)| alive.contains(n));
            let mut kept: Vec<_> = alive_held.map(|(&(_, cell), ids)| (cell, ids.clone())).collect();
            for (&(holder, primary, cell), ids) in &model.logs {
                if alive.contains(&holder) && !alive.contains(&primary) {
                    kept.push((cell, ids.clone()));
                }
            }
            let mut copied = HashSet::new();
            for round in 0.. {
                let found = diff(want, &plan, &model.observe(&alive), &copied);
                if found.actions.is_empty() {
                    proptest::prop_assert_eq!(found.under_replicated_cells, 0);
                    break;
                }
                let actions = found.actions;
                proptest::prop_assert!(round < 2, "round {round} still has {actions:?}");
                for action in actions {
                    if let Action::Ship { cell, .. } = action {
                        copied.insert(cell);
                    }
                    let applied = model.apply(action, want, &mut plan);
                    proptest::prop_assert!(applied.is_ok(), "{:?}", applied);
                }
            }
            proptest::prop_assert!(want.is_published(&plan));
            for (&(node, cell), ids) in &model.primary {
                let owner = map.owner_of_packed(cell);
                proptest::prop_assert!(!alive.contains(&node) || node == owner, "stray {ids:?}");
            }
            for (cell, ids) in kept {
                let held = model.primary.get(&(map.owner_of_packed(cell), cell));
                proptest::prop_assert!(held.is_some_and(|h| h.is_superset(&ids)), "cell {cell} lost ids");
            }
            for &owner in map.workers().iter().filter(|w| alive.contains(w)) {
                let truth: Vec<_> = model.primary.iter().filter(|((n, _), _)| *n == owner).collect();
                let truth: Vec<_> = truth.into_iter().map(|(&(_, cell), ids)| (cell, ids)).collect();
                for holder in map.alive_successors(owner, replication, &alive) {
                    let copy = model.logs.iter().filter(|((h, p, _), _)| *h == holder && *p == owner);
                    let copy: Vec<_> = copy.map(|(&(_, _, cell), ids)| (cell, ids)).collect();
                    proptest::prop_assert_eq!(copy, truth.clone(), "copy of {} at {}", owner, holder);
                }
            }
        }
    }
}
