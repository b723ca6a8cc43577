//! Space partitioning: macro-cells on a Z-order curve, assigned to workers.

use stcam_geo::{BBox, CellId, GridSpec, Point};
use stcam_net::NodeId;

/// How macro-cells are assigned to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Split the Z-order curve into runs of equal *cell count*. Cheap and
    /// oblivious; degrades under spatial load skew.
    UniformHash,
    /// Split the Z-order curve into runs of equal *measured load*
    /// (observations per cell over a recent window). Adapts to hotspots
    /// while preserving spatial locality of each shard.
    LoadAware,
}

impl std::fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionPolicy::UniformHash => f.write_str("uniform-hash"),
            PartitionPolicy::LoadAware => f.write_str("load-aware"),
        }
    }
}

/// The assignment of every macro-cell to an owning worker.
///
/// Cells are ordered on the Z-order curve and each worker owns one
/// contiguous curve run, so shards stay spatially compact and a region
/// query touches few workers.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMap {
    grid: GridSpec,
    workers: Vec<NodeId>,
    /// Per cell (row-major slot), the index into `workers` of its owner.
    assignment: Vec<u32>,
}

impl PartitionMap {
    /// Builds a uniform (cell-count-balanced) partition of `extent` into
    /// macro-cells of `cell_size` over `workers`.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is empty or the geometry is degenerate.
    pub fn uniform(extent: BBox, cell_size: f64, workers: Vec<NodeId>) -> Self {
        let grid = GridSpec::covering(extent, cell_size);
        let cell_count = grid.cell_count() as usize;
        let loads = vec![1u64; cell_count];
        Self::from_loads(grid, workers, &loads)
    }

    /// Builds a load-aware partition: each worker's curve run carries
    /// approximately equal total `loads` (one entry per cell, row-major).
    ///
    /// # Panics
    ///
    /// Panics when `workers` is empty or `loads.len()` does not match the
    /// cell count of the macro grid.
    pub fn load_aware(extent: BBox, cell_size: f64, workers: Vec<NodeId>, loads: &[u64]) -> Self {
        let grid = GridSpec::covering(extent, cell_size);
        assert_eq!(
            loads.len(),
            grid.cell_count() as usize,
            "loads length must equal macro cell count"
        );
        // All-zero load degenerates to uniform.
        if loads.iter().all(|&l| l == 0) {
            let ones = vec![1u64; loads.len()];
            return Self::from_loads(grid, workers, &ones);
        }
        Self::from_loads(grid, workers, loads)
    }

    /// Builds by the given policy; `loads` is required (and only used) by
    /// [`PartitionPolicy::LoadAware`].
    pub fn build(
        policy: PartitionPolicy,
        extent: BBox,
        cell_size: f64,
        workers: Vec<NodeId>,
        loads: Option<&[u64]>,
    ) -> Self {
        match policy {
            PartitionPolicy::UniformHash => Self::uniform(extent, cell_size, workers),
            PartitionPolicy::LoadAware => Self::load_aware(
                extent,
                cell_size,
                workers,
                loads.expect("load-aware partitioning requires per-cell loads"),
            ),
        }
    }

    fn from_loads(grid: GridSpec, workers: Vec<NodeId>, loads: &[u64]) -> Self {
        assert!(!workers.is_empty(), "need at least one worker");
        let n_workers = workers.len();
        // Cells in Z-order.
        let mut cells: Vec<CellId> = grid.all_cells().collect();
        cells.sort_by_key(|c| c.zorder());
        let total: u64 = loads.iter().sum::<u64>().max(1);
        let mut assignment = vec![0u32; grid.cell_count() as usize];
        // Walk the curve, cutting a new run when the current worker has
        // its fair share AND enough workers remain for the leftover cells.
        let mut worker = 0usize;
        let mut acc = 0u64;
        let mut cells_in_run = 0usize;
        let target = total.div_ceil(n_workers as u64);
        for (i, cell) in cells.iter().enumerate() {
            let slot = cell.row as usize * grid.cols() as usize + cell.col as usize;
            let remaining_cells = cells.len() - i;
            let remaining_workers = n_workers - worker;
            // Cut a new run when adding this cell would overshoot the
            // current worker's share by more than stopping short would
            // undershoot it (classic 1-D linear partitioning), or when
            // exactly one cell per remaining worker is left (so that
            // extreme skew cannot starve trailing workers of cells).
            let forced = cells_in_run > 0 && remaining_cells == remaining_workers;
            let with_cell = acc + loads[slot];
            let sated = cells_in_run > 0
                && with_cell > target
                && (with_cell - target) > (target - acc.min(target))
                && remaining_cells >= remaining_workers;
            if remaining_workers > 1 && (forced || sated) {
                worker += 1;
                acc = 0;
                cells_in_run = 0;
            }
            assignment[slot] = worker as u32;
            acc += loads[slot];
            cells_in_run += 1;
        }
        PartitionMap {
            grid,
            workers,
            assignment,
        }
    }

    /// Rebuilds a map from per-slot ownership claims — the coordinator
    /// reconstruction path, where surviving workers' census reports are
    /// the only source of truth. `claimed` holds, per row-major slot, the
    /// worker that claims the cell (conflicts already resolved by the
    /// caller's epoch-majority rule) or `None` when no survivor claims
    /// it. Unclaimed slots are filled along the Z-order curve from the
    /// nearest preceding claimed run (wrapping), so orphaned cells stay
    /// spatially attached to a surviving shard; with no claims at all the
    /// curve is dealt round-robin.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is empty, `claimed` does not match the cell
    /// count, or a claim names a node outside `workers`.
    pub fn from_claims(grid: GridSpec, workers: Vec<NodeId>, claimed: &[Option<NodeId>]) -> Self {
        assert!(!workers.is_empty(), "need at least one worker");
        assert_eq!(
            claimed.len(),
            grid.cell_count() as usize,
            "claims length must equal macro cell count"
        );
        let index_of = |w: NodeId| -> u32 {
            workers
                .iter()
                .position(|&m| m == w)
                .expect("claimant is a ring member") as u32
        };
        const UNCLAIMED: u32 = u32::MAX;
        let mut assignment = vec![UNCLAIMED; claimed.len()];
        for (slot, owner) in claimed.iter().enumerate() {
            if let Some(w) = owner {
                assignment[slot] = index_of(*w);
            }
        }
        let mut cells: Vec<CellId> = grid.all_cells().collect();
        cells.sort_by_key(|c| c.zorder());
        let slot_of =
            |c: &CellId| -> usize { c.row as usize * grid.cols() as usize + c.col as usize };
        // Two passes so a gap before the first claimed run wraps around
        // to inherit from the curve's tail.
        let mut last: Option<u32> = None;
        for _ in 0..2 {
            for cell in &cells {
                let slot = slot_of(cell);
                if assignment[slot] != UNCLAIMED {
                    last = Some(assignment[slot]);
                } else if let Some(owner) = last {
                    assignment[slot] = owner;
                }
            }
        }
        // No claims at all: deal the curve round-robin.
        for (i, cell) in cells.iter().enumerate() {
            let slot = slot_of(cell);
            if assignment[slot] == UNCLAIMED {
                assignment[slot] = (i % workers.len()) as u32;
            }
        }
        PartitionMap {
            grid,
            workers,
            assignment,
        }
    }

    /// The macro grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// All workers in ring order.
    pub fn workers(&self) -> &[NodeId] {
        &self.workers
    }

    /// The worker owning the macro-cell containing `p` (clamped to the
    /// extent, so noisy boundary observations route deterministically).
    pub fn owner_of(&self, p: Point) -> NodeId {
        self.owner_of_cell(self.grid.cell_of_clamped(p))
    }

    /// The worker owning `cell`.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is outside the macro grid.
    pub fn owner_of_cell(&self, cell: CellId) -> NodeId {
        assert!(self.grid.contains_cell(cell), "cell outside macro grid");
        let slot = cell.row as usize * self.grid.cols() as usize + cell.col as usize;
        self.workers[self.assignment[slot] as usize]
    }

    /// The worker owning the cell packed `row * cols + col` — how digests,
    /// routing slices and repair plans name a macro cell.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is outside the macro grid.
    pub fn owner_of_packed(&self, cell: u32) -> NodeId {
        self.workers[self.assignment[cell as usize] as usize]
    }

    /// The distinct workers whose shards can hold a row inside `region`,
    /// in ring order: the owners of its cells clamped into the extent, so
    /// a region outside the extent asks the owners of the border cells
    /// its rows are routed to.
    pub fn workers_for_region(&self, region: BBox) -> Vec<NodeId> {
        let mut present = vec![false; self.workers.len()];
        for cell in self.grid.cells_clamped(region) {
            let slot = cell.row as usize * self.grid.cols() as usize + cell.col as usize;
            present[self.assignment[slot] as usize] = true;
        }
        self.workers
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(&w, _)| w)
            .collect()
    }

    /// The macro-cells owned by `worker`.
    pub fn cells_of(&self, worker: NodeId) -> Vec<CellId> {
        let Some(widx) = self.workers.iter().position(|&w| w == worker) else {
            return Vec::new();
        };
        self.grid
            .all_cells()
            .filter(|c| {
                let slot = c.row as usize * self.grid.cols() as usize + c.col as usize;
                self.assignment[slot] == widx as u32
            })
            .collect()
    }

    /// [`cells_of`](Self::cells_of) as the wire spells a routing slice:
    /// each cell packed `row * cols + col`. Empty for a node outside the
    /// map — the route that makes a failed-out worker NACK every
    /// ingest batch, steering stale senders to refresh.
    pub fn packed_cells_of(&self, worker: NodeId) -> Vec<u32> {
        let cols = self.grid.cols();
        self.cells_of(worker)
            .into_iter()
            .map(|c| c.row * cols + c.col)
            .collect()
    }

    /// The `r` ring successors of `worker` (replica holders), skipping
    /// `worker` itself. Fewer are returned when the cluster is small.
    pub fn successors(&self, worker: NodeId, r: usize) -> Vec<NodeId> {
        let Some(widx) = self.workers.iter().position(|&w| w == worker) else {
            return Vec::new();
        };
        (1..=r.min(self.workers.len() - 1))
            .map(|i| self.workers[(widx + i) % self.workers.len()])
            .collect()
    }

    /// The first `r` *alive* ring successors of `worker`: the whole ring
    /// is walked past dead members, so a shard keeps `r` live replica
    /// holders as long as the cluster has that many other alive nodes.
    /// This is the one successor rule shared by the write path (acked
    /// ingest certifies these nodes), the read path (replica failover
    /// consults them), and the repair planner (anti-entropy restores
    /// them) — the three stay in lockstep by construction.
    pub fn alive_successors(
        &self,
        worker: NodeId,
        r: usize,
        alive: &std::collections::HashSet<NodeId>,
    ) -> Vec<NodeId> {
        let Some(widx) = self.workers.iter().position(|&w| w == worker) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(r);
        for i in 1..self.workers.len() {
            if out.len() == r {
                break;
            }
            let candidate = self.workers[(widx + i) % self.workers.len()];
            if alive.contains(&candidate) {
                out.push(candidate);
            }
        }
        out
    }

    /// Reassigns every cell owned by `from` to `to` (failover). `to` must
    /// already be a member.
    ///
    /// # Panics
    ///
    /// Panics when either node is not a member.
    pub fn reassign(&mut self, from: NodeId, to: NodeId) {
        let fidx = self
            .workers
            .iter()
            .position(|&w| w == from)
            .expect("from is a member") as u32;
        let tidx = self
            .workers
            .iter()
            .position(|&w| w == to)
            .expect("to is a member") as u32;
        for a in &mut self.assignment {
            if *a == fidx {
                *a = tidx;
            }
        }
    }

    /// Minimal-churn admission: a map identical to `self` except that
    /// `joiner` is (re)entered into the ring and granted approximately a
    /// fair share of the measured `loads` (one entry per cell,
    /// row-major), carved cell-by-cell from the currently most loaded
    /// workers. Every other assignment is preserved, so the replica
    /// re-covering a cutover entails is proportional to the share moved
    /// — unlike rebuilding the map from scratch, which can reshuffle
    /// ownership across the whole keyspace. Donor cells are taken from
    /// the tail of each donor's Z-order run, keeping the donors
    /// contiguous.
    ///
    /// # Panics
    ///
    /// Panics when `loads.len()` does not match the cell count.
    pub fn admit(&self, joiner: NodeId, loads: &[u64]) -> PartitionMap {
        assert_eq!(loads.len(), self.assignment.len());
        let mut map = self.clone();
        if !map.workers.contains(&joiner) {
            map.workers.push(joiner);
        }
        let jix = map.workers.iter().position(|&w| w == joiner).unwrap() as u32;
        // All-zero load degenerates to uniform (cell-count) shares.
        let loads: Vec<u64> = if loads.iter().all(|&l| l == 0) {
            vec![1; loads.len()]
        } else {
            loads.to_vec()
        };
        let fair = loads.iter().sum::<u64>() / map.workers.len() as u64;
        // Per-worker load totals and cell slots, the latter Z-ordered so
        // donors cede from the tail of their curve run.
        let mut totals = vec![0u64; map.workers.len()];
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); map.workers.len()];
        let mut slots: Vec<usize> = (0..map.assignment.len()).collect();
        let cols = map.grid.cols();
        slots.sort_by_key(|&s| CellId::new(s as u32 % cols, s as u32 / cols).zorder());
        for &slot in &slots {
            let w = map.assignment[slot] as usize;
            totals[w] += loads[slot];
            owned[w].push(slot);
        }
        let mut jload = totals[jix as usize];
        while jload < fair {
            // Donor: the most loaded worker that would keep ≥ 1 cell.
            let Some(donor) = (0..map.workers.len())
                .filter(|&w| w as u32 != jix && owned[w].len() > 1)
                .max_by_key(|&w| totals[w])
            else {
                break;
            };
            let slot = *owned[donor].last().expect("donor has cells");
            let l = loads[slot];
            // Stop when overshooting the fair share hurts more than
            // stopping short does.
            if jload + l > fair && (jload + l - fair) > (fair - jload) {
                break;
            }
            owned[donor].pop();
            totals[donor] -= l;
            map.assignment[slot] = jix;
            jload += l;
        }
        map
    }

    /// Per-worker totals of `loads` (one entry per cell, row-major).
    ///
    /// # Panics
    ///
    /// Panics when `loads.len()` does not match the cell count.
    pub fn worker_loads(&self, loads: &[u64]) -> Vec<(NodeId, u64)> {
        assert_eq!(loads.len(), self.assignment.len());
        let mut totals = vec![0u64; self.workers.len()];
        for (slot, &load) in loads.iter().enumerate() {
            totals[self.assignment[slot] as usize] += load;
        }
        self.workers.iter().copied().zip(totals).collect()
    }

    /// Load imbalance factor: max worker load ÷ mean worker load (1.0 is
    /// perfect balance). Returns 1.0 when the total load is zero.
    pub fn imbalance(&self, loads: &[u64]) -> f64 {
        let totals = self.worker_loads(loads);
        let sum: u64 = totals.iter().map(|(_, l)| l).sum();
        if sum == 0 {
            return 1.0;
        }
        let max = totals.iter().map(|(_, l)| *l).max().unwrap_or(0);
        max as f64 / (sum as f64 / totals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(1600.0, 1600.0))
    }

    fn workers(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    #[test]
    fn uniform_assigns_every_cell_and_balances_counts() {
        let m = PartitionMap::uniform(extent(), 200.0, workers(4));
        assert_eq!(m.grid().cell_count(), 64);
        let loads = vec![1u64; 64];
        let per_worker = m.worker_loads(&loads);
        for (w, count) in &per_worker {
            assert_eq!(*count, 16, "worker {w} owns {count} cells");
        }
        assert!((m.imbalance(&loads) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn admit_moves_only_the_joiners_share() {
        let m = PartitionMap::uniform(extent(), 200.0, workers(4));
        let loads = vec![1u64; 64];
        let joiner = NodeId(9);
        let grown = m.admit(joiner, &loads);
        assert!(grown.workers().contains(&joiner));
        // Every cell either kept its previous owner or moved to the
        // joiner — veterans never trade cells among themselves.
        let mut moved = 0usize;
        for cell in m.grid().all_cells() {
            let before = m.owner_of_cell(cell);
            let after = grown.owner_of_cell(cell);
            if after != before {
                assert_eq!(after, joiner, "cell {cell:?} moved between veterans");
                moved += 1;
            }
        }
        // The joiner ends within one cell of its fair share (64 / 5).
        assert!((11..=13).contains(&moved), "joiner got {moved} cells");
        assert!((grown.imbalance(&loads) - 65.0 / 64.0).abs() < 0.11);
    }

    #[test]
    fn admit_of_satisfied_member_changes_nothing() {
        let m = PartitionMap::uniform(extent(), 200.0, workers(4));
        let loads = vec![1u64; 64];
        let same = m.admit(NodeId(2), &loads);
        assert_eq!(same.workers(), m.workers());
        for cell in m.grid().all_cells() {
            assert_eq!(same.owner_of_cell(cell), m.owner_of_cell(cell));
        }
    }

    #[test]
    fn owner_is_total_and_consistent() {
        let m = PartitionMap::uniform(extent(), 200.0, workers(5));
        for cell in m.grid().all_cells() {
            let owner = m.owner_of_cell(cell);
            assert!(m.workers().contains(&owner));
            let center = m.grid().cell_bbox(cell).center();
            assert_eq!(m.owner_of(center), owner);
        }
        // Points outside the extent clamp to border cells.
        let o = m.owner_of(Point::new(-500.0, -500.0));
        assert_eq!(o, m.owner_of_cell(CellId::new(0, 0)));
    }

    #[test]
    fn shards_are_spatially_compact() {
        // Each worker's cells should form few connected clumps thanks to
        // the Z-order runs; verify the bounding box of each shard is much
        // smaller than the whole extent for a 16-worker split.
        let m = PartitionMap::uniform(extent(), 100.0, workers(16));
        for &w in m.workers() {
            let cells = m.cells_of(w);
            let bb = BBox::covering(cells.iter().map(|&c| m.grid().cell_center(c)));
            assert!(
                bb.area() <= extent().area() / 2.0,
                "shard of {w} too spread"
            );
        }
    }

    #[test]
    fn workers_for_region_exactly_covers_owners() {
        let m = PartitionMap::uniform(extent(), 200.0, workers(4));
        let region = BBox::new(Point::new(50.0, 50.0), Point::new(350.0, 350.0));
        let listed = m.workers_for_region(region);
        let mut expected: Vec<NodeId> = m
            .grid()
            .cells_overlapping(region)
            .map(|c| m.owner_of_cell(c))
            .collect();
        expected.sort();
        expected.dedup();
        let mut got = listed.clone();
        got.sort();
        assert_eq!(got, expected);
        // Full-extent query touches everyone.
        assert_eq!(m.workers_for_region(extent()).len(), 4);
    }

    #[test]
    fn load_aware_beats_uniform_under_hotspot() {
        // Load concentrated in one corner.
        let grid = GridSpec::covering(extent(), 200.0);
        let mut loads = vec![1u64; grid.cell_count() as usize];
        for cell in
            grid.cells_overlapping(BBox::new(Point::new(0.0, 0.0), Point::new(400.0, 400.0)))
        {
            let slot = cell.row as usize * grid.cols() as usize + cell.col as usize;
            loads[slot] = 500;
        }
        let uniform = PartitionMap::uniform(extent(), 200.0, workers(8));
        let aware = PartitionMap::load_aware(extent(), 200.0, workers(8), &loads);
        let iu = uniform.imbalance(&loads);
        let ia = aware.imbalance(&loads);
        assert!(ia < iu, "load-aware {ia} not better than uniform {iu}");
        assert!(ia < 2.0, "load-aware imbalance still {ia}");
    }

    #[test]
    fn load_aware_all_zero_falls_back_to_uniform() {
        let grid = GridSpec::covering(extent(), 200.0);
        let zeros = vec![0u64; grid.cell_count() as usize];
        let m = PartitionMap::load_aware(extent(), 200.0, workers(4), &zeros);
        let ones = vec![1u64; zeros.len()];
        let per_worker = m.worker_loads(&ones);
        for (_, count) in per_worker {
            assert_eq!(count, 16);
        }
    }

    #[test]
    fn every_worker_gets_at_least_one_cell() {
        // Extreme skew: all load in one cell must not starve workers.
        let grid = GridSpec::covering(extent(), 200.0);
        let mut loads = vec![0u64; grid.cell_count() as usize];
        loads[0] = 1_000_000;
        let m = PartitionMap::load_aware(extent(), 200.0, workers(8), &loads);
        for &w in m.workers() {
            assert!(!m.cells_of(w).is_empty(), "worker {w} owns nothing");
        }
    }

    #[test]
    fn successors_ring() {
        let m = PartitionMap::uniform(extent(), 400.0, workers(4));
        assert_eq!(m.successors(NodeId(1), 2), vec![NodeId(2), NodeId(3)]);
        assert_eq!(m.successors(NodeId(4), 2), vec![NodeId(1), NodeId(2)]);
        // r capped by cluster size.
        assert_eq!(m.successors(NodeId(1), 10).len(), 3);
        // Unknown worker.
        assert!(m.successors(NodeId(99), 1).is_empty());
    }

    #[test]
    fn reassign_moves_all_cells() {
        let mut m = PartitionMap::uniform(extent(), 400.0, workers(4));
        let before = m.cells_of(NodeId(2)).len();
        assert!(before > 0);
        let target_before = m.cells_of(NodeId(3)).len();
        m.reassign(NodeId(2), NodeId(3));
        assert!(m.cells_of(NodeId(2)).is_empty());
        assert_eq!(m.cells_of(NodeId(3)).len(), target_before + before);
    }

    #[test]
    fn routing_region_matches_owner_routing() {
        let m = PartitionMap::uniform(extent(), 200.0, workers(4));
        // Probe a lattice of positions, including cell edges and points
        // outside the extent: each position must fall in exactly the
        // routing region of the cell that owns it.
        let mut probes = Vec::new();
        for i in -2..=18 {
            for j in -2..=18 {
                probes.push(Point::new(i as f64 * 100.0, j as f64 * 100.0));
                probes.push(Point::new(i as f64 * 100.0 + 37.5, j as f64 * 100.0 + 62.5));
            }
        }
        for p in probes {
            let owning_cell = m.grid().cell_of_clamped(p);
            let mut containing = 0;
            for cell in m.grid().all_cells() {
                let packed = cell.row * m.grid().cols() + cell.col;
                if stcam_index::cell_scope(m.grid(), packed).contains(p) {
                    containing += 1;
                    assert_eq!(
                        cell, owning_cell,
                        "{p} routes to {owning_cell} but region of {cell} contains it"
                    );
                }
            }
            assert_eq!(
                containing, 1,
                "{p} contained by {containing} routing regions"
            );
        }
    }

    #[test]
    fn alive_successors_walk_past_dead_members() {
        use std::collections::HashSet;
        let m = PartitionMap::uniform(extent(), 400.0, workers(5));
        let all: HashSet<NodeId> = m.workers().iter().copied().collect();
        // Everyone alive: identical to the plain successor rule.
        assert_eq!(
            m.alive_successors(NodeId(1), 2, &all),
            vec![NodeId(2), NodeId(3)]
        );
        // A dead immediate successor is skipped, not counted.
        let mut alive = all.clone();
        alive.remove(&NodeId(2));
        assert_eq!(
            m.alive_successors(NodeId(1), 2, &alive),
            vec![NodeId(3), NodeId(4)]
        );
        // The walk wraps around the ring.
        assert_eq!(
            m.alive_successors(NodeId(4), 2, &alive),
            vec![NodeId(5), NodeId(1)]
        );
        // Fewer alive peers than r: return all of them.
        let two: HashSet<NodeId> = [NodeId(1), NodeId(4)].into_iter().collect();
        assert_eq!(m.alive_successors(NodeId(1), 3, &two), vec![NodeId(4)]);
        // Self is never a successor even when it is the only alive node.
        let me: HashSet<NodeId> = [NodeId(1)].into_iter().collect();
        assert!(m.alive_successors(NodeId(1), 2, &me).is_empty());
        // Unknown worker.
        assert!(m.alive_successors(NodeId(99), 2, &all).is_empty());
    }

    #[test]
    fn single_worker_owns_everything() {
        let m = PartitionMap::uniform(extent(), 400.0, workers(1));
        assert_eq!(m.cells_of(NodeId(1)).len(), m.grid().cell_count() as usize);
        assert!(m.successors(NodeId(1), 2).is_empty());
    }
}
