//! Anti-entropy primitives: per-cell digests and the control loop's
//! budget and report.
//!
//! Every worker answers [`Request::CellDigest`] with a sparse per-cell
//! summary — observation count plus an order-independent checksum — over
//! its primary shard and every replica log it holds ([`DigestReport`]),
//! so the control loop (`crate::reconcile`) compares copies without
//! moving data. The checksum is an XOR fold of a 64-bit mix over each
//! observation's id and timestamp, so it is order-independent (replica
//! logs are append logs, the primary index is slice-ordered) and equal
//! counts + equal checksums certify equal cell contents up to the
//! collision probability of the mix.
//!
//! [`Request::CellDigest`]: crate::Request::CellDigest
//! [`DigestReport`]: crate::DigestReport

use std::collections::BTreeMap;

use stcam_camnet::Observation;
use stcam_geo::GridSpec;
use stcam_index::observation_checksum;

/// Streaming builder of sparse per-cell digests: observations are folded
/// one at a time (bucketed by `grid` with clamping — the same assignment
/// ingest routing uses), so a digest sweep never materialises the shard.
#[derive(Debug)]
pub(crate) struct DigestAccumulator {
    grid: GridSpec,
    cells: BTreeMap<u32, (u32, u64)>,
}

impl DigestAccumulator {
    pub(crate) fn new(grid: &GridSpec) -> Self {
        DigestAccumulator {
            grid: *grid,
            cells: BTreeMap::new(),
        }
    }

    /// Folds one observation into its cell's digest.
    pub(crate) fn add(&mut self, o: &Observation) {
        let cell = self.grid.cell_of_clamped(o.position);
        let packed = cell.row * self.grid.cols() + cell.col;
        let entry = self.cells.entry(packed).or_insert((0, 0));
        entry.0 += 1;
        entry.1 ^= observation_checksum(o);
    }

    /// The accumulated `(packed cell, count, checksum)` triples, sorted
    /// by cell.
    pub(crate) fn finish(self) -> Vec<(u32, u32, u64)> {
        self.cells
            .into_iter()
            .map(|(cell, (count, checksum))| (cell, count, checksum))
            .collect()
    }
}

/// Rounds one control-loop run takes at most; re-invoke to continue.
pub(crate) const MAX_ROUNDS: usize = 32;

/// Rows a round streams into replica logs unless it cuts over (then a
/// whole target map, at once), so repair never starves foreground
/// queries; the next round re-plans the rest from fresh digests.
pub(crate) const ROUND_STREAM: usize = 8_192;

/// Head rows per [`Request::InstallSegments`] — the streaming unit, sized
/// to the columnar codec's sweet spot. Sealed frames are not cut: they
/// ride whole with a stream's first message.
///
/// [`Request::InstallSegments`]: crate::Request::InstallSegments
pub(crate) const STREAM_CHUNK: usize = 512;

/// The outcome of one control-loop run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Observe → diff → act rounds executed.
    pub rounds: usize,
    /// Actions on single cells that succeeded: replica copies streamed or
    /// truncated, and ceded primary copies drained.
    pub cells_repaired: usize,
    /// Observations streamed into replica logs or drained between
    /// primary shards.
    pub observations_streamed: usize,
    /// Under-replicated cells seen by the first digest sweep.
    pub under_replicated_before: usize,
    /// Under-replicated cells remaining after the last sweep (0 iff the
    /// run converged within its budget).
    pub under_replicated_after: usize,
    /// Whether the final digest sweep found nothing left to do. `false`
    /// means the round budget ran out first; re-invoke to continue.
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_obs as obs;
    use stcam_geo::{BBox, Point, Timestamp};

    fn extent() -> BBox {
        BBox::new(Point::new(0.0, 0.0), Point::new(800.0, 800.0))
    }

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let a = obs(1, 100, 10.0, 10.0);
        let b = obs(2, 200, 20.0, 20.0);
        let fold_ab = observation_checksum(&a) ^ observation_checksum(&b);
        let fold_ba = observation_checksum(&b) ^ observation_checksum(&a);
        assert_eq!(fold_ab, fold_ba);
        // A changed timestamp diverges the checksum even with equal ids.
        let mut late = a.clone();
        late.time = Timestamp::from_millis(999);
        assert_ne!(observation_checksum(&a), observation_checksum(&late));
    }

    #[test]
    fn digest_buckets_with_clamping() {
        let grid = GridSpec::covering(extent(), 400.0); // 2x2
        let inside = obs(1, 0, 100.0, 100.0); // cell 0
        let outside = obs(2, 0, -500.0, -500.0); // clamps to cell 0
        let far = obs(3, 0, 700.0, 700.0); // cell 3
        let mut acc = DigestAccumulator::new(&grid);
        [&inside, &outside, &far]
            .into_iter()
            .for_each(|o| acc.add(o));
        let digests = acc.finish();
        assert_eq!(digests.len(), 2);
        assert_eq!((digests[0].0, digests[0].1), (0, 2));
        assert_eq!((digests[1].0, digests[1].1), (3, 1));
        assert_eq!(
            digests[0].2,
            observation_checksum(&inside) ^ observation_checksum(&outside)
        );
    }
}
