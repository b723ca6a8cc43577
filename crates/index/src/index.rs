//! The tiered time-sliced grid index: mutable head + sealed archive.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use stcam_camnet::Observation;
use stcam_codec::SegmentFrame;
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};

use crate::segment::{ScanScratch, SealedSegment, SegmentDigest};
use crate::select::{Hits, Predicate};
use crate::slice::{slice_number, Slice};
use crate::store::SegmentStore;
use crate::view::{self, ReadView};

/// Configuration of a [`StIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Region this index is responsible for. Observations slightly outside
    /// (localisation noise at shard borders) are clamped into the border
    /// cells.
    pub extent: BBox,
    /// Spatial cell size, metres.
    pub cell_size: f64,
    /// Temporal slice length.
    pub slice_len: Duration,
    /// Number of most-recent slice numbers kept in the mutable head;
    /// older slices are sealed into immutable columnar segments when the
    /// maximum slice number advances. `usize::MAX` disables sealing
    /// entirely (the pre-tiered all-mutable behaviour); values below 1
    /// behave as 1 — the open slice is always mutable.
    pub head_slices: usize,
    /// When set, sealed segment payloads are spilled under this
    /// directory, one file per sealed slice (a compacted group reads its
    /// slices' files), leaving only the footer directory resident.
    pub spill_dir: Option<PathBuf>,
}

/// Default number of recent slices kept mutable.
pub const DEFAULT_HEAD_SLICES: usize = 2;

impl IndexConfig {
    /// Creates a config with the default head depth.
    ///
    /// # Panics
    ///
    /// Panics when `extent` is empty, `cell_size <= 0`, or `slice_len` is
    /// zero.
    pub fn new(extent: BBox, cell_size: f64, slice_len: Duration) -> Self {
        assert!(!extent.is_empty(), "extent must be non-empty");
        assert!(cell_size > 0.0, "cell_size must be positive");
        assert!(slice_len > Duration::ZERO, "slice_len must be positive");
        IndexConfig {
            extent,
            cell_size,
            slice_len,
            head_slices: DEFAULT_HEAD_SLICES,
            spill_dir: None,
        }
    }

    /// Replaces the head depth (`usize::MAX` disables sealing).
    pub fn with_head_slices(mut self, head_slices: usize) -> Self {
        self.head_slices = head_slices;
        self
    }

    /// Disables sealing: every slice stays mutable (the pre-tiered
    /// behaviour, kept for ablation benchmarks and oracle tests).
    pub fn without_sealing(mut self) -> Self {
        self.head_slices = usize::MAX;
        self
    }

    /// Spills sealed segment payloads to files under `dir`.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// Point-in-time statistics of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Stored observations.
    pub observations: usize,
    /// Live time slices (distinct slice numbers across both tiers).
    pub slices: usize,
    /// Start of the oldest retained slice, if any.
    pub oldest: Option<Timestamp>,
    /// End of the newest retained slice, if any.
    pub newest: Option<Timestamp>,
    /// Approximate heap bytes held in RAM: mutable-head rows and bucket
    /// tables plus resident sealed payloads and footers.
    pub resident_bytes: usize,
    /// Sealed immutable segments in the archive tier.
    pub sealed_segments: usize,
    /// Sealed payload bytes spilled to disk (excluded from
    /// `resident_bytes`).
    pub spilled_bytes: usize,
}

/// The tiered time-sliced grid index over observations (see the
/// [crate docs](crate) for the design rationale).
///
/// Two tiers, one facade: recent slices live in the **mutable head**
/// (dense per-cell buckets, cheap inserts), older slices are **sealed**
/// into immutable columnar segments (compressed, cell-addressable,
/// optionally spilled to disk). Every query merges both tiers and
/// answers exactly as the all-mutable index would — property-tested
/// against the flat-scan oracle with sealing forced on and off.
#[derive(Debug)]
pub struct StIndex {
    config: IndexConfig,
    grid: GridSpec,
    /// Copy-on-write head: slices are shared with outstanding
    /// [`ReadView`]s, and a mutation clones the touched slice first.
    head: BTreeMap<u64, Arc<Slice>>,
    sealed: SegmentStore,
    /// Largest slice number ever inserted; sealing advances with it.
    max_number: Option<u64>,
    len: usize,
}

impl StIndex {
    /// Creates an empty index.
    pub fn new(config: IndexConfig) -> Self {
        let grid = GridSpec::covering(config.extent, config.cell_size);
        let sealed = SegmentStore::new(config.spill_dir.clone());
        StIndex {
            config,
            grid,
            head: BTreeMap::new(),
            sealed,
            max_number: None,
            len: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The spatial grid used for bucketing.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct slice numbers across both tiers.
    fn slice_count(&self) -> usize {
        let mut numbers: BTreeSet<u64> = self.head.keys().copied().collect();
        numbers.extend(self.sealed.numbers());
        numbers.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> IndexStats {
        let head_rows = self.len - self.sealed.len();
        let head_bytes = head_rows * std::mem::size_of::<Observation>()
            + self.head.len()
                * self.grid.cell_count() as usize
                * std::mem::size_of::<Vec<Observation>>();
        let slice_ms = self.config.slice_len.as_millis();
        let first = [self.head.keys().next().copied(), self.sealed.first_number()]
            .into_iter()
            .flatten()
            .min();
        let last = [
            self.head.keys().next_back().copied(),
            self.sealed.last_number(),
        ]
        .into_iter()
        .flatten()
        .max();
        IndexStats {
            observations: self.len,
            slices: self.slice_count(),
            oldest: first.map(|n| Timestamp::from_millis(n * slice_ms)),
            newest: last.map(|n| Timestamp::from_millis((n + 1) * slice_ms)),
            resident_bytes: head_bytes + self.sealed.resident_bytes(),
            sealed_segments: self.sealed.segment_count(),
            spilled_bytes: self.sealed.spilled_bytes(),
        }
    }

    /// Inserts one observation. Out-of-order arrival within the retained
    /// horizon is supported (the slice is located by timestamp, not by
    /// arrival order); a late insert into an already-sealed slice number
    /// lands in a mutable head overlay that is merged back into the
    /// archive at the next sealing event.
    pub fn insert(&mut self, obs: Observation) {
        let number = slice_number(obs.time, self.config.slice_len);
        let cell = self.grid.cell_of_clamped(obs.position);
        let slice = self
            .head
            .entry(number)
            .or_insert_with(|| Arc::new(Slice::new(number, self.config.slice_len, &self.grid)));
        Arc::make_mut(slice).insert(&self.grid, cell, obs);
        self.len += 1;
        if self.max_number.is_none_or(|m| number > m) {
            self.max_number = Some(number);
            self.seal_closed();
        }
    }

    /// Bulk insertion.
    pub fn insert_batch<I: IntoIterator<Item = Observation>>(&mut self, batch: I) {
        for obs in batch {
            self.insert(obs);
        }
    }

    /// The last slice behind the head — the newest the seal events seal
    /// — or `None` while sealing is off or no slice is that old.
    fn sealed_through(&self) -> Option<u64> {
        let depth = self.config.head_slices;
        if depth == usize::MAX {
            return None;
        }
        self.max_number?.checked_sub(depth.max(1) as u64)
    }

    /// Seals every head slice older than the configured head depth, then
    /// re-forms the archive: every slice group wholly behind the head
    /// becomes one segment, and a late-arrival overlay of an
    /// already-sealed slice merges into it, rows sealed earlier first.
    /// Called when the maximum slice number advances (a slice-close
    /// event), so sealing cost amortises to once per slice and
    /// compaction's byte copy to once per row.
    fn seal_closed(&mut self) {
        let Some(boundary) = self.sealed_through() else {
            return;
        };
        let stale: Vec<u64> = self.head.range(..=boundary).map(|(&n, _)| n).collect();
        for number in stale {
            self.seal_number(number);
        }
        self.sealed.reform(Some(boundary));
    }

    /// Freezes one head slice into the archive as a one-slice segment.
    fn seal_number(&mut self, number: u64) {
        let Some(slice) = self.head.remove(&number) else {
            return;
        };
        // A read view may still share this slice; leave its copy intact.
        let slice = Arc::try_unwrap(slice).unwrap_or_else(|shared| (*shared).clone());
        let window = slice.window();
        if let Some(segment) = SealedSegment::seal(number, window, &slice.into_buckets()) {
            self.sealed.add(segment);
        }
    }

    /// Forces every head slice — the open one included — into the
    /// archive. Benchmarks and tests use this to pin the index into its
    /// fully-sealed state; production sealing is driven by
    /// [`insert`](Self::insert). Groups compact as at a seal event: only
    /// those wholly behind the head.
    pub fn seal_all(&mut self) {
        let numbers: Vec<u64> = self.head.keys().copied().collect();
        for number in numbers {
            self.seal_number(number);
        }
        self.sealed.reform(self.sealed_through());
    }

    /// The inclusive slice-number range `window` can touch, or `None`
    /// for an empty window.
    fn number_range(&self, window: TimeInterval) -> Option<(u64, u64)> {
        view::number_range(window, self.config.slice_len)
    }

    /// The window-relevant tier contents, borrowed.
    fn tiers(&self, lo: u64, hi: u64) -> (Vec<&Slice>, Vec<&SealedSegment>) {
        let slices = self.head.range(lo..=hi).map(|(_, s)| &**s).collect();
        let segments = self.sealed.overlapping(lo, hi).collect();
        (slices, segments)
    }

    /// All observations with `region.contains(position)` and
    /// `window.contains(time)`, sorted by id.
    pub fn range(&self, region: BBox, window: TimeInterval) -> Vec<Observation> {
        let Some((lo, hi)) = self.number_range(window) else {
            return Vec::new();
        };
        let (slices, segments) = self.tiers(lo, hi);
        let predicate = Predicate::new(region);
        view::range_over(&self.grid, &slices, &segments, &predicate, window, None)
    }

    /// Count of matches without materialising them: head slices count in
    /// place, sealed segments answer wholly-covered cells straight from
    /// their footer directory and decode only partially-covered blocks.
    pub fn range_count(&self, region: BBox, window: TimeInterval) -> usize {
        let Some((lo, hi)) = self.number_range(window) else {
            return 0;
        };
        let mut total = 0;
        for (_, slice) in self.head.range(lo..=hi) {
            total += slice.count_cells(
                &self.grid,
                self.grid.cells_clamped(region),
                &region,
                &window,
            );
        }
        let cells = view::packed_cells(&self.grid, &region);
        let mut scratch = ScanScratch::default();
        for segment in self.sealed.overlapping(lo, hi) {
            total += segment.count_cells(&self.grid, &cells, &region, &window, &mut scratch);
        }
        total
    }

    /// The `k` observations within `window` nearest to `at`, ordered by
    /// (distance, id).
    ///
    /// Expands square cell rings outward from the query point, reading
    /// each ring's cells nearest first. Once `k` rows are held, the k-th
    /// best distance bounds the search: a cell whose clamped scope lies
    /// strictly farther is skipped in both tiers, the bound tightens after
    /// every head slice and sealed block, and expansion ends at the first
    /// ring with no cell inside the bound.
    pub fn knn(&self, at: Point, window: TimeInterval, k: usize) -> Vec<Observation> {
        let Some((lo, hi)) = self.number_range(window) else {
            return Vec::new();
        };
        let (slices, segments) = self.tiers(lo, hi);
        view::knn_over(&self.grid, &slices, &segments, at, window, k, None)
    }

    /// Observation counts per cell of `buckets` for matches in `window`,
    /// as a dense row-major vector. `buckets` need not match the index's
    /// own grid. Slices and segments wholly inside the window skip the
    /// per-row time check.
    pub fn heatmap(&self, buckets: &GridSpec, window: TimeInterval) -> Vec<u64> {
        let Some((lo, hi)) = self.number_range(window) else {
            return vec![0u64; buckets.cell_count() as usize];
        };
        let (slices, segments) = self.tiers(lo, hi);
        view::heatmap_over(&self.grid, &slices, &segments, buckets, window)
    }

    /// A frozen snapshot of both tiers for concurrent read service.
    ///
    /// Costs `O(slices + segments)` `Arc` clones; no observation is
    /// copied. Later mutations of this index never change what the view
    /// answers (head slices are copy-on-write, sealed segments are
    /// replaced rather than modified).
    pub fn read_view(&self) -> ReadView {
        ReadView {
            grid: self.grid,
            slice_len: self.config.slice_len,
            head: self.head.iter().map(|(&n, s)| (n, Arc::clone(s))).collect(),
            sealed: self.sealed.arcs(),
            len: self.len,
        }
    }

    /// Drops every slice that ends at or before `cutoff`, in both tiers.
    /// Retention is slice-granular: observations newer than `cutoff` in a
    /// retained slice are kept, and a slice containing both sides of the
    /// cutoff is kept whole. A compacted group the cutoff falls inside
    /// loses its evicted slices by byte filter.
    pub fn evict_before(&mut self, cutoff: Timestamp) {
        let stale: Vec<u64> = self
            .head
            .iter()
            .filter(|(_, s)| s.window().end() <= cutoff)
            .map(|(&n, _)| n)
            .collect();
        for number in stale {
            let slice = self.head.remove(&number).expect("present");
            self.len -= slice.len();
        }
        self.len -= self.sealed.evict_before(cutoff);
    }

    /// Removes and returns every observation whose position lies inside
    /// `region` (all retained time). Used for shard migration during
    /// online rebalancing: the old owner extracts the moving cells'
    /// contents and ships them to the new owner. Sealed segments the
    /// region touches are rewritten at cell granularity — blocks wholly
    /// inside or outside the region are byte-copied, only straddling
    /// blocks are re-encoded.
    ///
    /// An observation clamped into a border cell from outside the extent
    /// is extracted when its *true position* is inside `region`, matching
    /// [`range`](Self::range) semantics.
    pub fn extract_range(&mut self, region: BBox) -> Vec<Observation> {
        let mut out = Vec::new();
        for slice in self.head.values_mut() {
            Arc::make_mut(slice).extract_cells(
                &self.grid,
                self.grid.cells_clamped(region),
                &region,
                &mut out,
            );
        }
        self.sealed.extract_region(&self.grid, &region, &mut out);
        self.len -= out.len();
        view::sort_by_id(&mut out);
        out
    }

    /// Visits every stored observation (head first, then archive;
    /// unspecified order within) without materialising the shard, as
    /// digest sweeps need.
    pub fn for_each(&self, mut f: impl FnMut(&Observation)) {
        for slice in self.head.values() {
            for obs in slice.iter() {
                f(obs);
            }
        }
        let mut scratch = ScanScratch::default();
        for segment in self.sealed.iter() {
            segment.for_each_with(&mut scratch, &mut f);
        }
    }

    /// Digests of every sealed segment, ascending: how tests compare the
    /// archives of two copies.
    pub fn segment_digests(&self) -> Vec<SegmentDigest> {
        self.sealed.digests()
    }

    /// Exports the shard content inside `region` in segment-granular form:
    /// one frame per sealed segment intersecting the region (byte-copied
    /// whole when the region covers it, split at cell boundaries
    /// otherwise), plus the mutable-head rows as plain observations.
    pub fn export_segments(&self, region: BBox) -> (Vec<SegmentFrame>, Vec<Observation>) {
        let frames = self
            .sealed
            .iter()
            .filter_map(|segment| segment.split_region(&self.grid, &region))
            .map(|sub| sub.to_frame())
            .collect();
        let mut head_rows = Hits::new(None, 0);
        for slice in self.head.values() {
            slice.scan_cells(
                &self.grid,
                self.grid.cells_clamped(region),
                &Predicate::new(region),
                &TimeInterval::ALL,
                &mut head_rows,
            );
        }
        (frames, head_rows.into_sorted())
    }

    /// Installs a sealed segment received from a peer, slice by slice.
    /// A slice archived with the same digest — as a segment of its own or
    /// inside a compacted group — is not stored again, and archived
    /// segments whose every slice the installed one holds with the same
    /// digest give way to it, so a copy ends holding the segments its
    /// sender holds and retried transfers are idempotent. Returns `false`
    /// (and stores nothing) when every slice it holds is archived. The
    /// archive then re-forms as at a seal event.
    ///
    /// The caller is responsible for row-level dedup against its mutable
    /// head (the worker's ingest `seen` filter); segment installs are
    /// only deduplicated against other segments, by digest.
    pub fn install_segment(&mut self, segment: SealedSegment) -> bool {
        let before = self.sealed.len();
        if !self.sealed.install(segment) {
            return false;
        }
        self.len = self.len - before + self.sealed.len();
        self.sealed.reform(self.sealed_through());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_world::{EntityClass, EntityId};

    fn obs(seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    fn config() -> IndexConfig {
        IndexConfig::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            50.0,
            Duration::from_secs(10),
        )
    }

    fn window(a_ms: u64, b_ms: u64) -> TimeInterval {
        TimeInterval::new(Timestamp::from_millis(a_ms), Timestamp::from_millis(b_ms))
    }

    fn random_workload(n: usize, seed: u64) -> Vec<Observation> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                obs(
                    i,
                    rng.gen_range(0..120_000),
                    rng.gen_range(0.0..1000.0),
                    rng.gen_range(0.0..1000.0),
                )
            })
            .collect()
    }

    fn ids(v: &[Observation]) -> Vec<ObservationId> {
        v.iter().map(|o| o.id).collect()
    }

    fn ref_ids(v: &[&Observation]) -> Vec<ObservationId> {
        v.iter().map(|o| o.id).collect()
    }

    #[test]
    fn range_matches_oracle_on_random_workload() {
        let workload = random_workload(2000, 1);
        let mut index = StIndex::new(config());
        let mut oracle = FlatIndex::new();
        for o in &workload {
            index.insert(o.clone());
            oracle.insert(o.clone());
        }
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let x = rng.gen_range(-100.0..1100.0);
            let y = rng.gen_range(-100.0..1100.0);
            let w = rng.gen_range(0.0..500.0);
            let t0 = rng.gen_range(0..100_000u64);
            let dt = rng.gen_range(0..60_000u64);
            let region = BBox::new(Point::new(x, y), Point::new(x + w, y + w));
            let tw = window(t0, t0 + dt);
            assert_eq!(
                ids(&index.range(region, tw)),
                ref_ids(&oracle.range(region, tw)),
                "range mismatch for {region} {tw}"
            );
        }
    }

    #[test]
    fn knn_matches_oracle_on_random_workload() {
        let workload = random_workload(1500, 3);
        let mut index = StIndex::new(config());
        let mut oracle = FlatIndex::new();
        for o in &workload {
            index.insert(o.clone());
            oracle.insert(o.clone());
        }
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let at = Point::new(rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0));
            let k = rng.gen_range(1..40usize);
            let t0 = rng.gen_range(0..100_000u64);
            let tw = window(t0, t0 + rng.gen_range(1_000..60_000u64));
            assert_eq!(
                ids(&index.knn(at, tw, k)),
                ref_ids(&oracle.knn(at, tw, k)),
                "knn mismatch at {at} k={k} {tw}"
            );
        }
    }

    #[test]
    fn heatmap_matches_oracle() {
        let workload = random_workload(1000, 5);
        let mut index = StIndex::new(config());
        let mut oracle = FlatIndex::new();
        for o in &workload {
            index.insert(o.clone());
            oracle.insert(o.clone());
        }
        let buckets = GridSpec::new(Point::new(0.0, 0.0), 125.0, 8, 8);
        let tw = window(10_000, 70_000);
        assert_eq!(index.heatmap(&buckets, tw), oracle.heatmap(&buckets, tw));
    }

    #[test]
    fn sealed_and_unsealed_answers_are_identical() {
        let workload = random_workload(1500, 7);
        let mut sealed = StIndex::new(config().with_head_slices(1));
        let mut unsealed = StIndex::new(config().without_sealing());
        for o in &workload {
            sealed.insert(o.clone());
            unsealed.insert(o.clone());
        }
        sealed.seal_all();
        assert!(sealed.stats().sealed_segments > 0, "sealing must engage");
        assert_eq!(unsealed.stats().sealed_segments, 0);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..40 {
            let x = rng.gen_range(-100.0..1100.0);
            let y = rng.gen_range(-100.0..1100.0);
            let w = rng.gen_range(0.0..600.0);
            let t0 = rng.gen_range(0..100_000u64);
            let tw = window(t0, t0 + rng.gen_range(0..60_000u64));
            let region = BBox::new(Point::new(x, y), Point::new(x + w, y + w));
            assert_eq!(
                sealed.range(region, tw),
                unsealed.range(region, tw),
                "range diverged for {region} {tw}"
            );
            assert_eq!(
                sealed.range_count(region, tw),
                unsealed.range_count(region, tw)
            );
            let at = Point::new(x, y);
            assert_eq!(ids(&sealed.knn(at, tw, 12)), ids(&unsealed.knn(at, tw, 12)));
        }
        let buckets = GridSpec::new(Point::new(0.0, 0.0), 125.0, 8, 8);
        assert_eq!(
            sealed.heatmap(&buckets, window(5_000, 90_000)),
            unsealed.heatmap(&buckets, window(5_000, 90_000))
        );
    }

    #[test]
    fn sealing_spills_to_disk_when_configured() {
        let dir = std::env::temp_dir().join(format!("stseg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let workload = random_workload(800, 11);
        let mut index = StIndex::new(config().with_head_slices(1).with_spill_dir(&dir));
        let mut oracle = FlatIndex::new();
        for o in &workload {
            index.insert(o.clone());
            oracle.insert(o.clone());
        }
        index.seal_all();
        let stats = index.stats();
        assert!(stats.spilled_bytes > 0, "payloads must be on disk");
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        // Queries still answer exactly from spilled segments.
        let region = BBox::new(Point::new(100.0, 100.0), Point::new(700.0, 700.0));
        let tw = window(5_000, 90_000);
        assert_eq!(
            ids(&index.range(region, tw)),
            ref_ids(&oracle.range(region, tw))
        );
        assert_eq!(
            index.range_count(region, tw),
            oracle.range(region, tw).len()
        );
        // Dropping the index removes its spill files.
        drop(index);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn indexes_sharing_a_spill_dir_keep_their_own_files() {
        let dir = std::env::temp_dir().join(format!("stseg-two-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Two indexes over the same slices, each with its own rows.
        let mut pairs: Vec<(StIndex, FlatIndex)> = [23, 29]
            .into_iter()
            .map(|seed| {
                let workload = random_workload(800, seed);
                let mut index = StIndex::new(config().with_head_slices(1).with_spill_dir(&dir));
                index.insert_batch(workload.iter().cloned());
                index.seal_all();
                (index, workload.into_iter().collect())
            })
            .collect();
        let on_disk = || -> u64 {
            let files = std::fs::read_dir(&dir).unwrap();
            files.map(|f| f.unwrap().metadata().unwrap().len()).sum()
        };
        let spilled: usize = pairs.iter().map(|(i, _)| i.stats().spilled_bytes).sum();
        assert_eq!(on_disk(), spilled as u64, "no file was truncated");
        let region = BBox::new(Point::new(100.0, 100.0), Point::new(700.0, 700.0));
        let tw = window(5_000, 90_000);
        let buckets = GridSpec::new(Point::new(0.0, 0.0), 125.0, 8, 8);
        let at = Point::new(400.0, 500.0);
        let answers_as_its_oracle = |(index, oracle): &(StIndex, FlatIndex)| {
            assert_eq!(
                ids(&index.range(region, tw)),
                ref_ids(&oracle.range(region, tw))
            );
            assert_eq!(ids(&index.knn(at, tw, 9)), ref_ids(&oracle.knn(at, tw, 9)));
            assert_eq!(index.heatmap(&buckets, tw), oracle.heatmap(&buckets, tw));
        };
        pairs.iter().for_each(answers_as_its_oracle);
        // Dropping one index removes its files only.
        drop(pairs.pop());
        answers_as_its_oracle(&pairs[0]);
        assert_eq!(on_disk(), pairs[0].0.stats().spilled_bytes as u64);
        drop(pairs);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn compaction_and_retention_share_their_slices_spill_files() {
        let dir = std::env::temp_dir().join(format!("stseg-share-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut workload = random_workload(800, 17);
        workload.sort_by_key(|o| o.time);
        let mut index = StIndex::new(config().with_head_slices(1).with_spill_dir(&dir));
        index.insert_batch(workload.iter().cloned());
        index.seal_all();
        let on_disk = || -> (usize, u64) {
            let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            let bytes = files
                .iter()
                .map(|f| f.as_ref().unwrap().metadata().unwrap().len())
                .sum();
            (files.len(), bytes)
        };
        // Slices 0-7 compacted into one segment, 8-11 apart; every row
        // was written once, in its slice's file.
        let stats = index.stats();
        assert_eq!(stats.sealed_segments, 5);
        assert_eq!(on_disk(), (12, stats.spilled_bytes as u64));
        // Retention inside the group drops the evicted slices' files only.
        index.evict_before(Timestamp::from_millis(30_000));
        let stats = index.stats();
        assert_eq!(stats.sealed_segments, 5);
        assert_eq!(on_disk(), (9, stats.spilled_bytes as u64));
        let kept: Vec<&Observation> = workload
            .iter()
            .filter(|o| o.time >= Timestamp::from_millis(30_000))
            .collect();
        let all = BBox::new(Point::new(-1.0, -1.0), Point::new(1001.0, 1001.0));
        assert_eq!(ids(&index.range(all, TimeInterval::ALL)), {
            let mut ids = ref_ids(&kept);
            ids.sort();
            ids
        });
        drop(index);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn resident_bytes_flatten_once_sealed() {
        let workload = random_workload(4000, 13);
        let mut mutable = StIndex::new(config().without_sealing());
        let mut tiered = StIndex::new(config().with_head_slices(1));
        for o in &workload {
            mutable.insert(o.clone());
            tiered.insert(o.clone());
        }
        tiered.seal_all();
        let m = mutable.stats();
        let t = tiered.stats();
        assert!(t.resident_bytes > 0);
        assert!(
            t.resident_bytes < m.resident_bytes,
            "sealed columnar form must be smaller: sealed {} vs mutable {}",
            t.resident_bytes,
            m.resident_bytes
        );
    }

    #[test]
    fn late_insert_into_sealed_number_is_merged_on_next_seal() {
        let mut index = StIndex::new(config().with_head_slices(1));
        index.insert(obs(0, 5_000, 100.0, 100.0)); // slice 0
        index.insert(obs(1, 15_000, 100.0, 100.0)); // slice 1 → seals 0
        assert!(index.stats().sealed_segments >= 1);
        // Late arrival for the sealed slice 0 lands in a head overlay.
        index.insert(obs(2, 6_000, 200.0, 200.0));
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
        assert_eq!(index.range(region, window(0, 10_000)).len(), 2);
        // The next slice-close event merges the overlay back.
        index.insert(obs(3, 25_000, 100.0, 100.0));
        assert_eq!(index.range(region, window(0, 10_000)).len(), 2);
        assert_eq!(index.len(), 4);
        let digests = index.segment_digests();
        assert_eq!(
            digests.iter().filter(|d| d.number == 0).count(),
            1,
            "overlay must re-seal into a single segment"
        );
        assert_eq!(digests.iter().find(|d| d.number == 0).unwrap().count, 2);
    }

    #[test]
    fn export_install_round_trips_whole_segments() {
        let workload = random_workload(600, 17);
        let mut source = StIndex::new(config().with_head_slices(1));
        for o in &workload {
            source.insert(o.clone());
        }
        source.seal_all();
        let everything = BBox::new(Point::new(-1e12, -1e12), Point::new(1e12, 1e12));
        let (frames, head) = source.export_segments(everything);
        assert!(head.is_empty(), "everything is sealed");
        assert_eq!(frames.len(), source.stats().sealed_segments);
        // A region covering every cell exports byte-identical segments.
        let mut digests: Vec<SegmentDigest> = frames
            .iter()
            .map(|f| SegmentDigest {
                number: f.number,
                count: f.count,
                checksum: f.checksum,
            })
            .collect();
        digests.sort();
        assert_eq!(digests, source.segment_digests());
        // Install into a fresh index and compare answers.
        let mut target = StIndex::new(config());
        for frame in frames {
            let segment = SealedSegment::from_frame(frame).expect("frame verifies");
            assert!(target.install_segment(segment));
        }
        assert_eq!(target.len(), source.len());
        let region = BBox::new(Point::new(100.0, 0.0), Point::new(900.0, 800.0));
        let tw = window(3_000, 80_000);
        assert_eq!(source.range(region, tw), target.range(region, tw));
    }

    #[test]
    fn export_splits_segments_at_cell_boundaries() {
        let mut source = StIndex::new(config().with_head_slices(1));
        for i in 0..200u64 {
            source.insert(obs(i, 1_000 + i, (i as f64 * 7.3) % 1000.0, 500.0));
        }
        source.seal_all();
        let left = BBox::new(Point::new(-1e12, -1e12), Point::new(500.0, 1e12));
        let (frames, _) = source.export_segments(left);
        let exported: usize = frames.iter().map(|f| f.count as usize).sum();
        let expected = source.range_count(left, TimeInterval::ALL);
        assert_eq!(exported, expected);
        // Deterministic: a second export yields identical digests.
        let (again, _) = source.export_segments(left);
        let d1: Vec<_> = frames.iter().map(|f| f.checksum).collect();
        let d2: Vec<_> = again.iter().map(|f| f.checksum).collect();
        assert_eq!(d1, d2);
    }

    #[test]
    fn knn_exact_corner_cases() {
        let mut index = StIndex::new(config());
        assert!(index
            .knn(Point::new(500.0, 500.0), window(0, 1000), 5)
            .is_empty());
        index.insert(obs(0, 500, 100.0, 100.0));
        index.insert(obs(1, 500, 110.0, 100.0));
        // k = 0 yields nothing.
        assert!(index
            .knn(Point::new(100.0, 100.0), window(0, 1000), 0)
            .is_empty());
        // k exceeding population returns all, nearest first.
        let got = index.knn(Point::new(100.0, 100.0), window(0, 1000), 10);
        assert_eq!(ids(&got).len(), 2);
        assert_eq!(got[0].id.seq(), 0);
        // Query point far outside the extent still works.
        let got = index.knn(Point::new(-5000.0, -5000.0), window(0, 1000), 1);
        assert_eq!(got[0].id.seq(), 0);
    }

    #[test]
    fn knn_ring_bound_does_not_miss_diagonal_neighbors() {
        // An observation diagonally adjacent but in a farther ring must
        // not be missed when a same-ring candidate exists.
        let mut index = StIndex::new(config());
        index.insert(obs(0, 0, 74.9, 25.0)); // next cell east, near edge
        index.insert(obs(1, 0, 26.0, 26.0)); // same cell as query
        let got = index.knn(Point::new(74.0, 25.0), window(0, 1000), 1);
        assert_eq!(got[0].id.seq(), 0);
    }

    #[test]
    fn out_of_order_insertion() {
        let mut index = StIndex::new(config());
        index.insert(obs(0, 50_000, 10.0, 10.0));
        index.insert(obs(1, 1_000, 10.0, 10.0)); // older than previous
        index.insert(obs(2, 25_000, 10.0, 10.0));
        let all = index.range(
            BBox::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0)),
            window(0, 60_000),
        );
        assert_eq!(all.len(), 3);
        assert_eq!(index.stats().slices, 3);
    }

    #[test]
    fn eviction_is_slice_granular() {
        let mut index = StIndex::new(config());
        index.insert(obs(0, 5_000, 10.0, 10.0)); // slice 0
        index.insert(obs(1, 15_000, 10.0, 10.0)); // slice 1
        index.insert(obs(2, 25_000, 10.0, 10.0)); // slice 2
        index.evict_before(Timestamp::from_secs(10));
        assert_eq!(index.len(), 2);
        // Cutoff inside slice 1 keeps the whole slice.
        index.evict_before(Timestamp::from_millis(16_000));
        assert_eq!(index.len(), 2);
        index.evict_before(Timestamp::from_secs(20));
        assert_eq!(index.len(), 1);
        index.evict_before(Timestamp::from_secs(1_000));
        assert!(index.is_empty());
        assert_eq!(index.stats().slices, 0);
    }

    #[test]
    fn eviction_crosses_both_tiers() {
        let mut index = StIndex::new(config().with_head_slices(1));
        for i in 0..6u64 {
            index.insert(obs(i, i * 10_000 + 500, 10.0, 10.0));
        }
        assert!(index.stats().sealed_segments >= 4);
        index.evict_before(Timestamp::from_secs(40));
        assert_eq!(index.len(), 2);
        index.evict_before(Timestamp::from_secs(1_000));
        assert!(index.is_empty());
        assert_eq!(index.stats().sealed_segments, 0);
    }

    #[test]
    fn positions_outside_extent_are_clamped_and_findable() {
        let mut index = StIndex::new(config());
        // Noise pushed this observation slightly out of the shard extent.
        index.insert(obs(0, 500, -3.0, 500.0));
        let hits = index.range(
            BBox::new(Point::new(-10.0, 450.0), Point::new(50.0, 550.0)),
            window(0, 1_000),
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn window_on_slice_boundary_excludes_next_slice() {
        let mut index = StIndex::new(config());
        index.insert(obs(0, 10_000, 10.0, 10.0)); // first instant of slice 1
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        assert!(index.range(region, window(0, 10_000)).is_empty());
        assert_eq!(index.range(region, window(0, 10_001)).len(), 1);
        // Empty window matches nothing.
        assert!(index.range(region, window(10_000, 10_000)).is_empty());
    }

    #[test]
    fn stats_report_span() {
        let mut index = StIndex::new(config());
        index.insert(obs(0, 5_000, 1.0, 1.0));
        index.insert(obs(1, 35_000, 1.0, 1.0));
        let s = index.stats();
        assert_eq!(s.observations, 2);
        assert_eq!(s.slices, 2);
        assert_eq!(s.oldest, Some(Timestamp::ZERO));
        assert_eq!(s.newest, Some(Timestamp::from_secs(40)));
    }
}

#[cfg(test)]
mod extract_tests {
    use super::*;
    use crate::FlatIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stcam_camnet::{CameraId, ObservationId, Signature};
    use stcam_world::{EntityClass, EntityId};

    fn obs(seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(0), seq),
            camera: CameraId(0),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::Car,
            signature: Signature::latent_for_entity(seq),
            truth: Some(EntityId(seq)),
        }
    }

    fn config() -> IndexConfig {
        IndexConfig::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            50.0,
            Duration::from_secs(10),
        )
    }

    #[test]
    fn extract_removes_exactly_the_region() {
        let mut index = StIndex::new(config());
        let mut rng = StdRng::seed_from_u64(1);
        let mut inside = 0;
        for i in 0..500u64 {
            let x = rng.gen_range(0.0..1000.0);
            let y = rng.gen_range(0.0..1000.0);
            let region = BBox::new(Point::new(200.0, 200.0), Point::new(600.0, 600.0));
            if region.contains(Point::new(x, y)) {
                inside += 1;
            }
            index.insert(obs(i, rng.gen_range(0..60_000), x, y));
        }
        let region = BBox::new(Point::new(200.0, 200.0), Point::new(600.0, 600.0));
        let extracted = index.extract_range(region);
        assert_eq!(extracted.len(), inside);
        assert_eq!(index.len(), 500 - inside);
        // Nothing in the region remains; everything else untouched.
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(120));
        assert!(index.range(region, window).is_empty());
        assert_eq!(index.range(config().extent, window).len(), 500 - inside);
        // Extracted observations are exactly the in-region ones.
        assert!(extracted.iter().all(|o| region.contains(o.position)));
    }

    #[test]
    fn extract_matches_oracle_and_is_sorted() {
        let mut index = StIndex::new(config());
        let mut oracle = FlatIndex::new();
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..300u64 {
            let o = obs(
                i,
                rng.gen_range(0..60_000),
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
            );
            index.insert(o.clone());
            oracle.insert(o);
        }
        let region = BBox::new(Point::new(0.0, 500.0), Point::new(1000.0, 1000.0));
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(120));
        let expected: Vec<_> = oracle
            .range(region, window)
            .into_iter()
            .map(|o| o.id)
            .collect();
        let extracted: Vec<_> = index
            .extract_range(region)
            .into_iter()
            .map(|o| o.id)
            .collect();
        assert_eq!(extracted, expected);
    }

    #[test]
    fn extract_reaches_sealed_segments() {
        let mut index = StIndex::new(config().with_head_slices(1));
        let mut oracle = FlatIndex::new();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..400u64 {
            let o = obs(
                i,
                rng.gen_range(0..60_000),
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
            );
            index.insert(o.clone());
            oracle.insert(o);
        }
        index.seal_all();
        assert!(index.stats().sealed_segments > 0);
        let region = BBox::new(Point::new(130.0, 130.0), Point::new(640.0, 870.0));
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(120));
        let expected: Vec<_> = oracle
            .range(region, window)
            .into_iter()
            .map(|o| o.id)
            .collect();
        let extracted: Vec<_> = index
            .extract_range(region)
            .into_iter()
            .map(|o| o.id)
            .collect();
        assert_eq!(extracted, expected);
        assert!(index.range(region, window).is_empty());
        assert_eq!(index.len(), 400 - extracted.len());
        // Remaining content is still fully queryable.
        assert_eq!(
            index.range(config().extent, window).len(),
            400 - extracted.len()
        );
    }

    #[test]
    fn extract_reaches_clamped_border_observations() {
        let mut index = StIndex::new(config());
        index.insert(obs(0, 100, -20.0, 500.0)); // clamped into col 0
        index.insert(obs(1, 100, 500.0, 500.0));
        let region = BBox::new(Point::new(-100.0, 0.0), Point::new(10.0, 1000.0));
        let extracted = index.extract_range(region);
        assert_eq!(extracted.len(), 1);
        assert_eq!(extracted[0].id.seq(), 0);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn extract_reaches_clamped_border_observations_in_sealed_segments() {
        let mut index = StIndex::new(config().with_head_slices(1));
        index.insert(obs(0, 100, -20.0, 500.0)); // clamped into col 0
        index.insert(obs(1, 100, 500.0, 500.0));
        index.seal_all();
        let region = BBox::new(Point::new(-100.0, 0.0), Point::new(10.0, 1000.0));
        let extracted = index.extract_range(region);
        assert_eq!(extracted.len(), 1);
        assert_eq!(extracted[0].id.seq(), 0);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn extract_then_reinsert_round_trips() {
        let mut index = StIndex::new(config());
        for i in 0..100u64 {
            index.insert(obs(
                i,
                i * 500,
                (i as f64 * 37.0) % 1000.0,
                (i as f64 * 53.0) % 1000.0,
            ));
        }
        let region = BBox::new(Point::new(0.0, 0.0), Point::new(500.0, 1000.0));
        let moved = index.extract_range(region);
        let moved_count = moved.len();
        assert!(moved_count > 10);
        index.insert_batch(moved);
        assert_eq!(index.len(), 100);
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(120));
        assert_eq!(index.range(config().extent, window).len(), 100);
    }

    #[test]
    fn extract_empty_region_is_noop() {
        let mut index = StIndex::new(config());
        index.insert(obs(0, 100, 500.0, 500.0));
        let off_grid = BBox::new(Point::new(5000.0, 5000.0), Point::new(6000.0, 6000.0));
        assert!(index.extract_range(off_grid).is_empty());
        assert_eq!(index.len(), 1);
    }
}
