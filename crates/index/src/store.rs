//! The archive tier: sealed segments keyed by their first slice.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use stcam_geo::{BBox, GridSpec, Timestamp};

use crate::segment::{group_start, SealedSegment, SegmentDigest, GROUP_SLICES};

/// Holds every sealed segment of an index, ordered by first slice. A
/// segment is one slice, or an aligned group of [`GROUP_SLICES`] once
/// compacted. A first slice can map to several segments: an overlay
/// reseal or an installed remote segment coexists with what is already
/// archived (their row sets are disjoint by the ingest dedup upstream)
/// until the next [`reform`](Self::reform).
///
/// Segments are held behind `Arc` so read views can share them at zero
/// copy: a rewrite (compaction, extract, eviction of part of a group)
/// installs *new* segments and drops the store's reference — outstanding
/// snapshots keep the old bytes (and any spill file) alive until they
/// drop.
#[derive(Debug, Default)]
pub(crate) struct SegmentStore {
    segments: BTreeMap<u64, Vec<Arc<SealedSegment>>>,
    len: usize,
    /// Spill target; when set, added segments move their payload to disk.
    spill_dir: Option<PathBuf>,
}

impl SegmentStore {
    pub(crate) fn new(spill_dir: Option<PathBuf>) -> Self {
        SegmentStore {
            spill_dir,
            ..SegmentStore::default()
        }
    }

    /// Total observations across all segments.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of sealed segments.
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// Approximate heap bytes (resident payloads + footers).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.iter().map(SealedSegment::resident_bytes).sum()
    }

    /// Payload bytes spilled to disk.
    pub(crate) fn spilled_bytes(&self) -> usize {
        self.iter().map(SealedSegment::spilled_bytes).sum()
    }

    /// Smallest slice holding rows.
    pub(crate) fn first_number(&self) -> Option<u64> {
        self.segments.keys().next().copied()
    }

    /// Largest slice holding rows.
    pub(crate) fn last_number(&self) -> Option<u64> {
        self.iter().map(SealedSegment::last_number).max()
    }

    /// Every slice holding rows, ascending by segment (a slice two
    /// segments hold appears twice).
    pub(crate) fn numbers(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().flat_map(SealedSegment::slices)
    }

    /// Adds a segment, spilling its payload when a spill dir is set.
    pub(crate) fn add(&mut self, mut segment: SealedSegment) {
        if segment.is_empty() {
            return;
        }
        if let Some(dir) = &self.spill_dir {
            segment.spill(dir);
        }
        self.len += segment.len();
        self.segments
            .entry(segment.number())
            .or_default()
            .push(Arc::new(segment));
    }

    /// Stores `segment`, received from a peer, slice by slice: a slice
    /// already held with the same digest is not stored again, and a held
    /// segment whose every slice `segment` holds with the same digest
    /// gives way to it. So a copy holding a group's slices apart ends
    /// holding the group as its sender does, and a copy holding the group
    /// ignores its slices sent apart. Returns `false` when nothing was
    /// stored: every slice of `segment` is already held.
    pub(crate) fn install(&mut self, segment: SealedSegment) -> bool {
        let group = group_start(segment.number());
        let held = self.take_range(group, group + GROUP_SLICES);
        let sent = segment.slice_digests();
        if sent.is_empty() || held.iter().any(|h| h.digest() == segment.digest()) {
            held.into_iter().for_each(|h| self.keep(h));
            return false;
        }
        let slices: Vec<Vec<SegmentDigest>> = held.iter().map(|h| h.slice_digests()).collect();
        let within =
            |of: &[SegmentDigest], all: &[SegmentDigest]| of.iter().all(|d| all.contains(d));
        // Slices a held segment that stays holds already.
        let dup: Vec<SegmentDigest> = sent
            .iter()
            .filter(|d| slices.iter().any(|s| !within(s, &sent) && s.contains(d)))
            .copied()
            .collect();
        let (segment, sent) = if dup.is_empty() {
            (Some(segment), sent)
        } else {
            let left = segment.retain_slices(|n| !dup.iter().any(|d| d.number == n));
            (
                left,
                sent.into_iter().filter(|d| !dup.contains(d)).collect(),
            )
        };
        let Some(segment) = segment else {
            held.into_iter().for_each(|h| self.keep(h));
            return false;
        };
        for (h, slices) in held.into_iter().zip(&slices) {
            if !within(slices, &sent) {
                self.keep(h);
            }
        }
        self.add(segment);
        true
    }

    /// Every stored segment, first-slice order then install order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SealedSegment> {
        self.segments.values().flatten().map(|s| &**s)
    }

    /// Segments holding a slice in `[lo, hi]`: those starting there, and
    /// a group starting before `lo` that reaches into it.
    pub(crate) fn overlapping(&self, lo: u64, hi: u64) -> impl Iterator<Item = &SealedSegment> {
        self.segments
            .range(group_start(lo)..=hi)
            .flat_map(|(_, v)| v.iter())
            .map(|s| &**s)
            .filter(move |s| s.last_number() >= lo)
    }

    /// Shared handles to every segment, ascending by first slice — the
    /// archive half of a read-view snapshot.
    pub(crate) fn arcs(&self) -> Vec<(u64, Arc<SealedSegment>)> {
        self.segments
            .iter()
            .flat_map(|(&n, v)| v.iter().map(move |s| (n, Arc::clone(s))))
            .collect()
    }

    /// Digests of every stored segment, ascending by (number, digest).
    pub(crate) fn digests(&self) -> Vec<SegmentDigest> {
        let mut out: Vec<SegmentDigest> = self.iter().map(SealedSegment::digest).collect();
        out.sort();
        out
    }

    /// Stores one segment merged from `inputs`, which the caller took
    /// out of the store, or, when they are fewer than two or the merge
    /// cannot read them, `inputs` as they were.
    fn merge_taken(&mut self, inputs: Vec<Arc<SealedSegment>>) {
        if inputs.len() > 1 {
            let refs: Vec<&SealedSegment> = inputs.iter().map(|s| &**s).collect();
            if let Ok(Some(merged)) = SealedSegment::merge(&refs) {
                self.add(merged);
                return;
            }
        }
        inputs.into_iter().for_each(|s| self.keep(s));
    }

    /// Stores an `Arc` as it is (no spill: it already went through `add`).
    fn keep(&mut self, segment: Arc<SealedSegment>) {
        self.len += segment.len();
        self.segments
            .entry(segment.number())
            .or_default()
            .push(segment);
    }

    /// Takes every segment stored under a key in `from..to` out of the
    /// store, key ascending.
    fn take_range(&mut self, from: u64, to: u64) -> Vec<Arc<SealedSegment>> {
        let keys: Vec<u64> = self.segments.range(from..to).map(|(&k, _)| k).collect();
        keys.into_iter().flat_map(|k| self.take(k)).collect()
    }

    /// Takes every segment stored under `key` out of the store.
    fn take(&mut self, key: u64) -> Vec<Arc<SealedSegment>> {
        let taken = self.segments.remove(&key).unwrap_or_default();
        self.len -= taken.iter().map(|s| s.len()).sum::<usize>();
        taken
    }

    /// Re-forms what seal events and installs leave apart, by one rule:
    /// every group wholly at or before slice `sealed_through` that is
    /// held as more than one segment becomes one segment, and in every
    /// later group (all of them when `sealed_through` is `None`) a slice
    /// held by more than one one-slice segment becomes one. Inputs merge
    /// in key order, then in the order they were stored.
    pub(crate) fn reform(&mut self, sealed_through: Option<u64>) {
        let closed = |start: u64| sealed_through.is_some_and(|t| start + GROUP_SLICES - 1 <= t);
        let mut groups: Vec<(u64, usize)> = Vec::new();
        let mut slices: Vec<u64> = Vec::new();
        for (&key, held) in &self.segments {
            let start = group_start(key);
            if closed(start) {
                match groups.last_mut() {
                    Some((group, n)) if *group == start => *n += held.len(),
                    _ => groups.push((start, held.len())),
                }
            } else if held.iter().filter(|s| s.last_number() == key).count() > 1 {
                slices.push(key);
            }
        }
        for (start, n) in groups {
            if n > 1 {
                let inputs = self.take_range(start, start + GROUP_SLICES);
                self.merge_taken(inputs);
            }
        }
        for key in slices {
            let (single, rest): (Vec<_>, Vec<_>) = self
                .take(key)
                .into_iter()
                .partition(|s| s.last_number() == key);
            rest.into_iter().for_each(|s| self.keep(s));
            self.merge_taken(single);
        }
    }

    /// Drops every slice that ends at or before `cutoff`: whole segments,
    /// and the early slices of a group the cutoff falls inside, which is
    /// rewritten by byte filter. Returns the number of observations
    /// removed.
    pub(crate) fn evict_before(&mut self, cutoff: Timestamp) -> usize {
        let stale: Vec<u64> = self
            .segments
            .iter()
            .take_while(|(_, v)| v.iter().any(|s| first_slice_end(s) <= cutoff))
            .map(|(&n, _)| n)
            .collect();
        let before = self.len;
        for n in stale {
            for segment in self.take(n) {
                if segment.window().end() <= cutoff {
                    continue;
                }
                let keep_from = cutoff.as_millis() / segment.slice_len().as_millis();
                if let Some(kept) = segment.retain_slices(|s| s >= keep_from) {
                    self.add(kept);
                }
            }
        }
        before - self.len
    }

    /// Extracts every row inside `region` from all segments, rewriting
    /// touched segments (a fresh remainder segment replaces the old
    /// `Arc`; snapshots holding the old one are unaffected). Returns the
    /// extracted rows (segment order; caller sorts).
    pub(crate) fn extract_region(
        &mut self,
        grid: &GridSpec,
        region: &BBox,
        out: &mut Vec<stcam_camnet::Observation>,
    ) {
        for segment in std::mem::take(&mut self.segments).into_values().flatten() {
            self.len -= segment.len();
            if !segment.touches(grid, region) {
                self.keep(segment);
                continue;
            }
            let (inside, remainder) = segment.partition_region(grid, region);
            out.extend(inside.map(|s| s.unseal()).unwrap_or_default());
            if let Some(rest) = remainder {
                self.add(rest);
            }
        }
    }
}

/// When the first slice of `segment` ends.
fn first_slice_end(segment: &SealedSegment) -> Timestamp {
    let len = segment.slice_len().as_millis();
    Timestamp::from_millis((segment.number() + 1) * len)
}
