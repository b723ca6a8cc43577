//! Sealed immutable segments: closed time slices frozen into columnar
//! blocks.
//!
//! A [`SealedSegment`] is the archive form of one time slice, or of an
//! aligned group of [`GROUP_SLICES`] slices once every slice of the group
//! is behind the mutable head. Each non-empty (grid cell, slice) becomes
//! one columnar block (the `stcam-camnet` batch encoding: delta-varint
//! ids/times, run-length cameras, packed classes). The payload holds the
//! blocks slice by slice, cells ascending within a slice, so a compacted
//! group's payload is its slices' payloads back to back — built by byte
//! copy, never re-encoded. A footer directory sorted by (cell, slice)
//! maps each block to its byte range, so a query makes one directory
//! search per cell per segment and decodes only the blocks its region
//! and window touch. A block's slice costs no directory field: it is read
//! off the block's offset against the per-slice payload bases.
//!
//! The directory also carries per-block observation counts and
//! order-independent checksums, XOR-folded into a segment-level digest —
//! the unit the repair plane compares and ships (`(number, count,
//! checksum)` identifies a segment's exact contents up to the collision
//! probability of the mix, `number` being the first slice it holds).
//!
//! Segments are immutable: rebalancing that must remove rows builds a
//! replacement segment (`partition_region`), byte-copying blocks the
//! region does not touch and re-encoding only partial blocks; retention
//! drops whole slices of a group by byte filter. The payload can be
//! spilled to disk ([`SealedSegment::spill`]), leaving only the footer
//! resident; reads then fetch just the touched byte ranges, coalescing
//! blocks adjacent in the payload into single reads. A segment built
//! from spilled ones (a compacted group, what retention leaves of one)
//! reads their files where they are, so a row is written to disk once.

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use stcam_camnet::batch::{
    decode_batch, decode_batch_filtered, decode_batch_into, encode_batch, scan_batch_keys,
};
use stcam_camnet::{Observation, ObservationId};
use stcam_codec::{DecodeError, SegmentBlock, SegmentFrame};
use stcam_geo::{BBox, CellId, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_world::EntityClass;

use crate::select::{Hits, Predicate};
use crate::slice::slice_number;
use crate::view::number_range;

/// Slices per compaction group. Groups are aligned (slices
/// `g·GROUP_SLICES .. (g+1)·GROUP_SLICES`), and once every slice of a
/// group is behind the head its sealed segments become one.
pub const GROUP_SLICES: u64 = 8;

/// The first slice of the aligned group holding slice `number`.
pub(crate) fn group_start(number: u64) -> u64 {
    number - number % GROUP_SLICES
}

/// The order-independent per-observation mix folded (by XOR) into cell
/// and segment checksums. Covers the identity and the timestamp, so a
/// copy holding the right ids but corrupted times still diverges. Shared
/// by the index's segment digests and the repair plane's cell digests —
/// a sealed whole-cell block and a live cell fold to the same value.
pub fn observation_checksum(o: &Observation) -> u64 {
    splitmix64(o.id.0 ^ splitmix64(o.time.as_millis()))
}

/// SplitMix64 finalizer: a cheap, well-dispersed 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The region of positions that bucket into packed cell `cell` under the
/// clamped assignment of `grid`: border cells extend to ±∞ on their
/// outside edges (outside positions clamp inward), interior edges are
/// half-open so every position belongs to exactly one cell's scope.
///
/// `region.contains_bbox(cell_scope(...))` therefore proves that *every*
/// observation bucketed in the cell — clamped ones included — matches
/// `region`, which is what lets segment scans copy whole blocks without
/// decoding them. Cell copies export and truncate by the same rule, so
/// a clamped observation is in scope for all three or for none.
pub fn cell_scope(grid: &GridSpec, cell: u32) -> BBox {
    const FAR: f64 = 1e12;
    let cell = CellId::new(cell % grid.cols(), cell / grid.cols());
    let bb = grid.cell_bbox(cell);
    let min = Point::new(
        if cell.col == 0 { -FAR } else { bb.min.x },
        if cell.row == 0 { -FAR } else { bb.min.y },
    );
    let max = Point::new(
        if cell.col == grid.cols() - 1 {
            FAR
        } else {
            bb.max.x.next_down()
        },
        if cell.row == grid.rows() - 1 {
            FAR
        } else {
            bb.max.y.next_down()
        },
    );
    BBox::new(min, max)
}

/// Identity and content digest of one sealed segment: what an install
/// dedups by, slice by slice, and what tests compare copies with. It never
/// leaves the worker. Equal digests certify equal contents up to the
/// collision probability of [`observation_checksum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SegmentDigest {
    /// The first time slice the segment holds rows of: its one slice, or
    /// the first non-empty slice of a compacted group. Content defines it,
    /// so two copies holding the same rows as one segment digest equal
    /// however each came to hold them.
    pub number: u64,
    /// Observations stored.
    pub count: u64,
    /// XOR fold of [`observation_checksum`] over every stored row.
    pub checksum: u64,
}

/// Where a segment's payload bytes live.
#[derive(Debug)]
enum SegmentData {
    /// Payload held in memory.
    Resident(Vec<u8>),
    /// Payload as runs back to back, at least one of them in a spill
    /// file; only the footer, and any run not yet written, stays
    /// resident. A segment built from spilled ones (a compacted group, a
    /// group that lost slices to retention) reads their files where they
    /// are, so each row is written to disk once.
    Spilled { len: usize, runs: Vec<Run> },
}

/// A run of payload bytes.
#[derive(Debug, Clone)]
enum Run {
    /// `len` bytes of a spill file from `pos`.
    File {
        file: Arc<SpillFile>,
        pos: u64,
        len: usize,
    },
    /// Bytes not written yet: what a merge re-encoded beside shared runs.
    Memory(Vec<u8>),
}

impl Run {
    fn len(&self) -> usize {
        match self {
            Run::File { len, .. } => *len,
            Run::Memory(bytes) => bytes.len(),
        }
    }
}

/// A spill file, removed when the last segment reading it drops. The
/// read-only handle is kept open so block reads are positioned reads
/// (`pread`) with no per-query open/seek.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    file: File,
}

impl SpillFile {
    /// Writes `parts` back to back to a file created at `path` and syncs
    /// it; a name already taken is neither truncated nor removed.
    fn write(path: PathBuf, parts: &[&[u8]]) -> io::Result<SpillFile> {
        let mut f = File::create_new(&path)?;
        let mut write = || -> io::Result<File> {
            for part in parts {
                f.write_all(part)?;
            }
            f.sync_data()?;
            File::open(&path)
        };
        match write() {
            Ok(file) => Ok(SpillFile { path, file }),
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                Err(e)
            }
        }
    }
}

/// The tag of the next spill file: names are unique across every index
/// of the process, so indexes may share a spill directory.
static SPILL_TAG: AtomicU64 = AtomicU64::new(0);

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The runs of `runs` (back to back) that payload bytes `start..end`
/// fall in, each with the run-relative part `from..to` they cover.
fn pieces(runs: &[Run], start: usize, end: usize) -> impl Iterator<Item = (&Run, usize, usize)> {
    runs.iter()
        .scan(0, |at, run| {
            let first = *at;
            *at += run.len();
            Some((run, first))
        })
        .take_while(move |&(_, first)| first < end)
        .filter_map(move |(run, first)| {
            let (lo, hi) = (start.max(first), end.min(first + run.len()));
            (lo < hi).then_some((run, lo - first, hi - first))
        })
}

/// The parts of `runs` (back to back) covering payload bytes
/// `start..end`.
fn runs_of(runs: &[Run], start: usize, end: usize) -> Vec<Run> {
    pieces(runs, start, end)
        .map(|(run, from, to)| match run {
            Run::File { file, pos, .. } => Run::File {
                file: Arc::clone(file),
                pos: pos + from as u64,
                len: to - from,
            },
            Run::Memory(bytes) => Run::Memory(bytes[from..to].to_vec()),
        })
        .collect()
}

/// One sealed, immutable slice or slice group: per-(cell, slice)
/// columnar blocks plus a footer directory (see the `segment` module
/// docs).
#[derive(Debug)]
pub struct SealedSegment {
    /// First slice holding rows.
    number: u64,
    slice_len: Duration,
    /// Payload offset at which the blocks of slice `number + k` start,
    /// for every `k` up to the last slice holding rows; an empty slice
    /// starts where the next one does.
    bases: Vec<u32>,
    count: u64,
    checksum: u64,
    /// Sorted by (cell, offset), which is (cell, slice).
    directory: Vec<SegmentBlock>,
    data: SegmentData,
    /// Cached heat-map summaries (see [`HeatmapMemo`]).
    memo: HeatmapMemo,
}

/// Cached heat-map summaries, keyed by bucket grid.
///
/// A sealed segment is immutable, so once the per-bucket counts for a
/// given bucket grid are computed they stay valid for *every* window
/// that covers the segment, or one of its slices — no invalidation,
/// ever. Repeated archive-wide heat-maps (the common dashboard shape:
/// same bucket grid, sliding covering window) then cost one sparse merge
/// per segment instead of a footer walk plus key decode of every
/// straddling block, and a window cutting a compacted group takes its
/// covered slices from the per-slice lists. Capped at
/// [`HeatmapMemo::CAP`] bucket grids, oldest evicted first.
#[derive(Debug, Default)]
struct HeatmapMemo(Mutex<Vec<Summary>>);

/// Sparse per-bucket counts: `(packed bucket index, count)` pairs.
type SparseCounts = Vec<(u32, u64)>;

/// One bucket grid's counts over a whole segment and, for a compacted
/// group, over each of its slices.
#[derive(Debug)]
struct Summary {
    buckets: GridSpec,
    whole: SparseCounts,
    /// Per slice `number + k`; empty for a one-slice segment.
    slices: Vec<SparseCounts>,
}

impl HeatmapMemo {
    const CAP: usize = 4;

    /// Hands `use_it` the summary for `buckets`, computing and caching
    /// it on a miss (first writer wins on a race).
    fn with(
        &self,
        buckets: &GridSpec,
        compute: impl FnOnce() -> Summary,
        use_it: impl FnOnce(&Summary),
    ) {
        {
            let memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(summary) = memo.iter().find(|s| s.buckets == *buckets) {
                use_it(summary);
                return;
            }
        }
        let summary = compute();
        use_it(&summary);
        let mut memo = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if memo.iter().any(|s| s.buckets == *buckets) {
            return;
        }
        if memo.len() >= Self::CAP {
            memo.remove(0);
        }
        memo.push(summary);
    }
}

fn add_sparse(sparse: &[(u32, u64)], counts: &mut [u64]) {
    for &(slot, c) in sparse {
        counts[slot as usize] += c;
    }
}

/// A payload the rows of a block could not be read back from.
fn corrupt(_: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "sealed block does not decode")
}

impl SealedSegment {
    /// Seals cell buckets (dense, indexed by packed cell) of slice
    /// `number` into a segment. Rows inside each bucket keep their stored
    /// order; empty buckets produce no block, and no rows at all no
    /// segment.
    pub(crate) fn seal(
        number: u64,
        window: TimeInterval,
        buckets: &[Vec<Observation>],
    ) -> Option<SealedSegment> {
        let mut builder = SegmentBuilder::new(window.duration());
        for (cell, bucket) in buckets.iter().enumerate() {
            builder.push_rows(number, cell as u32, bucket);
        }
        builder.finish()
    }

    /// The first time slice holding rows.
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The length of each of its slices.
    pub(crate) fn slice_len(&self) -> Duration {
        self.slice_len
    }

    /// The last time slice holding rows: [`number`](Self::number) for a
    /// one-slice segment, at most the end of its group for a compacted
    /// one.
    pub(crate) fn last_number(&self) -> u64 {
        self.number + self.bases.len() as u64 - 1
    }

    /// The window from the first slice's start to the last slice's end.
    pub fn window(&self) -> TimeInterval {
        let len = self.slice_len.as_millis();
        TimeInterval::new(
            Timestamp::from_millis(self.number * len),
            Timestamp::from_millis((self.last_number() + 1) * len),
        )
    }

    /// Stored observations.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` when the segment stores nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The segment's identity/content digest.
    pub fn digest(&self) -> SegmentDigest {
        SegmentDigest {
            number: self.number,
            count: self.count,
            checksum: self.checksum,
        }
    }

    /// The digest each slice holding rows would have as a segment of its
    /// own, slice ascending.
    pub(crate) fn slice_digests(&self) -> Vec<SegmentDigest> {
        let mut digests: Vec<SegmentDigest> = (0..self.bases.len())
            .map(|k| SegmentDigest {
                number: self.number + k as u64,
                count: 0,
                checksum: 0,
            })
            .collect();
        for (i, block) in self.directory.iter().enumerate() {
            let digest = &mut digests[self.slice_of(i)];
            digest.count += u64::from(block.count);
            digest.checksum ^= block.checksum;
        }
        digests.retain(|d| d.count > 0);
        digests
    }

    /// The slices holding rows, ascending.
    pub(crate) fn slices(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.bases.len())
            .filter(|&k| self.slice_start(k) < self.slice_end(k))
            .map(|k| self.number + k as u64)
    }

    /// Approximate heap bytes held in RAM: payload (when resident) plus
    /// the footer directory and slice bases.
    pub fn resident_bytes(&self) -> usize {
        let payload = match &self.data {
            SegmentData::Resident(p) => p.len(),
            SegmentData::Spilled { runs, .. } => runs
                .iter()
                .map(|r| match r {
                    Run::Memory(bytes) => bytes.len(),
                    Run::File { .. } => 0,
                })
                .sum(),
        };
        payload
            + self.directory.len() * std::mem::size_of::<SegmentBlock>()
            + self.bases.len() * std::mem::size_of::<u32>()
    }

    /// Payload bytes spilled to disk (0 when resident).
    pub fn spilled_bytes(&self) -> usize {
        match &self.data {
            SegmentData::Resident(_) => 0,
            SegmentData::Spilled { runs, .. } => runs
                .iter()
                .map(|r| match r {
                    Run::File { len, .. } => *len,
                    Run::Memory(_) => 0,
                })
                .sum(),
        }
    }

    fn payload_len(&self) -> usize {
        match &self.data {
            SegmentData::Resident(p) => p.len(),
            SegmentData::Spilled { len, .. } => *len,
        }
    }

    /// Writes the payload bytes not yet on disk to one new file under
    /// `dir`, keeping only the footer resident; runs already in spill
    /// files stay where they are. IO failure, a taken file name included,
    /// leaves the segment as it was.
    pub(crate) fn spill(&mut self, dir: &Path) {
        let unwritten: Vec<&[u8]> = match &self.data {
            SegmentData::Resident(payload) => vec![payload],
            SegmentData::Spilled { runs, .. } => runs
                .iter()
                .filter_map(|r| match r {
                    Run::Memory(bytes) => Some(&bytes[..]),
                    Run::File { .. } => None,
                })
                .collect(),
        };
        if unwritten.is_empty() {
            return;
        }
        let tag = SPILL_TAG.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("seg-{:08}-{:04}.stseg", self.number, tag));
        let Ok(file) = SpillFile::write(path, &unwritten) else {
            return;
        };
        let file = Arc::new(file);
        let mut pos = 0u64;
        let mut to_file = |len: usize| {
            let run = Run::File {
                file: Arc::clone(&file),
                pos,
                len,
            };
            pos += len as u64;
            run
        };
        self.data = match std::mem::replace(&mut self.data, SegmentData::Resident(Vec::new())) {
            SegmentData::Resident(payload) => SegmentData::Spilled {
                len: payload.len(),
                runs: vec![to_file(payload.len())],
            },
            SegmentData::Spilled { len, runs } => SegmentData::Spilled {
                len,
                runs: runs
                    .into_iter()
                    .map(|r| match r {
                        Run::Memory(bytes) => to_file(bytes.len()),
                        file => file,
                    })
                    .collect(),
            },
        };
    }

    /// The payload bytes `start..end`, for the read path. Spilled
    /// segments read exactly that byte range into `scratch`.
    fn bytes<'a>(&'a self, start: usize, end: usize, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        self.read(start, end, scratch)
            .expect("segment spill file read")
    }

    /// The payload bytes `start..end`, borrowed when resident, else read
    /// into `scratch`.
    fn read<'a>(
        &'a self,
        start: usize,
        end: usize,
        scratch: &'a mut Vec<u8>,
    ) -> io::Result<&'a [u8]> {
        let runs = match &self.data {
            SegmentData::Resident(payload) => return Ok(&payload[start..end]),
            SegmentData::Spilled { runs, .. } => runs,
        };
        // Grow-only: every byte of the prefix is overwritten below, so the
        // buffer is never re-zeroed on reuse.
        if scratch.len() < end - start {
            scratch.resize(end - start, 0);
        }
        let mut at = 0;
        for (run, from, to) in pieces(runs, start, end) {
            let into = &mut scratch[at..at + to - from];
            match run {
                Run::File { file, pos, .. } => file.file.read_exact_at(into, pos + from as u64)?,
                Run::Memory(bytes) => into.copy_from_slice(&bytes[from..to]),
            }
            at += to - from;
        }
        Ok(&scratch[..end - start])
    }

    /// The whole payload, borrowed when resident.
    fn payload(&self) -> io::Result<Cow<'_, [u8]>> {
        let mut buf = Vec::new();
        match &self.data {
            SegmentData::Resident(p) => Ok(Cow::Borrowed(p)),
            SegmentData::Spilled { len, .. } => {
                self.read(0, *len, &mut buf)?;
                Ok(Cow::Owned(buf))
            }
        }
    }

    /// Payload offset of the first block of slice `number + k`.
    fn slice_start(&self, k: usize) -> usize {
        self.bases[k] as usize
    }

    /// Payload offset just past the last block of slice `number + k`.
    fn slice_end(&self, k: usize) -> usize {
        self.bases
            .get(k + 1)
            .map_or(self.payload_len(), |&b| b as usize)
    }

    /// The slice of directory entry `i`, as an offset from `number`.
    fn slice_of(&self, i: usize) -> usize {
        let offset = self.directory[i].offset;
        self.bases.partition_point(|&b| b <= offset) - 1
    }

    /// The window of slice `number + k`.
    fn slice_window(&self, k: usize) -> TimeInterval {
        let len = self.slice_len.as_millis();
        let start = Timestamp::from_millis((self.number + k as u64) * len);
        TimeInterval::new(start, start + self.slice_len)
    }

    /// The slices `number + lo ..= number + hi` that `window` meets, as
    /// `(lo, hi)`, or `None` when it meets none.
    fn slices_meeting(&self, window: &TimeInterval) -> Option<(usize, usize)> {
        let (lo, hi) = number_range(*window, self.slice_len)?;
        let (lo, hi) = (lo.max(self.number), hi.min(self.last_number()));
        (lo <= hi).then(|| ((lo - self.number) as usize, (hi - self.number) as usize))
    }

    /// The directory entries in payload order: slice by slice, cells
    /// ascending within each.
    fn payload_order(&self) -> Vec<SegmentBlock> {
        let mut order = self.directory.clone();
        order.sort_unstable_by_key(|b| b.offset);
        order
    }

    /// The entries of `order` (from [`payload_order`](Self::payload_order))
    /// holding slice `slice`.
    fn slice_blocks<'o>(&self, order: &'o [SegmentBlock], slice: u64) -> &'o [SegmentBlock] {
        let Some(k) = slice
            .checked_sub(self.number)
            .map(|k| k as usize)
            .filter(|&k| k < self.bases.len())
        else {
            return &[];
        };
        let (start, end) = (self.slice_start(k) as u32, self.slice_end(k));
        let from = order.partition_point(|b| b.offset < start);
        let to = order.partition_point(|b| (b.offset as usize) < end);
        &order[from..to]
    }

    /// Hands `emit` the directory indices `(first, last)` of the blocks
    /// for `cells` (ascending packed cells, duplicates allowed), grouped
    /// into runs of adjacent directory entries — every slice's block of a
    /// cell, then the next cell's.
    ///
    /// The cells of a box are row-major bands of consecutive packed cells,
    /// so the directory is searched once per band, not once per cell: the
    /// band's first block is found by a gallop from the previous band's
    /// end and a `partition_point`, and the blocks of the rest of the band
    /// follow it.
    pub(crate) fn block_runs(&self, cells: &[u32], mut emit: impl FnMut(usize, usize)) {
        let mut run: Option<(usize, usize)> = None;
        let mut rest = cells;
        // Every block before `floor` lies before the next band.
        let mut floor = 0;
        while let Some(&lo) = rest.first() {
            let mut len = 1;
            while len < rest.len() && rest[len] <= rest[len - 1] + 1 {
                len += 1;
            }
            let hi = rest[len - 1];
            rest = &rest[len..];
            // Gallop from `floor`, then search the last stride: the next
            // band's blocks are usually a grid row on, a few cache lines
            // away, where a search of the whole directory would touch a
            // dozen lines spread over it.
            let (mut probe, mut stride) = (floor, 1);
            while probe < self.directory.len() && self.directory[probe].cell < lo {
                floor = probe + 1;
                probe += stride;
                stride *= 2;
            }
            let end = probe.min(self.directory.len());
            let mut i = floor + self.directory[floor..end].partition_point(|b| b.cell < lo);
            while i < self.directory.len() && self.directory[i].cell <= hi {
                match &mut run {
                    Some((_, last)) if *last + 1 == i => *last = i,
                    _ => {
                        if let Some((first, last)) = run.replace((i, i)) {
                            emit(first, last);
                        }
                    }
                }
                i += 1;
            }
            floor = i;
        }
        if let Some((first, last)) = run {
            emit(first, last);
        }
    }

    /// Appends to `out` the directory indices of the blocks of `cells`
    /// (ascending packed cells) whose slice `window` meets, in payload
    /// order — slice by slice, the order a scan of the head's slices
    /// keeps — and returns the rows those blocks hold, from the footer.
    pub(crate) fn select_blocks(
        &self,
        cells: &[u32],
        window: &TimeInterval,
        out: &mut Vec<u32>,
    ) -> usize {
        let Some((lo, hi)) = self.slices_meeting(window) else {
            return 0;
        };
        let mut rows = 0;
        // The directory lists a cell's slices together: bucket the
        // selected blocks by slice, which keeps cells ascending in each.
        let mut picked: Vec<(u8, u32)> = Vec::new();
        let mut starts = [0usize; GROUP_SLICES as usize + 1];
        self.block_runs(cells, |first, last| {
            for i in first..=last {
                let k = self.slice_of(i);
                if (lo..=hi).contains(&k) {
                    rows += self.directory[i].count as usize;
                    picked.push((k as u8, i as u32));
                    starts[k + 1] += 1;
                }
            }
        });
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let base = out.len();
        out.resize(base + picked.len(), 0);
        for (k, i) in picked {
            out[base + starts[k as usize]] = i;
            starts[k as usize] += 1;
        }
        rows
    }

    /// Rows stored in directory entry `i`, from the footer.
    pub(crate) fn rows_of(&self, i: u32) -> usize {
        self.directory[i as usize].count as usize
    }

    /// Hands `f` each block of `blocks` (directory indices in payload
    /// order) with its bytes, reading runs of blocks adjacent in the
    /// payload with one read.
    fn for_each_block(
        &self,
        blocks: &[u32],
        scratch: &mut Vec<u8>,
        mut f: impl FnMut(usize, &[u8]),
    ) {
        let mut rest = blocks;
        while let Some(&first) = rest.first() {
            let mut end = self.directory[first as usize];
            let mut len = 1;
            while let Some(&next) = rest.get(len) {
                let next = self.directory[next as usize];
                if next.offset != end.offset + end.len {
                    break;
                }
                end = next;
                len += 1;
            }
            let start = self.directory[first as usize].offset as usize;
            let bytes = self.bytes(start, (end.offset + end.len) as usize, scratch);
            for &i in &rest[..len] {
                let block = self.directory[i as usize];
                let from = block.offset as usize - start;
                f(i as usize, &bytes[from..from + block.len as usize]);
            }
            rest = &rest[len..];
        }
    }

    /// The slices `number + lo ..= number + hi` that `window` covers
    /// whole, as `(lo, hi)`, or `None` when it covers none.
    fn covered_slices(&self, window: &TimeInterval) -> Option<(usize, usize)> {
        let len = self.slice_len.as_millis();
        let first = window.start().as_millis().div_ceil(len).max(self.number);
        let last = (window.end().as_millis() / len)
            .checked_sub(1)?
            .min(self.last_number());
        (first <= last).then(|| {
            (
                (first - self.number) as usize,
                (last - self.number) as usize,
            )
        })
    }

    /// Whether every row of a block matches `region`/`window` without
    /// decoding: the window covers the block's whole slice and the region
    /// covers the cell's entire clamped scope. Ask about blocks in
    /// payload order: the test follows the slice along.
    fn whole_test<'s>(
        &'s self,
        grid: &'s GridSpec,
        region: &'s BBox,
        window: &TimeInterval,
    ) -> impl FnMut(usize) -> bool + 's {
        let covered = self.covered_slices(window);
        let mut k = 0;
        move |i| {
            let block = self.directory[i];
            while k + 1 < self.bases.len() && self.bases[k + 1] <= block.offset {
                k += 1;
            }
            covered.is_some_and(|(lo, hi)| (lo..=hi).contains(&k))
                && region.contains_bbox(&cell_scope(grid, block.cell))
        }
    }

    /// Hands `hits` the stored observations of `blocks` (from
    /// [`select_blocks`](Self::select_blocks)) inside `window` that pass
    /// `predicate`. Each block's key columns are tested before its wide
    /// columns decode; a block that provably matches whole — no class to
    /// test, and a window and region covering its slice and the cell's
    /// scope — skips the test.
    pub(crate) fn scan_blocks(
        &self,
        grid: &GridSpec,
        blocks: &[u32],
        predicate: &Predicate,
        window: &TimeInterval,
        hits: &mut Hits,
        scratch: &mut ScanScratch,
    ) {
        let mut whole_test = self.whole_test(grid, &predicate.region, window);
        self.for_each_block(blocks, &mut scratch.bytes, |i, block| {
            let whole = predicate.class.is_none() && whole_test(i);
            hits.decode_block(block, whole, |t, p, c| {
                window.contains(t) && predicate.matches(p, c)
            });
        });
    }

    /// Counts the matches of `region` and `window` within `cells`
    /// (ascending packed cells) without materialising them:
    /// fully-covered blocks contribute their footer count with no decode;
    /// only partial blocks are key-scanned (reading into `scratch`).
    pub(crate) fn count_cells(
        &self,
        grid: &GridSpec,
        cells: &[u32],
        region: &BBox,
        window: &TimeInterval,
        scratch: &mut ScanScratch,
    ) -> usize {
        let mut blocks = Vec::new();
        self.select_blocks(cells, window, &mut blocks);
        let mut total = 0usize;
        // Footer pass: covered blocks contribute their count with no
        // read; reads touch only the rest.
        let mut whole_test = self.whole_test(grid, region, window);
        blocks.retain(|&i| {
            let whole = whole_test(i as usize);
            if whole {
                total += self.rows_of(i);
            }
            !whole
        });
        self.for_each_block(&blocks, &mut scratch.bytes, |_, block| {
            scan_keys(block, |t, p| {
                if window.contains(t) && region.contains(p) {
                    total += 1;
                }
            });
        });
        total
    }

    /// Accumulates observation counts into `counts` (dense row-major over
    /// `buckets`) for rows within `window`.
    ///
    /// A window that covers the whole segment takes its counts from the
    /// memoised summary (see [`HeatmapMemo`]); one that cuts a compacted
    /// group takes each slice it covers from the summary's per-slice
    /// lists and key-scans only the blocks of the at most two slices it
    /// cuts — found by their slice's payload range, not by the directory.
    /// A summary is built once per bucket grid: a block whose cell scope
    /// lies inside a single bucket (always true for interior cells when
    /// `buckets` is a coarser grid aligned with the index grid)
    /// contributes its footer count, and the rest are visited key-only
    /// ([`scan_batch_keys`]) — a heat-map never needs ids or signatures,
    /// so the wide columns stay encoded either way.
    pub(crate) fn heatmap_into(
        &self,
        grid: &GridSpec,
        buckets: &GridSpec,
        window: &TimeInterval,
        counts: &mut [u64],
        scratch: &mut ScanScratch,
    ) {
        let Some((lo, hi)) = self.slices_meeting(window) else {
            return;
        };
        let last = self.bases.len() - 1;
        let whole = self.covered_slices(window);
        let covered = |k: usize| whole.is_some_and(|(a, b)| (a..=b).contains(&k));
        let summarise = || self.summarise(grid, buckets);
        if whole == Some((0, last)) {
            self.memo
                .with(buckets, summarise, |s| add_sparse(&s.whole, counts));
            return;
        }
        if last > 0 && (lo..=hi).any(covered) {
            self.memo.with(buckets, summarise, |s| {
                for k in (lo..=hi).filter(|&k| covered(k)) {
                    add_sparse(&s.slices[k], counts);
                }
            });
        }
        for k in (lo..=hi).filter(|&k| !covered(k)) {
            let (start, end) = (self.slice_start(k), self.slice_end(k));
            scan_keys(self.bytes(start, end, &mut scratch.bytes), |t, p| {
                if !window.contains(t) {
                    return;
                }
                if let Some(cell) = buckets.cell_of(p) {
                    counts[cell.row as usize * buckets.cols() as usize + cell.col as usize] += 1;
                }
            });
        }
    }

    /// The uncached heat-map counts of every slice: footer counts for
    /// blocks whose cell scope lies in one bucket, a key-only decode of
    /// the rest.
    fn summarise(&self, grid: &GridSpec, buckets: &GridSpec) -> Summary {
        let cols = buckets.cols() as usize;
        // Per slice: (bucket, count) pairs in visit order.
        let mut pairs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.bases.len()];
        // Blocks the footer cannot resolve, to read in payload order.
        let mut scan: Vec<u32> = Vec::new();
        for (i, block) in self.directory.iter().enumerate() {
            let scope = cell_scope(grid, block.cell);
            let bucket = buckets
                .cell_of(Point::new(
                    (scope.min.x + scope.max.x) / 2.0,
                    (scope.min.y + scope.max.y) / 2.0,
                ))
                .filter(|&b| buckets.cell_bbox(b).contains_bbox(&scope));
            match bucket {
                Some(b) => pairs[self.slice_of(i)].push((
                    b.row as usize * cols + b.col as usize,
                    u64::from(block.count),
                )),
                None => scan.push(i as u32),
            }
        }
        scan.sort_unstable_by_key(|&i| self.directory[i as usize].offset);
        self.for_each_block(&scan, &mut Vec::new(), |i, block| {
            let slice = &mut pairs[self.slice_of(i)];
            scan_keys(block, |_, p| {
                if let Some(cell) = buckets.cell_of(p) {
                    slice.push((cell.row as usize * cols + cell.col as usize, 1));
                }
            });
        });
        let mut dense = vec![0u64; buckets.cell_count() as usize];
        let mut touched: Vec<u32> = Vec::new();
        let mut sparse = |pairs: &mut dyn Iterator<Item = (usize, u64)>| -> SparseCounts {
            for (slot, c) in pairs {
                if dense[slot] == 0 {
                    touched.push(slot as u32);
                }
                dense[slot] += c;
            }
            touched.sort_unstable();
            touched
                .drain(..)
                .map(|slot| (slot, std::mem::take(&mut dense[slot as usize])))
                .collect()
        };
        let whole = sparse(&mut pairs.iter().flatten().copied());
        let slices = if pairs.len() > 1 {
            pairs
                .into_iter()
                .map(|p| sparse(&mut p.into_iter()))
                .collect()
        } else {
            Vec::new()
        };
        Summary {
            buckets: *buckets,
            whole,
            slices,
        }
    }

    /// Visits every stored observation, decoding block by block in
    /// payload order.
    pub(crate) fn for_each_with(&self, scratch: &mut ScanScratch, f: &mut dyn FnMut(&Observation)) {
        let mut bytes = self.bytes(0, self.payload_len(), &mut scratch.bytes);
        // Blocks tile the payload, so it decodes block after block.
        while !bytes.is_empty() {
            scratch.rows.clear();
            decode_batch_into(&mut bytes, &mut scratch.rows).expect("sealed block decodes");
            for o in &scratch.rows {
                f(o);
            }
        }
    }

    /// Decodes every stored observation (slice order, then cell order,
    /// then stored row order).
    pub fn unseal(&self) -> Vec<Observation> {
        let mut out = Vec::with_capacity(self.count as usize);
        let mut scratch = ScanScratch::default();
        self.for_each_with(&mut scratch, &mut |o| out.push(o.clone()));
        out
    }

    /// Splits off the rows whose position lies inside `region` as a new
    /// resident segment, without modifying `self`. Blocks whose whole
    /// cell scope is inside `region` are byte-copied; partial blocks are
    /// decoded, filtered, and re-encoded. Returns `None` when nothing
    /// matches. Deterministic: the same source segment and region always
    /// produce an identical sub-segment (same digest), so retried
    /// exports/installs deduplicate cleanly.
    pub(crate) fn split_region(&self, grid: &GridSpec, region: &BBox) -> Option<SealedSegment> {
        let (sub, _) = self.partition_region(grid, region);
        sub
    }

    /// Builds (matching, remainder) segments for `region` in one pass.
    /// Either side is `None` when empty; untouched blocks are byte-copied
    /// into whichever side they belong to.
    pub(crate) fn partition_region(
        &self,
        grid: &GridSpec,
        region: &BBox,
    ) -> (Option<SealedSegment>, Option<SealedSegment>) {
        let mut inside = SegmentBuilder::new(self.slice_len);
        let mut outside = SegmentBuilder::new(self.slice_len);
        let mut rows = Vec::new();
        let mut scratch = Vec::new();
        let mut k = 0;
        for block in self.payload_order() {
            while k + 1 < self.bases.len() && self.bases[k + 1] <= block.offset {
                k += 1;
            }
            let slice = self.number + k as u64;
            let scope = cell_scope(grid, block.cell);
            if region.contains_bbox(&scope) {
                inside.push_slice(slice, &[block], self);
            } else if region.intersection(&scope).is_none() {
                outside.push_slice(slice, &[block], self);
            } else {
                let (start, end) = (block.offset as usize, (block.offset + block.len) as usize);
                rows.clear();
                decode_batch_into(&mut self.bytes(start, end, &mut scratch), &mut rows)
                    .expect("sealed block decodes");
                let (hit, miss): (Vec<Observation>, Vec<Observation>) =
                    rows.drain(..).partition(|o| region.contains(o.position));
                inside.push_rows(slice, block.cell, &hit);
                outside.push_rows(slice, block.cell, &miss);
            }
        }
        (inside.finish(), outside.finish())
    }

    /// Whether any stored cell's scope intersects `region` — a cheap
    /// footer-only pre-check before paying for a rewrite.
    pub(crate) fn touches(&self, grid: &GridSpec, region: &BBox) -> bool {
        self.directory
            .iter()
            .any(|b| region.intersection(&cell_scope(grid, b.cell)).is_some())
    }

    /// The directory indices of packed cell `cell`'s blocks whose slice
    /// `window` meets, slice ascending — one directory search, which the
    /// kNN ring expansion makes per cell it reads.
    pub(crate) fn cell_blocks(
        &self,
        cell: u32,
        window: &TimeInterval,
    ) -> impl Iterator<Item = usize> + '_ {
        #[cfg(test)]
        CELL_READS.with(|reads| {
            let (lookups, rows) = reads.get();
            reads.set((lookups + 1, rows));
        });
        let start = self.directory.partition_point(|b| b.cell < cell);
        let meets = self.slices_meeting(window);
        let every = meets == Some((0, self.bases.len() - 1));
        self.directory[start..]
            .iter()
            .take_while(move |b| b.cell == cell)
            .enumerate()
            .map(move |(j, _)| start + j)
            .filter(move |&i| {
                every || meets.is_some_and(|(lo, hi)| (lo..=hi).contains(&self.slice_of(i)))
            })
    }

    /// The stored rows of block `i` passing `keep(id, time, position,
    /// class)`, appended to `out`. kNN ring expansion folds its window
    /// check and the k-th-distance bound as it stands at this block into
    /// the predicate, so rows that cannot make the answer are never fully
    /// decoded.
    pub(crate) fn block_filtered(
        &self,
        i: usize,
        keep: impl FnMut(ObservationId, Timestamp, Point, EntityClass) -> bool,
        out: &mut Vec<Observation>,
        scratch: &mut ScanScratch,
    ) {
        #[cfg(test)]
        let before = out.len();
        let block = self.directory[i];
        let mut bytes = self.bytes(
            block.offset as usize,
            (block.offset + block.len) as usize,
            &mut scratch.bytes,
        );
        decode_batch_filtered(&mut bytes, keep, out).expect("sealed block decodes");
        #[cfg(test)]
        CELL_READS.with(|reads| {
            let (lookups, rows) = reads.get();
            reads.set((lookups, rows + out.len() - before));
        });
    }

    /// The wire/at-rest frame of this segment (clones the payload;
    /// spilled segments read it back from disk). The frame lists the
    /// directory in payload order, and its window is the first slice's.
    pub fn to_frame(&self) -> SegmentFrame {
        let payload = self
            .payload()
            .expect("segment spill file read")
            .into_owned();
        SegmentFrame {
            number: self.number,
            window: self.slice_window(0),
            count: self.count,
            checksum: self.checksum,
            directory: self.payload_order(),
            payload,
        }
    }

    /// Adopts a decoded frame (structure already validated by the codec
    /// layer). Verifies the content checksums — every block's rows must
    /// fold to the advertised block checksum — so a peer cannot install a
    /// frame whose digest misrepresents its contents, and derives each
    /// block's slice from its rows: the frame's window is its first
    /// slice, whose length gives every later block's slice; all rows of a
    /// block share one slice of that slice's aligned group, the first
    /// block's is `number`, and slices ascend through the payload with
    /// cells ascending within each.
    pub fn from_frame(frame: SegmentFrame) -> Result<SealedSegment, DecodeError> {
        let fail = |reason: &'static str| Err(DecodeError::InvalidValue { reason });
        let slice_len = frame.window.duration();
        let first_start = frame.number.checked_mul(slice_len.as_millis());
        if slice_len == Duration::ZERO || first_start != Some(frame.window.start().as_millis()) {
            return fail("segment window is not its first slice");
        }
        let mut slices: Vec<(u64, u32)> = Vec::new();
        let mut prev_cell = 0;
        for (i, block) in frame.directory.iter().enumerate() {
            let mut bytes = frame.block_payload(i);
            let rows = decode_batch(&mut bytes).map_err(|_| DecodeError::InvalidValue {
                reason: "segment block payload does not decode",
            })?;
            if rows.len() != block.count as usize {
                return fail("segment block count does not match payload");
            }
            let fold = rows
                .iter()
                .fold(0u64, |acc, o| acc ^ observation_checksum(o));
            if fold != block.checksum {
                return fail("segment block checksum does not match payload");
            }
            let slice = slice_number(rows[0].time, slice_len);
            if rows
                .iter()
                .any(|o| slice_number(o.time, slice_len) != slice)
            {
                return fail("segment block spans slices");
            }
            if slice < frame.number || group_start(slice) != group_start(frame.number) {
                return fail("segment row outside its slice group");
            }
            match slices.last() {
                Some(&(s, _)) if s == slice && block.cell <= prev_cell => {
                    return fail("segment blocks not ascending by cell within a slice");
                }
                Some(&(s, _)) if s > slice => {
                    return fail("segment slices not ascending in the payload");
                }
                Some(&(s, _)) if s == slice => {}
                _ => slices.push((slice, block.offset)),
            }
            prev_cell = block.cell;
        }
        if slices.first().is_some_and(|&(s, _)| s != frame.number) {
            return fail("segment number is not its first slice");
        }
        let mut directory = frame.directory;
        directory.sort_unstable_by_key(|b| (b.cell, b.offset));
        Ok(SealedSegment {
            number: frame.number,
            slice_len,
            bases: bases_of(&slices, frame.payload.len()),
            count: frame.count,
            checksum: frame.checksum,
            directory,
            data: SegmentData::Resident(frame.payload),
            memo: HeatmapMemo::default(),
        })
    }

    /// One segment holding every row of `inputs` (segments of one slice
    /// group, of one slice length), or `None` when they hold none.
    ///
    /// A slice held by one input is byte-copied whole; where several hold
    /// a slice, a cell held by one of them is byte-copied and a cell held
    /// by several is re-encoded from their rows in input order. The
    /// result lists its slices' blocks back to back, slice ascending.
    /// What it copies from a spilled input it shares (see
    /// [`SegmentData::Spilled`]), so a merge of spilled segments reads and
    /// writes only the cells it re-encodes.
    ///
    /// # Errors
    ///
    /// A re-encoded block that cannot be read (a spill file) or does not
    /// decode: the caller keeps the inputs as they are.
    pub(crate) fn merge(inputs: &[&SealedSegment]) -> io::Result<Option<SealedSegment>> {
        let Some(first) = inputs.first() else {
            return Ok(None);
        };
        let orders: Vec<Vec<SegmentBlock>> = inputs.iter().map(|s| s.payload_order()).collect();
        let lo = inputs.iter().map(|s| s.number).min().unwrap_or(0);
        let hi = inputs.iter().map(|s| s.last_number()).max().unwrap_or(0);
        let mut builder = SegmentBuilder::new(first.slice_len);
        let (mut rows, mut scratch) = (Vec::new(), Vec::new());
        for slice in lo..=hi {
            let held: Vec<(usize, &[SegmentBlock])> = inputs
                .iter()
                .enumerate()
                .map(|(j, s)| (j, s.slice_blocks(&orders[j], slice)))
                .filter(|(_, blocks)| !blocks.is_empty())
                .collect();
            if let [(j, blocks)] = held.as_slice() {
                builder.push_slice(slice, blocks, inputs[*j]);
                continue;
            }
            let mut cells: Vec<(usize, SegmentBlock)> = held
                .iter()
                .flat_map(|&(j, blocks)| blocks.iter().map(move |b| (j, *b)))
                .collect();
            // Stable: a cell's blocks stay in input order.
            cells.sort_by_key(|(_, b)| b.cell);
            for same in cells.chunk_by(|a, b| a.1.cell == b.1.cell) {
                if let [(j, block)] = same {
                    builder.push_slice(slice, &[*block], inputs[*j]);
                    continue;
                }
                rows.clear();
                for &(j, b) in same {
                    let (start, end) = (b.offset as usize, (b.offset + b.len) as usize);
                    let mut raw = inputs[j].read(start, end, &mut scratch)?;
                    decode_batch_into(&mut raw, &mut rows).map_err(corrupt)?;
                }
                builder.push_rows(slice, same[0].1.cell, &rows);
            }
        }
        Ok(builder.finish())
    }

    /// This segment holding only the slices `keep` accepts, by byte
    /// filter: the kept slices' payload is copied as it is (shared, when
    /// spilled). `None` when nothing is left.
    pub(crate) fn retain_slices(&self, keep: impl Fn(u64) -> bool) -> Option<SealedSegment> {
        let order = self.payload_order();
        let mut builder = SegmentBuilder::new(self.slice_len);
        for s in (self.number..=self.last_number()).filter(|&s| keep(s)) {
            builder.push_slice(s, self.slice_blocks(&order, s), self);
        }
        builder.finish()
    }
}

/// Hands `f` the time and position of every row of `bytes`, whole blocks
/// back to back, through the key columns alone ([`scan_batch_keys`]).
fn scan_keys(mut bytes: &[u8], mut f: impl FnMut(Timestamp, Point)) {
    while !bytes.is_empty() {
        scan_batch_keys(&mut bytes, &mut f).expect("sealed block decodes");
    }
}

/// The per-slice payload bases of a segment whose non-empty slices start
/// at the given `(slice, offset)` pairs (ascending), its payload
/// `payload_len` bytes long.
fn bases_of(slices: &[(u64, u32)], payload_len: usize) -> Vec<u32> {
    let (Some(&(first, _)), Some(&(last, _))) = (slices.first(), slices.last()) else {
        return vec![0];
    };
    let mut bases = vec![0u32; (last - first + 1) as usize];
    let mut next = slices.iter().rev().peekable();
    let mut start = payload_len as u32;
    for slice in (first..=last).rev() {
        if let Some(&(_, base)) = next.next_if(|&&(s, _)| s == slice) {
            start = base;
        }
        bases[(slice - first) as usize] = start;
    }
    bases
}

#[cfg(test)]
thread_local! {
    /// Directory searches made by [`SealedSegment::cell_blocks`] on this
    /// thread, and the rows [`SealedSegment::block_filtered`] decoded
    /// whole: what the kNN pruning test counts.
    pub(crate) static CELL_READS: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Reusable decode buffers threaded through segment scans so repeated
/// block decodes reuse allocations.
#[derive(Debug, Default)]
pub(crate) struct ScanScratch {
    /// Spilled-read byte buffer.
    bytes: Vec<u8>,
    /// Per-block decoded rows.
    rows: Vec<Observation>,
}

/// Accumulates blocks (raw or re-encoded) into a new segment, slice
/// ascending and, within a slice, cell ascending. Bytes copied from a
/// resident segment or encoded here go into the builder's own payload;
/// bytes copied from a spilled segment are shared as runs of its files.
struct SegmentBuilder {
    slice_len: Duration,
    /// `(slice, payload offset of its first block)` of every slice
    /// pushed so far.
    slices: Vec<(u64, u32)>,
    /// The payload up to `payload`, when a block was shared.
    runs: Vec<Run>,
    /// Bytes of `runs`.
    shared: usize,
    /// The payload after `runs`.
    payload: Vec<u8>,
    directory: Vec<SegmentBlock>,
    count: u64,
    checksum: u64,
}

impl SegmentBuilder {
    fn new(slice_len: Duration) -> Self {
        SegmentBuilder {
            slice_len,
            slices: Vec::new(),
            runs: Vec::new(),
            shared: 0,
            payload: Vec::new(),
            directory: Vec::new(),
            count: 0,
            checksum: 0,
        }
    }

    /// The payload offset the next byte lands at.
    fn offset(&self) -> u32 {
        (self.shared + self.payload.len()) as u32
    }

    /// Opens `slice` at the end of the payload unless it is the open one.
    fn enter(&mut self, slice: u64) {
        if self.slices.last().is_none_or(|&(s, _)| s != slice) {
            debug_assert!(self.slices.last().is_none_or(|&(s, _)| s < slice));
            self.slices.push((slice, self.offset()));
        }
    }

    /// Appends `source`'s payload bytes `start..end`: copied when
    /// resident, shared when spilled.
    fn copy(&mut self, source: &SealedSegment, start: usize, end: usize) {
        let runs = match &source.data {
            SegmentData::Resident(payload) => {
                self.payload.extend_from_slice(&payload[start..end]);
                return;
            }
            SegmentData::Spilled { runs, .. } => runs_of(runs, start, end),
        };
        if !self.payload.is_empty() {
            self.shared += self.payload.len();
            self.runs
                .push(Run::Memory(std::mem::take(&mut self.payload)));
        }
        for run in runs {
            self.shared += run.len();
            match (self.runs.last_mut(), run) {
                // The next bytes of the same file extend the run.
                (
                    Some(Run::File { file, pos, len }),
                    Run::File {
                        file: next,
                        pos: at,
                        len: more,
                    },
                ) if Arc::ptr_eq(file, &next) && *pos + *len as u64 == at => *len += more,
                (Some(Run::Memory(bytes)), Run::Memory(more)) => bytes.extend_from_slice(&more),
                (_, run) => self.runs.push(run),
            }
        }
    }

    /// Byte-copies `blocks` (one slice's blocks of `source`, in payload
    /// order and adjacent in it) with one copy of the bytes they span;
    /// directory entries are recomputed for the new offsets.
    fn push_slice(&mut self, slice: u64, blocks: &[SegmentBlock], source: &SealedSegment) {
        let (Some(first), Some(last)) = (blocks.first(), blocks.last()) else {
            return;
        };
        self.enter(slice);
        let shift = self.offset();
        self.copy(
            source,
            first.offset as usize,
            (last.offset + last.len) as usize,
        );
        for block in blocks {
            self.directory.push(SegmentBlock {
                offset: shift + block.offset - first.offset,
                ..*block
            });
            self.count += block.count as u64;
            self.checksum ^= block.checksum;
        }
    }

    /// Encodes `rows` as a fresh block for `cell` of `slice` (no-op when
    /// empty).
    fn push_rows(&mut self, slice: u64, cell: u32, rows: &[Observation]) {
        if rows.is_empty() {
            return;
        }
        self.enter(slice);
        let offset = self.offset();
        encode_batch(rows, &mut self.payload);
        let checksum = rows
            .iter()
            .fold(0u64, |acc, o| acc ^ observation_checksum(o));
        self.directory.push(SegmentBlock {
            cell,
            offset,
            len: self.offset() - offset,
            count: rows.len() as u32,
            checksum,
        });
        self.count += rows.len() as u64;
        self.checksum ^= checksum;
    }

    fn finish(mut self) -> Option<SealedSegment> {
        let &(number, _) = self.slices.first()?;
        if self.slices.len() > 1 {
            // Each slice's blocks went in cell-ascending and the slices in
            // order: a stable sort by cell merges those runs into (cell,
            // slice) order.
            self.directory.sort_by_key(|b| b.cell);
        }
        let len = self.offset() as usize;
        let data = if self.runs.is_empty() {
            SegmentData::Resident(self.payload)
        } else {
            if !self.payload.is_empty() {
                self.runs.push(Run::Memory(self.payload));
            }
            SegmentData::Spilled {
                len,
                runs: self.runs,
            }
        };
        Some(SealedSegment {
            number,
            slice_len: self.slice_len,
            bases: bases_of(&self.slices, len),
            count: self.count,
            checksum: self.checksum,
            directory: self.directory,
            data,
            memo: HeatmapMemo::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A segment whose directory lists `cells` (ascending, distinct) and
    /// nothing else: `block_runs` reads only the directory.
    fn directory_of(cells: &[u32]) -> SealedSegment {
        let directory = (0u32..)
            .zip(cells)
            .map(|(i, &cell)| SegmentBlock {
                cell,
                offset: i,
                len: 1,
                count: 1,
                checksum: 0,
            })
            .collect();
        SealedSegment {
            number: 0,
            slice_len: Duration::from_secs(10),
            bases: vec![0],
            count: cells.len() as u64,
            checksum: 0,
            directory,
            data: SegmentData::Resident(Vec::new()),
            memo: HeatmapMemo::default(),
        }
    }

    #[test]
    fn cell_scope_extends_border_cells() {
        let grid = GridSpec::covering(BBox::new(Point::ORIGIN, Point::new(800.0, 800.0)), 400.0);
        // Border cell 0 of the 2 x 2 grid swallows everything below/left of the extent.
        assert!(cell_scope(&grid, 0).contains(Point::new(-9_000.0, -9_000.0)));
        assert!(!cell_scope(&grid, 0).contains(Point::new(500.0, 100.0)));
        // Interior edges stay half-open: an edge point is in exactly one scope.
        let edge = Point::new(400.0, 100.0);
        let containing: Vec<u32> = (0..4)
            .filter(|&c| cell_scope(&grid, c).contains(edge))
            .collect();
        assert_eq!(containing, vec![1]);
    }

    /// The lookup `block_runs` replaced: one binary search per cell.
    fn per_cell_runs(segment: &SealedSegment, cells: &[u32]) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for &cell in cells {
            if let Ok(i) = segment.directory.binary_search_by_key(&cell, |b| b.cell) {
                match runs.last_mut() {
                    Some((_, last)) if *last + 1 == i => *last = i,
                    Some((_, last)) if *last == i => {}
                    _ => runs.push((i, i)),
                }
            }
        }
        runs
    }

    fn band_runs(segment: &SealedSegment, cells: &[u32]) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        segment.block_runs(cells, |first, last| runs.push((first, last)));
        runs
    }

    #[test]
    fn band_lookup_corner_cases() {
        let empty = directory_of(&[]);
        assert!(band_runs(&empty, &[0, 1, 2]).is_empty());
        let segment = directory_of(&[2, 3, 7, 8, 9, 20]);
        assert!(band_runs(&segment, &[]).is_empty());
        // Past the last block, and a single cell.
        assert!(band_runs(&segment, &[21, 22, 40]).is_empty());
        assert_eq!(band_runs(&segment, &[8]), vec![(3, 3)]);
        // Duplicates, and two bands whose blocks are adjacent entries.
        assert_eq!(band_runs(&segment, &[3, 3, 4, 7, 7]), vec![(1, 2)]);
        assert_eq!(
            band_runs(&segment, &[0, 1, 2, 5, 6, 9, 10]),
            vec![(0, 0), (4, 4)]
        );
    }

    fn row(seq: u64, t_ms: u64) -> Observation {
        Observation {
            id: ObservationId::compose(stcam_camnet::CameraId(1), seq),
            camera: stcam_camnet::CameraId(1),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(seq as f64, 0.0),
            class: EntityClass::Car,
            signature: stcam_camnet::Signature::latent_for_entity(seq),
            truth: None,
        }
    }

    #[test]
    fn a_compacted_frame_round_trips_and_a_misordered_one_is_refused() {
        // Slice 9 holds cells 3 and 5, slice 10 nothing, slice 11 cell 2.
        let mut builder = SegmentBuilder::new(Duration::from_secs(10));
        builder.push_rows(9, 3, &[row(0, 91_000), row(1, 92_000)]);
        builder.push_rows(9, 5, &[row(2, 95_000)]);
        builder.push_rows(11, 2, &[row(3, 111_000)]);
        let segment = builder.finish().expect("rows");
        assert_eq!((segment.number(), segment.last_number()), (9, 11));
        assert_eq!(segment.slices().collect::<Vec<_>>(), vec![9, 11]);
        let slices: Vec<(u64, u64)> = segment
            .slice_digests()
            .iter()
            .map(|d| (d.number, d.count))
            .collect();
        assert_eq!(slices, vec![(9, 3), (11, 1)]);
        let cells: Vec<u32> = segment.directory.iter().map(|b| b.cell).collect();
        assert_eq!(cells, vec![2, 3, 5], "the directory is sorted by cell");

        let frame = segment.to_frame();
        let first_slice = TimeInterval::new(Timestamp::from_secs(90), Timestamp::from_secs(100));
        assert_eq!(frame.window, first_slice);
        let cells: Vec<u32> = frame.directory.iter().map(|b| b.cell).collect();
        assert_eq!(
            cells,
            vec![3, 5, 2],
            "the frame lists blocks in payload order"
        );
        let bytes = stcam_codec::encode_to_vec(&frame);
        let back = stcam_codec::decode_from_slice::<SegmentFrame>(&bytes).expect("decodes");
        let again = SealedSegment::from_frame(back).expect("verifies");
        assert_eq!(again.digest(), segment.digest());
        assert_eq!(again.bases, segment.bases);
        assert_eq!(again.directory, segment.directory);
        assert_eq!(again.unseal(), segment.unseal());

        // The blocks of slice 9 swapped: still tiling, cells descending.
        let blocks: Vec<&[u8]> = (0..3).map(|i| frame.block_payload(i)).collect();
        let mut swapped = frame.clone();
        swapped.payload = [blocks[1], blocks[0], blocks[2]].concat();
        let (a, b) = (frame.directory[1], frame.directory[0]);
        swapped.directory[0] = SegmentBlock { offset: 0, ..a };
        swapped.directory[1] = SegmentBlock { offset: a.len, ..b };
        swapped.validate().expect("tiles");
        assert!(SealedSegment::from_frame(swapped).is_err());
        // A window that is not the first slice's, and a number outside
        // the rows' group.
        let shifted = SegmentFrame {
            window: TimeInterval::new(Timestamp::from_secs(100), Timestamp::from_secs(110)),
            ..frame.clone()
        };
        assert!(SealedSegment::from_frame(shifted).is_err());
        let elsewhere = SegmentFrame {
            number: 7,
            window: TimeInterval::new(Timestamp::from_secs(70), Timestamp::from_secs(80)),
            ..frame
        };
        assert!(SealedSegment::from_frame(elsewhere).is_err());
    }

    proptest! {
        /// One search per band of consecutive cells finds exactly the runs
        /// one search per cell found, for any directory and any ascending
        /// cell list, duplicates and cells past the last block included.
        #[test]
        fn band_lookup_matches_the_per_cell_search(
            stored in prop::collection::vec(0u32..64, 0..40),
            cells in prop::collection::vec(0u32..80, 0..48),
        ) {
            let mut stored = stored;
            stored.sort_unstable();
            stored.dedup();
            let mut cells = cells;
            cells.sort_unstable();
            let segment = directory_of(&stored);
            prop_assert_eq!(band_runs(&segment, &cells), per_cell_runs(&segment, &cells));
        }
    }
}
