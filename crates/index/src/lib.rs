//! Single-node spatio-temporal observation index.
//!
//! Each `stcam` worker stores its shard of the observation stream in a
//! [`StIndex`]: a **tiered time-sliced spatial grid**. Time is divided
//! into fixed-length slices (a ring ordered by slice number); within a
//! slice, observations are bucketed by grid cell. The tiers:
//!
//! * **Mutable head** — the most recent slices (configurable depth,
//!   [`IndexConfig::head_slices`]) stay as dense per-cell buckets.
//!   Inserts are appends into the open slice — O(1), no rebalancing,
//!   which is what sustains camera-network ingest rates.
//! * **Sealed archive** — when the open slice advances, closed slices are
//!   frozen into immutable [`SealedSegment`]s: per-cell columnar blocks
//!   (the `stcam-camnet` batch encoding) plus a footer directory mapping
//!   cell → byte range, per-block counts, and order-independent
//!   checksums. Once every slice of an aligned group of [`GROUP_SLICES`]
//!   slices is sealed, the group's segments compact into one by byte
//!   copy, with one directory over the group, so a query searches a
//!   directory once per cell per group. Queries decode only the cells
//!   and slices they touch; whole-cell counts come straight from the
//!   footer; payloads can spill to disk ([`IndexConfig::spill_dir`]) so
//!   archive size is bounded by storage, not RAM.
//!
//! Query semantics are tier-transparent:
//!
//! * Range queries touch exactly the overlapping slices/segments ×
//!   overlapping cells, merging both tiers. A [`Predicate`]'s class and
//!   a limit are tested inside the scan, before a row is cloned or its
//!   wide columns are decoded.
//! * k-nearest-neighbour queries expand cell rings outward from the query
//!   point, skip every cell farther than the current k-th distance, and
//!   stop at the first ring with no cell inside it.
//! * Aggregate (heat-map) queries reduce per cell without materialising
//!   matches, skipping per-row time checks for fully-covered slices.
//! * Retention is slice-granular eviction across both tiers, so memory
//!   stays bounded under unbounded streams.
//!
//! Segments are also the **repair/rejoin transfer unit**: peers ship whole
//! immutable frames ([`StIndex::export_segments`] /
//! [`StIndex::install_segment`]) instead of restreaming per-cell rows, and
//! an install dedups slice by slice by [`SegmentDigest`] (`number`,
//! `count`, XOR-folded checksum). Rebalancing splits segments at cell
//! boundaries, byte-copying untouched blocks.
//!
//! [`FlatIndex`] provides the same query semantics by linear scan, with
//! [`ReadView`]'s read signatures. It is the one unindexed row store: the
//! correctness oracle for tests, the naive baseline in the evaluation,
//! and the store of a worker's replica log.
//!
//! # Example
//!
//! ```
//! use stcam_geo::{BBox, Duration, Point, TimeInterval, Timestamp};
//! use stcam_index::{IndexConfig, StIndex};
//!
//! let config = IndexConfig::new(
//!     BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
//!     50.0,                      // spatial cell size, metres
//!     Duration::from_secs(10),   // slice length
//! );
//! let index = StIndex::new(config);
//! assert_eq!(index.len(), 0);
//! let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(60));
//! assert!(index.range(BBox::around(Point::new(500.0, 500.0), 100.0), window).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod flat;
mod index;
mod segment;
mod select;
mod slice;
mod store;
mod view;

pub use flat::FlatIndex;
pub use index::{IndexConfig, IndexStats, StIndex, DEFAULT_HEAD_SLICES};
pub use segment::{cell_scope, observation_checksum, SealedSegment, SegmentDigest, GROUP_SLICES};
pub use select::Predicate;
pub use slice::slice_number;
pub use view::{sort_by_id, ReadView, SPLIT_SCAN_ROWS};
