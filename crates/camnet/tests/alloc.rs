//! The batch frame's hot paths allocate nothing of their own: a sealed
//! block decodes into the caller's spare capacity, and a batch encodes
//! into a reserved buffer, with zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stcam_camnet::batch::encode_batch;
use stcam_camnet::{
    decode_batch_filtered, decode_batch_into, scan_batch_keys, CameraId, Observation,
    ObservationId, Signature,
};
use stcam_geo::{Point, Timestamp};
use stcam_world::{EntityClass, EntityId};

thread_local! {
    /// Allocations made by this thread; per thread, so tests running
    /// beside each other do not count each other's.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn row(seq: u64, x: f64) -> Observation {
    Observation {
        id: ObservationId::compose(CameraId(7), seq),
        camera: CameraId(7),
        time: Timestamp::from_millis(1_000 + seq * 40),
        position: Point::new(x, 250.5),
        class: EntityClass::Car,
        signature: Signature::latent_for_entity(seq),
        truth: seq.is_multiple_of(2).then_some(EntityId(seq)),
    }
}

/// The block shape the stream seals: two rows of one cell.
fn block(x: f64) -> (Vec<Observation>, Vec<u8>) {
    let rows = vec![row(10, x), row(11, x + 1.0)];
    let mut bytes = Vec::new();
    encode_batch(&rows, &mut bytes);
    (rows, bytes)
}

#[test]
fn a_block_decodes_into_spare_capacity_without_allocating() {
    // Fixed-point (on the 1/1024 m grid) and raw positions.
    for x in [12.5, 12.1] {
        let (rows, bytes) = block(x);
        let mut out = Vec::with_capacity(8);
        assert_eq!(
            allocations(|| decode_batch_into(&mut &bytes[..], &mut out).expect("decode")),
            0
        );
        assert_eq!(out, rows);

        out.clear();
        let filtered = allocations(|| {
            decode_batch_filtered(&mut &bytes[..], |_, _, p, _| p.x > x, &mut out).expect("decode");
        });
        assert_eq!(filtered, 0);
        assert_eq!(out, rows[1..]);

        let mut visits = 0;
        let scanned = allocations(|| {
            scan_batch_keys(&mut &bytes[..], |_, _| visits += 1).expect("scan");
        });
        assert_eq!((scanned, visits), (0, 2));
    }
}

#[test]
fn a_batch_encodes_into_a_reserved_buffer_without_allocating() {
    for x in [12.5, 12.1] {
        let rows: Vec<Observation> = (0..500).map(|seq| row(seq, x + seq as f64)).collect();
        let mut bytes = Vec::with_capacity(64 * 1024);
        assert_eq!(allocations(|| encode_batch(&rows, &mut bytes)), 0);
        let (_, block_bytes) = block(x + 10.0);
        bytes.clear();
        assert_eq!(allocations(|| encode_batch(&rows[10..12], &mut bytes)), 0);
        assert_eq!(bytes, block_bytes);
    }
}
