//! Columnar wire frame for observation batches.
//!
//! The row-oriented `Vec<Observation>` encoding repeats per-field framing
//! for every observation even though consecutive observations in a batch
//! are highly correlated: ids and timestamps are near-monotonic, camera
//! ids repeat in runs, classes fit in two bits, and ground-truth entity
//! ids track the observation sequence. [`encode_batch`] exploits that by
//! laying the batch out **by column**:
//!
//! ```text
//! count      varint n                    (0 ⇒ frame ends here)
//! flags      u8                          bit 0: fixed-point positions
//! ids        varint first, then n-1 zigzag deltas
//! cameras    run-length pairs (varint run, varint camera) summing to n
//! times      varint first ms, then n-1 zigzag delta-ms
//! classes    2 bits each, packed 4 per byte
//! positions  fixed-point: 2 zigzag varints per obs (1/1024 m units)
//!            raw:         2 × f64 LE per obs
//! signatures 16 × f32 LE per obs
//! truth      presence bitmap ⌈n/8⌉ bytes, then per present truth a
//!            zigzag varint of (entity − id.seq()) (wrapping)
//! ```
//!
//! Positions use the fixed-point column only when every coordinate in the
//! batch is exactly representable in 1/1024-metre units (checked per
//! batch, signalled by the flag byte); otherwise raw `f64` bits are
//! shipped. Either way the round-trip is **lossless** — callers such as
//! the chaos harness compare query answers bit-for-bit against a
//! centralized oracle. Signatures are calibrated sensor noise and do not
//! compress losslessly, so they stay raw and dominate the residual cost
//! — except when every signature in the batch is all-zero (column
//! projection blanked them before shipping), in which case flag bit 1
//! elides the whole column and the decoder refills zeros.

use bytes::{Buf, BufMut};
use stcam_codec::{varint, DecodeError, Wire, WireAs, MAX_SEQ_LEN};
use stcam_geo::{Point, Timestamp};
use stcam_world::{EntityClass, EntityId};

use crate::camera::CameraId;
use crate::observation::{Observation, ObservationId};
use crate::signature::{Signature, SIGNATURE_DIM};

/// Fixed-point position resolution: 1/1024 m (≈ 1 mm).
const POS_SCALE: f64 = 1024.0;
/// Flag bit: positions are fixed-point varints instead of raw `f64`.
const FLAG_FIXED_POINT_POS: u8 = 0b0000_0001;
/// Flag bit: every signature in the batch is all-zero (projected away),
/// so the signature column is elided and decoders refill zeros.
const FLAG_NO_SIGNATURES: u8 = 0b0000_0010;
/// Bytes of one row's signature.
const SIGNATURE_BYTES: usize = 4 * SIGNATURE_DIM;

/// Whether `v` scaled to fixed point is an integer that converts back to
/// `v` exactly.
fn on_fixed_grid(v: f64) -> bool {
    let scaled = v * POS_SCALE;
    // `fract() == 0` rejects NaN/∞ too; the magnitude bound keeps the
    // integer exactly representable both as i64 and as f64.
    scaled.fract() == 0.0 && scaled.abs() <= (1i64 << 52) as f64
}

/// Reads and validates the count + flags prefix of one batch frame.
/// An empty frame (`n == 0`) has no flag byte; `flags` is 0 then.
fn frame_header(rest: &mut &[u8]) -> Result<(usize, u8), DecodeError> {
    let n = varint::read_u64(rest)?;
    if n > MAX_SEQ_LEN {
        return Err(DecodeError::LengthOverflow {
            declared: n,
            max: MAX_SEQ_LEN,
        });
    }
    let n = n as usize;
    if n == 0 {
        return Ok((0, 0));
    }
    let flags = take(rest, 1, "batch flags")?[0];
    if flags & !(FLAG_FIXED_POINT_POS | FLAG_NO_SIGNATURES) != 0 {
        return Err(DecodeError::InvalidValue {
            reason: "unknown batch flags",
        });
    }
    Ok((n, flags))
}

/// Appends the columnar wire form of `batch` to `buf`. Allocates nothing
/// beyond `buf`'s growth: the position layout is decided in one pass over
/// the rows and written in another, and each signature goes out as one
/// slice.
pub fn encode_batch<B: BufMut>(batch: &[Observation], buf: &mut B) {
    varint::write_u64(buf, batch.len() as u64);
    if batch.is_empty() {
        return;
    }

    let fixed = batch
        .iter()
        .all(|o| on_fixed_grid(o.position.x) && on_fixed_grid(o.position.y));
    let mut flags = if fixed { FLAG_FIXED_POINT_POS } else { 0 };
    // Bit-for-bit zero check: `v == 0.0` would also accept -0.0, which
    // the zero refill on decode could not reproduce losslessly.
    let no_signatures = batch
        .iter()
        .all(|o| o.signature.values().iter().all(|v| v.to_bits() == 0));
    if no_signatures {
        flags |= FLAG_NO_SIGNATURES;
    }
    buf.put_u8(flags);

    // ids: absolute first, wrapping zigzag deltas after.
    varint::write_u64(buf, batch[0].id.0);
    for pair in batch.windows(2) {
        varint::write_i64(buf, pair[1].id.0.wrapping_sub(pair[0].id.0) as i64);
    }

    // cameras: run-length encoded.
    let mut run_start = 0;
    for i in 1..=batch.len() {
        if i == batch.len() || batch[i].camera != batch[run_start].camera {
            varint::write_u64(buf, (i - run_start) as u64);
            varint::write_u64(buf, batch[run_start].camera.0 as u64);
            run_start = i;
        }
    }

    // times: absolute first, wrapping zigzag delta-millis after.
    varint::write_u64(buf, batch[0].time.as_millis());
    for pair in batch.windows(2) {
        varint::write_i64(
            buf,
            pair[1]
                .time
                .as_millis()
                .wrapping_sub(pair[0].time.as_millis()) as i64,
        );
    }

    // classes: 2 bits each, 4 per byte.
    for chunk in batch.chunks(4) {
        let mut byte = 0u8;
        for (slot, obs) in chunk.iter().enumerate() {
            byte |= obs.class.as_u8() << (2 * slot);
        }
        buf.put_u8(byte);
    }

    // positions: fixed-point only when every coordinate is on the grid.
    for obs in batch {
        let Point { x, y } = obs.position;
        if fixed {
            varint::write_i64(buf, (x * POS_SCALE) as i64);
            varint::write_i64(buf, (y * POS_SCALE) as i64);
        } else {
            buf.put_f64_le(x);
            buf.put_f64_le(y);
        }
    }

    // signatures: raw, elided entirely when all-zero.
    if !no_signatures {
        for obs in batch {
            let mut raw = [0u8; SIGNATURE_BYTES];
            for (bytes, v) in raw.chunks_exact_mut(4).zip(obs.signature.values()) {
                bytes.copy_from_slice(&v.to_le_bytes());
            }
            buf.put_slice(&raw);
        }
    }

    // truth: presence bitmap, then wrapping deltas vs the id sequence.
    for chunk in batch.chunks(8) {
        let mut byte = 0u8;
        for (slot, obs) in chunk.iter().enumerate() {
            if obs.truth.is_some() {
                byte |= 1 << slot;
            }
        }
        buf.put_u8(byte);
    }
    for obs in batch {
        if let Some(entity) = obs.truth {
            varint::write_i64(buf, entity.0.wrapping_sub(obs.id.seq()) as i64);
        }
    }
}

/// Reads one columnar batch frame from `buf`.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, a hostile length prefix,
/// or malformed run-length structure.
pub fn decode_batch<B: Buf>(buf: &mut B) -> Result<Vec<Observation>, DecodeError> {
    let mut out = Vec::new();
    decode_batch_into(buf, &mut out)?;
    Ok(out)
}

/// Like [`decode_batch`], but **appends** the decoded observations to
/// `out` instead of allocating a fresh vector: segment readers scanning
/// many per-cell blocks and clients decoding pages into one answer reuse
/// one output allocation, and a block that fits `out`'s spare capacity
/// decodes without allocating. On error `out` keeps its length.
pub fn decode_batch_into<B: Buf>(
    buf: &mut B,
    out: &mut Vec<Observation>,
) -> Result<(), DecodeError> {
    decode_batch_filtered(buf, |_, _, _, _| true, out).map(drop)
}

/// Like [`decode_batch_into`], but keeps only rows for which
/// `keep(id, time, position, class)` returns `true`; `keep` is called
/// exactly once per row, in row order. The wide columns — signatures
/// (`16 × f32` per row) and truth — are decoded **only for kept rows**; a
/// dropped row costs a few varint steps. Sealed-segment readers use this
/// to answer partially-covered blocks without paying full decode for rows
/// outside the query region, window or class, or above a range's id cut.
/// Consumes exactly one frame; returns its total row count.
///
/// The frame is read in two passes over `buf.chunk()` (the whole of a
/// buffer of the vendored `bytes`, which is contiguous): the first finds
/// every column and checks its structure and length, then one cursor per
/// column decodes the rows side by side, each kept row written into `out`
/// once. No column is buffered on its own, and `out` grows only when a
/// row is kept, by at most the rows left in the frame.
///
/// # Errors
///
/// As [`decode_batch`]; on error `out` keeps its length.
pub fn decode_batch_filtered<B: Buf>(
    buf: &mut B,
    keep: impl FnMut(ObservationId, Timestamp, Point, EntityClass) -> bool,
    out: &mut Vec<Observation>,
) -> Result<usize, DecodeError> {
    let bytes = buf.chunk();
    let mut columns = Columns::locate(bytes)?;
    let base = out.len();
    decode_rows(&mut columns, keep, out).inspect_err(|_| out.truncate(base))?;
    let (n, used) = (columns.n, columns.end(bytes));
    buf.advance(used);
    Ok(n)
}

/// Decodes the rows of `columns` that pass `keep` onto `out`.
fn decode_rows(
    columns: &mut Columns<'_>,
    mut keep: impl FnMut(ObservationId, Timestamp, Point, EntityClass) -> bool,
    out: &mut Vec<Observation>,
) -> Result<(), DecodeError> {
    let (mut id, mut ms, mut run, mut camera) = (0u64, 0u64, 0, CameraId(0));
    for i in 0..columns.n {
        id = id.wrapping_add(next_delta(&mut columns.ids, i)?);
        if run == 0 {
            (run, camera) = camera_run(&mut columns.cameras, columns.n - i)?;
        }
        run -= 1;
        ms = ms.wrapping_add(next_delta(&mut columns.times, i)?);
        let time = Timestamp::from_millis(ms);
        let position = read_position(&mut columns.positions, columns.fixed)?;
        let row_id = ObservationId(id);
        // Two bits name one of the four classes.
        let code = (columns.classes[i / 4] >> (2 * (i % 4))) & 0b11;
        let class = EntityClass::ALL[usize::from(code)];
        let kept = keep(row_id, time, position, class);
        let signature = match &mut columns.signatures {
            Some(column) => {
                let (raw, rest) = column.split_first_chunk::<SIGNATURE_BYTES>().ok_or(
                    DecodeError::UnexpectedEnd {
                        context: "signature column",
                    },
                )?;
                *column = rest;
                kept.then(|| signature_from(raw))
            }
            None => None,
        };
        let truth = if columns.present(i) {
            Some(varint::read_i64(&mut columns.truth)?)
        } else {
            None
        };
        if !kept {
            continue;
        }
        if out.len() == out.capacity() {
            out.reserve(columns.n - i);
        }
        out.push(Observation {
            id: row_id,
            camera,
            time,
            position,
            class,
            signature: signature.unwrap_or(Signature::new([0.0; SIGNATURE_DIM])),
            truth: truth.map(|delta| EntityId(row_id.seq().wrapping_add(delta as u64))),
        });
    }
    Ok(())
}

/// The columns of one frame, each a cursor at its first byte, found and
/// checked by [`Columns::locate`]: the row decoders read them side by
/// side, one row at a time, so no column is decoded into a buffer first.
struct Columns<'a> {
    n: usize,
    /// Positions are fixed-point varints, not raw `f64` pairs.
    fixed: bool,
    ids: &'a [u8],
    cameras: &'a [u8],
    times: &'a [u8],
    classes: &'a [u8],
    positions: &'a [u8],
    /// `None` when the frame elides the column (every signature zero).
    signatures: Option<&'a [u8]>,
    present: &'a [u8],
    /// The truth deltas, then whatever follows the frame.
    truth: &'a [u8],
}

impl<'a> Columns<'a> {
    /// Steps over every column of the frame at the front of `bytes` up to
    /// the truth deltas, checking the count and flags, the camera runs
    /// (lengths summing to the count, ids in range) and the length of each
    /// fixed-width column. The varint columns are only stepped over here;
    /// the row pass reads and checks their values.
    fn locate(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let mut rest = bytes;
        let (n, flags) = frame_header(&mut rest)?;
        let ids = skip_varints(&mut rest, n)?;
        let cameras = rest;
        let mut seen = 0;
        while seen < n {
            seen += camera_run(&mut rest, n - seen)?.0;
        }
        let times = skip_varints(&mut rest, n)?;
        let classes = take(&mut rest, n.div_ceil(4), "class column")?;
        let fixed = flags & FLAG_FIXED_POINT_POS != 0;
        let positions = if fixed {
            skip_varints(&mut rest, 2 * n)?
        } else {
            take(&mut rest, 16 * n, "position column")?
        };
        let signatures = if flags & FLAG_NO_SIGNATURES == 0 {
            Some(take(&mut rest, SIGNATURE_BYTES * n, "signature column")?)
        } else {
            None
        };
        let present = take(&mut rest, n.div_ceil(8), "truth bitmap")?;
        Ok(Columns {
            n,
            fixed,
            ids,
            cameras,
            times,
            classes,
            positions,
            signatures,
            present,
            truth: rest,
        })
    }

    /// Whether row `i` has a truth delta.
    fn present(&self, i: usize) -> bool {
        (self.present[i / 8] >> (i % 8)) & 1 == 1
    }

    /// The length of the frame in `bytes`, once the truth cursor is past
    /// its last delta.
    fn end(&self, bytes: &[u8]) -> usize {
        bytes.len() - self.truth.len()
    }
}

// --- column readers ------------------------------------------------------

/// The first `len` bytes of `rest`, which moves past them.
fn take<'a>(
    rest: &mut &'a [u8],
    len: usize,
    context: &'static str,
) -> Result<&'a [u8], DecodeError> {
    let (column, after) = rest
        .split_at_checked(len)
        .ok_or(DecodeError::UnexpectedEnd { context })?;
    *rest = after;
    Ok(column)
}

/// Moves `rest` past `count` varints, counting their last bytes, and
/// returns where they start.
fn skip_varints<'a>(rest: &mut &'a [u8], count: usize) -> Result<&'a [u8], DecodeError> {
    let start = *rest;
    if count > 0 {
        let mut left = count;
        let last = rest
            .iter()
            .position(|&b| {
                left -= usize::from(b < 0x80);
                left == 0
            })
            .ok_or(DecodeError::UnexpectedEnd { context: "varint" })?;
        *rest = &rest[last + 1..];
    }
    Ok(start)
}

/// Row `i`'s step in an id or time column: the first value is absolute,
/// the rest are wrapping zigzag deltas from the one before.
fn next_delta(column: &mut &[u8], i: usize) -> Result<u64, DecodeError> {
    match i {
        0 => varint::read_u64(column),
        _ => varint::read_i64(column).map(|delta| delta as u64),
    }
}

fn camera_run(column: &mut &[u8], left: usize) -> Result<(usize, CameraId), DecodeError> {
    let run = varint::read_u64(column)?;
    if run == 0 || run > left as u64 {
        return Err(DecodeError::InvalidValue {
            reason: "camera run length out of bounds",
        });
    }
    let camera = varint::read_u64(column)?;
    let camera = u32::try_from(camera).map_err(|_| DecodeError::InvalidValue {
        reason: "camera id out of range",
    })?;
    Ok((run as usize, CameraId(camera)))
}

fn read_position(column: &mut &[u8], fixed: bool) -> Result<Point, DecodeError> {
    if fixed {
        let x = varint::read_i64(column)? as f64 / POS_SCALE;
        let y = varint::read_i64(column)? as f64 / POS_SCALE;
        Ok(Point::new(x, y))
    } else {
        let raw = take(column, 16, "position column")?;
        let (x, y) = raw.split_at(8);
        Ok(Point::new(f64_le(x), f64_le(y)))
    }
}

fn f64_le(bytes: &[u8]) -> f64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    f64::from_le_bytes(raw)
}

fn signature_from(raw: &[u8; SIGNATURE_BYTES]) -> Signature {
    let mut values = [0f32; SIGNATURE_DIM];
    for (v, c) in values.iter_mut().zip(raw.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Signature::new(values)
}

/// Visits `(time, position)` for every row of one columnar batch frame
/// without materialising observations: only the time and position
/// columns are read, the others stepped over (their structure checked as
/// for [`decode_batch_filtered`], their values not). Sealed-segment count
/// and heatmap scans use this — the signature column alone is `16 × f32`
/// per row, so a key-only visit costs a fraction of [`decode_batch_into`].
/// Consumes exactly one frame; returns its row count.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, a hostile length
/// prefix, or malformed run-length structure.
pub fn scan_batch_keys<B: Buf>(
    buf: &mut B,
    mut f: impl FnMut(Timestamp, Point),
) -> Result<usize, DecodeError> {
    let bytes = buf.chunk();
    let mut columns = Columns::locate(bytes)?;
    let mut ms = 0u64;
    for i in 0..columns.n {
        ms = ms.wrapping_add(next_delta(&mut columns.times, i)?);
        let position = read_position(&mut columns.positions, columns.fixed)?;
        f(Timestamp::from_millis(ms), position);
    }
    for i in 0..columns.n {
        if columns.present(i) {
            varint::read_i64(&mut columns.truth)?;
        }
    }
    let (n, used) = (columns.n, columns.end(bytes));
    buf.advance(used);
    Ok(n)
}

/// A rough upper bound on the encoded size of `batch`, for buffer
/// pre-reservation. Assumes the common case (raw positions, small
/// deltas); never consulted for correctness.
pub fn batch_size_hint(batch: &[Observation]) -> usize {
    16 + batch.len() * (4 + 16 + 4 * SIGNATURE_DIM + 4)
}

/// A true lower bound on the encoded size of `batch` — every row costs an
/// id, a time and two coordinates of at least a byte each, and, unless
/// all of them are elided, its signature — for callers that must not
/// encode a batch just to learn it is too large for a frame.
pub fn batch_size_floor(batch: &[Observation]) -> usize {
    let signatures = batch
        .iter()
        .any(|o| o.signature.values().iter().any(|v| v.to_bits() != 0));
    batch.len() * (4 + if signatures { 4 * SIGNATURE_DIM } else { 0 })
}

/// A `Vec<Observation>` newtype whose [`Wire`] form is the columnar
/// frame, for callers that want the batch layout through the generic
/// codec entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationBatch(pub Vec<Observation>);

impl Wire for ObservationBatch {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        encode_batch(&self.0, buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        decode_batch(buf).map(ObservationBatch)
    }
    fn size_hint(&self) -> usize {
        batch_size_hint(&self.0)
    }
}

/// As the `as ObservationBatch` of a declared message field: a plain row
/// list that travels as one columnar frame.
impl WireAs<Vec<Observation>> for ObservationBatch {
    fn encode<B: BufMut>(rows: &Vec<Observation>, buf: &mut B) {
        encode_batch(rows, buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Vec<Observation>, DecodeError> {
        decode_batch(buf)
    }
    fn size_hint(rows: &Vec<Observation>) -> usize {
        batch_size_hint(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcam_codec::{decode_from_slice, encode_to_vec, encoded_len};

    fn obs(camera: u32, seq: u64, t_ms: u64, x: f64, y: f64) -> Observation {
        Observation {
            id: ObservationId::compose(CameraId(camera), seq),
            camera: CameraId(camera),
            time: Timestamp::from_millis(t_ms),
            position: Point::new(x, y),
            class: EntityClass::ALL[(seq % 4) as usize],
            signature: Signature::latent_for_entity(seq),
            truth: (!seq.is_multiple_of(3)).then_some(EntityId(seq)),
        }
    }

    fn round_trip(batch: Vec<Observation>) -> usize {
        let bytes = encode_to_vec(&ObservationBatch(batch.clone()));
        let back: ObservationBatch = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.0, batch);
        bytes.len()
    }

    #[test]
    fn empty_batch_is_one_byte() {
        assert_eq!(round_trip(vec![]), 1);
    }

    #[test]
    fn typical_stream_round_trips_and_compresses() {
        // A realistic batch: runs of per-camera sequential observations
        // with full-precision (raw) positions.
        let mut batch = Vec::new();
        for camera in 0..4u32 {
            for seq in 0..50u64 {
                batch.push(obs(
                    camera,
                    seq,
                    1_000_000 + seq * 40 + camera as u64,
                    (seq as f64).mul_add(7.31, 13.7),
                    (seq as f64).mul_add(3.77, 101.2),
                ));
            }
        }
        // The row-wise layout: each field in its own `Wire` form.
        let row: usize = batch
            .iter()
            .map(|o| {
                encoded_len(&o.id.0)
                    + encoded_len(&o.camera.0)
                    + encoded_len(&o.time)
                    + encoded_len(&o.position)
                    + 1
                    + 4 * SIGNATURE_DIM
                    + encoded_len(&o.truth.map(|e| e.0))
            })
            .sum();
        let col = round_trip(batch);
        assert!(
            (col as f64) < row as f64 * 0.92,
            "columnar {col} B not smaller than row {row} B"
        );
    }

    #[test]
    fn grid_aligned_positions_use_fixed_point() {
        // Coordinates that are multiples of 1/1024 m trigger the
        // fixed-point position column and shrink further.
        let aligned: Vec<Observation> = (0..64u64)
            .map(|seq| obs(1, seq, seq * 100, seq as f64 * 0.25, 640.5))
            .collect();
        let mut raw = aligned.clone();
        raw[0].position = Point::new(0.1, 640.5); // 0.1 is not exact in 1/1024
        let aligned_len = round_trip(aligned);
        let raw_len = round_trip(raw);
        assert!(aligned_len < raw_len, "{aligned_len} !< {raw_len}");
    }

    #[test]
    fn hostile_values_round_trip() {
        // Extremes that stress the wrapping delta arithmetic and the
        // fixed-point fallback.
        let mut batch = vec![
            obs(0, 0, 0, f64::NAN, f64::INFINITY),
            obs(u32::MAX, (1 << 40) - 1, u64::MAX, -0.0, 1e300),
            obs(7, 1, 5, f64::MIN_POSITIVE, -1e-300),
        ];
        batch[1].truth = Some(EntityId(u64::MAX));
        batch[2].truth = Some(EntityId(0));
        let bytes = encode_to_vec(&ObservationBatch(batch.clone()));
        let back: ObservationBatch = decode_from_slice(&bytes).unwrap();
        // NaN breaks PartialEq; compare it separately, bit-for-bit.
        assert!(back.0[0].position.x.is_nan());
        assert_eq!(back.0[0].position.y, f64::INFINITY);
        assert_eq!(back.0[1..], batch[1..]);
    }

    #[test]
    fn single_observation_batch_round_trips() {
        round_trip(vec![obs(3, 99, 123_456, 105.5, -2.25)]);
    }

    #[test]
    fn hostile_count_rejected() {
        let mut bytes = Vec::new();
        varint::write_u64(&mut bytes, 1 << 40);
        assert!(matches!(
            decode_from_slice::<ObservationBatch>(&bytes),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn zero_length_camera_run_rejected() {
        let batch = vec![obs(1, 0, 0, 1.0, 1.0)];
        let mut bytes = encode_to_vec(&ObservationBatch(batch));
        // Locate the camera column: count(1) + flags(1) + first id varint.
        let id_len = varint::len_u64(ObservationId::compose(CameraId(1), 0).0);
        let run_off = 2 + id_len;
        bytes[run_off] = 0; // run length 0
        assert!(matches!(
            decode_from_slice::<ObservationBatch>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn truncated_batch_rejected() {
        let batch: Vec<Observation> = (0..8u64).map(|s| obs(2, s, s, 1.5, 2.5)).collect();
        let bytes = encode_to_vec(&ObservationBatch(batch));
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_from_slice::<ObservationBatch>(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn zero_signature_batch_elides_the_column() {
        // Column projection blanks signatures worker-side; the frame
        // must then drop the 64 B/row column and still round-trip.
        let full: Vec<Observation> = (0..40u64).map(|s| obs(2, s, s * 40, 11.5, 70.25)).collect();
        let projected: Vec<Observation> = full
            .iter()
            .map(|o| Observation {
                signature: Signature::new([0.0; SIGNATURE_DIM]),
                ..o.clone()
            })
            .collect();
        let full_len = round_trip(full);
        let projected_len = round_trip(projected.clone());
        assert!(
            projected_len + 4 * SIGNATURE_DIM * projected.len() <= full_len,
            "projected {projected_len} B must save the whole column vs {full_len} B"
        );
        // The filtered and key-only scanners honour the elision too.
        let bytes = encode_to_vec(&ObservationBatch(projected.clone()));
        let mut kept = Vec::new();
        let mut slice = &bytes[..];
        decode_batch_filtered(&mut slice, |_, t, _, _| t.as_millis() < 800, &mut kept).unwrap();
        assert_eq!(kept.len(), 20);
        assert!(kept
            .iter()
            .all(|o| o.signature.values().iter().all(|v| *v == 0.0)));
        let mut rows = 0;
        let mut slice = &bytes[..];
        scan_batch_keys(&mut slice, |_, _| rows += 1).unwrap();
        assert_eq!(rows, 40);
        // A single -0.0 bit pattern must NOT trigger elision (lossless).
        let mut negzero = projected;
        negzero[0].signature = Signature::new({
            let mut v = [0.0f32; SIGNATURE_DIM];
            v[3] = -0.0;
            v
        });
        round_trip(negzero);
    }

    #[test]
    fn unknown_flags_rejected() {
        let batch = vec![obs(1, 0, 0, 1.0, 1.0)];
        let mut bytes = encode_to_vec(&ObservationBatch(batch));
        bytes[1] |= 0b1000_0000;
        assert!(matches!(
            decode_from_slice::<ObservationBatch>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }
}
