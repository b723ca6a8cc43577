//! [`Wire`] implementations for the `stcam-geo` types.
//!
//! These live here (rather than in `stcam-geo`) so that the geometry crate
//! stays dependency-free; orphan rules permit it because this crate owns
//! the `Wire` trait.

use bytes::{Buf, BufMut};
use stcam_geo::{BBox, CellId, Duration, GeoPoint, GridSpec, Point, TimeInterval, Timestamp};

use crate::{DecodeError, Wire};

impl Wire for Point {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.x.encode(buf);
        self.y.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(Point::new(f64::decode(buf)?, f64::decode(buf)?))
    }
    fn size_hint(&self) -> usize {
        16
    }
}

impl Wire for GeoPoint {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.lat.encode(buf);
        self.lon.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let lat = f64::decode(buf)?;
        let lon = f64::decode(buf)?;
        if !(-90.0..=90.0).contains(&lat) {
            return Err(DecodeError::InvalidValue {
                reason: "latitude out of range",
            });
        }
        Ok(GeoPoint::new(lat, lon))
    }
}

impl Wire for BBox {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.min.encode(buf);
        self.max.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(BBox::new(Point::decode(buf)?, Point::decode(buf)?))
    }
    fn size_hint(&self) -> usize {
        32
    }
}

impl Wire for CellId {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.col.encode(buf);
        self.row.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(CellId::new(u32::decode(buf)?, u32::decode(buf)?))
    }
}

impl Wire for Timestamp {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.as_millis().encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(Timestamp::from_millis(u64::decode(buf)?))
    }
    fn size_hint(&self) -> usize {
        self.as_millis().size_hint()
    }
}

impl Wire for Duration {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.as_millis().encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(Duration::from_millis(u64::decode(buf)?))
    }
    fn size_hint(&self) -> usize {
        self.as_millis().size_hint()
    }
}

impl Wire for TimeInterval {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.start().encode(buf);
        self.end().encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let start = Timestamp::decode(buf)?;
        let end = Timestamp::decode(buf)?;
        if start > end {
            return Err(DecodeError::InvalidValue {
                reason: "time interval start after end",
            });
        }
        Ok(TimeInterval::new(start, end))
    }
    fn size_hint(&self) -> usize {
        self.start().size_hint() + self.end().size_hint()
    }
}

impl Wire for GridSpec {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.origin().encode(buf);
        self.cell_size().encode(buf);
        self.cols().encode(buf);
        self.rows().encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let origin = Point::decode(buf)?;
        let cell_size = f64::decode(buf)?;
        let cols = u32::decode(buf)?;
        let rows = u32::decode(buf)?;
        // `GridSpec::new` panics on these; bytes off the wire must not.
        if cell_size <= 0.0 || !cell_size.is_finite() || cols == 0 || rows == 0 {
            return Err(DecodeError::InvalidValue {
                reason: "degenerate grid spec",
            });
        }
        Ok(GridSpec::new(origin, cell_size, cols, rows))
    }
    fn size_hint(&self) -> usize {
        24 + self.cols().size_hint() + self.rows().size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_from_slice::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn geo_types_round_trip() {
        round_trip(Point::new(1.5, -2.5));
        round_trip(GeoPoint::new(33.7, -84.4));
        round_trip(BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0)));
        round_trip(CellId::new(17, 23));
        round_trip(Timestamp::from_millis(123_456));
        round_trip(Duration::from_secs(5));
        round_trip(TimeInterval::new(
            Timestamp::from_secs(1),
            Timestamp::from_secs(2),
        ));
        round_trip(GridSpec::new(Point::new(5.0, 5.0), 25.0, 4, 300));
    }

    #[test]
    fn degenerate_grid_rejected() {
        // A grid cannot be built degenerate, so hand-build the wire images.
        let grid = |cell_size: f64, cols: u32, rows: u32| {
            encode_to_vec(&(Point::ORIGIN, cell_size, cols, rows))
        };
        assert!(decode_from_slice::<GridSpec>(&grid(1.0, 4, 4)).is_ok());
        for bytes in [
            grid(0.0, 4, 4),
            grid(-1.0, 4, 4),
            grid(f64::NAN, 4, 4),
            grid(f64::INFINITY, 4, 4),
            grid(1.0, 0, 4),
            grid(1.0, 4, 0),
        ] {
            assert_eq!(
                decode_from_slice::<GridSpec>(&bytes),
                Err(DecodeError::InvalidValue {
                    reason: "degenerate grid spec"
                })
            );
        }
    }

    #[test]
    fn reversed_interval_rejected() {
        // Hand-build a wire image with start > end.
        let mut bytes = encode_to_vec(&Timestamp::from_secs(5));
        bytes.extend(encode_to_vec(&Timestamp::from_secs(1)));
        assert!(matches!(
            decode_from_slice::<TimeInterval>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn bad_latitude_rejected() {
        let mut bytes = encode_to_vec(&200.0f64);
        bytes.extend(encode_to_vec(&10.0f64));
        assert!(matches!(
            decode_from_slice::<GeoPoint>(&bytes),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn cell_id_compact() {
        // Small cell coordinates take 2 bytes total.
        assert_eq!(encode_to_vec(&CellId::new(3, 7)).len(), 2);
    }
}
