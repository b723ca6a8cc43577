//! Moving entities.

use std::fmt;

use bytes::{Buf, BufMut};
use stcam_codec::{DecodeError, Wire};
use stcam_geo::Point;

/// Identifier of a ground-truth entity (a real vehicle or person in the
/// simulated city). Camera detections never carry this id — recovering it
/// is the job of the track-stitching layer — but the evaluation uses it to
/// score accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u64);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Coarse class of a moving entity; affects speed range and how cameras
/// see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityClass {
    /// A person on foot (≈ 0.8–2 m/s).
    Pedestrian,
    /// A bicycle (≈ 3–7 m/s).
    Bicycle,
    /// A passenger car (≈ 6–15 m/s).
    Car,
    /// A truck or bus (≈ 5–12 m/s).
    Truck,
}

impl EntityClass {
    /// All classes, in discriminant order.
    pub const ALL: [EntityClass; 4] = [
        EntityClass::Pedestrian,
        EntityClass::Bicycle,
        EntityClass::Car,
        EntityClass::Truck,
    ];

    /// Inclusive speed range in metres per second typical for the class.
    pub fn speed_range(self) -> (f64, f64) {
        match self {
            EntityClass::Pedestrian => (0.8, 2.0),
            EntityClass::Bicycle => (3.0, 7.0),
            EntityClass::Car => (6.0, 15.0),
            EntityClass::Truck => (5.0, 12.0),
        }
    }

    /// Stable small integer for wire encoding and array indexing.
    pub fn as_u8(self) -> u8 {
        match self {
            EntityClass::Pedestrian => 0,
            EntityClass::Bicycle => 1,
            EntityClass::Car => 2,
            EntityClass::Truck => 3,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8).
    pub fn from_u8(v: u8) -> Option<Self> {
        EntityClass::ALL.get(v as usize).copied()
    }
}

/// One byte, [`as_u8`](EntityClass::as_u8); any other byte fails to
/// decode.
impl Wire for EntityClass {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.as_u8().encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let code = u8::decode(buf)?;
        EntityClass::from_u8(code).ok_or(DecodeError::InvalidDiscriminant {
            type_name: "EntityClass",
            value: u64::from(code),
        })
    }
    fn size_hint(&self) -> usize {
        1
    }
}

impl fmt::Display for EntityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EntityClass::Pedestrian => "pedestrian",
            EntityClass::Bicycle => "bicycle",
            EntityClass::Car => "car",
            EntityClass::Truck => "truck",
        };
        f.write_str(s)
    }
}

/// The live state of one simulated entity.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Stable ground-truth identity.
    pub id: EntityId,
    /// Class (fixed for the entity's lifetime).
    pub class: EntityClass,
    /// Current position in the local planar frame.
    pub position: Point,
    /// Current cruise speed, metres per second.
    pub speed: f64,
    /// Current movement target; `None` while a new one is being chosen.
    pub(crate) waypoint: Option<Point>,
    /// Remaining route for path-following models (stack: next hop last).
    pub(crate) route: Vec<Point>,
}

impl Entity {
    /// Unit direction of travel toward the current waypoint, if moving.
    pub fn direction(&self) -> Option<Point> {
        let wp = self.waypoint?;
        (wp - self.position).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_round_trip_u8() {
        for c in EntityClass::ALL {
            assert_eq!(EntityClass::from_u8(c.as_u8()), Some(c));
        }
        assert_eq!(EntityClass::from_u8(200), None);
    }

    #[test]
    fn class_wire_form_is_its_byte() {
        use stcam_codec::{decode_from_slice, encode_to_vec};
        for c in EntityClass::ALL {
            assert_eq!(encode_to_vec(&c), [c.as_u8()]);
            assert_eq!(decode_from_slice::<EntityClass>(&[c.as_u8()]), Ok(c));
        }
        assert!(matches!(
            decode_from_slice::<EntityClass>(&[4]),
            Err(DecodeError::InvalidDiscriminant { value: 4, .. })
        ));
    }

    #[test]
    fn speed_ranges_sane() {
        for c in EntityClass::ALL {
            let (lo, hi) = c.speed_range();
            assert!(lo > 0.0 && hi > lo && hi < 50.0);
        }
    }

    #[test]
    fn direction_points_at_waypoint() {
        let e = Entity {
            id: EntityId(1),
            class: EntityClass::Car,
            position: Point::new(0.0, 0.0),
            speed: 10.0,
            waypoint: Some(Point::new(10.0, 0.0)),
            route: vec![],
        };
        let d = e.direction().unwrap();
        assert!((d.x - 1.0).abs() < 1e-12 && d.y.abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(EntityId(7).to_string(), "e7");
        assert_eq!(EntityClass::Car.to_string(), "car");
    }
}
