//! Wire-format implementations for camera-network types. Observations
//! themselves travel only as the columnar [`ObservationBatch`] frame.
//!
//! [`ObservationBatch`]: crate::ObservationBatch

use bytes::{Buf, BufMut};
use stcam_codec::{DecodeError, Wire};

use crate::observation::ObservationId;

impl Wire for ObservationId {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.0.encode(buf);
    }
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        Ok(ObservationId(u64::decode(buf)?))
    }
    fn size_hint(&self) -> usize {
        self.0.size_hint()
    }
}
