//! The binary record encoding that defines the shuffle's byte unit.
//!
//! The paper measures *shuffling cost* in gigabytes (Figures 8c–12c).  The
//! encoding mirrors the tuples shown in Figure 4 of the paper: dataset tag
//! (`R` or `S`), partition id, distance to the closest pivot, and the object
//! itself.  Bytes are accounted, not produced: the engine's shuffle moves
//! typed values inside one process and charges each object
//! [`Record::encoded_len_for_dims`] bytes, so this codec is the reference
//! definition of that unit (pinned by its round-trip tests and the join
//! crate's byte-unit test) and sits on no hot path.

use crate::point::{Point, PointId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Which input dataset a record originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// The outer dataset `R` (each of whose objects receives `k` neighbours).
    R,
    /// The inner dataset `S` (from which neighbours are drawn).
    S,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::R => 0,
            RecordKind::S => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(RecordKind::R),
            1 => Some(RecordKind::S),
            _ => None,
        }
    }
}

/// An intermediate record as emitted by the first-job mapper (Figure 4): the
/// object, the dataset it comes from, the Voronoi cell (partition) it falls
/// into and its distance to that cell's pivot.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Originating dataset.
    pub kind: RecordKind,
    /// Index of the closest pivot (partition id).
    pub partition: u32,
    /// Distance from the object to its closest pivot.
    pub pivot_distance: f64,
    /// The object itself.
    pub point: Point,
}

impl Record {
    /// Creates a record.
    pub fn new(kind: RecordKind, partition: u32, pivot_distance: f64, point: Point) -> Self {
        Self {
            kind,
            partition,
            pivot_distance,
            point,
        }
    }

    /// Serialises the record into a compact binary form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u8(self.kind.tag());
        buf.put_u32_le(self.partition);
        buf.put_f64_le(self.pivot_distance);
        buf.put_u64_le(self.point.id);
        buf.put_u32_le(self.point.coords.len() as u32);
        for c in &self.point.coords {
            buf.put_f64_le(*c);
        }
        buf.freeze()
    }

    /// Deserialises a record previously produced by [`Record::encode`].
    ///
    /// Returns `None` if the buffer is malformed or truncated.
    pub fn decode(mut buf: &[u8]) -> Option<Self> {
        if buf.remaining() < 1 + 4 + 8 + 8 + 4 {
            return None;
        }
        let kind = RecordKind::from_tag(buf.get_u8())?;
        let partition = buf.get_u32_le();
        let pivot_distance = buf.get_f64_le();
        let id: PointId = buf.get_u64_le();
        let ndims = buf.get_u32_le() as usize;
        if buf.remaining() < ndims * 8 {
            return None;
        }
        let mut coords = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            coords.push(buf.get_f64_le());
        }
        Some(Record::new(
            kind,
            partition,
            pivot_distance,
            Point::new(id, coords),
        ))
    }

    /// Exact number of bytes produced by [`Record::encode`].
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_for_dims(self.point.coords.len())
    }

    /// Encoded size of any record over a `dims`-dimensional point: tag,
    /// partition, pivot distance, id and dimension count (25 bytes), then
    /// the coordinates.  This is what one shuffled object is charged.
    pub const fn encoded_len_for_dims(dims: usize) -> usize {
        1 + 4 + 8 + 8 + 4 + 8 * dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let rec = Record::new(RecordKind::S, 42, 3.25, Point::new(7, vec![1.0, -2.0, 0.5]));
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.encoded_len());
        let back = Record::decode(&bytes).expect("decode");
        assert_eq!(back, rec);
    }

    #[test]
    fn decode_rejects_truncated_buffers() {
        let rec = Record::new(RecordKind::R, 1, 0.0, Point::new(1, vec![1.0, 2.0]));
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(Record::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let rec = Record::new(RecordKind::R, 1, 0.0, Point::new(1, vec![1.0]));
        let mut bytes = rec.encode().to_vec();
        bytes[0] = 9;
        assert!(Record::decode(&bytes).is_none());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            partition in 0u32..10_000,
            dist in 0.0f64..1e6,
            id in 0u64..u64::MAX,
            coords in proptest::collection::vec(-1e6f64..1e6, 0..16),
            is_r in proptest::bool::ANY,
        ) {
            let kind = if is_r { RecordKind::R } else { RecordKind::S };
            let rec = Record::new(kind, partition, dist, Point::new(id, coords));
            let encoded = rec.encode();
            prop_assert_eq!(encoded.len(), rec.encoded_len());
            let decoded = Record::decode(&encoded).unwrap();
            prop_assert_eq!(decoded, rec);
        }
    }
}
