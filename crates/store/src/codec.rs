//! The binary codec: [`Encode`]/[`Decode`] over the `bytes` shim, plus the
//! checked [`Reader`] that makes decoding total (error-returning) instead
//! of panicking.
//!
//! Layout rules, shared by every implementation:
//!
//! * everything is **little-endian**;
//! * `f64`s travel as their raw bits (`to_le_bytes`/`from_le_bytes`), so
//!   values — including `-0.0` and NaN payloads — roundtrip bit-exactly;
//! * collections are length-prefixed with a `u32` count, and the count is
//!   sanity-checked against the bytes actually remaining *before* any
//!   allocation, so a corrupt count cannot balloon memory;
//! * decoding never panics: the raw [`bytes::Buf`] accessors panic on
//!   underflow, so all reads go through [`Reader`], which checks
//!   [`Reader::remaining`] first and returns [`StoreError::Truncated`].

use crate::StoreError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tq_geometry::{Point, Rect, ZId};
use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};

/// Checked sequential reader over a [`Bytes`] view.
///
/// Wraps the panicking [`Buf`] accessors of the vendored shim with
/// remaining-length checks; every method returns [`StoreError::Truncated`]
/// instead of panicking when the buffer runs out.
#[derive(Debug, Clone)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// A reader over the whole view.
    pub fn new(buf: Bytes) -> Reader {
        Reader { buf }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), StoreError> {
        if self.buf.remaining() < n {
            return Err(StoreError::Truncated);
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `f64` (raw bits, bit-exact).
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a `u32` element count for a collection whose elements encode
    /// to at least `min_elem_size` bytes each, rejecting counts the
    /// remaining buffer cannot possibly satisfy (the guard that keeps a
    /// corrupt count from allocating gigabytes).
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size.max(1)) > self.buf.remaining() {
            return Err(StoreError::Corrupt(format!(
                "count {n} exceeds the {} bytes remaining",
                self.buf.remaining()
            )));
        }
        Ok(n)
    }

    /// Consumes `n` raw bytes as a sub-view (shares the allocation).
    pub fn take(&mut self, n: usize) -> Result<Bytes, StoreError> {
        self.need(n)?;
        let out = self.buf.slice(0..n);
        self.buf = self.buf.slice(n..self.buf.len());
        Ok(out)
    }

    /// Reads a LEB128 varint written by [`put_varint_u32`].
    pub fn varint_u32(&mut self) -> Result<u32, StoreError> {
        let mut out = 0u64;
        for shift in (0..35).step_by(7) {
            let byte = self.u8()?;
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                if out > u32::MAX as u64 {
                    return Err(StoreError::Corrupt("varint exceeds u32".into()));
                }
                return Ok(out as u32);
            }
        }
        Err(StoreError::Corrupt("varint runs past 5 bytes".into()))
    }

    /// Errors unless the buffer was consumed exactly.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.buf.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after the decoded value",
                self.buf.remaining()
            )));
        }
        Ok(())
    }
}

/// A value that can be appended to an output buffer.
pub trait Encode {
    /// Appends the binary form of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// A value that can be read back from a [`Reader`].
pub trait Decode: Sized {
    /// Minimum number of bytes any encoding of `Self` occupies — used to
    /// sanity-check collection counts before allocating.
    const MIN_SIZE: usize;

    /// Decodes one value, consuming exactly what [`Encode::encode`] wrote.
    fn decode(r: &mut Reader) -> Result<Self, StoreError>;
}

macro_rules! scalar_codec {
    ($ty:ty, $size:expr, $put:ident, $get:ident) => {
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl Decode for $ty {
            const MIN_SIZE: usize = $size;
            fn decode(r: &mut Reader) -> Result<Self, StoreError> {
                r.$get()
            }
        }
    };
}

scalar_codec!(u8, 1, put_u8, u8);
scalar_codec!(u16, 2, put_u16_le, u16);
scalar_codec!(u32, 4, put_u32_le, u32);
scalar_codec!(u64, 8, put_u64_le, u64);
scalar_codec!(f64, 8, put_f64_le, f64);

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
}

impl Decode for bool {
    const MIN_SIZE: usize = 1;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::Corrupt(format!("bool byte {other}"))),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    const MIN_SIZE: usize = 4;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let n = r.count(1)?;
        let raw = r.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::Corrupt("string is not UTF-8".into()))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    const MIN_SIZE: usize = 1;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(StoreError::Corrupt(format!("option byte {other}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_SIZE: usize = A::MIN_SIZE + B::MIN_SIZE;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let n = r.count(T::MIN_SIZE)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Encode for Point {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(self.x);
        buf.put_f64_le(self.y);
    }
}

impl Decode for Point {
    const MIN_SIZE: usize = 16;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(Point::new(r.f64()?, r.f64()?))
    }
}

impl Encode for Rect {
    fn encode(&self, buf: &mut BytesMut) {
        self.min.encode(buf);
        self.max.encode(buf);
    }
}

impl Decode for Rect {
    const MIN_SIZE: usize = 32;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let min = Point::decode(r)?;
        let max = Point::decode(r)?;
        if !(min.is_finite() && max.is_finite()) {
            return Err(StoreError::Corrupt("non-finite rectangle corner".into()));
        }
        // `Rect::new` normalizes corners; encoded rects are already
        // normalized, so this is the identity on well-formed input.
        Ok(Rect::new(min, max))
    }
}

impl Encode for ZId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.path_bits());
        buf.put_u8(self.depth());
    }
}

impl Decode for ZId {
    const MIN_SIZE: usize = 9;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let path = r.u64()?;
        let depth = r.u8()?;
        ZId::from_raw(path, depth)
            .ok_or_else(|| StoreError::Corrupt(format!("invalid z-id ({path:#x}, {depth})")))
    }
}

/// Decodes a point sequence that must satisfy the [`Trajectory`] /
/// [`Facility`] constructor contracts (≥ `min_points` finite points), so
/// decoding corrupt data returns an error instead of tripping their
/// asserts.
///
/// Points are the bulk of any trajectory store, so this takes the whole
/// `n × 16`-byte run with a single bounds check and parses it with
/// `chunks_exact` — the per-element checked-reader overhead would
/// otherwise dominate a cold start.
fn decode_checked_points(
    r: &mut Reader,
    min_points: usize,
    what: &str,
) -> Result<Vec<Point>, StoreError> {
    let n = r.count(Point::MIN_SIZE)?;
    if n < min_points {
        return Err(StoreError::Corrupt(format!(
            "{what} with {n} points (needs ≥ {min_points})"
        )));
    }
    let raw = r.take(n * Point::MIN_SIZE)?;
    let mut pts = Vec::with_capacity(n);
    for c in raw.as_ref().chunks_exact(Point::MIN_SIZE) {
        let x = f64::from_le_bytes(c[0..8].try_into().expect("16-byte chunk"));
        let y = f64::from_le_bytes(c[8..16].try_into().expect("16-byte chunk"));
        pts.push(Point::new(x, y));
    }
    if !pts.iter().all(Point::is_finite) {
        return Err(StoreError::Corrupt(format!("{what} with non-finite point")));
    }
    Ok(pts)
}

impl Encode for Trajectory {
    fn encode(&self, buf: &mut BytesMut) {
        self.points().to_vec().encode(buf);
    }
}

impl Decode for Trajectory {
    const MIN_SIZE: usize = 4 + 2 * Point::MIN_SIZE;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(Trajectory::new(decode_checked_points(r, 2, "trajectory")?))
    }
}

impl Encode for Facility {
    fn encode(&self, buf: &mut BytesMut) {
        self.stops().to_vec().encode(buf);
    }
}

impl Decode for Facility {
    const MIN_SIZE: usize = 4 + Point::MIN_SIZE;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(Facility::new(decode_checked_points(r, 1, "facility")?))
    }
}

/// One entry per assigned id, in id order. A retired trajectory goes down
/// as the empty point list — its id, not its points, is what the state
/// still needs — so the section's size follows the live set.
impl Encode for UserSet {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for id in 0..self.len() as u32 {
            match self.try_get(id) {
                Some(t) => t.encode(buf),
                None => buf.put_u32_le(0),
            }
        }
    }
}

impl Decode for UserSet {
    const MIN_SIZE: usize = 4;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let n = r.count(4)?;
        let mut out = UserSet::new();
        for _ in 0..n {
            // Peek the point count: zero marks a retired id.
            if r.clone().u32()? == 0 {
                r.u32()?;
                out.push_retired();
            } else {
                out.push(Trajectory::decode(r)?);
            }
        }
        Ok(out)
    }
}

impl Encode for FacilitySet {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for (_, f) in self.iter() {
            f.encode(buf);
        }
    }
}

impl Decode for FacilitySet {
    const MIN_SIZE: usize = 4;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let n = r.count(Facility::MIN_SIZE)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Facility::decode(r)?);
        }
        Ok(FacilitySet::from_vec(out))
    }
}

/// Appends `v` LEB128-encoded (7 bits per byte, low first, high bit =
/// continuation) — 1 byte for values below 128, which is what makes
/// delta-encoded id sequences cheap.
pub fn put_varint_u32(buf: &mut BytesMut, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Encodes a bool slice as a packed little-endian bitmap (count, then
/// `ceil(n/64)` words, bit `i % 64` of word `i / 64`).
pub fn encode_bitmap(bits: &[bool], buf: &mut BytesMut) {
    buf.put_u32_le(bits.len() as u32);
    let mut word = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            word |= 1 << (i % 64);
        }
        if i % 64 == 63 {
            buf.put_u64_le(word);
            word = 0;
        }
    }
    if !bits.len().is_multiple_of(64) {
        buf.put_u64_le(word);
    }
}

/// Decodes a bitmap written by [`encode_bitmap`].
pub fn decode_bitmap(r: &mut Reader) -> Result<Vec<bool>, StoreError> {
    let n = r.u32()? as usize;
    let words = n.div_ceil(64);
    if words.saturating_mul(8) > r.remaining() {
        return Err(StoreError::Corrupt(format!(
            "bitmap of {n} bits exceeds the buffer"
        )));
    }
    let mut out = Vec::with_capacity(n);
    let mut word = 0u64;
    for i in 0..n {
        if i % 64 == 0 {
            word = r.u64()?;
        }
        out.push(word >> (i % 64) & 1 == 1);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = BytesMut::with_capacity(64);
        v.encode(&mut buf);
        let mut r = Reader::new(buf.freeze());
        assert_eq!(T::decode(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0xABu8);
        roundtrip(0xABCDu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX - 7);
        roundtrip(-0.0f64);
        roundtrip(true);
        roundtrip(vec![1u32, 2, 3]);
    }

    #[test]
    fn wire_vocabulary_roundtrips() {
        // The tq-net request/response vocabulary rides on these.
        roundtrip(String::new());
        roundtrip("ψ-radius naïveté".to_string());
        roundtrip(None::<u64>);
        roundtrip(Some(0xFACEu32));
        roundtrip(Some("typed error".to_string()));
        roundtrip((7u32, -0.5f64));
        roundtrip(vec![(0u32, 1.5f64), (9, -0.0)]);
        roundtrip(Some(vec![3u32, 1, 4]));
    }

    #[test]
    fn corrupt_wire_vocabulary_is_rejected() {
        // Non-UTF-8 string bytes.
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(String::decode(&mut Reader::new(buf.freeze())).is_err());

        // String length exceeding the buffer (hostile count).
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            String::decode(&mut Reader::new(buf.freeze())),
            Err(StoreError::Corrupt(_))
        ));

        // Invalid option discriminant.
        let mut buf = BytesMut::with_capacity(4);
        buf.put_u8(9);
        assert!(Option::<u8>::decode(&mut Reader::new(buf.freeze())).is_err());
    }

    #[test]
    fn geometry_roundtrips() {
        roundtrip(Point::new(1.5, -2.5));
        roundtrip(Rect::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0)));
        let z = ZId::of_point(
            &Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            &Point::new(0.3, 0.7),
            9,
        );
        roundtrip(z);
    }

    #[test]
    fn trajectory_and_sets_roundtrip() {
        let p = |x: f64, y: f64| Point::new(x, y);
        roundtrip(Trajectory::new(vec![p(0.0, 0.0), p(1.0, 2.0), p(3.0, 1.0)]));
        roundtrip(Facility::new(vec![p(5.0, 5.0)]));
        roundtrip(UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(1.0, 1.0)),
        ]));
        roundtrip(FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.0), p(1.0, 0.0)]),
        ]));
        roundtrip(UserSet::new());
        roundtrip(FacilitySet::new());

        // A retired trajectory keeps its id and costs one empty point list.
        let mut users = UserSet::from_vec(
            (0..3).map(|i| Trajectory::two_point(p(i as f64, 0.0), p(i as f64, 1.0))).collect(),
        );
        let mut full = BytesMut::with_capacity(128);
        users.encode(&mut full);
        users.retire(1);
        let mut buf = BytesMut::with_capacity(128);
        users.encode(&mut buf);
        assert_eq!(buf.len(), full.len() - 2 * Point::MIN_SIZE);
        let back = UserSet::decode(&mut Reader::new(buf.freeze())).unwrap();
        assert_eq!(back, users);
        assert_eq!((back.len(), back.present(), back.is_retired(1)), (3, 2, true));
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut buf = BytesMut::with_capacity(64);
        Trajectory::two_point(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).encode(&mut buf);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(bytes.slice(0..cut));
            assert!(Trajectory::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_values_are_rejected() {
        // One-point trajectory.
        let mut buf = BytesMut::with_capacity(32);
        vec![Point::new(0.0, 0.0)].encode(&mut buf);
        assert!(Trajectory::decode(&mut Reader::new(buf.freeze())).is_err());

        // Non-finite coordinate.
        let mut buf = BytesMut::with_capacity(48);
        buf.put_u32_le(2);
        buf.put_f64_le(f64::NAN);
        buf.put_f64_le(0.0);
        buf.put_f64_le(1.0);
        buf.put_f64_le(1.0);
        assert!(Trajectory::decode(&mut Reader::new(buf.freeze())).is_err());

        // Implausible count.
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            Vec::<u64>::decode(&mut Reader::new(buf.freeze())),
            Err(StoreError::Corrupt(_))
        ));

        // Invalid bool and z-id depth.
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(7);
        assert!(bool::decode(&mut Reader::new(buf.freeze())).is_err());
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u64_le(0);
        buf.put_u8(99); // depth > MAX_Z_DEPTH
        assert!(ZId::decode(&mut Reader::new(buf.freeze())).is_err());
    }

    #[test]
    fn varints_roundtrip() {
        let vals = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        let mut buf = BytesMut::with_capacity(64);
        for v in vals {
            put_varint_u32(&mut buf, v);
        }
        let mut r = Reader::new(buf.freeze());
        for v in vals {
            assert_eq!(r.varint_u32().unwrap(), v);
        }
        r.finish().unwrap();
        // Overlong and truncated forms error.
        let mut r = Reader::new(Bytes::from(vec![0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01]));
        assert!(r.varint_u32().is_err());
        let mut r = Reader::new(Bytes::from(vec![0x80u8]));
        assert!(r.varint_u32().is_err());
        // 5-byte encodings above u32::MAX error.
        let mut r = Reader::new(Bytes::from(vec![0xFFu8, 0xFF, 0xFF, 0xFF, 0x7F]));
        assert!(r.varint_u32().is_err());
    }

    #[test]
    fn bitmaps_roundtrip() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = BytesMut::with_capacity(64);
            encode_bitmap(&bits, &mut buf);
            let mut r = Reader::new(buf.freeze());
            assert_eq!(decode_bitmap(&mut r).unwrap(), bits, "n = {n}");
            r.finish().unwrap();
        }
    }

    #[test]
    fn float_bits_survive() {
        let vals = [0.0f64, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, f64::MAX];
        let mut buf = BytesMut::with_capacity(64);
        for v in vals {
            v.encode(&mut buf);
        }
        let mut r = Reader::new(buf.freeze());
        for v in vals {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }
}
