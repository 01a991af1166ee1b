//! Compact binary snapshots of datasets.
//!
//! Generating the paper-scale synthetic workloads (a million trips) takes a
//! few seconds; the experiment harness snapshots them to disk so repeated
//! benchmark invocations pay the cost once. The format is a trivial
//! length-prefixed little-endian layout built on [`bytes`] — not meant for
//! interchange, only as a deterministic local cache.

use crate::{Facility, FacilitySet, Trajectory, UserSet};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tq_geometry::Point;

const MAGIC: u32 = 0x5451_4454; // "TQDT"
const VERSION: u16 = 1;

/// Errors produced when decoding a snapshot.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic number.
    BadMagic,
    /// The snapshot was written by an incompatible version.
    BadVersion(u16),
    /// The buffer ended before the declared contents.
    Truncated,
    /// A declared count is implausibly large for the remaining buffer.
    CorruptCount,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a TQ dataset snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot buffer truncated"),
            SnapshotError::CorruptCount => write!(f, "snapshot declares an implausible count"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_points(buf: &mut BytesMut, pts: &[Point]) {
    buf.put_u32_le(pts.len() as u32);
    for p in pts {
        buf.put_f64_le(p.x);
        buf.put_f64_le(p.y);
    }
}

fn get_points(buf: &mut Bytes) -> Result<Vec<Point>, SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n.saturating_mul(16) {
        return Err(SnapshotError::CorruptCount);
    }
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        let x = buf.get_f64_le();
        let y = buf.get_f64_le();
        pts.push(Point::new(x, y));
    }
    Ok(pts)
}

/// Encodes a user set and a facility set into one buffer.
pub fn encode(users: &UserSet, facilities: &FacilitySet) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + users.total_points() * 16 + facilities.total_stops() * 16,
    );
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    // The trajectories present, renumbered densely: a dataset file has
    // no retired ids.
    buf.put_u32_le(users.present() as u32);
    for (_, t) in users.iter() {
        put_points(&mut buf, t.points());
    }
    buf.put_u32_le(facilities.len() as u32);
    for (_, f) in facilities.iter() {
        put_points(&mut buf, f.stops());
    }
    buf.freeze()
}

/// Decodes a buffer produced by [`encode`].
pub fn decode(mut buf: Bytes) -> Result<(UserSet, FacilitySet), SnapshotError> {
    if buf.remaining() < 10 {
        return Err(SnapshotError::Truncated);
    }
    if buf.get_u32_le() != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let n_users = buf.get_u32_le() as usize;
    let mut users = Vec::with_capacity(n_users.min(1 << 24));
    for _ in 0..n_users {
        users.push(Trajectory::new(get_points(&mut buf)?));
    }
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let n_fac = buf.get_u32_le() as usize;
    let mut facilities = Vec::with_capacity(n_fac.min(1 << 24));
    for _ in 0..n_fac {
        facilities.push(Facility::new(get_points(&mut buf)?));
    }
    Ok((UserSet::from_vec(users), FacilitySet::from_vec(facilities)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn sample() -> (UserSet, FacilitySet) {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.5, 1.5), p(2.5, 3.5)),
            Trajectory::new(vec![p(1.0, 1.0), p(2.0, 2.0), p(3.0, 1.0)]),
        ]);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.0), p(1.0, 0.0)]),
        ]);
        (users, facilities)
    }

    #[test]
    fn roundtrip() {
        let (u, f) = sample();
        let buf = encode(&u, &f);
        let (u2, f2) = decode(buf).unwrap();
        assert_eq!(u, u2);
        assert_eq!(f.as_slice(), f2.as_slice());
    }

    #[test]
    fn bad_magic_detected() {
        let mut raw = encode(&sample().0, &sample().1).to_vec();
        raw[0] ^= 0xFF;
        assert_eq!(decode(Bytes::from(raw)), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let raw = encode(&sample().0, &sample().1);
        let cut = raw.slice(0..raw.len() - 5);
        assert!(matches!(
            decode(cut),
            Err(SnapshotError::Truncated) | Err(SnapshotError::CorruptCount)
        ));
    }

    #[test]
    fn empty_sets_roundtrip() {
        // Note: trajectories/facilities themselves can't be empty, but the
        // sets can.
        let buf = encode(&UserSet::new(), &FacilitySet::new());
        let (u, f) = decode(buf).unwrap();
        assert!(u.is_empty());
        assert!(f.is_empty());
    }

    #[test]
    fn version_mismatch_detected() {
        let mut raw = encode(&sample().0, &sample().1).to_vec();
        raw[4] = 99;
        assert_eq!(
            decode(Bytes::from(raw)),
            Err(SnapshotError::BadVersion(99))
        );
    }
}
