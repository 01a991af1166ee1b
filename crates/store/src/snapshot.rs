//! The snapshot file format: one checksummed binary image of an engine's
//! full state at one epoch.
//!
//! ```text
//! offset  size  field
//!      0     4  magic "TQSN"
//!      4     2  format version (2; version 1 is still read)
//!      6     1  backend tag (0 = TQ-tree, 1 = BL baseline)
//!      7     1  scenario tag (0 transit / 1 point-count / 2 length)
//!      8     8  epoch
//!     16     8  user trajectory count (ids assigned, including retired ones)
//!     24     8  live trajectory count
//!     32     8  facility count
//!     40     8  TQ-tree arena slots (0 for the baseline backend)
//!     48     8  TQ-tree stored items (0 for the baseline backend)
//!     56     8  body length in bytes
//!     64     4  CRC-32 of the body
//!     68     4  CRC-32 of the 68 header bytes above
//!     72     …  body (opaque to this module; tq-core's engine codec)
//! ```
//!
//! The header carries redundant counts purely so `tq inspect` can
//! describe a file — even a corrupt one — without decoding the body; the
//! body is the single source of truth for the engine state. Both CRCs
//! must verify before [`decode`] hands the body out.

use crate::crc::crc32;
use crate::{Reader, StoreError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Snapshot file magic, `"TQSN"`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"TQSN");
/// The snapshot format version this build writes. Version 2 bodies encode
/// a retired trajectory as an empty point list; version 1 bodies carried
/// every removed trajectory's points, and are still read.
pub const VERSION: u16 = 2;
/// The oldest snapshot format version this build reads.
pub const MIN_VERSION: u16 = 1;
/// Backend tag: the TQ-tree (arena serialized in the body).
pub const BACKEND_TQTREE: u8 = 0;
/// Backend tag: the BL point-quadtree baseline (rebuilt from the decoded
/// users on load).
pub const BACKEND_BASELINE: u8 = 1;

/// Fixed header size in bytes (everything before the body).
pub const HEADER_LEN: usize = 72;

/// The self-describing header of a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Publication epoch the snapshot captures.
    pub epoch: u64,
    /// Backend tag ([`BACKEND_TQTREE`] or [`BACKEND_BASELINE`]).
    pub backend: u8,
    /// Service scenario tag (0 transit / 1 point-count / 2 length).
    pub scenario: u8,
    /// Trajectory ids assigned, including retired (removed) ones.
    pub users: u64,
    /// Live (not removed) trajectories.
    pub live: u64,
    /// Candidate facilities.
    pub facilities: u64,
    /// TQ-tree arena slots (live + reclaimed), 0 for the baseline.
    pub tree_nodes: u64,
    /// Items stored in the TQ-tree, 0 for the baseline.
    pub tree_items: u64,
}

impl SnapshotMeta {
    /// Human-readable backend name for reports.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            BACKEND_TQTREE => "tq-tree",
            BACKEND_BASELINE => "baseline",
            _ => "unknown",
        }
    }

    /// Human-readable scenario name for reports.
    pub fn scenario_name(&self) -> &'static str {
        match self.scenario {
            0 => "transit",
            1 => "point-count",
            2 => "length",
            _ => "unknown",
        }
    }
}

/// A fully validated snapshot file: its header plus the opaque body.
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    /// The validated header.
    pub meta: SnapshotMeta,
    /// The body bytes (CRC already verified).
    pub body: Bytes,
}

/// Encodes a complete snapshot file (header + CRCs + body).
pub fn encode(meta: &SnapshotMeta, body: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(HEADER_LEN + body.len());
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(meta.backend);
    buf.put_u8(meta.scenario);
    buf.put_u64_le(meta.epoch);
    buf.put_u64_le(meta.users);
    buf.put_u64_le(meta.live);
    buf.put_u64_le(meta.facilities);
    buf.put_u64_le(meta.tree_nodes);
    buf.put_u64_le(meta.tree_items);
    buf.put_u64_le(body.len() as u64);
    buf.put_u32_le(crc32(body));
    let header = buf.freeze();
    let mut out = BytesMut::with_capacity(HEADER_LEN + body.len());
    out.put_slice(header.as_ref());
    out.put_u32_le(crc32(header.as_ref()));
    out.put_slice(body);
    out.freeze()
}

/// Reads and validates the header only. Returns the meta plus the stored
/// body length and body CRC (still unverified — callers that need the
/// body go through [`decode`]).
pub fn read_header(bytes: &Bytes) -> Result<(SnapshotMeta, u64, u32), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated);
    }
    let stored_header_crc = {
        let mut tail = bytes.slice(HEADER_LEN - 4..HEADER_LEN);
        tail.get_u32_le()
    };
    let computed = crc32(bytes.slice(0..HEADER_LEN - 4).as_ref());
    if stored_header_crc != computed {
        return Err(StoreError::CrcMismatch {
            stored: stored_header_crc,
            computed,
        });
    }
    let mut r = Reader::new(bytes.slice(0..HEADER_LEN - 4));
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic {
            found: magic,
            expected: MAGIC,
        });
    }
    let version = r.u16()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(StoreError::BadVersion(version));
    }
    let backend = r.u8()?;
    let scenario = r.u8()?;
    let meta = SnapshotMeta {
        backend,
        scenario,
        epoch: r.u64()?,
        users: r.u64()?,
        live: r.u64()?,
        facilities: r.u64()?,
        tree_nodes: r.u64()?,
        tree_items: r.u64()?,
    };
    let body_len = r.u64()?;
    let body_crc = r.u32()?;
    Ok((meta, body_len, body_crc))
}

/// Decodes and fully validates a snapshot file (both CRCs, exact length).
pub fn decode(bytes: Bytes) -> Result<SnapshotFile, StoreError> {
    let (meta, body_len, body_crc) = read_header(&bytes)?;
    let expected_total = HEADER_LEN as u64 + body_len;
    if (bytes.len() as u64) < expected_total {
        return Err(StoreError::Truncated);
    }
    if bytes.len() as u64 > expected_total {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the declared body",
            bytes.len() as u64 - expected_total
        )));
    }
    let body = bytes.slice(HEADER_LEN..bytes.len());
    let computed = crc32(body.as_ref());
    if computed != body_crc {
        return Err(StoreError::CrcMismatch {
            stored: body_crc,
            computed,
        });
    }
    Ok(SnapshotFile { meta, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            epoch: 42,
            backend: BACKEND_TQTREE,
            scenario: 1,
            users: 1000,
            live: 990,
            facilities: 64,
            tree_nodes: 37,
            tree_items: 990,
        }
    }

    #[test]
    fn roundtrip() {
        let body = b"engine state goes here".to_vec();
        let file = encode(&meta(), &body);
        let decoded = decode(file).unwrap();
        assert_eq!(decoded.meta, meta());
        assert_eq!(decoded.body.as_ref(), body.as_slice());
        assert_eq!(decoded.meta.backend_name(), "tq-tree");
        assert_eq!(decoded.meta.scenario_name(), "point-count");
    }

    #[test]
    fn every_truncation_is_detected() {
        let file = encode(&meta(), b"0123456789");
        for cut in 0..file.len() {
            assert!(decode(file.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let file = encode(&meta(), b"0123456789");
        let raw = file.to_vec();
        for byte in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[byte] ^= 0x10;
            assert!(
                decode(Bytes::from(flipped)).is_err(),
                "flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = encode(&meta(), b"body").to_vec();
        raw.push(0);
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut raw = encode(&meta(), b"body").to_vec();
        raw[0] ^= 0xFF;
        // Header CRC catches it first — either error is fine, never a panic.
        assert!(decode(Bytes::from(raw)).is_err());
    }
}
