//! Shell-level diagnostics: describe a store directory, a snapshot file
//! or a WAL file — including corrupt ones — without loading an engine.
//!
//! This is the substance behind `tq inspect <path>`: when a store refuses
//! to open, the operator points `inspect` at it and reads *which* file is
//! damaged, *where* the WAL's valid prefix ends, and what the headers
//! claim, instead of staring at an opaque error.

use crate::manifest::{is_sharded_dir, PartitionerSpec, ShardManifest, ROUTING_FILE};
use crate::replmeta::{ReplMeta, REPL_META_FILE, REPL_META_MAGIC};
use crate::snapshot;
use crate::store::{snapshot_files, WAL_FILE};
use crate::{wal, StoreError};
use bytes::Bytes;
use std::fmt::Write as _;
use std::path::Path;

/// Renders a report for `path`: a store directory (sharded or single), one
/// `.tqs` snapshot file, or one `.tql` WAL file (detected by magic, not
/// extension).
pub fn report(path: &Path) -> Result<String, StoreError> {
    if path.is_dir() {
        if is_sharded_dir(path) {
            return report_sharded_dir(path);
        }
        return report_dir(path);
    }
    let raw = std::fs::read(path)?;
    let bytes = Bytes::from(raw);
    // Dispatch on magic so misnamed files still get the right report.
    if bytes.len() >= 4 {
        let magic = u32::from_le_bytes([
            bytes.as_ref()[0],
            bytes.as_ref()[1],
            bytes.as_ref()[2],
            bytes.as_ref()[3],
        ]);
        if magic == wal::MAGIC {
            return report_wal(path);
        }
        if bytes.as_ref()[..4] == REPL_META_MAGIC {
            return report_repl_meta_bytes(path, bytes.as_ref());
        }
    }
    report_snapshot_bytes(path, bytes)
}

fn report_dir(dir: &Path) -> Result<String, StoreError> {
    let mut out = format!("store directory {}\n", dir.display());
    // The exact candidate list recovery would consider, in the order it
    // would consider it.
    let snapshots = snapshot_files(dir)?;
    if snapshots.is_empty() {
        out.push_str("  no snapshot files\n");
    }
    for (_, path) in &snapshots {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let result = std::fs::read(path)
            .map_err(StoreError::Io)
            .and_then(|raw| report_snapshot_bytes(path, Bytes::from(raw)));
        match result {
            Ok(r) => out.push_str(&r),
            Err(e) => {
                let _ = writeln!(out, "snapshot {name}\n  UNUSABLE: {e}");
            }
        }
    }
    let wal_path = dir.join(WAL_FILE);
    if wal_path.exists() {
        // A damaged WAL header must still yield a report — diagnosing
        // damaged stores is this function's whole purpose.
        match report_wal(&wal_path) {
            Ok(r) => out.push_str(&r),
            Err(e) => {
                let _ = writeln!(out, "wal {WAL_FILE}\n  UNUSABLE: {e}");
            }
        }
    } else {
        out.push_str("  no WAL file\n");
    }
    let repl_path = dir.join(REPL_META_FILE);
    if repl_path.exists() {
        match std::fs::read(&repl_path)
            .map_err(StoreError::Io)
            .and_then(|raw| report_repl_meta_bytes(&repl_path, &raw))
        {
            Ok(r) => out.push_str(&r),
            Err(e) => {
                let _ = writeln!(out, "replication {REPL_META_FILE}\n  UNUSABLE: {e}");
            }
        }
    }
    Ok(out)
}

fn report_repl_meta_bytes(path: &Path, raw: &[u8]) -> Result<String, StoreError> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
    let meta = ReplMeta::decode(raw)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replication {name}: last shipped epoch {}, last acked epoch {} (lag {})",
        meta.last_shipped,
        meta.last_acked,
        meta.last_shipped.saturating_sub(meta.last_acked),
    );
    Ok(out)
}

/// A sharded root: manifest summary, routing-log summary, then each
/// shard's store report in turn. A damaged manifest, routing log or
/// shard never aborts the report — the whole point is diagnosing
/// directories that refuse to open.
fn report_sharded_dir(dir: &Path) -> Result<String, StoreError> {
    let mut out = format!("sharded store {}\n", dir.display());
    let shards = match ShardManifest::read(dir) {
        Ok(manifest) => {
            let rule = match &manifest.partitioner {
                PartitionerSpec::Hash => "hash".to_string(),
                PartitionerSpec::ZRange { depth, splits, .. } => format!(
                    "z-range (depth {depth}, {} split boundaries)",
                    splits.len()
                ),
            };
            let _ = writeln!(
                out,
                "  manifest: {} shards, {rule} partitioner",
                manifest.shards
            );
            manifest.shards as usize
        }
        Err(e) => {
            let _ = writeln!(out, "  manifest UNUSABLE: {e}");
            // Fall back to the shard directories that physically exist so
            // the per-shard verdicts still print.
            (0..)
                .take_while(|&i| ShardManifest::shard_dir(dir, i).is_dir())
                .count()
        }
    };
    let routing = dir.join(ROUTING_FILE);
    if routing.exists() {
        match report_wal(&routing) {
            Ok(r) => out.push_str(&r),
            Err(e) => {
                let _ = writeln!(out, "wal {ROUTING_FILE}\n  UNUSABLE: {e}");
            }
        }
    } else {
        out.push_str("  no routing log\n");
    }
    for i in 0..shards {
        let shard_dir = ShardManifest::shard_dir(dir, i);
        let _ = writeln!(out, "shard {i:03}:");
        let shard_report = if shard_dir.is_dir() {
            report_dir(&shard_dir)
        } else {
            Err(StoreError::Corrupt("shard directory missing".into()))
        };
        match shard_report {
            Ok(r) => {
                for line in r.lines().skip(1) {
                    let _ = writeln!(out, "  {line}");
                }
            }
            Err(e) => {
                let _ = writeln!(out, "  UNUSABLE: {e}");
            }
        }
    }
    Ok(out)
}

fn report_snapshot_bytes(path: &Path, bytes: Bytes) -> Result<String, StoreError> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
    let (meta, body_len, body_crc) = snapshot::read_header(&bytes)?;
    let mut out = String::new();
    // `read_header` vouched for the header's length and version field.
    let version = u16::from_le_bytes([bytes.as_ref()[4], bytes.as_ref()[5]]);
    let _ = writeln!(out, "snapshot {name} (format v{version})");
    let _ = writeln!(
        out,
        "  epoch {}  backend {}  scenario {}",
        meta.epoch,
        meta.backend_name(),
        meta.scenario_name()
    );
    let _ = writeln!(
        out,
        "  {} users ({} live), {} facilities, {} tree arena slots, {} stored items",
        meta.users, meta.live, meta.facilities, meta.tree_nodes, meta.tree_items
    );
    let body_ok = match snapshot::decode(bytes.clone()) {
        Ok(_) => "verified".to_string(),
        Err(e) => format!("FAILED ({e})"),
    };
    let _ = writeln!(
        out,
        "  body {} bytes, crc {body_crc:#010x} {body_ok}",
        body_len
    );
    Ok(out)
}

fn report_wal(path: &Path) -> Result<String, StoreError> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
    let (records, summary) = wal::read(path)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wal {name}: {} valid records, {} of {} bytes valid, continues checkpoint epoch {}",
        summary.records,
        summary.valid_bytes,
        summary.total_bytes,
        summary
            .parent_epoch
            .map(|e| e.to_string())
            .unwrap_or_else(|| "?".into()),
    );
    if let Some((lo, hi)) = summary.epoch_range {
        let _ = writeln!(out, "  epochs {lo}..={hi}");
    }
    if let Some(note) = &summary.tail_note {
        let _ = writeln!(out, "  tail ignored: {note}");
    }
    // A compact per-record summary; long logs elide the middle.
    let show = 8usize;
    for (i, r) in records.iter().enumerate() {
        if records.len() > 2 * show && i == show {
            let _ = writeln!(out, "  … {} more records …", records.len() - 2 * show);
        }
        if records.len() > 2 * show && (show..records.len() - show).contains(&i) {
            continue;
        }
        let _ = writeln!(
            out,
            "  record {i}: epoch {}, {} payload bytes",
            r.epoch,
            r.payload.len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotMeta, BACKEND_BASELINE};
    use crate::store::{Store, StoreConfig};

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tq-store-inspect-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn reports_a_whole_store() {
        let dir = tmp_dir("whole");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        let meta = SnapshotMeta {
            epoch: 7,
            backend: BACKEND_BASELINE,
            scenario: 2,
            users: 5,
            live: 5,
            facilities: 2,
            tree_nodes: 0,
            tree_items: 0,
        };
        store.checkpoint(&meta, b"body bytes").unwrap();
        store.append_batch(8, b"payload").unwrap();

        let r = report(&dir).unwrap();
        assert!(r.contains("epoch 7"), "{r}");
        assert!(r.contains("baseline"), "{r}");
        assert!(r.contains("length"), "{r}");
        assert!(r.contains("verified"), "{r}");
        assert!(r.contains("1 valid records"), "{r}");
        assert!(r.contains("epoch 8"), "{r}");
    }

    #[test]
    fn reports_corruption_without_failing() {
        let dir = tmp_dir("corrupt");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        let meta = SnapshotMeta {
            epoch: 1,
            backend: 0,
            scenario: 0,
            users: 1,
            live: 1,
            facilities: 1,
            tree_nodes: 1,
            tree_items: 1,
        };
        store.checkpoint(&meta, b"0123456789").unwrap();
        store.append_batch(2, b"tail me").unwrap();
        // Flip a body byte of the snapshot and tear the WAL.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            let mut raw = std::fs::read(&p).unwrap();
            if p.extension().is_some_and(|e| e == "tqs") {
                let last = raw.len() - 1;
                raw[last] ^= 0xFF;
            } else {
                raw.truncate(raw.len() - 2);
            }
            std::fs::write(&p, raw).unwrap();
        }
        let r = report(&dir).unwrap();
        assert!(r.contains("FAILED"), "{r}");
        assert!(r.contains("tail ignored"), "{r}");
    }

    #[test]
    fn reports_a_sharded_store_with_one_corrupted_shard() {
        use crate::manifest::{PartitionerSpec, ShardManifest};

        let dir = tmp_dir("sharded");
        std::fs::create_dir_all(&dir).unwrap();
        ShardManifest {
            shards: 2,
            partitioner: PartitionerSpec::Hash,
        }
        .write(&dir)
        .unwrap();
        crate::wal::WalWriter::create(
            &dir.join(crate::manifest::ROUTING_FILE),
            0,
            crate::SyncPolicy::Always,
        )
        .unwrap()
        .append(1, b"routing record")
        .unwrap();
        let meta = SnapshotMeta {
            epoch: 3,
            backend: BACKEND_BASELINE,
            scenario: 0,
            users: 4,
            live: 4,
            facilities: 2,
            tree_nodes: 0,
            tree_items: 0,
        };
        for shard in 0..2usize {
            let shard_dir = ShardManifest::shard_dir(&dir, shard);
            let mut store = Store::create(&shard_dir, StoreConfig::default()).unwrap();
            store.checkpoint(&meta, b"shard body").unwrap();
            store.append_batch(4, b"payload").unwrap();
        }
        // Deliberately corrupt shard 1's snapshot body: its verdict must
        // flip to FAILED while shard 0 still reads verified — and the
        // report must never error out.
        let shard1 = ShardManifest::shard_dir(&dir, 1);
        for entry in std::fs::read_dir(&shard1).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "tqs") {
                let mut raw = std::fs::read(&p).unwrap();
                let last = raw.len() - 1;
                raw[last] ^= 0xFF;
                std::fs::write(&p, raw).unwrap();
            }
        }

        let r = report(&dir).unwrap();
        assert!(r.contains("sharded store"), "{r}");
        assert!(r.contains("2 shards, hash partitioner"), "{r}");
        assert!(r.contains("wal routing.tql: 1 valid records"), "{r}");
        assert!(r.contains("shard 000:"), "{r}");
        assert!(r.contains("shard 001:"), "{r}");
        assert!(r.contains("verified"), "{r}");
        assert!(r.contains("FAILED"), "{r}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_shard_directory_reports_instead_of_failing() {
        use crate::manifest::{PartitionerSpec, ShardManifest};

        let dir = tmp_dir("missing-shard");
        std::fs::create_dir_all(&dir).unwrap();
        ShardManifest {
            shards: 2,
            partitioner: PartitionerSpec::Hash,
        }
        .write(&dir)
        .unwrap();
        // No routing log, no shard directories at all.
        let r = report(&dir).unwrap();
        assert!(r.contains("no routing log"), "{r}");
        assert!(r.contains("UNUSABLE: corrupt contents: shard directory missing"), "{r}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_replication_position_when_metadata_is_present() {
        let dir = tmp_dir("replmeta");
        let mut store = Store::create(&dir, StoreConfig::default()).unwrap();
        let meta = SnapshotMeta {
            epoch: 2,
            backend: BACKEND_BASELINE,
            scenario: 0,
            users: 3,
            live: 3,
            facilities: 1,
            tree_nodes: 0,
            tree_items: 0,
        };
        store.checkpoint(&meta, b"body").unwrap();
        // Without the sidecar file the report says nothing about
        // replication; with it, the position shows up.
        let before = report(&dir).unwrap();
        assert!(!before.contains("replication"), "{before}");
        ReplMeta {
            last_shipped: 9,
            last_acked: 6,
        }
        .write(&dir)
        .unwrap();
        let r = report(&dir).unwrap();
        assert!(
            r.contains("replication repl.tqr: last shipped epoch 9, last acked epoch 6 (lag 3)"),
            "{r}"
        );
        // Magic dispatch works on the bare file too, even misnamed.
        let moved = dir.join("renamed.bin");
        std::fs::copy(dir.join("repl.tqr"), &moved).unwrap();
        let r = report(&moved).unwrap();
        assert!(r.contains("last shipped epoch 9"), "{r}");
        // A corrupted sidecar degrades to UNUSABLE, never an error.
        let mut raw = std::fs::read(dir.join("repl.tqr")).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(dir.join("repl.tqr"), raw).unwrap();
        let r = report(&dir).unwrap();
        assert!(r.contains("UNUSABLE"), "{r}");
    }

    #[test]
    fn misnamed_wal_detected_by_magic() {
        let dir = tmp_dir("misnamed");
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("weird-name.bin");
        crate::wal::WalWriter::create(&wal_path, 0, crate::SyncPolicy::Always)
            .unwrap()
            .append(3, b"x")
            .unwrap();
        let r = report(&wal_path).unwrap();
        assert!(r.contains("valid records"), "{r}");
    }
}
