//! Wire transport for the query vocabulary: [`Encode`]/[`Decode`]
//! implementations that let [`Query`], [`Answer`], [`Explain`],
//! [`QueryResult`], [`CovOutcome`], [`BatchOutcome`] and [`Update`] travel
//! through the `tq-store` codec — the payload layer under `tq-net`'s
//! framed protocol (and, for [`Update`], under the WAL record format in
//! [`crate::persist`], which is byte-identical).
//!
//! Layout follows the codec's house rules: little-endian everywhere,
//! `f64`s as raw bits (answers cross the wire **bit-exactly**), `u32`
//! length prefixes with pre-allocation sanity checks, and decoding that
//! returns [`StoreError`] instead of panicking on any malformed input —
//! a network peer is the least trustworthy byte source in the system.
//!
//! Enum discriminants are part of the wire format and must never be
//! renumbered: `Update` (0 insert / 1 remove — pinned by existing WAL
//! files), `Algorithm` (0 greedy / 1 two-step / 2 exact / 3 genetic),
//! `QueryKind` (0 top-k / 1 max-cov), `CacheStatus` (0 unused / 1 miss /
//! 2 hit), `BackendKind` (0 tq-tree / 1 baseline), `QueryResult`
//! (0 top-k / 1 max-cov). Durations travel as whole nanoseconds in a
//! `u64`.

use crate::dynamic::{BatchOutcome, Update};
use crate::engine::session::QueryKind;
use crate::engine::{Algorithm, Answer, BackendKind, CacheStatus, Explain, Query, QueryResult};
use crate::eval::EvalStats;
use crate::maxcov::CovOutcome;
use bytes::{BufMut, BytesMut};
use std::time::Duration;
use tq_store::{Decode, Encode, Reader, StoreError};
use tq_trajectory::Trajectory;

fn corrupt(why: impl Into<String>) -> StoreError {
    StoreError::Corrupt(why.into())
}

// ---------------------------------------------------------------------------
// Update (shared with the WAL record format)
// ---------------------------------------------------------------------------

impl Encode for Update {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Update::Insert(t) => {
                buf.put_u8(0);
                t.encode(buf);
            }
            Update::Remove(id) => {
                buf.put_u8(1);
                buf.put_u32_le(*id);
            }
        }
    }
}

impl Decode for Update {
    // 1 tag byte + the 4-byte id of the smallest variant (`Remove`).
    const MIN_SIZE: usize = 5;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(Update::Insert(Trajectory::decode(r)?)),
            1 => Ok(Update::Remove(r.u32()?)),
            other => Err(corrupt(format!("update tag {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Small tagged scalars
// ---------------------------------------------------------------------------

impl Encode for Algorithm {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            Algorithm::Greedy => 0,
            Algorithm::TwoStep => 1,
            Algorithm::Exact => 2,
            Algorithm::Genetic => 3,
        });
    }
}

impl Decode for Algorithm {
    const MIN_SIZE: usize = 1;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(Algorithm::Greedy),
            1 => Ok(Algorithm::TwoStep),
            2 => Ok(Algorithm::Exact),
            3 => Ok(Algorithm::Genetic),
            other => Err(corrupt(format!("algorithm tag {other}"))),
        }
    }
}

impl Encode for CacheStatus {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            CacheStatus::Unused => 0,
            CacheStatus::Miss => 1,
            CacheStatus::Hit => 2,
        });
    }
}

impl Decode for CacheStatus {
    const MIN_SIZE: usize = 1;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(CacheStatus::Unused),
            1 => Ok(CacheStatus::Miss),
            2 => Ok(CacheStatus::Hit),
            other => Err(corrupt(format!("cache-status tag {other}"))),
        }
    }
}

impl Encode for BackendKind {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self {
            BackendKind::TqTree => 0,
            BackendKind::Baseline => 1,
        });
    }
}

impl Decode for BackendKind {
    const MIN_SIZE: usize = 1;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(BackendKind::TqTree),
            1 => Ok(BackendKind::Baseline),
            other => Err(corrupt(format!("backend tag {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

fn put_opt_u64(v: Option<usize>, buf: &mut BytesMut) {
    (v.map(|n| n as u64)).encode(buf);
}

fn get_opt_usize(r: &mut Reader) -> Result<Option<usize>, StoreError> {
    Ok(Option::<u64>::decode(r)?.map(|n| n as usize))
}

impl Encode for Query {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(match self.kind {
            QueryKind::TopK => 0,
            QueryKind::MaxCov => 1,
        });
        buf.put_u64_le(self.k as u64);
        self.algorithm.encode(buf);
        self.candidates.encode(buf);
        put_opt_u64(self.threads, buf);
        self.seed.encode(buf);
        put_opt_u64(self.k_prime, buf);
        put_opt_u64(self.node_budget, buf);
    }
}

impl Decode for Query {
    // kind + k + algorithm + four 1-byte-minimum options + seed option.
    const MIN_SIZE: usize = 1 + 8 + 1 + 5;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let kind = match r.u8()? {
            0 => QueryKind::TopK,
            1 => QueryKind::MaxCov,
            other => return Err(corrupt(format!("query-kind tag {other}"))),
        };
        Ok(Query {
            kind,
            k: r.u64()? as usize,
            algorithm: Algorithm::decode(r)?,
            candidates: Option::decode(r)?,
            threads: get_opt_usize(r)?,
            seed: Option::decode(r)?,
            k_prime: get_opt_usize(r)?,
            node_budget: get_opt_usize(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Answer + Explain
// ---------------------------------------------------------------------------

impl Encode for EvalStats {
    fn encode(&self, buf: &mut BytesMut) {
        for n in [
            self.nodes_visited,
            self.items_tested,
            self.items_pruned,
            self.distance_checks,
            self.parallel_tasks,
        ] {
            buf.put_u64_le(n as u64);
        }
    }
}

impl Decode for EvalStats {
    const MIN_SIZE: usize = 40;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(EvalStats {
            nodes_visited: r.u64()? as usize,
            items_tested: r.u64()? as usize,
            items_pruned: r.u64()? as usize,
            distance_checks: r.u64()? as usize,
            parallel_tasks: r.u64()? as usize,
        })
    }
}

impl Encode for Explain {
    fn encode(&self, buf: &mut BytesMut) {
        self.backend.encode(buf);
        buf.put_u64_le(self.snapshot_epoch);
        buf.put_u64_le(self.candidates as u64);
        self.eval.encode(buf);
        buf.put_u64_le(self.relaxations as u64);
        self.cache.encode(buf);
        buf.put_u64_le(self.threads as u64);
        buf.put_u64_le(self.queued.as_nanos() as u64);
        buf.put_u64_le(self.wall.as_nanos() as u64);
    }
}

impl Decode for Explain {
    const MIN_SIZE: usize = 1 + 8 + 8 + EvalStats::MIN_SIZE + 8 + 1 + 8 + 8 + 8;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(Explain {
            backend: Option::decode(r)?,
            snapshot_epoch: r.u64()?,
            candidates: r.u64()? as usize,
            eval: EvalStats::decode(r)?,
            relaxations: r.u64()? as usize,
            cache: CacheStatus::decode(r)?,
            threads: r.u64()? as usize,
            queued: Duration::from_nanos(r.u64()?),
            wall: Duration::from_nanos(r.u64()?),
        })
    }
}

impl Encode for CovOutcome {
    fn encode(&self, buf: &mut BytesMut) {
        self.chosen.encode(buf);
        buf.put_f64_le(self.value);
        buf.put_u64_le(self.users_served as u64);
        self.stats.encode(buf);
    }
}

impl Decode for CovOutcome {
    const MIN_SIZE: usize = 4 + 8 + 8 + EvalStats::MIN_SIZE;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(CovOutcome {
            chosen: Vec::decode(r)?,
            value: r.f64()?,
            users_served: r.u64()? as usize,
            stats: EvalStats::decode(r)?,
        })
    }
}

impl Encode for QueryResult {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            QueryResult::TopK(ranked) => {
                buf.put_u8(0);
                ranked.encode(buf);
            }
            QueryResult::MaxCov(out) => {
                buf.put_u8(1);
                out.encode(buf);
            }
        }
    }
}

impl Decode for QueryResult {
    // 1 tag byte + the 4-byte empty ranked list of the smallest variant.
    const MIN_SIZE: usize = 5;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        match r.u8()? {
            0 => Ok(QueryResult::TopK(Vec::decode(r)?)),
            1 => Ok(QueryResult::MaxCov(CovOutcome::decode(r)?)),
            other => Err(corrupt(format!("query-result tag {other}"))),
        }
    }
}

impl Encode for Answer {
    fn encode(&self, buf: &mut BytesMut) {
        self.result.encode(buf);
        self.explain.encode(buf);
    }
}

impl Decode for Answer {
    const MIN_SIZE: usize = QueryResult::MIN_SIZE + Explain::MIN_SIZE;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        Ok(Answer {
            result: QueryResult::decode(r)?,
            explain: Explain::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// BatchOutcome (the apply acknowledgement payload)
// ---------------------------------------------------------------------------

// The fourth counter slot carried the count of facilities re-evaluated
// through the tree, a path `Engine::apply` no longer has. It stays on the
// wire so peers of either age decode each other: written as 0, read and
// ignored.
impl Encode for BatchOutcome {
    fn encode(&self, buf: &mut BytesMut) {
        self.inserted.encode(buf);
        for n in [self.removed, self.untouched, self.patched, 0] {
            buf.put_u64_le(n as u64);
        }
    }
}

impl Decode for BatchOutcome {
    const MIN_SIZE: usize = 4 + 32;
    fn decode(r: &mut Reader) -> Result<Self, StoreError> {
        let outcome = BatchOutcome {
            inserted: Vec::decode(r)?,
            removed: r.u64()? as usize,
            untouched: r.u64()? as usize,
            patched: r.u64()? as usize,
        };
        r.u64()?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_geometry::Point;

    fn codec_roundtrip<T: Encode + Decode>(v: &T) -> T {
        let mut buf = BytesMut::with_capacity(128);
        v.encode(&mut buf);
        let mut r = Reader::new(buf.freeze());
        let back = T::decode(&mut r).expect("well-formed bytes decode");
        r.finish().expect("decode consumes exactly what encode wrote");
        back
    }

    #[test]
    fn query_roundtrips_every_field() {
        let q = Query::max_cov(4)
            .algorithm(Algorithm::Genetic)
            .candidates(&[9, 3, 3, 7])
            .threads(2)
            .seed(0x5EED)
            .k_prime(16)
            .node_budget(1_000);
        let back = codec_roundtrip(&q);
        assert_eq!(back.kind, q.kind);
        assert_eq!(back.k, q.k);
        assert_eq!(back.algorithm, q.algorithm);
        assert_eq!(back.candidates, q.candidates);
        assert_eq!(back.threads, q.threads);
        assert_eq!(back.seed, q.seed);
        assert_eq!(back.k_prime, q.k_prime);
        assert_eq!(back.node_budget, q.node_budget);

        let plain = codec_roundtrip(&Query::top_k(8));
        assert_eq!(plain.kind, QueryKind::TopK);
        assert_eq!(plain.candidates, None);
    }

    #[test]
    fn answers_roundtrip_bit_exactly() {
        let answer = Answer {
            result: QueryResult::TopK(vec![(3, 17.25), (0, -0.0), (9, f64::MIN_POSITIVE)]),
            explain: Explain {
                backend: Some(BackendKind::TqTree),
                snapshot_epoch: 42,
                candidates: 128,
                eval: EvalStats {
                    nodes_visited: 1,
                    items_tested: 2,
                    items_pruned: 3,
                    distance_checks: 4,
                    parallel_tasks: 5,
                },
                relaxations: 6,
                cache: CacheStatus::Hit,
                threads: 7,
                queued: Duration::from_micros(13),
                wall: Duration::from_millis(2),
            },
        };
        let back = codec_roundtrip(&answer);
        for (a, b) in answer.ranked().iter().zip(back.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(back.explain.snapshot_epoch, 42);
        assert_eq!(back.explain.cache, CacheStatus::Hit);
        assert_eq!(back.explain.queued, Duration::from_micros(13));

        let cov = Answer {
            result: QueryResult::MaxCov(CovOutcome {
                chosen: vec![1, 5],
                value: 1.0 / 3.0,
                users_served: 99,
                stats: EvalStats::default(),
            }),
            explain: Explain::default(),
        };
        let back = codec_roundtrip(&cov);
        assert_eq!(back.cover().chosen, vec![1, 5]);
        assert_eq!(back.cover().value.to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn batch_outcome_roundtrips() {
        let out = BatchOutcome {
            inserted: vec![100, 101],
            removed: 3,
            untouched: 40,
            patched: 5,
        };
        let mut buf = BytesMut::new();
        out.encode(&mut buf);
        let mut bytes = buf.as_ref().to_vec();
        assert_eq!(
            bytes.len(),
            4 + 2 * 4 + 4 * 8,
            "four counter slots, as before"
        );
        assert_eq!(
            bytes[bytes.len() - 8..],
            [0; 8],
            "the retired slot is written as 0"
        );
        let back = codec_roundtrip(&out);
        assert_eq!(back.inserted, out.inserted);
        assert_eq!((back.removed, back.untouched, back.patched), (3, 40, 5));

        // An older peer fills the fourth slot with its re-evaluation count:
        // it decodes, and the count is dropped.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&2u64.to_le_bytes());
        let mut r = Reader::new(bytes.into());
        let old = BatchOutcome::decode(&mut r).expect("an old peer's ack decodes");
        r.finish().expect("all four slots consumed");
        assert_eq!(old.inserted, out.inserted);
        assert_eq!((old.removed, old.untouched, old.patched), (3, 40, 5));
    }

    #[test]
    fn corrupt_tags_error_instead_of_panicking() {
        for (tag_pos, bytes) in [
            ("query kind", vec![9u8]),
            ("algorithm", vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 7]),
        ] {
            let mut r = Reader::new(bytes.into());
            assert!(Query::decode(&mut r).is_err(), "bad {tag_pos} accepted");
        }
        let mut r = Reader::new(vec![2u8].into());
        assert!(QueryResult::decode(&mut r).is_err());
        let mut r = Reader::new(vec![3u8].into());
        assert!(BackendKind::decode(&mut r).is_err());
        let mut r = Reader::new(vec![7u8].into());
        assert!(Update::decode(&mut r).is_err());
    }

    #[test]
    fn truncated_answers_error_at_every_byte() {
        let answer = Answer {
            result: QueryResult::TopK(vec![(1, 2.5), (2, 1.5)]),
            explain: Explain::default(),
        };
        let mut buf = BytesMut::with_capacity(128);
        answer.encode(&mut buf);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(bytes.slice(0..cut));
            // Every truncation must surface as Err, never as a panic.
            assert!(Answer::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn update_wire_format_matches_the_wal_record_format() {
        // `Vec<Update>` through this codec must stay byte-identical to the
        // WAL payload `crate::persist::encode_batch` writes — existing WAL
        // files decode through either path.
        let p = |x: f64, y: f64| Point::new(x, y);
        let batch = vec![
            Update::Insert(Trajectory::two_point(p(0.0, 0.0), p(1.0, 1.0))),
            Update::Remove(7),
        ];
        let mut via_wire = BytesMut::with_capacity(128);
        batch.encode(&mut via_wire);
        let via_wal = crate::persist::encode_batch(&batch);
        assert_eq!(via_wire.as_ref(), via_wal.as_ref());
    }
}
