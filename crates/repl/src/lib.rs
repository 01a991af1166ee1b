//! WAL-shipping replication for TQ engines — warm standby followers
//! behind a primary's single-writer funnel.
//!
//! The durable layers below this crate already make one node safe: every
//! acknowledged batch is in the primary's WAL before it publishes
//! ([`tq_core::persist`]), and recovery replays the longest valid prefix
//! bit-identically. Replication extends that guarantee across machines by
//! shipping the *same bytes*: a WAL record's payload **is** the
//! replication record's payload, stamped with the epoch the batch
//! published, so a follower applies exactly what the primary logged and
//! answers queries bit-identical to it at the same epoch.
//!
//! The crate owns the transport-agnostic pieces; `tq-net` supplies the
//! frames and sockets around them:
//!
//! * [`proto`] — the replication payload codecs: [`ReplHello`] (what a
//!   follower announces), [`ReplRecord`] (one epoch-stamped WAL payload),
//!   [`SnapshotChunk`] (bootstrap transfer), [`ReplAck`] (lockstep
//!   acknowledgement).
//! * [`hub`] — the primary-side [`ReplicationHub`]: tapped into the
//!   writer funnel *after* each batch's WAL append, it fans records out
//!   to per-follower bounded queues. The tap never blocks the write
//!   path — a follower that falls behind its queue bound is dropped and
//!   re-catches-up from disk.
//! * [`catchup`] — the catch-up planner: given what a follower already
//!   has, decide between shipping WAL records only or bootstrapping with
//!   a snapshot first ([`plan_catch_up`]).
//!
//! ## The invariants, in one place
//!
//! * **Ship after ack.** A record reaches a follower only after the
//!   primary has validated, WAL-logged, applied, published and
//!   acknowledged it. Followers can never observe a batch the primary
//!   could still reject.
//! * **No gaps.** A feed connection registers with the hub *before*
//!   reading the store, so every record is either already on disk (the
//!   catch-up phase reads it) or arrives through the queue (the live
//!   phase ships it) — possibly both, never neither.
//! * **Duplicates are free.** Overlap between catch-up and the live feed
//!   is resolved by the epoch stamp: `Engine::apply_replicated` skips
//!   records at or below its epoch, the same rule crash recovery uses.

#![warn(missing_docs)]

pub mod catchup;
pub mod hub;
pub mod proto;

pub use catchup::{plan_catch_up, CatchUpPlan};
pub use hub::{FollowerStatus, HubStatus, ReplicationHub};
pub use proto::{ReplAck, ReplHello, ReplRecord, SnapshotChunk, REPL_PROTOCOL_VERSION};
