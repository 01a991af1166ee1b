//! # tq — trajectory coverage queries over a TQ-tree
//!
//! A Rust implementation of *"The Maximum Trajectory Coverage Query in
//! Spatial Databases"* (Ali, Abdullah, Eusuf, Choudhury, Culpepper, Sellis —
//! 2018): the **TQ-tree** index and the **kMaxRRST** / **MaxkCovRST**
//! queries, plus the paper's baselines and synthetic stand-ins for its
//! datasets.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`geometry`] — points, rectangles, adaptive Z-order ids;
//! * [`trajectory`] — user trajectories, facilities, dataset containers;
//! * [`quadtree`] — the traditional point quadtree behind the baseline;
//! * [`core`] — the [`Engine`](core::engine::Engine) layer, the TQ-tree,
//!   service evaluation, top-k and coverage solvers, and the
//!   [`ShardedEngine`](core::sharding::ShardedEngine) scatter–gather
//!   front end (bit-identical to one engine at every shard count);
//! * [`store`] — durable engine state: checksummed snapshot files, the
//!   update WAL with crash recovery, and the binary codec under both
//!   (drive it through [`Engine::open`](core::engine::Engine::open) /
//!   [`EngineBuilder::persist_to`](core::engine::EngineBuilder::persist_to));
//! * [`net`] — networked serving: the `tqd` daemon's length-framed,
//!   CRC-guarded wire protocol, the blocking [`Client`](net::Client) SDK
//!   and the threaded [`Server`](net::Server) (queries stay lock-free per
//!   connection; update batches funnel through the engine's single
//!   writer);
//! * [`repl`] — WAL-shipping replication: the primary-side
//!   [`ReplicationHub`](repl::ReplicationHub) fan-out, the catch-up
//!   planner, and the replication payload codecs behind `tqd --follow`
//!   warm standbys;
//! * [`obs`] — always-on observability: the lock-free metrics registry
//!   (integer counters, gauges and log-linear latency histograms) every
//!   layer above records into, the ring-buffer slow-query log, and the
//!   stable `name{label} value` text rendering behind `tq metrics`;
//! * [`baseline`] — the paper's BL / G-BL reference methods;
//! * [`datagen`] — seeded NYT/NYF/BJG-like workload generators.
//!
//! ## Quickstart
//!
//! Everything is served through one typed entry point: an
//! [`Engine`](core::engine::Engine) owning the users, the service model and
//! a backend index, answering [`Query`](core::engine::Query)s with an
//! [`Explain`](core::engine::Explain) report attached.
//!
//! ```
//! use tq::prelude::*;
//!
//! // A small synthetic city with taxi trips and candidate bus routes.
//! let city = CityModel::synthetic(7, 8, 10_000.0);
//! let users = taxi_trips(&city, 2_000, 1);
//! let routes = bus_routes(&city, 32, 12, 3_000.0, 2);
//!
//! // One engine: users + service model + a TQ-tree backend.
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 200.0))
//!     .users(users)
//!     .facilities(routes)
//!     .build()?;
//!
//! // kMaxRRST: the 4 individually best routes.
//! let top = engine.run(Query::top_k(4))?;
//! assert_eq!(top.ranked().len(), 4);
//!
//! // MaxkCovRST: the best pair of routes that jointly serve the most users.
//! let cover = engine.run(Query::max_cov(2).algorithm(Algorithm::TwoStep))?;
//! assert!(cover.cover().value >= top.ranked()[0].1 - 1e-9);
//!
//! // The coverage query built the served table over all routes and the
//! // engine kept it, so a top-k re-query is answered from it.
//! let again = engine.run(Query::top_k(4))?;
//! assert!(again.explain.cache.is_hit());
//! # Ok::<(), tq::core::engine::EngineError>(())
//! ```
//!
//! Streaming workloads use the same type — [`Engine::apply`] ingests
//! batched arrivals/expiries and keeps the warmed table bit-identical to a
//! fresh build+query:
//!
//! ```
//! use tq::prelude::*;
//!
//! let city = CityModel::synthetic(7, 4, 5_000.0);
//! let trips = taxi_trips(&city, 500, 1);
//! let routes = bus_routes(&city, 8, 6, 2_000.0, 2);
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 150.0))
//!     .users(trips)
//!     .facilities(routes)
//!     .bounds(city.bounds.expand(1.0))
//!     .build()?;
//! engine.warm(); // build the full table so batches maintain it incrementally
//!
//! let newcomer = taxi_trips(&city, 1, 99).get(0).clone();
//! engine.apply(&[Update::Insert(newcomer), Update::Remove(0)])?;
//! assert_eq!(engine.live_users(), 500);
//! let top = engine.run(Query::top_k(3))?;
//! assert!(top.explain.cache.is_hit());
//! # Ok::<(), tq::core::engine::EngineError>(())
//! ```
//!
//! [`Engine::apply`]: core::engine::Engine::apply

/// The user guide's `rust` code blocks, compiled and run as doctests so
/// the documented examples can never rot (`cargo test --doc -p tq`).
#[cfg(doctest)]
#[doc = include_str!("../docs/GUIDE.md")]
pub struct GuideDoctests;

pub use tq_core as core;
pub use tq_core::baseline;
pub use tq_datagen as datagen;
pub use tq_geometry as geometry;
pub use tq_net as net;
pub use tq_obs as obs;
pub use tq_quadtree as quadtree;
pub use tq_repl as repl;
pub use tq_store as store;
pub use tq_trajectory as trajectory;

/// The most common imports in one place.
pub mod prelude {
    pub use tq_core::baseline::BaselineIndex;
    pub use tq_core::dynamic::{Update, UpdateError, UpdateStats};
    pub use tq_core::engine::{
        Algorithm, Answer, Backend, BackendKind, CacheStatus, Engine, EngineBuilder,
        EngineError, Explain, Index, PlaneInfo, Query, QueryResult, Reader, Snapshot,
    };
    pub use tq_core::persist::{PersistStatus, StoreConfig, SyncPolicy};
    pub use tq_core::sharding::{Partitioner, ShardSet, ShardedEngine};
    pub use tq_core::writer::{BatchAck, ControlPlane, WriterError, WriterHandle, WriterHub};
    pub use tq_net::{Client, ConnectConfig, NetError, Server, ServerConfig, ServerHandle};
    pub use tq_core::maxcov::{exact, genetic, greedy, two_step_greedy, GeneticConfig, ServedTable};
    pub use tq_core::{
        evaluate_masks, evaluate_service, top_k_facilities, Placement, PointMask, Scenario,
        ServiceModel, Storage, TqTree, TqTreeConfig,
    };
    pub use tq_datagen::presets;
    pub use tq_datagen::{
        bus_routes, checkins, gps_traces, stream_scenario, taxi_trips, CityModel, StreamEvent,
        StreamKind, StreamScenario,
    };
    pub use tq_geometry::{Point, Rect, ZId};
    pub use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
}
