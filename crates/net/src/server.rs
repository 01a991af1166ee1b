//! The threaded TCP server behind `tqd`.
//!
//! Threading model (one box per thread):
//!
//! ```text
//!             ┌────────────┐   TcpStream per conn   ┌──────────────┐
//!  clients ──▶│ accept loop│──────spawn────────────▶│ conn thread  │ × N
//!             └────────────┘                        │ queries: the │
//!                   │ polls stop flag               │  lock-free   │
//!                   ▼                               │  Reader      │
//!             joins conn threads                    │ apply/ckpt:  │
//!                                                   │  WriterHandle│
//!                                                   │  (one lock)  │
//!                                                   └──────────────┘
//! ```
//!
//! Every connection thread holds its own [`Reader`]
//! and answers queries from the latest published snapshot with zero
//! locks and zero engine mutation. Update batches — from any connection
//! — run on their connection's own thread under the one lock of the
//! [`WriterHub`] that owns the control plane, preserving the
//! single-writer invariant end to end: the network layer adds fan-in,
//! never a second writer. The
//! server is generic over [`ControlPlane`], so a plain
//! [`Engine`] and a sharded
//! [`ShardedEngine`](tq_core::sharding::ShardedEngine) serve the
//! identical wire protocol — `tqd` picks by auto-detecting the store
//! directory's layout.
//!
//! Graceful shutdown (a protocol `Shutdown` frame or
//! [`ServerHandle::shutdown`]) flips one stop flag; the accept loop stops
//! accepting, each connection thread notices at its next poll and closes,
//! and the writer takes a final checkpoint before handing the engine
//! back. [`ServerHandle::abort`] skips the final checkpoint — the crash
//! path the WAL exists for.

use crate::frame::{read_frame_interruptible, write_frame, Polled, HEADER_LEN, TRAILER_LEN};
use crate::proto::{
    kind, Ack, ErrorCode, ErrorFrame, Request, Response, ServerInfo, ServerRole, StatusReport,
};
use crate::{NetError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use tq_core::engine::{Engine, EngineError, Reader};
use tq_core::writer::{ControlPlane, WriterError, WriterHandle, WriterHub, WriterOptions};
use tq_repl::proto::{ReplAck, ReplHello, ReplRecord, SnapshotChunk, REPL_PROTOCOL_VERSION};
use tq_repl::{plan_catch_up, CatchUpPlan, ReplicationHub};
use tq_store::codec::Reader as CodecReader;
use tq_store::store::WAL_FILE;
use tq_store::WalTailReader;

/// Bytes of snapshot image per [`SnapshotChunk`] frame during a
/// follower bootstrap transfer (1 MiB — well under any sane frame cap).
const SNAPSHOT_CHUNK_LEN: usize = 1 << 20;

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Frame body cap for received frames (default 32 MiB).
    pub max_frame: usize,
    /// Socket read timeout; bounds how long a quiet connection takes to
    /// notice the stop flag (default 50 ms).
    pub poll: Duration,
    /// Take a final checkpoint on graceful shutdown (default true; only
    /// applies to durable engines).
    pub final_checkpoint: bool,
    /// Serve replication feeds from this store directory (the engine's
    /// own directory). `None` (the default) refuses `repl-hello` frames;
    /// set it on any durable node that should accept followers.
    pub repl_dir: Option<PathBuf>,
    /// Start as a read-only follower of the primary at this address:
    /// client writes are refused with a typed `read-only` error naming
    /// it, until a `Promote` frame (or [`FollowerParts::promote`]) flips
    /// the node to primary.
    pub follow: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            poll: Duration::from_millis(50),
            final_checkpoint: true,
            repl_dir: None,
            follow: None,
        }
    }
}

/// Counters every connection thread updates and `Status` reports. The
/// statistic fields use `Relaxed` ordering throughout: they are
/// monotonic tallies read for reporting, not synchronization points.
/// Only `stop` and `follower` carry control-flow decisions and stay
/// `SeqCst`.
struct Shared {
    stop: AtomicBool,
    connections: AtomicU64,
    connections_total: AtomicU64,
    queries_served: AtomicU64,
    batches_applied: AtomicU64,
    wal_batches: AtomicU64,
    panics: AtomicU64,
    durable: bool,
    /// `true` while this node is a read-only follower.
    follower: AtomicBool,
    /// The primary's address, for redirecting writers (empty once
    /// promoted, or when this node started as a primary).
    primary: Mutex<String>,
}

impl Shared {
    fn role(&self) -> ServerRole {
        if self.follower.load(Ordering::SeqCst) {
            ServerRole::Follower
        } else {
            ServerRole::Primary
        }
    }

    fn primary_addr(&self) -> String {
        self.primary.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn become_primary(&self) {
        self.follower.store(false, Ordering::SeqCst);
        self.primary.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// The primary-side replication state a serving node carries: the
/// fan-out hub and the store directory feeds catch followers up from.
struct ReplState {
    hub: Arc<ReplicationHub>,
    dir: PathBuf,
}

/// The TCP server. Construct through [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port — read the real
    /// one back from [`ServerHandle::addr`]), moves `engine` into its
    /// writer funnel, and starts accepting connections.
    ///
    /// Generic over the [`ControlPlane`]: a plain [`Engine`] or a
    /// [`ShardedEngine`](tq_core::sharding::ShardedEngine) front end —
    /// connections serve off the engine's [`Reader`], and the wire
    /// protocol is identical either way.
    pub fn start<C: ControlPlane>(
        engine: C,
        addr: &str,
        config: ServerConfig,
    ) -> Result<ServerHandle<C>, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            batches_applied: AtomicU64::new(0),
            wal_batches: AtomicU64::new(
                engine.persist_status().map_or(0, |s| s.wal_batches as u64),
            ),
            panics: AtomicU64::new(0),
            durable: engine.persist_status().is_some(),
            follower: AtomicBool::new(config.follow.is_some()),
            primary: Mutex::new(config.follow.clone().unwrap_or_default()),
        });
        let repl = config.repl_dir.as_ref().map(|dir| {
            Arc::new(ReplState {
                hub: ReplicationHub::new(Some(dir.clone())),
                dir: dir.clone(),
            })
        });
        let reader = engine.reader();
        let hub = WriterHub::spawn_with(
            engine,
            WriterOptions {
                tap: repl.as_ref().map(|r| r.hub.tap()),
                read_only: config.follow.clone(),
                tick: None,
            },
        );
        let writer = hub.handle();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let config = config.clone();
            let writer = writer.clone();
            let repl = repl.clone();
            std::thread::spawn(move || {
                while !shared.stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let shared = Arc::clone(&shared);
                            let reader = reader.clone();
                            let writer = writer.clone();
                            let config = config.clone();
                            let repl = repl.clone();
                            let conn = std::thread::spawn(move || {
                                serve_connection(
                                    stream,
                                    &shared,
                                    &reader,
                                    &writer,
                                    repl.as_deref(),
                                    &config,
                                );
                            });
                            let mut held = conns.lock().unwrap_or_else(|e| e.into_inner());
                            held.retain(|h| !h.is_finished());
                            held.push(conn);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        Ok(ServerHandle {
            addr: local,
            shared,
            accept,
            conns,
            hub,
            writer,
            repl,
            config,
        })
    }
}

/// The running server: its address, lifecycle, and the way to get the
/// engine back. Generic over the [`ControlPlane`] it owns (defaulting
/// to a plain [`Engine`]).
pub struct ServerHandle<C: ControlPlane = Engine> {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    hub: WriterHub<C>,
    writer: WriterHandle,
    repl: Option<Arc<ReplState>>,
    config: ServerConfig,
}

impl<C: ControlPlane> ServerHandle<C> {
    /// The bound address (with the real port when `addr` asked for `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-thread panics caught so far (always `0` unless a bug
    /// slipped through — the torture tests assert on this).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// A handle into the single-writer funnel — what a follower's ingest
    /// thread applies shipped records through while the server serves
    /// reads ([`FollowerParts`] bundles it with the role state).
    pub fn writer(&self) -> WriterHandle {
        self.writer.clone()
    }

    /// The replication hub's status, when this node serves feeds
    /// ([`ServerConfig::repl_dir`]).
    pub fn repl_status(&self) -> Option<tq_repl::HubStatus> {
        self.repl.as_ref().map(|r| r.hub.status())
    }

    /// The pieces a follower's ingest loop needs while the handle itself
    /// is parked in [`ServerHandle::wait`].
    pub fn follower_parts(&self) -> FollowerParts {
        FollowerParts {
            writer: self.writer.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until a protocol `Shutdown` frame flips the stop flag, then
    /// finishes the graceful path and returns the engine.
    pub fn wait(self) -> Result<C, EngineError> {
        // The accept thread exits when the flag flips.
        let _ = self.accept.join();
        drain(&self.conns);
        self.hub.stop(self.config.final_checkpoint)
    }

    /// Graceful shutdown: stop accepting, drain connections, final
    /// checkpoint (per [`ServerConfig::final_checkpoint`]), return the
    /// engine.
    pub fn shutdown(self) -> Result<C, EngineError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.wait()
    }

    /// Hard stop *without* the final checkpoint: what a crash leaves
    /// behind, minus the process exit. The returned engine's store has
    /// whatever the WAL held — reopening the directory must replay every
    /// acknowledged batch.
    pub fn abort(self) -> Result<C, EngineError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
        drain(&self.conns);
        self.hub.stop(false)
    }
}

fn drain(conns: &Mutex<Vec<JoinHandle<()>>>) {
    let held = std::mem::take(&mut *conns.lock().unwrap_or_else(|e| e.into_inner()));
    for conn in held {
        let _ = conn.join();
    }
}

/// What a follower daemon's ingest thread holds while the
/// [`ServerHandle`] is parked in [`ServerHandle::wait`]: the writer
/// funnel to apply shipped records through, and the shared role state.
#[derive(Clone)]
pub struct FollowerParts {
    writer: WriterHandle,
    shared: Arc<Shared>,
}

impl FollowerParts {
    /// The writer funnel — [`WriterHandle::apply_replicated`] is the
    /// ingest path.
    pub fn writer(&self) -> &WriterHandle {
        &self.writer
    }

    /// Whether the server is stopping — the ingest loop's exit signal.
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Whether this node is still a follower (false after promotion).
    pub fn is_follower(&self) -> bool {
        self.shared.follower.load(Ordering::SeqCst)
    }

    /// Promotes this node to primary: the writer accepts client batches
    /// from the next message on, and status/hello frames report the
    /// primary role. Returns the epoch at promotion.
    pub fn promote(&self) -> Result<u64, WriterError> {
        let epoch = self.writer.promote()?;
        self.shared.become_primary();
        Ok(epoch)
    }
}

/// The network layer's metric handles, resolved once per process.
struct NetMetrics {
    conns_opened: &'static tq_obs::Counter,
    conns_active: &'static tq_obs::Gauge,
    bytes_in: &'static tq_obs::Counter,
    bytes_out: &'static tq_obs::Counter,
    panics: &'static tq_obs::Counter,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| NetMetrics {
        conns_opened: tq_obs::counter("tq_net_connections_total", ""),
        conns_active: tq_obs::gauge("tq_net_connections_active", ""),
        bytes_in: tq_obs::counter("tq_net_bytes_in_total", ""),
        bytes_out: tq_obs::counter("tq_net_bytes_out_total", ""),
        panics: tq_obs::counter("tq_net_panics_total", ""),
    })
}

/// The per-kind received-frame counter. Unknown kinds still count (as
/// `unknown`) — they produce a typed protocol error, not silence.
fn frame_kind_counter(kind: u8) -> &'static tq_obs::Counter {
    let label = match kind {
        kind::HELLO => "kind=\"hello\"",
        kind::QUERY => "kind=\"query\"",
        kind::EXPLAIN => "kind=\"explain\"",
        kind::APPLY => "kind=\"apply\"",
        kind::CHECKPOINT => "kind=\"checkpoint\"",
        kind::STATUS => "kind=\"status\"",
        kind::SHUTDOWN => "kind=\"shutdown\"",
        kind::REPL_HELLO => "kind=\"repl-hello\"",
        kind::PROMOTE => "kind=\"promote\"",
        kind::REPL_ACK => "kind=\"repl-ack\"",
        kind::METRICS => "kind=\"metrics\"",
        _ => "kind=\"unknown\"",
    };
    tq_obs::counter("tq_net_frames_total", label)
}

/// Counts one received frame's wire footprint (header + body + CRC).
fn note_frame_in(kind: u8, body_len: usize) {
    if tq_obs::enabled() {
        frame_kind_counter(kind).incr();
        net_metrics()
            .bytes_in
            .add((HEADER_LEN + body_len + TRAILER_LEN) as u64);
    }
}

/// Counts one sent frame's wire footprint (header + body + CRC).
fn note_frame_out(body_len: usize) {
    if tq_obs::enabled() {
        net_metrics()
            .bytes_out
            .add((HEADER_LEN + body_len + TRAILER_LEN) as u64);
    }
}

/// One connection, start to finish. Never propagates a panic: request
/// handling runs under `catch_unwind` and a caught panic closes the
/// connection with a typed error after bumping the panic counter.
fn serve_connection(
    mut stream: TcpStream,
    shared: &Shared,
    reader: &Reader,
    writer: &WriterHandle,
    repl: Option<&ReplState>,
    config: &ServerConfig,
) {
    shared.connections.fetch_add(1, Ordering::Relaxed);
    shared.connections_total.fetch_add(1, Ordering::Relaxed);
    net_metrics().conns_opened.incr();
    net_metrics().conns_active.inc();
    let _ = stream.set_read_timeout(Some(config.poll));
    let _ = stream.set_nodelay(true);

    let mut greeted = false;
    loop {
        let polled = read_frame_interruptible(&mut stream, config.max_frame, || {
            shared.stop.load(Ordering::SeqCst)
        });
        let (kind, body) = match polled {
            Ok(Polled::Frame { kind, body }) => {
                note_frame_in(kind, body.len());
                (kind, body)
            }
            Ok(Polled::Closed) => break,
            Ok(Polled::Stopped) => {
                send(
                    &mut stream,
                    &Response::Error(ErrorFrame {
                        code: ErrorCode::ShuttingDown,
                        message: "the daemon is shutting down".into(),
                    }),
                );
                break;
            }
            Err(e) => {
                // Bad magic, CRC mismatch, truncation, oversized length
                // prefix: reply with a typed protocol error (best effort —
                // the peer may already be gone) and close.
                send(&mut stream, &protocol_error(&e));
                break;
            }
        };

        if kind == kind::REPL_HELLO {
            // The connection becomes a replication feed: it leaves the
            // request/response loop for the lockstep ship/ack protocol
            // and closes when the follower (or the server) goes away.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                serve_feed(&mut stream, body, shared, repl, config);
            }));
            if outcome.is_err() {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                net_metrics().panics.incr();
            }
            break;
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_frame(kind, body, shared, reader, writer, repl, &mut greeted)
        }));
        match outcome {
            Ok(Step::Reply(resp)) => {
                if !send(&mut stream, &resp) {
                    break;
                }
            }
            Ok(Step::ReplyClose(resp)) => {
                send(&mut stream, &resp);
                break;
            }
            Ok(Step::ShutDown(resp)) => {
                send(&mut stream, &resp);
                shared.stop.store(true, Ordering::SeqCst);
                break;
            }
            Err(_) => {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                net_metrics().panics.incr();
                send(
                    &mut stream,
                    &Response::Error(ErrorFrame {
                        code: ErrorCode::Unsupported,
                        message: "internal error while serving the request".into(),
                    }),
                );
                break;
            }
        }
    }
    shared.connections.fetch_sub(1, Ordering::Relaxed);
    // The active gauge decrement is saturating and never gated, so a
    // metrics toggle mid-connection cannot wrap it.
    net_metrics().conns_active.dec();
}

enum Step {
    Reply(Response),
    ReplyClose(Response),
    ShutDown(Response),
}

fn handle_frame(
    kind: u8,
    body: bytes::Bytes,
    shared: &Shared,
    reader: &Reader,
    writer: &WriterHandle,
    repl: Option<&ReplState>,
    greeted: &mut bool,
) -> Step {
    let request = match Request::from_frame(kind, body) {
        Ok(req) => req,
        Err(e) => return Step::ReplyClose(protocol_error(&e)),
    };

    // The handshake gate: nothing is served before a version-matched
    // Hello.
    if !*greeted {
        return match request {
            Request::Hello { version } if version == PROTOCOL_VERSION => {
                *greeted = true;
                Step::Reply(Response::Hello(server_info(reader, shared)))
            }
            Request::Hello { version } => Step::ReplyClose(Response::Error(ErrorFrame {
                code: ErrorCode::VersionMismatch,
                message: format!(
                    "server speaks protocol v{PROTOCOL_VERSION}, client sent v{version}"
                ),
            })),
            _ => Step::ReplyClose(Response::Error(ErrorFrame {
                code: ErrorCode::Protocol,
                message: "the first frame on a connection must be a hello".into(),
            })),
        };
    }

    match request {
        Request::Hello { .. } => Step::Reply(Response::Hello(server_info(reader, shared))),
        Request::Query(q) | Request::Explain(q) => {
            shared.queries_served.fetch_add(1, Ordering::Relaxed);
            match reader.query(q) {
                Ok(answer) => Step::Reply(Response::Answer(Box::new(answer))),
                Err(e) => engine_error(&e),
            }
        }
        Request::Apply(batch) => match writer.apply(batch) {
            Ok(ack) => {
                shared.batches_applied.fetch_add(1, Ordering::Relaxed);
                shared.wal_batches.store(ack.wal_batches, Ordering::Relaxed);
                Step::Reply(Response::Ack(Ack {
                    epoch: ack.epoch,
                    outcome: Some(ack.outcome),
                    wal_batches: ack.wal_batches,
                }))
            }
            Err(WriterError::Engine(e)) => engine_error(&e),
            Err(WriterError::Stopped) => Step::ReplyClose(Response::Error(ErrorFrame {
                code: ErrorCode::ShuttingDown,
                message: "the writer has stopped".into(),
            })),
        },
        Request::Checkpoint => match writer.checkpoint() {
            Ok(ack) => {
                shared.wal_batches.store(0, Ordering::Relaxed);
                Step::Reply(Response::Ack(Ack {
                    epoch: ack.epoch,
                    outcome: None,
                    wal_batches: 0,
                }))
            }
            Err(WriterError::Engine(e)) => engine_error(&e),
            Err(WriterError::Stopped) => Step::ReplyClose(Response::Error(ErrorFrame {
                code: ErrorCode::ShuttingDown,
                message: "the writer has stopped".into(),
            })),
        },
        Request::Status => {
            let repl_status = repl.map(|r| r.hub.status());
            Step::Reply(Response::Status(StatusReport {
                info: server_info(reader, shared),
                connections: shared.connections.load(Ordering::Relaxed),
                queries_served: shared.queries_served.load(Ordering::Relaxed),
                batches_applied: shared.batches_applied.load(Ordering::Relaxed),
                wal_batches: shared.wal_batches.load(Ordering::Relaxed),
                followers: repl_status.as_ref().map_or(0, |s| s.followers.len() as u64),
                last_shipped: repl_status.as_ref().map_or(0, |s| s.last_shipped),
                min_acked: repl_status.as_ref().and_then(|s| s.min_acked).unwrap_or(0),
                connections_total: shared.connections_total.load(Ordering::Relaxed),
                panics: shared.panics.load(Ordering::Relaxed),
            }))
        }
        Request::Metrics => Step::Reply(Response::Metrics(tq_obs::snapshot().render())),
        Request::Promote => match writer.promote() {
            Ok(epoch) => {
                shared.become_primary();
                Step::Reply(Response::Ack(Ack {
                    epoch,
                    outcome: None,
                    wal_batches: shared.wal_batches.load(Ordering::Relaxed),
                }))
            }
            Err(WriterError::Engine(e)) => engine_error(&e),
            Err(WriterError::Stopped) => Step::ReplyClose(Response::Error(ErrorFrame {
                code: ErrorCode::ShuttingDown,
                message: "the writer has stopped".into(),
            })),
        },
        Request::Shutdown => Step::ShutDown(Response::Ack(Ack {
            epoch: reader.epoch(),
            outcome: None,
            wal_batches: shared.wal_batches.load(Ordering::Relaxed),
        })),
    }
}

fn server_info(reader: &Reader, shared: &Shared) -> ServerInfo {
    let info = reader.info();
    ServerInfo {
        version: PROTOCOL_VERSION,
        epoch: info.epoch,
        backend: info.backend,
        users: info.users as u64,
        live_users: info.live_users as u64,
        facilities: info.facilities as u64,
        durable: shared.durable,
        role: shared.role(),
        primary: shared.primary_addr(),
    }
}

/// An engine refusal is request-scoped: the snapshot and WAL are
/// untouched, so the connection stays usable. A follower's write
/// refusal gets its own code so clients can redirect to the primary.
fn engine_error(e: &EngineError) -> Step {
    let code = match e {
        EngineError::ReadOnly { .. } => ErrorCode::ReadOnly,
        _ => ErrorCode::Engine,
    };
    Step::Reply(Response::Error(ErrorFrame {
        code,
        message: e.to_string(),
    }))
}

fn protocol_error(e: &NetError) -> Response {
    Response::Error(ErrorFrame {
        code: ErrorCode::Protocol,
        message: e.to_string(),
    })
}

/// Best-effort response write; false means the peer is gone.
fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    let (kind, body) = resp.to_frame();
    note_frame_out(body.len());
    write_frame(stream, kind, body.as_ref()).is_ok()
}

/// One replication feed, start to finish: validate the hello, register
/// with the hub *before* touching disk, catch the follower up (snapshot
/// and/or WAL records), then relay live records — every ship in
/// lockstep with the follower's `repl-ack`.
fn serve_feed(
    stream: &mut TcpStream,
    hello_body: bytes::Bytes,
    shared: &Shared,
    repl: Option<&ReplState>,
    config: &ServerConfig,
) {
    let mut r = CodecReader::new(hello_body);
    let hello = match ReplHello::decode(&mut r).and_then(|h| r.finish().map(|()| h)) {
        Ok(h) => h,
        Err(e) => {
            send(
                stream,
                &Response::Error(ErrorFrame {
                    code: ErrorCode::Protocol,
                    message: format!("bad repl-hello body: {e}"),
                }),
            );
            return;
        }
    };
    if hello.protocol != REPL_PROTOCOL_VERSION {
        send(
            stream,
            &Response::Error(ErrorFrame {
                code: ErrorCode::VersionMismatch,
                message: format!(
                    "server speaks replication protocol v{REPL_PROTOCOL_VERSION}, \
                     follower sent v{}",
                    hello.protocol
                ),
            }),
        );
        return;
    }
    if hello.shard != 0 {
        send(
            stream,
            &Response::Error(ErrorFrame {
                code: ErrorCode::Unsupported,
                message: format!(
                    "per-shard feeds are not served yet (requested shard {})",
                    hello.shard
                ),
            }),
        );
        return;
    }
    let Some(state) = repl else {
        send(
            stream,
            &Response::Error(ErrorFrame {
                code: ErrorCode::Unsupported,
                message: "this daemon does not serve replication feeds \
                          (no replicable store directory)"
                    .into(),
            }),
        );
        return;
    };
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    // Register before any disk read: from here on, every published
    // record is either already durable (the catch-up phase reads it)
    // or queued (the live phase relays it) — overlap is deduped by
    // epoch stamp on the follower.
    let (id, queue) = state.hub.register(peer);
    let _ = run_feed(stream, shared, state, config, hello.have_epoch, id, &queue);
    state.hub.deregister(id);
}

fn run_feed(
    stream: &mut TcpStream,
    shared: &Shared,
    state: &ReplState,
    config: &ServerConfig,
    have_epoch: Option<u64>,
    id: u64,
    queue: &Receiver<ReplRecord>,
) -> Result<(), NetError> {
    let mut last_sent = match plan_catch_up(&state.dir, have_epoch) {
        Ok(CatchUpPlan::WalOnly { from }) => {
            // Open the stream explicitly: an empty-payload position
            // marker tells the follower the feed is live from `from`,
            // so its bootstrap returns without waiting for a first real
            // record (which may never come on an idle primary).
            ship(
                stream,
                shared,
                config,
                ReplRecord {
                    epoch: from,
                    payload: bytes::Bytes::new(),
                },
            )?;
            from
        }
        Ok(CatchUpPlan::Snapshot { path, epoch }) => {
            send_snapshot(stream, shared, config, &path, epoch)?;
            epoch
        }
        Err(e) => {
            send(
                stream,
                &Response::Error(ErrorFrame {
                    code: ErrorCode::Engine,
                    message: format!("cannot plan follower catch-up: {e}"),
                }),
            );
            return Ok(());
        }
    };

    // WAL catch-up: ship every durable record above the follower's
    // position. The tail reader holds the WAL's inode open, so a
    // concurrent checkpoint rebasing the file cannot yank records out
    // from under this loop; anything appended after registration is in
    // the queue as well.
    if let Ok(mut wal) = WalTailReader::open(&state.dir.join(WAL_FILE)) {
        while let Some(record) = wal.poll().map_err(NetError::Codec)? {
            if record.epoch <= last_sent {
                continue;
            }
            last_sent = record.epoch;
            let acked = ship(
                stream,
                shared,
                config,
                ReplRecord {
                    epoch: record.epoch,
                    payload: record.payload,
                },
            )?;
            state.hub.note_shipped(last_sent);
            state.hub.note_ack(id, acked);
        }
    }

    // Live phase: relay the hub queue until the follower drops, the
    // server stops, or the queue overflows (the follower reconnects and
    // re-catches-up from disk in that case).
    loop {
        if shared.stop.load(Ordering::SeqCst) || state.hub.is_overflowed(id) {
            return Ok(());
        }
        match queue.recv_timeout(config.poll) {
            Ok(record) => {
                if record.epoch <= last_sent {
                    continue;
                }
                last_sent = record.epoch;
                let acked = ship(stream, shared, config, record)?;
                state.hub.note_ack(id, acked);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Streams one snapshot file to a bootstrapping follower in
/// [`SNAPSHOT_CHUNK_LEN`] pieces, awaiting the lockstep ack after each.
/// An empty snapshot still sends one empty chunk so the follower learns
/// `total_len` and the epoch.
fn send_snapshot(
    stream: &mut TcpStream,
    shared: &Shared,
    config: &ServerConfig,
    path: &std::path::Path,
    epoch: u64,
) -> Result<(), NetError> {
    let data = std::fs::read(path)?;
    let total_len = data.len() as u64;
    let mut offset = 0usize;
    loop {
        let end = (offset + SNAPSHOT_CHUNK_LEN).min(data.len());
        let chunk = SnapshotChunk {
            epoch,
            offset: offset as u64,
            total_len,
            data: bytes::Bytes::from(data[offset..end].to_vec()),
        };
        let mut body = bytes::BytesMut::new();
        chunk.encode(&mut body);
        note_frame_out(body.len());
        write_frame(stream, kind::S_REPL_SNAPSHOT, body.as_ref())?;
        await_ack(stream, shared, config)?;
        offset = end;
        if offset >= data.len() {
            return Ok(());
        }
    }
}

/// Ships one record frame and blocks for its lockstep ack, returning the
/// epoch the follower reports as durably applied.
fn ship(
    stream: &mut TcpStream,
    shared: &Shared,
    config: &ServerConfig,
    record: ReplRecord,
) -> Result<u64, NetError> {
    let mut body = bytes::BytesMut::new();
    record.encode(&mut body);
    note_frame_out(body.len());
    write_frame(stream, kind::S_REPL_RECORD, body.as_ref())?;
    await_ack(stream, shared, config)
}

/// Blocks for the follower's `repl-ack`, honouring the stop flag.
fn await_ack(
    stream: &mut TcpStream,
    shared: &Shared,
    config: &ServerConfig,
) -> Result<u64, NetError> {
    let polled = read_frame_interruptible(stream, config.max_frame, || {
        shared.stop.load(Ordering::SeqCst)
    })?;
    match polled {
        Polled::Frame { kind: k, body } if k == kind::REPL_ACK => {
            note_frame_in(k, body.len());
            let mut r = CodecReader::new(body);
            let ack = ReplAck::decode(&mut r).and_then(|a| r.finish().map(|()| a))?;
            Ok(ack.epoch)
        }
        Polled::Frame { kind: k, .. } => Err(NetError::Unexpected { kind: k }),
        Polled::Closed | Polled::Stopped => Err(NetError::Closed),
    }
}
