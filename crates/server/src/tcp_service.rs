//! The networked deployment: the back-end server behind framed TCP.
//!
//! Protocol (JSON per frame):
//!
//! ```text
//! client → server   {"type":"hello","collection":"name"?}
//!                   {"type":"resume","worker":n,"from":n,"have":[n,...],
//!                    "collection":"name"?}
//!                   {"type":"submit","auto":bool,"msg":{...},
//!                    "speculative":bool?}
//!                   {"type":"modify","msgs":[{"auto":bool,"msg":{...}},...]}
//!                   {"type":"sync","from":n,"have":[n,...]}
//!                   {"type":"stats"}
//!                   {"type":"health"}
//!                   {"type":"bye"}
//! server → client   {"type":"welcome","worker":n,"client":n,"history_len":n,
//!                    "collection":"name","schema":{...},"history":[msg,...]}
//!                   {"type":"resumed","client":n,"history_len":n,
//!                    "msgs":[{"seq":n,"msg":{...}},...]}
//!                   {"type":"ack","estimate":x,"fulfilled":bool,"seqs":[n,...]}
//!                   {"type":"reject","reason":"..."}
//!                   {"type":"overloaded","retry_after_ms":n}
//!                   {"type":"lagging"}  (catch up via sync; broadcasts dropped)
//!                   {"type":"stats","snapshot":"..."}  (metrics text)
//!                   {"type":"health","report":{...}}  (see DESIGN.md §11)
//!                   {"type":"synced","history_len":n,"msgs":[{"seq":n,...},...]}
//!                   {"type":"msg","seq":n,"msg":{...}}  (broadcast)
//! ```
//!
//! ## Collections
//!
//! One service multiplexes N independent collections over one port
//! ([`TcpService::start_multi`]). The first handshake frame names the
//! collection to attach to (`"collection"`, defaulting to the first one),
//! and everything after the handshake is scoped to it: each collection has
//! its own [`Backend`] (history, WAL, PRI maintenance), its own
//! [`BatchPipeline`] admission queue and apply thread, and its own
//! connection registry, so one hot collection cannot starve another's
//! queue. Worker ids and session epochs are per-collection (they are
//! assigned by the collection's backend), which is why a `resume` must
//! carry the collection id. See DESIGN.md §13.
//!
//! ## Connection layers
//!
//! Two interchangeable connection layers drive the same protocol
//! ([`ConnLayer`]):
//!
//! * **Reactor (default)** — a small fixed pool of shard threads sweeps
//!   nonblocking sockets with per-connection read/write state machines
//!   (`crates/net` [`FrameReader`](crowdfill_net::FrameReader)/
//!   [`FrameWriter`](crowdfill_net::FrameWriter)); total thread count is
//!   O(pool size), not O(connections). See `reactor.rs` and DESIGN.md §13.
//! * **Thread-per-connection (legacy)** — one reader thread plus one
//!   [`Seat`] writer thread per connection; kept for A/B benchmarking.
//!
//! Both enforce the same degradation policy: outbound delivery goes
//! through a bounded per-connection buffer, so one stalled reader cannot
//! wedge the flush path — it is downgraded to lagging (broadcasts to it
//! dropped, healed by `sync`) and eventually evicted (see
//! [`OverloadOptions`] and DESIGN.md §9).
//!
//! ## Failure model
//!
//! The convergence theorem (paper §2.4) assumes reliable in-order delivery
//! for a worker's whole lifetime; TCP only provides it per *connection*.
//! The recovery layer restores the assumption across connection failures:
//!
//! * Every broadcast carries its index in the server's global message
//!   history (`seq`); acks carry the seqs assigned to the client's own
//!   submissions. The client tracks the exact set it has applied
//!   ([`AppliedSeqs`]).
//! * On a connection failure, [`RemoteWorker`] redials with capped
//!   exponential backoff plus jitter ([`ReconnectPolicy`]) and sends
//!   `resume`: the server re-attaches the session (bumping its epoch so the
//!   dead connection's thread cannot tear it down) and replays exactly the
//!   history suffix the client is missing.
//! * A submission that was in flight when the connection died is matched by
//!   equality against the replayed suffix: present means the server applied
//!   it (the lost ack is synthesized with `recovered = true`); absent means
//!   it must be resubmitted. A resubmission the server rejects triggers a
//!   full resync — rebuild the replica from the complete history — because
//!   the local optimistic application has provably diverged.
//! * `sync` is the read-only variant of `resume` (no session takeover): the
//!   client asks for whatever it is missing, which also heals silent
//!   broadcast loss on a lossy link.
//!
//! Messages are *not* idempotent (votes increment counters), so exact-set
//! replay — rather than at-least-once redelivery — is what makes a resumed
//! replica provably converge to the master.

use crate::backend::{Backend, BatchOp, SubmitError, SubmitReport};
use crate::batch::{BatchOptions, BatchPipeline};
use crate::overload::{OverloadOptions, Priority};
use crate::progress::{ProgressTracker, StopAction, StoppingPolicy};
use crate::reactor::{self, ReactorOptions};
use crate::wire;
use crossbeam::channel::{self, TrySendError};
use crowdfill_docstore::{Json, JsonRef};
use crowdfill_model::Message;
use crowdfill_net::{ConnError, FrameConn, TcpConn, TcpServer};
use crowdfill_obs::metrics::{Counter, Histogram};
use crowdfill_obs::timeseries::{
    evaluate_slos, RegistryRef, SampleRing, Sampler, SamplerOptions, SloSpec,
};
use crowdfill_obs::trace::{self as obstrace, ActiveSpan, SpanId, Stage, TraceId};
use crowdfill_obs::SpanTimer;
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_sync::AppliedSeqs;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Counter of multi-op `batch` broadcast frames sent (each replaces what
/// would have been `msgs-per-frame` singleton `msg` frames).
pub(crate) fn batch_broadcast_frames() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_batch_broadcast_frames"))
}

/// Milliseconds since the newest durable checkpoint of any collection,
/// refreshed by the durability sweep (worst case across collections).
pub(crate) fn m_snapshot_age_ms() -> &'static crowdfill_obs::metrics::Gauge {
    static G: OnceLock<Arc<crowdfill_obs::metrics::Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_snapshot_age_ms"))
}

/// 1 once the progress sweep's stopping policy closed a collection.
pub(crate) fn m_progress_stopped() -> &'static crowdfill_obs::metrics::Gauge {
    static G: OnceLock<Arc<crowdfill_obs::metrics::Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_progress_stopped"))
}

/// Latest reward multiplier (milli) the stopping policy recommended.
pub(crate) fn m_progress_reprice_milli() -> &'static crowdfill_obs::metrics::Gauge {
    static G: OnceLock<Arc<crowdfill_obs::metrics::Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_progress_reprice_factor_milli"))
}

/// The progress SLOs the sweep evaluates (DESIGN.md §15): completeness
/// at or above the target, and budget-burn no faster than progress
/// toward it. Evaluated only by the sweep — their burn gauges reach the
/// `health` reply through the dynamic ring scan, so a collection far
/// from its target burns these without tripping static-SLO assertions.
pub(crate) fn progress_slo_specs(target: f64) -> Vec<SloSpec> {
    let window = Duration::from_secs(60);
    vec![
        SloSpec::gauge_above(
            "completeness-target",
            "crowdfill_progress_completeness_milli",
            (target * 1000.0).round(),
            window,
        ),
        SloSpec::burn_to_target(
            "burn-to-target",
            "crowdfill_progress_spent_frac_milli",
            "crowdfill_progress_target_frac_milli",
            1.0,
            window,
        ),
    ]
}

/// Exports one progress report as gauges. Like the per-column health
/// gauges these are process-global: with multiple collections the last
/// sweep write wins.
fn publish_progress_gauges(report: &crate::progress::ProgressReport) {
    use crowdfill_obs::metrics::gauge;
    let o = &report.overall;
    gauge("crowdfill_progress_completeness_milli").set((o.completeness * 1000.0).round() as i64);
    gauge("crowdfill_progress_observed").set(o.observed as i64);
    gauge("crowdfill_progress_est_total").set(o.est_total.round() as i64);
    gauge("crowdfill_progress_marginal_new_milli")
        .set((o.marginal_new_rate * 1000.0).round() as i64);
    if report.budget > 0.0 {
        gauge("crowdfill_progress_spent_frac_milli")
            .set(((report.spent / report.budget) * 1000.0).round() as i64);
    }
    if report.target > 0.0 {
        gauge("crowdfill_progress_target_frac_milli")
            .set(((o.completeness / report.target).clamp(0.0, 1.0) * 1000.0).round() as i64);
    }
}

/// Connections forcibly closed after staying lagging past `evict_after`.
pub(crate) fn m_evictions() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_evictions"))
}

/// Connections downgraded to lagging (write buffer overflowed).
pub(crate) fn m_lag_downgrades() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_lag_downgrades"))
}

/// Broadcast frames dropped instead of buffered for lagging connections
/// (each is healed later by the client's `sync`/`resume`).
pub(crate) fn m_lag_dropped() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_lag_dropped_frames"))
}

/// Most seq-tagged messages packed into one `batch` broadcast frame (keeps
/// frames far inside the transport's frame-size cap).
const BATCH_FRAME_CHUNK: usize = 256;

/// Per-endpoint service metrics, resolved once at service start.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    pub(crate) connects: Arc<Counter>,
    pub(crate) disconnects: Arc<Counter>,
    pub(crate) submit_requests: Arc<Counter>,
    pub(crate) modify_requests: Arc<Counter>,
    pub(crate) stats_requests: Arc<Counter>,
    pub(crate) health_requests: Arc<Counter>,
    pub(crate) trace_dump_requests: Arc<Counter>,
    pub(crate) resume_requests: Arc<Counter>,
    pub(crate) reset_resyncs: Arc<Counter>,
    pub(crate) sync_requests: Arc<Counter>,
    pub(crate) malformed_frames: Arc<Counter>,
    pub(crate) accept_errors: Arc<Counter>,
    pub(crate) idle_disconnects: Arc<Counter>,
    pub(crate) request_latency_ns: Arc<Histogram>,
    pub(crate) submit_latency_ns: Arc<Histogram>,
    pub(crate) modify_latency_ns: Arc<Histogram>,
}

impl ServiceMetrics {
    fn resolve() -> ServiceMetrics {
        use crowdfill_obs::metrics::{counter, histogram};
        ServiceMetrics {
            connects: counter("crowdfill_server_connects"),
            disconnects: counter("crowdfill_server_disconnects"),
            submit_requests: counter("crowdfill_server_submit_requests"),
            modify_requests: counter("crowdfill_server_modify_requests"),
            stats_requests: counter("crowdfill_server_stats_requests"),
            health_requests: counter("crowdfill_server_health_requests"),
            trace_dump_requests: counter("crowdfill_server_trace_dump_requests"),
            resume_requests: counter("crowdfill_server_resume_requests"),
            reset_resyncs: counter("crowdfill_server_reset_resyncs"),
            sync_requests: counter("crowdfill_server_sync_requests"),
            malformed_frames: counter("crowdfill_server_malformed_frames"),
            accept_errors: counter("crowdfill_server_accept_errors"),
            idle_disconnects: counter("crowdfill_server_idle_disconnects"),
            request_latency_ns: histogram("crowdfill_server_request_latency_ns"),
            submit_latency_ns: histogram("crowdfill_server_submit_latency_ns"),
            modify_latency_ns: histogram("crowdfill_server_modify_latency_ns"),
        }
    }
}

/// Live-telemetry configuration: the background sampler feeding the
/// `health` request's windowed rates and SLO burn gauges (DESIGN.md §11).
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// Registry snapshot period for the background sampler.
    pub sample_period: Duration,
    /// Sampler ring capacity in ticks.
    pub ring_capacity: usize,
    /// Service-level objectives evaluated over the sampler ring on every
    /// `health` request; each publishes a
    /// `crowdfill_slo_<name>_burn_milli` gauge.
    pub slos: Vec<SloSpec>,
    /// Predictive progress (DESIGN.md §15): `Some` (the default) runs a
    /// background sweep feeding the fill stream into the species
    /// estimator, exporting `crowdfill_progress_*` gauges, evaluating
    /// the progress SLOs, and applying the stopping policy. `None`
    /// spawns no sweep (the `health` reply still carries a progress
    /// section — it is computed from the trace on request).
    pub progress: Option<ProgressOptions>,
}

/// Knobs for the background progress sweep.
#[derive(Debug, Clone)]
pub struct ProgressOptions {
    /// How often the sweep advances each collection's estimator.
    pub interval: Duration,
    /// Completeness target for the gauges and progress SLOs.
    pub target: f64,
    /// Adaptive stopping, evaluated once per collection per tick. The
    /// first trigger acts (`Close` journals the closed marker via
    /// [`Backend::close`]; `Reprice` exports the recommended factor as
    /// a gauge and logs it; `Alert` logs) and then latches — the sweep
    /// never acts twice on one collection. `None` only observes.
    pub policy: Option<StoppingPolicy>,
}

impl Default for ProgressOptions {
    fn default() -> ProgressOptions {
        ProgressOptions {
            interval: Duration::from_millis(500),
            target: crate::progress::DEFAULT_TARGET,
            policy: None,
        }
    }
}

impl Default for TelemetryOptions {
    fn default() -> TelemetryOptions {
        let window = Duration::from_secs(60);
        TelemetryOptions {
            sample_period: Duration::from_millis(250),
            ring_capacity: 256,
            slos: vec![
                SloSpec::quantile_below_ms(
                    "ack-p99",
                    "crowdfill_server_ack_latency_ns",
                    0.99,
                    250,
                    window,
                ),
                SloSpec::ratio_below(
                    "shed-rate",
                    "crowdfill_server_sheds",
                    "crowdfill_server_submit_requests",
                    0.05,
                    window,
                ),
            ],
            progress: Some(ProgressOptions::default()),
        }
    }
}

/// The running telemetry state `health` requests read: the sampler's ring
/// plus the SLOs to evaluate over it.
pub(crate) struct ServiceTelemetry {
    pub(crate) ring: Arc<SampleRing>,
    pub(crate) slos: Vec<SloSpec>,
}

/// Which connection layer drives the sockets (see the module docs).
#[derive(Debug, Clone)]
pub enum ConnLayer {
    /// Sharded readiness loop: a fixed pool of shard threads sweeps
    /// nonblocking sockets. Thread count is O(pool size). The default.
    Reactor(ReactorOptions),
    /// One reader thread + one seat writer thread per connection. The
    /// pre-reactor design, kept as the A/B baseline for the connection-
    /// scale benches and the legacy procfs regression tests.
    ThreadPerConn,
}

impl Default for ConnLayer {
    fn default() -> ConnLayer {
        ConnLayer::Reactor(ReactorOptions::default())
    }
}

/// Tunables for the service's graceful degradation under misbehaving peers.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Disconnect a session after this long without a request (`None`:
    /// never). Reclaims threads from clients that vanished without `bye`
    /// behind a link that never resets.
    pub idle_timeout: Option<Duration>,
    /// First sleep after a failed `accept` (doubles per consecutive
    /// failure).
    pub accept_backoff_base: Duration,
    /// Cap on the accept backoff.
    pub accept_backoff_max: Duration,
    /// Batched apply pipeline configuration. `Some` (the default) routes
    /// submit/modify requests through a single apply thread that drains
    /// concurrent submissions into [`Backend::submit_batch`] calls; `None`
    /// applies each request directly on its connection thread (the
    /// pre-batching behavior).
    pub batch: Option<BatchOptions>,
    /// Overload-protection knobs: admission bounds and shed budget for the
    /// batch pipeline, write-buffer watermark and eviction policy for
    /// connections (DESIGN.md §9).
    pub overload: OverloadOptions,
    /// Live telemetry: `Some` (the default) runs a background sampler and
    /// serves windowed rates and SLO burn rates on `health` requests;
    /// `None` disables the sampler thread entirely (a `health` request
    /// still reports semantic telemetry, just no SLO evaluation).
    pub telemetry: Option<TelemetryOptions>,
    /// The connection layer: the sharded reactor (default) or the legacy
    /// thread-per-connection design.
    pub conn_layer: ConnLayer,
    /// Background durability sweep (DESIGN.md §14). `Some` runs a thread
    /// that compacts any collection whose journal grew past the threshold
    /// and keeps the snapshot-age gauge fresh; it only acts on backends
    /// that were opened with storage attached ([`crate::persist`]), so
    /// it is safe to enable for in-memory collections too. `None` (the
    /// default) spawns no thread — checkpoints are then the embedder's
    /// job via [`Backend::checkpoint`]/[`Backend::compact_storage`].
    pub durability: Option<DurabilitySweepOptions>,
}

/// Knobs for the background checkpoint/compaction sweep.
#[derive(Debug, Clone)]
pub struct DurabilitySweepOptions {
    /// How often the sweep inspects each collection.
    pub interval: Duration,
    /// Compact (checkpoint + truncate the journal) once a collection's
    /// journal reaches this many bytes.
    pub compact_wal_bytes: u64,
}

impl Default for DurabilitySweepOptions {
    fn default() -> DurabilitySweepOptions {
        DurabilitySweepOptions {
            interval: Duration::from_secs(1),
            compact_wal_bytes: 4 << 20,
        }
    }
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            idle_timeout: None,
            accept_backoff_base: Duration::from_millis(10),
            accept_backoff_max: Duration::from_secs(1),
            batch: Some(BatchOptions::default()),
            overload: OverloadOptions::default(),
            telemetry: Some(TelemetryOptions::default()),
            conn_layer: ConnLayer::default(),
            durability: None,
        }
    }
}

/// The server-side send half of one connection: a bounded outbound frame
/// buffer drained by a dedicated writer thread, plus the lagging state that
/// drives the watermark downgrade → `sync` → eviction policy. Enqueuing is
/// non-blocking, so one stalled reader can never wedge the broadcast flush
/// path for everyone else.
pub(crate) struct Seat {
    conn: Arc<TcpConn>,
    outbound: channel::Sender<Vec<u8>>,
    /// Set when the write buffer overflows. While lagging, broadcasts to
    /// this connection are counted and dropped — the client's exact-seq
    /// tracking means a later `sync`/`resume` replays precisely what was
    /// missed — and the eviction clock runs.
    lagging: AtomicBool,
    /// When the seat went lagging (the eviction clock).
    lagging_since: Mutex<Option<Instant>>,
    /// A `{"type":"lagging"}` note owed to the client, sent by the writer
    /// thread as soon as the buffer makes progress. Shared with the writer
    /// thread directly (not via the seat) so the thread does not keep the
    /// seat — and with it the channel's only `Sender` — alive.
    note_pending: Arc<AtomicBool>,
    /// Set once the seat has been evicted (shutdown is idempotent, but the
    /// metrics should count each eviction once).
    evicted: AtomicBool,
}

impl Seat {
    /// Wraps a connection in a bounded outbound buffer and spawns its
    /// writer thread. The thread must NOT hold the seat itself: the seat
    /// owns the channel's only `Sender`, and the thread's exit condition is
    /// `recv()` observing disconnection once the seat is dropped. It
    /// captures only the connection and the `note_pending` flag.
    fn spawn(conn: Arc<TcpConn>, overload: &OverloadOptions) -> Arc<Seat> {
        let (outbound, rx) = channel::bounded::<Vec<u8>>(overload.write_buffer_frames.max(1));
        let note_pending = Arc::new(AtomicBool::new(false));
        let seat = Arc::new(Seat {
            conn: Arc::clone(&conn),
            outbound,
            lagging: AtomicBool::new(false),
            lagging_since: Mutex::new(None),
            note_pending: Arc::clone(&note_pending),
            evicted: AtomicBool::new(false),
        });
        let pace = overload.writer_pace;
        let _ = std::thread::Builder::new()
            .name("crowdfill-conn-write".into())
            .spawn(move || loop {
                let frame = match rx.recv() {
                    Ok(f) => f,
                    Err(_) => return,
                };
                if conn.send(&frame).is_err() {
                    return;
                }
                if note_pending.swap(false, Ordering::AcqRel)
                    && conn.send(lagging_frame().encode().as_bytes()).is_err()
                {
                    return;
                }
                if let Some(pace) = pace {
                    std::thread::sleep(pace);
                }
            });
        seat
    }

    /// Queues one outbound frame, non-blocking. A full buffer downgrades
    /// the connection to lagging; a connection lagging past
    /// [`OverloadOptions::evict_after`] is forcibly closed (the session
    /// survives — the client reconnects and resumes).
    fn enqueue(&self, frame: Vec<u8>, overload: &OverloadOptions) {
        if self.evicted.load(Ordering::Acquire) {
            return;
        }
        if self.lagging.load(Ordering::Acquire) {
            m_lag_dropped().inc();
            self.maybe_evict(overload);
            return;
        }
        match self.outbound.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                // Watermark crossed: stop buffering for this reader. It is
                // told to catch up via `sync` (which also clears the flag);
                // until then broadcasts to it are dropped, not queued.
                if !self.lagging.swap(true, Ordering::AcqRel) {
                    *self.lagging_since.lock() = Some(Instant::now());
                    self.note_pending.store(true, Ordering::Release);
                    m_lag_downgrades().inc();
                    crowdfill_obs::obs_warn!(
                        "server",
                        "client {} lagging: write buffer full, downgraded to sync",
                        self.conn.peer_addr()
                    );
                }
                m_lag_dropped().inc();
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Disconnects the seat if it has been lagging past
    /// [`OverloadOptions::evict_after`] without a healing `sync`. Called
    /// from [`enqueue`](Self::enqueue) when fresh broadcasts arrive and
    /// from the service's periodic sweep, so a stalled reader on a quiet
    /// collection (no further broadcast traffic) is still evicted on time.
    fn maybe_evict(&self, overload: &OverloadOptions) {
        if self.evicted.load(Ordering::Acquire) || !self.lagging.load(Ordering::Acquire) {
            return;
        }
        let since = *self.lagging_since.lock();
        if since.is_some_and(|t| t.elapsed() > overload.evict_after)
            && !self.evicted.swap(true, Ordering::AcqRel)
        {
            m_evictions().inc();
            crowdfill_obs::obs_warn!(
                "server",
                "evicting slow client {} (lagging past {:?})",
                self.conn.peer_addr(),
                overload.evict_after
            );
            self.conn.shutdown();
        }
    }

    /// Clears the lagging state. Called by the `sync` handler *before* the
    /// catch-up suffix is computed under the backend lock: every broadcast
    /// dropped while lagging then has a seq below the history length the
    /// reply covers, and anything newer is enqueued normally (overlap is
    /// healed by the client's seq dedup).
    fn clear_lagging(&self) {
        self.lagging.store(false, Ordering::Release);
        *self.lagging_since.lock() = None;
    }
}

/// The server-side send half of one connection, either layer: the legacy
/// [`Seat`] (bounded channel + writer thread) or the reactor's
/// [`Outbox`](reactor::Outbox) (bounded queue drained by a shard sweep).
/// Both carry identical lagging/eviction semantics, so the registries,
/// the eviction sweep, and the broadcast flush path are layer-agnostic.
#[derive(Clone)]
pub(crate) enum Downlink {
    Seat(Arc<Seat>),
    Outbox(Arc<reactor::Outbox>),
}

impl Downlink {
    /// Queues one broadcast frame, non-blocking; a full buffer downgrades
    /// the connection to lagging (see [`Seat::enqueue`]).
    pub(crate) fn enqueue(&self, frame: Vec<u8>, overload: &OverloadOptions) {
        match self {
            Downlink::Seat(s) => s.enqueue(frame, overload),
            Downlink::Outbox(o) => o.enqueue_broadcast(frame, overload),
        }
    }

    pub(crate) fn clear_lagging(&self) {
        match self {
            Downlink::Seat(s) => s.clear_lagging(),
            Downlink::Outbox(o) => o.clear_lagging(),
        }
    }

    pub(crate) fn maybe_evict(&self, overload: &OverloadOptions) {
        match self {
            Downlink::Seat(s) => s.maybe_evict(overload),
            Downlink::Outbox(o) => o.maybe_evict(overload),
        }
    }

    /// Forcibly closes the underlying socket (thundering-herd lever).
    pub(crate) fn shutdown(&self) {
        match self {
            Downlink::Seat(s) => s.conn.shutdown(),
            Downlink::Outbox(o) => o.shutdown(),
        }
    }

    /// Identity: whether both handles refer to the same connection.
    pub(crate) fn same_link(&self, other: &Downlink) -> bool {
        match (self, other) {
            (Downlink::Seat(a), Downlink::Seat(b)) => Arc::ptr_eq(a, b),
            (Downlink::Outbox(a), Downlink::Outbox(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

pub(crate) type ConnRegistry = Arc<Mutex<HashMap<WorkerId, Downlink>>>;

/// One hosted collection: its backend (history, WAL, PRI), its batch
/// pipeline (admission queue + apply thread), and the connections
/// currently attached to it. Per-collection isolation is structural —
/// nothing but the listening socket, the shard pool, and the telemetry
/// sampler is shared between collections.
pub struct Collection {
    name: String,
    pub(crate) backend: Arc<Mutex<Backend>>,
    pub(crate) pipeline: Option<Arc<BatchPipeline>>,
    pub(crate) registry: ConnRegistry,
}

impl Collection {
    /// The collection's wire name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared access to this collection's backend.
    pub fn backend(&self) -> Arc<Mutex<Backend>> {
        Arc::clone(&self.backend)
    }
}

pub(crate) type Collections = Arc<HashMap<String, Arc<Collection>>>;

/// Immutable per-service state shared by every connection handler on
/// either connection layer.
pub(crate) struct ServiceShared {
    pub(crate) collections: Collections,
    /// The collection a handshake without a `"collection"` field attaches
    /// to (the first one passed to [`TcpService::start_multi`]).
    pub(crate) default_collection: String,
    pub(crate) started: Instant,
    pub(crate) metrics: Arc<ServiceMetrics>,
    pub(crate) options: Arc<ServiceOptions>,
    pub(crate) telemetry: Option<Arc<ServiceTelemetry>>,
}

impl ServiceShared {
    /// Resolves a handshake's collection field. `None` = unknown name.
    pub(crate) fn resolve_collection(&self, name: Option<&str>) -> Option<Arc<Collection>> {
        let name = name.unwrap_or(&self.default_collection);
        self.collections.get(name).cloned()
    }
}

/// A running TCP service around one or more collections.
pub struct TcpService {
    addr: SocketAddr,
    shared: Arc<ServiceShared>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Reactor shard threads (empty under [`ConnLayer::ThreadPerConn`]).
    shard_threads: Vec<std::thread::JoinHandle<()>>,
    /// The eviction, durability and progress sweeps; woken by `sweep_stop`
    /// and joined on `stop`.
    sweep_threads: Vec<std::thread::JoinHandle<()>>,
    sweep_stop: Arc<SweepStop>,
    /// The background metrics sampler; joined on `stop` (and on drop).
    sampler: Option<Sampler>,
}

/// The background sweeps' clock: each waits out its interval here instead
/// of sleeping, so [`TcpService::stop`] wakes them at once.
#[derive(Default)]
struct SweepStop {
    stopped: std::sync::Mutex<bool>,
    wake: std::sync::Condvar,
}

impl SweepStop {
    /// Waits up to `interval`; `true` once the service is stopping.
    fn wait(&self, interval: Duration) -> bool {
        let stopped = self.stopped.lock().unwrap_or_else(|e| e.into_inner());
        let (stopped, _) = self
            .wake
            .wait_timeout_while(stopped, interval, |stopped| !*stopped)
            .unwrap_or_else(|e| e.into_inner());
        *stopped
    }

    fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
    }
}

impl TcpService {
    /// Binds and starts serving with default options. Use port 0 for an
    /// ephemeral port.
    pub fn start(backend: Backend, addr: &str) -> Result<TcpService, ConnError> {
        TcpService::start_with(backend, addr, ServiceOptions::default())
    }

    /// Binds and starts serving one collection (named
    /// [`DEFAULT_COLLECTION`]) with explicit options.
    pub fn start_with(
        backend: Backend,
        addr: &str,
        options: ServiceOptions,
    ) -> Result<TcpService, ConnError> {
        TcpService::start_multi(
            vec![(DEFAULT_COLLECTION.to_string(), backend)],
            addr,
            options,
        )
    }

    /// Binds and starts serving N independent collections multiplexed over
    /// one port. The first entry is the default a bare `hello` attaches
    /// to; names must be unique. Each collection gets its own batch
    /// pipeline (admission queue + apply thread) per `options.batch`.
    pub fn start_multi(
        backends: Vec<(String, Backend)>,
        addr: &str,
        options: ServiceOptions,
    ) -> Result<TcpService, ConnError> {
        if backends.is_empty() {
            return Err(ConnError::Io(
                "start_multi needs at least one collection".into(),
            ));
        }
        let server = TcpServer::bind(addr)?;
        let addr = server.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let metrics = Arc::new(ServiceMetrics::resolve());
        let default_collection = backends[0].0.clone();

        // The telemetry sampler snapshots the global registry in the
        // background; `health` requests read windowed rates and SLO burn
        // from its ring. One sampler serves every collection (the metric
        // registry is process-global). With telemetry off, no thread is
        // spawned and the hot paths are untouched.
        let (sampler, telemetry) = match &options.telemetry {
            Some(t) => {
                let sampler = Sampler::start(
                    RegistryRef::Global,
                    SamplerOptions {
                        period: t.sample_period,
                        capacity: t.ring_capacity,
                    },
                );
                let telemetry = Arc::new(ServiceTelemetry {
                    ring: sampler.ring(),
                    slos: t.slos.clone(),
                });
                (Some(sampler), Some(telemetry))
            }
            None => (None, None),
        };
        let options = Arc::new(options);

        // One pipeline per collection: admission, shedding, and batching
        // are per-collection, so a storm on one cannot fill another's
        // queue. Each apply thread's after-batch hook flushes only its own
        // collection's outboxes.
        let mut map = HashMap::with_capacity(backends.len());
        for (name, backend) in backends {
            let backend = Arc::new(Mutex::new(backend));
            let registry: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
            let pipeline = options.batch.clone().map(|batch_options| {
                let apply_backend = Arc::clone(&backend);
                let flush_backend = Arc::clone(&backend);
                let flush_registry = Arc::clone(&registry);
                let flush_options = Arc::clone(&options);
                Arc::new(BatchPipeline::start(
                    apply_backend,
                    Box::new(move || now_millis(started)),
                    Box::new(move || {
                        flush_outboxes(&flush_backend, &flush_registry, &flush_options.overload)
                    }),
                    batch_options,
                    options.overload.clone(),
                ))
            });
            if map
                .insert(
                    name.clone(),
                    Arc::new(Collection {
                        name,
                        backend,
                        pipeline,
                        registry,
                    }),
                )
                .is_some()
            {
                return Err(ConnError::Io("duplicate collection name".into()));
            }
        }
        let collections: Collections = Arc::new(map);
        crowdfill_obs::obs_info!(
            "server",
            "tcp service listening on {addr} ({} collections)",
            collections.len()
        );

        let shared = Arc::new(ServiceShared {
            collections: Arc::clone(&collections),
            default_collection,
            started,
            metrics: Arc::clone(&metrics),
            options: Arc::clone(&options),
            telemetry,
        });

        // The eviction clock must not depend on broadcast traffic: a reader
        // that stalls on a quiet collection never triggers the enqueue-path
        // check, so a periodic sweep drives `maybe_evict` for every
        // connection of every collection.
        let sweep_stop = Arc::new(SweepStop::default());
        let mut sweep_threads = Vec::new();
        let sweep_collections = Arc::clone(&collections);
        let stop = Arc::clone(&sweep_stop);
        let sweep_options = Arc::clone(&options);
        let sweep_interval = (options.overload.evict_after / 4)
            .clamp(Duration::from_millis(5), Duration::from_secs(1));
        let evict_sweep = std::thread::Builder::new()
            .name("crowdfill-evict-sweep".into())
            .spawn(move || {
                while !stop.wait(sweep_interval) {
                    for collection in sweep_collections.values() {
                        let links: Vec<Downlink> =
                            collection.registry.lock().values().cloned().collect();
                        for link in links {
                            link.maybe_evict(&sweep_options.overload);
                        }
                    }
                }
            });
        sweep_threads.extend(evict_sweep.ok());

        // Durability sweep: compaction is driven by journal growth, not
        // by traffic — a collection that went quiet right after a burst
        // still gets its journal truncated. The sweep holds a collection's
        // backend lock for the duration of one checkpoint write; sizing
        // `compact_wal_bytes` bounds how much state that write covers.
        if let Some(durability) = options.durability.clone() {
            let sweep_collections = Arc::clone(&collections);
            let stop = Arc::clone(&sweep_stop);
            let durability_sweep = std::thread::Builder::new()
                .name("crowdfill-durability-sweep".into())
                .spawn(move || {
                    while !stop.wait(durability.interval) {
                        let mut oldest_age: Option<u64> = None;
                        for collection in sweep_collections.values() {
                            let mut b = collection.backend.lock();
                            if !b.has_snapshots() {
                                continue;
                            }
                            if b.wal_bytes() >= durability.compact_wal_bytes {
                                match b.compact_storage() {
                                    Ok(base) => crowdfill_obs::obs_info!(
                                        "server",
                                        "compacted collection journal";
                                        collection => collection.name(),
                                        base_seq => base,
                                    ),
                                    Err(e) => crowdfill_obs::obs_warn!(
                                        "server",
                                        "compaction failed: {e}";
                                        collection => collection.name(),
                                    ),
                                }
                            }
                            let age = b.snapshot_age_ms().unwrap_or(0);
                            oldest_age = Some(oldest_age.map_or(age, |a| a.max(age)));
                        }
                        if let Some(age) = oldest_age {
                            m_snapshot_age_ms().set(age as i64);
                        }
                    }
                });
            sweep_threads.extend(durability_sweep.ok());
        }

        // Progress sweep (DESIGN.md §15): advances each collection's
        // species estimator over the ops appended since the last tick
        // (O(new ops), not O(trace)), exports the forecast as gauges,
        // evaluates the progress SLOs over the sampler ring, and applies
        // the stopping policy at most once per collection. Requires
        // telemetry: the SLO burn gauges flow through the sampler ring.
        if let (Some(progress), Some(t)) = (
            options.telemetry.as_ref().and_then(|t| t.progress.clone()),
            shared.telemetry.as_ref(),
        ) {
            let sweep_collections = Arc::clone(&collections);
            let stop = Arc::clone(&sweep_stop);
            let ring = Arc::clone(&t.ring);
            let progress_sweep = std::thread::Builder::new()
                .name("crowdfill-progress-sweep".into())
                .spawn(move || {
                    let mut trackers: HashMap<String, (ProgressTracker, bool)> = HashMap::new();
                    let specs = progress_slo_specs(progress.target);
                    while !stop.wait(progress.interval) {
                        for collection in sweep_collections.values() {
                            let (tracker, acted) =
                                trackers.entry(collection.name.clone()).or_default();
                            let report = {
                                let b = collection.backend.lock();
                                tracker.advance(&b);
                                tracker.report(&b, progress.target)
                            };
                            publish_progress_gauges(&report);
                            let _ = evaluate_slos(&specs, &ring, crowdfill_obs::metrics::global());
                            let Some(policy) = &progress.policy else {
                                continue;
                            };
                            if *acted {
                                continue;
                            }
                            let Some(decision) = policy.evaluate(&report) else {
                                continue;
                            };
                            *acted = true;
                            match decision.action {
                                StopAction::Close => {
                                    collection.backend.lock().close();
                                    m_progress_stopped().set(1);
                                    crowdfill_obs::obs_info!(
                                        "server",
                                        "auto-stop closed collection: {}",
                                        decision.reason;
                                        collection => collection.name(),
                                    );
                                }
                                StopAction::Reprice => {
                                    let factor = policy.reprice_factor(&decision);
                                    m_progress_reprice_milli()
                                        .set((factor * 1000.0).round() as i64);
                                    crowdfill_obs::obs_warn!(
                                        "server",
                                        "auto-stop recommends repricing x{factor:.2}: {}",
                                        decision.reason;
                                        collection => collection.name(),
                                    );
                                }
                                StopAction::Alert => {
                                    crowdfill_obs::obs_warn!(
                                        "server",
                                        "auto-stop alert: {}",
                                        decision.reason;
                                        collection => collection.name(),
                                    );
                                }
                            }
                        }
                    }
                });
            sweep_threads.extend(progress_sweep.ok());
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let (accept_thread, shard_threads) = match &options.conn_layer {
            ConnLayer::Reactor(reactor_options) => {
                // Shard pool: the accept thread only hands fresh sockets
                // to shards round-robin; shards own every conn for life.
                let (shard_threads, injects) = reactor::start_shards(
                    reactor_options,
                    Arc::clone(&shared),
                    Arc::clone(&shutdown),
                );
                let accept_shared = Arc::clone(&shared);
                let accept_thread = std::thread::Builder::new()
                    .name("crowdfill-accept".into())
                    .spawn(move || {
                        let mut backoff = accept_shared.options.accept_backoff_base;
                        let mut next_shard = 0usize;
                        while !accept_shutdown.load(Ordering::SeqCst) {
                            let stream = match server.accept_raw() {
                                Ok(s) => s,
                                Err(_) => {
                                    accept_shared.metrics.accept_errors.inc();
                                    std::thread::sleep(backoff);
                                    backoff =
                                        (backoff * 2).min(accept_shared.options.accept_backoff_max);
                                    continue;
                                }
                            };
                            backoff = accept_shared.options.accept_backoff_base;
                            if accept_shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            let _ = injects[next_shard % injects.len()].send(stream);
                            next_shard = next_shard.wrapping_add(1);
                        }
                    })
                    .map_err(|e| ConnError::Io(e.to_string()))?;
                (accept_thread, shard_threads)
            }
            ConnLayer::ThreadPerConn => {
                let accept_shared = Arc::clone(&shared);
                let accept_thread = std::thread::Builder::new()
                    .name("crowdfill-accept".into())
                    .spawn(move || {
                        let mut backoff = accept_shared.options.accept_backoff_base;
                        while !accept_shutdown.load(Ordering::SeqCst) {
                            let conn = match server.accept() {
                                Ok(conn) => conn,
                                Err(_) => {
                                    // A failed accept (fd exhaustion, transient
                                    // socket error) must not busy-spin the core:
                                    // back off, capped, and try again.
                                    accept_shared.metrics.accept_errors.inc();
                                    std::thread::sleep(backoff);
                                    backoff =
                                        (backoff * 2).min(accept_shared.options.accept_backoff_max);
                                    continue;
                                }
                            };
                            backoff = accept_shared.options.accept_backoff_base;
                            if accept_shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            let conn = Arc::new(conn);
                            let shared = Arc::clone(&accept_shared);
                            let _ = std::thread::Builder::new()
                                .name("crowdfill-conn".into())
                                .spawn(move || serve_conn(conn, shared));
                        }
                    })
                    .map_err(|e| ConnError::Io(e.to_string()))?;
                (accept_thread, Vec::new())
            }
        };

        Ok(TcpService {
            addr,
            shared,
            shutdown,
            accept_thread: Some(accept_thread),
            shard_threads,
            sweep_threads,
            sweep_stop,
            sampler,
        })
    }

    /// Forcibly closes every registered connection at once, across all
    /// collections. Sessions survive — each client sees a dead connection
    /// and recovers via its reconnect-and-resume path. This is the
    /// thundering-herd lever the overload harness uses to stage a
    /// mass-reconnect storm.
    pub fn disconnect_all(&self) -> usize {
        let mut n = 0;
        for collection in self.shared.collections.values() {
            let links: Vec<Downlink> = collection.registry.lock().values().cloned().collect();
            for link in &links {
                link.shutdown();
            }
            n += links.len();
        }
        n
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared access to the default collection's backend (settlement,
    /// inspection). Single-collection services behave exactly as before.
    pub fn backend(&self) -> Arc<Mutex<Backend>> {
        self.shared.collections[&self.shared.default_collection].backend()
    }

    /// Shared access to a named collection's backend.
    pub fn backend_of(&self, collection: &str) -> Option<Arc<Mutex<Backend>>> {
        self.shared.collections.get(collection).map(|c| c.backend())
    }

    /// The names of every hosted collection (unordered).
    pub fn collection_names(&self) -> Vec<String> {
        self.shared.collections.keys().cloned().collect()
    }

    /// Stops accepting connections and joins the accept, shard, sweep and
    /// sampler threads.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sweep_stop.stop();
        for t in self.sweep_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(mut s) = self.sampler.take() {
            s.stop();
        }
        // Unblock the accept() call.
        let _ = TcpConn::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The collection a bare `hello`/`resume` (no `"collection"` field)
/// attaches to on a single-collection service.
pub const DEFAULT_COLLECTION: &str = "default";

pub(crate) fn now_millis(started: Instant) -> Millis {
    Millis(started.elapsed().as_millis() as u64)
}

pub(crate) fn reject_frame(reason: &str) -> Json {
    reject_frame_traced(reason, TraceId::NONE)
}

fn reject_frame_traced(reason: &str, trace: TraceId) -> Json {
    let mut fields = vec![("type", Json::str("reject")), ("reason", Json::str(reason))];
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

/// The trace context of a request/broadcast entry: an optional `"trace"`
/// field carrying the id in hex. Only consulted when tracing is on, so
/// the disabled path pays one branch.
fn json_trace(j: &Json) -> TraceId {
    if !obstrace::enabled() {
        return TraceId::NONE;
    }
    j.get("trace")
        .and_then(Json::as_str)
        .and_then(TraceId::from_hex)
        .unwrap_or(TraceId::NONE)
}

/// [`json_trace`] over a borrowed frame (the session request loop).
fn json_trace_ref(j: &JsonRef<'_>) -> TraceId {
    if !obstrace::enabled() {
        return TraceId::NONE;
    }
    j.get("trace")
        .and_then(JsonRef::as_str)
        .and_then(TraceId::from_hex)
        .unwrap_or(TraceId::NONE)
}

/// A broadcast frame for one seq-tagged message; traced ops propagate
/// their originating id so the receiver can attribute absorb latency.
fn broadcast_frame(seq: u64, msg: &Message, trace: TraceId) -> Json {
    let mut fields = vec![
        ("type", Json::str("msg")),
        ("seq", Json::num(seq as f64)),
        ("msg", wire::message_to_json(msg)),
    ];
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

/// A multi-op broadcast: the seq-tagged messages of one batch in one frame.
/// Clients unpack it entry-by-entry into the same seq-dedup path as `msg`
/// frames, so a batch boundary is invisible to the convergence argument.
fn batch_broadcast_frame(msgs: &[(u64, Message, TraceId)]) -> Json {
    Json::obj([
        ("type", Json::str("batch")),
        (
            "msgs",
            Json::Arr(
                msgs.iter()
                    .map(|(seq, msg, trace)| {
                        let mut fields = vec![
                            ("seq", Json::num(*seq as f64)),
                            ("msg", wire::message_to_json(msg)),
                        ];
                        if !trace.is_none() {
                            fields.push(("trace", Json::str(trace.to_hex())));
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn seq_msgs_to_json(msgs: &[(u64, Message)]) -> Json {
    Json::Arr(
        msgs.iter()
            .map(|(seq, msg)| {
                Json::obj([
                    ("seq", Json::num(*seq as f64)),
                    ("msg", wire::message_to_json(msg)),
                ])
            })
            .collect(),
    )
}

/// Parses the `(from, have)` cursor of a resume/sync request.
fn parse_cursor(req: &Json) -> (u64, HashSet<u64>) {
    let from = req.get("from").and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
    let have: HashSet<u64> = req
        .get("have")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(Json::as_i64)
                .filter(|v| *v >= 0)
                .map(|v| v as u64)
                .collect()
        })
        .unwrap_or_default();
    (from, have)
}

/// [`parse_cursor`] over a borrowed frame (the session request loop).
fn parse_cursor_ref(req: &JsonRef<'_>) -> (u64, HashSet<u64>) {
    let from = req
        .get("from")
        .and_then(JsonRef::as_i64)
        .unwrap_or(0)
        .max(0) as u64;
    let have: HashSet<u64> = req
        .get("have")
        .and_then(JsonRef::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(JsonRef::as_i64)
                .filter(|v| *v >= 0)
                .map(|v| v as u64)
                .collect()
        })
        .unwrap_or_default();
    (from, have)
}

/// Outcome of a handshake frame (`hello` or `resume`), shared by both
/// connection layers. The reply is NOT yet on the wire — the caller owns
/// delivery so each layer can order it before any broadcast.
pub(crate) enum SessionOpen {
    Started {
        collection: Arc<Collection>,
        worker: WorkerId,
        epoch: u64,
        reply: Json,
    },
    /// Handshake understood but refused (unknown collection, failed
    /// resume); send the reply, then drop the connection.
    Rejected(Json),
    /// Not a handshake at all; drop the connection silently.
    Malformed,
}

/// Processes the first frame of a connection: `hello` creates a worker in
/// the requested collection, `resume` re-attaches to an existing one. The
/// `"collection"` field selects the target; absent means the default.
pub(crate) fn open_session(req: &Json, shared: &ServiceShared) -> SessionOpen {
    let requested = req.get("collection").and_then(Json::as_str);
    match req.get("type").and_then(Json::as_str) {
        Some("hello") => {
            shared.metrics.connects.inc();
            let Some(collection) = shared.resolve_collection(requested) else {
                return SessionOpen::Rejected(reject_frame("unknown collection"));
            };
            let (worker, client, history, history_len, schema_json) = {
                let mut b = collection.backend.lock();
                let (w, c, h) = b.connect(now_millis(shared.started));
                let schema_json = wire::schema_to_json(&b.config().schema);
                // After compaction `h` is the synthetic bootstrap, shorter
                // than the history it stands in for — the client's resume
                // cursor must cover the real watermark, so it travels
                // separately from the message array's length.
                (w, c, h, b.history_len(), schema_json)
            };
            let reply = Json::obj([
                ("type", Json::str("welcome")),
                ("collection", Json::str(collection.name())),
                ("worker", Json::num(worker.0 as f64)),
                ("client", Json::num(client.0 as f64)),
                ("history_len", Json::num(history_len as f64)),
                ("schema", schema_json),
                (
                    "history",
                    Json::Arr(history.iter().map(wire::message_to_json).collect()),
                ),
            ]);
            crowdfill_obs::obs_debug!(
                "server",
                "session started";
                worker => worker.0,
                client => client.0,
            );
            SessionOpen::Started {
                collection,
                worker,
                epoch: 0,
                reply,
            }
        }
        Some("resume") => {
            shared.metrics.resume_requests.inc();
            let Some(collection) = shared.resolve_collection(requested) else {
                return SessionOpen::Rejected(reject_frame("unknown collection"));
            };
            let Some(w) = req.get("worker").and_then(Json::as_i64).filter(|v| *v >= 0) else {
                shared.metrics.malformed_frames.inc();
                return SessionOpen::Malformed;
            };
            let worker = WorkerId(w as u32);
            let (from, have) = parse_cursor(req);
            // Resume and suffix must come from ONE lock acquisition: the
            // suffix plus subsequent poll_seq broadcasts then covers the
            // history with no gap. A cursor below the compaction horizon
            // cannot be served a suffix — the journal below `history_base`
            // is gone — so the reply degrades to a deterministic full
            // reset: `reset: true` plus the synthetic bootstrap image.
            enum ResumeBody {
                Suffix(Vec<(u64, Message)>),
                Reset(Vec<Message>),
            }
            let resumed = {
                let mut b = collection.backend.lock();
                match b.resume(worker, now_millis(shared.started)) {
                    Err(e) => Err(e.to_string()),
                    Ok(info) => {
                        let body = if from < b.history_base() {
                            shared.metrics.reset_resyncs.inc();
                            ResumeBody::Reset(b.bootstrap_messages())
                        } else {
                            ResumeBody::Suffix(
                                b.history_suffix(from)
                                    .into_iter()
                                    .filter(|(s, _)| !have.contains(s))
                                    .collect(),
                            )
                        };
                        Ok((info, body))
                    }
                }
            };
            let (info, body) = match resumed {
                Err(reason) => return SessionOpen::Rejected(reject_frame(&reason)),
                Ok(ok) => ok,
            };
            let mut fields = vec![
                ("type", Json::str("resumed")),
                ("collection", Json::str(collection.name())),
                ("client", Json::num(info.client.0 as f64)),
                ("history_len", Json::num(info.history_len as f64)),
            ];
            let replayed = match &body {
                ResumeBody::Suffix(msgs) => msgs.len(),
                ResumeBody::Reset(boot) => boot.len(),
            };
            match body {
                ResumeBody::Suffix(msgs) => fields.push(("msgs", seq_msgs_to_json(&msgs))),
                ResumeBody::Reset(boot) => {
                    fields.push(("reset", Json::Bool(true)));
                    fields.push((
                        "history",
                        Json::Arr(boot.iter().map(wire::message_to_json).collect()),
                    ));
                }
            }
            let reply = Json::obj(fields);
            crowdfill_obs::obs_debug!(
                "server",
                "session resumed";
                worker => worker.0,
                epoch => info.epoch,
                replayed => replayed,
            );
            SessionOpen::Started {
                collection,
                worker,
                epoch: info.epoch,
                reply,
            }
        }
        _ => {
            shared.metrics.malformed_frames.inc();
            SessionOpen::Malformed
        }
    }
}

/// Tears down a finished session: unregisters (guarded — only if the
/// registry still holds THIS connection), closes the socket, and retires
/// the epoch (guarded in the backend — a resumed successor must survive
/// its predecessor's exit).
pub(crate) fn close_session(
    collection: &Collection,
    link: &Downlink,
    worker: WorkerId,
    epoch: u64,
    metrics: &ServiceMetrics,
) {
    {
        let mut reg = collection.registry.lock();
        if reg.get(&worker).is_some_and(|l| l.same_link(link)) {
            reg.remove(&worker);
        }
    }
    // Dropping the registry's link disconnects the writer channel, but a
    // writer mid-`send` to a peer that stopped reading would still block
    // on the socket; closing it forces that send to error.
    link.shutdown();
    collection.backend.lock().disconnect_epoch(worker, epoch);
    metrics.disconnects.inc();
    crowdfill_obs::obs_debug!("server", "session ended"; worker => worker.0, epoch => epoch);
}

fn serve_conn(conn: Arc<TcpConn>, shared: Arc<ServiceShared>) {
    // First frame opens the session: hello (fresh) or resume (re-attach).
    let Ok(frame) = conn.recv() else { return };
    let Ok(req) = Json::parse(&String::from_utf8_lossy(&frame)) else {
        shared.metrics.malformed_frames.inc();
        return;
    };
    let (collection, worker, epoch, reply) = match open_session(&req, &shared) {
        SessionOpen::Started {
            collection,
            worker,
            epoch,
            reply,
        } => (collection, worker, epoch, reply),
        SessionOpen::Rejected(reply) => {
            let _ = conn.send(reply.encode().as_bytes());
            return;
        }
        SessionOpen::Malformed => return,
    };

    if conn.send(reply.encode().as_bytes()).is_ok() {
        // Register only after the handshake reply is on the wire, so no
        // broadcast can precede it; then drain our own outbox to cover
        // messages enqueued between the backend call and registration.
        let link = Downlink::Seat(Seat::spawn(Arc::clone(&conn), &shared.options.overload));
        collection.registry.lock().insert(worker, link.clone());
        flush_worker_outbox(&collection.backend, &link, worker, &shared.options.overload);
        run_session(&conn, &collection, &link, worker, &shared);
        close_session(&collection, &link, worker, epoch, &shared.metrics);
    } else {
        conn.shutdown();
        collection.backend.lock().disconnect_epoch(worker, epoch);
        shared.metrics.disconnects.inc();
    }
}

/// One in-session request, decoded off the wire. Shared by both
/// connection layers so the protocol cannot fork between them.
pub(crate) enum Request {
    Submit {
        op: BatchOp,
        priority: Priority,
        trace: TraceId,
    },
    Modify {
        op: BatchOp,
        trace: TraceId,
    },
    Sync {
        from: u64,
        have: HashSet<u64>,
    },
    Stats,
    Health,
    TraceDump,
    Bye,
    /// A submit whose message failed to decode; reject, keep the session.
    MalformedSubmit,
    /// A modify whose bundle failed to decode; reject, keep the session.
    MalformedModify,
    /// Unrecognized request type; ignored, session continues.
    Unknown,
}

/// Decodes one request frame. Borrowed decode: the op hot path builds no
/// per-field Strings or sorted maps — text cells intern straight from the
/// read buffer.
pub(crate) fn parse_request(req: &JsonRef<'_>) -> Request {
    match req.get("type").and_then(JsonRef::as_str) {
        Some("submit") => {
            let auto = req.get("auto").and_then(JsonRef::as_bool).unwrap_or(false);
            let priority = if req
                .get("speculative")
                .and_then(JsonRef::as_bool)
                .unwrap_or(false)
            {
                Priority::Speculative
            } else {
                Priority::Normal
            };
            let trace = json_trace_ref(req);
            match req
                .get("msg")
                .and_then(|m| wire::message_from_json_ref(m).ok())
            {
                Some(msg) => Request::Submit {
                    op: BatchOp::Msg {
                        msg,
                        auto_upvote: auto,
                    },
                    priority,
                    trace,
                },
                None => Request::MalformedSubmit,
            }
        }
        Some("modify") => {
            let trace = json_trace_ref(req);
            let bundle: Option<Vec<(Message, bool)>> = req
                .get("msgs")
                .and_then(JsonRef::as_arr)
                .map(|arr| {
                    arr.iter()
                        .map(|e| {
                            let auto = e.get("auto").and_then(JsonRef::as_bool).unwrap_or(false);
                            e.get("msg")
                                .and_then(|m| wire::message_from_json_ref(m).ok())
                                .map(|m| (m, auto))
                        })
                        .collect::<Option<Vec<_>>>()
                })
                .unwrap_or(None);
            match bundle {
                Some(bundle) => Request::Modify {
                    op: BatchOp::Modify { bundle },
                    trace,
                },
                None => Request::MalformedModify,
            }
        }
        Some("sync") => {
            let (from, have) = parse_cursor_ref(req);
            Request::Sync { from, have }
        }
        Some("stats") => Request::Stats,
        Some("health") => Request::Health,
        Some("trace_dump") => Request::TraceDump,
        Some("bye") | None => Request::Bye,
        _ => Request::Unknown,
    }
}

/// Applies one admitted op directly on the backend (no-pipeline mode).
pub(crate) fn apply_direct(
    backend: &Mutex<Backend>,
    worker: WorkerId,
    op: BatchOp,
    now: Millis,
    trace: TraceId,
) -> Result<SubmitReport, SubmitError> {
    let mut b = backend.lock();
    match op {
        BatchOp::Msg { msg, auto_upvote } => b.submit_traced(worker, msg, now, auto_upvote, trace),
        BatchOp::Modify { bundle } => b.submit_modify_traced(worker, bundle, now, trace),
    }
}

/// Builds the `synced` reply. The caller must clear its own link's
/// lagging flag BEFORE calling: every broadcast dropped while lagging
/// then has a seq below the history length this reply covers, and
/// broadcasts after the clear are enqueued normally (overlap is
/// seq-deduped client-side), so nothing can fall in a gap.
pub(crate) fn sync_reply(
    backend: &Mutex<Backend>,
    worker: WorkerId,
    from: u64,
    have: &HashSet<u64>,
) -> Json {
    let mut b = backend.lock();
    let history_len = b.history_len();
    if from < b.history_base() {
        // The cursor predates the compaction horizon — the suffix it asks
        // for no longer exists. Serve the synthetic bootstrap image with
        // `reset: true`; the client rebuilds its replica from it and
        // restarts its cursor at `history_len`. This is also how a full
        // resync (`from: 0`) lands after any compaction.
        let boot = b.bootstrap_messages();
        b.note_confirmed(worker, history_len);
        return Json::obj([
            ("type", Json::str("synced")),
            ("reset", Json::Bool(true)),
            ("history_len", Json::num(history_len as f64)),
            (
                "history",
                Json::Arr(boot.iter().map(wire::message_to_json).collect()),
            ),
        ]);
    }
    let msgs: Vec<(u64, Message)> = b
        .history_suffix(from)
        .into_iter()
        .filter(|(s, _)| !have.contains(s))
        .collect();
    // The reply covers the history through `history_len`, so the
    // replica-lag gauge for this worker resets.
    b.note_confirmed(worker, history_len);
    drop(b);
    Json::obj([
        ("type", Json::str("synced")),
        ("history_len", Json::num(history_len as f64)),
        ("msgs", seq_msgs_to_json(&msgs)),
    ])
}

pub(crate) fn stats_reply() -> Json {
    let snapshot = crowdfill_obs::metrics::global().snapshot();
    Json::obj([
        ("type", Json::str("stats")),
        ("snapshot", Json::str(snapshot)),
    ])
}

/// The semantic-health report (DESIGN.md §11): completeness, per-column
/// agreement, per-worker latency/lag, plus SLO burn rates evaluated over
/// the sampler ring. Scoped to ONE collection's backend.
pub(crate) fn health_reply(backend: &Mutex<Backend>, telemetry: Option<&ServiceTelemetry>) -> Json {
    let mut report = {
        let b = backend.lock();
        crate::health::collect(&b)
    };
    if let Some(t) = telemetry {
        report.slos = evaluate_slos(&t.slos, &t.ring, crowdfill_obs::metrics::global())
            .into_iter()
            .map(crate::health::SloHealth::from)
            .collect();
        // Burn gauges published by SLOs the static spec list doesn't
        // know about — the progress sweep's, or any added after startup.
        // Re-scanning the ring's newest sample on every request (rather
        // than a name list captured at startup) is what keeps
        // `crowdfill top --json` from silently omitting them.
        report.slos.extend(dynamic_slo_burns(t));
    }
    Json::obj([("type", Json::str("health")), ("report", report.to_json())])
}

/// Scans the sampler ring's newest sample for `crowdfill_slo_*_burn_milli`
/// gauges whose slug no static spec produced, and reports each as an
/// [`SloHealth`](crate::health::SloHealth) against the 1.0 burn line.
fn dynamic_slo_burns(t: &ServiceTelemetry) -> Vec<crate::health::SloHealth> {
    let known: HashSet<String> = t
        .slos
        .iter()
        .map(|spec| {
            spec.name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        })
        .collect();
    let Some(sample) = t.ring.latest() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (name, delta) in &sample.deltas {
        let Some(slug) = name
            .strip_prefix("crowdfill_slo_")
            .and_then(|n| n.strip_suffix("_burn_milli"))
        else {
            continue;
        };
        if known.contains(slug) {
            continue;
        }
        let crowdfill_obs::timeseries::SampleDelta::Gauge { value } = delta else {
            continue;
        };
        let burn = *value as f64 / 1000.0;
        out.push(crate::health::SloHealth {
            name: slug.to_string(),
            ok: burn <= 1.0,
            value: burn,
            threshold: 1.0,
            burn_rate: burn,
        });
    }
    out
}

/// Sibling of `stats`: the flight recorder's current ring contents as
/// JSON lines, for trace-report and debugging.
pub(crate) fn trace_dump_reply() -> Json {
    obstrace::flush_thread();
    let events = obstrace::recorder().dump_jsonl();
    Json::obj([
        ("type", Json::str("trace_dump")),
        ("events", Json::str(events)),
    ])
}

fn run_session(
    conn: &Arc<TcpConn>,
    collection: &Arc<Collection>,
    link: &Downlink,
    worker: WorkerId,
    shared: &ServiceShared,
) {
    let backend = &collection.backend;
    let registry = &collection.registry;
    let pipeline = collection.pipeline.as_deref();
    let metrics = &shared.metrics;
    let options = &shared.options;
    // This worker's private ack-latency histogram (per-worker health);
    // shared with the session so `health` can read quantiles.
    let ack_hist = backend.lock().worker_ack_histogram(worker);
    loop {
        let frame = match options.idle_timeout {
            Some(t) => match conn.recv_timeout(t) {
                Ok(f) => f,
                Err(ConnError::Empty) => {
                    metrics.idle_disconnects.inc();
                    crowdfill_obs::obs_debug!(
                        "server",
                        "idle session disconnected";
                        worker => worker.0,
                    );
                    return;
                }
                Err(_) => return,
            },
            None => match conn.recv() {
                Ok(f) => f,
                Err(_) => return,
            },
        };
        let text = String::from_utf8_lossy(&frame);
        let Ok(req) = JsonRef::parse(&text) else {
            metrics.malformed_frames.inc();
            continue;
        };
        let _request_timer = SpanTimer::start(&metrics.request_latency_ns);
        match parse_request(&req) {
            Request::Submit {
                op,
                priority,
                trace,
            } => {
                metrics.submit_requests.inc();
                let _submit_timer = SpanTimer::start(&metrics.submit_latency_ns);
                let submitted_at = Instant::now();
                let result = match pipeline {
                    Some(p) => p.submit_traced(worker, op, priority, trace),
                    None => apply_direct(backend, worker, op, now_millis(shared.started), trace),
                };
                let reply = result_frame(result, trace);
                if let Some(h) = &ack_hist {
                    h.record(submitted_at.elapsed().as_nanos() as u64);
                }
                let _ = conn.send(reply.encode().as_bytes());
                if pipeline.is_none() {
                    // The pipeline's apply thread flushes after each batch.
                    flush_outboxes(backend, registry, &options.overload);
                }
            }
            Request::MalformedSubmit => {
                metrics.submit_requests.inc();
                let _ = conn.send(reject_frame("malformed message").encode().as_bytes());
            }
            Request::Modify { op, trace } => {
                metrics.modify_requests.inc();
                let _modify_timer = SpanTimer::start(&metrics.modify_latency_ns);
                let result = match pipeline {
                    Some(p) => p.submit_traced(worker, op, Priority::Normal, trace),
                    None => apply_direct(backend, worker, op, now_millis(shared.started), trace),
                };
                let _ = conn.send(result_frame(result, trace).encode().as_bytes());
                if pipeline.is_none() {
                    flush_outboxes(backend, registry, &options.overload);
                }
            }
            Request::MalformedModify => {
                metrics.modify_requests.inc();
                let _ = conn.send(reject_frame("malformed modify bundle").encode().as_bytes());
            }
            Request::Sync { from, have } => {
                metrics.sync_requests.inc();
                // A sync heals a lagging connection; clear-before-suffix,
                // see `sync_reply`.
                link.clear_lagging();
                let reply = sync_reply(backend, worker, from, &have);
                let _ = conn.send(reply.encode().as_bytes());
            }
            Request::Stats => {
                metrics.stats_requests.inc();
                let _ = conn.send(stats_reply().encode().as_bytes());
            }
            Request::Health => {
                metrics.health_requests.inc();
                let reply = health_reply(backend, shared.telemetry.as_deref());
                let _ = conn.send(reply.encode().as_bytes());
            }
            Request::TraceDump => {
                metrics.trace_dump_requests.inc();
                let _ = conn.send(trace_dump_reply().encode().as_bytes());
            }
            Request::Bye => return,
            Request::Unknown => {}
        }
    }
}

fn ack_frame(report: &crate::backend::SubmitReport, trace: TraceId) -> Json {
    let mut fields = vec![
        ("type", Json::str("ack")),
        ("estimate", Json::num(report.estimate)),
        ("fulfilled", Json::Bool(report.fulfilled)),
        (
            "seqs",
            Json::Arr(report.seqs.iter().map(|s| Json::num(*s as f64)).collect()),
        ),
    ];
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

/// The typed overload response: the op was neither applied nor acked, and
/// the client should retry after the hinted delay.
fn overloaded_frame(retry_after_ms: u64, trace: TraceId) -> Json {
    let mut fields = vec![
        ("type", Json::str("overloaded")),
        ("retry_after_ms", Json::num(retry_after_ms as f64)),
    ];
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

/// Tells a lagging client its broadcasts are being dropped and it should
/// catch up via `sync`.
pub(crate) fn lagging_frame() -> Json {
    Json::obj([("type", Json::str("lagging"))])
}

/// Maps a submit/modify outcome to its reply frame; overload gets its
/// typed frame (so clients can back off) rather than a generic reject.
/// The op's trace id is echoed on every reply and stamps the terminal
/// `ack` span (overload/shed rejects are stamped by the pipeline).
pub(crate) fn result_frame(
    result: Result<crate::backend::SubmitReport, SubmitError>,
    trace: TraceId,
) -> Json {
    match result {
        Ok(report) => {
            if !trace.is_none() {
                obstrace::stamp(
                    trace,
                    Stage::Ack,
                    SpanId::root(trace),
                    0,
                    report.seqs.len() as u64,
                );
            }
            ack_frame(&report, trace)
        }
        Err(SubmitError::Overloaded { retry_after_ms }) => overloaded_frame(retry_after_ms, trace),
        Err(e) => {
            if !trace.is_none() {
                obstrace::stamp(trace, Stage::Reject, SpanId::root(trace), 0, 0);
            }
            reject_frame_traced(&e.to_string(), trace)
        }
    }
}

/// Delivers every session's pending broadcasts over its connection.
/// Collection-scoped: a pipeline's after-batch hook flushes only its own
/// collection's registry.
pub(crate) fn flush_outboxes(
    backend: &Arc<Mutex<Backend>>,
    registry: &ConnRegistry,
    overload: &OverloadOptions,
) {
    let links: Vec<(WorkerId, Downlink)> = registry
        .lock()
        .iter()
        .map(|(w, l)| (*w, l.clone()))
        .collect();
    for (worker, link) in links {
        flush_worker_outbox(backend, &link, worker, overload);
    }
}

/// Delivers one session's pending broadcasts into its link's bounded
/// write buffer: a lone message as a legacy `msg` frame, several as
/// `batch` frames (chunked so a huge backlog cannot overflow the
/// transport's frame-size cap). Never blocks — a full buffer downgrades
/// the link to lagging instead (see [`Seat::enqueue`]).
pub(crate) fn flush_worker_outbox(
    backend: &Arc<Mutex<Backend>>,
    link: &Downlink,
    worker: WorkerId,
    overload: &OverloadOptions,
) {
    // One lock acquisition fetches both the pending broadcasts and (when
    // tracing) their originating trace ids, so attribution can never see
    // a different history than the poll did.
    let pending: Vec<(u64, Message, TraceId)> = {
        let mut b = backend.lock();
        let polled = b.poll_seq(worker);
        if obstrace::enabled() {
            polled
                .into_iter()
                .map(|(seq, msg)| {
                    let trace = b.trace_for_seq(seq);
                    if !trace.is_none() {
                        // `arg` carries the receiving worker so a trace's
                        // broadcast fan-out is visible in reports; the seq
                        // salts the span so each seq is a distinct node.
                        obstrace::stamp(
                            trace,
                            Stage::Broadcast,
                            SpanId::root(trace),
                            seq,
                            worker.0 as u64,
                        );
                    }
                    (seq, msg, trace)
                })
                .collect()
        } else {
            polled
                .into_iter()
                .map(|(seq, msg)| (seq, msg, TraceId::NONE))
                .collect()
        }
    };
    if pending.len() == 1 {
        let (seq, msg, trace) = &pending[0];
        link.enqueue(
            broadcast_frame(*seq, msg, *trace).encode().into_bytes(),
            overload,
        );
        return;
    }
    for chunk in pending.chunks(BATCH_FRAME_CHUNK) {
        link.enqueue(batch_broadcast_frame(chunk).encode().into_bytes(), overload);
        batch_broadcast_frames().inc();
    }
}

// ---- client side ------------------------------------------------------------

/// How a [`RemoteWorker`] obtains a fresh connection: called with the attempt
/// number (0 for the initial connect, then one per redial). Tests wrap the
/// dialed connection in a [`FaultyConn`](crowdfill_net::FaultyConn) with a
/// per-attempt reseeded plan.
pub type Dialer = Box<dyn FnMut(u32) -> Result<Box<dyn FrameConn>, ConnError> + Send>;

/// Reconnection behavior of a [`RemoteWorker`].
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Redial attempts per recovery episode before giving up.
    pub max_attempts: u32,
    /// First backoff delay (doubles per attempt).
    pub base_delay: Duration,
    /// Cap on the backoff delay.
    pub max_delay: Duration,
    /// How long to wait for an ack (or handshake reply) before treating the
    /// connection as dead. Bounds the wait when a request or its reply was
    /// silently dropped by a lossy link.
    pub ack_timeout: Duration,
    /// Seed of the jitter stream (deterministic for reproducible tests).
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            ack_timeout: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

/// Client-side recovery metrics.
#[derive(Debug)]
struct ClientMetrics {
    reconnect_attempts: Arc<Counter>,
    resumes: Arc<Counter>,
    resyncs: Arc<Counter>,
    recovered_acks: Arc<Counter>,
    overload_backoffs: Arc<Counter>,
}

impl ClientMetrics {
    fn resolve() -> ClientMetrics {
        use crowdfill_obs::metrics::counter;
        ClientMetrics {
            reconnect_attempts: counter("crowdfill_client_reconnect_attempts"),
            resumes: counter("crowdfill_client_resumes"),
            resyncs: counter("crowdfill_client_resyncs"),
            recovered_acks: counter("crowdfill_client_recovered_acks"),
            overload_backoffs: counter("crowdfill_client_overload_backoffs"),
        }
    }
}

/// A client-side handle: a [`WorkerClient`](crate::WorkerClient) replica kept
/// in sync over the TCP protocol, with reconnect-and-resume recovery when a
/// [`ReconnectPolicy`] is configured.
pub struct RemoteWorker {
    conn: Box<dyn FrameConn>,
    dialer: Dialer,
    policy: Option<ReconnectPolicy>,
    /// The collection this session attached to. Carried on every `resume`
    /// so recovery after an eviction or redial re-attaches to the SAME
    /// collection — worker ids and epochs are per-collection, and a bare
    /// resume would land on the server's default collection and be
    /// rejected (or worse, take over an unrelated worker's session).
    collection: Option<String>,
    client: crate::worker_client::WorkerClient,
    /// Exactly which history seqs this replica has applied.
    applied: AppliedSeqs,
    /// The highest server history length this client has evidence of
    /// (welcome, synced replies, broadcast/ack seqs): the denominator of
    /// [`local_lag`](Self::local_lag).
    server_history_len: u64,
    /// Set by a server `lagging` note: broadcasts to us were dropped and a
    /// `sync` is owed. Healed opportunistically after the next ack or
    /// [`absorb_pending`](Self::absorb_pending) call.
    needs_sync: bool,
    /// Jitter stream state.
    jitter: u64,
    /// Seed + counter of the deterministic trace-id stream: op ids are
    /// `TraceId::generate(trace_seed, n)` so a reconnecting client under a
    /// fixed policy emits the same ids run-to-run.
    trace_seed: u64,
    trace_count: u64,
    metrics: ClientMetrics,
}

/// Client-side protocol errors.
#[derive(Debug)]
pub enum RemoteError {
    Conn(ConnError),
    Protocol(String),
    Rejected(String),
    /// The server refused the op under load (it was never applied). With a
    /// [`ReconnectPolicy`] the client retries with jittered backoff first;
    /// this surfaces only once those retries are exhausted.
    Overloaded {
        retry_after_ms: u64,
    },
    Op(crowdfill_model::OpError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Conn(e) => write!(f, "connection: {e}"),
            RemoteError::Protocol(e) => write!(f, "protocol: {e}"),
            RemoteError::Rejected(r) => write!(f, "rejected: {r}"),
            RemoteError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            RemoteError::Op(e) => write!(f, "operation: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// The outcome of a submitted action.
#[derive(Debug, Clone, Copy)]
pub struct RemoteAck {
    pub estimate: f64,
    /// Whether the task's constraints are now fulfilled.
    pub fulfilled: bool,
    /// True when the real ack was lost to a connection failure and this one
    /// was synthesized after the resume replay proved the submission landed
    /// (`estimate`/`fulfilled` then carry no information).
    pub recovered: bool,
}

/// What was in flight when a connection died, for [`RemoteWorker::recover`].
enum Pending<'a> {
    Nothing,
    /// A single `submit` frame: the message and its auto-upvote flag.
    Submit(&'a Message, bool),
    /// A `modify` bundle (applied atomically by the server).
    Modify(&'a [crate::worker_client::Outgoing]),
}

impl Pending<'_> {
    fn messages(&self) -> Vec<&Message> {
        match self {
            Pending::Nothing => Vec::new(),
            Pending::Submit(m, _) => vec![m],
            Pending::Modify(bundle) => bundle.iter().map(|o| &o.msg).collect(),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seq_msgs_from_json(j: &Json) -> Result<Vec<(u64, Message)>, RemoteError> {
    j.as_arr()
        .ok_or_else(|| RemoteError::Protocol("msgs must be an array".into()))?
        .iter()
        .map(|e| {
            let seq = e
                .get("seq")
                .and_then(Json::as_i64)
                .filter(|v| *v >= 0)
                .ok_or_else(|| RemoteError::Protocol("missing seq".into()))?
                as u64;
            let msg = e
                .get("msg")
                .ok_or_else(|| RemoteError::Protocol("missing msg".into()))
                .and_then(|m| {
                    wire::message_from_json(m).map_err(|e| RemoteError::Protocol(e.to_string()))
                })?;
            Ok((seq, msg))
        })
        .collect()
}

impl RemoteWorker {
    /// Connects, handshakes, and replays the history into a local replica.
    /// No reconnect policy: a connection failure surfaces as an error, as a
    /// plain TCP client would see it.
    pub fn connect(addr: SocketAddr) -> Result<RemoteWorker, RemoteError> {
        let dialer: Dialer =
            Box::new(move |_| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>));
        RemoteWorker::establish(dialer, None, None)
    }

    /// Like [`connect`](Self::connect), but attaches to a named collection
    /// on a multi-collection service.
    pub fn connect_to(addr: SocketAddr, collection: &str) -> Result<RemoteWorker, RemoteError> {
        let dialer: Dialer =
            Box::new(move |_| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>));
        RemoteWorker::establish(dialer, None, Some(collection.to_string()))
    }

    /// Connects through `dialer` and recovers from connection failures per
    /// `policy`: redial with capped backoff plus jitter, resume the session,
    /// replay what was missed, and finish any in-flight submission.
    pub fn connect_with(
        dialer: Dialer,
        policy: ReconnectPolicy,
    ) -> Result<RemoteWorker, RemoteError> {
        RemoteWorker::establish(dialer, Some(policy), None)
    }

    /// [`connect_with`](Self::connect_with) targeting a named collection;
    /// every resume after a failure re-attaches to the same collection.
    pub fn connect_with_to(
        dialer: Dialer,
        policy: ReconnectPolicy,
        collection: &str,
    ) -> Result<RemoteWorker, RemoteError> {
        RemoteWorker::establish(dialer, Some(policy), Some(collection.to_string()))
    }

    fn establish(
        mut dialer: Dialer,
        policy: Option<ReconnectPolicy>,
        collection: Option<String>,
    ) -> Result<RemoteWorker, RemoteError> {
        let attempts = policy.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut last_err = RemoteError::Conn(ConnError::Disconnected);
        for attempt in 0..attempts {
            let conn = match dialer(attempt).map_err(RemoteError::Conn) {
                Ok(c) => c,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match RemoteWorker::hello(&*conn, policy.as_ref(), collection.as_deref()) {
                Ok((client, applied)) => {
                    let jitter = policy.as_ref().map_or(0, |p| p.jitter_seed);
                    let trace_seed = splitmix64(jitter ^ (client.worker().0 as u64));
                    let server_history_len = applied.len();
                    return Ok(RemoteWorker {
                        conn,
                        dialer,
                        policy,
                        collection,
                        client,
                        applied,
                        server_history_len,
                        needs_sync: false,
                        jitter,
                        trace_seed,
                        trace_count: 0,
                        metrics: ClientMetrics::resolve(),
                    });
                }
                Err(e @ RemoteError::Conn(_)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// The hello handshake on a fresh connection.
    fn hello(
        conn: &dyn FrameConn,
        policy: Option<&ReconnectPolicy>,
        collection: Option<&str>,
    ) -> Result<(crate::worker_client::WorkerClient, AppliedSeqs), RemoteError> {
        let mut fields = vec![("type", Json::str("hello"))];
        if let Some(c) = collection {
            fields.push(("collection", Json::str(c)));
        }
        conn.send(Json::obj(fields).encode().as_bytes())
            .map_err(RemoteError::Conn)?;
        let frame = match policy {
            Some(p) => conn.recv_timeout(p.ack_timeout),
            None => conn.recv(),
        }
        .map_err(RemoteError::Conn)?;
        let welcome = Json::parse(&String::from_utf8_lossy(&frame))
            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        if welcome.get("type").and_then(Json::as_str) != Some("welcome") {
            return Err(RemoteError::Protocol("expected welcome".into()));
        }
        let worker = WorkerId(
            welcome
                .get("worker")
                .and_then(Json::as_i64)
                .ok_or_else(|| RemoteError::Protocol("missing worker id".into()))?
                as u32,
        );
        let client_id = crowdfill_model::ClientId(
            welcome
                .get("client")
                .and_then(Json::as_i64)
                .ok_or_else(|| RemoteError::Protocol("missing client id".into()))?
                as u32,
        );
        let schema = wire::schema_from_json(
            welcome
                .get("schema")
                .ok_or_else(|| RemoteError::Protocol("missing schema".into()))?,
        )
        .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        let history = welcome
            .get("history")
            .and_then(Json::as_arr)
            .ok_or_else(|| RemoteError::Protocol("missing history".into()))?
            .iter()
            .map(wire::message_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        let client =
            crate::worker_client::WorkerClient::new(worker, client_id, Arc::new(schema), &history);
        // The welcome's `history_len` is the server's real watermark; the
        // message array may be the shorter post-compaction bootstrap that
        // stands in for that prefix, so the cursor comes from the field
        // (falling back to the array length for old servers).
        let history_len = welcome
            .get("history_len")
            .and_then(Json::as_i64)
            .filter(|v| *v >= 0)
            .map_or(history.len() as u64, |v| v as u64);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history_len);
        Ok((client, applied))
    }

    /// The local view (kept in sync by [`Self::absorb_pending`] and acks).
    pub fn view(&self) -> &crate::worker_client::WorkerClient {
        &self.client
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.client.worker()
    }

    /// Absorbs any broadcast messages that have arrived. If the server has
    /// flagged this connection as lagging (broadcasts to it were dropped),
    /// a catch-up `sync` is attempted here, best-effort — this is the heal
    /// point for read-mostly clients that rarely submit.
    pub fn absorb_pending(&mut self) -> usize {
        let mut n = 0;
        while let Ok(frame) = self.conn.try_recv() {
            if self.absorb_frame(&frame) {
                n += 1;
            }
        }
        if self.needs_sync {
            // Clear first: a note that arrives during the sync refers to
            // drops the sync reply cannot cover and must re-set the flag.
            self.needs_sync = false;
            if self.sync().is_err() {
                self.needs_sync = true;
            }
        }
        n
    }

    /// Whether the server has told us to catch up via `sync` and we have
    /// not yet managed to.
    pub fn needs_sync(&self) -> bool {
        self.needs_sync
    }

    /// Applies a broadcast frame — a single `msg` or a multi-op `batch` —
    /// if it carries anything fresh; seq-based dedup makes redelivery (e.g.
    /// overlap between a resume replay and a racing flush) harmless even
    /// though messages themselves are not idempotent.
    fn absorb_frame(&mut self, frame: &[u8]) -> bool {
        let Ok(json) = Json::parse(&String::from_utf8_lossy(frame)) else {
            return false;
        };
        match json.get("type").and_then(Json::as_str) {
            Some("msg") => self.absorb_seq_msg(&json),
            Some("batch") => {
                let mut any = false;
                if let Some(entries) = json.get("msgs").and_then(Json::as_arr) {
                    for entry in entries {
                        any |= self.absorb_seq_msg(entry);
                    }
                }
                any
            }
            Some("lagging") => {
                self.needs_sync = true;
                false
            }
            _ => false,
        }
    }

    /// Applies one `{"seq":n,"msg":{...}}` element (the shared shape of a
    /// `msg` frame body and a `batch` frame entry), seq-deduplicated.
    fn absorb_seq_msg(&mut self, entry: &Json) -> bool {
        let Some(m) = entry
            .get("msg")
            .and_then(|m| wire::message_from_json(m).ok())
        else {
            return false;
        };
        match entry.get("seq").and_then(Json::as_i64).filter(|v| *v >= 0) {
            Some(seq) => {
                self.server_history_len = self.server_history_len.max(seq as u64 + 1);
                if self.applied.note(seq as u64) {
                    self.client.absorb(&m);
                    let trace = json_trace(entry);
                    if !trace.is_none() {
                        // The far edge of the causal chain: another
                        // replica applied the originating op's broadcast.
                        obstrace::stamp(
                            trace,
                            Stage::ClientAbsorb,
                            SpanId::root(trace),
                            seq as u64,
                            self.client.worker().0 as u64,
                        );
                    }
                    return true;
                }
                false
            }
            None => {
                self.client.absorb(&m);
                true
            }
        }
    }

    /// Fills a cell: applies locally, submits (plus the auto-upvote when the
    /// fill completed the row), and returns the last ack.
    pub fn fill(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        let outgoing = self
            .client
            .fill(row, column, value)
            .map_err(RemoteError::Op)?;
        let mut last = None;
        for out in outgoing {
            last = Some(self.submit(&out.msg, out.auto_upvote)?);
        }
        Ok(last.expect("fill yields at least one message"))
    }

    /// [`fill`](Self::fill), marked speculative: the server admits it only
    /// while its queue is comfortably below the admission bound, so under
    /// load this is the first traffic to be turned away
    /// ([`RemoteError::Overloaded`] after the retry budget). Use for
    /// prefetch/low-stakes work whose loss costs nothing.
    pub fn fill_speculative(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        let outgoing = self
            .client
            .fill(row, column, value)
            .map_err(RemoteError::Op)?;
        let mut last = None;
        for out in outgoing {
            let trace = self.next_trace();
            last = Some(self.transact(
                submit_frame_with(&out.msg, out.auto_upvote, true, trace),
                Pending::Submit(&out.msg, out.auto_upvote),
                trace,
            )?);
        }
        Ok(last.expect("fill yields at least one message"))
    }

    /// Upvotes a row.
    pub fn upvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.upvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Downvotes a row.
    pub fn downvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.downvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Retracts an earlier upvote (own votes only).
    pub fn undo_upvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.undo_upvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Retracts an earlier downvote (own votes only).
    pub fn undo_downvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.undo_downvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Overwrites a non-empty cell via the composite modify action; the
    /// bundle travels as one frame so the server can authorize its insert.
    pub fn modify(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        let bundle = self
            .client
            .modify(row, column, value)
            .map_err(RemoteError::Op)?;
        let trace = self.next_trace();
        self.transact(
            modify_frame(&bundle, trace),
            Pending::Modify(&bundle),
            trace,
        )
    }

    /// The next op's trace id: [`TraceId::NONE`] unless tracing is on and
    /// the op is sampled, so the disabled hot path pays one branch here.
    fn next_trace(&mut self) -> TraceId {
        self.trace_count = self.trace_count.wrapping_add(1);
        TraceId::generate(self.trace_seed, self.trace_count)
    }

    fn submit(&mut self, msg: &Message, auto: bool) -> Result<RemoteAck, RemoteError> {
        let trace = self.next_trace();
        self.transact(
            submit_frame_with(msg, auto, false, trace),
            Pending::Submit(msg, auto),
            trace,
        )
    }

    /// Sends one request frame and drives it to an outcome:
    ///
    /// * connection failure → [`recover`](Self::recover) (with a policy);
    /// * `reject` → the optimistic local application has diverged: retract
    ///   the vote record, full resync, surface the rejection;
    /// * `overloaded` → the op was never applied server-side; retry the
    ///   same frame after a jittered backoff honoring the server's
    ///   `retry_after` hint, up to the policy's attempt budget, then roll
    ///   back the local application and surface the overload.
    fn transact(
        &mut self,
        frame: Json,
        pending: Pending<'_>,
        trace: TraceId,
    ) -> Result<RemoteAck, RemoteError> {
        // The root span covers the whole client-side transaction — send,
        // overload retries, recovery — so its duration is the op's true
        // submit-to-ack latency as the caller experienced it.
        let _root = if trace.is_none() {
            None
        } else {
            Some(ActiveSpan::root(trace, Stage::ClientSubmit))
        };
        let bytes = frame.encode();
        let mut overload_tries: u32 = 0;
        loop {
            let result = self
                .conn
                .send(bytes.as_bytes())
                .map_err(RemoteError::Conn)
                .and_then(|_| self.await_ack());
            match result {
                Ok(ack) => {
                    // The op is acked — durably applied server-side — so the
                    // lagging heal is best-effort, like `absorb_pending`: a
                    // transient sync failure must not surface as the op's
                    // error (a caller treating it as failure could retry an
                    // already-applied op). Re-set the flag and heal later.
                    if self.needs_sync {
                        self.needs_sync = false;
                        if self.sync().is_err() {
                            self.needs_sync = true;
                        }
                    }
                    return Ok(ack);
                }
                Err(RemoteError::Conn(_)) if self.policy.is_some() => {
                    return self.recover(&pending);
                }
                Err(RemoteError::Rejected(r)) => {
                    // Applied locally on optimistic grounds the server just
                    // refuted: drop the vote record and rebuild from the
                    // authoritative history before surfacing the rejection.
                    for m in pending.messages() {
                        self.client.retract_own_vote_record(m);
                    }
                    self.resync()?;
                    return Err(RemoteError::Rejected(r));
                }
                Err(RemoteError::Overloaded { retry_after_ms }) => {
                    let budget = self.policy.as_ref().map_or(0, |p| p.max_attempts);
                    if overload_tries >= budget {
                        // Out of retries. The server never applied the op,
                        // so the optimistic local application must go too.
                        for m in pending.messages() {
                            self.client.retract_own_vote_record(m);
                        }
                        self.resync()?;
                        return Err(RemoteError::Overloaded { retry_after_ms });
                    }
                    self.metrics.overload_backoffs.inc();
                    std::thread::sleep(self.overload_delay(retry_after_ms, overload_tries));
                    overload_tries += 1;
                }
                other => return other,
            }
        }
    }

    /// Waits for the server's ack/reject, absorbing interleaved broadcasts.
    /// With a policy, the wait is bounded by `ack_timeout` (a dropped
    /// request or reply must not hang the client forever).
    fn await_ack(&mut self) -> Result<RemoteAck, RemoteError> {
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("overloaded") => {
                    return Err(RemoteError::Overloaded {
                        retry_after_ms: json
                            .get("retry_after_ms")
                            .and_then(Json::as_i64)
                            .filter(|v| *v >= 0)
                            .unwrap_or(0) as u64,
                    });
                }
                Some("ack") => {
                    self.note_ack_seqs(&json);
                    return Ok(RemoteAck {
                        estimate: json.get("estimate").and_then(Json::as_f64).unwrap_or(0.0),
                        fulfilled: json
                            .get("fulfilled")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                        recovered: false,
                    });
                }
                Some("reject") => {
                    return Err(RemoteError::Rejected(
                        json.get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                    ));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    fn recv_frame(&self) -> Result<Vec<u8>, ConnError> {
        match &self.policy {
            Some(p) => self.conn.recv_timeout(p.ack_timeout),
            None => self.conn.recv(),
        }
    }

    /// Records the seqs the server assigned to our own submission (we never
    /// get them back as broadcasts).
    fn note_ack_seqs(&mut self, ack: &Json) {
        if let Some(seqs) = ack.get("seqs").and_then(Json::as_arr) {
            for s in seqs.iter().filter_map(Json::as_i64).filter(|v| *v >= 0) {
                self.server_history_len = self.server_history_len.max(s as u64 + 1);
                self.applied.note(s as u64);
            }
        }
    }

    /// Number of contiguously-applied history messages (the resume cursor).
    fn contig(&self) -> u64 {
        self.applied.last_contiguous().map_or(0, |s| s + 1)
    }

    fn backoff_delay(&mut self, policy: &ReconnectPolicy, attempt: u32) -> Duration {
        let exp = policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(policy.max_delay);
        // Jitter in [50%, 100%] of the exponential step: desynchronizes a
        // thundering herd of clients redialing after a server restart.
        self.jitter = splitmix64(self.jitter);
        let per_mille = 500 + (self.jitter % 501) as u32;
        exp * per_mille / 1000
    }

    /// The wait before retrying an overload-rejected op: the server's
    /// `retry_after` hint, doubled per consecutive rejection and jittered
    /// like [`backoff_delay`](Self::backoff_delay) so a crowd of rejected
    /// clients does not return in lockstep.
    fn overload_delay(&mut self, retry_after_ms: u64, tries: u32) -> Duration {
        let base = Duration::from_millis(retry_after_ms.max(1));
        let cap = self
            .policy
            .as_ref()
            .map_or(Duration::from_secs(2), |p| p.max_delay)
            .max(base);
        let exp = base.saturating_mul(1u32 << tries.min(10)).min(cap);
        self.jitter = splitmix64(self.jitter);
        let per_mille = 500 + (self.jitter % 501) as u32;
        exp * per_mille / 1000
    }

    /// Reconnect-and-resume. Replays the missed history suffix into the
    /// replica, then settles whatever was in flight: if the replay contains
    /// it, the server applied it and the lost ack is synthesized
    /// (`recovered = true`); otherwise it is resubmitted. A rejected
    /// resubmission forces a full [`resync`](Self::resync) (the optimistic
    /// local application has diverged) and surfaces the rejection.
    fn recover(&mut self, pending: &Pending<'_>) -> Result<RemoteAck, RemoteError> {
        let policy = self.policy.clone().expect("recover requires a policy");
        let pending_msgs = pending.messages();
        for attempt in 0..policy.max_attempts {
            std::thread::sleep(self.backoff_delay(&policy, attempt));
            self.metrics.reconnect_attempts.inc();
            let conn = match (self.dialer)(attempt + 1) {
                Ok(c) => c,
                Err(_) => continue,
            };
            // The resume carries the collection id: worker ids and epochs
            // are per-collection, so re-attaching through the default
            // collection would be rejected (or hijack an unrelated id).
            let mut fields = vec![
                ("type", Json::str("resume")),
                ("worker", Json::num(self.client.worker().0 as f64)),
                ("from", Json::num(self.contig() as f64)),
                (
                    "have",
                    Json::Arr(self.applied.extras().map(|s| Json::num(s as f64)).collect()),
                ),
            ];
            if let Some(c) = &self.collection {
                fields.push(("collection", Json::str(c)));
            }
            let req = Json::obj(fields);
            if conn.send(req.encode().as_bytes()).is_err() {
                continue;
            }
            let frame = match conn.recv_timeout(policy.ack_timeout) {
                Ok(f) => f,
                Err(_) => continue,
            };
            let reply = match Json::parse(&String::from_utf8_lossy(&frame)) {
                Ok(j) => j,
                Err(_) => continue,
            };
            match reply.get("type").and_then(Json::as_str) {
                Some("resumed") => {}
                Some("reject") => {
                    // Unknown worker: unrecoverable, no point redialing.
                    return Err(RemoteError::Rejected(
                        reply
                            .get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                    ));
                }
                _ => continue,
            }
            if reply.get("reset").and_then(Json::as_bool).unwrap_or(false) {
                // The server compacted past our cursor while we were gone:
                // the suffix we asked for no longer exists. Rebuild the
                // replica from the bootstrap image and restart the cursor
                // at the server's watermark.
                let history_len = reply
                    .get("history_len")
                    .and_then(Json::as_i64)
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| {
                        RemoteError::Protocol("reset resume missing history_len".into())
                    })? as u64;
                let history = reply
                    .get("history")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| RemoteError::Protocol("reset resume missing history".into()))?
                    .iter()
                    .map(wire::message_from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                self.conn = conn;
                self.metrics.resumes.inc();
                self.metrics.resyncs.inc();
                self.client.rebuild(&history);
                self.applied.reset_to_prefix(history_len);
                self.server_history_len = self.server_history_len.max(history_len);
                // Broadcasts that raced the image are not distinguishable
                // inside it; owe a catch-up sync.
                self.needs_sync = true;
                crowdfill_obs::obs_debug!(
                    "client",
                    "resume reset to bootstrap image";
                    worker => self.client.worker().0,
                    attempt => attempt,
                    history_len => history_len,
                );
                if pending_msgs.is_empty() {
                    return Ok(RemoteAck {
                        estimate: 0.0,
                        fulfilled: false,
                        recovered: true,
                    });
                }
                // The synthetic image carries no per-op identity, so whether
                // the in-flight submission landed is not decidable here:
                // fall through and resubmit it. If it HAD landed, a re-sent
                // fill is absorbed idempotently (the Replace re-inserts the
                // row it already produced with the same Lemma-3 counts), and
                // a re-sent vote is refused by the vote policy, which routes
                // through the rejection → resync path like any divergence.
            } else {
                let msgs = seq_msgs_from_json(
                    reply
                        .get("msgs")
                        .ok_or_else(|| RemoteError::Protocol("resumed missing msgs".into()))?,
                )?;
                self.conn = conn;
                self.metrics.resumes.inc();
                crowdfill_obs::obs_debug!(
                    "client",
                    "session resumed";
                    worker => self.client.worker().0,
                    attempt => attempt,
                    replayed => msgs.len(),
                );

                // Replay, matching our in-flight messages by equality: each is
                // already applied locally, so a matched instance is noted but
                // not re-absorbed. (A vote identical to another worker's is
                // indistinguishable on the wire; skipping exactly one instance
                // keeps the replica convergent either way, because identical
                // vote messages are interchangeable in effect.)
                let mut matched = vec![false; pending_msgs.len()];
                for (seq, m) in &msgs {
                    self.server_history_len = self.server_history_len.max(*seq + 1);
                    if !self.applied.note(*seq) {
                        continue;
                    }
                    let mine = pending_msgs
                        .iter()
                        .enumerate()
                        .find(|(i, pm)| !matched[*i] && **pm == m)
                        .map(|(i, _)| i);
                    match mine {
                        Some(i) => matched[i] = true,
                        None => self.client.absorb(m),
                    }
                }

                if pending_msgs.is_empty() {
                    return Ok(RemoteAck {
                        estimate: 0.0,
                        fulfilled: false,
                        recovered: true,
                    });
                }
                if matched.iter().all(|&m| m) {
                    // The server applied the submission; only its ack was lost.
                    self.metrics.recovered_acks.inc();
                    return Ok(RemoteAck {
                        estimate: 0.0,
                        fulfilled: false,
                        recovered: true,
                    });
                }
            }

            // The server never saw it: resubmit on the fresh connection.
            // The resubmission goes out untraced — its original root span
            // already covers the recovery, and a fresh id here would split
            // one logical op across two traces.
            let frame = match pending {
                Pending::Submit(msg, auto) => submit_frame(msg, *auto),
                Pending::Modify(bundle) => modify_frame(bundle, TraceId::NONE),
                Pending::Nothing => unreachable!("handled above"),
            };
            let result = self
                .conn
                .send(frame.encode().as_bytes())
                .map_err(RemoteError::Conn)
                .and_then(|_| self.await_ack());
            match result {
                Ok(ack) => return Ok(ack),
                Err(RemoteError::Rejected(r)) => {
                    // Applied locally, refused by the server: diverged.
                    for m in &pending_msgs {
                        self.client.retract_own_vote_record(m);
                    }
                    self.resync()?;
                    return Err(RemoteError::Rejected(r));
                }
                Err(RemoteError::Overloaded { retry_after_ms }) => {
                    // Queue full on an otherwise healthy connection: wait
                    // out the hint and take another lap — resume is
                    // control-class and always gets through, and the next
                    // replay settles whether the resubmission landed.
                    self.metrics.overload_backoffs.inc();
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                    continue;
                }
                Err(RemoteError::Conn(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(RemoteError::Conn(ConnError::Disconnected))
    }

    /// Asks the server for every history message this replica is missing
    /// and applies them — the catch-up that heals silent broadcast loss on
    /// a lossy link. Call before comparing replicas (or periodically).
    pub fn sync(&mut self) -> Result<(), RemoteError> {
        self.sync_inner(false)
    }

    /// Rebuilds the local replica from the server's complete history — the
    /// recovery of last resort after provable divergence (e.g. a rejected
    /// submission that was already applied locally).
    pub fn resync(&mut self) -> Result<(), RemoteError> {
        self.sync_inner(true)
    }

    fn sync_inner(&mut self, full: bool) -> Result<(), RemoteError> {
        let attempts = self.policy.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut last = RemoteError::Conn(ConnError::Disconnected);
        for _ in 0..attempts {
            match self.try_sync(full) {
                Ok(()) => return Ok(()),
                Err(e @ RemoteError::Conn(_)) if self.policy.is_some() => {
                    last = e;
                    // Re-establish the session, then retry the sync on the
                    // fresh connection.
                    self.recover(&Pending::Nothing)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn try_sync(&mut self, full: bool) -> Result<(), RemoteError> {
        let (from, have) = if full {
            (0, Vec::new())
        } else {
            (self.contig(), self.applied.extras().collect())
        };
        let req = Json::obj([
            ("type", Json::str("sync")),
            ("from", Json::num(from as f64)),
            (
                "have",
                Json::Arr(have.iter().map(|s| Json::num(*s as f64)).collect()),
            ),
        ]);
        self.conn
            .send(req.encode().as_bytes())
            .map_err(RemoteError::Conn)?;
        // During a full resync, broadcasts that race the reply must be
        // replayed AFTER the rebuild (the rebuild would otherwise erase
        // them); stash their frames and run them through seq-dedup at the
        // end. Incremental syncs apply them immediately, as usual.
        let mut stash: Vec<Vec<u8>> = Vec::new();
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") => {
                    if full {
                        stash.push(frame);
                    } else {
                        self.absorb_frame(&frame);
                    }
                }
                Some("lagging") => {
                    // Drops after the server processed this very sync:
                    // another round is owed once this one completes.
                    self.needs_sync = true;
                }
                Some("synced") => {
                    let history_len = json
                        .get("history_len")
                        .and_then(Json::as_i64)
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| RemoteError::Protocol("synced missing history_len".into()))?
                        as u64;
                    self.server_history_len = self.server_history_len.max(history_len);
                    if json.get("reset").and_then(Json::as_bool).unwrap_or(false) {
                        // Our cursor fell below the server's compaction
                        // horizon: the reply is the bootstrap image, not a
                        // suffix. Rebuild, restart the cursor, and replay
                        // any stashed racing broadcasts (seq-dedup drops
                        // the ones the image already covers).
                        let history = json
                            .get("history")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| {
                                RemoteError::Protocol("reset sync missing history".into())
                            })?
                            .iter()
                            .map(wire::message_from_json)
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                        self.client.rebuild(&history);
                        self.applied.reset_to_prefix(history_len);
                        self.metrics.resyncs.inc();
                        for f in stash {
                            self.absorb_frame(&f);
                        }
                        crowdfill_obs::obs_debug!(
                            "client",
                            "sync reset to bootstrap image";
                            worker => self.client.worker().0,
                            history_len => history_len,
                        );
                        return Ok(());
                    }
                    let msgs = seq_msgs_from_json(
                        json.get("msgs")
                            .ok_or_else(|| RemoteError::Protocol("synced missing msgs".into()))?,
                    )?;
                    if full {
                        let history: Vec<Message> = msgs.iter().map(|(_, m)| m.clone()).collect();
                        self.client.rebuild(&history);
                        self.applied.reset_to_prefix(history_len);
                        self.metrics.resyncs.inc();
                        for f in stash {
                            self.absorb_frame(&f);
                        }
                        crowdfill_obs::obs_debug!(
                            "client",
                            "full resync";
                            worker => self.client.worker().0,
                            history_len => history_len,
                        );
                    } else {
                        for (seq, m) in &msgs {
                            if self.applied.note(*seq) {
                                self.client.absorb(m);
                            }
                        }
                    }
                    return Ok(());
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Fetches the server's metrics snapshot (Prometheus-style text),
    /// absorbing any interleaved broadcasts.
    pub fn stats(&mut self) -> Result<String, RemoteError> {
        self.conn
            .send(
                Json::obj([("type", Json::str("stats"))])
                    .encode()
                    .as_bytes(),
            )
            .map_err(RemoteError::Conn)?;
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("stats") => {
                    return json
                        .get("snapshot")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| RemoteError::Protocol("stats missing snapshot".into()));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Fetches the server's live health report (completeness, per-column
    /// agreement, per-worker latency and lag, SLO burn rates), absorbing
    /// any interleaved broadcasts.
    pub fn health(&mut self) -> Result<crate::health::HealthReport, RemoteError> {
        self.conn
            .send(
                Json::obj([("type", Json::str("health"))])
                    .encode()
                    .as_bytes(),
            )
            .map_err(RemoteError::Conn)?;
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("health") => {
                    return json
                        .get("report")
                        .and_then(crate::health::HealthReport::from_json)
                        .ok_or_else(|| RemoteError::Protocol("malformed health report".into()));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// How far this replica trails the server's history as of the last
    /// frame processed: `history_len − applied`. Zero right after a
    /// successful `sync`.
    pub fn local_lag(&self) -> u64 {
        self.applied.lag_behind(self.server_history_len)
    }

    /// Fetches the server's flight-recorder contents as JSON lines (one
    /// [`TraceEvent`] per line), absorbing any interleaved broadcasts.
    pub fn trace_dump(&mut self) -> Result<String, RemoteError> {
        self.conn
            .send(
                Json::obj([("type", Json::str("trace_dump"))])
                    .encode()
                    .as_bytes(),
            )
            .map_err(RemoteError::Conn)?;
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("trace_dump") => {
                    return json
                        .get("events")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| RemoteError::Protocol("trace_dump missing events".into()));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Says goodbye (the server releases the session).
    pub fn bye(self) {
        let _ = self
            .conn
            .send(Json::obj([("type", Json::str("bye"))]).encode().as_bytes());
    }
}

fn submit_frame(msg: &Message, auto: bool) -> Json {
    submit_frame_with(msg, auto, false, TraceId::NONE)
}

/// A submit frame with an explicit admission class. A speculative
/// resubmission after a reconnect intentionally goes out unmarked
/// ([`Pending`] carries no flag): the client has already paid for
/// recovery, so the op is no longer cheap to throw away.
fn submit_frame_with(msg: &Message, auto: bool, speculative: bool, trace: TraceId) -> Json {
    let mut fields = vec![
        ("type", Json::str("submit")),
        ("auto", Json::Bool(auto)),
        ("msg", wire::message_to_json(msg)),
    ];
    if speculative {
        fields.push(("speculative", Json::Bool(true)));
    }
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

fn modify_frame(bundle: &[crate::worker_client::Outgoing], trace: TraceId) -> Json {
    let msgs = Json::Arr(
        bundle
            .iter()
            .map(|o| {
                Json::obj([
                    ("auto", Json::Bool(o.auto_upvote)),
                    ("msg", wire::message_to_json(&o.msg)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![("type", Json::str("modify")), ("msgs", msgs)];
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;
    use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
    use crowdfill_obs::timeseries::{Sample, SampleDelta};
    use std::collections::BTreeMap;

    fn backend() -> Mutex<Backend> {
        let schema = Schema::new("svc-test", vec![Column::new("a", DataType::Text)], &["a"])
            .expect("schema");
        Mutex::new(Backend::new(TaskConfig::new(
            Arc::new(schema),
            Arc::new(QuorumMajority::of_three()),
            Template::cardinality(2),
            2.0,
        )))
    }

    /// Regression: SLO burn gauges published after startup (the progress
    /// sweep's, or any added at runtime) must appear in the `health`
    /// reply. The fix re-scans the ring's newest sample per request
    /// instead of a spec-name list captured at startup.
    #[test]
    fn health_reply_includes_slo_gauges_added_after_startup() {
        let ring = Arc::new(SampleRing::new(4));
        let telemetry = ServiceTelemetry {
            ring: Arc::clone(&ring),
            slos: vec![SloSpec::gauge_above(
                "completeness-target",
                "crowdfill_progress_completeness_milli",
                900.0,
                Duration::from_secs(60),
            )],
        };
        // A sample arrives carrying a burn gauge no static spec owns
        // (slug `late_added`) plus the static spec's own gauge, which
        // must NOT be double-reported.
        let mut deltas = BTreeMap::new();
        deltas.insert(
            "crowdfill_slo_late_added_burn_milli".to_string(),
            SampleDelta::Gauge { value: 1500 },
        );
        deltas.insert(
            "crowdfill_slo_completeness_target_burn_milli".to_string(),
            SampleDelta::Gauge { value: 200 },
        );
        ring.push(Sample {
            at_ns: 1,
            since_ns: 0,
            deltas,
        });
        let backend = backend();
        let reply = health_reply(&backend, Some(&telemetry));
        let report = crate::health::HealthReport::from_json(reply.get("report").expect("report"))
            .expect("parse");
        let late = report
            .slos
            .iter()
            .find(|s| s.name == "late_added")
            .expect("late-added SLO visible in the reply");
        assert!(!late.ok, "burn 1.5 must read as violating: {late:?}");
        assert!((late.burn_rate - 1.5).abs() < 1e-9);
        // The static spec appears exactly once (from evaluation, not
        // duplicated by the dynamic scan).
        let count = report
            .slos
            .iter()
            .filter(|s| s.name.contains("completeness"))
            .count();
        assert_eq!(count, 1, "{:?}", report.slos);
        // The progress section rides along even on an empty collection.
        assert!(report.progress.is_some());
    }

    /// The progress SLO pair: spec names and gauge wiring stay aligned
    /// with what `publish_progress_gauges` exports.
    #[test]
    fn progress_slo_specs_match_published_gauges() {
        let specs = progress_slo_specs(0.9);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "completeness-target");
        assert_eq!(specs[1].name, "burn-to-target");
        let report = crate::progress::ProgressReport {
            target: 0.9,
            overall: crowdfill_obs::progress::ProgressEstimate {
                observed: 9,
                est_total: 10.0,
                completeness: 0.9,
                ci_lo: 9.0,
                ci_hi: 11.0,
                marginal_new_rate: 0.25,
            },
            columns: Vec::new(),
            spent: 5.0,
            budget: 10.0,
            cost_per_fill: Some(0.5),
            cost_to_target: None,
            eta_secs_to_target: None,
            fills_per_sec: 0.0,
        };
        publish_progress_gauges(&report);
        let g = |name: &str| crowdfill_obs::metrics::global().gauge(name).get();
        assert_eq!(g("crowdfill_progress_completeness_milli"), 900);
        assert_eq!(g("crowdfill_progress_observed"), 9);
        assert_eq!(g("crowdfill_progress_est_total"), 10);
        assert_eq!(g("crowdfill_progress_marginal_new_milli"), 250);
        assert_eq!(g("crowdfill_progress_spent_frac_milli"), 500);
        assert_eq!(g("crowdfill_progress_target_frac_milli"), 1000);
    }
}
