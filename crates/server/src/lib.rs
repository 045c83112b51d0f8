//! A TCP search service over one shared [`IndexedDatabase`].
//!
//! The server speaks the [`alae::wire`] protocol (length-prefixed frames
//! over `std::net::TcpStream` — no external dependencies) and maps each
//! wire request onto the existing [`alae::search`] facade:
//!
//! * Every connection gets a lightweight handler thread that decodes
//!   request frames, applies the server-side guardrail caps
//!   ([`ServerConfig::max_deadline`], `max_top_k`, `max_work_budget`) and
//!   enqueues the query for the worker pool.
//! * A bounded pool of **search workers** drains the queue oldest first.
//!   A worker takes one query, builds its [`Searcher`] on the index epoch
//!   the query pinned at admission (a few `Arc` clones), and runs it
//!   through [`Searcher::search_into`] with a [`HitSink`] that forwards
//!   each hit to the connection as its own frame the moment the engine
//!   shapes it.
//! * Guardrail outcomes ([`Termination::DeadlineExceeded`], budget
//!   exhaustion) travel in the closing done frame next to the partial hits,
//!   exactly as the in-process facade reports them.
//! * A client that disconnects mid-query only stops its own delivery: the
//!   forwarding sink observes the closed channel, returns
//!   [`SinkFlow::Stop`], and every other query is untouched.
//!
//! On top of that serving core sits the **resilience layer**:
//!
//! * [`reload`] — hot index swap.  [`Server::reload`] (also `POST
//!   /admin/reload` and SIGHUP via `alae-serve`) fully validates the new
//!   ALAEIDX file — checksums, version — *before* publishing it as a new
//!   epoch.  Queries pin their epoch at admission: in-flight queries
//!   finish on the old index, new queries land on the new one, and the
//!   old index deallocates when its last pin releases.  Zero downtime.
//! * [`fairness`] — a per-peer-IP token bucket and concurrent-query cap
//!   enforced at admission.  Refusals are typed
//!   ([`alae::wire::FrameKind::Rejected`] on TCP, HTTP 429 with
//!   `Retry-After`), so one flooding client is throttled while polite
//!   clients' latency stays bounded.
//! * [`conns`] — connection limits: a global ceiling with LRU eviction
//!   of idle connections, per-connection idle timeouts and a
//!   max-requests-per-connection bound.
//! * **Graceful drain** — [`Server::drain`] (also `POST /admin/drain`
//!   and SIGTERM) flips readiness off (load balancers see `/healthz`
//!   503), refuses new queries with a typed `draining` rejection, lets
//!   in-flight queries run to their deadlines, then stops the workers —
//!   bounded by a hard drain deadline.
//! * [`signals`] — hand-rolled `SIGHUP`/`SIGTERM`/`SIGINT` flags (no
//!   `libc` crate) polled by `alae-serve`'s watcher thread.
//! * Server-side **fault injection** (feature `fault-inject`) — the
//!   engine-level `FaultPlan` (`alae::search::FaultPlan`) gains I/O
//!   faults: `io-stall@N`, `drop-conn@N` and `slow-read=BYTES/S` let
//!   tests force wedged sockets, mid-stream disconnects and slow-loris
//!   reads deterministically.
//!
//! Two companion fronts make the service operable without a wire client:
//!
//! * [`metrics`] — a dependency-free registry of atomic counters, gauges
//!   and histograms threaded through the admission queue, the worker
//!   pool and every termination path; every query increments exactly one
//!   termination counter.  Rendered in the Prometheus text exposition
//!   format (see `docs/metrics.md`).
//! * [`http`] — a hand-rolled HTTP/1.1 front ([`Server::http_front`])
//!   serving `GET /metrics`, `GET /healthz`, `GET /debug/last-queries`,
//!   `POST /search` and the admin routes `POST /admin/reload` and
//!   `POST /admin/drain`; search requests go through the *same* admission
//!   queue, clamping and workers as TCP frame requests.
//! * [`trace`] — a ring buffer of per-query span records plus a separate
//!   ring of server lifecycle events (reloads, drains, evictions).
//!
//! The crate map and the life of a query across these layers are drawn
//! in `docs/architecture.md`; the operational contract (signals, drain
//! semantics, fairness knobs) in `docs/operations.md`.

#![deny(unsafe_code)]

pub mod conns;
pub mod fairness;
pub mod http;
pub mod metrics;
pub mod reload;
pub mod signals;
pub mod trace;

pub use fairness::FairnessConfig;
pub use reload::ReloadSummary;

use crate::conns::ConnRegistry;
use crate::fairness::{FairnessGate, PeerPermit};
use crate::metrics::Metrics;
use crate::reload::{IndexSlot, PinnedIndex};
use crate::trace::{QueryTrace, TraceLog, DEFAULT_TRACE_CAPACITY};
use alae::bioseq::Sequence;
use alae::search::{
    EngineCounters, HitSink, IndexedDatabase, SearchError, SearchGuard, SearchHit, SearchRequest,
    Searcher, SinkFlow, Termination,
};
use alae::wire::{
    decode_request, encode_done, encode_error, encode_hit, encode_rejection, read_frame,
    write_frame, CountingReader, CountingWriter, DoneSummary, FrameKind, RejectReason, Rejection,
};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{IpAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
use alae::search::FaultPlan;
#[cfg(feature = "fault-inject")]
use alae::wire::ThrottledReader;

/// Server-side policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Search worker threads draining the request queue.
    pub workers: usize,
    /// Requests allowed to queue before new ones are refused with a
    /// typed `capacity` rejection (per server, across all connections).
    pub max_pending: usize,
    /// Cap applied to every request's [`SearchRequest::deadline`]; a
    /// request with no deadline gets this one.  `None` leaves deadlines to
    /// the client.
    pub max_deadline: Option<Duration>,
    /// Cap applied to every request's `top_k` (`None` = client's choice).
    pub max_top_k: Option<usize>,
    /// Cap applied to every request's `work_budget` (`None` = client's
    /// choice).
    pub max_work_budget: Option<u64>,
    /// Queries retained in the [`trace`] ring buffer.
    pub trace_capacity: usize,
    /// Per-peer token bucket and concurrency cap.
    pub fairness: FairnessConfig,
    /// Global ceiling on registered TCP frame connections; at the
    /// ceiling the longest-idle connection is evicted to admit a new one.
    pub max_connections: usize,
    /// A TCP frame connection with no traffic for this long is closed
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Requests served on one TCP frame connection before it is closed
    /// (bounds how long one peer can squat a slot).
    pub max_requests_per_conn: usize,
    /// Honor `X-Forwarded-For` on the HTTP front for fairness accounting
    /// (only enable behind a trusted proxy — the header is forgeable).
    pub trust_forwarded_for: bool,
    /// Deterministic server-side fault injection (tests only).  `None`
    /// falls back to the `ALAE_FAULT_PLAN` environment variable.
    #[cfg(feature = "fault-inject")]
    pub fault: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_pending: 64,
            max_deadline: None,
            max_top_k: None,
            max_work_budget: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            fairness: FairnessConfig::default(),
            max_connections: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            max_requests_per_conn: 10_000,
            trust_forwarded_for: false,
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }
}

/// One queued query: the clamped request plus the channel its frames go
/// back through, and what the observability layer needs to describe it.
pub(crate) struct Pending {
    request: SearchRequest,
    codes: Vec<u8>,
    reply: mpsc::Sender<Event>,
    /// Which front admitted the query (`"tcp"` or `"http"`).
    proto: &'static str,
    /// Whether server-side clamping tightened any guardrail field.
    clamped: bool,
    /// When the query entered the admission queue.
    enqueued: Instant,
    /// The index epoch pinned at admission; the query runs on exactly
    /// this index regardless of reloads.
    pinned: Arc<PinnedIndex>,
    /// The per-peer concurrency lease, released when the query finishes
    /// (this struct drops once its done event is sent).
    #[allow(dead_code)]
    permit: Option<PeerPermit>,
}

/// What a worker sends back to a connection handler.
pub(crate) enum Event {
    Hit(SearchHit),
    Done(DoneSummary),
}

pub(crate) struct Shared {
    pub(crate) index: IndexSlot,
    /// Where the index was loaded from (reload target when `POST
    /// /admin/reload` has no body path; `None` for in-process indexes).
    pub(crate) index_path: Mutex<Option<PathBuf>>,
    pub(crate) config: ServerConfig,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Queries being admitted or waiting in the queue (counted before the
    /// drain gate, given back on refusal; see [`submit`]).
    pending_count: AtomicUsize,
    /// Queries currently executing in workers (incremented under the queue
    /// lock at pickup, so `pending_count + busy_workers` never blips to
    /// zero while a query is in flight — the drain loop keys off both).
    busy_workers: AtomicUsize,
    pub(crate) metrics: Metrics,
    pub(crate) trace: TraceLog,
    /// Flipped by [`Server::set_ready`]; `GET /healthz` keys off this
    /// together with worker-pool liveness.
    pub(crate) ready: AtomicBool,
    /// Workers currently alive (decremented by a drop guard, so a worker
    /// that dies by panic takes the health check down with it).
    pub(crate) live_workers: AtomicUsize,
    pub(crate) fairness: Arc<FairnessGate>,
    pub(crate) conns: Arc<ConnRegistry>,
    /// Set by [`Server::drain`] / `POST /admin/drain`: new queries are
    /// refused with a typed `draining` rejection.
    pub(crate) draining: AtomicBool,
    /// Set by `POST /admin/drain` for the process watcher (`alae-serve`)
    /// to pick up and complete the drain.
    pub(crate) drain_requested: AtomicBool,
    /// Tells [`Server::serve`] to stop accepting and return.
    accept_closed: AtomicBool,
}

impl Shared {
    /// Pin the current index epoch (one short lock + `Arc` clone).
    pub(crate) fn pin_index(&self) -> Arc<PinnedIndex> {
        self.index.pin()
    }

    /// The effective fault plan: config override, else environment.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn fault_plan(&self) -> Option<FaultPlan> {
        self.config.fault.or_else(FaultPlan::from_env)
    }
}

/// What [`submit`] did with a query.
pub(crate) enum Submission {
    /// Refused at admission with a typed reason (capacity, fairness,
    /// draining); the metric for the reason has been incremented.
    Rejected(Rejection),
    /// The query codes do not fit the database alphabet, or the scoring
    /// scheme fails [`SearchRequest::validate_scheme`]; the typed summary
    /// carries [`Termination::Invalid`] and the termination counter has
    /// already been incremented.
    Invalid(DoneSummary),
    /// Enqueued; events arrive on the receiver, ending with
    /// [`Event::Done`].
    Enqueued(mpsc::Receiver<Event>),
}

/// The one admission path both fronts share: drain gate, per-peer
/// fairness, capacity check, guardrail clamping, alphabet and scoring
/// scheme validation, then the queue.  Keeping TCP and HTTP on the same
/// path is what makes their hits identical by construction and lets
/// every metric apply uniformly.
pub(crate) fn submit(
    shared: &Shared,
    request: SearchRequest,
    codes: Vec<u8>,
    proto: &'static str,
    peer: Option<IpAddr>,
) -> Submission {
    // Count the query before the drain gate looks at it.  `Server::drain`
    // sets `draining` and then waits for `pending_count` to reach zero, so
    // a query counted here is either refused by the gate or waited for.
    // Counted any later, a drain starting in between could stop the
    // workers while the query was still on its way into the queue.
    let ahead = shared.pending_count.fetch_add(1, Ordering::SeqCst);
    let submission = admit(shared, ahead, request, codes, proto, peer);
    if !matches!(submission, Submission::Enqueued(_)) {
        // Every refusal gives the count back.
        shared.pending_count.fetch_sub(1, Ordering::SeqCst);
    }
    submission
}

/// [`submit`]'s checks and enqueue, for a query already counted in
/// `pending_count` behind `ahead` others.
fn admit(
    shared: &Shared,
    ahead: usize,
    request: SearchRequest,
    codes: Vec<u8>,
    proto: &'static str,
    peer: Option<IpAddr>,
) -> Submission {
    if shared.draining.load(Ordering::SeqCst) {
        shared.metrics.rejected_draining.inc();
        return Submission::Rejected(Rejection {
            reason: RejectReason::Draining,
            retry_after: Some(Duration::from_secs(1)),
            message: "server is draining, not accepting new queries".into(),
        });
    }
    #[cfg(test)]
    if let Some(hook) = tests::AFTER_DRAIN_GATE.with(std::cell::Cell::take) {
        hook();
    }

    let permit = match peer {
        Some(peer) => match shared.fairness.admit(peer, &shared.metrics) {
            Ok(permit) => Some(permit),
            Err(rejection) => return Submission::Rejected(rejection),
        },
        None => None,
    };

    if ahead >= shared.config.max_pending {
        shared.metrics.rejected_capacity.inc();
        return Submission::Rejected(Rejection {
            reason: RejectReason::Capacity,
            retry_after: None,
            message: "server at capacity, retry later".into(),
        });
    }

    let original = request;
    let request = clamp_request(request, &shared.config);
    let clamped = request.deadline != original.deadline
        || request.top_k != original.top_k
        || request.work_budget != original.work_budget
        || request.poll_interval != original.poll_interval;

    // Pin the index epoch the query will run on; reloads published after
    // this point do not affect it.
    let pinned = shared.pin_index();

    // Codes the database alphabet cannot represent never reach the
    // engines (`Sequence::from_codes` requires valid codes); answer
    // with the same typed rejection the in-process facade produces.
    // Neither does a scheme the engines cannot run: it would divide by
    // zero or overflow inside a worker.
    let alphabet = pinned.db.alphabet();
    let invalid = codes
        .iter()
        .enumerate()
        .find(|&(_, &code)| !alphabet.is_character(code))
        .map(|(position, &code)| SearchError::InvalidCode { code, position })
        .or_else(|| request.validate_scheme(alphabet).err());
    if let Some(error) = invalid {
        let termination = Termination::Invalid(error);
        shared.metrics.termination_counter(&termination).inc();
        shared.trace.record(QueryTrace {
            id: 0,
            proto,
            engine: request.engine.label(),
            query_len: codes.len(),
            clamped,
            queue_wait_us: 0,
            engine_us: 0,
            hits: 0,
            termination: termination.label(),
        });
        return Submission::Invalid(DoneSummary {
            engine: request.engine,
            threshold: 0,
            delivered: 0,
            raw_hit_count: 0,
            termination,
            counters: EngineCounters::empty(request.engine),
        });
    }

    let (reply_tx, reply_rx) = mpsc::channel();
    shared.metrics.queue_depth.add(1);
    // A poisoned queue only means another worker panicked while
    // holding it; the VecDeque itself is still structurally sound, so
    // serving continues rather than panicking every connection.
    shared
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .push_back(Pending {
            request,
            codes,
            reply: reply_tx,
            proto,
            clamped,
            enqueued: Instant::now(),
            pinned,
            permit,
        });
    shared.queue_cv.notify_one();
    Submission::Enqueued(reply_rx)
}

/// A running search service bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the worker
    /// pool.  Call [`Server::serve`] to start accepting connections.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: IndexedDatabase,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let trace_capacity = config.trace_capacity;
        let fairness = Arc::new(FairnessGate::new(config.fairness));
        let conns = Arc::new(ConnRegistry::new(config.max_connections));
        let shared = Arc::new(Shared {
            index: IndexSlot::new(db),
            index_path: Mutex::new(None),
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pending_count: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            metrics: Metrics::new(),
            trace: TraceLog::new(trace_capacity),
            ready: AtomicBool::new(true),
            live_workers: AtomicUsize::new(0),
            fairness,
            conns,
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            accept_closed: AtomicBool::new(false),
        });
        shared.metrics.index_loaded.set(1);
        shared.metrics.index_epoch.set(1);
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                shared.live_workers.fetch_add(1, Ordering::SeqCst);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Self {
            listener,
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metric registry (scraped by `GET /metrics`; readable
    /// in-process for tests and embedders).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The per-query trace ring (`GET /debug/last-queries`).
    pub fn trace_log(&self) -> &TraceLog {
        &self.shared.trace
    }

    /// Mark the service ready (the default) or not.  While not ready,
    /// `GET /healthz` answers 503; search paths keep working — readiness
    /// is advisory, for load balancers and rolling restarts.
    pub fn set_ready(&self, ready: bool) {
        self.shared.ready.store(ready, Ordering::SeqCst);
        self.shared.metrics.index_loaded.set(i64::from(ready));
    }

    /// Remember where the index was loaded from; `POST /admin/reload`
    /// with no body path and SIGHUP reload from here.
    pub fn set_index_path(&self, path: impl Into<PathBuf>) {
        let mut slot = self
            .shared
            .index_path
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = Some(path.into());
    }

    /// The epoch of the currently published index (1 at startup).
    pub fn index_epoch(&self) -> u64 {
        self.shared.index.epoch()
    }

    /// Hot-swap the index from `path`: open it, which validates the whole
    /// file (version, checksums, record table, FM-index), and publish it as
    /// a new epoch.
    /// In-flight queries finish on their pinned epoch; the old index
    /// deallocates when its last pin releases.  On error the serving
    /// epoch is untouched.
    pub fn reload(&self, path: &Path) -> Result<ReloadSummary, String> {
        reload::reload_index(&self.shared, path)
    }

    /// Whether a drain has been requested over HTTP (`POST
    /// /admin/drain`); a process watcher should complete it with
    /// [`Server::drain`] and exit.
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Gracefully drain: flip readiness off (`/healthz` goes 503),
    /// refuse new queries with a typed `draining` rejection, wait for
    /// in-flight queries to finish (bounded by `hard_deadline`), then
    /// stop the workers and the accept loop.  Returns how long the drain
    /// took; the same value lands on the `alae_drain_seconds` gauge.
    ///
    /// The HTTP front keeps answering (`/metrics`, `/healthz`) so load
    /// balancers and final scrapes see the drained state.
    pub fn drain(&self, hard_deadline: Duration) -> Duration {
        let started = Instant::now();
        self.set_ready(false);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared
            .trace
            .record_event("drain", "phase=start".to_string());
        let mut waiting = false;
        while started.elapsed() < hard_deadline {
            let pending = self.shared.pending_count.load(Ordering::SeqCst);
            let busy = self.shared.busy_workers.load(Ordering::SeqCst);
            if pending == 0 && busy == 0 {
                break;
            }
            if !waiting {
                waiting = true;
                self.shared
                    .trace
                    .record_event("drain", format!("phase=wait pending={pending} busy={busy}"));
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.stop_workers();
        self.close_accept_loop();
        let took = started.elapsed();
        self.shared.metrics.drain_seconds.set(took.as_secs_f64());
        self.shared.trace.record_event(
            "drain",
            format!(
                "phase=done took_us={} completed_in_flight={}",
                took.as_micros().min(u128::from(u64::MAX)) as u64,
                self.shared.pending_count.load(Ordering::SeqCst) == 0,
            ),
        );
        took
    }

    fn stop_workers(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        // Take the handles out of the lock, then join without holding it.
        let mut guard = self
            .workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let handles = std::mem::take(&mut *guard);
        drop(guard);
        for worker in handles {
            let _ = worker.join();
        }
    }

    /// Tell [`Server::serve`] to return: set the flag, then poke the
    /// blocking `accept` with a throwaway local connection.
    fn close_accept_loop(&self) {
        self.shared.accept_closed.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Bind an HTTP/1.1 front on `addr` sharing this server's index,
    /// admission queue and metrics.  Call [`http::HttpFront::serve`] (on
    /// its own thread) to start answering; see `docs/metrics.md` for the
    /// routes.
    pub fn http_front(&self, addr: impl ToSocketAddrs) -> io::Result<http::HttpFront> {
        http::HttpFront::bind(addr, Arc::clone(&self.shared))
    }

    /// Accept connections until [`Server::drain`] (or a listener error)
    /// stops the loop.  Each connection gets its own handler thread.
    /// While draining, newcomers get a typed `draining` rejection frame
    /// and are closed immediately.
    pub fn serve(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.accept_closed.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            if self.shared.draining.load(Ordering::SeqCst) {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || {
                    let _ = refuse_draining(stream, &shared);
                });
                continue;
            }
            self.shared.metrics.tcp_connections.inc();
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || {
                // A broken connection is the client's problem, not ours.
                let _ = handle_connection(stream, &shared);
            });
        }
        Ok(())
    }

    /// Stop the worker pool.  Connections already streaming finish their
    /// in-flight queries; queued requests are drained and run first.
    pub fn shutdown(self) {
        self.stop_workers();
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Answer a connection accepted mid-drain with one typed rejection
/// frame, then close.
fn refuse_draining(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    shared.metrics.rejected_draining.inc();
    let mut writer = BufWriter::new(stream);
    write_frame(
        &mut writer,
        FrameKind::Rejected,
        &encode_rejection(&Rejection {
            reason: RejectReason::Draining,
            retry_after: Some(Duration::from_secs(1)),
            message: "server is draining, not accepting new connections".into(),
        }),
    )?;
    writer.flush()
}

/// Whether a read error is the idle timeout (close quietly) rather than
/// a real failure.
fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let peer = stream.peer_addr().ok().map(|addr| addr.ip());

    // Register against the global ceiling; over it with every resident
    // busy, the newcomer gets a typed rejection and the door.
    let Some(token) = shared.conns.register(&stream, &shared.metrics) else {
        let mut writer = BufWriter::new(stream);
        write_frame(
            &mut writer,
            FrameKind::Rejected,
            &encode_rejection(&Rejection {
                reason: RejectReason::Capacity,
                retry_after: Some(Duration::from_millis(250)),
                message: "connection ceiling reached".into(),
            }),
        )?;
        return writer.flush();
    };

    stream.set_read_timeout(shared.config.idle_timeout).ok();

    #[cfg(feature = "fault-inject")]
    let fault = shared.fault_plan();

    let counting = CountingReader::new(
        stream.try_clone()?,
        Arc::clone(&shared.metrics.tcp_bytes_read),
    );
    #[cfg(feature = "fault-inject")]
    let mut reader = {
        let boxed: Box<dyn io::Read + Send> = match fault.and_then(|p| p.slow_read_bytes_per_sec) {
            Some(rate) => Box::new(ThrottledReader::new(counting, rate)),
            None => Box::new(counting),
        };
        BufReader::new(boxed)
    };
    #[cfg(not(feature = "fault-inject"))]
    let mut reader = BufReader::new(counting);

    let mut writer = BufWriter::new(CountingWriter::new(
        stream,
        Arc::clone(&shared.metrics.tcp_bytes_written),
    ));

    let mut frames_served: usize = 0;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            // The idle timeout fired between requests: close quietly.
            Err(err) if is_timeout(&err) => return Ok(()),
            Err(err) => return Err(err),
        };
        frames_served += 1;

        #[cfg(feature = "fault-inject")]
        if let Some(plan) = fault {
            if plan.drop_conn_at_frame == Some(frames_served as u64) {
                // Simulated mid-stream disconnect: vanish without a frame.
                return Ok(());
            }
            if plan.io_stall_at_frame == Some(frames_served as u64) {
                // Simulated wedged I/O: stall past any reasonable client
                // read timeout, then continue normally.
                thread::sleep(Duration::from_secs(2));
            }
        }

        shared.conns.set_busy(token.id(), true);
        let result = serve_one_frame(frame, shared, peer, &mut writer);
        shared.conns.set_busy(token.id(), false);
        result?;

        if frames_served >= shared.config.max_requests_per_conn {
            // The per-connection budget is spent; the client reconnects.
            return Ok(());
        }
    }
}

/// Decode, admit and answer one request frame.
fn serve_one_frame(
    (kind, payload): (FrameKind, Vec<u8>),
    shared: &Shared,
    peer: Option<IpAddr>,
    writer: &mut impl Write,
) -> io::Result<()> {
    if kind != FrameKind::Request {
        shared.metrics.rejected_malformed.inc();
        write_frame(
            writer,
            FrameKind::Error,
            &encode_error("expected a request frame"),
        )?;
        return writer.flush();
    }
    let decoded = match decode_request(&payload) {
        Ok(decoded) => decoded,
        Err(err) => {
            shared.metrics.rejected_malformed.inc();
            write_frame(writer, FrameKind::Error, &encode_error(err.message()))?;
            return writer.flush();
        }
    };

    let reply_rx = match submit(shared, decoded.request, decoded.query_codes, "tcp", peer) {
        Submission::Rejected(rejection) => {
            write_frame(writer, FrameKind::Rejected, &encode_rejection(&rejection))?;
            return writer.flush();
        }
        Submission::Invalid(summary) => {
            write_frame(writer, FrameKind::Done, &encode_done(&summary))?;
            return writer.flush();
        }
        Submission::Enqueued(rx) => rx,
    };

    // Forward events until the query finishes.  A write failure means
    // the client went away: stop forwarding (dropping the receiver
    // tells the worker's sink to stop) and give up on the connection.
    let mut result = Ok(());
    for event in reply_rx.iter() {
        let done = matches!(event, Event::Done(_));
        result = match event {
            Event::Hit(hit) => write_frame(writer, FrameKind::Hit, &encode_hit(&hit)),
            Event::Done(summary) => {
                match write_frame(writer, FrameKind::Done, &encode_done(&summary)) {
                    Ok(()) => writer.flush(),
                    Err(err) => Err(err),
                }
            }
        };
        if done || result.is_err() {
            break;
        }
    }
    result
}

/// Apply the server-side guardrail caps to a client request.
fn clamp_request(mut request: SearchRequest, config: &ServerConfig) -> SearchRequest {
    if let Some(cap) = config.max_deadline {
        request.deadline = Some(request.deadline.map_or(cap, |d| d.min(cap)));
    }
    if let Some(cap) = config.max_top_k {
        request.top_k = Some(request.top_k.map_or(cap, |k| k.min(cap)));
    }
    if let Some(cap) = config.max_work_budget {
        request.work_budget = Some(request.work_budget.map_or(cap, |b| b.min(cap)));
    }
    // The guard reads the clock only once every `poll_interval` node
    // expansions, so a sparse interval would outrun the deadline cap: a
    // client may poll more often than the default, never less.
    request.poll_interval = request
        .poll_interval
        .map(|n| n.min(SearchGuard::DEFAULT_POLL_INTERVAL));
    request
}

// ---------------------------------------------------------------------------
// Search workers
// ---------------------------------------------------------------------------

/// Decrements the live-worker count however the worker exits — normal
/// shutdown or a panic unwinding through `run_query` — so `GET /healthz`
/// reports a dead pool instead of a healthy façade.
struct WorkerAlive<'a>(&'a Shared);

impl Drop for WorkerAlive<'_> {
    fn drop(&mut self) {
        self.0.live_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements `busy_workers` however the query exits (including a panic
/// unwinding through `run_query`), so a crashed query cannot wedge a
/// drain forever.
struct QueryBusy<'a>(&'a Shared);

impl Drop for QueryBusy<'_> {
    fn drop(&mut self) {
        self.0.busy_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: &Shared) {
    let _alive = WorkerAlive(shared);
    while let Some(pending) = next_query(shared) {
        // `busy_workers` was incremented inside `next_query` while the
        // queue lock was still held; pair it with a drop guard here.
        let _busy = QueryBusy(shared);
        shared.pending_count.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.queue_depth.add(-1);
        run_query(shared, pending);
    }
}

/// Block until a query is queued and take the oldest one; `None` once
/// shutdown is set and the queue is empty.
fn next_query(shared: &Shared) -> Option<Pending> {
    // Poisoning is recovered everywhere in this loop: the queue stays
    // structurally valid across a worker panic and service must continue.
    let mut queue = shared
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    loop {
        if let Some(pending) = queue.pop_front() {
            // Mark the worker busy before the queue lock releases: the
            // drain loop must never observe "queue empty, nobody busy"
            // while this query is in hand.
            shared.busy_workers.fetch_add(1, Ordering::SeqCst);
            return Some(pending);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        queue = shared
            .queue_cv
            .wait(queue)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// A [`HitSink`] forwarding each shaped hit to the connection handler the
/// moment the engine emits it.  A closed channel (client gone) stops the
/// stream without disturbing any other query.
struct ForwardingSink<'a> {
    reply: &'a mpsc::Sender<Event>,
    /// Hits forwarded so far (what the done frame reports if the run
    /// panics mid-stream).
    delivered: u64,
}

impl HitSink for ForwardingSink<'_> {
    fn accept(&mut self, hit: SearchHit) -> SinkFlow {
        if self.reply.send(Event::Hit(hit)).is_err() {
            return SinkFlow::Stop;
        }
        self.delivered += 1;
        SinkFlow::Continue
    }
}

/// Run one query on the index epoch it pinned at admission (even if a
/// reload has published a newer one since), streaming its hits, then
/// account for it: exactly one termination counter, one latency
/// observation, one trace record.
fn run_query(shared: &Shared, pending: Pending) {
    let request = pending.request;
    let db = &pending.pinned.db;
    // Stamped before the engine build, so queue wait ends at pickup and
    // the build counts as engine time.  The build is a few `Arc` clones
    // for every query: no engine builds anything over the text.
    let picked_up = Instant::now();
    let queue_wait = picked_up.duration_since(pending.enqueued);
    shared
        .metrics
        .queue_wait_seconds
        .observe_duration(queue_wait);
    let searcher = Searcher::new(db.clone(), request);
    let query_len = pending.codes.len();
    let query = Sequence::from_codes(db.alphabet(), pending.codes);
    let mut sink = ForwardingSink {
        reply: &pending.reply,
        delivered: 0,
    };
    // Panic-isolated: a panicking engine ends this query with a typed
    // outcome, and the worker lives on.
    let outcome = catch_unwind(AssertUnwindSafe(|| searcher.search_into(&query, &mut sink)));
    let engine_time = picked_up.elapsed();
    let done = match outcome {
        Ok(summary) => DoneSummary {
            engine: summary.engine,
            threshold: summary.threshold,
            delivered: summary.delivered as u64,
            raw_hit_count: summary.raw_hit_count as u64,
            termination: summary.termination,
            counters: summary.counters,
        },
        Err(_) => DoneSummary {
            engine: request.engine,
            threshold: 0,
            delivered: sink.delivered,
            raw_hit_count: 0,
            termination: Termination::EnginePanicked,
            counters: EngineCounters::empty(request.engine),
        },
    };
    shared.metrics.termination_counter(&done.termination).inc();
    shared
        .metrics
        .latency_histogram(done.engine)
        .observe_duration(engine_time);
    shared.trace.record(QueryTrace {
        id: 0,
        proto: pending.proto,
        engine: done.engine.label(),
        query_len,
        clamped: pending.clamped,
        queue_wait_us: queue_wait.as_micros().min(u128::from(u64::MAX)) as u64,
        engine_us: engine_time.as_micros().min(u128::from(u64::MAX)) as u64,
        hits: done.delivered as usize,
        termination: done.termination.label(),
    });
    let _ = pending.reply.send(Event::Done(done));
}

#[cfg(test)]
mod tests {
    use super::*;
    use alae::bioseq::{Alphabet, ScoringScheme};
    use std::cell::Cell;

    const TEXT: &[u8] = b"GCTAGCTAGGCATCGATCGGCTAGCATTTGCATCAGTACGG";

    thread_local! {
        /// Run once by [`submit`] on this thread, right after the drain
        /// gate lets a query through.
        pub(super) static AFTER_DRAIN_GATE: Cell<Option<Box<dyn FnOnce()>>> =
            const { Cell::new(None) };
    }

    fn one_worker_server() -> Server {
        let db = IndexedDatabase::from_sequences(
            Alphabet::Dna,
            [Sequence::from_ascii(Alphabet::Dna, TEXT).unwrap()],
        );
        Server::bind(
            "127.0.0.1:0",
            db,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    /// Collect one submission's answer: the hits streamed, then the done
    /// summary (bounded, so a dead worker fails the test instead of
    /// hanging it).
    fn answer(submission: Submission) -> (usize, DoneSummary) {
        let Submission::Enqueued(events) = submission else {
            panic!("query was not enqueued");
        };
        let mut hits = 0;
        loop {
            match events.recv_timeout(Duration::from_secs(30)) {
                Ok(Event::Hit(_)) => hits += 1,
                Ok(Event::Done(done)) => return (hits, done),
                Err(err) => panic!("no done frame: {err}"),
            }
        }
    }

    /// One worker serves queries in admission order, whatever their
    /// configurations: the third query shares the first one's request,
    /// the second does not, and none of them overtakes another.
    #[test]
    fn one_worker_serves_queries_in_admission_order() {
        let server = one_worker_server();
        let shared = &server.shared;
        let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 8);
        let other = request.top_k(3);
        // Distinct query lengths tell the three records apart.
        let queries = [
            (request, &b"GCTAGCATCGATCGG"[..]),
            (other, &b"GCTAGCATCGATCGGC"[..]),
            (request, &b"GCTAGCATCGATCGGCT"[..]),
        ];
        let submissions: Vec<Submission> = queries
            .iter()
            .map(|&(request, ascii)| {
                let codes = Alphabet::Dna.encode(ascii).unwrap();
                submit(shared, request, codes, "tcp", None)
            })
            .collect();
        for submission in submissions {
            let (_, done) = answer(submission);
            assert_eq!(done.termination, Termination::Complete);
        }
        let served: Vec<usize> = server
            .trace_log()
            .snapshot()
            .iter()
            .map(|record| record.query_len)
            .collect();
        let admitted: Vec<usize> = queries.iter().map(|(_, ascii)| ascii.len()).collect();
        assert_eq!(served, admitted);
        server.shutdown();
    }

    /// A drain that starts while a query stands between the drain gate and
    /// the queue must wait for that query's `Done`, not stop the workers
    /// under it.  The hook holds the submission right after the gate until
    /// the drain has decided: either it finished (it saw nothing in
    /// flight) or it logged that it is waiting.
    #[test]
    fn drain_waits_for_a_query_admitted_as_it_starts() {
        let server = Arc::new(one_worker_server());
        let drainer = Arc::clone(&server);
        let watched = Arc::clone(&server);
        let (drain_tx, drain_rx) = mpsc::channel();
        let hook: Box<dyn FnOnce()> = Box::new(move || {
            let drain = thread::spawn(move || drainer.drain(Duration::from_secs(60)));
            let waiting =
                || {
                    watched.trace_log().events_snapshot().iter().any(|event| {
                        event.kind == "drain" && event.detail.starts_with("phase=wait")
                    })
                };
            while !drain.is_finished() && !waiting() {
                thread::sleep(Duration::from_millis(1));
            }
            let _ = drain_tx.send(drain);
        });
        AFTER_DRAIN_GATE.with(|slot| slot.set(Some(hook)));

        let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 8);
        let codes = Alphabet::Dna.encode(b"GCTAGCATCGATCGG").unwrap();
        let (_, done) = answer(submit(&server.shared, request, codes, "tcp", None));
        assert_eq!(done.termination, Termination::Complete);
        let drain = drain_rx.recv().expect("the hook ran");
        drain.join().expect("drain thread");
        let events = server.trace_log().events_snapshot();
        let finished = events
            .iter()
            .find(|event| event.detail.starts_with("phase=done"))
            .expect("drain finished");
        assert!(
            finished.detail.ends_with("completed_in_flight=true"),
            "{}",
            finished.detail
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_panicking_query_ends_typed_and_keeps_its_worker() {
        // One worker: if the panic killed it, the clean query below would
        // never be answered.
        let server = one_worker_server();
        let codes = Alphabet::Dna.encode(b"GCTAGCATCGATCGG").unwrap();
        let clean = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 8);
        let poisoned = clean.fault(FaultPlan {
            panic_at_node: Some(1),
            ..FaultPlan::default()
        });

        let (hits, done) = answer(submit(&server.shared, poisoned, codes.clone(), "tcp", None));
        assert_eq!(done.termination, Termination::EnginePanicked);
        assert_eq!((hits, done.delivered), (0, 0));
        let panicked = server
            .metrics()
            .termination_counter(&Termination::EnginePanicked);
        assert_eq!(panicked.get(), 1);
        assert_eq!(server.shared.live_workers.load(Ordering::SeqCst), 1);

        let (hits, done) = answer(submit(&server.shared, clean, codes, "tcp", None));
        assert_eq!(done.termination, Termination::Complete);
        assert!(hits > 0);
        assert_eq!(done.delivered, hits as u64);
        server.shutdown();
    }
}
