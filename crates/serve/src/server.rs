//! Server lifecycle: configuration, shared state, and graceful drain.
//!
//! # Life of a request
//!
//! 1. The connection layer assembles newline-delimited request lines
//!    through the [`crate::frame::FrameDecoder`] — see the
//!    framing grammar in docs/PROTOCOL.md §2. A single event-loop
//!    thread owns every socket (see the `reactor` module).
//!    Malformed lines get a structured error reply — never a
//!    disconnect. `ping` and `shutdown` are answered inline.
//! 2. Admission (the `executor` module's `admit`): the request enters the
//!    bounded [`FairQueue`] under its tenant key, or is shed with an
//!    `overloaded` reply (and a `serve.reject` trace point). During
//!    drain the answer is `draining`.
//! 3. A worker pops round-robin across tenants, arms a
//!    [`CancelToken`] composing the server's drain token with the
//!    request's deadline, and runs the operation inside `catch_unwind`.
//!    A panic answers `panic`, poisons
//!    the circuit's warm-cache entry, and leaves the process (and every
//!    other request) untouched.
//! 4. The reply is mailed back to the reactor, which owns every socket
//!    write. Replies whose payload crosses the stream threshold leave as
//!    `chunk`/`done` frame sequences under per-connection backpressure.
//!
//! # Drain
//!
//! SIGTERM (or a `shutdown` request) stops the accept loop, closes the
//! queue (queued work still runs; new work is refused as `draining`),
//! and starts a watchdog that cancels the shared drain token at the
//! drain deadline — wedged SAT obligations and spin probes unwind as
//! cancelled rather than holding the process hostage. Campaign legs
//! observe the same token between jobs and stop with their journal
//! fsync'd, so a drained campaign resumes exactly like a SIGKILLed one.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use odcfp_analysis::CancelToken;
use odcfp_netlist::CellLibrary;

use crate::cache::WarmCache;
use crate::executor::{worker_loop, Job};
use crate::queue::FairQueue;
use crate::signal;
use crate::stream::{DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_THRESHOLD};

/// Server construction knobs. [`ServerConfig::default`] is sized for
/// tests and local use; production deployments tune every field (see
/// docs/SERVING.md §2 for capacity planning).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub listen: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded admission queue depth across all tenants.
    pub queue_depth: usize,
    /// Maximum simultaneous connections. Beyond it, new
    /// connections get one `overloaded` line and are closed.
    pub max_conns: usize,
    /// Warm-cache byte budget (estimated bytes, see
    /// [`WarmCache::estimate_cost`]).
    pub cache_budget: u64,
    /// How long a drain may take before in-flight work is cancelled.
    pub drain_deadline: Duration,
    /// Hard cap on one request line; longer lines are answered
    /// `bad_request` instead of buffering without bound.
    pub max_line: usize,
    /// Reply payload size (bytes) at which v2 replies switch to
    /// `chunk`/`done` streaming. `usize::MAX`
    /// disables streaming.
    pub stream_threshold: usize,
    /// Payload bytes per `chunk` frame.
    pub stream_chunk: usize,
    /// Root directory `*_path`, `out_dir`, and `trace_path` fields
    /// resolve against. Requests cannot escape it.
    pub root: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 64,
            max_conns: 1024,
            cache_budget: 64 * 1024 * 1024,
            drain_deadline: Duration::from_secs(5),
            max_line: 8 * 1024 * 1024,
            stream_threshold: DEFAULT_STREAM_THRESHOLD,
            stream_chunk: DEFAULT_STREAM_CHUNK,
            root: PathBuf::from("."),
        }
    }
}

/// What a completed serve run did, for the operator-facing exit line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered with a success reply.
    pub served: u64,
    /// Requests shed (`overloaded`/`draining`) or refused as malformed.
    pub rejected: u64,
    /// Requests that panicked inside their isolation boundary.
    pub panics: u64,
}

/// State shared by the connection layer and the worker pool.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) queue: FairQueue<Job>,
    pub(crate) cache: WarmCache,
    /// This server's drain flag (the global [`signal`] flag ORs in).
    pub(crate) draining: AtomicBool,
    /// Cancels in-flight work when the drain deadline fires.
    pub(crate) drain_token: CancelToken,
    pub(crate) served: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) panics: AtomicU64,
    /// Requests admitted to the queue whose responses have not yet been
    /// handed back to the connection layer. Drives drain completion.
    pub(crate) in_flight: AtomicU64,
    pub(crate) library: Arc<CellLibrary>,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal::drain_requested()
    }
}

/// A bound, not-yet-running server. Splitting bind from run lets
/// callers learn the OS-chosen port before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

impl Server {
    /// Binds the listen socket.
    ///
    /// # Errors
    ///
    /// Any socket bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        Ok(Server { listener, config })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the server until drain (SIGTERM or a `shutdown` request),
    /// then drains and returns the summary.
    ///
    /// # Errors
    ///
    /// Only listener-level I/O errors; per-connection and per-request
    /// failures are answered in-protocol.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let Server { listener, config } = self;
        let shared = Arc::new(Shared {
            queue: FairQueue::new(config.queue_depth),
            cache: WarmCache::new(config.cache_budget),
            draining: AtomicBool::new(false),
            drain_token: CancelToken::new(),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            library: CellLibrary::standard(),
            config,
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        // The reactor owns accept, framing, drain sequencing, and
        // outbound flush; it returns once drained.
        crate::reactor::run_reactor(listener, &shared)?;
        for w in workers {
            let _ = w.join();
        }

        let summary = ServeSummary {
            served: shared.served.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
            panics: shared.panics.load(Ordering::SeqCst),
        };
        let stats = shared.cache.stats();
        odcfp_obs::point("serve.summary")
            .field("served", summary.served)
            .field("rejected", summary.rejected)
            .field("panics", summary.panics)
            .field("cache_hits", stats.hits)
            .field("cache_evictions", stats.evictions)
            .nondet()
            .emit();
        odcfp_obs::flush();
        Ok(summary)
    }
}
