//! `odcfp serve`: a resident, multi-tenant fingerprinting engine.
//!
//! The batch CLI rebuilds every per-circuit artifact — the location
//! analysis, the strash store, the code-space proof — on
//! each invocation. This crate keeps them resident: a long-running
//! daemon speaks a newline-delimited JSON protocol ([`proto`],
//! normatively specified in docs/PROTOCOL.md) and serves `locations` /
//! `embed` / `verify` / `campaign` / `report` requests out of a
//! digest-keyed warm cache ([`cache`]).
//!
//! Connections are multiplexed by an event-driven reactor (`reactor`):
//! one thread owns every socket through nonblocking I/O and `poll(2)`
//! readiness, so idle connections cost a few hundred bytes instead of
//! an OS thread. Requests flow through framing ([`frame`]) and
//! admission into the tenant-fair queue ([`queue`]); a fixed worker
//! pool (`executor`) runs each one alone under its own deadline.
//! Large replies stream back as `chunk`/`done` frames
//! ([`stream`]) paced by each connection's own socket.
//!
//! The design center is *robustness under production conditions*, per
//! docs/SERVING.md and DESIGN.md §13/§17:
//!
//! * **Backpressure, not buffering** — admission control through a
//!   bounded tenant-fair queue ([`queue`]); excess load is shed with
//!   structured `overloaded` replies. Slow readers stall only their own
//!   connection's outbound queue, never a worker.
//! * **Bounded memory** — the warm cache carries a byte budget with LRU
//!   eviction; under pressure the server degrades to cold rebuilds,
//!   never to OOM.
//! * **Bounded time** — per-request deadlines ride the analysis layer's
//!   `CancelToken` into the SAT core, so one slow obligation cannot
//!   wedge a worker.
//! * **Fault isolation** — every request runs inside `catch_unwind`; a panicking netlist answers an error,
//!   poisons only its own cache entry, and after repeated strikes is
//!   quarantined — the process survives.
//! * **Graceful drain** — SIGTERM ([`signal`]) stops admission,
//!   finishes or cancels in-flight work within a drain deadline,
//!   flushes outbound streams, and leaves campaign journals fsync'd for
//!   resume.
//!
//! Verdicts served warm are identical to the batch CLI's: caching
//! changes how fast an answer arrives, never what it is.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub(crate) mod executor;
pub mod frame;
pub mod proto;
pub mod queue;
pub(crate) mod reactor;
pub mod server;
pub mod signal;
pub mod stream;

pub use cache::{CacheStats, WarmCache};
pub use frame::{FrameDecoder, FrameEvent};
pub use proto::{
    payload_digest, ErrorCode, Frame, Op, Reply, Request, MIN_PROTO_VERSION, PROTO_VERSION,
};
pub use queue::FairQueue;
pub use server::{ServeSummary, Server, ServerConfig};
pub use stream::{DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_THRESHOLD};
