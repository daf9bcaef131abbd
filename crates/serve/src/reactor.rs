//! The event-driven connection layer: one reactor thread owns every
//! socket, multiplexed with `poll(2)` over nonblocking fds.
//!
//! A thread-per-connection layer would spend one OS thread — stack,
//! scheduler slot, context switches — per idle socket. The reactor
//! spends a single thread that:
//!
//! 1. polls the listener, a wake pipe, and every connection for
//!    readiness;
//! 2. reads whatever is available, feeds it through the connection's
//!    [`FrameDecoder`](crate::frame::FrameDecoder), and admits complete
//!    requests into the tenant-fair queue (control ops and rejections
//!    are answered inline);
//! 3. routes finished [`Response`]s from the workers' [`Mailbox`] onto
//!    the owning connection's outbound queue;
//! 4. writes outbound bytes — single reply lines or incremental
//!    [`StreamSender`](crate::stream::StreamSender) chunks — only while
//!    the socket is writable.
//!
//! Backpressure is per-connection and never reaches a worker: a slow
//! reader's outbound queue grows to a watermark, at which point the
//! reactor stops *reading* from that connection (no new admissions from
//! it) while every other connection proceeds. Workers hand large
//! payloads to the reactor whole and move on; the reactor trickles them
//! out as `chunk` frames at the pace the peer drains them.
//!
//! Replies for connections that vanished mid-request are discarded at
//! routing time — workers never observe client death.
//!
//! # Drain
//!
//! On drain the reactor stops accepting, closes the queue, and arms a
//! watchdog that cancels the shared drain token at the deadline. It
//! exits once every admitted request has been answered *and* every
//! outbound byte flushed (or the deadline plus a short grace has
//! passed), so `shutdown` replies and in-flight streams are not cut off
//! mid-line.

// `poll(2)` needs an FFI declaration; everything else in the crate
// stays safe.
#![allow(unsafe_code)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::executor::{admit, Admit, ReplyTo, Response};
use crate::frame::{FrameDecoder, FrameEvent};
use crate::proto::{ErrorCode, Reply, Request, MIN_PROTO_VERSION};
use crate::server::Shared;
use crate::stream::StreamSender;

/// Outbound bytes queued on one connection above which the reactor
/// stops reading from it (admission backpressure for slow readers).
const WRITE_WATERMARK: usize = 256 * 1024;

/// Poll timeout: the cadence at which drain flags are re-checked when
/// no fd is ready.
const POLL_TIMEOUT_MS: i32 = 25;

/// Extra time past the drain deadline the reactor will spend flushing
/// outbound bytes before giving up on slow readers.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

mod sys {
    //! Minimal `poll(2)` binding — the only unsafe code in the crate.
    #![allow(missing_docs)]

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Safe wrapper: polls the whole slice, returns the ready count.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs for the duration of the
        // call; the kernel writes only `revents` within its bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

/// Worker → reactor handoff: finished responses keyed by connection id,
/// plus a wake pipe so a sleeping `poll` learns about them immediately.
pub(crate) struct Mailbox {
    inbox: Mutex<Vec<(u64, Response)>>,
    /// Write half of the self-pipe; one byte per delivery (coalesced).
    wake: UnixStream,
}

impl Mailbox {
    fn new(wake: UnixStream) -> Mailbox {
        Mailbox {
            inbox: Mutex::new(Vec::new()),
            wake,
        }
    }

    /// Queues a response for `conn` and wakes the reactor.
    pub(crate) fn deliver(&self, conn: u64, response: Response) {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((conn, response));
        // A full pipe means a wake is already pending — that's enough.
        let _ = (&self.wake).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(u64, Response)> {
        std::mem::take(&mut *self.inbox.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn is_empty(&self) -> bool {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

/// One queued outbound unit: a complete line, or a stream emitting
/// chunk lines on demand.
enum OutItem {
    Line(Vec<u8>),
    Stream(Box<StreamSender>),
}

/// Per-connection reactor state.
struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Outbound queue, drained strictly in order.
    out: VecDeque<OutItem>,
    /// Bytes of the current line being written, and the write cursor.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests admitted from this connection not yet answered.
    inflight: u64,
    /// Peer sent EOF; drain outbound then close.
    read_closed: bool,
    /// Unrecoverable socket error; reap on sight.
    dead: bool,
}

impl Connection {
    fn new(stream: TcpStream, max_line: usize) -> Connection {
        Connection {
            stream,
            decoder: FrameDecoder::new(max_line),
            out: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            read_closed: false,
            dead: false,
        }
    }

    /// Upper bound on outbound bytes not yet written.
    fn pending_out(&self) -> usize {
        let queued: usize = self
            .out
            .iter()
            .map(|item| match item {
                OutItem::Line(bytes) => bytes.len(),
                OutItem::Stream(sender) => sender.remaining(),
            })
            .sum();
        queued + (self.wbuf.len() - self.wpos)
    }

    fn push_line(&mut self, reply: &Reply) {
        let mut line = reply.to_line();
        line.push('\n');
        self.out.push_back(OutItem::Line(line.into_bytes()));
    }

    /// Poll events this connection currently needs.
    fn wants(&self) -> i16 {
        let mut events = 0i16;
        if !self.read_closed && self.pending_out() < WRITE_WATERMARK {
            events |= sys::POLLIN;
        }
        if self.pending_out() > 0 {
            events |= sys::POLLOUT;
        }
        events
    }

    /// Writes as much outbound data as the socket accepts right now.
    fn write_ready(&mut self) {
        loop {
            if self.wpos == self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
                match self.out.front_mut() {
                    None => return,
                    Some(OutItem::Line(_)) => {
                        let Some(OutItem::Line(bytes)) = self.out.pop_front() else {
                            unreachable!("front checked");
                        };
                        self.wbuf = bytes;
                    }
                    Some(OutItem::Stream(sender)) => match sender.next_line() {
                        Some(line) => self.wbuf = line.into_bytes(),
                        None => {
                            self.out.pop_front();
                            continue;
                        }
                    },
                }
            }
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Runs the event loop until drain completes. Spawned workers (owned by
/// the caller) must already be consuming the shared queue.
pub(crate) fn run_reactor(listener: TcpListener, shared: &Arc<Shared>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let mailbox = Arc::new(Mailbox::new(wake_tx));

    let mut conns: BTreeMap<u64, Connection> = BTreeMap::new();
    // Connection ids are never reused, so a reply routed after its
    // connection died cannot be misdelivered to a newcomer.
    let mut next_conn: u64 = 1;
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    /// What pollfds[i] refers to.
    enum Slot {
        Wake,
        Listener,
        Conn(u64),
    }
    let mut slots: Vec<Slot> = Vec::new();

    let mut drain: Option<DrainWatchdog> = None;
    let mut drain_started: Option<Instant> = None;

    loop {
        // --- drain transitions -------------------------------------
        if shared.draining() && drain.is_none() {
            odcfp_obs::point("serve.drain")
                .field("queued", shared.queue.len())
                .nondet()
                .emit();
            shared.queue.close();
            drain = Some(DrainWatchdog::arm(shared));
            drain_started = Some(Instant::now());
        }
        if let Some(started) = drain_started {
            let work_done = shared.queue.is_empty()
                && shared.in_flight.load(Ordering::SeqCst) == 0
                && mailbox.is_empty();
            let flushed = conns.values().all(|c| c.pending_out() == 0);
            let expired = started.elapsed() >= shared.config.drain_deadline + FLUSH_GRACE;
            if (work_done && flushed) || expired {
                break;
            }
        }

        // --- build the poll set ------------------------------------
        pollfds.clear();
        slots.clear();
        pollfds.push(sys::PollFd {
            fd: wake_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        slots.push(Slot::Wake);
        if drain.is_none() && conns.len() < shared.config.max_conns {
            pollfds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            slots.push(Slot::Listener);
        }
        for (&id, conn) in &conns {
            let events = conn.wants();
            if events != 0 {
                pollfds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                slots.push(Slot::Conn(id));
            }
        }

        match sys::poll_fds(&mut pollfds, POLL_TIMEOUT_MS) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // A transient poll failure must not take the daemon
                // down; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        }

        // --- dispatch readiness ------------------------------------
        let mut accept_ready = false;
        for (pfd, slot) in pollfds.iter().zip(&slots) {
            let re = pfd.revents;
            if re == 0 {
                continue;
            }
            match slot {
                Slot::Wake => {
                    let mut sink = [0u8; 256];
                    while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                }
                Slot::Listener => accept_ready = true,
                Slot::Conn(id) => {
                    let Some(conn) = conns.get_mut(id) else {
                        continue;
                    };
                    if re & (sys::POLLERR | sys::POLLNVAL) != 0 {
                        conn.dead = true;
                        continue;
                    }
                    // POLLHUP still delivers buffered bytes; read to EOF.
                    if re & (sys::POLLIN | sys::POLLHUP) != 0 {
                        read_ready(shared, &mailbox, *id, conn);
                    }
                }
            }
        }

        // --- route worker responses --------------------------------
        for (conn_id, response) in mailbox.drain() {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            let Some(conn) = conns.get_mut(&conn_id) else {
                // Connection vanished mid-request; the verdict dies
                // here, not in a worker blocked on a dead socket.
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            match response.into_sender(shared.config.stream_chunk) {
                Ok(bytes) => conn.out.push_back(OutItem::Line(bytes)),
                Err(sender) => conn.out.push_back(OutItem::Stream(sender)),
            }
        }

        // --- accept ------------------------------------------------
        if accept_ready {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        if conns.len() >= shared.config.max_conns {
                            // Connection-level shed: one best-effort v1
                            // line, then close (docs/PROTOCOL.md §6).
                            shared.rejected.fetch_add(1, Ordering::SeqCst);
                            let reply = Reply::err(
                                "",
                                ErrorCode::Overloaded,
                                format!(
                                    "connection limit reached (max {})",
                                    shared.config.max_conns
                                ),
                            )
                            .versioned(MIN_PROTO_VERSION);
                            let mut line = reply.to_line();
                            line.push('\n');
                            let _ = (&stream).write(line.as_bytes());
                            continue;
                        }
                        let id = next_conn;
                        next_conn += 1;
                        conns.insert(id, Connection::new(stream, shared.config.max_line));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // --- write whatever fits -----------------------------------
        for conn in conns.values_mut() {
            if !conn.dead && conn.pending_out() > 0 {
                conn.write_ready();
            }
        }

        // --- reap --------------------------------------------------
        conns.retain(|_, conn| {
            if conn.dead {
                return false;
            }
            // EOF'd connections linger until their admitted requests
            // are answered and flushed, then close cleanly.
            !(conn.read_closed && conn.inflight == 0 && conn.pending_out() == 0)
        });
    }

    if let Some(watchdog) = drain {
        watchdog.disarm();
    }
    Ok(())
}

/// Reads all available bytes from one connection and processes every
/// complete frame.
fn read_ready(shared: &Arc<Shared>, mailbox: &Arc<Mailbox>, id: u64, conn: &mut Connection) {
    let mut chunk = [0u8; 16 * 1024];
    let mut events = Vec::new();
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                if let Some(tail) = conn.decoder.finish() {
                    handle_line(shared, mailbox, id, conn, &tail);
                }
                break;
            }
            Ok(n) => {
                conn.decoder.push(&chunk[..n], &mut events);
                for event in events.drain(..) {
                    match event {
                        FrameEvent::Frame(line) => {
                            handle_line(shared, mailbox, id, conn, &line);
                        }
                        FrameEvent::Oversized => {
                            shared.rejected.fetch_add(1, Ordering::SeqCst);
                            conn.push_line(&Reply::err(
                                "",
                                ErrorCode::BadRequest,
                                format!("request line exceeds {} bytes", shared.config.max_line),
                            ));
                        }
                    }
                }
                // Stop reading once this connection owes us enough
                // output; POLLIN re-arms when the peer drains it.
                if conn.pending_out() >= WRITE_WATERMARK {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Parses and admits one request line from a reactor connection.
fn handle_line(
    shared: &Arc<Shared>,
    mailbox: &Arc<Mailbox>,
    id: u64,
    conn: &mut Connection,
    line: &str,
) {
    if line.trim().is_empty() {
        return;
    }
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(e) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            conn.push_line(&Reply::err(&e.id, e.code, e.message).versioned(e.version));
            return;
        }
    };
    let reply_to = ReplyTo {
        conn: id,
        mailbox: Arc::clone(mailbox),
    };
    match admit(shared, request, reply_to) {
        Admit::Immediate(reply) => conn.push_line(&reply),
        Admit::Queued => conn.inflight += 1,
    }
}

/// Cancels the shared drain token when the drain deadline fires, unless
/// disarmed first.
struct DrainWatchdog {
    done: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl DrainWatchdog {
    fn arm(shared: &Arc<Shared>) -> DrainWatchdog {
        let done = Arc::new(AtomicBool::new(false));
        let handle = {
            let shared = Arc::clone(shared);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let armed = Instant::now();
                while !done.load(Ordering::SeqCst) {
                    if armed.elapsed() >= shared.config.drain_deadline {
                        shared.drain_token.cancel();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        DrainWatchdog { done, handle }
    }

    fn disarm(self) {
        self.done.store(true, Ordering::SeqCst);
        let _ = self.handle.join();
    }
}
