//! Streaming replies: large payloads emitted as incremental `chunk`
//! frames with per-connection backpressure.
//!
//! Workers never write large payloads to sockets. When an operation
//! produces a payload at or above the server's stream threshold (and
//! the request spoke protocol v2), the executor hands the *whole*
//! payload to the reactor as a [`StreamSender`]; the reactor serializes
//! one chunk at a time, only when the connection's socket is writable.
//! A stalled reader therefore stalls only its own connection's sender —
//! worker threads have long since moved on to other requests — and the
//! `done` trailer carries a digest of the full payload so clients
//! detect truncation (docs/PROTOCOL.md §5).

use crate::proto::{chunk_line, done_line, payload_digest, Reply};

/// Default payload size (bytes) at which replies switch from a single
/// line to chunked streaming.
pub const DEFAULT_STREAM_THRESHOLD: usize = 256 * 1024;

/// Default chunk payload size in bytes (pre-escaping).
pub const DEFAULT_STREAM_CHUNK: usize = 48 * 1024;

/// A large reply payload queued for incremental emission.
///
/// Produces the wire sequence `chunk(seq=0) … chunk(seq=n-1) done`,
/// one line per [`StreamSender::next_line`] call, slicing the payload
/// at UTF-8 character boundaries.
#[derive(Debug)]
pub struct StreamSender {
    trailer: Reply,
    stream_field: &'static str,
    payload: String,
    digest: String,
    chunk: usize,
    offset: usize,
    seq: u64,
    done_sent: bool,
}

impl StreamSender {
    /// Queues `payload` for chunked emission as field `stream_field`,
    /// terminated by `trailer` (an ok reply carrying the op's scalar
    /// fields, already stamped with the request's version).
    pub fn new(
        trailer: Reply,
        stream_field: &'static str,
        payload: String,
        chunk: usize,
    ) -> StreamSender {
        let digest = payload_digest(payload.as_bytes());
        odcfp_obs::point("serve.stream.begin")
            .field("field", stream_field)
            .field("bytes", payload.len())
            .nondet()
            .emit();
        StreamSender {
            trailer,
            stream_field,
            digest,
            chunk: chunk.max(1),
            payload,
            offset: 0,
            seq: 0,
            done_sent: false,
        }
    }

    /// The next wire line (with trailing newline), or `None` once the
    /// `done` trailer has been emitted.
    pub fn next_line(&mut self) -> Option<String> {
        if self.done_sent {
            return None;
        }
        if self.offset < self.payload.len() {
            // Slice at most `chunk` bytes, backing up to a char boundary
            // so escaping never sees a torn code point.
            let mut end = (self.offset + self.chunk).min(self.payload.len());
            while !self.payload.is_char_boundary(end) {
                end -= 1;
            }
            let data = &self.payload[self.offset..end];
            let mut line = chunk_line(self.trailer.v, &self.trailer.id, self.seq, data);
            line.push('\n');
            self.offset = end;
            self.seq += 1;
            return Some(line);
        }
        self.done_sent = true;
        odcfp_obs::point("serve.stream.done")
            .field("field", self.stream_field)
            .field("chunks", self.seq)
            .field("bytes", self.payload.len())
            .nondet()
            .emit();
        let mut line = done_line(
            &self.trailer,
            self.stream_field,
            self.seq,
            self.payload.len() as u64,
            &self.digest,
        );
        line.push('\n');
        Some(line)
    }

    /// Upper bound on bytes still to be written (payload remainder plus
    /// trailer), used for outbound backpressure accounting.
    pub fn remaining(&self) -> usize {
        self.payload.len().saturating_sub(self.offset) + if self.done_sent { 0 } else { 256 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Frame, Reply};

    #[test]
    fn chunks_reassemble_and_digest_matches() {
        let payload = "héllo wörld — ".repeat(100);
        let trailer = Reply::ok("s", "embed")
            .field("verdict", "proven")
            .versioned(2);
        let mut sender = StreamSender::new(trailer, "netlist", payload.clone(), 37);
        let mut assembled = String::new();
        let mut chunks = 0u64;
        loop {
            let line = sender.next_line().expect("frames until done");
            match Frame::parse_line(line.trim_end()).expect("parses") {
                Frame::Chunk { seq, data, .. } => {
                    assert_eq!(seq, chunks);
                    chunks += 1;
                    assembled.push_str(&data);
                }
                Frame::Done {
                    reply,
                    stream,
                    chunks: n,
                    bytes,
                    digest,
                } => {
                    assert_eq!(stream, "netlist");
                    assert_eq!(n, chunks);
                    assert_eq!(bytes as usize, payload.len());
                    assert_eq!(digest, payload_digest(assembled.as_bytes()));
                    assert_eq!(reply.field_str("verdict"), Some("proven"));
                    break;
                }
                Frame::Reply(r) => panic!("unexpected plain reply {r:?}"),
            }
        }
        assert_eq!(assembled, payload);
        assert!(sender.next_line().is_none());
    }

    #[test]
    fn empty_payload_still_emits_done() {
        let mut sender = StreamSender::new(
            Reply::ok("e", "report").versioned(2),
            "summary",
            String::new(),
            8,
        );
        let line = sender.next_line().expect("done");
        match Frame::parse_line(line.trim_end()).expect("parses") {
            Frame::Done { chunks, bytes, .. } => assert_eq!((chunks, bytes), (0, 0)),
            other => panic!("expected done, got {other:?}"),
        }
        assert!(sender.next_line().is_none());
    }
}
