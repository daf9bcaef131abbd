//! Incremental newline-delimited frame decoding, shared by the reactor
//! and the legacy thread-per-connection reader.
//!
//! A [`FrameDecoder`] is a pure state machine fed raw socket bytes in
//! whatever slices the transport produces: frames split across reads
//! reassemble, several pipelined frames in one read all surface, and a
//! single frame exceeding the configured limit is rejected *once* (the
//! rest of the oversized line is discarded, so the connection survives
//! with framing intact). Keeping it free of I/O makes the protocol
//! edge cases unit-testable without sockets.

/// One event produced by [`FrameDecoder::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame (without its trailing newline), lossily decoded
    /// as UTF-8.
    Frame(String),
    /// The current line exceeded the decoder's limit. Emitted once per
    /// oversized line, as soon as the limit is crossed; the remainder
    /// of the line is silently discarded up to its newline.
    Oversized,
}

/// Torn-read-safe newline framing with a per-frame byte limit.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    limit: usize,
    /// Discarding the tail of an oversized line until its newline.
    skipping: bool,
}

impl FrameDecoder {
    /// Creates a decoder rejecting frames longer than `limit` bytes
    /// (exclusive of the newline).
    pub fn new(limit: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            limit: limit.max(1),
            skipping: false,
        }
    }

    /// Feeds `bytes` and appends any completed events to `events`.
    pub fn push(&mut self, bytes: &[u8], events: &mut Vec<FrameEvent>) {
        let mut rest = bytes;
        loop {
            if self.skipping {
                match rest.iter().position(|&b| b == b'\n') {
                    Some(idx) => {
                        rest = &rest[idx + 1..];
                        self.skipping = false;
                    }
                    None => return,
                }
                continue;
            }
            match rest.iter().position(|&b| b == b'\n') {
                Some(idx) => {
                    let (line, tail) = rest.split_at(idx);
                    rest = &tail[1..];
                    if self.buf.len() + line.len() > self.limit {
                        self.buf.clear();
                        events.push(FrameEvent::Oversized);
                        continue;
                    }
                    let frame = if self.buf.is_empty() {
                        String::from_utf8_lossy(line).into_owned()
                    } else {
                        self.buf.extend_from_slice(line);
                        let full = std::mem::take(&mut self.buf);
                        String::from_utf8_lossy(&full).into_owned()
                    };
                    events.push(FrameEvent::Frame(frame));
                }
                None => {
                    if self.buf.len() + rest.len() > self.limit {
                        self.buf.clear();
                        self.skipping = true;
                        events.push(FrameEvent::Oversized);
                        // Re-enter skip mode to hunt for the newline in
                        // what remains of this slice.
                        continue;
                    }
                    self.buf.extend_from_slice(rest);
                    return;
                }
            }
        }
    }

    /// Flushes the unterminated tail at EOF: a final line without a
    /// newline still counts as a frame. `None` when nothing is pending
    /// (or the pending bytes belong to a discarded oversized line).
    pub fn finish(&mut self) -> Option<String> {
        if self.skipping {
            self.skipping = false;
            self.buf.clear();
            return None;
        }
        if self.buf.is_empty() {
            return None;
        }
        let tail = std::mem::take(&mut self.buf);
        Some(String::from_utf8_lossy(&tail).into_owned())
    }

    /// Bytes currently buffered for the in-progress frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(decoder: &mut FrameDecoder, bytes: &[u8]) -> Vec<FrameEvent> {
        let mut events = Vec::new();
        decoder.push(bytes, &mut events);
        events
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let mut d = FrameDecoder::new(1024);
        // One frame delivered a byte at a time.
        let line = b"{\"v\":2,\"op\":\"ping\"}\n";
        let mut events = Vec::new();
        for &b in line.iter() {
            d.push(&[b], &mut events);
        }
        assert_eq!(
            events,
            vec![FrameEvent::Frame("{\"v\":2,\"op\":\"ping\"}".into())]
        );
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn pipelined_frames_in_one_read_all_surface() {
        let mut d = FrameDecoder::new(1024);
        let events = drive(&mut d, b"one\ntwo\nthree\npartial");
        assert_eq!(
            events,
            vec![
                FrameEvent::Frame("one".into()),
                FrameEvent::Frame("two".into()),
                FrameEvent::Frame("three".into()),
            ]
        );
        assert_eq!(d.buffered(), 7);
        assert_eq!(
            drive(&mut d, b"-done\n"),
            vec![FrameEvent::Frame("partial-done".into())]
        );
    }

    #[test]
    fn oversized_frame_rejected_once_and_framing_recovers() {
        let mut d = FrameDecoder::new(8);
        // The limit is crossed mid-line: one Oversized, then silence
        // until the newline, then normal frames again.
        let mut events = drive(&mut d, b"0123456789");
        assert_eq!(events, vec![FrameEvent::Oversized]);
        events = drive(&mut d, b"more-of-the-same-line");
        assert_eq!(events, vec![]);
        events = drive(&mut d, b"tail\nok\n");
        assert_eq!(events, vec![FrameEvent::Frame("ok".into())]);
    }

    #[test]
    fn oversized_complete_line_in_one_read() {
        let mut d = FrameDecoder::new(4);
        let events = drive(&mut d, b"toolong\nok\n");
        assert_eq!(
            events,
            vec![FrameEvent::Oversized, FrameEvent::Frame("ok".into())]
        );
    }

    #[test]
    fn eof_flushes_unterminated_tail() {
        let mut d = FrameDecoder::new(64);
        assert_eq!(drive(&mut d, b"no-newline"), vec![]);
        assert_eq!(d.finish(), Some("no-newline".into()));
        assert_eq!(d.finish(), None);
    }

    #[test]
    fn eof_mid_skip_discards_quietly() {
        let mut d = FrameDecoder::new(4);
        assert_eq!(
            drive(&mut d, b"oversized-tail"),
            vec![FrameEvent::Oversized]
        );
        assert_eq!(d.finish(), None);
    }
}
