//! Length-prefixed message framing for stream transports.
//!
//! A TCP stream is a byte pipe; the runtime layer turns it into a message
//! pipe with the simplest robust framing there is: a 4-byte little-endian
//! payload length followed by the payload (one [`contrarian_types::codec`]
//! encoding of `(from, msg)` in `contrarian-net`'s case). The sender
//! queues whole frames built by [`encode_frame`]; the receiver reads a
//! nonblocking socket in whatever chunks the kernel hands back and feeds
//! them to a [`FrameAssembler`], which yields each frame once it closes.
//!
//! Corrupt input is *rejected*, never trusted: a length prefix above
//! [`MAX_FRAME`] errors out before any allocation, and the assembler tells
//! a stream that ended mid-frame from one that ended cleanly between
//! frames.

/// Upper bound on one frame's payload. Generously above any real protocol
/// message (the largest are ROT slices carrying a few KiB of values) while
/// small enough that a corrupt length prefix cannot drive a huge
/// allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// How reassembling a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`] — a corrupt or hostile
    /// stream, rejected before allocating.
    Oversize(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame into a fresh buffer: `u32` little-endian payload
/// length, then the payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame reassembly for nonblocking streams.
///
/// A nonblocking socket hands back whatever bytes happen to be in the
/// kernel buffer — possibly half a length prefix, possibly ten frames and
/// a tail. This accumulator takes byte chunks as they arrive
/// ([`FrameAssembler::extend`]) and yields complete frames
/// ([`FrameAssembler::next_frame`]) as soon as they close.
///
/// A length prefix above [`MAX_FRAME`] is rejected before any
/// payload-sized allocation, and [`FrameAssembler::is_mid_frame`] lets the
/// caller distinguish a clean EOF (stream ended on a frame boundary) from
/// a truncating one.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted away once it outgrows the
    /// unread tail, so steady-state reassembly does not reallocate).
    pos: usize,
}

impl FrameAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: move the unread tail to the front when
        // the dead prefix dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one has fully arrived.
    /// `Ok(None)` means "need more bytes".
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(payload))
    }

    /// True when the stream has ended inside a frame: some bytes of a
    /// length prefix or payload arrived but the frame never closed. An EOF
    /// in this state truncated a frame.
    pub fn is_mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_sequence() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(b"first"));
        wire.extend_from_slice(&encode_frame(b""));
        wire.extend_from_slice(&encode_frame(&[7u8; 1000]));
        let mut asm = FrameAssembler::new();
        asm.extend(&wire);
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"first");
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"");
        assert_eq!(asm.next_frame().unwrap().unwrap(), vec![7u8; 1000]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(!asm.is_mid_frame(), "clean EOF");
    }

    #[test]
    fn eof_mid_length_prefix_is_truncation() {
        let wire = encode_frame(b"payload");
        let mut asm = FrameAssembler::new();
        asm.extend(&wire[..2]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.is_mid_frame());
        assert_eq!(asm.pending_bytes(), 2);
    }

    #[test]
    fn eof_mid_payload_is_truncation() {
        let wire = encode_frame(b"payload");
        let mut asm = FrameAssembler::new();
        asm.extend(&wire[..wire.len() - 3]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.is_mid_frame());
        assert_eq!(asm.pending_bytes(), wire.len() - 3);
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut wire = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 16]);
        let mut asm = FrameAssembler::new();
        asm.extend(&wire);
        match asm.next_frame() {
            Err(FrameError::Oversize(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            asm.buf.capacity() < MAX_FRAME,
            "no payload-sized buffer was reserved"
        );
        // The bad prefix stays unconsumed: every later poll rejects again.
        assert!(matches!(asm.next_frame(), Err(FrameError::Oversize(_))));
        assert_eq!(asm.pending_bytes(), wire.len());
    }

    #[test]
    fn encode_frame_is_le_length_then_payload() {
        assert_eq!(encode_frame(b"payload"), b"\x07\0\0\0payload");
        assert_eq!(encode_frame(b""), [0u8; 4]);
        let big = encode_frame(&[1u8; 0x0102]);
        assert_eq!(&big[..4], &[0x02, 0x01, 0, 0]);
        assert_eq!(big.len(), 4 + 0x0102);
    }

    #[test]
    fn length_prefix_of_exactly_max_frame_is_accepted() {
        let mut asm = FrameAssembler::new();
        asm.extend(&(MAX_FRAME as u32).to_le_bytes());
        assert!(
            asm.next_frame().unwrap().is_none(),
            "MAX_FRAME itself is in bounds: wait for the payload"
        );
        assert!(asm.is_mid_frame());
    }

    #[test]
    fn pending_bytes_counts_only_the_unconsumed_tail() {
        let first = encode_frame(b"abc");
        let second = encode_frame(b"defgh");
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.pending_bytes(), 0);
        asm.extend(&first);
        asm.extend(&second[..6]);
        assert_eq!(asm.pending_bytes(), first.len() + 6);
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"abc");
        assert_eq!(
            asm.pending_bytes(),
            6,
            "the popped frame is no longer pending"
        );
        assert!(asm.next_frame().unwrap().is_none());
        asm.extend(&second[6..]);
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"defgh");
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn assembler_yields_frames_across_arbitrary_chunking() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode_frame(b"first"));
        wire.extend_from_slice(&encode_frame(b""));
        wire.extend_from_slice(&encode_frame(&[9u8; 300]));
        // Feed in 7-byte chunks: every frame boundary lands mid-chunk or
        // mid-prefix at some point.
        let mut asm = FrameAssembler::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for chunk in wire.chunks(7) {
            asm.extend(chunk);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, vec![b"first".to_vec(), vec![], vec![9u8; 300]]);
        assert!(!asm.is_mid_frame(), "stream ended on a frame boundary");
    }

    #[test]
    fn assembler_reports_mid_frame_state_for_truncation() {
        let wire = encode_frame(b"payload");
        let mut asm = FrameAssembler::new();
        asm.extend(&wire[..2]); // half a length prefix
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.is_mid_frame(), "an EOF here truncates a frame");
        asm.extend(&wire[2..]);
        assert_eq!(asm.next_frame().unwrap().unwrap(), b"payload");
        assert!(!asm.is_mid_frame());
    }

    #[test]
    fn assembler_rejects_oversize_prefix_before_payload_arrives() {
        let mut asm = FrameAssembler::new();
        asm.extend(&((MAX_FRAME + 7) as u32).to_le_bytes());
        match asm.next_frame() {
            Err(FrameError::Oversize(n)) => assert_eq!(n, MAX_FRAME + 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assembler_compaction_does_not_lose_tail_bytes() {
        // Push enough consumed frames to trigger compaction, always with a
        // partial frame in the tail, and verify nothing is lost.
        let mut asm = FrameAssembler::new();
        let wire = encode_frame(&[3u8; 900]);
        for round in 0..20 {
            asm.extend(&wire);
            // Leave a partial prefix dangling between rounds.
            asm.extend(&wire[..3]);
            assert_eq!(
                asm.next_frame().unwrap().unwrap(),
                vec![3u8; 900],
                "round {round}"
            );
            assert!(asm.next_frame().unwrap().is_none());
            asm.extend(&wire[3..]);
            assert_eq!(asm.next_frame().unwrap().unwrap(), vec![3u8; 900]);
        }
        assert!(!asm.is_mid_frame());
    }
}

#[cfg(test)]
mod dribble_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any frame sequence, dribbled through the assembler in chunks of
        /// any size (down to a single byte), reassembles exactly — the
        /// nonblocking-read contract of the reactor transport.
        #[test]
        fn byte_dribble_round_trips(
            frames in prop::collection::vec(
                prop::collection::vec(0u8..=255, 0..200), 0..12),
            chunk in 1usize..17,
        ) {
            let mut wire = Vec::new();
            for f in &frames {
                wire.extend_from_slice(&encode_frame(f));
            }
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            for c in wire.chunks(chunk) {
                asm.extend(c);
                while let Some(f) = asm.next_frame().unwrap() {
                    got.push(f);
                }
            }
            prop_assert_eq!(&got, &frames);
            prop_assert!(!asm.is_mid_frame());
        }

        /// Truncating the wire at any interior byte offset leaves the
        /// assembler mid-frame (so the reader can flag the EOF), never
        /// yields a phantom frame, and never panics.
        #[test]
        fn truncation_at_any_offset_is_detected(
            frames in prop::collection::vec(
                prop::collection::vec(0u8..=255, 1..60), 1..6),
            cut_seed in 0u64..u64::MAX,
        ) {
            let mut wire = Vec::new();
            for f in &frames {
                wire.extend_from_slice(&encode_frame(f));
            }
            // Cut strictly inside some frame (not on a boundary).
            let boundaries: Vec<usize> = {
                let mut b = vec![0];
                let mut at = 0;
                for f in &frames {
                    at += 4 + f.len();
                    b.push(at);
                }
                b
            };
            let cut = 1 + (cut_seed as usize) % (wire.len() - 1);
            prop_assume!(!boundaries.contains(&cut));
            let mut asm = FrameAssembler::new();
            asm.extend(&wire[..cut]);
            let mut complete = 0;
            while let Some(f) = asm.next_frame().unwrap() {
                prop_assert_eq!(&f, &frames[complete]);
                complete += 1;
            }
            prop_assert!(asm.is_mid_frame(), "cut at {} must strand a partial frame", cut);
        }
    }
}
