//! What one end of a connection queues for the wire.
//!
//! A node's step encodes its sends and pushes them onto the [`OutRing`]
//! of the connection it reaches each peer over; the reactor hosting the
//! node, which also owns the socket, writes the ring out. Node, ring and
//! socket share one thread, so the ring is a plain queue. **Bounded
//! matters** — the old transport's per-link channels held 64k frames
//! each, so a stalled peer could balloon memory across O(n²) queues;
//! here a ring at [`RING_HIGH`] pauses its node (no more input, no
//! timers) until every ring of that node drains below half.
//!
//! Frames are drained with vectored writes: the reactor stitches up to
//! [`MAX_IOVS`] queued frames into one `writev`, so a replication burst
//! costs one syscall, while a lone heartbeat still leaves immediately.

use contrarian_runtime::frame::encode_frame;
use contrarian_types::codec::{from_bytes, to_bytes, CodecError, Reader, Wire};
use contrarian_types::Addr;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

/// Byte budget of one connection's outbound ring. A step that leaves a
/// ring at or above it pauses its node; the node resumes once all of its
/// rings are below half.
pub const RING_HIGH: usize = 4 << 20;

/// Max frames stitched into one vectored write.
pub const MAX_IOVS: usize = 64;

/// What one drain pass against the socket produced.
pub struct DrainOutcome {
    /// Frames fully handed to the kernel.
    pub frames: u64,
    /// Bytes handed to the kernel (including length prefixes).
    pub bytes: u64,
    /// The socket would block: the reactor must wait for writability.
    pub would_block: bool,
    /// The ring still holds data (only meaningful with `would_block`).
    pub pending: bool,
}

/// One connection's outbound frames, oldest first.
#[derive(Default)]
pub struct OutRing {
    frames: VecDeque<Vec<u8>>,
    /// Bytes queued across all frames (first frame counted in full even if
    /// partially written — the budget is an order-of-magnitude brake, not
    /// an accounting ledger).
    bytes: usize,
    /// How much of the front frame has already been written.
    head_off: usize,
}

impl OutRing {
    /// Queues one encoded frame.
    pub fn push(&mut self, frame: Vec<u8>) {
        self.bytes += frame.len();
        self.frames.push_back(frame);
    }

    /// Bytes queued.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Writes as much queued data to `w` as the socket accepts, vectored.
    pub fn drain_to(&mut self, w: &mut impl Write) -> io::Result<DrainOutcome> {
        let mut out = DrainOutcome {
            frames: 0,
            bytes: 0,
            would_block: false,
            pending: false,
        };
        while !self.frames.is_empty() {
            let iovs: Vec<IoSlice<'_>> = self
                .frames
                .iter()
                .take(MAX_IOVS)
                .enumerate()
                .map(|(i, f)| IoSlice::new(if i == 0 { &f[self.head_off..] } else { f }))
                .collect();
            let n = match w.write_vectored(&iovs) {
                Ok(0) => {
                    // A zero-length vectored write with data queued means
                    // the peer is gone.
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ));
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    out.would_block = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            out.bytes += n as u64;
            // Advance the ring past the written bytes.
            let mut left = n;
            while left > 0 {
                let head_len = self
                    .frames
                    .front()
                    .expect("bytes written beyond ring")
                    .len()
                    - self.head_off;
                if left >= head_len {
                    left -= head_len;
                    let f = self.frames.pop_front().unwrap();
                    self.bytes -= f.len();
                    self.head_off = 0;
                    out.frames += 1;
                } else {
                    self.head_off += left;
                    left = 0;
                }
            }
        }
        out.pending = !self.frames.is_empty();
        Ok(out)
    }
}

/// The hello handshake: the first frame on every initiated connection,
/// identifying both endpoints so the acceptor can (a) route replies back
/// over the same socket and (b) sanity-check the dial.
const HELLO_MAGIC: u32 = 0x434e_5231; // "CNR1"

pub struct Hello {
    pub from: Addr,
    pub to: Addr,
}

impl Wire for Hello {
    const MIN_WIRE_SIZE: usize = 4 + 4 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        HELLO_MAGIC.encode(out);
        self.from.encode(out);
        self.to.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let magic = u32::decode(r)?;
        if magic != HELLO_MAGIC {
            return Err(CodecError::BadTag {
                what: "hello magic",
                tag: (magic & 0xff) as u8,
            });
        }
        Ok(Hello {
            from: Addr::decode(r)?,
            to: Addr::decode(r)?,
        })
    }
}

/// Encodes the hello as a ready-to-queue frame.
pub fn hello_frame(from: Addr, to: Addr) -> Vec<u8> {
    encode_frame(&to_bytes(&Hello { from, to }))
}

/// Decodes a hello payload.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, CodecError> {
    from_bytes::<Hello>(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contrarian_types::{DcId, PartitionId};

    #[test]
    fn ring_drains_frames_in_order_vectored() {
        let mut ring = OutRing::default();
        ring.push(encode_frame(b"alpha"));
        ring.push(encode_frame(b"beta"));
        ring.push(encode_frame(b"gamma"));
        let mut sink = Vec::new();
        let out = ring.drain_to(&mut sink).unwrap();
        assert_eq!(out.frames, 3);
        assert_eq!(out.bytes as usize, sink.len());
        assert!(!out.pending && !out.would_block);

        let mut want = Vec::new();
        for p in [&b"alpha"[..], b"beta", b"gamma"] {
            want.extend_from_slice(&encode_frame(p));
        }
        assert_eq!(sink, want, "drain preserves FIFO frame order");
    }

    /// A writer that accepts a fixed number of bytes, then blocks.
    struct Throttled {
        cap: usize,
        got: Vec<u8>,
    }
    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.cap == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap);
            self.cap -= n;
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_mid_frame() {
        let mut ring = OutRing::default();
        ring.push(encode_frame(&[7u8; 100]));
        ring.push(encode_frame(&[8u8; 100]));
        let mut w = Throttled {
            cap: 50,
            got: Vec::new(),
        };
        let out = ring.drain_to(&mut w).unwrap();
        assert_eq!(out.frames, 0, "first frame only half written");
        assert!(out.would_block && out.pending);

        w.cap = 10_000;
        let out = ring.drain_to(&mut w).unwrap();
        assert_eq!(out.frames, 2);
        assert!(!out.pending);
        let mut want = encode_frame(&[7u8; 100]);
        want.extend_from_slice(&encode_frame(&[8u8; 100]));
        assert_eq!(w.got, want, "no bytes lost or duplicated across the stall");
    }

    #[test]
    fn hello_round_trips_and_rejects_bad_magic() {
        let from = Addr::client(DcId(1), 9);
        let to = Addr::server(DcId(0), PartitionId(3));
        let frame = hello_frame(from, to);
        // Strip the length prefix to get the payload back.
        let payload = &frame[4..];
        let h = decode_hello(payload).unwrap();
        assert_eq!((h.from, h.to), (from, to));

        let mut corrupt = payload.to_vec();
        corrupt[0] ^= 0xff;
        assert!(decode_hello(&corrupt).is_err(), "magic must be checked");
    }
}
