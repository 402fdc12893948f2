//! Framing: a `u32` little-endian body length, then a [`Wire`]-encoded body.
//!
//! This is the only framing in the crate. The mux client and the reactor —
//! and so every remote frontend and the §4.7 offload relay — go through
//! [`encode_frame`] to send and [`FrameBuf`] to receive ([`write_frame`] and
//! [`read_frame`] are the blocking one-frame forms, for tools and tests that
//! hold a raw socket), so the size limit, its error text and the body codec
//! live here once.
//!
//! [`FrameBuf`] and [`encode_frame`] are free of I/O so the proptests in
//! `tests/proptests.rs` can replay arbitrary split/coalesced byte
//! interleavings against them.

use crate::wire::{decode_exact, Wire};
use std::io::{Error, ErrorKind, Read, Result, Write};

/// Largest accepted frame body (a hostile length prefix must not drive an
/// unbounded allocation). Shadow payloads are capped well below this.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Checks a body length against the limit, on both the send and receive side.
fn check_len(len: usize) -> Result<usize> {
    if len > MAX_FRAME_BYTES {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    Ok(len)
}

/// The body length a 4-byte prefix declares, if within the limit.
fn body_len(prefix: [u8; 4]) -> Result<usize> {
    check_len(u32::from_le_bytes(prefix) as usize)
}

fn decode_body<T: Wire>(body: &[u8]) -> Result<T> {
    decode_exact(body).map_err(|e| Error::new(ErrorKind::InvalidData, e))
}

/// Appends one length-prefixed frame to `out`, encoding the body in place.
/// On error `out` is left as it was.
pub fn encode_frame<T: Wire>(value: &T, out: &mut Vec<u8>) -> Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    value.encode(out);
    let body = out.len() - start - 4;
    if let Err(e) = check_len(body) {
        out.truncate(start);
        return Err(e);
    }
    // Fits: MAX_FRAME_BYTES < u32::MAX.
    out[start..start + 4].copy_from_slice(&(body as u32).to_le_bytes());
    Ok(())
}

/// Writes one frame with a single `write_all`, so a `TCP_NODELAY` socket
/// sends one segment per call rather than a prefix and a body.
pub fn write_frame<T: Wire>(stream: &mut impl Write, value: &T) -> Result<()> {
    let mut frame = Vec::new();
    encode_frame(value, &mut frame)?;
    stream.write_all(&frame)
}

/// Reads exactly one frame (never past its end, so the stream can be
/// handed on between frames).
pub fn read_frame<T: Wire>(stream: &mut impl Read) -> Result<T> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let mut body = vec![0u8; body_len(prefix)?];
    stream.read_exact(&mut body)?;
    decode_body(&body)
}

/// Largest buffer a connection keeps once it is drained. One that a bigger
/// frame grew (a 16 MiB copy, an image import or export) is released then,
/// so that frame does not pin its size for the connection's lifetime.
pub(crate) const KEEP_BYTES: usize = 1 << 20;

/// Smallest and largest spare room [`FrameBuf::read_from`] offers one read.
/// Small so ten thousand idle connections stay cheap; the upper end is what
/// a partial bulk frame is given per read.
const MIN_READ: usize = 4 << 10;
const MAX_READ: usize = 64 << 10;

/// Incremental frame decoder over one connection's receive buffer.
///
/// Bytes arrive in whatever chunks the socket produces — a frame may be
/// split across many reads, and one read may coalesce many frames. The
/// buffer takes raw bytes via [`FrameBuf::read_from`] (straight off a
/// socket, into its own storage) or [`FrameBuf::push`] and yields complete
/// frames via [`FrameBuf::next_frame`]; anything left over is a partial
/// frame still in flight (the signal the reactor's slow-loris shedding
/// keys off).
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Storage. `buf[head..tail]` is received and undecoded; `buf[tail..]`
    /// is initialised scratch that `read_from` reads into.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Drops the decoded prefix when that is free (nothing pending) or when
    /// `want` more bytes do not fit and the pending bytes are the smaller
    /// part, so a byte is moved at most once per byte decoded.
    fn compact(&mut self, want: usize) {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        } else if self.buf.len() - self.tail < want && self.head >= self.tail - self.head {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }

    /// Appends raw bytes from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact(bytes.len());
        self.buf.truncate(self.tail);
        self.buf.extend_from_slice(bytes);
        self.tail = self.buf.len();
    }

    /// Reads once from `src` into the buffer's own spare room and returns
    /// the byte count (`Ok(0)` is end of stream). The room offered is what
    /// the pending partial frame still needs, kept within
    /// `MIN_READ..=MAX_READ`, so the buffer grows with the bytes that
    /// arrive rather than with what a length prefix promises.
    pub fn read_from(&mut self, src: &mut impl Read) -> Result<usize> {
        let pending = &self.buf[self.head..self.tail];
        let missing = match pending.first_chunk::<4>() {
            Some(prefix) => {
                let frame = (u32::from_le_bytes(*prefix) as usize).saturating_add(4);
                frame.saturating_sub(pending.len())
            }
            None => 0,
        };
        let want = missing.clamp(MIN_READ, MAX_READ);
        self.compact(want);
        if self.buf.len() - self.tail < want {
            self.buf.resize(self.tail + want, 0);
        }
        let n = src.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Whether the last [`FrameBuf::read_from`] returned fewer bytes than the
    /// room it offered: a socket had no more to give just then. False once a
    /// decode has released the storage, so the caller reads once more.
    pub fn read_short(&self) -> bool {
        self.tail < self.buf.len()
    }

    /// Decodes the next complete frame, if one is buffered.
    ///
    /// `Ok(None)` means more bytes are needed; an error means the peer sent
    /// an oversized length prefix or an undecodable body (the connection is
    /// unrecoverable — framing has lost sync).
    pub fn next_frame<T: Wire>(&mut self) -> Result<Option<T>> {
        let pending = &self.buf[self.head..self.tail];
        let Some((prefix, rest)) = pending.split_first_chunk::<4>() else { return Ok(None) };
        let len = body_len(*prefix)?;
        let Some(body) = rest.get(..len) else { return Ok(None) };
        let value = decode_body(body)?;
        self.head += 4 + len;
        if self.head == self.tail && self.buf.capacity() > KEEP_BYTES {
            *self = FrameBuf::new();
        }
        Ok(Some(value))
    }

    /// Whether a partial frame (or partial length prefix) is buffered.
    pub fn has_partial(&self) -> bool {
        self.tail > self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CudaCall, MuxFrame, ReplyValue};
    use crate::HostBuf;
    use mtgpu_gpusim::DeviceAddr;

    fn frame(i: u64) -> MuxFrame {
        MuxFrame::Response { id: i, reply: Ok(ReplyValue::DeviceCount(i as u32)) }
    }

    fn drain(fb: &mut FrameBuf, out: &mut Vec<MuxFrame>) {
        while let Some(f) = fb.next_frame::<MuxFrame>().unwrap() {
            out.push(f);
        }
    }

    #[test]
    fn framebuf_decodes_split_and_coalesced_writes() {
        let mut bytes = Vec::new();
        for i in 0..5 {
            encode_frame(&frame(i), &mut bytes).unwrap();
        }
        // Feed one byte at a time: every frame must still come out intact.
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        for b in &bytes {
            fb.push(std::slice::from_ref(b));
            drain(&mut fb, &mut out);
        }
        assert_eq!(out, (0..5).map(frame).collect::<Vec<_>>());
        assert!(!fb.has_partial());

        // Feed everything at once: same result.
        let mut fb = FrameBuf::new();
        fb.push(&bytes);
        let mut out2 = Vec::new();
        drain(&mut fb, &mut out2);
        assert_eq!(out, out2);
    }

    #[test]
    fn framebuf_reports_partials() {
        let mut bytes = Vec::new();
        encode_frame(&frame(7), &mut bytes).unwrap();
        let mut fb = FrameBuf::new();
        fb.push(&bytes[..3]); // partial length prefix
        assert!(fb.next_frame::<MuxFrame>().unwrap().is_none());
        assert!(fb.has_partial());
        fb.push(&bytes[3..bytes.len() - 1]); // all but the last byte
        assert!(fb.next_frame::<MuxFrame>().unwrap().is_none());
        assert!(fb.has_partial());
        fb.push(&bytes[bytes.len() - 1..]);
        assert_eq!(fb.next_frame::<MuxFrame>().unwrap(), Some(frame(7)));
        assert!(!fb.has_partial());
    }

    #[test]
    fn framebuf_rejects_oversized_length_prefix() {
        let mut fb = FrameBuf::new();
        fb.push(&(u32::MAX).to_le_bytes());
        assert!(fb.next_frame::<MuxFrame>().is_err());
    }

    #[test]
    fn framebuf_rejects_undecodable_body() {
        let mut fb = FrameBuf::new();
        fb.push(&5u32.to_le_bytes());
        fb.push(b"hello");
        assert!(fb.next_frame::<MuxFrame>().is_err());
    }

    #[test]
    fn framebuf_compaction_preserves_stream() {
        // Frames big enough that the decoded prefix passes the compaction
        // threshold many times over, cut at a size that leaves a partial
        // frame pending at almost every compaction.
        let big = |i: u64| MuxFrame::Request {
            chan: 1,
            id: i,
            call: CudaCall::MemcpyH2D {
                dst: DeviceAddr(i),
                buf: HostBuf::from_slice(&vec![i as u8; 40_000]),
            },
        };
        let mut bytes = Vec::new();
        for i in 0..16 {
            encode_frame(&big(i), &mut bytes).unwrap();
            encode_frame(&frame(i), &mut bytes).unwrap();
        }
        for cut in [97, 4096, 65_537] {
            let mut fb = FrameBuf::new();
            let mut out = Vec::new();
            let mut src = bytes.as_slice();
            let mut by_push = false;
            while !src.is_empty() {
                // Alternate the two ways in.
                by_push = !by_push;
                if by_push {
                    let (chunk, rest) = src.split_at(cut.min(src.len()));
                    fb.push(chunk);
                    src = rest;
                } else {
                    let mut limited = src.take(cut as u64);
                    let n = fb.read_from(&mut limited).unwrap();
                    src = &src[n..];
                }
                drain(&mut fb, &mut out);
            }
            assert!(!fb.has_partial());
            assert_eq!(out.len(), 32);
            for (i, pair) in out.chunks(2).enumerate() {
                assert_eq!(pair[0], big(i as u64));
                assert_eq!(pair[1], frame(i as u64));
            }
        }
    }

    #[test]
    fn read_from_grows_with_arriving_bytes_not_with_the_prefix() {
        // A prefix promising the largest legal frame reserves one read's
        // worth of room, not the frame.
        let mut fb = FrameBuf::new();
        let mut src: &[u8] = &(MAX_FRAME_BYTES as u32).to_le_bytes();
        assert_eq!(fb.read_from(&mut src).unwrap(), 4);
        assert!(fb.next_frame::<MuxFrame>().unwrap().is_none());
        let mut empty: &[u8] = &[];
        assert_eq!(fb.read_from(&mut empty).unwrap(), 0);
        assert!(fb.buf.capacity() <= 4 * MAX_READ, "reserved {}", fb.buf.capacity());
    }

    #[test]
    fn a_drained_buffer_keeps_a_bulk_frame_but_not_a_big_one() {
        let copy = |len: usize| {
            let call =
                CudaCall::MemcpyH2D { dst: DeviceAddr(0), buf: HostBuf::from_slice(&vec![7; len]) };
            let mut bytes = Vec::new();
            encode_frame(&call, &mut bytes).unwrap();
            bytes
        };
        let mut fb = FrameBuf::new();
        let mut drain = |bytes: &[u8]| {
            let mut src = bytes;
            while !src.is_empty() {
                let n = fb.read_from(&mut src).unwrap();
                assert_ne!(n, 0);
            }
            assert!(matches!(fb.next_frame::<CudaCall>(), Ok(Some(_))));
            assert!(!fb.has_partial());
            (fb.buf.as_ptr(), fb.buf.capacity())
        };
        // A 32 KiB frame (one `bulk_copy` upload) keeps its buffer.
        let bulk = copy(32 << 10);
        let (ptr, capacity) = drain(&bulk);
        assert!(capacity >= bulk.len());
        assert_eq!(drain(&bulk), (ptr, capacity));
        // A 4 MiB one gives its memory back once it is decoded.
        assert!(drain(&copy(4 << 20)).1 <= KEEP_BYTES);
    }

    #[test]
    fn frame_roundtrip_preserves_payload() {
        let mut buf = Vec::new();
        let call = CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x42),
            buf: HostBuf::with_shadow(1 << 20, vec![7u8; 64]),
        };
        write_frame(&mut buf, &call).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back: CudaCall = read_frame(&mut cursor).unwrap();
        assert_eq!(back, call);
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &CudaCall::Synchronize).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame::<CudaCall>(&mut cursor).is_err());
    }

    #[test]
    fn garbage_frame_is_decode_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(b"hello");
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame::<CudaCall>(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_body_is_refused_by_the_sender_and_leaves_the_buffer_alone() {
        let oversized = HostBuf {
            declared_len: 1 << 40,
            payload: vec![0u8; MAX_FRAME_BYTES + 1],
            content_hash: None,
        };
        let call = CudaCall::MemcpyH2D { dst: DeviceAddr(0), buf: oversized };
        let mut out = vec![0xAA, 0xBB];
        let err = encode_frame(&call, &mut out).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(out, [0xAA, 0xBB]);
    }
}
