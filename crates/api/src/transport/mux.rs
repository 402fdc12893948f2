//! Multiplexed client transport: many channels over one TCP connection —
//! the client side of the node's only network wire.
//!
//! A strict request/response socket would cost every concurrent application
//! thread a connection (and, server-side, a handler thread). The wire format
//! ([`MuxFrame`]) instead tags every request with a *channel* (the
//! server-side context key — one channel is one application thread's call
//! stream) and a connection-unique *request ID* (the client-side demux key).
//! Responses carry only the ID and may arrive out of order; a single reader
//! thread per connection routes each one back to the caller that registered
//! the ID. A client that wants a socket of its own opens a connection and
//! uses its one channel; the socket closes with its last handle.
//!
//! Framing and the body codec are [`super::frame`]'s, shared with the server
//! reactor.

use super::frame::{encode_frame, FrameBuf};
use super::Transport;
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply, MuxFrame};
use crossbeam::channel::{bounded, Sender};
use mtgpu_simtime::{lock_rank, RankedMutex};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Pending-reply demux state of one multiplexed connection.
struct PendingReplies {
    /// Request ID → the waiting caller's one-shot channel.
    waiters: BTreeMap<u64, Sender<CudaReply>>,
    /// Set once the reader thread observed a transport failure; later
    /// registrations fail fast instead of waiting forever.
    dead: bool,
}

/// Shared state of one multiplexed TCP connection.
struct MuxConnInner {
    /// The socket, shared with the reader thread (one fd per connection;
    /// `&TcpStream` implements `Write`). Frame writes are serialized under
    /// the innermost transport-tier rank.
    writer: RankedMutex<Arc<TcpStream>>,
    /// Demux map the reader thread completes into.
    pending: RankedMutex<PendingReplies>,
    next_id: AtomicU64,
    next_chan: AtomicU64,
    /// Responses whose ID matched no waiter (hostile or confused server).
    unknown_responses: AtomicU64,
    /// Frames that were not `Response` at all (protocol violation).
    protocol_errors: AtomicU64,
    dead: AtomicBool,
}

impl MuxConnInner {
    fn fail_all(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        pending.dead = true;
        for (_, tx) in std::mem::take(&mut pending.waiters) {
            let _ = tx.send(Err(CudaError::Disconnected));
        }
    }
}

/// Shuts the socket down when the last client-side handle — connection or
/// channel — goes away. The reader thread holds the shared state but not
/// this, so it sees EOF and exits, and the server tears the connection's
/// contexts down: dropping a client hangs up, as closing a socket should.
struct CloseOnDrop(Arc<TcpStream>);

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// One multiplexed TCP connection. Cheap to clone ([`Arc`] inside); open
/// channels with [`MuxConnection::channel`] — each is an application
/// thread's own call stream while sharing this one socket.
#[derive(Clone)]
pub struct MuxConnection {
    inner: Arc<MuxConnInner>,
    life: Arc<CloseOnDrop>,
}

/// Stack size for the per-connection reader thread. Kept small so 10k
/// persistent connections stay cheap; the reader only decodes frames and
/// completes one-shot channels.
const READER_STACK_BYTES: usize = 256 * 1024;

impl MuxConnection {
    /// Connects to a reactor endpoint and spawns the reader thread.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        MuxConnection::from_stream(stream)
    }

    /// Adopts an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let stream = Arc::new(stream);
        let reader = Arc::clone(&stream);
        let life = Arc::new(CloseOnDrop(Arc::clone(&stream)));
        let inner = Arc::new(MuxConnInner {
            writer: RankedMutex::new(lock_rank::CONN_WRITE, stream),
            pending: RankedMutex::new(
                lock_rank::MUX_PENDING,
                PendingReplies { waiters: BTreeMap::new(), dead: false },
            ),
            next_id: AtomicU64::new(1),
            next_chan: AtomicU64::new(1),
            unknown_responses: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        let pump = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("mux-reader".to_string())
            .stack_size(READER_STACK_BYTES)
            .spawn(move || reader_loop(reader, &pump))
            .map_err(|e| std::io::Error::other(format!("spawn mux reader: {e}")))?;
        Ok(MuxConnection { inner, life })
    }

    /// Opens a fresh channel (a new server-side context) on this
    /// connection.
    pub fn channel(&self) -> MuxChannel {
        let chan = self.inner.next_chan.fetch_add(1, Ordering::Relaxed);
        MuxChannel {
            conn: Arc::clone(&self.inner),
            _life: Arc::clone(&self.life),
            chan,
            wbuf: Vec::new(),
        }
    }

    /// Whether the connection has failed (reader observed EOF or error).
    pub fn is_dead(&self) -> bool {
        self.inner.dead.load(Ordering::SeqCst)
    }

    /// Responses received whose ID matched no registered waiter.
    pub fn unknown_responses(&self) -> u64 {
        self.inner.unknown_responses.load(Ordering::Relaxed)
    }

    /// Frames received that were not responses at all.
    pub fn protocol_errors(&self) -> u64 {
        self.inner.protocol_errors.load(Ordering::Relaxed)
    }

    /// Tears the connection down: wakes every waiter with `Disconnected`
    /// and closes the socket so the reader thread exits.
    pub fn shutdown(&self) {
        self.inner.fail_all();
        let _ = self.inner.writer.lock().shutdown(Shutdown::Both);
    }
}

fn reader_loop(stream: Arc<TcpStream>, conn: &MuxConnInner) {
    let mut framebuf = FrameBuf::new();
    'read: loop {
        if matches!(framebuf.read_from(&mut &*stream), Ok(0) | Err(_)) {
            break;
        }
        loop {
            match framebuf.next_frame::<MuxFrame>() {
                Ok(Some(MuxFrame::Response { id, reply })) => {
                    let waiter = conn.pending.lock().waiters.remove(&id);
                    match waiter {
                        Some(tx) => {
                            let _ = tx.send(reply);
                        }
                        None => {
                            // A response we never asked for: count and drop.
                            // Closing would let a hostile server kill every
                            // caller sharing the connection with one frame.
                            conn.unknown_responses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(Some(MuxFrame::Request { .. })) => {
                    // Only a server sends requests; framing is intact, so
                    // count the violation and carry on.
                    conn.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => break,
                Err(_) => break 'read,
            }
        }
    }
    conn.fail_all();
}

/// One channel on a [`MuxConnection`]: a [`Transport`] whose calls are
/// tagged with the channel ID and demultiplexed by request ID, so any
/// number of channels share the socket without blocking each other.
pub struct MuxChannel {
    conn: Arc<MuxConnInner>,
    /// Keeps the socket open for as long as this channel lives.
    _life: Arc<CloseOnDrop>,
    chan: u64,
    /// Encode buffer, kept across calls so a round trip allocates nothing
    /// for its request frame.
    wbuf: Vec<u8>,
}

/// Largest encode buffer a channel keeps between calls; one bigger (an
/// image import, say) is released after its write.
const WBUF_KEEP_BYTES: usize = 1 << 20;

impl MuxChannel {
    /// The channel ID on the wire (diagnostic).
    pub fn chan(&self) -> u64 {
        self.chan
    }

    /// Registers a waiter for a fresh request ID. Fails if the connection
    /// is already dead.
    fn register(&self) -> Result<(u64, crossbeam::channel::Receiver<CudaReply>), CudaError> {
        let id = self.conn.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        let mut pending = self.conn.pending.lock();
        if pending.dead {
            return Err(CudaError::Disconnected);
        }
        pending.waiters.insert(id, tx);
        Ok((id, rx))
    }

    fn unregister(&self, id: u64) {
        self.conn.pending.lock().waiters.remove(&id);
    }

    /// Ships the frames encoded in `wbuf` with one write.
    fn write_wbuf(&mut self) -> std::io::Result<()> {
        let wrote = (&**self.conn.writer.lock()).write_all(&self.wbuf);
        if self.wbuf.capacity() > WBUF_KEEP_BYTES {
            self.wbuf = Vec::new();
        }
        wrote
    }
}

impl Transport for MuxChannel {
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
        let (id, rx) = self.register()?;
        let frame = MuxFrame::Request { chan: self.chan, id, call };
        self.wbuf.clear();
        if encode_frame(&frame, &mut self.wbuf).and_then(|()| self.write_wbuf()).is_err() {
            self.unregister(id);
            return Err(CudaError::Disconnected);
        }
        rx.recv().map_err(|_| CudaError::Disconnected)?
    }

    fn roundtrip_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        // Pipelined: register every ID, ship all frames in one write, then
        // collect the replies. The server executes calls of one channel in
        // order, so replies complete in order even though the wire allows
        // out-of-order delivery across channels.
        let mut waiters = Vec::with_capacity(calls.len());
        self.wbuf.clear();
        for call in calls {
            match self.register() {
                Ok((id, rx)) => {
                    let frame = MuxFrame::Request { chan: self.chan, id, call };
                    if encode_frame(&frame, &mut self.wbuf).is_err() {
                        self.unregister(id);
                        waiters.push(None);
                        continue;
                    }
                    waiters.push(Some((id, rx)));
                }
                Err(_) => waiters.push(None),
            }
        }
        let wrote = self.write_wbuf().is_ok();
        waiters
            .into_iter()
            .map(|slot| match slot {
                Some((id, rx)) => {
                    if wrote {
                        rx.recv().unwrap_or(Err(CudaError::Disconnected))
                    } else {
                        self.unregister(id);
                        Err(CudaError::Disconnected)
                    }
                }
                None => Err(CudaError::Disconnected),
            })
            .collect()
    }
}

/// A pool of multiplexed connections, handing out channels round-robin.
///
/// This is the client-side shape of the DESIGN.md §12 transport: a handful
/// of sockets carrying thousands of logical channels. `FrontendClient`s
/// built from pool channels are interchangeable with clients that own a
/// connection.
pub struct MuxPool {
    conns: Vec<MuxConnection>,
    next: AtomicU64,
}

impl MuxPool {
    /// Opens `conns` connections to a reactor endpoint.
    pub fn connect(addr: impl ToSocketAddrs + Copy, conns: usize) -> std::io::Result<Self> {
        let conns = conns.max(1);
        let mut pool = Vec::with_capacity(conns);
        for _ in 0..conns {
            pool.push(MuxConnection::connect(addr)?);
        }
        Ok(MuxPool { conns: pool, next: AtomicU64::new(0) })
    }

    /// Number of pooled connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether the pool holds no connections (never true after `connect`).
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Opens a channel on the next connection, round-robin.
    pub fn channel(&self) -> MuxChannel {
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.conns.len();
        self.conns[i].channel()
    }

    /// Opens a channel on a specific pooled connection.
    pub fn channel_on(&self, conn: usize) -> MuxChannel {
        self.conns[conn % self.conns.len()].channel()
    }

    /// Sum of unknown-ID responses across the pool.
    pub fn unknown_responses(&self) -> u64 {
        self.conns.iter().map(|c| c.unknown_responses()).sum()
    }

    /// Closes every pooled connection.
    pub fn shutdown(&self) {
        for conn in &self.conns {
            conn.shutdown();
        }
    }
}

impl Drop for MuxPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}
