//! Multiplexed client transport: many channels over one connection — the
//! client side of the node's one wire, over TCP to its listener or, from the
//! node's own process, over a [`LocalStream`]: two one-way Unix-domain
//! socketpairs from [`super::ReactorHandle::connect_local`].
//!
//! A strict request/response socket would cost every concurrent application
//! thread a connection (and, server-side, a handler thread). The wire format
//! ([`MuxFrame`]) instead tags every request with a *channel* (the
//! server-side context key — one channel is one application thread's call
//! stream) and a connection-unique *request ID* (the client-side demux key).
//! Responses carry only the ID and may arrive out of order. A client that
//! wants a socket of its own opens a connection and uses its one channel;
//! the socket closes with its last handle.
//!
//! **The caller reads its own reply.** A connection has no thread. A caller
//! files one *group* for the requests it sends (one call, or a pipelined
//! batch under consecutive IDs), writes them, and then, if nobody is reading
//! the socket, reads it itself — it is the *leader* — into the connection's
//! one [`FrameBuf`]. Its own replies it keeps without any wake-up; a reply
//! for another caller it files in that caller's group, waking the caller
//! (and only that one) when the group is complete; a response nobody asked
//! for and a client-bound request are counted and dropped. A caller that
//! finds a leader sleeps on its channel's condvar. A leader whose group is
//! complete leaves at once — frames still buffered are the next leader's to
//! decode before it reads — and hands the read to exactly one sleeping
//! caller; one that is awake (still writing, say) finds the socket unread
//! when it gets there. End of stream, an undecodable frame, a failed write
//! or [`MuxConnection::shutdown`] kill the connection: every sleeping
//! caller is woken, whoever has replies missing gets `Disconnected` for
//! them, the socket is shut (which is what gets a leader out of its `read`),
//! and later calls fail at once with nothing written. Nothing watches an
//! idle connection, so [`MuxConnection::is_dead`] turns true on the next I/O
//! any caller attempts, not in the background.
//!
//! Lock order: the demux state ([`lock_rank::MUX_PENDING`]) is never held
//! across a read or a write and nothing is taken under it; frame writes are
//! serialized by the innermost transport-tier rank ([`lock_rank::CONN_WRITE`])
//! with nothing else held.
//!
//! Framing and the body codec are [`super::frame`]'s, shared with the server
//! reactor.

use super::frame::{encode_frame, FrameBuf, KEEP_BYTES};
use super::Transport;
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply, MuxFrame};
use mtgpu_simtime::{lock_rank, RankedCondvar, RankedMutex, Shadow};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The byte stream under a connection: a [`TcpStream`] to a node's
/// listener, a [`LocalStream`] from [`super::ReactorHandle::connect_local`],
/// or a peer that mtcheck scripts over ranked locks, so that a read with
/// nothing to return is a wait its explorer schedules around instead of a
/// blocked thread.
pub trait ByteStream: Send + Sync + 'static {
    /// One [`FrameBuf::read_from`] off the stream.
    fn read_into(&self, framebuf: &mut FrameBuf) -> std::io::Result<usize>;
    /// As `Write::write_all`.
    fn write_all(&self, buf: &[u8]) -> std::io::Result<()>;
    /// Ends the stream in both directions; a blocked read returns.
    fn shutdown(&self);
}

impl ByteStream for TcpStream {
    fn read_into(&self, framebuf: &mut FrameBuf) -> std::io::Result<usize> {
        framebuf.read_from(&mut &*self)
    }
    fn write_all(&self, buf: &[u8]) -> std::io::Result<()> {
        Write::write_all(&mut &*self, buf)
    }
    fn shutdown(&self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

/// One end of a local connection ([`super::ReactorHandle::connect_local`]):
/// two one-way Unix-domain socketpairs, one per direction. This end reads
/// `rx` and writes `tx`; the other end holds their peers, so a client's
/// `tx` carries its requests and its `rx` the replies. AF_UNIX signals the
/// send space a reader frees on the *sending* socket's wait queue, where
/// with one bidirectional pair the caller sleeps in `read` for its reply:
/// each request the reactor drained woke it once for nothing. With a pair
/// per direction nobody sleeps where the request's space is freed, and the
/// caller wakes for its reply alone (DESIGN.md §12).
pub struct LocalStream {
    /// The socket this end reads: a client's replies, a server's requests.
    pub rx: UnixStream,
    /// The socket this end writes.
    pub tx: UnixStream,
}

impl LocalStream {
    /// Both ends of a fresh local connection.
    pub(crate) fn pair() -> std::io::Result<(LocalStream, LocalStream)> {
        let (a_tx, b_rx) = UnixStream::pair()?;
        let (b_tx, a_rx) = UnixStream::pair()?;
        Ok((LocalStream { rx: a_rx, tx: a_tx }, LocalStream { rx: b_rx, tx: b_tx }))
    }

    /// Puts both sockets of this end in nonblocking mode.
    pub(crate) fn set_nonblocking(&self) -> std::io::Result<()> {
        self.rx.set_nonblocking(true)?;
        self.tx.set_nonblocking(true)
    }
}

impl Read for LocalStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&self.rx).read(buf)
    }
}

impl Write for LocalStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&self.tx).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl ByteStream for LocalStream {
    fn read_into(&self, framebuf: &mut FrameBuf) -> std::io::Result<usize> {
        framebuf.read_from(&mut &self.rx)
    }
    fn write_all(&self, buf: &[u8]) -> std::io::Result<()> {
        Write::write_all(&mut &self.tx, buf)
    }
    /// Shuts both sockets: a read blocked on either end returns, and a
    /// write from either end fails.
    fn shutdown(&self) {
        let _ = self.rx.shutdown(Shutdown::Both);
        let _ = self.tx.shutdown(Shutdown::Both);
    }
}

/// The requests one caller has in flight — one call, or a pipelined batch
/// under consecutive IDs — filed under the first ID.
struct Group {
    /// One place per request, in call order; `None` until its reply is in.
    replies: Vec<Option<CudaReply>>,
    /// Places still `None`.
    missing: usize,
    /// Where the caller sleeps, while it does.
    parked: Option<Arc<RankedCondvar>>,
}

/// Reply demux state of one multiplexed connection.
struct Demux {
    pending: BTreeMap<u64, Group>,
    /// A caller is reading the socket (and holds `framebuf`). Shadowed so
    /// mtcheck sees every access ordered by the lock.
    leader: Shadow<bool>,
    /// The receive buffer; between leaders it keeps what the last one read
    /// past its own replies.
    framebuf: FrameBuf,
}

/// Shared state of one multiplexed connection. The socket closes when the
/// last handle — connection or channel — drops it, and the server then
/// tears the connection's contexts down: dropping a client hangs up.
struct MuxConnInner {
    io: Box<dyn ByteStream>,
    /// Serializes frame writes (innermost transport-tier rank).
    writer: RankedMutex<()>,
    demux: RankedMutex<Demux>,
    next_id: AtomicU64,
    next_chan: AtomicU64,
    /// Responses whose ID matched no waiter (hostile or confused server).
    unknown_responses: AtomicU64,
    /// Frames that were not `Response` at all (protocol violation).
    protocol_errors: AtomicU64,
    /// Exchanges begun: one write of one or more requests, then one wait.
    round_trips: AtomicU64,
    /// Written under the demux lock, so a caller that saw it clear there
    /// and went to sleep is woken by the `fail` that sets it.
    dead: AtomicBool,
}

impl MuxConnInner {
    /// Kills the connection: later calls fail fast, every sleeping caller
    /// wakes to find it dead, and the stream is shut so that a leader
    /// blocked in `read` returns.
    fn fail(&self, demux: &mut Demux) {
        self.dead.store(true, Ordering::SeqCst);
        // No broadcast: every sleeper has a condvar of its own.
        for parked in demux.pending.values_mut().filter_map(|group| group.parked.take()) {
            parked.notify_one();
        }
        self.io.shutdown();
    }

    /// Files the reply to request `id`; true if that completes group `mine`.
    fn file(&self, id: u64, reply: CudaReply, mine: u64) -> bool {
        let mut demux = self.demux.lock();
        if let Some((&first, group)) = demux.pending.range_mut(..=id).next_back() {
            let place = usize::try_from(id - first).ok().and_then(|i| group.replies.get_mut(i));
            if let Some(place @ None) = place {
                *place = Some(reply);
                group.missing -= 1;
                let complete = group.missing == 0;
                let parked = if complete { group.parked.take() } else { None };
                drop(demux);
                if let Some(parked) = parked {
                    parked.notify_one();
                }
                return complete && first == mine;
            }
        }
        // A response nobody asked for, or asked for once and sent twice:
        // count and drop. Closing would let a hostile server kill every
        // caller sharing the connection with one frame.
        self.unknown_responses.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Reads the stream until group `mine` is complete (true) or the stream
    /// ends or loses framing (false), decoding what was buffered first.
    fn lead(&self, mine: u64, framebuf: &mut FrameBuf) -> bool {
        loop {
            loop {
                match framebuf.next_frame::<MuxFrame>() {
                    Ok(Some(MuxFrame::Response { id, reply })) => {
                        if self.file(id, reply, mine) {
                            return true;
                        }
                    }
                    Ok(Some(MuxFrame::Request { .. })) => {
                        // Only a server sends requests; framing is intact, so
                        // count the violation and carry on.
                        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(None) => break,
                    Err(_) => return false,
                }
            }
            match self.io.read_into(framebuf) {
                Ok(0) => return false,
                Err(e) if e.kind() != ErrorKind::Interrupted => return false,
                _ => {}
            }
        }
    }
}

/// One multiplexed connection. Cheap to clone ([`Arc`] inside); open
/// channels with [`MuxConnection::channel`] — each is an application
/// thread's own call stream while sharing this one socket.
#[derive(Clone)]
pub struct MuxConnection {
    inner: Arc<MuxConnInner>,
}

impl MuxConnection {
    /// Connects to a reactor endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        MuxConnection::from_stream(TcpStream::connect(addr)?)
    }

    /// Adopts an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(MuxConnection::over(stream))
    }

    /// A connection over any byte stream: a local connection's client end,
    /// or mtcheck's scripted peer.
    pub fn over(io: impl ByteStream) -> Self {
        let inner = MuxConnInner {
            io: Box::new(io),
            writer: RankedMutex::new(lock_rank::CONN_WRITE, ()),
            demux: RankedMutex::new(
                lock_rank::MUX_PENDING,
                Demux {
                    pending: BTreeMap::new(),
                    leader: Shadow::new("mux.demux.leader", false),
                    framebuf: FrameBuf::new(),
                },
            ),
            next_id: AtomicU64::new(1),
            next_chan: AtomicU64::new(1),
            unknown_responses: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            round_trips: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        };
        MuxConnection { inner: Arc::new(inner) }
    }

    /// Opens a fresh channel (a new server-side context) on this
    /// connection.
    pub fn channel(&self) -> MuxChannel {
        let chan = self.inner.next_chan.fetch_add(1, Ordering::Relaxed);
        MuxChannel {
            conn: Arc::clone(&self.inner),
            chan,
            wbuf: Vec::new(),
            wake: Arc::new(RankedCondvar::new()),
        }
    }

    /// Whether the connection has failed: a caller met end of stream, an
    /// undecodable frame or a write error, or `shutdown` was called.
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

    /// Round trips its channels have made: one per call shipped alone and
    /// one per pipelined batch, however many requests it carried.
    pub fn round_trips(&self) -> u64 {
        self.inner.round_trips.load(Ordering::Relaxed)
    }

    /// Whether nobody is reading the stream and no request is in flight:
    /// where every caller's return must leave the demux (tests, mtcheck).
    #[doc(hidden)]
    pub fn is_idle(&self) -> bool {
        let demux = self.inner.demux.lock();
        !*demux.leader && demux.pending.is_empty()
    }

    /// Tears the connection down: every waiter gets `Disconnected` and the
    /// socket is shut.
    pub fn shutdown(&self) {
        self.inner.fail(&mut self.inner.demux.lock());
    }
}

/// One channel on a [`MuxConnection`]: a [`Transport`] whose calls are
/// tagged with the channel ID and demultiplexed by request ID, so any
/// number of channels share the socket without blocking each other.
pub struct MuxChannel {
    /// Keeps the socket open for as long as this channel lives.
    conn: Arc<MuxConnInner>,
    chan: u64,
    /// Encode buffer, kept across calls (up to [`KEEP_BYTES`]) so a round
    /// trip allocates nothing for its request frame.
    wbuf: Vec<u8>,
    /// Where this channel's caller sleeps while another caller leads.
    wake: Arc<RankedCondvar>,
}

impl MuxChannel {
    /// The channel ID on the wire (diagnostic).
    pub fn chan(&self) -> u64 {
        self.chan
    }

    /// Ships `calls` under consecutive request IDs with one write, then
    /// collects their replies in call order. The server executes calls of
    /// one channel in order, so they complete in order even though the wire
    /// allows out-of-order delivery across channels.
    fn exchange(&mut self, calls: impl ExactSizeIterator<Item = CudaCall>) -> Vec<CudaReply> {
        self.conn.round_trips.fetch_add(1, Ordering::Relaxed);
        let mut group =
            Group { replies: Vec::with_capacity(calls.len()), missing: 0, parked: None };
        // At least one ID, so that an empty batch too files under a key of
        // its own.
        let first = self.conn.next_id.fetch_add(calls.len().max(1) as u64, Ordering::Relaxed);
        self.wbuf.clear();
        for (id, call) in (first..).zip(calls) {
            let frame = MuxFrame::Request { chan: self.chan, id, call };
            // A call too big for a frame is answered here, alone.
            let refused = encode_frame(&frame, &mut self.wbuf).is_err();
            group.replies.push(refused.then_some(Err(CudaError::Disconnected)));
            group.missing += usize::from(!refused);
        }
        self.conn.demux.lock().pending.insert(first, group);
        let wrote = !self.conn.dead.load(Ordering::SeqCst) && {
            let _writing = self.conn.writer.lock();
            self.conn.io.write_all(&self.wbuf).is_ok()
        };
        if !wrote {
            // Part of a frame may be on the wire: the stream is out of step
            // for every channel, and nobody else would notice.
            self.conn.fail(&mut self.conn.demux.lock());
        }
        if self.wbuf.capacity() > KEEP_BYTES {
            self.wbuf = Vec::new();
        }
        self.collect(first)
    }

    /// Waits until group `first` is complete or the connection dead,
    /// reading the stream itself whenever nobody else is.
    fn collect(&self, first: u64) -> Vec<CudaReply> {
        let conn = &*self.conn;
        let mut successor = None;
        let mut demux = conn.demux.lock();
        loop {
            let Demux { pending, leader, framebuf } = &mut *demux;
            let group = pending.get_mut(&first).expect("a group stays filed until collected");
            // Awake, whatever woke us: a hand-off must not pick this group.
            group.parked = None;
            if group.missing == 0 || conn.dead.load(Ordering::SeqCst) {
                break;
            }
            if **leader {
                group.parked = Some(Arc::clone(&self.wake));
                self.wake.wait(&mut demux);
                continue;
            }
            **leader = true;
            let mut framebuf = std::mem::take(framebuf);
            drop(demux);
            let alive = conn.lead(first, &mut framebuf);
            demux = conn.demux.lock();
            demux.framebuf = framebuf;
            *demux.leader = false;
            if alive {
                // Hand the read to one caller that sleeps; one that is
                // awake finds the stream unread when it gets here.
                successor = demux.pending.values_mut().find_map(|group| group.parked.take());
            } else {
                conn.fail(&mut demux);
            }
        }
        let group = demux.pending.remove(&first).expect("a group stays filed until collected");
        drop(demux);
        if let Some(successor) = successor {
            successor.notify_one();
        }
        group.replies.into_iter().map(|r| r.unwrap_or(Err(CudaError::Disconnected))).collect()
    }
}

impl Transport for MuxChannel {
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
        self.exchange(std::iter::once(call)).pop().unwrap_or(Err(CudaError::Disconnected))
    }

    fn roundtrip_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        self.exchange(calls.into_iter())
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
    /// A pool of `conns` connections (at least one), each made by `connect`:
    /// [`MuxConnection::connect`] to a reactor's TCP endpoint, or a local
    /// connection from [`super::ReactorHandle::connect_local`].
    pub fn open(
        conns: usize,
        connect: impl FnMut() -> std::io::Result<MuxConnection>,
    ) -> std::io::Result<Self> {
        let conns = std::iter::repeat_with(connect).take(conns.max(1)).collect::<Result<_, _>>()?;
        Ok(MuxPool { conns, next: AtomicU64::new(0) })
    }

    /// Number of pooled connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether the pool holds no connections (never true after `open`).
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

    /// Sum of round trips across the pool.
    pub fn round_trips(&self) -> u64 {
        self.conns.iter().map(|c| c.round_trips()).sum()
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
