//! The multiplexed server reactor: one nonblocking thread, all connections.
//!
//! The server side of the node's one wire (DESIGN.md §12), over two socket
//! families: TCP connections from the listener, and the server ends of
//! local connections handed out by [`ReactorHandle::connect_local`] to
//! clients in the node's own process, adopted at the top of the next round.
//! A local connection is two one-way Unix-domain socketpairs
//! ([`LocalStream`]): the reactor reads requests from one and writes
//! replies to the other, so draining a request wakes nobody. Past adoption
//! nothing tells the families apart but the descriptor a reply is written
//! to. A single reactor thread owns every socket's *read* half: it accepts
//! nonblockingly, waits for readiness, decodes [`MuxFrame::Request`]s and
//! hands them to a [`MuxService`] (the runtime's gateway). The *write* half
//! of a connection — socket handle, unsent bytes, in-flight request IDs —
//! sits behind one per-connection lock ([`Outbound`]), because replies are
//! written by whoever completes them: a [`ReplySink`] encodes under that
//! lock and writes to the nonblocking socket from the calling thread. The
//! reactor hears about a reply only when the socket would not take all of
//! it (it then flushes the rest on `POLLOUT`) or the write failed (it then
//! retires the connection), so the common reply costs no thread hand-off.
//! Replies the reactor thread posts itself (a service answering inside the
//! request hook) wait for the end of that connection's read sweep.
//!
//! Lock order: the sink's connection table, then one connection's outbound
//! half; the table is never held while writing, and the reactor holds
//! neither across [`MuxService::on_sweep_run`], so a service may reply
//! from inside it.
//!
//! The loop blocks in `poll(2)` — called directly through the C runtime the
//! process already links, no crate needed — so ten thousand idle
//! connections cost zero CPU and a readable socket is served on the next
//! scheduler slice. Each connection is one `POLLIN` entry; a local one
//! whose sink left bytes over adds its reply descriptor for `POLLOUT`, and
//! a round sweeps a connection once, whichever of its entries woke it. A
//! sink that needs the reactor interrupts the poll through a socketpair: it
//! writes one byte when (and only when) the reactor is committed to
//! sleeping. `poll(2)` and the socketpairs make the module Unix-only.
//!
//! Hostile peers are shed per-connection, never per-server:
//! - an oversized or undecodable frame closes that connection;
//! - a request ID already in flight on the connection closes it (the demux
//!   contract is broken either way);
//! - a `Response` frame from a client closes it;
//! - a frame left incomplete longer than `frame_deadline` (slow loris)
//!   sheds the connection;
//! - an outbound backlog past `max_outbuf_bytes` (a peer that writes but
//!   never reads) sheds the connection.
//!
//! A listener whose `accept` fails (out of descriptors, say) keeps the
//! connection it could not take in its backlog, readable: the reactor
//! counts the failure and leaves the listener out of the next poll rather
//! than spin on it.

use super::frame::{encode_frame, FrameBuf, KEEP_BYTES};
use super::mux::LocalStream;
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply, MuxFrame};
use mtgpu_simtime::{lock_rank, RankedMutex, Shadow};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Readiness via `poll(2)`, bound straight from the C runtime (the process
/// links libc through std already; this adds no dependency).
mod sys {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until a descriptor is ready or `timeout_ms` passes. Returns
    /// the number of ready descriptors (0 on timeout or EINTR — callers
    /// rebuild the set each round, so a spurious empty return is safe).
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> usize {
        // SAFETY: `fds` is a valid, exclusively-borrowed pollfd slice and
        // poll(2) writes only within it.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

/// Wakes a reactor that has committed to sleeping: one byte down a
/// socketpair interrupts `poll(2)`. `sleeping` is the handshake that keeps
/// the byte off the hot path: sinks write only when the reactor is (or is
/// about to be) inside the wait.
struct ReactorWake {
    sleeping: AtomicBool,
    pipe: OnceLock<UnixStream>,
}

impl ReactorWake {
    /// Called by sinks that left work for the reactor: nudge it if it may
    /// be sleeping.
    fn notify(&self) {
        if self.sleeping.load(Ordering::SeqCst) {
            self.force();
        }
    }

    /// Unconditional nudge (shutdown path).
    fn force(&self) {
        if let Some(pipe) = self.pipe.get() {
            // WouldBlock means a wake byte is already pending: done.
            let _ = (&*pipe).write(&[1u8]);
        }
    }
}

/// Identifies one connection for the lifetime of its sink, counting from 1.
pub type ConnId = u64;

/// Calls of one read sweep a service may run on the reactor thread, and so
/// the longest run it may take there (two fit a launch's two frames;
/// EXPERIMENTS.md, *Run-to-completion on the reactor* and *A channel's
/// frames as one run*).
pub const SWEEP_RUN_BUDGET: usize = 4;

/// What the reactor calls into when frames arrive. Implemented by the
/// runtime's multiplex gateway; the request hooks run on the reactor thread,
/// never wait on another thread and may answer the calls before they return.
pub trait MuxService: Send + Sync {
    /// One decoded request. Replies go back through the [`ReplySink`].
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall);

    /// A run: consecutive requests of one channel decoded from one read, in
    /// arrival order, with the sweep's budget left. The service may run
    /// calls here while `*budget` > 0, taking one for each it runs.
    /// Default: [`Self::on_request`] per call, in order.
    fn on_sweep_run(&self, conn: ConnId, chan: u64, run: Vec<(u64, CudaCall)>, _: &mut usize) {
        for (id, call) in run {
            self.on_request(conn, chan, id, call);
        }
    }

    /// The connection closed (peer hangup, protocol violation or shed):
    /// tear down every context its channels own. Replies that complete
    /// for the connection from now on are dropped by the sink.
    fn on_disconnect(&self, conn: ConnId);

    /// A connection was accepted (diagnostic; default no-op).
    fn on_connect(&self, _conn: ConnId, _peer: &str) {}
}

#[derive(Debug, Clone, Copy)]
enum CloseReason {
    Peer,
    Protocol,
    SlowLoris,
    Backlog,
}

/// A served connection's nonblocking socket, of either family.
enum Sock {
    /// Accepted from the listener.
    Tcp(TcpStream),
    /// The server end of a [`ReactorHandle::connect_local`] connection:
    /// requests are read from `rx`, replies written to `tx`.
    Unix(LocalStream),
}

impl Sock {
    /// The descriptor requests are read from and the one replies are
    /// written to: the same socket over TCP.
    fn fds(&self) -> (RawFd, RawFd) {
        match self {
            Sock::Tcp(s) => (s.as_raw_fd(), s.as_raw_fd()),
            Sock::Unix(s) => (s.rx.as_raw_fd(), s.tx.as_raw_fd()),
        }
    }

    fn shutdown(&self) {
        use super::ByteStream;
        match self {
            Sock::Tcp(s) => ByteStream::shutdown(s),
            Sock::Unix(s) => ByteStream::shutdown(s),
        }
    }
}

impl Read for &Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => (&*s).read(buf),
            Sock::Unix(s) => (&s.rx).read(buf),
        }
    }
}

impl Write for &Sock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => (&*s).write(buf),
            Sock::Unix(s) => (&s.tx).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One connection's outbound half. Everything that puts bytes on the socket
/// — a sink on a worker thread, the reactor on `POLLOUT` — does so under
/// this lock, so frames never interleave and `outbuf` stays in wire order.
struct Outbound {
    /// The nonblocking socket. Shared with the reactor's read half, so the
    /// descriptor stays this connection's for as long as any sink can still
    /// reach this half — never a recycled one.
    stream: Arc<Sock>,
    /// Encoded-but-unsent outbound bytes (socket said would-block).
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written.
    out_sent: usize,
    /// Request IDs handed to the service and not yet replied.
    inflight: BTreeSet<u64>,
    /// The reactor thread while it is inside this connection's read sweep:
    /// replies it posts itself queue up and leave when the sweep ends, so a
    /// service that answers inside `on_request` costs one write per sweep.
    corked: Option<ThreadId>,
    /// Set when the connection is retired or a write failed; checked under
    /// the lock before every write, so a reply racing the retire is dropped.
    /// Shadowed so mtcheck sees every access ordered by the lock.
    closed: Shadow<bool>,
}

type OutHalf = Arc<RankedMutex<Outbound>>;

impl Outbound {
    /// Encodes one completed reply behind whatever is still unsent.
    fn push_reply(&mut self, id: u64, reply: CudaReply) {
        self.inflight.remove(&id);
        let frame = MuxFrame::Response { id, reply };
        if let Err(e) = encode_frame(&frame, &mut self.outbuf) {
            // A reply past the frame limit (an exported image, say) must
            // still answer its caller, or the caller waits forever.
            let refusal = MuxFrame::Response { id, reply: Err(CudaError::Protocol(e.to_string())) };
            let _ = encode_frame(&refusal, &mut self.outbuf);
        }
    }

    fn backlog(&self) -> usize {
        self.outbuf.len() - self.out_sent
    }

    /// Pushes buffered bytes as far as the socket allows; `Ok(true)` means
    /// nothing is left over.
    fn flush(&mut self, max_outbuf: usize) -> Result<bool, CloseReason> {
        while self.out_sent < self.outbuf.len() {
            match (&*self.stream).write(&self.outbuf[self.out_sent..]) {
                Ok(0) => return Err(CloseReason::Peer),
                Ok(n) => self.out_sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::Peer),
            }
        }
        if self.backlog() == 0 {
            self.outbuf.clear();
            if self.outbuf.capacity() > KEEP_BYTES {
                self.outbuf = Vec::new();
            }
            self.out_sent = 0;
            Ok(true)
        } else if self.backlog() > max_outbuf {
            Err(CloseReason::Backlog)
        } else {
            Ok(false)
        }
    }

    /// Marks the half dead and drops what it still held.
    fn close(&mut self) {
        *self.closed = true;
        self.outbuf = Vec::new();
        self.out_sent = 0;
        self.inflight.clear();
    }
}

/// What sinks and the reactor share: who is connected, and which
/// connections a sink left for the reactor to look at.
struct Table {
    conns: BTreeMap<ConnId, OutHalf>,
    /// Connections whose outbound half needs the reactor: `None` for bytes
    /// left over (watch for `POLLOUT`), a reason for one to retire.
    attention: Vec<(ConnId, Option<CloseReason>)>,
    /// Server ends of local connections the reactor has yet to adopt.
    local: Vec<LocalStream>,
}

struct Shared {
    table: RankedMutex<Table>,
    wake: ReactorWake,
    stats: ReactorStats,
    /// `ReactorConfig::max_outbuf_bytes` of the reactor this feeds.
    max_outbuf: AtomicUsize,
}

impl Shared {
    /// Registers a served connection's outbound half.
    fn attach(&self, conn: ConnId, stream: Arc<Sock>) -> OutHalf {
        let out = Arc::new(RankedMutex::new(
            lock_rank::CONN_OUT,
            Outbound {
                stream,
                outbuf: Vec::new(),
                out_sent: 0,
                inflight: BTreeSet::new(),
                corked: None,
                closed: Shadow::new("reactor.out.closed", false),
            },
        ));
        self.table.lock().conns.insert(conn, Arc::clone(&out));
        out
    }

    /// Retires a connection's outbound half: out of the table and closed
    /// first, so no sink can find or write to it, and only then the socket.
    fn detach(&self, conn: ConnId) {
        let removed = self.table.lock().conns.remove(&conn);
        if let Some(out) = removed {
            let mut out = out.lock();
            out.close();
            out.stream.shutdown();
        }
    }
}

/// Where completed replies go: straight onto their connection's socket, from
/// the thread that completed the call. Cloneable.
#[derive(Clone)]
pub struct ReplySink {
    shared: Arc<Shared>,
}

impl ReplySink {
    /// A sink and the handle that ties a reactor to it.
    pub fn channel() -> (ReplySink, ReplyQueue) {
        let shared = Arc::new(Shared {
            table: RankedMutex::new(
                lock_rank::REACTOR_CONNS,
                Table { conns: BTreeMap::new(), attention: Vec::new(), local: Vec::new() },
            ),
            wake: ReactorWake { sleeping: AtomicBool::new(false), pipe: OnceLock::new() },
            stats: ReactorStats::default(),
            max_outbuf: AtomicUsize::new(usize::MAX),
        });
        (ReplySink { shared: Arc::clone(&shared) }, ReplyQueue { shared })
    }

    /// The handle that ties a reactor to this sink, for a service that made
    /// its sink before a reactor was put in front of it. A sink feeds at
    /// most one reactor.
    pub fn queue(&self) -> ReplyQueue {
        ReplyQueue { shared: Arc::clone(&self.shared) }
    }

    /// Completes request `id` on connection `conn`.
    pub fn reply(&self, conn: ConnId, id: u64, reply: CudaReply) {
        self.reply_batch(conn, [(id, reply)]);
    }

    /// Completes several requests of one connection with one lock pass and
    /// (socket permitting) one write, in the order given. Replies for a
    /// connection that is gone are dropped.
    pub fn reply_batch(&self, conn: ConnId, replies: impl IntoIterator<Item = (u64, CudaReply)>) {
        let mut replies = replies.into_iter().peekable();
        if replies.peek().is_none() {
            return;
        }
        let shared = &*self.shared;
        // The table is held for the lookup only, never across the write.
        let Some(out) = shared.table.lock().conns.get(&conn).cloned() else { return };
        let need = {
            let mut out = out.lock();
            if *out.closed {
                return;
            }
            let max_outbuf = shared.max_outbuf.load(Ordering::Relaxed);
            let corked = out.corked.is_some_and(|reactor| reactor == std::thread::current().id());
            let backlogged = out.backlog() > 0 || corked;
            for (id, reply) in replies {
                out.push_reply(id, reply);
                shared.stats.replies.fetch_add(1, Ordering::Relaxed);
            }
            // With bytes already left over (or the half corked) the reactor
            // will send these behind them on POLLOUT (or at the end of its
            // sweep); only the bound is this thread's to check.
            let flushed = if !backlogged {
                out.flush(max_outbuf)
            } else if out.backlog() > max_outbuf {
                Err(CloseReason::Backlog)
            } else {
                return;
            };
            match flushed {
                Ok(true) => return,
                Ok(false) => None,
                Err(reason) => {
                    out.close();
                    Some(reason)
                }
            }
        };
        shared.table.lock().attention.push((conn, need));
        shared.wake.notify();
    }
}

/// Ties a reactor to the [`ReplySink`] its service replies through.
pub struct ReplyQueue {
    shared: Arc<Shared>,
}

impl ReplyQueue {
    /// Registers `stream` as connection `conn`'s outbound half, as the
    /// reactor does on accept. For tests and mtcheck scenarios that drive a
    /// sink without a reactor thread.
    #[doc(hidden)]
    pub fn attach(&self, conn: ConnId, stream: TcpStream) {
        self.shared.attach(conn, Arc::new(Sock::Tcp(stream)));
    }

    /// Retires connection `conn`'s outbound half, as the reactor does.
    #[doc(hidden)]
    pub fn detach(&self, conn: ConnId) {
        self.shared.detach(conn);
    }
}

/// Tunables for one reactor instance.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Shed a connection whose partial frame is older than this.
    pub frame_deadline: Duration,
    /// Shed a connection whose unsent outbound backlog exceeds this.
    pub max_outbuf_bytes: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { frame_deadline: Duration::from_secs(10), max_outbuf_bytes: 64 << 20 }
    }
}

/// Counters exported by a running reactor (all monotonic except `open`).
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Currently open connections, of both families.
    pub open: AtomicUsize,
    /// Connections accepted over the reactor's lifetime.
    pub accepted: AtomicU64,
    /// Local connections ([`ReactorHandle::connect_local`]) adopted over the
    /// reactor's lifetime.
    pub local: AtomicU64,
    /// `accept` calls that failed (out of descriptors, say); each leaves the
    /// listener out of one poll.
    pub accept_failures: AtomicU64,
    /// Requests (frames, not runs) decoded and handed to the service.
    pub requests: AtomicU64,
    /// Of those, the ones the service ran on the reactor thread itself: the
    /// sweep budget it spent ([`MuxService::on_sweep_run`]).
    pub ran_inline: AtomicU64,
    /// Replies encoded and queued outbound.
    pub replies: AtomicU64,
    /// Connections shed for an incomplete frame past the deadline.
    pub shed_slow: AtomicU64,
    /// Connections closed for a framing/protocol violation (oversized or
    /// undecodable frame, duplicate in-flight ID, client-sent response).
    pub protocol_errors: AtomicU64,
    /// Connections shed for unbounded outbound backlog.
    pub shed_backlog: AtomicU64,
}

/// Handle to a spawned reactor.
pub struct ReactorHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// The listener's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ReactorStats {
        &self.shared.stats
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> usize {
        self.shared.stats.open.load(Ordering::Relaxed)
    }

    /// A connection from the node's own process: the client end of a fresh
    /// pair of one-way Unix-domain socketpairs, for a
    /// [`super::MuxConnection`] to wrap. The reactor adopts the other end at
    /// the top of its next round and serves it as it serves an accepted
    /// one; until then requests wait in the socket. A stream the reactor
    /// never adopts closes when its loop ends, so a caller on it gets
    /// `Disconnected`, never a hang.
    pub fn connect_local(&self) -> std::io::Result<LocalStream> {
        let (client, server) = LocalStream::pair()?;
        server.set_nonblocking()?;
        self.shared.table.lock().local.push(server);
        self.shared.wake.notify();
        Ok(client)
    }

    /// Stops the reactor thread, closing every connection (each gets its
    /// `on_disconnect`). Dropping the handle does the same.
    pub fn shutdown(self) {}
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.shared.wake.force();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The reactor's own (read-side) state of one connection.
struct Conn {
    stream: Arc<Sock>,
    framebuf: FrameBuf,
    /// Timestamp of the oldest byte of the current partial frame.
    partial_since: Option<Instant>,
    out: OutHalf,
    /// A sink left bytes over: poll this connection for `POLLOUT` too.
    want_out: bool,
}

/// Spawns a reactor over `listener` serving `service`.
///
/// `queue` is the other half of the sink `service` replies through; create
/// both with [`ReplySink::channel`] before constructing the service.
pub fn spawn_reactor(
    listener: TcpListener,
    cfg: ReactorConfig,
    service: Arc<dyn MuxService>,
    queue: ReplyQueue,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = queue.shared;
    shared.max_outbuf.store(cfg.max_outbuf_bytes, Ordering::Relaxed);
    let stop = Arc::new(AtomicBool::new(false));
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let _ = shared.wake.pipe.set(wake_tx);
    let (thread_shared, thread_stop) = (Arc::clone(&shared), Arc::clone(&stop));
    let thread = std::thread::Builder::new()
        .name(format!("mux-reactor-{addr}"))
        .spawn(move || poll_loop(listener, wake_rx, cfg, service, &thread_shared, &thread_stop))?;
    Ok(ReactorHandle { addr, shared, stop, thread: Some(thread) })
}

/// Serves `sock` from now on as connection `*next_conn`, whichever family
/// it is.
fn register(
    conns: &mut BTreeMap<ConnId, Conn>,
    next_conn: &mut ConnId,
    sock: Sock,
    peer: &str,
    service: &dyn MuxService,
    shared: &Shared,
) {
    let id = *next_conn;
    *next_conn += 1;
    let stream = Arc::new(sock);
    let out = shared.attach(id, Arc::clone(&stream));
    conns.insert(
        id,
        Conn { stream, framebuf: FrameBuf::new(), partial_since: None, out, want_out: false },
    );
    shared.stats.open.store(conns.len(), Ordering::Relaxed);
    service.on_connect(id, peer);
}

/// Accepts every pending connection (until `accept` would block). False when
/// `accept` failed: the connection it could not take stays in the backlog,
/// so the listener stays readable and the caller leaves it out of the next
/// poll instead of spinning on it.
fn accept_ready(
    listener: &TcpListener,
    conns: &mut BTreeMap<ConnId, Conn>,
    next_conn: &mut ConnId,
    service: &dyn MuxService,
    shared: &Shared,
) -> bool {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {
                continue
            }
            Err(_) => {
                shared.stats.accept_failures.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        };
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue;
        }
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        register(conns, next_conn, Sock::Tcp(stream), &peer.to_string(), service, shared);
    }
}

/// Reads until the socket has no more — a read came back short of the room
/// it was offered, or would block; the poll is level-triggered, so whatever
/// arrives later is reported again — dispatching every complete frame, then
/// writes what `conn` is owed: bytes an earlier write left over and the
/// replies posted for it meanwhile.
fn sweep_conn(
    id: ConnId,
    conn: &mut Conn,
    service: &dyn MuxService,
    stats: &ReactorStats,
    max_outbuf: usize,
) -> Result<(), CloseReason> {
    conn.out.lock().corked = Some(std::thread::current().id());
    let mut budget = SWEEP_RUN_BUDGET;
    let swept = loop {
        match conn.framebuf.read_from(&mut &*conn.stream) {
            Ok(0) => break Err(CloseReason::Peer),
            Ok(_) => {
                if let Some(reason) = drain_frames(id, conn, service, stats, &mut budget) {
                    break Err(reason);
                }
                if conn.framebuf.read_short() {
                    break Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break Err(CloseReason::Peer),
        }
    };
    stats.ran_inline.fetch_add((SWEEP_RUN_BUDGET - budget) as u64, Ordering::Relaxed);
    let mut out = conn.out.lock();
    out.corked = None;
    if swept.is_ok() && !*out.closed {
        conn.want_out = !out.flush(max_outbuf)?;
    }
    swept
}

/// Re-arms or clears the partial-frame stopwatch after I/O on `conn`,
/// keeping `partials` the count of connections that hold a partial frame.
fn update_partial(conn: &mut Conn, partials: &mut usize) {
    if conn.framebuf.has_partial() {
        if conn.partial_since.is_none() {
            // mtlint: allow(wall-clock, reason = "slow-loris shedding deadline is a real network-I/O timeout, not simulated control flow")
            conn.partial_since = Some(Instant::now());
            *partials += 1;
        }
    } else if conn.partial_since.take().is_some() {
        *partials -= 1;
    }
}

/// Removes every queued-for-close connection, updating stats and telling
/// the service.
fn retire(
    conns: &mut BTreeMap<ConnId, Conn>,
    closed: &mut Vec<(ConnId, CloseReason)>,
    partials: &mut usize,
    service: &dyn MuxService,
    shared: &Shared,
) {
    for (id, reason) in closed.drain(..) {
        if let Some(conn) = conns.remove(&id) {
            if conn.partial_since.is_some() {
                *partials -= 1;
            }
            let stats = &shared.stats;
            let counter = match reason {
                CloseReason::Peer => None,
                CloseReason::Protocol => Some(&stats.protocol_errors),
                CloseReason::SlowLoris => Some(&stats.shed_slow),
                CloseReason::Backlog => Some(&stats.shed_backlog),
            };
            if let Some(counter) = counter {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            // Counted out before the peer can see the socket close.
            stats.open.store(conns.len(), Ordering::Relaxed);
            shared.detach(id);
            service.on_disconnect(id);
        }
    }
}

/// The `poll(2)` reactor: sleeps in the kernel until a socket is ready or
/// a sink's wake byte arrives. Per-connection cost is one pollfd entry,
/// so ten thousand idle connections burn no CPU at all.
fn poll_loop(
    listener: TcpListener,
    wake_rx: UnixStream,
    cfg: ReactorConfig,
    service: Arc<dyn MuxService>,
    shared: &Shared,
    stop: &AtomicBool,
) {
    use sys::{PollFd, POLLIN, POLLOUT};

    let stats = &shared.stats;
    let mut conns: BTreeMap<ConnId, Conn> = BTreeMap::new();
    let mut next_conn: ConnId = 1;
    let mut closed: Vec<(ConnId, CloseReason)> = Vec::new();
    let mut attention: Vec<(ConnId, Option<CloseReason>)> = Vec::new();
    let mut local: Vec<LocalStream> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<ConnId> = Vec::new();
    let mut partials: usize = 0;
    let mut listening = true;

    while !stop.load(Ordering::SeqCst) {
        // --- what sinks and local connects left for us --------------------
        // Arm the wake flag BEFORE taking the lists: a sink posting after
        // the take sees the flag and writes the byte that makes the poll
        // below return immediately.
        shared.wake.sleeping.store(true, Ordering::SeqCst);
        {
            let mut table = shared.table.lock();
            std::mem::swap(&mut attention, &mut table.attention);
            std::mem::swap(&mut local, &mut table.local);
        }
        for stream in local.drain(..) {
            stats.local.fetch_add(1, Ordering::Relaxed);
            let sock = Sock::Unix(stream);
            register(&mut conns, &mut next_conn, sock, "local", service.as_ref(), shared);
        }
        for (id, need) in attention.drain(..) {
            match need {
                Some(reason) => closed.push((id, reason)),
                None => {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.want_out = true;
                    }
                }
            }
        }

        // --- build the poll set: listener, wake pipe, every connection ---
        // After a failed accept the listener sits this round out (poll
        // skips a negative descriptor), or its backlog would wake us at
        // once, forever. A connection owed bytes is watched for POLLOUT on
        // its reply descriptor, a second entry for a local one.
        fds.clear();
        ids.clear();
        let listener_fd = if listening { listener.as_raw_fd() } else { -1 };
        fds.push(PollFd { fd: listener_fd, events: POLLIN, revents: 0 });
        fds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        for (&id, conn) in conns.iter() {
            let (rx, tx) = conn.stream.fds();
            let shared_fd = conn.want_out && rx == tx;
            let events = if shared_fd { POLLIN | POLLOUT } else { POLLIN };
            fds.push(PollFd { fd: rx, events, revents: 0 });
            ids.push(id);
            if conn.want_out && !shared_fd {
                fds.push(PollFd { fd: tx, events: POLLOUT, revents: 0 });
                ids.push(id);
            }
        }

        // --- sleep until readiness, a wake byte, or the loris tick -------
        let tick: i32 = if partials > 0 {
            (cfg.frame_deadline.as_millis() / 4).clamp(1, 50) as i32
        } else {
            500
        };
        let timeout = if !stop.load(Ordering::SeqCst) && closed.is_empty() { tick } else { 0 };
        sys::wait(&mut fds, timeout);
        shared.wake.sleeping.store(false, Ordering::SeqCst);

        // --- clear the wake pipe -----------------------------------------
        if fds[1].revents != 0 {
            let mut wakes = [0u8; 64];
            while let Ok(n) = (&wake_rx).read(&mut wakes) {
                if n < wakes.len() {
                    break;
                }
            }
        }

        listening = fds[0].revents == 0
            || accept_ready(&listener, &mut conns, &mut next_conn, service.as_ref(), shared);

        // --- serve ready connections, each once ----------------------------
        // A connection's two entries sit side by side in `ids`.
        let mut swept = None;
        for (i, &id) in ids.iter().enumerate() {
            if fds[i + 2].revents == 0 || swept == Some(id) {
                continue;
            }
            swept = Some(id);
            let Some(conn) = conns.get_mut(&id) else { continue };
            // Readable, writable or hung up: one sweep reads what is there
            // and writes what is owed.
            match sweep_conn(id, conn, service.as_ref(), stats, cfg.max_outbuf_bytes) {
                Ok(()) => update_partial(conn, &mut partials),
                Err(reason) => closed.push((id, reason)),
            }
        }

        // --- shed connections whose partial frame outlived the deadline ----
        if partials > 0 {
            for (&id, conn) in conns.iter() {
                if conn.partial_since.is_some_and(|t| t.elapsed() > cfg.frame_deadline) {
                    closed.push((id, CloseReason::SlowLoris));
                }
            }
        }
        retire(&mut conns, &mut closed, &mut partials, service.as_ref(), shared);
    }

    // Shutdown: close every connection and notify the service; a local
    // stream never adopted closes here, so its client sees the hang-up.
    for (id, _conn) in std::mem::take(&mut conns) {
        shared.detach(id);
        service.on_disconnect(id);
    }
    drop(std::mem::take(&mut shared.table.lock().local));
    stats.open.store(0, Ordering::Relaxed);
}

/// Decodes every complete frame buffered on `conn` and hands the requests
/// to the service as runs: a run ends where the channel changes, or before
/// a frame whose ID is still in flight, so the service may answer the
/// earlier one first. A frame whose ID is in flight even then breaks the
/// demux contract: the connection is shed, the service having seen every
/// request before that frame and none from it on. Returns a close reason on
/// a protocol violation.
fn drain_frames(
    id: ConnId,
    conn: &mut Conn,
    service: &dyn MuxService,
    stats: &ReactorStats,
    budget: &mut usize,
) -> Option<CloseReason> {
    let mut run: Vec<(u64, CudaCall)> = Vec::new();
    let mut run_chan = 0;
    let violation = loop {
        match conn.framebuf.next_frame::<MuxFrame>() {
            Ok(Some(MuxFrame::Request { chan, id: req_id, call })) => {
                // The out lock covers the ID set only: the service may
                // reply from inside the hook, which takes it again.
                let mut fresh = conn.out.lock().inflight.insert(req_id);
                if !run.is_empty() && (chan != run_chan || !fresh) {
                    service.on_sweep_run(id, run_chan, std::mem::take(&mut run), budget);
                    fresh = fresh || conn.out.lock().inflight.insert(req_id);
                }
                if !fresh {
                    // Duplicate in-flight request ID: shed the connection
                    // before the two replies race for one ID.
                    break Some(CloseReason::Protocol);
                }
                stats.requests.fetch_add(1, Ordering::Relaxed);
                run_chan = chan;
                run.push((req_id, call));
            }
            // Clients do not answer; a "response" here is hostile.
            Ok(Some(MuxFrame::Response { .. })) | Err(_) => break Some(CloseReason::Protocol),
            Ok(None) => break None,
        }
    };
    if !run.is_empty() {
        service.on_sweep_run(id, run_chan, run, budget);
    }
    violation
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplyValue;
    use crate::transport::{Transport, MAX_FRAME_BYTES};
    use crate::HostBuf;
    use mtgpu_gpusim::DeviceAddr;
    use std::net::Shutdown;

    /// Replies `DeviceCount(chan)` to every request, immediately, from the
    /// reactor thread itself (exercises the sink → outbuf path).
    struct Echo {
        sink: ReplySink,
    }

    impl MuxService for Echo {
        fn on_request(&self, conn: ConnId, chan: u64, id: u64, _call: CudaCall) {
            self.sink.reply(conn, id, Ok(ReplyValue::DeviceCount(chan as u32)));
        }
        fn on_disconnect(&self, _conn: ConnId) {}
    }

    fn spawn_echo(cfg: ReactorConfig) -> ReactorHandle {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sink, queue) = ReplySink::channel();
        spawn_reactor(listener, cfg, Arc::new(Echo { sink }), queue).unwrap()
    }

    #[test]
    fn many_channels_share_one_connection() {
        let reactor = spawn_echo(ReactorConfig::default());
        let conn = super::super::mux::MuxConnection::connect(reactor.addr()).unwrap();
        let mut chans: Vec<_> = (0..8).map(|_| conn.channel()).collect();
        for (i, ch) in chans.iter_mut().enumerate() {
            let chan = ch.chan() as u32;
            assert_eq!(ch.roundtrip(CudaCall::Synchronize), Ok(ReplyValue::DeviceCount(chan)));
            let _ = i;
        }
        assert_eq!(reactor.stats().requests.load(Ordering::Relaxed), 8);
        assert_eq!(reactor.open_connections(), 1);
        reactor.shutdown();
    }

    #[test]
    fn batch_pipelines_over_one_write() {
        let reactor = spawn_echo(ReactorConfig::default());
        let mut ch = super::super::mux::MuxConnection::connect(reactor.addr()).unwrap().channel();
        let chan = ch.chan() as u32;
        let replies = ch.roundtrip_batch(vec![
            CudaCall::Synchronize,
            CudaCall::GetDeviceCount,
            CudaCall::Synchronize,
        ]);
        assert_eq!(replies.len(), 3);
        for r in replies {
            assert_eq!(r, Ok(ReplyValue::DeviceCount(chan)));
        }
        reactor.shutdown();
    }

    /// Replies like [`Echo`] and checks, by peeking at the peer's end, that the
    /// reply waits for the end of the sweep, and that one posted meanwhile by
    /// another thread (ID [`FOREIGN`], before the first echo) does not.
    struct PeekingEcho {
        sink: ReplySink,
        peer: TcpStream,
    }

    const FOREIGN: u64 = u64::MAX;

    impl MuxService for PeekingEcho {
        fn on_request(&self, conn: ConnId, chan: u64, id: u64, _call: CudaCall) {
            let mut foreign = Vec::new();
            let frame = MuxFrame::Response { id: FOREIGN, reply: Ok(ReplyValue::Unit) };
            encode_frame(&frame, &mut foreign).unwrap();
            let mut seen = [0u8; 256];
            if id == 0 {
                let sink = self.sink.clone();
                let worker = move || sink.reply(conn, FOREIGN, Ok(ReplyValue::Unit));
                std::thread::spawn(worker).join().unwrap();
                let deadline = Instant::now() + WATCHDOG;
                while self.peer.peek(&mut seen).unwrap_or(0) < foreign.len() {
                    assert!(Instant::now() < deadline, "another thread's reply was held back");
                    std::thread::yield_now();
                }
            }
            self.sink.reply(conn, id, Ok(ReplyValue::DeviceCount(chan as u32)));
            let visible = self.peer.peek(&mut seen).unwrap();
            assert_eq!(visible, foreign.len(), "the reactor thread's reply left mid-sweep");
        }
        fn on_disconnect(&self, _conn: ConnId) {}
    }

    #[test]
    fn replies_posted_during_a_read_sweep_go_out_when_it_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let stream = listener.accept().unwrap().0;
        stream.set_nonblocking(true).unwrap();
        let stream = Arc::new(Sock::Tcp(stream));
        let (sink, queue) = ReplySink::channel();
        let out = queue.shared.attach(1, Arc::clone(&stream));
        let mut conn =
            Conn { stream, framebuf: FrameBuf::new(), partial_since: None, out, want_out: false };
        let mut burst = Vec::new();
        for id in 0..3 {
            let request = MuxFrame::Request { chan: 7, id, call: CudaCall::Synchronize };
            encode_frame(&request, &mut burst).unwrap();
        }
        peer.write_all(&burst).unwrap();
        peer.set_nonblocking(true).unwrap();
        let service = PeekingEcho { sink, peer: peer.try_clone().unwrap() };
        // Loopback delivery is not instantaneous: sweep until all three are in.
        while queue.shared.stats.requests.load(Ordering::Relaxed) < 3 {
            sweep_conn(1, &mut conn, &service, &queue.shared.stats, usize::MAX).unwrap();
        }
        assert!(!conn.want_out && conn.out.lock().backlog() == 0);
        peer.set_nonblocking(false).unwrap();
        let mut framebuf = FrameBuf::new();
        let mut ids = Vec::new();
        while ids.len() < 4 {
            assert_ne!(framebuf.read_from(&mut peer).unwrap(), 0);
            while let Some(frame) = framebuf.next_frame::<MuxFrame>().unwrap() {
                let MuxFrame::Response { id, reply } = frame else { panic!("not a response") };
                let want =
                    if id == FOREIGN { ReplyValue::Unit } else { ReplyValue::DeviceCount(7) };
                assert_eq!(reply, Ok(want));
                ids.push(id);
            }
        }
        assert_eq!(ids, [FOREIGN, 0, 1, 2]);
    }

    /// Runs as a service saw them: (chan, request IDs) each.
    type Runs = Vec<(u64, Vec<u64>)>;

    /// Records every run it is handed; answers each call from inside the
    /// hook only if `answer` is set.
    struct Recording {
        sink: ReplySink,
        answer: bool,
        runs: std::sync::Mutex<Runs>,
    }

    impl MuxService for Recording {
        fn on_request(&self, _: ConnId, _: u64, _: u64, _: CudaCall) {
            unreachable!("the reactor hands over runs");
        }
        fn on_sweep_run(&self, conn: ConnId, chan: u64, run: Vec<(u64, CudaCall)>, _: &mut usize) {
            let ids: Vec<u64> = run.iter().map(|(id, _)| *id).collect();
            if self.answer {
                self.sink.reply_batch(conn, ids.iter().map(|id| (*id, Ok(ReplyValue::Unit))));
            }
            self.runs.lock().unwrap().push((chan, ids));
        }
        fn on_disconnect(&self, _conn: ConnId) {}
    }

    fn request(chan: u64, id: u64) -> MuxFrame {
        MuxFrame::Request { chan, id, call: CudaCall::Synchronize }
    }

    /// Writes `frames` to a fresh local connection in one write and sweeps
    /// the server end once: the runs a [`Recording`] service saw, the
    /// sweep's verdict and the requests it counted.
    fn sweep_frames(frames: &[MuxFrame], answer: bool) -> (Runs, Result<(), CloseReason>, u64) {
        let (stream, mut peer) = LocalStream::pair().unwrap();
        stream.set_nonblocking().unwrap();
        let stream = Arc::new(Sock::Unix(stream));
        let (sink, queue) = ReplySink::channel();
        let out = queue.shared.attach(1, Arc::clone(&stream));
        let mut conn =
            Conn { stream, framebuf: FrameBuf::new(), partial_since: None, out, want_out: false };
        let mut burst = Vec::new();
        for frame in frames {
            encode_frame(frame, &mut burst).unwrap();
        }
        peer.write_all(&burst).unwrap();
        let service = Recording { sink, answer, runs: Default::default() };
        let swept = sweep_conn(1, &mut conn, &service, &queue.shared.stats, usize::MAX);
        let requests = queue.shared.stats.requests.load(Ordering::Relaxed);
        (service.runs.into_inner().unwrap(), swept.map(|_| ()), requests)
    }

    #[test]
    fn one_read_reaches_the_service_as_one_run_per_stretch_of_a_channel() {
        const A: u64 = 3;
        const B: u64 = 9;
        let frames = [request(A, 1), request(A, 2), request(B, 3), request(A, 4)];
        let (runs, swept, requests) = sweep_frames(&frames, false);
        assert!(swept.is_ok());
        assert_eq!(runs, [(A, vec![1, 2]), (B, vec![3]), (A, vec![4])]);
        // Frames, not runs.
        assert_eq!(requests, 4);
    }

    #[test]
    fn a_duplicate_id_inside_a_run_sheds_the_connection_after_the_calls_before_it() {
        let frames = [request(5, 1), request(5, 2), request(5, 1), request(5, 3)];
        // Still in flight: the service saw the run up to the duplicate, and
        // nothing from the duplicate on.
        let (runs, swept, requests) = sweep_frames(&frames, false);
        assert!(matches!(swept, Err(CloseReason::Protocol)), "{swept:?}");
        assert_eq!((runs, requests), (vec![(5, vec![1, 2])], 2));
        // Answered once the run before it is handed over: the ID is free
        // again and the frame starts the next run.
        let (runs, swept, requests) = sweep_frames(&frames, true);
        assert!(swept.is_ok());
        assert_eq!((runs, requests), (vec![(5, vec![1, 2]), (5, vec![1, 3])], 4));
        // Any other violation sheds the same way: the run before it is seen.
        let response = MuxFrame::Response { id: 9, reply: Ok(ReplyValue::Unit) };
        let (runs, swept, _) = sweep_frames(&[request(5, 1), request(5, 2), response], false);
        assert!(matches!(swept, Err(CloseReason::Protocol)), "{swept:?}");
        assert_eq!(runs, [(5, vec![1, 2])]);
    }

    #[test]
    fn a_drained_outbuf_keeps_a_bulk_reply_but_not_a_big_one() {
        let (stream, mut peer) = LocalStream::pair().unwrap();
        stream.set_nonblocking().unwrap();
        let (_sink, queue) = ReplySink::channel();
        let out = queue.shared.attach(1, Arc::new(Sock::Unix(stream)));
        let reader = std::thread::spawn(move || std::io::copy(&mut peer, &mut std::io::sink()));
        let reply = |len: usize| Ok(ReplyValue::Bytes(HostBuf::from_slice(&vec![7; len])));
        let drain = |len: usize| {
            let mut out = out.lock();
            out.push_reply(0, reply(len));
            while !out.flush(usize::MAX).unwrap() {
                std::thread::yield_now();
            }
            (out.outbuf.as_ptr(), out.outbuf.capacity())
        };
        // A 32 KiB reply (one `bulk_copy` download) keeps its buffer.
        let (ptr, capacity) = drain(32 << 10);
        assert!(capacity >= 32 << 10);
        assert_eq!(drain(32 << 10), (ptr, capacity));
        // A 4 MiB one gives its memory back once it is on the wire.
        assert!(drain(4 << 20).1 <= KEEP_BYTES);
        queue.shared.detach(1);
        reader.join().unwrap().unwrap();
    }

    /// Answers `MemcpyD2H` with one byte more than a frame may carry, and
    /// anything else like [`Echo`].
    struct Oversharer {
        sink: ReplySink,
    }

    impl MuxService for Oversharer {
        fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall) {
            let value = match call {
                CudaCall::MemcpyD2H { .. } => ReplyValue::Bytes(HostBuf {
                    declared_len: 1 << 40,
                    payload: vec![0u8; MAX_FRAME_BYTES + 1],
                    content_hash: None,
                }),
                _ => ReplyValue::DeviceCount(chan as u32),
            };
            self.sink.reply(conn, id, Ok(value));
        }
        fn on_disconnect(&self, _conn: ConnId) {}
    }

    #[test]
    fn oversized_reply_reaches_its_caller_as_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sink, queue) = ReplySink::channel();
        let service = Arc::new(Oversharer { sink });
        let reactor = spawn_reactor(listener, ReactorConfig::default(), service, queue).unwrap();
        let conn = super::super::mux::MuxConnection::connect(reactor.addr()).unwrap();
        let mut ch = conn.channel();
        let mut sibling = conn.channel();
        let chan = ch.chan() as u32;

        let big = CudaCall::MemcpyD2H { src: DeviceAddr(0), len: 1 << 40 };
        match ch.roundtrip(big) {
            Err(CudaError::Protocol(why)) => assert!(why.contains("limit"), "{why}"),
            other => panic!("oversized reply surfaced as {other:?}"),
        }
        // Answered, counted, and nothing shed: the same channel and its
        // sibling keep working over the same connection.
        assert_eq!(ch.roundtrip(CudaCall::Synchronize), Ok(ReplyValue::DeviceCount(chan)));
        assert!(sibling.roundtrip(CudaCall::Synchronize).is_ok());
        assert_eq!(reactor.open_connections(), 1);
        assert_eq!(reactor.stats().replies.load(Ordering::Relaxed), 3);
        assert_eq!(reactor.stats().protocol_errors.load(Ordering::Relaxed), 0);
        reactor.shutdown();
    }

    /// Never answers by itself: hands each accepted connection's ID to the
    /// test, which then replies through its own clone of the sink.
    struct Silent {
        connected: std::sync::Mutex<std::sync::mpsc::Sender<ConnId>>,
    }

    impl MuxService for Silent {
        fn on_request(&self, _conn: ConnId, _chan: u64, _id: u64, _call: CudaCall) {}
        fn on_disconnect(&self, _conn: ConnId) {}
        fn on_connect(&self, conn: ConnId, _peer: &str) {
            let _ = self.connected.lock().unwrap().send(conn);
        }
    }

    fn spawn_silent(
        cfg: ReactorConfig,
    ) -> (ReactorHandle, ReplySink, std::sync::mpsc::Receiver<ConnId>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sink, queue) = ReplySink::channel();
        let (tx, connected) = std::sync::mpsc::channel();
        let service = Arc::new(Silent { connected: std::sync::Mutex::new(tx) });
        (spawn_reactor(listener, cfg, service, queue).unwrap(), sink, connected)
    }

    const WATCHDOG: Duration = Duration::from_secs(30);

    fn bytes_reply(len: usize, fill: u8) -> CudaReply {
        Ok(ReplyValue::Bytes(HostBuf {
            declared_len: len as u64,
            payload: vec![fill; len],
            content_hash: None,
        }))
    }

    /// Reads response frames off a raw client socket until `want` arrived.
    fn read_responses(stream: &mut TcpStream, want: usize) -> Vec<(u64, CudaReply)> {
        stream.set_read_timeout(Some(WATCHDOG)).unwrap();
        let mut framebuf = FrameBuf::new();
        let mut got = Vec::new();
        while got.len() < want {
            assert_ne!(framebuf.read_from(stream).expect("reply bytes"), 0, "early EOF");
            while let Some(frame) = framebuf.next_frame::<MuxFrame>().expect("frame decodes") {
                match frame {
                    MuxFrame::Response { id, reply } => got.push((id, reply)),
                    MuxFrame::Request { .. } => panic!("server sent a request"),
                }
            }
        }
        got
    }

    #[test]
    fn concurrent_writers_never_tear_a_frame_and_pollout_finishes_the_job() {
        const WRITERS: u64 = 8;
        const BATCHES: u64 = 8;
        const PER_BATCH: u64 = 4;
        const PAYLOAD: usize = 96 << 10;
        let (reactor, sink, connected) = spawn_silent(ReactorConfig::default());
        let mut client = TcpStream::connect(reactor.addr()).unwrap();
        let conn = connected.recv_timeout(WATCHDOG).unwrap();

        // 24 MiB against a peer that reads nothing yet: far past what the
        // loopback socket buffers hold, well under `max_outbuf_bytes`.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for b in 0..BATCHES {
                        let base = (w * BATCHES + b) * PER_BATCH;
                        sink.reply_batch(
                            conn,
                            (base..base + PER_BATCH).map(|id| (id, bytes_reply(PAYLOAD, id as u8))),
                        );
                    }
                })
            })
            .collect();
        writers.into_iter().for_each(|t| t.join().unwrap());
        let total = WRITERS * BATCHES * PER_BATCH;
        assert_eq!(reactor.stats().replies.load(Ordering::Relaxed), total);
        // Every writer is done and bytes are still unsent, so from here on
        // only the reactor's POLLOUT path can deliver them.
        let Some(out) = sink.shared.table.lock().conns.get(&conn).cloned() else {
            panic!("connection {conn} has no outbound half")
        };
        assert!(out.lock().backlog() > 0, "the socket took 24 MiB without a reader");

        let got = read_responses(&mut client, total as usize);
        let mut ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<_>>(), "every ID exactly once");
        for (id, reply) in &got {
            match reply {
                Ok(ReplyValue::Bytes(buf)) => {
                    assert_eq!(buf.payload.len(), PAYLOAD);
                    assert!(buf.payload.iter().all(|b| *b == *id as u8), "payload of {id} torn");
                }
                other => panic!("reply {id} decoded as {other:?}"),
            }
        }
        // One batch stays together and in order on the wire.
        for batch in got.chunks(PER_BATCH as usize) {
            let first = batch[0].0;
            assert_eq!(first % PER_BATCH, 0);
            assert!(batch.iter().map(|(id, _)| *id).eq(first..first + PER_BATCH));
        }
        assert_eq!(out.lock().backlog(), 0);
        assert_eq!(reactor.open_connections(), 1);
        reactor.shutdown();
    }

    #[test]
    fn peer_that_never_reads_is_shed_at_the_backlog_bound_and_siblings_keep_serving() {
        let cfg = ReactorConfig { max_outbuf_bytes: 1 << 20, ..ReactorConfig::default() };
        let (reactor, sink, connected) = spawn_silent(cfg);
        let _deaf = TcpStream::connect(reactor.addr()).unwrap();
        let deaf = connected.recv_timeout(WATCHDOG).unwrap();
        let mut sibling = TcpStream::connect(reactor.addr()).unwrap();
        let sibling_conn = connected.recv_timeout(WATCHDOG).unwrap();

        // At most 64 MiB offered: socket buffers plus the 1 MiB bound are
        // passed long before.
        for id in 0..256 {
            sink.reply(deaf, id, bytes_reply(256 << 10, 0));
            let Some(out) = sink.shared.table.lock().conns.get(&deaf).cloned() else { break };
            if *out.lock().closed {
                break;
            }
        }
        let deadline = Instant::now() + WATCHDOG;
        while reactor.stats().shed_backlog.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "backlogged peer was never shed");
            std::thread::yield_now();
        }
        assert_eq!(reactor.stats().shed_backlog.load(Ordering::Relaxed), 1);
        assert_eq!(reactor.open_connections(), 1);
        // Replies to the shed connection are dropped, not buffered.
        let before = reactor.stats().replies.load(Ordering::Relaxed);
        sink.reply(deaf, 999, Ok(ReplyValue::Unit));
        assert_eq!(reactor.stats().replies.load(Ordering::Relaxed), before);

        sink.reply(sibling_conn, 5, Ok(ReplyValue::DeviceCount(3)));
        assert_eq!(read_responses(&mut sibling, 1), [(5, Ok(ReplyValue::DeviceCount(3)))]);
        reactor.shutdown();
    }

    #[test]
    fn reply_racing_a_disconnect_is_dropped_and_never_lands_elsewhere() {
        const ROUNDS: u64 = 10_000;
        let (reactor, sink, connected) = spawn_silent(ReactorConfig::default());
        // The replier answers every connection with that connection's own
        // ID, twice, as soon as it hears of it — while the client is busy
        // hanging up. Server-side descriptors are recycled every round, so
        // a write through a stale one would show up on a later connection
        // as a frame carrying somebody else's ID.
        let (to_replier, conns) = std::sync::mpsc::channel::<ConnId>();
        let replier = std::thread::spawn(move || {
            for conn in conns {
                sink.reply(conn, conn, Ok(ReplyValue::Unit));
                sink.reply_batch(conn, [(conn, Ok(ReplyValue::Unit)), (conn, bytes_reply(512, 7))]);
            }
        });
        for round in 0..ROUNDS {
            let mut client = TcpStream::connect(reactor.addr()).unwrap();
            let conn = connected.recv_timeout(WATCHDOG).unwrap();
            to_replier.send(conn).unwrap();
            // Every third client lingers for a frame, so replies land on
            // live, closing and closed connections alike.
            if round % 3 == 0 {
                client.set_nonblocking(round % 2 == 0).unwrap();
                let mut framebuf = FrameBuf::new();
                if framebuf.read_from(&mut client).is_ok() {
                    while let Ok(Some(frame)) = framebuf.next_frame::<MuxFrame>() {
                        match frame {
                            MuxFrame::Response { id, .. } => assert_eq!(id, conn, "stray write"),
                            MuxFrame::Request { .. } => panic!("server sent a request"),
                        }
                    }
                }
            }
            let _ = client.shutdown(Shutdown::Both);
        }
        drop(to_replier);
        replier.join().unwrap();
        let deadline = Instant::now() + WATCHDOG;
        while reactor.open_connections() != 0 {
            assert!(Instant::now() < deadline, "closed clients were never retired");
            std::thread::yield_now();
        }
        assert_eq!(reactor.stats().accepted.load(Ordering::Relaxed), ROUNDS);
        assert_eq!(reactor.stats().protocol_errors.load(Ordering::Relaxed), 0);
        reactor.shutdown();
    }

    #[test]
    fn reactor_shutdown_disconnects_clients() {
        let reactor = spawn_echo(ReactorConfig::default());
        let conn = super::super::mux::MuxConnection::connect(reactor.addr()).unwrap();
        let mut ch = conn.channel();
        assert!(ch.roundtrip(CudaCall::Synchronize).is_ok());
        reactor.shutdown();
        // The socket is gone; the next roundtrip must fail fast, not hang.
        assert_eq!(ch.roundtrip(CudaCall::Synchronize), Err(CudaError::Disconnected));
    }
}
