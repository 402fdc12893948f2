//! The multiplexed server reactor: one nonblocking thread, all connections.
//!
//! Replaces thread-per-connection for multiplexed peers (DESIGN.md §12).
//! A single reactor thread owns every socket: it accepts nonblockingly,
//! waits for readiness, decodes [`MuxFrame::Request`]s and hands them to a
//! [`MuxService`] (the runtime's gateway), and is the *only* writer —
//! workers complete replies through a [`ReplySink`] and the reactor encodes
//! and ships them, stashing what the socket will not take yet. No reactor
//! state is shared with workers except the sink channel (and its wake
//! pipe), so the loop needs no locks of its own.
//!
//! On Unix the loop blocks in `poll(2)` — called directly through the C
//! runtime the process already links, no crate needed — so ten thousand
//! idle connections cost zero CPU and a readable socket is served on the
//! next scheduler slice. Worker completions interrupt the poll through a
//! socketpair: the sink writes one byte when (and only when) the reactor
//! is committed to sleeping. Elsewhere a sweep loop with exponential idle
//! backoff stands in.
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

use super::frame::{encode_frame, FrameBuf};
#[cfg(test)]
use super::mux::MuxChannel;
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply, MuxFrame};
#[cfg(not(unix))]
use crossbeam::channel::RecvTimeoutError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Readiness via `poll(2)`, bound straight from the C runtime (the process
/// links libc through std already; this adds no dependency).
#[cfg(unix)]
mod sys {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

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

/// Wakes a reactor that has committed to sleeping. On Unix one byte down a
/// socketpair interrupts `poll(2)`; the sweep fallback parks on the reply
/// queue itself and needs no pipe. `sleeping` is the handshake that keeps
/// the byte off the hot path: senders write only when the reactor is (or
/// is about to be) inside the wait.
struct ReactorWake {
    sleeping: AtomicBool,
    #[cfg(unix)]
    pipe: OnceLock<std::os::unix::net::UnixStream>,
    #[cfg(not(unix))]
    _pipe: (),
}

impl ReactorWake {
    fn new() -> Self {
        ReactorWake {
            sleeping: AtomicBool::new(false),
            #[cfg(unix)]
            pipe: OnceLock::new(),
            #[cfg(not(unix))]
            _pipe: (),
        }
    }

    /// Called by reply senders: nudge the reactor if it may be sleeping.
    fn notify(&self) {
        if self.sleeping.load(Ordering::SeqCst) {
            self.force();
        }
    }

    /// Unconditional nudge (shutdown path).
    fn force(&self) {
        #[cfg(unix)]
        if let Some(pipe) = self.pipe.get() {
            // WouldBlock means a wake byte is already pending: done.
            let _ = (&*pipe).write(&[1u8]);
        }
    }
}

/// Identifies one accepted connection for the lifetime of the reactor.
pub type ConnId = u64;

/// What the reactor calls into when frames arrive. Implemented by the
/// runtime's multiplex gateway; `on_request` runs on the reactor thread and
/// must not block (it enqueues and returns).
pub trait MuxService: Send + Sync {
    /// One decoded request. Replies go back through the [`ReplySink`].
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall);

    /// The connection closed (peer hangup, protocol violation or shed):
    /// tear down every context its channels own. In-flight replies for the
    /// connection are dropped by the reactor.
    fn on_disconnect(&self, conn: ConnId);

    /// A connection was accepted (diagnostic; default no-op).
    fn on_connect(&self, _conn: ConnId, _peer: &str) {}
}

/// Completed reply on its way back to a connection. Cloneable; workers hold
/// one each.
#[derive(Clone)]
pub struct ReplySink {
    tx: Sender<(ConnId, u64, CudaReply)>,
    wake: Arc<ReactorWake>,
}

impl ReplySink {
    /// A sink and the queue end the reactor drains.
    pub fn channel() -> (ReplySink, ReplyQueue) {
        let (tx, rx) = unbounded();
        let wake = Arc::new(ReactorWake::new());
        (ReplySink { tx, wake: Arc::clone(&wake) }, ReplyQueue { rx, wake })
    }

    /// Completes request `id` on connection `conn`.
    pub fn reply(&self, conn: ConnId, id: u64, reply: CudaReply) {
        let _ = self.tx.send((conn, id, reply));
        self.wake.notify();
    }
}

/// Reactor end of the reply channel.
pub struct ReplyQueue {
    rx: Receiver<(ConnId, u64, CudaReply)>,
    wake: Arc<ReactorWake>,
}

/// Tunables for one reactor instance.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Shed a connection whose partial frame is older than this.
    pub frame_deadline: Duration,
    /// Shed a connection whose unsent outbound backlog exceeds this.
    pub max_outbuf_bytes: usize,
    /// Sweep-fallback park quantum when nothing is readable and nothing is
    /// pending (non-Unix builds only; the `poll(2)` path sleeps until
    /// readiness or a wake byte and ignores this).
    pub idle_wait: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            frame_deadline: Duration::from_secs(10),
            max_outbuf_bytes: 64 << 20,
            idle_wait: Duration::from_micros(200),
        }
    }
}

/// Counters exported by a running reactor (all monotonic except `open`).
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Currently open connections.
    pub open: AtomicUsize,
    /// Connections accepted over the reactor's lifetime.
    pub accepted: AtomicU64,
    /// Requests decoded and handed to the service.
    pub requests: AtomicU64,
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
    stats: Arc<ReactorStats>,
    stop: Arc<AtomicBool>,
    wake: Arc<ReactorWake>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// The listener's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ReactorStats {
        &self.stats
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> usize {
        self.stats.open.load(Ordering::Relaxed)
    }

    /// Stops the reactor thread, closing every connection (each gets its
    /// `on_disconnect`).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.force();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.force();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    framebuf: FrameBuf,
    /// Timestamp of the oldest byte of the current partial frame.
    partial_since: Option<Instant>,
    /// Encoded-but-unsent outbound bytes (socket said would-block).
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written.
    out_sent: usize,
    /// Request IDs handed to the service and not yet replied.
    inflight: BTreeSet<u64>,
}

enum CloseReason {
    Peer,
    Protocol,
    SlowLoris,
    Backlog,
}

/// Spawns a reactor over `listener` serving `service`, draining `queue`.
///
/// The sink half of `queue` is what `service`'s workers reply through;
/// create both with [`ReplySink::channel`] before constructing the service.
pub fn spawn_reactor(
    listener: TcpListener,
    cfg: ReactorConfig,
    service: Arc<dyn MuxService>,
    queue: ReplyQueue,
) -> std::io::Result<ReactorHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(ReactorStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let wake = Arc::clone(&queue.wake);
    #[cfg(unix)]
    let wake_rx = {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let _ = wake.pipe.set(tx);
        rx
    };
    let thread_stats = Arc::clone(&stats);
    let thread_stop = Arc::clone(&stop);
    let thread =
        std::thread::Builder::new().name(format!("mux-reactor-{addr}")).spawn(move || {
            #[cfg(unix)]
            poll_loop(listener, wake_rx, cfg, service, queue, thread_stats, thread_stop);
            #[cfg(not(unix))]
            sweep_loop(listener, cfg, service, queue, thread_stats, thread_stop);
        })?;
    Ok(ReactorHandle { addr, stats, stop, wake, thread: Some(thread) })
}

/// Encodes a completed reply into its connection's outbound buffer.
/// Returns false when the connection is gone (the reply is dropped).
fn queue_reply(
    conns: &mut BTreeMap<ConnId, Conn>,
    conn_id: ConnId,
    id: u64,
    reply: CudaReply,
    stats: &ReactorStats,
) -> bool {
    let Some(conn) = conns.get_mut(&conn_id) else { return false };
    conn.inflight.remove(&id);
    let frame = MuxFrame::Response { id, reply };
    if let Err(e) = encode_frame(&frame, &mut conn.outbuf) {
        // A reply past the frame limit (an exported image, say) must still
        // answer its caller, or the caller waits forever.
        let refusal = MuxFrame::Response { id, reply: Err(CudaError::Protocol(e.to_string())) };
        let _ = encode_frame(&refusal, &mut conn.outbuf);
    }
    stats.replies.fetch_add(1, Ordering::Relaxed);
    true
}

/// Accepts every pending connection; returns true if any arrived.
fn accept_ready(
    listener: &TcpListener,
    conns: &mut BTreeMap<ConnId, Conn>,
    next_conn: &mut ConnId,
    service: &dyn MuxService,
    stats: &ReactorStats,
) -> bool {
    let mut any = false;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let id = *next_conn;
                *next_conn += 1;
                conns.insert(
                    id,
                    Conn {
                        stream,
                        framebuf: FrameBuf::new(),
                        partial_since: None,
                        outbuf: Vec::new(),
                        out_sent: 0,
                        inflight: BTreeSet::new(),
                    },
                );
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                stats.open.store(conns.len(), Ordering::Relaxed);
                service.on_connect(id, &peer.to_string());
                any = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    any
}

/// Pushes buffered outbound bytes as far as the socket allows; `Ok(true)`
/// means progress was made.
fn flush_conn(conn: &mut Conn, max_outbuf: usize) -> Result<bool, CloseReason> {
    let mut productive = false;
    while conn.out_sent < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.out_sent..]) {
            Ok(0) => return Err(CloseReason::Peer),
            Ok(n) => {
                conn.out_sent += n;
                productive = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::Peer),
        }
    }
    if conn.out_sent == conn.outbuf.len() {
        if !conn.outbuf.is_empty() {
            conn.outbuf.clear();
            conn.out_sent = 0;
        }
    } else if conn.outbuf.len() - conn.out_sent > max_outbuf {
        return Err(CloseReason::Backlog);
    }
    Ok(productive)
}

/// Reads until the socket would block, dispatching every complete frame;
/// `Ok(true)` means bytes arrived.
fn read_conn(
    id: ConnId,
    conn: &mut Conn,
    service: &dyn MuxService,
    stats: &ReactorStats,
) -> Result<bool, CloseReason> {
    let mut productive = false;
    loop {
        match conn.framebuf.read_from(&mut conn.stream) {
            Ok(0) => return Err(CloseReason::Peer),
            Ok(_) => {
                productive = true;
                if let Some(reason) = drain_frames(id, conn, service, stats) {
                    return Err(reason);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(productive),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(CloseReason::Peer),
        }
    }
}

/// Re-arms or clears the partial-frame stopwatch after I/O on `conn`;
/// returns the change (+1/0/-1) to the count of partial-holding conns.
fn update_partial(conn: &mut Conn) -> isize {
    if conn.framebuf.has_partial() {
        if conn.partial_since.is_none() {
            // mtlint: allow(wall-clock, reason = "slow-loris shedding deadline is a real network-I/O timeout, not simulated control flow")
            conn.partial_since = Some(Instant::now());
            return 1;
        }
    } else if conn.partial_since.take().is_some() {
        return -1;
    }
    0
}

/// Sheds every connection whose partial frame outlived `deadline`.
fn scan_deadlines(
    conns: &BTreeMap<ConnId, Conn>,
    deadline: Duration,
    closed: &mut Vec<(ConnId, CloseReason)>,
) {
    for (&id, conn) in conns.iter() {
        if let Some(since) = conn.partial_since {
            if since.elapsed() > deadline {
                closed.push((id, CloseReason::SlowLoris));
            }
        }
    }
}

/// Removes every queued-for-close connection, updating stats and telling
/// the service; returns true if any was retired.
fn retire(
    conns: &mut BTreeMap<ConnId, Conn>,
    closed: &mut Vec<(ConnId, CloseReason)>,
    partials: &mut usize,
    service: &dyn MuxService,
    stats: &ReactorStats,
) -> bool {
    if closed.is_empty() {
        return false;
    }
    let mut any = false;
    for (id, reason) in closed.drain(..) {
        if let Some(conn) = conns.remove(&id) {
            any = true;
            if conn.partial_since.is_some() {
                *partials -= 1;
            }
            match reason {
                CloseReason::Peer => {}
                CloseReason::Protocol => {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                CloseReason::SlowLoris => {
                    stats.shed_slow.fetch_add(1, Ordering::Relaxed);
                }
                CloseReason::Backlog => {
                    stats.shed_backlog.fetch_add(1, Ordering::Relaxed);
                }
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            service.on_disconnect(id);
        }
    }
    if any {
        stats.open.store(conns.len(), Ordering::Relaxed);
    }
    any
}

/// The `poll(2)` reactor: sleeps in the kernel until a socket is ready or
/// a worker's wake byte arrives. Per-connection cost is one pollfd entry,
/// so ten thousand idle connections burn no CPU at all.
#[cfg(unix)]
fn poll_loop(
    listener: TcpListener,
    wake_rx: std::os::unix::net::UnixStream,
    cfg: ReactorConfig,
    service: Arc<dyn MuxService>,
    queue: ReplyQueue,
    stats: Arc<ReactorStats>,
    stop: Arc<AtomicBool>,
) {
    use std::os::unix::io::AsRawFd;
    use sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

    let mut conns: BTreeMap<ConnId, Conn> = BTreeMap::new();
    let mut next_conn: ConnId = 1;
    let mut closed: Vec<(ConnId, CloseReason)> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<ConnId> = Vec::new();
    let mut touched: Vec<ConnId> = Vec::new();
    let mut partials: usize = 0;

    while !stop.load(Ordering::SeqCst) {
        // --- drain replies into outbufs, flush the conns they touched ----
        while let Ok((conn_id, id, reply)) = queue.rx.try_recv() {
            if queue_reply(&mut conns, conn_id, id, reply, &stats) {
                touched.push(conn_id);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for id in touched.drain(..) {
            if let Some(conn) = conns.get_mut(&id) {
                if let Err(reason) = flush_conn(conn, cfg.max_outbuf_bytes) {
                    closed.push((id, reason));
                }
            }
        }

        // --- build the poll set: listener, wake pipe, every connection ---
        fds.clear();
        ids.clear();
        fds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
        fds.push(PollFd { fd: wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
        for (&id, conn) in conns.iter() {
            let mut events = POLLIN;
            if conn.out_sent < conn.outbuf.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd { fd: conn.stream.as_raw_fd(), events, revents: 0 });
            ids.push(id);
        }

        // --- sleep until readiness, a wake byte, or the loris tick -------
        // Arm the wake flag BEFORE the final queue check: a reply landing
        // after the check sees the flag and writes the byte that makes the
        // poll return immediately.
        let tick: i32 = if partials > 0 {
            (cfg.frame_deadline.as_millis() / 4).clamp(1, 50) as i32
        } else {
            500
        };
        queue.wake.sleeping.store(true, Ordering::SeqCst);
        let timeout = if queue.rx.is_empty() && !stop.load(Ordering::SeqCst) && closed.is_empty() {
            tick
        } else {
            0
        };
        sys::wait(&mut fds, timeout);
        queue.wake.sleeping.store(false, Ordering::SeqCst);

        // --- clear the wake pipe -----------------------------------------
        if fds[1].revents != 0 {
            let mut wakes = [0u8; 64];
            while let Ok(n) = (&wake_rx).read(&mut wakes) {
                if n < wakes.len() {
                    break;
                }
            }
        }

        if fds[0].revents != 0 {
            accept_ready(&listener, &mut conns, &mut next_conn, service.as_ref(), &stats);
        }

        // --- serve ready connections --------------------------------------
        for (i, &id) in ids.iter().enumerate() {
            let re = fds[i + 2].revents;
            if re == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else { continue };
            if re & POLLOUT != 0 {
                if let Err(reason) = flush_conn(conn, cfg.max_outbuf_bytes) {
                    closed.push((id, reason));
                    continue;
                }
            }
            if re & (POLLIN | POLLHUP | POLLERR) != 0 {
                match read_conn(id, conn, service.as_ref(), &stats) {
                    Ok(_) => match update_partial(conn) {
                        1 => partials += 1,
                        -1 => partials -= 1,
                        _ => {}
                    },
                    Err(reason) => closed.push((id, reason)),
                }
            }
        }

        if partials > 0 {
            scan_deadlines(&conns, cfg.frame_deadline, &mut closed);
        }
        retire(&mut conns, &mut closed, &mut partials, service.as_ref(), &stats);
    }

    // Shutdown: close every connection and notify the service.
    for (id, conn) in std::mem::take(&mut conns) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        service.on_disconnect(id);
    }
    stats.open.store(0, Ordering::Relaxed);
}

/// Portable fallback: sweep every connection nonblockingly, parking on the
/// reply queue with exponential backoff when a sweep finds nothing.
#[cfg(not(unix))]
fn sweep_loop(
    listener: TcpListener,
    cfg: ReactorConfig,
    service: Arc<dyn MuxService>,
    queue: ReplyQueue,
    stats: Arc<ReactorStats>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: BTreeMap<ConnId, Conn> = BTreeMap::new();
    let mut next_conn: ConnId = 1;
    let mut closed: Vec<(ConnId, CloseReason)> = Vec::new();
    let mut partials: usize = 0;
    let mut idle_streak: u32 = 0;

    while !stop.load(Ordering::SeqCst) {
        let mut productive =
            accept_ready(&listener, &mut conns, &mut next_conn, service.as_ref(), &stats);

        // Drain completed replies into outbound buffers.
        while let Ok((conn_id, id, reply)) = queue.rx.try_recv() {
            productive |= queue_reply(&mut conns, conn_id, id, reply, &stats);
        }

        // Per-connection write + read sweep.
        for (&id, conn) in conns.iter_mut() {
            match flush_conn(conn, cfg.max_outbuf_bytes) {
                Ok(p) => productive |= p,
                Err(reason) => {
                    closed.push((id, reason));
                    continue;
                }
            }
            match read_conn(id, conn, service.as_ref(), &stats) {
                Ok(p) => {
                    productive |= p;
                    match update_partial(conn) {
                        1 => partials += 1,
                        -1 => partials -= 1,
                        _ => {}
                    }
                }
                Err(reason) => closed.push((id, reason)),
            }
        }

        if partials > 0 {
            scan_deadlines(&conns, cfg.frame_deadline, &mut closed);
        }
        productive |= retire(&mut conns, &mut closed, &mut partials, service.as_ref(), &stats);

        // Idle strategy: spin while work is flowing; otherwise park on the
        // reply queue so a worker completion wakes the loop immediately.
        // The park doubles with consecutive idle sweeps (capped at ~16×
        // idle_wait) so an idle reactor with thousands of open sockets does
        // not monopolise a core, while the first byte after a burst is
        // still picked up fast.
        if productive {
            idle_streak = 0;
        } else {
            idle_streak = (idle_streak + 1).min(4);
            let park = cfg.idle_wait * (1u32 << idle_streak);
            match queue.rx.recv_timeout(park) {
                Ok((conn_id, id, reply)) => {
                    queue_reply(&mut conns, conn_id, id, reply, &stats);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Every sink is gone: nothing can ever reply again. Keep
                    // sweeping reads (teardown may still be in progress) but
                    // avoid a hot spin.
                    // mtlint: allow(thread-sleep, reason = "teardown backoff in the real-time reactor thread; no simulated durations flow here")
                    std::thread::sleep(cfg.idle_wait);
                }
            }
        }
    }

    // Shutdown: close every connection and notify the service.
    for (id, conn) in std::mem::take(&mut conns) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        service.on_disconnect(id);
    }
    stats.open.store(0, Ordering::Relaxed);
}

/// Decodes every complete frame buffered on `conn`; returns a close reason
/// on a protocol violation.
fn drain_frames(
    id: ConnId,
    conn: &mut Conn,
    service: &dyn MuxService,
    stats: &ReactorStats,
) -> Option<CloseReason> {
    loop {
        match conn.framebuf.next_frame::<MuxFrame>() {
            Ok(Some(MuxFrame::Request { chan, id: req_id, call })) => {
                if !conn.inflight.insert(req_id) {
                    // Duplicate in-flight request ID: the demux contract is
                    // broken; shed the connection before the two replies
                    // race for one ID.
                    return Some(CloseReason::Protocol);
                }
                stats.requests.fetch_add(1, Ordering::Relaxed);
                service.on_request(id, chan, req_id, call);
            }
            Ok(Some(MuxFrame::Response { .. })) => {
                // Clients do not answer; a "response" here is hostile.
                return Some(CloseReason::Protocol);
            }
            Ok(None) => return None,
            Err(_) => return Some(CloseReason::Protocol),
        }
    }
}

/// Convenience: connect a [`MuxChannel`]-per-call client pool is overkill in
/// unit tests; open one connection and one channel.
#[cfg(test)]
pub fn test_channel(addr: std::net::SocketAddr) -> MuxChannel {
    super::mux::MuxConnection::connect(addr).expect("connect").channel()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplyValue;
    use crate::transport::{Transport, MAX_FRAME_BYTES};
    use crate::HostBuf;
    use mtgpu_gpusim::DeviceAddr;

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
        let mut ch = test_channel(reactor.addr());
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
