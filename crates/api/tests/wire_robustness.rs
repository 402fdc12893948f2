//! Wire-protocol robustness: hostile or dying peers on live sockets must
//! surface as clean errors and shed only themselves, and arbitrary bytes
//! must never panic the frame decoder. (Round trips of every protocol value
//! and the decoder's own fuzz battery are in `wire_codec.rs`.)

use mtgpu_api::protocol::{CudaCall, CudaReply, ModuleHandle, MuxFrame, ReplyValue};
use mtgpu_api::transport::{
    encode_frame, read_frame, spawn_reactor, write_frame, ConnId, FrameBuf, FrontendClient,
    MuxConnection, MuxService, ReactorConfig, ReactorHandle, ReplySink, Transport, MAX_FRAME_BYTES,
};
use mtgpu_api::{CudaClient, CudaError, HostBuf};
use mtgpu_gpusim::{DeviceAddr, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest single request any thread of this test binary ever made of the
/// allocator: a reply is read by whichever caller leads, on a thread that is
/// not the test's, so "no allocation sized by a hostile prefix" has to be
/// read process-wide.
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

struct Watermark;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Watermark = Watermark;

fn roundtrip_call(call: &CudaCall) {
    let mut buf = Vec::new();
    write_frame(&mut buf, call).unwrap();
    let mut cursor = std::io::Cursor::new(buf);
    let back: CudaCall = read_frame(&mut cursor).unwrap();
    assert_eq!(&back, call);
}

// ---------------------------------------------------------------------
// Live-socket robustness: a hostile or dying server must surface as a
// clean error at every caller waiting on the connection — never a hang, a
// panic, or a huge allocation.
// ---------------------------------------------------------------------

/// Binds an ephemeral port, hands the first accepted stream to `serve` on
/// a background thread, and returns the address to dial.
fn hostile_server(serve: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        serve(stream);
    });
    addr
}

/// Reads one request off a hostile server's end; returns its channel and ID.
fn read_request(stream: &mut TcpStream) -> (u64, u64) {
    match read_frame::<MuxFrame>(stream).unwrap() {
        MuxFrame::Request { chan, id, .. } => (chan, id),
        MuxFrame::Response { .. } => panic!("a client sent a response"),
    }
}

/// Parks one caller on each of three fresh channels of `conn` — one of them
/// reads the socket, two sleep behind it (the hostile servers below read all
/// three requests before they misbehave) — and returns what each got back.
fn three_pending_callers(conn: &MuxConnection) -> Vec<CudaReply> {
    let callers: Vec<_> = (0..3).map(|_| spawn_caller(conn, CudaCall::GetDeviceCount)).collect();
    callers.into_iter().map(|(_, caller)| caller.join().expect("caller thread")).collect()
}

/// One call on a fresh channel of `conn`, from a thread of its own; returns
/// the channel's ID and the thread that yields the reply.
fn spawn_caller(conn: &MuxConnection, call: CudaCall) -> (u64, JoinHandle<CudaReply>) {
    let mut chan = conn.channel();
    (chan.chan(), std::thread::spawn(move || chan.roundtrip(call)))
}

/// Every pending caller got the typed error, the connection knows it is
/// dead, nobody is left reading or filed, and a later call fails at once
/// instead of waiting on it.
fn assert_dead(conn: &MuxConnection, pending: &[CudaReply]) {
    assert!(pending.iter().all(|reply| *reply == Err(CudaError::Disconnected)), "{pending:?}");
    assert!(conn.is_dead());
    assert!(conn.is_idle());
    let mut late = FrontendClient::new(conn.channel());
    assert_eq!(late.synchronize(), Err(CudaError::Disconnected));
}

#[test]
fn mux_truncated_reply_frame_fails_every_pending_caller() {
    let addr = hostile_server(|mut stream| {
        for _ in 0..3 {
            read_request(&mut stream);
        }
        // Declare a 64-byte reply, deliver 10 bytes, hang up mid-frame.
        stream.write_all(&64u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
    });
    let conn = MuxConnection::connect(addr).unwrap();
    assert_dead(&conn, &three_pending_callers(&conn));
}

#[test]
fn mux_oversized_length_prefix_rejected_without_waiting_or_allocating() {
    assert!((MAX_FRAME_BYTES as u64) < u32::MAX as u64);
    let addr = hostile_server(|mut stream| {
        for _ in 0..3 {
            read_request(&mut stream);
        }
        // Declares a ~4 GiB frame. The client must refuse it from the
        // prefix alone rather than allocate or wait for the body.
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 32]).unwrap();
        // Hold the socket open: a client that ignored the limit would wait
        // for the body here. Unblocks when the client hangs up.
        let _ = stream.read(&mut [0u8; 1]);
    });
    let conn = MuxConnection::connect(addr).unwrap();
    assert_dead(&conn, &three_pending_callers(&conn));
    // Nothing in this binary has a reason to ask for more than one frame's
    // worth at once; the hostile prefix asked for sixteen times that.
    let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
    assert!(largest <= 2 * MAX_FRAME_BYTES, "an allocation of {largest} bytes");
}

#[test]
fn mux_mid_stream_disconnect_fails_fast() {
    let addr = hostile_server(|mut stream| {
        // Serve one call normally...
        let (_, id) = read_request(&mut stream);
        let reply = MuxFrame::Response { id, reply: Ok(ReplyValue::DeviceCount(2)) };
        write_frame(&mut stream, &reply).unwrap();
        // ...then swallow the next three and vanish without replying.
        for _ in 0..3 {
            read_request(&mut stream);
        }
    });
    let conn = MuxConnection::connect(addr).unwrap();
    assert_eq!(FrontendClient::new(conn.channel()).get_device_count().unwrap(), 2);
    assert_dead(&conn, &three_pending_callers(&conn));
}

// ---------------------------------------------------------------------
// The client's demux under a scripted server. A connection has no reader
// thread: a reply is read by whichever caller finds the socket unread, and
// that caller hands the read on when it leaves. The test thread plays the
// server on the accepted end of a loopback pair, so each case decides what
// arrives when; a lost wake-up or hand-off is a hang, so every case runs
// under a watchdog.
// ---------------------------------------------------------------------

const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `case` on a thread of its own and fails if it is not done in time.
fn under_watchdog(case: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let case = std::thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    if finished.recv_timeout(WATCHDOG) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
        panic!("a caller never came back: lost wake-up or hand-off");
    }
    if let Err(panic) = case.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A client connection, the server's end of it, and a second handle on the
/// client's own socket.
fn scripted_socket() -> (MuxConnection, TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let local = stream.try_clone().unwrap();
    let (peer, _) = listener.accept().unwrap();
    peer.set_read_timeout(Some(WATCHDOG)).unwrap();
    (MuxConnection::from_stream(stream).unwrap(), peer, local)
}

fn scripted_pair() -> (MuxConnection, TcpStream) {
    let (conn, peer, _) = scripted_socket();
    (conn, peer)
}

fn respond(peer: &mut TcpStream, id: u64, value: u32) {
    let reply = MuxFrame::Response { id, reply: Ok(ReplyValue::DeviceCount(value)) };
    write_frame(peer, &reply).unwrap();
}

/// Starts a caller and makes sure it is the one reading the socket: the
/// server volunteers a response nobody asked for and a request, which only a
/// caller that reads can count — and counting is all it may do about them.
/// Returns the caller and its request's ID.
fn pinned_leader(conn: &MuxConnection, peer: &mut TcpStream) -> (JoinHandle<CudaReply>, u64) {
    let (_, leader) = spawn_caller(conn, CudaCall::GetDeviceCount);
    let (_, id) = read_request(peer);
    let counted = (conn.unknown_responses() + 1, conn.protocol_errors() + 1);
    write_frame(peer, &MuxFrame::Response { id: u64::MAX, reply: Ok(ReplyValue::Unit) }).unwrap();
    write_frame(peer, &MuxFrame::Request { chan: 0, id, call: CudaCall::Synchronize }).unwrap();
    let deadline = Instant::now() + WATCHDOG;
    while (conn.unknown_responses(), conn.protocol_errors()) != counted {
        assert!(Instant::now() < deadline, "stray frames were never read");
        std::thread::yield_now();
    }
    assert!(!conn.is_dead(), "stray frames must not kill the connection");
    (leader, id)
}

#[test]
fn mux_stray_frames_are_counted_by_the_caller_that_reads_and_kill_nothing() {
    under_watchdog(|| {
        let (conn, mut peer) = scripted_pair();
        let (leader, id) = pinned_leader(&conn, &mut peer);
        respond(&mut peer, id, 5);
        assert_eq!(leader.join().unwrap(), Ok(ReplyValue::DeviceCount(5)));
        assert_eq!((conn.unknown_responses(), conn.protocol_errors()), (1, 1));
        assert!(conn.is_idle() && !conn.is_dead());
    });
}

#[test]
fn mux_replies_in_reverse_order_reach_their_own_callers() {
    under_watchdog(|| {
        let (conn, mut peer) = scripted_pair();
        let callers: Vec<_> =
            (0..3).map(|_| spawn_caller(&conn, CudaCall::GetDeviceCount)).collect();
        // All three are waiting — one reading, two asleep — before the
        // first reply, which is for whoever asked last.
        let requests: Vec<_> = (0..3).map(|_| read_request(&mut peer)).collect();
        for (chan, id) in requests.into_iter().rev() {
            respond(&mut peer, id, chan as u32);
        }
        for (chan, caller) in callers {
            assert_eq!(caller.join().unwrap(), Ok(ReplyValue::DeviceCount(chan as u32)));
        }
        assert!(conn.is_idle() && !conn.is_dead());
    });
}

#[test]
fn mux_leadership_reaches_every_waiting_caller_in_turn() {
    under_watchdog(|| {
        let (conn, mut peer) = scripted_pair();
        let (leader, leader_id) = pinned_leader(&conn, &mut peer);
        let mut followers: Vec<_> =
            (0..2).map(|_| spawn_caller(&conn, CudaCall::GetDeviceCount)).collect();
        let requests: Vec<_> = (0..2).map(|_| read_request(&mut peer)).collect();
        // The leader's reply first: it leaves with two callers waiting...
        respond(&mut peer, leader_id, 7);
        assert_eq!(leader.join().unwrap(), Ok(ReplyValue::DeviceCount(7)));
        // ...so one of them must take the read over for the next reply to
        // arrive at all, and once that caller is gone, the other.
        for (chan, id) in requests {
            respond(&mut peer, id, chan as u32);
            let at = followers.iter().position(|(c, _)| *c == chan).expect("a follower's channel");
            let (_, follower) = followers.swap_remove(at);
            assert_eq!(follower.join().unwrap(), Ok(ReplyValue::DeviceCount(chan as u32)));
        }
        assert!(conn.is_idle() && !conn.is_dead());
    });
}

#[test]
fn mux_batch_of_64_interleaves_with_a_sibling_channels_single_calls() {
    const BATCH: usize = 64;
    const SINGLES: usize = 16;
    under_watchdog(|| {
        let (conn, mut peer) = scripted_pair();
        let (mut batcher, mut sibling) = (conn.channel(), conn.channel());
        let batch_chan = batcher.chan();
        let batch = std::thread::spawn(move || {
            batcher.roundtrip_batch(&mut vec![CudaCall::Synchronize; BATCH])
        });
        let singles = std::thread::spawn(move || {
            (0..SINGLES).map(|_| sibling.roundtrip(CudaCall::GetDeviceCount)).collect::<Vec<_>>()
        });
        // The server answers a channel's n-th request with `DeviceCount(n)`.
        // It holds the batch's answers back and lets four of them out in
        // front of each of the sibling's, in one write: whichever of the two
        // callers reads, it files replies for the other, and the batch's
        // caller is owed nothing until its sixty-fourth is in.
        let (mut batch_ids, mut single_ids) = (Vec::new(), Vec::new());
        let (mut released, mut answered) = (0, 0);
        let mut framebuf = FrameBuf::new();
        while answered < SINGLES {
            assert_ne!(framebuf.read_from(&mut peer).unwrap(), 0, "client hung up");
            while let Some(frame) = framebuf.next_frame::<MuxFrame>().unwrap() {
                let MuxFrame::Request { chan, id, .. } = frame else { panic!("not a request") };
                if chan == batch_chan { &mut batch_ids } else { &mut single_ids }.push(id);
            }
            while batch_ids.len() == BATCH && answered < single_ids.len() {
                let mut wire = Vec::new();
                let mut answer = |id: u64, n: usize| {
                    let reply = Ok(ReplyValue::DeviceCount(n as u32));
                    encode_frame(&MuxFrame::Response { id, reply }, &mut wire).unwrap();
                };
                for _ in 0..BATCH / SINGLES {
                    answer(batch_ids[released], released);
                    released += 1;
                }
                answer(single_ids[answered], answered);
                answered += 1;
                peer.write_all(&wire).unwrap();
            }
        }
        // One batch, one run of request IDs, one reply each, in call order.
        assert!(batch_ids.windows(2).all(|pair| pair[1] == pair[0] + 1), "{batch_ids:?}");
        let in_order = |n: usize| (0..n).map(|i| Ok(ReplyValue::DeviceCount(i as u32)));
        assert!(batch.join().unwrap().into_iter().eq(in_order(BATCH)));
        assert!(singles.join().unwrap().into_iter().eq(in_order(SINGLES)));
        assert!(conn.is_idle() && !conn.is_dead());
    });
}

#[test]
fn mux_shutdown_from_a_third_thread_releases_a_leader_blocked_in_read() {
    under_watchdog(|| {
        let (conn, mut peer) = scripted_pair();
        let (leader, _) = pinned_leader(&conn, &mut peer);
        let (_, follower) = spawn_caller(&conn, CudaCall::GetDeviceCount);
        read_request(&mut peer);
        conn.shutdown();
        assert_dead(&conn, &[leader.join().unwrap(), follower.join().unwrap()]);
        assert_eq!(peer.read(&mut [0u8; 16]).unwrap(), 0, "the server must see the hang-up");
    });
}

/// A request write that fails may have left part of a frame on the wire: the
/// stream is useless to every channel, and with no reader thread nobody but
/// the writer is there to notice.
#[test]
fn mux_failed_request_write_kills_the_connection_for_every_channel() {
    under_watchdog(|| {
        let (conn, peer) = scripted_pair();
        // The peer closes without reading a byte; no socket buffer holds a
        // multi-MiB frame, so the upload's write fails part-way.
        drop(peer);
        let upload = || CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x1000),
            buf: HostBuf::from_slice(&vec![7u8; 8 << 20]),
        };
        let callers = [spawn_caller(&conn, upload()), spawn_caller(&conn, upload())];
        let replies: Vec<_> = callers.into_iter().map(|(_, c)| c.join().unwrap()).collect();
        assert_dead(&conn, &replies);
    });
}

#[test]
fn mux_write_error_alone_kills_the_connection_and_releases_the_reader() {
    under_watchdog(|| {
        let (conn, mut peer, local) = scripted_socket();
        let (leader, _) = pinned_leader(&conn, &mut peer);
        // Only the client's outbound half goes. The peer stays connected and
        // silent, so no read will ever tell: the caller whose write fails
        // has to, and has to get the reader out of its `read`.
        local.shutdown(Shutdown::Write).unwrap();
        let (_, writer) = spawn_caller(&conn, CudaCall::GetDeviceCount);
        assert_dead(&conn, &[writer.join().unwrap(), leader.join().unwrap()]);
    });
}

// ---------------------------------------------------------------------
// Multiplexed hostile peers: the reactor must shed a misbehaving
// connection without stalling — or even perturbing — its neighbours.
// ---------------------------------------------------------------------

/// Minimal reactor service: answers every request with
/// `DeviceCount(chan)` straight off the reactor thread.
struct Echo(ReplySink);

impl MuxService for Echo {
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, _call: CudaCall) {
        self.0.reply(conn, id, Ok(ReplyValue::DeviceCount(chan as u32)));
    }
    fn on_disconnect(&self, _conn: ConnId) {}
}

fn spawn_echo_reactor(cfg: ReactorConfig) -> ReactorHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (sink, queue) = ReplySink::channel();
    let svc: Arc<dyn MuxService> = Arc::new(Echo(sink));
    spawn_reactor(listener, cfg, svc, queue).unwrap()
}

/// One well-behaved probe roundtrip: the canary that proves the reactor is
/// still serving *other* connections while it sheds a hostile one.
fn probe_roundtrip(conn: &MuxConnection) {
    let chan = conn.channel();
    let expected = chan.chan() as u32;
    let mut client = FrontendClient::new(chan);
    assert_eq!(client.get_device_count().unwrap(), expected);
}

/// Reads until EOF (the reactor closed us) with a hard deadline; panics if
/// the peer keeps the socket open past it.
fn expect_eof(stream: &mut TcpStream, within: Duration) {
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let deadline = Instant::now() + within;
    let mut sink = [0u8; 1024];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            // Reset counts as closed too.
            Err(_) => return,
        }
        assert!(Instant::now() < deadline, "reactor never closed the hostile connection");
    }
}

/// Holds every request until told to answer, like a gateway whose workers
/// have not got to it yet. (With [`Echo`] a reply is written from inside
/// `on_request`, so its ID is out of flight before the next frame decodes.)
struct Deferred {
    sink: ReplySink,
    held: Mutex<Vec<(ConnId, u64)>>,
}

impl Deferred {
    fn answer_all(&self) {
        for (conn, id) in self.held.lock().unwrap().drain(..) {
            self.sink.reply(conn, id, Ok(ReplyValue::Unit));
        }
    }
}

impl MuxService for Deferred {
    fn on_request(&self, conn: ConnId, _chan: u64, id: u64, _call: CudaCall) {
        self.held.lock().unwrap().push((conn, id));
    }
    fn on_disconnect(&self, _conn: ConnId) {}
}

fn request_frame(id: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    encode_frame(&MuxFrame::Request { chan: 0, id, call: CudaCall::GetDeviceCount }, &mut wire)
        .unwrap();
    wire
}

#[test]
fn mux_duplicate_request_id_sheds_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (sink, queue) = ReplySink::channel();
    let svc = Arc::new(Deferred { sink, held: Mutex::new(Vec::new()) });
    let reactor = spawn_reactor(listener, ReactorConfig::default(), svc.clone(), queue).unwrap();
    let mut good = TcpStream::connect(reactor.addr()).unwrap();
    good.write_all(&request_frame(1)).unwrap();

    // Hostile peer: two requests carrying the same in-flight ID, shipped in
    // one write so they decode in one sweep.
    let mut attacker = TcpStream::connect(reactor.addr()).unwrap();
    attacker.write_all(&[request_frame(7), request_frame(7)].concat()).unwrap();
    expect_eof(&mut attacker, Duration::from_secs(5));

    assert_eq!(reactor.stats().protocol_errors.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The neighbour never noticed: its held request is answered, and the
    // reply to the shed connection's first request goes nowhere.
    svc.answer_all();
    let reply: MuxFrame = read_frame(&mut good).unwrap();
    assert_eq!(reply, MuxFrame::Response { id: 1, reply: Ok(ReplyValue::Unit) });
    assert_eq!(reactor.open_connections(), 1);
    reactor.shutdown();
}

#[test]
fn mux_request_id_reused_after_its_reply_is_accepted() {
    let reactor = spawn_echo_reactor(ReactorConfig::default());
    let mut peer = TcpStream::connect(reactor.addr()).unwrap();
    // Sequentially, then back to back in one write: an ID is in flight only
    // until its reply is posted, and `Echo` posts it before the next frame
    // is decoded.
    for wire in [request_frame(7), request_frame(7), [request_frame(7), request_frame(7)].concat()]
    {
        let frames = wire.len() / request_frame(7).len();
        peer.write_all(&wire).unwrap();
        for _ in 0..frames {
            let reply: MuxFrame = read_frame(&mut peer).unwrap();
            assert_eq!(reply, MuxFrame::Response { id: 7, reply: Ok(ReplyValue::DeviceCount(0)) });
        }
    }
    assert_eq!(reactor.stats().protocol_errors.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert_eq!(reactor.stats().replies.load(std::sync::atomic::Ordering::Relaxed), 4);
    assert_eq!(reactor.open_connections(), 1);
    reactor.shutdown();
}

#[test]
fn mux_client_sent_response_sheds_connection() {
    let reactor = spawn_echo_reactor(ReactorConfig::default());
    let good = MuxConnection::connect(reactor.addr()).unwrap();

    // A client has no business sending Response frames.
    let mut attacker = TcpStream::connect(reactor.addr()).unwrap();
    let mut wire = Vec::new();
    encode_frame(&MuxFrame::Response { id: 3, reply: Ok(ReplyValue::Unit) }, &mut wire).unwrap();
    attacker.write_all(&wire).unwrap();
    expect_eof(&mut attacker, Duration::from_secs(5));

    assert!(reactor.stats().protocol_errors.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    probe_roundtrip(&good);
    good.shutdown();
    reactor.shutdown();
}

#[test]
fn mux_undecodable_frame_mid_stream_sheds_only_that_connection() {
    let reactor = spawn_echo_reactor(ReactorConfig::default());
    let good = MuxConnection::connect(reactor.addr()).unwrap();
    let protocol_errors =
        || reactor.stats().protocol_errors.load(std::sync::atomic::Ordering::Relaxed);

    let mut valid = Vec::new();
    let sync = MuxFrame::Request { chan: 0, id: 1, call: CudaCall::Synchronize };
    encode_frame(&sync, &mut valid).unwrap();
    let valid_body = &valid[4..];

    // Well-framed bodies the decoder must refuse, each on its own
    // connection, each after one valid request (so the failure is
    // mid-stream).
    let hostile_bodies: Vec<(&str, Vec<u8>)> = vec![
        // An old peer still speaking the JSON codec: `{` is no frame tag.
        (
            "JSON body from an old peer",
            br#"{"Request":{"chan":0,"id":2,"call":"Synchronize"}}"#.to_vec(),
        ),
        ("unknown frame tag", vec![0x02, 0, 0, 0, 0, 0, 0, 0, 0]),
        ("unknown call tag", [&valid_body[..17], &[0xEE]].concat()),
        ("trailing byte after the value", [valid_body, &[0]].concat()),
        ("body ends inside the value", valid_body[..valid_body.len() - 1].to_vec()),
        // MemcpyH2D whose payload length claims 4 GiB.
        (
            "inner length past the frame",
            [&valid_body[..17], &[10], &[0; 16], &u32::MAX.to_le_bytes(), &[1, 2, 3]].concat(),
        ),
    ];
    for (i, (what, body)) in hostile_bodies.iter().enumerate() {
        let mut attacker = TcpStream::connect(reactor.addr()).unwrap();
        let mut wire = valid.clone();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(body);
        attacker.write_all(&wire).unwrap();
        expect_eof(&mut attacker, Duration::from_secs(5));
        assert_eq!(protocol_errors(), i as u64 + 1, "{what}: one shed, counted once");
        probe_roundtrip(&good);
    }

    good.shutdown();
    reactor.shutdown();
}

#[test]
fn mux_slow_loris_is_shed_without_stalling_neighbours() {
    // Tight frame deadline so the test is quick.
    let cfg = ReactorConfig { frame_deadline: Duration::from_millis(200), ..Default::default() };
    let reactor = spawn_echo_reactor(cfg);
    let good = MuxConnection::connect(reactor.addr()).unwrap();

    // Slow loris: promises a frame, drips 2 bytes, goes quiet.
    let mut loris = TcpStream::connect(reactor.addr()).unwrap();
    loris.write_all(&64u32.to_le_bytes()).unwrap();
    loris.write_all(&[0, 1]).unwrap();

    // Neighbours keep full service while the loris ages out.
    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.stats().shed_slow.load(std::sync::atomic::Ordering::Relaxed) == 0 {
        probe_roundtrip(&good);
        assert!(Instant::now() < deadline, "slow-loris peer was never shed");
        std::thread::sleep(Duration::from_millis(20));
    }
    expect_eof(&mut loris, Duration::from_secs(5));
    probe_roundtrip(&good);
    good.shutdown();
    reactor.shutdown();
}

#[test]
fn mux_client_counts_responses_for_unknown_ids() {
    // Hostile *server*: answers the real request correctly, but first
    // volunteers a response nobody asked for.
    let addr = hostile_server(|mut stream| {
        let mut wire = Vec::new();
        encode_frame(
            &MuxFrame::Response { id: 0xDEAD_BEEF, reply: Ok(ReplyValue::Unit) },
            &mut wire,
        )
        .unwrap();
        stream.write_all(&wire).unwrap();

        let mut buf = FrameBuf::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = stream.read(&mut chunk).unwrap();
            if n == 0 {
                return;
            }
            buf.push(&chunk[..n]);
            while let Some(frame) = buf.next_frame::<MuxFrame>().unwrap() {
                let MuxFrame::Request { id, .. } = frame else { panic!("client sent response") };
                let mut out = Vec::new();
                encode_frame(
                    &MuxFrame::Response { id, reply: Ok(ReplyValue::DeviceCount(3)) },
                    &mut out,
                )
                .unwrap();
                stream.write_all(&out).unwrap();
            }
        }
    });
    let conn = MuxConnection::connect(addr).unwrap();
    let mut client = FrontendClient::new(conn.channel());
    assert_eq!(client.get_device_count().unwrap(), 3);
    // The stray response was dropped and counted, not misdelivered.
    let deadline = Instant::now() + Duration::from_secs(5);
    while conn.unknown_responses() == 0 {
        assert!(Instant::now() < deadline, "unknown response never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(conn.unknown_responses(), 1);
    assert!(!conn.is_dead(), "an unknown ID must not kill the connection");
    conn.shutdown();
}

// ---------------------------------------------------------------------
// Hostile descriptors at the boundary: malformed kernel descriptors,
// forged payloads and absurd geometry must come back as *typed* errors
// and must never reach dispatch.
// ---------------------------------------------------------------------

use mtgpu_api::guard::{self, DescriptorLimits};
use std::sync::atomic::AtomicU64;

/// A reactor service with the same boundary discipline as the runtime's
/// `service.rs`: Guardian validation first, dispatch only on a clean
/// verdict. The counter is the proof — a malformed descriptor that
/// reached dispatch would increment it.
struct ValidatingEcho {
    sink: ReplySink,
    dispatched: Arc<AtomicU64>,
}

impl MuxService for ValidatingEcho {
    fn on_request(&self, conn: ConnId, _chan: u64, id: u64, call: CudaCall) {
        let limits = DescriptorLimits::default();
        let verdict = match &call {
            CudaCall::Launch { spec } => guard::validate_launch_spec(spec, &limits),
            CudaCall::RegisterFunction { kernel, .. } => {
                guard::validate_kernel_desc(kernel, &limits)
            }
            CudaCall::MemcpyH2D { buf, .. } => guard::validate_host_buf(buf),
            CudaCall::HintJobLength { flops } => guard::validate_job_length_hint(*flops),
            _ => Ok(()),
        };
        match verdict {
            Ok(()) => {
                self.dispatched.fetch_add(1, Ordering::SeqCst);
                self.sink.reply(conn, id, Ok(ReplyValue::Unit));
            }
            Err(e) => self.sink.reply(conn, id, Err(e)),
        }
    }
    fn on_disconnect(&self, _conn: ConnId) {}
}

#[test]
fn hostile_descriptors_rejected_with_typed_errors_before_dispatch() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dispatched = Arc::new(AtomicU64::new(0));
    let (sink, queue) = ReplySink::channel();
    let svc: Arc<dyn MuxService> =
        Arc::new(ValidatingEcho { sink, dispatched: Arc::clone(&dispatched) });
    let reactor = spawn_reactor(listener, ReactorConfig::default(), svc, queue).unwrap();

    let conn = MuxConnection::connect(reactor.addr()).unwrap();
    let mut client = FrontendClient::new(conn.channel());
    let mut sibling = FrontendClient::new(conn.channel());

    let good_spec = LaunchSpec {
        kernel: "matmul".into(),
        config: LaunchConfig::default(),
        args: vec![KernelArg::Scalar(1)],
        work: Work::flops(1.0),
    };

    // Oversized argument list.
    let mut s = good_spec.clone();
    s.args = vec![KernelArg::Scalar(0); guard::MAX_ARGS + 1];
    assert!(matches!(
        client.call(CudaCall::Launch { spec: s }),
        Err(CudaError::MalformedDescriptor(_))
    ));

    // Zero-extent grid, oversized block, absurd shared memory.
    let mut s = good_spec.clone();
    s.config.grid.x = 0;
    assert!(matches!(
        client.call(CudaCall::Launch { spec: s }),
        Err(CudaError::MalformedDescriptor(_))
    ));
    let mut s = good_spec.clone();
    s.config.shared_mem_bytes = u32::MAX;
    assert!(matches!(
        client.call(CudaCall::Launch { spec: s }),
        Err(CudaError::MalformedDescriptor(_))
    ));

    // Negative or non-finite declared work, and a non-finite job-length
    // hint. The binary wire carries NaN and ±∞ bit-exact, so it is the
    // guard that answers — with a typed error for that one call, while the
    // connection and a sibling channel on it stay in service.
    for work in [
        Work { flops: -1.0, bytes: -1.0 },
        Work { flops: f64::NAN, bytes: 0.0 },
        Work { flops: 1.0, bytes: f64::INFINITY },
        Work { flops: f64::NEG_INFINITY, bytes: f64::NAN },
    ] {
        let mut s = good_spec.clone();
        s.work = work;
        assert!(matches!(
            client.call(CudaCall::Launch { spec: s }),
            Err(CudaError::MalformedDescriptor(_))
        ));
        assert!(!conn.is_dead());
        sibling.synchronize().unwrap();
    }
    assert!(matches!(
        client.call(CudaCall::HintJobLength { flops: f64::NAN }),
        Err(CudaError::MalformedDescriptor(_))
    ));
    assert!(!conn.is_dead());
    sibling.synchronize().unwrap();

    // Hostile registration: unbounded name, out-of-bounds read-only map.
    assert!(matches!(
        client.register_function(ModuleHandle(1), KernelDesc::plain("k".repeat(4096))),
        Err(CudaError::MalformedDescriptor(_))
    ));
    assert!(matches!(
        client.register_function(
            ModuleHandle(1),
            KernelDesc::plain("k").with_read_only_args(vec![9999]),
        ),
        Err(CudaError::MalformedDescriptor(_))
    ));

    // Forged payload: sealed, then tampered — the hash catches it.
    let mut forged = HostBuf::from_slice(&[1, 2, 3, 4]).sealed();
    forged.payload[2] ^= 0xFF;
    assert_eq!(
        client.call(CudaCall::MemcpyH2D { dst: DeviceAddr(0x1000), buf: forged }),
        Err(CudaError::PayloadHashMismatch)
    );

    // Length forgery: payload longer than the declared extent.
    let oversized = HostBuf { declared_len: 4, payload: vec![0u8; 64], content_hash: None };
    assert!(matches!(
        client.call(CudaCall::MemcpyH2D { dst: DeviceAddr(0x1000), buf: oversized }),
        Err(CudaError::MalformedDescriptor(_))
    ));

    // Nothing hostile reached dispatch (the sibling's five probes did), and
    // the reactor shed nobody...
    assert_eq!(dispatched.load(Ordering::SeqCst), 5, "a malformed descriptor was dispatched");
    assert_eq!(reactor.stats().protocol_errors.load(Ordering::SeqCst), 0);
    assert_eq!(reactor.open_connections(), 1);

    // ...while well-formed traffic still flows on the same connection.
    client.call(CudaCall::Launch { spec: good_spec }).unwrap();
    client.register_function(ModuleHandle(1), KernelDesc::plain("k")).unwrap();
    client
        .call(CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x1000),
            buf: HostBuf::from_slice(&[5, 6, 7]).sealed(),
        })
        .unwrap();
    assert_eq!(dispatched.load(Ordering::SeqCst), 8);

    conn.shutdown();
    reactor.shutdown();
}

proptest! {
    /// Arbitrary byte soup never panics the decoder — it errors.
    #[test]
    fn garbage_never_panics_decoder(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame::<CudaCall>(&mut cursor); // must not panic
    }

    /// A frame with a huge declared length fails cleanly on truncated input.
    #[test]
    fn truncated_frames_error(len in 5u32..1_000_000, body in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&body);
        let mut cursor = std::io::Cursor::new(buf);
        prop_assert!(read_frame::<CudaCall>(&mut cursor).is_err());
    }

    /// HostBuf payloads of any content survive the wire.
    #[test]
    fn hostbuf_payload_roundtrips(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let declared = payload.len() as u64 + 1024;
        let call = CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x42),
            buf: HostBuf::with_shadow(declared, payload),
        };
        roundtrip_call(&call);
    }
}
