//! The reactor's local path (DESIGN.md §12): a client in the node's own
//! process reaches the reactor over a local connection
//! (`ReactorHandle::connect_local`, a `LocalStream`: two one-way
//! Unix-domain socketpairs, requests on one and replies on the other) and
//! meets the same framing, the same shedding and the same `ReactorStats`
//! as a peer on the TCP listener. Each hostile peer below is a local
//! connection: it must be shed alone, counted once, while a sibling local
//! connection keeps being served; so must one that closes its reply side
//! and writes on. A local connection made around the reactor's end, or a
//! caller blocked on its reply when the reactor goes, never hangs its
//! caller, and a listener out of descriptors does not spin the reactor.
#![cfg(target_os = "linux")]

use mtgpu_api::protocol::{CudaCall, MuxFrame, ReplyValue};
use mtgpu_api::transport::{
    encode_frame, spawn_reactor, ConnId, FrontendClient, LocalStream, MuxConnection, MuxService,
    ReactorConfig, ReactorHandle, ReactorStats, ReplySink,
};
use mtgpu_api::{CudaClient, CudaError, HostBuf};
use mtgpu_gpusim::DeviceAddr;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(30);

/// The channel whose requests [`Service`] holds forever.
const HELD: u64 = 0;

/// Answers from the reactor thread at once — a download with as many bytes
/// as it asks for, anything else with `DeviceCount(chan)` — except on
/// channel [`HELD`] and a `Synchronize` on any channel, like a gateway
/// whose workers have not got to them yet. Counts the connections it was
/// told are gone.
struct Service {
    sink: ReplySink,
    disconnects: AtomicU64,
}

impl MuxService for Service {
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall) {
        let value = match call {
            _ if chan == HELD => return,
            CudaCall::Synchronize => return,
            CudaCall::MemcpyD2H { len, .. } => ReplyValue::Bytes(HostBuf {
                declared_len: len,
                payload: vec![0; len as usize],
                content_hash: None,
            }),
            _ => ReplyValue::DeviceCount(chan as u32),
        };
        self.sink.reply(conn, id, Ok(value));
    }
    fn on_disconnect(&self, _conn: ConnId) {
        self.disconnects.fetch_add(1, Ordering::Relaxed);
    }
}

/// A reactor with a short slow-loris deadline and a 1 MiB backlog bound, so
/// the sheds below come quickly, and the service it serves, whose sink
/// outlives the reactor as a runtime's does.
fn spawn_with_service() -> (ReactorHandle, Arc<Service>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (sink, queue) = ReplySink::channel();
    let cfg =
        ReactorConfig { frame_deadline: Duration::from_millis(200), max_outbuf_bytes: 1 << 20 };
    let service = Arc::new(Service { sink, disconnects: AtomicU64::new(0) });
    (spawn_reactor(listener, cfg, Arc::clone(&service) as _, queue).unwrap(), service)
}

fn spawn() -> ReactorHandle {
    spawn_with_service().0
}

fn local_connection(reactor: &ReactorHandle) -> MuxConnection {
    MuxConnection::over(reactor.connect_local().unwrap())
}

/// One round trip on a fresh channel of `conn`.
fn probe(conn: &MuxConnection) {
    let chan = conn.channel();
    let expected = chan.chan() as u32;
    assert_eq!(FrontendClient::new(chan).get_device_count(), Ok(expected));
}

fn request(chan: u64, id: u64, call: CudaCall) -> Vec<u8> {
    let mut wire = Vec::new();
    encode_frame(&MuxFrame::Request { chan, id, call }, &mut wire).unwrap();
    wire
}

fn sheds(stats: &ReactorStats) -> [u64; 3] {
    [&stats.protocol_errors, &stats.shed_slow, &stats.shed_backlog]
        .map(|counter| counter.load(Ordering::Relaxed))
}

/// Reads until the reactor closes `stream`'s reply side (end of stream or
/// a reset).
fn expect_eof(stream: &mut LocalStream, what: &str) {
    stream.rx.set_read_timeout(Some(WATCHDOG)).unwrap();
    let mut drain = [0u8; 64 << 10];
    loop {
        match stream.read(&mut drain) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                panic!("{what}: shed but never closed")
            }
            Err(_) => return,
        }
    }
}

type Counter = fn(&ReactorStats) -> &AtomicU64;

#[test]
fn a_hostile_local_peer_is_shed_alone_and_counted_once() {
    let reactor = spawn();
    let sibling = local_connection(&reactor);
    probe(&sibling);
    let unknown_frame_tag = [&9u32.to_le_bytes()[..], &[0x02], &[0; 8]].concat();
    let response = {
        let mut wire = Vec::new();
        encode_frame(&MuxFrame::Response { id: 3, reply: Ok(ReplyValue::Unit) }, &mut wire)
            .unwrap();
        wire
    };
    let download = |id| request(1, id, CudaCall::MemcpyD2H { src: DeviceAddr(0), len: 256 << 10 });
    let cases: Vec<(&str, Vec<u8>, Counter)> = vec![
        (
            "duplicate in-flight request ID",
            [request(HELD, 7, CudaCall::GetDeviceCount), request(HELD, 7, CudaCall::Synchronize)]
                .concat(),
            |s| &s.protocol_errors,
        ),
        ("client-sent response", response, |s| &s.protocol_errors),
        (
            "undecodable frame mid-stream",
            [request(1, 1, CudaCall::Synchronize), unknown_frame_tag].concat(),
            |s| &s.protocol_errors,
        ),
        ("oversized length prefix", [&u32::MAX.to_le_bytes()[..], &[0; 32]].concat(), |s| {
            &s.protocol_errors
        }),
        ("slow loris", [&64u32.to_le_bytes()[..], &[0, 1]].concat(), |s| &s.shed_slow),
        // 16 MiB of replies asked for and never read: past the socket
        // buffers and the 1 MiB bound in one sweep.
        ("peer that never reads", (0..64).flat_map(download).collect(), |s| &s.shed_backlog),
    ];
    for (what, attack, counter) in cases {
        let before = sheds(reactor.stats());
        let expected = counter(reactor.stats()).load(Ordering::Relaxed) + 1;
        let mut attacker = reactor.connect_local().unwrap();
        attacker.write_all(&attack).unwrap();
        // The sibling is served while the attacker waits to be shed (the
        // slow loris for its whole deadline).
        let deadline = Instant::now() + WATCHDOG;
        while counter(reactor.stats()).load(Ordering::Relaxed) < expected {
            assert!(Instant::now() < deadline, "{what}: never shed");
            probe(&sibling);
        }
        expect_eof(&mut attacker, what);
        let after = sheds(reactor.stats());
        let shed: u64 = after.iter().zip(before).map(|(a, b)| a - b).sum();
        assert_eq!(shed, 1, "{what}: shed once, and nothing else: {before:?} → {after:?}");
        assert_eq!(reactor.open_connections(), 1, "{what}: only the sibling is left");
        probe(&sibling);
    }
    assert_eq!(reactor.stats().local.load(Ordering::Relaxed), 7);
    assert_eq!(reactor.stats().accepted.load(Ordering::Relaxed), 0);
}

/// Runs `case` on a thread of its own and fails if it is not done in time.
fn under_watchdog(case: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let case = std::thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    if finished.recv_timeout(WATCHDOG) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
        panic!("a caller on a local connection never came back");
    }
    if let Err(panic) = case.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn local_connections_made_around_the_reactors_end_fail_their_callers_instead_of_hanging() {
    under_watchdog(|| {
        // Before: adopted and served, then the reactor goes.
        let reactor = spawn();
        let served = local_connection(&reactor);
        probe(&served);
        drop(reactor);
        let mut client = FrontendClient::new(served.channel());
        assert_eq!(client.synchronize(), Err(CudaError::Disconnected));
        // After: a further channel on it once the reactor is gone.
        assert_eq!(
            FrontendClient::new(served.channel()).synchronize(),
            Err(CudaError::Disconnected)
        );
        // During: made just before the drop, so adopted or still waiting for
        // adoption when the loop ends, and first used after it. The sink
        // (and with it the list) outlives the reactor, so it is the loop
        // that must close what it never adopted. Every other round the
        // loop is known to be running.
        for round in 0..64 {
            let (reactor, _service) = spawn_with_service();
            if round % 2 == 0 {
                probe(&local_connection(&reactor));
            }
            let late = local_connection(&reactor);
            drop(reactor);
            assert_eq!(
                FrontendClient::new(late.channel()).synchronize(),
                Err(CudaError::Disconnected),
                "round {round}"
            );
        }
    });
}

#[test]
fn a_caller_blocked_on_its_reply_gets_disconnected_when_the_reactor_shuts_down() {
    under_watchdog(|| {
        let (reactor, _service) = spawn_with_service();
        let conn = local_connection(&reactor);
        probe(&conn);
        // A synchronize is never answered: its caller blocks reading the
        // reply side until the reactor's end shuts it.
        let caller = {
            let conn = conn.clone();
            std::thread::spawn(move || FrontendClient::new(conn.channel()).synchronize())
        };
        let deadline = Instant::now() + WATCHDOG;
        while reactor.stats().requests.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < deadline, "the synchronize never reached the reactor");
            std::thread::yield_now();
        }
        drop(reactor);
        assert_eq!(caller.join().unwrap(), Err(CudaError::Disconnected));
        assert!(conn.is_dead());
    });
}

#[test]
fn a_local_peer_that_closes_its_reply_side_and_writes_on_is_retired_once() {
    let (reactor, service) = spawn_with_service();
    let sibling = local_connection(&reactor);
    probe(&sibling);
    let LocalStream { rx, mut tx } = reactor.connect_local().unwrap();
    drop(rx);
    // Every request is answered at once, into a reply side nobody holds:
    // the reply's write fails and retires the connection, whose request
    // side is then shut under the writer.
    let deadline = Instant::now() + WATCHDOG;
    for id in 1.. {
        if tx.write_all(&request(1, id, CudaCall::GetDeviceCount)).is_err() {
            break;
        }
        assert!(Instant::now() < deadline, "a peer with no reply side was never retired");
        std::thread::yield_now();
    }
    // Writes past the retirement fail, and retire nothing more.
    for id in 0..16 {
        assert!(tx.write_all(&request(1, id, CudaCall::GetDeviceCount)).is_err());
        probe(&sibling);
    }
    assert_eq!(service.disconnects.load(Ordering::Relaxed), 1, "on_disconnect once");
    assert_eq!(reactor.open_connections(), 1, "only the sibling is left");
    assert_eq!(sheds(reactor.stats()), [0; 3], "a hang-up, not a shed");
    assert_eq!(reactor.stats().local.load(Ordering::Relaxed), 2);
}

// ---------------------------------------------------------------------
// A listener out of descriptors. `accept` failing with EMFILE leaves the
// connection in the backlog and the listener readable; a reactor that
// polls it again at once spins a CPU until a descriptor frees. The limit is
// per process, so the case runs in a child process of its own: this test
// binary again, told by an environment variable to play the child.
// ---------------------------------------------------------------------

const CHILD: &str = "MTGPU_LOCAL_SOCKET_TEST_CHILD";

#[test]
fn a_listener_out_of_descriptors_leaves_the_reactor_idle_and_serving() {
    if std::env::var_os(CHILD).is_some() {
        return out_of_descriptors();
    }
    let exe = std::env::current_exe().expect("test binary");
    let mut child = std::process::Command::new(exe)
        .args([
            "a_listener_out_of_descriptors_leaves_the_reactor_idle_and_serving",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn the child");
    let deadline = Instant::now() + WATCHDOG;
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    print!("{stdout}");
    assert!(out.status.success(), "child failed ({}):\n{stdout}\n{stderr}", out.status);
}

/// `struct rlimit` from `<sys/resource.h>`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

unsafe extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Lowers this process's soft descriptor limit to `cur`.
fn limit_descriptors(cur: u64) {
    let mut r = RLimit { cur: 0, max: 0 };
    // SAFETY: `r` is a valid, exclusively borrowed `struct rlimit` for the
    // call to fill in, and then a valid one for the call to read.
    let set = unsafe {
        getrlimit(RLIMIT_NOFILE, &mut r) == 0 && {
            r.cur = cur.min(r.max);
            setrlimit(RLIMIT_NOFILE, &r) == 0
        }
    };
    assert!(set, "RLIMIT_NOFILE could not be lowered");
}

/// The reactor thread's CPU time so far, in clock ticks, read through its
/// `stat` file, opened while descriptors were still to be had.
fn cpu_ticks(stat: &std::fs::File) -> u64 {
    use std::os::unix::fs::FileExt;
    let mut buf = [0u8; 1024];
    let n = stat.read_at(&mut buf, 0).expect("reactor stat");
    let line = std::str::from_utf8(&buf[..n]).expect("stat is text");
    // Fields after the `(comm)`: state is the first, utime the 12th and
    // stime the 13th.
    let fields: Vec<&str> =
        line.rsplit_once(')').expect("stat line").1.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// The `stat` file of this process's one `mux-reactor-*` thread.
fn reactor_stat() -> std::fs::File {
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let path = task.expect("task entry").path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.starts_with("mux-reactor-") {
            return std::fs::File::open(path.join("stat")).expect("reactor stat");
        }
    }
    panic!("no mux-reactor thread")
}

/// The child's side: an open TCP connection (two descriptors, one each
/// side) and a local one (four: a socket per direction on each side), then
/// a connection the listener cannot accept, for a second.
fn out_of_descriptors() {
    const WINDOW: Duration = Duration::from_secs(1);
    let reactor = spawn();
    let stats = reactor.stats();
    let (open, paired) =
        (MuxConnection::connect(reactor.addr()).unwrap(), local_connection(&reactor));
    probe(&open);
    probe(&paired);
    let stat = reactor_stat();
    // Take every descriptor but one, and spend that one on the client end
    // of a connection: the kernel completes it into the backlog, and the
    // reactor's `accept` then has no descriptor to give it. The open
    // connections need none more to be served.
    limit_descriptors(256);
    let mut hoard: Vec<std::fs::File> =
        std::iter::from_fn(|| std::fs::File::open("/dev/null").ok()).collect();
    hoard.pop();
    let pending = TcpStream::connect(reactor.addr()).expect("the last descriptor");
    let deadline = Instant::now() + WATCHDOG;
    while stats.accept_failures.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "accept never failed");
        std::thread::yield_now();
    }

    let (ticks, failures) = (cpu_ticks(&stat), stats.accept_failures.load(Ordering::Relaxed));
    std::thread::sleep(WINDOW);
    let ticks = cpu_ticks(&stat) - ticks;
    let failures = stats.accept_failures.load(Ordering::Relaxed) - failures;
    probe(&open);
    probe(&paired);
    println!("out of descriptors for {WINDOW:?}: {ticks} ticks of reactor CPU, {failures} failed accepts");
    // A reactor polling the listener again at once burns the whole window
    // (about 100 ticks at the usual 100 Hz) on millions of failed accepts;
    // one that leaves it out for a poll's timeout retries twice a second.
    assert!(ticks <= 20, "the reactor spent {ticks} ticks of a {WINDOW:?} window");
    assert!(failures <= 10, "{failures} failed accepts in {WINDOW:?}");

    // Descriptors back: the connection waiting in the backlog is served.
    drop(hoard);
    let pending = MuxConnection::from_stream(pending).unwrap();
    probe(&pending);
    assert_eq!(stats.accepted.load(Ordering::Relaxed), 2);
    assert_eq!(stats.local.load(Ordering::Relaxed), 1);
    assert_eq!(reactor.open_connections(), 3);
}
