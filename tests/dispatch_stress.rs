//! Dispatcher stress: many concurrent tenants against one node.
//!
//! Each tenant opens a connection of its own to the node's reactor per
//! request (reconnect mode) or shares a pool of persistent connections
//! (persistent mode) and runs a catalog workload drawn from the seeded short
//! pool, so the whole serving path — connect, channel enqueue,
//! dispatch/bind, launch, unbind, teardown — is exercised under heavy thread
//! contention. The `*_reconnecting_clients` and `*_persistent_clients`
//! cases run `loadgen`, whose tenants sit in the node's process and connect
//! over local socketpairs (`ClusterNode::mux_client`, `mux_pool`); the
//! `*_tcp_clients` cases are remote frontends, each dialing the node's TCP
//! listener per request, so accept, context creation and teardown on
//! hang-up run under the same contention. A watchdog converts a dispatcher
//! deadlock into a loud failure instead of a hung test run.
//!
//! Every launch that cannot bind waits as an entry in the dispatcher's
//! queue, whichever way its client connected; one case drives 256
//! *in-process* clients, which takes the wire and the gateway out of the
//! picture and leaves the queue and its targeted wakeups: each client's own
//! thread runs its calls and blocks in the dispatcher when it cannot bind.
//!
//! The 256-client versions over the wire and the 10k-persistent-connection
//! soak are `#[ignore]`d for ordinary `cargo test` and run by CI tier 4
//! under a hard timeout.

use mtgpu::api::transport::MuxConnection;
use mtgpu::api::{CudaClient, FrontendClient};
use mtgpu::cluster::ClusterNode;
use mtgpu::core::{MetricsSnapshot, NodeRuntime, RuntimeConfig};
use mtgpu::gpusim::{Driver, GpuSpec, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu::simtime::Clock;
use mtgpu::workloads::calib::Scale;
use mtgpu::workloads::{draw_short_kinds, install_kernel_library, register_workload};
use mtgpu_loadgen::{run_load, LoadReport, LoadgenConfig, Mode};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs a load config under a watchdog; panics if it does not finish in
/// `limit` (the no-deadlock assertion).
fn run_with_watchdog(cfg: LoadgenConfig, limit: Duration) -> LoadReport {
    let (tx, rx) = std::sync::mpsc::channel();
    let clients = cfg.clients;
    std::thread::spawn(move || {
        let _ = tx.send(run_load(&cfg));
    });
    match rx.recv_timeout(limit) {
        Ok(report) => report,
        Err(_) => panic!("stress run with {clients} clients did not finish within {limit:?}"),
    }
}

fn assert_clean(report: &LoadReport) {
    let expected = (report.clients * report.requests_per_client) as u64;
    assert_eq!(report.errors, 0, "failed requests: {:?}", report.tenants);
    assert_eq!(report.completed, expected, "every tenant must complete");
    for t in &report.tenants {
        assert_eq!(
            t.completed, report.requests_per_client as u64,
            "tenant {} did not finish all requests",
            t.tenant
        );
    }
    // Binding accounting must balance: after every tenant exits, each
    // grant has a matching unbind and nothing is still bound.
    assert_eq!(
        report.runtime.bindings, report.runtime.unbindings,
        "bindings/unbindings diverged: {:?}",
        report.runtime
    );
    assert!(
        report.runtime.bindings >= expected,
        "each request binds at least once: {} < {expected}",
        report.runtime.bindings
    );
}

/// `clients` remote frontends against a 4-device node with 16 vGPUs, each
/// dialing its TCP listener for its one request: connect, register, run a
/// catalog workload pipelined, exit, hang up. Panics unless every client
/// verified within `limit` (the no-deadlock assertion), came in through
/// `accept`, and left nothing bound; returns the drained node's counters.
fn run_tcp_clients(clients: usize, limit: Duration) -> MetricsSnapshot {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let cfg = RuntimeConfig::paper_default().with_vgpus(4).with_seed(42);
    let node =
        ClusterNode::start("tcp".into(), clock.clone(), vec![GpuSpec::test_small(); 4], cfg, true);
    let addr = node.mux_addr().expect("listening node");
    let (tx, rx) = std::sync::mpsc::channel();
    for kind in draw_short_kinds(clients, 42) {
        let (clock, tx) = (clock.clone(), tx.clone());
        std::thread::spawn(move || {
            let request = || -> Result<bool, String> {
                let conn = MuxConnection::connect(addr).map_err(|e| format!("connect: {e}"))?;
                let mut client = FrontendClient::new(conn.channel()).with_pipelining();
                let job = kind.build(Scale::TINY);
                register_workload(&mut client, job.as_ref())
                    .map_err(|e| format!("register: {e}"))?;
                let report = job.run(&mut client, &clock).map_err(|e| format!("run: {e}"))?;
                client.exit().map_err(|e| format!("exit: {e}"))?;
                Ok(report.verified)
            };
            let _ = tx.send(request());
        });
    }
    drop(tx);
    let deadline = Instant::now() + limit;
    for done in 0..clients {
        let left = deadline.saturating_duration_since(Instant::now());
        let outcome = rx.recv_timeout(left).unwrap_or_else(|_| {
            panic!("only {done} of {clients} TCP clients finished in {limit:?}")
        });
        assert_eq!(outcome, Ok(true), "a TCP client failed");
    }
    assert!(node.runtime().wait_idle(Duration::from_secs(30)), "contexts did not drain");
    let stats = node.mux_stats().expect("listening node");
    let (accepted, local) = (&stats.accepted, &stats.local);
    assert_eq!(accepted.load(Ordering::Relaxed), clients as u64, "every client dialed TCP");
    assert_eq!(local.load(Ordering::Relaxed), 0, "a client took a local socketpair");
    let m = node.metrics();
    assert_eq!(m.bindings, m.unbindings, "bindings/unbindings diverged: {m:?}");
    assert!(m.bindings >= clients as u64, "each request binds at least once: {m:?}");
    node.shutdown();
    m
}

/// Tier-2 variant: enough remote frontends to contend hard for the 16
/// vGPUs, small enough for every `cargo test` run.
#[test]
fn dispatch_stress_48_tcp_clients() {
    run_tcp_clients(48, Duration::from_secs(120));
}

/// The full 256-client stress over TCP: 16× overcommit of the node's vGPUs,
/// one accepted connection per request. Run with
/// `cargo test --release --test dispatch_stress -- --ignored`.
#[test]
#[ignore = "heavy; run by CI tier 4 under a timeout"]
fn dispatch_stress_256_tcp_clients() {
    let m = run_tcp_clients(256, Duration::from_secs(300));
    assert!(m.mux_retries > 0, "no launch ever queued: {m:?}");
}

/// Tier-2 variant of the load harness: enough tenants to contend hard for
/// the 16 vGPUs of a 4-device node, small enough for every `cargo test`
/// run.
#[test]
fn dispatch_stress_48_reconnecting_clients() {
    let cfg = LoadgenConfig {
        mode: Mode::Closed,
        clients: 48,
        requests_per_client: 1,
        seed: 42,
        devices: 4,
        vgpus_per_device: 4,
        clock_scale: 1e-7,
        ..LoadgenConfig::default()
    };
    let report = run_with_watchdog(cfg, Duration::from_secs(120));
    assert_clean(&report);
}

/// Tier-2 persistent variant: the same 48-tenant contention, but over 8
/// long-lived connections instead of one connect per request.
#[test]
fn dispatch_stress_48_persistent_clients() {
    let cfg = LoadgenConfig {
        mode: Mode::Closed,
        clients: 48,
        requests_per_client: 1,
        seed: 42,
        devices: 4,
        vgpus_per_device: 4,
        clock_scale: 1e-7,
        persistent: true,
        connections: 8,
    };
    let report = run_with_watchdog(cfg, Duration::from_secs(120));
    assert_clean(&report);
    assert!(report.persistent);
    assert!(
        report.runtime.mux_requests > 0,
        "persistent mode must ride the mux wire: {:?}",
        report.runtime
    );
}

/// The full 256-client stress: 16× overcommit of the node's vGPUs, mixed
/// catalog workloads, one connection of its own per request. Run with
/// `cargo test --release --test dispatch_stress -- --ignored`.
#[test]
#[ignore = "heavy; run by CI tier 4 under a timeout"]
fn dispatch_stress_256_reconnecting_clients() {
    let cfg = LoadgenConfig {
        mode: Mode::Closed,
        clients: 256,
        requests_per_client: 1,
        seed: 42,
        devices: 4,
        vgpus_per_device: 4,
        clock_scale: 1e-7,
        ..LoadgenConfig::default()
    };
    let report = run_with_watchdog(cfg, Duration::from_secs(300));
    assert_clean(&report);
    // 256 tenants over 16 slots: the run is only meaningful if launches
    // actually found every vGPU taken and queued in the dispatcher.
    assert!(report.runtime.mux_retries > 0, "no launch ever queued: {:?}", report.runtime);
}

/// Names of this process's threads, from `/proc/self/task/*/comm`.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// 256 in-process clients over the same 16 slots, held by 16 other
/// clients until all 256 first launches have queued: hundreds of entries
/// wait in the dispatcher at once and every release must wake the right
/// one.
/// Each client's own thread serves it — runs its calls and blocks in
/// `BindingManager::wait` until its entry is granted — so no connection
/// gets a handler thread, and the node, which has no listener, has no
/// worker pool to hand a call to.
/// Seconds even in a debug build (where the lock-order checker is armed),
/// so it runs with every `cargo test`; CI tier 4 also runs it by name.
#[test]
fn dispatch_stress_256_in_process_clients() {
    const CLIENTS: usize = 256;
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::test_small(); 4]);
    let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default().with_seed(42));
    // Every slot is taken first, so every client's first launch queues: a
    // client runs its calls on its own thread, fast enough in a release
    // build that clients started one by one could each finish before 16
    // others bound, and nothing would ever wait.
    let hogs: Vec<_> = (0..rt.load().total_vgpus)
        .map(|_| {
            let mut hog = rt.local_client();
            let module = hog.register_fat_binary().unwrap();
            hog.register_function(module, KernelDesc::plain("noop")).unwrap();
            let (config, work) = (LaunchConfig::default(), Work::flops(1.0));
            hog.launch(LaunchSpec { kernel: "noop".into(), config, args: Vec::new(), work })
                .unwrap();
            hog
        })
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    for kind in draw_short_kinds(CLIENTS, 42) {
        let (rt, clock, tx) = (Arc::clone(&rt), clock.clone(), tx.clone());
        std::thread::spawn(move || {
            let job = kind.build(Scale::TINY);
            let mut client = rt.local_client();
            register_workload(&mut client, job.as_ref()).expect("register");
            let verified = job.run(&mut client, &clock).expect("run").verified;
            client.exit().expect("exit");
            let _ = tx.send(verified);
        });
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while rt.load().waiting < CLIENTS {
        assert!(Instant::now() < deadline, "only {} clients queued", rt.load().waiting);
        std::thread::yield_now();
    }
    drop(hogs);
    drop(tx);
    for done in 0..CLIENTS {
        let verified = rx
            .recv_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("only {done} of {CLIENTS} in-process clients finished"));
        assert!(verified, "a workload failed verification");
        // With most clients still live: nobody got a handler thread. The
        // node's monitor shows the listing sees its threads; the other
        // tests of this binary may run listening nodes, with workers.
        #[cfg(target_os = "linux")]
        if done == 0 {
            let names = thread_names();
            assert!(names.iter().any(|n| n.starts_with("mtgpu-monitor")), "{names:?}");
            assert!(!names.iter().any(|n| n.starts_with("mtgpu-conn")), "{names:?}");
        }
    }
    assert!(rt.wait_idle(Duration::from_secs(30)), "contexts did not drain");
    let m = rt.metrics();
    assert_eq!(m.bindings, m.unbindings, "bindings/unbindings diverged: {m:?}");
    assert!(m.bindings >= CLIENTS as u64, "each client binds at least once: {m:?}");
    assert!(m.targeted_wakeups > 0, "no waiter was ever parked: {m:?}");
    assert!(m.mux_retries > 0, "no launch ever waited for a vGPU: {m:?}");
    assert_eq!((m.mux_requests, m.mux_channels), (0, 0), "a call went through the gateway");
    rt.shutdown();
}

/// Open-loop pacing under moderate overcommit also drains cleanly.
#[test]
fn dispatch_stress_open_loop_paced() {
    let cfg = LoadgenConfig {
        mode: Mode::Open { rate_per_sec: 400.0 },
        clients: 24,
        requests_per_client: 2,
        seed: 7,
        devices: 2,
        vgpus_per_device: 4,
        clock_scale: 1e-7,
        ..LoadgenConfig::default()
    };
    let report = run_with_watchdog(cfg, Duration::from_secs(120));
    assert_clean(&report);
}

// ---------------------------------------------------------------------
// 10k-persistent-connection soak (out of process)
// ---------------------------------------------------------------------
//
// The file-descriptor hard limit here is 20000 per process, so the node
// daemon runs as a separate OS process: 10k sockets on the client side,
// 10k on the server side, both under their own limit.

/// Raises this process's soft fd limit to the hard cap: the soak holds 10k
/// client sockets, which the default soft limit does not cover. The daemon
/// is spawned afterwards so it inherits the raised limit for its 10k
/// accepted sockets.
#[cfg(target_os = "linux")]
fn raise_fd_limit() {
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
    unsafe {
        let mut r = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut r) == 0 && r.cur < r.max {
            r.cur = r.max;
            let _ = setrlimit(RLIMIT_NOFILE, &r);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_fd_limit() {}

/// Kills the daemon on drop so a failing test never leaks the process.
struct DaemonGuard(Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `node_daemon` (built into the same target directory as this test
/// binary) and returns its endpoint address, parsed from the
/// `listening on <addr>` banner.
fn spawn_daemon() -> (DaemonGuard, SocketAddr) {
    let exe = std::env::current_exe().expect("test exe path");
    // target/<profile>/deps/<test> → target/<profile>/node_daemon
    let dir = exe.parent().and_then(|d| d.parent()).expect("target dir");
    let bin = dir.join(format!("node_daemon{}", std::env::consts::EXE_SUFFIX));
    assert!(
        bin.exists(),
        "{} not built; run `cargo build -p mtgpu-cluster --bin node_daemon` first",
        bin.display()
    );
    let mut child = Command::new(bin)
        .args(["--listen", "127.0.0.1:0", "--gpus", "test,test", "--vgpus", "4", "--clock", "1e-7"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn node_daemon");
    let stdout = child.stdout.take().expect("daemon stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    // Drain stdout for the daemon's whole life so its prints never block
    // or EPIPE; forward the banner we need.
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("listening on ") {
                let _ = tx.send(rest.trim().to_string());
            }
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("daemon never printed its address")
        .parse()
        .expect("daemon printed a valid address");
    (DaemonGuard(child), addr)
}

/// Threads of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads: line");
    line.trim().parse().expect("thread count is a number")
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> usize {
    0
}

/// The soak body: open 10k persistent multiplexed connections, then probe
/// every one of them (fresh channel, device-count roundtrip, exit) from a
/// bounded worker pool. Every connection must stay alive end to end, and
/// none of them may cost the client a thread.
fn soak_10k(addr: SocketAddr) {
    const CONNS: usize = 10_000;
    const WORKERS: usize = 64;
    let conns: Arc<Vec<MuxConnection>> = Arc::new(
        (0..CONNS)
            .map(|i| {
                MuxConnection::connect(addr)
                    .unwrap_or_else(|e| panic!("connection {i} failed to open: {e}"))
            })
            .collect(),
    );
    // A connection is a socket and some state: its replies are read by the
    // thread that asks. (The test harness and the daemon's stdout drain are
    // the handful of threads there are.)
    let threads = thread_count();
    assert!(threads < 200, "{threads} threads with {CONNS} connections open and nobody calling");
    let failures = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let conns = Arc::clone(&conns);
            let failures = Arc::clone(&failures);
            s.spawn(move || {
                let mut i = w;
                while i < CONNS {
                    let mut client = FrontendClient::new(conns[i].channel());
                    // 2 devices × 4 vGPUs served by the daemon.
                    let ok = client.get_device_count() == Ok(8) && client.exit().is_ok();
                    if !ok {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    i += WORKERS;
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::Relaxed), 0, "some probes failed");
    let threads = thread_count();
    assert!(threads < 200, "{threads} threads after probing {CONNS} connections");
    let dead = conns.iter().filter(|c| c.is_dead()).count();
    assert_eq!(dead, 0, "{dead} of {CONNS} persistent connections died during the soak");
    for c in conns.iter() {
        c.shutdown();
    }
}

/// 10k persistent connections multiplexed through one reactor, every one
/// probed end-to-end. Run with
/// `cargo test --release --test dispatch_stress -- --ignored`.
#[test]
#[ignore = "10k sockets on each side, two processes; run by CI tier 4 under a timeout"]
fn dispatch_soak_10k_persistent_connections() {
    raise_fd_limit();
    let (daemon, addr) = spawn_daemon();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        soak_10k(addr);
        let _ = tx.send(());
    });
    // Watchdog: a stalled reactor shows up as a loud failure, not a hang.
    rx.recv_timeout(Duration::from_secs(540))
        .expect("10k-connection soak did not finish within the watchdog");
    drop(daemon);
}
