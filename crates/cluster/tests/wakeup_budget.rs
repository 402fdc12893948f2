//! Structural wake-up budget of the mux serving path (DESIGN.md §12): how
//! often the calling thread, the gateway's workers and the reactor go to
//! sleep per call, read from the kernel's own per-thread counters. The
//! eager launch is read over both socket families, a TCP connection to the
//! listener and the local connection `mux_client` opens (two one-way
//! Unix-domain socketpairs), under the same bounds, and on an in-process
//! client, which no serving thread sees; the other cases run over
//! `mux_pool`'s local connections.
//! Independent of wall time, so it holds on a loaded machine; alone in its
//! test binary and one case at a time, so every `mux-*` thread of the
//! process belongs to the one node a case starts.
#![cfg(target_os = "linux")]

use mtgpu_api::protocol::{AllocKind, CudaCall, ReplyValue};
use mtgpu_api::transport::{FrontendClient, MuxConnection, SWEEP_RUN_BUDGET};
use mtgpu_api::{CudaClient, Transport};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::mux::VISIT_BUDGET;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::{GpuSpec, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;
use std::sync::atomic::Ordering;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One case at a time: the counters below are per process.
static ONE_NODE: Mutex<()> = Mutex::new(());

/// A node that shuts down when dropped, by a case that panics too: its
/// `mux-*` threads would otherwise outlive the case and be counted by the
/// next one.
struct Node(Option<ClusterNode>);

impl Node {
    fn start(name: &str, devices: usize, listen: bool) -> Node {
        let (clock, config) = (Clock::with_scale(1e-7), RuntimeConfig::paper_default());
        let specs = vec![GpuSpec::test_small(); devices];
        Node(Some(ClusterNode::start(name.into(), clock, specs, config, listen)))
    }

    /// Shuts the node down now: dropping it does.
    fn shutdown(self) {}
}

impl std::ops::Deref for Node {
    type Target = ClusterNode;

    fn deref(&self) -> &ClusterNode {
        self.0.as_ref().expect("a running node")
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(node) = self.0.take() {
            node.shutdown();
        }
    }
}

fn node() -> Node {
    Node::start("wake", 1, true)
}

/// `voluntary_ctxt_switches` of the task whose procfs directory is `task`,
/// if it is still there and its name starts with `prefix`.
fn switches_of(task: &std::path::Path, prefix: &str) -> Option<u64> {
    // A thread may exit between a listing and the reads.
    if !std::fs::read_to_string(task.join("comm")).ok()?.starts_with(prefix) {
        return None;
    }
    let status = std::fs::read_to_string(task.join("status")).ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("status has the counter");
    Some(line.trim().parse().expect("counter is a number"))
}

/// `voluntary_ctxt_switches` of every thread of this process whose name
/// starts with `prefix` (thread names are cut to 15 bytes by the kernel).
fn switches_by_thread(prefix: &str) -> Vec<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks.filter_map(|task| switches_of(&task.expect("task entry").path(), prefix)).collect()
}

/// Σ `voluntary_ctxt_switches` over the threads named `prefix`*.
fn voluntary_switches(prefix: &str) -> u64 {
    let counts = switches_by_thread(prefix);
    assert!(!counts.is_empty(), "no thread named {prefix}*");
    counts.iter().sum()
}

/// A client connection is a socket and some state, not a thread.
fn assert_no_reader_thread() {
    let readers = switches_by_thread("mux-reader").len();
    assert_eq!(readers, 0, "a client connection has a thread again");
}

/// The node's clients reached its reactor over `conns` local connections
/// and dialed no TCP: what is measured here is the path `mux_client` and
/// `mux_pool` take.
fn assert_local(node: &ClusterNode, conns: u64) {
    let stats = node.mux_stats().expect("a listening node");
    assert_eq!(stats.local.load(Ordering::Relaxed), conns, "local connections adopted");
    assert_eq!(stats.accepted.load(Ordering::Relaxed), 0, "a client dialed the TCP listener");
}

/// Requests the node's reactor has read so far, and how many of them it ran
/// itself.
fn wire_calls(node: &ClusterNode) -> (u64, u64) {
    let stats = node.mux_stats().expect("a listening node");
    (stats.requests.load(Ordering::Relaxed), stats.ran_inline.load(Ordering::Relaxed))
}

/// Waits until the node's reactor and pool have started: a thread names
/// itself as it starts, and a case that never goes over the wire gives
/// them no other reason to run. Started means a reactor is up and the
/// number of `mux-worker-*` threads reads the same twice, 50 ms apart.
fn serving_threads_started() {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut workers = 0;
    loop {
        let now = switches_by_thread("mux-worker-").len();
        if now > 0 && now == workers && !switches_by_thread("mux-reactor-").is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "the node's serving threads never started");
        workers = now;
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Times the calling thread has gone to sleep so far.
fn own_switches() -> u64 {
    switches_of(std::path::Path::new("/proc/thread-self"), "").expect("the calling thread")
}

/// Sleeps per eager launch: the calling thread's, Σ `mux-worker-*`'s and
/// the reactor's.
struct LaunchSleeps {
    caller: f64,
    workers: f64,
    reactor: f64,
}

/// Runs eager launches on `client`, a connection to `node`, and reads who
/// slept how often; asserts what does not depend on the socket family, and
/// leaves the caller's bound to the case. One launch is two frames in one
/// write: one poll wake-up, and the reactor runs both calls itself and
/// writes both replies in one go, which the caller reads itself — no
/// worker, and no thread per connection to pass them on. Through a worker
/// it was one sleep per launch more; before the hand-offs were targeted,
/// the eight-plus workers slept ≈16 times per launch.
fn eager_launch_sleeps(node: &ClusterNode, client: &mut dyn CudaClient) -> LaunchSleeps {
    const LAUNCHES: u64 = 2_000;
    let module = client.register_fat_binary().unwrap();
    client.register_function(module, KernelDesc::plain("wake_noop")).unwrap();
    let spec = LaunchSpec {
        kernel: "wake_noop".into(),
        config: LaunchConfig::default(),
        args: Vec::new(),
        work: Work::flops(1.0),
    };
    // Bind the context and let every pool thread reach its parking spot.
    for _ in 0..50 {
        client.launch(spec.clone()).unwrap();
    }

    let before = wire_calls(node);
    let (workers, reactor, caller) =
        (voluntary_switches("mux-worker-"), voluntary_switches("mux-reactor-"), own_switches());
    for _ in 0..LAUNCHES {
        client.launch(spec.clone()).unwrap();
    }
    let caller = own_switches() - caller;
    let workers = voluntary_switches("mux-worker-") - workers;
    let reactor = voluntary_switches("mux-reactor-") - reactor;
    let after = wire_calls(node);

    let per_launch = |n: u64| n as f64 / LAUNCHES as f64;
    let sleeps = LaunchSleeps {
        caller: per_launch(caller),
        workers: per_launch(workers),
        reactor: per_launch(reactor),
    };
    let (calls, inline) = (after.0 - before.0, after.1 - before.1);
    println!(
        "per launch: {:.2} caller sleeps, {:.2} worker sleeps, {:.2} reactor sleeps; \
         {inline} of {calls} calls run on the reactor",
        sleeps.caller, sleeps.workers, sleeps.reactor
    );
    assert_no_reader_thread();
    assert!(
        sleeps.workers <= 0.1,
        "{:.2} worker sleeps per launch — is the reactor handing launches to the pool again?",
        sleeps.workers
    );
    assert!(
        sleeps.reactor <= 1.2,
        "{:.2} reactor sleeps per launch — is the reactor woken to write replies again?",
        sleeps.reactor
    );
    assert_eq!(calls, 2 * LAUNCHES);
    assert!(inline * 100 >= calls * 99, "the reactor ran {inline} of {calls} calls itself");
    client.exit().unwrap();
    sleeps
}

/// A remote frontend's path, over TCP to the listener: the caller sleeps
/// once per launch, for its replies.
#[test]
fn an_eager_launch_puts_caller_and_reactor_to_sleep_once_each_and_no_worker() {
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let node = node();
    let conn = MuxConnection::connect(node.mux_addr().unwrap()).unwrap();
    let sleeps = eager_launch_sleeps(&node, &mut FrontendClient::new(conn.channel()));
    let stats = node.mux_stats().unwrap();
    assert_eq!(
        (stats.accepted.load(Ordering::Relaxed), stats.local.load(Ordering::Relaxed)),
        (1, 0)
    );
    assert!(
        sleeps.caller <= 1.2,
        "{:.2} caller sleeps per launch — is its reply handed over by another thread again?",
        sleeps.caller
    );
    node.shutdown();
}

/// An application on the node, over the local connection `mux_client`
/// opens: the caller sleeps once per launch, for its replies, as over TCP.
/// A local connection is two one-way socketpairs, so the reactor draining
/// the request frees send space on a socket nobody sleeps on. Over one
/// bidirectional socketpair the caller, blocked in `read` on the socket
/// whose space was freed, was woken for nothing on many launches, found no
/// reply and slept again: 1.2–2.0 sleeps per launch (DESIGN.md §12).
#[test]
fn an_eager_launch_over_a_local_connection_puts_the_caller_to_sleep_once_as_over_tcp() {
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let node = node();
    let sleeps = eager_launch_sleeps(&node, &mut node.mux_client().unwrap());
    assert_local(&node, 1);
    assert!(
        sleeps.caller <= 1.2,
        "{:.2} caller sleeps per launch — is the request's drain waking the caller again, \
         or its reply handed over by another thread?",
        sleeps.caller
    );
    node.shutdown();
}

/// An in-process client (`node.client()`) runs its calls on its own
/// thread: an eager launch wakes no worker and no reactor, and the caller
/// sleeps only if something else makes it (under a tenth of a sleep per
/// launch). Through the gateway's pool each launch cost a worker wake-up
/// and a caller sleep. The reactor's idle poll times out every 500 ms, so
/// the reading is the least of three rounds of tens of milliseconds each:
/// at most one of them can hold that tick.
#[test]
fn an_eager_in_process_launch_puts_no_serving_thread_to_sleep() {
    const LAUNCHES: u64 = 2_000;
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let node = node();
    let mut client = node.client();
    let module = client.register_fat_binary().unwrap();
    client.register_function(module, KernelDesc::plain("wake_noop")).unwrap();
    let spec = LaunchSpec {
        kernel: "wake_noop".into(),
        config: LaunchConfig::default(),
        args: Vec::new(),
        work: Work::flops(1.0),
    };
    serving_threads_started();
    for _ in 0..50 {
        client.launch(spec.clone()).unwrap();
    }
    let rounds: Vec<[u64; 3]> = (0..3)
        .map(|_| {
            let before = [
                voluntary_switches("mux-worker-"),
                voluntary_switches("mux-reactor-"),
                own_switches(),
            ];
            for _ in 0..LAUNCHES {
                client.launch(spec.clone()).unwrap();
            }
            let after = [
                voluntary_switches("mux-worker-"),
                voluntary_switches("mux-reactor-"),
                own_switches(),
            ];
            [0, 1, 2].map(|i| after[i] - before[i])
        })
        .collect();
    let least = |i: usize| rounds.iter().map(|round| round[i]).min().expect("three rounds");
    let (workers, reactor, caller) = (least(0), least(1), least(2));
    println!(
        "per {LAUNCHES} in-process launches, least of three rounds: {caller} caller, \
         {workers} worker, {reactor} reactor sleeps"
    );
    assert_eq!(workers, 0, "a worker served an in-process call");
    assert_eq!(reactor, 0, "the reactor saw an in-process call");
    assert!(
        caller * 10 <= LAUNCHES,
        "{caller} caller sleeps in {LAUNCHES} launches — is the call handed to another thread?"
    );
    assert_eq!(wire_calls(&node), (0, 0));
    assert_eq!(node.mux_channel_count(), 0);
    client.exit().unwrap();
    node.shutdown();
}

/// The wire brings its own threads: a node started without a listener
/// runs an in-process workload with no `mux-worker-*` thread and no
/// reactor, and a listening node has exactly `total_vgpus + 4` workers.
#[test]
fn worker_threads_start_with_the_listener() {
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let quiet = Node::start("quiet", 2, false);
    let mut client = quiet.client();
    let module = client.register_fat_binary().unwrap();
    client.register_function(module, KernelDesc::plain("wake_noop")).unwrap();
    let spec = LaunchSpec {
        kernel: "wake_noop".into(),
        config: LaunchConfig::default(),
        args: Vec::new(),
        work: Work::flops(1.0),
    };
    let ptr = client.malloc(4096).unwrap();
    for _ in 0..50 {
        client.launch(spec.clone()).unwrap();
    }
    client.free(ptr).unwrap();
    client.exit().unwrap();
    assert_eq!(quiet.metrics().launches, 50);
    assert_eq!(switches_by_thread("mux-worker-").len(), 0, "a node with no wire has workers");
    assert_eq!(switches_by_thread("mux-reactor-").len(), 0);
    quiet.shutdown();

    let node = node();
    serving_threads_started();
    let workers = switches_by_thread("mux-worker-").len();
    assert_eq!(workers, node.runtime().load().total_vgpus + 4);
    node.shutdown();
}

/// A pipelined flush longer than the reactor's burst bound K: each run of it
/// (the channel's frames from one read) is the pool's whole, whose visits
/// take [`VISIT_BUDGET`] calls each, and the calls run in call order (each
/// malloc's address is above the one before it). A flush queued whole costs
/// ⌈n / `VISIT_BUDGET`⌉ hand-offs, each waking one worker that sleeps again
/// once; that count is pinned exactly where the test plays the pool
/// (`mux.rs`, `pipelined_flush_costs_one_hand_off_per_visit_budget_and_keeps_order`).
/// Here the flush spans a few reads, and a visit may drain the FIFO and let
/// go before the next run arrives, which then is a hand-off of its own:
/// release builds read 3–4 worker sleeps a flush. The test holds them to a
/// quarter of the 160 that a hand-off per call would cost. The reactor runs
/// none of a flush but a read's last run of at most K calls that finds the
/// channel idle, and so never more than K a flush.
#[test]
fn a_flush_past_the_burst_bound_costs_one_hand_off_per_visit_budget_and_keeps_order() {
    const CALLS: usize = 160; // a full client pipeline
    const FLUSHES: u64 = 200;
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let hand_offs = CALLS.div_ceil(VISIT_BUDGET) as u64;
    let node = node();
    let pool = node.mux_pool(1).unwrap();
    let mut chan = pool.channel();
    let malloc = || CudaCall::Malloc { size: 64, kind: AllocKind::Linear };
    let mut flush = |last: &mut u64| {
        for reply in chan.roundtrip_batch(&mut vec![malloc(); CALLS]) {
            let Ok(ReplyValue::Ptr(ptr)) = reply else { panic!("malloc failed: {reply:?}") };
            assert!(ptr.0 > *last, "{ptr:?} allocated after {last:#x}: calls ran out of order");
            *last = ptr.0;
        }
    };
    let mut last = 0;
    flush(&mut last);

    let ((_, before), workers) = (wire_calls(&node), voluntary_switches("mux-worker-"));
    for _ in 0..FLUSHES {
        flush(&mut last);
    }
    let workers = voluntary_switches("mux-worker-") - workers;
    let inline = wire_calls(&node).1 - before;
    println!(
        "per flush of {CALLS}: {:.2} worker sleeps ({hand_offs} hand-offs if queued whole), {:.2} calls on the reactor",
        workers as f64 / FLUSHES as f64,
        inline as f64 / FLUSHES as f64
    );
    let per_call = CALLS as u64 * FLUSHES;
    assert!(4 * workers <= per_call, "{workers} worker sleeps in {FLUSHES} flushes");
    let burst = SWEEP_RUN_BUDGET as u64 * FLUSHES;
    assert!(inline <= burst, "{inline} calls on the reactor");
    assert_local(&node, 1);
    drop(chan);
    drop(pool);
    node.shutdown();
}

/// Sixteen callers on one connection: a reply wakes whoever is reading, and
/// that caller wakes the one the reply is for; a caller that leaves wakes
/// one successor. Three sleeps per call at most, summed over all callers —
/// waking every waiting caller per reply, or per hand-off, would make it
/// sixteen.
#[test]
fn sixteen_callers_on_one_connection_sleep_three_times_per_call_between_them() {
    const CALLERS: usize = 16;
    const CALLS: u64 = 500;
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let node = node();
    let pool = node.mux_pool(1).unwrap();
    let start = Barrier::new(CALLERS);
    let sleeps: u64 = std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = FrontendClient::new(pool.channel());
                    client.get_device_count().unwrap();
                    start.wait();
                    let before = own_switches();
                    for _ in 0..CALLS {
                        client.get_device_count().unwrap();
                    }
                    let sleeps = own_switches() - before;
                    client.exit().unwrap();
                    sleeps
                })
            })
            .collect();
        callers.into_iter().map(|caller| caller.join().expect("caller thread")).sum()
    });
    let calls = CALLERS as u64 * CALLS;
    let per_call = sleeps as f64 / calls as f64;
    assert_no_reader_thread();
    assert_local(&node, 1);
    assert!(sleeps <= 3 * calls, "{per_call:.2} caller sleeps per call — who is waking everybody?");
    println!("per call, over {CALLERS} callers: {per_call:.2} caller sleeps");
    drop(pool);
    node.shutdown();
}
