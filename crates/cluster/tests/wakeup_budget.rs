//! Structural wake-up budget of the mux serving path (DESIGN.md §12): how
//! often the calling thread, the gateway's workers and the reactor go to
//! sleep per call, read from the kernel's own per-thread counters.
//! Independent of wall time, so it holds on a loaded machine; alone in its
//! test binary and one case at a time, so every `mux-*` thread of the
//! process belongs to the one node a case starts.
#![cfg(target_os = "linux")]

use mtgpu_api::CudaClient;
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::{GpuSpec, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;
use std::sync::{Barrier, Mutex};

/// One case at a time: the counters below are per process.
static ONE_NODE: Mutex<()> = Mutex::new(());

fn node() -> ClusterNode {
    ClusterNode::start(
        "wake".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::test_small()],
        RuntimeConfig::paper_default(),
        true,
    )
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

/// Times the calling thread has gone to sleep so far.
fn own_switches() -> u64 {
    switches_of(std::path::Path::new("/proc/thread-self"), "").expect("the calling thread")
}

#[test]
fn an_eager_launch_puts_caller_reactor_and_one_worker_to_sleep_once_each() {
    const LAUNCHES: u64 = 2_000;
    let _alone = ONE_NODE.lock().unwrap_or_else(|e| e.into_inner());
    let node = node();
    let mut client = node.mux_client().unwrap();
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

    let (workers, reactor, caller) =
        (voluntary_switches("mux-worker-"), voluntary_switches("mux-reactor-"), own_switches());
    for _ in 0..LAUNCHES {
        client.launch(spec.clone()).unwrap();
    }
    let caller = own_switches() - caller;
    let workers = voluntary_switches("mux-worker-") - workers;
    let reactor = voluntary_switches("mux-reactor-") - reactor;

    // One launch is two frames in one write: one poll wake-up, one worker
    // hand-off, replies written by the worker and read by the caller
    // itself — there is no thread per connection to pass them on. Before
    // the hand-offs were made targeted the eight-plus workers slept ≈16
    // times per launch.
    let per_launch = |n: u64| n as f64 / LAUNCHES as f64;
    assert_no_reader_thread();
    assert!(
        caller <= 2 * LAUNCHES,
        "{:.2} caller sleeps per launch — is its reply handed over by another thread again?",
        per_launch(caller)
    );
    assert!(
        workers <= 2 * LAUNCHES,
        "{:.2} worker sleeps per launch — is the work queue waking the whole pool again?",
        per_launch(workers)
    );
    assert!(
        reactor <= 2 * LAUNCHES,
        "{:.2} reactor sleeps per launch — are replies going through the reactor again?",
        per_launch(reactor)
    );
    println!(
        "per launch: {:.2} caller sleeps, {:.2} worker sleeps, {:.2} reactor sleeps",
        per_launch(caller),
        per_launch(workers),
        per_launch(reactor)
    );
    client.exit().unwrap();
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
                    let mut client = mtgpu_api::transport::FrontendClient::new(pool.channel());
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
    assert!(sleeps <= 3 * calls, "{per_call:.2} caller sleeps per call — who is waking everybody?");
    println!("per call, over {CALLERS} callers: {per_call:.2} caller sleeps");
    drop(pool);
    node.shutdown();
}
