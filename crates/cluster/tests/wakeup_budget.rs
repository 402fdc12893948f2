//! Structural wake-up budget of the mux serving path (DESIGN.md §12): how
//! often the gateway's workers and the reactor go to sleep per eager
//! launch, read from the kernel's own per-thread counters. Independent of
//! wall time, so it holds on a loaded machine; alone in its test binary, so
//! every `mux-*` thread of the process belongs to the one node below.
#![cfg(target_os = "linux")]

use mtgpu_api::CudaClient;
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::{GpuSpec, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;

/// Σ `voluntary_ctxt_switches` over this process's threads whose name
/// starts with `prefix` (thread names are cut to 15 bytes by the kernel).
fn voluntary_switches(prefix: &str) -> u64 {
    let mut total = 0;
    let mut threads = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        // A thread may exit between the listing and the reads.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if !comm.starts_with(prefix) {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status has the counter");
        total += line.trim().parse::<u64>().expect("counter is a number");
        threads += 1;
    }
    assert!(threads > 0, "no thread named {prefix}*");
    total
}

#[test]
fn an_eager_launch_wakes_one_worker_once_not_the_pool() {
    const LAUNCHES: u64 = 2_000;
    let node = ClusterNode::start(
        "wake".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::test_small()],
        RuntimeConfig::paper_default(),
        true,
    );
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

    let (workers, reactor) =
        (voluntary_switches("mux-worker-"), voluntary_switches("mux-reactor-"));
    for _ in 0..LAUNCHES {
        client.launch(spec.clone()).unwrap();
    }
    let workers = voluntary_switches("mux-worker-") - workers;
    let reactor = voluntary_switches("mux-reactor-") - reactor;

    // One launch is two frames in one write: one poll wake-up, one worker
    // hand-off, replies written by the worker. Before the hand-offs were
    // made targeted the eight-plus workers slept ≈16 times per launch.
    let per_launch = |n: u64| n as f64 / LAUNCHES as f64;
    assert!(
        workers <= 3 * LAUNCHES,
        "{:.2} worker sleeps per launch — is the work queue waking the whole pool again?",
        per_launch(workers)
    );
    assert!(
        reactor <= 3 * LAUNCHES,
        "{:.2} reactor sleeps per launch — are replies going through the reactor again?",
        per_launch(reactor)
    );
    println!(
        "per launch: {:.2} worker sleeps, {:.2} reactor sleeps",
        per_launch(workers),
        per_launch(reactor)
    );
    client.exit().unwrap();
    node.shutdown();
}
