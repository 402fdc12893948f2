//! The scheduling policy holds for every tenant, whichever way it connects.
//!
//! The `examples/scheduler_policies.rs` shape — one vGPU, two long jobs
//! arrive first, six short ones behind them — with every job hinting its
//! length and the arrivals sequenced, so the order in which the dispatcher
//! binds the waiting contexts is the configured policy's and nothing else's.
//! One script, two transports: in-process clients and clients on a socket of
//! their own must be bound in the same order (before the gateway queued
//! remote launches in the dispatcher, remote tenants got FIFO whatever the
//! policy said).

use mtgpu::api::{CudaCall, CudaClient, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu::cluster::ClusterNode;
use mtgpu::core::{RuntimeConfig, SchedulerPolicy, TraceEvent};
use mtgpu::gpusim::GpuSpec;
use mtgpu::simtime::Clock;
use std::time::{Duration, Instant};

/// Hinted job lengths in arrival order: two long jobs, then six short ones
/// of pairwise different lengths, longest first.
const HINTS: [f64; 8] = [1e12, 1e12, 6e6, 5e6, 4e6, 3e6, 2e6, 1e6];

const KERNEL: &str = "policy_probe";

fn launch() -> LaunchSpec {
    LaunchSpec {
        kernel: KERNEL.into(),
        config: LaunchConfig::default(),
        args: Vec::new(),
        work: Work::flops(1.0),
    }
}

fn register(client: &mut impl CudaClient) {
    let module = client.register_fat_binary().unwrap();
    client.register_function(module, KernelDesc::plain(KERNEL)).unwrap();
}

/// Runs the script under `policy` with clients made by `connect`, and
/// returns the jobs (indices into [`HINTS`]) in the order they were bound.
fn bind_order<C: CudaClient + Send + 'static>(
    policy: SchedulerPolicy,
    connect: impl Fn(&ClusterNode) -> C,
) -> Vec<usize> {
    let cfg = RuntimeConfig::serialized().with_scheduler(policy);
    let node = ClusterNode::start(
        "n0".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::test_small()],
        cfg,
        true,
    );
    let rt = node.runtime();
    // A first tenant holds the node's only vGPU until everyone has queued.
    let mut hog = connect(&node);
    register(&mut hog);
    hog.launch(launch()).unwrap();
    let jobs: Vec<_> = HINTS
        .iter()
        .enumerate()
        .map(|(i, &flops)| {
            let mut client = connect(&node);
            let job = std::thread::spawn(move || {
                register(&mut client);
                client.call(CudaCall::HintJobLength { flops }).unwrap();
                client.launch(launch()).unwrap();
                // Leaving is what passes the vGPU on.
                client.exit().unwrap();
            });
            // The next job arrives once this one's launch waits.
            let deadline = Instant::now() + Duration::from_secs(60);
            while rt.load().waiting <= i {
                assert!(Instant::now() < deadline, "job {i} never queued for the vGPU");
                std::thread::yield_now();
            }
            job
        })
        .collect();
    hog.exit().unwrap();
    jobs.into_iter().for_each(|job| job.join().unwrap());

    // Arrivals were sequenced, so context ids follow job order: the hog's is
    // the lowest, job `i`'s the `i + 1`-th.
    let trace = rt.trace();
    let mut contexts: Vec<_> = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::ContextCreated { ctx, .. } => Some(ctx),
            _ => None,
        })
        .collect();
    contexts.sort_unstable();
    assert_eq!(contexts.len(), HINTS.len() + 1);
    let order = trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Bound { ctx, .. } => contexts.iter().position(|c| *c == ctx),
            _ => None,
        })
        .filter_map(|created| created.checked_sub(1))
        .collect();
    assert!(rt.wait_idle(Duration::from_secs(30)));
    let m = node.metrics();
    assert_eq!(m.bindings, m.unbindings, "{m:?}");
    node.shutdown();
    order
}

fn over_the_wire(policy: SchedulerPolicy) -> Vec<usize> {
    bind_order(policy, |node| node.mux_client().unwrap())
}

fn in_process(policy: SchedulerPolicy) -> Vec<usize> {
    bind_order(policy, ClusterNode::client)
}

#[test]
fn shortest_job_first_holds_over_the_wire() {
    // Shortest hint first; the two long jobs, tied, in arrival order.
    assert_eq!(over_the_wire(SchedulerPolicy::ShortestJobFirst), [7, 6, 5, 4, 3, 2, 0, 1]);
}

#[test]
fn fcfs_binds_remote_tenants_in_first_launch_order() {
    assert_eq!(over_the_wire(SchedulerPolicy::FcfsRoundRobin), [0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn every_policy_orders_remote_and_in_process_tenants_alike() {
    for policy in [
        SchedulerPolicy::FcfsRoundRobin,
        SchedulerPolicy::ShortestJobFirst,
        SchedulerPolicy::CreditBased,
    ] {
        assert_eq!(over_the_wire(policy), in_process(policy), "{policy:?}");
    }
}
