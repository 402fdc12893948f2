//! The reactor's run-to-completion rule at deployment scale (DESIGN.md §12):
//! on `node_daemon`'s default clock a long kernel is the pool's, and so is a
//! short launch that would queue behind it on the same device, so the reactor
//! keeps reading — and answering — every other connection while they wait.

use mtgpu_api::CudaClient;
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::{DeviceId, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

fn spec(kernel: &str, flops: f64, args: Vec<KernelArg>) -> LaunchSpec {
    let config = LaunchConfig::default();
    LaunchSpec { kernel: kernel.into(), config, args, work: Work::flops(flops) }
}

#[test]
fn a_long_kernel_and_a_launch_behind_it_wait_on_the_pool_while_other_calls_are_answered() {
    let cfg = RuntimeConfig::default().with_background_monitor(false);
    let node = ClusterNode::start(
        "deploy".into(),
        Clock::with_scale(1e-3),
        vec![GpuSpec::test_small()],
        cfg,
        true,
    );
    let gpu = node.runtime().driver().device(DeviceId(0)).unwrap();
    let client = || node.mux_client().unwrap();
    let (mut busy, mut behind, mut probe) = (client(), client(), client());
    for (app, kernel) in [(&mut busy, "long"), (&mut behind, "tiny")] {
        let module = app.register_fat_binary().unwrap();
        app.register_function(module, KernelDesc::plain(kernel)).unwrap();
    }
    // About 39 simulated seconds on this device: 39 ms of real time. The
    // tiny launch's own worst case is ~17 µs of real time, well inside the
    // reactor's limit; what it would wait for is the long kernel ahead of it.
    let long = spec("long", 1e13, Vec::new());
    let tiny = spec("tiny", 1.0, vec![KernelArg::Ptr(behind.malloc(4096).unwrap())]);
    probe.get_device_count().unwrap();

    let (kernel, mut round_trips) = std::thread::scope(|s| {
        let kernel = s.spawn(|| {
            let t0 = Instant::now();
            busy.launch(long).unwrap();
            t0.elapsed()
        });
        let queued_behind = |depth| {
            while gpu.compute_queue_depth() < depth {
                assert!(!kernel.is_finished(), "the long kernel ended before the probes");
                std::thread::yield_now();
            }
        };
        queued_behind(1);
        let waiting = s.spawn(|| behind.launch(tiny).unwrap());
        queued_behind(2);
        // Round trips on a third connection, allocation included, for as
        // long as the tiny launch waits behind the long kernel.
        let mut round_trips = Vec::new();
        while gpu.compute_queue_depth() >= 2 {
            let t0 = Instant::now();
            probe.malloc(64).unwrap();
            assert_eq!(probe.get_device_count().unwrap(), 4);
            round_trips.push(t0.elapsed());
        }
        waiting.join().unwrap();
        (kernel.join().unwrap(), round_trips)
    });

    assert!(kernel >= Duration::from_millis(20), "the kernel took {kernel:?} of real time");
    // A reactor that waited for the device would answer one probe in the
    // rest of the kernel's time. One that does not answers hundreds, in tens
    // of microseconds each; a host that steals the CPU for milliseconds now
    // and then delays a few of them, so the typical one is what is held
    // under 5 ms, not the slowest.
    round_trips.sort();
    let (probes, slowest) = (round_trips.len(), round_trips.last().copied().unwrap_or_default());
    let median = round_trips.get(probes / 2).copied().unwrap_or_default();
    assert!(probes >= 20, "{probes} round trips beside the kernel, the slowest {slowest:?}");
    assert!(median < Duration::from_millis(5), "the median round trip took {median:?}");
    // Every call so far ran on the reactor but three. The long launch's
    // worst case is far over the reactor's limit at this clock, so its run
    // (the `ConfigureCall` ahead of it and the launch) is the pool's whole;
    // the tiny launch's `ConfigureCall` ran here, and the launch found the
    // device busy with the long one.
    let stats = node.mux_stats().unwrap();
    let requests = stats.requests.load(Ordering::Relaxed);
    assert_eq!(stats.ran_inline.load(Ordering::Relaxed), requests - 3, "of {requests}");
    // All three clients came over local socketpairs, none over TCP: the
    // rule holds on the path an application on the node takes.
    assert_eq!(stats.local.load(Ordering::Relaxed), 3);
    assert_eq!(stats.accepted.load(Ordering::Relaxed), 0);
    println!(
        "kernel {kernel:?}; {probes} round trips beside it: median {median:?}, slowest {slowest:?}"
    );
    for app in [busy, behind, probe].iter_mut() {
        app.exit().unwrap();
    }
    node.shutdown();
}
