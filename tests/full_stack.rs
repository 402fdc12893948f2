//! Full-stack integration: Table 2 workloads through every deployment
//! shape the paper describes — in-process frontends, TCP frontends on the
//! node's endpoint (the VM / remote-application path), a TORQUE-scheduled
//! cluster, and inter-node offloading — with functional verification throughout.

use mtgpu::api::{CudaClient, FrontendClient, MuxConnection};
use mtgpu::cluster::{Cluster, ClusterNode, GpuVisibility, Torque};
use mtgpu::core::{NodeRuntime, RuntimeConfig};
use mtgpu::gpusim::{Driver, GpuSpec};
use mtgpu::simtime::Clock;
use mtgpu::workloads::calib::Scale;
use mtgpu::workloads::{install_kernel_library, register_workload, run_batch, AppKind};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mixed_batch_on_three_gpu_node() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-6);
    let driver = Driver::with_devices(
        clock.clone(),
        vec![GpuSpec::tesla_c2050(), GpuSpec::tesla_c2050(), GpuSpec::tesla_c1060()],
    );
    let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
    // Two of each Table 2 program, all concurrent.
    let jobs: Vec<_> =
        AppKind::all().iter().flat_map(|k| [k.build(Scale::TINY), k.build(Scale::TINY)]).collect();
    let clients: Vec<Box<dyn CudaClient>> =
        jobs.iter().map(|_| Box::new(rt.local_client()) as Box<dyn CudaClient>).collect();
    let result = run_batch(&clock, jobs, clients);
    assert!(result.all_verified(), "{:?}", result.errors);
    assert_eq!(result.reports.len(), 26);
    rt.shutdown();
}

#[test]
fn workload_through_tcp_with_memory_pressure() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    // A single small device so MM-L-style footprints conflict.
    let node = ClusterNode::start(
        "n0".into(),
        clock.clone(),
        vec![GpuSpec::test_small()],
        RuntimeConfig::paper_default(),
        true,
    );
    let handles: Vec<_> = (0..4)
        .map(|_| {
            // The remote-application path: a connection to the listener.
            let conn = MuxConnection::connect(node.mux_addr().unwrap()).unwrap();
            let mut client: Box<dyn CudaClient> = Box::new(FrontendClient::new(conn.channel()));
            let clock = clock.clone();
            std::thread::spawn(move || {
                // Tiny time scale, but real memory scale relative to the
                // 64 MiB device: 3 × ~12 MiB per job, 4 jobs → pressure.
                let job = AppKind::MmL.build_with(Scale { time: 1e-4, mem: 0.03 }, 1.0);
                register_workload(client.as_mut(), job.as_ref()).unwrap();
                let report = job.run(client.as_mut(), &clock).unwrap();
                client.exit().unwrap();
                report
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap().verified, "MM-L over TCP failed verification");
    }
    node.shutdown();
}

#[test]
fn torque_cluster_end_to_end_with_offload() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let big = RuntimeConfig::paper_default();
    let small = RuntimeConfig { offload_threshold: Some(2), ..RuntimeConfig::paper_default() };
    let cluster = Cluster::start_heterogeneous(
        clock.clone(),
        vec![
            (vec![GpuSpec::test_small(), GpuSpec::test_small()], big),
            (vec![GpuSpec::test_small()], small),
        ],
    );
    let torque = Torque::new(cluster.nodes(), GpuVisibility::Hidden);
    let pool = mtgpu::workloads::short_pool();
    let jobs: Vec<_> = (0..12).map(|i| pool[i % pool.len()].build(Scale::TINY)).collect();
    let result = torque.run(&clock, jobs);
    assert!(result.all_verified(), "{:?}", result.errors);
    assert_eq!(result.reports.len(), 12);
    // The small node got 6 jobs but only keeps 2 local.
    assert!(result.total_offloads() >= 1, "no offloading happened");
    cluster.shutdown();
}

#[test]
fn device_failure_mid_batch_does_not_poison_other_tenants() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-6);
    let driver =
        Driver::with_devices(clock.clone(), vec![GpuSpec::test_small(), GpuSpec::test_small()]);
    let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
    let rt2 = Arc::clone(&rt);
    let batch = std::thread::spawn(move || {
        let jobs: Vec<_> = (0..6).map(|_| AppKind::Sc.build(Scale::TINY)).collect();
        let clients: Vec<Box<dyn CudaClient>> =
            jobs.iter().map(|_| Box::new(rt2.local_client()) as Box<dyn CudaClient>).collect();
        run_batch(&clock, jobs, clients)
    });
    // Fail one device mid-batch; jobs recover on the survivor (clean
    // entries) or surface DeviceUnavailable (dirty, un-checkpointed) —
    // either way the batch terminates and the runtime stays up.
    std::thread::sleep(Duration::from_millis(5));
    rt.driver().device(mtgpu::gpusim::DeviceId(0)).unwrap().fail();
    let result = batch.join().unwrap();
    assert_eq!(result.reports.len() + result.errors.len(), 6);
    for err in &result.errors {
        assert!(err.contains("device unavailable"), "unexpected error: {err}");
    }
    // The runtime still serves new work on the surviving device.
    let mut c = rt.local_client();
    let job = AppKind::Va.build(Scale::TINY);
    register_workload(&mut c, job.as_ref()).unwrap();
    let report = job.run(&mut c, rt.clock()).unwrap();
    assert!(report.verified);
    c.exit().unwrap();
    rt.shutdown();
}
