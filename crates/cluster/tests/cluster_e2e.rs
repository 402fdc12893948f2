//! Cluster-level end-to-end tests: TORQUE dispatch modes and inter-node
//! offloading.

use mtgpu_cluster::{Cluster, ClusterNode, GpuVisibility, Torque};
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{install_kernel_library, AppKind, Workload};

fn short_jobs(n: usize) -> Vec<Box<dyn Workload>> {
    let pool = mtgpu_workloads::short_pool();
    (0..n).map(|i| pool[i % pool.len()].build(Scale::TINY)).collect()
}

#[test]
fn torque_hidden_round_robins_jobs_across_nodes() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let cluster = Cluster::start(
        clock.clone(),
        vec![vec![GpuSpec::test_small()], vec![GpuSpec::test_small()]],
        RuntimeConfig::paper_default(),
    );
    let torque = Torque::new(cluster.nodes(), GpuVisibility::Hidden);
    let result = torque.run(&clock, short_jobs(8));
    assert!(result.all_verified(), "{:?}", result.errors);
    assert_eq!(result.reports.len(), 8);
    // Equal split: both nodes serviced kernels.
    for node in cluster.nodes() {
        assert!(node.metrics().launches > 0, "{} idle", node.name());
    }
    cluster.shutdown();
}

#[test]
fn torque_aware_serializes_on_gpu_count() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let cluster = Cluster::start(
        clock.clone(),
        vec![vec![GpuSpec::test_small()]],
        RuntimeConfig::serialized(),
    );
    let torque = Torque::new(cluster.nodes(), GpuVisibility::Aware);
    let result = torque.run(&clock, short_jobs(4));
    assert!(result.all_verified(), "{:?}", result.errors);
    assert_eq!(result.reports.len(), 4);
    cluster.shutdown();
}

#[test]
fn overloaded_node_offloads_connections_to_peer() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let mut cfg = RuntimeConfig::paper_default();
    cfg.offload_threshold = Some(2);
    let cluster = Cluster::start(
        clock.clone(),
        vec![vec![GpuSpec::test_small()], vec![GpuSpec::test_small()]],
        cfg,
    );
    // Submit everything to node 0: its backlog crosses the threshold and
    // the excess connections must be relayed to node 1 (§4.7).
    let node0 = &cluster.nodes()[0];
    let node1 = &cluster.nodes()[1];
    let jobs = short_jobs(8);
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            let mut client: Box<dyn mtgpu_api::CudaClient> = Box::new(node0.mux_client().unwrap());
            let clock = clock.clone();
            std::thread::spawn(move || {
                mtgpu_workloads::register_workload(client.as_mut(), job.as_ref()).unwrap();
                let report = job.run(client.as_mut(), &clock).unwrap();
                client.exit().unwrap();
                report
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap().verified);
    }
    assert!(
        node0.metrics().offloaded_connections > 0,
        "node0 never offloaded: {:?}",
        node0.metrics()
    );
    assert!(node1.metrics().launches > 0, "node1 never ran an offloaded kernel");
    cluster.shutdown();
}

#[test]
fn remote_tcp_frontend_runs_full_workload() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let node = ClusterNode::start(
        "n0".into(),
        clock.clone(),
        vec![GpuSpec::test_small()],
        RuntimeConfig::paper_default(),
        true,
    );
    // A remote frontend dials the node's listener (`mux_client` is the
    // local socketpair of an application on the node).
    let conn = mtgpu_api::MuxConnection::connect(node.mux_addr().unwrap()).unwrap();
    let mut client: Box<dyn mtgpu_api::CudaClient> =
        Box::new(mtgpu_api::FrontendClient::new(conn.channel()));
    let job = AppKind::Hs.build(Scale::TINY);
    mtgpu_workloads::register_workload(client.as_mut(), job.as_ref()).unwrap();
    let report = job.run(client.as_mut(), &clock).unwrap();
    client.exit().unwrap();
    assert!(report.verified, "HS over TCP failed verification");
    assert_eq!(node.mux_stats().unwrap().accepted.load(std::sync::atomic::Ordering::Relaxed), 1);
    node.shutdown();
}

#[test]
fn native_bare_torque_works_but_loses_to_the_runtime() {
    // §5.4: "we also performed experiments using TORQUE natively on the bare
    // CUDA runtime. However, the results ... are far worse than those
    // reported using TORQUE in combination with our runtime."
    install_kernel_library();
    // Coarse enough that simulated durations dominate per-call overhead:
    // MM-L kernels are 125 ms sim (125 µs real) at these scales.
    let clock = Clock::with_scale(1e-3);
    let cluster = Cluster::start(
        clock.clone(),
        vec![vec![GpuSpec::test_small()]],
        RuntimeConfig::paper_default(),
    );
    // Jobs with CPU phases: the bare runtime under GPU-aware gating holds a
    // whole GPU per job (idle through the CPU phases), while the mtgpu
    // runtime time-shares it across 4 vGPUs.
    let scale = mtgpu_workloads::calib::Scale { time: 0.1, mem: 1e-5 };
    let build = || -> Vec<Box<dyn Workload>> {
        (0..8).map(|_| AppKind::MmL.build_with(scale, 2.0)).collect()
    };
    let native = Torque::native_bare(cluster.nodes()).run(&clock, build());
    assert!(native.all_verified(), "{:?}", native.errors);
    let shared = Torque::new(cluster.nodes(), GpuVisibility::Hidden).run(&clock, build());
    assert!(shared.all_verified(), "{:?}", shared.errors);
    // A cluster of one node gets TORQUE's jobs in-process: with no peer
    // to offload to, the wire would only add host time to the shared run.
    assert_eq!(shared.node_metrics[0].mux_requests, 0);
    assert!(
        shared.total < native.total,
        "runtime sharing ({}) must beat native bare TORQUE ({})",
        shared.total,
        native.total
    );
    cluster.shutdown();
}
