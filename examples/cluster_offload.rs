//! A two-node cluster behind the TORQUE-like scheduler: the GPU-oblivious
//! head node splits jobs evenly, overloading the 1-GPU node, which then
//! offloads its excess connections to the 3-GPU node over TCP (§4.7/§5.4).
//!
//! ```sh
//! cargo run --release --example cluster_offload
//! ```

use mtgpu::cluster::{Cluster, GpuVisibility, Torque};
use mtgpu::core::RuntimeConfig;
use mtgpu::gpusim::GpuSpec;
use mtgpu::simtime::Clock;
use mtgpu::workloads::calib::Scale;
use mtgpu::workloads::{install_kernel_library, short_pool, Workload};

fn main() {
    install_kernel_library();
    let clock = Clock::with_scale(2e-3);

    // Node 0: the big node (2× C2050 + C1060). Node 1: a single C1060 that
    // offloads once more than 4 connections are active locally.
    let big_cfg = RuntimeConfig::paper_default();
    let small_cfg = RuntimeConfig { offload_threshold: Some(4), ..RuntimeConfig::paper_default() };
    let cluster = Cluster::start_heterogeneous(
        clock.clone(),
        vec![
            (vec![GpuSpec::tesla_c2050(), GpuSpec::tesla_c2050(), GpuSpec::tesla_c1060()], big_cfg),
            (vec![GpuSpec::tesla_c1060()], small_cfg),
        ],
    );
    for node in cluster.nodes() {
        println!(
            "{} listening on {} with {} GPU(s)",
            node.name(),
            node.mux_addr().unwrap(),
            node.gpu_count()
        );
    }

    // 24 short jobs drawn from the Table 2 pool, submitted through TORQUE
    // with GPUs hidden: 12 land on each node.
    let pool = short_pool();
    let scale = Scale { time: 0.05, mem: 1.0 };
    let jobs: Vec<Box<dyn Workload>> = (0..24).map(|i| pool[i % pool.len()].build(scale)).collect();
    println!("\nsubmitting {} jobs via TORQUE (GPU-oblivious, round-robin) ...", jobs.len());

    let torque = Torque::new(cluster.nodes(), GpuVisibility::Hidden);
    let result = torque.run(&clock, jobs);
    assert!(result.all_verified(), "{:?}", result.errors);

    println!("batch total {} (avg {})", result.total, result.avg);
    for (node, m) in cluster.nodes().iter().zip(&result.node_metrics) {
        println!(
            "  {}: {} kernel launches, {} connection(s) offloaded away",
            node.name(),
            m.launches,
            m.offloaded_connections
        );
    }
    assert!(
        result.node_metrics[1].offloaded_connections > 0,
        "the overloaded node should have offloaded"
    );
    println!("\nthe 1-GPU node relieved itself by offloading to the 3-GPU node ✔");
    cluster.shutdown();
}
