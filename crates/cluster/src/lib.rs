//! Multi-node layer: node daemons, inter-node offloading and the
//! TORQUE-like cluster scheduler (§2, §4.7, §5.4).
//!
//! The paper deploys one runtime per node and couples it with a
//! cluster-level scheduler that maps jobs onto nodes (coarse-grained
//! scheduling), while each node runtime maps CUDA calls onto GPUs
//! (fine-grained scheduling). This crate provides:
//!
//! * [`ClusterNode`] — a node daemon: a `NodeRuntime` plus its one TCP
//!   endpoint (reactor + gateway), by which remote frontends and peer nodes
//!   offloading connections reach it, and frontends in its own process
//!   reach the same reactor over Unix-domain socketpairs;
//! * [`torque`] — the batch scheduler substrate: FIFO job queue at a head
//!   node with the two GPU-visibility modes of §5.4;
//! * [`Cluster`] — an in-process test cluster wiring nodes together with
//!   mutual offload peering.

pub mod node;
pub mod sem;
pub mod stage;
pub mod torque;

pub use node::ClusterNode;
pub use stage::{stage_context, StagedContext};
pub use torque::{ClusterRunResult, GpuVisibility, Torque};

use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;

/// An in-process cluster: N nodes with TCP endpoints and mutual offload
/// peering.
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    clock: Clock,
}

impl Cluster {
    /// Builds a cluster where node `i` hosts `gpu_sets[i]` and runs with
    /// `cfg` (offload peers are wired automatically when
    /// `cfg.offload_threshold` is set).
    pub fn start(clock: Clock, gpu_sets: Vec<Vec<GpuSpec>>, cfg: RuntimeConfig) -> Cluster {
        Self::start_heterogeneous(
            clock,
            gpu_sets.into_iter().map(|specs| (specs, cfg.clone())).collect(),
        )
    }

    /// Builds a cluster with an explicit per-node (devices, config) list.
    /// `offload_peers` in each config are replaced with the other nodes'
    /// endpoints when empty and that node sets an `offload_threshold`: the
    /// listeners are reserved first so every peer address is known before
    /// any node starts, and each node is built once.
    pub fn start_heterogeneous(
        clock: Clock,
        nodes_spec: Vec<(Vec<GpuSpec>, RuntimeConfig)>,
    ) -> Cluster {
        let listeners: Vec<std::net::TcpListener> =
            nodes_spec.iter().map(|_| node::reserve_listener()).collect();
        let addrs: Vec<String> =
            listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect();
        let nodes = nodes_spec
            .into_iter()
            .zip(listeners)
            .enumerate()
            .map(|(i, ((specs, mut cfg), listener))| {
                if cfg.offload_threshold.is_some() && cfg.offload_peers.is_empty() {
                    cfg.offload_peers = addrs
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, a)| a.clone())
                        .collect();
                }
                ClusterNode::start_on(format!("node{i}"), clock.clone(), specs, cfg, Some(listener))
            })
            .collect();
        Cluster { nodes, clock }
    }

    /// The cluster's nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// The shared clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Shuts every node down.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}
