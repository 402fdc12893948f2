//! TORQUE-like cluster batch scheduler (§5.4).
//!
//! Jobs are submitted at a head node and executed on compute nodes. Two
//! interaction modes with the node runtimes are modelled:
//!
//! * [`GpuVisibility::Hidden`] — the paper's main configuration: "we hid
//!   from TORQUE the presence of GPUs"; the head node "divides the
//!   workload equally between the nodes" (round-robin) and every job is
//!   dispatched immediately; all GPU scheduling happens inside the node
//!   runtimes (and, when enabled, via inter-node offloading).
//! * [`GpuVisibility::Aware`] — TORQUE knows the per-node GPU counts and
//!   submits a job to a node only when one of its GPUs is free (the
//!   "TORQUE natively on the bare CUDA runtime" behaviour: serialized
//!   execution, no sharing).

use crate::node::ClusterNode;
use crate::sem::Semaphore;
use mtgpu_core::MetricsSnapshot;
use mtgpu_simtime::{Clock, SimDuration, Stopwatch};
use mtgpu_workloads::{register_workload, Workload, WorkloadReport};
use std::sync::Arc;

/// How much the cluster scheduler knows about GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuVisibility {
    /// GPUs hidden from the head node (handled by the node runtimes).
    Hidden,
    /// Head node gates dispatch on free physical GPUs.
    Aware,
}

/// Result of a cluster batch run.
#[derive(Debug)]
pub struct ClusterRunResult {
    /// First submit to last completion ("Tot").
    pub total: SimDuration,
    /// Mean per-job time ("Avg").
    pub avg: SimDuration,
    /// Per-job reports.
    pub reports: Vec<WorkloadReport>,
    /// Failed jobs.
    pub errors: Vec<String>,
    /// Runtime metrics per node at batch end.
    pub node_metrics: Vec<MetricsSnapshot>,
}

impl ClusterRunResult {
    /// Whether every job completed and verified.
    pub fn all_verified(&self) -> bool {
        self.errors.is_empty() && self.reports.iter().all(|r| r.verified)
    }

    /// Total swap operations across nodes (Fig. 11 annotation).
    pub fn total_swaps(&self) -> u64 {
        self.node_metrics.iter().map(|m| m.total_swaps()).sum()
    }

    /// Total offloaded connections across nodes.
    pub fn total_offloads(&self) -> u64 {
        self.node_metrics.iter().map(|m| m.offloaded_connections).sum()
    }
}

/// The head-node scheduler.
pub struct Torque<'a> {
    nodes: &'a [ClusterNode],
    visibility: GpuVisibility,
    /// Bypass the mtgpu runtime and run jobs on the bare CUDA runtime —
    /// the "TORQUE natively" configuration of §5.4. Only sensible with
    /// [`GpuVisibility::Aware`]: the bare runtime cannot absorb more
    /// concurrent jobs than GPUs.
    bare: bool,
}

impl<'a> Torque<'a> {
    /// Creates a scheduler over the cluster's nodes.
    pub fn new(nodes: &'a [ClusterNode], visibility: GpuVisibility) -> Self {
        assert!(!nodes.is_empty(), "cluster has no nodes");
        Torque { nodes, visibility, bare: false }
    }

    /// The §5.4 native comparator: GPU-aware dispatch straight onto the
    /// bare CUDA runtime ("TORQUE serializes the execution of concurrent
    /// jobs ... submitting them to the compute nodes only when a GPU
    /// becomes available").
    pub fn native_bare(nodes: &'a [ClusterNode]) -> Self {
        assert!(!nodes.is_empty(), "cluster has no nodes");
        Torque { nodes, visibility: GpuVisibility::Aware, bare: true }
    }

    /// Runs a FIFO batch of jobs to completion and reports cluster-level
    /// timing (§5.4 methodology: jobs submitted at the head node, executed
    /// on the compute nodes).
    ///
    /// # Panics
    /// Panics if, on a cluster of several nodes, a node a job is sent to
    /// does not listen (every [`crate::Cluster`] node does).
    pub fn run(&self, clock: &Clock, jobs: Vec<Box<dyn Workload>>) -> ClusterRunResult {
        let gates: Vec<Arc<Semaphore>> = self
            .nodes
            .iter()
            .map(|n| {
                Arc::new(match self.visibility {
                    // Effectively unbounded: dispatch never blocks.
                    GpuVisibility::Hidden => Semaphore::new(usize::MAX / 2),
                    GpuVisibility::Aware => Semaphore::new(n.gpu_count()),
                })
            })
            .collect();
        let batch_watch = Stopwatch::start(clock);
        let mut handles = Vec::new();
        let mut rr = 0usize;
        for job in jobs {
            // Round-robin placement ("TORQUE divides the workload equally
            // between the nodes"); under Aware visibility, wait here at the
            // head node until the chosen node has a free GPU.
            let node_idx = loop {
                let candidate = rr % self.nodes.len();
                rr += 1;
                match self.visibility {
                    GpuVisibility::Hidden => break candidate,
                    GpuVisibility::Aware => {
                        if gates[candidate].try_acquire() {
                            break candidate;
                        }
                        // All nodes busy: block on the round-robin choice.
                        if rr.is_multiple_of(self.nodes.len()) {
                            gates[candidate].acquire();
                            break candidate;
                        }
                    }
                }
            };
            // On a cluster of several nodes a job's frontend comes over the
            // AF_UNIX path, so it counts in its node's backlog and may be
            // sent to a peer (§4.7) — and every configuration of the
            // cluster pays that same path. A cluster of one node has no
            // peer: the wire would buy nothing, and the job runs its calls
            // on its own thread.
            let node = &self.nodes[node_idx];
            let mut client: Box<dyn mtgpu_api::CudaClient> = if self.bare {
                Box::new(node.bare_client())
            } else if self.nodes.len() > 1 {
                Box::new(node.mux_client().expect("a cluster node listens"))
            } else {
                Box::new(node.client())
            };
            let gate = Arc::clone(&gates[node_idx]);
            let release = self.visibility == GpuVisibility::Aware;
            let clock = clock.clone();
            handles.push(std::thread::spawn(move || {
                let name = job.name().to_string();
                let watch = Stopwatch::start(&clock);
                let result = (|| {
                    register_workload(client.as_mut(), job.as_ref())?;
                    let mut report = job.run(client.as_mut(), &clock)?;
                    client.exit()?;
                    report.elapsed = watch.elapsed();
                    Ok::<_, mtgpu_api::CudaError>(report)
                })();
                if release {
                    gate.release();
                }
                (name, result)
            }));
        }
        let mut reports = Vec::new();
        let mut errors = Vec::new();
        for h in handles {
            match h.join() {
                Ok((_, Ok(report))) => reports.push(report),
                Ok((name, Err(e))) => errors.push(format!("{name}: {e}")),
                Err(_) => errors.push("job thread panicked".into()),
            }
        }
        let total = batch_watch.elapsed();
        let avg = if reports.is_empty() {
            SimDuration::ZERO
        } else {
            reports.iter().map(|r| r.elapsed).sum::<SimDuration>() / reports.len() as u64
        };
        ClusterRunResult {
            total,
            avg,
            reports,
            errors,
            node_metrics: self.nodes.iter().map(|n| n.metrics()).collect(),
        }
    }
}
