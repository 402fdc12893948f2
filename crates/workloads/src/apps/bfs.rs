//! Breadth-First Search (BFS): traversal of a 1M-node graph, 24 kernel
//! calls — one frontier-expansion kernel per level (Rodinia `bfs`).
//!
//! The shadow graph is a 64-node chain: level kernel `k` relaxes every node
//! at distance `k` into its successor, so after 24 levels `dist[i] == i`
//! for `i ≤ 24` and unreached beyond — which verification checks.

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::sync::Arc;

const SHADOW_NODES: usize = 64;
const LEVELS: u64 = 24;
/// Declared footprint of the 1M-node graph (CSR arrays + distances).
const GRAPH_BYTES: u64 = 48 << 20;
const KERNEL_SECS: f64 = 2.3 / LEVELS as f64;
/// Host-side frontier bookkeeping per level.
const CPU_SECS_PER_LEVEL: f64 = 0.04;
/// "Infinite" distance marker.
const INF: f32 = 1.0e9;

/// The BFS workload.
pub struct Bfs {
    scale: Scale,
}

impl Bfs {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        Bfs { scale: Scale::PAPER }
    }

    /// Custom-scale instance.
    pub fn with_scale(scale: Scale) -> Self {
        Bfs { scale }
    }
}

/// Installs `bfs_level`: one level of frontier expansion on the chain.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("bfs_level"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let dist = ptr_arg(exec, 0)?;
            let level = scalar_arg(exec, 1) as f32;
            let n = scalar_arg(exec, 2) as usize;
            exec.with_f32_mut(dist, f32_bytes(n)?, |v| {
                for i in 0..n.saturating_sub(1) {
                    if (v[i] - level).abs() < 0.5 && v[i + 1] > level + 1.0 {
                        v[i + 1] = level + 1.0;
                    }
                }
            })
        })),
    });
}

impl Workload for Bfs {
    fn name(&self) -> &str {
        "BFS"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("bfs_level")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * LEVELS as f64 * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let mut dist_host = vec![INF; SHADOW_NODES];
        dist_host[0] = 0.0;
        let dist = upload_f32(client, scale_bytes(GRAPH_BYTES, &self.scale), &dist_host)?;
        for level in 0..LEVELS {
            launch(
                client,
                "bfs_level",
                vec![
                    KernelArg::Ptr(dist),
                    KernelArg::Scalar(level),
                    KernelArg::Scalar(SHADOW_NODES as u64),
                ],
                work_c2050(KERNEL_SECS * self.scale.time),
            )?;
            // Host checks the frontier before expanding the next level.
            cpu_phase(clock, CPU_SECS_PER_LEVEL * self.scale.time);
        }
        let result = download_f32(client, dist, SHADOW_NODES)?;
        client.free(dist)?;
        let ok = (0..SHADOW_NODES).all(|i| {
            if i as u64 <= LEVELS {
                approx_eq(result[i], i as f32)
            } else {
                result[i] >= INF / 2.0
            }
        });
        Ok(if ok {
            WorkloadReport::verified("BFS", LEVELS)
        } else {
            WorkloadReport::failed("BFS", LEVELS)
        })
    }
}
