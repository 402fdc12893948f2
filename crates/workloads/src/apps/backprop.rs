//! Back Propagation (BP): training of 20 neural networks with 64K input
//! nodes, 40 kernel calls (Rodinia `backprop`: one `layerforward` and one
//! `adjust_weights` per network).
//!
//! The shadow network is a single 64→8 layer trained for 20 iterations;
//! verification replays the same training on the host.

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::sync::Arc;

const IN_N: usize = 64;
const HID_N: usize = 8;
const NETWORKS: u64 = 20;
/// Declared footprint: input layer 64K × hidden 16 weights, f32.
const WEIGHTS_BYTES: u64 = 65_536 * 16 * 4;
const INPUT_BYTES: u64 = 65_536 * 4;
const KERNEL_SECS: f64 = 3.2 / (2.0 * NETWORKS as f64);
/// Host-side error evaluation between networks.
const CPU_SECS_PER_NET: f64 = 0.04;
const LEARN_RATE: f32 = 0.3;

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Forward pass: `hidden[j] = σ(Σ_i in[i]·w[i][j])`.
fn forward(input: &[f32], weights: &[f32]) -> Vec<f32> {
    (0..HID_N)
        .map(|j| sigmoid((0..IN_N).map(|i| input[i] * weights[i * HID_N + j]).sum()))
        .collect()
}

/// Weight update: `w[i][j] += lr · (target[j] − hidden[j]) · in[i]`.
fn adjust(input: &[f32], hidden: &[f32], target: &[f32], weights: &mut [f32]) {
    for i in 0..IN_N {
        for j in 0..HID_N {
            weights[i * HID_N + j] += LEARN_RATE * (target[j] - hidden[j]) * input[i];
        }
    }
}

/// The BP workload.
pub struct BackProp {
    scale: Scale,
}

impl BackProp {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        BackProp { scale: Scale::PAPER }
    }

    /// Custom-scale instance.
    pub fn with_scale(scale: Scale) -> Self {
        BackProp { scale }
    }
}

/// Installs `bp_layerforward` and `bp_adjust_weights`.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("bp_layerforward"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let input = ptr_arg(exec, 0)?;
            let weights = ptr_arg(exec, 1)?;
            let hidden = ptr_arg(exec, 2)?;
            let in_v = read_f32(exec, input, IN_N)?;
            let w_v = read_f32(exec, weights, IN_N * HID_N)?;
            let h = forward(&in_v, &w_v);
            exec.with_f32_mut(hidden, (HID_N * 4) as u64, |v| v.copy_from_slice(&h))
        })),
    });
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("bp_adjust_weights"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let input = ptr_arg(exec, 0)?;
            let weights = ptr_arg(exec, 1)?;
            let hidden = ptr_arg(exec, 2)?;
            let target = ptr_arg(exec, 3)?;
            let in_v = read_f32(exec, input, IN_N)?;
            let h_v = read_f32(exec, hidden, HID_N)?;
            let t_v = read_f32(exec, target, HID_N)?;
            exec.with_f32_mut(weights, (IN_N * HID_N * 4) as u64, |v| adjust(&in_v, &h_v, &t_v, v))
        })),
    });
}

impl Workload for BackProp {
    fn name(&self) -> &str {
        "BP"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("bp_layerforward"), KernelDesc::plain("bp_adjust_weights")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(
            KERNEL_SECS * 2.0 * NETWORKS as f64 * self.scale.time,
        ))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let mut rng = XorShift::new(0x5EED_00B9);
        let input_host: Vec<f32> = (0..IN_N).map(|_| rng.range_f32(0.0, 1.0)).collect();
        let weights_host: Vec<f32> = (0..IN_N * HID_N).map(|_| rng.range_f32(-0.5, 0.5)).collect();
        let target_host: Vec<f32> = (0..HID_N).map(|_| rng.range_f32(0.0, 1.0)).collect();
        let input = upload_f32(client, scale_bytes(INPUT_BYTES, &self.scale), &input_host)?;
        let weights = upload_f32(client, scale_bytes(WEIGHTS_BYTES, &self.scale), &weights_host)?;
        let hidden = alloc(client, 256, HID_N as u64 * 4)?;
        let target = upload_f32(client, 256.max((HID_N * 4) as u64), &target_host)?;
        let work = work_c2050(KERNEL_SECS * self.scale.time);
        for _ in 0..NETWORKS {
            launch(
                client,
                "bp_layerforward",
                vec![KernelArg::Ptr(input), KernelArg::Ptr(weights), KernelArg::Ptr(hidden)],
                work,
            )?;
            launch(
                client,
                "bp_adjust_weights",
                vec![
                    KernelArg::Ptr(input),
                    KernelArg::Ptr(weights),
                    KernelArg::Ptr(hidden),
                    KernelArg::Ptr(target),
                ],
                work,
            )?;
            // Host evaluates training error before the next network.
            cpu_phase(clock, CPU_SECS_PER_NET * self.scale.time);
        }
        let final_hidden = download_f32(client, hidden, HID_N)?;
        let final_weights = download_f32(client, weights, IN_N * HID_N)?;
        for ptr in [input, weights, hidden, target] {
            client.free(ptr)?;
        }
        // Host replay of the 20 training iterations.
        let mut w = weights_host.clone();
        let mut h = Vec::new();
        for _ in 0..NETWORKS {
            h = forward(&input_host, &w);
            adjust(&input_host, &h, &target_host, &mut w);
        }
        let ok = approx_eq_slice(&final_hidden, &h) && approx_eq_slice(&final_weights, &w);
        Ok(if ok {
            WorkloadReport::verified("BP", 2 * NETWORKS)
        } else {
            WorkloadReport::failed("BP", 2 * NETWORKS)
        })
    }
}
