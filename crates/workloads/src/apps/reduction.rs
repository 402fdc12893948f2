//! Parallel Reduction (PR): sum of 4M elements, 801 kernel calls
//! (CUDA SDK `reduction`).

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::sync::Arc;

const SHADOW: usize = 1024;
const ARR_BYTES: u64 = 4_000_000 * 4;
const REPEATS: u64 = 801;
const KERNEL_SECS: f64 = 2.9 / REPEATS as f64;
/// Host-side loop bookkeeping per launch.
const CPU_SECS_PER_CALL: f64 = 0.0008;

/// The PR workload.
pub struct Reduction {
    scale: Scale,
}

impl Reduction {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        Reduction { scale: Scale::PAPER }
    }

    /// Custom-scale instance (fewer launches under `TINY`).
    pub fn with_scale(scale: Scale) -> Self {
        Reduction { scale }
    }

    fn repeats(&self) -> u64 {
        if self.scale.time < 1e-2 {
            9
        } else {
            REPEATS
        }
    }
}

/// Installs `pr_reduce`: `out[0] = Σ input[i]` over the shadow.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("pr_reduce"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let input = ptr_arg(exec, 0)?;
            let output = ptr_arg(exec, 1)?;
            let n = scalar_arg(exec, 2) as usize;
            let mut sum = 0f32;
            exec.with_f32_mut(input, f32_bytes(n)?, |v| sum = v.iter().sum())?;
            exec.with_f32_mut(output, 4, |v| v[0] = sum)
        })),
    });
}

impl Workload for Reduction {
    fn name(&self) -> &str {
        "PR"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("pr_reduce")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * REPEATS as f64 * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let mut rng = XorShift::new(0x5EED_00F2);
        let input_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(0.0, 1.0)).collect();
        let input = upload_f32(client, scale_bytes(ARR_BYTES, &self.scale), &input_host)?;
        let output = alloc(client, 256, 256)?;
        let repeats = self.repeats();
        for _ in 0..repeats {
            launch(
                client,
                "pr_reduce",
                vec![
                    KernelArg::Ptr(input),
                    KernelArg::Ptr(output),
                    KernelArg::Scalar(SHADOW as u64),
                ],
                work_c2050(KERNEL_SECS * self.scale.time * (REPEATS as f64 / repeats as f64)),
            )?;
            cpu_phase(
                clock,
                CPU_SECS_PER_CALL * self.scale.time * (REPEATS as f64 / repeats as f64),
            );
        }
        let result = download_f32(client, output, 1)?;
        for ptr in [input, output] {
            client.free(ptr)?;
        }
        let expected: f32 = input_host.iter().sum();
        let ok = !result.is_empty() && approx_eq(result[0], expected);
        Ok(if ok {
            WorkloadReport::verified("PR", repeats)
        } else {
            WorkloadReport::failed("PR", repeats)
        })
    }
}
