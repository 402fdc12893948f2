//! Scan (SC): parallel prefix sum of 260K elements, 3,300 kernel calls
//! (CUDA SDK `scan` — the workload with the most launches in Table 2,
//! stressing per-call runtime overhead).

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::sync::Arc;

const SHADOW: usize = 512;
const ARR_BYTES: u64 = 260_000 * 4;
const REPEATS: u64 = 3_300;
const KERNEL_SECS: f64 = 3.4 / REPEATS as f64;
/// Host-side loop bookkeeping per launch.
const CPU_SECS_PER_CALL: f64 = 0.0002;

/// The SC workload.
pub struct Scan {
    scale: Scale,
}

impl Scan {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        Scan { scale: Scale::PAPER }
    }

    /// Custom-scale instance (also shrinks the launch count under `TINY`
    /// so unit tests stay fast).
    pub fn with_scale(scale: Scale) -> Self {
        Scan { scale }
    }

    fn repeats(&self) -> u64 {
        if self.scale.time < 1e-2 {
            33
        } else {
            REPEATS
        }
    }
}

/// Installs `sc_scan`: exclusive prefix sum of the input shadow.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("sc_scan"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let input = ptr_arg(exec, 0)?;
            let output = ptr_arg(exec, 1)?;
            let n = scalar_arg(exec, 2) as usize;
            let inp = read_f32(exec, input, n)?;
            exec.with_f32_mut(output, f32_bytes(n)?, |v| {
                let mut acc = 0f32;
                for i in 0..n {
                    v[i] = acc;
                    acc += inp[i];
                }
            })
        })),
    });
}

impl Workload for Scan {
    fn name(&self) -> &str {
        "SC"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("sc_scan")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * REPEATS as f64 * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let mut rng = XorShift::new(0x5EED_005C);
        let input_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(0.0, 4.0)).collect();
        let bytes = scale_bytes(ARR_BYTES, &self.scale);
        let input = upload_f32(client, bytes, &input_host)?;
        let output = alloc(client, bytes, SHADOW as u64 * 4)?;
        let repeats = self.repeats();
        for _ in 0..repeats {
            launch(
                client,
                "sc_scan",
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
        let result = download_f32(client, output, SHADOW)?;
        for ptr in [input, output] {
            client.free(ptr)?;
        }
        let mut expected = vec![0f32; SHADOW];
        let mut acc = 0f32;
        for i in 0..SHADOW {
            expected[i] = acc;
            acc += input_host[i];
        }
        let ok = approx_eq_slice(&result, &expected);
        Ok(if ok {
            WorkloadReport::verified("SC", repeats)
        } else {
            WorkloadReport::failed("SC", repeats)
        })
    }
}
