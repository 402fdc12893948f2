//! Vector Addition (VA): 100M-element vector addition, 1 kernel call
//! (CUDA SDK `vectorAdd`).

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::sync::Arc;

/// Elements in the functional shadow.
const SHADOW: usize = 1024;
/// Declared bytes per paper-scale vector (~110 MiB each, three vectors —
/// "memory requirements well below the capacity of the GPUs", §5.2).
const VEC_BYTES: u64 = 110 << 20;
/// Seconds of GPU work on a C2050 (short app target: 3–5 s).
const KERNEL_SECS: f64 = 2.4;
/// Host-side input generation before the GPU phase.
const CPU_SECS: f64 = 0.8;

/// The VA workload.
pub struct VecAdd {
    scale: Scale,
}

impl VecAdd {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        VecAdd { scale: Scale::PAPER }
    }

    /// Custom-scale instance.
    pub fn with_scale(scale: Scale) -> Self {
        VecAdd { scale }
    }
}

/// Installs the `va_add` kernel payload: `c[i] = a[i] + b[i]` on shadows.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("va_add"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let a = ptr_arg(exec, 0)?;
            let b = ptr_arg(exec, 1)?;
            let c = ptr_arg(exec, 2)?;
            let n = scalar_arg(exec, 3) as usize;
            let mut sum = read_f32(exec, a, n)?;
            exec.with_f32_mut(b, f32_bytes(n)?, |v| {
                for (s, b) in sum.iter_mut().zip(v) {
                    *s += *b;
                }
            })?;
            exec.with_f32_mut(c, f32_bytes(n)?, |v| v.copy_from_slice(&sum))
        })),
    });
}

impl Workload for VecAdd {
    fn name(&self) -> &str {
        "VA"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("va_add")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        cpu_phase(clock, CPU_SECS * self.scale.time);
        let mut rng = XorShift::new(0x5EED_00A1);
        let a_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(-10.0, 10.0)).collect();
        let b_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(-10.0, 10.0)).collect();
        let declared = scale_bytes(VEC_BYTES, &self.scale);
        let a = upload_f32(client, declared, &a_host)?;
        let b = upload_f32(client, declared, &b_host)?;
        let c = alloc(client, declared, SHADOW as u64 * 4)?;
        launch(
            client,
            "va_add",
            vec![
                KernelArg::Ptr(a),
                KernelArg::Ptr(b),
                KernelArg::Ptr(c),
                KernelArg::Scalar(SHADOW as u64),
            ],
            work_c2050(KERNEL_SECS * self.scale.time),
        )?;
        let result = download_f32(client, c, SHADOW)?;
        for ptr in [a, b, c] {
            client.free(ptr)?;
        }
        let expected: Vec<f32> = a_host.iter().zip(&b_host).map(|(x, y)| x + y).collect();
        let ok = approx_eq_slice(&result, &expected);
        Ok(if ok { WorkloadReport::verified("VA", 1) } else { WorkloadReport::failed("VA", 1) })
    }
}
