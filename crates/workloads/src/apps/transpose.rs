//! Matrix Transpose (MT): 384×384 transpose, 816 kernel calls (CUDA SDK
//! `transpose`). Calls alternate src→dst / dst→src; after the even number
//! of calls the source buffer holds the original matrix again, which is
//! what verification checks.

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::KernelDesc;
use mtgpu_simtime::Clock;
use std::sync::Arc;

const SHADOW_N: usize = 16;
const MAT_BYTES: u64 = 384 * 384 * 4;
const REPEATS: u64 = 816;
const KERNEL_SECS: f64 = 3.4 / REPEATS as f64;
/// Host-side loop bookkeeping per launch.
const CPU_SECS_PER_CALL: f64 = 0.0008;

/// The MT workload.
pub struct Transpose {
    scale: Scale,
}

impl Transpose {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        Transpose { scale: Scale::PAPER }
    }

    /// Custom-scale instance (fewer launches under `TINY`; the count stays
    /// even so verification still holds).
    pub fn with_scale(scale: Scale) -> Self {
        Transpose { scale }
    }

    fn repeats(&self) -> u64 {
        if self.scale.time < 1e-2 {
            8
        } else {
            REPEATS
        }
    }
}

/// Installs `mt_transpose`: dst = srcᵀ on the 16×16 shadows.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("mt_transpose"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let src = ptr_arg(exec, 0)?;
            let dst = ptr_arg(exec, 1)?;
            let n = scalar_arg(exec, 2) as usize;
            let s = read_f32(exec, src, square(n)?)?;
            exec.with_f32_mut(dst, f32_bytes(square(n)?)?, |v| {
                for i in 0..n {
                    for j in 0..n {
                        v[j * n + i] = s[i * n + j];
                    }
                }
            })
        })),
    });
}

impl Workload for Transpose {
    fn name(&self) -> &str {
        "MT"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("mt_transpose")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * REPEATS as f64 * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let mut rng = XorShift::new(0x5EED_0007);
        let original: Vec<f32> =
            (0..SHADOW_N * SHADOW_N).map(|_| rng.range_f32(-5.0, 5.0)).collect();
        let bytes = scale_bytes(MAT_BYTES, &self.scale);
        let a = upload_f32(client, bytes, &original)?;
        let b = alloc(client, bytes, (SHADOW_N * SHADOW_N) as u64 * 4)?;
        let repeats = self.repeats();
        for i in 0..repeats {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
            launch(
                client,
                "mt_transpose",
                vec![KernelArg::Ptr(src), KernelArg::Ptr(dst), KernelArg::Scalar(SHADOW_N as u64)],
                work_c2050(KERNEL_SECS * self.scale.time * (REPEATS as f64 / repeats as f64)),
            )?;
            cpu_phase(
                clock,
                CPU_SECS_PER_CALL * self.scale.time * (REPEATS as f64 / repeats as f64),
            );
        }
        // Even number of transposes: `a` holds the original again.
        let result = download_f32(client, a, SHADOW_N * SHADOW_N)?;
        for ptr in [a, b] {
            client.free(ptr)?;
        }
        let ok = approx_eq_slice(&result, &original);
        Ok(if ok {
            WorkloadReport::verified("MT", repeats)
        } else {
            WorkloadReport::failed("MT", repeats)
        })
    }
}
