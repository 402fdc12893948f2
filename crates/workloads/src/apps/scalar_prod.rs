//! Scalar Product (SP): dot products of vector pairs, 1 kernel call
//! (CUDA SDK `scalarProd`: 512 pairs of 1M-element vectors).

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
/// Declared input footprint (~2 × 128 MiB vectors).
const VEC_BYTES: u64 = 128 << 20;
const OUT_BYTES: u64 = 512 * 4;
const KERNEL_SECS: f64 = 2.4;
/// Host-side input generation before the GPU phase.
const CPU_SECS: f64 = 0.8;

/// The SP workload.
pub struct ScalarProduct {
    scale: Scale,
}

impl ScalarProduct {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        ScalarProduct { scale: Scale::PAPER }
    }

    /// Custom-scale instance.
    pub fn with_scale(scale: Scale) -> Self {
        ScalarProduct { scale }
    }
}

/// Installs `sp_dot`: `out[0] = Σ a[i]·b[i]` over the shadows.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("sp_dot"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let a = ptr_arg(exec, 0)?;
            let b = ptr_arg(exec, 1)?;
            let out = ptr_arg(exec, 2)?;
            let n = scalar_arg(exec, 3) as usize;
            let av = read_f32(exec, a, n)?;
            let bv = read_f32(exec, b, n)?;
            let dot: f32 = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
            exec.with_f32_mut(out, 4, |s| s[0] = dot)
        })),
    });
}

impl Workload for ScalarProduct {
    fn name(&self) -> &str {
        "SP"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("sp_dot")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        cpu_phase(clock, CPU_SECS * self.scale.time);
        let mut rng = XorShift::new(0x5EED_0059);
        let a_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let b_host: Vec<f32> = (0..SHADOW).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let vec_bytes = scale_bytes(VEC_BYTES, &self.scale);
        let a = upload_f32(client, vec_bytes, &a_host)?;
        let b = upload_f32(client, vec_bytes, &b_host)?;
        let out = alloc(client, scale_bytes(OUT_BYTES, &self.scale), 256)?;
        launch(
            client,
            "sp_dot",
            vec![
                KernelArg::Ptr(a),
                KernelArg::Ptr(b),
                KernelArg::Ptr(out),
                KernelArg::Scalar(SHADOW as u64),
            ],
            work_c2050(KERNEL_SECS * self.scale.time),
        )?;
        let result = download_f32(client, out, 1)?;
        for ptr in [a, b, out] {
            client.free(ptr)?;
        }
        let expected: f32 = a_host.iter().zip(&b_host).map(|(x, y)| x * y).sum();
        let ok = !result.is_empty() && approx_eq(result[0], expected);
        Ok(if ok { WorkloadReport::verified("SP", 1) } else { WorkloadReport::failed("SP", 1) })
    }
}
