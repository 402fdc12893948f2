//! HotSpot (HS): thermal simulation of a 1M-cell grid, 1 kernel call
//! (Rodinia `hotspot`). The payload performs one Jacobi relaxation step on
//! a 16×16 shadow grid.

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
const GRID_BYTES: u64 = 1024 * 1024 * 4;
const KERNEL_SECS: f64 = 2.6;
/// Host-side grid initialization.
const CPU_SECS: f64 = 0.9;
/// Power coupling coefficient of the relaxation step.
const K_POWER: f32 = 0.05;

/// The HS workload.
pub struct HotSpot {
    scale: Scale,
}

impl HotSpot {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        HotSpot { scale: Scale::PAPER }
    }

    /// Custom-scale instance.
    pub fn with_scale(scale: Scale) -> Self {
        HotSpot { scale }
    }
}

/// One Jacobi step: `out = avg4(temp) + k·power` with edge clamping.
pub(crate) fn stencil_step(temp: &[f32], power: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0f32; n * n];
    let at = |i: isize, j: isize| -> f32 {
        let i = i.clamp(0, n as isize - 1) as usize;
        let j = j.clamp(0, n as isize - 1) as usize;
        temp[i * n + j]
    };
    for i in 0..n {
        for j in 0..n {
            let (ii, jj) = (i as isize, j as isize);
            out[i * n + j] = 0.25
                * (at(ii - 1, jj) + at(ii + 1, jj) + at(ii, jj - 1) + at(ii, jj + 1))
                + K_POWER * power[i * n + j];
        }
    }
    out
}

/// Installs `hs_stencil`.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("hs_stencil"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let temp = ptr_arg(exec, 0)?;
            let power = ptr_arg(exec, 1)?;
            let out = ptr_arg(exec, 2)?;
            let n = scalar_arg(exec, 3) as usize;
            let t = read_f32(exec, temp, square(n)?)?;
            let p = read_f32(exec, power, square(n)?)?;
            let result = stencil_step(&t, &p, n);
            exec.with_f32_mut(out, f32_bytes(square(n)?)?, |v| v.copy_from_slice(&result))
        })),
    });
}

impl Workload for HotSpot {
    fn name(&self) -> &str {
        "HS"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("hs_stencil")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        cpu_phase(clock, CPU_SECS * self.scale.time);
        let mut rng = XorShift::new(0x5EED_0045);
        let temp_host: Vec<f32> =
            (0..SHADOW_N * SHADOW_N).map(|_| rng.range_f32(40.0, 90.0)).collect();
        let power_host: Vec<f32> =
            (0..SHADOW_N * SHADOW_N).map(|_| rng.range_f32(0.0, 10.0)).collect();
        let bytes = scale_bytes(GRID_BYTES, &self.scale);
        let temp = upload_f32(client, bytes, &temp_host)?;
        let power = upload_f32(client, bytes, &power_host)?;
        let out = alloc(client, bytes, (SHADOW_N * SHADOW_N) as u64 * 4)?;
        launch(
            client,
            "hs_stencil",
            vec![
                KernelArg::Ptr(temp),
                KernelArg::Ptr(power),
                KernelArg::Ptr(out),
                KernelArg::Scalar(SHADOW_N as u64),
            ],
            work_c2050(KERNEL_SECS * self.scale.time),
        )?;
        let result = download_f32(client, out, SHADOW_N * SHADOW_N)?;
        for ptr in [temp, power, out] {
            client.free(ptr)?;
        }
        let expected = stencil_step(&temp_host, &power_host, SHADOW_N);
        let ok = approx_eq_slice(&result, &expected);
        Ok(if ok { WorkloadReport::verified("HS", 1) } else { WorkloadReport::failed("HS", 1) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_stays_uniform_without_power() {
        let temp = vec![50.0f32; 16 * 16];
        let power = vec![0.0f32; 16 * 16];
        let out = stencil_step(&temp, &power, 16);
        assert!(out.iter().all(|&t| (t - 50.0).abs() < 1e-4));
    }

    #[test]
    fn power_raises_local_temperature() {
        let temp = vec![50.0f32; 16 * 16];
        let mut power = vec![0.0f32; 16 * 16];
        power[8 * 16 + 8] = 10.0;
        let out = stencil_step(&temp, &power, 16);
        assert!(out[8 * 16 + 8] > 50.0);
        // Neighbours unaffected within one step (Jacobi).
        assert!((out[8 * 16 + 7] - 50.0).abs() < 1e-4);
    }

    #[test]
    fn edges_clamp_instead_of_wrapping() {
        let mut temp = vec![0.0f32; 16 * 16];
        temp[0] = 100.0; // hot corner
        let power = vec![0.0f32; 16 * 16];
        let out = stencil_step(&temp, &power, 16);
        // Corner averages its two real neighbours (0) and two clamped
        // copies of itself (100): (100+0+100+0)/4 = 50.
        assert!((out[0] - 50.0).abs() < 1e-4, "corner {}", out[0]);
        // The opposite corner must not see the hot corner (no wraparound).
        assert!(out[16 * 16 - 1].abs() < 1e-4);
    }
}
