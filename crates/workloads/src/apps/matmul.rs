//! Matrix Multiplication (MM-S / MM-L): the paper's long-running workload
//! with injected CPU phases (§5.2, §5.3.3).
//!
//! * MM-S: 200 multiplications of 2K×2K matrices, variable CPU phases.
//! * MM-L: 10 multiplications of 10K×10K matrices, variable CPU phases;
//!   high memory requirements — three 10K×10K f32 matrices ≈ 1.2 GB, so
//!   more than two concurrent jobs on a 3 GiB C2050 conflict (§5.3.3).
//!
//! The CPU phase after each kernel simulates "different levels of
//! post-processing on the product" and is sized as
//! `cpu_fraction × per-kernel GPU time`.

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::{GpuError, KernelDesc};
use mtgpu_simtime::{Clock, SimDuration};
use std::sync::Arc;

/// Shadow matrices are 16×16.
const SHADOW_N: usize = 16;

/// The MM workload family.
pub struct MatMul {
    name: &'static str,
    /// Declared bytes per matrix (three are allocated).
    matrix_bytes: u64,
    /// Kernel calls (Table 2: MM-S 200, MM-L 10).
    repeats: u64,
    /// Per-kernel GPU seconds on a C2050.
    kernel_secs: f64,
    /// CPU phase per kernel as a fraction of the kernel's GPU time
    /// (Fig. 7 x-axis: 0 … 2).
    pub cpu_fraction: f64,
    scale: Scale,
}

impl MatMul {
    /// MM-S: 200 × 2K×2K (3 × 16 MiB), ~16 s of GPU work (30–90 s total
    /// with injected CPU phases).
    pub fn small(cpu_fraction: f64) -> Self {
        MatMul {
            name: "MM-S",
            matrix_bytes: 2048 * 2048 * 4,
            repeats: 200,
            kernel_secs: 0.08,
            cpu_fraction,
            scale: Scale::PAPER,
        }
    }

    /// MM-L: 10 × 10K×10K (3 × ~400 MB ⇒ ~1.2 GB/job), ~12.5 s of GPU
    /// work (30–90 s total with injected CPU phases).
    pub fn large(cpu_fraction: f64) -> Self {
        MatMul {
            name: "MM-L",
            matrix_bytes: 10_000 * 10_000 * 4,
            repeats: 10,
            kernel_secs: 1.25,
            cpu_fraction,
            scale: Scale::PAPER,
        }
    }

    /// Scales durations and footprints (tests).
    pub fn scaled(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }
}

/// Installs `mm_matmul`: C = A×B on the 16×16 shadows. Its host work,
/// `2·n³` flops, grows faster than the `n²` floats it reads, so a launch
/// must declare at least that much work (`InvalidValue` otherwise): the
/// host work a launch can buy on the thread that runs it is bounded by the
/// work it declares, and is charged for.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("mm_matmul"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let a = ptr_arg(exec, 0)?;
            let b = ptr_arg(exec, 1)?;
            let c = ptr_arg(exec, 2)?;
            let n = scalar_arg(exec, 3) as usize;
            if 2.0 * (n as f64).powi(3) > exec.work().flops {
                return Err(GpuError::InvalidValue);
            }
            let av = read_f32(exec, a, square(n)?)?;
            let bv = read_f32(exec, b, square(n)?)?;
            exec.with_f32_mut(c, f32_bytes(square(n)?)?, |s| {
                for i in 0..n {
                    for j in 0..n {
                        let mut acc = 0f32;
                        for k in 0..n {
                            acc += av[i * n + k] * bv[k * n + j];
                        }
                        s[i * n + j] = acc;
                    }
                }
            })
        })),
    });
}

fn host_matmul(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

impl Workload for MatMul {
    fn name(&self) -> &str {
        self.name
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("mm_matmul")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(
            self.kernel_secs * self.repeats as f64 * self.scale.time,
        ))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let mut rng = XorShift::new(0x5EED_0033);
        let a_host: Vec<f32> = (0..SHADOW_N * SHADOW_N).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let b_host: Vec<f32> = (0..SHADOW_N * SHADOW_N).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let declared = scale_bytes(self.matrix_bytes, &self.scale);
        // The paper's §4.5 sequence: malloc ×3, copy_HD inputs, kernels,
        // copy_DH result, free.
        let a = upload_f32(client, declared, &a_host)?;
        let b = upload_f32(client, declared, &b_host)?;
        let c = alloc(client, declared, (SHADOW_N * SHADOW_N) as u64 * 4)?;
        let cpu_phase =
            SimDuration::from_secs_f64(self.kernel_secs * self.cpu_fraction * self.scale.time);
        for _ in 0..self.repeats {
            launch(
                client,
                "mm_matmul",
                vec![
                    KernelArg::Ptr(a),
                    KernelArg::Ptr(b),
                    KernelArg::Ptr(c),
                    KernelArg::Scalar(SHADOW_N as u64),
                ],
                work_c2050(self.kernel_secs * self.scale.time),
            )?;
            // Post-processing CPU phase: the GPU is free for co-tenants.
            if !cpu_phase.is_zero() {
                clock.sleep(cpu_phase);
            }
        }
        let result = download_f32(client, c, SHADOW_N * SHADOW_N)?;
        for ptr in [a, b, c] {
            client.free(ptr)?;
        }
        let expected = host_matmul(&a_host, &b_host, SHADOW_N);
        let ok = approx_eq_slice(&result, &expected);
        Ok(if ok {
            WorkloadReport::verified(self.name, self.repeats)
        } else {
            WorkloadReport::failed(self.name, self.repeats)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_mm_job_declares_at_least_the_work_its_shadows_take() {
        let shadow = 2.0 * (SHADOW_N as f64).powi(3);
        // The tree's smallest time scale is `Scale::TINY`'s; `run` declares
        // this work per launch.
        for scale in [Scale::PAPER, Scale::TINY] {
            for mm in [MatMul::small(0.0), MatMul::large(0.0)] {
                let mm = mm.scaled(scale);
                let work = work_c2050(mm.kernel_secs * mm.scale.time).flops;
                assert!(work >= shadow, "{} at {scale:?}: {work} flops declared", mm.name);
            }
        }
    }
}
