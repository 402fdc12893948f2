//! Shared helpers for the benchmark applications.

use mtgpu_api::{CudaClient, CudaResult, HostBuf, KernelArg, LaunchConfig, LaunchSpec};
use mtgpu_gpusim::{DeviceAddr, Dim3, GpuError, KernelExec, Work};

/// Uploads `shadow` as the materialized prefix of a `declared`-byte
/// allocation; returns the (virtual) device pointer.
pub(crate) fn upload_f32(
    client: &mut dyn CudaClient,
    declared: u64,
    shadow: &[f32],
) -> CudaResult<DeviceAddr> {
    // Scaled-down test footprints must still hold the functional shadow.
    let declared = declared.max(shadow.len() as u64 * 4);
    let ptr = client.malloc(declared)?;
    let buf = HostBuf::from_f32s(shadow);
    client.memcpy_h2d(ptr, HostBuf::with_shadow(declared, buf.payload))?;
    Ok(ptr)
}

/// Allocates `max(declared, shadow_bytes)` bytes without uploading content
/// (output buffers): the allocation must at least hold its functional
/// shadow even under scaled-down test footprints.
pub(crate) fn alloc(
    client: &mut dyn CudaClient,
    declared: u64,
    shadow_bytes: u64,
) -> CudaResult<DeviceAddr> {
    client.malloc(declared.max(shadow_bytes))
}

/// Downloads `count` f32s from `ptr`.
pub(crate) fn download_f32(
    client: &mut dyn CudaClient,
    ptr: DeviceAddr,
    count: usize,
) -> CudaResult<Vec<f32>> {
    Ok(client.memcpy_d2h(ptr, count as u64 * 4)?.as_f32s())
}

/// Launches `kernel` with a 1-D default configuration.
pub(crate) fn launch(
    client: &mut dyn CudaClient,
    kernel: &str,
    args: Vec<KernelArg>,
    work: Work,
) -> CudaResult<()> {
    client.launch(LaunchSpec {
        kernel: kernel.to_string(),
        config: LaunchConfig { grid: Dim3::x(1024), block: Dim3::x(256), shared_mem_bytes: 0 },
        args,
        work,
    })
}

/// Spends a CPU phase of `secs` simulated seconds (host-side work between
/// GPU phases, §1: "applications that use GPUs alternate CPU and GPU
/// phases").
pub(crate) fn cpu_phase(clock: &mtgpu_simtime::Clock, secs: f64) {
    if secs > 0.0 {
        clock.sleep(mtgpu_simtime::SimDuration::from_secs_f64(secs));
    }
}

/// Tolerant float comparison for verification.
pub(crate) fn approx_eq(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
}

/// Compares two float slices element-wise.
pub(crate) fn approx_eq_slice(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(*x, *y))
}

/// Reads the `i`-th scalar argument of a kernel launch (0 if absent or not
/// a scalar).
pub(crate) fn scalar_arg(exec: &KernelExec<'_>, i: usize) -> u64 {
    match exec.args().get(i) {
        Some(KernelArg::Scalar(v)) => *v,
        _ => 0,
    }
}

/// Reads the `i`-th pointer argument. A launch's arguments are outside
/// input: a missing pointer is `InvalidValue` for the caller, not a panic on
/// the thread that serves every tenant.
pub(crate) fn ptr_arg(exec: &KernelExec<'_>, i: usize) -> Result<DeviceAddr, GpuError> {
    exec.args().get(i).and_then(KernelArg::as_ptr).ok_or(GpuError::InvalidValue)
}

/// The bytes of `count` f32s; `InvalidValue` if that overflows.
pub(crate) fn f32_bytes(count: usize) -> Result<u64, GpuError> {
    count.checked_mul(4).map(|b| b as u64).ok_or(GpuError::InvalidValue)
}

/// `n * n` elements of a square matrix; `InvalidValue` if that overflows.
pub(crate) fn square(n: usize) -> Result<usize, GpuError> {
    n.checked_mul(n).ok_or(GpuError::InvalidValue)
}

/// Copies the first `count` f32s at `ptr` out of device memory. The buffer
/// resolves, bounds included, before anything is allocated, so a count the
/// allocation cannot hold is a typed error, not a host allocation of its size.
pub(crate) fn read_f32(
    exec: &mut KernelExec<'_>,
    ptr: DeviceAddr,
    count: usize,
) -> Result<Vec<f32>, GpuError> {
    let mut out = Vec::new();
    read_f32_into(exec, ptr, count, &mut out)?;
    Ok(out)
}

/// [`read_f32`] into a buffer the caller keeps: `out` becomes the `count`
/// f32s, reusing its capacity, and grows only after the buffer resolved.
pub(crate) fn read_f32_into(
    exec: &mut KernelExec<'_>,
    ptr: DeviceAddr,
    count: usize,
    out: &mut Vec<f32>,
) -> Result<(), GpuError> {
    exec.with_f32_mut(ptr, f32_bytes(count)?, |v| {
        out.clear();
        out.extend_from_slice(v);
    })
}

/// A deterministic xorshift PRNG for reproducible inputs.
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform f32 in [0, 1).
    pub(crate) fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform f32 in [lo, hi).
    pub(crate) fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = XorShift::new(7).next_f32();
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn approx_eq_tolerates_float_noise() {
        assert!(approx_eq(1.0, 1.0 + 1e-6));
        assert!(!approx_eq(1.0, 1.1));
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!approx_eq_slice(&[1.0], &[1.0, 2.0]));
    }
}
