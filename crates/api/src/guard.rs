//! Guardian-style descriptor validation at the API boundary.
//!
//! The interposition path (PR 5) lets thousands of untrusted clients reach
//! the runtime daemon, and every request carries attacker-controlled
//! structure: kernel descriptors, launch geometry, argument lists, host
//! buffers. Guardian (PAPERS.md) shows that safe multi-tenant GPU sharing
//! validates those descriptors *before* they reach dispatch — argument
//! counts, bounds on every declared dimension, and payload integrity — so a
//! malformed or forged request dies at the boundary with a typed error
//! instead of wedging the scheduler or the device model.
//!
//! This module is pure and deterministic: the same descriptor always
//! produces the same verdict, so validated runs replay bit-for-bit under
//! the seeded harness. The server calls these checks from `service.rs`
//! before any scheduling or memory-manager state is touched.

use crate::error::{CudaError, CudaResult};
use crate::host_buf::HostBuf;
use mtgpu_gpusim::{KernelDesc, LaunchSpec};

/// Most entries a launch's argument list may hold.
pub const MAX_ARGS: usize = 64;

/// Bounds every submitted descriptor must satisfy. The defaults mirror real
/// CUDA limits where one exists (grid/block extents, 48 KiB static shared
/// memory) and otherwise pick generous-but-finite caps: a descriptor that
/// exceeds them is hostile or corrupt, not ambitious. The bounds are fixed:
/// [`DescriptorLimits::default`] is the only value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescriptorLimits {
    /// Maximum entries in a launch's argument list ([`MAX_ARGS`]).
    max_args: usize,
    /// Maximum kernel-name length in bytes.
    max_name_len: usize,
    /// Maximum extent of any single grid dimension.
    max_grid_dim: u32,
    /// Maximum threads per block (product of the block dims).
    max_block_threads: u64,
    /// Maximum static shared memory per block, in bytes.
    max_shared_mem_bytes: u32,
}

impl Default for DescriptorLimits {
    fn default() -> Self {
        DescriptorLimits {
            max_args: MAX_ARGS,
            max_name_len: 256,
            max_grid_dim: 65_535,
            max_block_threads: 1024,
            max_shared_mem_bytes: 48 << 10,
        }
    }
}

fn reject(msg: impl Into<String>) -> CudaError {
    CudaError::MalformedDescriptor(msg.into())
}

/// Validates a kernel name (shared by registration and launch): non-empty,
/// bounded length, no control bytes (names end up in traces and logs).
fn validate_name(name: &str, limits: &DescriptorLimits) -> CudaResult<()> {
    if name.is_empty() {
        return Err(reject("empty kernel name"));
    }
    if name.len() > limits.max_name_len {
        return Err(reject(format!(
            "kernel name of {} bytes exceeds the {}-byte limit",
            name.len(),
            limits.max_name_len
        )));
    }
    if name.chars().any(|c| c.is_control()) {
        return Err(reject("kernel name contains control characters"));
    }
    Ok(())
}

/// Validates a kernel descriptor at registration time
/// (`__cudaRegisterFunction`).
pub fn validate_kernel_desc(desc: &KernelDesc, limits: &DescriptorLimits) -> CudaResult<()> {
    validate_name(&desc.name, limits)?;
    if desc.read_only_args.len() > limits.max_args {
        return Err(reject(format!(
            "read-only argument map lists {} positions (limit {})",
            desc.read_only_args.len(),
            limits.max_args
        )));
    }
    if let Some(&pos) = desc.read_only_args.iter().find(|&&p| p as usize >= limits.max_args) {
        return Err(reject(format!(
            "read-only argument position {pos} is outside any admissible argument list"
        )));
    }
    Ok(())
}

/// Validates a launch request (`cudaLaunch`) before it reaches scheduling
/// or dispatch: argument count, launch geometry, and finite work amounts.
/// Pointer arguments are *not* resolved here — the memory manager checks
/// them against the page table, which is where out-of-bounds references
/// surface as [`CudaError::InvalidDevicePointer`]/[`CudaError::OutOfBounds`].
pub fn validate_launch_spec(spec: &LaunchSpec, limits: &DescriptorLimits) -> CudaResult<()> {
    validate_name(&spec.kernel, limits)?;
    if spec.args.len() > limits.max_args {
        return Err(reject(format!(
            "argument list of {} entries exceeds the {}-entry limit",
            spec.args.len(),
            limits.max_args
        )));
    }
    let g = spec.config.grid;
    for (axis, extent) in [("x", g.x), ("y", g.y), ("z", g.z)] {
        if extent == 0 || extent > limits.max_grid_dim {
            return Err(reject(format!(
                "grid.{axis} = {extent} outside 1..={}",
                limits.max_grid_dim
            )));
        }
    }
    let b = spec.config.block;
    if b.x == 0 || b.y == 0 || b.z == 0 {
        return Err(reject("zero-extent block dimension"));
    }
    if b.count() > limits.max_block_threads {
        return Err(reject(format!(
            "block of {} threads exceeds the {}-thread limit",
            b.count(),
            limits.max_block_threads
        )));
    }
    if spec.config.shared_mem_bytes > limits.max_shared_mem_bytes {
        return Err(reject(format!(
            "shared memory request of {} bytes exceeds the {}-byte limit",
            spec.config.shared_mem_bytes, limits.max_shared_mem_bytes
        )));
    }
    if !spec.work.flops.is_finite()
        || !spec.work.bytes.is_finite()
        || spec.work.flops < 0.0
        || spec.work.bytes < 0.0
    {
        return Err(reject("non-finite or negative declared work"));
    }
    Ok(())
}

/// Validates a job-length hint (`HintJobLength`): the wire carries floats
/// bit-exact, so NaN and ±∞ reach the service, and shortest-job-first
/// ordering over them is meaningless.
pub fn validate_job_length_hint(flops: f64) -> CudaResult<()> {
    if !flops.is_finite() || flops < 0.0 {
        return Err(reject("non-finite or negative job-length hint"));
    }
    Ok(())
}

/// Validates a host buffer on the upload path: the payload may not exceed
/// its declared length (length-forgery games), and a sealed buffer's bytes
/// must match their FNV-1a digest.
pub fn validate_host_buf(buf: &HostBuf) -> CudaResult<()> {
    if buf.payload.len() as u64 > buf.declared_len {
        return Err(reject(format!(
            "payload of {} bytes exceeds declared length {}",
            buf.payload.len(),
            buf.declared_len
        )));
    }
    if !buf.hash_matches() {
        return Err(CudaError::PayloadHashMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::{Dim3, KernelArg, LaunchConfig, Work};

    fn spec() -> LaunchSpec {
        LaunchSpec {
            kernel: "k".into(),
            config: LaunchConfig::default(),
            args: vec![KernelArg::Scalar(1)],
            work: Work::flops(1.0),
        }
    }

    #[test]
    fn well_formed_descriptors_pass() {
        let limits = DescriptorLimits::default();
        validate_kernel_desc(&KernelDesc::plain("matmul"), &limits).unwrap();
        validate_launch_spec(&spec(), &limits).unwrap();
        validate_host_buf(&HostBuf::from_slice(&[1, 2, 3]).sealed()).unwrap();
    }

    #[test]
    fn oversized_arg_list_rejected() {
        let limits = DescriptorLimits::default();
        let mut s = spec();
        s.args = vec![KernelArg::Scalar(0); limits.max_args + 1];
        assert!(matches!(
            validate_launch_spec(&s, &limits),
            Err(CudaError::MalformedDescriptor(_))
        ));
    }

    #[test]
    fn hostile_geometry_rejected() {
        let limits = DescriptorLimits::default();
        let mut s = spec();
        s.config = LaunchConfig {
            grid: Dim3 { x: 0, y: 1, z: 1 },
            block: Dim3::x(1),
            shared_mem_bytes: 0,
        };
        assert!(validate_launch_spec(&s, &limits).is_err());
        s.config = LaunchConfig {
            grid: Dim3::x(1),
            block: Dim3 { x: 1024, y: 2, z: 1 },
            shared_mem_bytes: 0,
        };
        assert!(validate_launch_spec(&s, &limits).is_err());
        s.config = LaunchConfig { grid: Dim3::x(1), block: Dim3::x(1), shared_mem_bytes: u32::MAX };
        assert!(validate_launch_spec(&s, &limits).is_err());
    }

    #[test]
    fn non_finite_work_rejected() {
        let limits = DescriptorLimits::default();
        let mut s = spec();
        s.work = Work { flops: f64::NAN, bytes: 0.0 };
        assert!(validate_launch_spec(&s, &limits).is_err());
        s.work = Work { flops: -1.0, bytes: 0.0 };
        assert!(validate_launch_spec(&s, &limits).is_err());
    }

    #[test]
    fn non_finite_job_length_hint_rejected() {
        validate_job_length_hint(0.0).unwrap();
        validate_job_length_hint(3.5e12).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(matches!(
                validate_job_length_hint(bad),
                Err(CudaError::MalformedDescriptor(_))
            ));
        }
    }

    #[test]
    fn forged_payload_rejected() {
        let mut b = HostBuf::from_slice(&[1, 2, 3]).sealed();
        b.payload[1] = 0xee;
        assert_eq!(validate_host_buf(&b), Err(CudaError::PayloadHashMismatch));
        let oversized = HostBuf { declared_len: 1, payload: vec![0; 8], content_hash: None };
        assert!(matches!(validate_host_buf(&oversized), Err(CudaError::MalformedDescriptor(_))));
    }

    #[test]
    fn bad_registration_rejected() {
        let limits = DescriptorLimits::default();
        assert!(validate_kernel_desc(&KernelDesc::plain(""), &limits).is_err());
        assert!(validate_kernel_desc(&KernelDesc::plain("a\0b"), &limits).is_err());
        assert!(validate_kernel_desc(&KernelDesc::plain("x".repeat(300)), &limits).is_err());
        let d = KernelDesc::plain("k").with_read_only_args(vec![9999]);
        assert!(validate_kernel_desc(&d, &limits).is_err());
    }
}
