use serde::Serialize;
use std::fmt;

/// Errors surfaced by the device model and driver.
///
/// These mirror the subset of `cudaError_t` codes the paper's runtime reacts
/// to (Table 1): allocation failure, invalid pointers/sizes, device loss.
/// The `mtgpu-api` crate maps them onto its CUDA-style error enum.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum GpuError {
    /// Device memory could not satisfy the allocation (capacity or
    /// fragmentation) — `cudaErrorMemoryAllocation`.
    OutOfMemory,
    /// The driver refused to create another context on the device; the paper
    /// observed the CUDA runtime supports at most eight.
    TooManyContexts,
    /// Address does not fall inside any live allocation.
    InvalidAddress,
    /// Access (copy/kernel touch) extends beyond the allocation's bounds.
    OutOfBounds { addr: u64, len: u64, alloc_size: u64 },
    /// A size or parameter was malformed (zero-size alloc, bad copy length).
    InvalidValue,
    /// Context id not known to the device (destroyed or never created).
    InvalidContext,
    /// Kernel name was never registered with a fat binary.
    UnknownKernel(String),
    /// The device has failed (fault injection or hot removal).
    DeviceFailed,
    /// The device id does not name an attached device.
    DeviceNotFound,
    /// The kernel's host payload reported an execution failure.
    LaunchFailed(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory => write!(f, "out of device memory"),
            GpuError::TooManyContexts => write!(f, "too many contexts on device"),
            GpuError::InvalidAddress => write!(f, "invalid device address"),
            GpuError::OutOfBounds { addr, len, alloc_size } => write!(
                f,
                "access of {len} bytes at {addr:#x} exceeds allocation of {alloc_size} bytes"
            ),
            GpuError::InvalidValue => write!(f, "invalid value"),
            GpuError::InvalidContext => write!(f, "invalid device context"),
            GpuError::UnknownKernel(name) => write!(f, "unknown kernel `{name}`"),
            GpuError::DeviceFailed => write!(f, "device failed"),
            GpuError::DeviceNotFound => write!(f, "device not found"),
            GpuError::LaunchFailed(msg) => write!(f, "kernel launch failed: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GpuError::OutOfBounds { addr: 0x100, len: 64, alloc_size: 32 };
        let s = e.to_string();
        assert!(s.contains("64 bytes"));
        assert!(s.contains("32 bytes"));
    }

    #[test]
    fn serializes_externally_tagged() {
        let e = GpuError::UnknownKernel("matmul".into());
        assert_eq!(serde_json::to_string(&e).unwrap(), r#"{"UnknownKernel":"matmul"}"#);
        let e = GpuError::OutOfBounds { addr: 0x100, len: 64, alloc_size: 32 };
        assert_eq!(
            serde_json::to_string(&e).unwrap(),
            r#"{"OutOfBounds":{"addr":256,"len":64,"alloc_size":32}}"#
        );
    }
}
