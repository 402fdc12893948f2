use mtgpu_gpusim::GpuError;
use serde::Serialize;
use std::fmt;

/// CUDA-style error codes returned to applications.
///
/// The first group mirrors `cudaError_t` values; the second group are the
/// runtime-generated errors of the paper's Table 1 ("A virtual address cannot
/// be assigned", "Swap memory cannot be allocated", "No valid PTE",
/// "Swap-data size mismatch", "Cannot de-allocate swap"); the third group are
/// transport-level failures only the interposition path can produce.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum CudaError {
    // --- cudaError_t equivalents -------------------------------------
    /// `cudaErrorMemoryAllocation`: device memory exhausted.
    MemoryAllocation,
    /// `cudaErrorInvalidValue`: malformed size/parameter.
    InvalidValue,
    /// `cudaErrorInvalidDevicePointer`: pointer not backed by a live
    /// allocation (the runtime's "No valid PTE").
    InvalidDevicePointer,
    /// Access extends beyond the allocation's declared bounds (a "bad memory
    /// operation" the memory manager detects before the GPU would, §4.5).
    OutOfBounds,
    /// `cudaErrorInvalidDevice`: device ordinal out of range.
    InvalidDevice,
    /// `cudaErrorNoDevice`: no GPU present.
    NoDevice,
    /// `cudaErrorLaunchFailure`: the kernel failed on device.
    LaunchFailure(String),
    /// `cudaErrorInvalidDeviceFunction`: kernel never registered.
    InvalidDeviceFunction(String),
    /// The device failed or was removed while the application was using it
    /// and the runtime could not recover the context.
    DeviceUnavailable,
    /// The CUDA runtime refused to create another context (the >8-context
    /// instability the paper observed, §1/§5.3.1).
    TooManyContexts,

    // --- runtime (Table 1) errors ------------------------------------
    /// A virtual address cannot be assigned.
    VirtualAddressExhausted,
    /// Swap memory cannot be allocated on the host.
    SwapAllocation,
    /// Swap-data size mismatch on a host-to-device copy.
    SizeMismatch,
    /// Cannot de-allocate swap.
    SwapDeallocation,
    /// The application performs dynamic device-side allocation and asked for
    /// a facility (sharing/dynamic scheduling) it is excluded from (§1).
    NotEligible(String),

    // --- tenant-policy errors ----------------------------------------
    /// The request would exceed the tenant's lease (memory quota, context
    /// cap) or the node-wide admission limit; the message names the
    /// exhausted resource.
    QuotaExceeded(String),
    /// The tenant's lease TTL has elapsed; the runtime has reaped (or is
    /// reaping) the tenant's contexts and refuses further work.
    LeaseExpired,
    /// Guardian-style descriptor validation rejected the request before it
    /// reached dispatch (oversized argument list, out-of-range launch
    /// geometry, payload larger than its declared length, ...).
    MalformedDescriptor(String),
    /// A host buffer carried a content hash that does not match its
    /// payload: the bytes were corrupted or forged in flight.
    PayloadHashMismatch,

    // --- transport errors --------------------------------------------
    /// The connection to the runtime daemon broke.
    Disconnected,
    /// The peer sent a frame that does not decode.
    Protocol(String),
}

impl CudaError {
    /// Maps a device/driver error onto the CUDA-style code applications see.
    pub fn from_gpu(e: GpuError) -> CudaError {
        match e {
            GpuError::OutOfMemory => CudaError::MemoryAllocation,
            GpuError::TooManyContexts => CudaError::TooManyContexts,
            GpuError::InvalidAddress => CudaError::InvalidDevicePointer,
            GpuError::OutOfBounds { .. } => CudaError::OutOfBounds,
            GpuError::InvalidValue => CudaError::InvalidValue,
            GpuError::InvalidContext => CudaError::InvalidDevicePointer,
            GpuError::UnknownKernel(name) => CudaError::InvalidDeviceFunction(name),
            GpuError::DeviceFailed => CudaError::DeviceUnavailable,
            GpuError::DeviceNotFound => CudaError::InvalidDevice,
            GpuError::LaunchFailed(msg) => CudaError::LaunchFailure(msg),
        }
    }
}

impl From<GpuError> for CudaError {
    fn from(e: GpuError) -> Self {
        CudaError::from_gpu(e)
    }
}

impl fmt::Display for CudaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CudaError::MemoryAllocation => write!(f, "cudaErrorMemoryAllocation"),
            CudaError::InvalidValue => write!(f, "cudaErrorInvalidValue"),
            CudaError::InvalidDevicePointer => write!(f, "cudaErrorInvalidDevicePointer"),
            CudaError::OutOfBounds => write!(f, "access beyond allocation bounds"),
            CudaError::InvalidDevice => write!(f, "cudaErrorInvalidDevice"),
            CudaError::NoDevice => write!(f, "cudaErrorNoDevice"),
            CudaError::LaunchFailure(m) => write!(f, "cudaErrorLaunchFailure: {m}"),
            CudaError::InvalidDeviceFunction(k) => {
                write!(f, "cudaErrorInvalidDeviceFunction: {k}")
            }
            CudaError::DeviceUnavailable => write!(f, "device unavailable"),
            CudaError::TooManyContexts => write!(f, "too many concurrent CUDA contexts"),
            CudaError::VirtualAddressExhausted => {
                write!(f, "a virtual address cannot be assigned")
            }
            CudaError::SwapAllocation => write!(f, "swap memory cannot be allocated"),
            CudaError::SizeMismatch => write!(f, "swap-data size mismatch"),
            CudaError::SwapDeallocation => write!(f, "cannot de-allocate swap"),
            CudaError::NotEligible(m) => write!(f, "application not eligible: {m}"),
            CudaError::QuotaExceeded(m) => write!(f, "tenant quota exceeded: {m}"),
            CudaError::LeaseExpired => write!(f, "tenant lease expired"),
            CudaError::MalformedDescriptor(m) => write!(f, "malformed descriptor: {m}"),
            CudaError::PayloadHashMismatch => write!(f, "payload hash mismatch"),
            CudaError::Disconnected => write!(f, "runtime connection lost"),
            CudaError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for CudaError {}

/// Result alias for all API operations.
pub type CudaResult<T> = Result<T, CudaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_error_mapping() {
        assert_eq!(CudaError::from_gpu(GpuError::OutOfMemory), CudaError::MemoryAllocation);
        assert_eq!(CudaError::from_gpu(GpuError::InvalidAddress), CudaError::InvalidDevicePointer);
        assert_eq!(
            CudaError::from_gpu(GpuError::OutOfBounds { addr: 0, len: 1, alloc_size: 0 }),
            CudaError::OutOfBounds
        );
        assert_eq!(CudaError::from_gpu(GpuError::DeviceFailed), CudaError::DeviceUnavailable);
        assert_eq!(
            CudaError::from_gpu(GpuError::UnknownKernel("k".into())),
            CudaError::InvalidDeviceFunction("k".into())
        );
    }

    #[test]
    fn serializes_externally_tagged() {
        let e = CudaError::LaunchFailure("boom".into());
        assert_eq!(serde_json::to_string(&e).unwrap(), r#"{"LaunchFailure":"boom"}"#);
        let unit = CudaError::MemoryAllocation;
        assert_eq!(serde_json::to_string(&unit).unwrap(), r#""MemoryAllocation""#);
    }
}
