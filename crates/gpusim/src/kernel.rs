//! Kernel descriptors, launch configurations and functional payloads.
//!
//! The paper's runtime treats kernels as opaque: it sees the launch call, its
//! pointer arguments, and its execution configuration, plus two static
//! properties recoverable by "intercepting and parsing the pseudo-assembly
//! (PTX) representation" (§1): whether the kernel uses nested pointers and
//! whether it performs dynamic device-memory allocation. [`KernelDesc`]
//! carries exactly that surface.
//!
//! For end-to-end verifiability our kernels may additionally carry a *host
//! payload* ([`KernelFn`]): a function that computes the kernel's real result
//! on the materialized shadow buffers of its pointer arguments. The runtime
//! never looks at the payload — only the device executes it — so scheduling
//! decisions cannot cheat.

use crate::device::DeviceAddr;
use crate::error::GpuError;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// CUDA `dim3`: kernel grid/block dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// A 1-D dimension of extent `x`.
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// Total number of elements covered.
    pub const fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3::x(1)
    }
}

/// Execution configuration, as set by `cudaConfigureCall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
    pub shared_mem_bytes: u32,
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig { grid: Dim3::x(1), block: Dim3::x(256), shared_mem_bytes: 0 }
    }
}

/// The work a launch represents, used by the device timing model:
/// `time = max(flops / device_flops, bytes / device_membw) + overhead`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Work {
    /// Floating-point operations performed by the launch.
    pub flops: f64,
    /// Device-memory bytes touched by the launch.
    pub bytes: f64,
}

impl Work {
    /// Work dominated by computation.
    pub fn flops(flops: f64) -> Self {
        Work { flops, bytes: 0.0 }
    }
}

/// An argument passed to a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum KernelArg {
    /// A device pointer (virtual under the mtgpu runtime, physical on the
    /// bare driver).
    Ptr(DeviceAddr),
    /// An integer scalar.
    Scalar(u64),
    /// A floating-point scalar.
    Float(f64),
}

impl KernelArg {
    /// The pointer value, if this argument is one.
    pub fn as_ptr(&self) -> Option<DeviceAddr> {
        match self {
            KernelArg::Ptr(p) => Some(*p),
            _ => None,
        }
    }
}

/// Static description of a kernel, registered via
/// `__cudaRegisterFunction` from a fat binary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct KernelDesc {
    /// Mangled-but-readable kernel name; the registry key.
    pub name: String,
    /// Kernel dereferences nested device pointers (detected from PTX in the
    /// paper; such data must be registered via the nesting API).
    pub uses_nested_pointers: bool,
    /// Kernel calls `malloc` on the device (CUDA ≥3.2 feature); such
    /// applications are excluded from sharing and dynamic scheduling (§1).
    pub uses_dynamic_alloc: bool,
    /// Argument positions (into the launch's argument list) the kernel only
    /// *reads*. Figure 4's default "assumes all data referenced in a kernel
    /// launch can be modified"; the paper notes "a more fine-grained
    /// handling is possible if the information about read-only and
    /// read-write parameters is available" (§4.5) — this is that
    /// information, recoverable from PTX in the original system. Entries
    /// reached only through read-only arguments stay clean after the
    /// launch, so swapping them out needs no device-to-host copy.
    pub read_only_args: Vec<u32>,
}

impl KernelDesc {
    /// A plain kernel: no nested pointers, no device-side allocation, all
    /// parameters conservatively treated as read-write.
    pub fn plain(name: impl Into<String>) -> Self {
        KernelDesc {
            name: name.into(),
            uses_nested_pointers: false,
            uses_dynamic_alloc: false,
            read_only_args: Vec::new(),
        }
    }

    /// Marks argument positions as read-only (builder style).
    #[must_use]
    pub fn with_read_only_args(mut self, args: Vec<u32>) -> Self {
        self.read_only_args = args;
        self
    }
}

/// A complete launch request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LaunchSpec {
    pub kernel: String,
    pub config: LaunchConfig,
    pub args: Vec<KernelArg>,
    pub work: Work,
}

impl LaunchSpec {
    /// Pointer arguments of the launch, in order.
    pub fn ptr_args(&self) -> impl Iterator<Item = DeviceAddr> + '_ {
        self.args.iter().filter_map(KernelArg::as_ptr)
    }
}

/// Mutable view of device memory a kernel payload executes against.
///
/// Addresses are resolved through the owning device, so payloads can only
/// touch live allocations and within declared bounds.
/// Resolver a device supplies to kernel payloads: runs a closure over the
/// materialized bytes of one live allocation.
pub(crate) type ResolveFn<'a> =
    dyn FnMut(DeviceAddr, u64, &mut dyn FnMut(&mut [u8])) -> Result<(), GpuError> + 'a;

pub struct KernelExec<'a> {
    pub(crate) resolve: &'a mut ResolveFn<'a>,
    pub(crate) args: &'a [KernelArg],
    pub(crate) work: Work,
}

impl<'a> KernelExec<'a> {
    /// The launch arguments.
    pub fn args(&self) -> &[KernelArg] {
        self.args
    }

    /// The work the launch declares: what the device charges for it, so a
    /// payload whose host work grows faster than the bytes it reads bounds
    /// that work by it.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Runs `f` over the first `len` materialized bytes of the allocation at
    /// `addr`. Fails if the address is dead or `len` exceeds the declared
    /// allocation size. If the shadow buffer is smaller than `len` (scaled
    /// paper-size footprints), `f` sees the materialized prefix.
    pub fn with_bytes_mut(
        &mut self,
        addr: DeviceAddr,
        len: u64,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), GpuError> {
        (self.resolve)(addr, len, f)
    }

    /// Typed convenience: runs `f` over exactly `len_bytes / 4` `f32`s at
    /// `addr`. A start that is not 4-byte aligned fails `InvalidValue`, and
    /// a view the materialization cap cuts short fails `LaunchFailed`;
    /// either way `f` does not run.
    pub fn with_f32_mut(
        &mut self,
        addr: DeviceAddr,
        len_bytes: u64,
        f: impl FnOnce(&mut [f32]),
    ) -> Result<(), GpuError> {
        let want = (len_bytes / 4) as usize;
        let mut f = Some(f);
        let mut view = Ok(());
        self.with_bytes_mut(addr, len_bytes, &mut |bytes| {
            // SAFETY: every bit pattern is a valid `f32`; `align_to_mut`
            // only hands out the aligned middle of the byte slice.
            let (head, floats, _) = unsafe { bytes.align_to_mut::<f32>() };
            view = if !head.is_empty() {
                Err(GpuError::InvalidValue)
            } else if floats.len() < want {
                Err(GpuError::LaunchFailed(format!(
                    "{len_bytes}-byte f32 view at {addr} exceeds the materialized prefix"
                )))
            } else {
                if let Some(f) = f.take() {
                    f(&mut floats[..want]);
                }
                Ok(())
            };
        })?;
        view
    }
}

/// A kernel's functional payload: computes the real result on shadow buffers.
pub type KernelFn = Arc<dyn Fn(&mut KernelExec<'_>) -> Result<(), GpuError> + Send + Sync>;

/// A registered kernel: descriptor plus optional payload.
#[derive(Clone)]
pub struct RegisteredKernel {
    pub desc: KernelDesc,
    pub payload: Option<KernelFn>,
}

impl fmt::Debug for RegisteredKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisteredKernel")
            .field("desc", &self.desc)
            .field("payload", &self.payload.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// Process-global kernel library.
///
/// gVirtuS-style API remoting ships only the fat-binary *metadata* (names
/// and PTX-derived flags) over the wire; the executable payload is resolved
/// on the backend from the binaries installed there. This library plays that
/// role: workload crates register their kernels' functional payloads once
/// per process, and any backend (in-process or across TCP) resolves them by
/// name at launch time. Kernels without a library entry still run — they
/// just carry no functional payload (timing-only).
pub mod library {
    use super::RegisteredKernel;
    use mtgpu_simtime::{lock_rank, RankedRwLock};
    use std::collections::HashMap;
    use std::sync::OnceLock;

    fn store() -> &'static RankedRwLock<HashMap<String, RegisteredKernel>> {
        static STORE: OnceLock<RankedRwLock<HashMap<String, RegisteredKernel>>> = OnceLock::new();
        STORE.get_or_init(|| RankedRwLock::new(lock_rank::KERNEL_STORE, HashMap::new()))
    }

    /// Registers (or replaces) a kernel in the process-global library.
    pub fn register(kernel: RegisteredKernel) {
        store().write().insert(kernel.desc.name.clone(), kernel);
    }

    /// Looks up a kernel by name.
    pub fn lookup(name: &str) -> Option<RegisteredKernel> {
        store().read().get(name).cloned()
    }

    /// Whether a kernel with this name is registered.
    pub fn contains(name: &str) -> bool {
        store().read().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_count() {
        assert_eq!(Dim3 { x: 4, y: 2, z: 3 }.count(), 24);
        assert_eq!(Dim3::x(7).count(), 7);
    }

    #[test]
    fn launch_spec_extracts_ptr_args() {
        let spec = LaunchSpec {
            kernel: "k".into(),
            config: LaunchConfig::default(),
            args: vec![
                KernelArg::Ptr(DeviceAddr(0x100)),
                KernelArg::Scalar(42),
                KernelArg::Ptr(DeviceAddr(0x200)),
                KernelArg::Float(1.5),
            ],
            work: Work::flops(1e6),
        };
        let ptrs: Vec<_> = spec.ptr_args().collect();
        assert_eq!(ptrs, vec![DeviceAddr(0x100), DeviceAddr(0x200)]);
    }

    #[test]
    fn plain_desc_flags_off() {
        let d = KernelDesc::plain("k");
        assert!(!d.uses_nested_pointers);
        assert!(!d.uses_dynamic_alloc);
    }
}
