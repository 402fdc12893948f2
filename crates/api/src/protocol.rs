//! The wire protocol between the interposition frontend and the runtime.
//!
//! Every CUDA call an application thread makes becomes one [`CudaCall`]
//! frame; the runtime answers with one [`CudaReply`]. The protocol is
//! strictly request/response per connection (matching CUDA's synchronous
//! runtime-API semantics on a per-thread basis).

use crate::error::CudaError;
use crate::host_buf::HostBuf;
use mtgpu_gpusim::{DeviceAddr, GpuSpec, KernelDesc, LaunchConfig, LaunchSpec};
use serde::Serialize;

/// A relocatable snapshot of one application context's memory state: every
/// page-table entry with its virtual address and host-authoritative data.
///
/// Produced by [`CudaCall::ExportImage`] (after an implicit checkpoint) and
/// consumed by [`CudaCall::ImportImage`] on any node — the §4.6 mechanism
/// that, combined with a process checkpointer like BLCR, survives a full
/// node restart. Virtual addresses are preserved, so the application's
/// pointers remain valid after restoration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct ContextImage {
    /// Diagnostic label of the source context.
    pub label: String,
    /// One entry per live allocation.
    pub entries: Vec<ImageEntry>,
}

/// One allocation inside a [`ContextImage`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ImageEntry {
    /// The virtual address the application holds.
    pub vaddr: DeviceAddr,
    /// Declared size in bytes.
    pub size: u64,
    /// Allocation kind.
    pub kind: AllocKind,
    /// Materialized shadow bytes (prefix of the declared content).
    pub data: Vec<u8>,
    /// Virtual addresses of registered nested members.
    pub nested_members: Vec<DeviceAddr>,
    /// Virtual address of the nesting parent, if a member.
    pub nested_parent: Option<DeviceAddr>,
}

impl ContextImage {
    /// Total declared bytes across entries.
    pub fn declared_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Host bytes the image carries: each entry's materialized data.
    pub fn data_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.data.len()).sum()
    }
}

/// Handle to a registered fat binary (module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ModuleHandle(pub u64);

/// A CUDA call crossing the interposition boundary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CudaCall {
    // --- internal registration routines (issued before any context exists,
    //     §4.3) ------------------------------------------------------------
    /// `__cudaRegisterFatBinary`: announces a module.
    RegisterFatBinary,
    /// `__cudaRegisterFunction`: attaches a kernel to a module. Only the
    /// metadata crosses the wire; payloads resolve from the backend's
    /// kernel library.
    RegisterFunction { module: ModuleHandle, kernel: KernelDesc },
    /// `__cudaRegisterVar` / `__cudaRegisterSharedVar`.
    RegisterVar { module: ModuleHandle, name: String, size: u64 },
    /// `__cudaRegisterTexture`.
    RegisterTexture { module: ModuleHandle, name: String },

    // --- device management -------------------------------------------------
    /// CUDA 4.0 support (§4.8): announces the application this thread
    /// belongs to. "Each thread connection should carry the information
    /// about the corresponding application identifier ... used to ensure
    /// that application threads sharing data are mapped onto the same
    /// device." Threads that never send it are scheduled independently
    /// (CUDA 3.2 semantics).
    SetApplication { app_id: u64 },
    /// `cudaSetDevice` — ignored (overridden) by the mtgpu runtime, honoured
    /// by the bare runtime.
    SetDevice { device: u32 },
    /// `cudaGetDeviceCount` — the mtgpu runtime reports *virtual* GPUs.
    GetDeviceCount,
    /// `cudaGetDeviceProperties`.
    GetDeviceProperties { device: u32 },

    // --- memory -------------------------------------------------------------
    /// `cudaMalloc` and friends (`cudaMallocArray`, `cudaMallocPitch` are
    /// distinguished by `kind` for Table 1 fidelity).
    Malloc { size: u64, kind: AllocKind },
    /// `cudaFree`.
    Free { ptr: DeviceAddr },
    /// `cudaMemcpy(HostToDevice)` and 2D variants.
    MemcpyH2D { dst: DeviceAddr, buf: HostBuf },
    /// `cudaMemcpy(DeviceToHost)`.
    MemcpyD2H { src: DeviceAddr, len: u64 },
    /// `cudaMemcpy(DeviceToDevice)`.
    MemcpyD2D { dst: DeviceAddr, src: DeviceAddr, len: u64 },

    // --- execution -----------------------------------------------------------
    /// `cudaConfigureCall`: stages the next launch's configuration.
    ConfigureCall { config: LaunchConfig },
    /// `cudaLaunch`: the staged configuration plus arguments and work model.
    Launch { spec: LaunchSpec },
    /// `cudaThreadSynchronize` / `cudaDeviceSynchronize`.
    Synchronize,

    // --- mtgpu runtime API extensions (§1, §4.6) ------------------------------
    /// Declares a nested data structure: `parent` holds device pointers to
    /// `members`; the memory manager keeps them consistent across swaps.
    RegisterNested { parent: DeviceAddr, members: Vec<DeviceAddr> },
    /// Explicit checkpoint request: flush device-resident dirty data to the
    /// swap area so the context can be restarted elsewhere.
    Checkpoint,
    /// Scheduling hint (§2: "a scheduling algorithm that prioritizes short
    /// running applications can be preferable if profiling information is
    /// available"): the application's estimated total GPU work in FLOPs.
    /// Consumed by the shortest-job-first policy; ignored otherwise.
    HintJobLength { flops: f64 },
    /// Checkpoint and export the context's full memory image (§4.6).
    ExportImage,
    /// Seed a fresh context from an exported image, preserving virtual
    /// addresses. Rejected once the context has allocations of its own.
    ImportImage { image: ContextImage },

    /// Control frame: this connection was relayed from a peer node (§4.7).
    /// A node never re-offloads a connection carrying this marker, which
    /// prevents relay ping-pong between mutually-peered nodes.
    Offloaded,

    /// Connection teardown (`cudaThreadExit` / process exit).
    Exit,
}

/// One frame on the wire, where many client contexts may share a single
/// socket (DESIGN.md §12).
///
/// A request names the channel it belongs to (`chan`, the server-side
/// context key — one channel is one application thread's call stream)
/// and a connection-unique request ID (`id`, the client-side demux key).
/// Responses echo only the ID and may arrive in any order; the client
/// matches them back to waiting callers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum MuxFrame {
    /// Client → server: one CUDA call on one channel.
    Request { chan: u64, id: u64, call: CudaCall },
    /// Server → client: the reply to the request carrying `id`.
    Response { id: u64, reply: CudaReply },
}

/// How a device allocation was requested (Table 1 groups them all under
/// "Malloc" but the runtime records the kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub enum AllocKind {
    #[default]
    Linear,
    Array,
    Pitched,
}

/// Successful payloads of a [`CudaReply`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ReplyValue {
    Unit,
    Module(ModuleHandle),
    DeviceCount(u32),
    Properties(Box<GpuSpec>),
    Ptr(DeviceAddr),
    Bytes(HostBuf),
    /// Kernel completed; simulated execution nanoseconds (diagnostic).
    LaunchDone {
        sim_nanos: u64,
    },
    /// A context memory image (reply to [`CudaCall::ExportImage`]).
    Image(Box<ContextImage>),
}

/// The runtime's answer to one [`CudaCall`].
pub type CudaReply = Result<ReplyValue, CudaError>;

impl CudaCall {
    /// A short name for tracing.
    pub fn name(&self) -> &'static str {
        match self {
            CudaCall::RegisterFatBinary => "RegisterFatBinary",
            CudaCall::RegisterFunction { .. } => "RegisterFunction",
            CudaCall::RegisterVar { .. } => "RegisterVar",
            CudaCall::RegisterTexture { .. } => "RegisterTexture",
            CudaCall::SetApplication { .. } => "SetApplication",
            CudaCall::SetDevice { .. } => "SetDevice",
            CudaCall::GetDeviceCount => "GetDeviceCount",
            CudaCall::GetDeviceProperties { .. } => "GetDeviceProperties",
            CudaCall::Malloc { .. } => "Malloc",
            CudaCall::Free { .. } => "Free",
            CudaCall::MemcpyH2D { .. } => "MemcpyH2D",
            CudaCall::MemcpyD2H { .. } => "MemcpyD2H",
            CudaCall::MemcpyD2D { .. } => "MemcpyD2D",
            CudaCall::ConfigureCall { .. } => "ConfigureCall",
            CudaCall::Launch { .. } => "Launch",
            CudaCall::Synchronize => "Synchronize",
            CudaCall::RegisterNested { .. } => "RegisterNested",
            CudaCall::Checkpoint => "Checkpoint",
            CudaCall::HintJobLength { .. } => "HintJobLength",
            CudaCall::ExportImage => "ExportImage",
            CudaCall::ImportImage { .. } => "ImportImage",
            CudaCall::Offloaded => "Offloaded",
            CudaCall::Exit => "Exit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_exact, Wire};

    #[test]
    fn wire_roundtrip() {
        fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
            let mut bytes = Vec::new();
            value.encode(&mut bytes);
            assert_eq!(decode_exact::<T>(&bytes).unwrap(), value);
        }
        roundtrip(CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x1000),
            buf: HostBuf::from_slice(&[1, 2, 3]),
        });
        roundtrip::<CudaReply>(Ok(ReplyValue::Ptr(DeviceAddr(0x2000))));
        roundtrip::<CudaReply>(Err(CudaError::MemoryAllocation));
    }

    #[test]
    fn names_cover_variants() {
        assert_eq!(CudaCall::Exit.name(), "Exit");
        assert_eq!(CudaCall::GetDeviceCount.name(), "GetDeviceCount");
    }
}
