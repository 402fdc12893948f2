//! Timed GPU device model and CUDA-semantics driver for the `mtgpu`
//! workspace.
//!
//! The HPDC'12 paper runs on NVIDIA Tesla C2050/C1060 and Quadro 2000 GPUs
//! behind the CUDA 3.2 driver. This crate substitutes that hardware and
//! driver stack with a faithful *behavioural* model — the properties the
//! paper's runtime actually depends on:
//!
//! * each device has a **separate device memory** of finite capacity, managed
//!   by a first-fit allocator that can fragment ([`alloc::BlockAllocator`]);
//! * **kernels occupy a device** for a work-proportional time, FIFO across
//!   contexts, exactly like pre-Kepler CUDA serializes kernels from distinct
//!   contexts ([`engine::FifoEngine`]);
//! * **transfers cost bytes / PCIe-bandwidth** and occupy a copy engine;
//! * devices differ in **compute capability** ([`GpuSpec`] presets match the
//!   paper's testbed);
//! * the CUDA runtime **fails beyond 8 concurrent contexts** and on
//!   aggregate memory over-commit ([`Driver`]), the two failure modes the
//!   paper's runtime exists to fix;
//! * devices can **fail, be removed, or be hot-added** at runtime.
//!
//! Device memory holds *real bytes*: allocations carry a materialized shadow
//! buffer (capped for paper-scale footprints) so that kernels implemented as
//! host functions compute real results and the memory-manager's swap and
//! migration machinery can be verified end-to-end for data integrity.

pub mod alloc;
pub mod device;
pub mod driver;
pub mod engine;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod spec;
pub mod stats;

pub use device::{CopyDir, CopyOp, DeviceAddr, Gpu, GpuContextId, GpuHold};
pub use driver::{DeviceId, Driver};
pub use error::GpuError;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use kernel::{
    Dim3, KernelArg, KernelDesc, KernelExec, KernelFn, LaunchConfig, LaunchSpec, Work,
};
pub use spec::GpuSpec;
pub use stats::DeviceStats;

/// Convenient alias used across the crate.
pub type Result<T> = std::result::Result<T, GpuError>;
