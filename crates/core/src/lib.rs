//! # mtgpu-core — a virtual-memory based runtime for multi-tenant GPUs
//!
//! Rust reproduction of the runtime system of *"A Virtual Memory Based
//! Runtime to Support Multi-tenancy in Clusters with GPUs"* (Becchi et al.,
//! HPDC 2012).
//!
//! The runtime provides **abstraction** (applications never pick a GPU),
//! **sharing** (k virtual GPUs per device time-share it), **isolation**
//! (each application sees a private virtual address space), **configurable
//! scheduling**, **dynamic application-to-GPU binding** (delayed until the
//! first kernel launch, revocable for swap/migration/failure), a **virtual
//! memory abstraction** with intra- and inter-application swap, and
//! **fault tolerance** with checkpoint-restart.
//!
//! ```
//! use mtgpu_core::{NodeRuntime, RuntimeConfig};
//! use mtgpu_gpusim::{Driver, GpuSpec};
//! use mtgpu_simtime::Clock;
//! use mtgpu_api::CudaClient;
//!
//! let driver = Driver::with_devices(Clock::with_scale(1e-6), vec![GpuSpec::test_small()]);
//! let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
//! let mut client = rt.local_client();
//! let ptr = client.malloc(1024).unwrap(); // a *virtual* address
//! client.free(ptr).unwrap();
//! client.exit().unwrap();
//! rt.shutdown();
//! ```

pub mod config;
pub mod ctx;
pub mod memory;
pub mod metrics;
pub mod migrate;
pub mod monitor;
pub mod mux;
pub mod policy;
pub mod runtime;
pub mod sched;
pub mod service;
pub mod trace;

pub use config::{RuntimeConfig, SchedulerPolicy};
pub use ctx::{AppContext, Binding, CtxId, VGpuId};
pub use memory::{
    Flags, Materialize, MemoryConfig, MemoryManager, MigrationEntry, Recovery, SwapOutcome,
    SwapReason, TouchStamp,
};
pub use metrics::{DeviceUtilization, MetricsSnapshot, RuntimeMetrics};
pub use migrate::{MigrationError, MigrationPhase, MigrationStats};
pub use policy::{GpuLease, LeaseBook, TenantKey, TenantPolicyConfig, TenantUsage};
pub use runtime::{LoadInfo, NodeRuntime};
pub use sched::{BindingManager, DeviceView, Room, VGpu};
pub use service::InProcessChannel;
pub use trace::{TraceEvent, TraceRecord, Tracer, UnbindReason};
