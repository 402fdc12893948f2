//! Application contexts: one per connected application thread.

use mtgpu_api::CudaError;
use mtgpu_gpusim::kernel::RegisteredKernel;
use mtgpu_gpusim::{DeviceId, Gpu, GpuContextId};
use mtgpu_simtime::{lock_rank, RankedMutex, RankedMutexGuard};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of an application context (one per application thread /
/// connection), unique within a node runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CtxId(pub u64);

impl std::fmt::Display for CtxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// Identifier of a virtual GPU: device slot plus vGPU index on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VGpuId {
    pub device: DeviceId,
    pub index: u32,
}

impl std::fmt::Display for VGpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}.{}", self.device.0, self.index)
    }
}

/// A context's current binding to a virtual GPU (and thereby to a physical
/// device and the vGPU's persistent CUDA context).
#[derive(Clone)]
pub struct Binding {
    pub vgpu: VGpuId,
    pub gpu: Arc<Gpu>,
    pub gpu_ctx: GpuContextId,
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Binding").field("vgpu", &self.vgpu).finish()
    }
}

/// Where a context's request for a vGPU stands. Written by the dispatcher
/// under its lock (`Queued` exactly while an entry for the context is in
/// the waiting list); the context's owner reads it through
/// [`crate::sched::BindingManager::poll`].
#[derive(Default)]
pub enum BindWait {
    /// Nothing asked for, or the entry left the waiting list ungranted:
    /// a lease reap's [`crate::sched::BindingManager::kick`], the
    /// shutdown drain, `acquire` running out of its deadline.
    #[default]
    Idle,
    /// An entry for the context sits in the dispatcher's waiting list.
    Queued,
    /// The entry was granted this vGPU; the owner's next poll takes it.
    Granted(Binding),
    /// The context was withdrawn for teardown: it neither queues nor binds
    /// again.
    Closed,
}

/// Mutable metadata of a context (short-held lock).
#[derive(Default)]
pub struct CtxInner {
    /// Kernels registered by this application thread (ordered so that any
    /// future iteration is deterministic), shared with the launches that
    /// run them.
    pub kernels: BTreeMap<String, Arc<RegisteredKernel>>,
    /// Modules registered so far (handles are 1-based per context).
    pub modules: u64,
    /// Current vGPU binding, if any.
    pub binding: Option<Binding>,
    /// Terminal failure, if the context could not be recovered.
    pub failed: Option<CudaError>,
    /// Whether this application is eligible for sharing and dynamic
    /// scheduling (false once a kernel with device-side `malloc` is
    /// registered, §1).
    pub ineligible_reason: Option<String>,
    /// Scheduling credits (credit-based policy).
    pub credits: u32,
    /// FCFS ticket, drawn at the context's first `enqueue` and cleared by
    /// the grant: an entry that leaves the list ungranted queues again at
    /// its old position.
    pub wait_ticket: Option<u64>,
    /// The dispatcher's side of a pending vGPU request.
    pub bind_wait: BindWait,
    /// CUDA 4.0 application identifier (§4.8): threads of one application
    /// must be bound to the same device so they could share data.
    pub app_id: Option<u64>,
    /// Profiling hint: the job's estimated total GPU work in FLOPs, used by
    /// the shortest-job-first policy (§2).
    pub est_job_flops: Option<f64>,
    /// What a monitor pass asked of the context while it was mid-call, and
    /// which pass (its number): done by the context's next launch off the
    /// reactor, between calls, if no later pass has run by then
    /// ([`crate::monitor::answer`]).
    pub ask: Option<(u64, Ask)>,
}

/// What a monitor pass asks of a context it finds mid-call, for the context
/// to do itself at its next kernel boundary: a context that leaves no gap
/// between its calls (an in-process client with no CPU phase) is never
/// caught idle by a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// Run the balancing pass (§5.3.4) that picked it again: it moves the
    /// context if the move still clears the margin.
    Rebalance,
    /// Give the device up as an inter-application victim (§4.5), if a launch
    /// still waits for room there.
    Yield,
}

/// One application thread's context (the paper's `Context` structure, §4.6:
/// connection link, last call info, error code — plus our locks).
pub struct AppContext {
    pub id: CtxId,
    /// Arrival sequence number (FCFS ordering).
    pub seq: u64,
    /// Diagnostic label (job name).
    pub label: String,
    /// Long-held lock serializing all servicing of this context. The worker
    /// visiting its channel takes it around each call; swappers/migrators take it
    /// opportunistically (`try_lock`) — success implies the context is in a
    /// CPU phase with no call in flight (§4.5's victim condition).
    service: RankedMutex<()>,
    /// Short-held metadata lock.
    inner: RankedMutex<CtxInner>,
}

impl AppContext {
    /// Creates a context with default credits.
    pub fn new(id: CtxId, seq: u64, label: String) -> Arc<Self> {
        Arc::new(AppContext {
            id,
            seq,
            label,
            service: RankedMutex::new(lock_rank::CTX_SERVICE, ()),
            inner: RankedMutex::new(
                lock_rank::CTX_INNER,
                CtxInner { credits: 4, ..CtxInner::default() },
            ),
        })
    }

    /// Acquires the service lock (the worker serving a call, blocking).
    pub fn service_lock(&self) -> RankedMutexGuard<'_, ()> {
        self.service.lock()
    }

    /// Tries to acquire the service lock (swapper/migrator path): `None`
    /// means the context is mid-call and must not be disturbed.
    pub fn try_service_lock(&self) -> Option<RankedMutexGuard<'_, ()>> {
        self.service.try_lock()
    }

    /// Access to the metadata.
    pub fn inner(&self) -> RankedMutexGuard<'_, CtxInner> {
        self.inner.lock()
    }

    /// The current binding, if any.
    pub fn binding(&self) -> Option<Binding> {
        self.inner.lock().binding.clone()
    }

    /// Marks the context terminally failed.
    pub fn mark_failed(&self, err: CudaError) {
        self.inner.lock().failed = Some(err);
    }

    /// Registers a kernel; flips eligibility if it uses device-side
    /// allocation (§1: such applications are excluded from sharing and
    /// dynamic scheduling).
    pub fn register_kernel(&self, kernel: RegisteredKernel) {
        let mut inner = self.inner.lock();
        if kernel.desc.uses_dynamic_alloc {
            inner.ineligible_reason =
                Some(format!("kernel `{}` performs dynamic device allocation", kernel.desc.name));
        }
        inner.kernels.insert(kernel.desc.name.clone(), Arc::new(kernel));
    }

    /// Whether the context may participate in sharing/dynamic scheduling.
    pub fn is_eligible(&self) -> bool {
        self.inner.lock().ineligible_reason.is_none()
    }
}

impl std::fmt::Debug for AppContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppContext").field("id", &self.id).field("label", &self.label).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::KernelDesc;

    #[test]
    fn try_service_lock_reflects_business() {
        let ctx = AppContext::new(CtxId(1), 0, "t".into());
        {
            let _guard = ctx.service_lock();
            assert!(ctx.try_service_lock().is_none(), "locked ⇒ busy");
        }
        assert!(ctx.try_service_lock().is_some(), "unlocked ⇒ idle");
    }

    #[test]
    fn dynamic_alloc_kernel_disqualifies() {
        let ctx = AppContext::new(CtxId(1), 0, "t".into());
        assert!(ctx.is_eligible());
        ctx.register_kernel(RegisteredKernel {
            desc: KernelDesc {
                name: "devmalloc".into(),
                uses_nested_pointers: false,
                uses_dynamic_alloc: true,
                read_only_args: Vec::new(),
            },
            payload: None,
        });
        assert!(!ctx.is_eligible());
    }

    #[test]
    fn failure_is_sticky() {
        let ctx = AppContext::new(CtxId(1), 0, "t".into());
        ctx.mark_failed(CudaError::DeviceUnavailable);
        assert_eq!(ctx.inner().failed, Some(CudaError::DeviceUnavailable));
    }
}
