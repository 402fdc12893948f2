//! Per-call service: the dispatcher's call handling (§4.3) and the launch
//! path with its memory-pressure escalation ladder (§4.5).
//!
//! Every call runs through [`run_call`], under its context's service lock,
//! on a thread that serves that connection (the paper's "each dispatcher
//! thread processes a different connection"): an in-process client's own
//! thread ([`InProcessChannel`]); for a wire channel of the gateway
//! ([`crate::mux`]), the reactor that read the call when [`fits_on_reactor`]
//! admits it and its channel is idle, a pool worker otherwise. Calls are
//! handled as Table 1 specifies:
//!
//! 1. registration functions are absorbed before any binding exists;
//! 2. device-management functions are serviced and overridden to hide the
//!    node's hardware (`cudaSetDevice` ignored, `cudaGetDeviceCount`
//!    reports *virtual* GPUs);
//! 3. memory operations go through the memory manager in terms of virtual
//!    addresses, with no CUDA action under deferral;
//! 4. the first kernel launch triggers application-to-vGPU binding — the
//!    *delayed binding* that makes informed scheduling possible.
//!
//! On launch-time memory pressure the escalation is: intra-application swap
//! (inside [`crate::memory::MemoryManager::prepare_launch`]) →
//! inter-application swap of an idle victim on the same device → priority
//! preemption → unbind-and-retry.
//!
//! Nothing in [`run_call`] waits for a vGPU: a launch that cannot bind at
//! once comes back as [`Abort::WouldBlock`], and the only place it then
//! waits is a [`crate::sched::BindingManager`] queue entry — the gateway's
//! wire channel without a thread, an in-process client on its own. So does
//! a launch that gave its vGPU up for want of memory: its entry carries a
//! [`Room`] and is parked on that device until another context makes room
//! there — releases its vGPU, frees a resident entry, is swapped out, or
//! sits idle at a monitor pass — or its working set fits where placement
//! puts it.

use crate::ctx::{AppContext, Binding, CtxId};
use crate::memory::{LaunchSet, Materialize, Recovery, SwapReason};
use crate::metrics::RuntimeMetrics;
use crate::monitor;
use crate::mux::VISIT_REPLY_BYTES;
use crate::runtime::NodeRuntime;
use crate::sched::Room;
use crate::trace::{TraceEvent, UnbindReason};
use mtgpu_api::guard::{self, DescriptorLimits};
use mtgpu_api::protocol::{AllocKind, CudaCall, CudaReply, ModuleHandle, ReplyValue};
use mtgpu_api::{CudaError, Transport};
use mtgpu_gpusim::kernel::{library, RegisteredKernel};
use mtgpu_gpusim::DeviceAddr;
use mtgpu_gpusim::{Gpu, GpuError, GpuHold, LaunchSpec};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// Releases everything a finished/disconnected context holds.
pub(crate) fn teardown(rt: &NodeRuntime, ctx: &Arc<AppContext>) {
    let _guard = ctx.service_lock();
    // Out of the dispatcher's queues for good; a grant that raced the
    // withdrawal goes straight back.
    if let Some(raced) = rt.bindings().cancel(ctx) {
        rt.bindings().release(ctx.id, raced.vgpu);
    }
    let binding = {
        let mut inner = ctx.inner();
        inner.binding.take()
    };
    rt.memory().remove_ctx(ctx.id, binding.as_ref());
    if let Some(b) = binding {
        rt.bindings().release(ctx.id, b.vgpu);
        let reason = UnbindReason::Finished;
        rt.tracer().record(TraceEvent::Unbound { ctx: ctx.id, vgpu: b.vgpu, reason });
    }
    rt.drop_context(ctx.id);
}

/// The client end of an in-process connection: an application thread that
/// links the interposition library on this node. It owns one context,
/// created by its first call, and runs every call on its own thread — no
/// gateway, no pool, no reply channel. A launch that cannot bind waits on
/// that thread, in the dispatcher's list like any other; an `Exit`, or the
/// client's drop, tears the context down before it returns.
pub struct InProcessChannel {
    pub(crate) rt: Arc<NodeRuntime>,
    pub(crate) ctx: Option<Arc<AppContext>>,
}

impl Transport for InProcessChannel {
    /// A call made after shutdown, or woken by it, answers `Disconnected`
    /// without running (again).
    fn roundtrip(&mut self, mut call: CudaCall) -> CudaReply {
        let is_exit = matches!(call, CudaCall::Exit);
        let reply = loop {
            if self.rt.is_shutdown() {
                return Err(CudaError::Disconnected);
            }
            // The label and the moment keep context ids in client order.
            let ctx = self.ctx.get_or_insert_with(|| self.rt.new_context("local".into()));
            call = match run_call(&self.rt, ctx, call, false) {
                Ok(value) => break Ok(value),
                Err(Abort::Fail(e)) => break Err(e),
                // Off the reactor nothing is handed back busy; run it again.
                Err(Abort::Busy(again)) => again,
                Err(Abort::WouldBlock { spec, room }) => {
                    let (work, mem) = queue_key(&self.rt, ctx, &spec);
                    self.rt.bindings().wait(ctx, work, mem, room, None);
                    CudaCall::Launch { spec }
                }
            };
        };
        if let Some(ctx) = is_exit.then(|| self.ctx.take()).flatten() {
            teardown(&self.rt, &ctx);
        }
        reply
    }
}

impl Drop for InProcessChannel {
    /// A client dropped without `Exit` lets go of its context here.
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            teardown(&self.rt, &ctx);
        }
    }
}

/// A launch that came back [`Abort::WouldBlock`] is about to queue in the
/// dispatcher: counts it, and returns its SJF key — the profiled job length
/// when hinted, else the launch's own work — and the context's footprint,
/// for placement.
pub(crate) fn queue_key(rt: &NodeRuntime, ctx: &AppContext, spec: &LaunchSpec) -> (f64, u64) {
    RuntimeMetrics::bump(&rt.metrics_ref().mux_retries);
    (ctx.inner().est_job_flops.unwrap_or(spec.work.flops), rt.memory().mem_usage(ctx.id))
}

/// Why a call ended without a value.
pub(crate) enum Abort {
    /// A real error to report to the application.
    Fail(CudaError),
    /// A launch found no vGPU to bind or, with a `room`, gave its vGPU up
    /// for want of device memory (§4.5 unbind-and-retry). The caller puts
    /// the launch (`spec`, handed back) at the head of its stream and then
    /// queues the context in the dispatcher
    /// ([`crate::sched::BindingManager::enqueue`]); running the launch again
    /// from scratch once woken is idempotent (the closure is recomputed and
    /// unbind paths leave consistent state).
    WouldBlock { spec: LaunchSpec, room: Option<Room> },
    /// The reactor found the device the call is about to use busy
    /// ([`Engines::enter`]). The caller puts the call, handed back whole,
    /// at the head of its stream and the channel on the pool's work queue.
    Busy(CudaCall),
}

/// Whether a call may wait for a busy device. A pool worker does, like any
/// user of a FIFO engine. The reactor never does: before a call touches a
/// device it takes every engine of that device, only if all are idle
/// ([`Gpu::try_hold`]), and keeps them to the end of the call; a busy device
/// stops the call before it touches it ([`Abort::Busy`]).
enum Engines {
    Wait,
    Hold(Option<GpuHold>),
}

impl Engines {
    /// Whether the call may go on to use `gpu`.
    fn enter(&mut self, gpu: &Arc<Gpu>) -> bool {
        let Engines::Hold(held) = self else { return true };
        if !held.as_ref().is_some_and(|h| Arc::ptr_eq(h.gpu(), gpu)) {
            // A device lost mid-call is let go before the next is tried.
            *held = None;
            *held = gpu.try_hold();
        }
        held.is_some()
    }
}

/// Most real time one call may take on the reactor thread, where every
/// other connection's reads wait behind it (DESIGN.md §12).
const REACTOR_CALL_LIMIT: Duration = Duration::from_micros(100);

/// Whether `call` may run to completion on the reactor thread: never an
/// `Exit` (its teardown waits for the service lock and hands the vGPU on),
/// and otherwise only if its worst case on the node's slowest device, in
/// real time at the clock's scale, is under [`REACTOR_CALL_LIMIT`]. A
/// launch's worst case is its kernel after the context's declared footprint
/// is brought in and one victim swapped out
/// ([`mtgpu_gpusim::GpuSpec::worst_case_launch`]); a copy's or a
/// checkpoint's, its bytes over PCIe. Nothing else touches a device. This
/// is the call's own device time only: other threads' work queued on the
/// same engines is [`Engines`]' to refuse when the call gets there.
///
/// A copy's, a checkpoint's or an image's bytes also pass through host
/// memory on the calling thread, at any clock: past [`VISIT_REPLY_BYTES`]
/// (where a visit posts its replies early) they are the pool's to move. An
/// upload's host bytes are its payload, not its declared length.
pub(crate) fn fits_on_reactor(rt: &NodeRuntime, ctx: &AppContext, call: &CudaCall) -> bool {
    // (kernel work, bytes over PCIe, bytes through host memory)
    let (work, copied, host) = match call {
        CudaCall::Exit => return false,
        // Host bytes only: the image's data into fresh slabs.
        CudaCall::ImportImage { image } => return image.data_bytes() <= VISIT_REPLY_BYTES,
        CudaCall::Launch { spec } => (Some(spec.work), rt.memory().mem_usage(ctx.id), 0),
        CudaCall::MemcpyH2D { buf, .. } => (None, buf.declared_len, buf.payload.len() as u64),
        CudaCall::MemcpyD2H { len, .. } | CudaCall::MemcpyD2D { len, .. } => (None, *len, *len),
        CudaCall::Checkpoint | CudaCall::ExportImage => {
            let usage = rt.memory().mem_usage(ctx.id);
            (None, usage, usage)
        }
        _ => return true,
    };
    if host > VISIT_REPLY_BYTES as u64 {
        return false;
    }
    let on = |gpu: &Gpu| match work {
        Some(work) => gpu.spec().worst_case_launch(work, copied),
        None => gpu.spec().copy_duration(copied),
    };
    let worst = rt.driver().max_over(on).unwrap_or_default();
    worst.as_secs_f64() * rt.clock().scale() < REACTOR_CALL_LIMIT.as_secs_f64()
}

impl From<CudaError> for Abort {
    fn from(e: CudaError) -> Self {
        Abort::Fail(e)
    }
}

/// Runs one call under its context's service lock. A pool worker or an
/// in-process client waits for the lock and for the device like any caller;
/// the reactor (`on_reactor`) waits for neither, and a held lock or a busy
/// device hands the call back ([`Abort::Busy`]).
pub(crate) fn run_call(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    call: CudaCall,
    on_reactor: bool,
) -> Result<ReplyValue, Abort> {
    // What a monitor pass asked of the context mid-call is done at this
    // kernel boundary, off the reactor: the context is between calls until
    // the lock below.
    if !on_reactor && matches!(call, CudaCall::Launch { .. }) {
        monitor::answer(rt, ctx);
    }
    let (held, mut engines) = if on_reactor {
        (ctx.try_service_lock(), Engines::Hold(None))
    } else {
        (Some(ctx.service_lock()), Engines::Wait)
    };
    match held {
        Some(_) => handle_call(rt, ctx, call, &mut engines),
        None => Err(Abort::Busy(call)),
    }
}

/// Dispatches one call. The caller holds the context's service lock.
fn handle_call(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    call: CudaCall,
    engines: &mut Engines,
) -> Result<ReplyValue, Abort> {
    // The calls besides a launch that may move bytes on the bound device.
    let copies = matches!(
        call,
        CudaCall::MemcpyH2D { .. }
            | CudaCall::MemcpyD2H { .. }
            | CudaCall::MemcpyD2D { .. }
            | CudaCall::Checkpoint
            | CudaCall::ExportImage
    );
    if let Some(binding) = copies.then(|| ctx.binding()).flatten() {
        if !engines.enter(&binding.gpu) {
            return Err(Abort::Busy(call));
        }
    }
    let reply: CudaReply = match call {
        CudaCall::Launch { spec } => return launch_loop(rt, ctx, spec, engines),
        CudaCall::RegisterFatBinary => {
            let mut inner = ctx.inner();
            inner.modules += 1;
            Ok(ReplyValue::Module(ModuleHandle(inner.modules)))
        }
        CudaCall::RegisterFunction { kernel, .. } => {
            if let Err(e) = guard::validate_kernel_desc(&kernel, &DescriptorLimits::default()) {
                RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
                return Err(e.into());
            }
            // Resolve the functional payload from the backend's library
            // (the fat binary's machine code).
            let payload = library::lookup(&kernel.name).and_then(|k| k.payload);
            ctx.register_kernel(RegisteredKernel { desc: kernel, payload });
            Ok(ReplyValue::Unit)
        }
        CudaCall::RegisterVar { .. } | CudaCall::RegisterTexture { .. } => Ok(ReplyValue::Unit),
        CudaCall::HintJobLength { flops } => {
            if let Err(e) = guard::validate_job_length_hint(flops) {
                RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
                return Err(e.into());
            }
            ctx.inner().est_job_flops = Some(flops);
            Ok(ReplyValue::Unit)
        }
        // §4.8: record the application id so this thread is co-located
        // with its application's other threads. Under the policy layer this
        // is also the admission point: joining the application's tenant may
        // be refused (context cap, expired lease, unabsorbable charges).
        CudaCall::SetApplication { app_id } => {
            if let Err(e) = rt.policy().adopt(ctx.id, app_id, rt.clock().now()) {
                if matches!(e, CudaError::QuotaExceeded(_)) {
                    RuntimeMetrics::bump(&rt.metrics_ref().quota_rejections);
                    rt.tracer().record(TraceEvent::QuotaRejected {
                        ctx: ctx.id,
                        what: format!("join application {app_id}"),
                    });
                }
                return Err(e.into());
            }
            ctx.inner().app_id = Some(app_id);
            Ok(ReplyValue::Unit)
        }
        // §4.3: "some device management functions are ignored by our runtime
        // (e.g. cudaSetDevice)" — binding is the runtime's decision.
        CudaCall::SetDevice { .. } => Ok(ReplyValue::Unit),
        // "...or overridden (cudaGetDeviceCount will return the number of
        // virtual, not physical, GPUs)".
        CudaCall::GetDeviceCount => Ok(ReplyValue::DeviceCount(rt.bindings().total_vgpus() as u32)),
        CudaCall::GetDeviceProperties { device } => rt
            .bindings()
            .vgpu_spec(device)
            .map(|spec| ReplyValue::Properties(Box::new(spec)))
            .ok_or(CudaError::InvalidDevice),
        CudaCall::Malloc { size, kind } => admit_malloc(rt, ctx, size, kind).map(ReplyValue::Ptr),
        CudaCall::Free { ptr } => {
            let binding = ctx.binding();
            let resident = binding.as_ref().map_or(0, |_| rt.memory().resident_bytes(ctx.id));
            let freed = rt.memory().free(ctx.id, ptr, binding.as_ref())?;
            rt.policy().uncharge(ctx.id, freed);
            // A resident entry's device memory is room on that device.
            if let Some(b) = binding.filter(|_| rt.memory().resident_bytes(ctx.id) < resident) {
                rt.bindings().make_room(b.vgpu.device);
            }
            Ok(ReplyValue::Unit)
        }
        CudaCall::MemcpyH2D { dst, buf } => {
            if let Err(e) = guard::validate_host_buf(&buf) {
                RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
                return Err(e.into());
            }
            let binding = ctx.binding();
            rt.memory().copy_h2d(ctx.id, dst, &buf, binding.as_ref()).map(|()| ReplyValue::Unit)
        }
        CudaCall::MemcpyD2H { src, len } => with_device_retry(rt, ctx, |rt, ctx, binding| {
            rt.memory().copy_d2h(ctx.id, src, len, binding.as_ref())
        })
        .map(ReplyValue::Bytes),
        CudaCall::MemcpyD2D { dst, src, len } => with_device_retry(rt, ctx, |rt, ctx, binding| {
            rt.memory().copy_d2d(ctx.id, dst, src, len, binding.as_ref())
        })
        .map(|()| ReplyValue::Unit),
        CudaCall::ConfigureCall { .. } | CudaCall::Synchronize => Ok(ReplyValue::Unit),
        CudaCall::RegisterNested { parent, members } => {
            rt.memory().register_nested(ctx.id, parent, members).map(|()| ReplyValue::Unit)
        }
        CudaCall::Checkpoint => {
            if let Some(binding) = ctx.binding() {
                rt.memory().checkpoint(ctx.id, &binding)?;
            }
            rt.tracer().record(TraceEvent::Checkpointed { ctx: ctx.id, explicit: true });
            // Unbound contexts are already host-consistent.
            Ok(ReplyValue::Unit)
        }
        CudaCall::ExportImage => {
            let binding = ctx.binding();
            let image = rt.memory().export_image(ctx.id, &ctx.label, binding.as_ref())?;
            rt.tracer().record(TraceEvent::Checkpointed { ctx: ctx.id, explicit: true });
            Ok(ReplyValue::Image(Box::new(image)))
        }
        CudaCall::ImportImage { image } => {
            rt.memory().import_image(ctx.id, image).map(|()| ReplyValue::Unit)
        }
        CudaCall::Offloaded => Ok(ReplyValue::Unit),
        CudaCall::Exit => Ok(ReplyValue::Unit),
    };
    Ok(reply?)
}

/// The admission-controlled allocation path: charge the tenant's lease
/// before the memory manager sees the request, and roll the charge back if
/// the underlying allocation fails. Admission is reject-or-admit: an
/// over-quota request comes back at once as the typed rejection, counted
/// and traced; nothing is queued or retried here. A refused request still
/// takes its addresses, as a malloc the manager refuses does.
fn admit_malloc(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    size: u64,
    kind: AllocKind,
) -> Result<DeviceAddr, CudaError> {
    let policy = rt.policy();
    if let Err(e) = policy.try_charge(ctx.id, size) {
        rt.memory().refuse_malloc(ctx.id, size);
        if matches!(e, CudaError::QuotaExceeded(_)) {
            RuntimeMetrics::bump(&rt.metrics_ref().quota_rejections);
            rt.tracer().record(TraceEvent::QuotaRejected {
                ctx: ctx.id,
                what: format!("malloc of {size} bytes"),
            });
        }
        return Err(e);
    }
    match rt.memory().malloc(ctx.id, size, kind) {
        Ok(ptr) => Ok(ptr),
        Err(e) => {
            policy.uncharge(ctx.id, size);
            Err(e)
        }
    }
}

/// Runs a device-touching memory operation, transparently recovering from
/// device loss when the context's data permits it.
fn with_device_retry<T>(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    op: impl Fn(&NodeRuntime, &Arc<AppContext>, &Option<Binding>) -> Result<T, CudaError>,
) -> Result<T, CudaError> {
    if let Some(err) = ctx.inner().failed.clone() {
        return Err(err);
    }
    loop {
        let binding = ctx.binding();
        match op(rt, ctx, &binding) {
            Err(CudaError::DeviceUnavailable) if binding.is_some() => {
                recover_from_device_loss(rt, ctx, binding.unwrap())?;
                // Retry: the data is host-resident now, or we've failed.
            }
            other => return other,
        }
    }
}

/// The delayed-binding launch path.
fn launch_loop(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    spec: LaunchSpec,
    engines: &mut Engines,
) -> Result<ReplyValue, Abort> {
    if let Some(err) = ctx.inner().failed.clone() {
        return Err(err.into());
    }
    // Guardian-style boundary validation: a malformed or forged descriptor
    // dies here with a typed error, before scheduling or the memory manager
    // see it.
    if let Err(e) = guard::validate_launch_spec(&spec, &DescriptorLimits::default()) {
        RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
        return Err(e.into());
    }
    // An expired lease refuses new work even before the reaper visits.
    rt.policy().check_active(ctx.id)?;
    // Table 1 "Launch": check valid PTEs (and extend to nested closures).
    // A bad pointer is reported before an unregistered kernel, and before
    // the launch is handed back to wait for a vGPU or a busy device.
    LaunchSet::with_spare(|set| {
        let Some(kernel) = ctx.inner().kernels.get(&spec.kernel).cloned() else {
            rt.memory().check_ptes(ctx.id, &spec.args, &[], set)?;
            return Err(CudaError::InvalidDeviceFunction(spec.kernel).into());
        };
        launch_attempts(rt, ctx, spec, &kernel, engines, set)
    })
}

/// A launch's attempts, one memory-manager pass into `set` each, until the
/// kernel runs, fails or has to wait.
fn launch_attempts(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    mut spec: LaunchSpec,
    kernel: &RegisteredKernel,
    engines: &mut Engines,
    set: &mut LaunchSet,
) -> Result<ReplyValue, Abort> {
    // §4.5 fine-grained handling: only entries reachable through read-write
    // arguments become dirty after the launch; with no annotations every
    // pointer argument is conservatively read-write (Figure 4's default).
    let read_only = &kernel.desc.read_only_args;
    loop {
        // 1. Ensure a binding (delayed until this very first launch).
        let binding = match ctx.binding() {
            Some(b) => b,
            None => {
                rt.memory().check_ptes(ctx.id, &spec.args, read_only, set)?;
                let mem = rt.memory().mem_usage(ctx.id);
                let Some(b) = rt.bindings().poll(ctx, mem) else {
                    return Err(Abort::WouldBlock { spec, room: None });
                };
                ctx.inner().binding = Some(b.clone());
                rt.tracer().record(TraceEvent::Bound { ctx: ctx.id, vgpu: b.vgpu });
                b
            }
        };
        // Everything from here runs on the bound device, victims' swaps
        // included; the binding, if just made, stays for the next try.
        if !engines.enter(&binding.gpu) {
            rt.memory().check_ptes(ctx.id, &spec.args, read_only, set)?;
            return Err(Abort::Busy(CudaCall::Launch { spec }));
        }
        // 2. One pass resolves the arguments and makes the working set
        // resident (intra-app swap happens inside).
        match rt.memory().prepare_launch(ctx.id, &spec.args, read_only, &binding, set) {
            Ok(Materialize::Ready) => {}
            Ok(Materialize::NeedBytes(need)) => {
                // 3a. Inter-application swap: ask an idle co-tenant to give
                // up the device (§4.5).
                let swap = SwapReason::InterAppVictim;
                if rt.config().inter_app_swap
                    && ctx.is_eligible()
                    && ask_co_tenants(rt, ctx.id, &binding, need, swap)
                {
                    continue;
                }
                // 3b. Priority preemption (policy layer): a tenant whose
                // lease outranks its co-tenants may evict their resident
                // pages instead of yielding the device itself.
                let preempt = SwapReason::Preempted;
                if rt.policy().enabled()
                    && ctx.is_eligible()
                    && ask_co_tenants(rt, ctx.id, &binding, need, preempt)
                {
                    continue;
                }
                // 3c. No application honoured the request: unbind, and retry
                // once a co-tenant on the device makes room (§4.5). A
                // working set no healthy device can hold, even alone, would
                // wait for ever: it fails instead.
                let needs = rt.memory().working_set_bytes(ctx.id, set.closure());
                if !rt.bindings().fits_alone(needs) {
                    return Err(CudaError::MemoryAllocation.into());
                }
                unbind_self(rt, ctx, &binding)?;
                RuntimeMetrics::bump(&rt.metrics_ref().launch_retries);
                let room = Some(Room { device: binding.vgpu.device, needs });
                return Err(Abort::WouldBlock { spec, room });
            }
            Err(CudaError::DeviceUnavailable) => {
                recover_from_device_loss(rt, ctx, binding)?;
                continue;
            }
            Err(e) => return Err(e.into()),
        }
        // 4. Launch: the device sees its own addresses for the launch's
        // duration, the spec gets the virtual ones back for a retry.
        spec.args.swap_with_slice(set.device_args());
        let launched = binding.gpu.launch(binding.gpu_ctx, kernel, &spec);
        spec.args.swap_with_slice(set.device_args());
        match launched {
            Ok(dur) => {
                rt.memory().launched(set);
                RuntimeMetrics::bump(&rt.metrics_ref().launches);
                // §4.6: automatic checkpoint after long-running kernels.
                if let Some(threshold) = rt.config().auto_checkpoint_after {
                    if dur >= threshold {
                        rt.memory().checkpoint(ctx.id, &binding)?;
                        rt.tracer()
                            .record(TraceEvent::Checkpointed { ctx: ctx.id, explicit: false });
                    }
                }
                return Ok(ReplyValue::LaunchDone { sim_nanos: dur.as_nanos() });
            }
            Err(GpuError::DeviceFailed) => {
                recover_from_device_loss(rt, ctx, binding)?;
                continue;
            }
            Err(e) => return Err(CudaError::from_gpu(e).into()),
        }
    }
}

/// Swaps out this context's device state and releases its vGPU, to retry a
/// launch elsewhere or later.
fn unbind_self(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    binding: &Binding,
) -> Result<(), CudaError> {
    match rt.memory().swap_out_ctx(ctx.id, binding, SwapReason::Unbind) {
        Ok(out) => rt.tracer().record(TraceEvent::SwappedOut {
            ctx: ctx.id,
            bytes: out.freed,
            reason: SwapReason::Unbind,
        }),
        Err(CudaError::DeviceUnavailable) => {}
        Err(e) => return Err(e),
    }
    ctx.inner().binding = None;
    rt.bindings().release_to_retry(ctx.id, binding.vgpu);
    rt.tracer().record(TraceEvent::Unbound {
        ctx: ctx.id,
        vgpu: binding.vgpu,
        reason: UnbindReason::Retry,
    });
    Ok(())
}

/// A call found its device lost: recover the context as [`lose_binding`]
/// does.
fn recover_from_device_loss(
    rt: &NodeRuntime,
    ctx: &AppContext,
    binding: Binding,
) -> Result<(), CudaError> {
    rt.tracer().record(TraceEvent::DeviceLost { device: binding.vgpu.device });
    lose_binding(rt, ctx, binding)
}

/// Device-loss recovery, inline or from the fault monitor, under the
/// context's service lock: drop the dead binding and reset the context's
/// memory to host-authoritative. Fails the context if dirty data was lost.
pub(crate) fn lose_binding(
    rt: &NodeRuntime,
    ctx: &AppContext,
    binding: Binding,
) -> Result<(), CudaError> {
    ctx.inner().binding = None;
    // Release only if the device (and thus the slot) is still registered;
    // the fault monitor removes dead devices wholesale.
    if rt.bindings().has_device(binding.vgpu.device) {
        rt.bindings().release(ctx.id, binding.vgpu);
    }
    let reason = UnbindReason::DeviceLoss;
    rt.tracer().record(TraceEvent::Unbound { ctx: ctx.id, vgpu: binding.vgpu, reason });
    match rt.memory().on_device_lost(ctx.id) {
        Recovery::Recovered => {
            RuntimeMetrics::bump(&rt.metrics_ref().recovered_contexts);
            rt.tracer().record(TraceEvent::Recovered { ctx: ctx.id });
            Ok(())
        }
        Recovery::LostDirtyData => {
            RuntimeMetrics::bump(&rt.metrics_ref().failed_contexts);
            ctx.mark_failed(CudaError::DeviceUnavailable);
            rt.tracer().record(TraceEvent::Failed { ctx: ctx.id });
            Err(CudaError::DeviceUnavailable)
        }
    }
}

/// Asks the co-tenants on `binding.vgpu.device` to give device memory back
/// (§4.5) until `need` bytes are freed. "The application may or may not
/// accept the request": a busy co-tenant (mid-call, mid-kernel) refuses, an
/// idle one accepts if, asked again under its service lock, it is still
/// bound there and still a victim. An inter-application victim
/// ([`SwapReason::InterAppVictim`]: the smallest whose resident set covers
/// `need`) is swapped out whole and gives its vGPU up. A preempted one
/// ([`SwapReason::Preempted`], the policy layer: lease priority below the
/// requester's, lowest first, then the smallest resident set) keeps it —
/// this preempts memory, not the device slot — and each of its swap-outs
/// is a room event on the device. Either comes back from swap at its next
/// launch. Returns `true` if enough was freed.
fn ask_co_tenants(
    rt: &NodeRuntime,
    requester: CtxId,
    binding: &Binding,
    need: u64,
    reason: SwapReason,
) -> bool {
    let mine = rt.policy().priority_of(requester);
    // A co-tenant's place in the victim order, if it is a victim at all: a
    // pure function of state.
    let victim = |id: CtxId| {
        let resident = rt.memory().resident_bytes(id);
        match reason {
            SwapReason::Preempted => {
                let prio = rt.policy().priority_of(id);
                (prio < mine && resident > 0).then_some((u64::from(prio), resident))
            }
            _ => (resident >= need).then_some((resident, 0)),
        }
    };
    let device = binding.vgpu.device;
    let mut asked = ASKED.take();
    rt.bindings().each_bound_on(device, |id| asked.push(((0, 0), id)));
    asked.retain_mut(|(key, id)| *id != requester && victim(*id).map(|k| *key = k).is_some());
    asked.sort_unstable();
    let mut freed = 0;
    for &(_, victim_id) in &asked {
        if freed >= need {
            break;
        }
        let Some(ctx) = rt.context(victim_id).filter(|ctx| ctx.is_eligible()) else { continue };
        let Some(_guard) = ctx.try_service_lock() else { continue };
        let Some(vb) = ctx.binding() else { continue };
        if vb.vgpu.device != device || victim(victim_id).is_none() {
            continue;
        }
        let bytes = swap_out_co_tenant(rt, &ctx, &vb, reason);
        if bytes == 0 {
            continue;
        }
        freed += bytes;
        if reason == SwapReason::Preempted {
            rt.bindings().make_room(device);
            RuntimeMetrics::bump(&rt.metrics_ref().priority_preemptions);
            rt.tracer().record(TraceEvent::Preempted { victim: victim_id, by: requester, bytes });
        }
    }
    asked.clear();
    ASKED.set(asked);
    freed >= need
}

thread_local! {
    /// The thread's victim list between [`ask_co_tenants`] calls: each
    /// co-tenant asked, by its place in the victim order. Kept so a search
    /// allocates nothing.
    static ASKED: Cell<Vec<((u64, u64), CtxId)>> = const { Cell::new(Vec::new()) };
}

/// Swaps co-tenant `ctx`, bound at `vb`, out whole for `reason`; the caller
/// holds its service lock. An inter-application victim also gives its vGPU
/// up, a room event on the device. Returns the bytes freed, 0 if there was
/// nothing to take.
fn swap_out_co_tenant(rt: &NodeRuntime, ctx: &AppContext, vb: &Binding, reason: SwapReason) -> u64 {
    let out = match rt.memory().swap_out_ctx(ctx.id, vb, reason) {
        Ok(out) if out.freed > 0 => out,
        _ => return 0,
    };
    rt.tracer().record(TraceEvent::SwappedOut { ctx: ctx.id, bytes: out.freed, reason });
    if reason != SwapReason::Preempted {
        ctx.inner().binding = None;
        rt.bindings().release(ctx.id, vb.vgpu);
        let reason = UnbindReason::Victim;
        rt.tracer().record(TraceEvent::Unbound { ctx: ctx.id, vgpu: vb.vgpu, reason });
    }
    out.freed
}

/// A co-tenant asked to give way ([`crate::ctx::Ask::Yield`]) does, between
/// its calls: while a launch still waits for room on the device it is
/// bound to, it swaps itself out as an inter-application victim, as a
/// launch short of memory that found it idle would have (§4.5), and comes
/// back from swap at its own next launch.
pub(crate) fn give_way(rt: &NodeRuntime, ctx: &AppContext) {
    let _guard = ctx.service_lock();
    let Some(vb) = ctx.binding() else { return };
    if ctx.is_eligible() && rt.bindings().parked_on().contains(&vb.vgpu.device) {
        swap_out_co_tenant(rt, ctx, &vb, SwapReason::InterAppVictim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use mtgpu_api::client::CudaClient;
    use mtgpu_api::KernelArg;
    use mtgpu_gpusim::{DeviceId, Driver, GpuSpec, KernelDesc, LaunchConfig, Work};
    use mtgpu_simtime::Clock;

    fn launch(flops: f64) -> CudaCall {
        let config = LaunchConfig::default();
        let work = Work::flops(flops);
        CudaCall::Launch { spec: LaunchSpec { kernel: "k".into(), config, args: Vec::new(), work } }
    }

    /// Which of `calls` a fresh context may run on the reactor of a node
    /// with `specs` on `clock`.
    fn verdicts(clock: Clock, specs: Vec<GpuSpec>, calls: &[CudaCall]) -> Vec<bool> {
        let cfg = RuntimeConfig::default().with_background_monitor(false);
        let rt = NodeRuntime::start(Driver::with_devices(clock, specs), cfg);
        let ctx = rt.new_context("rule".into());
        let fits = calls.iter().map(|call| fits_on_reactor(&rt, &ctx, call)).collect();
        rt.shutdown();
        fits
    }

    #[test]
    fn the_reactor_takes_what_is_short_on_the_slowest_device_at_the_clocks_scale() {
        let download = |len: usize| CudaCall::MemcpyD2H { src: DeviceAddr(0), len: len as u64 };
        // An image of one huge declared allocation, `len` bytes of it data.
        let import = |len: usize| {
            let entry = mtgpu_api::protocol::ImageEntry {
                vaddr: DeviceAddr(1 << 20),
                size: 1 << 40,
                kind: AllocKind::Linear,
                data: vec![7; len],
                nested_members: Vec::new(),
                nested_parent: None,
            };
            let image =
                mtgpu_api::protocol::ContextImage { label: "i".into(), entries: vec![entry] };
            CudaCall::ImportImage { image }
        };
        // An upload of `len` bytes that declares 1.5 MiB (`oversub_swap`'s
        // set-up uploads carry 4 KiB).
        let upload = |len: usize| CudaCall::MemcpyH2D {
            dst: DeviceAddr(0),
            buf: mtgpu_api::HostBuf::with_shadow(3 << 19, vec![7; len]),
        };
        let calls = [
            CudaCall::GetDeviceCount,
            launch(1.0),
            launch(1e13),
            download(VISIT_REPLY_BYTES),
            download(VISIT_REPLY_BYTES + 1),
            import(VISIT_REPLY_BYTES),
            import(VISIT_REPLY_BYTES + 1),
            upload(4096),
            upload(VISIT_REPLY_BYTES + 1),
            CudaCall::Exit,
        ];
        let small = || vec![GpuSpec::test_small()];
        // At node_daemon's default clock on a small device, a tiny kernel
        // fits even behind a device's worth of victim (64 MiB, ~17 µs of
        // real time); a 39 s kernel (39 ms real) does not. An image touches
        // no device: its data, not its declared size, is what it costs. An
        // upload's host bytes are its payload; its declared 1.5 MiB take
        // ~0.4 µs of real time over PCIe.
        let at_1e3 = verdicts(Clock::with_scale(1e-3), small(), &calls);
        assert_eq!(at_1e3, [true, true, false, true, false, true, false, true, false, false]);
        // The slowest device decides: one victim on a C2050 can hold 3 GiB
        // (0.8 ms real), so no launch fits on a node that has one.
        let mixed = vec![GpuSpec::test_small(), GpuSpec::tesla_c2050()];
        let at_1e3 = verdicts(Clock::with_scale(1e-3), mixed, &calls);
        assert_eq!(at_1e3, [true, false, false, true, false, true, false, true, false, false]);
        // No real time passes on a virtual clock: anything but an Exit and
        // host bytes past the bound, which no clock makes cheaper.
        let virtual_clock = verdicts(Clock::virtual_clock(), small(), &calls);
        assert_eq!(virtual_clock, [true, true, true, true, false, true, false, true, false, false]);
    }

    #[test]
    fn a_launch_reports_a_dangling_pointer_before_an_unregistered_kernel() {
        let cfg = RuntimeConfig::default().with_background_monitor(false);
        let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(driver, cfg);
        let ctx = rt.new_context("order".into());
        let ptr = rt.memory().malloc(ctx.id, 256, AllocKind::Linear).unwrap();
        let failure = |ptr: DeviceAddr| {
            let args = vec![mtgpu_gpusim::KernelArg::Ptr(ptr)];
            let (config, work) = (LaunchConfig::default(), Work::flops(1.0));
            let spec = LaunchSpec { kernel: "unregistered".into(), config, args, work };
            match run_call(&rt, &ctx, CudaCall::Launch { spec }, false) {
                Err(Abort::Fail(e)) => e,
                _ => panic!("the launch did not fail"),
            }
        };
        assert_eq!(failure(DeviceAddr(ptr.0 + 4096)), CudaError::InvalidDevicePointer);
        assert_eq!(failure(ptr), CudaError::InvalidDeviceFunction("unregistered".into()));
        rt.shutdown();
    }

    /// A runtime with its pool over one small device with `vgpus` vGPUs.
    fn node(vgpus: u32) -> Arc<NodeRuntime> {
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
        let cfg = RuntimeConfig::default().with_vgpus(vgpus).with_background_monitor(false);
        NodeRuntime::start(driver, cfg)
    }

    /// Registers `noop` on `client` and launches it once: the client binds.
    fn bind(client: &mut impl CudaClient) -> Result<(), CudaError> {
        let module = client.register_fat_binary()?;
        client.register_function(module, KernelDesc::plain("noop"))?;
        let (config, work) = (LaunchConfig::default(), Work::flops(1.0));
        client.launch(LaunchSpec { kernel: "noop".into(), config, args: Vec::new(), work })
    }

    #[test]
    fn a_bad_pointer_fails_before_a_busy_device_hands_the_launch_back() {
        let rt = node(1);
        let mut client = rt.local_client();
        bind(&mut client).unwrap();
        let ptr = client.malloc(256).unwrap();
        let ctx = rt.context(CtxId(1)).expect("the client's context");
        let busy = rt.driver().device(DeviceId(0)).unwrap().try_hold().expect("an idle device");
        let on_reactor = |ptr: DeviceAddr| {
            let (config, work) = (LaunchConfig::default(), Work::flops(1.0));
            let args = vec![KernelArg::Ptr(ptr)];
            let spec = LaunchSpec { kernel: "noop".into(), config, args, work };
            run_call(&rt, &ctx, CudaCall::Launch { spec }, true)
        };
        let dangling = on_reactor(DeviceAddr(ptr.0 + 4096));
        assert!(matches!(dangling, Err(Abort::Fail(CudaError::InvalidDevicePointer))));
        assert!(matches!(on_reactor(ptr), Err(Abort::Busy(CudaCall::Launch { .. }))));
        drop(busy);
        assert!(matches!(on_reactor(ptr), Ok(ReplyValue::LaunchDone { .. })));
        client.exit().unwrap();
        rt.shutdown();
    }

    #[test]
    fn in_process_clients_run_their_own_calls_and_leave_the_gateway_alone() {
        let rt = node(4);
        let (mut a, mut b) = (rt.local_client(), rt.local_client());
        bind(&mut a).unwrap();
        let pa = a.malloc(1024).unwrap();
        a.memcpy_h2d(pa, mtgpu_api::HostBuf::from_slice(&[4, 5, 6])).unwrap();
        assert_eq!(b.get_device_count().unwrap(), 4);
        assert_eq!(a.memcpy_d2h(pa, 3).unwrap().payload[..3], [4, 5, 6]);
        // Two contexts, in client order, and nothing of them in the gateway.
        assert_eq!(rt.context_count(), 2);
        assert_eq!(rt.binding_of(CtxId(1)).map(|v| v.device), Some(mtgpu_gpusim::DeviceId(0)));
        assert_eq!(rt.channel_count(), 0);
        let m = rt.metrics();
        assert_eq!((m.mux_requests, m.mux_channels), (0, 0), "nothing arrived over a wire");
        // An Exit tears its context down before it returns, and so does
        // dropping a client: no barrier to wait at.
        a.exit().unwrap();
        assert_eq!(rt.context_count(), 1);
        drop(b);
        assert_eq!(rt.context_count(), 0);
        let m = rt.metrics();
        assert_eq!((m.bindings, m.unbindings), (1, 1));
        rt.shutdown();
    }

    #[test]
    fn a_client_dropped_bound_and_without_exit_is_torn_down_before_drop_returns() {
        let rt = node(1);
        let mut client = rt.local_client();
        bind(&mut client).unwrap();
        client.malloc(4096).unwrap();
        assert_eq!(rt.load().bound, 1);
        drop(client);
        assert_eq!((rt.context_count(), rt.load().bound), (0, 0));
        let m = rt.metrics();
        assert_eq!((m.bindings, m.unbindings), (1, 1));
        rt.shutdown();
    }

    #[test]
    fn shutdown_answers_a_launch_parked_behind_another_clients_vgpu_with_disconnected() {
        let rt = node(1);
        let mut hog = rt.local_client();
        bind(&mut hog).unwrap();
        let parked = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut client = rt.local_client();
                let launched = bind(&mut client);
                (launched, client)
            })
        };
        // The second client's launch waits in the dispatcher on its own
        // thread; nothing else could wake it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while rt.load().waiting == 0 {
            assert!(std::time::Instant::now() < deadline, "the launch never queued");
            std::thread::yield_now();
        }
        assert_eq!(rt.metrics().mux_retries, 1);
        rt.shutdown();
        let (launched, client) = parked.join().expect("the parked client");
        assert_eq!(launched, Err(CudaError::Disconnected));
        assert_eq!(rt.metrics().launches, 1, "the woken launch did not run again");
        // Calls after the shutdown, on a client opened before or after it,
        // fail at once.
        let mut client = client;
        assert_eq!(client.malloc(64), Err(CudaError::Disconnected));
        assert_eq!(rt.local_client().malloc(64), Err(CudaError::Disconnected));
        drop((client, hog));
        assert_eq!(rt.context_count(), 0);
        let m = rt.metrics();
        assert_eq!((m.bindings, m.unbindings), (1, 1));
    }

    #[test]
    fn a_co_tenant_asked_to_give_way_swaps_itself_out_at_its_next_launch() {
        let rt = node(4);
        let chunk = rt.driver().device(DeviceId(0)).unwrap().mem_available() * 6 / 10;
        let noop_on = |ptr| LaunchSpec {
            kernel: "noop".into(),
            config: LaunchConfig::default(),
            args: vec![KernelArg::Ptr(ptr)],
            work: Work::flops(1.0),
        };
        // A holds most of the device.
        let mut a = rt.local_client();
        bind(&mut a).unwrap();
        let pa = a.malloc(chunk).unwrap();
        a.launch(noop_on(pa)).unwrap();
        let ctx_a = rt.context(CtxId(1)).expect("A's context");
        // A is mid-call as far as anyone can tell, so B's launch, short of
        // memory beside it, gives its vGPU up and waits for room.
        let busy = ctx_a.service_lock();
        let b = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut b = rt.local_client();
                bind(&mut b)?;
                let pb = b.malloc(chunk)?;
                b.launch(noop_on(pb))?;
                b.exit()
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while rt.load().waiting == 0 {
            assert!(std::time::Instant::now() < deadline, "B's launch never waited");
            std::thread::yield_now();
        }
        // A pass finds no idle co-tenant there and asks A instead.
        rt.monitor_tick();
        assert_eq!(ctx_a.inner().ask, Some((rt.monitor_pass(), crate::ctx::Ask::Yield)));
        drop(busy);
        let a_out = |rt: &NodeRuntime| {
            let out = |r: &&crate::trace::TraceRecord| {
                matches!(r.event, TraceEvent::SwappedOut { ctx: CtxId(1), .. })
            };
            rt.trace().iter().filter(out).map(|r| r.event.clone()).collect::<Vec<_>>()
        };
        assert!(a_out(&rt).is_empty());
        // A's next launch gives way before it runs: swapped out whole as an
        // inter-application victim, its vGPU released.
        a.launch(noop_on(pa)).unwrap();
        assert!(
            matches!(
                a_out(&rt).first(),
                Some(TraceEvent::SwappedOut { reason: SwapReason::InterAppVictim, .. })
            ),
            "{:?}",
            a_out(&rt)
        );
        assert_eq!(ctx_a.inner().ask, None);
        // B runs on the room A made or, if A's launch took it back first,
        // on the room a later pass finds with A idle.
        while !b.is_finished() {
            assert!(std::time::Instant::now() < deadline, "B never ran");
            rt.monitor_tick();
            std::thread::yield_now();
        }
        b.join().expect("B's thread").unwrap();
        a.exit().unwrap();
        assert_eq!(rt.context_count(), 0);
        rt.shutdown();
    }
}
