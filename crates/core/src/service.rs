//! Per-connection service: the dispatcher's call handling (§4.3) and the
//! launch path with its memory-pressure escalation ladder (§4.5).
//!
//! Each in-process connection is served by one handler thread (the paper's
//! "each dispatcher thread processes a different connection"); channels
//! arriving over the wire are served by the gateway's worker pool
//! ([`crate::mux`]) through the same [`handle_call`]. Calls are handled as
//! Table 1 specifies:
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
//! (inside [`crate::memory::MemoryManager::materialize`]) → inter-application swap of an
//! idle victim on the same device → unbind-and-retry.

use crate::ctx::{AppContext, Binding, CtxId};
use crate::memory::{eviction, Materialize, Recovery, SwapReason};
use crate::metrics::RuntimeMetrics;
use crate::runtime::NodeRuntime;
use crate::trace::{TraceEvent, UnbindReason};
use mtgpu_api::guard::{self, DescriptorLimits};
use mtgpu_api::protocol::{AllocKind, CudaCall, CudaReply, ModuleHandle, ReplyValue};
use mtgpu_api::transport::{RecvOutcome, ServerConn};
use mtgpu_api::CudaError;
use mtgpu_gpusim::kernel::{library, RegisteredKernel};
use mtgpu_gpusim::DeviceAddr;
use mtgpu_gpusim::{GpuError, LaunchSpec};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Timeout for one binding-acquisition attempt; the launch loop re-arms it
/// until shutdown, so this only bounds reaction latency.
const ACQUIRE_SLICE: Duration = Duration::from_millis(50);
/// Real-time backoff after an unbind-and-retry, so a starved large job does
/// not thrash the device while others finish.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Real-time tick at which an in-process connection's service loop looks up
/// from an idle stream to notice shutdown.
const SERVICE_TICK: Duration = Duration::from_millis(2);

/// Serves one in-process connection to completion. Runs on its own handler
/// thread.
///
/// The offload decision (§4.7) is made when the first call arrives: if the
/// local backlog exceeds the threshold and the connection was not itself
/// relayed from a peer (no [`CudaCall::Offloaded`] marker), the handler
/// turns into a relay toward a peer node ([`serve_offloaded`], the same loop
/// the gateway hands its over-threshold channels to).
pub(crate) fn serve_connection(rt: &Arc<NodeRuntime>, mut conn: Box<dyn ServerConn>) {
    let ctx = rt.new_context(conn.peer());
    let Some(first) = next_call(rt, conn.as_mut()) else {
        return teardown(rt, &ctx);
    };
    // A stream a peer relayed to us is served unconditionally (never
    // re-offloaded) and is not charged against the local slot budget.
    let holds_slot = !matches!(first, CudaCall::Offloaded);
    if holds_slot && !rt.try_keep_local() {
        return serve_offloaded(rt, &ctx, conn, first);
    }
    serve_local(rt, &ctx, conn.as_mut(), first);
    if holds_slot {
        rt.release_local_slot();
    }
    teardown(rt, &ctx);
}

/// Serves a stream this node declined to keep (§4.7), on the calling thread:
/// relays it to a peer, or — no peer reachable — serves it here after all,
/// over the slot budget.
pub(crate) fn serve_offloaded(
    rt: &Arc<NodeRuntime>,
    ctx: &Arc<AppContext>,
    mut conn: Box<dyn ServerConn>,
    first: CudaCall,
) {
    // Either way the connection goes before the context (a gateway channel
    // leaves the gateway's map as it drops), so a drained registry means
    // nothing of the stream is left anywhere.
    match rt.relay(ctx.id, conn.as_mut(), first) {
        // The relay ran the stream to completion; the context never served
        // a call here.
        Ok(()) => {
            drop(conn);
            rt.drop_context_of(ctx);
        }
        Err(first) => {
            rt.force_keep_local();
            serve_local(rt, ctx, conn.as_mut(), first);
            drop(conn);
            rt.release_local_slot();
            teardown(rt, ctx);
        }
    }
}

/// The next call of a stream served on a thread of its own; `None` once the
/// peer is gone or the runtime is shutting down.
fn next_call(rt: &NodeRuntime, conn: &mut dyn ServerConn) -> Option<CudaCall> {
    loop {
        match conn.recv_timeout(SERVICE_TICK) {
            RecvOutcome::Call(call) => return Some(call),
            RecvOutcome::Closed => return None,
            RecvOutcome::Idle if rt.is_shutdown() => return None,
            RecvOutcome::Idle => {}
        }
    }
}

/// Executes a stream's calls in order on the calling thread, starting with
/// `first`, until Exit, disconnect or shutdown. Launches wait for a vGPU
/// inside the dispatcher's policy-ordered queue for as long as it takes.
fn serve_local(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    conn: &mut dyn ServerConn,
    first: CudaCall,
) {
    let mut next = Some(first);
    while let Some(call) = next.take().or_else(|| next_call(rt, conn)) {
        let is_exit = matches!(call, CudaCall::Exit);
        let reply = {
            let _guard = ctx.service_lock();
            handle_call(rt, ctx, call)
        };
        if !conn.send(reply) || is_exit {
            break;
        }
    }
}

/// Releases everything a finished/disconnected context holds.
pub(crate) fn teardown(rt: &NodeRuntime, ctx: &Arc<AppContext>) {
    let _guard = ctx.service_lock();
    let binding = {
        let mut inner = ctx.inner();
        inner.binding.take()
    };
    rt.memory().remove_ctx(ctx.id, binding.as_ref());
    if let Some(b) = binding {
        rt.bindings().release(ctx.id, b.vgpu);
    }
    rt.drop_context(ctx.id);
}

/// Outcome of a bounded-wait dispatch ([`try_handle_call`]).
pub(crate) enum CallOutcome {
    /// The call completed (successfully or not).
    Reply(CudaReply),
    /// A launch could not obtain a vGPU binding within its bounded slice.
    /// The caller must requeue the call and retry later; retrying a launch
    /// from scratch is idempotent (the closure is recomputed, the staged
    /// config take is ignored, and unbind paths leave consistent state).
    WouldBlock,
}

/// Dispatches one call with a *bounded* binding wait: where [`handle_call`]
/// re-arms binding acquisition until it succeeds (fine for a dedicated
/// handler thread), this returns [`CallOutcome::WouldBlock`] once
/// `bind_slice` expires so a fixed worker pool never wedges every worker
/// behind contended vGPUs while bound contexts' own calls starve in queue.
/// The caller holds the context's service lock.
pub(crate) fn try_handle_call(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    call: CudaCall,
    bind_slice: Duration,
) -> CallOutcome {
    match call {
        CudaCall::Launch { spec } => handle_launch_bounded(rt, ctx, spec, Some(bind_slice)),
        other => CallOutcome::Reply(handle_call(rt, ctx, other)),
    }
}

/// Dispatches one call. The caller holds the context's service lock.
pub(crate) fn handle_call(rt: &NodeRuntime, ctx: &Arc<AppContext>, call: CudaCall) -> CudaReply {
    match call {
        CudaCall::RegisterFatBinary => {
            let mut inner = ctx.inner();
            inner.modules += 1;
            Ok(ReplyValue::Module(ModuleHandle(inner.modules)))
        }
        CudaCall::RegisterFunction { kernel, .. } => {
            if let Err(e) = guard::validate_kernel_desc(&kernel, &DescriptorLimits::default()) {
                RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
                return Err(e);
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
                return Err(e);
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
                return Err(e);
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
            let freed = rt.memory().free(ctx.id, ptr, binding.as_ref())?;
            rt.policy().uncharge(ctx.id, freed);
            Ok(ReplyValue::Unit)
        }
        CudaCall::MemcpyH2D { dst, buf } => {
            if let Err(e) = guard::validate_host_buf(&buf) {
                RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
                return Err(e);
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
        CudaCall::ConfigureCall { config } => {
            ctx.inner().staged_config = Some(config);
            Ok(ReplyValue::Unit)
        }
        CudaCall::Launch { spec } => handle_launch(rt, ctx, spec),
        CudaCall::Synchronize => Ok(ReplyValue::Unit),
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
    }
}

/// The admission-controlled allocation path: charge the tenant's lease
/// before the memory manager sees the request, roll the charge back if the
/// underlying allocation fails. Over-quota requests are queued — retried
/// `admission_retries` times with a clock-driven backoff, so an allocation
/// that would fit once a sibling frees or a lease expires gets its chance —
/// before the typed rejection is returned.
fn admit_malloc(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    size: u64,
    kind: AllocKind,
) -> Result<DeviceAddr, CudaError> {
    let policy = rt.policy();
    let (mut retries_left, backoff) = policy
        .config()
        .map(|c| (c.admission_retries, c.admission_backoff))
        .unwrap_or((0, RETRY_BACKOFF));
    loop {
        match policy.try_charge(ctx.id, size) {
            Ok(()) => break,
            Err(CudaError::QuotaExceeded(_)) if retries_left > 0 => {
                retries_left -= 1;
                // Through the clock, not `thread::sleep`: queued admission
                // must replay bit-for-bit under a virtual clock.
                rt.clock().backoff(backoff);
            }
            Err(e) => {
                if matches!(e, CudaError::QuotaExceeded(_)) {
                    RuntimeMetrics::bump(&rt.metrics_ref().quota_rejections);
                    rt.tracer().record(TraceEvent::QuotaRejected {
                        ctx: ctx.id,
                        what: format!("malloc of {size} bytes"),
                    });
                }
                return Err(e);
            }
        }
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

/// The delayed-binding launch path (unbounded binding wait).
fn handle_launch(rt: &NodeRuntime, ctx: &Arc<AppContext>, spec: LaunchSpec) -> CudaReply {
    match handle_launch_bounded(rt, ctx, spec, None) {
        CallOutcome::Reply(r) => r,
        // Unreachable with `bind_slice: None` — the loop re-arms forever.
        CallOutcome::WouldBlock => Err(CudaError::Disconnected),
    }
}

/// The delayed-binding launch path. `bind_slice: None` re-arms binding
/// acquisition until shutdown (a dedicated handler or relay thread);
/// `Some(slice)` makes every vGPU wait bounded and surfaces
/// [`CallOutcome::WouldBlock`] instead of parking the calling thread.
fn handle_launch_bounded(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    spec: LaunchSpec,
    bind_slice: Option<Duration>,
) -> CallOutcome {
    match launch_loop(rt, ctx, spec, bind_slice) {
        Ok(v) => CallOutcome::Reply(Ok(v)),
        Err(LaunchAbort::Fail(e)) => CallOutcome::Reply(Err(e)),
        Err(LaunchAbort::WouldBlock) => CallOutcome::WouldBlock,
    }
}

/// Why [`launch_loop`] stopped without a completed launch.
enum LaunchAbort {
    /// A real error to report to the application.
    Fail(CudaError),
    /// The bounded binding slice expired (bounded mode only).
    WouldBlock,
}

impl From<CudaError> for LaunchAbort {
    fn from(e: CudaError) -> Self {
        LaunchAbort::Fail(e)
    }
}

fn launch_loop(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    spec: LaunchSpec,
    bind_slice: Option<Duration>,
) -> Result<ReplyValue, LaunchAbort> {
    if let Some(err) = ctx.inner().failed.clone() {
        return Err(err.into());
    }
    // Guardian-style boundary validation: a malformed or forged descriptor
    // dies here with a typed error, before scheduling or the memory manager
    // see it (both the handler-thread and the mux worker path run through
    // this check).
    if let Err(e) = guard::validate_launch_spec(&spec, &DescriptorLimits::default()) {
        RuntimeMetrics::bump(&rt.metrics_ref().descriptor_rejections);
        return Err(e.into());
    }
    // An expired lease refuses new work even before the reaper visits.
    rt.policy().check_active(ctx.id)?;
    // Table 1 "Launch": check valid PTEs (and extend to nested closures).
    let closure = rt.memory().launch_closure(ctx.id, &spec.args)?;
    // §4.5 fine-grained handling: only entries reachable through read-write
    // arguments become dirty after the launch; with no annotations every
    // pointer argument is conservatively read-write (Figure 4's default).
    let written = {
        let ro = &ctx
            .inner()
            .kernels
            .get(&spec.kernel)
            .map(|k| k.desc.read_only_args.clone())
            .unwrap_or_default();
        if ro.is_empty() {
            closure.clone()
        } else {
            let written_args: Vec<mtgpu_gpusim::KernelArg> = spec
                .args
                .iter()
                .enumerate()
                .filter(|&(i, _)| !ro.contains(&(i as u32)))
                .map(|(_, a)| *a)
                .collect();
            rt.memory().launch_closure(ctx.id, &written_args)?
        }
    };
    let kernel = ctx
        .inner()
        .kernels
        .get(&spec.kernel)
        .cloned()
        .ok_or_else(|| CudaError::InvalidDeviceFunction(spec.kernel.clone()))?;
    // Consume the staged cudaConfigureCall, if the app used the split form.
    let _ = ctx.inner().staged_config.take();
    let mut prefetched = false;

    loop {
        // 1. Ensure a binding (delayed until this very first launch).
        let binding = match ctx.binding() {
            Some(b) => b,
            None => {
                let mem = rt.memory().mem_usage(ctx.id);
                // SJF key: the profiled job length when hinted, else the
                // pending launch's own work.
                let sjf_work = ctx.inner().est_job_flops.unwrap_or(spec.work.flops);
                match rt.bindings().acquire(ctx, sjf_work, mem, bind_slice.unwrap_or(ACQUIRE_SLICE))
                {
                    Some(b) => {
                        ctx.inner().binding = Some(b.clone());
                        rt.tracer().record(TraceEvent::Bound { ctx: ctx.id, vgpu: b.vgpu });
                        b
                    }
                    None => {
                        if rt.is_shutdown() {
                            return Err(CudaError::Disconnected.into());
                        }
                        if bind_slice.is_some() {
                            // Bounded mode: hand the thread back instead of
                            // re-arming; the caller requeues the launch.
                            return Err(LaunchAbort::WouldBlock);
                        }
                        continue;
                    }
                }
            }
        };
        // 1b. Async prefetch (opt-in, once per launch): warm the predicted
        // working set — the previous launch's argument buffers, minus this
        // launch's own closure — on the speculative copy-engine lane before
        // the admit path runs. The transient lease charge keeps speculative
        // footprint inside the tenant's budget; if the lease cannot absorb
        // it, the prefetch is skipped silently (it is purely advisory).
        if rt.config().async_prefetch && !prefetched {
            prefetched = true;
            let plan = rt.memory().prefetch_plan(ctx.id, &closure);
            if plan.bytes > 0 && rt.policy().try_charge(ctx.id, plan.bytes).is_ok() {
                rt.memory().prefetch(ctx.id, &plan, &binding);
                rt.policy().uncharge(ctx.id, plan.bytes);
            }
        }
        // 2. Make the working set resident (intra-app swap happens inside).
        // Double-buffered mode commits only the first-touch wave (direct
        // kernel arguments) before dispatch and hands back the remainder
        // to stream while the kernel runs.
        let split = if rt.config().double_buffer_launch {
            let first_touch = rt.memory().arg_bases(ctx.id, &spec.args)?;
            rt.memory().materialize_split(ctx.id, &closure, &first_touch, &binding)
        } else {
            rt.memory().materialize(ctx.id, &closure, &binding).map(|m| (m, None))
        };
        let pending_wave = match split {
            Ok((Materialize::Ready, wave)) => wave,
            Ok((Materialize::NeedBytes(need), _)) => {
                // 3a. Inter-application swap: ask an idle co-tenant to give
                // up the device (§4.5).
                if rt.config().inter_app_swap
                    && ctx.is_eligible()
                    && try_inter_app_swap(rt, ctx.id, &binding, need)
                {
                    continue;
                }
                // 3b. Priority preemption (policy layer): a tenant whose
                // lease outranks its co-tenants may evict their resident
                // pages instead of yielding the device itself.
                if rt.policy().enabled()
                    && ctx.is_eligible()
                    && try_priority_preempt(rt, ctx.id, &binding, need)
                {
                    continue;
                }
                // 3c. No application honoured the request: unbind and retry
                // later (§4.5).
                unbind_self(rt, ctx, &binding, SwapReason::Unbind)?;
                RuntimeMetrics::bump(&rt.metrics_ref().launch_retries);
                // Through the clock, not `thread::sleep`: under a virtual
                // clock the retry path must advance virtual time only.
                rt.clock().backoff(RETRY_BACKOFF);
                continue;
            }
            Err(CudaError::DeviceUnavailable) => {
                recover_from_device_loss(rt, ctx, binding)?;
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        // 4. Translate virtual pointers and launch. With a pending second
        // wave the kernel dispatches immediately and the wave streams on
        // the speculative lane concurrently (both engines carry traffic).
        let args = rt.memory().translate_args(ctx.id, &spec.args)?;
        let dev_spec = LaunchSpec { args, ..spec.clone() };
        let (launch_res, wave_res) = match pending_wave {
            None => (binding.gpu.launch(binding.gpu_ctx, &kernel, &dev_spec), Ok(())),
            Some(wave) => {
                RuntimeMetrics::bump(&rt.metrics_ref().double_buffer_launches);
                rt.tracer().record(TraceEvent::DoubleBuffered {
                    ctx: ctx.id,
                    wave2_ops: wave.op_count() as u32,
                    wave2_bytes: wave.bytes(),
                });
                std::thread::scope(|s| {
                    let mm = rt.memory();
                    let b = &binding;
                    let id = ctx.id;
                    let wave_thread = s.spawn(move || mm.execute_wave(id, b, wave));
                    let launch = binding.gpu.launch(binding.gpu_ctx, &kernel, &dev_spec);
                    (launch, wave_thread.join().expect("wave-2 thread panicked"))
                })
            }
        };
        match launch_res {
            Ok(dur) => {
                // A failed remainder wave means the launch's working set
                // never fully landed: fault-safe commit ordering left every
                // PTE classifiable, so recover and retry from host state
                // exactly as if the dispatch itself had died.
                if let Err(e) = wave_res {
                    if matches!(e, CudaError::DeviceUnavailable) {
                        recover_from_device_loss(rt, ctx, binding)?;
                        continue;
                    }
                    return Err(e.into());
                }
                rt.memory().mark_launched(ctx.id, &written);
                ctx.stats.launches.fetch_add(1, Ordering::Relaxed);
                ctx.add_kernel_time(dur.as_nanos());
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

/// Swaps out this context's device state and releases its vGPU.
fn unbind_self(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    binding: &Binding,
    reason: SwapReason,
) -> Result<(), CudaError> {
    match rt.memory().swap_out_ctx(ctx.id, binding, reason) {
        Ok(out) => rt.tracer().record(TraceEvent::SwappedOut {
            ctx: ctx.id,
            bytes: out.freed,
            reason: reason.into(),
        }),
        Err(CudaError::DeviceUnavailable) => {}
        Err(e) => return Err(e),
    }
    ctx.inner().binding = None;
    rt.bindings().release(ctx.id, binding.vgpu);
    rt.tracer().record(TraceEvent::Unbound {
        ctx: ctx.id,
        vgpu: binding.vgpu,
        reason: UnbindReason::Retry,
    });
    Ok(())
}

/// Device-loss recovery: reset the context's memory to host-authoritative
/// and drop the dead binding. Fails the context if dirty data was lost.
fn recover_from_device_loss(
    rt: &NodeRuntime,
    ctx: &Arc<AppContext>,
    binding: Binding,
) -> Result<(), CudaError> {
    let recovery = rt.memory().on_device_lost(ctx.id);
    ctx.inner().binding = None;
    // Release only if the device (and thus the slot) is still registered;
    // the fault monitor removes dead devices wholesale.
    if rt.bindings().has_device(binding.vgpu.device) {
        rt.bindings().release(ctx.id, binding.vgpu);
    }
    rt.tracer().record(TraceEvent::DeviceLost { device: binding.vgpu.device });
    match recovery {
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

/// Priority-aware preemption on `binding.vgpu.device`: evict resident
/// pages of co-tenants whose lease priority is *strictly lower* than the
/// requester's, least-important victims first, until the shortfall is
/// covered. Victims keep their vGPU binding — this preempts memory, not
/// the device slot — and their data re-materializes from swap at their
/// next launch. Returns `true` if enough bytes were freed.
fn try_priority_preempt(rt: &NodeRuntime, requester: CtxId, binding: &Binding, need: u64) -> bool {
    // (lease priority, policy context key): lowest-priority victim first.
    type PreemptKey = (u8, (u64, u64, u64));
    let my_prio = rt.policy().priority_of(requester);
    let policy = rt.config().eviction_policy;
    let mut candidates: Vec<(PreemptKey, CtxId)> = rt
        .bindings()
        .bound_on(binding.vgpu.device)
        .into_iter()
        .filter(|&id| id != requester)
        .filter_map(|id| {
            let prio = rt.policy().priority_of(id);
            let c = rt.memory().victim_candidate(id)?;
            (prio < my_prio && c.resident > 0)
                .then(|| ((prio, eviction::ctx_victim_key(policy, &c)), id))
        })
        .collect();
    // Lowest priority first; ties break by the configured eviction
    // policy's context key (for `SeedOrder` that is (resident, id), the
    // original ordering), so the victim sequence stays a pure function of
    // state.
    candidates.sort_unstable();
    let mut freed_total = 0u64;
    for (_, victim_id) in candidates {
        if freed_total >= need {
            break;
        }
        let Some(victim) = rt.context(victim_id) else { continue };
        if !victim.is_eligible() {
            continue;
        }
        // Like inter-app swap, only an idle victim can be preempted; a
        // busy one (mid-call / mid-kernel) is skipped.
        let Some(_guard) = victim.try_service_lock() else { continue };
        // Re-validate under the lock: still bound here, still outranked.
        let Some(vb) = victim.binding() else { continue };
        if vb.vgpu.device != binding.vgpu.device || rt.policy().priority_of(victim_id) >= my_prio {
            continue;
        }
        match rt.memory().swap_out_ctx(victim_id, &vb, SwapReason::Preempted) {
            Ok(out) if out.freed > 0 => {
                freed_total += out.freed;
                victim.stats.times_swapped_out.fetch_add(1, Ordering::Relaxed);
                RuntimeMetrics::bump(&rt.metrics_ref().priority_preemptions);
                rt.tracer().record(TraceEvent::SwappedOut {
                    ctx: victim_id,
                    bytes: out.freed,
                    reason: SwapReason::Preempted.into(),
                });
                rt.tracer().record(TraceEvent::Preempted {
                    victim: victim_id,
                    by: requester,
                    bytes: out.freed,
                });
            }
            Ok(_) | Err(_) => continue,
        }
    }
    freed_total >= need
}

/// Attempts an inter-application swap on `binding.vgpu.device`: find one
/// idle co-tenant whose resident footprint covers the shortfall, swap it
/// out wholesale and release its vGPU (§4.5). Returns `true` if memory was
/// freed.
fn try_inter_app_swap(rt: &NodeRuntime, requester: CtxId, binding: &Binding, need: u64) -> bool {
    let policy = rt.config().eviction_policy;
    let mut candidates: Vec<((u64, u64, u64), CtxId)> = rt
        .bindings()
        .bound_on(binding.vgpu.device)
        .into_iter()
        .filter(|&id| id != requester)
        .filter_map(|id| {
            let c = rt.memory().victim_candidate(id)?;
            (c.resident >= need).then(|| (eviction::ctx_victim_key(policy, &c), id))
        })
        .collect();
    // Victims in the configured eviction policy's order. `SeedOrder` keys
    // by (resident, id) — the smallest sufficient victim, ties broken by
    // context id, exactly the original behaviour; recency- and cost-aware
    // policies prefer stale or cheap-to-evict contexts instead. Either
    // way the choice is a pure function of state.
    candidates.sort_unstable();
    for (_, victim_id) in candidates {
        let Some(victim) = rt.context(victim_id) else { continue };
        if !victim.is_eligible() {
            continue;
        }
        // "The application may or may not accept the request": busy contexts
        // (mid-call / mid-kernel) refuse; idle ones accept.
        let Some(_guard) = victim.try_service_lock() else { continue };
        // Re-validate under the lock: still bound to this device, still big
        // enough.
        let Some(vb) = victim.binding() else { continue };
        if vb.vgpu.device != binding.vgpu.device || rt.memory().resident_bytes(victim_id) < need {
            continue;
        }
        match rt.memory().swap_out_ctx(victim_id, &vb, SwapReason::InterAppVictim) {
            Ok(out) => {
                victim.inner().binding = None;
                victim.stats.times_swapped_out.fetch_add(1, Ordering::Relaxed);
                rt.bindings().release(victim_id, vb.vgpu);
                rt.tracer().record(TraceEvent::SwappedOut {
                    ctx: victim_id,
                    bytes: out.freed,
                    reason: SwapReason::InterAppVictim.into(),
                });
                rt.tracer().record(TraceEvent::Unbound {
                    ctx: victim_id,
                    vgpu: vb.vgpu,
                    reason: UnbindReason::Victim,
                });
                return true;
            }
            Err(_) => continue,
        }
    }
    false
}
