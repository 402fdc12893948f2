//! Per-layer attribution: the recorded call stream of the traced run,
//! replayed into one layer at a time through that layer's public functions.
//!
//! * [`replay`] re-drives the recorded invocations against any
//!   [`CudaClient`]: an echo reactor (`R_echo`: codec + transport, no
//!   runtime), `NodeRuntime::local_client` (`R_local`: the whole runtime, no
//!   wire) or `BareClient` (`R_bare`: the device model alone).
//! * [`codec_probe`], [`guard_probe`], [`memory_probe`] and [`sched_probe`]
//!   time a single module on the same calls.
//!
//! Device pointers differ between targets, so the replay relocates every
//! pointer through the `Malloc` replies it sees ([`Relocator`]).

use crate::calib::CalibratedTimes;
use crate::hist::median;
use crate::run::{runtime_config, WALL_CLOCK_SCALE};
use crate::trace::{Invocation, Recorded, Recording};
use crate::workload::Kind;
use mtgpu_api::guard::{validate_host_buf, validate_kernel_desc, validate_launch_spec};
use mtgpu_api::transport::{
    encode_frame, spawn_reactor, ConnId, FrameBuf, MuxConnection, MuxService, ReactorConfig,
    ReplySink,
};
use mtgpu_api::{
    BareClient, CudaCall, CudaClient, CudaError, CudaReply, CudaResult, DescriptorLimits,
    FrontendClient, KernelArg, LaunchSpec, MuxFrame, ReplyValue,
};
use mtgpu_core::{
    AppContext, Binding, BindingManager, CtxId, Materialize, MemoryConfig, MemoryManager,
    NodeRuntime, RuntimeMetrics, SchedulerPolicy, SwapReason, VGpuId,
};
use mtgpu_gpusim::{DeviceAddr, DeviceId, Driver, Gpu, GpuContextId, GpuSpec};
use mtgpu_simtime::Clock;
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Maps device pointers of the recorded run onto the replay target's.
#[derive(Default)]
pub struct Relocator {
    /// Recorded base → (size, replayed base).
    allocs: BTreeMap<u64, (u64, u64)>,
}

impl Relocator {
    fn learn(&mut self, old: DeviceAddr, size: u64, new: DeviceAddr) {
        self.allocs.insert(old.0, (size, new.0));
    }

    fn forget(&mut self, old: DeviceAddr) {
        self.allocs.remove(&old.0);
    }

    /// Translates a pointer (base or interior); unknown pointers pass
    /// through unchanged.
    fn map(&self, ptr: DeviceAddr) -> DeviceAddr {
        match self.allocs.range(..=ptr.0).next_back() {
            Some((&old, &(size, new))) if ptr.0 - old < size.max(1) => {
                DeviceAddr(new + (ptr.0 - old))
            }
            _ => ptr,
        }
    }

    /// The call with every device pointer translated.
    fn rewrite(&self, call: &CudaCall) -> CudaCall {
        let mut call = call.clone();
        match &mut call {
            CudaCall::Free { ptr } => *ptr = self.map(*ptr),
            CudaCall::MemcpyH2D { dst, .. } => *dst = self.map(*dst),
            CudaCall::MemcpyD2H { src, .. } => *src = self.map(*src),
            CudaCall::MemcpyD2D { dst, src, .. } => {
                *dst = self.map(*dst);
                *src = self.map(*src);
            }
            CudaCall::Launch { spec } => {
                for arg in &mut spec.args {
                    if let KernelArg::Ptr(p) = arg {
                        *p = self.map(*p);
                    }
                }
            }
            CudaCall::RegisterNested { parent, members } => {
                *parent = self.map(*parent);
                for m in members {
                    *m = self.map(*m);
                }
            }
            _ => {}
        }
        call
    }

    /// Updates the map from a call's recorded and replayed replies.
    fn observe(&mut self, call: &CudaCall, recorded: &CudaReply, replayed: &CudaReply) {
        match (call, recorded, replayed) {
            (CudaCall::Malloc { size, .. }, Ok(ReplyValue::Ptr(old)), Ok(ReplyValue::Ptr(new))) => {
                self.learn(*old, *size, *new)
            }
            (CudaCall::Free { ptr }, Ok(_), Ok(_)) => self.forget(*ptr),
            _ => {}
        }
    }
}

/// Whether a replayed reply agrees with the recorded one: same success or
/// failure, and byte-equal downloads.
fn replies_agree(recorded: &CudaReply, replayed: &CudaReply) -> bool {
    match (recorded, replayed) {
        (Ok(ReplyValue::Bytes(a)), Ok(ReplyValue::Bytes(b))) => a.payload == b.payload,
        (Ok(_), Ok(_)) | (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Result of one replay.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Calibrated time inside the client per op, in µs (set-up traffic
    /// excluded).
    pub op_us: Vec<f64>,
    /// Replies that disagreed with the recording.
    pub mismatches: u64,
}

impl Replayed {
    /// Median µs per op.
    pub fn median_us(&self) -> f64 {
        median(&self.op_us)
    }
}

/// Re-drives `rec` against clients made by `connect` (one per recorded
/// context slot, created on first use and dropped at its `Exit`). Only the
/// time inside `call`/`call_batch` is counted. `before` runs ahead of every
/// invocation, outside the timing. Each op is followed by its reference
/// quanta (see [`crate::calib`]).
pub fn replay<C: CudaClient>(
    rec: &Recording,
    mut connect: impl FnMut() -> C,
    mut before: impl FnMut(&Recorded),
) -> Result<Replayed, String> {
    let mut times = CalibratedTimes::new().map_err(|e| format!("calibrator: {e}"))?;
    let mut clients: BTreeMap<usize, C> = BTreeMap::new();
    let mut reloc = Relocator::default();
    let mut out = Replayed::default();
    let mut run = |r: &Recorded, out: &mut Replayed| -> Duration {
        let client = clients.entry(r.slot).or_insert_with(&mut connect);
        before(r);
        let calls: Vec<CudaCall> = r.inv.calls().iter().map(|c| reloc.rewrite(c)).collect();
        let exits = calls.iter().any(|c| matches!(c, CudaCall::Exit));
        let (replies, spent) = match &r.inv {
            Invocation::Call(_) => {
                let call = calls.into_iter().next().expect("one call");
                let t0 = Instant::now();
                let reply = client.call(call);
                let spent = t0.elapsed();
                (vec![reply], spent)
            }
            Invocation::Batch(_) => {
                let t0 = Instant::now();
                let replies = client.call_batch(calls);
                (replies, t0.elapsed())
            }
        };
        for ((call, recorded), replayed) in r.inv.calls().iter().zip(&r.replies).zip(&replies) {
            reloc.observe(call, recorded, replayed);
            if !replies_agree(recorded, replayed) {
                out.mismatches += 1;
            }
        }
        if exits {
            clients.remove(&r.slot);
        }
        spent
    };
    for r in &rec.prepare {
        run(r, &mut out);
    }
    for op in &rec.ops {
        times.record(op.iter().map(|r| run(r, &mut out)).sum());
    }
    for (_, mut client) in clients {
        let _ = client.exit();
    }
    out.op_us = times.finish_us();
    Ok(out)
}

// --- R_echo -------------------------------------------------------------------

/// A [`MuxService`] that answers every request on the reactor thread with
/// the next canned reply: the wire and the reactor with no runtime behind.
struct Echo {
    sink: ReplySink,
    replies: Mutex<VecDeque<CudaReply>>,
}

impl MuxService for Echo {
    fn on_request(&self, conn: ConnId, _chan: u64, id: u64, _call: CudaCall) {
        let reply = self.replies.lock().expect("echo queue").pop_front();
        self.sink.reply(conn, id, reply.unwrap_or(Ok(ReplyValue::Unit)));
    }

    fn on_disconnect(&self, _conn: ConnId) {}
}

/// `R_echo`: the recorded stream over a real loopback mux connection to a
/// real reactor whose service echoes the recorded replies.
pub fn replay_echo(kind: Kind, rec: &Recording) -> Result<Replayed, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind echo: {e}"))?;
    let (sink, queue) = ReplySink::channel();
    let echo = Arc::new(Echo { sink, replies: Mutex::new(VecDeque::new()) });
    let service: Arc<dyn MuxService> = echo.clone();
    let reactor = spawn_reactor(listener, ReactorConfig::default(), service, queue)
        .map_err(|e| format!("spawn echo reactor: {e}"))?;
    let conn = MuxConnection::connect(reactor.addr()).map_err(|e| format!("connect echo: {e}"))?;
    let out = replay(
        rec,
        || pipelining(kind, FrontendClient::new(conn.channel())),
        |r| echo.replies.lock().expect("echo queue").extend(r.replies.iter().cloned()),
    );
    conn.shutdown();
    reactor.shutdown();
    out
}

/// Gives a replay client the pipelining mode the workload's clients use.
fn pipelining<T: mtgpu_api::Transport>(kind: Kind, client: FrontendClient<T>) -> FrontendClient<T> {
    if kind.pipelined() {
        client.with_pipelining()
    } else {
        client
    }
}

// --- R_local and R_bare ---------------------------------------------------------

/// `R_local`: the recorded stream into a fresh runtime through its
/// in-process client — service, scheduler, memory manager and device model,
/// no wire codec and no reactor.
pub fn replay_local(kind: Kind, seed: u64, rec: &Recording) -> Result<Replayed, String> {
    let clock = Clock::with_scale(WALL_CLOCK_SCALE);
    let driver = Driver::with_devices(clock, vec![GpuSpec::test_small(); kind.devices()]);
    let rt = NodeRuntime::start(driver, runtime_config(seed));
    let out = replay(rec, || pipelining(kind, rt.local_client()), |_| {});
    rt.wait_idle(Duration::from_secs(10));
    rt.shutdown();
    out
}

/// `R_bare`: the recorded stream straight into the device model. The device
/// is given 1 GiB so the bare runtime, which cannot oversubscribe, holds
/// every workload's declared footprint; only host time is read from it.
pub fn replay_bare(rec: &Recording) -> Result<Replayed, String> {
    let clock = Clock::with_scale(WALL_CLOCK_SCALE);
    let roomy = GpuSpec { mem_bytes: 1 << 30, ..GpuSpec::test_small() };
    let driver = Driver::with_devices(clock, vec![roomy]);
    replay(rec, || BareClient::new(Arc::clone(&driver)), |_| {})
}

// --- single-module probes ---------------------------------------------------------

/// Every `(call, reply)` of one op as it crosses the wire.
fn wire_pairs(op: &[Recorded]) -> impl Iterator<Item = (&CudaCall, &CudaReply)> {
    op.iter().flat_map(|r| r.inv.calls().iter().zip(&r.replies))
}

/// Codec cost and size of one op's frames.
#[derive(Debug, Default)]
pub struct CodecProbe {
    pub us_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub frames_per_op: f64,
    /// Wire bytes ÷ bulk payload bytes; 0 when the op carries no payload.
    pub expansion: f64,
}

/// Times `encode_frame` + `FrameBuf::next_frame` over every request and
/// reply frame of each recorded op, once per direction as on the wire.
pub fn codec_probe(rec: &Recording) -> Result<CodecProbe, String> {
    let mut times = CalibratedTimes::new().map_err(|e| format!("calibrator: {e}"))?;
    let (mut wire, mut frames, mut payload) = (0u64, 0u64, 0u64);
    for op in &rec.ops {
        let mut built: Vec<MuxFrame> = Vec::new();
        for (id, (call, reply)) in wire_pairs(op).enumerate() {
            if let CudaCall::MemcpyH2D { buf, .. } = call {
                payload += buf.payload.len() as u64;
            }
            if let Ok(ReplyValue::Bytes(buf)) = reply {
                payload += buf.payload.len() as u64;
            }
            built.push(MuxFrame::Request { chan: 1, id: id as u64, call: call.clone() });
            built.push(MuxFrame::Response { id: id as u64, reply: reply.clone() });
        }
        let t0 = Instant::now();
        let mut framebuf = FrameBuf::new();
        for frame in &built {
            let mut bytes = Vec::new();
            encode_frame(frame, &mut bytes).expect("frame encodes");
            wire += bytes.len() as u64;
            framebuf.push(&bytes);
            let decoded = framebuf.next_frame::<MuxFrame>().expect("frame decodes");
            std::hint::black_box(decoded);
        }
        times.record(t0.elapsed());
        frames += built.len() as u64;
    }
    let n = rec.ops.len().max(1) as f64;
    Ok(CodecProbe {
        us_per_op: median(&times.finish_us()),
        wire_bytes_per_op: wire as f64 / n,
        frames_per_op: frames as f64 / n,
        expansion: if payload == 0 { 0.0 } else { wire as f64 / payload as f64 },
    })
}

/// Times the Guardian-style descriptor checks on each op's calls; median µs.
pub fn guard_probe(rec: &Recording) -> Result<f64, String> {
    let limits = DescriptorLimits::default();
    let mut times = CalibratedTimes::new().map_err(|e| format!("calibrator: {e}"))?;
    for op in &rec.ops {
        let t0 = Instant::now();
        for (call, _) in wire_pairs(op) {
            let verdict = match call {
                CudaCall::RegisterFunction { kernel, .. } => validate_kernel_desc(kernel, &limits),
                CudaCall::Launch { spec } => validate_launch_spec(spec, &limits),
                CudaCall::MemcpyH2D { buf, .. } => validate_host_buf(buf),
                _ => Ok(()),
            };
            std::hint::black_box(verdict).expect("recorded descriptors are well-formed");
        }
        times.record(t0.elapsed());
    }
    Ok(median(&times.finish_us()))
}

/// vGPUs (persistent device contexts) the memory probe binds contexts to.
const PROBE_VGPUS: u32 = 4;

/// One recorded context as the memory probe sees it.
struct ProbeCtx {
    id: CtxId,
    binding: Option<Binding>,
    /// Kernel name → read-only argument positions.
    read_only: BTreeMap<String, Vec<u32>>,
}

/// The memory manager driven directly: the service layer's launch path
/// reduced to its memory-manager calls, against a bare [`Gpu`].
struct MemoryProbe {
    mm: MemoryManager,
    gpu: Arc<Gpu>,
    free_slots: Vec<(u32, GpuContextId)>,
    ctxs: BTreeMap<usize, ProbeCtx>,
    reloc: Relocator,
    next_ctx: u64,
    errors: u64,
}

impl MemoryProbe {
    fn new() -> Self {
        let clock = Clock::with_scale(WALL_CLOCK_SCALE);
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()))
            .with_clock(clock.clone());
        let gpu = Gpu::new(GpuSpec::test_small(), clock, 0);
        let free_slots = (0..PROBE_VGPUS)
            .map(|i| (i, gpu.create_context().expect("probe device context")))
            .collect();
        MemoryProbe {
            mm,
            gpu,
            free_slots,
            ctxs: BTreeMap::new(),
            reloc: Relocator::default(),
            next_ctx: 1,
            errors: 0,
        }
    }

    fn ctx(&mut self, slot: usize) -> CtxId {
        if let Some(c) = self.ctxs.get(&slot) {
            return c.id;
        }
        let id = CtxId(self.next_ctx);
        self.next_ctx += 1;
        self.mm.register_ctx(id);
        self.ctxs.insert(slot, ProbeCtx { id, binding: None, read_only: BTreeMap::new() });
        id
    }

    fn unbind(&mut self, slot: usize) {
        if let Some(b) = self.ctxs.get_mut(&slot).and_then(|c| c.binding.take()) {
            self.free_slots.push((b.vgpu.index, b.gpu_ctx));
        }
    }

    /// Swaps out the smallest co-tenant whose resident bytes cover `need`
    /// (the `(resident, id)` order of the service layer's inter-application
    /// swap) and releases its slot.
    fn evict_for(&mut self, requester: usize, need: u64) -> bool {
        let victim = self
            .ctxs
            .iter()
            .filter(|(&slot, c)| slot != requester && c.binding.is_some())
            .map(|(&slot, c)| (self.mm.resident_bytes(c.id), c.id, slot))
            .filter(|&(resident, _, _)| resident >= need)
            .min();
        let Some((_, id, slot)) = victim else { return false };
        let binding = self.ctxs[&slot].binding.clone().expect("victim is bound");
        let ok = self.mm.swap_out_ctx(id, &binding, SwapReason::InterAppVictim).is_ok();
        self.unbind(slot);
        ok
    }

    fn launch(&mut self, slot: usize, id: CtxId, spec: &LaunchSpec) -> CudaResult<()> {
        let closure = self.mm.launch_closure(id, &spec.args)?;
        let read_only = self.ctxs[&slot].read_only.get(&spec.kernel).cloned().unwrap_or_default();
        let written = if read_only.is_empty() {
            closure.clone()
        } else {
            let args: Vec<KernelArg> = spec
                .args
                .iter()
                .enumerate()
                .filter(|&(i, _)| !read_only.contains(&(i as u32)))
                .map(|(_, a)| *a)
                .collect();
            self.mm.launch_closure(id, &args)?
        };
        // A handful of rounds covers evict-then-retry; a working set that
        // still does not fit is an error of the probe, not a wait.
        for _ in 0..PROBE_VGPUS + 2 {
            if self.ctxs[&slot].binding.is_none() {
                let (index, gpu_ctx) = self.free_slots.pop().ok_or(CudaError::TooManyContexts)?;
                let vgpu = VGpuId { device: DeviceId(0), index };
                let binding = Binding { vgpu, gpu: Arc::clone(&self.gpu), gpu_ctx };
                self.ctxs.get_mut(&slot).expect("context").binding = Some(binding);
            }
            let binding = self.ctxs[&slot].binding.clone().expect("bound above");
            match self.mm.materialize(id, &closure, &binding)? {
                Materialize::Ready => {
                    self.mm.translate_args(id, &spec.args)?;
                    self.mm.mark_launched(id, &written);
                    return Ok(());
                }
                Materialize::NeedBytes(need) => {
                    if !self.evict_for(slot, need) {
                        self.mm.swap_out_ctx(id, &binding, SwapReason::Unbind)?;
                        self.unbind(slot);
                    }
                }
            }
        }
        Err(CudaError::MemoryAllocation)
    }

    /// Applies one recorded call's memory projection.
    fn apply(&mut self, slot: usize, call: &CudaCall, recorded: &CudaReply) {
        let id = self.ctx(slot);
        let binding = self.ctxs[&slot].binding.clone();
        let recorded_call = call;
        let call = self.reloc.rewrite(recorded_call);
        if let CudaCall::Free { ptr } = recorded_call {
            self.reloc.forget(*ptr);
        }
        let ok = match &call {
            CudaCall::RegisterFunction { kernel, .. } => {
                let ctx = self.ctxs.get_mut(&slot).expect("context");
                ctx.read_only.insert(kernel.name.clone(), kernel.read_only_args.clone());
                true
            }
            CudaCall::Malloc { size, kind } => match self.mm.malloc(id, *size, *kind) {
                Ok(new) => {
                    if let Ok(ReplyValue::Ptr(old)) = recorded {
                        self.reloc.learn(*old, *size, new);
                    }
                    true
                }
                Err(_) => false,
            },
            CudaCall::Free { ptr } => self.mm.free(id, *ptr, binding.as_ref()).is_ok(),
            CudaCall::MemcpyH2D { dst, buf } => {
                self.mm.copy_h2d(id, *dst, buf, binding.as_ref()).is_ok()
            }
            CudaCall::MemcpyD2H { src, len } => {
                self.mm.copy_d2h(id, *src, *len, binding.as_ref()).is_ok()
            }
            CudaCall::MemcpyD2D { dst, src, len } => {
                self.mm.copy_d2d(id, *dst, *src, *len, binding.as_ref()).is_ok()
            }
            CudaCall::Launch { spec } => self.launch(slot, id, spec).is_ok(),
            CudaCall::Exit => {
                self.mm.remove_ctx(id, binding.as_ref());
                self.unbind(slot);
                self.ctxs.remove(&slot);
                true
            }
            _ => true,
        };
        if !ok {
            self.errors += 1;
        }
    }
}

/// `core.memory.us_per_op`: each op's memory projection replayed into the
/// memory manager's public functions. Returns the median µs per op and the
/// number of calls the probe could not apply (must be 0).
pub fn memory_probe(rec: &Recording) -> Result<(f64, u64), String> {
    let mut probe = MemoryProbe::new();
    let apply_all = |probe: &mut MemoryProbe, recorded: &[Recorded]| {
        for r in recorded {
            for (call, reply) in r.inv.calls().iter().zip(&r.replies) {
                probe.apply(r.slot, call, reply);
            }
        }
    };
    apply_all(&mut probe, &rec.prepare);
    let mut times = CalibratedTimes::new().map_err(|e| format!("calibrator: {e}"))?;
    for op in &rec.ops {
        let t0 = Instant::now();
        apply_all(&mut probe, op);
        times.record(t0.elapsed());
    }
    Ok((median(&times.finish_us()), probe.errors))
}

/// `core.sched.us_per_bind`: uncontended `BindingManager::acquire` +
/// `release` on a dispatcher shaped like the workload's node; median µs over
/// batches of ten.
pub fn sched_probe(kind: Kind, seed: u64) -> Result<f64, String> {
    const BATCHES: usize = 300;
    const PER_BATCH: u32 = 10;
    let metrics = Arc::new(RuntimeMetrics::default());
    let bm = BindingManager::new_seeded(SchedulerPolicy::default(), metrics, seed);
    let clock = Clock::with_scale(WALL_CLOCK_SCALE);
    for d in 0..kind.devices() as u32 {
        let gpu = Gpu::new(GpuSpec::test_small(), clock.clone(), d);
        bm.add_device(DeviceId(d), gpu, PROBE_VGPUS).map_err(|e| format!("probe vGPUs: {e:?}"))?;
    }
    let ctx = AppContext::new(CtxId(1), 0, "probe".into());
    let mut times = CalibratedTimes::new().map_err(|e| format!("calibrator: {e}"))?;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..PER_BATCH {
            let b = bm.acquire(&ctx, 1.0, 0, Duration::from_secs(5)).ok_or("no free vGPU")?;
            bm.release(ctx.id, b.vgpu);
        }
        times.record(t0.elapsed() / PER_BATCH);
    }
    Ok(median(&times.finish_us()))
}
