//! The memory manager: virtual memory for GPUs (§4.5).
//!
//! Applications never see device addresses — `malloc` returns *virtual*
//! addresses minted here, and data lives in the host-side swap area, moving
//! to a device only on demand (at kernel-launch time under transfer
//! deferral). The manager implements the full Table 1 action matrix, the
//! Figure 4 flag state machine, intra- and inter-application swap,
//! bulk-transfer coalescing, bad-operation detection, nested-structure
//! consistency, checkpointing, and device-loss recovery.
//!
//! # Locking contract
//!
//! Every method taking a [`CtxId`] assumes the caller holds that context's
//! *service lock* ([`crate::ctx::AppContext::service_lock`]): a context's
//! memory state is only ever mutated by one thread at a time (its handler,
//! or a swapper/migrator that won its `try_lock`). The manager's internal
//! mutex is short-held and never spans a simulated-time device operation —
//! transfers are planned under the lock, executed outside it, and committed
//! under it again.

use crate::ctx::{Binding, CtxId};
use crate::memory::eviction::{self, EntryCandidate, TouchStamp};
use crate::memory::page_table::{PageTable, PageTableEntry, SwapSlab};
use crate::memory::swap::SwapArea;
use crate::memory::transfer::{self, TransferOp};
use crate::metrics::RuntimeMetrics;
use crate::trace::{TraceEvent, Tracer};
use mtgpu_api::protocol::AllocKind;
use mtgpu_api::{CudaError, CudaResult, HostBuf};
use mtgpu_gpusim::device::DEFAULT_MATERIALIZE_CAP;
use mtgpu_gpusim::{DeviceAddr, DeviceId, KernelArg};
use mtgpu_simtime::{lock_rank, Clock, RankedMutex, Shadow};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Base of the virtual address space handed to applications. High enough to
/// never collide with device-salted physical addresses.
const VADDR_BASE: u64 = 0x7f00_0000_0000;
/// Virtual allocation alignment (matches the device allocator).
const VALIGN: u64 = 256;

/// Result of trying to make a launch's working set resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Materialize {
    /// Everything resident and uploaded; launch may proceed.
    Ready,
    /// Even after intra-application swapping, `0.0 +` this many bytes could
    /// not be allocated on the device. The caller escalates (inter-app swap
    /// or unbind-and-retry).
    NeedBytes(u64),
}

/// Why a context's device state is being evicted (metric attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapReason {
    /// Evicted as the victim of another application's memory need (§4.5).
    InterAppVictim,
    /// Unbound voluntarily (requeue after failed materialization).
    Unbind,
    /// Device failed or was removed.
    DeviceLoss,
    /// Evicted by priority preemption: a higher-priority tenant was under
    /// memory pressure and this context's tenant holds a lower lease
    /// priority.
    Preempted,
}

/// Accounting of one whole-context swap-out ([`MemoryManager::swap_out_ctx`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapOutcome {
    /// Device bytes freed.
    pub freed: u64,
    /// Freed bytes that needed a D2H writeback first (dirty on device).
    pub writeback_bytes: u64,
    /// Freed bytes whose swap copy was already current — no writeback.
    pub clean_bytes: u64,
}

/// One entry of a live-migration transfer plan
/// ([`MemoryManager::migration_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationEntry {
    /// The entry's virtual address (plan key — stable across the move).
    pub vaddr: DeviceAddr,
    /// Its current allocation on the source device.
    pub src_dptr: DeviceAddr,
    pub size: u64,
    /// The device copy is current (`!to_dev`): the bytes must travel with
    /// the context. Otherwise the slab is authoritative and the source
    /// copy is dropped.
    pub device_current: bool,
}

/// Outcome of device-loss recovery for one context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// All device-resident data had a consistent swap copy; the context can
    /// transparently rebind elsewhere.
    Recovered,
    /// Some data existed only on the lost device (dirty, never
    /// checkpointed): the context cannot be transparently resumed.
    LostDirtyData,
}

struct MmState {
    tables: HashMap<CtxId, PageTable>,
    /// Host swap accounting. Shadowed so mtcheck's happens-before detector
    /// audits every reserve/release against the memory-manager lock.
    swap: Shadow<SwapArea>,
    next_vaddr: u64,
    /// Monotone touch sequence shared by every table; assigned under this
    /// lock so stamps are totally ordered and replay-stable.
    touch_seq: u64,
    /// Cumulative per-device swap traffic: `device → (bytes_in, bytes_out)`.
    /// `in` counts host→device upload commits, `out` counts device→host
    /// writeback commits — the pressure signal the rebalancer reads.
    dev_swap: BTreeMap<DeviceId, (u64, u64)>,
}

/// Memory-manager configuration slice (copied from
/// [`crate::config::RuntimeConfig`]).
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    pub defer_transfers: bool,
    pub coalesce_transfers: bool,
    pub max_ptes_per_context: usize,
    pub swap_capacity: Option<u64>,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            defer_transfers: true,
            coalesce_transfers: true,
            max_ptes_per_context: 1 << 20,
            swap_capacity: None,
        }
    }
}

/// The node-wide memory manager.
pub struct MemoryManager {
    cfg: MemoryConfig,
    metrics: Arc<RuntimeMetrics>,
    tracer: Option<Arc<Tracer>>,
    /// Virtual clock feeding touch stamps. Defaults to a fresh (never
    /// advanced) virtual clock, in which case stamp ordering degenerates to
    /// the sequence counter — still total, still deterministic.
    clock: Clock,
    state: RankedMutex<MmState>,
}

impl MemoryManager {
    /// Creates a manager.
    pub fn new(cfg: MemoryConfig, metrics: Arc<RuntimeMetrics>) -> Self {
        let swap = Shadow::new("mm.swap", SwapArea::new(cfg.swap_capacity));
        MemoryManager {
            cfg,
            metrics,
            tracer: None,
            clock: Clock::virtual_clock(),
            state: RankedMutex::new(
                lock_rank::MM_STATE,
                MmState {
                    tables: HashMap::new(),
                    swap,
                    next_vaddr: VADDR_BASE,
                    touch_seq: 0,
                    dev_swap: BTreeMap::new(),
                },
            ),
        }
    }

    /// Attaches the runtime's clock so touch stamps carry virtual time in
    /// addition to the sequence counter.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Mints the next touch stamp. Callers hold the `MmState` lock (the
    /// `&mut` proves it), so sequence numbers are race-free.
    fn stamp(&self, st: &mut MmState) -> TouchStamp {
        st.touch_seq += 1;
        TouchStamp { nanos: self.clock.now().since_epoch().as_nanos(), seq: st.touch_seq }
    }

    /// Contended `MmState` acquisitions since the last monitor pass (debug
    /// builds only — the ranked-lock observability hook).
    pub(crate) fn take_lock_contention(&self) -> u64 {
        self.state.take_contended()
    }

    /// Attaches a tracer so transfer plans emit
    /// [`TraceEvent::TransferPlan`] records.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Runs a transfer plan across the bound device's copy engines (a
    /// one-engine device runs it inline, serially) and accounts it (metrics
    /// + trace).
    fn run_plan(
        &self,
        ctx: CtxId,
        binding: &Binding,
        ops: Vec<TransferOp>,
    ) -> Vec<transfer::TransferOutcome> {
        let lanes = binding.gpu.spec().copy_engines as usize;
        let (outcomes, shape) = transfer::execute(&binding.gpu, binding.gpu_ctx, ops, lanes);
        RuntimeMetrics::bump(&self.metrics.transfer_plans);
        if shape.overlapped {
            RuntimeMetrics::bump(&self.metrics.transfer_overlap_events);
        }
        if let Some(tracer) = &self.tracer {
            tracer.record(TraceEvent::TransferPlan {
                ctx,
                ops: shape.ops,
                lanes: shape.lanes,
                bytes: shape.bytes,
            });
        }
        outcomes
    }

    /// Records swap traffic against a device, under the held `MmState` lock.
    fn note_dev_swap(st: &mut MmState, dev: DeviceId, bytes_in: u64, bytes_out: u64) {
        let e = st.dev_swap.entry(dev).or_insert((0, 0));
        e.0 += bytes_in;
        e.1 += bytes_out;
    }

    /// Cumulative `(bytes_in, bytes_out)` swap traffic of one device.
    pub fn device_swap_traffic(&self, dev: DeviceId) -> (u64, u64) {
        self.state.lock().dev_swap.get(&dev).copied().unwrap_or((0, 0))
    }

    /// Registers a fresh context.
    pub fn register_ctx(&self, ctx: CtxId) {
        self.state.lock().tables.insert(ctx, PageTable::new());
    }

    /// Removes a context, releasing its swap reservation and (when bound)
    /// its device allocations.
    pub fn remove_ctx(&self, ctx: CtxId, binding: Option<&Binding>) {
        let frees: Vec<(DeviceAddr, u64)> = {
            let mut st = self.state.lock();
            let Some(table) = st.tables.remove(&ctx) else { return };
            let mut frees = Vec::new();
            let mut swap_bytes = 0;
            for e in table.iter() {
                swap_bytes += e.size;
                if let Some(d) = e.device_ptr {
                    frees.push((d, e.size));
                }
            }
            st.swap.release(swap_bytes);
            frees
        };
        if let Some(b) = binding {
            for (d, _) in frees {
                let _ = b.gpu.free(b.gpu_ctx, d);
            }
        }
    }

    /// `cudaMalloc` (Table 1): create PTE, allocate swap. No device action.
    pub fn malloc(&self, ctx: CtxId, size: u64, kind: AllocKind) -> CudaResult<DeviceAddr> {
        if size == 0 {
            return Err(CudaError::InvalidValue);
        }
        let mut st = self.state.lock();
        let max_ptes = self.cfg.max_ptes_per_context;
        let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        if table.len() >= max_ptes {
            return Err(CudaError::VirtualAddressExhausted);
        }
        st.swap.reserve(size)?;
        let vaddr = DeviceAddr(st.next_vaddr);
        st.next_vaddr += (size + VALIGN - 1) & !(VALIGN - 1);
        let slab = SwapSlab::new(size, DEFAULT_MATERIALIZE_CAP);
        let last_touch = self.stamp(&mut st);
        let table = st.tables.get_mut(&ctx).expect("table vanished");
        table.insert(PageTableEntry {
            vaddr,
            size,
            device_ptr: None,
            flags: crate::memory::page_table::Flags::INITIAL,
            kind,
            slab,
            nested_members: Vec::new(),
            nested_parent: None,
            last_touch,
        });
        Ok(vaddr)
    }

    /// `cudaFree` (Table 1): check PTE, de-allocate swap, free device copy
    /// if resident. Returns the allocation's declared size so the caller
    /// can settle lease accounting.
    pub fn free(
        &self,
        ctx: CtxId,
        vaddr: DeviceAddr,
        binding: Option<&Binding>,
    ) -> CudaResult<u64> {
        let entry = {
            let mut st = self.state.lock();
            let table = st.tables.get_mut(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
            let entry = table.remove(vaddr).ok_or(CudaError::InvalidDevicePointer)?;
            st.swap.release(entry.size);
            entry
        };
        if let Some(dptr) = entry.device_ptr {
            let b = binding.ok_or(CudaError::SwapDeallocation)?;
            b.gpu.free(b.gpu_ctx, dptr).map_err(CudaError::from_gpu)?;
        }
        Ok(entry.size)
    }

    /// `cudaMemcpy` host→device (Table 1): check PTE, move data to swap.
    /// Under deferral no device action occurs; in eager mode the region is
    /// written through when the entry is already resident.
    pub fn copy_h2d(
        &self,
        ctx: CtxId,
        dst: DeviceAddr,
        buf: &HostBuf,
        binding: Option<&Binding>,
    ) -> CudaResult<()> {
        if buf.declared_len == 0 {
            return Err(CudaError::InvalidValue);
        }
        // Phase 0: if the entry is dirty on device (a kernel wrote it and
        // no checkpoint followed), synchronize the slab first — a *partial*
        // host write must merge into the kernel's output, not clobber the
        // untouched region with the stale pre-kernel slab at the next bulk
        // upload. (Figure 4's flags are per-entry; this keeps the swap tier
        // authoritative at byte granularity.)
        let sync_plan = {
            let st = self.state.lock();
            let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
            let (base, _) = table.resolve(dst).ok_or(CudaError::InvalidDevicePointer)?;
            let entry = table.get(base).expect("resolved entry vanished");
            (entry.flags.to_swap && entry.flags.allocated)
                .then(|| (base, entry.device_ptr.expect("allocated without ptr"), entry.size))
        };
        if let Some((base, dptr, size)) = sync_plan {
            let b = binding.ok_or(CudaError::InvalidDevicePointer)?;
            let bytes = b.gpu.memcpy_d2h(b.gpu_ctx, dptr, size).map_err(CudaError::from_gpu)?;
            let mut st = self.state.lock();
            if let Some(entry) = st.tables.get_mut(&ctx).and_then(|t| t.get_mut(base)) {
                entry.slab.write(0, &bytes);
                entry.flags = entry.flags.on_copy_dh();
            }
        }
        // Phase 1: validate, update slab + flags under the lock.
        let eager_plan = {
            let mut st = self.state.lock();
            let touch = self.stamp(&mut st);
            let table = st.tables.get_mut(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
            let (base, offset) = table.resolve(dst).ok_or(CudaError::InvalidDevicePointer)?;
            let entry = table.get_mut(base).expect("resolved entry vanished");
            if offset + buf.declared_len > entry.size {
                RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
                return Err(CudaError::SizeMismatch);
            }
            if entry.flags.to_dev && self.cfg.coalesce_transfers {
                // A previous copy into this entry has not been uploaded yet:
                // this one merges into the same future bulk transfer.
                RuntimeMetrics::bump(&self.metrics.coalesced_copies);
            }
            entry.slab.write(offset, &buf.payload);
            entry.flags = entry.flags.on_copy_hd();
            entry.last_touch = touch;
            if !self.cfg.defer_transfers && entry.flags.allocated {
                entry.device_ptr.map(|d| (d, entry.size, entry.slab.data.clone()))
            } else {
                None
            }
        };
        // Phase 2 (eager mode only): write through to the device.
        if let (Some((dptr, size, data)), Some(b)) = (eager_plan, binding) {
            b.gpu.memcpy_h2d(b.gpu_ctx, dptr, size, &data).map_err(CudaError::from_gpu)?;
            let mut st = self.state.lock();
            if let Some(entry) = st
                .tables
                .get_mut(&ctx)
                .and_then(|t| t.resolve(dst).map(|(b, _)| b))
                .and_then(|base| st.tables.get_mut(&ctx).unwrap().get_mut(base))
            {
                entry.flags.to_dev = false;
            }
        }
        Ok(())
    }

    /// `cudaMemcpy` device→host (Table 1): check PTE; if the device holds
    /// the only copy, synchronize the slab first; serve from swap.
    pub fn copy_d2h(
        &self,
        ctx: CtxId,
        src: DeviceAddr,
        len: u64,
        binding: Option<&Binding>,
    ) -> CudaResult<HostBuf> {
        if len == 0 {
            return Err(CudaError::InvalidValue);
        }
        // Phase 1: plan.
        let (base, offset, sync_plan) = {
            let st = self.state.lock();
            let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
            let (base, offset) = table.resolve(src).ok_or(CudaError::InvalidDevicePointer)?;
            let entry = table.get(base).expect("resolved entry vanished");
            if offset + len > entry.size {
                RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
                return Err(CudaError::OutOfBounds);
            }
            let sync = (entry.flags.to_swap && entry.flags.allocated)
                .then(|| (entry.device_ptr.expect("allocated without ptr"), entry.size));
            (base, offset, sync)
        };
        // Phase 2: synchronize the whole entry from device if dirty.
        if let Some((dptr, size)) = sync_plan {
            let b = binding.ok_or(CudaError::InvalidDevicePointer)?;
            let bytes = b.gpu.memcpy_d2h(b.gpu_ctx, dptr, size).map_err(CudaError::from_gpu)?;
            let mut st = self.state.lock();
            if let Some(entry) = st.tables.get_mut(&ctx).and_then(|t| t.get_mut(base)) {
                entry.slab.write(0, &bytes);
                entry.flags = entry.flags.on_copy_dh();
            }
            Self::note_dev_swap(&mut st, b.vgpu.device, 0, size);
        }
        // Phase 3: serve from the slab (a read is a touch — recency
        // policies must not evict what the application is actively reading).
        let mut st = self.state.lock();
        let touch = self.stamp(&mut st);
        let entry = st
            .tables
            .get_mut(&ctx)
            .and_then(|t| t.get_mut(base))
            .ok_or(CudaError::InvalidDevicePointer)?;
        entry.last_touch = touch;
        Ok(HostBuf::with_shadow(len, entry.slab.read(offset, len)))
    }

    /// `cudaMemcpy` device→device. When both entries are resident on the
    /// bound device with their device copies current, the copy runs
    /// device-side — one memory-bus operation, no PCIe round trip. Any
    /// other state (unbound, entry swapped out, or a pending upload making
    /// the slab the newer copy) falls back to routing through the swap
    /// tier (D2H then H2D), preserving flags semantics.
    pub fn copy_d2d(
        &self,
        ctx: CtxId,
        dst: DeviceAddr,
        src: DeviceAddr,
        len: u64,
        binding: Option<&Binding>,
    ) -> CudaResult<()> {
        if len == 0 {
            return Err(CudaError::InvalidValue);
        }
        // Validate both endpoints under one lock (same error kinds as the
        // host route: src overflow reads out of bounds, dst overflow is a
        // size mismatch) and decide the route.
        let device_plan = {
            let st = self.state.lock();
            let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
            let (src_base, src_off) = table.resolve(src).ok_or(CudaError::InvalidDevicePointer)?;
            let (dst_base, dst_off) = table.resolve(dst).ok_or(CudaError::InvalidDevicePointer)?;
            let src_entry = table.get(src_base).expect("resolved entry vanished");
            let dst_entry = table.get(dst_base).expect("resolved entry vanished");
            if src_off + len > src_entry.size {
                RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
                return Err(CudaError::OutOfBounds);
            }
            if dst_off + len > dst_entry.size {
                RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
                return Err(CudaError::SizeMismatch);
            }
            let device_current = |e: &PageTableEntry| e.flags.allocated && !e.flags.to_dev;
            (device_current(src_entry) && device_current(dst_entry)).then(|| {
                let sdptr = src_entry.device_ptr.expect("allocated without ptr");
                let ddptr = dst_entry.device_ptr.expect("allocated without ptr");
                (dst_base, DeviceAddr(ddptr.0 + dst_off), DeviceAddr(sdptr.0 + src_off))
            })
        };
        if let (Some((dst_base, ddptr, sdptr)), Some(b)) = (device_plan, binding) {
            b.gpu.memcpy_d2d(b.gpu_ctx, ddptr, sdptr, len).map_err(CudaError::from_gpu)?;
            RuntimeMetrics::bump(&self.metrics.d2d_device_copies);
            let mut st = self.state.lock();
            let touch = self.stamp(&mut st);
            if let Some(entry) = st.tables.get_mut(&ctx).and_then(|t| t.get_mut(dst_base)) {
                // The device now holds data the slab doesn't: same state a
                // kernel write leaves behind.
                entry.flags = entry.flags.on_launch();
                entry.last_touch = touch;
            }
            return Ok(());
        }
        let data = self.copy_d2h(ctx, src, len, binding)?;
        self.copy_h2d(ctx, dst, &data, binding)
    }

    /// Registers a nested structure (§1): `parent` holds device pointers to
    /// `members`; the manager keeps them consistent by extending launch
    /// materialization and swaps to the whole closure.
    pub fn register_nested(
        &self,
        ctx: CtxId,
        parent: DeviceAddr,
        members: Vec<DeviceAddr>,
    ) -> CudaResult<()> {
        let mut st = self.state.lock();
        let table = st.tables.get_mut(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        let parent_base =
            table.resolve(parent).map(|(b, _)| b).ok_or(CudaError::InvalidDevicePointer)?;
        let mut member_bases = Vec::with_capacity(members.len());
        for m in &members {
            let base = table.resolve(*m).map(|(b, _)| b).ok_or(CudaError::InvalidDevicePointer)?;
            member_bases.push(base);
        }
        for &mb in &member_bases {
            table.get_mut(mb).expect("member vanished").nested_parent = Some(parent_base);
        }
        table.get_mut(parent_base).expect("parent vanished").nested_members = member_bases;
        Ok(())
    }

    /// Resolves a launch's pointer arguments to PTE bases and extends the
    /// set with registered nested members (transitively).
    pub fn launch_closure(&self, ctx: CtxId, args: &[KernelArg]) -> CudaResult<Vec<DeviceAddr>> {
        let st = self.state.lock();
        let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        let mut closure: Vec<DeviceAddr> = Vec::new();
        let mut stack: Vec<DeviceAddr> = Vec::new();
        for arg in args {
            if let KernelArg::Ptr(p) = arg {
                let base =
                    table.resolve(*p).map(|(b, _)| b).ok_or(CudaError::InvalidDevicePointer)?;
                stack.push(base);
            }
        }
        while let Some(base) = stack.pop() {
            if closure.contains(&base) {
                continue;
            }
            closure.push(base);
            let entry = table.get(base).ok_or(CudaError::InvalidDevicePointer)?;
            stack.extend(entry.nested_members.iter().copied());
        }
        Ok(closure)
    }

    /// Makes every entry in `bases` device-resident and uploaded on the
    /// bound device, applying **intra-application swap** on memory pressure
    /// (§4.5). Returns [`Materialize::NeedBytes`] if the device cannot hold
    /// the working set even after evicting everything else this context
    /// owns.
    pub fn materialize(
        &self,
        ctx: CtxId,
        bases: &[DeviceAddr],
        binding: &Binding,
    ) -> CudaResult<Materialize> {
        if let Some(need) = self.ensure_resident(ctx, bases, binding)? {
            return Ok(Materialize::NeedBytes(need));
        }
        let ops = self.plan_uploads(ctx, bases)?;
        self.touch_working_set(ctx, bases);
        if ops.is_empty() {
            return Ok(Materialize::Ready);
        }
        // Execute concurrent uploads across the copy engines, no manager
        // lock held; commit flag transitions under the lock after.
        let outcomes = self.run_plan(ctx, binding, ops);
        match self.commit_uploads(ctx, binding.vgpu.device, outcomes) {
            None => Ok(Materialize::Ready),
            Some(e) => Err(e),
        }
    }

    /// Phase A of materialization: make every entry in `bases` device-
    /// resident, evicting the context's own non-working-set entries on OOM
    /// (intra-application swap, §4.5). Returns `Some(shortfall)` when the
    /// device cannot hold the working set even after evicting everything
    /// else this context owns. Mallocs cost no simulated time; an OOM
    /// triggers one eviction and a full re-plan, since eviction changes
    /// which entries are resident.
    fn ensure_resident(
        &self,
        ctx: CtxId,
        bases: &[DeviceAddr],
        binding: &Binding,
    ) -> CudaResult<Option<u64>> {
        // The victim queue is built lazily on the first OOM and reused
        // across re-plans: candidate order is invariant within one plan
        // generation (evictions only remove entries).
        let mut victims: Option<VecDeque<DeviceAddr>> = None;
        'alloc: loop {
            let pending: Vec<(DeviceAddr, u64)> = {
                let st = self.state.lock();
                let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
                let mut pending = Vec::new();
                for &base in bases {
                    let entry = table.get(base).ok_or(CudaError::InvalidDevicePointer)?;
                    if !entry.flags.allocated {
                        pending.push((base, entry.size));
                    }
                }
                pending
            };
            if pending.is_empty() {
                return Ok(None);
            }
            for (base, size) in pending {
                match binding.gpu.malloc(binding.gpu_ctx, size) {
                    Ok(dptr) => {
                        let mut st = self.state.lock();
                        if let Some(entry) = st.tables.get_mut(&ctx).and_then(|t| t.get_mut(base)) {
                            entry.device_ptr = Some(dptr);
                            entry.flags.allocated = true;
                        } else {
                            // Entry freed concurrently is impossible under
                            // the service lock; release the orphan.
                            let _ = binding.gpu.free(binding.gpu_ctx, dptr);
                        }
                    }
                    Err(mtgpu_gpusim::GpuError::OutOfMemory) => {
                        if !self.evict_next_own_entry(ctx, bases, binding, &mut victims)? {
                            return Ok(Some(size));
                        }
                        continue 'alloc;
                    }
                    Err(e) => return Err(CudaError::from_gpu(e)),
                }
            }
        }
    }

    /// Plans one upload per entry awaiting its slab, in working-set order,
    /// under one lock.
    fn plan_uploads(&self, ctx: CtxId, bases: &[DeviceAddr]) -> CudaResult<Vec<TransferOp>> {
        let st = self.state.lock();
        let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        Ok(bases
            .iter()
            .filter_map(|&base| {
                let entry = table.get(base)?;
                (entry.flags.allocated && entry.flags.to_dev).then(|| TransferOp {
                    base: base.0,
                    dptr: entry.device_ptr.expect("allocated without ptr"),
                    size: entry.size,
                    payload: Some(entry.slab.data.clone()),
                })
            })
            .collect())
    }

    /// Commits `to_dev` clears for successful uploads under one lock; the
    /// first failed op (in plan order) becomes the caller's error.
    fn commit_uploads(
        &self,
        ctx: CtxId,
        dev: DeviceId,
        outcomes: Vec<transfer::TransferOutcome>,
    ) -> Option<CudaError> {
        let mut first_err = None;
        let mut st = self.state.lock();
        for out in outcomes {
            match out.result {
                Ok(_) => {
                    RuntimeMetrics::bump(&self.metrics.bulk_uploads);
                    let landed = st
                        .tables
                        .get_mut(&ctx)
                        .and_then(|t| t.get_mut(DeviceAddr(out.base)))
                        .map(|entry| entry.flags.to_dev = false)
                        .is_some();
                    if landed {
                        Self::note_dev_swap(&mut st, dev, out.size, 0);
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err
    }

    /// Stamps a materialized working set.
    fn touch_working_set(&self, ctx: CtxId, bases: &[DeviceAddr]) {
        let mut st = self.state.lock();
        let touch = self.stamp(&mut st);
        if let Some(table) = st.tables.get_mut(&ctx) {
            for &base in bases {
                if let Some(entry) = table.get_mut(base) {
                    entry.last_touch = touch;
                }
            }
        }
    }

    /// Evicts the next victim among `ctx`'s own resident entries outside
    /// the working set, in [`eviction::order_entry_victims`]' order. Returns
    /// `false` when there is nothing left to evict.
    fn evict_next_own_entry(
        &self,
        ctx: CtxId,
        protected: &[DeviceAddr],
        binding: &Binding,
        victims: &mut Option<VecDeque<DeviceAddr>>,
    ) -> CudaResult<bool> {
        if victims.is_none() {
            let st = self.state.lock();
            let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
            let mut cands: Vec<EntryCandidate> = table
                .iter()
                .filter(|e| e.flags.allocated && !protected.contains(&e.vaddr))
                .map(|e| EntryCandidate {
                    vaddr: e.vaddr.0,
                    size: e.size,
                    dirty: e.flags.to_swap,
                    last_touch: e.last_touch,
                })
                .collect();
            eviction::order_entry_victims(&mut cands, st.touch_seq);
            *victims = Some(cands.into_iter().map(|c| DeviceAddr(c.vaddr)).collect());
        }
        let queue = victims.as_mut().expect("victim queue just built");
        while let Some(base) = queue.pop_front() {
            // Re-validate: no *new* candidates appear within a plan
            // generation, but a popped one may have been freed since.
            let plan = {
                let st = self.state.lock();
                st.tables.get(&ctx).and_then(|t| t.get(base)).filter(|e| e.flags.allocated).map(
                    |e| (e.device_ptr.expect("allocated without ptr"), e.size, e.flags.to_swap),
                )
            };
            let Some((dptr, size, dirty)) = plan else { continue };
            let synced = if dirty {
                Some(
                    binding
                        .gpu
                        .memcpy_d2h(binding.gpu_ctx, dptr, size)
                        .map_err(CudaError::from_gpu)?,
                )
            } else {
                None
            };
            binding.gpu.free(binding.gpu_ctx, dptr).map_err(CudaError::from_gpu)?;
            RuntimeMetrics::bump(&self.metrics.intra_app_swaps);
            RuntimeMetrics::add(&self.metrics.swap_bytes, size);
            let mut st = self.state.lock();
            if let Some(entry) = st.tables.get_mut(&ctx).and_then(|t| t.get_mut(base)) {
                if let Some(bytes) = synced {
                    entry.slab.write(0, &bytes);
                }
                entry.device_ptr = None;
                entry.flags = entry.flags.on_swap();
            }
            if dirty {
                Self::note_dev_swap(&mut st, binding.vgpu.device, 0, size);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Rewrites a launch's virtual pointer arguments into device pointers.
    /// All referenced entries must be resident (call [`Self::materialize`]
    /// first).
    pub fn translate_args(&self, ctx: CtxId, args: &[KernelArg]) -> CudaResult<Vec<KernelArg>> {
        let st = self.state.lock();
        let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        args.iter()
            .map(|arg| match arg {
                KernelArg::Ptr(p) => {
                    let (base, offset) =
                        table.resolve(*p).ok_or(CudaError::InvalidDevicePointer)?;
                    let entry = table.get(base).expect("resolved entry vanished");
                    let dptr = entry.device_ptr.ok_or(CudaError::InvalidDevicePointer)?;
                    Ok(KernelArg::Ptr(DeviceAddr(dptr.0 + offset)))
                }
                other => Ok(*other),
            })
            .collect()
    }

    /// Applies the Figure 4 `launch` transition to the working set: data is
    /// now resident and (conservatively) dirty on device.
    pub fn mark_launched(&self, ctx: CtxId, bases: &[DeviceAddr]) {
        let mut st = self.state.lock();
        let touch = self.stamp(&mut st);
        if let Some(table) = st.tables.get_mut(&ctx) {
            for &base in bases {
                if let Some(entry) = table.get_mut(base) {
                    entry.flags = entry.flags.on_launch();
                    entry.last_touch = touch;
                }
            }
        }
    }

    /// Swaps out **all** of a context's device-resident entries
    /// (synchronizing dirty ones first) and frees their device memory.
    /// This is the `Swap` internal function of Table 1 applied to the whole
    /// context — used for inter-application victims, preemption and
    /// voluntary unbinds.
    ///
    /// Dirty entries are written back as one pipelined D2H plan, then
    /// committed to swap *before* any device memory is freed, so a device
    /// failure mid-swap can never silently drop dirty bytes: an entry whose
    /// writeback did not land stays allocated (and dirty), and device-loss
    /// handling reports it as [`Recovery::LostDirtyData`].
    pub fn swap_out_ctx(
        &self,
        ctx: CtxId,
        binding: &Binding,
        reason: SwapReason,
    ) -> CudaResult<SwapOutcome> {
        // Phase A — plan: every allocated entry, in page-table order.
        let plan: Vec<(DeviceAddr, DeviceAddr, u64, bool)> = {
            let st = self.state.lock();
            st.tables
                .get(&ctx)
                .map(|table| {
                    table
                        .iter()
                        .filter(|e| e.flags.allocated)
                        .map(|e| {
                            (
                                e.vaddr,
                                e.device_ptr.expect("allocated without ptr"),
                                e.size,
                                e.flags.to_swap,
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        if reason == SwapReason::InterAppVictim {
            RuntimeMetrics::bump(&self.metrics.inter_app_swaps);
        }
        if plan.is_empty() {
            return Ok(SwapOutcome::default());
        }
        // Phase B — execute: writeback of every dirty entry, pipelined.
        let sync_ops: Vec<TransferOp> = plan
            .iter()
            .filter(|&&(_, _, _, dirty)| dirty)
            .map(|&(base, dptr, size, _)| TransferOp { base: base.0, dptr, size, payload: None })
            .collect();
        let mut sync_err: Option<CudaError> = None;
        let mut synced: HashSet<u64> = HashSet::new();
        if !sync_ops.is_empty() {
            let outcomes = self.run_plan(ctx, binding, sync_ops);
            // Phase C — commit the writebacks first: swap copies become
            // current before their device copies are released.
            let mut st = self.state.lock();
            for out in outcomes {
                match out.result {
                    Ok(bytes) => {
                        let bytes = bytes.expect("D2H op returns data");
                        let landed = st
                            .tables
                            .get_mut(&ctx)
                            .and_then(|t| t.get_mut(DeviceAddr(out.base)))
                            .map(|entry| {
                                entry.slab.write(0, &bytes);
                                entry.flags = entry.flags.on_copy_dh();
                            })
                            .is_some();
                        if landed {
                            synced.insert(out.base);
                            Self::note_dev_swap(&mut st, binding.vgpu.device, 0, out.size);
                        }
                    }
                    Err(e) => sync_err = sync_err.or(Some(e)),
                }
            }
        }
        // Phase D — free, in plan order. Dirty entries whose writeback
        // failed keep their device copy (the only current one).
        let mut out = SwapOutcome::default();
        let mut free_err: Option<CudaError> = None;
        for (base, dptr, size, dirty) in plan {
            if dirty && !synced.contains(&base.0) {
                continue;
            }
            if free_err.is_some() {
                break;
            }
            match binding.gpu.free(binding.gpu_ctx, dptr) {
                Ok(()) => {
                    out.freed += size;
                    if dirty {
                        out.writeback_bytes += size;
                    } else {
                        out.clean_bytes += size;
                        RuntimeMetrics::add(&self.metrics.swap_bytes_skipped_clean, size);
                    }
                    let mut st = self.state.lock();
                    if let Some(entry) = st.tables.get_mut(&ctx).and_then(|t| t.get_mut(base)) {
                        entry.device_ptr = None;
                        entry.flags = entry.flags.on_swap();
                    }
                }
                Err(e) => free_err = Some(CudaError::from_gpu(e)),
            }
        }
        if out.freed > 0 {
            RuntimeMetrics::add(&self.metrics.swap_bytes, out.freed);
        }
        match sync_err.or(free_err) {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Plans a live migration: every allocated entry of `ctx`, in
    /// page-table order. Entries whose device copy is current
    /// (`device_current`) must move with the context (peer-DMA on the
    /// transfer lanes); the rest are slab-authoritative and their source
    /// copies are simply dropped, rematerializing lazily on the
    /// destination. The plan does **not** mutate any PTE — a failure
    /// between plan and [`Self::commit_migration`] leaves the context
    /// fully on its source with every flag intact.
    pub fn migration_plan(&self, ctx: CtxId) -> Vec<MigrationEntry> {
        let st = self.state.lock();
        st.tables
            .get(&ctx)
            .map(|table| {
                table
                    .iter()
                    .filter(|e| e.flags.allocated)
                    .map(|e| MigrationEntry {
                        vaddr: e.vaddr,
                        src_dptr: e.device_ptr.expect("allocated without ptr"),
                        size: e.size,
                        device_current: !e.flags.to_dev,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Commits a live migration under one lock: `moves` rewrites each
    /// entry's device pointer to its destination allocation (flags
    /// untouched — a dirty entry stays dirty, now on the destination);
    /// `dropped` entries lose their (stale) source copy and fall back to
    /// their authoritative slab (`on_swap` transition). This is the
    /// migration's single atomic commit point: before it the context is
    /// fully on src, after it fully on dst.
    pub fn commit_migration(
        &self,
        ctx: CtxId,
        moves: &[(DeviceAddr, DeviceAddr)],
        dropped: &[DeviceAddr],
    ) {
        let mut st = self.state.lock();
        let Some(table) = st.tables.get_mut(&ctx) else { return };
        for &(vaddr, dst_dptr) in moves {
            if let Some(entry) = table.get_mut(vaddr) {
                entry.device_ptr = Some(dst_dptr);
            }
        }
        for &vaddr in dropped {
            if let Some(entry) = table.get_mut(vaddr) {
                entry.device_ptr = None;
                entry.flags = entry.flags.on_swap();
            }
        }
    }

    /// Checkpoint (§4.6): synchronize every dirty device-resident entry to
    /// the swap area *without* evicting it, leaving the context restartable.
    /// Dirty entries are synchronized as one pipelined D2H plan.
    pub fn checkpoint(&self, ctx: CtxId, binding: &Binding) -> CudaResult<()> {
        let ops: Vec<TransferOp> = {
            let st = self.state.lock();
            st.tables
                .get(&ctx)
                .map(|table| {
                    table
                        .iter()
                        .filter(|e| e.flags.allocated && e.flags.to_swap)
                        .map(|e| TransferOp {
                            base: e.vaddr.0,
                            dptr: e.device_ptr.expect("allocated without ptr"),
                            size: e.size,
                            payload: None,
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut first_err = None;
        if !ops.is_empty() {
            let outcomes = self.run_plan(ctx, binding, ops);
            let mut st = self.state.lock();
            for out in outcomes {
                match out.result {
                    Ok(bytes) => {
                        let bytes = bytes.expect("D2H op returns data");
                        let landed = st
                            .tables
                            .get_mut(&ctx)
                            .and_then(|t| t.get_mut(DeviceAddr(out.base)))
                            .map(|entry| {
                                entry.slab.write(0, &bytes);
                                entry.flags = entry.flags.on_copy_dh();
                            })
                            .is_some();
                        if landed {
                            Self::note_dev_swap(&mut st, binding.vgpu.device, 0, out.size);
                        }
                    }
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        RuntimeMetrics::bump(&self.metrics.checkpoints);
        Ok(())
    }

    /// Handles the loss of the device a context was bound to: resident
    /// entries are reset to host-authoritative. If any entry was dirty on
    /// the device (no checkpoint since its last kernel), the context's data
    /// is inconsistent and it cannot transparently resume.
    pub fn on_device_lost(&self, ctx: CtxId) -> Recovery {
        let mut st = self.state.lock();
        let Some(table) = st.tables.get_mut(&ctx) else {
            return Recovery::Recovered;
        };
        let mut lost = false;
        for entry in table.iter_mut() {
            if entry.flags.allocated {
                if entry.flags.to_swap {
                    lost = true;
                }
                entry.device_ptr = None;
                entry.flags.allocated = false;
                entry.flags.to_swap = false;
                entry.flags.to_dev = true;
            }
        }
        if lost {
            Recovery::LostDirtyData
        } else {
            Recovery::Recovered
        }
    }

    /// The context's total declared footprint (the paper's `MemUsage`).
    pub fn mem_usage(&self, ctx: CtxId) -> u64 {
        self.state.lock().tables.get(&ctx).map_or(0, |t| t.mem_usage())
    }

    /// Bytes of the context currently resident on its device.
    pub fn resident_bytes(&self, ctx: CtxId) -> u64 {
        self.state.lock().tables.get(&ctx).map_or(0, |t| t.resident_bytes())
    }

    /// Total swap-area bytes in use.
    pub fn swap_used(&self) -> u64 {
        self.state.lock().swap.used()
    }

    /// Number of live PTEs for a context (diagnostics).
    pub fn pte_count(&self, ctx: CtxId) -> usize {
        self.state.lock().tables.get(&ctx).map_or(0, |t| t.len())
    }

    /// Checkpoints (if bound) and exports the context's complete memory
    /// image with virtual addresses preserved (§4.6). The image is
    /// host-authoritative: residency is not captured — restoration
    /// re-materializes lazily at the next launch.
    pub fn export_image(
        &self,
        ctx: CtxId,
        label: &str,
        binding: Option<&Binding>,
    ) -> CudaResult<mtgpu_api::protocol::ContextImage> {
        if let Some(b) = binding {
            self.checkpoint(ctx, b)?;
        }
        let st = self.state.lock();
        let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        let entries = table
            .iter()
            .map(|e| mtgpu_api::protocol::ImageEntry {
                vaddr: e.vaddr,
                size: e.size,
                kind: e.kind,
                data: e.slab.data.clone(),
                nested_members: e.nested_members.clone(),
                nested_parent: e.nested_parent,
            })
            .collect();
        Ok(mtgpu_api::protocol::ContextImage { label: label.to_string(), entries })
    }

    /// Restores an exported image into a context with an empty page table,
    /// preserving every virtual address. Fails with
    /// [`CudaError::InvalidValue`] if the context already has allocations,
    /// and with [`CudaError::SwapAllocation`] if the swap area cannot hold
    /// the image.
    pub fn import_image(
        &self,
        ctx: CtxId,
        image: mtgpu_api::protocol::ContextImage,
    ) -> CudaResult<()> {
        let mut st = self.state.lock();
        let table = st.tables.get(&ctx).ok_or(CudaError::InvalidDevicePointer)?;
        if !table.is_empty() {
            return Err(CudaError::InvalidValue);
        }
        st.swap.reserve(image.declared_bytes())?;
        // Future mallocs (of any context) must not collide with the
        // imported virtual range within this runtime.
        let max_end = image.entries.iter().map(|e| e.vaddr.0 + e.size).max().unwrap_or(VADDR_BASE);
        if st.next_vaddr < max_end {
            st.next_vaddr = (max_end + VALIGN - 1) & !(VALIGN - 1);
        }
        let last_touch = self.stamp(&mut st);
        let table = st.tables.get_mut(&ctx).expect("table vanished");
        for e in image.entries {
            let mut slab = SwapSlab::new(e.size, DEFAULT_MATERIALIZE_CAP);
            slab.write(0, &e.data);
            table.insert(PageTableEntry {
                vaddr: e.vaddr,
                size: e.size,
                device_ptr: None,
                // Host-authoritative: upload before the next kernel use.
                flags: crate::memory::page_table::Flags {
                    allocated: false,
                    to_dev: true,
                    to_swap: false,
                },
                kind: e.kind,
                slab,
                nested_members: e.nested_members,
                nested_parent: e.nested_parent,
                last_touch,
            });
        }
        Ok(())
    }

    /// Test/diagnostic hook: the flags of the entry at `vaddr`.
    pub fn flags_of(
        &self,
        ctx: CtxId,
        vaddr: DeviceAddr,
    ) -> Option<crate::memory::page_table::Flags> {
        let st = self.state.lock();
        let table = st.tables.get(&ctx)?;
        let (base, _) = table.resolve(vaddr)?;
        table.get(base).map(|e| e.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::VGpuId;
    use mtgpu_gpusim::{DeviceId, Gpu, GpuSpec};
    use mtgpu_simtime::Clock;

    fn mm() -> MemoryManager {
        MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()))
    }

    fn gpu_binding() -> Binding {
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu, gpu_ctx }
    }

    const CTX: CtxId = CtxId(1);

    #[test]
    fn malloc_assigns_distinct_virtual_addresses() {
        let m = mm();
        m.register_ctx(CTX);
        let a = m.malloc(CTX, 100, AllocKind::Linear).unwrap();
        let b = m.malloc(CTX, 100, AllocKind::Linear).unwrap();
        assert_ne!(a, b);
        assert!(a.0 >= VADDR_BASE && b.0 >= VADDR_BASE);
        assert_eq!(m.pte_count(CTX), 2);
        assert_eq!(m.mem_usage(CTX), 200);
    }

    #[test]
    fn unknown_context_rejected() {
        let m = mm();
        assert_eq!(
            m.malloc(CtxId(99), 64, AllocKind::Linear),
            Err(CudaError::InvalidDevicePointer)
        );
    }

    #[test]
    fn materialize_uploads_once_and_translates() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 1024, AllocKind::Linear).unwrap();
        let buf = HostBuf::from_slice(&[3u8; 1024]);
        m.copy_h2d(CTX, v, &buf, None).unwrap();
        assert_eq!(
            m.flags_of(CTX, v).unwrap(),
            crate::memory::page_table::Flags { allocated: false, to_dev: true, to_swap: false }
        );
        let closure = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        assert_eq!(m.materialize(CTX, &closure, &b).unwrap(), Materialize::Ready);
        assert_eq!(b.gpu.stats().snapshot().h2d_bytes, 1024);
        // Idempotent: a second materialize does nothing.
        assert_eq!(m.materialize(CTX, &closure, &b).unwrap(), Materialize::Ready);
        assert_eq!(b.gpu.stats().snapshot().h2d_bytes, 1024);
        // Translation yields a device pointer with offset arithmetic.
        let args = m.translate_args(CTX, &[KernelArg::Ptr(DeviceAddr(v.0 + 256))]).unwrap();
        let KernelArg::Ptr(dptr) = args[0] else { panic!("not a pointer") };
        assert_ne!(dptr.0 & 0xFFFF_0000_0000, VADDR_BASE & 0xFFFF_0000_0000);
        // The device accepts the translated interior pointer.
        assert!(b.gpu.memcpy_d2h(b.gpu_ctx, dptr, 16).is_ok());
    }

    #[test]
    fn intra_app_swap_evicts_non_working_set() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let avail = b.gpu.mem_available();
        let chunk = avail / 5 * 2;
        let x = m.malloc(CTX, chunk, AllocKind::Linear).unwrap();
        let y = m.malloc(CTX, chunk, AllocKind::Linear).unwrap();
        let z = m.malloc(CTX, chunk, AllocKind::Linear).unwrap();
        // x, y resident.
        let c1 = m.launch_closure(CTX, &[KernelArg::Ptr(x), KernelArg::Ptr(y)]).unwrap();
        assert_eq!(m.materialize(CTX, &c1, &b).unwrap(), Materialize::Ready);
        m.mark_launched(CTX, &c1);
        // y, z next: x must be evicted.
        let c2 = m.launch_closure(CTX, &[KernelArg::Ptr(y), KernelArg::Ptr(z)]).unwrap();
        assert_eq!(m.materialize(CTX, &c2, &b).unwrap(), Materialize::Ready);
        assert!(!m.flags_of(CTX, x).unwrap().allocated, "x should be swapped out");
        assert!(m.flags_of(CTX, y).unwrap().allocated);
        assert!(m.flags_of(CTX, z).unwrap().allocated);
    }

    #[test]
    fn materialize_reports_shortfall_when_working_set_too_big() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let too_big = b.gpu.mem_available() + (1 << 20);
        let v = m.malloc(CTX, too_big, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        match m.materialize(CTX, &c, &b).unwrap() {
            Materialize::NeedBytes(n) => assert!(n >= too_big),
            other => panic!("expected NeedBytes, got {other:?}"),
        }
    }

    #[test]
    fn swap_out_ctx_preserves_dirty_data() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 512, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, v, &HostBuf::from_slice(&[7u8; 512]), None).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        m.mark_launched(CTX, &c); // dirty on device
        let out = m.swap_out_ctx(CTX, &b, SwapReason::Unbind).unwrap();
        assert_eq!(out.freed, 512);
        assert_eq!(out.writeback_bytes, 512);
        assert_eq!(out.clean_bytes, 0);
        assert_eq!(m.resident_bytes(CTX), 0);
        // Data must have been synchronized down before the free.
        let back = m.copy_d2h(CTX, v, 512, None).unwrap();
        assert_eq!(back.payload, vec![7u8; 512]);
    }

    #[test]
    fn checkpoint_clears_dirty_without_evicting() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 256, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        m.mark_launched(CTX, &c);
        assert!(m.flags_of(CTX, v).unwrap().to_swap);
        m.checkpoint(CTX, &b).unwrap();
        let f = m.flags_of(CTX, v).unwrap();
        assert!(f.allocated && !f.to_swap && !f.to_dev, "T/F/F after checkpoint: {f:?}");
    }

    #[test]
    fn device_loss_recoverable_only_when_clean() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 256, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        m.mark_launched(CTX, &c);
        // Dirty on device → lost.
        assert_eq!(m.on_device_lost(CTX), Recovery::LostDirtyData);
        // After the reset the entry is host-authoritative again.
        let f = m.flags_of(CTX, v).unwrap();
        assert!(!f.allocated && f.to_dev);
        // A clean context recovers.
        m.materialize(CTX, &c, &b).unwrap();
        m.mark_launched(CTX, &c);
        m.checkpoint(CTX, &b).unwrap();
        assert_eq!(m.on_device_lost(CTX), Recovery::Recovered);
    }

    #[test]
    fn nested_closure_is_transitive_and_deduplicated() {
        let m = mm();
        m.register_ctx(CTX);
        let a = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        let b1 = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        let b2 = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        let c = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        m.register_nested(CTX, a, vec![b1, b2]).unwrap();
        m.register_nested(CTX, b1, vec![c]).unwrap();
        let closure = m.launch_closure(CTX, &[KernelArg::Ptr(a), KernelArg::Ptr(b2)]).unwrap();
        assert_eq!(closure.len(), 4, "a, b1, b2, c exactly once: {closure:?}");
        for v in [a, b1, b2, c] {
            assert!(closure.contains(&v));
        }
    }

    #[test]
    fn copy_d2d_moves_data_between_entries() {
        let m = mm();
        m.register_ctx(CTX);
        let src = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        let dst = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, src, &HostBuf::from_slice(&[9u8; 128]), None).unwrap();
        m.copy_d2d(CTX, dst, src, 128, None).unwrap();
        assert_eq!(m.copy_d2h(CTX, dst, 128, None).unwrap().payload, vec![9u8; 128]);
    }

    #[test]
    fn copy_d2d_uses_device_route_when_both_resident() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let src = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        let dst = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, src, &HostBuf::from_slice(&[4u8; 128]), None).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(src), KernelArg::Ptr(dst)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        let before = b.gpu.stats().snapshot();
        m.copy_d2d(CTX, dst, src, 128, Some(&b)).unwrap();
        let after = b.gpu.stats().snapshot();
        // One device-internal copy: no PCIe traffic at all.
        assert_eq!(after.d2d_bytes - before.d2d_bytes, 128);
        assert_eq!(after.h2d_bytes, before.h2d_bytes);
        assert_eq!(after.d2h_bytes, before.d2h_bytes);
        // The destination is now device-authoritative (like a kernel write).
        let f = m.flags_of(CTX, dst).unwrap();
        assert!(f.allocated && !f.to_dev && f.to_swap, "{f:?}");
        // Reading it back syncs the device copy down and sees the data.
        assert_eq!(m.copy_d2h(CTX, dst, 128, Some(&b)).unwrap().payload, vec![4u8; 128]);
    }

    #[test]
    fn copy_d2d_falls_back_to_host_route_when_swapped_out() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let src = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        let dst = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, src, &HostBuf::from_slice(&[5u8; 128]), None).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(src), KernelArg::Ptr(dst)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        m.swap_out_ctx(CTX, &b, SwapReason::Unbind).unwrap();
        let before = b.gpu.stats().snapshot();
        m.copy_d2d(CTX, dst, src, 128, Some(&b)).unwrap();
        let after = b.gpu.stats().snapshot();
        assert_eq!(after.d2d_bytes, before.d2d_bytes, "swapped-out entries go via the host");
        assert_eq!(m.copy_d2h(CTX, dst, 128, Some(&b)).unwrap().payload, vec![5u8; 128]);
    }

    #[test]
    fn copy_d2d_validates_bounds_up_front() {
        let m = mm();
        m.register_ctx(CTX);
        let src = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        let dst = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        assert_eq!(m.copy_d2d(CTX, dst, src, 0, None), Err(CudaError::InvalidValue));
        assert_eq!(m.copy_d2d(CTX, dst, src, 130, None), Err(CudaError::OutOfBounds));
        assert_eq!(m.copy_d2d(CTX, dst, src, 100, None), Err(CudaError::SizeMismatch));
    }

    #[test]
    fn migration_plan_and_commit_rewrite_only_what_moved() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let a_ptr = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        let b_ptr = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, a_ptr, &HostBuf::from_slice(&[1u8; 128]), None).unwrap();
        m.copy_h2d(CTX, b_ptr, &HostBuf::from_slice(&[2u8; 64]), None).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(a_ptr), KernelArg::Ptr(b_ptr)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        // Host-touch `b_ptr` after the launch: its device copy goes stale
        // (to_dev), so a migration must *drop* it, not carry it.
        m.copy_h2d(CTX, b_ptr, &HostBuf::from_slice(&[3u8; 64]), None).unwrap();

        let plan = m.migration_plan(CTX);
        assert_eq!(plan.len(), 2);
        let pa = plan.iter().find(|e| e.vaddr == a_ptr).unwrap();
        let pb = plan.iter().find(|e| e.vaddr == b_ptr).unwrap();
        assert!(pa.device_current, "kernel output must travel with the context");
        assert!(!pb.device_current, "stale device copy must be dropped, slab wins");
        assert_eq!(pa.size, 128);

        let dst_dptr = DeviceAddr(0x7f00_0000);
        m.commit_migration(CTX, &[(a_ptr, dst_dptr)], &[b_ptr]);

        // Moved entry: flags untouched, pointer rewritten (visible through a
        // fresh plan). Dropped entry: host-authoritative `on_swap` state,
        // classifiable, slab intact.
        let plan2 = m.migration_plan(CTX);
        assert_eq!(plan2.len(), 1, "dropped entry must leave the resident set");
        assert_eq!(plan2[0].vaddr, a_ptr);
        assert_eq!(plan2[0].src_dptr, dst_dptr);
        let fa = m.flags_of(CTX, a_ptr).unwrap();
        assert!(fa.allocated && !fa.to_dev);
        let fb = m.flags_of(CTX, b_ptr).unwrap();
        assert!(!fb.allocated && fb.to_dev && !fb.to_swap);
        assert_eq!(m.copy_d2h(CTX, b_ptr, 64, None).unwrap().payload, vec![3u8; 64]);
    }

    #[test]
    fn copy_d2d_cross_device_non_resident_rejects_bad_bounds_before_staging() {
        // Regression for the migration path: a context that left its old
        // device (everything host-authoritative) and rebound elsewhere
        // issues a D2D copy. Bad bounds must reject *before* a single
        // staging byte moves on either device, and the valid copy must
        // host-route through the slabs — the old device is never touched
        // again.
        let m = mm();
        m.register_ctx(CTX);
        let old = gpu_binding();
        let src = m.malloc(CTX, 128, AllocKind::Linear).unwrap();
        let dst = m.malloc(CTX, 64, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, src, &HostBuf::from_slice(&[7u8; 128]), None).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(src), KernelArg::Ptr(dst)]).unwrap();
        m.materialize(CTX, &c, &old).unwrap();
        m.swap_out_ctx(CTX, &old, SwapReason::Unbind).unwrap();
        let new = binding_with(GpuSpec::test_small());

        let before_old = old.gpu.stats().snapshot();
        let before_new = new.gpu.stats().snapshot();
        assert_eq!(m.copy_d2d(CTX, dst, src, 200, Some(&new)), Err(CudaError::OutOfBounds));
        assert_eq!(m.copy_d2d(CTX, dst, src, 100, Some(&new)), Err(CudaError::SizeMismatch));
        for (label, gpu, before) in [("old", &old.gpu, &before_old), ("new", &new.gpu, &before_new)]
        {
            let s = gpu.stats().snapshot();
            assert_eq!(s.h2d_bytes, before.h2d_bytes, "{label}: rejected copy staged H2D");
            assert_eq!(s.d2h_bytes, before.d2h_bytes, "{label}: rejected copy staged D2H");
            assert_eq!(s.d2d_bytes, before.d2d_bytes, "{label}: rejected copy ran D2D");
        }

        // The valid copy host-routes slab→slab: correct bytes, still zero
        // traffic on the old device (both entries are non-resident, so the
        // new device stays idle too until something materializes).
        m.copy_d2d(CTX, dst, src, 64, Some(&new)).unwrap();
        assert_eq!(m.copy_d2h(CTX, dst, 64, Some(&new)).unwrap().payload, vec![7u8; 64]);
        let after_old = old.gpu.stats().snapshot();
        assert_eq!(after_old.h2d_bytes, before_old.h2d_bytes, "old device touched after unbind");
        assert_eq!(after_old.d2h_bytes, before_old.d2h_bytes, "old device touched after unbind");
    }

    fn binding_with(spec: GpuSpec) -> Binding {
        let gpu = Gpu::new(spec, Clock::with_scale(1e-7), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu, gpu_ctx }
    }

    #[test]
    fn pipelined_materialize_uploads_every_buffer_once() {
        let metrics = Arc::new(RuntimeMetrics::default());
        let m = MemoryManager::new(MemoryConfig::default(), Arc::clone(&metrics));
        m.register_ctx(CTX);
        let b = binding_with(GpuSpec::tesla_c2050());
        let mut ptrs = Vec::new();
        for i in 0..8u8 {
            let v = m.malloc(CTX, 4096, AllocKind::Linear).unwrap();
            m.copy_h2d(CTX, v, &HostBuf::from_slice(&[i; 4096]), None).unwrap();
            ptrs.push(KernelArg::Ptr(v));
        }
        let c = m.launch_closure(CTX, &ptrs).unwrap();
        assert_eq!(m.materialize(CTX, &c, &b).unwrap(), Materialize::Ready);
        assert_eq!(b.gpu.stats().snapshot().h2d_bytes, 8 * 4096);
        // Idempotent, and the plan overlapped on the 2-engine device.
        assert_eq!(m.materialize(CTX, &c, &b).unwrap(), Materialize::Ready);
        assert_eq!(b.gpu.stats().snapshot().h2d_bytes, 8 * 4096);
        let snap = metrics.snapshot();
        assert!(snap.transfer_plans >= 1);
        assert!(snap.transfer_overlap_events >= 1);
        // Every buffer's data reached the device intact.
        for (i, arg) in ptrs.iter().enumerate() {
            let KernelArg::Ptr(v) = arg else { unreachable!() };
            let args = m.translate_args(CTX, &[KernelArg::Ptr(*v)]).unwrap();
            let KernelArg::Ptr(dptr) = args[0] else { unreachable!() };
            assert_eq!(b.gpu.peek(dptr, 16).unwrap(), vec![i as u8; 16]);
        }
    }

    #[test]
    fn single_engine_plans_never_report_overlap() {
        let metrics = Arc::new(RuntimeMetrics::default());
        let m = MemoryManager::new(MemoryConfig::default(), Arc::clone(&metrics));
        m.register_ctx(CTX);
        let b = binding_with(GpuSpec::tesla_c1060());
        let mut ptrs = Vec::new();
        for _ in 0..6 {
            let v = m.malloc(CTX, 1024, AllocKind::Linear).unwrap();
            m.copy_h2d(CTX, v, &HostBuf::from_slice(&[1u8; 1024]), None).unwrap();
            ptrs.push(KernelArg::Ptr(v));
        }
        let c = m.launch_closure(CTX, &ptrs).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        let snap = metrics.snapshot();
        assert!(snap.transfer_plans >= 1);
        assert_eq!(snap.transfer_overlap_events, 0, "one engine cannot overlap");
    }

    #[test]
    fn swap_out_skips_writeback_for_clean_entries() {
        let metrics = Arc::new(RuntimeMetrics::default());
        let m = MemoryManager::new(MemoryConfig::default(), Arc::clone(&metrics));
        m.register_ctx(CTX);
        let b = binding_with(GpuSpec::tesla_c2050());
        let clean = m.malloc(CTX, 1024, AllocKind::Linear).unwrap();
        let dirty = m.malloc(CTX, 512, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(clean), KernelArg::Ptr(dirty)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        // Only `dirty` gets a kernel write; `clean` stays synchronized.
        m.mark_launched(CTX, &[dirty]);
        let d2h_before = b.gpu.stats().snapshot().d2h_bytes;
        let out = m.swap_out_ctx(CTX, &b, SwapReason::Unbind).unwrap();
        assert_eq!(out.freed, 1536);
        assert_eq!(out.writeback_bytes, 512);
        assert_eq!(out.clean_bytes, 1024);
        assert_eq!(metrics.snapshot().swap_bytes_skipped_clean, 1024);
        assert_eq!(
            b.gpu.stats().snapshot().d2h_bytes - d2h_before,
            512,
            "only the dirty entry crosses PCIe"
        );
    }

    #[test]
    fn remove_ctx_frees_device_side() {
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let before = b.gpu.mem_available();
        let v = m.malloc(CTX, 4096, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        assert!(b.gpu.mem_available() < before);
        m.remove_ctx(CTX, Some(&b));
        assert_eq!(b.gpu.mem_available(), before);
        assert_eq!(m.swap_used(), 0);
    }

    #[test]
    fn eager_mode_writes_through_when_resident() {
        let cfg = MemoryConfig { defer_transfers: false, ..MemoryConfig::default() };
        let m = MemoryManager::new(cfg, Arc::new(RuntimeMetrics::default()));
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 256, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        let h2d_before = b.gpu.stats().snapshot().h2d_bytes;
        m.copy_h2d(CTX, v, &HostBuf::from_slice(&[1u8; 256]), Some(&b)).unwrap();
        assert!(
            b.gpu.stats().snapshot().h2d_bytes > h2d_before,
            "eager mode must write through to the resident copy"
        );
        let f = m.flags_of(CTX, v).unwrap();
        assert!(f.allocated && !f.to_dev);
    }

    #[test]
    fn staleness_outweighs_size_in_intra_app_victim_choice() {
        // `large` is touched more recently than `small`; under pressure the
        // stale small buffer scores higher (bytes × staleness) and goes,
        // while the recently used large one stays.
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let avail = b.gpu.mem_available();
        let large = m.malloc(CTX, avail / 5 * 2, AllocKind::Linear).unwrap();
        let small = m.malloc(CTX, avail / 3, AllocKind::Linear).unwrap();
        let c1 = m.launch_closure(CTX, &[KernelArg::Ptr(large), KernelArg::Ptr(small)]).unwrap();
        m.materialize(CTX, &c1, &b).unwrap();
        let c2 = m.launch_closure(CTX, &[KernelArg::Ptr(large)]).unwrap();
        m.materialize(CTX, &c2, &b).unwrap();
        let d = m.malloc(CTX, avail / 3, AllocKind::Linear).unwrap();
        let c3 = m.launch_closure(CTX, &[KernelArg::Ptr(d)]).unwrap();
        assert_eq!(m.materialize(CTX, &c3, &b).unwrap(), Materialize::Ready);
        assert!(m.flags_of(CTX, large).unwrap().allocated, "the fresh large buffer stays");
        assert!(!m.flags_of(CTX, small).unwrap().allocated, "the stale small buffer goes");
    }

    #[test]
    fn clean_bytes_are_evicted_before_dirty() {
        // Equal sizes and ages; `dirty` holds device-only kernel output, so
        // its eviction pays a writeback: its score is halved and the clean
        // buffer is evicted free of charge.
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let avail = b.gpu.mem_available();
        let clean = m.malloc(CTX, avail / 5 * 2, AllocKind::Linear).unwrap();
        let dirty = m.malloc(CTX, avail / 5 * 2, AllocKind::Linear).unwrap();
        let c1 = m.launch_closure(CTX, &[KernelArg::Ptr(clean), KernelArg::Ptr(dirty)]).unwrap();
        m.materialize(CTX, &c1, &b).unwrap();
        m.mark_launched(CTX, &[dirty]);
        let d = m.malloc(CTX, avail / 5 * 2, AllocKind::Linear).unwrap();
        let c2 = m.launch_closure(CTX, &[KernelArg::Ptr(d)]).unwrap();
        let d2h_before = b.gpu.stats().snapshot().d2h_bytes;
        assert_eq!(m.materialize(CTX, &c2, &b).unwrap(), Materialize::Ready);
        assert!(!m.flags_of(CTX, clean).unwrap().allocated, "the clean buffer goes");
        assert!(m.flags_of(CTX, dirty).unwrap().allocated, "the dirty buffer stays");
        assert_eq!(b.gpu.stats().snapshot().d2h_bytes, d2h_before, "no writeback was paid");
    }
}
