//! The memory manager: virtual memory for GPUs (§4.5).
//!
//! Applications never see device addresses — `malloc` returns *virtual*
//! addresses minted here, and data lives in the host-side swap area, moving
//! to a device only on demand (at kernel-launch time under transfer
//! deferral). The manager implements the full Table 1 action matrix, the
//! Figure 4 flag state machine, intra- and inter-application swap,
//! bulk-transfer coalescing, bad-operation detection, nested-structure
//! consistency, checkpointing, and device-loss recovery. This file holds
//! the tables, the accounting and the Table 1 calls; the residency passes
//! are in [`super::residency`], [`super::swapout`], [`super::migration`]
//! and [`super::image`].
//!
//! # Locking contract
//!
//! Every method taking a [`CtxId`] assumes the caller holds that context's
//! *service lock* ([`crate::ctx::AppContext::service_lock`]): a context's
//! memory state is only ever mutated by one thread at a time (its handler,
//! or a swapper/migrator that won its `try_lock`). The page table belongs
//! to its context: each has its own, behind its own lock (`MM_TABLE`), and
//! a residency transition is **one pass under one acquisition** — device
//! calls included, since that lock pins nobody but the context itself. A
//! thread never holds two table locks. What is node-wide (the directory of
//! tables, swap accounting, per-device swap traffic) sits behind the leaf
//! lock `MM_STATE`, taken for a lookup or a sum and never across a device
//! call.

use crate::ctx::{Binding, CtxId};
use crate::memory::eviction::TouchStamp;
use crate::memory::page_table::{Flags, PageTable, PageTableEntry, SwapSlab};
use crate::memory::swap::SwapArea;
use crate::memory::transfer::Plan;
use crate::metrics::RuntimeMetrics;
use crate::trace::{TraceEvent, Tracer};
use mtgpu_api::protocol::{vspan, AllocKind};
use mtgpu_api::{CudaError, CudaResult, HostBuf};
use mtgpu_gpusim::device::DEFAULT_MATERIALIZE_CAP;
use mtgpu_gpusim::{DeviceAddr, DeviceId};
use mtgpu_simtime::{lock_rank, Clock, RankedMutex, Shadow};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Why a context's device state is being evicted (metric attribution and
/// trace records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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

/// One context's memory: its page table behind its own lock, and the two
/// sums other threads read without taking it (statistics: `Relaxed`).
pub(super) struct CtxMemory {
    /// Shadowed so mtcheck audits every pass against the table lock.
    pub(super) table: RankedMutex<Shadow<PageTable>>,
    /// Declared bytes resident on the device; moves with every device
    /// alloc/free, under `table`.
    pub(super) resident: AtomicU64,
    /// Declared bytes in total (the paper's `MemUsage`); moves with every
    /// malloc/free, under `table`.
    pub(super) usage: AtomicU64,
}

/// What stays node-wide, behind the leaf lock.
pub(super) struct NodeState {
    pub(super) tables: BTreeMap<CtxId, Arc<CtxMemory>>,
    /// Host swap accounting. Shadowed so mtcheck's happens-before detector
    /// audits every reserve/release against the leaf lock.
    pub(super) swap: Shadow<SwapArea>,
    /// Cumulative per-device swap traffic: `device → (bytes_in, bytes_out)`.
    /// `in` counts host→device uploads, `out` counts device→host
    /// writebacks — the pressure signal the rebalancer reads.
    dev_swap: BTreeMap<DeviceId, (u64, u64)>,
}

/// The memory manager's limits ([`crate::config::RuntimeConfig::memory`]).
#[derive(Debug, Clone, Serialize)]
pub struct MemoryConfig {
    /// Cap on live page-table entries per context; exceeding it produces the
    /// Table 1 "A virtual address cannot be assigned" error.
    pub max_ptes_per_context: usize,
    /// Cap on total swap-area bytes per node; `None` = unbounded. Exceeding
    /// it produces the Table 1 "Swap memory cannot be allocated" error.
    pub swap_capacity: Option<u64>,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig { max_ptes_per_context: 1 << 20, swap_capacity: None }
    }
}

/// The node-wide memory manager.
pub struct MemoryManager {
    pub(super) cfg: MemoryConfig,
    pub(super) metrics: Arc<RuntimeMetrics>,
    tracer: Option<Arc<Tracer>>,
    /// Virtual clock feeding touch stamps. Defaults to a fresh (never
    /// advanced) virtual clock, in which case stamp ordering degenerates to
    /// the sequence counter — still total, still deterministic.
    clock: Clock,
    pub(super) node: RankedMutex<NodeState>,
    /// Monotone touch sequence shared by every table: stamps are totally
    /// ordered, and replay-stable under a sequential driver.
    pub(super) touch_seq: AtomicU64,
    /// Walks of launch arguments ([`Self::arg_walks`]).
    pub(super) arg_walks: AtomicU64,
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
            node: RankedMutex::new(
                lock_rank::MM_STATE,
                NodeState { tables: BTreeMap::new(), swap, dev_swap: BTreeMap::new() },
            ),
            touch_seq: AtomicU64::new(0),
            arg_walks: AtomicU64::new(0),
        }
    }

    /// Attaches the runtime's clock so touch stamps carry virtual time in
    /// addition to the sequence counter.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Mints the next touch stamp.
    pub(super) fn stamp(&self) -> TouchStamp {
        let seq = self.touch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        TouchStamp { nanos: self.clock.now().since_epoch().as_nanos(), seq }
    }

    /// Contended acquisitions of the leaf lock and of every live table lock
    /// since the last monitor pass (debug builds only — the ranked-lock
    /// observability hook).
    pub(crate) fn take_lock_contention(&self) -> u64 {
        let node = self.node.lock();
        let tables: u64 = node.tables.values().map(|cm| cm.table.take_contended()).sum();
        self.node.take_contended() + tables
    }

    /// Attaches a tracer so transfer plans emit
    /// [`TraceEvent::TransferPlan`] records.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The context's memory. The leaf lock is let go before the caller
    /// takes the table's.
    pub(super) fn ctx_mem(&self, ctx: CtxId) -> CudaResult<Arc<CtxMemory>> {
        self.node.lock().tables.get(&ctx).cloned().ok_or(CudaError::InvalidDevicePointer)
    }

    /// Runs a transfer plan on the bound device, one call that spreads it
    /// over the device's copy engines, accounts it (metrics + trace) and
    /// ends its borrows ([`Plan::settle`]). An empty plan makes no call and
    /// counts as none.
    pub(super) fn run_plan(
        &self,
        ctx: CtxId,
        binding: &Binding,
        mut plan: Plan<'_>,
    ) -> Plan<'static> {
        if plan.is_empty() {
            return plan.settle();
        }
        let engines = binding.gpu.memcpy_batch(binding.gpu_ctx, &mut plan);
        RuntimeMetrics::bump(&self.metrics.transfer_plans);
        if engines > 1 {
            RuntimeMetrics::bump(&self.metrics.transfer_overlap_events);
        }
        if let Some(tracer) = &self.tracer {
            tracer.record(TraceEvent::TransferPlan {
                ctx,
                ops: plan.len() as u32,
                lanes: engines as u32,
                bytes: plan.iter().map(|op| op.declared_len).sum(),
            });
        }
        plan.settle()
    }

    /// Records a pass's swap traffic against its device.
    pub(super) fn note_dev_swap(&self, dev: DeviceId, bytes_in: u64, bytes_out: u64) {
        if bytes_in | bytes_out != 0 {
            let mut node = self.node.lock();
            let e = node.dev_swap.entry(dev).or_insert((0, 0));
            e.0 += bytes_in;
            e.1 += bytes_out;
        }
    }

    /// Cumulative `(bytes_in, bytes_out)` swap traffic of one device.
    pub fn device_swap_traffic(&self, dev: DeviceId) -> (u64, u64) {
        self.node.lock().dev_swap.get(&dev).copied().unwrap_or((0, 0))
    }

    /// Registers a fresh context.
    pub fn register_ctx(&self, ctx: CtxId) {
        let cm = CtxMemory {
            table: RankedMutex::new(lock_rank::MM_TABLE, Shadow::new("mm.table", PageTable::new())),
            resident: AtomicU64::new(0),
            usage: AtomicU64::new(0),
        };
        self.node.lock().tables.insert(ctx, Arc::new(cm));
    }

    /// Removes a context, releasing its swap reservation and (when bound)
    /// its device allocations.
    pub fn remove_ctx(&self, ctx: CtxId, binding: Option<&Binding>) {
        let cm = {
            let mut node = self.node.lock();
            let Some(cm) = node.tables.remove(&ctx) else { return };
            node.swap.release(cm.usage.load(Ordering::Relaxed));
            cm
        };
        if let Some(b) = binding {
            for e in cm.table.lock().iter().filter(|e| e.flags.allocated()) {
                let _ = b.gpu.free(b.gpu_ctx, e.dptr());
            }
        }
    }

    /// `cudaMalloc` (Table 1): create PTE, allocate swap. No device action.
    /// The address comes off the context's cursor before any check, so a
    /// refused malloc takes its span too (the rule on `CudaCall::Malloc`).
    pub fn malloc(&self, ctx: CtxId, size: u64, kind: AllocKind) -> CudaResult<DeviceAddr> {
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        let vaddr = table.cursor.take(size);
        if size == 0 {
            return Err(CudaError::InvalidValue);
        }
        if table.len() >= self.cfg.max_ptes_per_context || vaddr.0.checked_add(size).is_none() {
            return Err(CudaError::VirtualAddressExhausted);
        }
        self.node.lock().swap.reserve(size)?;
        table.insert(PageTableEntry {
            vaddr,
            size,
            device_ptr: None,
            flags: Flags::INITIAL,
            kind,
            slab: SwapSlab::new(size, DEFAULT_MATERIALIZE_CAP),
            nested_members: Vec::new(),
            nested_parent: None,
            last_touch: self.stamp(),
        });
        cm.usage.fetch_add(size, Ordering::Relaxed);
        Ok(vaddr)
    }

    /// A malloc refused before it reached the manager (over the tenant's
    /// lease) still takes its span of the context's addresses.
    pub fn refuse_malloc(&self, ctx: CtxId, size: u64) {
        if let Ok(cm) = self.ctx_mem(ctx) {
            cm.table.lock().cursor.take(size);
        }
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
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        let entry = table.remove(vaddr).ok_or(CudaError::InvalidDevicePointer)?;
        cm.usage.fetch_sub(entry.size, Ordering::Relaxed);
        self.node.lock().swap.release(entry.size);
        if let Some(dptr) = entry.device_ptr {
            cm.resident.fetch_sub(entry.size, Ordering::Relaxed);
            let b = binding.ok_or(CudaError::SwapDeallocation)?;
            b.gpu.free(b.gpu_ctx, dptr).map_err(CudaError::from_gpu)?;
        }
        Ok(entry.size)
    }

    /// Brings the slab of an entry whose only current copy is the device's
    /// up to date (whole entry, D2H). Returns the device it came from when
    /// there was something to bring.
    fn sync_entry(
        entry: &mut PageTableEntry,
        binding: Option<&Binding>,
    ) -> CudaResult<Option<DeviceId>> {
        if !entry.flags.to_swap() {
            return Ok(None);
        }
        let b = binding.ok_or(CudaError::InvalidDevicePointer)?;
        entry.write_back(&b.gpu, b.gpu_ctx)?;
        Ok(Some(b.vgpu.device))
    }

    /// `cudaMemcpy` host→device (Table 1): check PTE, move data to swap.
    /// The copy waits in the slab for the next launch that needs the entry,
    /// which uploads it once, and supersedes any device copy without
    /// reading it back. The one exception is a copy that leaves some of a
    /// kernel-written entry's slab bytes unwritten (it starts past offset 0
    /// or its payload is shorter than the slab): those bytes must be the
    /// kernel's, so the whole entry comes down first (D2H, counted as the
    /// device's swap traffic) and the copy merges into it. A refused copy
    /// touches nothing on the device.
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
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        let (entry, offset) = table.resolve_mut(dst).ok_or(CudaError::InvalidDevicePointer)?;
        if offset + buf.declared_len > entry.size {
            // Refused or not, a copy draws one touch stamp: the sequence
            // the pinned replays follow does not depend on refusals.
            self.stamp();
            RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
            return Err(CudaError::SizeMismatch);
        }
        // Figure 4's flags are per entry, so a partial write into an entry
        // a kernel dirtied must merge into the kernel's output, not clobber
        // the region it leaves with the stale pre-kernel slab at the next
        // upload. A copy that covers every slab byte has nothing to merge.
        let covers = offset == 0 && buf.payload.len() as u64 >= entry.slab.max_len;
        if !covers {
            if let Some(dev) = Self::sync_entry(entry, binding)? {
                self.note_dev_swap(dev, 0, entry.size);
            }
        }
        let touch = self.stamp();
        if entry.flags.to_dev() {
            // A previous copy into this entry has not been uploaded yet:
            // this one merges into the same future bulk transfer.
            RuntimeMetrics::bump(&self.metrics.coalesced_copies);
        }
        entry.slab.write(offset, &buf.payload);
        entry.flags = entry.flags.on_copy_hd();
        entry.last_touch = touch;
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
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        let (entry, offset) = table.resolve_mut(src).ok_or(CudaError::InvalidDevicePointer)?;
        if offset + len > entry.size {
            RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
            return Err(CudaError::OutOfBounds);
        }
        if let Some(dev) = Self::sync_entry(entry, binding)? {
            self.note_dev_swap(dev, 0, entry.size);
        }
        // A read is a touch — recency policies must not evict what the
        // application is actively reading.
        entry.last_touch = self.stamp();
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
        {
            // Validate both endpoints (same error kinds as the host route:
            // src overflow reads out of bounds, dst overflow is a size
            // mismatch) and decide the route.
            let cm = self.ctx_mem(ctx)?;
            let mut table = cm.table.lock();
            let (s, src_off) = table.resolve_entry(src).ok_or(CudaError::InvalidDevicePointer)?;
            let (d, dst_off) = table.resolve_entry(dst).ok_or(CudaError::InvalidDevicePointer)?;
            if src_off + len > s.size {
                RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
                return Err(CudaError::OutOfBounds);
            }
            if dst_off + len > d.size {
                RuntimeMetrics::bump(&self.metrics.bad_ops_rejected);
                return Err(CudaError::SizeMismatch);
            }
            let device_current = |e: &PageTableEntry| e.flags.allocated() && !e.flags.to_dev();
            if let (true, true, Some(b)) = (device_current(s), device_current(d), binding) {
                let dst_base = d.vaddr;
                let (ddptr, sdptr) =
                    (DeviceAddr(d.dptr().0 + dst_off), DeviceAddr(s.dptr().0 + src_off));
                b.gpu.memcpy_d2d(b.gpu_ctx, ddptr, sdptr, len).map_err(CudaError::from_gpu)?;
                RuntimeMetrics::bump(&self.metrics.d2d_device_copies);
                // The device now holds data the slab doesn't: same state a
                // kernel write leaves behind.
                let entry = table.get_mut(dst_base).expect("resolved entry vanished");
                entry.flags = entry.flags.on_launch();
                entry.last_touch = self.stamp();
                return Ok(());
            }
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
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        let base_of = |table: &PageTable, p| {
            table.resolve(p).map(|(b, _)| b).ok_or(CudaError::InvalidDevicePointer)
        };
        let parent_base = base_of(&table, parent)?;
        let member_bases =
            members.iter().map(|&m| base_of(&table, m)).collect::<CudaResult<Vec<_>>>()?;
        for &mb in &member_bases {
            table.get_mut(mb).expect("member vanished").nested_parent = Some(parent_base);
        }
        table.get_mut(parent_base).expect("parent vanished").nested_members = member_bases;
        table.reshaped();
        Ok(())
    }

    /// The context's total declared footprint (the paper's `MemUsage`).
    pub fn mem_usage(&self, ctx: CtxId) -> u64 {
        let node = self.node.lock();
        node.tables.get(&ctx).map_or(0, |cm| cm.usage.load(Ordering::Relaxed))
    }

    /// Bytes of the context currently resident on its device. Reads the
    /// context's counter, so a victim search or the monitor never waits on
    /// a table that is mid-transfer.
    pub fn resident_bytes(&self, ctx: CtxId) -> u64 {
        let node = self.node.lock();
        node.tables.get(&ctx).map_or(0, |cm| cm.resident.load(Ordering::Relaxed))
    }

    /// Device bytes the entries at `bases` take when all are resident, each
    /// rounded up to the device allocator's alignment.
    pub fn working_set_bytes(&self, ctx: CtxId, bases: &[DeviceAddr]) -> u64 {
        let Ok(cm) = self.ctx_mem(ctx) else { return 0 };
        let table = cm.table.lock();
        let sizes = bases.iter().filter_map(|&base| table.get(base)).map(|e| e.size);
        sizes.map(vspan).sum()
    }

    /// Total swap-area bytes in use.
    pub fn swap_used(&self) -> u64 {
        self.node.lock().swap.used()
    }

    /// Test/diagnostic hook: the flags of the entry at `vaddr`.
    pub fn flags_of(&self, ctx: CtxId, vaddr: DeviceAddr) -> Option<Flags> {
        let cm = self.ctx_mem(ctx).ok()?;
        let table = cm.table.lock();
        table.resolve_entry(vaddr).map(|(e, _)| e.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::VGpuId;
    use mtgpu_api::protocol::{ContextImage, VADDR_BASE};
    use mtgpu_gpusim::{DeviceId, Gpu, GpuSpec, KernelArg};
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
        assert_eq!(m.mem_usage(CTX), 200);
    }

    #[test]
    fn two_contexts_first_mallocs_mint_the_same_address() {
        let m = mm();
        let (a, b) = (CtxId(1), CtxId(2));
        m.register_ctx(a);
        m.register_ctx(b);
        let pa = m.malloc(a, 64, AllocKind::Linear).unwrap();
        let pb = m.malloc(b, 64, AllocKind::Linear).unwrap();
        assert_eq!((pa, pb), (DeviceAddr(VADDR_BASE), DeviceAddr(VADDR_BASE)));
        // Each in its own page table.
        m.copy_h2d(a, pa, &HostBuf::from_slice(&[1; 64]), None).unwrap();
        m.copy_h2d(b, pb, &HostBuf::from_slice(&[2; 64]), None).unwrap();
        assert_eq!(m.copy_d2h(a, pa, 64, None).unwrap().payload, [1; 64]);
        assert_eq!(m.copy_d2h(b, pb, 64, None).unwrap().payload, [2; 64]);
    }

    /// The next address a malloc of one byte gets in `ctx`. Takes its span.
    fn next_vaddr(m: &MemoryManager, ctx: CtxId) -> u64 {
        m.malloc(ctx, 1, AllocKind::Linear).unwrap().0
    }

    #[test]
    fn a_refused_malloc_of_each_kind_takes_its_span() {
        let cfg = MemoryConfig { max_ptes_per_context: 2, swap_capacity: Some(4096) };
        let m = MemoryManager::new(cfg, Arc::new(RuntimeMetrics::default()));
        m.register_ctx(CTX);
        let (at, step) = (VADDR_BASE, 256);
        assert_eq!(m.malloc(CTX, 0, AllocKind::Linear), Err(CudaError::InvalidValue));
        assert_eq!(next_vaddr(&m, CTX), at, "a zero-size malloc spans nothing");
        assert_eq!(m.malloc(CTX, 8192, AllocKind::Linear), Err(CudaError::SwapAllocation));
        assert_eq!(next_vaddr(&m, CTX), at + step + 8192);
        // Two entries live: the page-table cap refuses the next, at any size.
        assert_eq!(m.malloc(CTX, 300, AllocKind::Linear), Err(CudaError::VirtualAddressExhausted));
        m.free(CTX, DeviceAddr(at), None).unwrap();
        assert_eq!(next_vaddr(&m, CTX), at + 2 * step + 8192 + 512);
        // Refused before reaching the manager (over a lease quota).
        m.free(CTX, DeviceAddr(at + step + 8192), None).unwrap();
        m.refuse_malloc(CTX, 1000);
        assert_eq!(next_vaddr(&m, CTX), at + 3 * step + 8192 + 512 + 1024);
    }

    #[test]
    fn an_import_lifts_its_own_cursor_only_and_failed_or_not() {
        let m = mm();
        let (a, b, c) = (CtxId(1), CtxId(2), CtxId(3));
        for ctx in [a, b, c] {
            m.register_ctx(ctx);
        }
        let entry = |vaddr: u64, size: u64| mtgpu_api::protocol::ImageEntry {
            vaddr: DeviceAddr(vaddr),
            size,
            kind: AllocKind::Linear,
            data: vec![7; 16],
            nested_members: Vec::new(),
            nested_parent: None,
        };
        let image = |entries| ContextImage { label: "img".into(), entries };
        let far = VADDR_BASE + (1 << 20);
        // Succeeds: the next malloc lands past the image's aligned end.
        m.import_image(a, image(vec![entry(VADDR_BASE, 64), entry(far, 100)])).unwrap();
        assert_eq!(next_vaddr(&m, a), far + 256);
        assert_eq!(m.copy_d2h(a, DeviceAddr(far), 16, None).unwrap().payload, [7; 16]);
        // Fails (the table is not empty): the cursor is lifted all the same.
        let before = next_vaddr(&m, b);
        assert_eq!(m.import_image(b, image(vec![entry(far, 700)])), Err(CudaError::InvalidValue));
        assert_eq!(next_vaddr(&m, b), far + 768);
        assert!(before < far);
        // An image below the cursor leaves it where it is.
        let low = next_vaddr(&m, a);
        m.import_image(a, image(vec![entry(VADDR_BASE, 8)])).unwrap_err();
        assert_eq!(next_vaddr(&m, a), low + 256);
        // Neither import moved another context's cursor.
        assert_eq!(next_vaddr(&m, c), VADDR_BASE);
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
        assert_eq!(m.flags_of(CTX, v).unwrap(), Flags::new(false, true, false).unwrap());
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
        assert!(!m.flags_of(CTX, x).unwrap().allocated(), "x should be swapped out");
        assert!(m.flags_of(CTX, y).unwrap().allocated());
        assert!(m.flags_of(CTX, z).unwrap().allocated());
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
        assert!(m.flags_of(CTX, v).unwrap().to_swap());
        m.checkpoint(CTX, &b).unwrap();
        let f = m.flags_of(CTX, v).unwrap();
        assert!(f.allocated() && !f.to_swap() && !f.to_dev(), "T/F/F after checkpoint: {f:?}");
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
        assert!(!f.allocated() && f.to_dev());
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
        assert!(f.allocated() && !f.to_dev() && f.to_swap(), "{f:?}");
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
        assert!(fa.allocated() && !fa.to_dev());
        let fb = m.flags_of(CTX, b_ptr).unwrap();
        assert!(!fb.allocated() && fb.to_dev() && !fb.to_swap());
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
    fn a_context_mid_transfer_pins_nobody_else() {
        // At real-time scale the upload of A's 512 MiB (declared) buffer
        // sleeps ~130 ms over the 4 GB/s PCIe model, with A's table lock
        // held. Nothing B does, and no reader of A's counters, may wait for
        // it.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        const A: CtxId = CtxId(1);
        const B: CtxId = CtxId(2);
        const SIZE: u64 = 512 << 20;
        let m = mm();
        m.register_ctx(A);
        m.register_ctx(B);
        let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::with_scale(1.0), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        let binding = Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu, gpu_ctx };
        let a_buf = m.malloc(A, SIZE, AllocKind::Linear).unwrap();
        m.copy_h2d(A, a_buf, &HostBuf::with_shadow(SIZE, vec![1u8; 64]), None).unwrap();
        let b_buf = m.malloc(B, 4096, AllocKind::Linear).unwrap();
        let a_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(m.materialize(A, &[a_buf], &binding).unwrap(), Materialize::Ready);
                a_done.store(true, Ordering::SeqCst);
            });
            // The counter moves at the device allocation, inside the pass
            // and before the upload: from here A holds its lock for the
            // length of the transfer.
            while m.resident_bytes(A) == 0 {
                std::thread::yield_now();
            }
            let timed = |what: &str, op: &dyn Fn()| {
                let start = Instant::now();
                op();
                let took = start.elapsed();
                assert!(took < Duration::from_millis(10), "{what} waited {took:?} for A's pass");
            };
            timed("malloc(B)", &|| assert!(m.malloc(B, 4096, AllocKind::Linear).is_ok()));
            timed("copy_h2d(B)", &|| {
                m.copy_h2d(B, b_buf, &HostBuf::from_slice(&[2u8; 64]), None).unwrap()
            });
            timed("launch_closure(B)", &|| {
                assert_eq!(m.launch_closure(B, &[KernelArg::Ptr(b_buf)]).unwrap(), vec![b_buf])
            });
            timed("resident_bytes(A)", &|| assert_eq!(m.resident_bytes(A), SIZE));
            timed("mem_usage(A)", &|| assert_eq!(m.mem_usage(A), SIZE));
            assert!(!a_done.load(Ordering::SeqCst), "A's pass ended before B was done: no overlap");
        });
        assert!(!m.flags_of(A, a_buf).unwrap().to_dev(), "A's upload landed");
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
    fn copies_into_a_resident_entry_wait_for_the_next_launch() {
        // A bound, resident entry is no exception to deferral: two copies
        // (the second partial) stay in the slab and merge into one upload.
        let metrics = Arc::new(RuntimeMetrics::default());
        let m = MemoryManager::new(MemoryConfig::default(), Arc::clone(&metrics));
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 256, AllocKind::Linear).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        let h2d_before = b.gpu.stats().snapshot().h2d_bytes;
        m.copy_h2d(CTX, v, &HostBuf::from_slice(&[1u8; 256]), Some(&b)).unwrap();
        m.copy_h2d(CTX, DeviceAddr(v.0 + 64), &HostBuf::from_slice(&[2u8; 64]), Some(&b)).unwrap();
        assert_eq!(b.gpu.stats().snapshot().h2d_bytes, h2d_before, "no write-through");
        let f = m.flags_of(CTX, v).unwrap();
        assert!(f.allocated() && f.to_dev());
        assert_eq!(metrics.snapshot().coalesced_copies, 1, "the second copy merged");
        m.materialize(CTX, &c, &b).unwrap();
        assert_eq!(b.gpu.stats().snapshot().h2d_bytes, h2d_before + 256, "one bulk upload");
        let mut want = vec![1u8; 256];
        want[64..128].fill(2);
        assert_eq!(m.copy_d2h(CTX, v, 256, Some(&b)).unwrap().payload, want);
    }

    #[test]
    fn a_refused_copy_into_a_kernel_written_entry_touches_nothing() {
        // The bounds check comes before any device action: a copy running
        // past the entry's end neither downloads the kernel's output nor
        // clears the flag saying the device holds it.
        let m = mm();
        m.register_ctx(CTX);
        let b = gpu_binding();
        let v = m.malloc(CTX, 256, AllocKind::Linear).unwrap();
        m.copy_h2d(CTX, v, &HostBuf::from_slice(&[1u8; 256]), None).unwrap();
        let c = m.launch_closure(CTX, &[KernelArg::Ptr(v)]).unwrap();
        m.materialize(CTX, &c, &b).unwrap();
        let [KernelArg::Ptr(dptr)] = m.translate_args(CTX, &[KernelArg::Ptr(v)]).unwrap()[..]
        else {
            unreachable!()
        };
        b.gpu.memcpy_h2d(b.gpu_ctx, dptr, 256, &[9u8; 256]).unwrap();
        m.mark_launched(CTX, &c);
        let flags = m.flags_of(CTX, v).unwrap();
        let d2h = b.gpu.stats().snapshot().d2h_bytes;
        let past_end = HostBuf::from_slice(&[2u8; 64]);
        assert_eq!(
            m.copy_h2d(CTX, DeviceAddr(v.0 + 224), &past_end, Some(&b)),
            Err(CudaError::SizeMismatch)
        );
        assert!(flags.to_swap());
        assert_eq!(m.flags_of(CTX, v).unwrap(), flags, "still the kernel's on the device");
        let slab = m.export_image(CTX, "", None).unwrap().entries.remove(0).data;
        assert_eq!(slab, [1u8; 256], "the slab was not overwritten");
        assert_eq!(b.gpu.stats().snapshot().d2h_bytes, d2h, "no download");
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
        assert!(m.flags_of(CTX, large).unwrap().allocated(), "the fresh large buffer stays");
        assert!(!m.flags_of(CTX, small).unwrap().allocated(), "the stale small buffer goes");
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
        assert!(!m.flags_of(CTX, clean).unwrap().allocated(), "the clean buffer goes");
        assert!(m.flags_of(CTX, dirty).unwrap().allocated(), "the dirty buffer stays");
        assert_eq!(b.gpu.stats().snapshot().d2h_bytes, d2h_before, "no writeback was paid");
    }
}
