//! The GPU device: memory, contexts, engines, failure.
//!
//! Every public entry point that acts on the device counts one call
//! ([`DeviceStats::calls`]). Besides the single operations, the device
//! takes a pass's work in one call each: a plan's copies
//! ([`Gpu::memcpy_batch`]), a pass's allocations ([`Gpu::malloc_batch`])
//! and its frees ([`Gpu::free_batch`]). A malloc or free batch runs its
//! ops, in order, under one acquisition of the state lock. A copy batch
//! deals op `i` to copy engine `i % copy_engines`, so which engine serves
//! which op is a function of the plan, not of thread scheduling, and runs
//! the engines side by side unless there is one, or the calling thread
//! holds the device ([`Gpu::try_hold`]). Each engine checks its ops under
//! one acquisition, is taken once and spends each op's duration in turn,
//! landing the op as its time is spent, so per-engine busy time and the
//! clock advance by the same integer nanoseconds as the ops made one by
//! one on that engine. Outcomes stay per op: a batch fails exactly the ops
//! that would fail alone, a device failing mid-batch included.

use crate::alloc::BlockAllocator;
use crate::engine::{EngineBank, FifoEngine};
use crate::error::GpuError;
use crate::kernel::{KernelExec, LaunchSpec, RegisteredKernel};
use crate::spec::GpuSpec;
use crate::stats::DeviceStats;
use crate::Result;
use mtgpu_simtime::{lock_rank, Clock, RankedMutex, SimDuration};
use serde::Serialize;
use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed launch overhead per kernel (driver + hardware dispatch), sim time.
pub const LAUNCH_OVERHEAD: SimDuration = SimDuration::from_micros(10);
/// Cost of spawning a CUDA context on a device, sim time.
pub const CTX_CREATE_TIME: SimDuration = SimDuration::from_millis(40);
/// Fixed per-transfer setup latency, sim time.
pub const COPY_OVERHEAD: SimDuration = SimDuration::from_micros(8);
/// Default cap on materialized shadow-buffer bytes per allocation. Declared
/// sizes above the cap are accounted (capacity, timing) but only a prefix of
/// real bytes is stored.
pub const DEFAULT_MATERIALIZE_CAP: u64 = 16 * 1024 * 1024;

/// An address in a device's memory space. Under the mtgpu runtime
/// applications never see these — only the memory manager does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct DeviceAddr(pub u64);

impl std::fmt::Display for DeviceAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a CUDA context living on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct GpuContextId(pub u64);

/// Which way one copy of a batch ([`Gpu::memcpy_batch`]) moves, with its
/// host side.
#[derive(Debug)]
pub enum CopyDir<'a> {
    /// Host to device, as [`Gpu::memcpy_h2d`]: at most the op's declared
    /// length of bytes, stored at its address.
    H2d(&'a [u8]),
    /// Device to host into a buffer the caller keeps, as
    /// [`Gpu::memcpy_d2h_into`]: the bytes read overwrite its front and
    /// grow it when they are longer; it is untouched unless the copy
    /// succeeds.
    D2h(&'a mut Vec<u8>),
}

/// One copy of a batch and, once the batch ran, its outcome.
#[derive(Debug)]
pub struct CopyOp<'a> {
    /// The device address copied to or from (possibly interior).
    pub addr: DeviceAddr,
    /// Bytes charged against the PCIe model.
    pub declared_len: u64,
    /// The direction and the host side.
    pub dir: CopyDir<'a>,
    /// What the copy would have returned made alone; `Ok` until it runs.
    pub result: Result<()>,
}

impl<'a> CopyOp<'a> {
    /// An upload of `payload` (at most `declared_len` bytes) to `dst`.
    pub fn h2d(dst: DeviceAddr, declared_len: u64, payload: &'a [u8]) -> Self {
        CopyOp { addr: dst, declared_len, dir: CopyDir::H2d(payload), result: Ok(()) }
    }

    /// A download of `declared_len` bytes at `src` into `out`.
    pub fn d2h(src: DeviceAddr, declared_len: u64, out: &'a mut Vec<u8>) -> Self {
        CopyOp { addr: src, declared_len, dir: CopyDir::D2h(out), result: Ok(()) }
    }
}

#[derive(Debug)]
struct Allocation {
    declared: u64,
    /// Materialized prefix of the allocation's content, grown lazily on
    /// write/kernel access up to `max_len` so host RAM stays proportional
    /// to the bytes actually touched (paper-scale footprints are declared,
    /// not stored).
    data: Vec<u8>,
    /// `min(declared, materialize_cap)`.
    max_len: u64,
    owner: GpuContextId,
}

impl Allocation {
    /// Grows the materialized prefix (zero-filled) to cover `end`, clamped
    /// to `max_len`: what a kernel reads before it writes.
    fn ensure_len(&mut self, end: u64) {
        let target = end.min(self.max_len) as usize;
        if self.data.len() < target {
            self.data.resize(target, 0);
        }
    }

    /// Stores `bytes` at `offset`, clamped to `max_len`. Only a gap between
    /// the materialized prefix and `offset` is zero-filled; the bytes
    /// themselves are written once, whether they overwrite the prefix or
    /// extend it.
    fn write(&mut self, offset: u64, bytes: &[u8]) {
        let start = offset.min(self.max_len) as usize;
        let end = (offset + bytes.len() as u64).min(self.max_len) as usize;
        if self.data.len() < start {
            self.data.resize(start, 0);
        }
        let n = end - start;
        let overwrite = (self.data.len() - start).min(n);
        self.data[start..start + overwrite].copy_from_slice(&bytes[..overwrite]);
        self.data.extend_from_slice(&bytes[overwrite..n]);
    }

    /// The materialized bytes of `[offset, offset + len)`.
    fn read(&self, offset: u64, len: u64) -> &[u8] {
        let start = (offset as usize).min(self.data.len());
        let end = ((offset + len) as usize).min(self.data.len());
        &self.data[start..end]
    }
}

/// The live allocations by internal base address, as a sorted vector. A
/// device holds tens of them, so a malloc or a free shifts a few hundred
/// bytes at most, and allocates nothing once the vector has grown to the
/// device's peak; a B-tree map allocated a node at each split.
#[derive(Debug, Default)]
struct Allocs(Vec<(u64, Allocation)>);

impl Allocs {
    fn find(&self, base: u64) -> std::result::Result<usize, usize> {
        self.0.binary_search_by_key(&base, |&(b, _)| b)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, base: u64) -> Option<&Allocation> {
        self.find(base).ok().map(|i| &self.0[i].1)
    }

    /// Records an allocation at a base the allocator just handed out.
    fn insert(&mut self, base: u64, alloc: Allocation) {
        let at = self.find(base).expect_err("a fresh base is not live");
        self.0.insert(at, (base, alloc));
    }

    fn remove(&mut self, base: u64) -> Option<Allocation> {
        self.find(base).ok().map(|i| self.0.remove(i).1)
    }

    /// The slot of the allocation with the highest base at or below
    /// `addr`, the only one whose range may hold it, and that allocation.
    fn at_or_below(&self, addr: u64) -> Option<(usize, u64, &Allocation)> {
        let slot = self.0.partition_point(|&(b, _)| b <= addr).checked_sub(1)?;
        let (base, alloc) = &self.0[slot];
        Some((slot, *base, alloc))
    }

    /// The allocation in `slot` ([`Self::at_or_below`]), the vector not
    /// changed since.
    fn slot(&self, slot: usize) -> &Allocation {
        &self.0[slot].1
    }

    /// [`Self::slot`], mutably.
    fn slot_mut(&mut self, slot: usize) -> &mut Allocation {
        &mut self.0[slot].1
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &Allocation)> {
        self.0.iter().map(|(b, a)| (*b, a))
    }
}

#[derive(Debug)]
struct ContextInfo {
    /// Base address of the context's reserved arena.
    reserved_base: Option<u64>,
}

struct DeviceState {
    allocator: BlockAllocator,
    allocs: Allocs,
    contexts: BTreeMap<GpuContextId, ContextInfo>,
    /// Shadow buffers of freed allocations, emptied, for the next `malloc`
    /// to reuse. With the live allocations they never outnumber
    /// `peak_allocs`: the device keeps no more buffers than it once held in
    /// use, and a tenant swapped out leaves the next one its buffers.
    spare: Vec<Vec<u8>>,
    /// Most allocations live at once so far.
    peak_allocs: usize,
}

impl DeviceState {
    /// Releases the allocation at `base`: its range to the allocator, its
    /// emptied buffer to `spare` within that field's bound.
    fn release(&mut self, base: u64) -> Result<()> {
        let alloc = self.allocs.remove(base).ok_or(GpuError::InvalidAddress)?;
        self.allocator.free(base, alloc.declared)?;
        if self.spare.len() + self.allocs.len() < self.peak_allocs && alloc.data.capacity() > 0 {
            let mut data = alloc.data;
            // Another context's next allocation must not see these bytes.
            data.clear();
            self.spare.push(data);
        }
        Ok(())
    }
}

/// A simulated GPU device.
///
/// All methods are callable concurrently from any thread; kernels serialize
/// FIFO on the compute engine, transfers on the copy-engine bank, and memory
/// operations under a short-held state lock — the same coarse concurrency
/// the CUDA 3.2 stack exposes.
pub struct Gpu {
    spec: GpuSpec,
    clock: Clock,
    /// Distinguishes this device's address space from other devices'.
    addr_salt: u64,
    compute: FifoEngine,
    copy: EngineBank,
    state: RankedMutex<DeviceState>,
    stats: DeviceStats,
    failed: AtomicBool,
    /// One-shot transient fault: the next kernel launch on this device
    /// fails (and clears the flag). Models an ECC/context error that kills
    /// one kernel without taking the device down.
    ctx_fault: AtomicBool,
    next_ctx: AtomicU64,
    materialize_cap: u64,
}

impl Gpu {
    /// Creates a device with the given spec on a shared clock. `ordinal`
    /// salts the address space so addresses from distinct devices never
    /// collide numerically.
    pub fn new(spec: GpuSpec, clock: Clock, ordinal: u32) -> Arc<Gpu> {
        Arc::new(Gpu {
            addr_salt: (ordinal as u64 + 1) << 40,
            compute: FifoEngine::new(clock.clone()),
            copy: EngineBank::new(clock.clone(), spec.copy_engines),
            state: RankedMutex::new(
                lock_rank::DEVICE_STATE,
                DeviceState {
                    allocator: BlockAllocator::new(spec.mem_bytes),
                    allocs: Allocs::default(),
                    contexts: BTreeMap::new(),
                    spare: Vec::new(),
                    peak_allocs: 0,
                },
            ),
            stats: DeviceStats::default(),
            failed: AtomicBool::new(false),
            ctx_fault: AtomicBool::new(false),
            next_ctx: AtomicU64::new(1),
            materialize_cap: DEFAULT_MATERIALIZE_CAP,
            spec,
            clock,
        })
    }

    /// The device's static description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The clock this device runs on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Operation counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Total simulated time the compute engine has been busy.
    pub fn compute_busy_time(&self) -> SimDuration {
        self.compute.busy_time()
    }

    /// Kernels queued or executing right now.
    pub fn compute_queue_depth(&self) -> u64 {
        self.compute.queue_depth()
    }

    /// Per-engine copy busy times, indexed by engine. Exposes whether a
    /// transfer plan's traffic was spread over the engines.
    pub fn engine_busy_times(&self) -> Vec<SimDuration> {
        self.copy.busy_times()
    }

    /// Takes every engine of the device, compute and copy, for the calling
    /// thread if all of them are idle, without waiting: `None` when one is
    /// occupied or has a queue. While the hold lives, the thread's own
    /// kernels and transfers on the device run at once and everyone else's
    /// queue behind it. For a thread that must never wait out another
    /// thread's device time.
    pub fn try_hold(self: &Arc<Self>) -> Option<GpuHold> {
        let engines = || std::iter::once(&self.compute).chain(self.copy.engines());
        let taken = engines().take_while(|e| e.try_hold()).count();
        if taken == 1 + self.copy.engines().len() {
            return Some(GpuHold { gpu: Arc::clone(self), _thread: PhantomData });
        }
        engines().take(taken).for_each(FifoEngine::release);
        None
    }

    /// Whether the calling thread holds the device ([`Gpu::try_hold`]).
    pub(crate) fn held_here(&self) -> bool {
        self.compute.held_here()
    }

    /// Free device memory in bytes (possibly fragmented).
    pub fn mem_available(&self) -> u64 {
        self.state.lock().allocator.free_bytes()
    }

    /// The largest allocation the device could make now, in bytes.
    pub fn largest_free_block(&self) -> u64 {
        self.state.lock().allocator.largest_free_block()
    }

    /// Device memory capacity in bytes.
    pub fn mem_capacity(&self) -> u64 {
        self.spec.mem_bytes
    }

    /// Number of live contexts.
    pub fn context_count(&self) -> usize {
        self.state.lock().contexts.len()
    }

    /// Marks the device as failed: every subsequent operation returns
    /// [`GpuError::DeviceFailed`]. Used for fault injection and hot removal.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
    }

    /// Clears the failure flag (a replaced/repaired device).
    pub fn repair(&self) {
        self.failed.store(false, Ordering::SeqCst);
    }

    /// Whether the device has failed.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Arms a one-shot transient context fault: the next kernel launch on
    /// this device returns [`GpuError::LaunchFailed`] and disarms the
    /// fault. The device itself stays healthy — the runtime's service
    /// layer must surface the error to the application without tearing
    /// anything down.
    pub fn inject_context_fault(&self) {
        self.ctx_fault.store(true, Ordering::SeqCst);
    }

    /// Whether a one-shot context fault is currently armed.
    pub fn context_fault_armed(&self) -> bool {
        self.ctx_fault.load(Ordering::SeqCst)
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_failed() {
            Err(GpuError::DeviceFailed)
        } else {
            Ok(())
        }
    }

    /// Creates a CUDA context, reserving [`GpuSpec::ctx_reserved_bytes`] and
    /// enforcing [`GpuSpec::max_contexts`]. Costs [`CTX_CREATE_TIME`].
    pub fn create_context(&self) -> Result<GpuContextId> {
        DeviceStats::bump(&self.stats.calls);
        self.check_alive()?;
        let id = GpuContextId(self.next_ctx.fetch_add(1, Ordering::Relaxed));
        {
            let mut st = self.state.lock();
            if st.contexts.len() as u32 >= self.spec.max_contexts {
                return Err(GpuError::TooManyContexts);
            }
            let reserved_base = if self.spec.ctx_reserved_bytes > 0 {
                match st.allocator.alloc(self.spec.ctx_reserved_bytes) {
                    Ok(base) => Some(base),
                    Err(_) => {
                        DeviceStats::bump(&self.stats.failed_allocs);
                        return Err(GpuError::OutOfMemory);
                    }
                }
            } else {
                None
            };
            st.contexts.insert(id, ContextInfo { reserved_base });
        }
        DeviceStats::bump(&self.stats.contexts_created);
        self.clock.sleep(CTX_CREATE_TIME);
        Ok(id)
    }

    /// Destroys a context, releasing its reservation and every allocation it
    /// still owns (CUDA frees a context's memory on destruction).
    pub fn destroy_context(&self, ctx: GpuContextId) -> Result<()> {
        DeviceStats::bump(&self.stats.calls);
        // Destroy is allowed on a failed device: it only releases host-side
        // bookkeeping.
        let mut st = self.state.lock();
        let info = st.contexts.remove(&ctx).ok_or(GpuError::InvalidContext)?;
        if let Some(base) = info.reserved_base {
            let _ = st.allocator.free(base, self.spec.ctx_reserved_bytes);
        }
        let owned: Vec<u64> =
            st.allocs.iter().filter(|(_, a)| a.owner == ctx).map(|(b, _)| b).collect();
        for base in owned {
            let _ = st.release(base);
        }
        Ok(())
    }

    fn internal_base(&self, addr: DeviceAddr) -> Result<u64> {
        addr.0.checked_sub(self.addr_salt).ok_or(GpuError::InvalidAddress)
    }

    /// Allocates `declared` bytes of device memory for `ctx`.
    pub fn malloc(&self, ctx: GpuContextId, declared: u64) -> Result<DeviceAddr> {
        DeviceStats::bump(&self.stats.calls);
        self.check_alive()?;
        self.alloc_locked(&mut self.state.lock(), ctx, declared)
    }

    /// Allocates one block per size of `sizes`, in order, for `ctx`, as
    /// that many [`Gpu::malloc`] calls would, under one acquisition of the
    /// state lock. The addresses go to `out` (emptied first); the first
    /// refusal stops the batch and is returned, `out` holding the prefix
    /// made before it.
    pub fn malloc_batch(
        &self,
        ctx: GpuContextId,
        sizes: impl IntoIterator<Item = u64>,
        out: &mut Vec<DeviceAddr>,
    ) -> Result<()> {
        DeviceStats::bump(&self.stats.calls);
        out.clear();
        let alive = self.check_alive();
        let mut st = self.state.lock();
        for declared in sizes {
            alive.clone()?;
            out.push(self.alloc_locked(&mut st, ctx, declared)?);
        }
        Ok(())
    }

    /// One allocation under the state lock.
    fn alloc_locked(
        &self,
        st: &mut DeviceState,
        ctx: GpuContextId,
        declared: u64,
    ) -> Result<DeviceAddr> {
        if !st.contexts.contains_key(&ctx) {
            return Err(GpuError::InvalidContext);
        }
        let base = match st.allocator.alloc(declared) {
            Ok(b) => b,
            Err(e) => {
                DeviceStats::bump(&self.stats.failed_allocs);
                return Err(e);
            }
        };
        let data = st.spare.pop().unwrap_or_default();
        let max_len = declared.min(self.materialize_cap);
        st.allocs.insert(base, Allocation { declared, data, max_len, owner: ctx });
        st.peak_allocs = st.peak_allocs.max(st.allocs.len());
        DeviceStats::bump(&self.stats.allocs);
        Ok(DeviceAddr(base + self.addr_salt))
    }

    /// Frees the allocation at `addr` (which must be its base address), owned
    /// by `ctx`.
    pub fn free(&self, ctx: GpuContextId, addr: DeviceAddr) -> Result<()> {
        DeviceStats::bump(&self.stats.calls);
        self.check_alive()?;
        self.free_locked(&mut self.state.lock(), ctx, addr)
    }

    /// Frees the allocations at `addrs`, in order, owned by `ctx`, as that
    /// many [`Gpu::free`] calls would, under one acquisition of the state
    /// lock. Returns how many it freed and, when one was refused, the
    /// refusal, which stopped the batch.
    pub fn free_batch(
        &self,
        ctx: GpuContextId,
        addrs: impl IntoIterator<Item = DeviceAddr>,
    ) -> (usize, Result<()>) {
        DeviceStats::bump(&self.stats.calls);
        let alive = self.check_alive();
        let mut st = self.state.lock();
        let mut freed = 0;
        for addr in addrs {
            if let Err(e) = alive.clone().and_then(|()| self.free_locked(&mut st, ctx, addr)) {
                return (freed, Err(e));
            }
            freed += 1;
        }
        (freed, Ok(()))
    }

    /// One free under the state lock.
    fn free_locked(&self, st: &mut DeviceState, ctx: GpuContextId, addr: DeviceAddr) -> Result<()> {
        let base = self.internal_base(addr)?;
        if st.allocs.get(base).is_none_or(|a| a.owner != ctx) {
            return Err(GpuError::InvalidAddress);
        }
        st.release(base)?;
        DeviceStats::bump(&self.stats.frees);
        Ok(())
    }

    /// Resolves `addr` (possibly interior) against `ctx`'s live allocations:
    /// returns `(slot, offset, allocation_declared_len)`, the slot in `st.allocs`.
    fn resolve(
        st: &DeviceState,
        salt: u64,
        ctx: Option<GpuContextId>,
        addr: DeviceAddr,
    ) -> Result<(usize, u64, u64)> {
        let internal = addr.0.checked_sub(salt).ok_or(GpuError::InvalidAddress)?;
        let (slot, base, alloc) =
            st.allocs.at_or_below(internal).ok_or(GpuError::InvalidAddress)?;
        if internal >= base + alloc.declared {
            return Err(GpuError::InvalidAddress);
        }
        if let Some(ctx) = ctx {
            if alloc.owner != ctx {
                // Isolation: another context's memory is invisible.
                return Err(GpuError::InvalidAddress);
            }
        }
        Ok((slot, internal - base, alloc.declared))
    }

    /// [`Self::resolve`] plus a bounds check of the `len` bytes from `addr`:
    /// returns `(slot, offset)`. Lengths are outside input (a copy's, a
    /// launch's arguments), so an end past `u64::MAX` is out of bounds too.
    fn resolve_span(
        st: &DeviceState,
        salt: u64,
        ctx: Option<GpuContextId>,
        addr: DeviceAddr,
        len: u64,
    ) -> Result<(usize, u64)> {
        let (slot, offset, alloc_len) = Self::resolve(st, salt, ctx, addr)?;
        if offset.checked_add(len).is_none_or(|end| end > alloc_len) {
            return Err(GpuError::OutOfBounds { addr: addr.0, len, alloc_size: alloc_len });
        }
        Ok((slot, offset))
    }

    /// Host-to-device transfer: `declared_len` bytes are charged against the
    /// PCIe model; `payload` (≤ `declared_len` real bytes) is stored at the
    /// target offset, clamped to the materialized prefix.
    pub fn memcpy_h2d(
        &self,
        ctx: GpuContextId,
        dst: DeviceAddr,
        declared_len: u64,
        payload: &[u8],
    ) -> Result<()> {
        DeviceStats::bump(&self.stats.calls);
        let mut op = [CopyOp::h2d(dst, declared_len, payload)];
        self.copy(ctx, None, &mut op, 1);
        let [op] = op;
        op.result
    }

    /// Device-to-host transfer: charges `declared_len` against the PCIe
    /// model and returns the materialized bytes available at the source
    /// offset (up to `declared_len`).
    pub fn memcpy_d2h(
        &self,
        ctx: GpuContextId,
        src: DeviceAddr,
        declared_len: u64,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.memcpy_d2h_into(ctx, src, declared_len, &mut out)?;
        Ok(out)
    }

    /// [`Gpu::memcpy_d2h`] into a buffer the caller keeps: the bytes read
    /// overwrite the front of `out`, which grows to hold them when they are
    /// longer (to exactly their length); what `out` holds past them stays.
    /// `out` is untouched unless the copy succeeds.
    pub fn memcpy_d2h_into(
        &self,
        ctx: GpuContextId,
        src: DeviceAddr,
        declared_len: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        DeviceStats::bump(&self.stats.calls);
        let mut op = [CopyOp::d2h(src, declared_len, out)];
        self.copy(ctx, None, &mut op, 1);
        let [op] = op;
        op.result
    }

    /// Runs `ops` as one plan, op `i` on copy engine `i % copy_engines`,
    /// each engine's ops in plan order as [`Gpu::memcpy_h2d`] and
    /// [`Gpu::memcpy_d2h_into`] would run them one after another on it, each
    /// op's outcome in its `result`. Returns how many engines the plan was
    /// spread over: at most one per op.
    ///
    /// The engines run side by side, engine 0's ops on the calling thread
    /// and each other engine's on a scoped thread. One engine, a one-op
    /// plan or a device the calling thread holds runs every engine's ops on
    /// the calling thread, one engine after the other, without a thread or
    /// a heap allocation: a held device would queue the other threads
    /// behind the hold. An engine is taken once, for the sum of its
    /// accepted ops' durations: another thread's copy on it queues behind
    /// the whole batch, as behind a DMA descriptor chain.
    pub fn memcpy_batch(&self, ctx: GpuContextId, ops: &mut [CopyOp<'_>]) -> usize {
        DeviceStats::bump(&self.stats.calls);
        let engines = self.copy.engines().len().min(ops.len());
        if engines <= 1 || self.held_here() {
            for engine in 0..engines {
                self.copy(ctx, Some(engine), &mut ops[engine..], engines);
            }
        } else {
            let mut dealt: Vec<Vec<&mut CopyOp<'_>>> = (0..engines).map(|_| Vec::new()).collect();
            for (i, op) in ops.iter_mut().enumerate() {
                dealt[i % engines].push(op);
            }
            let (first, rest) = dealt.split_first_mut().expect("two engines or more");
            std::thread::scope(|scope| {
                for (i, ops) in rest.iter_mut().enumerate() {
                    scope.spawn(move || self.copy(ctx, Some(i + 1), ops, 1));
                }
                self.copy(ctx, Some(0), first, 1);
            });
        }
        engines
    }

    /// The copies `ops[0]`, `ops[step]`, `ops[2 * step]`... as one turn on
    /// copy engine `engine`, or on the next engine round-robin. Every op is
    /// checked under one acquisition of the state lock (a refused op costs
    /// no time). The engine is then taken once, and each accepted op in
    /// order spends its duration on it and lands, unless the device failed
    /// meanwhile: a device that fails mid-batch fails the ops still in
    /// flight, as it fails a chain of single copies.
    fn copy<'a, T: BorrowMut<CopyOp<'a>>>(
        &self,
        ctx: GpuContextId,
        engine: Option<usize>,
        ops: &mut [T],
        step: usize,
    ) {
        let mut accepted = false;
        match self.check_alive() {
            Err(e) => {
                ops.iter_mut().step_by(step).for_each(|op| op.borrow_mut().result = Err(e.clone()))
            }
            Ok(()) => {
                let st = self.state.lock();
                let live = st.contexts.contains_key(&ctx);
                for op in ops.iter_mut().step_by(step).map(BorrowMut::borrow_mut) {
                    op.result = self.check_copy(&st, ctx, live, op);
                    accepted |= op.result.is_ok();
                }
            }
        }
        if !accepted {
            return;
        }
        let mut turn = self.copy.turn(engine);
        let ops = ops.iter_mut().step_by(step).map(BorrowMut::borrow_mut);
        for op in ops.filter(|op| op.result.is_ok()) {
            turn.spend(self.spec.copy_duration(op.declared_len));
            op.result = self.check_alive().and_then(|()| self.land_copy(ctx, op));
        }
    }

    /// Whether `op` may run: a length the model accepts, a live context
    /// (`live`: `ctx` is one), and a span inside one of its allocations.
    fn check_copy(
        &self,
        st: &DeviceState,
        ctx: GpuContextId,
        live: bool,
        op: &CopyOp<'_>,
    ) -> Result<()> {
        let len = op.declared_len;
        if len == 0 || matches!(op.dir, CopyDir::H2d(payload) if payload.len() as u64 > len) {
            return Err(GpuError::InvalidValue);
        }
        if !live {
            return Err(GpuError::InvalidContext);
        }
        Self::resolve_span(st, self.addr_salt, Some(ctx), op.addr, len).map(|_| ())
    }

    /// Moves an accepted op's bytes, once its engine time is spent.
    fn land_copy(&self, ctx: GpuContextId, op: &mut CopyOp<'_>) -> Result<()> {
        let mut st = self.state.lock();
        let (slot, offset, _) = Self::resolve(&st, self.addr_salt, Some(ctx), op.addr)?;
        let alloc = st.allocs.slot_mut(slot);
        match &mut op.dir {
            CopyDir::H2d(payload) => {
                alloc.write(offset, payload);
                DeviceStats::add(&self.stats.h2d_bytes, op.declared_len);
            }
            CopyDir::D2h(out) => {
                let bytes = alloc.read(offset, op.declared_len);
                let kept = bytes.len().min(out.len());
                out[..kept].copy_from_slice(&bytes[..kept]);
                out.reserve_exact(bytes.len() - kept);
                out.extend_from_slice(&bytes[kept..]);
                DeviceStats::add(&self.stats.d2h_bytes, op.declared_len);
            }
        }
        Ok(())
    }

    /// Device-internal copy between two allocations owned by `ctx`: charges
    /// `declared_len` against the memory bus (not PCIe), moves the
    /// materialized bytes available at the source offset, and never touches
    /// the host. One copy engine is occupied for the duration.
    pub fn memcpy_d2d(
        &self,
        ctx: GpuContextId,
        dst: DeviceAddr,
        src: DeviceAddr,
        declared_len: u64,
    ) -> Result<()> {
        DeviceStats::bump(&self.stats.calls);
        self.check_alive()?;
        if declared_len == 0 {
            return Err(GpuError::InvalidValue);
        }
        {
            let st = self.state.lock();
            if !st.contexts.contains_key(&ctx) {
                return Err(GpuError::InvalidContext);
            }
            for addr in [src, dst] {
                Self::resolve_span(&st, self.addr_salt, Some(ctx), addr, declared_len)?;
            }
        }
        let dur = COPY_OVERHEAD
            + SimDuration::from_secs_f64(declared_len as f64 / self.spec.mem_bytes_per_sec);
        self.copy.turn(None).spend(dur);
        self.check_alive()?;
        let mut st = self.state.lock();
        let (src_slot, src_off, _) = Self::resolve(&st, self.addr_salt, Some(ctx), src)?;
        // Stage through a temporary: src and dst may be one allocation, and
        // `Allocs` lends one slot at a time.
        let bytes = st.allocs.slot(src_slot).read(src_off, declared_len).to_vec();
        let (dst_slot, dst_off, _) = Self::resolve(&st, self.addr_salt, Some(ctx), dst)?;
        st.allocs.slot_mut(dst_slot).write(dst_off, &bytes);
        DeviceStats::add(&self.stats.d2d_bytes, declared_len);
        Ok(())
    }

    /// Peer-to-peer copy between two *different* devices: a single PCIe
    /// hop (peer DMA), not a host-staged round trip. Validates both
    /// endpoints up front, charges the transfer against the **source**
    /// device's copy engine `index % copy_engines` (`index` is the copy's
    /// place in its caller's plan, so placement follows the plan as in
    /// [`Gpu::memcpy_batch`]), then moves the materialized bytes. The two
    /// `DEVICE_STATE` locks share a rank, so they are only ever taken
    /// sequentially — never nested.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_p2p(
        src_dev: &Gpu,
        src_ctx: GpuContextId,
        src: DeviceAddr,
        dst_dev: &Gpu,
        dst_ctx: GpuContextId,
        dst: DeviceAddr,
        declared_len: u64,
        index: usize,
    ) -> Result<()> {
        DeviceStats::bump(&src_dev.stats.calls);
        src_dev.check_alive()?;
        dst_dev.check_alive()?;
        if declared_len == 0 {
            return Err(GpuError::InvalidValue);
        }
        {
            let st = src_dev.state.lock();
            if !st.contexts.contains_key(&src_ctx) {
                return Err(GpuError::InvalidContext);
            }
            Self::resolve_span(&st, src_dev.addr_salt, Some(src_ctx), src, declared_len)?;
        }
        {
            let st = dst_dev.state.lock();
            if !st.contexts.contains_key(&dst_ctx) {
                return Err(GpuError::InvalidContext);
            }
            Self::resolve_span(&st, dst_dev.addr_salt, Some(dst_ctx), dst, declared_len)?;
        }
        // One hop: the slower of the two PCIe links bounds the transfer.
        let dur =
            src_dev.spec.copy_duration(declared_len).max(dst_dev.spec.copy_duration(declared_len));
        src_dev.copy.turn(Some(index)).spend(dur);
        src_dev.check_alive()?;
        dst_dev.check_alive()?;
        let bytes = {
            let st = src_dev.state.lock();
            let (slot, offset, _) = Self::resolve(&st, src_dev.addr_salt, Some(src_ctx), src)?;
            st.allocs.slot(slot).read(offset, declared_len).to_vec()
        };
        let mut st = dst_dev.state.lock();
        let (slot, offset, _) = Self::resolve(&st, dst_dev.addr_salt, Some(dst_ctx), dst)?;
        st.allocs.slot_mut(slot).write(offset, &bytes);
        DeviceStats::add(&src_dev.stats.p2p_bytes_out, declared_len);
        DeviceStats::add(&dst_dev.stats.p2p_bytes_in, declared_len);
        Ok(())
    }

    /// Launches a kernel: validates every pointer argument against `ctx`'s
    /// live allocations (isolation), occupies the compute engine for the
    /// work-proportional duration, then applies the functional payload.
    ///
    /// Returns the simulated execution time.
    pub fn launch(
        &self,
        ctx: GpuContextId,
        kernel: &RegisteredKernel,
        spec: &LaunchSpec,
    ) -> Result<SimDuration> {
        DeviceStats::bump(&self.stats.calls);
        self.check_alive()?;
        if self.ctx_fault.swap(false, Ordering::SeqCst) {
            return Err(GpuError::LaunchFailed("injected transient context fault".into()));
        }
        {
            let st = self.state.lock();
            if !st.contexts.contains_key(&ctx) {
                return Err(GpuError::InvalidContext);
            }
            for ptr in spec.ptr_args() {
                Self::resolve(&st, self.addr_salt, Some(ctx), ptr)?;
            }
        }
        let dur = self.spec.kernel_duration(spec.work);
        // The payload runs before the compute engine is let go, so no other
        // kernel on the device sees its bytes half written.
        let mut turn = self.compute.turn();
        turn.spend(dur);
        if let Some(payload) = kernel.payload.as_ref() {
            let mut st = self.state.lock();
            let salt = self.addr_salt;
            let mut resolve =
                |addr: DeviceAddr, len: u64, f: &mut dyn FnMut(&mut [u8])| -> Result<()> {
                    let (slot, offset) = Self::resolve_span(&st, salt, Some(ctx), addr, len)?;
                    let alloc = st.allocs.slot_mut(slot);
                    alloc.ensure_len(offset + len);
                    let start = (offset as usize).min(alloc.data.len());
                    let end = ((offset + len) as usize).min(alloc.data.len());
                    f(&mut alloc.data[start..end]);
                    Ok(())
                };
            let mut exec = KernelExec { resolve: &mut resolve, args: &spec.args, work: spec.work };
            payload(&mut exec)?;
        }
        drop(turn);
        self.check_alive()?;
        DeviceStats::bump(&self.stats.kernels_launched);
        Ok(dur)
    }

    /// Debug/test hook: reads the materialized bytes of an allocation without
    /// charging transfer time and without context checks.
    pub fn peek(&self, addr: DeviceAddr, len: u64) -> Result<Vec<u8>> {
        let st = self.state.lock();
        let (slot, offset, _) = Self::resolve(&st, self.addr_salt, None, addr)?;
        Ok(st.allocs.slot(slot).read(offset, len).to_vec())
    }
}

/// Every engine of one device, held by the thread that took them
/// ([`Gpu::try_hold`]) until it drops the hold.
pub struct GpuHold {
    gpu: Arc<Gpu>,
    /// Released by the thread that holds it: not `Send`.
    _thread: PhantomData<*const ()>,
}

impl GpuHold {
    /// The held device.
    pub fn gpu(&self) -> &Arc<Gpu> {
        &self.gpu
    }
}

impl Drop for GpuHold {
    fn drop(&mut self) {
        self.gpu.compute.release();
        self.gpu.copy.engines().iter().for_each(FifoEngine::release);
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("spec", &self.spec.name)
            .field("failed", &self.is_failed())
            .field("contexts", &self.context_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelArg, KernelDesc, LaunchConfig, Work};

    fn test_gpu() -> Arc<Gpu> {
        Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-6), 0)
    }

    fn plain_kernel() -> RegisteredKernel {
        RegisteredKernel { desc: KernelDesc::plain("k"), payload: None }
    }

    fn launch_of(ptrs: &[DeviceAddr]) -> LaunchSpec {
        LaunchSpec {
            kernel: "k".into(),
            config: LaunchConfig::default(),
            args: ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect(),
            work: Work::flops(1e6),
        }
    }

    #[test]
    fn context_limit_enforced() {
        let gpu = test_gpu();
        let mut ctxs = Vec::new();
        for _ in 0..8 {
            ctxs.push(gpu.create_context().unwrap());
        }
        assert_eq!(gpu.create_context(), Err(GpuError::TooManyContexts));
        gpu.destroy_context(ctxs.pop().unwrap()).unwrap();
        assert!(gpu.create_context().is_ok());
    }

    #[test]
    fn context_reservation_consumes_memory() {
        let gpu = test_gpu();
        let before = gpu.mem_available();
        let ctx = gpu.create_context().unwrap();
        let after = gpu.mem_available();
        assert_eq!(before - after, gpu.spec().ctx_reserved_bytes);
        gpu.destroy_context(ctx).unwrap();
        assert_eq!(gpu.mem_available(), before);
    }

    #[test]
    fn malloc_write_read_roundtrip() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 4096).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(4096).collect();
        gpu.memcpy_h2d(ctx, ptr, 4096, &data).unwrap();
        let back = gpu.memcpy_d2h(ctx, ptr, 4096).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn interior_offset_copy() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 1024).unwrap();
        gpu.memcpy_h2d(ctx, DeviceAddr(ptr.0 + 512), 4, &[1, 2, 3, 4]).unwrap();
        let back = gpu.memcpy_d2h(ctx, DeviceAddr(ptr.0 + 512), 4).unwrap();
        assert_eq!(back, vec![1, 2, 3, 4]);
    }

    #[test]
    fn d2d_copies_between_allocations() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let src = gpu.malloc(ctx, 1024).unwrap();
        let dst = gpu.malloc(ctx, 1024).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(1024).collect();
        gpu.memcpy_h2d(ctx, src, 1024, &data).unwrap();
        gpu.memcpy_d2d(ctx, dst, src, 1024).unwrap();
        assert_eq!(gpu.memcpy_d2h(ctx, dst, 1024).unwrap(), data);
        let snap = gpu.stats().snapshot();
        assert_eq!(snap.d2d_bytes, 1024);
        // D2D is charged against the memory bus, not the PCIe counters.
        assert_eq!(snap.h2d_bytes, 1024);
        assert_eq!(snap.d2h_bytes, 1024);
    }

    #[test]
    fn d2d_within_one_allocation_and_bounds() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 1024).unwrap();
        gpu.memcpy_h2d(ctx, ptr, 4, &[9, 8, 7, 6]).unwrap();
        gpu.memcpy_d2d(ctx, DeviceAddr(ptr.0 + 512), ptr, 4).unwrap();
        assert_eq!(gpu.memcpy_d2h(ctx, DeviceAddr(ptr.0 + 512), 4).unwrap(), vec![9, 8, 7, 6]);
        let err = gpu.memcpy_d2d(ctx, DeviceAddr(ptr.0 + 1000), ptr, 100).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn d2d_respects_context_isolation() {
        let gpu = test_gpu();
        let a = gpu.create_context().unwrap();
        let b = gpu.create_context().unwrap();
        let theirs = gpu.malloc(a, 256).unwrap();
        let mine = gpu.malloc(b, 256).unwrap();
        assert_eq!(gpu.memcpy_d2d(b, mine, theirs, 16), Err(GpuError::InvalidAddress));
        assert_eq!(gpu.memcpy_d2d(b, theirs, mine, 16), Err(GpuError::InvalidAddress));
        assert_eq!(gpu.stats().snapshot().d2d_bytes, 0);
    }

    #[test]
    fn one_op_batches_move_what_single_copies_move() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::with_scale(1e-7), 0);
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 256).unwrap();
        let mut up = [CopyOp::h2d(ptr, 256, &[5u8; 256])];
        assert_eq!(gpu.memcpy_batch(ctx, &mut up), 1);
        assert_eq!(up[0].result, Ok(()));
        let mut out = Vec::new();
        let mut down = [CopyOp::d2h(ptr, 256, &mut out)];
        gpu.memcpy_batch(ctx, &mut down);
        assert_eq!(down[0].result, Ok(()));
        assert_eq!(out, vec![5u8; 256]);
        assert_eq!(gpu.stats().snapshot().h2d_bytes, 256);
        assert_eq!(gpu.stats().snapshot().d2h_bytes, 256);
        // Both ops were op 0 of their plan: engine 0 served both.
        assert_eq!(gpu.engine_busy_times()[1], SimDuration::ZERO);
        assert_eq!(gpu.memcpy_batch(ctx, &mut []), 0);
    }

    #[test]
    fn a_copy_into_a_kept_buffer_overwrites_its_front_and_grows_it_exactly() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 1024).unwrap();
        gpu.memcpy_h2d(ctx, ptr, 1024, &[7; 4]).unwrap();
        // Longer than the device's bytes: their length, the rest kept.
        let mut out = vec![1; 6];
        gpu.memcpy_d2h_into(ctx, ptr, 1024, &mut out).unwrap();
        assert_eq!(out, [7, 7, 7, 7, 1, 1]);
        // Shorter: grown to exactly the device's bytes.
        gpu.memcpy_h2d(ctx, ptr, 1024, &[9; 64]).unwrap();
        let mut out = vec![1; 2];
        gpu.memcpy_d2h_into(ctx, ptr, 1024, &mut out).unwrap();
        assert_eq!((out.len(), out.capacity()), (64, 64));
        assert!(out.iter().all(|&b| b == 9));
        // A refused copy leaves the buffer as it was.
        gpu.fail();
        let err = gpu.memcpy_d2h_into(ctx, ptr, 1024, &mut out);
        assert_eq!(err, Err(GpuError::DeviceFailed));
        assert_eq!(out, [9; 64]);
    }

    #[test]
    fn out_of_bounds_copy_detected() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 1024).unwrap();
        let err = gpu.memcpy_h2d(ctx, DeviceAddr(ptr.0 + 1000), 100, &[0; 100]).unwrap_err();
        assert!(matches!(err, GpuError::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn cross_context_isolation() {
        let gpu = test_gpu();
        let a = gpu.create_context().unwrap();
        let b = gpu.create_context().unwrap();
        let ptr = gpu.malloc(a, 1024).unwrap();
        // Context b cannot read, write, free or launch against a's memory.
        assert_eq!(gpu.memcpy_d2h(b, ptr, 16), Err(GpuError::InvalidAddress));
        assert_eq!(gpu.memcpy_h2d(b, ptr, 16, &[0; 16]), Err(GpuError::InvalidAddress));
        assert_eq!(gpu.free(b, ptr), Err(GpuError::InvalidAddress));
        assert_eq!(
            gpu.launch(b, &plain_kernel(), &launch_of(&[ptr])),
            Err(GpuError::InvalidAddress)
        );
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let avail = gpu.mem_available();
        let _big = gpu.malloc(ctx, avail - 1024).unwrap();
        assert_eq!(gpu.malloc(ctx, 1 << 20), Err(GpuError::OutOfMemory));
        assert_eq!(gpu.stats().snapshot().failed_allocs, 1);
    }

    #[test]
    fn launch_validates_pointers() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let err =
            gpu.launch(ctx, &plain_kernel(), &launch_of(&[DeviceAddr(0xdead_beef)])).unwrap_err();
        assert_eq!(err, GpuError::InvalidAddress);
    }

    #[test]
    fn launch_duration_scales_with_device_speed() {
        let clock = Clock::with_scale(1e-6);
        let fast = Gpu::new(GpuSpec::tesla_c2050(), clock.clone(), 0);
        let slow = Gpu::new(GpuSpec::quadro_2000(), clock, 1);
        let work = Work::flops(1e12);
        assert!(slow.spec().kernel_duration(work) > fast.spec().kernel_duration(work) * 3);
    }

    #[test]
    fn payload_kernel_computes() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 16).unwrap();
        gpu.memcpy_h2d(ctx, ptr, 16, &[1u8; 16]).unwrap();
        let kernel = RegisteredKernel {
            desc: KernelDesc::plain("inc"),
            payload: Some(Arc::new(|exec| {
                let addr = exec.args()[0].as_ptr().unwrap();
                exec.with_bytes_mut(addr, 16, &mut |bytes| {
                    for b in bytes.iter_mut() {
                        *b += 1;
                    }
                })
            })),
        };
        gpu.launch(ctx, &kernel, &launch_of(&[ptr])).unwrap();
        assert_eq!(gpu.memcpy_d2h(ctx, ptr, 16).unwrap(), vec![2u8; 16]);
        assert_eq!(gpu.stats().snapshot().kernels_launched, 1);
    }

    #[test]
    fn failed_device_rejects_everything() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 64).unwrap();
        gpu.fail();
        assert_eq!(gpu.malloc(ctx, 64), Err(GpuError::DeviceFailed));
        assert_eq!(gpu.memcpy_h2d(ctx, ptr, 64, &[0; 64]), Err(GpuError::DeviceFailed));
        assert_eq!(gpu.memcpy_d2h(ctx, ptr, 64), Err(GpuError::DeviceFailed));
        assert_eq!(gpu.create_context(), Err(GpuError::DeviceFailed));
        assert_eq!(
            gpu.launch(ctx, &plain_kernel(), &launch_of(&[ptr])),
            Err(GpuError::DeviceFailed)
        );
        // Destroy still works so the runtime can reclaim bookkeeping.
        gpu.destroy_context(ctx).unwrap();
        gpu.repair();
        assert!(gpu.create_context().is_ok());
    }

    #[test]
    fn declared_size_larger_than_materialized_cap() {
        let clock = Clock::with_scale(1e-7);
        let gpu = Gpu::new(GpuSpec::tesla_c2050(), clock, 0);
        let ctx = gpu.create_context().unwrap();
        // 800 MB declared, only the 16 MiB prefix is materialized.
        let declared = 800u64 << 20;
        let ptr = gpu.malloc(ctx, declared).unwrap();
        assert!(gpu.mem_capacity() - gpu.mem_available() >= declared);
        // Copy accounting still charges full size; payload is a prefix.
        gpu.memcpy_h2d(ctx, ptr, declared, &[7u8; 128]).unwrap();
        assert_eq!(gpu.memcpy_d2h(ctx, ptr, 128).unwrap(), vec![7u8; 128]);
        assert_eq!(gpu.stats().snapshot().h2d_bytes, declared);
        gpu.free(ctx, ptr).unwrap();
    }

    #[test]
    fn f32_view_is_exact_or_a_typed_error() {
        // A launch's arguments are outside input: a misaligned start, a view
        // the materialization cap cuts short, or a length whose end wraps
        // fail the launch with a typed error, not a panic or a short slice.
        let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::with_scale(1e-7), 0);
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 64 << 20).unwrap();
        let view = |addr: DeviceAddr, len: u64| {
            let kernel = RegisteredKernel {
                desc: KernelDesc::plain("view"),
                payload: Some(Arc::new(move |exec: &mut crate::kernel::KernelExec<'_>| {
                    exec.with_f32_mut(addr, len, |v| assert_eq!(v.len() as u64, len / 4))
                })),
            };
            gpu.launch(ctx, &kernel, &launch_of(&[addr]))
        };
        assert!(view(ptr, 4001).is_ok());
        assert!(view(DeviceAddr(ptr.0 + 4), 4000).is_ok());
        assert_eq!(view(DeviceAddr(ptr.0 + 1), 4000), Err(GpuError::InvalidValue));
        assert!(matches!(view(ptr, 32 << 20), Err(GpuError::LaunchFailed(_))));
        let wraps = view(DeviceAddr(ptr.0 + 4), u64::MAX);
        assert!(matches!(wraps, Err(GpuError::OutOfBounds { .. })), "{wraps:?}");
    }

    #[test]
    fn destroy_context_reclaims_allocations() {
        let gpu = test_gpu();
        let before = gpu.mem_available();
        let ctx = gpu.create_context().unwrap();
        for _ in 0..4 {
            gpu.malloc(ctx, 1 << 20).unwrap();
        }
        gpu.destroy_context(ctx).unwrap();
        assert_eq!(gpu.mem_available(), before);
    }

    #[test]
    fn a_held_device_serves_its_holder_at_once_and_nobody_else() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 64).unwrap();
        let hold = gpu.try_hold().expect("an idle device");
        assert!(gpu.held_here());
        gpu.memcpy_h2d(ctx, ptr, 64, &[3; 64]).unwrap();
        gpu.launch(ctx, &plain_kernel(), &launch_of(&[ptr])).unwrap();
        let elsewhere = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());
        elsewhere(&|| assert!(gpu.try_hold().is_none() && !gpu.held_here()));
        drop(hold);
        assert!(!gpu.held_here());
        // One busy copy engine is enough to refuse, and the refusal lets go
        // of the engines it took on the way.
        assert!(gpu.copy.engines()[0].try_hold());
        elsewhere(&|| assert!(gpu.try_hold().is_none()));
        assert_eq!(gpu.compute_queue_depth(), 0);
        gpu.copy.engines()[0].release();
        elsewhere(&|| assert!(gpu.try_hold().is_some()));
    }

    #[test]
    fn recycled_buffer_no_leak() {
        // A's 4 KiB of 0xAA die with its allocation: B's allocation of the
        // same size, made into the buffer the device kept from A's free,
        // reads zeros past what B wrote, through a kernel and through D2H.
        let gpu = test_gpu();
        let (a, b) = (gpu.create_context().unwrap(), gpu.create_context().unwrap());
        // Two live at the peak, so the freed buffer is kept for reuse.
        let _held = gpu.malloc(b, 256).unwrap();
        let secret = gpu.malloc(a, 4096).unwrap();
        gpu.memcpy_h2d(a, secret, 4096, &[0xAA; 4096]).unwrap();
        gpu.free(a, secret).unwrap();
        let mine = gpu.malloc(b, 4096).unwrap();
        gpu.memcpy_h2d(b, DeviceAddr(mine.0 + 64), 16, &[7; 16]).unwrap();
        let mut want = vec![0u8; 4096];
        want[64..80].fill(7);
        assert_eq!(gpu.memcpy_d2h(b, mine, 4096).unwrap(), want[..80]);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let reader = Arc::clone(&seen);
        let kernel = RegisteredKernel {
            desc: KernelDesc::plain("read"),
            payload: Some(Arc::new(move |exec| {
                let addr = exec.args()[0].as_ptr().unwrap();
                exec.with_bytes_mut(addr, 4096, &mut |bytes| {
                    *reader.lock().unwrap() = bytes.to_vec();
                })
            })),
        };
        gpu.launch(b, &kernel, &launch_of(&[mine])).unwrap();
        assert!(*seen.lock().unwrap() == want, "the kernel saw the last owner's bytes");
        assert!(gpu.memcpy_d2h(b, mine, 4096).unwrap() == want, "D2H shows the last owner's bytes");
    }

    #[test]
    fn free_base_only() {
        let gpu = test_gpu();
        let ctx = gpu.create_context().unwrap();
        let ptr = gpu.malloc(ctx, 1024).unwrap();
        // Freeing an interior pointer is invalid (CUDA semantics).
        assert!(gpu.free(ctx, DeviceAddr(ptr.0 + 256)).is_err());
        gpu.free(ctx, ptr).unwrap();
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::kernel::{KernelArg, KernelDesc, LaunchConfig, LaunchSpec, RegisteredKernel, Work};
    use crate::GpuSpec;
    use mtgpu_simtime::Clock;

    /// Hammer one device from many threads: allocations stay within
    /// capacity, per-context data stays isolated, and the final state is
    /// clean after all contexts are destroyed.
    #[test]
    fn concurrent_contexts_full_lifecycle() {
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        let kernel = Arc::new(RegisteredKernel {
            desc: KernelDesc::plain("stamp"),
            payload: Some(Arc::new(|exec: &mut crate::kernel::KernelExec<'_>| {
                let p = exec.args()[0].as_ptr().unwrap();
                let tag = match exec.args()[1] {
                    KernelArg::Scalar(v) => v as u8,
                    _ => 0,
                };
                exec.with_bytes_mut(p, 64, &mut |b| b.fill(tag))
            })),
        });
        let before = gpu.mem_available();
        let handles: Vec<_> = (0..6u64)
            .map(|tag| {
                let gpu = Arc::clone(&gpu);
                let kernel = Arc::clone(&kernel);
                std::thread::spawn(move || {
                    let ctx = gpu.create_context().unwrap();
                    for round in 0..8 {
                        let p = gpu.malloc(ctx, 4096).unwrap();
                        let spec = LaunchSpec {
                            kernel: "stamp".into(),
                            config: LaunchConfig::default(),
                            args: vec![KernelArg::Ptr(p), KernelArg::Scalar(tag)],
                            work: Work::flops(1e5),
                        };
                        gpu.launch(ctx, &kernel, &spec).unwrap();
                        let back = gpu.memcpy_d2h(ctx, p, 64).unwrap();
                        assert_eq!(back, vec![tag as u8; 64], "round {round} corrupted");
                        gpu.free(ctx, p).unwrap();
                    }
                    gpu.destroy_context(ctx).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(gpu.mem_available(), before, "memory leaked under concurrency");
        assert_eq!(gpu.context_count(), 0);
        assert_eq!(gpu.stats().snapshot().kernels_launched, 48);
    }

    fn test_gpu() -> Arc<Gpu> {
        Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0)
    }

    #[test]
    fn p2p_copies_bytes_and_charges_both_devices() {
        let a = test_gpu();
        let b = test_gpu();
        let actx = a.create_context().unwrap();
        let bctx = b.create_context().unwrap();
        let src = a.malloc(actx, 4096).unwrap();
        let dst = b.malloc(bctx, 4096).unwrap();
        a.memcpy_h2d(actx, src, 512, &[0xABu8; 512]).unwrap();

        Gpu::memcpy_p2p(&a, actx, src, &b, bctx, dst, 512, 3).unwrap();
        assert_eq!(b.memcpy_d2h(bctx, dst, 512).unwrap(), vec![0xABu8; 512]);
        assert_eq!(a.stats().snapshot().p2p_bytes_out, 512);
        assert_eq!(a.stats().snapshot().p2p_bytes_in, 0);
        assert_eq!(b.stats().snapshot().p2p_bytes_in, 512);
        assert_eq!(b.stats().snapshot().p2p_bytes_out, 0);
    }

    #[test]
    fn p2p_validates_both_endpoints_before_moving_bytes() {
        let a = test_gpu();
        let b = test_gpu();
        let actx = a.create_context().unwrap();
        let bctx = b.create_context().unwrap();
        let src = a.malloc(actx, 1024).unwrap();
        let dst = b.malloc(bctx, 256).unwrap();

        assert_eq!(
            Gpu::memcpy_p2p(&a, actx, src, &b, bctx, dst, 0, 0),
            Err(GpuError::InvalidValue)
        );
        // Source overflow and destination overflow both reject; a foreign
        // context on either side rejects too. None of these move a byte.
        assert!(matches!(
            Gpu::memcpy_p2p(&a, actx, src, &b, bctx, dst, 2048, 0),
            Err(GpuError::OutOfBounds { .. })
        ));
        assert!(matches!(
            Gpu::memcpy_p2p(&a, actx, src, &b, bctx, dst, 512, 0),
            Err(GpuError::OutOfBounds { .. })
        ));
        let foreign = b.create_context().unwrap(); // id never created on `a`
        assert_eq!(
            Gpu::memcpy_p2p(&a, foreign, src, &b, bctx, dst, 128, 0),
            Err(GpuError::InvalidContext)
        );
        assert_eq!(a.stats().snapshot().p2p_bytes_out, 0);
        assert_eq!(b.stats().snapshot().p2p_bytes_in, 0);
    }

    #[test]
    fn p2p_fails_when_either_device_is_dead() {
        let a = test_gpu();
        let b = test_gpu();
        let actx = a.create_context().unwrap();
        let bctx = b.create_context().unwrap();
        let src = a.malloc(actx, 256).unwrap();
        let dst = b.malloc(bctx, 256).unwrap();

        b.fail();
        assert_eq!(
            Gpu::memcpy_p2p(&a, actx, src, &b, bctx, dst, 128, 0),
            Err(GpuError::DeviceFailed)
        );
        assert_eq!(a.stats().snapshot().p2p_bytes_out, 0);
    }
}
