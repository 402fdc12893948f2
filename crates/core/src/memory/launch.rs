//! A kernel launch's passes through the memory manager (Table 1 "Launch":
//! check PTEs, materialize, launch). A launch walks its arguments once, for
//! all its attempts: the walk resolves each pointer argument into its
//! entry's base and offset, and closes over registered nested members into
//! the working set and the entries the kernel may write. It is made by the
//! PTE check before a wait ([`MemoryManager::check_ptes`]) or by the first
//! pass ([`MemoryManager::prepare_launch`]), and made again only when the
//! context's table changed shape since ([`PageTable::shape`]): a retry
//! after a co-tenant's swap-out, or after the launch waited for its vGPU,
//! reuses it. Each pass, under one acquisition of the table's lock, makes
//! the working set resident and, once an entry had to be allocated, builds
//! the device arguments from the recorded bases and offsets by exact-key
//! lookups; after the device launch, one more acquisition applies Figure
//! 4's `launch` transition ([`MemoryManager::launched`]).
//!
//! The walk is linear: `close` removes duplicates through a small hash set
//! of the bases it took, and read-only arguments are flags by argument
//! index.
//! Everything lands in a [`LaunchSet`] whose buffers each thread keeps from
//! one launch to the next, so a resident working set costs no heap
//! allocation. Nor does a launch that swaps: a pass allocates only while a
//! kept buffer grows. The upload plan's ops and outcomes are the thread's
//! ([`super::transfer::Plan`]); an own entry evicted for room writes back
//! into its slab; and a co-tenant swapped out for room does so through
//! [`MemoryManager::swap_out_ctx`], whose writebacks land in their slabs
//! too.

use crate::ctx::{Binding, CtxId};
use crate::memory::manager::{CtxMemory, Materialize, MemoryManager};
use crate::memory::page_table::PageTable;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::{DeviceAddr, KernelArg};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A base to close over, and whether its entry may have nested members
/// (`false` only when its entry was seen to have none).
type Root = (DeviceAddr, bool);

/// The bases one `close` took: open addressing with linear probing, kept
/// at most half full, so a base costs one multiply and about one probe to
/// look up. No entry has base `u64::MAX` (an entry holds at least a byte),
/// so that marks an empty slot.
#[derive(Default)]
struct Seen {
    slots: Vec<u64>,
    len: usize,
}

impl Seen {
    const EMPTY: u64 = u64::MAX;

    /// Empties the set, keeping its slots.
    fn clear(&mut self) {
        self.slots.fill(Self::EMPTY);
        self.len = 0;
    }

    /// Adds `base`; returns whether it was not in the set.
    fn insert(&mut self, base: DeviceAddr) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (base.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        loop {
            match self.slots[i] {
                Self::EMPTY => {
                    self.slots[i] = base.0;
                    self.len += 1;
                    return true;
                }
                taken if taken == base.0 => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slots (to 16 at first) and puts the bases back.
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Self::EMPTY; (2 * old.len()).max(16)];
        self.len = 0;
        for base in old.into_iter().filter(|&b| b != Self::EMPTY) {
            self.insert(DeviceAddr(base));
        }
    }
}

/// A launch's walk of its arguments, and what its passes build on it: held
/// for all the launch's attempts, the device launch and
/// [`MemoryManager::launched`].
#[derive(Default)]
pub(crate) struct LaunchSet {
    /// The context's memory, looked up once per launch.
    cm: Option<Arc<CtxMemory>>,
    /// The shape of the context's table the walk was made on; `None`
    /// before a walk.
    walked: Option<u64>,
    /// The working set's walk: every pointer argument's entry to start.
    stack: Vec<Root>,
    /// The written entries' walk, when some arguments are read-only.
    rw_stack: Vec<Root>,
    /// The bases `close` took so far.
    seen: Seen,
    /// Which arguments, by index, the kernel only reads, when `annotated`.
    read_only: Vec<bool>,
    /// Each pointer argument's entry base and offset into it, in argument
    /// order.
    ptrs: Vec<(DeviceAddr, u64)>,
    /// The working set, in the order it is made resident.
    closure: Vec<DeviceAddr>,
    /// The entries reached through read-write arguments, when `annotated`;
    /// else the whole working set is written.
    written: Vec<DeviceAddr>,
    annotated: bool,
    /// The arguments as the device sees them.
    args: Vec<KernelArg>,
}

thread_local! {
    /// The thread's set between launches, buffers and all.
    static SPARE: Cell<Option<LaunchSet>> = const { Cell::new(None) };
}

impl LaunchSet {
    /// Runs `f` with the calling thread's set, walked for nothing yet, so a
    /// thread allocates a launch's buffers once, not per launch. A nested
    /// use gets a fresh set.
    pub(crate) fn with_spare<R>(f: impl FnOnce(&mut LaunchSet) -> R) -> R {
        let mut set = SPARE.take().unwrap_or_default();
        let out = f(&mut set);
        set.cm = None;
        set.walked = None;
        SPARE.set(Some(set));
        out
    }

    /// The working set: every pointer argument's entry and, transitively,
    /// their registered nested members (§1).
    pub(crate) fn closure(&self) -> &[DeviceAddr] {
        &self.closure
    }

    /// The entries the kernel may write: with no read-only annotations,
    /// the whole working set (Figure 4's default).
    fn written(&self) -> &[DeviceAddr] {
        if self.annotated {
            &self.written
        } else {
            &self.closure
        }
    }

    /// The launch's arguments with every pointer translated to the device
    /// address it stands for, once [`MemoryManager::prepare_launch`] came
    /// back [`Materialize::Ready`].
    pub(crate) fn device_args(&mut self) -> &mut [KernelArg] {
        &mut self.args
    }

    /// Walks `stack` into `out`: each base once, followed by its registered
    /// nested members, the last pushed first. A base seen to have no members
    /// is not looked up again.
    fn close(
        stack: &mut Vec<Root>,
        seen: &mut Seen,
        table: &PageTable,
        out: &mut Vec<DeviceAddr>,
    ) -> CudaResult<()> {
        out.clear();
        seen.clear();
        while let Some((base, members)) = stack.pop() {
            if !seen.insert(base) {
                continue;
            }
            out.push(base);
            if members {
                let entry = table.get(base).ok_or(CudaError::InvalidDevicePointer)?;
                stack.extend(entry.nested_members.iter().map(|&m| (m, true)));
            }
        }
        Ok(())
    }

    /// Walks `args` on `table`, each pointer once: records its entry's base
    /// and offset, the working set and the written entries (`read_only`
    /// names arguments the kernel only reads), and the device arguments of
    /// every pointer whose entry has its device allocation. Returns whether
    /// every one had.
    fn walk(
        &mut self,
        table: &PageTable,
        args: &[KernelArg],
        read_only: &[u32],
    ) -> CudaResult<bool> {
        self.walked = None;
        self.ptrs.clear();
        self.args.clear();
        self.stack.clear();
        self.rw_stack.clear();
        self.annotated = !read_only.is_empty();
        self.read_only.clear();
        if self.annotated {
            self.read_only.resize(args.len(), false);
            for &i in read_only {
                if let Some(flag) = self.read_only.get_mut(i as usize) {
                    *flag = true;
                }
            }
        }
        let mut allocated = true;
        for (i, arg) in args.iter().enumerate() {
            let KernelArg::Ptr(ptr) = *arg else {
                self.args.push(*arg);
                continue;
            };
            let (entry, offset) =
                table.resolve_entry(ptr).ok_or(CudaError::InvalidDevicePointer)?;
            let root = (entry.vaddr, !entry.nested_members.is_empty());
            self.ptrs.push((entry.vaddr, offset));
            self.stack.push(root);
            if self.annotated && !self.read_only[i] {
                self.rw_stack.push(root);
            }
            self.args.push(match entry.device_ptr {
                Some(dptr) => KernelArg::Ptr(DeviceAddr(dptr.0 + offset)),
                None => {
                    allocated = false;
                    *arg
                }
            });
        }
        Self::close(&mut self.stack, &mut self.seen, table, &mut self.closure)?;
        if self.annotated {
            Self::close(&mut self.rw_stack, &mut self.seen, table, &mut self.written)?;
        }
        self.walked = Some(table.shape());
        Ok(allocated)
    }

    /// Builds the device arguments from the walk's bases and offsets, every
    /// pointer's entry being resident.
    fn translate(&mut self, table: &PageTable, args: &[KernelArg]) -> CudaResult<()> {
        self.args.clear();
        let mut ptrs = self.ptrs.iter();
        for arg in args {
            self.args.push(match *arg {
                KernelArg::Ptr(_) => {
                    let &(base, offset) = ptrs.next().expect("one per pointer argument");
                    let entry = table.get(base).ok_or(CudaError::InvalidDevicePointer)?;
                    let dptr = entry.device_ptr.ok_or(CudaError::InvalidDevicePointer)?;
                    KernelArg::Ptr(DeviceAddr(dptr.0 + offset))
                }
                other => other,
            });
        }
        Ok(())
    }
}

impl MemoryManager {
    /// The context's memory, looked up once for the launch `set` holds.
    fn launch_mem(&self, ctx: CtxId, set: &mut LaunchSet) -> CudaResult<Arc<CtxMemory>> {
        if let Some(cm) = &set.cm {
            return Ok(Arc::clone(cm));
        }
        let cm = self.ctx_mem(ctx)?;
        set.cm = Some(Arc::clone(&cm));
        Ok(cm)
    }

    /// Walks `args` into `set` unless its walk holds for `table`'s shape.
    /// Returns whether a walk made now found every pointer's entry with its
    /// device allocation (and so the device arguments built).
    fn walk_args(
        &self,
        set: &mut LaunchSet,
        table: &PageTable,
        args: &[KernelArg],
        read_only: &[u32],
    ) -> CudaResult<bool> {
        if set.walked == Some(table.shape()) {
            return Ok(false);
        }
        self.arg_walks.fetch_add(1, Ordering::Relaxed);
        set.walk(table, args, read_only)
    }

    /// A launch attempt's one pass under `ctx`'s table lock: walks `args`
    /// into `set` unless it holds a walk of them already (see
    /// [`LaunchSet`]), and makes the working set resident on `binding` as
    /// [`Self::materialize`] does, intra-application swap included. On
    /// [`Materialize::Ready`], `set` holds the arguments as the device
    /// sees them.
    pub(crate) fn prepare_launch(
        &self,
        ctx: CtxId,
        args: &[KernelArg],
        read_only: &[u32],
        binding: &Binding,
        set: &mut LaunchSet,
    ) -> CudaResult<Materialize> {
        let cm = self.launch_mem(ctx, set)?;
        let mut table = cm.table.lock();
        let translated = self.walk_args(set, &table, args, read_only)?;
        let ready = self.materialize_locked(ctx, &cm, &mut table, set.closure(), binding)?;
        // Device addresses not known at the walk are known only now.
        if ready == Materialize::Ready && !translated {
            set.translate(&table, args)?;
        }
        Ok(ready)
    }

    /// Table 1's PTE check alone, for a launch about to be handed back
    /// (to wait for a vGPU or a device) or refused: every pointer argument,
    /// and every nested member reached from one, has an entry. Walks into
    /// the set the launch holds, with the kernel's read-only arguments (none
    /// for a kernel that is not registered), so the pass after the wait
    /// finds the walk made.
    pub(crate) fn check_ptes(
        &self,
        ctx: CtxId,
        args: &[KernelArg],
        read_only: &[u32],
        set: &mut LaunchSet,
    ) -> CudaResult<()> {
        let cm = self.launch_mem(ctx, set)?;
        let walked = self.walk_args(set, &cm.table.lock(), args, read_only);
        walked.map(|_| ())
    }

    /// The pass after the device ran the launch [`Self::prepare_launch`]
    /// readied: Figure 4's `launch` transition on its written entries.
    pub(crate) fn launched(&self, set: &LaunchSet) {
        if let Some(cm) = &set.cm {
            self.mark(&mut cm.table.lock(), set.written());
        }
    }

    /// One touch stamp, and the `launch` transition, for every entry of
    /// `bases`: data is now resident and (conservatively) dirty on device.
    fn mark(&self, table: &mut PageTable, bases: &[DeviceAddr]) {
        let touch = self.stamp();
        for &base in bases {
            if let Some(entry) = table.get_mut(base) {
                entry.flags = entry.flags.on_launch();
                entry.last_touch = touch;
            }
        }
    }

    /// Walks of launch arguments made so far: one per launch, and one more
    /// for each attempt that found its context's table changed in shape.
    pub fn arg_walks(&self) -> u64 {
        self.arg_walks.load(Ordering::Relaxed)
    }

    /// Resolves a launch's pointer arguments to PTE bases and extends the
    /// set with registered nested members (transitively), in the order
    /// [`Self::prepare_launch`] makes them resident.
    pub fn launch_closure<'a>(
        &self,
        ctx: CtxId,
        args: impl IntoIterator<Item = &'a KernelArg>,
    ) -> CudaResult<Vec<DeviceAddr>> {
        let args: Vec<KernelArg> = args.into_iter().copied().collect();
        let cm = self.ctx_mem(ctx)?;
        LaunchSet::with_spare(|set| {
            set.walk(&cm.table.lock(), &args, &[])?;
            Ok(set.closure.clone())
        })
    }

    /// Rewrites a launch's virtual pointer arguments into device pointers.
    /// All referenced entries must be resident (call [`Self::materialize`]
    /// first).
    pub fn translate_args(&self, ctx: CtxId, args: &[KernelArg]) -> CudaResult<Vec<KernelArg>> {
        let cm = self.ctx_mem(ctx)?;
        LaunchSet::with_spare(|set| {
            let table = cm.table.lock();
            if !set.walk(&table, args, &[])? {
                set.translate(&table, args)?;
            }
            Ok(set.args.clone())
        })
    }

    /// Applies the Figure 4 `launch` transition to the working set: data is
    /// now resident and (conservatively) dirty on device.
    pub fn mark_launched(&self, ctx: CtxId, bases: &[DeviceAddr]) {
        if let Ok(cm) = self.ctx_mem(ctx) {
            self.mark(&mut cm.table.lock(), bases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::VGpuId;
    use crate::memory::eviction::TouchStamp;
    use crate::memory::page_table::Flags;
    use crate::metrics::RuntimeMetrics;
    use mtgpu_api::protocol::AllocKind;
    use mtgpu_api::HostBuf;
    use mtgpu_gpusim::{DeviceId, Gpu, GpuSpec};
    use mtgpu_simtime::Clock;

    const CTX: CtxId = CtxId(1);

    /// A manager with one context, bound to a small device of its own.
    fn bound() -> (MemoryManager, Binding) {
        let m = MemoryManager::new(Default::default(), Arc::new(RuntimeMetrics::default()));
        m.register_ctx(CTX);
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::virtual_clock(), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        (m, Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu, gpu_ctx })
    }

    /// What a launch leaves behind, entry by entry.
    fn entries(m: &MemoryManager) -> Vec<(DeviceAddr, Flags, Option<DeviceAddr>, TouchStamp)> {
        let cm = m.ctx_mem(CTX).unwrap();
        let table = cm.table.lock();
        table.iter().map(|e| (e.vaddr, e.flags, e.device_ptr, e.last_touch)).collect()
    }

    /// The closure walk a launch made before its one pass: every pointer
    /// argument's base on a stack, popped into the set, each with its
    /// nested members pushed after it.
    fn walk<'a>(m: &MemoryManager, args: impl Iterator<Item = &'a KernelArg>) -> Vec<DeviceAddr> {
        let cm = m.ctx_mem(CTX).unwrap();
        let table = cm.table.lock();
        let mut stack: Vec<_> = args.filter_map(|a| table.resolve(a.as_ptr()?)).collect();
        let mut closure = Vec::new();
        while let Some((base, _)) = stack.pop() {
            if !closure.contains(&base) {
                closure.push(base);
                stack.extend(table.get(base).unwrap().nested_members.iter().map(|&b| (b, 0)));
            }
        }
        closure
    }

    /// A launch as four calls: closure, materialize, translate, mark.
    fn four_calls(
        m: &MemoryManager,
        args: &[KernelArg],
        read_only: &[u32],
        b: &Binding,
    ) -> (Materialize, Vec<KernelArg>) {
        let closure = walk(m, args.iter());
        let rw = args.iter().enumerate().filter(|(i, _)| !read_only.contains(&(*i as u32)));
        let written = if read_only.is_empty() { closure.clone() } else { walk(m, rw.map(|a| a.1)) };
        let ready = m.materialize(CTX, &closure, b).unwrap();
        if ready != Materialize::Ready {
            return (ready, Vec::new());
        }
        let device_args = m.translate_args(CTX, args).unwrap();
        m.mark_launched(CTX, &written);
        (ready, device_args)
    }

    /// The same launch as one pass and the pass after it.
    fn one_pass(
        m: &MemoryManager,
        args: &[KernelArg],
        read_only: &[u32],
        b: &Binding,
    ) -> (Materialize, Vec<KernelArg>) {
        LaunchSet::with_spare(|set| {
            let ready = m.prepare_launch(CTX, args, read_only, b, set).unwrap();
            if ready != Materialize::Ready {
                return (ready, Vec::new());
            }
            let device_args = set.device_args().to_vec();
            m.launched(set);
            (ready, device_args)
        })
    }

    #[test]
    fn the_seen_set_takes_each_base_once_as_it_grows() {
        let (mut seen, mut want) = (Seen::default(), std::collections::BTreeSet::new());
        for _ in 0..3 {
            seen.clear();
            want.clear();
            for i in 0..200u64 {
                let base = DeviceAddr((1 << 20) + (i * 7919 % 97) * 4096);
                assert_eq!(seen.insert(base), want.insert(base), "base {base}");
            }
        }
    }

    #[test]
    fn one_pass_leaves_the_flags_stamps_and_victims_the_four_calls_left() {
        let ((old, old_b), (new, new_b)) = (bound(), bound());
        let avail = old_b.gpu.mem_available();
        let sizes = [avail / 5, avail / 5, avail / 4, avail / 6, 4096, 4096, avail / 10 * 9];
        let [a, b, c, d, e, f, g] = sizes.map(|size| {
            let ptrs = [&old, &new].map(|m| m.malloc(CTX, size, AllocKind::Linear).unwrap());
            assert_eq!(ptrs[0], ptrs[1]);
            ptrs[0]
        });
        for m in [&old, &new] {
            m.register_nested(CTX, a, vec![e]).unwrap();
            m.register_nested(CTX, e, vec![f]).unwrap();
            m.copy_h2d(CTX, b, &HostBuf::from_slice(&[1; 64]), None).unwrap();
        }
        let p = |v: DeviceAddr, off: u64| KernelArg::Ptr(DeviceAddr(v.0 + off));
        let s = KernelArg::Scalar(7);
        // Resident and not, nested, read-only arguments, interior pointers,
        // pressure that evicts own entries and a set that cannot fit.
        let launches: Vec<(Vec<KernelArg>, Vec<u32>)> = vec![
            (vec![p(a, 0), p(b, 8)], vec![]),
            (vec![p(a, 0), p(b, 8)], vec![]),
            (vec![p(c, 0), s, p(d, 16)], vec![2]),
            (vec![p(b, 0), s, p(a, 64)], vec![0]),
            (vec![p(d, 0), p(e, 0), p(c, 4), p(d, 0)], vec![]),
            (vec![p(g, 0), p(a, 0)], vec![]),
            (vec![p(a, 0), p(b, 0), p(f, 0)], vec![1, 2]),
            (vec![p(c, 0), p(b, 0)], vec![]),
        ];
        let mut short = false;
        for (i, (args, read_only)) in launches.iter().enumerate() {
            if i == 3 {
                for (m, binding) in [(&old, &old_b), (&new, &new_b)] {
                    let buf = HostBuf::from_slice(&[2; 64]);
                    m.copy_h2d(CTX, c, &buf, Some(binding)).unwrap();
                }
            }
            let want = four_calls(&old, args, read_only, &old_b);
            short |= matches!(want.0, Materialize::NeedBytes(_));
            assert_eq!(one_pass(&new, args, read_only, &new_b), want, "launch {i}");
            assert_eq!(entries(&new), entries(&old), "after launch {i}");
            assert_eq!(new.resident_bytes(CTX), old.resident_bytes(CTX));
        }
        assert!(short, "one working set does not fit");
        let evicted = |m: &MemoryManager| m.metrics.snapshot().intra_app_swaps;
        assert!(evicted(&old) >= 2, "the sequence evicts own entries");
        assert_eq!(evicted(&new), evicted(&old));
        let stamps = |m: &MemoryManager| m.touch_seq.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(stamps(&new), stamps(&old));
    }
}
