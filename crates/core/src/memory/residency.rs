//! Making a launch's working set resident (§4.5): device allocation,
//! intra-application swap on memory pressure, bulk upload — one pass under
//! the context's table lock.
//!
//! The pass's device calls are batches: one for the entries to allocate
//! ([`mtgpu_gpusim::Gpu::malloc_batch`], their addresses in a buffer the
//! thread keeps) and one for the uploads (a [`super::transfer::Plan`],
//! which the device spreads over its copy engines). Only an allocation the
//! device refuses sends the pass on entry by entry, each refusal evicting
//! one of the context's own entries outside the working set, so the
//! first-fit addresses are those of one malloc per entry in working-set
//! order.

use crate::ctx::{Binding, CtxId};
use crate::memory::eviction::{self, EntryCandidate};
use crate::memory::manager::{CtxMemory, Materialize, MemoryManager};
use crate::memory::page_table::{PageTable, PageTableEntry};
use crate::memory::transfer::Plan;
use crate::metrics::RuntimeMetrics;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::{CopyOp, DeviceAddr, GpuError};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

thread_local! {
    /// The device addresses of the thread's last allocation batch.
    static ADDRS: Cell<Vec<DeviceAddr>> = const { Cell::new(Vec::new()) };
}

impl MemoryManager {
    /// Makes every entry in `bases` device-resident and uploaded on the
    /// bound device, applying **intra-application swap** on memory pressure
    /// (§4.5). Returns [`Materialize::NeedBytes`] if the device cannot hold
    /// the working set even after evicting everything else this context
    /// owns — before anybody else's table is touched: the service layer
    /// picks a victim only after this pass has let go of the lock.
    pub fn materialize(
        &self,
        ctx: CtxId,
        bases: &[DeviceAddr],
        binding: &Binding,
    ) -> CudaResult<Materialize> {
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        self.materialize_locked(ctx, &cm, &mut table, bases, binding)
    }

    /// [`Self::materialize`] under the table lock the caller holds.
    pub(super) fn materialize_locked(
        &self,
        ctx: CtxId,
        cm: &CtxMemory,
        table: &mut PageTable,
        bases: &[DeviceAddr],
        binding: &Binding,
    ) -> CudaResult<Materialize> {
        let (mut uploads, mut missing) = (false, false);
        for &base in bases {
            let entry = table.get(base).ok_or(CudaError::InvalidDevicePointer)?;
            uploads |= entry.flags.to_dev();
            missing |= !entry.flags.allocated();
        }
        if missing {
            if let Some(need) = self.allocate(cm, table, bases, binding)? {
                return Ok(Materialize::NeedBytes(need));
            }
        }
        let touch = self.stamp();
        for &base in bases {
            table.get_mut(base).expect("allocated above").last_touch = touch;
        }
        if !uploads {
            return Ok(Materialize::Ready);
        }
        // One upload per entry awaiting its slab, in working-set order,
        // straight from the slab, across the copy engines.
        let mut plan = Plan::new();
        plan.extend(
            bases
                .iter()
                .filter_map(|&base| table.get(base))
                .filter(|e| e.flags.to_dev())
                .map(|e| CopyOp::h2d(e.dptr(), e.size, &e.slab.data)),
        );
        // The ops, in plan order, are the working set's entries that await
        // their slabs. A failed upload keeps `to_dev`: the slab stays
        // authoritative. The first failure becomes the caller's error.
        let plan = self.run_plan(ctx, binding, plan);
        let mut ops = plan.iter().peekable();
        let (mut uploaded, mut first_err) = (0, None);
        for &base in bases {
            let entry = table.get_mut(base).expect("allocated above");
            let Some(op) = ops.next_if(|op| op.addr == entry.dptr()) else { continue };
            match &op.result {
                Ok(()) => {
                    RuntimeMetrics::bump(&self.metrics.bulk_uploads);
                    entry.flags = entry.flags.on_upload();
                    uploaded += entry.size;
                }
                Err(e) => first_err = first_err.or_else(|| Some(CudaError::from_gpu(e.clone()))),
            }
        }
        self.note_dev_swap(binding.vgpu.device, uploaded, 0);
        first_err.map_or(Ok(Materialize::Ready), Err)
    }

    /// Gives every entry of `bases` without one its device allocation, in
    /// working-set order: one batch, then, from an entry the device refuses
    /// on, one malloc per entry with own-entry eviction. Returns the bytes
    /// of an entry that found no room even with nothing else of the
    /// context's left on the device.
    fn allocate(
        &self,
        cm: &CtxMemory,
        table: &mut PageTable,
        bases: &[DeviceAddr],
        binding: &Binding,
    ) -> CudaResult<Option<u64>> {
        // Allocate in working-set order (mallocs cost no simulated time), in
        // one call that stops at the first refusal.
        let mut addrs = ADDRS.take();
        let sizes = bases.iter().filter_map(|&base| table.get(base));
        let sizes = sizes.filter(|e| !e.flags.allocated()).map(|e| e.size);
        let batch = binding.gpu.malloc_batch(binding.gpu_ctx, sizes, &mut addrs);
        let mut made = addrs.iter();
        for &base in bases {
            let entry = table.get_mut(base).expect("checked above");
            if !entry.flags.allocated() {
                let Some(&dptr) = made.next() else { break };
                Self::allot(cm, entry, dptr);
            }
        }
        ADDRS.set(addrs);
        match batch {
            Ok(()) => {}
            Err(GpuError::OutOfMemory) => {
                // From the refused entry on, one malloc per entry: an OOM
                // evicts one own entry outside the working set and tries
                // again. The victim queue is built on the first OOM and
                // serves the whole pass: evictions only remove candidates.
                let mut victims: Option<VecDeque<DeviceAddr>> = None;
                let mut refused = true;
                for &base in bases {
                    let entry = table.get(base).expect("checked above");
                    if entry.flags.allocated() {
                        continue;
                    }
                    let size = entry.size;
                    let dptr = loop {
                        // The batch's refusal was the first entry's first try.
                        if !std::mem::take(&mut refused) {
                            match binding.gpu.malloc(binding.gpu_ctx, size) {
                                Ok(dptr) => break dptr,
                                Err(GpuError::OutOfMemory) => {}
                                Err(e) => return Err(CudaError::from_gpu(e)),
                            }
                        }
                        if !self.evict_next_own_entry(cm, table, bases, binding, &mut victims)? {
                            return Ok(Some(size));
                        }
                    };
                    Self::allot(cm, table.get_mut(base).expect("seen above"), dptr);
                }
            }
            Err(e) => return Err(CudaError::from_gpu(e)),
        }
        Ok(None)
    }

    /// Records `dptr` as the device allocation of `entry`.
    fn allot(cm: &CtxMemory, entry: &mut PageTableEntry, dptr: DeviceAddr) {
        entry.device_ptr = Some(dptr);
        entry.flags = entry.flags.on_alloc();
        cm.resident.fetch_add(entry.size, Ordering::Relaxed);
    }

    /// Evicts the next victim among the context's own resident entries
    /// outside the working set, in [`eviction::order_entry_victims`]' order.
    /// Returns `false` when there is nothing left to evict.
    fn evict_next_own_entry(
        &self,
        cm: &CtxMemory,
        table: &mut PageTable,
        protected: &[DeviceAddr],
        binding: &Binding,
        victims: &mut Option<VecDeque<DeviceAddr>>,
    ) -> CudaResult<bool> {
        let queue = victims.get_or_insert_with(|| {
            let mut cands: Vec<EntryCandidate> = table
                .iter()
                .filter(|e| e.flags.allocated() && !protected.contains(&e.vaddr))
                .map(|e| EntryCandidate {
                    vaddr: e.vaddr.0,
                    size: e.size,
                    dirty: e.flags.to_swap(),
                    last_touch: e.last_touch,
                })
                .collect();
            eviction::order_entry_victims(&mut cands, self.touch_seq.load(Ordering::Relaxed));
            cands.into_iter().map(|c| DeviceAddr(c.vaddr)).collect()
        });
        let Some(base) = queue.pop_front() else { return Ok(false) };
        let entry = table.get_mut(base).expect("queued under this lock");
        let (dptr, size, synced) = (entry.dptr(), entry.size, entry.flags.to_swap());
        // The device copy lands in the slab before the device memory goes.
        if synced {
            entry.write_back(&binding.gpu, binding.gpu_ctx)?;
        }
        binding.gpu.free(binding.gpu_ctx, dptr).map_err(CudaError::from_gpu)?;
        RuntimeMetrics::bump(&self.metrics.intra_app_swaps);
        RuntimeMetrics::add(&self.metrics.swap_bytes, size);
        if synced {
            self.note_dev_swap(binding.vgpu.device, 0, size);
        }
        entry.device_ptr = None;
        entry.flags = entry.flags.on_swap();
        cm.resident.fetch_sub(size, Ordering::Relaxed);
        Ok(true)
    }
}
