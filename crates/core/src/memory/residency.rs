//! Making a launch's working set resident (§4.5): device allocation,
//! intra-application swap on memory pressure, bulk upload — one pass under
//! the context's table lock.

use crate::ctx::{Binding, CtxId};
use crate::memory::eviction::{self, EntryCandidate};
use crate::memory::manager::{CtxMemory, Materialize, MemoryManager};
use crate::memory::page_table::PageTable;
use crate::memory::transfer::{Plan, TransferOp};
use crate::metrics::RuntimeMetrics;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::{DeviceAddr, GpuError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

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
        // Allocate in working-set order (mallocs cost no simulated time);
        // an OOM evicts one own entry outside the working set and tries
        // again. The victim queue is built on the first OOM and serves the
        // whole pass: evictions only remove candidates.
        let mut victims: Option<VecDeque<DeviceAddr>> = None;
        let mut uploads = false;
        for &base in bases {
            let entry = table.get(base).ok_or(CudaError::InvalidDevicePointer)?;
            uploads |= entry.flags.to_dev();
            if entry.flags.allocated() {
                continue;
            }
            let size = entry.size;
            let dptr = loop {
                match binding.gpu.malloc(binding.gpu_ctx, size) {
                    Ok(dptr) => break dptr,
                    Err(GpuError::OutOfMemory) => {
                        if !self.evict_next_own_entry(cm, table, bases, binding, &mut victims)? {
                            return Ok(Materialize::NeedBytes(size));
                        }
                    }
                    Err(e) => return Err(CudaError::from_gpu(e)),
                }
            };
            let entry = table.get_mut(base).expect("entry seen above under this lock");
            entry.device_ptr = Some(dptr);
            entry.flags = entry.flags.on_alloc();
            cm.resident.fetch_add(size, Ordering::Relaxed);
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
                .map(TransferOp::upload),
        );
        // A failed upload keeps `to_dev`: the slab stays authoritative. The
        // first failure (in plan order) becomes the caller's error.
        let (mut uploaded, mut first_err) = (0, None);
        for out in self.run_plan(ctx, binding, plan).iter() {
            match &out.result {
                Ok(()) => {
                    RuntimeMetrics::bump(&self.metrics.bulk_uploads);
                    let entry = table.get_mut(DeviceAddr(out.base)).expect("planned above");
                    entry.flags = entry.flags.on_upload();
                    uploaded += out.size;
                }
                Err(e) => first_err = first_err.or_else(|| Some(e.clone())),
            }
        }
        self.note_dev_swap(binding.vgpu.device, uploaded, 0);
        first_err.map_or(Ok(Materialize::Ready), Err)
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
