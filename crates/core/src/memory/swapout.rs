//! Leaving the device: whole-context swap-out (Table 1's `Swap`),
//! checkpoint (§4.6) and device loss — each one pass under the context's
//! table lock.
//!
//! A pass allocates nothing: each dirty entry's writeback is an op of one
//! plan on the thread's kept buffers ([`super::transfer::Plan`]) that
//! copies the device's bytes straight into the entry's slab
//! (`SwapSlab::write_back`), and the outcomes, read in plan order, say
//! which landed.

use crate::ctx::{Binding, CtxId};
use crate::memory::manager::{MemoryManager, Recovery, SwapOutcome, SwapReason};
use crate::memory::page_table::PageTable;
use crate::memory::transfer::{Plan, TransferOp};
use crate::metrics::RuntimeMetrics;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::DeviceAddr;
use std::sync::atomic::Ordering;

impl MemoryManager {
    /// Swaps out **all** of a context's device-resident entries
    /// (synchronizing dirty ones first) and frees their device memory.
    /// This is the `Swap` internal function of Table 1 applied to the whole
    /// context — used for inter-application victims, preemption and
    /// voluntary unbinds.
    ///
    /// Dirty entries are written back as one pipelined D2H plan that runs
    /// to its end *before* any device memory is freed, and an entry's
    /// device copy is released only once its own writeback is in its slab,
    /// so a device failure mid-swap can never silently drop dirty bytes: an
    /// entry whose writeback did not land stays allocated (and dirty), and
    /// device-loss handling reports it as [`Recovery::LostDirtyData`].
    pub fn swap_out_ctx(
        &self,
        ctx: CtxId,
        binding: &Binding,
        reason: SwapReason,
    ) -> CudaResult<SwapOutcome> {
        if reason == SwapReason::InterAppVictim {
            RuntimeMetrics::bump(&self.metrics.inter_app_swaps);
        }
        let Ok(cm) = self.ctx_mem(ctx) else { return Ok(SwapOutcome::default()) };
        let mut table = cm.table.lock();
        let mut plan = Plan::new();
        plan.extend(table.iter_mut().filter(|e| e.flags.to_swap()).map(TransferOp::writeback));
        let outcomes = self.run_plan(ctx, binding, plan);
        let mut writebacks = outcomes.iter();
        // Every allocated entry in page-table order: if it was dirty, its
        // writeback is in its slab unless it failed; then free it. A dirty
        // entry whose writeback failed keeps its device copy (the only
        // current one); after a failed free the remaining frees do not run,
        // and the remaining writebacks count as landed all the same.
        let mut out = SwapOutcome::default();
        let (mut written, mut sync_err, mut free_err) = (0, None, None);
        for e in table.iter_mut().filter(|e| e.flags.allocated()) {
            let dirty = e.flags.to_swap();
            if dirty {
                match &writebacks.next().expect("one writeback per dirty entry").result {
                    Ok(()) => {
                        e.flags = e.flags.on_copy_dh();
                        written += e.size;
                    }
                    Err(err) => {
                        sync_err = sync_err.or_else(|| Some(err.clone()));
                        continue;
                    }
                }
            }
            if free_err.is_some() {
                continue;
            }
            match binding.gpu.free(binding.gpu_ctx, e.dptr()) {
                Ok(()) => {
                    out.freed += e.size;
                    if dirty {
                        out.writeback_bytes += e.size;
                    } else {
                        out.clean_bytes += e.size;
                    }
                    e.device_ptr = None;
                    e.flags = e.flags.on_swap();
                }
                Err(err) => free_err = Some(CudaError::from_gpu(err)),
            }
        }
        cm.resident.fetch_sub(out.freed, Ordering::Relaxed);
        self.note_dev_swap(binding.vgpu.device, 0, written);
        RuntimeMetrics::add(&self.metrics.swap_bytes_skipped_clean, out.clean_bytes);
        RuntimeMetrics::add(&self.metrics.swap_bytes, out.freed);
        sync_err.or(free_err).map_or(Ok(out), Err)
    }

    /// Checkpoint (§4.6): synchronize every dirty device-resident entry to
    /// the swap area *without* evicting it, leaving the context restartable.
    /// Dirty entries are synchronized as one pipelined D2H plan.
    pub fn checkpoint(&self, ctx: CtxId, binding: &Binding) -> CudaResult<()> {
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        self.checkpoint_table(ctx, &mut table, binding)
    }

    /// [`Self::checkpoint`] on a table the caller holds.
    pub(super) fn checkpoint_table(
        &self,
        ctx: CtxId,
        table: &mut PageTable,
        binding: &Binding,
    ) -> CudaResult<()> {
        let mut plan = Plan::new();
        plan.extend(table.iter_mut().filter(|e| e.flags.to_swap()).map(TransferOp::writeback));
        let (mut written, mut first_err) = (0, None);
        for out in self.run_plan(ctx, binding, plan).iter() {
            match &out.result {
                Ok(()) => {
                    let e = table.get_mut(DeviceAddr(out.base)).expect("planned above");
                    e.flags = e.flags.on_copy_dh();
                    written += out.size;
                }
                Err(e) => first_err = first_err.or_else(|| Some(e.clone())),
            }
        }
        self.note_dev_swap(binding.vgpu.device, 0, written);
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
        let Ok(cm) = self.ctx_mem(ctx) else { return Recovery::Recovered };
        let mut lost = false;
        for entry in cm.table.lock().iter_mut().filter(|e| e.flags.allocated()) {
            lost |= entry.flags.to_swap();
            entry.device_ptr = None;
            entry.flags = entry.flags.on_device_lost();
        }
        cm.resident.store(0, Ordering::Relaxed);
        if lost {
            Recovery::LostDirtyData
        } else {
            Recovery::Recovered
        }
    }
}
