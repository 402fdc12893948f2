//! Leaving the device: whole-context swap-out (Table 1's `Swap`),
//! checkpoint (§4.6) and device loss — each one pass under the context's
//! table lock.
//!
//! A pass allocates nothing: each dirty entry's writeback is an op of one
//! plan on the thread's kept buffer ([`super::transfer::Plan`]) that
//! copies the device's bytes straight into the entry's slab, and the ops'
//! results, read in plan order, say which landed. The plan is one device
//! call, and a swap-out frees its entries in one more
//! ([`mtgpu_gpusim::Gpu::free_batch`]).

use crate::ctx::{Binding, CtxId};
use crate::memory::manager::{MemoryManager, Recovery, SwapOutcome, SwapReason};
use crate::memory::page_table::{PageTable, PageTableEntry};
use crate::memory::transfer::Plan;
use crate::metrics::RuntimeMetrics;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::CopyOp;
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
        let (plan, sync_err) = self.write_back_dirty(ctx, &mut table, binding);
        // Every allocated entry whose slab is current, in page-table order,
        // in one free call that stops at its first failure. A dirty entry
        // whose writeback failed keeps its device copy (the only current
        // one); the writebacks that landed count as landed whether or not
        // their entries were freed.
        let freeable = |e: &PageTableEntry| e.flags.allocated() && !e.flags.to_swap();
        let dptrs = table.iter().filter(|e| freeable(e)).map(PageTableEntry::dptr);
        let (freed, free_res) = binding.gpu.free_batch(binding.gpu_ctx, dptrs);
        // The entries written back are the ones whose writebacks landed, in
        // the same order.
        let mut landed = plan.iter().filter(|op| op.result.is_ok()).map(|op| op.addr).peekable();
        let mut out = SwapOutcome::default();
        for e in table.iter_mut().filter(|e| freeable(e)).take(freed) {
            if landed.next_if_eq(&e.dptr()).is_some() {
                out.writeback_bytes += e.size;
            } else {
                out.clean_bytes += e.size;
            }
            out.freed += e.size;
            e.device_ptr = None;
            e.flags = e.flags.on_swap();
        }
        cm.resident.fetch_sub(out.freed, Ordering::Relaxed);
        RuntimeMetrics::add(&self.metrics.swap_bytes_skipped_clean, out.clean_bytes);
        RuntimeMetrics::add(&self.metrics.swap_bytes, out.freed);
        let free_err = free_res.err().map(CudaError::from_gpu);
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
        if let (_, Some(e)) = self.write_back_dirty(ctx, table, binding) {
            return Err(e);
        }
        RuntimeMetrics::bump(&self.metrics.checkpoints);
        Ok(())
    }

    /// Writes every dirty entry of `table` back into its slab as one
    /// pipelined D2H plan, applies Figure 4's `copy_dh` to the ones that
    /// landed and counts their bytes as the device's swap traffic. Returns
    /// the plan that ran and the first failure in plan order.
    fn write_back_dirty(
        &self,
        ctx: CtxId,
        table: &mut PageTable,
        binding: &Binding,
    ) -> (Plan<'static>, Option<CudaError>) {
        let mut plan = Plan::new();
        plan.extend(
            table
                .iter_mut()
                .filter(|e| e.flags.to_swap())
                .map(|e| CopyOp::d2h(e.dptr(), e.size, &mut e.slab.data)),
        );
        let plan = self.run_plan(ctx, binding, plan);
        // The ops, in plan order, are the dirty entries in table order.
        let (mut written, mut first_err) = (0, None);
        for (e, op) in table.iter_mut().filter(|e| e.flags.to_swap()).zip(plan.iter()) {
            match &op.result {
                Ok(()) => {
                    e.slab.landed();
                    e.flags = e.flags.on_copy_dh();
                    written += e.size;
                }
                Err(err) => {
                    first_err = first_err.or_else(|| Some(CudaError::from_gpu(err.clone())))
                }
            }
        }
        self.note_dev_swap(binding.vgpu.device, 0, written);
        (plan, first_err)
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
