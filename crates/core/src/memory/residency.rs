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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::VGpuId;
    use crate::memory::launch::LaunchSet;
    use crate::memory::manager::{MemoryConfig, SwapReason};
    use mtgpu_api::protocol::AllocKind;
    use mtgpu_api::HostBuf;
    use mtgpu_gpusim::{DeviceId, Gpu, GpuSpec, KernelArg};
    use mtgpu_simtime::{Clock, SimDuration};
    use std::sync::Arc;

    const CTX: CtxId = CtxId(1);
    /// What a buffer declares, and so what the PCIe model charges; it
    /// carries 4 KiB, so host memory stays small.
    const BUFFER: u64 = 4 << 20;

    /// A manager with one context, bound to a `spec` device of its own on
    /// the virtual clock.
    fn bound(spec: GpuSpec) -> (MemoryManager, Binding) {
        let m = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        m.register_ctx(CTX);
        let gpu = Gpu::new(spec, Clock::virtual_clock(), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        (m, Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu, gpu_ctx })
    }

    /// `n` buffers, each with a payload uploaded into its slab.
    fn dirty(m: &MemoryManager, n: usize) -> Vec<KernelArg> {
        (0..n)
            .map(|i| {
                let v = m.malloc(CTX, BUFFER, AllocKind::Linear).unwrap();
                let buf = HostBuf::with_shadow(BUFFER, vec![(i % 251) as u8; 4096]);
                m.copy_h2d(CTX, v, &buf, None).unwrap();
                KernelArg::Ptr(v)
            })
            .collect()
    }

    /// A launch's passes as the service makes them: the working set made
    /// resident, then the written entries marked.
    fn launch(m: &MemoryManager, b: &Binding, args: &[KernelArg], read_only: &[u32]) {
        LaunchSet::with_spare(|set| {
            let ready = m.prepare_launch(CTX, args, read_only, b, set).unwrap();
            assert_eq!(ready, Materialize::Ready, "the working set fits");
            m.launched(set);
        });
    }

    #[test]
    fn two_copy_engines_each_carry_half_of_a_swap_in_and_of_a_swap_out() {
        // Per-engine busy time of bringing 16 dirty buffers in, then of
        // swapping them out.
        let busy = |copy_engines| {
            let (m, b) = bound(GpuSpec { copy_engines, ..GpuSpec::tesla_c2050() });
            launch(&m, &b, &dirty(&m, 16), &[]);
            let swap_in = b.gpu.engine_busy_times();
            let out = m.swap_out_ctx(CTX, &b, SwapReason::Unbind).unwrap();
            assert_eq!(out.freed, 16 * BUFFER);
            let total = b.gpu.engine_busy_times();
            let swap_out: Vec<_> = total.iter().zip(&swap_in).map(|(&t, &i)| t - i).collect();
            (swap_in, swap_out)
        };
        let (one_in, one_out) = busy(1);
        let (two_in, two_out) = busy(2);
        for (phase, one, two) in [("swap-in", one_in, two_in), ("swap-out", one_out, two_out)] {
            assert!(one[0] > SimDuration::ZERO, "{phase} moved nothing");
            assert_eq!(two, [one[0] / 2; 2], "{phase}: one engine was busy for {:?}", one[0]);
        }
    }

    /// `(factor, h2d MiB, d2h MiB, intra_app_swaps)` of the rotation below,
    /// as measured on the commit that made this victim order the only one.
    const OVERSUB_EXPECTED: [(f64, u64, u64, u64); 3] =
        [(1.5, 92, 0, 8), (2.0, 120, 0, 15), (4.0, 240, 0, 45)];

    #[test]
    fn the_victim_order_streams_stale_clean_buffers_past_a_dirty_hot_set() {
        // A rotation of `factor` × device memory: a hot kernel rewrites its
        // six buffers, then each of two streaming kernels reads one fresh
        // cold buffer and leaves it clean. The cold buffers are allocated
        // first (low addresses) and the hot set last, so a largest-first
        // order with a highest-address tie-break would evict the hot set.
        for (factor, h2d_mib, d2h_mib, swaps) in OVERSUB_EXPECTED {
            let (m, b) = bound(GpuSpec { copy_engines: 2, ..GpuSpec::test_small() });
            let capacity = (b.gpu.mem_available() / BUFFER) as usize;
            let total = (capacity as f64 * factor).round() as usize;
            let cold = dirty(&m, total - 6);
            let hot = dirty(&m, 6);
            for chunk in cold.chunks(2) {
                launch(&m, &b, &hot, &[]);
                for c in chunk {
                    launch(&m, &b, std::slice::from_ref(c), &[0]);
                }
            }
            let moved = b.gpu.stats().snapshot();
            let got = (moved.h2d_bytes, moved.d2h_bytes, m.metrics.snapshot().intra_app_swaps);
            assert_eq!(got, (h2d_mib << 20, d2h_mib << 20, swaps), "{factor}x");
        }
    }
}
