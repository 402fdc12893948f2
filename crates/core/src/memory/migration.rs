//! The memory manager's side of live migration (DESIGN.md §15): what has
//! to move, and the single commit that says it has.

use crate::ctx::CtxId;
use crate::memory::manager::{MemoryManager, MigrationEntry};
use mtgpu_gpusim::DeviceAddr;
use std::sync::atomic::Ordering;

impl MemoryManager {
    /// Plans a live migration: every allocated entry of `ctx`, in
    /// page-table order. Entries whose device copy is current
    /// (`device_current`) must move with the context (peer-DMA on the
    /// transfer lanes); the rest are slab-authoritative and their source
    /// copies are simply dropped, rematerializing lazily on the
    /// destination. The plan does **not** mutate any PTE — a failure
    /// between plan and [`Self::commit_migration`] leaves the context
    /// fully on its source with every flag intact.
    pub fn migration_plan(&self, ctx: CtxId) -> Vec<MigrationEntry> {
        let Ok(cm) = self.ctx_mem(ctx) else { return Vec::new() };
        let table = cm.table.lock();
        table
            .iter()
            .filter(|e| e.flags.allocated())
            .map(|e| MigrationEntry {
                vaddr: e.vaddr,
                src_dptr: e.dptr(),
                size: e.size,
                device_current: !e.flags.to_dev(),
            })
            .collect()
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
        let Ok(cm) = self.ctx_mem(ctx) else { return };
        let mut table = cm.table.lock();
        table.reshaped();
        for &(vaddr, dst_dptr) in moves {
            if let Some(entry) = table.get_mut(vaddr) {
                entry.device_ptr = Some(dst_dptr);
            }
        }
        for &vaddr in dropped {
            if let Some(entry) = table.get_mut(vaddr).filter(|e| e.flags.allocated()) {
                entry.device_ptr = None;
                entry.flags = entry.flags.on_swap();
                cm.resident.fetch_sub(entry.size, Ordering::Relaxed);
            }
        }
    }
}
