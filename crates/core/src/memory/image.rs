//! Context images (§4.6): a checkpointed context's whole memory, virtual
//! addresses preserved, out of one runtime and into another.

use crate::ctx::{Binding, CtxId};
use crate::memory::manager::MemoryManager;
use crate::memory::page_table::{Flags, PageTableEntry, SwapSlab};
use mtgpu_api::protocol::{ContextImage, ImageEntry};
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::device::DEFAULT_MATERIALIZE_CAP;
use std::sync::atomic::Ordering;

impl MemoryManager {
    /// Checkpoints (if bound) and exports the context's complete memory
    /// image with virtual addresses preserved (§4.6). The image is
    /// host-authoritative: residency is not captured — restoration
    /// re-materializes lazily at the next launch.
    pub fn export_image(
        &self,
        ctx: CtxId,
        label: &str,
        binding: Option<&Binding>,
    ) -> CudaResult<ContextImage> {
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        if let Some(b) = binding {
            self.checkpoint_table(ctx, &mut table, b)?;
        }
        let entries = table
            .iter()
            .map(|e| ImageEntry {
                vaddr: e.vaddr,
                size: e.size,
                kind: e.kind,
                data: e.slab.data.clone(),
                nested_members: e.nested_members.clone(),
                nested_parent: e.nested_parent,
            })
            .collect();
        Ok(ContextImage { label: label.to_string(), entries })
    }

    /// Restores an exported image into a context with an empty page table,
    /// preserving every virtual address. Fails with
    /// [`CudaError::InvalidValue`] if the context already has allocations,
    /// and with [`CudaError::SwapAllocation`] if the swap area cannot hold
    /// the image. Either way the context's later mallocs land past the
    /// image's range: the cursor is lifted first.
    pub fn import_image(&self, ctx: CtxId, image: ContextImage) -> CudaResult<()> {
        let cm = self.ctx_mem(ctx)?;
        let mut table = cm.table.lock();
        table.cursor.lift(&image);
        if !table.is_empty() {
            return Err(CudaError::InvalidValue);
        }
        let declared = image.declared_bytes();
        self.node.lock().swap.reserve(declared)?;
        cm.usage.fetch_add(declared, Ordering::Relaxed);
        let last_touch = self.stamp();
        // Host-authoritative: upload before the next kernel use.
        let flags = Flags::new(false, true, false).expect("a Figure 4 state");
        for e in image.entries {
            let mut slab = SwapSlab::new(e.size, DEFAULT_MATERIALIZE_CAP);
            slab.write(0, &e.data);
            table.insert(PageTableEntry {
                vaddr: e.vaddr,
                size: e.size,
                device_ptr: None,
                flags,
                kind: e.kind,
                slab,
                nested_members: e.nested_members,
                nested_parent: e.nested_parent,
                last_touch,
            });
        }
        Ok(())
    }
}
