//! Live context migration (DESIGN.md §15).
//!
//! [`NodeRuntime::migrate_ctx`] moves a *running* context between two
//! local devices without routing its working set through the swap tier:
//! the context is quiesced at a kernel boundary, device-current pages are
//! copied source→destination over peer-DMA lanes, the binding is rebound
//! through the dispatcher, and the context resumes — typically a
//! single PCIe hop per page instead of the D2H-writeback + lazy-H2D double
//! hop of swap-based migration.
//!
//! # Fault-safe commit ordering
//!
//! The protocol has exactly one commit point. Until
//! [`crate::memory::MemoryManager::commit_migration`] runs, **no PTE is
//! mutated**: a device death during quiesce or transfer rolls back the
//! destination allocations and leaves the context fully on its source,
//! where the ordinary device-loss path classifies every entry. After the
//! commit, the context is fully on the destination and a death there is
//! the ordinary "bound device failed" case. The lease book is never
//! touched — charges are per-context, not per-device, so its global
//! balance is invariant across migrations.

use crate::ctx::CtxId;
use crate::metrics::RuntimeMetrics;
use crate::runtime::NodeRuntime;
use crate::trace::{TraceEvent, UnbindReason};
use mtgpu_gpusim::{DeviceAddr, DeviceId, Gpu};

/// Protocol phase, exposed so fault batteries can inject a device death at
/// each boundary and abort traces can name where they stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Draining in-flight launches: the migrator must win the context's
    /// service lock, proving the application is in a CPU phase.
    Quiesce,
    /// Peer-DMA transfer of the device-current working set.
    Transfer,
    /// The atomic commit: PTE rewrite + binding swap.
    Rebind,
    /// Best-effort source cleanup; the context is already live on the
    /// destination.
    Resume,
}

impl MigrationPhase {
    /// Stable name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            MigrationPhase::Quiesce => "quiesce",
            MigrationPhase::Transfer => "transfer",
            MigrationPhase::Rebind => "rebind",
            MigrationPhase::Resume => "resume",
        }
    }
}

/// Why a migration did not happen. Every variant leaves the context fully
/// on its source device with its page table untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// No such context.
    UnknownCtx,
    /// The context is mid-call; a migration would not be at a kernel
    /// boundary. Try again next pass.
    Busy,
    /// The context cannot be moved (failed, multi-threaded application,
    /// dynamic device allocation, or not bound anywhere).
    Ineligible(&'static str),
    /// Already bound to the requested destination.
    AlreadyThere,
    /// The destination has no free vGPU (or contexts are waiting, which
    /// outranks migration).
    NoSlot,
    /// A destination allocation or peer copy failed; everything staged on
    /// the destination was rolled back.
    TransferFailed,
}

/// What a completed migration moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStats {
    pub from: DeviceId,
    pub to: DeviceId,
    /// Bytes copied device-to-device (device-current entries).
    pub p2p_bytes: u64,
    /// Entries whose bytes travelled with the context.
    pub moved_entries: usize,
    /// Slab-authoritative entries whose stale source copy was dropped
    /// (they rematerialize lazily on the destination).
    pub dropped_entries: usize,
}

impl NodeRuntime {
    /// Live-migrates `ctx` to device `dst`: quiesce → transfer → rebind →
    /// resume. See the module docs for the fault model.
    pub fn migrate_ctx(&self, ctx: CtxId, dst: DeviceId) -> Result<MigrationStats, MigrationError> {
        self.migrate_ctx_probed(ctx, dst, &mut |_| {})
    }

    /// [`Self::migrate_ctx`] with a phase probe, called at the *start* of
    /// each protocol phase — the fault battery's injection point.
    #[doc(hidden)]
    pub fn migrate_ctx_probed(
        &self,
        ctx_id: CtxId,
        dst: DeviceId,
        probe: &mut dyn FnMut(MigrationPhase),
    ) -> Result<MigrationStats, MigrationError> {
        // Phase 1 — quiesce. Winning the service lock means no call (and
        // therefore no launch) is in flight: the context sits at a kernel
        // boundary for as long as we hold it.
        probe(MigrationPhase::Quiesce);
        let ctx = self.context(ctx_id).ok_or(MigrationError::UnknownCtx)?;
        let Some(_service) = ctx.try_service_lock() else {
            return Err(MigrationError::Busy);
        };
        if !ctx.is_eligible() {
            return Err(MigrationError::Ineligible("dynamic device allocation"));
        }
        {
            let inner = ctx.inner();
            if inner.failed.is_some() {
                return Err(MigrationError::Ineligible("context failed"));
            }
            // §4.8: threads of one application stay together; migrating one
            // alone would split the application across devices.
            if inner.app_id.is_some() {
                return Err(MigrationError::Ineligible("multi-threaded application"));
            }
        }
        let old = ctx.binding().ok_or(MigrationError::Ineligible("not bound"))?;
        if old.vgpu.device == dst {
            return Err(MigrationError::AlreadyThere);
        }
        // One migration at a time per node: the turnstile serializes PTE
        // rewrites against each other (rank order: CTX_SERVICE → MIGRATION
        // → scheduler/memory locks).
        let mut turnstile = self.migration_turnstile().lock();
        // A shadowed sequence: each migration is an audited write.
        **turnstile += 1;
        // Reserve the destination slot *before* touching anything, so a full
        // destination can never strand the context.
        let new = self.bindings().try_acquire_on(ctx_id, dst).ok_or(MigrationError::NoSlot)?;

        // Phase 2 — transfer. Device-current entries are copied peer-to-
        // peer, each with its place among the moves, which picks its copy
        // engine as in a plan. No PTE is mutated here: failure rolls the
        // destination back and the context never left its source.
        probe(MigrationPhase::Transfer);
        let plan = self.memory().migration_plan(ctx_id);
        let mut moves: Vec<(DeviceAddr, DeviceAddr)> = Vec::new();
        let mut dropped: Vec<DeviceAddr> = Vec::new();
        let mut p2p_bytes = 0u64;
        let mut skipped_bytes = 0u64;
        let mut transfer_failed = false;
        for entry in &plan {
            if !entry.device_current {
                dropped.push(entry.vaddr);
                skipped_bytes += entry.size;
                continue;
            }
            let Ok(dst_ptr) = new.gpu.malloc(new.gpu_ctx, entry.size) else {
                transfer_failed = true;
                break;
            };
            let copied = Gpu::memcpy_p2p(
                &old.gpu,
                old.gpu_ctx,
                entry.src_dptr,
                &new.gpu,
                new.gpu_ctx,
                dst_ptr,
                entry.size,
                moves.len(),
            );
            if copied.is_err() {
                let _ = new.gpu.free(new.gpu_ctx, dst_ptr);
                transfer_failed = true;
                break;
            }
            moves.push((entry.vaddr, dst_ptr));
            p2p_bytes += entry.size;
        }
        if transfer_failed {
            for &(_, dst_ptr) in &moves {
                let _ = new.gpu.free(new.gpu_ctx, dst_ptr);
            }
            self.bindings().release(ctx_id, new.vgpu);
            RuntimeMetrics::bump(&self.metrics_ref().migration_failures);
            self.tracer().record(TraceEvent::MigrationAborted {
                ctx: ctx_id,
                phase: MigrationPhase::Transfer.name().to_string(),
            });
            return Err(MigrationError::TransferFailed);
        }

        // Phase 3 — rebind: the single atomic commit point. PTEs flip to
        // their destination pointers (flags untouched — dirty stays dirty,
        // now on the destination) and the binding swaps in the same
        // quiesced window.
        probe(MigrationPhase::Rebind);
        self.memory().commit_migration(ctx_id, &moves, &dropped);
        let new_vgpu = new.vgpu;
        ctx.inner().binding = Some(new);

        // Phase 4 — resume: free the stale source copies. Best-effort by
        // design — the data is already committed on the destination, and a
        // dead source simply leaks allocations on a dead device. The source
        // slot goes last: its release tells whoever waits for room there
        // that the room is made.
        probe(MigrationPhase::Resume);
        for entry in &plan {
            let _ = old.gpu.free(old.gpu_ctx, entry.src_dptr);
        }
        self.bindings().release(ctx_id, old.vgpu);
        let from = old.vgpu.device;
        self.tracer().record(TraceEvent::MigrationTransferred {
            ctx: ctx_id,
            p2p_bytes,
            skipped_bytes,
            // Move i ran on copy engine i % copy_engines.
            lanes: moves.len().min(old.gpu.spec().copy_engines.max(1) as usize) as u32,
        });
        self.tracer().record(TraceEvent::Unbound {
            ctx: ctx_id,
            vgpu: old.vgpu,
            reason: UnbindReason::Migration,
        });
        self.tracer().record(TraceEvent::Migrated { ctx: ctx_id, from, to: dst });
        self.tracer().record(TraceEvent::Bound { ctx: ctx_id, vgpu: new_vgpu });
        RuntimeMetrics::bump(&self.metrics_ref().migrations);
        RuntimeMetrics::bump(&self.metrics_ref().live_migrations);
        RuntimeMetrics::add(&self.metrics_ref().migration_p2p_bytes, p2p_bytes);
        Ok(MigrationStats {
            from,
            to: dst,
            p2p_bytes,
            moved_entries: moves.len(),
            dropped_entries: dropped.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use mtgpu_api::client::CudaClient;
    use mtgpu_gpusim::{Driver, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
    use mtgpu_simtime::Clock;

    /// The `lanes` traced by migrating, between two C2050s, a context that
    /// holds `entries` device-resident buffers.
    fn traced_lanes(entries: usize) -> u32 {
        let c2050 = GpuSpec::tesla_c2050();
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![c2050.clone(), c2050]);
        let cfg = RuntimeConfig::default().with_vgpus(1).with_background_monitor(false);
        let rt = NodeRuntime::start(driver, cfg);
        let mut c = rt.local_client();
        let module = c.register_fat_binary().unwrap();
        c.register_function(module, KernelDesc::plain("noop")).unwrap();
        let args = (0..entries).map(|_| KernelArg::Ptr(c.malloc(4096).unwrap())).collect();
        let config = LaunchConfig::default();
        c.launch(LaunchSpec { kernel: "noop".into(), config, args, work: Work::flops(1.0) })
            .unwrap();
        let from = rt.binding_of(CtxId(1)).expect("bound by its launch").device;
        rt.migrate_ctx(CtxId(1), DeviceId(1 - from.0)).unwrap();
        let lanes = rt.trace().iter().find_map(|r| match r.event {
            TraceEvent::MigrationTransferred { lanes, .. } => Some(lanes),
            _ => None,
        });
        c.exit().unwrap();
        rt.shutdown();
        lanes.expect("a migration was traced")
    }

    #[test]
    fn a_migration_traces_the_copy_engines_its_moves_ran_on() {
        assert_eq!(traced_lanes(1), 1);
        assert_eq!(traced_lanes(2), 2);
    }
}
