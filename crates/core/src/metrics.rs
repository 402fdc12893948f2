//! Runtime-wide counters: the numbers the paper annotates its figures with
//! (swap operations in Figs. 7–8, migrations in Fig. 9, offloads in §5.4).

use mtgpu_gpusim::DeviceId;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// One device's utilization sample, taken when a [`MetricsSnapshot`] is
/// assembled: the pressure signals the rebalancer scores placements with
/// (DESIGN.md §15), surfaced so operators can see them too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DeviceUtilization {
    pub device: DeviceId,
    /// Bytes currently device-resident across every context bound here.
    pub resident_bytes: u64,
    /// Cumulative bytes swapped *in* to this device (uploads committed by
    /// materialize).
    pub swap_in_bytes: u64,
    /// Cumulative bytes swapped *out* of this device (writebacks).
    pub swap_out_bytes: u64,
    /// Contexts currently bound to this device's vGPUs.
    pub bound_contexts: u32,
    /// Kernels queued or running on the compute engine right now.
    pub queue_depth: u64,
}

/// Declares every counter once: generates [`RuntimeMetrics`] (one
/// `AtomicU64` per counter), [`MetricsSnapshot`] (one `u64` per counter, in
/// declaration order and under the same serialized name, then `per_device`)
/// and [`RuntimeMetrics::snapshot`].
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Lock-free counters owned by the node runtime.
        #[derive(Debug, Default)]
        pub struct RuntimeMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Serializable snapshot of [`RuntimeMetrics`].
        ///
        /// `per_device` is populated by [`crate::NodeRuntime::metrics`] (the
        /// raw counter struct has no device axis); snapshots taken straight
        /// off [`RuntimeMetrics::snapshot`] leave it empty.
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
        pub struct MetricsSnapshot {
            $(pub $name: u64,)*
            /// Per-device utilization samples, in device-id order (empty
            /// unless assembled by the node runtime).
            pub per_device: Vec<DeviceUtilization>,
        }

        impl RuntimeMetrics {
            /// Takes a snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    per_device: Vec::new(),
                }
            }
        }
    };
}

counters! {
    /// Intra-application swap-outs (per PTE evicted), §4.5.
    intra_app_swaps,
    /// Inter-application swap-outs (per victim context), §4.5.
    inter_app_swaps,
    /// Bytes moved device→swap by swap operations.
    swap_bytes,
    /// Bytes freed by `swap_out_ctx` without a writeback because the entry
    /// was clean (swap slab already current) — bandwidth the deferral
    /// machinery saved.
    swap_bytes_skipped_clean,
    /// Transfer plans (materialize/swap/checkpoint batches) executed.
    transfer_plans,
    /// Plans that put more than one transfer in flight at once (≥2 ops on
    /// ≥2 copy-engine lanes).
    transfer_overlap_events,
    /// `copy_d2d` calls served device-side (one bus copy) instead of the
    /// host D2H+H2D double hop.
    d2d_device_copies,
    /// Contexts migrated between devices (dynamic binding), §5.3.4: the
    /// per-bar annotation of Fig. 9. Every migration is a live one.
    migrations,
    /// Live migrations (`migrate_ctx`): quiesce → transfer → rebind →
    /// resume without routing the working set through the swap tier.
    live_migrations,
    /// Bytes moved device-to-device by live migrations (peer DMA lanes).
    migration_p2p_bytes,
    /// Live migrations aborted and rolled back (destination full, device
    /// death mid-transfer); the context stayed fully on its source.
    migration_failures,
    /// Migrations the monitor's load-balancing pass made (subset of
    /// `live_migrations`; the rest were asked for through `migrate_ctx`, or
    /// picked by a pass while the context was mid-call and made by its next
    /// launch).
    rebalance_migrations,
    /// Connections relayed to another node, §4.7.
    offloaded_connections,
    /// Context-to-vGPU bindings granted.
    bindings,
    /// Unbinds of any kind (victim, voluntary, failure).
    unbindings,
    /// Kernel launches serviced.
    launches,
    /// Launches that had to unbind-and-retry for lack of memory: each waits
    /// in the dispatcher for a co-tenant to make room.
    launch_retries,
    /// Host→device bulk uploads performed at launch time.
    bulk_uploads,
    /// Application copy calls absorbed into an already-dirty swap slab
    /// (the "single, bulk memory transfer" optimization, §4.5).
    coalesced_copies,
    /// Bad memory operations rejected before reaching the GPU (§4.5).
    bad_ops_rejected,
    /// Checkpoints taken (explicit + automatic).
    checkpoints,
    /// Contexts recovered after a device failure/removal.
    recovered_contexts,
    /// Contexts lost to a device failure (dirty data without checkpoint).
    failed_contexts,
    /// Grants made to an entry of the dispatcher's waiting list, each
    /// delivered by waking exactly the granted waiter.
    targeted_wakeups,
    /// Nothing bumps this any more: a waiting entry belongs to no device,
    /// so none is ever sent to place again. Kept declared because the
    /// frozen benchmark reads it by name (ROADMAP item 3).
    waiter_reroutes,
    /// Contended ranked-lock acquisitions observed by the monitor (debug
    /// builds only; release builds compile the probe out, and sequential
    /// deterministic drivers never contend, so this stays 0 under replay).
    lock_contention_events,
    /// Requests served through the multiplexed gateway (DESIGN.md §12).
    mux_requests,
    /// Launches queued in the dispatcher (the would-block path): for a
    /// vGPU, or for room after an unbind-and-retry (`launch_retries`
    /// counts those). A wire channel's launch is put back at the head of
    /// its channel; an in-process client's waits on the client's thread,
    /// and counts here too.
    mux_retries,
    /// Channels (contexts) opened over multiplexed connections.
    mux_channels,
    /// Allocations/context creations refused by the admission controller
    /// (tenant over its lease's `mem_mb`/`max_contexts`, or the node over
    /// its global admission cap).
    quota_rejections,
    /// Tenant leases that reached their TTL on the virtual clock.
    lease_expiries,
    /// Contexts reaped (failed + evicted + freed) because their tenant's
    /// lease expired.
    lease_reaps,
    /// Lower-priority victim contexts evicted by priority preemption.
    priority_preemptions,
    /// Requests rejected by Guardian-style descriptor validation before
    /// reaching scheduling or dispatch.
    descriptor_rejections,
}

impl MetricsSnapshot {
    /// Total swap operations, the per-bar annotation of Figs. 7–8.
    pub fn total_swaps(&self) -> u64 {
        self.intra_app_swaps + self.inter_app_swaps
    }
}

impl RuntimeMetrics {
    /// Increment a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a counter by `v`.
    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_totals() {
        let m = RuntimeMetrics::default();
        RuntimeMetrics::bump(&m.intra_app_swaps);
        RuntimeMetrics::bump(&m.intra_app_swaps);
        RuntimeMetrics::bump(&m.inter_app_swaps);
        RuntimeMetrics::add(&m.swap_bytes, 1024);
        let s = m.snapshot();
        assert_eq!(s.total_swaps(), 3);
        assert_eq!(s.swap_bytes, 1024);
    }

    #[test]
    fn snapshot_serializes_counters_in_declaration_order_then_per_device() {
        let json = serde_json::to_string(&RuntimeMetrics::default().snapshot()).unwrap();
        assert!(json.starts_with(r#"{"intra_app_swaps":0,"inter_app_swaps":0,"swap_bytes":0,"#));
        assert!(json.ends_with(r#""descriptor_rejections":0,"per_device":[]}"#), "{json}");
    }
}
