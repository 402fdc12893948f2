//! Runtime event tracing: a bounded in-memory log of scheduling and
//! memory-management decisions, timestamped in simulated time.
//!
//! Every consequential action the runtime takes — binding, unbinding,
//! swapping, migrating, checkpointing, failing over, offloading — emits one
//! [`TraceEvent`]. The trace is what an operator (or a test) reads to
//! understand *why* a batch behaved the way it did; the experiment
//! harnesses print aggregate counters, the trace has the per-decision
//! story.

use crate::ctx::{CtxId, VGpuId};
use crate::memory::SwapReason;
use mtgpu_gpusim::DeviceId;
use mtgpu_simtime::{lock_rank, Clock, RankedMutex, SimDuration};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// One traced runtime decision.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A connection was accepted and a context created.
    ContextCreated { ctx: CtxId, label: String },
    /// A context finished (exit or disconnect).
    ContextFinished { ctx: CtxId },
    /// The context was bound to a vGPU (delayed binding at first launch,
    /// re-binding after an unbind, or migration target).
    Bound { ctx: CtxId, vgpu: VGpuId },
    /// The context lost its vGPU.
    Unbound { ctx: CtxId, vgpu: VGpuId, reason: UnbindReason },
    /// A context's device-resident data was swapped out.
    SwappedOut { ctx: CtxId, bytes: u64, reason: SwapReason },
    /// A transfer plan (materialize/swap/checkpoint batch) was executed:
    /// `ops` transfers totalling `bytes`, spread over `lanes` copy-engine
    /// lanes (`lanes > 1` means the plan overlapped transfers).
    TransferPlan { ctx: CtxId, ops: u32, lanes: u32, bytes: u64 },
    /// A context migrated between devices (§5.3.4 dynamic binding).
    Migrated { ctx: CtxId, from: DeviceId, to: DeviceId },
    /// A live migration (`migrate_ctx`) moved `p2p_bytes` of working set
    /// device-to-device on `lanes` of the source's copy engines (the
    /// engines its moves ran on, as a plan's `lanes` counts them) and dropped
    /// `skipped_bytes` of slab-authoritative pages (rematerialized lazily
    /// on the destination).
    MigrationTransferred { ctx: CtxId, p2p_bytes: u64, skipped_bytes: u64, lanes: u32 },
    /// A live migration aborted at `phase` and rolled back; the context
    /// remains fully on its source device.
    MigrationAborted { ctx: CtxId, phase: String },
    /// The rebalancer moved `ctx`, the costliest-misplaced context on a hot
    /// device (`score` is the deterministic pressure-score delta ×1000).
    RebalancePicked { ctx: CtxId, from: DeviceId, to: DeviceId, score: i64 },
    /// A checkpoint synchronized the context's dirty data (§4.6).
    Checkpointed { ctx: CtxId, explicit: bool },
    /// A device failure/removal was detected by the monitor or inline.
    DeviceLost { device: DeviceId },
    /// The context survived a device loss and can rebind elsewhere.
    Recovered { ctx: CtxId },
    /// The context lost un-checkpointed data and was failed.
    Failed { ctx: CtxId },
    /// The connection was relayed to a peer node (§4.7).
    Offloaded { ctx: CtxId, peer: String },
    /// The admission controller refused a request (over-quota allocation
    /// or context creation); `what` names the exhausted resource.
    QuotaRejected { ctx: CtxId, what: String },
    /// A tenant's lease TTL elapsed and this context was reaped: failed,
    /// evicted if bound, and its pages freed.
    LeaseReaped { ctx: CtxId },
    /// A low-priority victim was evicted so a higher-priority tenant could
    /// materialize under memory pressure.
    Preempted { victim: CtxId, by: CtxId, bytes: u64 },
    /// Debug-build observability: a ranked lock saw `count` contended
    /// acquisitions since the last monitor pass. Structural counts only —
    /// no timings — and never emitted by sequential (deterministic)
    /// drivers, where nothing contends, so replay fingerprints are
    /// unaffected.
    LockContention { lock: String, count: u64 },
}

/// Why a binding was released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum UnbindReason {
    /// Job finished.
    Finished,
    /// Evicted as an inter-application swap victim.
    Victim,
    /// Voluntary unbind-and-retry after failed materialization.
    Retry,
    /// Migration to another device.
    Migration,
    /// The device failed.
    DeviceLoss,
    /// The tenant's lease expired and the context was reaped.
    LeaseReaped,
}

/// A timestamped trace record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Simulated time since the runtime's clock epoch.
    pub at: SimDuration,
    /// The event.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t+{}] {:?}", self.at, self.event)
    }
}

/// A bounded, thread-safe event log.
pub struct Tracer {
    clock: Clock,
    capacity: usize,
    ring: RankedMutex<VecDeque<TraceRecord>>,
}

impl Tracer {
    /// Creates a tracer holding up to `capacity` events (oldest evicted).
    ///
    /// # Panics
    ///
    /// If `capacity` is 0: `record` always keeps the newest event, so a
    /// ring holds at least one.
    pub fn new(clock: Clock, capacity: usize) -> Self {
        assert!(capacity > 0, "a tracer holds at least one event");
        Tracer {
            clock,
            capacity,
            ring: RankedMutex::new(
                lock_rank::TRACER_RING,
                VecDeque::with_capacity(capacity.min(4096)),
            ),
        }
    }

    /// Records an event, evicting the oldest when the ring is full.
    pub fn record(&self, event: TraceEvent) {
        let at = self.clock.now().since_epoch();
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(TraceRecord { at, event });
    }

    /// A snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Number of recorded events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn tracer(cap: usize) -> Tracer {
        Tracer::new(Clock::with_scale(1e-6), cap)
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_capacity_is_refused() {
        tracer(0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = tracer(3);
        for i in 0..5 {
            t.record(TraceEvent::ContextFinished { ctx: CtxId(i) });
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event, TraceEvent::ContextFinished { ctx: CtxId(2) });
        assert_eq!(events[2].event, TraceEvent::ContextFinished { ctx: CtxId(4) });
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = tracer(16);
        t.record(TraceEvent::DeviceLost { device: DeviceId(0) });
        t.record(TraceEvent::DeviceLost { device: DeviceId(1) });
        let e = t.events();
        assert!(e[0].at <= e[1].at);
    }

    #[test]
    fn records_serialize() {
        let t = tracer(4);
        t.record(TraceEvent::Migrated { ctx: CtxId(1), from: DeviceId(0), to: DeviceId(1) });
        let reason = SwapReason::InterAppVictim;
        t.record(TraceEvent::SwappedOut { ctx: CtxId(2), bytes: 4096, reason });
        let json = serde_json::to_string(&t.events()).unwrap();
        // Each record is an object with `at` and the externally tagged
        // event; the reason's bytes in a record are the variant's name.
        let migrated = r#""event":{"Migrated":{"ctx":1,"from":0,"to":1}}"#;
        let swapped = r#""event":{"SwappedOut":{"ctx":2,"bytes":4096,"reason":"InterAppVictim"}}"#;
        assert!(json.contains(migrated) && json.contains(swapped), "{json}");
        let Ok(Value::Array(records)) = serde_json::from_str(&json) else { panic!("{json}") };
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.get("at").is_some()), "{json}");
    }

    #[test]
    fn clear_empties() {
        let t = tracer(4);
        t.record(TraceEvent::ContextFinished { ctx: CtxId(1) });
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }
}
