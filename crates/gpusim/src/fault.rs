//! Scripted fault injection: the [`FaultPlan`] DSL.
//!
//! A fault plan is a timeline of failure events pinned to *virtual* (or
//! scaled) simulation times: device failures and repairs, transient
//! per-kernel context faults, and transport drops. A deterministic harness
//! builds a plan up front, then calls [`FaultPlan::poll`] at the points of
//! its schedule where faults are allowed to land; because both the clock
//! and the polling points are deterministic, the same plan and seed
//! reproduce the identical fault timeline on every run.
//!
//! ```
//! use mtgpu_gpusim::{DeviceId, FaultPlan};
//! use mtgpu_simtime::SimDuration;
//!
//! let plan = FaultPlan::new()
//!     .fail_device(SimDuration::from_secs(5), DeviceId(0))
//!     .repair_device(SimDuration::from_secs(9), DeviceId(0))
//!     .context_fault(SimDuration::from_secs(2), DeviceId(1))
//!     .drop_transport(SimDuration::from_secs(7), 3);
//! assert_eq!(plan.pending(), 4);
//! ```

use crate::driver::{DeviceId, Driver};
use mtgpu_simtime::{SimDuration, SimInstant};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The device fails hard: every subsequent operation on it errors
    /// until a [`FaultKind::DeviceRepair`] event (or never).
    DeviceFail { device: DeviceId },
    /// A failed device comes back (replacement hardware).
    DeviceRepair { device: DeviceId },
    /// One-shot transient fault: the next kernel launch on the device
    /// fails once, then the device behaves normally again.
    ContextFault { device: DeviceId },
    /// The transport of connection `conn` drops mid-stream. The device
    /// layer cannot reach transports, so [`FaultPlan::poll`] only
    /// *returns* this event; the harness owning the connections applies
    /// it (severs the stream) itself.
    TransportDrop { conn: u64 },
}

/// A fault scheduled at a point of the simulated timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time (since the clock's epoch) at or after which the fault
    /// fires.
    pub at: SimDuration,
    pub kind: FaultKind,
}

/// A scripted timeline of faults, built with the chainable methods and
/// consumed by repeated [`FaultPlan::poll`] calls.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Events sorted by `at` (stable: ties fire in insertion order).
    events: Vec<FaultEvent>,
    /// Index of the first event not yet fired.
    cursor: usize,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, at: SimDuration, kind: FaultKind) -> Self {
        debug_assert_eq!(self.cursor, 0, "extending a plan after polling began");
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Schedules a hard device failure at virtual time `at`.
    pub fn fail_device(self, at: SimDuration, device: DeviceId) -> Self {
        self.push(at, FaultKind::DeviceFail { device })
    }

    /// Schedules a device repair at virtual time `at`.
    pub fn repair_device(self, at: SimDuration, device: DeviceId) -> Self {
        self.push(at, FaultKind::DeviceRepair { device })
    }

    /// Schedules a one-shot transient context fault on `device` at `at`.
    pub fn context_fault(self, at: SimDuration, device: DeviceId) -> Self {
        self.push(at, FaultKind::ContextFault { device })
    }

    /// Schedules a transport drop of connection `conn` at `at`. Returned
    /// by [`FaultPlan::poll`] for the harness to apply.
    pub fn drop_transport(self, at: SimDuration, conn: u64) -> Self {
        self.push(at, FaultKind::TransportDrop { conn })
    }

    /// Events not yet fired.
    pub fn pending(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Fires every event due at or before `now`: device fail/repair and
    /// context faults are applied to `driver`'s devices directly (events
    /// naming unknown devices are returned but have no device effect);
    /// [`FaultKind::TransportDrop`] events are returned un-applied for the
    /// caller. Returns all events fired by this call, in timeline order.
    pub fn poll(&mut self, now: SimInstant, driver: &Driver) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        while let Some(event) = self.events.get(self.cursor) {
            if event.at > now.since_epoch() {
                break;
            }
            match event.kind {
                FaultKind::DeviceFail { device } => {
                    if let Ok(gpu) = driver.device(device) {
                        gpu.fail();
                    }
                }
                FaultKind::DeviceRepair { device } => {
                    if let Ok(gpu) = driver.device(device) {
                        gpu.repair();
                    }
                }
                FaultKind::ContextFault { device } => {
                    if let Ok(gpu) = driver.device(device) {
                        gpu.inject_context_fault();
                    }
                }
                FaultKind::TransportDrop { .. } => {}
            }
            fired.push(event.clone());
            self.cursor += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use mtgpu_simtime::Clock;

    fn driver_with(n: u32) -> std::sync::Arc<Driver> {
        Driver::with_devices(
            Clock::virtual_clock(),
            (0..n).map(|_| GpuSpec::test_small()).collect(),
        )
    }

    #[test]
    fn events_fire_in_timeline_order() {
        let driver = driver_with(2);
        let clock = driver.clock().clone();
        let mut plan = FaultPlan::new()
            .repair_device(SimDuration::from_secs(9), DeviceId(0))
            .fail_device(SimDuration::from_secs(3), DeviceId(0))
            .context_fault(SimDuration::from_secs(6), DeviceId(1));
        assert!(plan.poll(clock.now(), &driver).is_empty(), "nothing due at t=0");

        clock.advance(SimDuration::from_secs(4));
        let fired = plan.poll(clock.now(), &driver);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, FaultKind::DeviceFail { device: DeviceId(0) });
        assert!(driver.device(DeviceId(0)).unwrap().is_failed());

        clock.advance(SimDuration::from_secs(10));
        let fired = plan.poll(clock.now(), &driver);
        assert_eq!(fired.len(), 2, "context fault then repair");
        assert!(!driver.device(DeviceId(0)).unwrap().is_failed(), "repaired");
        assert!(driver.device(DeviceId(1)).unwrap().context_fault_armed());
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn transport_drops_are_returned_not_applied() {
        let driver = driver_with(1);
        let clock = driver.clock().clone();
        let mut plan = FaultPlan::new().drop_transport(SimDuration::from_secs(1), 7);
        clock.advance(SimDuration::from_secs(2));
        let fired = plan.poll(clock.now(), &driver);
        assert_eq!(
            fired,
            vec![FaultEvent {
                at: SimDuration::from_secs(1),
                kind: FaultKind::TransportDrop { conn: 7 },
            }]
        );
    }

    #[test]
    fn context_fault_is_one_shot() {
        use crate::kernel::{KernelDesc, LaunchConfig, LaunchSpec, RegisteredKernel, Work};
        let driver = driver_with(1);
        let gpu = driver.device(DeviceId(0)).unwrap();
        let ctx = gpu.create_context().unwrap();
        gpu.inject_context_fault();
        let kernel = RegisteredKernel { desc: KernelDesc::plain("k"), payload: None };
        let spec = LaunchSpec {
            kernel: "k".into(),
            config: LaunchConfig::default(),
            args: Vec::new(),
            work: Work::flops(1e6),
        };
        assert!(matches!(gpu.launch(ctx, &kernel, &spec), Err(crate::GpuError::LaunchFailed(_))));
        // Disarmed: the retry succeeds and the device never failed.
        assert!(gpu.launch(ctx, &kernel, &spec).is_ok());
        assert!(!gpu.is_failed());
    }

    #[test]
    fn unknown_device_events_are_harmless() {
        let driver = driver_with(1);
        let clock = driver.clock().clone();
        let mut plan = FaultPlan::new().fail_device(SimDuration::ZERO, DeviceId(9));
        let fired = plan.poll(clock.now(), &driver);
        assert_eq!(fired.len(), 1);
        assert!(!driver.device(DeviceId(0)).unwrap().is_failed());
    }
}
