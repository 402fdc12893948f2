//! The node's device inventory: enumeration, hot add/remove, failure
//! injection — the slice of the CUDA driver the paper's runtime talks to.

use crate::device::Gpu;
use crate::error::GpuError;
use crate::spec::GpuSpec;
use crate::Result;
use mtgpu_simtime::{lock_rank, Clock, RankedRwLock};
use serde::Serialize;
use std::sync::Arc;

/// Ordinal of a device slot on a node. Slots are never reused within a
/// driver's lifetime, so a `DeviceId` stays meaningful after hot removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct DeviceId(pub u32);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

/// The per-node GPU driver: owns the device slots.
pub struct Driver {
    clock: Clock,
    slots: RankedRwLock<Vec<Option<Arc<Gpu>>>>,
}

impl Driver {
    /// A driver with no devices attached.
    pub fn new(clock: Clock) -> Arc<Driver> {
        Arc::new(Driver { clock, slots: RankedRwLock::new(lock_rank::DRIVER_SLOTS, Vec::new()) })
    }

    /// A driver pre-populated with one device per spec.
    pub fn with_devices(clock: Clock, specs: Vec<GpuSpec>) -> Arc<Driver> {
        let driver = Driver::new(clock);
        for spec in specs {
            driver.attach(spec);
        }
        driver
    }

    /// The clock shared by all devices.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Hot-attaches a new device (dynamic upgrade, §2). Returns its id.
    pub fn attach(&self, spec: GpuSpec) -> DeviceId {
        let mut slots = self.slots.write();
        let ordinal = slots.len() as u32;
        slots.push(Some(Gpu::new(spec, self.clock.clone(), ordinal)));
        DeviceId(ordinal)
    }

    /// Hot-detaches a device (dynamic downgrade, §2). The device is marked
    /// failed so in-flight operations error out, and removed from
    /// enumeration. Returns the detached handle (bookkeeping may still be
    /// inspected).
    pub fn detach(&self, id: DeviceId) -> Result<Arc<Gpu>> {
        let mut slots = self.slots.write();
        let slot = slots.get_mut(id.0 as usize).ok_or(GpuError::DeviceNotFound)?;
        let gpu = slot.take().ok_or(GpuError::DeviceNotFound)?;
        gpu.fail();
        Ok(gpu)
    }

    /// The device in slot `id`, if attached.
    pub fn device(&self, id: DeviceId) -> Result<Arc<Gpu>> {
        self.slots.read().get(id.0 as usize).and_then(Clone::clone).ok_or(GpuError::DeviceNotFound)
    }

    /// Number of attached (present) devices — what `cudaGetDeviceCount`
    /// reports on the bare runtime.
    pub fn device_count(&self) -> usize {
        self.slots.read().iter().flatten().count()
    }

    /// All attached devices with their ids, in slot order.
    pub fn devices(&self) -> Vec<(DeviceId, Arc<Gpu>)> {
        self.slots
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.clone().map(|g| (DeviceId(i as u32), g)))
            .collect()
    }
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> =
            self.devices().iter().map(|(id, g)| format!("{id}:{}", g.spec().name)).collect();
        f.debug_struct("Driver").field("devices", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_enumerates_in_order() {
        let driver = Driver::with_devices(
            Clock::with_scale(1e-6),
            vec![GpuSpec::tesla_c2050(), GpuSpec::tesla_c1060()],
        );
        assert_eq!(driver.device_count(), 2);
        assert_eq!(driver.device(DeviceId(0)).unwrap().spec().name, "Tesla C2050");
        assert_eq!(driver.device(DeviceId(1)).unwrap().spec().name, "Tesla C1060");
        assert!(driver.device(DeviceId(2)).is_err());
    }

    #[test]
    fn detach_marks_failed_and_removes() {
        let driver = Driver::with_devices(Clock::with_scale(1e-6), vec![GpuSpec::test_small()]);
        let gpu = driver.device(DeviceId(0)).unwrap();
        let detached = driver.detach(DeviceId(0)).unwrap();
        assert!(detached.is_failed());
        assert!(gpu.is_failed(), "shared handle observes the failure");
        assert_eq!(driver.device_count(), 0);
        assert!(driver.device(DeviceId(0)).is_err());
        // Double detach errors.
        assert!(matches!(driver.detach(DeviceId(0)), Err(GpuError::DeviceNotFound)));
    }

    #[test]
    fn hot_attach_after_detach_gets_fresh_slot() {
        let driver = Driver::with_devices(Clock::with_scale(1e-6), vec![GpuSpec::test_small()]);
        driver.detach(DeviceId(0)).unwrap();
        let id = driver.attach(GpuSpec::tesla_c2050());
        assert_eq!(id, DeviceId(1));
        assert_eq!(driver.device_count(), 1);
    }

    #[test]
    fn address_spaces_do_not_collide() {
        let driver = Driver::with_devices(
            Clock::with_scale(1e-6),
            vec![GpuSpec::test_small(), GpuSpec::test_small()],
        );
        let g0 = driver.device(DeviceId(0)).unwrap();
        let g1 = driver.device(DeviceId(1)).unwrap();
        let c0 = g0.create_context().unwrap();
        let c1 = g1.create_context().unwrap();
        let p0 = g0.malloc(c0, 1024).unwrap();
        let p1 = g1.malloc(c1, 1024).unwrap();
        assert_ne!(p0, p1);
        // An address from device 1 is invalid on device 0.
        assert!(g0.memcpy_d2h(c0, p1, 16).is_err());
    }
}
