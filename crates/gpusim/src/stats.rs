//! Per-device operation counters.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters maintained by a [`crate::Gpu`].
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Calls into the device: one per public entry point that acts on it
    /// (context create and destroy, malloc and free, a copy, a launch, and
    /// a batch of any of these kinds), whatever it does or refuses.
    pub calls: AtomicU64,
    pub kernels_launched: AtomicU64,
    pub h2d_bytes: AtomicU64,
    pub d2h_bytes: AtomicU64,
    /// Bytes moved device-internally (same-device `memcpy_d2d`), over the
    /// memory bus rather than PCIe.
    pub d2d_bytes: AtomicU64,
    /// Bytes this device sourced for peer-to-peer copies (`memcpy_p2p`
    /// with this device as the read side).
    pub p2p_bytes_out: AtomicU64,
    /// Bytes this device received from peer-to-peer copies.
    pub p2p_bytes_in: AtomicU64,
    pub allocs: AtomicU64,
    pub frees: AtomicU64,
    pub failed_allocs: AtomicU64,
    pub contexts_created: AtomicU64,
}

/// A point-in-time copy of [`DeviceStats`], cheap to move around and
/// serialize into experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeviceStatsSnapshot {
    pub calls: u64,
    pub kernels_launched: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub d2d_bytes: u64,
    pub p2p_bytes_out: u64,
    pub p2p_bytes_in: u64,
    pub allocs: u64,
    pub frees: u64,
    pub failed_allocs: u64,
    pub contexts_created: u64,
}

impl DeviceStats {
    /// Takes a consistent-enough snapshot (individual counters are exact;
    /// cross-counter skew is bounded by in-flight operations).
    pub fn snapshot(&self) -> DeviceStatsSnapshot {
        DeviceStatsSnapshot {
            calls: self.calls.load(Ordering::Relaxed),
            kernels_launched: self.kernels_launched.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            d2d_bytes: self.d2d_bytes.load(Ordering::Relaxed),
            p2p_bytes_out: self.p2p_bytes_out.load(Ordering::Relaxed),
            p2p_bytes_in: self.p2p_bytes_in.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            failed_allocs: self.failed_allocs.load(Ordering::Relaxed),
            contexts_created: self.contexts_created.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = DeviceStats::default();
        DeviceStats::bump(&s.kernels_launched);
        DeviceStats::add(&s.h2d_bytes, 4096);
        let snap = s.snapshot();
        assert_eq!(snap.kernels_launched, 1);
        assert_eq!(snap.h2d_bytes, 4096);
        assert_eq!(snap.d2h_bytes, 0);
    }
}
