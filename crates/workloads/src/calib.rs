//! Timing calibration (§5.2 / DESIGN.md §6).
//!
//! Kernel work is expressed in FLOPs so that execution time scales with the
//! device it lands on. The calibration anchor is the Tesla C2050: a kernel
//! declared via [`flops_for_c2050_secs`] runs for that many simulated
//! seconds on a C2050 and proportionally longer on slower devices.

use mtgpu_gpusim::{GpuSpec, Work};
use std::sync::OnceLock;

/// Effective C2050 throughput in FLOP/s (the calibration anchor), worked
/// out from the spec once: every catalog launch declares its work by it.
pub fn c2050_flops() -> f64 {
    static FLOPS: OnceLock<f64> = OnceLock::new();
    *FLOPS.get_or_init(|| GpuSpec::tesla_c2050().effective_flops())
}

/// Work that occupies a C2050 for `secs` simulated seconds.
pub fn flops_for_c2050_secs(secs: f64) -> f64 {
    secs * c2050_flops()
}

/// A compute-bound [`Work`] calibrated to `secs` on a C2050.
pub fn work_c2050(secs: f64) -> Work {
    Work { flops: flops_for_c2050_secs(secs), bytes: 0.0 }
}

/// Scale shared by every workload: `1.0` = paper-calibrated durations and
/// footprints; tests use small values to run in microseconds of wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier on kernel durations and CPU phases.
    pub time: f64,
    /// Multiplier on declared memory footprints.
    pub mem: f64,
}

impl Scale {
    /// Paper-calibrated scale.
    pub const PAPER: Scale = Scale { time: 1.0, mem: 1.0 };

    /// A small scale for unit tests (microsecond kernels, kilobyte
    /// footprints).
    pub const TINY: Scale = Scale { time: 1e-4, mem: 1e-5 };
}

impl Default for Scale {
    fn default() -> Self {
        Scale::PAPER
    }
}

/// Scales a byte count, keeping at least 256 bytes so allocations stay
/// valid.
pub fn scale_bytes(bytes: u64, scale: &Scale) -> u64 {
    ((bytes as f64 * scale.mem) as u64).max(256)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2050_anchor_is_about_one_teraflop() {
        assert!((0.9e12..1.2e12).contains(&c2050_flops()));
    }

    #[test]
    fn work_timing_inverts_on_anchor_device() {
        let spec = GpuSpec::tesla_c2050();
        let w = work_c2050(2.0);
        let secs = w.flops / spec.effective_flops();
        assert!((secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scale_bytes_floors_at_alignment() {
        assert_eq!(scale_bytes(10, &Scale::TINY), 256);
        assert_eq!(scale_bytes(1 << 30, &Scale::PAPER), 1 << 30);
    }
}
