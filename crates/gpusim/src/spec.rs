use crate::device::{COPY_OVERHEAD, LAUNCH_OVERHEAD};
use crate::kernel::Work;
use mtgpu_simtime::SimDuration;
use serde::{Deserialize, Serialize};

const MIB: u64 = 1024 * 1024;
const GIB: u64 = 1024 * MIB;

/// Static description of a GPU device: the axes of the paper's testbed that
/// matter to scheduling and memory management (§5.1).
///
/// Compute capability is reduced to an effective GFLOPS throughput derived
/// from `SMs × cores/SM × clock × 2`, de-rated per architecture generation so
/// the paper's fast/slow device ratios hold (see `DESIGN.md` §6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"Tesla C2050"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Shader clock in GHz.
    pub clock_ghz: f64,
    /// Architecture de-rating factor applied to the raw FLOP estimate
    /// (older ISAs extract less useful throughput per peak FLOP).
    pub efficiency: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Effective host<->device bandwidth in bytes per second (PCIe Gen2 era).
    pub pcie_bytes_per_sec: f64,
    /// Device-memory bandwidth in bytes per second (bounds memory-bound
    /// kernels in the timing model).
    pub mem_bytes_per_sec: f64,
    /// Number of independent copy engines (C2050 has two, C1060 one).
    pub copy_engines: u32,
    /// Bytes reserved on the device per CUDA context (the CUDA runtime's
    /// per-context overhead the paper discusses in §1).
    pub ctx_reserved_bytes: u64,
    /// Hard limit on concurrent contexts; the paper experimentally observed
    /// the CUDA runtime cannot sustain more than eight.
    pub max_contexts: u32,
}

impl GpuSpec {
    /// Effective throughput used by the timing model, in FLOP/s.
    pub fn effective_flops(&self) -> f64 {
        self.sm_count as f64
            * self.cores_per_sm as f64
            * self.clock_ghz
            * 1e9
            * 2.0
            * self.efficiency
    }

    /// Simulated execution time of `work` on a device of this spec.
    pub fn kernel_duration(&self, work: Work) -> SimDuration {
        let compute = work.flops / self.effective_flops();
        let memory = work.bytes / self.mem_bytes_per_sec;
        LAUNCH_OVERHEAD.saturating_add(SimDuration::from_secs_f64(compute.max(memory)))
    }

    /// Simulated time of one host↔device transfer of `declared_len` bytes.
    pub fn copy_duration(&self, declared_len: u64) -> SimDuration {
        let bytes = SimDuration::from_secs_f64(declared_len as f64 / self.pcie_bytes_per_sec);
        COPY_OVERHEAD.saturating_add(bytes)
    }

    /// The longest one launch of `work` can keep a device of this spec
    /// busy, by a context that declares `footprint` bytes: bring the whole
    /// footprint in, swap one victim out whole — and a victim holds at most
    /// the device's memory — then run the kernel.
    pub fn worst_case_launch(&self, work: Work, footprint: u64) -> SimDuration {
        let copied = self.copy_duration(footprint.saturating_add(self.mem_bytes));
        copied.saturating_add(self.kernel_duration(work))
    }

    /// NVIDIA Tesla C2050: 14 SMs × 32 cores @ 1.15 GHz, 3 GiB (the paper's
    /// "fast" Fermi device).
    pub fn tesla_c2050() -> Self {
        GpuSpec {
            name: "Tesla C2050".to_string(),
            sm_count: 14,
            cores_per_sm: 32,
            clock_ghz: 1.15,
            efficiency: 1.0,
            mem_bytes: 3 * GIB,
            pcie_bytes_per_sec: 4.0e9,
            mem_bytes_per_sec: 144.0e9,
            copy_engines: 2,
            ctx_reserved_bytes: 90 * MIB,
            max_contexts: 8,
        }
    }

    /// NVIDIA Tesla C1060: 30 SMs × 8 cores @ 1.30 GHz, 4 GiB (the paper's
    /// older GT200 device; de-rated so application-level throughput lands
    /// at roughly half a C2050, the ratio 2012-era codes reported).
    pub fn tesla_c1060() -> Self {
        GpuSpec {
            name: "Tesla C1060".to_string(),
            sm_count: 30,
            cores_per_sm: 8,
            clock_ghz: 1.30,
            efficiency: 0.85,
            mem_bytes: 4 * GIB,
            pcie_bytes_per_sec: 3.2e9,
            mem_bytes_per_sec: 102.0e9,
            copy_engines: 1,
            ctx_reserved_bytes: 90 * MIB,
            max_contexts: 8,
        }
    }

    /// NVIDIA Quadro 2000: 4 SMs × 48 cores @ 1.25 GHz, 1 GiB (the paper's
    /// "slow" device for the unbalanced-node experiment, Fig. 9).
    pub fn quadro_2000() -> Self {
        GpuSpec {
            name: "Quadro 2000".to_string(),
            sm_count: 4,
            cores_per_sm: 48,
            clock_ghz: 1.25,
            efficiency: 0.5,
            mem_bytes: GIB,
            pcie_bytes_per_sec: 3.2e9,
            mem_bytes_per_sec: 41.6e9,
            copy_engines: 1,
            ctx_reserved_bytes: 90 * MIB,
            max_contexts: 8,
        }
    }

    /// A tiny device for unit tests: 64 MiB memory, modest throughput, so
    /// memory-pressure paths trigger with small numbers.
    pub fn test_small() -> Self {
        GpuSpec {
            name: "TestGPU-64M".to_string(),
            sm_count: 4,
            cores_per_sm: 32,
            clock_ghz: 1.0,
            efficiency: 1.0,
            mem_bytes: 64 * MIB,
            pcie_bytes_per_sec: 4.0e9,
            mem_bytes_per_sec: 100.0e9,
            copy_engines: 1,
            ctx_reserved_bytes: 4 * MIB,
            max_contexts: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2050_is_about_one_teraflop() {
        let flops = GpuSpec::tesla_c2050().effective_flops();
        assert!((0.9e12..1.2e12).contains(&flops), "C2050 flops {flops}");
    }

    #[test]
    fn device_speed_ordering_matches_paper() {
        // Paper: C2050 is the fast device, C1060 slower, Quadro 2000 slowest.
        let c2050 = GpuSpec::tesla_c2050().effective_flops();
        let c1060 = GpuSpec::tesla_c1060().effective_flops();
        let quadro = GpuSpec::quadro_2000().effective_flops();
        assert!(c2050 > c1060);
        assert!(c1060 > quadro);
        // "Two fast and one slow": the Quadro should be several times slower.
        assert!(c2050 / quadro > 3.0);
    }

    #[test]
    fn worst_case_launch_adds_the_footprint_and_a_device_full_of_victim_to_the_kernel() {
        let spec = GpuSpec::test_small();
        let work = Work::flops(1e9);
        let alone = spec.worst_case_launch(work, 0);
        assert_eq!(alone, spec.kernel_duration(work) + spec.copy_duration(spec.mem_bytes));
        assert!(spec.worst_case_launch(work, 1 << 30) > alone);
        // Hostile work or a hostile declaration saturates instead of
        // overflowing: the rule reads them before the guard does.
        assert_eq!(spec.kernel_duration(Work::flops(f64::INFINITY)), SimDuration::MAX);
        assert_eq!(spec.worst_case_launch(Work::flops(f64::INFINITY), u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn c2050_supports_exactly_eight_contexts_by_reservation() {
        let spec = GpuSpec::tesla_c2050();
        assert_eq!(spec.max_contexts, 8);
        // Reservations for 8 contexts must fit in device memory.
        assert!(spec.ctx_reserved_bytes * spec.max_contexts as u64 <= spec.mem_bytes);
    }
}
