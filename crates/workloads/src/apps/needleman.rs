//! Needleman-Wunsch (NW): DNA sequence alignment of 2K potential pairs,
//! 256 kernel calls (Rodinia `needle`). Each call aligns one batch of
//! pairs; the payload computes a real global-alignment score for a small
//! pair derived deterministically from the call index, written into the
//! score array, and verification recomputes every score on the host.

use super::common::*;
use crate::calib::{scale_bytes, work_c2050, Scale};
use crate::report::WorkloadReport;
use crate::Workload;
use mtgpu_api::{CudaClient, CudaResult, KernelArg};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::{GpuError, KernelDesc};
use mtgpu_simtime::Clock;
use std::sync::Arc;

const SEQ_LEN: usize = 12;
const CALLS: u64 = 256;
/// Declared footprint: DP matrices for 2K × 2K potential pairs.
const NW_BYTES: u64 = 96 << 20;
const KERNEL_SECS: f64 = 3.1 / CALLS as f64;
/// Host-side pair staging per batch.
const CPU_SECS_PER_CALL: f64 = 0.004;
const GAP: i32 = -1;
const MATCH: i32 = 2;
const MISMATCH: i32 = -1;

/// Deterministic "DNA" sequence for pair `idx`.
fn sequence(idx: u64, salt: u64) -> Vec<u8> {
    // `idx` is a launch argument: wrap rather than overflow on a hostile one.
    let mut rng = XorShift::new(idx.wrapping_mul(2).wrapping_add(salt + 1));
    (0..SEQ_LEN).map(|_| (rng.next_u64() % 4) as u8).collect()
}

/// Global alignment score via the standard NW dynamic program.
pub(crate) fn align_score(a: &[u8], b: &[u8]) -> i32 {
    let (n, m) = (a.len(), b.len());
    let mut dp = vec![0i32; (n + 1) * (m + 1)];
    for i in 0..=n {
        dp[i * (m + 1)] = GAP * i as i32;
    }
    for (j, cell) in dp.iter_mut().enumerate().take(m + 1) {
        *cell = GAP * j as i32;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = if a[i - 1] == b[j - 1] { MATCH } else { MISMATCH };
            dp[i * (m + 1) + j] = (dp[(i - 1) * (m + 1) + j - 1] + sub)
                .max(dp[(i - 1) * (m + 1) + j] + GAP)
                .max(dp[i * (m + 1) + j - 1] + GAP);
        }
    }
    dp[n * (m + 1) + m]
}

/// The NW workload.
pub struct Needleman {
    scale: Scale,
}

impl Needleman {
    /// Paper-scale instance.
    pub fn paper() -> Self {
        Needleman { scale: Scale::PAPER }
    }

    /// Custom-scale instance (fewer calls under `TINY`).
    pub fn with_scale(scale: Scale) -> Self {
        Needleman { scale }
    }

    fn calls(&self) -> u64 {
        if self.scale.time < 1e-2 {
            16
        } else {
            CALLS
        }
    }
}

/// Installs `nw_align`: scores pair `idx` into `scores[idx % shadow]`.
pub(crate) fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("nw_align"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let scores = ptr_arg(exec, 0)?;
            let idx = scalar_arg(exec, 1);
            let shadow = scalar_arg(exec, 2) as usize;
            let slot = (idx as usize).checked_rem(shadow).ok_or(GpuError::InvalidValue)?;
            let score = align_score(&sequence(idx, 0), &sequence(idx, 1)) as f32;
            exec.with_f32_mut(scores, f32_bytes(shadow)?, |v| v[slot] = score)
        })),
    });
}

impl Workload for Needleman {
    fn name(&self) -> &str {
        "NW"
    }

    fn kernels(&self) -> Vec<KernelDesc> {
        vec![KernelDesc::plain("nw_align")]
    }

    fn estimated_flops(&self) -> Option<f64> {
        Some(crate::calib::flops_for_c2050_secs(KERNEL_SECS * CALLS as f64 * self.scale.time))
    }

    fn run(&self, client: &mut dyn CudaClient, clock: &Clock) -> CudaResult<WorkloadReport> {
        let calls = self.calls();
        let shadow = calls.min(256) as usize;
        let scores = alloc(client, scale_bytes(NW_BYTES, &self.scale), shadow as u64 * 4)?;
        for idx in 0..calls {
            launch(
                client,
                "nw_align",
                vec![
                    KernelArg::Ptr(scores),
                    KernelArg::Scalar(idx),
                    KernelArg::Scalar(shadow as u64),
                ],
                work_c2050(KERNEL_SECS * self.scale.time * (CALLS as f64 / calls as f64)),
            )?;
            cpu_phase(clock, CPU_SECS_PER_CALL * self.scale.time * (CALLS as f64 / calls as f64));
        }
        let result = download_f32(client, scores, shadow)?;
        client.free(scores)?;
        let ok = (0..calls).all(|idx| {
            let expected = align_score(&sequence(idx, 0), &sequence(idx, 1)) as f32;
            approx_eq(result[idx as usize % shadow], expected)
        });
        Ok(if ok {
            WorkloadReport::verified("NW", calls)
        } else {
            WorkloadReport::failed("NW", calls)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_perfectly() {
        let s = vec![0u8, 1, 2, 3, 0, 1];
        assert_eq!(align_score(&s, &s), MATCH * s.len() as i32);
    }

    #[test]
    fn all_gaps_when_one_sequence_empty() {
        let s = vec![0u8, 1, 2];
        assert_eq!(align_score(&s, &[]), GAP * 3);
        assert_eq!(align_score(&[], &s), GAP * 3);
    }

    #[test]
    fn alignment_is_symmetric() {
        let a = sequence(5, 0);
        let b = sequence(5, 1);
        assert_eq!(align_score(&a, &b), align_score(&b, &a));
    }

    #[test]
    fn single_mismatch_better_than_two_gaps() {
        // AC vs AG: mismatch (2-1=1... MATCH+MISMATCH=1) beats gap-gap
        // (MATCH+2·GAP=0).
        assert_eq!(align_score(&[0, 1], &[0, 2]), MATCH + MISMATCH);
    }
}
