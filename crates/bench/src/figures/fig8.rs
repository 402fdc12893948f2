//! Figure 8: workload-composition sweep (BS-L vs MM-L).
//!
//! 36 long-running jobs on the 3-GPU node, mixing GPU-intensive BS-L with
//! MM-L (CPU fraction 1) at 100/0 … 0/100. The gain from GPU sharing grows
//! as MM-L (with its CPU phases) dominates; at a 75/25 BS-L-heavy mix
//! sharing can lose because swapping only adds overhead to GPU-bound jobs.

use crate::figures::FigureReport;
use crate::harness::{mixed_long_jobs, run_on_runtime, ExperimentScale, NodeSetup};
use crate::table::{secs, TableDoc};
use mtgpu_core::RuntimeConfig;

/// Experiment parameters.
pub struct Opts {
    pub scale: ExperimentScale,
    pub jobs: usize,
    /// BS-L percentage of the mix, paper order (100 → 0).
    pub bs_percents: Vec<u32>,
    pub mm_cpu_fraction: f64,
}

impl Opts {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Opts {
            scale: ExperimentScale::long_apps(),
            jobs: 36,
            bs_percents: vec![100, 75, 50, 25, 0],
            mm_cpu_fraction: 1.0,
        }
    }

    /// A shrunken configuration.
    pub fn quick() -> Self {
        Opts {
            scale: ExperimentScale::quick(),
            jobs: 8,
            bs_percents: vec![100, 0],
            mm_cpu_fraction: 1.0,
        }
    }
}

/// Runs the experiment.
pub fn run(opts: &Opts) -> FigureReport {
    let mut table = TableDoc::new(
        "Figure 8 — 36 jobs (BS-L / MM-L mix) on 3 GPUs (total execution time, sim s)",
    )
    .header(vec![
        "mix BS-L/MM-L",
        "serialized 1 vGPU (s)",
        "sharing 4 vGPUs (s)",
        "swap ops (sharing)",
        "launch retries (sharing)",
    ]);
    let mut gains = Vec::new();
    let mut swap_series = Vec::new();
    for &bs in &opts.bs_percents {
        let bs_count = opts.jobs * bs as usize / 100;
        let ser = run_on_runtime(
            NodeSetup::ThreeGpu,
            RuntimeConfig::serialized(),
            &opts.scale,
            mixed_long_jobs(opts.jobs, bs_count, opts.mm_cpu_fraction, opts.scale.workload),
        );
        let shr = run_on_runtime(
            NodeSetup::ThreeGpu,
            RuntimeConfig::paper_default(),
            &opts.scale,
            mixed_long_jobs(opts.jobs, bs_count, opts.mm_cpu_fraction, opts.scale.workload),
        );
        table.row(vec![
            format!("{bs}/{}", 100 - bs),
            secs(ser.total_secs()),
            secs(shr.total_secs()),
            shr.metrics.total_swaps().to_string(),
            shr.metrics.launch_retries.to_string(),
        ]);
        gains.push((bs, ser.total_secs() / shr.total_secs()));
        swap_series.push(shr.metrics.total_swaps());
    }
    let mut observations = Vec::new();
    if let (Some(first), Some(last)) = (gains.first(), gains.last()) {
        observations.push(format!(
            "sharing speedup at {}% BS-L: {:.2}x; at {}% BS-L: {:.2}x — gain grows as MM-L dominates",
            first.0, first.1, last.0, last.1
        ));
    }
    observations.push(format!("swap counts along the sweep: {swap_series:?}"));
    FigureReport {
        id: "Figure 8",
        paper_claim: "Performance gain from GPU sharing increases as MM-L becomes dominant; \
                      swap counts rise along the sweep (0→58); at the BS-L-heavy 75/25 mix \
                      sharing can be slower than serialization because swap overhead has no \
                      CPU phases to hide behind.",
        tables: vec![table],
        observations,
    }
}
