//! Figure 5: framework overhead on a single GPU.
//!
//! A variable number of short-running jobs (randomly drawn from the Table 2
//! short pool) run on one Tesla C2050, comparing the bare CUDA runtime
//! against the mtgpu runtime with 1/2/4/8 vGPUs. The paper finds the
//! runtime's total time approaches the bare lower bound as vGPUs increase,
//! with worst-case ~10% overhead.

use crate::figures::FigureReport;
use crate::harness::{
    average_runs, draw_short_jobs, run_on_bare, run_on_runtime, ExperimentScale, NodeSetup,
};
use crate::table::{secs, TableDoc};
use mtgpu_core::RuntimeConfig;

/// Experiment parameters.
pub struct Opts {
    pub scale: ExperimentScale,
    pub job_counts: Vec<usize>,
    pub vgpu_counts: Vec<u32>,
}

impl Opts {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Opts {
            scale: ExperimentScale::short_apps(),
            job_counts: vec![1, 2, 4, 8],
            vgpu_counts: vec![1, 2, 4, 8],
        }
    }

    /// A shrunken configuration for smoke runs.
    pub fn quick() -> Self {
        Opts { scale: ExperimentScale::quick(), job_counts: vec![2, 4], vgpu_counts: vec![1, 4] }
    }
}

/// Runs the experiment.
pub fn run(opts: &Opts) -> FigureReport {
    let mut header: Vec<String> = vec!["# jobs".into(), "bare CUDA (s)".into()];
    for v in &opts.vgpu_counts {
        header.push(format!("{v} vGPU (s)"));
    }
    header.push("worst overhead".into());
    let mut table = TableDoc::new(
        "Figure 5 — short-running jobs on a node with 1 GPU (total execution time, sim s)",
    )
    .header(header);
    let mut max_overhead_at_best_vgpus: f64 = 0.0;
    let mut monotone_improvements = 0usize;
    let mut rows = 0usize;
    for &n in &opts.job_counts {
        let (bare_tot, _, _) = average_runs(opts.scale.repeats, |rep| {
            let jobs = draw_short_jobs(n, seed(n, rep), opts.scale.workload);
            run_on_bare(NodeSetup::OneC2050, &opts.scale, jobs)
        });
        let mut cells = vec![n.to_string(), secs(bare_tot)];
        let mut per_vgpu = Vec::new();
        for &v in &opts.vgpu_counts {
            let cfg = RuntimeConfig::paper_default().with_vgpus(v);
            let (tot, _, _) = average_runs(opts.scale.repeats, |rep| {
                let jobs = draw_short_jobs(n, seed(n, rep), opts.scale.workload);
                run_on_runtime(NodeSetup::OneC2050, cfg.clone(), &opts.scale, jobs)
            });
            per_vgpu.push(tot);
            cells.push(secs(tot));
        }
        let best = per_vgpu.iter().cloned().fold(f64::INFINITY, f64::min);
        let overhead = (best - bare_tot) / bare_tot;
        max_overhead_at_best_vgpus = max_overhead_at_best_vgpus.max(overhead);
        cells.push(format!("{:.1}%", overhead * 100.0));
        table.row(cells);
        // Shape: more vGPUs should not be slower (within noise).
        if per_vgpu.windows(2).all(|w| w[1] <= w[0] * 1.15) {
            monotone_improvements += 1;
        }
        rows += 1;
    }
    FigureReport {
        id: "Figure 5",
        paper_claim: "Total execution time of our runtime approaches the bare CUDA lower \
                      bound as vGPUs increase; worst-case overhead ≈10%.",
        tables: vec![table],
        observations: vec![
            format!(
                "worst-case overhead of the best vGPU configuration vs bare CUDA: {:.1}%",
                max_overhead_at_best_vgpus * 100.0
            ),
            format!(
                "execution time non-increasing with vGPU count in {monotone_improvements}/{rows} job counts"
            ),
        ],
    }
}

fn seed(jobs: usize, rep: u32) -> u64 {
    0xF150_0000 + jobs as u64 * 101 + rep as u64
}
