//! Ablations of the design choices DESIGN.md calls out: inter-application
//! swap and scheduler policy, each toggled on a fixed memory-pressured
//! scenario. Transfer deferral and copy coalescing are not ablated: they are
//! the memory manager's only transfer policy.

use criterion::{criterion_group, criterion_main, Criterion};
use mtgpu_bench::harness::{mixed_long_jobs, run_on_runtime, ExperimentScale, NodeSetup};
use mtgpu_core::{RuntimeConfig, SchedulerPolicy};
use std::time::Duration;

fn scale() -> ExperimentScale {
    ExperimentScale::quick()
}

/// The fixed scenario: twelve long jobs (3 BS-L + 9 MM-L) on the 3-GPU
/// node — four tenants per device, three of them MM-L, so device memory is
/// genuinely oversubscribed and the swap machinery under ablation actually
/// runs.
fn scenario(cfg: RuntimeConfig) -> f64 {
    let out = run_on_runtime(
        NodeSetup::ThreeGpu,
        cfg,
        &scale(),
        mixed_long_jobs(12, 3, 1.0, scale().workload),
    );
    out.total_secs()
}

fn bench_inter_app_swap(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_interswap");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    for (label, swap) in [("inter_swap_on", true), ("unbind_retry_only", false)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = RuntimeConfig::paper_default();
                cfg.inter_app_swap = swap;
                scenario(cfg)
            })
        });
    }
    g.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sched");
    g.sample_size(10).measurement_time(Duration::from_secs(8));
    for (label, policy) in [
        ("fcfs_rr", SchedulerPolicy::FcfsRoundRobin),
        ("sjf", SchedulerPolicy::ShortestJobFirst),
        ("credit", SchedulerPolicy::CreditBased),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| scenario(RuntimeConfig::paper_default().with_scheduler(policy)))
        });
    }
    g.finish();
}

criterion_group!(ablations, bench_inter_app_swap, bench_schedulers);
criterion_main!(ablations);
