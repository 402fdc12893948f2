//! Configurable scheduling (§2's objective, §4.3's mechanism): the same
//! batch — one long job arriving first, many short jobs behind it — under
//! FCFS, shortest-job-first and credit-based policies, showing how SJF
//! collapses the short jobs' average turnaround.
//!
//! ```sh
//! cargo run --release --example scheduler_policies
//! ```

use mtgpu::api::CudaClient;
use mtgpu::core::{NodeRuntime, RuntimeConfig, SchedulerPolicy};
use mtgpu::gpusim::{Driver, GpuSpec};
use mtgpu::simtime::Clock;
use mtgpu::workloads::calib::Scale;
use mtgpu::workloads::{install_kernel_library, run_batch, AppKind, Workload};

fn batch() -> Vec<Box<dyn Workload>> {
    let scale = Scale { time: 0.02, mem: 1e-3 };
    let mut jobs: Vec<Box<dyn Workload>> = Vec::new();
    // Two long jobs first...
    jobs.push(AppKind::MmS.build_with(scale, 1.0));
    jobs.push(AppKind::MmS.build_with(scale, 1.0));
    // ...then six short ones stuck behind them.
    for kind in [AppKind::Va, AppKind::Hs, AppKind::Sp, AppKind::Bfs, AppKind::Bp, AppKind::Mt] {
        jobs.push(kind.build(scale));
    }
    jobs
}

fn run(policy: SchedulerPolicy) -> (f64, f64) {
    install_kernel_library();
    let clock = Clock::with_scale(1e-4);
    // One GPU, one vGPU: the policy fully decides the order.
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::tesla_c2050()]);
    let cfg = RuntimeConfig::serialized().with_scheduler(policy);
    let rt = NodeRuntime::start(driver, cfg);
    let jobs = batch();
    let clients: Vec<Box<dyn CudaClient>> =
        jobs.iter().map(|_| Box::new(rt.local_client()) as Box<dyn CudaClient>).collect();
    let result = run_batch(&clock, jobs, clients);
    rt.shutdown();
    assert!(result.all_verified(), "{:?}", result.errors);
    let short_avg = result
        .reports
        .iter()
        .filter(|r| r.name != "MM-S")
        .map(|r| r.elapsed.as_secs_f64())
        .sum::<f64>()
        / 6.0;
    (result.total.as_secs_f64(), short_avg)
}

fn main() {
    println!("2 long jobs arrive first, 6 short jobs queue behind them (1 vGPU):\n");
    println!("{:<22} {:>12} {:>22}", "policy", "total (s)", "short-job avg (s)");
    let mut sjf_short = f64::NAN;
    let mut fcfs_short = f64::NAN;
    for policy in [
        SchedulerPolicy::FcfsRoundRobin,
        SchedulerPolicy::ShortestJobFirst,
        SchedulerPolicy::CreditBased,
    ] {
        let (total, short_avg) = run(policy);
        println!("{policy:<22?} {total:>12.2} {short_avg:>22.2}");
        match policy {
            SchedulerPolicy::ShortestJobFirst => sjf_short = short_avg,
            SchedulerPolicy::FcfsRoundRobin => fcfs_short = short_avg,
            _ => {}
        }
    }
    println!(
        "\nSJF cuts the short jobs' average turnaround to {:.0}% of FCFS — \
         \"a scheduling algorithm that prioritizes short running applications \
         can be preferable if profiling information is available\" (§2).",
        sjf_short / fcfs_short * 100.0
    );
}
