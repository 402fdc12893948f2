//! Shared experiment infrastructure: the §5.1 hardware setups, batch
//! helpers for both runtimes, and scale presets.

use mtgpu_api::{BareClient, CudaClient};
use mtgpu_core::{MetricsSnapshot, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{Driver, GpuSpec};
use mtgpu_simtime::Clock;
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{install_kernel_library, run_batch, AppKind, BatchResult, Workload};
use std::sync::Arc;

/// How fast an experiment runs relative to the paper's wall clock, plus
/// how many times it is repeated (the paper averages over ten runs;
/// `quick` presets use fewer).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Real seconds per simulated second.
    pub clock_scale: f64,
    /// Repetitions to average over.
    pub repeats: u32,
    /// Workload time/memory scale (figures run at paper scale).
    pub workload: Scale,
    /// Determinism seed plumbed into every runtime the experiment starts.
    /// Set from the `--seed` flag; `0`, the default, is a seed like any
    /// other.
    pub seed: u64,
    /// Run on a virtual (logical-time) clock: no real sleeps, so the whole
    /// experiment runs at CPU speed. Set from the `--virtual-clock` flag.
    pub virtual_clock: bool,
}

impl ExperimentScale {
    /// Full-fidelity preset for short-running-app experiments: a coarse
    /// enough clock that per-call interposition overhead lands at the
    /// magnitude gVirtuS-style API remoting costs on the 2012 testbed (tens
    /// of µs per call): an in-process small launch, two calls, costs
    /// ≈ 1.5 µs of real time (`R_local` of `mtgpu-perf --trace 1`, pinned to
    /// one CPU of a two-vCPU machine), ≈ 15 µs sim at 1 sim s = 0.1 real s;
    /// the same launch over a local socketpair ≈ 10 µs real, ≈ 100 µs sim.
    pub fn short_apps() -> Self {
        ExperimentScale {
            clock_scale: 1e-1,
            repeats: 2,
            workload: Scale::PAPER,
            seed: 0,
            virtual_clock: false,
        }
    }

    /// Preset for long-running-app experiments. Kernels are ≥ 80 ms sim, so
    /// interposition overhead is negligible; the clock is still coarse
    /// enough (1 sim s = 5 real ms) that OS scheduling noise on small
    /// machines stays a low single-digit fraction of the measurements.
    pub fn long_apps() -> Self {
        ExperimentScale {
            clock_scale: 5e-3,
            repeats: 1,
            workload: Scale::PAPER,
            seed: 0,
            virtual_clock: false,
        }
    }

    /// Shrunken preset for Criterion scenario benches and CI smoke runs:
    /// 20× shorter kernels on a clock coarse enough that those kernels
    /// (≥ ~60 ms sim ⇒ ≥ ~120 µs real) still dominate per-call overhead,
    /// so ablation comparisons measure simulated behaviour.
    pub fn quick() -> Self {
        ExperimentScale {
            clock_scale: 2e-3,
            repeats: 1,
            workload: Scale { time: 5e-2, mem: 1.0 },
            seed: 0,
            virtual_clock: false,
        }
    }

    /// Builder-style override of the determinism seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style toggle of the virtual clock.
    pub fn with_virtual_clock(mut self, on: bool) -> Self {
        self.virtual_clock = on;
        self
    }

    /// Creates the clock this experiment runs on: virtual when requested,
    /// otherwise wall-clock at `clock_scale`.
    pub fn clock(&self) -> Clock {
        if self.virtual_clock {
            Clock::virtual_clock()
        } else {
            Clock::with_scale(self.clock_scale)
        }
    }
}

/// The standard figure-binary command line: `--quick`, `--seed <n>`,
/// `--virtual-clock`. Unknown flags are warned about and ignored so older
/// invocations keep working.
#[derive(Debug, Clone, Copy, Default)]
pub struct FigCli {
    pub quick: bool,
    pub seed: u64,
    pub virtual_clock: bool,
}

impl FigCli {
    /// Parses the process arguments.
    pub fn parse() -> FigCli {
        Self::parse_with(|_, _| false)
    }

    /// Parses the process arguments, offering each flag `FigCli` does not
    /// know to `extra` first: it returns whether it took the flag, and takes
    /// the flag's value, if any, from the iterator it is handed.
    pub fn parse_with(
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
    ) -> FigCli {
        let mut cli = FigCli::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--virtual-clock" => cli.virtual_clock = true,
                "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(seed) => cli.seed = seed,
                    None => {
                        eprintln!("--seed requires an integer value");
                        std::process::exit(2);
                    }
                },
                other if extra(other, &mut args) => {}
                other => eprintln!("ignoring unknown flag `{other}`"),
            }
        }
        cli
    }

    /// Applies the seed / virtual-clock flags onto an experiment scale.
    pub fn apply(self, scale: ExperimentScale) -> ExperimentScale {
        scale.with_seed(self.seed).with_virtual_clock(self.virtual_clock)
    }
}

/// The §5.1 hardware setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSetup {
    /// One Tesla C2050 (Fig. 5).
    OneC2050,
    /// Two C2050s and one C1060 (the main node, Figs. 6–8).
    ThreeGpu,
    /// Two C2050s and one Quadro 2000 (the unbalanced node, Fig. 9).
    Unbalanced,
    /// The cluster's second compute node: one C1060 (Figs. 10–11).
    OneC1060,
}

impl NodeSetup {
    /// The device list.
    pub fn specs(self) -> Vec<GpuSpec> {
        match self {
            NodeSetup::OneC2050 => vec![GpuSpec::tesla_c2050()],
            NodeSetup::ThreeGpu => {
                vec![GpuSpec::tesla_c2050(), GpuSpec::tesla_c2050(), GpuSpec::tesla_c1060()]
            }
            NodeSetup::Unbalanced => {
                vec![GpuSpec::tesla_c2050(), GpuSpec::tesla_c2050(), GpuSpec::quadro_2000()]
            }
            NodeSetup::OneC1060 => vec![GpuSpec::tesla_c1060()],
        }
    }

    /// Builds a driver for this setup on a fresh clock.
    pub fn driver(self, clock: &Clock) -> Arc<Driver> {
        Driver::with_devices(clock.clone(), self.specs())
    }
}

/// Draws `n` jobs from the short-running pool, seeded for reproducibility
/// across configurations ("to ensure apple-to-apple comparison, we run each
/// randomly drawn combination of jobs on all reported configurations",
/// §5.3.1).
pub fn draw_short_jobs(n: usize, seed: u64, workload_scale: Scale) -> Vec<Box<dyn Workload>> {
    mtgpu_workloads::draw_short_kinds(n, seed)
        .into_iter()
        .map(|kind| kind.build(workload_scale))
        .collect()
}

/// Builds a BS-L / MM-L mix: `bs_count` BS-L jobs and the rest MM-L with
/// the given CPU fraction (Fig. 8, Fig. 11).
pub fn mixed_long_jobs(
    total: usize,
    bs_count: usize,
    mm_cpu_fraction: f64,
    scale: Scale,
) -> Vec<Box<dyn Workload>> {
    (0..total)
        .map(|i| {
            if i % total.max(1) < bs_count {
                AppKind::BsL.build(scale)
            } else {
                AppKind::MmL.build_with(scale, mm_cpu_fraction)
            }
        })
        .collect()
}

/// Result of one measured configuration.
#[derive(Debug)]
pub struct RunOutcome {
    pub batch: BatchResult,
    pub metrics: MetricsSnapshot,
}

impl RunOutcome {
    /// Total batch time in simulated seconds.
    pub fn total_secs(&self) -> f64 {
        self.batch.total.as_secs_f64()
    }

    /// Average per-job time in simulated seconds.
    pub fn avg_secs(&self) -> f64 {
        self.batch.avg.as_secs_f64()
    }
}

/// Runs `jobs` concurrently on a fresh mtgpu runtime over `setup`. The
/// scale's seed and clock selection are plumbed into the runtime.
pub fn run_on_runtime(
    setup: NodeSetup,
    cfg: RuntimeConfig,
    scale: &ExperimentScale,
    jobs: Vec<Box<dyn Workload>>,
) -> RunOutcome {
    install_kernel_library();
    let clock = scale.clock();
    let driver = setup.driver(&clock);
    let rt = NodeRuntime::start(driver, cfg.with_seed(scale.seed));
    let clients: Vec<Box<dyn CudaClient>> =
        jobs.iter().map(|_| Box::new(rt.local_client()) as Box<dyn CudaClient>).collect();
    let batch = run_batch(&clock, jobs, clients);
    assert!(batch.all_verified(), "experiment jobs failed verification: {:?}", batch.errors);
    let metrics = rt.metrics();
    rt.shutdown();
    RunOutcome { batch, metrics }
}

/// Runs `jobs` concurrently on the bare CUDA runtime over `setup`, statically
/// assigning applications to devices round-robin (the programmer-defined
/// binding of the baseline).
pub fn run_on_bare(
    setup: NodeSetup,
    scale: &ExperimentScale,
    jobs: Vec<Box<dyn Workload>>,
) -> RunOutcome {
    install_kernel_library();
    let clock = scale.clock();
    let driver = setup.driver(&clock);
    let device_count = driver.device_count() as u32;
    let clients: Vec<Box<dyn CudaClient>> = (0..jobs.len())
        .map(|i| {
            let mut c = BareClient::new(Arc::clone(&driver));
            c.set_device(i as u32 % device_count).expect("static device assignment");
            Box::new(c) as Box<dyn CudaClient>
        })
        .collect();
    let batch = run_batch(&clock, jobs, clients);
    assert!(batch.all_verified(), "bare-runtime jobs failed: {:?}", batch.errors);
    RunOutcome { batch, metrics: MetricsSnapshot::default() }
}

/// Averages total/avg seconds over `repeats` runs of `f`.
pub fn average_runs(repeats: u32, mut f: impl FnMut(u32) -> RunOutcome) -> (f64, f64, RunOutcome) {
    assert!(repeats >= 1);
    let mut tot = 0.0;
    let mut avg = 0.0;
    let mut last = None;
    for r in 0..repeats {
        let out = f(r);
        tot += out.total_secs();
        avg += out.avg_secs();
        last = Some(out);
    }
    (tot / repeats as f64, avg / repeats as f64, last.expect("at least one run"))
}
