//! Every Table 2 application must run and verify on both the bare CUDA
//! baseline and the mtgpu runtime (including under sharing pressure).

use mtgpu_api::{BareClient, CudaCall, CudaClient, CudaReply, ReplyValue};
use mtgpu_core::{NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{Driver, GpuSpec};
use mtgpu_simtime::Clock;
use mtgpu_workloads::apps::blackscholes::price;
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{install_kernel_library, register_workload, run_batch, AppKind};

#[test]
fn all_13_apps_verify_on_bare_runtime() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::tesla_c2050()]);
    for kind in AppKind::all() {
        let jobs = vec![kind.build(Scale::TINY)];
        let clients: Vec<Box<dyn CudaClient>> = vec![Box::new(BareClient::new(driver.clone()))];
        let result = run_batch(&clock, jobs, clients);
        assert!(
            result.all_verified(),
            "{} failed on bare runtime: {:?}",
            kind.name(),
            result.errors
        );
        assert_eq!(result.reports[0].name, kind.name());
    }
}

#[test]
fn all_13_apps_verify_on_mtgpu_runtime() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::tesla_c2050()]);
    let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
    let jobs: Vec<_> = AppKind::all().iter().map(|k| k.build(Scale::TINY)).collect();
    let clients: Vec<Box<dyn CudaClient>> =
        jobs.iter().map(|_| Box::new(rt.local_client()) as Box<dyn CudaClient>).collect();
    // All 13 concurrently: sharing, queueing, possibly swapping.
    let result = run_batch(&clock, jobs, clients);
    assert!(result.all_verified(), "errors: {:?}", result.errors);
    assert_eq!(result.reports.len(), 13);
    rt.shutdown();
}

#[test]
fn kernel_call_counts_match_table2_at_paper_scale() {
    // Verify the Table 2 kernel-call column for the apps cheap enough to
    // run at paper *call counts* (time scaled down, counts kept).
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::tesla_c2050()]);
    // A scale with paper call counts but tiny kernel durations.
    let scale = Scale { time: 1e-1, mem: 1e-5 };
    for kind in [AppKind::Bp, AppKind::Bfs, AppKind::Hs, AppKind::Va, AppKind::MmL] {
        let jobs = vec![kind.build(scale)];
        let clients: Vec<Box<dyn CudaClient>> = vec![Box::new(BareClient::new(driver.clone()))];
        let result = run_batch(&clock, jobs, clients);
        assert!(result.all_verified(), "{}: {:?}", kind.name(), result.errors);
        assert_eq!(
            result.reports[0].kernel_calls,
            kind.kernel_calls(),
            "{} kernel calls",
            kind.name()
        );
    }
}

#[test]
fn mm_cpu_fraction_stretches_runtime() {
    install_kernel_library();
    // Coarse enough that the simulated durations dominate real-time
    // call overheads: MM-L = 10 kernels of 125 ms sim each at this scale.
    let clock = Clock::with_scale(1e-3);
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::tesla_c2050()]);
    let mut elapsed = Vec::new();
    for frac in [0.0, 2.0] {
        let jobs = vec![AppKind::MmL.build_with(Scale { time: 1e-1, mem: 1e-5 }, frac)];
        let clients: Vec<Box<dyn CudaClient>> = vec![Box::new(BareClient::new(driver.clone()))];
        let result = run_batch(&clock, jobs, clients);
        assert!(result.all_verified());
        elapsed.push(result.reports[0].elapsed);
    }
    assert!(
        elapsed[1] > elapsed[0],
        "cpu_fraction=2 ({}) must take longer than 0 ({})",
        elapsed[1],
        elapsed[0]
    );
}

/// A client that keeps what a job uploads and downloads, in order.
struct Recorder {
    inner: BareClient,
    uploads: Vec<Vec<f32>>,
    downloads: Vec<Vec<f32>>,
}

impl CudaClient for Recorder {
    fn call(&mut self, call: CudaCall) -> CudaReply {
        if let CudaCall::MemcpyH2D { buf, .. } = &call {
            self.uploads.push(buf.as_f32s());
        }
        let reply = self.inner.call(call);
        if let Ok(ReplyValue::Bytes(buf)) = &reply {
            self.downloads.push(buf.as_f32s());
        }
        reply
    }
}

#[test]
fn bs_s_prices_on_the_device_bit_for_bit_as_the_host_reference() {
    // `run` verifies within a tolerance; this holds the device model's
    // pass-wise pricer to the scalar reference exactly, one ulp included.
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::tesla_c2050()]);
    let mut app = Recorder { inner: BareClient::new(driver), uploads: vec![], downloads: vec![] };
    let job = AppKind::BsS.build(Scale::TINY);
    register_workload(&mut app, job.as_ref()).unwrap();
    let report = job.run(&mut app, &clock).unwrap();
    assert!(report.verified);
    let [s, x, t] = &app.uploads[..] else { panic!("{} uploads", app.uploads.len()) };
    let [calls, puts] = &app.downloads[..] else { panic!("{} downloads", app.downloads.len()) };
    assert_eq!(calls.len(), 256);
    for i in 0..s.len() {
        let (call, put) = price(s[i], x[i], t[i]);
        assert_eq!(calls[i].to_bits(), call.to_bits(), "call {i}: {} vs {call}", calls[i]);
        assert_eq!(puts[i].to_bits(), put.to_bits(), "put {i}: {} vs {put}", puts[i]);
    }
}
