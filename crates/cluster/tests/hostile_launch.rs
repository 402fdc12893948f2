//! A launch's arguments are outside input (DESIGN.md §13). A kernel payload
//! that meets a pointer off 4-byte alignment, a scalar where a pointer
//! belongs, or an element count no buffer holds answers its caller with a
//! typed error — and the reactor that serves every tenant of the node keeps
//! answering, the hostile connection's own later calls included.

use mtgpu_api::{CudaClient, CudaError};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::{DeviceAddr, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

fn spec(kernel: &str, args: Vec<KernelArg>) -> LaunchSpec {
    let config = LaunchConfig::default();
    LaunchSpec { kernel: kernel.into(), config, args, work: Work::flops(1e6) }
}

fn battery() {
    mtgpu_workloads::install_kernel_library();
    let cfg = RuntimeConfig::default().with_background_monitor(false);
    let node = ClusterNode::start(
        "hostile".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::tesla_c2050()],
        cfg,
        true,
    );
    let mut app = node.mux_client().unwrap();
    let devices = app.get_device_count().unwrap();
    let module = app.register_fat_binary().unwrap();
    for kernel in ["va_add", "bs_price"] {
        app.register_function(module, KernelDesc::plain(kernel)).unwrap();
    }
    let bufs: Vec<DeviceAddr> = (0..5).map(|_| app.malloc(64 << 10).unwrap()).collect();
    let ptrs = |n: u64| -> Vec<KernelArg> {
        let mut args: Vec<KernelArg> = bufs.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.push(KernelArg::Scalar(n));
        args
    };
    let va = |a: DeviceAddr, n: u64| {
        let [b, c] = [bufs[1], bufs[2]].map(KernelArg::Ptr);
        spec("va_add", vec![KernelArg::Ptr(a), b, c, KernelArg::Scalar(n)])
    };
    let mut scalar_first = ptrs(256);
    scalar_first[0] = KernelArg::Scalar(7);
    let cases = [
        // The aligned f32 view would start three bytes in and hold 999 floats.
        (
            "a pointer one byte off alignment",
            va(DeviceAddr(bufs[0].0 + 1), 1000),
            CudaError::InvalidValue,
        ),
        // No pointer where the payload reads its spot prices.
        ("a scalar in a pointer slot", spec("bs_price", scalar_first), CudaError::InvalidValue),
        // 4 TiB of floats: the buffer must resolve before anything is allocated.
        ("2^40 options", spec("bs_price", ptrs(1 << 40)), CudaError::OutOfBounds),
        // `n * 4` past `usize::MAX`.
        ("2^62 options", spec("bs_price", ptrs(1 << 62)), CudaError::InvalidValue),
    ];
    for (what, launch, want) in cases {
        assert_eq!(app.launch(launch), Err(want), "{what}");
        let mut other = node.mux_client().unwrap();
        assert_eq!(other.get_device_count(), Ok(devices), "after {what}, a second connection");
        other.exit().unwrap();
    }
    // The hostile caller's connection still serves it, well-formed launches
    // included.
    app.launch(va(bufs[0], 1000)).unwrap();
    app.launch(spec("bs_price", ptrs(256))).unwrap();
    app.exit().unwrap();
    node.shutdown();
}

#[test]
fn hostile_launch_arguments_get_typed_errors_and_the_node_keeps_serving() {
    // A payload that panics on the reactor leaves every later call
    // unanswered: the watchdog turns that hang into a failure.
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        battery();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("the node stopped answering for 60 s"),
    }
}
