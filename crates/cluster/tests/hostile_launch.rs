//! A launch's arguments are outside input (DESIGN.md §13). A kernel payload
//! that meets a pointer off 4-byte alignment, a scalar where a pointer
//! belongs, an element count no buffer holds, or more host work than the
//! launch declares answers its caller with a typed error — and the reactor
//! that serves every tenant of the node keeps answering, the hostile
//! connection's own later calls included. Hostile *values* in well-formed
//! buffers are priced, not refused: the Black-Scholes payload answers NaN,
//! infinite, zero, negative and denormal inputs as its host reference does.

use mtgpu_api::{CudaClient, CudaError, HostBuf};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::{DeviceAddr, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::Clock;
use mtgpu_workloads::apps::blackscholes::price;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

fn spec(kernel: &str, args: Vec<KernelArg>) -> LaunchSpec {
    let config = LaunchConfig::default();
    LaunchSpec { kernel: kernel.into(), config, args, work: Work::flops(1e6) }
}

fn node() -> ClusterNode {
    mtgpu_workloads::install_kernel_library();
    let cfg = RuntimeConfig::default().with_background_monitor(false);
    ClusterNode::start(
        "hostile".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::tesla_c2050()],
        cfg,
        true,
    )
}

fn battery() {
    let node = node();
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

/// Runs `case` on a thread of its own; a case that does not end within
/// `limit` fails (a payload that panics on the reactor, or holds it, leaves
/// every later call unanswered).
fn watchdog(limit: Duration, case: fn()) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("the node stopped answering for {limit:?}"),
    }
}

#[test]
fn hostile_launch_arguments_get_typed_errors_and_the_node_keeps_serving() {
    watchdog(Duration::from_secs(60), battery);
}

/// Spot, strike and years holding NaN, ±inf, ±0, negatives and f32
/// denormals, each in every slot of an ordinary option and all three at
/// once, priced by `bs_price` over the wire: the launch answers, every price
/// is the host reference's to the bit (NaN for NaN), and a second
/// connection is still served.
fn hostile_prices() {
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        -20.0,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(1),
    ];
    let mut options = vec![[20.0f32, 25.0, 1.0]];
    for v in specials {
        for slot in 0..3 {
            let mut option = [20.0, 25.0, 1.0];
            option[slot] = v;
            options.push(option);
        }
        options.push([v; 3]);
    }
    let n = options.len();
    let node = node();
    let mut app = node.mux_client().unwrap();
    let devices = app.get_device_count().unwrap();
    let module = app.register_fat_binary().unwrap();
    app.register_function(module, KernelDesc::plain("bs_price")).unwrap();
    let mut args = Vec::new();
    for slot in 0..5 {
        let ptr = app.malloc(n as u64 * 4).unwrap();
        if slot < 3 {
            let column: Vec<f32> = options.iter().map(|o| o[slot]).collect();
            app.memcpy_h2d(ptr, HostBuf::from_f32s(&column)).unwrap();
        }
        args.push(KernelArg::Ptr(ptr));
    }
    args.push(KernelArg::Scalar(n as u64));
    let [call_out, put_out] = [&args[3], &args[4]].map(|a| a.as_ptr().unwrap());
    app.launch(spec("bs_price", args)).unwrap();
    let calls = app.memcpy_d2h(call_out, n as u64 * 4).unwrap().as_f32s();
    let puts = app.memcpy_d2h(put_out, n as u64 * 4).unwrap().as_f32s();
    let same = |a: f32, b: f32| if b.is_nan() { a.is_nan() } else { a.to_bits() == b.to_bits() };
    for (i, [s, x, t]) in options.into_iter().enumerate() {
        let (call, put) = price(s, x, t);
        assert!(same(calls[i], call), "S={s} X={x} T={t}: call {} vs {call}", calls[i]);
        assert!(same(puts[i], put), "S={s} X={x} T={t}: put {} vs {put}", puts[i]);
    }
    let mut other = node.mux_client().unwrap();
    assert_eq!(
        other.get_device_count(),
        Ok(devices),
        "after the hostile prices, a second connection"
    );
    other.exit().unwrap();
    app.exit().unwrap();
    node.shutdown();
}

#[test]
fn hostile_pricing_inputs_price_as_the_host_reference_and_the_node_keeps_serving() {
    watchdog(Duration::from_secs(60), hostile_prices);
}

/// A matrix multiplication over two full 16 MiB buffers (n = 2048) that
/// declares a millionth of its 2·n³ ≈ 1.7·10¹⁰ flops: short enough by its
/// declaration to run on the reactor, about 8.6·10⁹ multiply-adds of host
/// work if the payload believed the scalar. It is refused before any of
/// them, and a second connection is answered within a second of the
/// launch reaching the reactor.
fn overdrawn_matmul() {
    const N: u64 = 2048;
    let node = node();
    let mut app = node.mux_client().unwrap();
    let module = app.register_fat_binary().unwrap();
    app.register_function(module, KernelDesc::plain("mm_matmul")).unwrap();
    let mut args: Vec<KernelArg> =
        (0..3).map(|_| KernelArg::Ptr(app.malloc(N * N * 4).unwrap())).collect();
    args.push(KernelArg::Scalar(N));
    let stats = node.mux_stats().unwrap();
    let read = stats.requests.load(Ordering::Relaxed);
    let hostile = std::thread::spawn(move || {
        let refused = app.launch(spec("mm_matmul", args));
        app.exit().unwrap();
        refused
    });
    // The launch's two frames are read, and the reactor is at the launch.
    while stats.requests.load(Ordering::Relaxed) < read + 2 {
        std::thread::yield_now();
    }
    let asked = Instant::now();
    let mut other = node.mux_client().unwrap();
    assert_eq!(other.get_device_count(), Ok(4));
    let answered = asked.elapsed();
    assert!(answered < Duration::from_secs(1), "a second connection waited {answered:?}");
    other.exit().unwrap();
    assert_eq!(hostile.join().unwrap(), Err(CudaError::InvalidValue));
    node.shutdown();
}

#[test]
fn matmul_declaring_less_work_than_it_takes_is_refused_and_the_node_keeps_serving() {
    watchdog(Duration::from_secs(60), overdrawn_matmul);
}
