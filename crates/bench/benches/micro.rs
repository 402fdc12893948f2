//! Micro-benchmarks: the per-operation costs of the runtime's building
//! blocks (page-table operations, device allocator, engine arbitration,
//! end-to-end call overhead through the in-process connection, one
//! kernel's functional payload on the device model, and the host buffer's
//! f32 conversions).

use criterion::{criterion_group, criterion_main, Criterion};
use mtgpu_api::{BareClient, CudaClient, HostBuf};
use mtgpu_core::memory::{MemoryConfig, MemoryManager};
use mtgpu_core::{CtxId, NodeRuntime, RuntimeConfig, RuntimeMetrics};
use mtgpu_gpusim::alloc::BlockAllocator;
use mtgpu_gpusim::engine::FifoEngine;
use mtgpu_gpusim::kernel::library;
use mtgpu_gpusim::{DeviceId, Driver, GpuSpec, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu_simtime::{Clock, SimDuration};
use std::hint::black_box;
use std::sync::Arc;

fn bench_block_allocator(c: &mut Criterion) {
    c.bench_function("allocator/alloc_free_cycle", |b| {
        let mut a = BlockAllocator::new(1 << 30);
        b.iter(|| {
            let p = a.alloc(black_box(4096)).unwrap();
            a.free(p, 4096).unwrap();
        });
    });
    c.bench_function("allocator/fragmented_alloc", |b| {
        // A checkerboard of live allocations: first-fit must walk holes.
        let mut a = BlockAllocator::new(1 << 26);
        let ptrs: Vec<u64> = (0..1024).map(|_| a.alloc(16 << 10).unwrap()).collect();
        for p in ptrs.iter().step_by(2) {
            a.free(*p, 16 << 10).unwrap();
        }
        b.iter(|| {
            let p = a.alloc(black_box(8 << 10)).unwrap();
            a.free(p, 8 << 10).unwrap();
        });
    });
}

fn bench_page_table(c: &mut Criterion) {
    c.bench_function("memory_manager/malloc_free", |b| {
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        mm.register_ctx(CtxId(1));
        b.iter(|| {
            let v = mm
                .malloc(CtxId(1), black_box(4096), mtgpu_api::protocol::AllocKind::Linear)
                .unwrap();
            mm.free(CtxId(1), v, None).unwrap();
        });
    });
    c.bench_function("memory_manager/copy_h2d_deferred", |b| {
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        mm.register_ctx(CtxId(1));
        let v = mm.malloc(CtxId(1), 1 << 20, mtgpu_api::protocol::AllocKind::Linear).unwrap();
        let buf = HostBuf::with_shadow(1 << 20, vec![7u8; 256]);
        b.iter(|| mm.copy_h2d(CtxId(1), black_box(v), &buf, None).unwrap());
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/occupy_zero_duration", |b| {
        let engine = FifoEngine::new(Clock::with_scale(1e-9));
        b.iter(|| engine.turn().spend(black_box(SimDuration::ZERO)));
    });
}

fn bench_end_to_end_call(c: &mut Criterion) {
    c.bench_function("call/bare_synchronize", |b| {
        let driver = Driver::with_devices(Clock::with_scale(1e-9), vec![GpuSpec::test_small()]);
        let mut client = BareClient::new(driver);
        client.malloc(64).unwrap();
        b.iter(|| client.synchronize().unwrap());
    });
    c.bench_function("call/runtime_synchronize", |b| {
        let driver = Driver::with_devices(Clock::with_scale(1e-9), vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
        let mut client = rt.local_client();
        b.iter(|| client.synchronize().unwrap());
        client.exit().unwrap();
        rt.shutdown();
    });
    c.bench_function("call/runtime_malloc_free", |b| {
        let driver = Driver::with_devices(Clock::with_scale(1e-9), vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
        let mut client = rt.local_client();
        b.iter(|| {
            let p = client.malloc(black_box(4096)).unwrap();
            client.free(p).unwrap();
        });
        client.exit().unwrap();
        rt.shutdown();
    });
}

fn bench_kernel_payload(c: &mut Criterion) {
    // One `bs_price` launch over BS-S's 256 shadow options on the device
    // model, straight on the device: its pointer checks and its payload.
    // A traced `mtgpu-perf` replay reports the median op, never a BS-S one,
    // so this is the number that shows the pricer's cost. Reported, not
    // gated; the best of 5000 launches.
    let mut group = c.benchmark_group("kernel");
    group.sample_size(5000).bench_function("bs_price_256", |b| {
        const N: usize = 256;
        mtgpu_workloads::install_kernel_library();
        let driver = Driver::with_devices(Clock::with_scale(1e-9), vec![GpuSpec::test_small()]);
        let gpu = driver.device(DeviceId(0)).unwrap();
        let ctx = gpu.create_context().unwrap();
        // BS-S's input ranges: spot 5–30, strike 1–100, 0.25–10 years.
        let spread = |i: usize, lo: f32, hi: f32| lo + (hi - lo) * (i as f32 * 0.618_034).fract();
        let mut args = Vec::new();
        for (lo, hi) in [(5.0, 30.0), (1.0, 100.0), (0.25, 10.0), (0.0, 0.0), (0.0, 0.0)] {
            let ptr = gpu.malloc(ctx, N as u64 * 4).unwrap();
            let bytes: Vec<u8> = (0..N).flat_map(|i| spread(i, lo, hi).to_le_bytes()).collect();
            gpu.memcpy_h2d(ctx, ptr, bytes.len() as u64, &bytes).unwrap();
            args.push(KernelArg::Ptr(ptr));
        }
        args.push(KernelArg::Scalar(N as u64));
        let kernel = library::lookup("bs_price").unwrap();
        let config = LaunchConfig::default();
        let spec = LaunchSpec { kernel: "bs_price".into(), config, args, work: Work::flops(1.0) };
        b.iter(|| gpu.launch(ctx, &kernel, black_box(&spec)).unwrap());
    });
    group.finish();
}

fn bench_host_buf(c: &mut Criterion) {
    // The client-side conversions under every f32 upload and download, on
    // one `bulk_copy` buffer (8192 floats, 32 KiB), against a plain clone
    // of the same bytes: the memory-speed floor. Reported, not gated; the
    // best of 5000 runs.
    const N: usize = 8192;
    let values: Vec<f32> = (0..N).map(|i| i as f32 * 0.5 - 1000.0).collect();
    let buf = HostBuf::from_f32s(&values);
    let mut group = c.benchmark_group("host_buf");
    group.sample_size(5000);
    group.bench_function("from_f32s_8192", |b| b.iter(|| HostBuf::from_f32s(black_box(&values))));
    group.bench_function("as_f32s_8192", |b| b.iter(|| black_box(&buf).as_f32s()));
    group.bench_function("clone_32k", |b| b.iter(|| black_box(&buf.payload).clone()));
    group.finish();
}

criterion_group!(
    micro,
    bench_block_allocator,
    bench_page_table,
    bench_engine,
    bench_end_to_end_call,
    bench_kernel_payload,
    bench_host_buf
);
criterion_main!(micro);
