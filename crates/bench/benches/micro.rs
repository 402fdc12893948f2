//! Micro-benchmarks: the per-operation costs of the runtime's building
//! blocks (page-table operations, device allocator, engine arbitration,
//! end-to-end call overhead through the in-process connection).

use criterion::{criterion_group, criterion_main, Criterion};
use mtgpu_api::{BareClient, CudaClient, HostBuf};
use mtgpu_core::memory::{MemoryConfig, MemoryManager};
use mtgpu_core::{CtxId, NodeRuntime, RuntimeConfig, RuntimeMetrics};
use mtgpu_gpusim::alloc::BlockAllocator;
use mtgpu_gpusim::engine::FifoEngine;
use mtgpu_gpusim::{Driver, GpuSpec};
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
        b.iter(|| engine.occupy(black_box(SimDuration::ZERO)));
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

criterion_group!(
    micro,
    bench_block_allocator,
    bench_page_table,
    bench_engine,
    bench_end_to_end_call
);
criterion_main!(micro);
