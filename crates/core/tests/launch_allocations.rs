//! Heap allocations of a kernel launch through the in-process path: the
//! runtime's service, memory manager and device model serve a launch whose
//! working set is bound, resident and has nothing to upload without one
//! (the launch's per-argument buffers are the serving thread's, kept from
//! one launch to the next), so a raw `call(Launch)` allocates nothing;
//! `launch()` pins what the client's `ConfigureCall` + `Launch` batch adds
//! around it. Counted per thread by a wrapping global allocator, so
//! nothing the node's other threads do is counted.

use mtgpu_api::protocol::{CudaCall, ReplyValue};
use mtgpu_api::{CudaClient, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu_core::{NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{Driver, GpuSpec, KernelDesc};
use mtgpu_simtime::Clock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made on this thread. `const`-
    /// initialised and without a destructor, so the allocator may touch it
    /// at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A launch of the payload-free `alloc_noop` over five pointer arguments
/// and a scalar.
fn spec(ptrs: &[mtgpu_gpusim::DeviceAddr]) -> LaunchSpec {
    let mut args: Vec<KernelArg> = ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect();
    args.push(KernelArg::Scalar(4096));
    LaunchSpec {
        kernel: "alloc_noop".into(),
        config: LaunchConfig::default(),
        args,
        work: Work::flops(1e3),
    }
}

#[test]
fn a_resident_launch_allocates_nothing_in_the_runtime() {
    let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small()]);
    let cfg = RuntimeConfig::default().with_background_monitor(false);
    let rt = NodeRuntime::start(driver, cfg);
    let mut client = rt.local_client();
    let module = client.register_fat_binary().unwrap();
    client.register_function(module, KernelDesc::plain("alloc_noop")).unwrap();
    let ptrs: Vec<_> = (0..5).map(|_| client.malloc(4096).unwrap()).collect();
    // The first launches bind the context and make the set resident; the
    // ones after find it so, and every lazily grown buffer grown.
    for _ in 0..3 {
        client.launch(spec(&ptrs)).unwrap();
    }
    let mut counts = Vec::new();
    for _ in 0..100 {
        let call = CudaCall::Launch { spec: spec(&ptrs) };
        let (reply, n) = allocations(|| client.call(call));
        assert!(matches!(reply, Ok(ReplyValue::LaunchDone { .. })), "{reply:?}");
        counts.push(n);
    }
    assert!(counts.iter().all(|&n| n == 0), "allocations per raw launch: {counts:?}");
    // `launch()` sends it behind a `ConfigureCall` as a two-call batch,
    // which a pipelining client may queue: two allocations of the client's
    // around it, none of the runtime's.
    for _ in 0..100 {
        let spec = spec(&ptrs);
        let (launched, n) = allocations(|| client.launch(spec));
        launched.unwrap();
        assert_eq!(n, 2, "allocations per launch()");
    }
    assert_eq!(rt.metrics().launches, 203);
    client.exit().unwrap();
    rt.shutdown();
}
