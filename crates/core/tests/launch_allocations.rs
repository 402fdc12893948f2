//! Heap allocations of a kernel launch through the in-process path, on the
//! serving thread. A launch whose working set is bound, resident and has
//! nothing to upload makes none in the runtime's service, memory manager
//! and device model (the launch's per-argument buffers are the serving
//! thread's, kept from one launch to the next), so a raw `call(Launch)`
//! allocates nothing; `launch()` pins what the client's `ConfigureCall` +
//! `Launch` batch adds around it. A launch that swaps a co-tenant out whole
//! and brings its own entries back makes none either: its transfer plans,
//! victim search and placement run on buffers kept per thread or in the
//! dispatcher, writebacks land in their slabs, and the device keeps the
//! shadow buffers and allocation slots its peak held. Counted per thread
//! by a wrapping global allocator, so nothing the node's other threads do
//! is counted.

use mtgpu_api::protocol::{CudaCall, ReplyValue};
use mtgpu_api::{CudaClient, FrontendClient, HostBuf, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu_core::{InProcessChannel, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{DeviceAddr, Driver, GpuSpec, KernelDesc};
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
fn spec(ptrs: &[DeviceAddr]) -> LaunchSpec {
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
    // around it, the batch's `Vec` and its replies, none of the runtime's.
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

/// Two in-process contexts of eight 4 MiB entries each on one `test_small`
/// device (48 MiB free past its four vGPUs' reservations): neither fits
/// beside the other, so each launch swaps the other out whole as an
/// inter-application victim, eight dirty writebacks and eight frees, then
/// allocates and uploads its own eight entries. The launches take turns on
/// one thread, so the victim's swap-out is counted with the launch that
/// asked for it. A nonzero count means one of the launch's kept buffers is
/// made per launch again: a writeback's bytes (they land in the slab), a
/// transfer plan's ops or outcomes, the set the pointer check resolves
/// into, the victim list, the dispatcher's placement lists, or the device
/// model's spare shadow buffers or allocation records.
#[test]
fn a_swapping_launch_allocates_nothing_in_the_runtime() {
    let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small()]);
    let cfg = RuntimeConfig::default().with_background_monitor(false);
    let rt = NodeRuntime::start(driver, cfg);
    let mut clients = [rt.local_client(), rt.local_client()];
    let sets: Vec<Vec<DeviceAddr>> = clients
        .iter_mut()
        .map(|client| {
            let module = client.register_fat_binary().unwrap();
            client.register_function(module, KernelDesc::plain("alloc_noop")).unwrap();
            (0..8u8)
                .map(|i| {
                    let ptr = client.malloc(4 << 20).unwrap();
                    client.memcpy_h2d(ptr, HostBuf::from_slice(&[i + 1; 4096])).unwrap();
                    ptr
                })
                .collect()
        })
        .collect();
    let launch = |client: &mut FrontendClient<InProcessChannel>, set: &[DeviceAddr]| {
        let call = CudaCall::Launch { spec: spec(set) };
        allocations(|| client.call(call))
    };
    // The first rounds grow every kept buffer to its size.
    for _ in 0..4 {
        for (client, set) in clients.iter_mut().zip(&sets) {
            launch(client, set).0.unwrap();
        }
    }
    let swaps = rt.metrics().inter_app_swaps;
    let mut counts = Vec::new();
    for _ in 0..50 {
        for (client, set) in clients.iter_mut().zip(&sets) {
            let (reply, n) = launch(client, set);
            assert!(matches!(reply, Ok(ReplyValue::LaunchDone { .. })), "{reply:?}");
            counts.push(n);
        }
    }
    assert_eq!(rt.metrics().inter_app_swaps - swaps, 100, "every launch swaps the other out");
    assert!(counts.iter().all(|&n| n == 0), "allocations per swapping launch: {counts:?}");
    // What the victims' writebacks brought back is what they uploaded.
    for (client, set) in clients.iter_mut().zip(&sets) {
        for (i, &ptr) in set.iter().enumerate() {
            assert_eq!(client.memcpy_d2h(ptr, 4096).unwrap().payload, [i as u8 + 1; 4096]);
        }
    }
    for mut client in clients {
        client.exit().unwrap();
    }
    rt.shutdown();
}
