//! The `bs_price` payload on the device model: once a thread has priced a
//! catalog-sized launch, the next ones allocate nothing, a larger launch
//! keeps none of what it grew, and arguments that alias one another read
//! and write in the payload's order (every input copied out whole, then
//! every call written, then every put). Counted per thread by a wrapping
//! global allocator, so nothing another test's thread does is counted.

use mtgpu_gpusim::kernel::library;
use mtgpu_gpusim::{DeviceAddr, Gpu, GpuContextId, GpuSpec, KernelArg, LaunchConfig, LaunchSpec};
use mtgpu_simtime::Clock;
use mtgpu_workloads::apps::blackscholes::price;
use mtgpu_workloads::calib::work_c2050;
use mtgpu_workloads::install_kernel_library;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made on this thread. `const`-
    /// initialised and without a destructor, so the allocator may touch it
    /// at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(grown: usize, freed: usize) {
    if grown > 0 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|n| n.set(n.get() + grown as i64 - freed as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread, and the bytes it leaves
/// allocated there.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (before, live) = (ALLOCATIONS.with(Cell::get), LIVE.with(Cell::get));
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before, LIVE.with(Cell::get) - live)
}

/// Options per launch, as a catalog BS-S job prices them.
const OPTIONS: usize = 256;

/// A context on a fresh device with `priced_arrays` of `options`.
fn priced_device(options: usize) -> (Arc<Gpu>, GpuContextId, [DeviceAddr; 5], [Vec<f32>; 3]) {
    install_kernel_library();
    let gpu = Gpu::new(GpuSpec::test_small(), Clock::virtual_clock(), 0);
    let ctx = gpu.create_context().unwrap();
    let (ptrs, inputs) = priced_arrays(&gpu, ctx, options);
    (gpu, ctx, ptrs, inputs)
}

/// Five arrays of `options` f32s uploaded to `ctx`: spots, strikes and
/// maturities, then two output arrays holding zeros.
fn priced_arrays(gpu: &Gpu, ctx: GpuContextId, options: usize) -> ([DeviceAddr; 5], [Vec<f32>; 3]) {
    let bytes = options as u64 * 4;
    let ptrs = [(); 5].map(|_| gpu.malloc(ctx, bytes).unwrap());
    let ramp = |lo: f32, step: f32| (0..options).map(|i| lo + step * i as f32).collect();
    let inputs: [Vec<f32>; 3] = [ramp(5.0, 0.1), ramp(1.0, 0.39), ramp(0.25, 0.038)];
    let zeros = vec![0f32; options];
    for (ptr, values) in ptrs.iter().zip(inputs.iter().chain([&zeros, &zeros])) {
        let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        gpu.memcpy_h2d(ctx, *ptr, bytes, &payload).unwrap();
    }
    (ptrs, inputs)
}

/// A `bs_price` launch over `args`' five pointers and `OPTIONS` options.
fn spec(args: [DeviceAddr; 5]) -> LaunchSpec {
    spec_of(args, OPTIONS)
}

/// A `bs_price` launch over `args`' five pointers and `options` options.
fn spec_of(args: [DeviceAddr; 5], options: usize) -> LaunchSpec {
    let mut args: Vec<KernelArg> = args.iter().map(|&p| KernelArg::Ptr(p)).collect();
    args.push(KernelArg::Scalar(options as u64));
    LaunchSpec {
        kernel: "bs_price".into(),
        config: LaunchConfig::default(),
        args,
        work: work_c2050(1e-6),
    }
}

fn read(gpu: &Gpu, ctx: GpuContextId, ptr: DeviceAddr) -> Vec<f32> {
    let bytes = gpu.memcpy_d2h(ctx, ptr, OPTIONS as u64 * 4).unwrap();
    bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap())).collect()
}

/// `price`'s calls and puts of the options, as bits.
fn expected([s, x, t]: &[Vec<f32>; 3]) -> (Vec<u32>, Vec<u32>) {
    (0..OPTIONS).map(|i| price(s[i], x[i], t[i])).map(|(c, p)| (c.to_bits(), p.to_bits())).unzip()
}

fn bits(values: Vec<f32>) -> Vec<u32> {
    values.into_iter().map(f32::to_bits).collect()
}

#[test]
fn a_bs_price_launch_allocates_nothing_after_the_first() {
    let (gpu, ctx, ptrs, inputs) = priced_device(OPTIONS);
    let kernel = library::lookup("bs_price").expect("bs_price is installed");
    let spec = spec(ptrs);
    gpu.launch(ctx, &kernel, &spec).unwrap();
    let mut counts = Vec::new();
    for _ in 0..100 {
        let (launched, n, _) = allocations(|| gpu.launch(ctx, &kernel, &spec));
        launched.unwrap();
        counts.push(n);
    }
    assert!(counts.iter().all(|&n| n == 0), "allocations per launch: {counts:?}");
    let (calls, puts) = expected(&inputs);
    assert_eq!(bits(read(&gpu, ctx, ptrs[3])), calls);
    assert_eq!(bits(read(&gpu, ctx, ptrs[4])), puts);
}

#[test]
fn aliased_arguments_read_every_input_before_writing_calls_then_puts() {
    let (gpu, ctx, [s, x, t, ..], inputs) = priced_device(OPTIONS);
    let kernel = library::lookup("bs_price").expect("bs_price is installed");
    let (calls, puts) = expected(&inputs);
    // Calls over the strikes and puts over the maturities: each written
    // after all three inputs were read.
    gpu.launch(ctx, &kernel, &spec([s, x, t, x, t])).unwrap();
    assert_eq!(bits(read(&gpu, ctx, x)), calls);
    assert_eq!(bits(read(&gpu, ctx, t)), puts);
    // Both over the spots (whose values are unchanged): the puts, written
    // last, are what stays.
    let (gpu, ctx, [s, x, t, ..], _) = priced_device(OPTIONS);
    gpu.launch(ctx, &kernel, &spec([s, x, t, s, s])).unwrap();
    assert_eq!(bits(read(&gpu, ctx, s)), puts);
}

#[test]
fn a_large_launch_keeps_nothing_it_grew() {
    // 256 KiB an argument: a thread that kept its copies would hold five.
    const LARGE: usize = 64 * 1024;
    let (gpu, ctx, ptrs, _) = priced_device(OPTIONS);
    let (large, _) = priced_arrays(&gpu, ctx, LARGE);
    let kernel = library::lookup("bs_price").expect("bs_price is installed");
    let (small, large) = (spec(ptrs), spec_of(large, LARGE));
    gpu.launch(ctx, &kernel, &small).unwrap();
    let (launched, _, kept) = allocations(|| gpu.launch(ctx, &kernel, &large));
    launched.unwrap();
    assert_eq!(kept, 0, "bytes a {LARGE}-option launch left allocated");
    // The catalog-sized launch after it still allocates nothing.
    let (launched, n, _) = allocations(|| gpu.launch(ctx, &kernel, &small));
    launched.unwrap();
    assert_eq!(n, 0, "allocations of a {OPTIONS}-option launch after a large one");
}
