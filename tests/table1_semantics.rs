//! Table 1 semantics, checked end-to-end through the public API: which
//! CUDA actions each application call triggers under transfer deferral,
//! and which errors each call can return.

use mtgpu::api::{CudaClient, CudaError, HostBuf, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu::core::{NodeRuntime, RuntimeConfig};
use mtgpu::gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu::gpusim::{DeviceAddr, DeviceId, Driver, GpuError, GpuSpec, KernelDesc};
use mtgpu::simtime::Clock;
use std::sync::Arc;

fn setup() -> (Arc<NodeRuntime>, Arc<mtgpu::gpusim::Gpu>) {
    library::register(RegisteredKernel { desc: KernelDesc::plain("noop"), payload: None });
    // Writes 0xEE over the first `len` bytes of its buffer (`fill_ee`).
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("fill_ee"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let (KernelArg::Ptr(p), KernelArg::Scalar(len)) = (exec.args()[0], exec.args()[1])
            else {
                return Err(GpuError::InvalidValue);
            };
            exec.with_bytes_mut(p, len, &mut |b| b.fill(0xEE))
        })),
    });
    let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
    let gpu = driver.device(DeviceId(0)).unwrap();
    let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
    (rt, gpu)
}

fn noop_launch(ptrs: &[DeviceAddr]) -> LaunchSpec {
    LaunchSpec {
        kernel: "noop".into(),
        config: LaunchConfig::default(),
        args: ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect(),
        work: Work::flops(1e5),
    }
}

#[test]
fn malloc_creates_pte_and_swap_only() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let before = gpu.stats().snapshot();
    let _ptr = c.malloc(1 << 20).unwrap();
    let after = gpu.stats().snapshot();
    assert_eq!(before.allocs, after.allocs, "Malloc must not touch the device");
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn copy_hd_moves_data_to_swap_only() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let ptr = c.malloc(4096).unwrap();
    let before = gpu.stats().snapshot();
    c.memcpy_h2d(ptr, HostBuf::from_slice(&[1u8; 4096])).unwrap();
    let after = gpu.stats().snapshot();
    assert_eq!(before.h2d_bytes, after.h2d_bytes, "Copy_HD must defer");
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn launch_materializes_allocation_and_bulk_upload() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(m, KernelDesc::plain("noop")).unwrap();
    let ptr = c.malloc(4096).unwrap();
    c.memcpy_h2d(ptr, HostBuf::from_slice(&[1u8; 4096])).unwrap();
    let before = gpu.stats().snapshot();
    c.launch(noop_launch(&[ptr])).unwrap();
    let after = gpu.stats().snapshot();
    assert_eq!(after.allocs - before.allocs, 1, "Launch performs the cudaMalloc");
    assert_eq!(after.h2d_bytes - before.h2d_bytes, 4096, "Launch performs the bulk copy");
    assert_eq!(after.kernels_launched - before.kernels_launched, 1);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn copy_dh_synchronizes_dirty_data_once() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(m, KernelDesc::plain("noop")).unwrap();
    let ptr = c.malloc(4096).unwrap();
    c.launch(noop_launch(&[ptr])).unwrap();
    // First Copy_DH: data dirty on device → one cudaMemcpyDH.
    let before = gpu.stats().snapshot();
    let _ = c.memcpy_d2h(ptr, 16).unwrap();
    let mid = gpu.stats().snapshot();
    assert_eq!(mid.d2h_bytes - before.d2h_bytes, 4096, "whole-entry synchronization");
    // Second Copy_DH: clean → served from swap, no device traffic.
    let _ = c.memcpy_d2h(ptr, 16).unwrap();
    let after = gpu.stats().snapshot();
    assert_eq!(after.d2h_bytes, mid.d2h_bytes, "clean data served from swap");
    c.exit().unwrap();
    rt.shutdown();
}

/// A launch of the kernel that writes `0xEE` over `len` bytes at `ptr`.
fn fill_ee(ptr: DeviceAddr, len: u64) -> LaunchSpec {
    LaunchSpec {
        kernel: "fill_ee".into(),
        config: LaunchConfig::default(),
        args: vec![KernelArg::Ptr(ptr), KernelArg::Scalar(len)],
        work: Work::flops(1e5),
    }
}

#[test]
fn covering_copy_hd_supersedes_kernel_output_without_reading_it() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(m, KernelDesc::plain("noop")).unwrap();
    c.register_function(m, KernelDesc::plain("fill_ee")).unwrap();
    let ptr = c.malloc(4096).unwrap();
    c.launch(fill_ee(ptr, 4096)).unwrap();
    // Every byte the kernel wrote is overwritten: no cudaMemcpyDH.
    let before = gpu.stats().snapshot();
    c.memcpy_h2d(ptr, HostBuf::from_slice(&[2u8; 4096])).unwrap();
    let mid = gpu.stats().snapshot();
    assert_eq!((mid.d2h_bytes, mid.h2d_bytes), (before.d2h_bytes, before.h2d_bytes));
    // The next launch uploads the host bytes, which read back as written.
    c.launch(noop_launch(&[ptr])).unwrap();
    let after = gpu.stats().snapshot();
    assert_eq!(after.h2d_bytes - mid.h2d_bytes, 4096, "one bulk upload");
    assert_eq!(c.memcpy_d2h(ptr, 4096).unwrap().payload, [2u8; 4096]);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn partial_copy_hd_merges_into_kernel_output() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(m, KernelDesc::plain("fill_ee")).unwrap();
    let ptr = c.malloc(4096).unwrap();
    c.memcpy_h2d(ptr, HostBuf::from_slice(&[1u8; 4096])).unwrap();
    c.launch(fill_ee(ptr, 4096)).unwrap();
    // The bytes the copy leaves must be the kernel's: one whole-entry
    // cudaMemcpyDH, counted as the device's swap traffic.
    let before = gpu.stats().snapshot();
    let (_, out_before) = rt.memory().device_swap_traffic(DeviceId(0));
    c.memcpy_h2d(DeviceAddr(ptr.0 + 1024), HostBuf::from_slice(&[3u8; 512])).unwrap();
    let mid = gpu.stats().snapshot();
    assert_eq!(mid.d2h_bytes - before.d2h_bytes, 4096, "whole-entry synchronization");
    assert_eq!(rt.memory().device_swap_traffic(DeviceId(0)).1 - out_before, 4096);
    let mut want = vec![0xEEu8; 4096];
    want[1024..1536].fill(3);
    assert_eq!(c.memcpy_d2h(ptr, 4096).unwrap().payload, want);
    assert_eq!(gpu.stats().snapshot().d2h_bytes, mid.d2h_bytes, "served from swap");
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn free_releases_device_copy_if_resident() {
    let (rt, gpu) = setup();
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(m, KernelDesc::plain("noop")).unwrap();
    // Unallocated free: swap-only, no device action.
    let cold = c.malloc(4096).unwrap();
    let before = gpu.stats().snapshot();
    c.free(cold).unwrap();
    assert_eq!(gpu.stats().snapshot().frees, before.frees);
    // Resident free: device cudaFree.
    let hot = c.malloc(4096).unwrap();
    c.launch(noop_launch(&[hot])).unwrap();
    let before = gpu.stats().snapshot();
    c.free(hot).unwrap();
    assert_eq!(gpu.stats().snapshot().frees - before.frees, 1);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn table1_error_matrix() {
    let (rt, _) = setup();
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(m, KernelDesc::plain("noop")).unwrap();
    let ptr = c.malloc(64).unwrap();
    // Malloc: "a virtual address cannot be assigned" is covered by the
    // PTE-budget test below; zero-size is invalid.
    assert_eq!(c.malloc(0), Err(CudaError::InvalidValue));
    // Copy_HD: no valid PTE / size mismatch.
    assert_eq!(
        c.memcpy_h2d(DeviceAddr(1), HostBuf::from_slice(&[0; 4])),
        Err(CudaError::InvalidDevicePointer)
    );
    assert_eq!(c.memcpy_h2d(ptr, HostBuf::declared(65)), Err(CudaError::SizeMismatch));
    // Copy_DH: no valid PTE.
    assert_eq!(c.memcpy_d2h(DeviceAddr(1), 4), Err(CudaError::InvalidDevicePointer));
    // Free: no valid PTE.
    assert_eq!(c.free(DeviceAddr(1)), Err(CudaError::InvalidDevicePointer));
    // Launch: no valid PTE.
    assert_eq!(c.launch(noop_launch(&[DeviceAddr(1)])), Err(CudaError::InvalidDevicePointer));
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn virtual_address_and_swap_exhaustion() {
    library::register(RegisteredKernel { desc: KernelDesc::plain("noop"), payload: None });
    let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
    let mut cfg = RuntimeConfig::paper_default();
    cfg.memory.max_ptes_per_context = 4;
    cfg.memory.swap_capacity = Some(1 << 20);
    let rt = NodeRuntime::start(driver, cfg);
    // "A virtual address cannot be assigned."
    let mut c = rt.local_client();
    for _ in 0..4 {
        c.malloc(256).unwrap();
    }
    assert_eq!(c.malloc(256), Err(CudaError::VirtualAddressExhausted));
    c.exit().unwrap();
    // "Swap memory cannot be allocated."
    let mut c = rt.local_client();
    c.malloc(1 << 19).unwrap();
    assert_eq!(c.malloc(1 << 20), Err(CudaError::SwapAllocation));
    c.exit().unwrap();
    rt.shutdown();
}
