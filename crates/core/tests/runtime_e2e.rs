//! End-to-end tests of the node runtime through the interposition client:
//! virtual memory, sharing, swapping, fault tolerance, migration.

use mtgpu_api::{CudaClient, CudaError, HostBuf, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu_core::{GpuLease, NodeRuntime, RuntimeConfig, TenantPolicyConfig};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::{DeviceAddr, DeviceId, Driver, GpuSpec, KernelDesc};
use mtgpu_simtime::Clock;
use std::sync::Arc;
use std::time::Duration;

const MIB: u64 = 1024 * 1024;

/// Registers the test kernels in the process-global library (idempotent).
fn install_kernels() {
    // fill: writes the low byte of arg1 (scalar) over the buffer at arg0.
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("fill"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let ptr = exec.args()[0].as_ptr().expect("fill needs a pointer");
            let value = match exec.args()[1] {
                KernelArg::Scalar(v) => v as u8,
                _ => 0,
            };
            let len = match exec.args().get(2) {
                Some(KernelArg::Scalar(l)) => *l,
                _ => 64,
            };
            exec.with_bytes_mut(ptr, len, &mut |bytes| bytes.fill(value))
        })),
    });
    // add_one: increments every byte of the buffer at arg0.
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("add_one"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let ptr = exec.args()[0].as_ptr().expect("add_one needs a pointer");
            let len = match exec.args().get(1) {
                Some(KernelArg::Scalar(l)) => *l,
                _ => 64,
            };
            exec.with_bytes_mut(ptr, len, &mut |bytes| {
                for b in bytes.iter_mut() {
                    *b = b.wrapping_add(1);
                }
            })
        })),
    });
    // noop: timing-only.
    library::register(RegisteredKernel { desc: KernelDesc::plain("noop"), payload: None });
}

fn launch(kernel: &str, args: Vec<KernelArg>, flops: f64) -> LaunchSpec {
    LaunchSpec {
        kernel: kernel.into(),
        config: LaunchConfig::default(),
        args,
        work: Work::flops(flops),
    }
}

fn test_runtime(n_devices: u32, cfg: RuntimeConfig) -> Arc<NodeRuntime> {
    install_kernels();
    let specs = (0..n_devices).map(|_| GpuSpec::test_small()).collect();
    let driver = Driver::with_devices(Clock::with_scale(1e-7), specs);
    NodeRuntime::start(driver, cfg)
}

/// Registers the standard module on a fresh client.
fn register(client: &mut impl CudaClient) {
    let m = client.register_fat_binary().unwrap();
    for name in ["fill", "add_one", "noop"] {
        client.register_function(m, KernelDesc::plain(name)).unwrap();
    }
}

#[test]
fn end_to_end_fill_roundtrip() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(256).unwrap();
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(ptr), KernelArg::Scalar(7), KernelArg::Scalar(256)],
        1e6,
    ))
    .unwrap();
    let back = c.memcpy_d2h(ptr, 256).unwrap();
    assert_eq!(back.payload, vec![7u8; 256]);
    c.free(ptr).unwrap();
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn virtual_addresses_are_not_device_addresses() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(64).unwrap();
    // Virtual space starts at 0x7f00_0000_0000; device space is salted
    // under (ordinal+1)<<40.
    assert!(ptr.0 >= 0x7f00_0000_0000, "app saw a non-virtual address {ptr}");
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn every_context_mints_from_the_same_base_and_a_refused_malloc_takes_its_span() {
    let lease = GpuLease { mem_mb: 1, ..GpuLease::unlimited() };
    let policy = TenantPolicyConfig::default().with_default_lease(lease);
    let rt = test_runtime(1, RuntimeConfig::paper_default().with_tenant_policy(policy));
    let (mut a, mut b) = (rt.local_client(), rt.local_client());
    let first = a.malloc(64).unwrap();
    assert_eq!(b.malloc(64).unwrap(), first, "contexts do not share a cursor");
    // Over the 1 MiB lease: refused before the memory manager, yet the
    // refused span is taken, so the next malloc lands past it.
    assert!(matches!(a.malloc(2 * MIB), Err(CudaError::QuotaExceeded(_))));
    assert_eq!(a.malloc(64).unwrap().0, first.0 + 256 + 2 * MIB);
    assert_eq!(b.malloc(64).unwrap().0, first.0 + 256);
    a.exit().unwrap();
    b.exit().unwrap();
    rt.shutdown();
}

#[test]
fn deferral_no_device_traffic_before_launch() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(MIB).unwrap();
    c.memcpy_h2d(ptr, HostBuf::with_shadow(MIB, vec![1u8; 128])).unwrap();
    c.memcpy_h2d(ptr, HostBuf::with_shadow(MIB, vec![2u8; 128])).unwrap();
    // Nothing has touched the device: no H2D bytes, no app allocations
    // (only the vGPU context reservations).
    assert_eq!(gpu.stats().snapshot().h2d_bytes, 0);
    assert_eq!(gpu.stats().snapshot().allocs, 0);
    // The second copy coalesced into the pending bulk transfer.
    assert!(rt.metrics().coalesced_copies >= 1);
    c.launch(launch("noop", vec![KernelArg::Ptr(ptr)], 1e6)).unwrap();
    let snap = gpu.stats().snapshot();
    assert_eq!(snap.allocs, 1, "single device allocation at launch");
    assert_eq!(snap.h2d_bytes, MIB, "one bulk upload of the declared size");
    assert!(rt.metrics().bulk_uploads >= 1);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn copy_d2h_without_launch_serves_from_swap() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(64).unwrap();
    c.memcpy_h2d(ptr, HostBuf::from_slice(&[5u8; 64])).unwrap();
    let back = c.memcpy_d2h(ptr, 64).unwrap();
    assert_eq!(back.payload, vec![5u8; 64]);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn interior_pointer_arithmetic_works_via_virtual_space() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(256).unwrap();
    let mid = DeviceAddr(ptr.0 + 128);
    c.memcpy_h2d(mid, HostBuf::from_slice(&[9u8; 16])).unwrap();
    let back = c.memcpy_d2h(mid, 16).unwrap();
    assert_eq!(back.payload, vec![9u8; 16]);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn table1_error_paths() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    // No valid PTE.
    assert_eq!(
        c.memcpy_h2d(DeviceAddr(0xdead), HostBuf::from_slice(&[0; 4])),
        Err(CudaError::InvalidDevicePointer)
    );
    assert_eq!(c.memcpy_d2h(DeviceAddr(0xdead), 4), Err(CudaError::InvalidDevicePointer));
    assert_eq!(c.free(DeviceAddr(0xdead)), Err(CudaError::InvalidDevicePointer));
    // Swap-data size mismatch: copy beyond the allocation.
    let ptr = c.malloc(64).unwrap();
    assert_eq!(c.memcpy_h2d(ptr, HostBuf::declared(128)), Err(CudaError::SizeMismatch));
    assert_eq!(c.memcpy_d2h(ptr, 128), Err(CudaError::OutOfBounds));
    assert!(rt.metrics().bad_ops_rejected >= 2);
    // Launch with an unregistered kernel.
    assert_eq!(
        c.launch(launch("ghost", vec![KernelArg::Ptr(ptr)], 1.0)),
        Err(CudaError::InvalidDeviceFunction("ghost".into()))
    );
    // Launch with an invalid pointer.
    assert_eq!(
        c.launch(launch("noop", vec![KernelArg::Ptr(DeviceAddr(0xbad))], 1.0)),
        Err(CudaError::InvalidDevicePointer)
    );
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn load_counts_connected_and_bound_contexts() {
    // Debug builds check lock order: `load()` once read the dispatcher's
    // counters with the registry guard still alive, which killed a debug
    // `node_daemon` at its first load report.
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let p = c.malloc(64).unwrap();
    c.launch(launch("fill", vec![KernelArg::Ptr(p), KernelArg::Scalar(7)], 1e3)).unwrap();
    let load = rt.load();
    assert_eq!((load.contexts, load.bound, load.waiting, load.total_vgpus), (1, 1, 0, 4));
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn set_device_is_ignored_and_count_reports_vgpus() {
    let rt = test_runtime(2, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    // cudaSetDevice is overridden: any ordinal is accepted.
    c.set_device(99).unwrap();
    // 2 devices × 4 vGPUs.
    assert_eq!(c.get_device_count().unwrap(), 8);
    let props = c.get_device_properties(5).unwrap();
    assert_eq!(props.name, "TestGPU-64M");
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn intra_app_swap_runs_oversized_application() {
    // Paper §4.5: three matrices where only ~two fit; the intra-application
    // swap must let the app complete although its footprint exceeds device
    // memory.
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    let avail = gpu.mem_available();
    let chunk = avail / 5 * 2; // two fit, three do not
    let mut c = rt.local_client();
    register(&mut c);
    let a = c.malloc(chunk).unwrap();
    let b = c.malloc(chunk).unwrap();
    let d = c.malloc(chunk).unwrap();
    c.memcpy_h2d(a, HostBuf::with_shadow(chunk, vec![1u8; 64])).unwrap();
    // k1 uses A, B; k2 uses B, D — A must be evicted for k2.
    c.launch(launch("noop", vec![KernelArg::Ptr(a), KernelArg::Ptr(b)], 1e6)).unwrap();
    c.launch(launch("noop", vec![KernelArg::Ptr(b), KernelArg::Ptr(d)], 1e6)).unwrap();
    let m = rt.metrics();
    assert!(m.intra_app_swaps >= 1, "expected intra-app swap, got {m:?}");
    // A's data survived the eviction.
    let back = c.memcpy_d2h(a, 64).unwrap();
    assert_eq!(back.payload, vec![1u8; 64]);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn inter_app_swap_resolves_conflicting_tenants() {
    // Two applications, each fitting alone but not together, time-share the
    // device through inter-application swap (§4.5).
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    let chunk = gpu.mem_available() * 6 / 10;
    let rt_a = Arc::clone(&rt);
    let rt_b = Arc::clone(&rt);
    let worker = move |rt: Arc<NodeRuntime>, tag: u8| {
        move || {
            let mut c = rt.local_client();
            register(&mut c);
            let ptr = c.malloc(chunk).unwrap();
            c.memcpy_h2d(ptr, HostBuf::with_shadow(chunk, vec![tag; 32])).unwrap();
            for _ in 0..4 {
                c.launch(launch("add_one", vec![KernelArg::Ptr(ptr), KernelArg::Scalar(32)], 1e7))
                    .unwrap();
                // CPU phase: the context goes idle, making it a swap victim.
                std::thread::sleep(Duration::from_millis(10));
            }
            let back = c.memcpy_d2h(ptr, 32).unwrap();
            c.exit().unwrap();
            back.payload
        }
    };
    let ta = std::thread::spawn(worker(rt_a, 10));
    let tb = std::thread::spawn(worker(rt_b, 20));
    let ra = ta.join().unwrap();
    let rb = tb.join().unwrap();
    // Each app incremented its buffer 4 times; data integrity across swaps.
    assert_eq!(ra, vec![14u8; 32]);
    assert_eq!(rb, vec![24u8; 32]);
    let m = rt.metrics();
    assert!(
        m.inter_app_swaps + m.launch_retries >= 1,
        "conflicting tenants must have swapped or retried: {m:?}"
    );
    rt.shutdown();
}

#[test]
fn recycled_buffer_no_leak_across_tenants() {
    // A (the victim) leaves 4 KiB of 0xAA on the device. B's launch does
    // not fit beside it: A is swapped out, and B's buffer of A's size is
    // materialized into the shadow buffer A's free left behind. Past the
    // 16 bytes B wrote, B's kernel and B's D2H see only zeros (plus the
    // kernel's one), never A's bytes.
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let chunk = rt.driver().device(DeviceId(0)).unwrap().mem_available() * 6 / 10;
    let mut a = rt.local_client();
    register(&mut a);
    let pa = a.malloc(chunk).unwrap();
    a.memcpy_h2d(pa, HostBuf::with_shadow(chunk, vec![0xAA; 4096])).unwrap();
    a.launch(launch("noop", vec![KernelArg::Ptr(pa)], 1e6)).unwrap();
    let mut b = rt.local_client();
    register(&mut b);
    let pb = b.malloc(chunk).unwrap();
    b.memcpy_h2d(DeviceAddr(pb.0 + 64), HostBuf::from_slice(&[7; 16])).unwrap();
    // Resident first (the working set is allocated last argument first),
    // so a live allocation keeps A's freed buffer on the device for reuse.
    let small = b.malloc(4096).unwrap();
    let args = vec![KernelArg::Ptr(pb), KernelArg::Scalar(4096), KernelArg::Ptr(small)];
    b.launch(launch("add_one", args, 1e6)).unwrap();
    assert_eq!(rt.metrics().inter_app_swaps, 1);
    let mut want = vec![1u8; 4096];
    want[64..80].fill(8);
    assert!(b.memcpy_d2h(pb, 4096).unwrap().payload == want, "B read A's bytes");
    // A's own bytes came back intact from its swap-out.
    assert_eq!(a.memcpy_d2h(pa, 4096).unwrap().payload, vec![0xAA; 4096]);
    b.exit().unwrap();
    a.exit().unwrap();
    assert!(rt.wait_idle(Duration::from_secs(10)));
    rt.shutdown();
}

#[test]
fn serialized_config_never_shares() {
    let rt = test_runtime(1, RuntimeConfig::serialized());
    let rt2 = Arc::clone(&rt);
    let t = std::thread::spawn(move || {
        let mut c = rt2.local_client();
        register(&mut c);
        let p = c.malloc(1024).unwrap();
        c.launch(launch("noop", vec![KernelArg::Ptr(p)], 1e8)).unwrap();
        c.exit().unwrap();
    });
    let mut c = rt.local_client();
    register(&mut c);
    let p = c.malloc(1024).unwrap();
    c.launch(launch("noop", vec![KernelArg::Ptr(p)], 1e8)).unwrap();
    c.exit().unwrap();
    t.join().unwrap();
    // One vGPU ⇒ never more than one binding at a time; both jobs ran.
    assert_eq!(rt.metrics().launches, 2);
    rt.shutdown();
}

#[test]
fn checkpoint_then_device_failure_recovers_transparently() {
    let rt = test_runtime(2, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(128).unwrap();
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(ptr), KernelArg::Scalar(3), KernelArg::Scalar(128)],
        1e6,
    ))
    .unwrap();
    // Explicit checkpoint: dirty device data flushed to swap.
    c.checkpoint().unwrap();
    assert!(rt.metrics().checkpoints >= 1);
    // Kill the device the context is bound to (one of the two).
    let bound_device = rt
        .driver()
        .devices()
        .into_iter()
        .find(|(_, g)| g.stats().snapshot().kernels_launched > 0)
        .map(|(id, _)| id)
        .expect("some device ran the kernel");
    rt.driver().device(bound_device).unwrap().fail();
    // Next launch transparently rebinds to the surviving device.
    c.launch(launch("add_one", vec![KernelArg::Ptr(ptr), KernelArg::Scalar(128)], 1e6)).unwrap();
    let back = c.memcpy_d2h(ptr, 128).unwrap();
    assert_eq!(back.payload, vec![4u8; 128], "state survived the failure");
    assert!(rt.metrics().recovered_contexts >= 1);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn failure_without_checkpoint_fails_context_but_not_runtime() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(128).unwrap();
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(ptr), KernelArg::Scalar(3), KernelArg::Scalar(128)],
        1e6,
    ))
    .unwrap();
    // Dirty data only on device; fail it.
    rt.driver().device(DeviceId(0)).unwrap().fail();
    let err = c.memcpy_d2h(ptr, 128).unwrap_err();
    assert_eq!(err, CudaError::DeviceUnavailable);
    assert_eq!(rt.metrics().failed_contexts, 1);
    // The error is sticky for this context.
    assert_eq!(
        c.launch(launch("noop", vec![KernelArg::Ptr(ptr)], 1.0)),
        Err(CudaError::DeviceUnavailable)
    );
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn auto_checkpoint_after_long_kernels() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.auto_checkpoint_after = Some(mtgpu_simtime::SimDuration::from_millis(1));
    let rt = test_runtime(2, cfg);
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(128).unwrap();
    // A kernel long enough to cross the auto-checkpoint threshold.
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(ptr), KernelArg::Scalar(9), KernelArg::Scalar(128)],
        1e9,
    ))
    .unwrap();
    assert!(rt.metrics().checkpoints >= 1, "auto checkpoint should fire");
    // Failure after the automatic checkpoint is survivable.
    let bound_device = rt
        .driver()
        .devices()
        .into_iter()
        .find(|(_, g)| g.stats().snapshot().kernels_launched > 0)
        .map(|(id, _)| id)
        .unwrap();
    rt.driver().device(bound_device).unwrap().fail();
    let back = c.memcpy_d2h(ptr, 128).unwrap();
    assert_eq!(back.payload, vec![9u8; 128]);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn migration_moves_idle_job_to_fast_gpu() {
    install_kernels();
    // Start with only the slow Quadro; the job must bind there.
    let clock = Clock::with_scale(1e-7);
    let driver = Driver::with_devices(clock, vec![GpuSpec::quadro_2000()]);
    let mut cfg = RuntimeConfig::paper_default().with_vgpus(1);
    cfg.dynamic_load_balancing = true;
    let rt = NodeRuntime::start(driver, cfg);
    let mut c = rt.local_client();
    register(&mut c);
    let p = c.malloc(2048).unwrap();
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(p), KernelArg::Scalar(5), KernelArg::Scalar(64)],
        1e8,
    ))
    .unwrap();
    assert!(rt.driver().device(DeviceId(0)).unwrap().stats().snapshot().kernels_launched >= 1);
    // Hot-attach a fast C2050 (dynamic upgrade, §2). The monitor must
    // migrate the idle job from the slow to the fast device (§5.3.4).
    let fast = rt.attach_device(GpuSpec::tesla_c2050());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.metrics().migrations == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(rt.metrics().migrations >= 1, "idle job never migrated to the fast GPU");
    assert!(rt.metrics().live_migrations >= 1, "the move must be a live migration");
    // The next kernel runs on the fast device with state intact.
    c.launch(launch("add_one", vec![KernelArg::Ptr(p), KernelArg::Scalar(64)], 1e8)).unwrap();
    assert_eq!(c.memcpy_d2h(p, 64).unwrap().payload, vec![6u8; 64]);
    assert!(
        rt.driver().device(fast).unwrap().stats().snapshot().kernels_launched >= 1,
        "post-migration kernel must run on the fast device"
    );
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn hot_attach_unblocks_waiting_jobs() {
    install_kernels();
    // Runtime with zero devices: the first launch waits.
    let driver = Driver::new(Clock::with_scale(1e-7));
    let rt = NodeRuntime::start(driver, RuntimeConfig::paper_default());
    let rt2 = Arc::clone(&rt);
    let job = std::thread::spawn(move || {
        let mut c = rt2.local_client();
        register(&mut c);
        let p = c.malloc(64).unwrap();
        c.launch(launch(
            "fill",
            vec![KernelArg::Ptr(p), KernelArg::Scalar(1), KernelArg::Scalar(64)],
            1e6,
        ))
        .unwrap();
        let back = c.memcpy_d2h(p, 64).unwrap();
        c.exit().unwrap();
        back.payload
    });
    std::thread::sleep(Duration::from_millis(30));
    assert!(!job.is_finished(), "launch must wait with no devices");
    rt.attach_device(GpuSpec::test_small());
    assert_eq!(job.join().unwrap(), vec![1u8; 64]);
    rt.shutdown();
}

#[test]
fn detach_device_recovers_clean_contexts() {
    let rt = test_runtime(2, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let ptr = c.malloc(64).unwrap();
    c.memcpy_h2d(ptr, HostBuf::from_slice(&[8u8; 64])).unwrap();
    c.launch(launch("noop", vec![KernelArg::Ptr(ptr)], 1e6)).unwrap();
    c.checkpoint().unwrap();
    let bound_device = rt
        .driver()
        .devices()
        .into_iter()
        .find(|(_, g)| g.stats().snapshot().kernels_launched > 0)
        .map(|(id, _)| id)
        .unwrap();
    rt.detach_device(bound_device);
    // Context rebinds to the remaining device on the next kernel.
    c.launch(launch("add_one", vec![KernelArg::Ptr(ptr), KernelArg::Scalar(64)], 1e6)).unwrap();
    assert_eq!(c.memcpy_d2h(ptr, 64).unwrap().payload, vec![9u8; 64]);
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn nested_structures_swap_consistently() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let parent = c.malloc(64).unwrap();
    let member = c.malloc(64).unwrap();
    c.register_nested(parent, vec![member]).unwrap();
    c.memcpy_h2d(member, HostBuf::from_slice(&[4u8; 64])).unwrap();
    // Launching with only the parent must also materialize the member.
    c.launch(launch("noop", vec![KernelArg::Ptr(parent)], 1e6)).unwrap();
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    assert_eq!(gpu.stats().snapshot().allocs, 2, "parent + member both resident");
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn dynamic_alloc_kernels_are_ineligible_but_run() {
    install_kernels();
    library::register(RegisteredKernel {
        desc: KernelDesc {
            name: "devmalloc".into(),
            uses_nested_pointers: false,
            uses_dynamic_alloc: true,
            read_only_args: Vec::new(),
        },
        payload: None,
    });
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    let m = c.register_fat_binary().unwrap();
    c.register_function(
        m,
        KernelDesc {
            name: "devmalloc".into(),
            uses_nested_pointers: false,
            uses_dynamic_alloc: true,
            read_only_args: Vec::new(),
        },
    )
    .unwrap();
    let p = c.malloc(64).unwrap();
    // §1: such applications may still use the runtime...
    c.launch(launch("devmalloc", vec![KernelArg::Ptr(p)], 1e6)).unwrap();
    c.exit().unwrap();
    rt.shutdown();
}

#[test]
fn many_concurrent_jobs_beyond_cuda_context_limit() {
    // 24 concurrent applications on one device: far beyond the CUDA
    // runtime's 8-context limit, possible because apps share the 4 vGPU
    // contexts (§4.4).
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let handles: Vec<_> = (0..24)
        .map(|i| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut c = rt.local_client();
                register(&mut c);
                let p = c.malloc(4096).unwrap();
                c.launch(launch(
                    "fill",
                    vec![KernelArg::Ptr(p), KernelArg::Scalar(i), KernelArg::Scalar(16)],
                    1e6,
                ))
                .unwrap();
                let back = c.memcpy_d2h(p, 16).unwrap();
                c.exit().unwrap();
                assert_eq!(back.payload, vec![i as u8; 16]);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(rt.metrics().launches, 24);
    // The device never held more than 4 contexts (vGPUs).
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    assert_eq!(gpu.stats().snapshot().contexts_created, 4);
    rt.shutdown();
}

#[test]
fn unbind_retry_when_no_victim_accepts() {
    // One tenant permanently busy (long kernels back to back), another
    // needing more memory than remains: it must unbind-and-retry, then
    // succeed once the busy tenant finishes.
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    let chunk = gpu.mem_available() * 6 / 10;
    let rt_busy = Arc::clone(&rt);
    let busy = std::thread::spawn(move || {
        let mut c = rt_busy.local_client();
        register(&mut c);
        let p = c.malloc(chunk).unwrap();
        for _ in 0..3 {
            c.launch(launch("noop", vec![KernelArg::Ptr(p)], 5e8)).unwrap();
        }
        c.exit().unwrap();
    });
    std::thread::sleep(Duration::from_millis(20));
    let mut c = rt.local_client();
    register(&mut c);
    let p = c.malloc(chunk).unwrap();
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(p), KernelArg::Scalar(2), KernelArg::Scalar(16)],
        1e6,
    ))
    .unwrap();
    assert_eq!(c.memcpy_d2h(p, 16).unwrap().payload, vec![2u8; 16]);
    c.exit().unwrap();
    busy.join().unwrap();
    rt.shutdown();
}

#[test]
fn trace_records_lifecycle_events() {
    use mtgpu_core::TraceEvent;
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    let p = c.malloc(128).unwrap();
    c.launch(launch(
        "fill",
        vec![KernelArg::Ptr(p), KernelArg::Scalar(1), KernelArg::Scalar(16)],
        1e6,
    ))
    .unwrap();
    c.checkpoint().unwrap();
    c.exit().unwrap();
    rt.wait_idle(Duration::from_secs(2));
    let events = rt.trace();
    let has = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().any(|r| pred(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::ContextCreated { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Bound { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Checkpointed { explicit: true, .. })));
    assert!(has(&|e| matches!(e, TraceEvent::ContextFinished { .. })));
    // Created precedes Bound precedes Finished for the same context.
    let created =
        events.iter().position(|r| matches!(r.event, TraceEvent::ContextCreated { .. })).unwrap();
    let bound = events.iter().position(|r| matches!(r.event, TraceEvent::Bound { .. })).unwrap();
    let finished =
        events.iter().position(|r| matches!(r.event, TraceEvent::ContextFinished { .. })).unwrap();
    assert!(created < bound && bound < finished);
    rt.shutdown();
}

#[test]
fn trace_pairs_every_bound_with_an_unbound() {
    use mtgpu_core::{TraceEvent, UnbindReason};
    let cfg = RuntimeConfig::paper_default().with_background_monitor(false);
    let rt = test_runtime(1, cfg);
    let chunk = rt.driver().device(DeviceId(0)).unwrap().mem_available() * 6 / 10;
    let noop_on = |ptr| launch("noop", vec![KernelArg::Ptr(ptr)], 1e6);
    // A binds holding most of the device; B's launch beside it swaps A out
    // as an inter-application victim.
    let mut a = rt.local_client();
    register(&mut a);
    let pa = a.malloc(chunk).unwrap();
    a.launch(noop_on(pa)).unwrap();
    let mut b = rt.local_client();
    register(&mut b);
    let pb = b.malloc(chunk).unwrap();
    b.launch(noop_on(pb)).unwrap();
    assert_eq!(rt.metrics().inter_app_swaps, 1);
    // The device fails under B, and the monitor recovers it; A comes back
    // from swap on a device attached meanwhile.
    rt.attach_device(GpuSpec::test_small());
    rt.driver().device(DeviceId(0)).unwrap().fail();
    rt.monitor_tick();
    a.launch(noop_on(pa)).unwrap();
    // C binds and is dropped without Exit; A exits; B, unbound, is dropped.
    let mut c = rt.local_client();
    register(&mut c);
    c.launch(launch("noop", Vec::new(), 1.0)).unwrap();
    drop(c);
    a.exit().unwrap();
    drop(b);
    assert_eq!(rt.context_count(), 0);

    let mut bound = Vec::new();
    let mut reasons = Vec::new();
    for record in rt.trace() {
        match record.event {
            TraceEvent::Bound { ctx, vgpu } => {
                assert!(!bound.contains(&(ctx, vgpu)), "{ctx:?} bound twice on {vgpu:?}");
                bound.push((ctx, vgpu));
            }
            TraceEvent::Unbound { ctx, vgpu, reason } => {
                let at = bound.iter().position(|&pair| pair == (ctx, vgpu));
                let at = at.unwrap_or_else(|| panic!("{ctx:?} unbound from {vgpu:?} unbound"));
                bound.remove(at);
                reasons.push(reason);
            }
            _ => {}
        }
    }
    assert!(bound.is_empty(), "bindings the trace never saw let go: {bound:?}");
    use UnbindReason::{DeviceLoss, Finished, Victim};
    assert_eq!(reasons, [Victim, DeviceLoss, Finished, Finished]);
    rt.shutdown();
}

#[test]
fn trace_disabled_by_zero_capacity() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.trace_capacity = 0;
    let rt = test_runtime(1, cfg);
    let mut c = rt.local_client();
    c.malloc(64).unwrap();
    c.exit().unwrap();
    rt.wait_idle(Duration::from_secs(2));
    assert!(rt.trace().is_empty());
    rt.shutdown();
}

#[test]
fn cuda4_application_threads_colocate() {
    // §4.8: threads announcing the same application id must land on the
    // same device, even when load balancing would otherwise spread them.
    let rt = test_runtime(3, RuntimeConfig::paper_default());
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut c = rt.local_client();
                c.set_application(42).unwrap();
                register(&mut c);
                let p = c.malloc(1024).unwrap();
                c.launch(launch(
                    "fill",
                    vec![KernelArg::Ptr(p), KernelArg::Scalar(i), KernelArg::Scalar(16)],
                    1e7,
                ))
                .unwrap();
                // Hold the binding briefly so siblings bind while we are on
                // a device.
                std::thread::sleep(Duration::from_millis(20));
                let ok = c.memcpy_d2h(p, 16).unwrap().payload == vec![i as u8; 16];
                c.exit().unwrap();
                ok
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap());
    }
    // Exactly one device ran kernels.
    let active_devices = rt
        .driver()
        .devices()
        .into_iter()
        .filter(|(_, g)| g.stats().snapshot().kernels_launched > 0)
        .count();
    assert_eq!(active_devices, 1, "application threads were split across devices");
    rt.shutdown();
}

#[test]
fn cuda4_different_applications_still_spread() {
    let rt = test_runtime(3, RuntimeConfig::paper_default());
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut c = rt.local_client();
                c.set_application(100 + i).unwrap(); // six distinct apps
                register(&mut c);
                let p = c.malloc(1024).unwrap();
                c.launch(launch("noop", vec![KernelArg::Ptr(p)], 1e8)).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                c.exit().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let active_devices = rt
        .driver()
        .devices()
        .into_iter()
        .filter(|(_, g)| g.stats().snapshot().kernels_launched > 0)
        .count();
    assert!(active_devices >= 2, "independent applications should load-balance");
    rt.shutdown();
}

/// A node with tenant A holding 60 % of its one device on a bound, launched
/// context. Without inter-application swap (`swap`), unbind-and-retry is
/// the only answer to memory pressure.
fn node_with_a_co_tenant_in_the_way(
    clock: Clock,
    swap: bool,
) -> (Arc<NodeRuntime>, FrontendA, DeviceAddr, u64) {
    install_kernels();
    let driver = Driver::with_devices(clock, vec![GpuSpec::test_small()]);
    let cfg = RuntimeConfig { inter_app_swap: swap, ..RuntimeConfig::paper_default() };
    let rt = NodeRuntime::start(driver, cfg);
    let chunk = rt.driver().device(DeviceId(0)).unwrap().mem_available() * 6 / 10;
    let mut a = rt.local_client();
    register(&mut a);
    let pa = a.malloc(chunk).unwrap();
    a.launch(launch("noop", vec![KernelArg::Ptr(pa)], 1e6)).unwrap();
    (rt, a, pa, chunk)
}

type FrontendA = mtgpu_api::FrontendClient<mtgpu_core::InProcessChannel>;

/// Waits (real time, bounded) until `retries` launches have unbound to retry.
fn await_retries(rt: &NodeRuntime, retries: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while rt.metrics().launch_retries < retries {
        assert!(std::time::Instant::now() < deadline, "the retry path was never taken");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn retry_waits_for_the_co_tenants_free_once_and_takes_no_virtual_time() {
    // B's launch does not fit beside A's memory: it gives its vGPU up and
    // waits in the dispatcher for A to make room. Nothing polls meanwhile,
    // so the timeline stands still, and A's free runs it — one retry.
    let clock = Clock::virtual_clock();
    let (rt, mut a, pa, chunk) = node_with_a_co_tenant_in_the_way(clock.clone(), false);
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (rt_b, done_b) = (Arc::clone(&rt), Arc::clone(&done));
    let tb = std::thread::spawn(move || {
        let mut b = rt_b.local_client();
        register(&mut b);
        let pb = b.malloc(chunk).unwrap();
        let fill = vec![KernelArg::Ptr(pb), KernelArg::Scalar(6), KernelArg::Scalar(16)];
        b.launch(launch("fill", fill, 1e6)).unwrap();
        done_b.store(true, std::sync::atomic::Ordering::SeqCst);
        let back = b.memcpy_d2h(pb, 16).unwrap();
        b.exit().unwrap();
        back.payload
    });
    await_retries(&rt, 1);
    let waiting_since = clock.now();
    std::thread::sleep(Duration::from_millis(20));
    assert!(!done.load(std::sync::atomic::Ordering::SeqCst), "B ran beside A's memory");
    assert_eq!(clock.now(), waiting_since, "the wait took virtual time: a backoff step");
    assert_eq!(rt.load().waiting, 1);
    a.free(pa).unwrap();
    assert_eq!(tb.join().unwrap(), vec![6u8; 16]);
    assert_eq!(rt.metrics().launch_retries, 1);
    a.exit().unwrap();
    assert!(rt.wait_idle(Duration::from_secs(10)));
    rt.shutdown();
}

#[test]
fn more_retrying_tenants_than_workers_hold_no_thread_and_all_run_after_the_free() {
    // On a scaled clock, more tenants than the pool has workers unbind to
    // retry at once, none fitting beside A. None holds a worker or a thread
    // of its own while it waits: A's calls are answered throughout, no
    // timer thread exists, nobody finishes before A's free and everybody
    // after it.
    let (rt, mut a, pa, chunk) = node_with_a_co_tenant_in_the_way(Clock::with_scale(1e-7), false);
    let tenants = rt.load().total_vgpus + 4 + 4;
    let finished = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let retrying: Vec<_> = (0..tenants)
        .map(|_| {
            let (rt, finished) = (Arc::clone(&rt), Arc::clone(&finished));
            std::thread::spawn(move || {
                let mut b = rt.local_client();
                register(&mut b);
                let pb = b.malloc(chunk).unwrap();
                b.launch(launch("noop", vec![KernelArg::Ptr(pb)], 1e6)).unwrap();
                finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                b.exit().unwrap();
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while rt.metrics().launch_retries < tenants as u64 {
        assert!(std::time::Instant::now() < deadline, "not every tenant took the retry path");
        // Served at once, whatever the others are waiting for.
        assert_eq!(a.get_device_count().unwrap(), 4);
    }
    assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), 0);
    let threads: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    assert!(!threads.iter().any(|name| name.contains("timer")), "{threads:?}");
    a.free(pa).unwrap();
    for t in retrying {
        t.join().unwrap();
    }
    assert_eq!(finished.load(std::sync::atomic::Ordering::SeqCst), tenants);
    a.exit().unwrap();
    assert!(rt.wait_idle(Duration::from_secs(10)));
    rt.shutdown();
}

#[test]
fn retry_runs_once_a_co_tenant_goes_idle_on_its_memory_and_stays_idle() {
    // Inter-application swap on. A's long kernel (~80 ms real) is in flight
    // when B's launch falls short, so A refuses to swap out and B waits for
    // room. Then A goes idle holding its memory and makes no other call: a
    // monitor pass offers it to B, whose launch swaps A out and runs.
    let (rt, mut a, pa, chunk) = node_with_a_co_tenant_in_the_way(Clock::with_scale(1e-3), true);
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    let long = std::thread::spawn(move || {
        a.launch(launch("noop", vec![KernelArg::Ptr(pa)], 2e13)).unwrap();
        a
    });
    while gpu.compute_queue_depth() == 0 {
        std::thread::yield_now();
    }
    let (done, ran) = std::sync::mpsc::channel();
    let rt_b = Arc::clone(&rt);
    std::thread::spawn(move || {
        let mut b = rt_b.local_client();
        register(&mut b);
        let pb = b.malloc(chunk).unwrap();
        let _ = done.send(b.launch(launch("noop", vec![KernelArg::Ptr(pb)], 1e6)).map(|_| b));
    });
    let mut a = long.join().unwrap();
    let mut b =
        ran.recv_timeout(Duration::from_secs(20)).expect("B waits beside an idle A").unwrap();
    let m = rt.metrics();
    assert_eq!((m.launch_retries, m.inter_app_swaps), (1, 1), "{m:?}");
    b.exit().unwrap();
    a.exit().unwrap();
    assert!(rt.wait_idle(Duration::from_secs(10)));
    rt.shutdown();
}

#[test]
fn launch_no_device_can_hold_even_alone_fails_instead_of_retrying_for_ever() {
    let rt = test_runtime(1, RuntimeConfig::paper_default());
    let mut c = rt.local_client();
    register(&mut c);
    // 80 MiB declared against a 64 MiB device: nobody could make room.
    let huge = c.malloc(80 * MIB).unwrap();
    let err = c.launch(launch("noop", vec![KernelArg::Ptr(huge)], 1e6)).unwrap_err();
    assert_eq!(err, CudaError::MemoryAllocation);
    // The context is as usable as before: a launch that fits runs.
    let small = c.malloc(MIB).unwrap();
    c.launch(launch("noop", vec![KernelArg::Ptr(small)], 1e6)).unwrap();
    c.exit().unwrap();
    assert!(rt.wait_idle(Duration::from_secs(10)), "the node did not drain");
    // It failed where it stood: no retry, and its vGPU came back at the
    // exit like any other.
    let m = rt.metrics();
    assert_eq!((m.bindings, m.unbindings, m.launch_retries), (1, 1, 0), "{m:?}");
    rt.shutdown();
}

#[test]
fn read_only_annotations_skip_swap_synchronization() {
    // §4.5 fine-grained handling: an input annotated read-only stays clean
    // after the launch, so evicting it costs no device-to-host copy —
    // while the conservative default synchronizes everything.
    install_kernels();
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("ro_consume").with_read_only_args(vec![0]),
        payload: None,
    });
    let run = |annotated: bool| -> (u64, Vec<u8>) {
        let rt = test_runtime(1, RuntimeConfig::paper_default());
        let gpu = rt.driver().device(DeviceId(0)).unwrap();
        let mut c = rt.local_client();
        let m = c.register_fat_binary().unwrap();
        let kernel = if annotated {
            KernelDesc::plain("ro_consume").with_read_only_args(vec![0])
        } else {
            KernelDesc::plain("ro_consume")
        };
        c.register_function(m, kernel).unwrap();
        c.register_function(m, KernelDesc::plain("noop")).unwrap();
        let input = c.malloc(1 << 20).unwrap();
        let output = c.malloc(1 << 20).unwrap();
        c.memcpy_h2d(input, HostBuf::with_shadow(1 << 20, vec![3u8; 32])).unwrap();
        // args: [input (read-only when annotated), output]
        c.launch(launch("ro_consume", vec![KernelArg::Ptr(input), KernelArg::Ptr(output)], 1e6))
            .unwrap();
        // Force an eviction: a working set larger than the remaining free
        // memory, so intra-app swap must evict input+output.
        let big = c.malloc(gpu.mem_available() + (1 << 20)).unwrap();
        c.launch(launch("noop", vec![KernelArg::Ptr(big)], 1e6)).unwrap();
        let d2h = gpu.stats().snapshot().d2h_bytes;
        let input_back = c.memcpy_d2h(input, 32).unwrap().payload;
        c.exit().unwrap();
        rt.shutdown();
        (d2h, input_back)
    };
    let (d2h_conservative, data_a) = run(false);
    let (d2h_annotated, data_b) = run(true);
    assert_eq!(data_a, vec![3u8; 32], "conservative path preserved data");
    assert_eq!(data_b, vec![3u8; 32], "annotated path preserved data");
    assert!(
        d2h_annotated < d2h_conservative,
        "read-only annotation must save swap-out copies: {d2h_annotated} >= {d2h_conservative}"
    );
}
