//! What a kernel launch costs the device model and the memory manager, in
//! calls rather than time: device calls, counted by the device's
//! `DeviceStats::calls` (one per public entry point that acts on it, a
//! batch included), and walks of the launch's arguments, counted by
//! `MemoryManager::arg_walks`. Every launch runs on the test's thread
//! through an in-process client, and the runtime's background monitor is
//! off, so nothing else calls the device meanwhile.

use mtgpu_api::protocol::{CudaCall, ReplyValue};
use mtgpu_api::{CudaClient, FrontendClient, HostBuf, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu_core::{InProcessChannel, NodeRuntime, RuntimeConfig};
use mtgpu_gpusim::{DeviceAddr, DeviceId, Driver, GpuSpec, KernelDesc};
use mtgpu_simtime::Clock;

/// A launch of the payload-free `calls_noop` over `ptrs` and a scalar.
fn spec(ptrs: &[DeviceAddr]) -> LaunchSpec {
    let mut args: Vec<KernelArg> = ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect();
    args.push(KernelArg::Scalar(4096));
    LaunchSpec {
        kernel: "calls_noop".into(),
        config: LaunchConfig::default(),
        args,
        work: Work::flops(1e3),
    }
}

/// Device calls and argument walks one raw `call(Launch)` makes.
fn launch_costs(
    rt: &NodeRuntime,
    client: &mut FrontendClient<InProcessChannel>,
    set: &[DeviceAddr],
) -> (u64, u64) {
    let gpu = rt.driver().device(DeviceId(0)).unwrap();
    let (calls, walks) = (gpu.stats().snapshot().calls, rt.memory().arg_walks());
    let reply = client.call(CudaCall::Launch { spec: spec(set) });
    assert!(matches!(reply, Ok(ReplyValue::LaunchDone { .. })), "{reply:?}");
    (gpu.stats().snapshot().calls - calls, rt.memory().arg_walks() - walks)
}

/// A context whose eight 4 MiB entries were uploaded with `i + 1` in entry
/// `i`'s first 4 KiB.
fn eight_entries(client: &mut FrontendClient<InProcessChannel>) -> Vec<DeviceAddr> {
    let module = client.register_fat_binary().unwrap();
    client.register_function(module, KernelDesc::plain("calls_noop")).unwrap();
    (0..8u8)
        .map(|i| {
            let ptr = client.malloc(4 << 20).unwrap();
            client.memcpy_h2d(ptr, HostBuf::from_slice(&[i + 1; 4096])).unwrap();
            ptr
        })
        .collect()
}

/// A launch over a resident working set: the launch itself is its one
/// device call, and its arguments are walked once.
#[test]
fn a_resident_launch_is_one_device_call_and_one_walk() {
    let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small()]);
    let rt = NodeRuntime::start(driver, RuntimeConfig::default().with_background_monitor(false));
    let mut client = rt.local_client();
    let set = eight_entries(&mut client);
    launch_costs(&rt, &mut client, &set);
    for _ in 0..10 {
        assert_eq!(launch_costs(&rt, &mut client, &set), (1, 1));
    }
    client.exit().unwrap();
    rt.shutdown();
}

/// Two contexts of eight dirty 4 MiB entries on one `test_small` device
/// (48 MiB free past its four vGPUs' reservations), as in
/// `launch_allocations.rs`: each launch swaps the other out whole. Its
/// one walk serves the pass that finds no room and the pass after the
/// swap-out. Its six device calls: the first pass's allocation batch,
/// which the device refuses partway; the victim's writebacks (one plan)
/// and its frees; the second pass's allocation batch for
/// the rest and its uploads; the launch. One call per operation made
/// 34: five mallocs, eight writebacks, eight frees, four mallocs, eight
/// uploads and the launch.
#[test]
fn a_swapping_launch_is_six_device_calls_and_one_walk() {
    let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small()]);
    let rt = NodeRuntime::start(driver, RuntimeConfig::default().with_background_monitor(false));
    let mut clients = [rt.local_client(), rt.local_client()];
    let sets: Vec<Vec<DeviceAddr>> = clients.iter_mut().map(eight_entries).collect();
    for (client, set) in clients.iter_mut().zip(&sets) {
        launch_costs(&rt, client, set);
    }
    let swaps = rt.metrics().inter_app_swaps;
    for _ in 0..10 {
        for (client, set) in clients.iter_mut().zip(&sets) {
            assert_eq!(launch_costs(&rt, client, set), (6, 1));
        }
    }
    assert_eq!(rt.metrics().inter_app_swaps - swaps, 20, "every launch swaps the other out");
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
