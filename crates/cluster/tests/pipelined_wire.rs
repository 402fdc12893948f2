//! A pipelined frontend queues the calls whose reply it knows in advance —
//! copies in, frees, launches, and mallocs, answered with the address the
//! runtime will mint — and ships them with the next call whose reply only
//! the server has (DESIGN.md §12). Over the node's real wire, a copy into a
//! freed pointer, or a malloc over the tenant's lease, then fails at that
//! next call instead of at its own, and nothing else sharing the connection
//! notices: the failing channel and its sibling keep serving, their replies
//! in order, nothing shed.

use mtgpu_api::protocol::{CudaCall, ReplyValue};
use mtgpu_api::{CudaClient, CudaError, FrontendClient, HostBuf};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::{GpuLease, RuntimeConfig, TenantPolicyConfig};
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use std::sync::atomic::Ordering;
use std::time::Duration;

const MIB: u64 = 1 << 20;

fn node() -> ClusterNode {
    node_with(RuntimeConfig::default())
}

fn node_with(cfg: RuntimeConfig) -> ClusterNode {
    let cfg = cfg.with_background_monitor(false);
    ClusterNode::start(
        "pipelined".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::tesla_c2050()],
        cfg,
        true,
    )
}

#[test]
fn pipelined_copy_into_a_freed_pointer_fails_at_the_next_download() {
    let node = node();
    let conn = node.local_connection().unwrap();
    let mut app = FrontendClient::new(conn.channel()).with_pipelining();
    let mut sibling = FrontendClient::new(conn.channel()).with_pipelining();

    let kept = app.malloc(256).unwrap();
    let freed = app.malloc(256).unwrap();
    app.memcpy_h2d(kept, HostBuf::from_slice(&[5; 256])).unwrap();
    app.free(freed).unwrap();
    // Queued behind the free, so not refused yet.
    assert_eq!(app.memcpy_h2d(freed, HostBuf::from_slice(&[6; 256])), Ok(()));

    // The sibling queues three uploads before the failing flush goes out.
    let bufs = queue_three_uploads(&mut sibling);

    let before = conn.round_trips();
    assert_eq!(app.memcpy_d2h(kept, 256), Err(CudaError::InvalidDevicePointer));
    assert_eq!(conn.round_trips(), before + 1, "the download carried the queue in one round trip");

    // The sibling's uploads and downloads answer in call order.
    assert_downloads_in_order(&mut sibling, &bufs);
    // The failing channel serves on: the upload ahead of the bad one landed.
    assert_eq!(app.memcpy_d2h(kept, 256).unwrap().payload, [5; 256]);
    app.free(kept).unwrap();
    app.exit().unwrap();
    sibling.exit().unwrap();

    // An eager client gets the same error from the copy itself.
    let mut eager = node.mux_client().unwrap();
    let ptr = eager.malloc(256).unwrap();
    eager.free(ptr).unwrap();
    assert_eq!(
        eager.memcpy_h2d(ptr, HostBuf::from_slice(&[6; 256])),
        Err(CudaError::InvalidDevicePointer)
    );
    eager.exit().unwrap();

    assert!(!conn.is_dead());
    assert_eq!(conn.unknown_responses(), 0);
    let stats = node.mux_stats().unwrap();
    for (what, n) in [
        ("shed_slow", &stats.shed_slow),
        ("shed_backlog", &stats.shed_backlog),
        ("protocol_errors", &stats.protocol_errors),
    ] {
        assert_eq!(n.load(Ordering::Relaxed), 0, "{what}");
    }
    drop(conn);
    assert!(node.runtime().wait_idle(Duration::from_secs(10)), "contexts torn down");
    node.shutdown();
}

/// The sibling's three buffers, each uploaded with its index + 1.
fn queue_three_uploads(sibling: &mut impl CudaClient) -> Vec<mtgpu_gpusim::DeviceAddr> {
    let bufs: Vec<_> = (0..3).map(|_| sibling.malloc(64).unwrap()).collect();
    for (i, &buf) in bufs.iter().enumerate() {
        sibling.memcpy_h2d(buf, HostBuf::from_slice(&[i as u8 + 1; 64])).unwrap();
    }
    bufs
}

/// The sibling's downloads of its three buffers, in call order.
fn assert_downloads_in_order(sibling: &mut impl CudaClient, bufs: &[mtgpu_gpusim::DeviceAddr]) {
    let downloads = bufs.iter().map(|&src| CudaCall::MemcpyD2H { src, len: 64 }).collect();
    for (i, reply) in sibling.call_batch(downloads).into_iter().enumerate() {
        match reply {
            Ok(ReplyValue::Bytes(buf)) => assert_eq!(buf.payload, [i as u8 + 1; 64], "reply {i}"),
            other => panic!("reply {i}: {other:?}"),
        }
    }
}

#[test]
fn pipelined_malloc_over_the_lease_fails_at_the_next_flush_and_the_channel_serves_on() {
    let lease = GpuLease { mem_mb: 1, ..GpuLease::unlimited() };
    let policy = TenantPolicyConfig::default().with_default_lease(lease);
    let node = node_with(RuntimeConfig::default().with_tenant_policy(policy));
    let conn = node.local_connection().unwrap();
    let mut app = FrontendClient::new(conn.channel()).with_pipelining();
    let mut sibling = FrontendClient::new(conn.channel()).with_pipelining();

    // The tenant reaches its quota, then asks for more: both mallocs are
    // queued and answered with the addresses the rules give.
    let held = app.malloc(MIB).unwrap();
    let over = app.malloc(64).unwrap();
    assert_eq!(over.0, held.0 + MIB);
    let bufs = queue_three_uploads(&mut sibling);

    let before = conn.round_trips();
    assert!(matches!(app.synchronize(), Err(CudaError::QuotaExceeded(_))));
    assert_eq!(conn.round_trips(), before + 1, "the synchronize carried the queue");
    assert_eq!(node.metrics().quota_rejections, 1);
    assert_downloads_in_order(&mut sibling, &bufs);

    // The refused address was never allocated, so it aliases nothing.
    assert_eq!(app.memcpy_d2h(over, 64), Err(CudaError::InvalidDevicePointer));
    // Room again: free, malloc, upload and download in one round trip, the
    // new buffer past the refused one's span.
    app.free(held).unwrap();
    let ptr = app.malloc(256).unwrap();
    assert_eq!(ptr.0, over.0 + 256);
    app.memcpy_h2d(ptr, HostBuf::from_slice(&[9; 256])).unwrap();
    let before = conn.round_trips();
    assert_eq!(app.memcpy_d2h(ptr, 256).unwrap().payload, [9; 256]);
    assert_eq!(conn.round_trips(), before + 1);
    app.exit().unwrap();
    sibling.exit().unwrap();

    assert!(!conn.is_dead());
    assert_eq!(conn.unknown_responses(), 0);
    let stats = node.mux_stats().unwrap();
    for (what, n) in [
        ("shed_slow", &stats.shed_slow),
        ("shed_backlog", &stats.shed_backlog),
        ("protocol_errors", &stats.protocol_errors),
    ] {
        assert_eq!(n.load(Ordering::Relaxed), 0, "{what}");
    }
    drop(conn);
    assert!(node.runtime().wait_idle(Duration::from_secs(10)), "contexts torn down");
    node.shutdown();
}
