//! A pipelined frontend queues the calls that give the application nothing
//! back — copies in, frees, launches — and ships them with the next call
//! whose reply it needs (DESIGN.md §12). Over the node's real wire, a copy
//! into a freed pointer then fails at that next call instead of at the copy,
//! and nothing else sharing the connection notices: the failing channel and
//! its sibling keep serving, their replies in order, nothing shed.

use mtgpu_api::protocol::{CudaCall, ReplyValue};
use mtgpu_api::{CudaClient, CudaError, FrontendClient, HostBuf};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn node() -> ClusterNode {
    let cfg = RuntimeConfig::default().with_background_monitor(false);
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
    let bufs: Vec<_> = (0..3).map(|_| sibling.malloc(64).unwrap()).collect();
    for (i, &buf) in bufs.iter().enumerate() {
        sibling.memcpy_h2d(buf, HostBuf::from_slice(&[i as u8 + 1; 64])).unwrap();
    }

    let before = conn.round_trips();
    assert_eq!(app.memcpy_d2h(kept, 256), Err(CudaError::InvalidDevicePointer));
    assert_eq!(conn.round_trips(), before + 1, "the download carried the queue in one round trip");

    // The sibling's uploads and downloads answer in call order.
    let downloads = bufs.iter().map(|&src| CudaCall::MemcpyD2H { src, len: 64 }).collect();
    for (i, reply) in sibling.call_batch(downloads).into_iter().enumerate() {
        match reply {
            Ok(ReplyValue::Bytes(buf)) => assert_eq!(buf.payload, [i as u8 + 1; 64], "reply {i}"),
            other => panic!("reply {i}: {other:?}"),
        }
    }
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
