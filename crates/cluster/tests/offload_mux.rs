//! §4.7 offload for *remote* clients: a channel that arrives at a node past
//! its threshold is handed by the gateway to the relay loop and runs on a
//! peer, over the same wire it came in on.

use mtgpu_api::protocol::{AllocKind, CudaCall, ReplyValue};
use mtgpu_api::transport::{MuxConnection, Transport};
use mtgpu_api::{CudaClient, HostBuf};
use mtgpu_cluster::{Cluster, ClusterNode};
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{install_kernel_library, register_workload, AppKind};
use std::time::Duration;

const DRAIN: Duration = Duration::from_secs(30);

/// Two one-GPU nodes; node `i` keeps at most `thresholds[i]` streams local
/// (`None`: offloading off) and offloads to the other.
fn two_nodes(clock: &Clock, thresholds: [Option<usize>; 2]) -> Cluster {
    let spec = |offload_threshold| {
        (vec![GpuSpec::test_small()], RuntimeConfig { offload_threshold, ..Default::default() })
    };
    Cluster::start_heterogeneous(clock.clone(), thresholds.map(spec).into())
}

fn assert_drained(node: &ClusterNode) {
    assert!(node.runtime().wait_idle(DRAIN), "{}: contexts did not drain", node.name());
    assert_eq!(node.mux_channel_count(), 0, "{}", node.name());
    assert_eq!(node.runtime().memory().swap_used(), 0, "{}", node.name());
    let m = node.metrics();
    assert_eq!(m.bindings, m.unbindings, "{}: {m:?}", node.name());
}

#[test]
fn remote_client_past_the_threshold_runs_on_the_peer() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let cluster = two_nodes(&clock, [Some(0), None]);
    let (a, b) = (&cluster.nodes()[0], &cluster.nodes()[1]);

    let mut client = a.mux_client().unwrap();
    let job = AppKind::Va.build(Scale::TINY);
    register_workload(&mut client, job.as_ref()).unwrap();
    assert!(job.run(&mut client, &clock).unwrap().verified, "VA through the relay");
    // Bulk bytes both ways through the relay, exact.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    let ptr = client.malloc(data.len() as u64).unwrap();
    client.memcpy_h2d(ptr, HostBuf::from_slice(&data)).unwrap();
    assert!(client.memcpy_d2h(ptr, data.len() as u64).unwrap().payload == data);
    client.exit().unwrap();

    assert_eq!(a.metrics().offloaded_connections, 1);
    assert_eq!(a.metrics().launches, 0, "node A served it after all");
    assert!(b.metrics().launches > 0, "node B never ran the relayed kernels");
    assert!(a
        .runtime()
        .trace()
        .iter()
        .any(|r| matches!(r.event, mtgpu_core::TraceEvent::Offloaded { .. })));
    assert_drained(a);
    assert_drained(b);
    cluster.shutdown();
}

#[test]
fn nodes_offloading_to_each_other_under_load_finish() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let cluster = two_nodes(&clock, [Some(0), Some(0)]);
    // Four times each gateway's pool (4 vGPUs + 4 spare workers), at both
    // nodes at once: were a relayed stream to hold a pool worker, each pool
    // would fill with streams waiting on the other.
    const PER_NODE: usize = 32;
    let (tx, rx) = std::sync::mpsc::channel();
    for node in cluster.nodes() {
        for kind in mtgpu_workloads::draw_short_kinds(PER_NODE, 42) {
            let (mut client, clock, tx) = (node.mux_client().unwrap(), clock.clone(), tx.clone());
            std::thread::spawn(move || {
                let job = kind.build(Scale::TINY);
                register_workload(&mut client, job.as_ref()).expect("register");
                let verified = job.run(&mut client, &clock).expect("run").verified;
                client.exit().expect("exit");
                let _ = tx.send(verified);
            });
        }
    }
    drop(tx);
    for done in 0..2 * PER_NODE {
        let verified = rx.recv_timeout(Duration::from_secs(120)).unwrap_or_else(|_| {
            panic!("watchdog: only {done} of {} clients finished", 2 * PER_NODE)
        });
        assert!(verified);
    }
    for node in cluster.nodes() {
        assert_eq!(node.metrics().offloaded_connections, PER_NODE as u64, "{}", node.name());
        assert!(node.metrics().launches > 0, "{} ran nothing for its peer", node.name());
        assert_drained(node);
    }
    cluster.shutdown();
}

#[test]
fn relayed_client_that_vanishes_leaves_no_context_on_either_node() {
    let clock = Clock::with_scale(1e-7);
    let cluster = two_nodes(&clock, [Some(0), None]);
    let (a, b) = (&cluster.nodes()[0], &cluster.nodes()[1]);
    let mut client = a.mux_client().unwrap();
    client.malloc(4096).unwrap();
    assert_eq!(a.metrics().offloaded_connections, 1);
    assert_eq!(b.runtime().context_count(), 1, "the stream lives on the peer");
    // No Exit: the socket just closes.
    drop(client);
    assert_drained(a);
    assert_drained(b);
    cluster.shutdown();
}

#[test]
fn no_reachable_peer_means_local_service_and_one_dead_peer_is_skipped() {
    let clock = Clock::with_scale(1e-7);
    let live = ClusterNode::start(
        "live".into(),
        clock.clone(),
        vec![GpuSpec::test_small()],
        RuntimeConfig::default(),
        true,
    );
    // A port nothing listens on: bound, read, released.
    let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let node_with_peers = |peers: Vec<String>| {
        let cfg = RuntimeConfig {
            offload_threshold: Some(0),
            offload_peers: peers,
            ..RuntimeConfig::default()
        };
        ClusterNode::start("edge".into(), clock.clone(), vec![GpuSpec::test_small()], cfg, true)
    };

    // One dead peer out of two: every stream still reaches the live one,
    // wherever the round-robin index starts.
    let edge = node_with_peers(vec![closed.to_string(), live.mux_addr().unwrap().to_string()]);
    for _ in 0..4 {
        let mut client = edge.mux_client().unwrap();
        client.malloc(256).unwrap();
        client.exit().unwrap();
    }
    assert_eq!(edge.metrics().offloaded_connections, 4, "a live peer idled");
    assert_eq!(live.metrics().mux_channels, 4);
    assert_drained(&edge);
    edge.shutdown();

    // No peer reachable at all: served here, over the slot budget.
    let edge = node_with_peers(vec![closed.to_string()]);
    let mut client = edge.mux_client().unwrap();
    let ptr = client.malloc(256).unwrap();
    client.memcpy_h2d(ptr, HostBuf::from_slice(&[9u8; 256])).unwrap();
    assert_eq!(client.memcpy_d2h(ptr, 256).unwrap().payload, vec![9u8; 256]);
    client.exit().unwrap();
    assert_eq!(edge.metrics().offloaded_connections, 0);
    assert_drained(&edge);
    edge.shutdown();
    assert_drained(&live);
    live.shutdown();
}

/// A listener whose owner accepts every connection and closes it at once —
/// what dialling a peer that is shutting down, wedged or shedding looks
/// like. Runs until the process ends.
fn accept_and_close() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || listener.incoming().for_each(drop));
    addr
}

#[test]
fn peer_that_accepts_and_hangs_up_is_not_a_peer_reached() {
    install_kernel_library();
    let clock = Clock::with_scale(1e-7);
    let live = ClusterNode::start(
        "live".into(),
        clock.clone(),
        vec![GpuSpec::test_small()],
        RuntimeConfig::default(),
        true,
    );
    let node_with_peers = |peers: Vec<String>| {
        let cfg = RuntimeConfig {
            offload_threshold: Some(0),
            offload_peers: peers,
            ..RuntimeConfig::default()
        };
        ClusterNode::start("edge".into(), clock.clone(), vec![GpuSpec::test_small()], cfg, true)
    };

    // Wherever the round-robin index starts, every stream ends up on the
    // peer that answers, whole.
    let edge = node_with_peers(vec![accept_and_close(), live.mux_addr().unwrap().to_string()]);
    for _ in 0..4 {
        let mut client = edge.mux_client().unwrap();
        let job = AppKind::Va.build(Scale::TINY);
        register_workload(&mut client, job.as_ref()).unwrap();
        assert!(job.run(&mut client, &clock).unwrap().verified);
        client.exit().unwrap();
    }
    assert_eq!(edge.metrics().offloaded_connections, 4);
    assert_eq!((edge.metrics().launches, live.metrics().mux_channels), (0, 4));
    assert_drained(&edge);
    edge.shutdown();

    // Nobody answers: the stream is served here, by its relay thread, with
    // what the client pipelined behind its first call while it dialled.
    let edge = node_with_peers(vec![accept_and_close()]);
    let mut client = edge.mux_client().unwrap().with_pipelining();
    let job = AppKind::Va.build(Scale::TINY);
    register_workload(&mut client, job.as_ref()).unwrap();
    assert!(job.run(&mut client, &clock).unwrap().verified);
    client.exit().unwrap();
    assert_eq!(edge.metrics().offloaded_connections, 0);
    assert!(edge.metrics().launches > 0);
    assert_drained(&edge);
    edge.shutdown();
    assert_drained(&live);
    live.shutdown();
}

#[test]
fn sibling_channels_on_a_relayed_clients_connection_keep_their_own_order() {
    let clock = Clock::with_scale(1e-7);
    // One local slot: the connection's first channel is served here, its
    // second is relayed to the peer.
    let cluster = two_nodes(&clock, [Some(1), None]);
    let (a, b) = (&cluster.nodes()[0], &cluster.nodes()[1]);
    let conn = MuxConnection::connect(a.mux_addr().unwrap()).unwrap();
    let mut channels = [conn.channel(), conn.channel()];
    let mut ptrs = Vec::new();
    for chan in &mut channels {
        let Ok(ReplyValue::Ptr(ptr)) =
            chan.roundtrip(CudaCall::Malloc { size: 64, kind: AllocKind::Linear })
        else {
            panic!("malloc failed")
        };
        ptrs.push(ptr);
    }
    assert_eq!(a.metrics().offloaded_connections, 1);
    assert_eq!((a.runtime().context_count(), b.runtime().context_count()), (2, 1));
    // Each channel overwrites one buffer and reads it back, forty times in
    // one pipelined flush: a read that overtook its write, or fell behind
    // the next one, returns the wrong round's bytes.
    std::thread::scope(|s| {
        for (chan, ptr) in channels.iter_mut().zip(&ptrs) {
            s.spawn(move || {
                let mut calls: Vec<_> = (0..40u8)
                    .flat_map(|round| {
                        [
                            CudaCall::MemcpyH2D {
                                dst: *ptr,
                                buf: HostBuf::from_slice(&[round; 64]),
                            },
                            CudaCall::MemcpyD2H { src: *ptr, len: 64 },
                        ]
                    })
                    .collect();
                let replies = chan.roundtrip_batch(&mut calls);
                for (round, pair) in replies.chunks(2).enumerate() {
                    assert_eq!(pair[0], Ok(ReplyValue::Unit));
                    let Ok(ReplyValue::Bytes(buf)) = &pair[1] else { panic!("{:?}", pair[1]) };
                    assert_eq!(buf.payload, vec![round as u8; 64], "round {round}");
                }
                assert_eq!(chan.roundtrip(CudaCall::Exit), Ok(ReplyValue::Unit));
            });
        }
    });
    assert_drained(a);
    assert_drained(b);
    cluster.shutdown();
}
