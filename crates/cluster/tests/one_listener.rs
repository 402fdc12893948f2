//! A listening node owns exactly one `TcpListener` and spawns no acceptor
//! thread. One test, in a process of its own, so every listening socket and
//! every thread this process has belongs to the node under test.
#![cfg(target_os = "linux")]

use mtgpu_api::CudaClient;
use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use std::collections::HashSet;

/// Names of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// Local ports of the TCP sockets this process holds in LISTEN state.
fn listening_ports() -> Vec<u16> {
    let own_sockets: HashSet<String> = std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter_map(|link| {
            Some(link.to_str()?.strip_prefix("socket:[")?.strip_suffix(']')?.to_string())
        })
        .collect();
    std::fs::read_to_string("/proc/self/net/tcp")
        .expect("procfs")
        .lines()
        .skip(1)
        .filter_map(|line| {
            // sl local_address rem_address st ... inode; st 0A is LISTEN.
            let field: Vec<&str> = line.split_whitespace().collect();
            if field[3] != "0A" || !own_sockets.contains(field[9]) {
                return None;
            }
            u16::from_str_radix(field[1].rsplit(':').next()?, 16).ok()
        })
        .collect()
}

#[test]
fn listening_node_owns_one_listener_and_no_acceptor_thread() {
    assert!(listening_ports().is_empty(), "the test process listens on nothing of its own");
    let node = ClusterNode::start(
        "lonely".into(),
        Clock::with_scale(1e-7),
        vec![GpuSpec::test_small()],
        RuntimeConfig::paper_default(),
        true,
    );
    // A served call: every thread the node starts is up (and named) by now.
    assert_eq!(node.mux_client().unwrap().get_device_count().unwrap(), 4);
    let names = thread_names();
    assert!(names.iter().any(|n| n.starts_with("mux-reactor")), "{names:?}");
    assert!(!names.iter().any(|n| n.ends_with("-accept")), "{names:?}");
    assert_eq!(listening_ports(), [node.mux_addr().unwrap().port()]);
    node.shutdown();
    assert!(listening_ports().is_empty());
}
