//! Real multi-process deployment: a `node-daemon` OS process serving a
//! `submit` OS process over TCP — the closest shape to the paper's actual
//! gVirtuS-style deployment this test suite gets.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The daemon process and its stderr (where it reports load every 5 s).
struct DaemonGuard(Child, BufReader<std::process::ChildStderr>);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl DaemonGuard {
    /// Blocks for the daemon's next load report; returns its `launches=`.
    fn reported_launches(&mut self) -> u64 {
        let mut line = String::new();
        self.1.read_line(&mut line).expect("load report");
        let (_, launches) = line.trim().rsplit_once("launches=").expect("a load report line");
        launches.parse().expect("a launch count")
    }
}

fn spawn_daemon(extra: &[&str]) -> (DaemonGuard, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_node_daemon"));
    cmd.args(["--listen", "127.0.0.1:0", "--gpus", "test", "--clock", "1e-6"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn node-daemon");
    let stderr = BufReader::new(child.stderr.take().expect("daemon stderr"));
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();
    // Let the daemon keep printing without blocking on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (DaemonGuard(child, stderr), addr)
}

fn submit(addr: &str, app: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_submit"))
        .args([
            "--node",
            addr,
            "--app",
            app,
            "--clock",
            "1e-6",
            "--time-scale",
            "1e-4",
            "--mem-scale",
            "1e-5",
        ])
        .output()
        .expect("run submit")
}

#[test]
fn daemon_serves_submitted_workloads_across_processes() {
    let (_daemon, addr) = spawn_daemon(&[]);
    for app in ["VA", "HS", "BFS"] {
        let out = submit(&addr, app);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{app} failed: {stdout} {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("verified=true"), "{app}: {stdout}");
    }
}

#[test]
fn concurrent_submits_share_the_daemon() {
    let (_daemon, addr) = spawn_daemon(&["--vgpus", "4"]);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let app = ["VA", "SP", "HS", "MT"][i];
            std::thread::spawn(move || submit(&addr, app))
        })
        .collect();
    for h in handles {
        let out = h.join().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("verified=true"));
    }
}

#[test]
fn two_daemons_relay_a_submitted_job() {
    // The deployment shape of §4.7: `edge` keeps nothing local and names
    // `peer`'s one endpoint — the same address a frontend would dial.
    let (mut peer, peer_addr) = spawn_daemon(&[]);
    let (mut edge, edge_addr) = spawn_daemon(&["--peer", &peer_addr, "--offload-threshold", "0"]);
    let out = submit(&edge_addr, "VA");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout} {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("verified=true"), "{stdout}");
    // The job went in at `edge` and its kernels ran at `peer`.
    assert_eq!(edge.reported_launches(), 0);
    assert!(peer.reported_launches() > 0);
}

#[test]
fn submit_fails_cleanly_when_daemon_absent() {
    let out = Command::new(env!("CARGO_BIN_EXE_submit"))
        .args(["--node", "127.0.0.1:1", "--app", "VA"])
        .output()
        .expect("run submit");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot reach node"));
    // And the daemon guard pattern above must not leave zombies behind.
    std::thread::sleep(Duration::from_millis(10));
}
