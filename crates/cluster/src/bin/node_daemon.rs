//! Standalone node daemon: runs one `NodeRuntime` over a set of simulated
//! GPUs and serves interposed CUDA call streams on a TCP endpoint — the
//! per-node deployment unit of Figure 2 (install one per compute node,
//! point frontends and peers at it).
//!
//! ```sh
//! node-daemon --listen 127.0.0.1:7070 --gpus c2050,c2050,c1060 \
//!             --vgpus 4 --clock 1e-3 [--peer host:port]... \
//!             [--offload-threshold N] [--serialized] [--load-balancing]
//! ```
//!
//! The daemon prints `listening on <addr>` — its one endpoint, the
//! multiplexed reactor of DESIGN.md §12, which frontends (`submit`) and
//! peers (`--peer`, the other daemons' `--listen` addresses) alike connect
//! to — once ready. All connected frontends must use the same `--clock`
//! scale for coherent timing.

use mtgpu_cluster::ClusterNode;
use mtgpu_core::RuntimeConfig;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn gpu_by_name(name: &str) -> Result<GpuSpec, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "c2050" | "tesla-c2050" => Ok(GpuSpec::tesla_c2050()),
        "c1060" | "tesla-c1060" => Ok(GpuSpec::tesla_c1060()),
        "quadro2000" | "quadro-2000" => Ok(GpuSpec::quadro_2000()),
        "test" | "test-small" => Ok(GpuSpec::test_small()),
        other => Err(format!("unknown GPU `{other}` (expected c2050, c1060, quadro2000 or test)")),
    }
}

struct Args {
    listen: String,
    gpus: Vec<GpuSpec>,
    vgpus: u32,
    clock: f64,
    peers: Vec<String>,
    offload_threshold: Option<usize>,
    load_balancing: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        gpus: vec![GpuSpec::tesla_c2050()],
        vgpus: 4,
        clock: 1e-3,
        peers: Vec::new(),
        offload_threshold: None,
        load_balancing: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => args.listen = value(&mut i)?,
            "--gpus" => {
                args.gpus = value(&mut i)?.split(',').map(gpu_by_name).collect::<Result<_, _>>()?;
            }
            "--vgpus" => {
                args.vgpus = value(&mut i)?.parse().map_err(|e| format!("--vgpus: {e}"))?
            }
            "--clock" => {
                args.clock = value(&mut i)?.parse().map_err(|e| format!("--clock: {e}"))?
            }
            "--peer" => args.peers.push(value(&mut i)?),
            "--offload-threshold" => {
                args.offload_threshold =
                    Some(value(&mut i)?.parse().map_err(|e| format!("--offload-threshold: {e}"))?)
            }
            "--serialized" => args.vgpus = 1,
            "--load-balancing" => args.load_balancing = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: node-daemon [--listen ADDR] [--gpus LIST] [--vgpus N] \
                     [--clock SCALE] [--peer ADDR]... [--offload-threshold N] \
                     [--serialized] [--load-balancing]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Make the Table 2 kernels resolvable for remote workloads.
    mtgpu_workloads::install_kernel_library();
    let cfg = RuntimeConfig {
        vgpus_per_device: args.vgpus,
        offload_threshold: args.offload_threshold,
        offload_peers: args.peers,
        dynamic_load_balancing: args.load_balancing,
        ..RuntimeConfig::paper_default()
    };
    let listener = std::net::TcpListener::bind(&args.listen).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", args.listen);
        std::process::exit(1);
    });
    let names: Vec<&str> = args.gpus.iter().map(|g| g.name.as_str()).collect();
    let node = ClusterNode::start_on(
        "node".to_string(),
        Clock::with_scale(args.clock),
        args.gpus.clone(),
        cfg,
        Some(listener),
    );
    // The line tooling (and the process-spawn tests) parse this one:
    println!("listening on {}", node.mux_addr().expect("listening node"));
    println!(
        "devices: {} | vGPUs/device: {} | clock: 1 sim s = {} real s",
        names.join(", "),
        args.vgpus,
        args.clock
    );
    // Serve until killed, reporting load periodically on stderr.
    loop {
        // mtlint: allow(thread-sleep, reason = "daemon load-report cadence in real wall time; the daemon serves live TCP clients and is never replayed")
        std::thread::sleep(Duration::from_secs(5));
        let (load, wire) = (node.runtime().load(), node.mux_stats().expect("listening node"));
        eprintln!(
            "[node] contexts={} bound={} waiting={} wire_calls={} on_reactor={} launches={}",
            load.contexts,
            load.bound,
            load.waiting,
            wire.requests.load(Ordering::Relaxed),
            wire.ran_inline.load(Ordering::Relaxed),
            node.metrics().launches
        );
    }
}
