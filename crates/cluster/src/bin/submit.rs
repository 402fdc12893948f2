//! Submits one Table 2 workload to a running `node-daemon` (its `--listen`
//! endpoint) over a connection of its own and prints its report — the
//! "application binary" of a multi-process deployment.
//!
//! ```sh
//! submit --node 127.0.0.1:7070 --app MM-L --cpu-fraction 1.0 \
//!        --clock 1e-3 [--time-scale 1.0] [--mem-scale 1.0]
//! ```
//!
//! `--clock` must match the daemon's scale: the workload's CPU phases run
//! on the client side of the wire.

use mtgpu_api::transport::{FrontendClient, MuxConnection};
use mtgpu_api::CudaClient;
use mtgpu_simtime::{Clock, Stopwatch};
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{register_workload, AppKind};

struct Args {
    node: String,
    app: AppKind,
    cpu_fraction: f64,
    clock: f64,
    scale: Scale,
}

fn app_by_name(name: &str) -> Option<AppKind> {
    AppKind::all().into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        node: "127.0.0.1:7070".to_string(),
        app: AppKind::Va,
        cpu_fraction: 0.0,
        clock: 1e-3,
        scale: Scale::PAPER,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--node" => args.node = value(&mut i)?,
            "--app" => {
                let name = value(&mut i)?;
                args.app = app_by_name(&name)
                    .ok_or_else(|| format!("unknown app `{name}` (use Table 2 names)"))?;
            }
            "--cpu-fraction" => {
                args.cpu_fraction =
                    value(&mut i)?.parse().map_err(|e| format!("--cpu-fraction: {e}"))?
            }
            "--clock" => {
                args.clock = value(&mut i)?.parse().map_err(|e| format!("--clock: {e}"))?
            }
            "--time-scale" => {
                args.scale.time =
                    value(&mut i)?.parse().map_err(|e| format!("--time-scale: {e}"))?
            }
            "--mem-scale" => {
                args.scale.mem = value(&mut i)?.parse().map_err(|e| format!("--mem-scale: {e}"))?
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: submit [--node ADDR] [--app NAME] [--cpu-fraction F] \
                     [--clock SCALE] [--time-scale F] [--mem-scale F]"
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
    mtgpu_workloads::install_kernel_library();
    let clock = Clock::with_scale(args.clock);
    let conn = MuxConnection::connect(args.node.as_str()).unwrap_or_else(|e| {
        eprintln!("cannot reach node {}: {e}", args.node);
        std::process::exit(1);
    });
    let mut client: Box<dyn CudaClient> = Box::new(FrontendClient::new(conn.channel()));
    let job = args.app.build_with(args.scale, args.cpu_fraction);
    let watch = Stopwatch::start(&clock);
    let result = register_workload(client.as_mut(), job.as_ref())
        .and_then(|()| job.run(client.as_mut(), &clock));
    let _ = client.exit();
    match result {
        Ok(report) => {
            println!(
                "app={} kernel_calls={} elapsed={} verified={}",
                report.name,
                report.kernel_calls,
                watch.elapsed(),
                report.verified
            );
            if !report.verified {
                std::process::exit(3);
            }
        }
        Err(e) => {
            eprintln!("job failed: {e}");
            std::process::exit(1);
        }
    }
}
