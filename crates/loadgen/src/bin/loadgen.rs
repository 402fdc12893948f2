//! Closed-/open-loop load harness CLI.
//!
//! ```text
//! loadgen [--profile normal|hostile]
//!         [--mode closed|open] [--clients N] [--requests N] [--rate R]
//!         [--seed S] [--devices D] [--vgpus V] [--virtual-clock]
//!         [--persistent] [--connections N]
//!         [--hostile N] [--hostile-iters N] [--max-degradation F]
//!         [--quick] [--max-fairness F] [--out PATH]
//! ```
//!
//! `--persistent` drives the node's multiplexed endpoint over long-lived
//! pooled connections (`--connections N`, default one per client) instead
//! of reconnecting per request; with `--virtual-clock` it selects the
//! deterministic mux replay.
//!
//! `--profile hostile` runs the adversarial-tenant isolation battery
//! instead: a hostile-free baseline pass, then the same honest tenants
//! racing `--hostile N` lease-capped greedy tenants. The report compares
//! honest p99 across the passes and `--max-degradation F` turns the ratio
//! into an exit-code gate (as does any over-quota grant).
//!
//! `--profile skewed` runs the migration benchmark: a churned 4-device
//! mix played twice, with dynamic load balancing off then on.
//! `--min-speedup F` gates the rebalanced/static throughput ratio (the
//! structural checks — clean passes, a live migration, p99 no worse —
//! always gate).
//!
//! Runs a load pass against a private in-process node daemon, prints a
//! one-line summary, writes the JSON report (default `results/`), and
//! exits non-zero if any request failed or a gate was breached.

use mtgpu_loadgen::{
    run_det, run_isolation, run_load, run_migration_load, DetLoadConfig, IsolationConfig,
    LoadgenConfig, MigrationLoadConfig, Mode,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cfg: LoadgenConfig,
    hostile: bool,
    skewed: bool,
    min_speedup: Option<f64>,
    hostile_clients: Option<usize>,
    hostile_iterations: Option<usize>,
    max_degradation: Option<f64>,
    quick: bool,
    virtual_clock: bool,
    max_fairness: Option<f64>,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--profile normal|hostile|skewed] [--mode closed|open] \
         [--clients N] [--requests N] [--rate R] [--seed S] [--devices D] \
         [--vgpus V] [--virtual-clock] [--persistent] [--connections N] \
         [--hostile N] [--hostile-iters N] [--max-degradation F] \
         [--min-speedup F] [--quick] [--max-fairness F] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cfg = LoadgenConfig::default();
    let mut mode_open = false;
    let mut rate = 100.0f64;
    let mut hostile = false;
    let mut skewed = false;
    let mut min_speedup = None;
    let mut hostile_clients = None;
    let mut hostile_iterations = None;
    let mut max_degradation = None;
    let mut quick = false;
    let mut virtual_clock = false;
    let mut max_fairness = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--profile" => match value("--profile").as_str() {
                "normal" => hostile = false,
                "hostile" => hostile = true,
                "skewed" => skewed = true,
                other => {
                    eprintln!("unknown profile {other:?}");
                    usage()
                }
            },
            "--min-speedup" => {
                min_speedup = Some(value("--min-speedup").parse().unwrap_or_else(|_| usage()))
            }
            "--mode" => match value("--mode").as_str() {
                "closed" => mode_open = false,
                "open" => mode_open = true,
                other => {
                    eprintln!("unknown mode {other:?}");
                    usage()
                }
            },
            "--clients" => cfg.clients = value("--clients").parse().unwrap_or_else(|_| usage()),
            "--requests" => {
                cfg.requests_per_client = value("--requests").parse().unwrap_or_else(|_| usage())
            }
            "--rate" => rate = value("--rate").parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--devices" => cfg.devices = value("--devices").parse().unwrap_or_else(|_| usage()),
            "--vgpus" => {
                cfg.vgpus_per_device = value("--vgpus").parse().unwrap_or_else(|_| usage())
            }
            "--virtual-clock" => virtual_clock = true,
            "--persistent" => cfg.persistent = true,
            "--connections" => {
                cfg.connections = value("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--hostile" => {
                hostile_clients = Some(value("--hostile").parse().unwrap_or_else(|_| usage()))
            }
            "--hostile-iters" => {
                hostile_iterations =
                    Some(value("--hostile-iters").parse().unwrap_or_else(|_| usage()))
            }
            "--max-degradation" => {
                max_degradation =
                    Some(value("--max-degradation").parse().unwrap_or_else(|_| usage()))
            }
            "--quick" => {
                quick = true;
                let q = LoadgenConfig::quick();
                cfg.clients = q.clients;
                cfg.requests_per_client = q.requests_per_client;
                cfg.devices = q.devices;
            }
            "--max-fairness" => {
                max_fairness = Some(value("--max-fairness").parse().unwrap_or_else(|_| usage()))
            }
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    if mode_open {
        cfg.mode = Mode::Open { rate_per_sec: rate };
    }
    Args {
        cfg,
        hostile,
        skewed,
        min_speedup,
        hostile_clients,
        hostile_iterations,
        max_degradation,
        quick,
        virtual_clock,
        max_fairness,
        out,
    }
}

/// Writes a profile's report to `--out`, or `results/<default_name>`, and
/// prints where it went; `false` (after saying why) if it could not.
fn write_bench_report(args: &Args, default_name: &str, json: &str) -> bool {
    let path = args.out.clone().unwrap_or_else(|| PathBuf::from("results").join(default_name));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match &written {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => eprintln!("failed to write report: {e}"),
    }
    written.is_ok()
}

/// The adversarial-tenant isolation battery (`--profile hostile`).
fn main_hostile(args: &Args) -> ExitCode {
    let mut cfg = if args.quick { IsolationConfig::quick() } else { IsolationConfig::default() };
    cfg.seed = args.cfg.seed;
    if let Some(n) = args.hostile_clients {
        cfg.hostile_clients = n;
    }
    if let Some(n) = args.hostile_iterations {
        cfg.hostile_iterations = n;
    }
    let report = run_isolation(&cfg);
    println!("{}", report.summary_line());
    if !write_bench_report(args, "BENCH_isolation.json", &report.to_json()) {
        return ExitCode::FAILURE;
    }
    // Even without an explicit latency bound, the structural half of the
    // gate (no honest failures, no over-quota grants, a live battery) must
    // hold for the run to count.
    if let Err(reason) = report.gate(args.max_degradation.unwrap_or(f64::MAX)) {
        eprintln!("isolation gate failed: {reason}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// What `--profile skewed` writes: the report and the gate's verdict on it
/// (`scripts/bench.sh` indexes every object that carries a `pass`).
#[derive(serde::Serialize)]
struct SkewedOutput {
    bench: &'static str,
    report: mtgpu_loadgen::MigrationBenchReport,
    gate: SkewedGate,
}

#[derive(serde::Serialize)]
struct SkewedGate {
    speedup: f64,
    min_speedup: f64,
    p99_ratio: f64,
    live_migrations: u64,
    pass: bool,
}

/// The skewed migration benchmark (`--profile skewed`): static placement
/// against dynamic load balancing on a churned 4-device mix.
fn main_skewed(args: &Args) -> ExitCode {
    let cfg = MigrationLoadConfig {
        seed: args.cfg.seed,
        long_rounds: if args.quick { 4 } else { 6 },
        ..MigrationLoadConfig::default()
    };
    let report = run_migration_load(&cfg);
    println!(
        "skewed: static {:.1} jobs/vsec, rebalanced {:.1} jobs/vsec ({:.2}x), \
         p99 ratio {:.3}, {} live migration(s)",
        report.static_pass.throughput_jps,
        report.rebalanced_pass.throughput_jps,
        report.speedup,
        report.p99_ratio,
        report.rebalanced_pass.live_migrations,
    );
    // Structural checks (clean passes, a live migration, no aborts) always
    // gate; `--min-speedup` adds the throughput bound on top.
    let min_speedup = args.min_speedup.unwrap_or(0.0);
    let verdict = report.gate(min_speedup);
    let output = SkewedOutput {
        bench: "migration",
        gate: SkewedGate {
            speedup: report.speedup,
            min_speedup,
            p99_ratio: report.p99_ratio,
            live_migrations: report.rebalanced_pass.live_migrations,
            pass: verdict.is_ok(),
        },
        report,
    };
    let json = serde_json::to_string(&output).expect("report serializes");
    if !write_bench_report(args, "BENCH_migration.json", &json) {
        return ExitCode::FAILURE;
    }
    if let Err(reason) = verdict {
        eprintln!("migration gate failed: {reason}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.hostile {
        return main_hostile(&args);
    }
    if args.skewed {
        return main_skewed(&args);
    }
    let report = if args.virtual_clock {
        let det = DetLoadConfig {
            clients: args.cfg.clients,
            requests_per_client: args.cfg.requests_per_client,
            seed: args.cfg.seed,
            devices: args.cfg.devices,
            vgpus_per_device: args.cfg.vgpus_per_device,
            transport: if args.cfg.persistent {
                mtgpu_loadgen::DetTransport::Mux
            } else {
                mtgpu_loadgen::DetTransport::Local
            },
        };
        let (report, fingerprint) = run_det(&det);
        println!("fingerprint: {}", fingerprint.canonical());
        report
    } else {
        run_load(&args.cfg)
    };
    println!("{}", report.summary_line());
    let path = match &args.out {
        Some(path) => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, report.to_json()).map(|_| path.clone())
        }
        None => report.write_into(std::path::Path::new("results")),
    };
    match path {
        Ok(p) => println!("report: {}", p.display()),
        Err(e) => {
            eprintln!("failed to write report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.errors > 0 {
        eprintln!("{} request(s) failed", report.errors);
        return ExitCode::FAILURE;
    }
    if let Some(max) = args.max_fairness {
        if report.fairness_ratio > max {
            eprintln!("fairness ratio {:.2} exceeds limit {max:.2}", report.fairness_ratio);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
