//! Dispatcher throughput + ranked-lock overhead gate.
//!
//! Part 1 (throughput, reported, not gated): the one-lock binding manager
//! under acquire/release churn from 8, 64 and 256 client threads on a
//! 4-device node. Every episode performs the same total number of
//! bind/unbind cycles, so times are directly comparable across client
//! counts: growth with the thread count is pure contention cost. (The seed
//! dispatcher and the per-device-sharded one this bench was written for are
//! retired; their last numbers are in EXPERIMENTS.md, *Retired baselines*.)
//!
//! Part 2 (rank gate): the runtime lock-order checker lives behind
//! `#[cfg(debug_assertions)]`, so release builds must compile
//! `RankedMutex` down to the raw mutex it wraps. This bench measures
//! uncontended lock/unlock on both and fails (`--gate-rank RATIO`,
//! default 1.02) if the ranked wrapper costs more than RATIO× a raw
//! `std::sync::Mutex` taken the same way (a poisoned lock taken over) —
//! i.e. the rank bookkeeping must be zero overhead within 2%.
//! Debug builds report the ratio but never gate on it (the bookkeeping is
//! supposed to cost something there).
//!
//! Emits a JSON report (default `results/BENCH_dispatch.json`) and exits
//! nonzero on gate failure.
//!
//! Usage: dispatch [--quick] [--gate-rank RATIO] [--out PATH]

use mtgpu_core::{AppContext, BindingManager, CtxId, RuntimeMetrics, SchedulerPolicy};
use mtgpu_gpusim::{DeviceId, Gpu, GpuSpec};
use mtgpu_simtime::{lock_rank, Clock, RankedMutex};
use serde::Serialize;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const DEVICES: u32 = 4;
const VGPUS_PER_DEVICE: u32 = 4;
/// Total acquire/release cycles per episode, split across clients.
const EPISODE_OPS: usize = 2048;

#[derive(Serialize)]
struct ThroughputCase {
    clients: usize,
    episode_ops: usize,
    best_nanos: u64,
    ops_per_sec: f64,
}

#[derive(Serialize)]
struct RankGate {
    iters: u64,
    raw_nanos_per_op: f64,
    ranked_nanos_per_op: f64,
    /// ranked / raw (1.0 = identical cost).
    overhead_ratio: f64,
    max_ratio: f64,
    debug_build: bool,
    /// Always true in debug builds (the gate only binds in release).
    pass: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    quick: bool,
    throughput: Vec<ThroughputCase>,
    rank_gate: RankGate,
}

/// `clients` threads, each cycling acquire→release until the episode's op
/// budget is spent.
fn episode(bm: &Arc<BindingManager>, clients: usize) {
    let cycles = EPISODE_OPS / clients;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let bm = Arc::clone(bm);
            let ctx = AppContext::new(CtxId(i as u64 + 1), i as u64, format!("c{i}"));
            std::thread::spawn(move || {
                for _ in 0..cycles {
                    let b = bm.acquire(&ctx, 1.0, 0, Duration::from_secs(30)).expect("grant");
                    bm.release(ctx.id, b.vgpu);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

/// Best-of-`samples` episode time at one client count.
fn measure(bm: &Arc<BindingManager>, clients: usize, samples: usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        episode(bm, clients);
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Best-of-`samples` time for `iters` uncontended lock/unlock pairs.
fn lock_loop(iters: u64, samples: usize, mut lock_unlock: impl FnMut()) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            lock_unlock();
        }
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best as f64 / iters as f64
}

fn rank_gate(iters: u64, samples: usize, max_ratio: f64) -> RankGate {
    let raw = Mutex::new(0u64);
    let raw_nanos = lock_loop(iters, samples, || {
        *std::hint::black_box(&raw).lock().unwrap_or_else(PoisonError::into_inner) += 1;
    });
    let ranked = RankedMutex::new(lock_rank::MM_STATE, 0u64);
    let ranked_nanos = lock_loop(iters, samples, || {
        *std::hint::black_box(&ranked).lock() += 1;
    });
    let overhead_ratio = ranked_nanos / raw_nanos;
    let debug_build = cfg!(debug_assertions);
    RankGate {
        iters,
        raw_nanos_per_op: raw_nanos,
        ranked_nanos_per_op: ranked_nanos,
        overhead_ratio,
        max_ratio,
        debug_build,
        pass: debug_build || overhead_ratio <= max_ratio,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut max_ratio = 1.02f64;
    let mut out_path = "results/BENCH_dispatch.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--gate-rank" => {
                max_ratio = it.next().expect("--gate-rank RATIO").parse().expect("ratio")
            }
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            // cargo bench passes --bench through to the harness binary.
            "--bench" => {}
            other => {
                eprintln!("unknown arg: {other}");
                std::process::exit(2);
            }
        }
    }
    let client_counts: &[usize] = if quick { &[8, 64] } else { &[8, 64, 256] };
    let samples = if quick { 3 } else { 10 };

    let mut throughput = Vec::new();
    let clock = Clock::with_scale(1e-7);
    for &clients in client_counts {
        let bm = Arc::new(BindingManager::new(
            SchedulerPolicy::FcfsRoundRobin,
            Arc::new(RuntimeMetrics::default()),
        ));
        for i in 0..DEVICES {
            let gpu = Gpu::new(GpuSpec::test_small(), clock.clone(), i);
            bm.add_device(DeviceId(i), gpu, VGPUS_PER_DEVICE).unwrap();
        }
        let best = measure(&bm, clients, samples);
        let ops_per_sec = EPISODE_OPS as f64 * 1e9 / best as f64;
        eprintln!(
            "clients={clients:<4} best={:>8.2}ms ({ops_per_sec:>10.0} ops/s)",
            best as f64 / 1e6
        );
        throughput.push(ThroughputCase {
            clients,
            episode_ops: EPISODE_OPS,
            best_nanos: best,
            ops_per_sec,
        });
    }

    let (iters, rank_samples) = if quick { (500_000, 3) } else { (2_000_000, 5) };
    let gate = rank_gate(iters, rank_samples, max_ratio);
    eprintln!(
        "rank overhead: raw={:.2}ns ranked={:.2}ns ratio={:.4} (max {:.2}, {} build) => {}",
        gate.raw_nanos_per_op,
        gate.ranked_nanos_per_op,
        gate.overhead_ratio,
        gate.max_ratio,
        if gate.debug_build { "debug" } else { "release" },
        if gate.pass { "PASS" } else { "FAIL" }
    );

    let report = Report { bench: "dispatch".to_string(), quick, throughput, rank_gate: gate };
    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("report: {out_path}");
    if !report.rank_gate.pass {
        eprintln!(
            "FAIL: RankedMutex costs {:.2}% over the raw mutex in release; rank bookkeeping must compile out",
            (report.rank_gate.overhead_ratio - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}
