//! Serial-vs-pipelined memory-manager transfer benchmark.
//!
//! Measures the two hot paths the pipelined transfer engine accelerates —
//! bind-time `materialize` (H2D uploads) and victim `swap_out_ctx` (D2H
//! writebacks) — at 4/16/64 buffers on the 2-copy-engine C2050, against the
//! same spec with `copy_engines = 1` (a one-engine device *is* the serial
//! path: the plan runs inline on the calling thread). Times are wall-clock
//! at clock scale 1.0, so the simulated PCIe occupancy *is* the measured
//! time and engine overlap shows up directly.
//!
//! Buffers declare 4 MiB (what the PCIe model charges) but carry a 4 KiB
//! real payload, so host memory stays tiny while the timing is paper-scale.
//!
//! A second suite sweeps *oversubscription*: a hot/cold working-set
//! rotation sized at 1.5×/2×/4× of device memory, measuring end-to-end
//! makespan at clock scale 1.0. The hot set is dirty (kernel output) and
//! re-touched every cycle; cold buffers stream through once, clean. The
//! intra-application victim order (`bytes × staleness ÷ writeback cost`)
//! evicts the stale clean cold buffers for free and leaves the hot set
//! alone. The rotation is sequential, so its counters repeat exactly: they
//! are gated against what the order measured when it was chosen
//! (EXPERIMENTS.md, *Retired baselines*, the `cost_aware` row), where the
//! largest-first order it replaced paid 1.8× the makespan at 2×.
//!
//! Emits a JSON report (default `results/BENCH_memory.json`) and exits
//! nonzero if the 2-engine materialize misses `--gate RATIO` over serial
//! or an oversubscription counter moved.
//!
//! Usage: memory [--quick] [--gate RATIO] [--out PATH]

use mtgpu_api::protocol::AllocKind;
use mtgpu_api::HostBuf;
use mtgpu_core::{Binding, CtxId, MemoryConfig, MemoryManager, RuntimeMetrics, SwapReason, VGpuId};
use mtgpu_gpusim::{DeviceAddr, DeviceId, Gpu, GpuSpec};
use mtgpu_simtime::Clock;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const BUFFER_DECLARED: u64 = 4 << 20;
const PAYLOAD: usize = 4096;
const CTX: CtxId = CtxId(1);

#[derive(Serialize)]
struct Case {
    spec: String,
    copy_engines: u32,
    buffers: usize,
    phase: String,
    serial_nanos: u64,
    pipelined_nanos: u64,
    /// serial / pipelined wall time (>1 means pipelining won).
    speedup: f64,
}

#[derive(Serialize)]
struct Gate {
    spec: String,
    buffers: usize,
    phase: String,
    required_speedup: f64,
    measured_speedup: f64,
    pass: bool,
}

#[derive(Serialize)]
struct OversubCase {
    oversubscription: f64,
    total_buffers: usize,
    rounds: usize,
    makespan_nanos: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    intra_app_swaps: u64,
    swap_bytes: u64,
}

#[derive(Serialize)]
struct CountersGate {
    /// One line per counter that differs from [`OVERSUB_EXPECTED`].
    mismatches: Vec<String>,
    pass: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    quick: bool,
    samples: usize,
    buffer_declared_bytes: u64,
    cases: Vec<Case>,
    gate: Gate,
    oversubscription: Vec<OversubCase>,
    counters_gate: CountersGate,
}

/// `(factor, h2d MiB, d2h MiB, intra_app_swaps)` of the oversubscription
/// rotation, as measured on the commit that made this order the only one.
const OVERSUB_EXPECTED: [(f64, u64, u64, u64); 3] =
    [(1.5, 92, 0, 8), (2.0, 120, 0, 15), (4.0, 240, 0, 45)];

/// One timed episode: materialize N dirty buffers (uploads), mark them
/// kernel-written, swap the context out (writebacks + frees). Returns
/// (materialize_nanos, swapout_nanos).
fn episode(m: &MemoryManager, binding: &Binding, bases: &[DeviceAddr]) -> (u64, u64) {
    let start = Instant::now();
    let r = m.materialize(CTX, bases, binding).expect("materialize");
    let mat = start.elapsed().as_nanos() as u64;
    assert_eq!(r, mtgpu_core::Materialize::Ready, "device must fit the working set");
    m.mark_launched(CTX, bases);
    let start = Instant::now();
    let out = m.swap_out_ctx(CTX, binding, SwapReason::Unbind).expect("swap_out");
    let swap = start.elapsed().as_nanos() as u64;
    assert_eq!(out.freed, bases.len() as u64 * BUFFER_DECLARED);
    (mat, swap)
}

/// A fresh manager with one registered context, bound to a fresh device.
fn fresh(spec: GpuSpec) -> (MemoryManager, Binding, Arc<RuntimeMetrics>) {
    let metrics = Arc::new(RuntimeMetrics::default());
    let m = MemoryManager::new(MemoryConfig::default(), Arc::clone(&metrics));
    m.register_ctx(CTX);
    let gpu = Gpu::new(spec, Clock::with_scale(1.0), 0);
    let gpu_ctx = gpu.create_context().expect("context");
    (m, Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu, gpu_ctx }, metrics)
}

/// Allocates `n` buffers and uploads a payload into each slab.
fn alloc_dirty(m: &MemoryManager, n: usize) -> Vec<DeviceAddr> {
    (0..n)
        .map(|i| {
            let v = m.malloc(CTX, BUFFER_DECLARED, AllocKind::Linear).expect("malloc");
            let payload = vec![(i % 251) as u8; PAYLOAD];
            m.copy_h2d(CTX, v, &HostBuf::with_shadow(BUFFER_DECLARED, payload), None)
                .expect("copy_h2d");
            v
        })
        .collect()
}

/// Best-of-`samples` wall times for both phases on a fresh manager/device.
fn run_mode(spec: &GpuSpec, buffers: usize, samples: usize) -> (u64, u64) {
    let (m, binding, _) = fresh(spec.clone());
    let bases = alloc_dirty(&m, buffers);
    let mut best = (u64::MAX, u64::MAX);
    for _ in 0..samples {
        let (mat, swap) = episode(&m, &binding, &bases);
        best.0 = best.0.min(mat);
        best.1 = best.1.min(swap);
    }
    best
}

/// Hot buffers: re-touched (and kernel-written) every cycle.
const HOT_BUFFERS: usize = 6;
/// Cold buffers streamed per cycle between hot-set touches.
const COLDS_PER_CYCLE: usize = 2;

/// One end-to-end oversubscription run: a rotation of `factor × capacity`
/// buffers through the device. Cold buffers are allocated first (low
/// addresses) and the hot set last, so a largest-first order with a
/// highest-address tie-break would pick hot buffers as victims — the worst
/// case the victim order is designed to avoid.
fn run_oversub(factor: f64) -> OversubCase {
    // The tiny 64 MiB device with a second copy engine, so two-lane overlap
    // and memory pressure both engage at small buffer counts.
    let spec = GpuSpec { copy_engines: 2, ..GpuSpec::test_small() };
    let (m, binding, metrics) = fresh(spec);
    let capacity_bufs = (binding.gpu.mem_available() / BUFFER_DECLARED) as usize;
    let total = ((capacity_bufs as f64) * factor).round() as usize;
    assert!(total > capacity_bufs, "factor {factor} does not oversubscribe");
    let cold = alloc_dirty(&m, total - HOT_BUFFERS);
    let hot = alloc_dirty(&m, HOT_BUFFERS);
    let mut rounds = 0usize;
    let start = Instant::now();
    for chunk in cold.chunks(COLDS_PER_CYCLE) {
        // Hot kernel: touches and rewrites its whole working set.
        let r = m.materialize(CTX, &hot, &binding).expect("materialize hot");
        assert_eq!(r, mtgpu_core::Materialize::Ready, "hot set must fit");
        m.mark_launched(CTX, &hot);
        rounds += 1;
        // Streaming kernels: each reads one fresh cold buffer and leaves
        // it clean (read-only input — eviction needs no writeback).
        for &c in chunk {
            let ws = [c];
            let r = m.materialize(CTX, &ws, &binding).expect("materialize cold");
            assert_eq!(r, mtgpu_core::Materialize::Ready, "one buffer must fit");
            rounds += 1;
        }
    }
    let makespan = start.elapsed().as_nanos() as u64;
    let stats = binding.gpu.stats().snapshot();
    let snap = metrics.snapshot();
    OversubCase {
        oversubscription: factor,
        total_buffers: total,
        rounds,
        makespan_nanos: makespan,
        h2d_bytes: stats.h2d_bytes,
        d2h_bytes: stats.d2h_bytes,
        intra_app_swaps: snap.intra_app_swaps,
        swap_bytes: snap.swap_bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut gate_ratio = 1.4f64;
    let mut out_path = "results/BENCH_memory.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--gate" => gate_ratio = it.next().expect("--gate RATIO").parse().expect("ratio"),
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            // cargo bench passes --bench through to the harness binary.
            "--bench" => {}
            other => {
                eprintln!("unknown arg: {other}");
                std::process::exit(2);
            }
        }
    }
    let buffer_counts: &[usize] = if quick { &[4, 16] } else { &[4, 16, 64] };
    let samples = if quick { 2 } else { 3 };
    let spec = GpuSpec::tesla_c2050();
    let serial_spec = GpuSpec { copy_engines: 1, ..spec.clone() };

    let mut cases = Vec::new();
    for &buffers in buffer_counts {
        let (ser_mat, ser_swap) = run_mode(&serial_spec, buffers, samples);
        let (pip_mat, pip_swap) = run_mode(&spec, buffers, samples);
        for (phase, ser, pip) in
            [("materialize", ser_mat, pip_mat), ("swapout", ser_swap, pip_swap)]
        {
            let speedup = ser as f64 / pip as f64;
            eprintln!(
                "{:<12} engines={} buffers={:<3} {:<11} serial={:>7.2}ms pipelined={:>7.2}ms speedup={:.2}x",
                spec.name,
                spec.copy_engines,
                buffers,
                phase,
                ser as f64 / 1e6,
                pip as f64 / 1e6,
                speedup
            );
            cases.push(Case {
                spec: spec.name.to_string(),
                copy_engines: spec.copy_engines,
                buffers,
                phase: phase.to_string(),
                serial_nanos: ser,
                pipelined_nanos: pip,
                speedup,
            });
        }
    }

    // Gate 1: pipelined materialize at the largest measured buffer count
    // >= 16 must beat serial by `gate_ratio`.
    let gate_buffers = *buffer_counts.iter().filter(|&&b| b >= 16).max().expect("counts >= 16");
    let gated = cases
        .iter()
        .find(|c| c.buffers == gate_buffers && c.phase == "materialize")
        .expect("gated case measured");
    let gate = Gate {
        spec: gated.spec.clone(),
        buffers: gate_buffers,
        phase: "materialize".to_string(),
        required_speedup: gate_ratio,
        measured_speedup: gated.speedup,
        pass: gated.speedup >= gate_ratio,
    };

    // Gate 2: the oversubscription rotation's counters are exact.
    let expected = &OVERSUB_EXPECTED[..if quick { 2 } else { 3 }];
    let mut oversub = Vec::new();
    let mut mismatches = Vec::new();
    for &(factor, h2d_mib, d2h_mib, swaps) in expected {
        let case = run_oversub(factor);
        eprintln!(
            "oversub {:.1}x rounds={:<3} makespan={:>8.2}ms h2d={:>4}MiB d2h={:>4}MiB swaps={}",
            factor,
            case.rounds,
            case.makespan_nanos as f64 / 1e6,
            case.h2d_bytes >> 20,
            case.d2h_bytes >> 20,
            case.intra_app_swaps,
        );
        for (what, got, want) in [
            ("h2d MiB", case.h2d_bytes >> 20, h2d_mib),
            ("d2h MiB", case.d2h_bytes >> 20, d2h_mib),
            ("intra_app_swaps", case.intra_app_swaps, swaps),
        ] {
            if got != want {
                mismatches.push(format!("{factor:.1}x {what}: {got}, expected {want}"));
            }
        }
        oversub.push(case);
    }
    let counters_gate = CountersGate { pass: mismatches.is_empty(), mismatches };

    let report = Report {
        bench: "memory".to_string(),
        quick,
        samples,
        buffer_declared_bytes: BUFFER_DECLARED,
        cases,
        gate,
        oversubscription: oversub,
        counters_gate,
    };
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!(
        "gate: {} speedup {:.2}x (need {:.2}x) -> {}",
        report.gate.spec,
        report.gate.measured_speedup,
        gate_ratio,
        if report.gate.pass { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "oversubscription counters: {} -> {}",
        if report.counters_gate.pass {
            "as recorded".to_string()
        } else {
            report.counters_gate.mismatches.join("; ")
        },
        if report.counters_gate.pass { "PASS" } else { "FAIL" }
    );
    eprintln!("wrote {out_path}");
    if !report.gate.pass || !report.counters_gate.pass {
        std::process::exit(1);
    }
}
