//! `mtgpu-perf`: the repository's performance benchmark.
//!
//! One run drives one named workload against an in-process `ClusterNode`
//! over loopback mux connections, closed loop, and reports either the
//! end-to-end metrics ([`run_end_to_end`]) or, from a separate traced run,
//! the per-layer breakdown ([`run_traced`]). `README.md` in this directory
//! defines every workload and metric; the names in [`END_TO_END`] and
//! [`PER_LAYER`] are the contract later changes are judged against.

pub mod calib;
pub mod hist;
pub mod replay;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workload;

use hist::median;
use run::Counters;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;
use trace::{SharedRecorder, OP_SPAN};
pub use workload::Kind;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
/// `failed_share` is printed next to them but travels as the result line's
/// `failed`/`attempted` pair: a metric must never be 0 and this one must
/// always be.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("sim_ms_per_op", "sim_ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("api.codec.us_per_op", "us"),
    ("api.codec.wire_bytes_per_op", "bytes"),
    ("api.codec.frames_per_op", "count"),
    ("api.codec.expansion", "ratio"),
    ("api.guard.us_per_op", "us"),
    ("api.transport.us_per_op", "us"),
    ("api.transport.reactor_requests_per_op", "count"),
    ("api.transport.sheds", "count"),
    ("core.runtime.us_per_op", "us"),
    ("core.service.us_per_op", "us"),
    ("core.service.launch_retries_per_op", "count"),
    ("core.gateway.mux_retries_per_op", "count"),
    ("core.sched.us_per_bind", "us"),
    ("core.sched.binds_per_op", "count"),
    ("core.sched.us_per_op", "us"),
    ("core.sched.wakeups_per_op", "count"),
    ("core.sched.contention_per_op", "count"),
    ("core.memory.us_per_op", "us"),
    ("core.memory.swaps_per_op", "count"),
    ("core.memory.swap_mib_per_op", "MiB"),
    ("core.memory.plans_per_op", "count"),
    ("core.memory.clean_skip_share", "ratio"),
    ("gpusim.us_per_op", "us"),
    ("gpusim.kernels_per_op", "count"),
    ("gpusim.h2d_mib_per_op", "MiB"),
    ("gpusim.d2h_mib_per_op", "MiB"),
    ("gpusim.compute_busy_share", "ratio"),
    ("gpusim.copy_busy_share", "ratio"),
    ("workloads.client_us_per_op", "us"),
    ("cluster.node_start_ms", "ms"),
    ("cluster.pool_connect_ms", "ms"),
    ("cluster.shutdown_ms", "ms"),
    ("client.op_us", "us"),
    ("client.call_us_per_op", "us"),
    ("client.launch_us", "us"),
    ("client.h2d_us", "us"),
    ("client.d2h_us", "us"),
    ("client.malloc_us", "us"),
    ("client.free_us", "us"),
    ("client.register_us", "us"),
    ("client.exit_us", "us"),
    ("client.calls_per_op", "count"),
    ("residual.us_per_op", "us"),
    ("residual.share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans_per_op", "count"),
];

/// Share of `--seconds` the traced run spends on its untraced baseline
/// window; the rest is the traced window.
const UNTRACED_SHARE: f64 = 0.4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window in wall seconds.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Ops of the sim pass; `None` takes the workload's fixed count.
    pub sim_ops: Option<usize>,
    /// Trace file; `None` resolves `<target dir>/perf/trace-<workload>.json`
    /// from the workspace root.
    pub out: Option<PathBuf>,
}

impl Options {
    /// The defaults the benchmark is defined with: seed 42, a 20 s window,
    /// five set-ups.
    pub fn new(kind: Kind) -> Self {
        Options { kind, seed: 42, seconds: 20.0, setups: 5, sim_ops: None, out: None }
    }

    fn sim_ops(&self) -> usize {
        self.sim_ops.unwrap_or_else(|| self.kind.sim_ops())
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Facts printed beside the metrics (op counts, file paths, the first
    /// failure).
    pub notes: Vec<String>,
}

impl Report {
    /// No op failed, no audit was violated, no replay disagreed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The human-readable listing: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!("workload {} seed {}\n", self.kind.name(), self.seed);
        for m in &self.metrics {
            out.push_str(&format!("  {:<40} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  {:<40} {:>16.4} ratio ({} failed of {} attempted)\n",
            "failed_share", share, self.failed, self.attempted
        ));
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        out
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Value::F64(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Object(fields))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }
}

fn metrics_in_order(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"))
                .1;
            Metric { name, unit, value }
        })
        .collect()
}

/// The untraced run: repeated set-up, the wall window, the sim pass.
pub fn run_end_to_end(opts: &Options) -> Result<Report, String> {
    let kind = opts.kind;
    let mut live = run::repeated_setup(kind, opts.seed, opts.setups)?;
    let setup_s = live.setup_s;
    let mut window = run::run_window(&mut live.tenants, opts.seconds, None);
    live.close(&mut window);
    let sim = run::sim_pass(kind, opts.seed, opts.sim_ops())?;

    let values = [
        ("setup_s", setup_s),
        ("ops_per_s", window.ops_per_s),
        ("op_p50_us", window.hist.quantile(0.50) / 1e3),
        ("op_p99_us", window.hist.quantile(0.99) / 1e3),
        ("sim_ms_per_op", sim.sim_ms_per_op()),
        ("peak_rss_mib", run::peak_rss_mib()),
    ];
    let mut notes = vec![
        format!(
            "wall pass: {} ops verified in {:.3} s by {} thread(s); sim pass: {} ops",
            window.completed(),
            window.wall_s,
            kind.tenants(),
            sim.ops
        ),
        format!(
            "uncalibrated: {:.1} ops per second of op time; mean speed factor {:.3} \
             (setup_s, ops_per_s, op_p50_us and op_p99_us are in calibrated seconds)",
            window.raw_ops_per_s,
            window.mean_factor()
        ),
    ];
    notes.extend(window.first_error.iter().map(|e| format!("first wall-pass failure: {e}")));
    notes.extend(sim.first_error.iter().map(|e| format!("first sim-pass failure: {e}")));
    Ok(Report {
        kind,
        seed: opts.seed,
        attempted: window.attempted + sim.ops,
        failed: window.failed + sim.failed,
        metrics: metrics_in_order(&END_TO_END, &values),
        notes,
    })
}

/// Per-op figures extracted from the client spans.
#[derive(Default)]
struct SpanStats {
    op_us: Vec<f64>,
    call_us: Vec<f64>,
    self_us: Vec<f64>,
    calls: u64,
    spans: u64,
    by_kind: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

/// Which `client.*_us` metric a call span feeds.
fn span_kind(name: &str) -> Option<&'static str> {
    Some(match name {
        "Launch" => "client.launch_us",
        "MemcpyH2D" => "client.h2d_us",
        "MemcpyD2H" => "client.d2h_us",
        "Malloc" => "client.malloc_us",
        "Free" => "client.free_us",
        "RegisterFatBinary" | "RegisterFunction" | "HintJobLength" => "client.register_us",
        "Exit" => "client.exit_us",
        _ => return None,
    })
}

/// Reads the per-op figures out of the spans, each duration scaled by
/// `factor`.
fn span_stats(recorders: &[SharedRecorder], factor: f64) -> SpanStats {
    let mut stats = SpanStats::default();
    for rec in recorders {
        let rec = rec.lock().expect("recorder lock");
        // An op span is stored ahead of its call spans.
        let mut open: Option<(f64, f64)> = None;
        let close = |open: &mut Option<(f64, f64)>, stats: &mut SpanStats| {
            if let Some((op_us, call_us)) = open.take() {
                stats.op_us.push(op_us);
                stats.call_us.push(call_us);
                stats.self_us.push(op_us - call_us);
            }
        };
        for span in rec.spans() {
            let us = (span.end_ns - span.start_ns) as f64 / 1e3 * factor;
            if span.name == OP_SPAN {
                close(&mut open, &mut stats);
                open = Some((us, 0.0));
                stats.spans += 1;
            } else if span.op != 0 {
                if let Some((_, call_us)) = &mut open {
                    *call_us += us;
                }
                stats.calls += span.calls as u64;
                stats.spans += 1;
                if let Some(kind) = span_kind(span.name) {
                    stats.by_kind.entry(kind).or_default().push(us);
                }
            }
        }
        close(&mut open, &mut stats);
    }
    stats
}

fn default_trace_path(kind: Kind) -> PathBuf {
    // `cargo run` exports the manifest directory at run time; a binary
    // started by hand falls back to where it was built. Never the CWD:
    // cargo starts tests and benches from the package directory.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let root = PathBuf::from(manifest).join("../..");
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    root.join(target).join("perf").join(format!("trace-{}.json", kind.name()))
}

/// The traced run: an untraced baseline window, the traced window with
/// counters read around it, the sim pass, then the replays.
pub fn run_traced(opts: &Options) -> Result<Report, String> {
    let kind = opts.kind;
    let seed = opts.seed;

    let mut live = run::Live::setup(kind, seed)?;
    let mut untraced = run::run_window(&mut live.tenants, opts.seconds * UNTRACED_SHARE, None);
    live.close(&mut untraced);

    let (mut live, recorders) = run::Live::setup_traced(kind, seed, Instant::now())?;
    let before = live.bench.counters();
    let traced_seconds = opts.seconds * (1.0 - UNTRACED_SHARE);
    let mut traced = run::run_window(&mut live.tenants, traced_seconds, Some(&recorders));
    let after = live.bench.counters();
    let (node_start_ms, pool_connect_ms) = (live.bench.node_start_ms, live.bench.pool_connect_ms);
    let shutdown_ms = live.close(&mut traced);

    let sim = run::sim_pass(kind, seed, opts.sim_ops())?;

    let recording = recorders[0].lock().expect("recorder lock").recording().clone();
    if recording.ops.is_empty() {
        return Err("the traced window completed no op to replay".into());
    }
    let codec = replay::codec_probe(&recording)?;
    let guard_us = replay::guard_probe(&recording)?;
    let echo = replay::replay_echo(kind, &recording)?;
    let local = replay::replay_local(kind, seed, &recording)?;
    let bare = replay::replay_bare(&recording)?;
    let (memory_us, memory_errors) = replay::memory_probe(&recording)?;
    let bind_us = replay::sched_probe(kind, seed)?;

    // Spans are raw; one factor for the whole traced window calibrates them.
    let stats = span_stats(&recorders, traced.mean_factor());
    let path = opts.out.clone().unwrap_or_else(|| default_trace_path(kind));
    let written = trace::write_chrome_trace(&path, kind.name(), &recorders)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let ops = traced.attempted.max(1) as f64;
    let per_op = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64 / ops;
    let mib = |bytes: f64| bytes / (1 << 20) as f64;
    let swap_bytes = per_op(|c| c.metrics.swap_bytes);
    let clean_bytes = per_op(|c| c.metrics.swap_bytes_skipped_clean);
    let binds = per_op(|c| c.metrics.bindings);
    let sim_elapsed = (sim.sim_nanos.max(1) * kind.devices() as u64) as f64;
    let sim_busy = |f: fn(&Counters) -> u64| (f(&sim.after) - f(&sim.before)) as f64 / sim_elapsed;

    let r_mux = median(&stats.call_us);
    let (r_echo, r_local, r_bare) = (echo.median_us(), local.median_us(), bare.median_us());
    let sched_us = bind_us * binds;
    let residual = r_mux - r_echo - r_local;
    let (untraced_rate, traced_rate) = (untraced.ops_per_s, traced.ops_per_s);
    let kind_us = |name: &str| stats.by_kind.get(name).map_or(0.0, |v| median(v));

    let values = [
        ("api.codec.us_per_op", codec.us_per_op),
        ("api.codec.wire_bytes_per_op", codec.wire_bytes_per_op),
        ("api.codec.frames_per_op", codec.frames_per_op),
        ("api.codec.expansion", codec.expansion),
        ("api.guard.us_per_op", guard_us),
        ("api.transport.us_per_op", r_echo - codec.us_per_op),
        ("api.transport.reactor_requests_per_op", per_op(|c| c.reactor_requests)),
        ("api.transport.sheds", (after.sheds - before.sheds) as f64),
        ("core.runtime.us_per_op", r_local),
        ("core.service.us_per_op", r_local - memory_us - sched_us - r_bare),
        ("core.service.launch_retries_per_op", per_op(|c| c.metrics.launch_retries)),
        ("core.gateway.mux_retries_per_op", per_op(|c| c.metrics.mux_retries)),
        ("core.sched.us_per_bind", bind_us),
        ("core.sched.binds_per_op", binds),
        ("core.sched.us_per_op", sched_us),
        ("core.sched.wakeups_per_op", per_op(|c| c.metrics.targeted_wakeups)),
        (
            "core.sched.contention_per_op",
            per_op(|c| c.metrics.waiter_reroutes + c.metrics.lock_contention_events),
        ),
        ("core.memory.us_per_op", memory_us),
        ("core.memory.swaps_per_op", per_op(|c| c.metrics.total_swaps())),
        ("core.memory.swap_mib_per_op", mib(swap_bytes)),
        ("core.memory.plans_per_op", per_op(|c| c.metrics.transfer_plans)),
        (
            "core.memory.clean_skip_share",
            if swap_bytes + clean_bytes > 0.0 {
                clean_bytes / (swap_bytes + clean_bytes)
            } else {
                0.0
            },
        ),
        ("gpusim.us_per_op", r_bare),
        ("gpusim.kernels_per_op", per_op(|c| c.kernels)),
        ("gpusim.h2d_mib_per_op", mib(per_op(|c| c.h2d_bytes))),
        ("gpusim.d2h_mib_per_op", mib(per_op(|c| c.d2h_bytes))),
        ("gpusim.compute_busy_share", sim_busy(|c| c.compute_busy_ns)),
        ("gpusim.copy_busy_share", sim_busy(|c| c.copy_busy_ns)),
        ("workloads.client_us_per_op", median(&stats.self_us)),
        ("cluster.node_start_ms", node_start_ms),
        ("cluster.pool_connect_ms", pool_connect_ms),
        ("cluster.shutdown_ms", shutdown_ms),
        ("client.op_us", median(&stats.op_us)),
        ("client.call_us_per_op", r_mux),
        ("client.launch_us", kind_us("client.launch_us")),
        ("client.h2d_us", kind_us("client.h2d_us")),
        ("client.d2h_us", kind_us("client.d2h_us")),
        ("client.malloc_us", kind_us("client.malloc_us")),
        ("client.free_us", kind_us("client.free_us")),
        ("client.register_us", kind_us("client.register_us")),
        ("client.exit_us", kind_us("client.exit_us")),
        ("client.calls_per_op", stats.calls as f64 / ops),
        ("residual.us_per_op", residual),
        ("residual.share", if r_mux > 0.0 { residual / r_mux } else { 0.0 }),
        (
            "trace.overhead_share",
            if untraced_rate > 0.0 { 1.0 - traced_rate / untraced_rate } else { 0.0 },
        ),
        ("trace.spans_per_op", stats.spans as f64 / ops),
    ];

    let replay_failures = echo.mismatches + local.mismatches + bare.mismatches + memory_errors;
    let mut notes = vec![
        format!(
            "untraced window: {} ops in {:.3} s; traced window: {} ops in {:.3} s; sim pass: {} ops",
            untraced.completed(),
            untraced.wall_s,
            traced.completed(),
            traced.wall_s,
            sim.ops
        ),
        format!(
            "replays over {} recorded ops: R_mux {r_mux:.1} us, R_echo {r_echo:.1} us, \
             R_local {r_local:.1} us, R_bare {r_bare:.1} us",
            recording.ops.len()
        ),
        format!("trace: {written} events in {}", path.display()),
    ];
    if replay_failures > 0 {
        notes.push(format!(
            "replay disagreements: echo {}, local {}, bare {}, memory probe {}",
            echo.mismatches, local.mismatches, bare.mismatches, memory_errors
        ));
    }
    for (pass, error) in [
        ("untraced window", &untraced.first_error),
        ("traced window", &traced.first_error),
        ("sim pass", &sim.first_error),
    ] {
        notes.extend(error.iter().map(|e| format!("first {pass} failure: {e}")));
    }
    Ok(Report {
        kind,
        seed,
        attempted: untraced.attempted + traced.attempted + sim.ops,
        failed: untraced.failed + traced.failed + sim.failed + replay_failures,
        metrics: metrics_in_order(&PER_LAYER, &values),
        notes,
    })
}
