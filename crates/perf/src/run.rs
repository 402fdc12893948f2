//! The passes of one run: set-up, the closed-loop wall window, the
//! one-in-flight sim pass, and the post-drain audit after each.

use crate::calib::{Calibrator, QUANTUM_NOMINAL_NS};
use crate::hist::{median, Histogram};
use crate::trace::{Recorder, SharedRecorder, TracedClient};
use crate::workload::{self, Kind, Tenant};
use mtgpu_api::transport::{MuxChannel, MuxPool};
use mtgpu_api::FrontendClient;
use mtgpu_cluster::ClusterNode;
use mtgpu_core::{MetricsSnapshot, RuntimeConfig};
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::Clock;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real seconds per simulated second in the wall pass: simulated device
/// time is practically free, so wall time is the runtime's own host cost.
pub const WALL_CLOCK_SCALE: f64 = 1e-7;

/// Ops per tenant whose calls the traced run keeps for the replays.
pub const RECORD_OPS: usize = 256;

/// A tenant gives up after this many failed ops, so a broken build fails
/// fast instead of spinning on errors for the whole window.
const MAX_TENANT_FAILURES: u64 = 1000;

/// How long the audit waits for contexts to drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The runtime configuration every pass uses.
pub fn runtime_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig::default().with_vgpus(4).with_seed(seed)
}

/// Counters read before and after a window; all monotonic.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub metrics: MetricsSnapshot,
    pub reactor_requests: u64,
    pub sheds: u64,
    pub kernels: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub compute_busy_ns: u64,
    pub copy_busy_ns: u64,
    pub sim_now_ns: u64,
}

/// A started node with its connection pool.
pub struct Bench {
    pub kind: Kind,
    pub node: ClusterNode,
    pub pool: Arc<MuxPool>,
    pub clock: Clock,
    pub node_start_ms: f64,
    pub pool_connect_ms: f64,
}

impl Bench {
    /// Starts an in-process node for `kind` and connects one loopback mux
    /// connection per generator thread.
    pub fn start(kind: Kind, clock: Clock, cfg: RuntimeConfig) -> Result<Bench, String> {
        workload::install_kernels();
        let t0 = Instant::now();
        let specs = vec![GpuSpec::test_small(); kind.devices()];
        let node = ClusterNode::start("perf".into(), clock.clone(), specs, cfg, true);
        let node_start_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let pool = node.mux_pool(kind.tenants()).map_err(|e| format!("connect pool: {e}"))?;
        let pool_connect_ms = t1.elapsed().as_secs_f64() * 1e3;
        Ok(Bench { kind, node, pool: Arc::new(pool), clock, node_start_ms, pool_connect_ms })
    }

    /// A client factory for tenant `tenant`: fresh channels on its own
    /// connection, pipelined where the workload says so.
    fn connector(&self, tenant: usize) -> impl FnMut() -> FrontendClient<MuxChannel> + Send {
        let pool = Arc::clone(&self.pool);
        let pipelined = self.kind.pipelined();
        move || {
            let client = FrontendClient::new(pool.channel_on(tenant));
            if pipelined {
                client.with_pipelining()
            } else {
                client
            }
        }
    }

    /// Builds the workload's tenants over plain clients.
    pub fn tenants(&self, seed: u64) -> Vec<Box<dyn Tenant>> {
        (0..self.kind.tenants())
            .map(|t| {
                workload::build(self.kind, t, seed, self.clock.clone(), Box::new(self.connector(t)))
            })
            .collect()
    }

    /// Builds the workload's tenants over traced clients, one recorder per
    /// tenant.
    pub fn traced_tenants(
        &self,
        seed: u64,
        epoch: Instant,
    ) -> (Vec<Box<dyn Tenant>>, Vec<SharedRecorder>) {
        let recorders: Vec<SharedRecorder> = (0..self.kind.tenants())
            .map(|t| Recorder::shared(epoch, t as u32 + 1, RECORD_OPS))
            .collect();
        let tenants = recorders
            .iter()
            .enumerate()
            .map(|(t, rec)| {
                let mut connect = self.connector(t);
                let rec = Arc::clone(rec);
                let traced = move || TracedClient::new(connect(), Arc::clone(&rec));
                workload::build(self.kind, t, seed, self.clock.clone(), Box::new(traced))
            })
            .collect();
        (tenants, recorders)
    }

    /// Reads every counter the per-layer metrics are derived from.
    pub fn counters(&self) -> Counters {
        let mut c = Counters { metrics: self.node.metrics(), ..Counters::default() };
        if let Some(stats) = self.node.mux_stats() {
            c.reactor_requests = stats.requests.load(Ordering::Relaxed);
            c.sheds = stats.shed_slow.load(Ordering::Relaxed)
                + stats.shed_backlog.load(Ordering::Relaxed)
                + stats.protocol_errors.load(Ordering::Relaxed);
        }
        for (_, gpu) in self.node.runtime().driver().devices() {
            let stats = gpu.stats().snapshot();
            c.kernels += stats.kernels_launched;
            c.h2d_bytes += stats.h2d_bytes;
            c.d2h_bytes += stats.d2h_bytes;
            c.compute_busy_ns += gpu.compute_busy_time().as_nanos();
            c.copy_busy_ns += gpu.engine_busy_times().iter().map(|d| d.as_nanos()).sum::<u64>();
        }
        c.sim_now_ns = self.clock.now().since_epoch().as_nanos();
        c
    }

    /// Post-drain audit from public state: every violation is a failure of
    /// the run, whatever the ops themselves reported.
    pub fn audit(&self) -> Vec<String> {
        let rt = self.node.runtime();
        let mut violations = Vec::new();
        if !rt.wait_idle(DRAIN_TIMEOUT) {
            violations.push(format!("{} contexts did not drain", rt.context_count()));
        }
        let c = self.counters();
        let m = &c.metrics;
        if m.bindings != m.unbindings {
            violations.push(format!("bindings {} != unbindings {}", m.bindings, m.unbindings));
        }
        if rt.memory().swap_used() != 0 {
            violations.push(format!("swap area holds {} bytes", rt.memory().swap_used()));
        }
        if c.sheds != 0 {
            violations.push(format!("reactor shed or rejected {} connections", c.sheds));
        }
        if m.failed_contexts != 0 {
            violations.push(format!("{} failed contexts", m.failed_contexts));
        }
        violations
    }

    /// Closes the pool and stops the node; returns the time it took in ms.
    pub fn shutdown(self) -> f64 {
        let t0 = Instant::now();
        self.pool.shutdown();
        self.node.shutdown();
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Prepares the tenants and runs the fixed-count warm-up.
fn prepare_and_warm(kind: Kind, tenants: &mut [Box<dyn Tenant>]) -> Result<(), String> {
    for t in tenants.iter_mut() {
        t.prepare()?;
    }
    for _ in 0..kind.warmup_ops() {
        for t in tenants.iter_mut() {
            t.op().map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(())
}

/// Result of one closed-loop window. Latencies and the rate are calibrated
/// (see [`crate::calib`]); the raw figures ride along for the report.
#[derive(Default)]
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Calibrated latency of every verified op, in ns.
    pub hist: Histogram,
    /// Verified ops per calibrated second of op time, summed over threads.
    pub ops_per_s: f64,
    /// Verified ops per raw second of op time, summed over threads.
    pub raw_ops_per_s: f64,
    /// Sum over threads of each thread's mean speed factor.
    factor_sum: f64,
    threads: u32,
    pub wall_s: f64,
    pub first_error: Option<String>,
}

impl Window {
    /// Verified ops completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Mean speed factor of the window (1 when nothing was calibrated).
    pub fn mean_factor(&self) -> f64 {
        if self.threads == 0 {
            1.0
        } else {
            self.factor_sum / self.threads as f64
        }
    }

    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.hist.merge(&other.hist);
        self.ops_per_s += other.ops_per_s;
        self.raw_ops_per_s += other.raw_ops_per_s;
        self.factor_sum += other.factor_sum;
        self.threads += other.threads;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Counts a failure that is not tied to one op (audit, window-end check).
    pub fn fail(&mut self, why: String) {
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        self.attempted = self.attempted.max(1);
        self.first_error.get_or_insert(why);
    }
}

/// One generator thread's share of a window.
fn generate(
    tenant: &mut dyn Tenant,
    deadline: Instant,
    rec: Option<&SharedRecorder>,
) -> std::io::Result<Window> {
    let mut cal = Calibrator::new()?;
    let mut w = Window { threads: 1, ..Window::default() };
    let mut calibrated = Vec::new();
    let (mut raw_ok_ns, mut raw_failed_ns, mut cal_ok_ns) = (0u64, 0u64, 0f64);
    let mut record = |batch: &mut Vec<f64>, hist: &mut Histogram| {
        for ns in batch.drain(..) {
            hist.record(ns as u64);
            cal_ok_ns += ns;
        }
    };
    while Instant::now() < deadline && w.failed < MAX_TENANT_FAILURES {
        if let Some(rec) = rec {
            rec.lock().expect("recorder lock").begin_op();
        }
        let t0 = Instant::now();
        let outcome = tenant.op();
        let nanos = t0.elapsed().as_nanos() as u64;
        if let Some(rec) = rec {
            rec.lock().expect("recorder lock").end_op();
        }
        w.attempted += 1;
        match outcome {
            Ok(()) => {
                raw_ok_ns += nanos;
                cal.after_op(nanos, &mut calibrated);
                record(&mut calibrated, &mut w.hist);
            }
            // A failed op records no latency; its time still counts against
            // the rate.
            Err(e) => {
                w.failed += 1;
                raw_failed_ns += nanos;
                w.first_error.get_or_insert(e);
            }
        }
    }
    cal.drain(&mut calibrated);
    record(&mut calibrated, &mut w.hist);
    let factor = cal.mean_factor();
    let ok = w.completed() as f64;
    let raw_s = (raw_ok_ns + raw_failed_ns) as f64 / 1e9;
    let cal_s = (cal_ok_ns + raw_failed_ns as f64 * factor) / 1e9;
    if ok > 0.0 {
        w.raw_ops_per_s = ok / raw_s;
        w.ops_per_s = ok / cal_s;
    }
    w.factor_sum = factor;
    Ok(w)
}

/// Closed loop: every tenant thread issues its next op when the previous
/// one has returned, for `seconds` of wall time, each op followed by its
/// share of reference quanta. With recorders, each op is bracketed by an op
/// span.
pub fn run_window(
    tenants: &mut [Box<dyn Tenant>],
    seconds: f64,
    recorders: Option<&[SharedRecorder]>,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<std::io::Result<Window>> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .enumerate()
            .map(|(i, tenant)| {
                let rec = recorders.map(|r| &r[i]);
                s.spawn(move || generate(tenant.as_mut(), deadline, rec))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut total = Window::default();
    for part in parts {
        match part {
            Ok(part) => total.absorb(part),
            Err(e) => total.fail(format!("calibrator: {e}")),
        }
    }
    total.wall_s = start.elapsed().as_secs_f64();
    total
}

/// A set-up node with its prepared, warmed-up tenants.
pub struct Live {
    pub bench: Bench,
    pub tenants: Vec<Box<dyn Tenant>>,
    /// How long this set-up took, raw wall seconds.
    pub setup_s: f64,
}

impl Live {
    /// One timed set-up: node start, pool connect, context preparation and
    /// the fixed-count warm-up.
    pub fn setup(kind: Kind, seed: u64) -> Result<Live, String> {
        Self::timed_setup(kind, seed, |bench| (bench.tenants(seed), ())).map(|(live, ())| live)
    }

    /// The same over traced clients, one recorder per tenant, timestamps
    /// counted from `epoch`.
    pub fn setup_traced(
        kind: Kind,
        seed: u64,
        epoch: Instant,
    ) -> Result<(Live, Vec<SharedRecorder>), String> {
        Self::timed_setup(kind, seed, |bench| bench.traced_tenants(seed, epoch))
    }

    fn timed_setup<R>(
        kind: Kind,
        seed: u64,
        build: impl FnOnce(&Bench) -> (Vec<Box<dyn Tenant>>, R),
    ) -> Result<(Live, R), String> {
        let t0 = Instant::now();
        let bench = Bench::start(kind, Clock::with_scale(WALL_CLOCK_SCALE), runtime_config(seed))?;
        let (mut tenants, extra) = build(&bench);
        prepare_and_warm(kind, &mut tenants)?;
        Ok((Live { bench, tenants, setup_s: t0.elapsed().as_secs_f64() }, extra))
    }

    /// Ends a pass: window-end checks and context exits, the post-drain
    /// audit (failures land in `window`), then shutdown. Returns the
    /// shutdown time in ms.
    pub fn close(mut self, window: &mut Window) -> f64 {
        for t in self.tenants.iter_mut() {
            if let Err(e) = t.finish() {
                window.fail(format!("finish: {e}"));
            }
        }
        for v in self.bench.audit() {
            window.fail(format!("audit: {v}"));
        }
        drop(self.tenants);
        self.bench.shutdown()
    }
}

/// Quanta timed before and after each set-up to calibrate its duration.
const SETUP_QUANTA: usize = 200;

/// Sets up `repeats` times and keeps the last one for the window, its
/// `setup_s` replaced by the median calibrated set-up time. Each discarded
/// set-up is closed and audited like a pass.
pub fn repeated_setup(kind: Kind, seed: u64, repeats: usize) -> Result<Live, String> {
    let mut cal = Calibrator::new().map_err(|e| format!("calibrator: {e}"))?;
    let mut times = Vec::with_capacity(repeats);
    let mut calibrated_setup = || -> Result<Live, String> {
        let before = cal.burst(SETUP_QUANTA);
        let live = Live::setup(kind, seed)?;
        let after = cal.burst(SETUP_QUANTA);
        times.push(live.setup_s * QUANTUM_NOMINAL_NS / ((before + after) / 2.0));
        Ok(live)
    };
    for i in 1..repeats {
        let mut w = Window::default();
        calibrated_setup()?.close(&mut w);
        if let Some(e) = w.first_error {
            return Err(format!("set-up {i}: {e}"));
        }
    }
    let mut live = calibrated_setup()?;
    live.setup_s = median(&times);
    Ok(live)
}

/// Result of the sim pass.
pub struct SimPass {
    pub ops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Virtual nanoseconds the ops took, start of first to end of last.
    pub sim_nanos: u64,
    pub before: Counters,
    pub after: Counters,
}

impl SimPass {
    /// Simulated milliseconds per op.
    pub fn sim_ms_per_op(&self) -> f64 {
        self.sim_nanos as f64 / 1e6 / self.ops.max(1) as f64
    }
}

/// The sim pass: a fresh node on a virtual clock with the background monitor
/// off, the same seeded op stream driven strictly one op in flight for
/// `ops` ops. Nothing but the calls advances virtual time, so the result is
/// a pure function of `(workload, seed, ops)`.
pub fn sim_pass(kind: Kind, seed: u64, ops: usize) -> Result<SimPass, String> {
    let cfg = runtime_config(seed).with_background_monitor(false);
    let bench = Bench::start(kind, Clock::virtual_clock(), cfg)?;
    let mut tenants = bench.tenants(seed);
    for t in tenants.iter_mut() {
        t.prepare()?;
    }
    let before = bench.counters();
    let mut window = Window::default();
    for i in 0..ops {
        let tenant = &mut tenants[i % kind.tenants()];
        window.attempted += 1;
        if let Err(e) = tenant.op() {
            window.failed += 1;
            window.first_error.get_or_insert(e);
        }
        // Teardown runs after the Exit reply; it must finish before the next
        // op or two contexts would share the virtual timeline.
        if kind.fresh_context_per_op() && !drained(&bench) {
            window.fail("context teardown did not complete".into());
            break;
        }
    }
    let after = bench.counters();
    Live { bench, tenants, setup_s: 0.0 }.close(&mut window);
    Ok(SimPass {
        ops: window.attempted,
        failed: window.failed,
        first_error: window.first_error,
        sim_nanos: after.sim_now_ns - before.sim_now_ns,
        before,
        after,
    })
}

/// Waits until no context is left on the node (finer-grained than
/// `NodeRuntime::wait_idle`, which polls every millisecond).
fn drained(bench: &Bench) -> bool {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while bench.node.runtime().context_count() > 0 {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    true
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
