//! Adversarial-tenant isolation harness (`loadgen --profile hostile`).
//!
//! Two passes against private node daemons with the tenant-policy layer
//! armed (DESIGN.md §13):
//!
//! 1. **baseline** — honest tenants only, closed loop over the Table 2
//!    catalog, recording the honest latency distribution;
//! 2. **contended** — the same honest tenants racing a pack of hostile
//!    tenants, each bound to a deliberately tiny [`GpuLease`] and spamming
//!    over-quota allocations, greedy within-quota allocations, context
//!    churn, and context-cap probes as fast as the wire allows.
//!
//! The report compares honest p50/p99 across the passes (the *degradation
//! ratio*) and counts every hostile outcome. The isolation claim the CI
//! gate enforces: a greedy tenant is held to its lease bit-for-bit (zero
//! over-quota grants), and its spam cannot degrade honest tail latency
//! beyond a fixed ratio.

use crate::driver::{fresh_connection, run_load_beside, LoadgenConfig, Mode};
use crate::hist::LatencySummary;
use mtgpu_api::transport::MuxChannel;
use mtgpu_api::{CudaClient, CudaError, FrontendClient};
use mtgpu_core::{GpuLease, MetricsSnapshot, TenantPolicyConfig};
use serde::Serialize;
use std::net::SocketAddr;

/// Memory lease granted to each hostile tenant, in MiB.
const HOSTILE_MEM_MB: u64 = 8;
/// An allocation far over the hostile lease; every attempt must bounce.
const OVERQUOTA_BYTES: u64 = 64 << 20;
/// A within-quota allocation the greedy tenant hoards up to its cap.
const SMALL_BYTES: u64 = 2 << 20;
/// Over-quota malloc attempts per hostile iteration.
const OVERQUOTA_PER_ITER: usize = 4;
/// Within-quota mallocs per iteration (3 x 2 MiB fits the 8 MiB lease).
const SMALL_PER_ITER: usize = 3;
/// Adoptions one hostile iteration tries before it gives up (see `adopt`).
const ADOPT_TRIES: usize = 64;

fn hostile_app(i: usize) -> u64 {
    0xBAD0 + i as u64
}

/// Parameters of one isolation run (both passes share them).
#[derive(Debug, Clone)]
pub struct IsolationConfig {
    /// Honest closed-loop tenants running catalog workloads.
    pub honest_clients: usize,
    /// Hostile tenants spamming the admission path.
    pub hostile_clients: usize,
    /// Catalog requests per honest tenant.
    pub requests_per_client: usize,
    /// Spam iterations per hostile tenant (each: context churn + cap probe
    /// + over-quota and greedy mallocs).
    pub hostile_iterations: usize,
    pub seed: u64,
    pub devices: usize,
    pub vgpus_per_device: u32,
    /// Real seconds per simulated second on the node clock.
    pub clock_scale: f64,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        IsolationConfig {
            honest_clients: 6,
            hostile_clients: 3,
            requests_per_client: 6,
            hostile_iterations: 12,
            seed: 42,
            devices: 4,
            vgpus_per_device: 4,
            clock_scale: 1e-7,
        }
    }
}

impl IsolationConfig {
    /// The CI configuration: small enough for seconds-scale runtime, large
    /// enough that honest p99 rests on a few dozen samples.
    pub fn quick() -> Self {
        IsolationConfig {
            honest_clients: 4,
            hostile_clients: 2,
            requests_per_client: 4,
            hostile_iterations: 8,
            devices: 2,
            ..Self::default()
        }
    }

    /// The lease table both passes run under: honest tenants stay
    /// anonymous under an unlimited high-priority default lease; each
    /// hostile tenant adopts its own application with a tiny memory cap, a
    /// single-context cap, and bottom priority.
    fn policy(&self) -> TenantPolicyConfig {
        let mut policy = TenantPolicyConfig::default()
            .with_default_lease(GpuLease::unlimited().with_priority(100));
        for i in 0..self.hostile_clients {
            policy = policy.with_tenant_lease(
                hostile_app(i),
                GpuLease { mem_mb: HOSTILE_MEM_MB, max_contexts: 1, ttl_s: 0, priority: 1 },
            );
        }
        policy
    }
}

/// Aggregate hostile-side outcome of the contended pass.
#[derive(Debug, Clone, Default, Serialize)]
pub struct HostileReport {
    /// Over-quota malloc attempts issued.
    pub overquota_attempts: u64,
    /// ... of which were rejected with the typed quota error.
    pub overquota_rejected: u64,
    /// ... of which were wrongly granted. The gate requires zero.
    pub overquota_granted: u64,
    /// Context-cap probes rejected at `cudaSetApplication` time.
    pub context_cap_rejections: u64,
    /// Full connect/adopt/spam/exit cycles completed (context churn).
    pub context_churns: u64,
    /// Within-quota mallocs that were (correctly) granted.
    pub small_allocs_granted: u64,
    /// Transport-level or unexpected typed errors.
    pub errors: u64,
}

impl HostileReport {
    fn merge(&mut self, o: &HostileReport) {
        self.overquota_attempts += o.overquota_attempts;
        self.overquota_rejected += o.overquota_rejected;
        self.overquota_granted += o.overquota_granted;
        self.context_cap_rejections += o.context_cap_rejections;
        self.context_churns += o.context_churns;
        self.small_allocs_granted += o.small_allocs_granted;
        self.errors += o.errors;
    }
}

/// Honest-side outcome of one pass.
#[derive(Debug, Clone, Serialize)]
pub struct PassReport {
    pub honest_latency: LatencySummary,
    pub honest_completed: u64,
    pub honest_errors: u64,
    /// Max/min honest makespan ratio (1.0 is perfectly fair).
    pub honest_fairness_ratio: f64,
    /// Runtime counters at pass end (quota rejections, reaps, ...).
    pub runtime: MetricsSnapshot,
}

/// The JSON artifact of a hostile-profile run (`results/BENCH_isolation.json`).
#[derive(Debug, Clone, Serialize)]
pub struct IsolationReport {
    pub honest_clients: usize,
    pub hostile_clients: usize,
    pub requests_per_client: usize,
    pub hostile_iterations: usize,
    pub seed: u64,
    pub devices: usize,
    pub vgpus_per_device: u32,
    pub baseline: PassReport,
    pub contended: PassReport,
    pub hostile: HostileReport,
    /// contended honest p50 / baseline honest p50.
    pub p50_degradation: f64,
    /// contended honest p99 / baseline honest p99 — the gated number.
    pub p99_degradation: f64,
}

impl IsolationReport {
    /// Canonical JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("isolation report serializes")
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "isolation: {} honest vs {} hostile, honest p99 {:.3} ms -> {:.3} ms \
             (x{:.2}), hostile over-quota {}/{} rejected, {} ctx-cap bounces, \
             {} churns",
            self.honest_clients,
            self.hostile_clients,
            self.baseline.honest_latency.p99_nanos as f64 / 1e6,
            self.contended.honest_latency.p99_nanos as f64 / 1e6,
            self.p99_degradation,
            self.hostile.overquota_rejected,
            self.hostile.overquota_attempts,
            self.hostile.context_cap_rejections,
            self.hostile.context_churns,
        )
    }

    /// The CI isolation gate: every way the run can fail the claim, with a
    /// readable reason. `max_degradation` bounds contended/baseline honest
    /// p99.
    pub fn gate(&self, max_degradation: f64) -> Result<(), String> {
        if self.baseline.honest_errors > 0 || self.contended.honest_errors > 0 {
            return Err(format!(
                "honest requests failed: {} baseline, {} contended",
                self.baseline.honest_errors, self.contended.honest_errors
            ));
        }
        if self.hostile.overquota_granted > 0 {
            return Err(format!(
                "{} over-quota allocation(s) were granted past the lease",
                self.hostile.overquota_granted
            ));
        }
        if self.hostile.overquota_rejected == 0 {
            return Err("degenerate run: no over-quota attempt was ever rejected".into());
        }
        if self.contended.runtime.quota_rejections == 0 {
            return Err("degenerate run: runtime recorded no quota rejections".into());
        }
        if self.p99_degradation > max_degradation {
            return Err(format!(
                "honest p99 degraded x{:.2} under hostile load (limit x{:.2})",
                self.p99_degradation, max_degradation
            ));
        }
        Ok(())
    }
}

/// One hostile tenant: a tight loop of context churn, context-cap probes,
/// over-quota malloc spam, and greedy within-quota hoarding — no pacing, no
/// kernels, just admission pressure.
fn hostile_loop(tenant: usize, cfg: &IsolationConfig, addr: SocketAddr) -> HostileReport {
    let app = hostile_app(tenant);
    let mut out = HostileReport::default();
    for _ in 0..cfg.hostile_iterations {
        let Some(mut client) = adopt(app, addr, &mut out) else { continue };
        // Probe the context cap: a second thread of this application must
        // be refused while the first holds the single-context lease.
        if let Ok(probe_channel) = fresh_connection(addr) {
            let mut probe = FrontendClient::new(probe_channel);
            match probe.set_application(app) {
                Err(CudaError::QuotaExceeded(_)) => out.context_cap_rejections += 1,
                Err(_) => out.errors += 1,
                Ok(()) => {} // cap is 1; reaching here means the first exit raced ahead
            }
            let _ = probe.exit();
        }
        for _ in 0..OVERQUOTA_PER_ITER {
            out.overquota_attempts += 1;
            match client.malloc(OVERQUOTA_BYTES) {
                Err(CudaError::QuotaExceeded(_)) => out.overquota_rejected += 1,
                Err(_) => out.errors += 1,
                Ok(_) => out.overquota_granted += 1,
            }
        }
        let mut held = Vec::new();
        for _ in 0..SMALL_PER_ITER {
            match client.malloc(SMALL_BYTES) {
                Ok(ptr) => {
                    out.small_allocs_granted += 1;
                    held.push(ptr);
                }
                Err(CudaError::QuotaExceeded(_)) => {}
                Err(_) => out.errors += 1,
            }
        }
        // Free one, abandon the rest: teardown must settle the lease book.
        if let Some(ptr) = held.first() {
            let _ = client.free(*ptr);
        }
        if client.exit().is_ok() {
            out.context_churns += 1;
        } else {
            out.errors += 1;
        }
    }
    out
}

/// A fresh connection adopted into application `app`. Adoption can only
/// bounce off the application's own single-context cap while the previous
/// incarnation is still tearing down (an Exit's reply leaves before its
/// teardown): counted, and tried again on a fresh connection.
fn adopt(
    app: u64,
    addr: SocketAddr,
    out: &mut HostileReport,
) -> Option<FrontendClient<MuxChannel>> {
    for _ in 0..ADOPT_TRIES {
        let Ok(channel) = fresh_connection(addr) else {
            out.errors += 1;
            return None;
        };
        let mut client = FrontendClient::new(channel);
        let capped = match client.set_application(app) {
            Ok(()) => return Some(client),
            Err(e) => matches!(e, CudaError::QuotaExceeded(_)),
        };
        let _ = client.exit();
        if !capped {
            out.errors += 1;
            return None;
        }
        out.context_cap_rejections += 1;
    }
    None
}

/// Runs one pass against a fresh private node with the lease table armed:
/// the honest tenants are the concurrent driver's plain
/// reconnect-per-request closed loop, never calling `cudaSetApplication` —
/// exactly the traffic an uninvolved tenant offers while a neighbour
/// misbehaves — drawing their jobs from the `honest-{i}` streams, with the
/// hostile tenants, if any, started just before them.
fn run_pass(cfg: &IsolationConfig, with_hostile: bool) -> (PassReport, HostileReport) {
    let honest = LoadgenConfig {
        mode: Mode::Closed,
        clients: cfg.honest_clients,
        requests_per_client: cfg.requests_per_client,
        seed: cfg.seed,
        devices: cfg.devices,
        vgpus_per_device: cfg.vgpus_per_device,
        clock_scale: cfg.clock_scale,
        persistent: false,
        connections: 0,
    };
    let hostile_clients = if with_hostile { cfg.hostile_clients } else { 0 };
    let (load, hostile_reports) = run_load_beside(&honest, "honest", Some(cfg.policy()), |addr| {
        (0..hostile_clients)
            .map(|t| {
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("hostile-{t}"))
                    .spawn(move || hostile_loop(t, &cfg, addr))
                    .expect("spawn hostile thread")
            })
            .collect()
    });
    let mut hostile = HostileReport::default();
    for report in &hostile_reports {
        hostile.merge(report);
    }
    (
        PassReport {
            honest_latency: load.latency,
            honest_completed: load.completed,
            honest_errors: load.errors,
            honest_fairness_ratio: load.fairness_ratio,
            runtime: load.runtime,
        },
        hostile,
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the full isolation battery: baseline pass, then the contended
/// pass, and returns the comparison report (not yet written to disk).
pub fn run_isolation(cfg: &IsolationConfig) -> IsolationReport {
    let (baseline, _) = run_pass(cfg, false);
    let (contended, hostile) = run_pass(cfg, true);
    let p50_degradation =
        ratio(contended.honest_latency.p50_nanos, baseline.honest_latency.p50_nanos);
    let p99_degradation =
        ratio(contended.honest_latency.p99_nanos, baseline.honest_latency.p99_nanos);
    IsolationReport {
        honest_clients: cfg.honest_clients,
        hostile_clients: cfg.hostile_clients,
        requests_per_client: cfg.requests_per_client,
        hostile_iterations: cfg.hostile_iterations,
        seed: cfg.seed,
        devices: cfg.devices,
        vgpus_per_device: cfg.vgpus_per_device,
        baseline,
        contended,
        hostile,
        p50_degradation,
        p99_degradation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_workloads::catalog::{self, AppKind};

    #[test]
    fn hostile_battery_smoke() {
        let cfg = IsolationConfig {
            honest_clients: 2,
            hostile_clients: 1,
            requests_per_client: 2,
            hostile_iterations: 4,
            devices: 2,
            ..IsolationConfig::default()
        };
        let report = run_isolation(&cfg);
        // Structural gate only (no latency bound: unit tests race the rest
        // of the suite, so wall-clock ratios are not meaningful here).
        // The honest side is the concurrent driver's loop on the `honest-{i}`
        // rng streams. Pinned from the profile's own loop as it was before
        // PR 24 folded it into the driver: at seed 42 the two tenants draw
        // [Bfs, Va] and [Sp, Bfs], which is 50 launches, all four requests
        // verified, in either pass.
        let draws = |name: &str| {
            let mut rng = mtgpu_simtime::DetRng::from_seed(42).fork(name);
            catalog::draw_kinds(&catalog::short_pool(), 2, &mut rng)
        };
        assert_eq!(draws("honest-0"), [AppKind::Bfs, AppKind::Va]);
        assert_eq!(draws("honest-1"), [AppKind::Sp, AppKind::Bfs]);
        for pass in [&report.baseline, &report.contended] {
            assert_eq!((pass.honest_completed, pass.honest_errors), (4, 0));
            assert_eq!(pass.runtime.launches, 50, "the honest tenants ran other jobs");
        }
        assert_eq!(report.hostile.overquota_granted, 0, "lease was pierced");
        assert_eq!(
            report.hostile.overquota_rejected, report.hostile.overquota_attempts,
            "every over-quota malloc must bounce"
        );
        assert!(report.hostile.overquota_attempts >= 16);
        assert!(report.contended.runtime.quota_rejections > 0, "runtime never said no");
        assert!(report.hostile.context_churns > 0);
        assert_eq!(report.hostile.errors, 0, "hostile saw non-typed failures");
        assert_eq!(report.baseline.runtime.quota_rejections, 0, "baseline must be clean");
        // The JSON artifact is one document carrying the counters exactly.
        let doc = serde_json::from_str(&report.to_json()).expect("one JSON document");
        assert_eq!(doc.get("seed"), Some(&serde::Value::U64(42)));
        assert_eq!(doc.get("hostile"), Some(&report.hostile.to_value()));
        assert!(report.summary_line().contains("hostile"));
        // The gate passes once the latency bound is generous enough to be
        // immune to test-suite scheduling noise.
        report.gate(1e9).unwrap();
    }
}
