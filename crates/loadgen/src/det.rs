//! Deterministic closed-loop driver: the latency-fingerprint harness.
//!
//! The catalog script on the [`SeqHarness`]: requests issued round-robin
//! across tenants, one in flight at a time, each a fresh context that runs
//! one Table 2 job and exits. Latencies are measured in *virtual*
//! nanoseconds, so the whole latency distribution — and therefore the
//! p50/p99 summary — is a pure function of the seed and is compared
//! bit-for-bit across replays.

use crate::harness::SeqHarness;
use crate::hist::LatencyHistogram;
use crate::report::{fairness_ratio, per_request, LoadReport, TenantReport};
use mtgpu_api::CudaClient;
use mtgpu_core::MetricsSnapshot;
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::DetRng;
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{catalog, register_workload};
use serde::Serialize;

/// Which wire the deterministic driver replays over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetTransport {
    /// In-process clients: each call runs on the driver's own thread.
    Local,
    /// A real multiplexed connection through the reactor, the node's local
    /// socketpair (DESIGN.md §12): every request is a fresh channel on one
    /// persistent socket.
    /// Sequential one-in-flight driving keeps the reactor and worker
    /// threads off the virtual-time axis, so latency fingerprints stay
    /// replayable bit-for-bit.
    Mux,
}

impl DetTransport {
    fn label(self) -> &'static str {
        match self {
            DetTransport::Local => "local",
            DetTransport::Mux => "mux",
        }
    }
}

/// Parameters of a deterministic run.
#[derive(Debug, Clone)]
pub struct DetLoadConfig {
    pub clients: usize,
    pub requests_per_client: usize,
    pub seed: u64,
    pub devices: usize,
    pub vgpus_per_device: u32,
    pub transport: DetTransport,
}

impl Default for DetLoadConfig {
    fn default() -> Self {
        DetLoadConfig {
            clients: 16,
            requests_per_client: 2,
            seed: 42,
            devices: 4,
            vgpus_per_device: 4,
            transport: DetTransport::Local,
        }
    }
}

/// The replay-comparable digest of a deterministic load run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DetLoadFingerprint {
    pub seed: u64,
    /// `"local"` or `"mux"` — the wire the run replayed over.
    pub transport: String,
    pub clients: usize,
    pub requests_per_client: usize,
    pub completed: u64,
    pub errors: u64,
    /// Latency quantiles in virtual nanoseconds.
    pub p50_nanos: u64,
    pub p99_nanos: u64,
    /// Sum of request latencies per tenant, tenant order.
    pub per_tenant_latency_nanos: Vec<u64>,
    /// Virtual nanoseconds from clock epoch to run end.
    pub final_virtual_nanos: u64,
    /// Full runtime counter snapshot.
    pub metrics: MetricsSnapshot,
}

impl DetLoadFingerprint {
    /// Canonical JSON form; byte-identical across replays of one config.
    pub fn canonical(&self) -> String {
        serde_json::to_string(self).expect("fingerprint serializes")
    }
}

/// Runs the deterministic sequential closed loop; two calls with an equal
/// config return equal fingerprints.
pub fn run_det(cfg: &DetLoadConfig) -> (LoadReport, DetLoadFingerprint) {
    mtgpu_workloads::install_kernel_library();
    let specs: Vec<GpuSpec> = (0..cfg.devices).map(|_| GpuSpec::test_small()).collect();
    let harness = SeqHarness::start(
        specs,
        SeqHarness::config(cfg.vgpus_per_device, cfg.seed),
        cfg.transport == DetTransport::Mux,
    );
    let clock = harness.clock();

    // Same per-tenant draw as the concurrent driver: the det harness
    // measures the same workload mix it would race.
    let sequences: Vec<Vec<catalog::AppKind>> = (0..cfg.clients)
        .map(|t| {
            let mut rng = DetRng::from_seed(cfg.seed).fork(&format!("tenant-{t}"));
            catalog::draw_kinds(&catalog::short_pool(), cfg.requests_per_client, &mut rng)
        })
        .collect();

    let mut hist = LatencyHistogram::new();
    let mut tenants: Vec<TenantReport> = (0..cfg.clients)
        .map(|t| TenantReport { tenant: t, completed: 0, errors: 0, makespan_nanos: 0 })
        .collect();
    let mut per_tenant_latency = vec![0u64; cfg.clients];
    // Round-robin across tenants, not tenant-major: interleaving requests
    // is what makes successive tenants contend for the same vGPU slots.
    #[allow(clippy::needless_range_loop)]
    for round in 0..cfg.requests_per_client {
        for tenant in 0..cfg.clients {
            let job = sequences[tenant][round].build(Scale::TINY);
            let t_start = clock.now();
            let mut client = harness.client();
            let ok = (|| -> Result<bool, mtgpu_api::CudaError> {
                register_workload(&mut client, job.as_ref())?;
                let report = job.run(&mut client, clock)?;
                client.exit()?;
                Ok(report.verified)
            })();
            harness.barrier(0);
            let nanos = clock.now().duration_since(t_start).as_nanos();
            match ok {
                Ok(true) => {
                    hist.record(nanos);
                    per_tenant_latency[tenant] += nanos;
                    tenants[tenant].completed += 1;
                    tenants[tenant].makespan_nanos = clock.now().since_epoch().as_nanos();
                }
                _ => tenants[tenant].errors += 1,
            }
        }
    }

    let round_trips = harness.round_trips();
    let (metrics, final_virtual_nanos) = harness.finish();

    let summary = hist.summary();
    let completed: u64 = tenants.iter().map(|t| t.completed).sum();
    let errors: u64 = tenants.iter().map(|t| t.errors).sum();
    let fingerprint = DetLoadFingerprint {
        seed: cfg.seed,
        transport: cfg.transport.label().to_string(),
        clients: cfg.clients,
        requests_per_client: cfg.requests_per_client,
        completed,
        errors,
        p50_nanos: summary.p50_nanos,
        p99_nanos: summary.p99_nanos,
        per_tenant_latency_nanos: per_tenant_latency,
        final_virtual_nanos,
        metrics: metrics.clone(),
    };
    let basis: Vec<u64> = tenants.iter().map(|t| t.makespan_nanos).collect();
    let report = LoadReport {
        mode: "det".into(),
        persistent: cfg.transport == DetTransport::Mux,
        connections: if cfg.transport == DetTransport::Mux { 1 } else { 0 },
        clients: cfg.clients,
        requests_per_client: cfg.requests_per_client,
        seed: cfg.seed,
        devices: cfg.devices,
        vgpus_per_device: cfg.vgpus_per_device,
        offered_rate: 0.0,
        wall_nanos: 0,
        virtual_nanos: final_virtual_nanos,
        completed,
        errors,
        throughput_rps: if final_virtual_nanos == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / final_virtual_nanos as f64
        },
        latency: summary,
        fairness_ratio: fairness_ratio(&basis),
        round_trips_per_request: per_request(round_trips, completed + errors),
        tenants,
        runtime: metrics,
    };
    (report, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_det_run_replays() {
        let cfg = DetLoadConfig {
            clients: 3,
            requests_per_client: 1,
            devices: 2,
            ..DetLoadConfig::default()
        };
        let (report_a, a) = run_det(&cfg);
        let (_, b) = run_det(&cfg);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(report_a.errors, 0);
        assert_eq!(report_a.completed, 3);
        assert!(a.final_virtual_nanos > 0, "virtual time must move");
        assert!(a.p50_nanos > 0);
    }

    /// `loadgen --persistent --virtual-clock --seed 42`, pinned: 4648
    /// requests in 150 round trips. A pipelined catalog job waits only on
    /// its downloads (71), its `Exit` (64) and a full queue (15); a higher
    /// count means a call kind went eager, other requests mean the jobs
    /// changed.
    #[test]
    fn persistent_seed42_run_is_150_round_trips_for_4648_requests() {
        let cfg = DetLoadConfig {
            requests_per_client: 4,
            transport: DetTransport::Mux,
            ..DetLoadConfig::default()
        };
        let (report, fingerprint) = run_det(&cfg);
        assert_eq!((report.completed, report.errors), (64, 0));
        assert_eq!(fingerprint.metrics.mux_requests, 4648);
        assert_eq!(report.round_trips_per_request, 150.0 / 64.0);
    }

    #[test]
    fn tiny_det_mux_run_replays() {
        let cfg = DetLoadConfig {
            clients: 2,
            requests_per_client: 1,
            devices: 1,
            transport: DetTransport::Mux,
            ..DetLoadConfig::default()
        };
        let (report_a, a) = run_det(&cfg);
        let (_, b) = run_det(&cfg);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.transport, "mux");
        assert_eq!(report_a.errors, 0);
        assert_eq!(report_a.completed, 2);
        assert!(report_a.persistent);
        assert!(a.metrics.mux_requests > 0, "requests must flow through the gateway");
    }
}
