//! Load-run reports: the JSON artifact a harness run leaves in `results/`.

use crate::hist::LatencySummary;
use mtgpu_core::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Sentinel fairness ratio reported when some tenant completed nothing
/// (a true ratio would be infinite, which JSON cannot carry).
pub const FAIRNESS_STARVED: f64 = 1e9;

/// Per-tenant outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant index (0-based).
    pub tenant: usize,
    /// Requests that ran to completion with verified results.
    pub completed: u64,
    /// Requests that errored or failed verification.
    pub errors: u64,
    /// Nanoseconds from harness start to this tenant's last completion
    /// (virtual nanoseconds under the deterministic driver).
    pub makespan_nanos: u64,
}

/// The full result of one load-generator run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// `"closed"`, `"open"`, or `"det"` (deterministic sequential).
    pub mode: String,
    /// Whether the run drove persistent multiplexed connections instead of
    /// reconnecting per request.
    pub persistent: bool,
    /// Pooled multiplexed connections used (0 in reconnect mode).
    pub connections: usize,
    pub clients: usize,
    pub requests_per_client: usize,
    pub seed: u64,
    pub devices: usize,
    pub vgpus_per_device: u32,
    /// Open-loop aggregate offered rate (requests/second); zero otherwise.
    pub offered_rate: f64,
    /// Wall-clock nanoseconds for the whole run (zero under the
    /// deterministic driver, where only virtual time is meaningful).
    pub wall_nanos: u64,
    /// Virtual nanoseconds consumed (zero on scaled clocks).
    pub virtual_nanos: u64,
    pub completed: u64,
    pub errors: u64,
    /// Completions per wall-clock second (per virtual second in det mode).
    pub throughput_rps: f64,
    pub latency: LatencySummary,
    /// Max/min across tenants of the fairness basis: makespan for
    /// closed-loop runs (identical per-tenant demand), completed count for
    /// open-loop runs. 1.0 is perfectly fair.
    pub fairness_ratio: f64,
    /// Client round trips on the wire per request issued: one per call
    /// shipped alone and one per pipelined batch. 0 when no call crossed
    /// the wire (the in-process deterministic driver).
    pub round_trips_per_request: f64,
    pub tenants: Vec<TenantReport>,
    pub runtime: MetricsSnapshot,
}

impl LoadReport {
    /// Canonical JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Writes the report under `dir` (created if absent) with a name
    /// derived from the run parameters; returns the path written.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let wire = if self.persistent { "-mux" } else { "" };
        let path = dir.join(format!(
            "loadgen-{}{}-c{}-r{}-seed{}.json",
            self.mode, wire, self.clients, self.requests_per_client, self.seed
        ));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        let wire = if self.persistent {
            format!(" (persistent, {} conns)", self.connections)
        } else {
            String::new()
        };
        format!(
            "{}{} mode: {} clients x {} reqs, {}/{} ok, {:.1} req/s, \
             p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, fairness {:.2}",
            self.mode,
            wire,
            self.clients,
            self.requests_per_client,
            self.completed,
            self.completed + self.errors,
            self.throughput_rps,
            self.latency.p50_nanos as f64 / 1e6,
            self.latency.p95_nanos as f64 / 1e6,
            self.latency.p99_nanos as f64 / 1e6,
            self.fairness_ratio,
        )
    }
}

/// `round_trips` over `requests`, 0 for no requests.
pub(crate) fn per_request(round_trips: u64, requests: u64) -> f64 {
    if requests == 0 {
        0.0
    } else {
        round_trips as f64 / requests as f64
    }
}

/// Max/min ratio over a per-tenant fairness basis. Returns
/// [`FAIRNESS_STARVED`] when any tenant's basis is zero, 1.0 when empty.
pub fn fairness_ratio(basis: &[u64]) -> f64 {
    let (mut min, mut max) = (u64::MAX, 0u64);
    for &v in basis {
        min = min.min(v);
        max = max.max(v);
    }
    if basis.is_empty() {
        1.0
    } else if min == 0 {
        FAIRNESS_STARVED
    } else {
        max as f64 / min as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_ratio_cases() {
        assert_eq!(fairness_ratio(&[]), 1.0);
        assert_eq!(fairness_ratio(&[5, 5, 5]), 1.0);
        assert_eq!(fairness_ratio(&[2, 4]), 2.0);
        assert_eq!(fairness_ratio(&[0, 4]), FAIRNESS_STARVED);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = LoadReport {
            mode: "closed".into(),
            persistent: false,
            connections: 0,
            clients: 4,
            requests_per_client: 2,
            seed: 42,
            devices: 2,
            vgpus_per_device: 4,
            offered_rate: 0.0,
            wall_nanos: 123,
            virtual_nanos: 0,
            completed: 8,
            errors: 0,
            throughput_rps: 64.0,
            latency: LatencySummary::default(),
            fairness_ratio: 1.25,
            round_trips_per_request: 5.5,
            tenants: vec![TenantReport { tenant: 0, completed: 2, errors: 0, makespan_nanos: 9 }],
            runtime: MetricsSnapshot::default(),
        };
        let json = r.to_json();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.to_json(), json);
        assert!(r.summary_line().contains("closed"));
    }
}
