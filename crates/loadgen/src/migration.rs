//! Skewed-placement migration benchmark: static placement against dynamic
//! load balancing, on a virtual clock.
//!
//! The scenario reproduces the regime the rebalancer exists for —
//! *placement gone stale through churn*, not static imbalance (the
//! dispatcher's cost function already handles that at admission):
//!
//! * 4 devices, 1 vGPU each: two full-speed, two slowed to
//!   `slow_clock_ratio` of full clock;
//! * short-lived tenants arrive first and claim the fast devices, so the
//!   long-lived tenants that follow are pushed to the slow ones — a
//!   placement that is *correct when made*;
//! * the short tenants exit after one job, stranding the long tenants on
//!   slow silicon with idle fast devices next door.
//!
//! The static pass plays the mix with load balancing off; the rebalanced
//! pass turns it on and ticks the monitor between rounds, live-migrating
//! the stranded contexts. Both passes run the identical seeded job
//! sequence on the [`SeqHarness`] (one request in flight, virtual clock), so
//! throughput (jobs per virtual second) and latency quantiles (virtual
//! nanoseconds) are pure functions of the seed — the speedup ratio is
//! replayable bit-for-bit.

use crate::harness::SeqHarness;
use crate::hist::LatencyHistogram;
use mtgpu_api::CudaClient;
use mtgpu_gpusim::GpuSpec;
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{catalog, register_workload};
use serde::Serialize;

/// Parameters of the skewed migration scenario.
#[derive(Debug, Clone)]
pub struct MigrationLoadConfig {
    pub seed: u64,
    /// Tenants that run one job and exit (they claim the fast devices).
    pub short_tenants: usize,
    /// Tenants that run `long_rounds` jobs (they start on slow devices).
    pub long_tenants: usize,
    pub long_rounds: usize,
    /// Slow-device clock as a fraction of the fast clock.
    pub slow_clock_ratio: f64,
}

impl Default for MigrationLoadConfig {
    fn default() -> Self {
        MigrationLoadConfig {
            seed: 42,
            short_tenants: 2,
            long_tenants: 2,
            long_rounds: 6,
            slow_clock_ratio: 0.25,
        }
    }
}

/// One pass (static or rebalanced) of the skewed mix.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationPassReport {
    pub label: String,
    pub completed: u64,
    pub errors: u64,
    /// Completed jobs per *virtual* second.
    pub throughput_jps: f64,
    pub p50_nanos: u64,
    pub p99_nanos: u64,
    pub final_virtual_nanos: u64,
    pub live_migrations: u64,
    pub rebalance_migrations: u64,
    pub migration_p2p_bytes: u64,
    pub migration_failures: u64,
}

/// Both passes plus the derived gate inputs.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationBenchReport {
    pub seed: u64,
    pub static_pass: MigrationPassReport,
    pub rebalanced_pass: MigrationPassReport,
    /// Rebalanced throughput / static throughput.
    pub speedup: f64,
    /// Rebalanced p99 / static p99 (must stay ≤ 1.0).
    pub p99_ratio: f64,
}

impl MigrationBenchReport {
    /// The payoff gate: rebalancing must buy ≥ `min_speedup` throughput at
    /// no p99 cost, and the rebalanced pass must actually have migrated.
    pub fn gate(&self, min_speedup: f64) -> Result<(), String> {
        if self.static_pass.errors + self.rebalanced_pass.errors > 0 {
            return Err("a pass had failed jobs; the ratio means nothing".into());
        }
        if self.rebalanced_pass.live_migrations == 0 {
            return Err("rebalanced pass never migrated — the knob did nothing".into());
        }
        if self.rebalanced_pass.migration_failures > 0 {
            return Err(format!(
                "{} migration(s) aborted mid-flight",
                self.rebalanced_pass.migration_failures
            ));
        }
        if self.speedup < min_speedup {
            return Err(format!("speedup {:.2}x below the {min_speedup:.2}x gate", self.speedup));
        }
        if self.p99_ratio > 1.0 {
            return Err(format!("p99 regressed: ratio {:.3} > 1.0", self.p99_ratio));
        }
        Ok(())
    }
}

fn run_pass(cfg: &MigrationLoadConfig, rebalance: bool) -> MigrationPassReport {
    mtgpu_workloads::install_kernel_library();
    let fast = GpuSpec::test_small();
    let mut slow = GpuSpec::test_small();
    slow.name = "TestGPU-slow".to_string();
    slow.clock_ghz *= cfg.slow_clock_ratio;
    // As many fast devices as short tenants, as many slow as long tenants:
    // admission fills the fast ones first, so the long tenants land slow.
    let mut specs: Vec<GpuSpec> = Vec::new();
    specs.extend(std::iter::repeat_with(|| fast.clone()).take(cfg.short_tenants));
    specs.extend(std::iter::repeat_with(|| slow.clone()).take(cfg.long_tenants));
    let mut rt_cfg = SeqHarness::config(1, cfg.seed);
    rt_cfg.dynamic_load_balancing = rebalance;
    let harness = SeqHarness::start(specs, rt_cfg, false);
    let clock = harness.clock();

    let tenants = cfg.short_tenants + cfg.long_tenants;
    let rounds: Vec<usize> =
        (0..tenants).map(|t| if t < cfg.short_tenants { 1 } else { cfg.long_rounds }).collect();
    // Compute-bound jobs: device clock speed is what the migration buys
    // back, so the mix must be dominated by kernel time, not PCIe time.
    let kind = catalog::AppKind::MmS;

    // Short tenants connect first and claim the fast devices (the
    // dispatcher prefers them while slots are free); long tenants follow.
    let mut clients: Vec<Option<_>> = (0..tenants)
        .map(|_| {
            let mut c = harness.client();
            // Immediate roundtrip pins context-id assignment to tenant order.
            let job = kind.build(Scale::TINY);
            register_workload(&mut c, job.as_ref()).expect("register workload");
            Some(c)
        })
        .collect();

    let mut hist = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut live = tenants;
    for round in 0..cfg.long_rounds.max(1) {
        // Synchronous stand-in for the background monitor: with the
        // rebalancer on, this is where stranded contexts live-migrate.
        harness.runtime().monitor_tick();
        for t in 0..tenants {
            if round >= rounds[t] {
                continue;
            }
            let Some(client) = clients[t].as_mut() else { continue };
            let job = kind.build(Scale::TINY);
            let t0 = clock.now();
            let ok = (|| -> Result<bool, mtgpu_api::CudaError> {
                register_workload(client, job.as_ref())?;
                Ok(job.run(client, clock)?.verified)
            })();
            match ok {
                Ok(true) => {
                    hist.record(clock.now().duration_since(t0).as_nanos());
                    completed += 1;
                }
                _ => errors += 1,
            }
        }
        // Exits happen at the round boundary, not mid-round: a short tenant
        // must still *hold* its fast slot while the tenants after it bind,
        // or the churn the bench exists to exercise never happens.
        for t in 0..tenants {
            if round + 1 == rounds[t] {
                if let Some(mut client) = clients[t].take() {
                    let _ = client.exit();
                    drop(client);
                    live -= 1;
                    harness.barrier(live);
                }
            }
        }
    }
    harness.barrier(0);

    let (metrics, final_virtual_nanos) = harness.finish();
    let summary = hist.summary();
    MigrationPassReport {
        label: if rebalance { "rebalanced" } else { "static" }.to_string(),
        completed,
        errors,
        throughput_jps: if final_virtual_nanos == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / final_virtual_nanos as f64
        },
        p50_nanos: summary.p50_nanos,
        p99_nanos: summary.p99_nanos,
        final_virtual_nanos,
        live_migrations: metrics.live_migrations,
        rebalance_migrations: metrics.rebalance_migrations,
        migration_p2p_bytes: metrics.migration_p2p_bytes,
        migration_failures: metrics.migration_failures,
    }
}

/// Runs the skewed mix twice — rebalancer off, then on — and reports the
/// throughput speedup and tail ratio.
pub fn run_migration_load(cfg: &MigrationLoadConfig) -> MigrationBenchReport {
    let static_pass = run_pass(cfg, false);
    let rebalanced_pass = run_pass(cfg, true);
    let speedup = if static_pass.throughput_jps == 0.0 {
        0.0
    } else {
        rebalanced_pass.throughput_jps / static_pass.throughput_jps
    };
    let p99_ratio = if static_pass.p99_nanos == 0 {
        f64::INFINITY
    } else {
        rebalanced_pass.p99_nanos as f64 / static_pass.p99_nanos as f64
    };
    MigrationBenchReport { seed: cfg.seed, static_pass, rebalanced_pass, speedup, p99_ratio }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_mix_rebalances_and_replays() {
        let cfg = MigrationLoadConfig { long_rounds: 4, ..MigrationLoadConfig::default() };
        let a = run_migration_load(&cfg);
        assert_eq!(a.static_pass.errors, 0);
        assert_eq!(a.rebalanced_pass.errors, 0);
        assert_eq!(a.static_pass.live_migrations, 0, "static pass must not migrate");
        assert!(a.rebalanced_pass.live_migrations > 0, "rebalancer never migrated");
        assert!(a.speedup > 1.0, "rebalancing did not pay: {:.3}x", a.speedup);
        // Virtual clock: the whole report is a pure function of the seed.
        let b = run_migration_load(&cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "migration bench must replay bit-for-bit"
        );
    }
}
