//! Open- and closed-loop multi-tenant drivers over the node's reactor.
//!
//! Each tenant is a thread issuing catalog workloads (Table 2, tiny scale)
//! against a freshly started node daemon. Both modes speak the one wire the
//! node has (DESIGN.md §12), over the local socketpairs
//! [`ClusterNode::local_connection`] and [`ClusterNode::mux_pool`] open, since the
//! tenants run in the node's process; they differ in who owns the socket:
//!
//! * **Reconnect** (the default): one fresh connection per request, so
//!   every request walks the whole connection path — adoption, channel and
//!   context creation, dispatch/bind, run, unbind, teardown on hang-up.
//! * **Persistent** ([`LoadgenConfig::persistent`]): tenants share a pool of
//!   long-lived connections; each request opens a fresh *channel* on a
//!   pooled socket, so connection setup/teardown leaves the per-request
//!   path and many tenants share one socket.
//!
//! The hostile profile's rivals model remote peers and dial the node's TCP
//! listener ([`fresh_connection`]).
//!
//! Closed loop issues the next request the moment the previous one finishes
//! (dispatcher saturation); open loop paces requests at an aggregate offered
//! rate and charges queueing delay to latency (the
//! coordinated-omission-free view).

use crate::hist::LatencyHistogram;
use crate::report::{fairness_ratio, per_request, LoadReport, TenantReport};
use mtgpu_api::transport::{MuxChannel, MuxConnection, MuxPool};
use mtgpu_api::{CudaClient, FrontendClient};
use mtgpu_cluster::ClusterNode;
use mtgpu_core::{RuntimeConfig, TenantPolicyConfig};
use mtgpu_gpusim::GpuSpec;
use mtgpu_simtime::{Clock, DetRng};
use mtgpu_workloads::{catalog, register_workload, Workload};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Next request starts as soon as the previous completes.
    Closed,
    /// Requests start on a fixed schedule at this aggregate rate
    /// (requests/second across all tenants); latency includes time spent
    /// waiting behind schedule.
    Open { rate_per_sec: f64 },
}

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    pub mode: Mode,
    /// Concurrent tenants (one thread each; one connection per request
    /// unless `persistent`).
    pub clients: usize,
    pub requests_per_client: usize,
    /// Seed for workload draws and the runtime dispatcher.
    pub seed: u64,
    /// Physical devices on the node.
    pub devices: usize,
    pub vgpus_per_device: u32,
    /// Clock scale for the node (real seconds per simulated second); the
    /// default makes simulated kernel time nearly free so wall latency is
    /// dominated by the runtime's own dispatch path.
    pub clock_scale: f64,
    /// Share persistent pooled connections instead of reconnecting per
    /// request.
    pub persistent: bool,
    /// Pooled connections in persistent mode; 0 = one per client.
    pub connections: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            mode: Mode::Closed,
            clients: 16,
            requests_per_client: 4,
            seed: 42,
            devices: 4,
            vgpus_per_device: 4,
            clock_scale: 1e-7,
            persistent: false,
            connections: 0,
        }
    }
}

impl LoadgenConfig {
    /// The CI smoke configuration: small enough to finish in seconds on a
    /// loaded single-core machine, large enough to exercise contention.
    pub fn quick() -> Self {
        LoadgenConfig { clients: 8, requests_per_client: 2, devices: 2, ..Self::default() }
    }
}

/// How long a finished run waits for the node's last contexts to tear down
/// before it snapshots the runtime counters.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

struct TenantOutcome {
    hist: LatencyHistogram,
    completed: u64,
    errors: u64,
    makespan_nanos: u64,
    /// Round trips on the tenant's own connections (reconnect mode).
    round_trips: u64,
}

/// The one channel of a fresh TCP connection to the node's listener; the
/// socket closes with it.
pub(crate) fn fresh_connection(addr: SocketAddr) -> Result<MuxChannel, String> {
    MuxConnection::connect(addr).map(|conn| conn.channel()).map_err(|e| format!("connect: {e}"))
}

/// One request on `client` (the one channel of a fresh connection in
/// reconnect mode, a fresh channel on a pooled socket in persistent mode):
/// register, run the workload, exit. Pipelined: the request waits only
/// on its downloads, its exit and a full queue (`FrontendClient`).
/// Returns an error string on any failure, including a wrong result.
fn run_request(
    client: FrontendClient<MuxChannel>,
    job: &dyn Workload,
    clock: &Clock,
) -> Result<(), String> {
    let mut client = client.with_pipelining();
    register_workload(&mut client, job).map_err(|e| format!("register: {e}"))?;
    let report = job.run(&mut client, clock).map_err(|e| format!("{}: {e}", job.name()))?;
    client.exit().map_err(|e| format!("exit: {e}"))?;
    if !report.verified {
        return Err(format!("{}: result failed verification", job.name()));
    }
    Ok(())
}

/// One tenant's requests, start to finish. `name` (`"tenant-3"`) labels the
/// rng stream its jobs are drawn from.
fn tenant_loop(
    name: &str,
    tenant: usize,
    cfg: &LoadgenConfig,
    node: &ClusterNode,
    pool: Option<&MuxPool>,
    clock: &Clock,
    t0: Instant,
) -> TenantOutcome {
    let mut rng = DetRng::from_seed(cfg.seed).fork(name);
    let kinds = catalog::draw_kinds(&catalog::short_pool(), cfg.requests_per_client, &mut rng);
    let mut out = TenantOutcome {
        hist: LatencyHistogram::new(),
        completed: 0,
        errors: 0,
        makespan_nanos: 0,
        round_trips: 0,
    };
    for (r, kind) in kinds.into_iter().enumerate() {
        let job = kind.build(mtgpu_workloads::calib::Scale::TINY);
        let started = match cfg.mode {
            // mtlint: allow(wall-clock, reason = "closed-loop latency is measured in real time by design; the deterministic harness lives in det.rs")
            Mode::Closed => Instant::now(),
            Mode::Open { rate_per_sec } => {
                // Global slot schedule, interleaved across tenants.
                let slot = (r * cfg.clients + tenant) as f64 / rate_per_sec;
                let intended = t0 + Duration::from_secs_f64(slot);
                // mtlint: allow(wall-clock, reason = "open-loop arrival schedule paces real wall time against the global slot plan")
                let now = Instant::now();
                if intended > now {
                    // mtlint: allow(thread-sleep, reason = "open-loop pacing sleeps until the next scheduled arrival slot in real time")
                    std::thread::sleep(intended - now);
                }
                intended // latency includes schedule slip
            }
        };
        let result = match pool {
            Some(pool) => run_request(FrontendClient::new(pool.channel()), job.as_ref(), clock),
            None => match node.local_connection() {
                Ok(conn) => {
                    let result =
                        run_request(FrontendClient::new(conn.channel()), job.as_ref(), clock);
                    out.round_trips += conn.round_trips();
                    result
                }
                Err(e) => Err(format!("connect: {e}")),
            },
        };
        match result {
            Ok(()) => {
                out.completed += 1;
                out.hist.record(started.elapsed().as_nanos() as u64);
                out.makespan_nanos = t0.elapsed().as_nanos() as u64;
            }
            Err(_) => out.errors += 1,
        }
    }
    out
}

/// Runs a full load-generation pass against a private node daemon and
/// returns the report (not yet written to disk).
pub fn run_load(cfg: &LoadgenConfig) -> LoadReport {
    run_load_beside(cfg, "tenant", None, |_| Vec::<JoinHandle<()>>::new()).0
}

/// [`run_load`] with company: the tenants' rng streams are `{stream}-{i}`,
/// the node runs under `policy` if given, and `rivals` — handed the node's
/// address before the first tenant starts — may spawn threads that are
/// joined once the tenants are done, before the node is drained. The
/// hostile profile's honest side is this loop and no other.
pub(crate) fn run_load_beside<R>(
    cfg: &LoadgenConfig,
    stream: &str,
    policy: Option<TenantPolicyConfig>,
    rivals: impl FnOnce(SocketAddr) -> Vec<JoinHandle<R>>,
) -> (LoadReport, Vec<R>) {
    mtgpu_workloads::install_kernel_library();
    let clock = Clock::with_scale(cfg.clock_scale);
    let specs = (0..cfg.devices).map(|_| GpuSpec::test_small()).collect();
    let mut rt_cfg =
        RuntimeConfig::paper_default().with_vgpus(cfg.vgpus_per_device).with_seed(cfg.seed);
    rt_cfg.tenant_policy = policy;
    let node = ClusterNode::start("loadgen".into(), clock.clone(), specs, rt_cfg, true);
    let pool = cfg.persistent.then(|| {
        let conns = if cfg.connections == 0 { cfg.clients } else { cfg.connections };
        node.mux_pool(conns).expect("connect mux pool")
    });

    let rivals = rivals(node.mux_addr().expect("listening node"));
    // mtlint: allow(wall-clock, reason = "wall-clock epoch for the load run; throughput/latency are real-time measurements")
    let t0 = Instant::now();
    let outcomes: Vec<TenantOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|tenant| {
                let name = format!("{stream}-{tenant}");
                let (node, pool, clock) = (&node, pool.as_ref(), &clock);
                std::thread::Builder::new()
                    .name(name.clone())
                    .spawn_scoped(s, move || tenant_loop(&name, tenant, cfg, node, pool, clock, t0))
                    .expect("spawn tenant thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread panicked")).collect()
    });
    let wall_nanos = t0.elapsed().as_nanos() as u64;
    let rivals = rivals.into_iter().map(|h| h.join().expect("rival thread panicked")).collect();

    let mut hist = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut tenants = Vec::with_capacity(outcomes.len());
    for (i, o) in outcomes.iter().enumerate() {
        hist.merge(&o.hist);
        completed += o.completed;
        errors += o.errors;
        tenants.push(TenantReport {
            tenant: i,
            completed: o.completed,
            errors: o.errors,
            makespan_nanos: o.makespan_nanos,
        });
    }
    // Closed loop: tenants issue identical demand, so time-to-finish is the
    // fairness basis. Open loop: the schedule fixes start times, so what
    // differs under unfairness is how many requests actually completed.
    let basis: Vec<u64> = match cfg.mode {
        Mode::Closed => tenants.iter().map(|t| t.makespan_nanos).collect(),
        Mode::Open { .. } => tenants.iter().map(|t| t.completed).collect(),
    };
    // An Exit is answered before its context's teardown: let the last ones
    // finish, so the snapshot is the drained node's.
    node.runtime().wait_idle(DRAIN_TIMEOUT);
    let runtime = node.metrics();
    let pooled_conns = pool.as_ref().map_or(0, |p| p.len());
    let round_trips = pool.as_ref().map_or(0, MuxPool::round_trips)
        + outcomes.iter().map(|o| o.round_trips).sum::<u64>();
    drop(pool);
    node.shutdown();

    let report = LoadReport {
        mode: match cfg.mode {
            Mode::Closed => "closed".into(),
            Mode::Open { .. } => "open".into(),
        },
        persistent: cfg.persistent,
        connections: pooled_conns,
        clients: cfg.clients,
        requests_per_client: cfg.requests_per_client,
        seed: cfg.seed,
        devices: cfg.devices,
        vgpus_per_device: cfg.vgpus_per_device,
        offered_rate: match cfg.mode {
            Mode::Closed => 0.0,
            Mode::Open { rate_per_sec } => rate_per_sec,
        },
        wall_nanos,
        virtual_nanos: 0,
        completed,
        errors,
        throughput_rps: if wall_nanos == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / wall_nanos as f64
        },
        latency: hist.summary(),
        fairness_ratio: fairness_ratio(&basis),
        round_trips_per_request: per_request(round_trips, completed + errors),
        tenants,
        runtime,
    };
    (report, rivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_smoke() {
        let cfg = LoadgenConfig {
            clients: 3,
            requests_per_client: 2,
            devices: 2,
            ..LoadgenConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.errors, 0, "{:?}", report.tenants);
        assert_eq!(report.completed, 6);
        assert_eq!(report.latency.count, 6);
        assert!(report.throughput_rps > 0.0);
        assert!(report.fairness_ratio >= 1.0);
        assert!(report.runtime.bindings >= 6, "each request binds at least once");
        assert_eq!(report.runtime.bindings, report.runtime.unbindings, "clean shutdown");
    }

    #[test]
    fn closed_loop_persistent_smoke() {
        let cfg = LoadgenConfig {
            clients: 3,
            requests_per_client: 2,
            devices: 2,
            persistent: true,
            connections: 2,
            ..LoadgenConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.errors, 0, "{:?}", report.tenants);
        assert_eq!(report.completed, 6);
        assert!(report.persistent);
        assert_eq!(report.connections, 2);
        assert!(report.runtime.mux_requests > 0, "requests must ride the mux wire");
        assert_eq!(report.runtime.bindings, report.runtime.unbindings, "clean shutdown");
    }

    #[test]
    fn open_loop_smoke() {
        let cfg = LoadgenConfig {
            mode: Mode::Open { rate_per_sec: 200.0 },
            clients: 2,
            requests_per_client: 2,
            devices: 1,
            ..LoadgenConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.mode, "open");
        assert_eq!(report.completed + report.errors, 4);
        assert_eq!(report.offered_rate, 200.0);
    }
}
