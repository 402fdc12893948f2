//! Deterministic scenario harness: replayable multi-tenant runs on the
//! virtual clock, with scripted fault injection.
//!
//! The figure experiments (`mtgpu-bench`) drive the runtime with one thread
//! per application, so their *wall-clock numbers* are statistical. This
//! script trades concurrency for determinism: on the sequential harness
//! ([`SeqHarness`]: one driver thread, a virtual clock, the monitor ticked
//! by hand) it interleaves per-client CUDA call scripts round-robin, one
//! call in flight at a time. Because the virtual clock only moves when an
//! operation (or the script itself) advances it, and the dispatcher's
//! tie-breaks, workload draws and fault timeline are all pure functions of
//! the scenario seed, two runs of the same [`DetScenario`] produce
//! **bit-for-bit identical** runtime metrics, per-client results and final
//! virtual time — captured as a [`DetFingerprint`] that tests compare as
//! canonical JSON.
//!
//! Faults come from a [`FaultPlan`] polled between steps: device failures
//! and one-shot context faults are applied to the device layer, transport
//! drops are applied here by severing the victim client's channel, exactly
//! what an application crash looks like to the runtime.

use mtgpu_api::{CudaCall, CudaClient, CudaError, HostBuf, ReplyValue};
use mtgpu_core::{GpuLease, MetricsSnapshot, TenantPolicyConfig};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::{
    DeviceAddr, FaultKind, FaultPlan, GpuError, GpuSpec, KernelArg, KernelDesc, LaunchConfig,
    LaunchSpec, Work,
};
use mtgpu_loadgen::SeqHarness;
use mtgpu_simtime::{DetRng, SimDuration};
use serde::Serialize;
use std::sync::Arc;

/// Name of the harness's verification kernel: XORs a scalar into a buffer.
pub const DET_KERNEL: &str = "det_xor";

/// Registers the harness kernel in the process-global library (idempotent).
pub fn register_det_kernels() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain(DET_KERNEL),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let (addr, x, len) = match exec.args() {
                [KernelArg::Ptr(a), KernelArg::Scalar(x), KernelArg::Scalar(len)] => {
                    (*a, *x as u8, *len)
                }
                other => {
                    return Err(GpuError::LaunchFailed(format!("det_xor: bad args {other:?}")))
                }
            };
            exec.with_bytes_mut(addr, len, &mut |bytes| {
                for b in bytes.iter_mut() {
                    *b ^= x;
                }
            })
        })),
    });
}

/// A replayable multi-tenant scenario.
#[derive(Debug)]
pub struct DetScenario {
    /// Root determinism seed: forked into the dispatcher, the per-client
    /// payload/work draws, and nothing else.
    pub seed: u64,
    /// Number of concurrently-served application contexts.
    pub clients: usize,
    /// Kernel rounds per client (each round launches once per buffer).
    pub rounds: usize,
    /// Per-client round-count overrides; client `i` runs
    /// `rounds_per_client[i]` rounds when set, `rounds` otherwise. Uneven
    /// script lengths make clients *exit at different steps* — the churn
    /// that strands long-running contexts on whatever device was free when
    /// they bound.
    pub rounds_per_client: Vec<usize>,
    /// The node's devices.
    pub devices: Vec<GpuSpec>,
    /// vGPUs spawned per device. Must be sized so every client can hold a
    /// binding simultaneously (the single driver thread cannot release a
    /// peer's binding while blocked on a reply).
    pub vgpus_per_device: u32,
    /// Buffers allocated per client.
    pub buffers_per_client: usize,
    /// Declared (accounting) bytes of client 0's buffers; client `i` adds
    /// `i * declared_stride` so resident footprints are pairwise distinct
    /// and inter-application victim selection has no ties.
    pub declared_base: u64,
    /// Per-client declared-size increment.
    pub declared_stride: u64,
    /// Real (materialized) bytes per buffer, verified end to end.
    pub payload_bytes: usize,
    /// Checkpoint each buffer after every round, making device state
    /// host-recoverable (exercises §4.6 against injected device loss).
    pub checkpoint_each_round: bool,
    /// Idle steps between the compute phase and the verify phase. Faults
    /// scheduled into this window hit quiescent, bound contexts.
    pub quiet_steps: usize,
    /// Virtual time added at the top of every step, on top of whatever the
    /// operations themselves consume. Gives [`FaultPlan`] times to land on.
    pub step_advance: SimDuration,
    /// Scripted faults, polled once per step.
    pub plan: FaultPlan,
    /// Per-client application ids: `client_apps[i] = Some(app)` makes
    /// client `i`'s first scripted call `cudaSetApplication(app)`. Shorter
    /// than `clients` means the remainder stay anonymous; empty disables
    /// application identity entirely (the legacy shape).
    pub client_apps: Vec<Option<u64>>,
    /// Tenant-policy layer for the run; `None` keeps admission off, so all
    /// pre-policy scenarios fingerprint exactly as before.
    pub tenant_policy: Option<TenantPolicyConfig>,
    /// Let each `monitor_tick` live-migrate one context off the
    /// highest-pressure device (DESIGN.md §15).
    pub dynamic_load_balancing: bool,
}

impl DetScenario {
    /// A Fig. 7-shaped scenario: three GPUs, threefold context
    /// overcommitment per device memory, short repeated kernels — the
    /// sharing regime where inter-application swapping does the work.
    pub fn fig7_shape(seed: u64) -> Self {
        DetScenario {
            seed,
            clients: 9,
            rounds: 4,
            rounds_per_client: Vec::new(),
            devices: vec![GpuSpec::test_small(), GpuSpec::test_small(), GpuSpec::test_small()],
            vgpus_per_device: 4,
            buffers_per_client: 2,
            declared_base: 10 * 1024 * 1024,
            declared_stride: 256 * 1024,
            payload_bytes: 2048,
            checkpoint_each_round: false,
            quiet_steps: 0,
            step_advance: SimDuration::from_millis(50),
            plan: FaultPlan::new(),
            client_apps: Vec::new(),
            tenant_policy: None,
            dynamic_load_balancing: false,
        }
    }

    /// A Fig. 9-shaped scenario: the unbalanced node — two full devices and
    /// one with less memory and a slower clock.
    pub fn fig9_shape(seed: u64) -> Self {
        let mut small = GpuSpec::test_small();
        small.name = "TestGPU-40M-slow".to_string();
        small.mem_bytes = 40 * 1024 * 1024;
        small.clock_ghz = 0.5;
        DetScenario {
            clients: 8,
            devices: vec![GpuSpec::test_small(), GpuSpec::test_small(), small],
            ..Self::fig7_shape(seed)
        }
    }

    /// A lighter scenario for fault injection: six clients on three
    /// devices, so twelve vGPUs keep every client bindable even after one
    /// device is lost, and a quiet window for faults to land in.
    pub fn fault_shape(seed: u64) -> Self {
        DetScenario { clients: 6, rounds: 2, quiet_steps: 6, ..Self::fig7_shape(seed) }
    }

    /// A churn-skewed node for the live-migration rebalancer: two
    /// full-speed devices and two at quarter clock, one vGPU each. At bind
    /// time the two short-lived clients grab the fast devices (lowest
    /// `(bound+1)/speed` placement cost), so the two long-running clients
    /// are stranded on the slow pair — a placement that is *correct when
    /// made* and wrong two steps later, when the short clients exit. From
    /// then on each `monitor_tick` can live-migrate one stranded context
    /// slow→fast over peer DMA, which is exactly the regime the rebalancer
    /// exists for.
    pub fn migration_shape(seed: u64) -> Self {
        let mut slow = GpuSpec::test_small();
        slow.name = "TestGPU-slow".to_string();
        slow.clock_ghz = 0.25;
        DetScenario {
            clients: 4,
            rounds: 6,
            rounds_per_client: vec![1, 1, 6, 6],
            devices: vec![GpuSpec::test_small(), GpuSpec::test_small(), slow.clone(), slow],
            vgpus_per_device: 1,
            dynamic_load_balancing: true,
            ..Self::fig7_shape(seed)
        }
    }

    /// A quota-pressure scenario for the tenant-policy layer: six clients
    /// across three applications — a high-priority unlimited one, one whose
    /// memory lease is too small for its members' combined footprint
    /// (deterministic `QuotaExceeded` rejections), and one whose 1-second
    /// lease expires mid-run (deterministic reaping, `LeaseExpired` on the
    /// survivors' remaining script). Steps advance 200 ms of virtual time,
    /// so the TTL elapses around step 5 of ~15.
    pub fn quota_shape(seed: u64) -> Self {
        let policy = TenantPolicyConfig::default()
            .with_default_lease(GpuLease::unlimited().with_priority(50))
            .with_tenant_lease(1, GpuLease { mem_mb: 0, max_contexts: 0, ttl_s: 0, priority: 200 })
            .with_tenant_lease(2, GpuLease { mem_mb: 25, max_contexts: 2, ttl_s: 0, priority: 20 })
            .with_tenant_lease(3, GpuLease { mem_mb: 0, max_contexts: 0, ttl_s: 1, priority: 10 });
        DetScenario {
            clients: 6,
            rounds: 3,
            client_apps: vec![Some(1), Some(1), Some(2), Some(2), Some(3), Some(3)],
            tenant_policy: Some(policy),
            step_advance: SimDuration::from_millis(200),
            ..Self::fig7_shape(seed)
        }
    }
}

/// What one client observed, in script order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct ClientOutcome {
    /// Operations that returned `Ok`.
    pub ops_ok: u32,
    /// Operations that returned an error (the context may have been failed
    /// by unrecoverable device loss; later ops keep erroring).
    pub ops_err: u32,
    /// Debug rendering of the first error, if any.
    pub first_error: Option<String>,
    /// The client's transport was severed by a scripted fault.
    pub dropped: bool,
    /// Sum of simulated kernel-execution nanoseconds reported by launches.
    pub launch_nanos: u64,
    /// FNV-1a over every downloaded payload, in download order.
    pub payload_checksum: u64,
    /// Every download matched the host-side model of the buffer.
    pub verified: bool,
}

/// The replay-comparable digest of a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DetFingerprint {
    pub seed: u64,
    /// Virtual nanoseconds elapsed from clock epoch to run end.
    pub final_virtual_nanos: u64,
    /// Full runtime counter snapshot.
    pub metrics: MetricsSnapshot,
    /// Per-client outcomes, client order.
    pub clients: Vec<ClientOutcome>,
}

impl DetFingerprint {
    /// Canonical JSON form; byte-identical across replays of one scenario.
    pub fn canonical(&self) -> String {
        serde_json::to_string(self).expect("fingerprint serializes")
    }
}

/// One scripted CUDA operation.
#[derive(Debug, Clone)]
enum Op {
    SetApplication {
        app: u64,
    },
    Malloc {
        buf: usize,
    },
    Upload {
        buf: usize,
    },
    Launch {
        buf: usize,
        xor: u8,
        flops: f64,
    },
    Checkpoint,
    Download {
        buf: usize,
    },
    Free {
        buf: usize,
    },
    Exit,
    /// No call; the client idles this step.
    Pause,
}

struct BufState {
    addr: Option<DeviceAddr>,
    declared: u64,
    /// Host-side model of the buffer's materialized prefix, updated on
    /// every *successful* launch; downloads must match it exactly.
    model: Vec<u8>,
}

struct ClientState {
    client: Option<Box<dyn CudaClient>>,
    bufs: Vec<BufState>,
    script: Vec<Op>,
    outcome: ClientOutcome,
}

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = if acc == 0 { 0xcbf2_9ce4_8422_2325 } else { acc };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds client `i`'s script and initial buffer contents from the forked
/// per-client random stream.
fn build_client(scenario: &DetScenario, i: usize) -> (Vec<BufState>, Vec<Op>) {
    let mut rng = DetRng::from_seed(scenario.seed).fork(&format!("client-{i}"));
    let bufs: Vec<BufState> = (0..scenario.buffers_per_client)
        .map(|_| {
            let mut model = vec![0u8; scenario.payload_bytes];
            for b in model.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            BufState {
                addr: None,
                declared: scenario.declared_base + i as u64 * scenario.declared_stride,
                model,
            }
        })
        .collect();
    let mut script = Vec::new();
    if let Some(&Some(app)) = scenario.client_apps.get(i) {
        script.push(Op::SetApplication { app });
    }
    for buf in 0..scenario.buffers_per_client {
        script.push(Op::Malloc { buf });
        script.push(Op::Upload { buf });
    }
    let rounds = scenario.rounds_per_client.get(i).copied().unwrap_or(scenario.rounds);
    for _ in 0..rounds {
        for buf in 0..scenario.buffers_per_client {
            script.push(Op::Launch {
                buf,
                xor: rng.next_u64() as u8,
                // 0.1–1.1 GFLOP: ~1–10 ms on the test devices, so rounds
                // spread across virtual time instead of stacking at zero.
                flops: 1e8 + rng.below(1_000_000_000) as f64,
            });
        }
        if scenario.checkpoint_each_round {
            script.push(Op::Checkpoint);
        }
    }
    for _ in 0..scenario.quiet_steps {
        script.push(Op::Pause);
    }
    for buf in 0..scenario.buffers_per_client {
        script.push(Op::Download { buf });
        script.push(Op::Free { buf });
    }
    script.push(Op::Exit);
    (bufs, script)
}

/// Runs the scenario to completion and digests it. Two calls with an equal
/// scenario return equal fingerprints — that property *is* the test.
pub fn run(scenario: DetScenario) -> DetFingerprint {
    register_det_kernels();
    let mut cfg = SeqHarness::config(scenario.vgpus_per_device, scenario.seed);
    cfg.dynamic_load_balancing = scenario.dynamic_load_balancing;
    cfg.tenant_policy = scenario.tenant_policy.clone();
    let harness = SeqHarness::start(scenario.devices.clone(), cfg, false);
    let (clock, rt) = (harness.clock(), harness.runtime());

    let mut states: Vec<ClientState> = Vec::with_capacity(scenario.clients);
    for i in 0..scenario.clients {
        let mut client = harness.client();
        // A context is created with its channel's first call: the immediate
        // roundtrip pins context-id assignment to client order.
        let module = client.register_fat_binary().expect("register module");
        client.register_function(module, KernelDesc::plain(DET_KERNEL)).expect("register kernel");
        let (bufs, script) = build_client(&scenario, i);
        states.push(ClientState {
            client: Some(client),
            bufs,
            script,
            outcome: ClientOutcome { verified: true, ..ClientOutcome::default() },
        });
    }

    let steps = states.iter().map(|s| s.script.len()).max().unwrap_or(0);
    let mut live = scenario.clients;
    let mut plan = scenario.plan;
    for step in 0..steps {
        clock.advance(scenario.step_advance);
        for event in plan.poll(clock.now(), rt.driver()) {
            if let FaultKind::TransportDrop { conn } = event.kind {
                let c = conn as usize;
                if c < states.len() && states[c].client.take().is_some() {
                    states[c].outcome.dropped = true;
                    live -= 1;
                    harness.barrier(live);
                }
            }
        }
        // Synchronous stand-in for the background fault monitor: recovers
        // contexts stranded on devices the plan just failed.
        rt.monitor_tick();
        for state in states.iter_mut() {
            let Some(op) = state.script.get(step).cloned() else { continue };
            if state.client.is_none() {
                continue;
            }
            let exited = matches!(op, Op::Exit);
            match exec_op(state, &op) {
                Ok(()) => state.outcome.ops_ok += 1,
                Err(e) => {
                    state.outcome.ops_err += 1;
                    if state.outcome.first_error.is_none() {
                        state.outcome.first_error = Some(format!("{e:?}"));
                    }
                    if matches!(op, Op::Download { .. }) {
                        state.outcome.verified = false;
                    }
                }
            }
            if exited {
                state.client = None;
                live -= 1;
                harness.barrier(live);
            }
        }
    }
    harness.barrier(live);

    let (metrics, final_virtual_nanos) = harness.finish();
    DetFingerprint {
        seed: scenario.seed,
        final_virtual_nanos,
        metrics,
        clients: states.into_iter().map(|s| s.outcome).collect(),
    }
}

/// Executes one scripted operation against the client's connection.
fn exec_op(state: &mut ClientState, op: &Op) -> Result<(), CudaError> {
    let client = state.client.as_mut().expect("caller checked liveness");
    match *op {
        Op::SetApplication { app } => client.set_application(app),
        Op::Malloc { buf } => {
            let declared = state.bufs[buf].declared;
            state.bufs[buf].addr = Some(client.malloc(declared)?);
            Ok(())
        }
        Op::Upload { buf } => {
            let b = &state.bufs[buf];
            let addr = b.addr.ok_or(CudaError::InvalidValue)?;
            client.memcpy_h2d(addr, HostBuf::with_shadow(b.declared, b.model.clone()))
        }
        Op::Launch { buf, xor, flops } => {
            let b = &state.bufs[buf];
            let addr = b.addr.ok_or(CudaError::InvalidValue)?;
            let spec = LaunchSpec {
                kernel: DET_KERNEL.to_string(),
                config: LaunchConfig::default(),
                args: vec![
                    KernelArg::Ptr(addr),
                    KernelArg::Scalar(xor as u64),
                    KernelArg::Scalar(b.model.len() as u64),
                ],
                work: Work::flops(flops),
            };
            client.call(CudaCall::ConfigureCall { config: spec.config })?;
            match client.call(CudaCall::Launch { spec })? {
                ReplyValue::LaunchDone { sim_nanos } => {
                    state.outcome.launch_nanos += sim_nanos;
                    for byte in state.bufs[buf].model.iter_mut() {
                        *byte ^= xor;
                    }
                    Ok(())
                }
                other => {
                    Err(CudaError::LaunchFailure(format!("unexpected launch reply {other:?}")))
                }
            }
        }
        Op::Checkpoint => client.checkpoint(),
        Op::Download { buf } => {
            let b = &state.bufs[buf];
            let addr = b.addr.ok_or(CudaError::InvalidValue)?;
            let got = client.memcpy_d2h(addr, b.declared)?;
            state.outcome.payload_checksum = fnv1a(state.outcome.payload_checksum, &got.payload);
            if got.payload != state.bufs[buf].model {
                state.outcome.verified = false;
            }
            Ok(())
        }
        Op::Free { buf } => {
            let addr = state.bufs[buf].addr.take().ok_or(CudaError::InvalidValue)?;
            client.free(addr)
        }
        Op::Exit => client.exit(),
        Op::Pause => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_replays() {
        let mk = || DetScenario { clients: 2, rounds: 1, ..DetScenario::fig7_shape(7) };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.clients.iter().all(|c| c.verified));
        assert!(a.metrics.launches >= 4);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv1a(fnv1a(0, b"ab"), b"c"), fnv1a(fnv1a(0, b"c"), b"ab"));
    }
}
