//! The node runtime: the daemon that owns the connection manager (the
//! gateway, [`crate::mux`], for wire connections; an in-process client is
//! its own, [`crate::service::InProcessChannel`]), dispatcher, virtual
//! GPUs, memory manager and monitors (Figure 3).

use crate::config::RuntimeConfig;
use crate::ctx::{AppContext, CtxId, VGpuId};
use crate::memory::MemoryManager;
use crate::metrics::{DeviceUtilization, MetricsSnapshot, RuntimeMetrics};
use crate::monitor;
use crate::mux::{self, Gateway, RelayedChannel};
use crate::policy::LeaseBook;
use crate::sched::BindingManager;
use crate::service::InProcessChannel;
use crate::trace::{TraceEvent, Tracer};
use mtgpu_api::transport::{FrontendClient, MuxChannel, MuxConnection};
use mtgpu_api::Transport;
use mtgpu_gpusim::{DeviceId, Driver, GpuSpec};
use mtgpu_simtime::{lock_rank, Clock, RankedCondvar, RankedMutex, Shadow};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A point-in-time description of the node's load, exposed to cluster-level
/// schedulers (§2: "the node-level runtime may expose some information to
/// the cluster-level scheduler").
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LoadInfo {
    /// Connected application threads.
    pub contexts: usize,
    /// Contexts waiting for a vGPU.
    pub waiting: usize,
    /// Contexts currently bound to a vGPU.
    pub bound: usize,
    /// vGPUs across healthy devices.
    pub total_vgpus: usize,
}

/// The per-node runtime daemon (Figure 3): replicated on every node of the
/// cluster, it intercepts the CUDA call streams of all local applications
/// and schedules them over the node's GPUs.
pub struct NodeRuntime {
    /// For the threads the runtime starts on its own behalf (relays).
    me: Weak<NodeRuntime>,
    cfg: RuntimeConfig,
    driver: Arc<Driver>,
    clock: Clock,
    mm: MemoryManager,
    bm: BindingManager,
    metrics: Arc<RuntimeMetrics>,
    registry: RankedMutex<HashMap<CtxId, Arc<AppContext>>>,
    /// Signalled, on the registry's mutex, each time a context leaves it.
    departed: RankedCondvar,
    next_ctx: AtomicU64,
    shutdown: AtomicBool,
    /// Every wire connection's channels and the work queue the pool serves
    /// them from.
    gateway: Gateway,
    /// The gateway's workers and the §4.7 relay threads.
    handlers: RankedMutex<Vec<JoinHandle<()>>>,
    monitor: RankedMutex<Option<JoinHandle<()>>>,
    offload_rr: AtomicU64,
    /// Monitor passes begun: names the pass that made an [`crate::ctx::Ask`].
    monitor_passes: AtomicU64,
    /// Local-service slots remaining before new connections are offloaded
    /// (§4.7: "we allow the dispatcher to process pending connections only
    /// if the number of pending contexts is below a given threshold").
    /// `i64::MAX` when offloading is disabled.
    local_slots: std::sync::atomic::AtomicI64,
    tracer: Arc<Tracer>,
    /// Tenant leases + admission control (no-op when the policy layer is
    /// not configured).
    policy: LeaseBook,
    /// Serializes live migrations ([`Self::migrate_ctx`]): one context's
    /// PTE rewrite at a time per node.
    /// Migration turnstile; carries a shadowed migration-sequence counter
    /// so mtcheck audits turnstile discipline on the migration path.
    migration: RankedMutex<Shadow<u64>>,
}

impl NodeRuntime {
    /// Starts the runtime: spawns the configured vGPUs on every attached
    /// device and the health/migration monitor. In-process clients need
    /// nothing more; the wire, and the gateway's worker pool behind it,
    /// start with [`Self::serve`].
    ///
    /// # Panics
    /// Panics if a vGPU's persistent CUDA context cannot be created (a
    /// misconfiguration: more vGPUs than the device supports contexts).
    pub fn start(driver: Arc<Driver>, cfg: RuntimeConfig) -> Arc<NodeRuntime> {
        let metrics = Arc::new(RuntimeMetrics::default());
        let clock = driver.clock().clone();
        let tracer = Arc::new(Tracer::new(clock.clone(), cfg.trace_capacity));
        let mm = MemoryManager::new(cfg.memory.clone(), Arc::clone(&metrics))
            .with_tracer(Arc::clone(&tracer))
            .with_clock(clock.clone());
        let bm = BindingManager::new_seeded(cfg.scheduler, Arc::clone(&metrics), cfg.seed);
        let local_slots = match (cfg.offload_threshold, cfg.offload_peers.is_empty()) {
            (Some(t), false) => t as i64,
            _ => i64::MAX,
        };
        let policy = LeaseBook::new(cfg.tenant_policy.clone());
        let rt = Arc::new_cyclic(|me| NodeRuntime {
            me: me.clone(),
            cfg,
            clock,
            mm,
            bm,
            metrics,
            registry: RankedMutex::new(lock_rank::RT_REGISTRY, HashMap::new()),
            departed: RankedCondvar::new(),
            next_ctx: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            gateway: Gateway::new(),
            handlers: RankedMutex::new(lock_rank::RT_HANDLERS, Vec::new()),
            monitor: RankedMutex::new(lock_rank::RT_MONITOR, None),
            offload_rr: AtomicU64::new(0),
            monitor_passes: AtomicU64::new(0),
            local_slots: std::sync::atomic::AtomicI64::new(local_slots),
            tracer,
            policy,
            migration: RankedMutex::new(
                lock_rank::MIGRATION,
                Shadow::new("migrate.turnstile.seq", 0),
            ),
            driver,
        });
        for (id, gpu) in rt.driver.devices() {
            rt.bm
                .add_device(id, gpu, rt.cfg.vgpus_per_device)
                .unwrap_or_else(|e| panic!("cannot spawn vGPUs on {id}: {e:?}"));
        }
        if rt.cfg.background_monitor {
            let monitor_rt = Arc::clone(&rt);
            *rt.monitor.lock() = Some(
                std::thread::Builder::new()
                    .name("mtgpu-monitor".into())
                    .spawn(move || monitor::run(monitor_rt))
                    .expect("spawn monitor thread"),
            );
        }
        rt
    }

    /// Runs one monitor pass synchronously: lease reaping, fault recovery,
    /// idle co-tenants offered to the launches that wait for room, then (if
    /// enabled) a load-balancing step. The background monitor
    /// thread calls this on its cadence; deterministic harnesses configure
    /// `background_monitor = false` and call it at chosen points so
    /// recovery and migration land at reproducible schedule positions.
    pub fn monitor_tick(&self) {
        self.monitor_passes.fetch_add(1, Ordering::SeqCst);
        monitor::reap_expired_leases(self);
        monitor::recover_failed_devices(self);
        monitor::offer_idle_victims(self);
        if self.cfg.dynamic_load_balancing {
            monitor::rebalance_once(self);
        }
        self.observe_lock_contention();
    }

    /// Drains the ranked locks' contention counters into the
    /// `lock_contention_events` metric and the trace. The counters only
    /// ever advance in debug builds (release compiles the probe out) and
    /// only under concurrent load, so sequential deterministic harnesses
    /// observe zero and replay fingerprints are unaffected.
    fn observe_lock_contention(&self) {
        let sources = [
            ("MM_TABLE+MM_STATE", self.mm.take_lock_contention()),
            ("SCHED", self.bm.take_lock_contention()),
        ];
        for (name, count) in sources {
            if count > 0 {
                RuntimeMetrics::add(&self.metrics.lock_contention_events, count);
                self.tracer.record(TraceEvent::LockContention { lock: name.to_string(), count });
            }
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The simulation clock shared with the devices.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The device driver this runtime schedules over.
    pub fn driver(&self) -> &Arc<Driver> {
        &self.driver
    }

    /// The memory manager (public for diagnostics and fault batteries:
    /// `flags_of`, `resident_bytes`, `device_swap_traffic`).
    pub fn memory(&self) -> &MemoryManager {
        &self.mm
    }

    /// The migration turnstile ([`crate::migrate`]).
    pub(crate) fn migration_turnstile(&self) -> &RankedMutex<Shadow<u64>> {
        &self.migration
    }

    /// Where a context is currently bound, if anywhere (diagnostics).
    pub fn binding_of(&self, id: CtxId) -> Option<VGpuId> {
        self.context(id).and_then(|c| c.binding()).map(|b| b.vgpu)
    }

    /// The binding manager.
    pub(crate) fn bindings(&self) -> &BindingManager {
        &self.bm
    }

    /// The gateway's state.
    pub(crate) fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// A handle on this runtime for something that may outlive it.
    pub(crate) fn me(&self) -> Weak<NodeRuntime> {
        self.me.clone()
    }

    /// Metric counters.
    pub(crate) fn metrics_ref(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The runtime's event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The tenant-policy lease book (admission control, TTLs, priorities).
    pub fn policy(&self) -> &LeaseBook {
        &self.policy
    }

    /// A snapshot of the traced events, oldest first.
    pub fn trace(&self) -> Vec<crate::trace::TraceRecord> {
        self.tracer.events()
    }

    /// Snapshot of the runtime counters, including per-device utilization
    /// samples in device-id order (the rebalancer's pressure signals —
    /// resident bytes, swap traffic, bound contexts, queue depth).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.per_device = self
            .bm
            .device_views()
            .into_iter()
            .map(|view| {
                let resident_bytes =
                    view.bound.iter().map(|&c| self.mm.resident_bytes(c)).sum::<u64>();
                let (swap_in_bytes, swap_out_bytes) = self.mm.device_swap_traffic(view.id);
                DeviceUtilization {
                    device: view.id,
                    resident_bytes,
                    swap_in_bytes,
                    swap_out_bytes,
                    bound_contexts: view.bound.len() as u32,
                    queue_depth: view.gpu.compute_queue_depth(),
                }
            })
            .collect();
        snap
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Current load, for cluster-level scheduling and offload decisions.
    pub fn load(&self) -> LoadInfo {
        // Its own statement: the registry guard must be gone before the
        // dispatcher's (lower-ranked) locks are taken below.
        let contexts = self.registry.lock().len();
        LoadInfo {
            contexts,
            waiting: self.bm.waiting_count(),
            bound: self.bm.bound_count(),
            total_vgpus: self.bm.total_vgpus(),
        }
    }

    /// Runs `serve` on a thread of its own, joined at shutdown.
    pub(crate) fn spawn_handler(
        self: &Arc<Self>,
        name: &str,
        serve: impl FnOnce(&Arc<NodeRuntime>) + Send + 'static,
    ) {
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(&rt))
            .expect("spawn runtime thread");
        let mut handlers = self.handlers.lock();
        handlers.retain(|h| !h.is_finished());
        handlers.push(handle);
    }

    /// Hands a stream this node declined to keep (its first call `first`
    /// already read, [`Self::try_keep_local`] already failed) to a relay
    /// thread of its own: the connect to the peer and the stream's whole
    /// lifetime stay off the caller's thread — the gateway calls this from
    /// the reactor, and a pool worker per relayed stream would let two
    /// nodes offloading to each other exhaust both pools.
    pub(crate) fn offload(
        &self,
        ctx: Arc<AppContext>,
        chan: RelayedChannel,
        first: mtgpu_api::CudaCall,
    ) {
        let me = self.me.upgrade().expect("a runtime serving calls is alive");
        me.spawn_handler("mtgpu-relay", move |rt| mux::run_relay(rt, ctx, chan, first));
    }

    /// The number of the monitor pass under way, or last made.
    pub(crate) fn monitor_pass(&self) -> u64 {
        self.monitor_passes.load(Ordering::SeqCst)
    }

    /// Whether §4.7 offloading is configured (a threshold and a peer to
    /// send to); when not, every connection is served here unconditionally.
    pub(crate) fn offloads(&self) -> bool {
        self.cfg.offload_threshold.is_some() && !self.cfg.offload_peers.is_empty()
    }

    /// Tries to claim a local-service slot for a new connection; `false`
    /// means the node is at its threshold and the connection should be
    /// offloaded (§4.7).
    pub(crate) fn try_keep_local(&self) -> bool {
        self.local_slots
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| (v > 0).then(|| v - 1))
            .is_ok()
    }

    /// Returns a previously claimed local-service slot.
    pub(crate) fn release_local_slot(&self) {
        self.local_slots.fetch_add(1, Ordering::SeqCst);
    }

    /// Forces a slot claim for a connection that must be served locally
    /// (offloaded-in, or no peer reachable).
    pub(crate) fn force_keep_local(&self) {
        self.local_slots.fetch_sub(1, Ordering::SeqCst);
    }

    /// Dials a peer node's endpoint for context `ctx`'s stream, over a
    /// connection of its own: closing it when the stream ends — Exit or a
    /// vanished client — is what tears the peer's context down. Peers are
    /// tried once each, starting at the round-robin index, and one counts
    /// as reached when it has answered the marker that tells it never to
    /// re-offload the stream — a peer that accepts the connect and hangs up
    /// (shutting down, wedged, shedding) is skipped like one that refuses
    /// it. `None` if no peer is reached: the stream is served here.
    pub(crate) fn dial_peer(&self, ctx: CtxId) -> Option<MuxChannel> {
        let peers = &self.cfg.offload_peers;
        let start = self.offload_rr.fetch_add(1, Ordering::Relaxed) as usize;
        let (peer, transport) =
            (0..peers.len()).map(|i| &peers[(start + i) % peers.len()]).find_map(|peer| {
                // The connection's one channel; the socket closes when it drops.
                let mut transport = MuxConnection::connect(peer.as_str()).ok()?.channel();
                transport.roundtrip(mtgpu_api::CudaCall::Offloaded).ok().map(|_| (peer, transport))
            })?;
        RuntimeMetrics::bump(&self.metrics.offloaded_connections);
        self.tracer.record(TraceEvent::Offloaded { ctx, peer: peer.clone() });
        Some(transport)
    }

    /// Creates an in-process client connected to this runtime — the
    /// equivalent of an application thread linking the interposition
    /// library on this node. It runs its calls on the calling thread, past
    /// the gateway; dropping the client tears its context down.
    pub fn local_client(self: &Arc<Self>) -> FrontendClient<InProcessChannel> {
        FrontendClient::new(InProcessChannel { rt: Arc::clone(self), ctx: None })
    }

    /// Hot-attaches a device (dynamic upgrade, §2): registers it with the
    /// driver and spawns vGPUs; waiting contexts bind to it immediately.
    pub fn attach_device(&self, spec: GpuSpec) -> DeviceId {
        let id = self.driver.attach(spec);
        let gpu = self.driver.device(id).expect("just attached");
        if let Err(e) = self.bm.add_device(id, gpu, self.cfg.vgpus_per_device) {
            panic!("cannot spawn vGPUs on hot-attached {id}: {e:?}");
        }
        id
    }

    /// Hot-detaches a device (dynamic downgrade, §2). Contexts bound to it
    /// are recovered by the fault monitor exactly as for a failure; waiting
    /// contexts belong to no device and bind wherever a vGPU frees up next.
    pub fn detach_device(&self, id: DeviceId) {
        let _ = self.driver.detach(id);
    }

    /// Registers a new application context (one per connection).
    pub(crate) fn new_context(&self, label: String) -> Arc<AppContext> {
        let id = CtxId(self.next_ctx.fetch_add(1, Ordering::Relaxed));
        let ctx = AppContext::new(id, id.0, label.clone());
        self.mm.register_ctx(id);
        self.policy.register_ctx(id, self.clock.now());
        self.registry.lock().insert(id, Arc::clone(&ctx));
        self.tracer.record(TraceEvent::ContextCreated { ctx: id, label });
        ctx
    }

    /// Looks up a context.
    pub(crate) fn context(&self, id: CtxId) -> Option<Arc<AppContext>> {
        self.registry.lock().get(&id).cloned()
    }

    /// Unregisters a finished context.
    pub(crate) fn drop_context(&self, id: CtxId) {
        self.policy.release_ctx(id);
        self.tracer.record(TraceEvent::ContextFinished { ctx: id });
        // Last: whoever waits for the count sees everything above done.
        self.registry.lock().remove(&id);
        // mtlint: allow(notify-all, reason = "waiters wait for different counts: each must look at the new one")
        self.departed.notify_all();
    }

    /// Number of live application contexts (channels not yet torn down):
    /// a context leaves the count exactly when its teardown — memory
    /// release, vGPU release — has completed.
    pub fn context_count(&self) -> usize {
        self.registry.lock().len()
    }

    /// Blocks until at most `n` contexts are live or `timeout` passes;
    /// `true` if the count got there. An `Exit` is answered before its
    /// context's teardown, so this is the barrier between "the client
    /// heard back" and "the node let go": deterministic harnesses wait here
    /// after every exit and severed transport, concurrent ones before they
    /// snapshot the counters. Woken by `drop_context`, no polling.
    pub fn wait_contexts(&self, n: usize, timeout: Duration) -> bool {
        // mtlint: allow(wall-clock, reason = "real-time liveness bound on a wait for real worker threads; no replayed quantity derives from it")
        let deadline = Instant::now() + timeout;
        let mut registry = self.registry.lock();
        while registry.len() > n {
            if self.departed.wait_until(&mut registry, deadline).timed_out() {
                break;
            }
        }
        registry.len() <= n
    }

    /// Blocks until every connection has drained or `timeout` passes.
    /// Returns `true` if the runtime went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.wait_contexts(0, timeout)
    }

    /// Requests shutdown and joins the monitor, the worker pool and the
    /// relay threads. An in-process client's call made afterwards, or
    /// waiting for a vGPU meanwhile, answers `Disconnected`; its context
    /// goes when the client is dropped. Whoever holds the handle of the
    /// reactor [`Self::serve`] started stops it first.
    ///
    /// Not optional: the monitor and the pool hold the runtime, so one that
    /// is started and never shut down stays, threads and all, until the
    /// process ends.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.bm.close();
        if let Some(m) = self.monitor.lock().take() {
            m.thread().unpark();
            let _ = m.join();
        }
        mux::stop(self);
        let handlers = std::mem::take(&mut *self.handlers.lock());
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("devices", &self.driver.device_count())
            .field("contexts", &self.registry.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::teardown;

    fn runtime() -> Arc<NodeRuntime> {
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
        NodeRuntime::start(driver, RuntimeConfig::default().with_background_monitor(false))
    }

    #[test]
    fn shutdown_does_not_wait_out_the_monitors_nap() {
        // A millisecond after the start the monitor has made its first pass
        // and is 1 ms into a 5 ms nap. Timing, so the quickest of a few
        // tries is read: a join that sits the nap out never gets under ~4 ms.
        let quickest = (0..8)
            .map(|_| {
                let clock = Clock::with_scale(1e-7);
                let driver = Driver::with_devices(clock, vec![GpuSpec::test_small()]);
                let rt = NodeRuntime::start(driver, RuntimeConfig::default());
                assert!(rt.config().background_monitor);
                std::thread::sleep(Duration::from_millis(1));
                let t0 = Instant::now();
                rt.shutdown();
                t0.elapsed()
            })
            .min()
            .expect("eight tries");
        assert!(quickest < Duration::from_millis(2), "quickest shutdown took {quickest:?}");
    }

    #[test]
    fn barrier_returns_at_once_when_the_count_is_already_met() {
        let rt = runtime();
        let ctx = rt.new_context("stays".into());
        let t0 = Instant::now();
        assert!(rt.wait_contexts(1, Duration::from_secs(60)));
        assert!(rt.wait_contexts(4, Duration::ZERO));
        assert!(t0.elapsed() < Duration::from_secs(10), "waited with nothing to wait for");
        teardown(&rt, &ctx);
        assert!(rt.wait_idle(Duration::ZERO));
        rt.shutdown();
    }

    #[test]
    fn barrier_is_woken_by_departures_on_another_thread() {
        let rt = runtime();
        let (a, b) = (rt.new_context("a".into()), rt.new_context("b".into()));
        let (about_to_wait, go) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = Instant::now();
                about_to_wait.send(()).unwrap();
                // A minute: only a wake-up, not the deadline, ends this in time.
                (rt.wait_contexts(0, Duration::from_secs(60)), t0.elapsed())
            });
            go.recv().unwrap();
            // The first departure leaves one context: the waiter looks and
            // waits on. Parked or not yet, either order must end `true`.
            teardown(&rt, &a);
            teardown(&rt, &b);
            let (drained, took) = waiter.join().unwrap();
            assert!(drained);
            assert!(took < Duration::from_secs(20), "slept out the deadline: {took:?}");
        });
        rt.shutdown();
    }

    #[test]
    fn barrier_gives_up_at_the_timeout_and_wait_idle_reports_the_straggler() {
        let rt = runtime();
        let (a, b) = (rt.new_context("a".into()), rt.new_context("never drains".into()));
        let t0 = Instant::now();
        assert!(!rt.wait_contexts(1, Duration::from_millis(20)));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        teardown(&rt, &a);
        assert!(rt.wait_contexts(1, Duration::ZERO));
        assert!(!rt.wait_idle(Duration::from_millis(20)), "a live context is not idle");
        assert_eq!(rt.context_count(), 1);
        teardown(&rt, &b);
        rt.shutdown();
    }
}
