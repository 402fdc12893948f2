//! Virtual-GPU slots and the binding manager (§4.3–§4.4).
//!
//! A *virtual GPU* is a share of a physical device with its own persistent
//! CUDA context, created at system startup ("virtual-GPUs are statically
//! bound to physical GPUs through a `cudaSetDevice` invoked at system
//! startup", §4.4). Each vGPU services one application context at a time;
//! limiting the vGPU count caps the contexts the CUDA runtime must sustain,
//! which is how the runtime stays stable under hundreds of applications.
//!
//! The [`BindingManager`] is the dispatcher's scheduling core: it tracks
//! free vGPUs per device, queues contexts that cannot bind (the paper's
//! *waiting contexts* list), and grants bindings according to the
//! configured [`SchedulerPolicy`] — FCFS round-robin with vGPU-count load
//! balancing (the policy of §5), shortest-job-first, or credit-based.
//!
//! # Waiters are queue entries
//!
//! A context that cannot bind at once ([`BindingManager::poll`]) leaves an
//! *entry* in a queue ([`BindingManager::enqueue`]): its FCFS ticket, SJF
//! key, memory footprint, application id, and a *wake*. The dispatcher
//! takes the entry out of its queue exactly once — granted a vGPU by a
//! drain, or told to place again (device removed, a nudge toward a slot
//! elsewhere) — writes the outcome into the context
//! ([`crate::ctx::BindWait`]) and runs the wake; the owner then polls
//! again. No waiter owns a thread or a timer: the gateway's wake puts the
//! waiting channel back on the work queue, and blocking
//! [`BindingManager::acquire`] is the same entry with a wake that notifies
//! a condition variable. [`BindingManager::cancel`] withdraws a context at
//! teardown and hands back a grant that raced it; [`BindingManager::kick`]
//! wakes a queued owner early (its lease was reaped). An entry whose wake
//! could never be followed by a launch — the context cancelled or failed —
//! is not queued at all: its wake runs at once.
//!
//! # Sharded dispatch
//!
//! State is sharded **per device**: each [`Shard`] owns its vGPU slots and
//! its own wait queue behind a private mutex, so a bind or release on
//! device A never contends with device B. Wakeups are **targeted**: a grant
//! wakes exactly the granted entry, never every waiter (the seed
//! implementation's global `notify_all` cost O(W²) per release; its last
//! measured throughput is in EXPERIMENTS.md, *Retired baselines*).
//!
//! Placement still sees a consistent cross-device view: each shard
//! maintains lock-free `free`/`bound` hint counters, and placement
//! snapshots them (plus device health, speed and free memory) without
//! taking any shard lock. The snapshot is *bounded-stale* without a timer:
//! an entry re-checks the hints right after it is queued (a slot freed
//! elsewhere between snapshot and enqueue either shows in that re-check or
//! its release saw the entry counted in `total_waiting`), a release whose
//! device still has free slots *nudges* one entry queued elsewhere to place
//! again, a nudge spent on a context that is then cancelled is passed on,
//! and every topology change reroutes the entries it strands.
//!
//! # Determinism
//!
//! Under the `det` harness clients are driven sequentially, so every
//! placement decision observes quiescent hint counters and the grant
//! sequence is a pure function of the seed and arrival order: shards live
//! in a `BTreeMap` and are always drained/nudged in ascending device-id
//! order, and tie-breaks draw from one seeded [`DetRng`] stream.

use crate::config::SchedulerPolicy;
use crate::ctx::{AppContext, BindWait, Binding, CtxId, VGpuId};
use crate::metrics::RuntimeMetrics;
use mtgpu_gpusim::{DeviceId, Gpu, GpuContextId};
use mtgpu_simtime::{lock_rank, DetRng, RankedCondvar, RankedMutex, RankedRwLock, Shadow};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One virtual GPU slot.
#[derive(Clone)]
pub struct VGpu {
    pub id: VGpuId,
    pub gpu: Arc<Gpu>,
    /// The vGPU's persistent CUDA context.
    pub gpu_ctx: GpuContextId,
}

/// Read-only snapshot of one device's scheduling state.
#[derive(Debug, Clone)]
pub struct DeviceView {
    pub id: DeviceId,
    pub gpu: Arc<Gpu>,
    pub total_vgpus: usize,
    pub free_vgpus: usize,
    pub bound: Vec<CtxId>,
    pub effective_flops: f64,
    pub mem_available: u64,
}

/// Errors adding a device's vGPUs.
#[derive(Debug)]
pub enum AddDeviceError {
    /// Creating a vGPU's persistent context failed (device dead or full).
    ContextCreation(mtgpu_gpusim::GpuError),
}

/// What a queued entry's owner is told with: run once, right after the
/// entry's outcome is written into its context. Usually called with the
/// entry's queue locked, so it must not block or call back into the manager.
pub type Wake = Box<dyn FnOnce() + Send>;

/// One queued request for a vGPU.
struct Waiter {
    ctx: Arc<AppContext>,
    /// FIFO ticket (the context's, kept across re-placements).
    enq_seq: u64,
    /// Declared work of the launch that needs the binding (SJF key).
    pending_work: f64,
    /// CUDA 4.0 application id (§4.8): constrains placement to the device
    /// already hosting the application's other threads.
    app_id: Option<u64>,
    wake: Wake,
}

struct ShardState {
    vgpus: Vec<VGpu>,
    /// Free vGPU slot indices. Shadowed so mtcheck's happens-before
    /// detector audits every read/write against the shard lock.
    free: Shadow<Vec<u32>>,
    /// Ordered by vGPU index so every walk over the bound set is
    /// deterministic without a defensive sort at each consumer.
    bound: BTreeMap<u32, (CtxId, Option<u64>)>,
    /// Entries queued on this device, unordered; policy order is computed
    /// per drain.
    queue: Vec<Waiter>,
    /// Set when the device is removed; queued waiters are rerouted and the
    /// shard does not grant again.
    defunct: bool,
}

/// Per-device scheduling state: slots + wait queue behind a private lock,
/// plus lock-free hint counters for cross-device placement snapshots.
struct Shard {
    device: DeviceId,
    gpu: Arc<Gpu>,
    vgpu_count: usize,
    /// Mirrors `state.free.len()` (updated under the shard lock, read
    /// without it by placement).
    free_hint: AtomicUsize,
    /// Mirrors `state.bound.len()`.
    bound_hint: AtomicUsize,
    state: RankedMutex<ShardState>,
}

/// Placement-relevant state shared across shards: the tie-break source and
/// the CUDA 4.0 application affinity map. A small leaf lock, never held
/// while parking.
struct GlobalState {
    /// Tie-break generator, forked off the runtime's determinism seed.
    rng: DetRng,
    /// CUDA 4.0 application → (device, bound thread count) affinity map.
    app_devices: HashMap<u64, (DeviceId, usize)>,
}

/// Lock-free placement snapshot of one shard.
struct DevSnap {
    shard: Arc<Shard>,
    free: usize,
    bound: usize,
    flops: f64,
    fits: bool,
}

/// The dispatcher's binding/scheduling core (sharded; see module docs).
pub struct BindingManager {
    policy: SchedulerPolicy,
    metrics: Arc<RuntimeMetrics>,
    /// Ordered so every cross-shard walk (drain nudges, views, specs) is
    /// deterministic.
    shards: RankedRwLock<BTreeMap<DeviceId, Arc<Shard>>>,
    global: RankedMutex<GlobalState>,
    next_seq: AtomicU64,
    /// Entries currently queued anywhere (shard queues + lobby).
    total_waiting: AtomicUsize,
    /// Entries queued while no device is placeable at all; `add_device`
    /// and `notify_all` reroute them.
    lobby: RankedMutex<Vec<Waiter>>,
}

impl BindingManager {
    /// Creates an empty manager on seed 0.
    pub fn new(policy: SchedulerPolicy, metrics: Arc<RuntimeMetrics>) -> Self {
        Self::new_seeded(policy, metrics, 0)
    }

    /// Creates an empty manager. Placement tie-breaks draw from a
    /// [`DetRng`] forked off `seed` on `"sched"`, so the grant sequence is a
    /// pure function of the seed and the arrival order.
    pub fn new_seeded(policy: SchedulerPolicy, metrics: Arc<RuntimeMetrics>, seed: u64) -> Self {
        BindingManager {
            policy,
            metrics,
            shards: RankedRwLock::new(lock_rank::SHARD_MAP, BTreeMap::new()),
            global: RankedMutex::new(
                lock_rank::SCHED_GLOBAL,
                GlobalState {
                    rng: DetRng::from_seed(seed).fork("sched"),
                    app_devices: HashMap::new(),
                },
            ),
            next_seq: AtomicU64::new(0),
            total_waiting: AtomicUsize::new(0),
            lobby: RankedMutex::new(lock_rank::SCHED_LOBBY, Vec::new()),
        }
    }

    /// Registers a device and spawns `count` vGPUs on it, creating each
    /// vGPU's persistent CUDA context.
    pub fn add_device(
        &self,
        id: DeviceId,
        gpu: Arc<Gpu>,
        count: u32,
    ) -> Result<(), AddDeviceError> {
        let mut vgpus = Vec::with_capacity(count as usize);
        for index in 0..count {
            let gpu_ctx = gpu.create_context().map_err(AddDeviceError::ContextCreation)?;
            vgpus.push(VGpu { id: VGpuId { device: id, index }, gpu: Arc::clone(&gpu), gpu_ctx });
        }
        let shard = Arc::new(Shard {
            device: id,
            gpu,
            vgpu_count: count as usize,
            free_hint: AtomicUsize::new(count as usize),
            bound_hint: AtomicUsize::new(0),
            state: RankedMutex::new(
                lock_rank::SHARD_STATE,
                ShardState {
                    vgpus,
                    free: Shadow::new("sched.shard.free", (0..count).collect()),
                    bound: BTreeMap::new(),
                    queue: Vec::new(),
                    defunct: false,
                },
            ),
        });
        self.shards.write().insert(id, shard);
        // Lobby entries place again, and entries queued on full devices are
        // pulled onto the fresh slots.
        self.reroute_all(&mut self.lobby.lock());
        for _ in 0..count {
            if self.total_waiting.load(Ordering::SeqCst) == 0 {
                break;
            }
            self.nudge(Some(id));
        }
        Ok(())
    }

    /// Removes a device (failure or hot detach), returning the contexts
    /// that were bound to it. Their device state must be recovered by the
    /// caller via the memory manager. Queued waiters are rerouted to other
    /// devices.
    pub fn remove_device(&self, id: DeviceId) -> Vec<CtxId> {
        let Some(shard) = self.shards.write().remove(&id) else { return Vec::new() };
        let mut st = shard.state.lock();
        st.defunct = true;
        {
            let mut g = self.global.lock();
            for (_, app) in st.bound.values() {
                if let Some(app) = app {
                    Self::app_release(&mut g.app_devices, *app);
                }
            }
        }
        let mut affected: Vec<CtxId> = st.bound.values().map(|&(c, _)| c).collect();
        // vGPU-index order in; recovery wants context-id order.
        affected.sort_unstable();
        st.bound.clear();
        st.free.clear();
        shard.free_hint.store(0, Ordering::SeqCst);
        shard.bound_hint.store(0, Ordering::Relaxed);
        RuntimeMetrics::add(&self.metrics.waiter_reroutes, st.queue.len() as u64);
        self.reroute_all(&mut st.queue);
        affected
    }

    fn app_release(map: &mut HashMap<u64, (DeviceId, usize)>, app: u64) {
        if let Some((_, count)) = map.get_mut(&app) {
            *count -= 1;
            if *count == 0 {
                map.remove(&app);
            }
        }
    }

    /// Whether a device is registered.
    pub fn has_device(&self, id: DeviceId) -> bool {
        self.shards.read().contains_key(&id)
    }

    /// The non-blocking request: the grant a queued entry of `ctx` was given
    /// meanwhile, or — nothing pending — a free vGPU with nobody queued
    /// ahead, taken without allocating an entry or reading a clock. `None`
    /// means wait: [`Self::enqueue`], and poll again when woken. The granted
    /// binding is written into the context's metadata by the caller.
    pub fn poll(&self, ctx: &Arc<AppContext>, mem_usage: u64) -> Option<Binding> {
        let (app_id, ticketed) = {
            let mut inner = ctx.inner();
            match std::mem::take(&mut inner.bind_wait) {
                BindWait::Granted(binding) => {
                    inner.wait_ticket = None;
                    return Some(binding);
                }
                BindWait::Idle | BindWait::Reroute => {}
                pending => {
                    inner.bind_wait = pending;
                    return None;
                }
            }
            (inner.app_id, inner.wait_ticket.is_some())
        };
        loop {
            let shard = self.placement_target(app_id, mem_usage, true)?;
            let mut st = shard.state.lock();
            if st.defunct {
                continue;
            }
            // Someone queued ahead, or the hint was stale: the policy
            // decides, through the queue.
            if !st.queue.is_empty() || st.free.is_empty() || shard.gpu.is_failed() {
                return None;
            }
            if !self.commit_affinity(app_id, shard.device) {
                // A sibling bound elsewhere between placement and now.
                continue;
            }
            let binding = Self::grant_slot(&shard, &mut st, ctx.id, app_id);
            drop(st);
            if ticketed || self.policy == SchedulerPolicy::CreditBased {
                let mut inner = ctx.inner();
                inner.wait_ticket = None;
                if self.policy == SchedulerPolicy::CreditBased {
                    // Sole candidate with exhausted credits refills, as in
                    // a drain where every candidate is at zero.
                    if inner.credits == 0 {
                        inner.credits = 4;
                    }
                    inner.credits -= 1;
                }
            }
            RuntimeMetrics::bump(&self.metrics.bindings);
            return Some(binding);
        }
    }

    /// Queues a request of `ctx` after [`Self::poll`] found nothing: the
    /// entry goes to the shard placement picks (or the lobby while no
    /// device is placeable) under the context's FCFS ticket, and `wake`
    /// runs once, when the entry is granted a vGPU or has to place again —
    /// possibly before this returns. A context that will not launch again
    /// (cancelled, or failed) is not queued: its wake runs at once, so its
    /// owner looks again and finds out.
    pub fn enqueue(&self, ctx: &Arc<AppContext>, pending_work: f64, mem_usage: u64, wake: Wake) {
        let (enq_seq, app_id) = {
            let mut inner = ctx.inner();
            let ticket = inner
                .wait_ticket
                .get_or_insert_with(|| self.next_seq.fetch_add(1, Ordering::Relaxed));
            (*ticket, inner.app_id)
        };
        let mut entry = Waiter { ctx: Arc::clone(ctx), enq_seq, pending_work, app_id, wake };
        // Enqueue, then re-check: placement read the hints before the entry
        // counted in `total_waiting`, so a release in between nudged nobody.
        // What it freed shows in the hints now (both sides are SeqCst: the
        // release bumps its hint, then reads the count; this bumps the
        // count, then reads the hints), and the entry moves toward it.
        loop {
            let Some(shard) = self.placement_target(app_id, mem_usage, false) else {
                let mut lobby = self.lobby.lock();
                if !self.push_entry(&mut lobby, entry) {
                    return;
                }
                drop(lobby);
                if !self.shards.read().values().any(|s| !s.gpu.is_failed()) {
                    return;
                }
                // A device appeared between the failed placement and the push.
                let pulled = self.pull_entry(&mut self.lobby.lock(), ctx.id, BindWait::Idle);
                match pulled {
                    Some(back) => entry = back,
                    None => return,
                }
                continue;
            };
            let mut st = shard.state.lock();
            if st.defunct {
                continue;
            }
            if !self.push_entry(&mut st.queue, entry) {
                return;
            }
            self.drain_shard(&shard, &mut st);
            drop(st);
            // Move only toward an actual free slot elsewhere; otherwise stay
            // put (keeps local order, no ping-pong between full shards).
            match self.placement_target(app_id, mem_usage, true) {
                Some(target) if target.device != shard.device => {}
                _ => return,
            }
            let pulled = self.pull_entry(&mut shard.state.lock().queue, ctx.id, BindWait::Idle);
            match pulled {
                Some(back) => entry = back,
                // Granted or rerouted meanwhile: the wake has run.
                None => return,
            }
        }
    }

    /// Queues `entry` (caller holds the queue's lock), or — its context was
    /// cancelled or has failed, so no grant would ever be used — wakes its
    /// owner instead.
    fn push_entry(&self, queue: &mut Vec<Waiter>, entry: Waiter) -> bool {
        {
            let mut inner = entry.ctx.inner();
            if matches!(inner.bind_wait, BindWait::Closed) || inner.failed.is_some() {
                drop(inner);
                (entry.wake)();
                return false;
            }
            debug_assert!(
                !matches!(inner.bind_wait, BindWait::Queued),
                "{} queued twice",
                entry.ctx.id
            );
            inner.bind_wait = BindWait::Queued;
        }
        queue.push(entry);
        self.total_waiting.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Takes `ctx`'s entry back out of `queue` (caller holds its lock),
    /// leaving the context in `state`; `None` if it is not queued there.
    /// The entry's wake does not run.
    fn pull_entry(&self, queue: &mut Vec<Waiter>, ctx: CtxId, state: BindWait) -> Option<Waiter> {
        let pos = queue.iter().position(|w| w.ctx.id == ctx)?;
        let entry = queue.remove(pos);
        self.total_waiting.fetch_sub(1, Ordering::SeqCst);
        entry.ctx.inner().bind_wait = state;
        Some(entry)
    }

    /// Writes the outcome of an entry that has just left its queue (caller
    /// holds that queue's lock) into its context and wakes the owner.
    fn resolve(&self, entry: Waiter, outcome: BindWait) {
        self.total_waiting.fetch_sub(1, Ordering::SeqCst);
        entry.ctx.inner().bind_wait = outcome;
        (entry.wake)();
    }

    /// Sends every entry of `queue` (caller holds its lock) back to place
    /// again.
    fn reroute_all(&self, queue: &mut Vec<Waiter>) {
        for entry in queue.drain(..) {
            self.resolve(entry, BindWait::Reroute);
        }
    }

    /// Blocks until a vGPU is granted to `ctx` (per policy) or `timeout`
    /// expires: [`Self::poll`], and when that finds nothing, the same queue
    /// entry everyone waits in, with a wake that notifies this thread. The
    /// granted binding is written into the context's metadata by the caller.
    pub fn acquire(
        &self,
        ctx: &Arc<AppContext>,
        pending_work: f64,
        mem_usage: u64,
        timeout: Duration,
    ) -> Option<Binding> {
        if let Some(binding) = self.poll(ctx, mem_usage) {
            return Some(binding);
        }
        // mtlint: allow(wall-clock, reason = "acquisition timeout is a real-time liveness bound on a parked OS thread, not simulated time; the serving path never blocks here and det harnesses never wait")
        let deadline = Instant::now() + timeout;
        let woken = Arc::new(RankedCondvar::new());
        loop {
            let wake = Arc::clone(&woken);
            self.enqueue(ctx, pending_work, mem_usage, Box::new(move || wake.notify_one()));
            let mut inner = ctx.inner();
            while matches!(inner.bind_wait, BindWait::Queued) {
                if woken.wait_until(&mut inner, deadline).timed_out() {
                    drop(inner);
                    // A grant at the buzzer is still taken.
                    return self.withdraw(ctx, false);
                }
            }
            if matches!(inner.bind_wait, BindWait::Closed) || inner.failed.is_some() {
                return None;
            }
            drop(inner);
            // Granted: taken here. Rerouted: one more look at the fast path
            // before queueing again.
            if let Some(binding) = self.poll(ctx, mem_usage) {
                return Some(binding);
            }
        }
    }

    /// Withdraws `ctx` from the dispatcher for good (teardown, when nobody
    /// is left to tell): its entry leaves whatever queue it is in without
    /// its wake running, and nothing queues or binds the context again. A
    /// grant that raced the withdrawal comes back for the caller to
    /// [`Self::release`].
    pub fn cancel(&self, ctx: &Arc<AppContext>) -> Option<Binding> {
        self.withdraw(ctx, true)
    }

    /// Takes `ctx`'s entry out of whatever queue it is in and runs its wake,
    /// so its owner looks again now instead of at a grant (lease reaping:
    /// the look finds the context failed). A grant already given comes back
    /// for the caller to [`Self::release`].
    pub fn kick(&self, ctx: &Arc<AppContext>) -> Option<Binding> {
        self.withdraw(ctx, false)
    }

    /// Takes `ctx` out of the dispatcher: for good and in silence when
    /// `close` is set, else waking the owner of the entry it pulls.
    fn withdraw(&self, ctx: &Arc<AppContext>, close: bool) -> Option<Binding> {
        let settled = || if close { BindWait::Closed } else { BindWait::Idle };
        loop {
            {
                let mut inner = ctx.inner();
                match std::mem::replace(&mut inner.bind_wait, settled()) {
                    BindWait::Granted(binding) => {
                        inner.wait_ticket = None;
                        return Some(binding);
                    }
                    BindWait::Reroute => {
                        drop(inner);
                        // A nudge was spent on this context: pass it on, or
                        // the slot it pointed at idles while others wait.
                        if self.total_waiting.load(Ordering::SeqCst) > 0 {
                            self.nudge(None);
                        }
                        return None;
                    }
                    // The entry has to leave its queue first.
                    BindWait::Queued => inner.bind_wait = BindWait::Queued,
                    BindWait::Closed => {
                        inner.bind_wait = BindWait::Closed;
                        return None;
                    }
                    BindWait::Idle => return None,
                }
            }
            let shards: Vec<Arc<Shard>> = self.shards.read().values().map(Arc::clone).collect();
            let pulled = shards
                .iter()
                .find_map(|s| self.pull_entry(&mut s.state.lock().queue, ctx.id, settled()))
                .or_else(|| self.pull_entry(&mut self.lobby.lock(), ctx.id, settled()));
            if let Some(entry) = pulled {
                if !close {
                    (entry.wake)();
                }
                return None;
            }
            // In no queue: a grant or reroute took the entry between the
            // two looks, and the outcome is in the context by now.
        }
    }

    /// Chooses the shard for a placement: the CUDA 4.0 affinity device if
    /// the application already has one, else the seed heuristic over a
    /// lock-free snapshot — lowest capability-weighted load first
    /// (`(bound+1) / relative speed`, the §2 principle of "maximizing the
    /// overall processor utilization while favoring the use of more
    /// powerful cores"), preferring devices whose free memory fits,
    /// seeded-rng tiebreak within a 5% load band.
    ///
    /// With `require_free`, only devices with a free vGPU are considered
    /// (the fast path and the re-check after queueing); otherwise full
    /// devices are acceptable queueing targets and `None` means no healthy
    /// device exists.
    fn placement_target(
        &self,
        app_id: Option<u64>,
        mem_usage: u64,
        require_free: bool,
    ) -> Option<Arc<Shard>> {
        if let Some(app) = app_id {
            let aff = self.global.lock().app_devices.get(&app).map(|&(d, _)| d);
            if let Some(dev) = aff {
                // The application's device, full or not: threads of a
                // CUDA 4.0 app wait rather than split (§4.8).
                if let Some(s) = self.shards.read().get(&dev) {
                    let usable = !require_free || s.free_hint.load(Ordering::SeqCst) > 0;
                    return usable.then(|| Arc::clone(s));
                }
                // Device removed entirely: drop the stale affinity so the
                // app can regroup elsewhere.
                self.global.lock().app_devices.remove(&app);
            }
        }
        let snaps: Vec<DevSnap> = {
            let shards = self.shards.read();
            shards
                .values()
                .filter(|s| !s.gpu.is_failed())
                .map(|s| DevSnap {
                    shard: Arc::clone(s),
                    free: s.free_hint.load(Ordering::SeqCst),
                    bound: s.bound_hint.load(Ordering::Relaxed),
                    flops: s.gpu.spec().effective_flops(),
                    fits: s.gpu.mem_available() >= mem_usage,
                })
                .collect()
        };
        let with_free: Vec<&DevSnap> = snaps.iter().filter(|s| s.free > 0).collect();
        let pool: Vec<&DevSnap> = if !with_free.is_empty() {
            with_free
        } else if require_free {
            return None;
        } else {
            snaps.iter().collect()
        };
        if pool.is_empty() {
            return None;
        }
        let draw = self.global.lock().rng.next_u64() as usize;
        let max_flops = pool.iter().map(|s| s.flops).fold(f64::MIN, f64::max);
        let keyed: Vec<(&DevSnap, f64)> = pool
            .into_iter()
            .map(|s| {
                let speed = s.flops / max_flops;
                let load = (s.bound + 1) as f64 / speed;
                (s, load)
            })
            .collect();
        let min_load = keyed.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
        // Among near-equal loads (within 5%), prefer memory fit, then draw.
        let tied: Vec<&DevSnap> = {
            let close: Vec<&(&DevSnap, f64)> =
                keyed.iter().filter(|&&(_, l)| l <= min_load * 1.05).collect();
            let any_fits = close.iter().any(|&&(s, _)| s.fits);
            close.into_iter().filter(|&&(s, _)| s.fits == any_fits).map(|&(s, _)| s).collect()
        };
        Some(Arc::clone(&tied[draw % tied.len()].shard))
    }

    /// Commits (or re-checks) the CUDA 4.0 affinity of `app_id` to `dev`
    /// at grant time; `false` means the application bound elsewhere in the
    /// meantime and the caller must re-place.
    fn commit_affinity(&self, app_id: Option<u64>, dev: DeviceId) -> bool {
        let Some(app) = app_id else { return true };
        let mut g = self.global.lock();
        match g.app_devices.get(&app) {
            Some(&(d, _)) if d != dev => false,
            _ => {
                g.app_devices.entry(app).or_insert((dev, 0)).1 += 1;
                true
            }
        }
    }

    /// Takes a free slot on the shard (lock held) and records the binding.
    fn grant_slot(
        shard: &Shard,
        st: &mut ShardState,
        ctx_id: CtxId,
        app_id: Option<u64>,
    ) -> Binding {
        let vgpu_idx = st.free.pop().expect("grant without free slot");
        let vgpu = st.vgpus[vgpu_idx as usize].clone();
        st.bound.insert(vgpu_idx, (ctx_id, app_id));
        shard.free_hint.fetch_sub(1, Ordering::SeqCst);
        shard.bound_hint.fetch_add(1, Ordering::Relaxed);
        Binding { vgpu: vgpu.id, gpu: vgpu.gpu, gpu_ctx: vgpu.gpu_ctx }
    }

    /// Grants free vGPUs to this shard's queue in policy order until slots
    /// or placeable waiters run out, waking exactly the granted waiters.
    /// Caller holds the shard lock. An entry whose CUDA 4.0 application
    /// meanwhile acquired affinity to a *different* device is rerouted;
    /// other waiters are not blocked behind it.
    fn drain_shard(&self, shard: &Shard, st: &mut ShardState) {
        if st.defunct || shard.gpu.is_failed() {
            return;
        }
        while !st.free.is_empty() && !st.queue.is_empty() {
            // First candidate in policy order (the queue is non-empty, so
            // there always is one).
            let idx = self.ordered_local(st)[0];
            let w = st.queue.remove(idx);
            if !self.commit_affinity(w.app_id, shard.device) {
                self.resolve(w, BindWait::Reroute);
                RuntimeMetrics::bump(&self.metrics.waiter_reroutes);
                continue;
            }
            let binding = Self::grant_slot(shard, st, w.ctx.id, w.app_id);
            if self.policy == SchedulerPolicy::CreditBased {
                let mut inner = w.ctx.inner();
                inner.credits = inner.credits.saturating_sub(1);
            }
            self.resolve(w, BindWait::Granted(binding));
            RuntimeMetrics::bump(&self.metrics.bindings);
            RuntimeMetrics::bump(&self.metrics.targeted_wakeups);
        }
    }

    /// This shard's queue indices in policy order.
    fn ordered_local(&self, st: &mut ShardState) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..st.queue.len()).collect();
        match self.policy {
            SchedulerPolicy::FcfsRoundRobin => {
                candidates.sort_by_key(|&i| st.queue[i].enq_seq);
            }
            SchedulerPolicy::ShortestJobFirst => {
                candidates.sort_by(|&a, &b| {
                    st.queue[a]
                        .pending_work
                        .total_cmp(&st.queue[b].pending_work)
                        .then(st.queue[a].enq_seq.cmp(&st.queue[b].enq_seq))
                });
            }
            SchedulerPolicy::CreditBased => {
                if !candidates.is_empty()
                    && candidates.iter().all(|&i| st.queue[i].ctx.inner().credits == 0)
                {
                    for &i in &candidates {
                        st.queue[i].ctx.inner().credits = 4;
                    }
                }
                candidates.sort_by_key(|&i| {
                    (u32::MAX - st.queue[i].ctx.inner().credits, st.queue[i].enq_seq)
                });
            }
        }
        candidates
    }

    /// Reroutes one policy-best waiter parked on some *other* shard so it
    /// can re-place (toward a device that just gained a free slot). Walks
    /// shards in device-id order; skips CUDA 4.0 affinity waiters, whose
    /// placement is pinned.
    fn nudge(&self, exclude: Option<DeviceId>) {
        let shards: Vec<Arc<Shard>> = self
            .shards
            .read()
            .iter()
            .filter(|(id, _)| Some(**id) != exclude)
            .map(|(_, s)| Arc::clone(s))
            .collect();
        for shard in shards {
            let mut st = shard.state.lock();
            let Some(idx) =
                self.ordered_local(&mut st).into_iter().find(|&i| st.queue[i].app_id.is_none())
            else {
                continue;
            };
            let w = st.queue.remove(idx);
            self.resolve(w, BindWait::Reroute);
            drop(st);
            RuntimeMetrics::bump(&self.metrics.waiter_reroutes);
            return;
        }
    }

    /// Releases the vGPU bound to `ctx_id`. Safe to call from the owner
    /// handler, a swapper or the fault path. Only this device's shard is
    /// locked; the next waiter (if any) gets a targeted wakeup.
    pub fn release(&self, ctx_id: CtxId, vgpu: VGpuId) {
        let shard = self.shards.read().get(&vgpu.device).map(Arc::clone);
        if let Some(shard) = shard {
            let mut free_left = 0;
            {
                let mut st = shard.state.lock();
                if !st.defunct {
                    let owner_ok = st.bound.get(&vgpu.index).is_some_and(|&(o, _)| o == ctx_id);
                    if owner_ok {
                        let (_, app) = st.bound.remove(&vgpu.index).expect("checked above");
                        st.free.push(vgpu.index);
                        shard.free_hint.fetch_add(1, Ordering::SeqCst);
                        shard.bound_hint.fetch_sub(1, Ordering::Relaxed);
                        if let Some(app) = app {
                            Self::app_release(&mut self.global.lock().app_devices, app);
                        }
                    } else {
                        debug_assert!(
                            !st.bound.contains_key(&vgpu.index),
                            "release of unbound vGPU {vgpu}"
                        );
                    }
                    self.drain_shard(&shard, &mut st);
                    free_left = st.free.len();
                }
            }
            // Slots left over after draining our own queue: offer one to a
            // waiter parked on another (full) device.
            if free_left > 0 && self.total_waiting.load(Ordering::SeqCst) > 0 {
                self.nudge(Some(vgpu.device));
            }
        }
        RuntimeMetrics::bump(&self.metrics.unbindings);
    }

    /// Immediately grants a free vGPU on `device` to `ctx_id`, bypassing the
    /// waiting queue — the migration path (§5.3.4), only legal when nothing
    /// is waiting (checked here).
    pub fn try_acquire_on(&self, ctx_id: CtxId, device: DeviceId) -> Option<Binding> {
        if self.total_waiting.load(Ordering::SeqCst) > 0 {
            return None;
        }
        let shard = self.shards.read().get(&device).map(Arc::clone)?;
        let mut st = shard.state.lock();
        if st.defunct || shard.gpu.is_failed() || st.free.is_empty() {
            return None;
        }
        let binding = Self::grant_slot(&shard, &mut st, ctx_id, None);
        RuntimeMetrics::bump(&self.metrics.bindings);
        Some(binding)
    }

    /// Contexts currently bound to `device`, in context-id order (the
    /// backing map iterates by vGPU index; sorting keeps every consumer —
    /// victim selection, recovery — in context-id order).
    pub fn bound_on(&self, device: DeviceId) -> Vec<CtxId> {
        let shard = self.shards.read().get(&device).map(Arc::clone);
        let mut bound: Vec<CtxId> = shard
            .map(|s| s.state.lock().bound.values().map(|&(c, _)| c).collect())
            .unwrap_or_default();
        bound.sort_unstable();
        bound
    }

    /// Snapshot of every registered device, in device-id order.
    pub fn device_views(&self) -> Vec<DeviceView> {
        let shards: Vec<Arc<Shard>> = self.shards.read().values().map(Arc::clone).collect();
        shards
            .into_iter()
            .map(|shard| {
                let st = shard.state.lock();
                DeviceView {
                    id: shard.device,
                    gpu: Arc::clone(&shard.gpu),
                    total_vgpus: st.vgpus.len(),
                    free_vgpus: st.free.len(),
                    bound: {
                        let mut b: Vec<CtxId> = st.bound.values().map(|&(c, _)| c).collect();
                        b.sort_unstable();
                        b
                    },
                    effective_flops: shard.gpu.spec().effective_flops(),
                    mem_available: shard.gpu.mem_available(),
                }
            })
            .collect()
    }

    /// Number of contexts waiting for a binding.
    pub fn waiting_count(&self) -> usize {
        self.total_waiting.load(Ordering::SeqCst)
    }

    /// Number of contexts currently bound.
    pub fn bound_count(&self) -> usize {
        self.shards.read().values().map(|s| s.bound_hint.load(Ordering::Relaxed)).sum()
    }

    /// Total vGPUs across healthy devices — what `cudaGetDeviceCount`
    /// reports to applications (§4.3).
    pub fn total_vgpus(&self) -> usize {
        self.shards.read().values().filter(|s| !s.gpu.is_failed()).map(|s| s.vgpu_count).sum()
    }

    /// The spec of the physical device backing virtual device `index`
    /// (vGPUs enumerated device-major).
    pub fn vgpu_spec(&self, index: u32) -> Option<mtgpu_gpusim::GpuSpec> {
        let shards = self.shards.read();
        let mut remaining = index as usize;
        for s in shards.values() {
            if remaining < s.vgpu_count {
                return Some(s.gpu.spec().clone());
            }
            remaining -= s.vgpu_count;
        }
        None
    }

    /// Sends every queued entry back to place again (device events: the
    /// set of placeable devices changed under them).
    pub fn notify_all(&self) {
        self.reroute_all(&mut self.lobby.lock());
        let shards: Vec<Arc<Shard>> = self.shards.read().values().map(Arc::clone).collect();
        for shard in shards {
            self.reroute_all(&mut shard.state.lock().queue);
        }
    }

    /// Contended acquisitions per scheduler lock since the last monitor
    /// pass (debug builds only — the ranked-lock observability hook).
    /// Per-shard counts are aggregated under one `SHARD_STATE` entry.
    pub(crate) fn take_lock_contention(&self) -> Vec<(&'static str, u64)> {
        let shard_total: u64 = self.shards.read().values().map(|s| s.state.take_contended()).sum();
        vec![
            ("SHARD_STATE", shard_total),
            ("SCHED_GLOBAL", self.global.take_contended()),
            ("SCHED_LOBBY", self.lobby.take_contended()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::GpuSpec;
    use mtgpu_simtime::Clock;

    fn setup(n_devices: u32, vgpus: u32) -> (Arc<BindingManager>, Vec<Arc<Gpu>>) {
        let clock = Clock::with_scale(1e-7);
        let bm = Arc::new(BindingManager::new(
            SchedulerPolicy::FcfsRoundRobin,
            Arc::new(RuntimeMetrics::default()),
        ));
        let mut gpus = Vec::new();
        for i in 0..n_devices {
            let gpu = Gpu::new(GpuSpec::test_small(), clock.clone(), i);
            bm.add_device(DeviceId(i), Arc::clone(&gpu), vgpus).unwrap();
            gpus.push(gpu);
        }
        (bm, gpus)
    }

    fn ctx(id: u64) -> Arc<AppContext> {
        AppContext::new(CtxId(id), id, format!("j{id}"))
    }

    #[test]
    fn grants_up_to_capacity_then_blocks() {
        let (bm, _) = setup(1, 2);
        let a = ctx(1);
        let b = ctx(2);
        let c = ctx(3);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_millis(200)).unwrap();
        let bb = bm.acquire(&b, 1.0, 0, Duration::from_millis(200)).unwrap();
        assert_ne!(ba.vgpu, bb.vgpu);
        assert_eq!(bm.bound_count(), 2);
        // Third context times out.
        assert!(bm.acquire(&c, 1.0, 0, Duration::from_millis(30)).is_none());
        // Releasing one slot lets it in.
        bm.release(a.id, ba.vgpu);
        let bc = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
        assert_eq!(bc.vgpu, ba.vgpu);
    }

    #[test]
    fn release_wakes_blocked_waiter() {
        let (bm, _) = setup(1, 1);
        let a = ctx(1);
        let b = ctx(2);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_secs(1)).unwrap();
        let bm2 = Arc::clone(&bm);
        let b2 = Arc::clone(&b);
        let waiter =
            std::thread::spawn(move || bm2.acquire(&b2, 1.0, 0, Duration::from_secs(5)).is_some());
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        bm.release(a.id, ba.vgpu);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn load_balances_across_devices() {
        let (bm, _) = setup(3, 4);
        let mut per_device = HashMap::new();
        for i in 0..6 {
            let c = ctx(i);
            let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
            *per_device.entry(b.vgpu.device).or_insert(0) += 1;
        }
        // 6 jobs over 3 devices → 2 each under vGPU-uniform balancing.
        assert_eq!(per_device.len(), 3);
        assert!(per_device.values().all(|&n| n == 2), "{per_device:?}");
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let clock = Clock::with_scale(1e-7);
        let bm = Arc::new(BindingManager::new(
            SchedulerPolicy::ShortestJobFirst,
            Arc::new(RuntimeMetrics::default()),
        ));
        let gpu = Gpu::new(GpuSpec::test_small(), clock, 0);
        bm.add_device(DeviceId(0), gpu, 1).unwrap();
        let holder = ctx(0);
        let hb = bm.acquire(&holder, 1.0, 0, Duration::from_millis(200)).unwrap();
        // Park a long job, then a short job.
        let long = ctx(1);
        let short = ctx(2);
        let bm_l = Arc::clone(&bm);
        let long2 = Arc::clone(&long);
        let t_long = std::thread::spawn(move || {
            bm_l.acquire(&long2, 1e12, 0, Duration::from_secs(5)).map(|b| b.vgpu)
        });
        while bm.waiting_count() < 1 {
            std::hint::spin_loop();
        }
        let bm_s = Arc::clone(&bm);
        let short2 = Arc::clone(&short);
        let t_short = std::thread::spawn(move || {
            bm_s.acquire(&short2, 1e3, 0, Duration::from_secs(5)).map(|b| b.vgpu)
        });
        while bm.waiting_count() < 2 {
            std::hint::spin_loop();
        }
        // Free the slot: the SHORT job must get it first.
        bm.release(holder.id, hb.vgpu);
        let short_got = t_short.join().unwrap();
        assert!(short_got.is_some());
        // Long is still waiting; give it the slot to finish the test.
        bm.release(short.id, short_got.unwrap());
        assert!(t_long.join().unwrap().is_some());
    }

    #[test]
    fn failed_device_not_granted() {
        let (bm, gpus) = setup(2, 1);
        gpus[0].fail();
        for i in 0..1 {
            let c = ctx(i);
            let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
            assert_eq!(b.vgpu.device, DeviceId(1));
        }
    }

    #[test]
    fn remove_device_reports_bound_ctxs() {
        let (bm, _) = setup(1, 2);
        let a = ctx(1);
        let _ba = bm.acquire(&a, 1.0, 0, Duration::from_millis(200)).unwrap();
        let affected = bm.remove_device(DeviceId(0));
        assert_eq!(affected, vec![a.id]);
        assert!(!bm.has_device(DeviceId(0)));
        assert_eq!(bm.total_vgpus(), 0);
    }

    #[test]
    fn try_acquire_on_respects_waiting_queue() {
        let (bm, _) = setup(1, 1);
        let a = ctx(1);
        let _ba = bm.acquire(&a, 1.0, 0, Duration::from_millis(200)).unwrap();
        // Park a waiter.
        let bm2 = Arc::clone(&bm);
        let w = ctx(2);
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || bm2.acquire(&w2, 1.0, 0, Duration::from_millis(300)));
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        // Migration must refuse while a context is waiting.
        assert!(bm.try_acquire_on(CtxId(9), DeviceId(0)).is_none());
        let _ = t.join().unwrap();
    }

    #[test]
    fn seeded_tie_breaks_replay_bit_for_bit() {
        // Two managers with the same seed must produce the identical grant
        // sequence for the identical arrival order; a different seed is
        // allowed to differ (and does for this workload shape).
        let placement = |seed: u64| -> Vec<u32> {
            let clock = Clock::virtual_clock();
            let bm = Arc::new(BindingManager::new_seeded(
                SchedulerPolicy::FcfsRoundRobin,
                Arc::new(RuntimeMetrics::default()),
                seed,
            ));
            for i in 0..3 {
                let gpu = Gpu::new(GpuSpec::test_small(), clock.clone(), i);
                bm.add_device(DeviceId(i), gpu, 4).unwrap();
            }
            (0..9)
                .map(|i| {
                    let c = ctx(i);
                    let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
                    let dev = b.vgpu.device.0;
                    bm.release(c.id, b.vgpu);
                    dev
                })
                .collect()
        };
        assert_eq!(placement(42), placement(42));
        assert_eq!(placement(7), placement(7));
    }

    #[test]
    fn vgpu_enumeration_reports_virtual_count() {
        let (bm, _) = setup(2, 4);
        assert_eq!(bm.total_vgpus(), 8);
        assert!(bm.vgpu_spec(0).is_some());
        assert!(bm.vgpu_spec(7).is_some());
        assert!(bm.vgpu_spec(8).is_none());
    }

    #[test]
    fn release_on_other_device_unparks_cross_shard_waiter() {
        // A waiter parked on a full device must be nudged toward a slot
        // freed on a *different* device (the sharded analog of the old
        // global notify_all).
        let (bm, _) = setup(2, 1);
        let a = ctx(1);
        let b = ctx(2);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_secs(1)).unwrap();
        let bb = bm.acquire(&b, 1.0, 0, Duration::from_secs(1)).unwrap();
        assert_ne!(ba.vgpu.device, bb.vgpu.device);
        // Both devices full; park a third context (it queues on one shard).
        let c = ctx(3);
        let bm2 = Arc::clone(&bm);
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || bm2.acquire(&c2, 1.0, 0, Duration::from_secs(5)));
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        // Free a slot on whichever device: the waiter must get it even if
        // it parked on the other shard.
        bm.release(a.id, ba.vgpu);
        let bc = waiter.join().unwrap().expect("cross-shard waiter stranded");
        assert_eq!(bc.vgpu.device, ba.vgpu.device);
        bm.release(b.id, bb.vgpu);
        bm.release(c.id, bc.vgpu);
        assert_eq!(bm.bound_count(), 0);
    }

    #[test]
    fn add_device_unparks_lobby_waiter() {
        let clock = Clock::with_scale(1e-7);
        let bm = Arc::new(BindingManager::new(
            SchedulerPolicy::FcfsRoundRobin,
            Arc::new(RuntimeMetrics::default()),
        ));
        let c = ctx(1);
        let bm2 = Arc::clone(&bm);
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || bm2.acquire(&c2, 1.0, 0, Duration::from_secs(5)));
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        let gpu = Gpu::new(GpuSpec::test_small(), clock, 0);
        bm.add_device(DeviceId(0), gpu, 1).unwrap();
        assert!(waiter.join().unwrap().is_some());
    }

    #[test]
    fn remove_device_reroutes_queued_waiters() {
        let (bm, _) = setup(2, 1);
        let a = ctx(1);
        let b = ctx(2);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_secs(1)).unwrap();
        let _bb = bm.acquire(&b, 1.0, 0, Duration::from_secs(1)).unwrap();
        let c = ctx(3);
        let bm2 = Arc::clone(&bm);
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || bm2.acquire(&c2, 1.0, 0, Duration::from_secs(5)));
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        // Remove the device holding `a`'s binding: if the waiter was parked
        // there, it must re-place; either way it gets `a`'s or the freed
        // capacity eventually.
        let dev_a = ba.vgpu.device;
        let affected = bm.remove_device(dev_a);
        assert_eq!(affected, vec![a.id]);
        // Free the *other* device so the waiter can bind wherever it ends
        // up re-placed.
        bm.release(b.id, _bb.vgpu);
        let bc = waiter.join().unwrap().expect("waiter stranded after device removal");
        assert_ne!(bc.vgpu.device, dev_a);
    }
}

#[cfg(test)]
mod entry_tests {
    use super::*;
    use mtgpu_gpusim::GpuSpec;
    use mtgpu_simtime::Clock;
    use std::sync::atomic::AtomicUsize;

    fn manager(devices: u32) -> (Arc<BindingManager>, Arc<RuntimeMetrics>) {
        let metrics = Arc::new(RuntimeMetrics::default());
        let bm =
            Arc::new(BindingManager::new(SchedulerPolicy::FcfsRoundRobin, Arc::clone(&metrics)));
        for i in 0..devices {
            let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), i);
            bm.add_device(DeviceId(i), gpu, 1).unwrap();
        }
        (bm, metrics)
    }

    fn ctx(id: u64) -> Arc<AppContext> {
        AppContext::new(CtxId(id), id, format!("e{id}"))
    }

    /// A wake that counts how often it ran.
    fn counting(woken: &Arc<AtomicUsize>) -> Wake {
        let woken = Arc::clone(woken);
        Box::new(move || {
            woken.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn queued_entry_is_granted_by_the_release_and_woken_exactly_once() {
        let (bm, metrics) = manager(1);
        let (holder, waiter) = (ctx(1), ctx(2));
        let held = bm.poll(&holder, 0).expect("free vGPU");
        let woken = Arc::new(AtomicUsize::new(0));
        assert!(bm.poll(&waiter, 0).is_none());
        bm.enqueue(&waiter, 1.0, 0, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        assert!(bm.poll(&waiter, 0).is_none(), "still queued");
        // No thread is parked anywhere: the release itself does the grant.
        bm.release(holder.id, held.vgpu);
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        let granted = bm.poll(&waiter, 0).expect("the grant is the waiter's to take");
        assert_eq!(granted.vgpu, held.vgpu);
        assert!(waiter.inner().wait_ticket.is_none());
        bm.release(waiter.id, granted.vgpu);
        let m = metrics.snapshot();
        assert_eq!((m.bindings, m.unbindings, m.targeted_wakeups), (2, 2, 1));
    }

    #[test]
    fn enqueue_that_finds_the_slot_free_after_all_is_granted_before_it_returns() {
        let (bm, _) = manager(1);
        let (holder, waiter) = (ctx(1), ctx(2));
        let held = bm.poll(&holder, 0).unwrap();
        assert!(bm.poll(&waiter, 0).is_none());
        // The release lands between the failed poll and the enqueue.
        bm.release(holder.id, held.vgpu);
        let woken = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&waiter, 1.0, 0, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        assert!(bm.poll(&waiter, 0).is_some());
    }

    #[test]
    fn cancel_takes_a_queued_entry_out_and_returns_a_grant_that_raced_it() {
        let (bm, metrics) = manager(1);
        let (holder, queued, granted) = (ctx(1), ctx(2), ctx(3));
        let held = bm.poll(&holder, 0).unwrap();
        let woken = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&queued, 1.0, 0, counting(&woken));
        bm.enqueue(&granted, 1.0, 0, counting(&woken));
        // Cancelled while queued: out of the queue, never woken, and the
        // context neither queues nor binds again — an owner that asks
        // anyway is woken at once, to find that out.
        assert!(bm.cancel(&queued).is_none());
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        let refused = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&queued, 1.0, 0, counting(&refused));
        assert_eq!(bm.waiting_count(), 1, "a cancelled context does not queue");
        assert_eq!(refused.load(Ordering::SeqCst), 1, "a refused entry's wake is not dropped");
        // Cancelled after the grant: the vGPU comes back to be released.
        bm.release(holder.id, held.vgpu);
        assert_eq!(woken.load(Ordering::SeqCst), 1);
        let raced = bm.cancel(&granted).expect("the grant raced the cancel");
        bm.release(granted.id, raced.vgpu);
        assert!(bm.poll(&granted, 0).is_none(), "a cancelled context does not bind");
        assert!(bm.poll(&queued, 0).is_none());
        assert_eq!((bm.waiting_count(), bm.bound_count()), (0, 0));
        let m = metrics.snapshot();
        assert_eq!(m.bindings, m.unbindings);
        assert!(bm.poll(&holder, 0).is_some(), "the slot is free again");
    }

    #[test]
    fn kick_wakes_a_queued_entry_and_a_failed_context_is_woken_instead_of_queued() {
        let (bm, metrics) = manager(1);
        let (holder, waiter) = (ctx(1), ctx(2));
        let held = bm.poll(&holder, 0).unwrap();
        let woken = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&waiter, 1.0, 0, counting(&woken));
        // Kicked while queued (its lease was reaped): out of the queue and
        // woken, so the owner runs its launch again and sees the failure.
        waiter.mark_failed(mtgpu_api::CudaError::LeaseExpired);
        assert!(bm.kick(&waiter).is_none());
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        // The reap landed between the failed poll and the enqueue instead:
        // nothing is queued for a grant nobody would use, and the owner is
        // woken all the same. A blocking caller is refused, not parked.
        bm.enqueue(&waiter, 1.0, 0, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 2));
        assert!(bm.acquire(&waiter, 1.0, 0, Duration::from_secs(3600)).is_none());
        // Kicked after the grant: the vGPU comes back to be released.
        let late = ctx(3);
        bm.enqueue(&late, 1.0, 0, counting(&woken));
        bm.release(holder.id, held.vgpu);
        let raced = bm.kick(&late).expect("the grant raced the kick");
        bm.release(late.id, raced.vgpu);
        assert_eq!((bm.waiting_count(), bm.bound_count()), (0, 0));
        let m = metrics.snapshot();
        assert_eq!(m.bindings, m.unbindings);
        // Unlike a cancelled context, a kicked one may ask again.
        assert!(bm.poll(&late, 0).is_some());
    }

    #[test]
    fn blocking_acquire_is_the_same_entry_and_a_timeout_leaves_the_context_usable() {
        let (bm, _) = manager(1);
        let (holder, waiter) = (ctx(1), ctx(2));
        let held = bm.acquire(&holder, 1.0, 0, Duration::ZERO).expect("fast path");
        // Times out queued, keeps its ticket, and may ask again.
        assert!(bm.acquire(&waiter, 1.0, 0, Duration::from_millis(5)).is_none());
        assert_eq!(bm.waiting_count(), 0);
        let ticket = waiter.inner().wait_ticket.expect("ticket survives the timeout");
        let parked = std::thread::scope(|s| {
            let parked = s.spawn(|| bm.acquire(&waiter, 1.0, 0, Duration::from_secs(30)));
            while bm.waiting_count() == 0 {
                std::hint::spin_loop();
            }
            assert_eq!(waiter.inner().wait_ticket, Some(ticket));
            bm.release(holder.id, held.vgpu);
            parked.join().unwrap()
        });
        let bound = parked.expect("granted by the release");
        // A cancelled context is refused at once, not parked until the
        // deadline.
        bm.release(waiter.id, bound.vgpu);
        assert!(bm.cancel(&waiter).is_none());
        assert!(bm.acquire(&holder, 1.0, 0, Duration::ZERO).is_some());
        assert!(bm.acquire(&waiter, 1.0, 0, Duration::from_secs(3600)).is_none());
    }

    #[test]
    fn nudge_spent_on_a_context_that_is_cancelled_is_passed_on() {
        // Device 0 has two vGPUs, device 1 one, all bound: device 1 is the
        // less loaded, so both waiters queue there.
        let (bm, _) = manager(0);
        for (i, vgpus) in [(0, 2), (1, 1)] {
            let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), i);
            bm.add_device(DeviceId(i), gpu, vgpus).unwrap();
        }
        let holders = [ctx(1), ctx(2), ctx(3)];
        let held = holders.each_ref().map(|c| bm.poll(c, 0).expect("free vGPU"));
        let (first, second) = (ctx(4), ctx(5));
        let woken = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        bm.enqueue(&first, 1.0, 0, counting(&woken[0]));
        bm.enqueue(&second, 1.0, 0, counting(&woken[1]));
        // A slot frees on device 0, whose own queue is empty: the release
        // nudges the first waiter over.
        let on_zero = held.iter().position(|b| b.vgpu.device == DeviceId(0)).unwrap();
        bm.release(holders[on_zero].id, held[on_zero].vgpu);
        assert!(matches!(first.inner().bind_wait, BindWait::Reroute));
        assert_eq!((woken[0].load(Ordering::SeqCst), woken[1].load(Ordering::SeqCst)), (1, 0));
        // Its channel is torn down before it follows the nudge. The slot it
        // was pointed at must not idle while the second waiter queues.
        assert!(bm.cancel(&first).is_none());
        assert_eq!(woken[1].load(Ordering::SeqCst), 1, "the nudge was not passed on");
        let moved = bm.poll(&second, 0).expect("the freed slot");
        assert_eq!(moved.vgpu.device, DeviceId(0));
        assert_eq!(bm.waiting_count(), 0);
    }

    #[test]
    fn lobby_entry_places_again_when_a_device_appears() {
        let (bm, _) = manager(0);
        let waiter = ctx(1);
        let woken = Arc::new(AtomicUsize::new(0));
        assert!(bm.poll(&waiter, 0).is_none());
        bm.enqueue(&waiter, 1.0, 0, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        bm.add_device(DeviceId(0), gpu, 1).unwrap();
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        assert!(bm.poll(&waiter, 0).is_some(), "rerouted onto the new device");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::config::SchedulerPolicy;
    use mtgpu_gpusim::GpuSpec;
    use mtgpu_simtime::Clock;

    fn bm_with(policy: SchedulerPolicy) -> Arc<BindingManager> {
        let bm = Arc::new(BindingManager::new(policy, Arc::new(RuntimeMetrics::default())));
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        bm.add_device(DeviceId(0), gpu, 1).unwrap();
        bm
    }

    fn ctx(id: u64) -> Arc<AppContext> {
        AppContext::new(CtxId(id), id, format!("p{id}"))
    }

    /// Parks `n` waiters behind a holder and returns them with their join
    /// handles, in arrival order.
    fn park_waiters(
        bm: &Arc<BindingManager>,
        ids: &[u64],
    ) -> Vec<std::thread::JoinHandle<Option<Binding>>> {
        let mut handles = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let bm2 = Arc::clone(bm);
            let c = ctx(id);
            handles.push(std::thread::spawn(move || {
                bm2.acquire(&c, id as f64, 0, Duration::from_secs(5))
            }));
            while bm.waiting_count() < i + 1 {
                std::hint::spin_loop();
            }
        }
        handles
    }

    #[test]
    fn credit_based_depletes_and_refills() {
        let bm = bm_with(SchedulerPolicy::CreditBased);
        // Serial grants: each acquire succeeds immediately and burns one
        // credit of the context.
        let c = ctx(1);
        for expected in [3u32, 2, 1] {
            let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
            assert_eq!(c.inner().credits, expected);
            bm.release(c.id, b.vgpu);
        }
        // Fourth grant exhausts; a fifth refills (sole candidate) and works.
        let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
        assert_eq!(c.inner().credits, 0);
        bm.release(c.id, b.vgpu);
        let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(200)).unwrap();
        assert_eq!(c.inner().credits, 3, "refill happened");
        bm.release(c.id, b.vgpu);
    }

    #[test]
    fn cuda4_affinity_constrains_placement() {
        let bm = Arc::new(BindingManager::new(
            SchedulerPolicy::FcfsRoundRobin,
            Arc::new(RuntimeMetrics::default()),
        ));
        let clock = Clock::with_scale(1e-7);
        for i in 0..2 {
            bm.add_device(DeviceId(i), Gpu::new(GpuSpec::test_small(), clock.clone(), i), 3)
                .unwrap();
        }
        // Thread 1 of app 7 binds somewhere.
        let a = ctx(1);
        a.inner().app_id = Some(7);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_millis(200)).unwrap();
        // Threads 2 and 3 of the same app must land on the same device even
        // though load balancing would spread them.
        for id in [2u64, 3] {
            let c = ctx(id);
            c.inner().app_id = Some(7);
            let b = bm.acquire(&c, 1.0, 0, Duration::from_millis(500)).unwrap();
            assert_eq!(b.vgpu.device, ba.vgpu.device, "app thread {id} strayed");
            // Keep it bound so the affinity stays pinned.
            std::mem::forget(b);
        }
    }

    #[test]
    fn cuda4_affinity_waits_rather_than_splits() {
        let bm = Arc::new(BindingManager::new(
            SchedulerPolicy::FcfsRoundRobin,
            Arc::new(RuntimeMetrics::default()),
        ));
        let clock = Clock::with_scale(1e-7);
        for i in 0..2 {
            bm.add_device(DeviceId(i), Gpu::new(GpuSpec::test_small(), clock.clone(), i), 1)
                .unwrap();
        }
        let a = ctx(1);
        a.inner().app_id = Some(9);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_millis(200)).unwrap();
        // A sibling cannot bind (its device has no free vGPU) even though
        // the other device is idle — and an unrelated context can overtake
        // it onto the idle device.
        let sibling = ctx(2);
        sibling.inner().app_id = Some(9);
        let bm2 = Arc::clone(&bm);
        let sib2 = Arc::clone(&sibling);
        let sib_wait =
            std::thread::spawn(move || bm2.acquire(&sib2, 1.0, 0, Duration::from_secs(5)));
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        let other = ctx(3);
        let bo = bm.acquire(&other, 1.0, 0, Duration::from_millis(500)).unwrap();
        assert_ne!(bo.vgpu.device, ba.vgpu.device, "unrelated ctx takes the idle device");
        // Releasing the first app thread lets the sibling in on that device.
        bm.release(a.id, ba.vgpu);
        let bs = sib_wait.join().unwrap().unwrap();
        assert_eq!(bs.vgpu.device, ba.vgpu.device);
        bm.release(other.id, bo.vgpu);
        bm.release(sibling.id, bs.vgpu);
    }

    #[test]
    fn fcfs_order_preserved_under_parked_waiters() {
        let bm = bm_with(SchedulerPolicy::FcfsRoundRobin);
        let holder = ctx(0);
        let hb = bm.acquire(&holder, 1.0, 0, Duration::from_millis(200)).unwrap();
        let handles = park_waiters(&bm, &[10, 11, 12]);
        // Free the slot three times; waiters must be served in ARRIVAL
        // order: joining handle[i] before releasing its slot only
        // terminates if waiter i was indeed served next.
        bm.release(holder.id, hb.vgpu);
        for (h, id) in handles.into_iter().zip([10u64, 11, 12]) {
            let b = h.join().unwrap().expect("waiter starved: FIFO violated");
            bm.release(CtxId(id), b.vgpu);
        }
    }
}
