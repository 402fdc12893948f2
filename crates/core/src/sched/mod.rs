//! Virtual-GPU slots and the binding manager (§4.3–§4.4).
//!
//! A *virtual GPU* is a share of a physical device with its own persistent
//! CUDA context, created at system startup ("virtual-GPUs are statically
//! bound to physical GPUs through a `cudaSetDevice` invoked at system
//! startup", §4.4). Each vGPU services one application context at a time;
//! limiting the vGPU count caps the contexts the CUDA runtime must sustain,
//! which is how the runtime stays stable under hundreds of applications.
//!
//! The [`BindingManager`] is the dispatcher's scheduling core, as §4.3
//! draws it: every device's vGPU slots and the node's one list of *waiting
//! contexts* behind one lock. It grants bindings according to the
//! configured [`SchedulerPolicy`] — FCFS round-robin with vGPU-count load
//! balancing (the policy of §5), shortest-job-first, or credit-based — and
//! the policy orders the whole node's waiters, whichever device frees up.
//!
//! # Waiters are list entries
//!
//! A context that cannot bind at once ([`BindingManager::poll`]) leaves an
//! *entry* in the waiting list ([`BindingManager::enqueue`]): its FCFS
//! ticket, SJF key, memory footprint, application id, and a *wake*. An
//! entry belongs to no device. Whatever frees or adds a slot, or adds an
//! entry — a release, a new device, the enqueue itself — ends by handing
//! free vGPUs to the first entry in policy order that may run on a device
//! with a free one (`grant_waiting`), so outside the lock a free slot never
//! coexists with an entry that could take it: there is nothing to re-check
//! and nobody to send elsewhere. A grant is written into the context
//! ([`crate::ctx::BindWait`]) and the entry's wake runs — exactly that
//! entry's, exactly once; the owner then polls again and takes it. No
//! waiter owns a timer: the gateway's wake puts the waiting wire channel
//! back on the work queue, and a thread that blocks — an in-process
//! client's launch, [`BindingManager::acquire`] — queues the same entry
//! through [`BindingManager::wait`], with a wake that notifies a condition
//! variable. [`BindingManager::cancel`] withdraws a context at
//! teardown and hands back a grant that raced it; [`BindingManager::kick`]
//! wakes a queued owner early (its lease was reaped). An entry whose wake
//! could never be followed by a launch — the context cancelled or failed,
//! or the dispatcher closed at shutdown ([`BindingManager::close`]) — is not
//! queued at all: its wake runs at once.
//!
//! # Waiting for room
//!
//! A launch that gave its vGPU up for want of device memory (§4.5
//! unbind-and-retry) queues the same kind of entry, handed a [`Room`]: the
//! device it fell short on and the working set it needs. The entry is
//! *parked* on that device until another context makes room there
//! ([`BindingManager::make_room`]): releases its vGPU, frees a resident
//! entry, is swapped out by another application or a preemption, or sits
//! idle at a monitor pass, a victim for the taking
//! (`monitor::offer_idle_victims`). Then it is an ordinary entry again, and
//! its launch runs again from scratch wherever it is granted. While parked
//! it is granted only if its working set fits now where placement puts it
//! (`place`, the one placement routine). Three rules keep that live
//! without a timer:
//!
//! - a launch that unbinds to retry makes no room: what it gives back is
//!   only its own attempt's, and two tenants that do not fit together
//!   would wake each other for ever ([`BindingManager::release_to_retry`]);
//! - room made between the launch's failed look and its `enqueue` is not
//!   lost: an entry whose working set fits on its device by then does not
//!   park;
//! - an entry with nothing to wait for — no co-tenant on the device, or a
//!   device that cannot hold its working set for one context — does not
//!   park, and is never granted a device it cannot fit on alone (the launch
//!   fails if no healthy device can hold it).
//!
//! # Determinism
//!
//! Every decision is taken under the one lock over ordered maps, and
//! tie-breaks draw from one seeded [`DetRng`] stream — one draw per grant
//! that had a candidate device, none otherwise — so the grant sequence is a
//! pure function of the seed and the arrival order.

use crate::config::SchedulerPolicy;
use crate::ctx::{AppContext, BindWait, Binding, CtxId, VGpuId};
use crate::metrics::RuntimeMetrics;
use mtgpu_gpusim::{DeviceId, Gpu, GpuContextId};
use mtgpu_simtime::{lock_rank, DetRng, RankedCondvar, RankedMutex, Shadow};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
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
/// entry's outcome is written into its context. Called with the
/// dispatcher's lock held, so it must not block or call back into the
/// manager.
pub type Wake = Box<dyn FnOnce() + Send>;

/// What a launch that gave its vGPU up for want of memory waits for (§4.5
/// unbind-and-retry): room on `device` for a working set of `needs` bytes.
#[derive(Debug, Clone, Copy)]
pub struct Room {
    pub device: DeviceId,
    pub needs: u64,
}

/// One queued request for a vGPU.
struct Waiter {
    ctx: Arc<AppContext>,
    /// FIFO ticket (the context's, kept until it is granted).
    enq_seq: u64,
    /// Declared work of the launch that needs the binding (SJF key).
    pending_work: f64,
    /// The context's memory footprint (placement prefers a device it fits).
    mem_usage: u64,
    /// CUDA 4.0 application id (§4.8): constrains placement to the device
    /// already hosting the application's other threads.
    app_id: Option<u64>,
    /// The working set of a launch that fell short for memory, in bytes; 0
    /// for one that found no vGPU. No device that cannot hold it alone is
    /// granted.
    needs: u64,
    /// The device the launch waits for room on, while it waits: until then
    /// it is granted only if its working set fits now where it is placed.
    parked_on: Option<DeviceId>,
    wake: Wake,
}

/// One device's vGPU slots.
struct Device {
    gpu: Arc<Gpu>,
    vgpus: Vec<VGpu>,
    /// Free vGPU slot indices. Shadowed so mtcheck's happens-before
    /// detector audits every read/write against the dispatcher's lock.
    free: Shadow<Vec<u32>>,
    /// Ordered by vGPU index so every walk over the bound set is
    /// deterministic without a defensive sort at each consumer.
    bound: BTreeMap<u32, (CtxId, Option<u64>)>,
}

impl Device {
    /// Whether a grant may land here now.
    fn open(&self) -> bool {
        !self.free.is_empty() && !self.gpu.is_failed()
    }

    /// The most memory one context's data can take here: all of it but
    /// what the persistent vGPU contexts reserve.
    fn capacity_alone(&self) -> u64 {
        let reserved = self.gpu.spec().ctx_reserved_bytes * self.vgpus.len() as u64;
        self.gpu.mem_capacity().saturating_sub(reserved)
    }

    /// Bound contexts in context-id order (the map iterates by vGPU index;
    /// victim selection and recovery want context-id order).
    fn bound_ctxs(&self) -> Vec<CtxId> {
        let mut bound: Vec<CtxId> = self.bound.values().map(|&(c, _)| c).collect();
        bound.sort_unstable();
        bound
    }
}

/// Everything the dispatcher decides over, behind its one lock.
struct State {
    /// Ordered so placement, views and vGPU enumeration walk devices in
    /// device-id order.
    devices: BTreeMap<DeviceId, Device>,
    /// The node's waiting contexts, unordered; policy order is computed
    /// per grant.
    waiting: Vec<Waiter>,
    /// Tie-break generator, forked off the runtime's determinism seed.
    rng: DetRng,
    /// CUDA 4.0 application → (device, bound thread count) affinity map;
    /// only ever points at a registered device.
    app_devices: BTreeMap<u64, (DeviceId, usize)>,
    /// Next FCFS ticket.
    next_seq: u64,
    /// `place`'s candidate list between grants: (device, effective flops,
    /// fits), kept so placing allocates nothing.
    placing: Vec<(DeviceId, f64, bool)>,
    /// `policy_order`'s list between grants, likewise.
    order: Vec<usize>,
    /// Set by [`BindingManager::close`]: nothing is granted any more.
    closed: bool,
}

/// The dispatcher's binding/scheduling core (see module docs).
pub struct BindingManager {
    policy: SchedulerPolicy,
    metrics: Arc<RuntimeMetrics>,
    state: RankedMutex<State>,
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
        let state = State {
            devices: BTreeMap::new(),
            waiting: Vec::new(),
            rng: DetRng::from_seed(seed).fork("sched"),
            app_devices: BTreeMap::new(),
            next_seq: 0,
            placing: Vec::new(),
            order: Vec::new(),
            closed: false,
        };
        BindingManager { policy, metrics, state: RankedMutex::new(lock_rank::SCHED, state) }
    }

    /// Registers a device and spawns `count` vGPUs on it, creating each
    /// vGPU's persistent CUDA context. Waiting contexts bind to the fresh
    /// slots at once.
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
        let free = Shadow::new("sched.free", (0..count).collect());
        let mut st = self.state.lock();
        st.devices.insert(id, Device { gpu, vgpus, free, bound: BTreeMap::new() });
        self.grant_waiting(&mut st);
        Ok(())
    }

    /// Removes a device (failure or hot detach), returning the contexts
    /// that were bound to it. Their device state must be recovered by the
    /// caller via the memory manager. Applications that lived on it may
    /// regroup elsewhere: their waiting threads are granted what the
    /// surviving devices have free, and so are the launches that waited for
    /// room on it.
    pub fn remove_device(&self, id: DeviceId) -> Vec<CtxId> {
        let mut st = self.state.lock();
        let Some(device) = st.devices.remove(&id) else { return Vec::new() };
        st.app_devices.retain(|_, &mut (dev, _)| dev != id);
        Self::room_on(&mut st, id);
        self.grant_waiting(&mut st);
        device.bound_ctxs()
    }

    /// Whether a device is registered.
    pub fn has_device(&self, id: DeviceId) -> bool {
        self.state.lock().devices.contains_key(&id)
    }

    /// The non-blocking request: the grant a queued entry of `ctx` was given
    /// meanwhile, or — nothing pending — a free vGPU, taken without
    /// allocating an entry or reading a clock (whoever is queued meanwhile
    /// could not run on it, or would hold it already). `None` means wait:
    /// [`Self::enqueue`], and poll again when woken. The granted binding is
    /// written into the context's metadata by the caller.
    pub fn poll(&self, ctx: &Arc<AppContext>, mem_usage: u64) -> Option<Binding> {
        let (app_id, ticketed) = {
            let mut inner = ctx.inner();
            match std::mem::take(&mut inner.bind_wait) {
                BindWait::Granted(binding) => {
                    inner.wait_ticket = None;
                    return Some(binding);
                }
                BindWait::Idle => {}
                pending => {
                    inner.bind_wait = pending;
                    return None;
                }
            }
            (inner.app_id, inner.wait_ticket.is_some())
        };
        let binding = {
            let mut st = self.state.lock();
            let dev = Self::place(&mut st, app_id, mem_usage, 0, false)?;
            Self::grant_slot(&mut st, dev, ctx.id, app_id)
        };
        if ticketed || self.policy == SchedulerPolicy::CreditBased {
            let mut inner = ctx.inner();
            inner.wait_ticket = None;
            if self.policy == SchedulerPolicy::CreditBased {
                // Sole candidate with exhausted credits refills, as in a
                // grant where every waiting entry is at zero.
                if inner.credits == 0 {
                    inner.credits = 4;
                }
                inner.credits -= 1;
            }
        }
        RuntimeMetrics::bump(&self.metrics.bindings);
        Some(binding)
    }

    /// Queues a request of `ctx` after [`Self::poll`] found nothing, under
    /// the context's FCFS ticket; `wake` runs once, when the entry is
    /// granted a vGPU or taken out by [`Self::kick`] — possibly before this
    /// returns. A context that will not launch again (cancelled, or failed)
    /// is not queued: its wake runs at once, so its owner looks again and
    /// finds out. With a `room` the entry first waits for a co-tenant on
    /// that device to make room (module docs, *Waiting for room*).
    pub fn enqueue(
        &self,
        ctx: &Arc<AppContext>,
        pending_work: f64,
        mem_usage: u64,
        room: Option<Room>,
        wake: Wake,
    ) {
        let mut st = self.state.lock();
        let (enq_seq, app_id) = {
            let mut inner = ctx.inner();
            if st.closed {
                inner.bind_wait = BindWait::Closed;
            }
            if matches!(inner.bind_wait, BindWait::Closed) || inner.failed.is_some() {
                drop(inner);
                return wake();
            }
            debug_assert!(!matches!(inner.bind_wait, BindWait::Queued), "{} queued twice", ctx.id);
            inner.bind_wait = BindWait::Queued;
            let ticket = *inner.wait_ticket.get_or_insert_with(|| {
                st.next_seq += 1;
                st.next_seq - 1
            });
            (ticket, inner.app_id)
        };
        // Parked if there is anything to wait for: the working set does not
        // fit there now (room made since the launch looked is not lost), a
        // co-tenant could make some, and the device could hold it alone.
        let parks = |room: &Room| {
            st.devices.get(&room.device).is_some_and(|d| {
                d.gpu.largest_free_block() < room.needs
                    && d.capacity_alone() >= room.needs
                    && !d.bound.is_empty()
            })
        };
        let parked_on = room.filter(parks).map(|room| room.device);
        let needs = room.map_or(0, |room| room.needs);
        let ctx = Arc::clone(ctx);
        let entry =
            Waiter { ctx, enq_seq, pending_work, mem_usage, app_id, needs, parked_on, wake };
        st.waiting.push(entry);
        self.grant_waiting(&mut st);
    }

    /// A room event on `device`: a context there gave device memory back
    /// (freed a resident entry, lost pages to a preemption) or is idle, a
    /// victim for the taking. Every entry that waited for room there is an
    /// ordinary one from now on. A vGPU release is one too
    /// ([`Self::release`]).
    pub fn make_room(&self, device: DeviceId) {
        let mut st = self.state.lock();
        Self::room_on(&mut st, device);
        self.grant_waiting(&mut st);
    }

    /// Lets go of the entries that waited for room on `device`; the caller
    /// grants afterwards.
    fn room_on(st: &mut State, device: DeviceId) {
        for w in &mut st.waiting {
            w.parked_on = w.parked_on.filter(|&d| d != device);
        }
    }

    /// The devices launches wait for room on.
    pub(crate) fn parked_on(&self) -> BTreeSet<DeviceId> {
        self.state.lock().waiting.iter().filter_map(|w| w.parked_on).collect()
    }

    /// Whether a healthy device can hold a working set of `needs` bytes for
    /// one context.
    pub(crate) fn fits_alone(&self, needs: u64) -> bool {
        let st = self.state.lock();
        st.devices.values().any(|d| !d.gpu.is_failed() && d.capacity_alone() >= needs)
    }

    /// Blocks until a vGPU is granted to `ctx` (per policy) or `timeout`
    /// expires: [`Self::poll`], and when that finds nothing, [`Self::wait`]
    /// in the list everyone waits in. The granted binding is written into
    /// the context's metadata by the caller.
    pub fn acquire(
        &self,
        ctx: &Arc<AppContext>,
        pending_work: f64,
        mem_usage: u64,
        timeout: Duration,
    ) -> Option<Binding> {
        // mtlint: allow(wall-clock, reason = "acquisition timeout is a real-time liveness bound on a parked OS thread, not simulated time; the serving path never blocks here and det harnesses never wait")
        let deadline = Instant::now() + timeout;
        loop {
            // After a wake: granted, taken here; kicked, one more look at
            // the fast path before queueing again.
            if let Some(binding) = self.poll(ctx, mem_usage) {
                return Some(binding);
            }
            if !self.wait(ctx, pending_work, mem_usage, None, Some(deadline)) {
                // A grant at the buzzer is still taken.
                return self.withdraw(ctx, false);
            }
            let inner = ctx.inner();
            if matches!(inner.bind_wait, BindWait::Closed) || inner.failed.is_some() {
                return None;
            }
        }
    }

    /// Queues `ctx` ([`Self::enqueue`], with a wake that notifies the calling
    /// thread) and blocks until its entry leaves the waiting list — granted,
    /// kicked, refused (the context cannot bind any more) or closed out —
    /// and returns `true`: the caller looks again. `false` if `deadline`
    /// passes first; the entry may still be queued, for the caller to
    /// withdraw. Where a thread waits for a vGPU — [`Self::acquire`], and an
    /// in-process client's launch ([`crate::service::InProcessChannel`]) —
    /// it waits here.
    pub(crate) fn wait(
        &self,
        ctx: &Arc<AppContext>,
        pending_work: f64,
        mem_usage: u64,
        room: Option<Room>,
        deadline: Option<Instant>,
    ) -> bool {
        let woken = Arc::new(RankedCondvar::new());
        let wake = Arc::clone(&woken);
        self.enqueue(ctx, pending_work, mem_usage, room, Box::new(move || wake.notify_one()));
        let mut inner = ctx.inner();
        while matches!(inner.bind_wait, BindWait::Queued) {
            match deadline {
                None => woken.wait(&mut inner),
                Some(deadline) => {
                    if woken.wait_until(&mut inner, deadline) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Withdraws `ctx` from the dispatcher for good (teardown, when nobody
    /// is left to tell): its entry leaves the waiting list without its wake
    /// running, and nothing queues or binds the context again. A grant that
    /// raced the withdrawal comes back for the caller to [`Self::release`].
    pub fn cancel(&self, ctx: &Arc<AppContext>) -> Option<Binding> {
        self.withdraw(ctx, true)
    }

    /// Takes `ctx`'s entry out of the waiting list and runs its wake, so
    /// its owner looks again now instead of at a grant (lease reaping: the
    /// look finds the context failed). A grant already given comes back for
    /// the caller to [`Self::release`].
    pub fn kick(&self, ctx: &Arc<AppContext>) -> Option<Binding> {
        self.withdraw(ctx, false)
    }

    /// Takes `ctx` out of the dispatcher: for good and in silence when
    /// `close` is set, else waking the owner of the entry it pulls.
    fn withdraw(&self, ctx: &Arc<AppContext>, close: bool) -> Option<Binding> {
        let mut st = self.state.lock();
        let mut inner = ctx.inner();
        let settled = if close { BindWait::Closed } else { BindWait::Idle };
        match std::mem::replace(&mut inner.bind_wait, settled) {
            BindWait::Granted(binding) => {
                inner.wait_ticket = None;
                return Some(binding);
            }
            BindWait::Queued => {
                drop(inner);
                let pos = st.waiting.iter().position(|w| w.ctx.id == ctx.id);
                let entry = st.waiting.remove(pos.expect("a queued context has an entry"));
                if !close {
                    (entry.wake)();
                }
            }
            BindWait::Closed => inner.bind_wait = BindWait::Closed,
            BindWait::Idle => {}
        }
        None
    }

    /// Chooses the device of a grant: the CUDA 4.0 affinity device if the
    /// application already has one — full means wait, threads of one
    /// application do not split (§4.8) — else the seed heuristic over the
    /// healthy devices with a free vGPU: lowest capability-weighted load
    /// first (`(bound+1) / relative speed`, the §2 principle of "maximizing
    /// the overall processor utilization while favoring the use of more
    /// powerful cores"), preferring devices whose free memory fits,
    /// seeded-rng tiebreak within a 5% load band. Draws exactly once when
    /// there is such a device and not at all otherwise. A launch that fell
    /// short for memory (`needs` > 0) is placed only among the devices that
    /// can hold its working set alone and, while it waits for room
    /// (`parked`), granted only if it fits where it is placed now: a slower
    /// device with room does not take it while a faster one is the better
    /// place.
    fn place(
        st: &mut State,
        app_id: Option<u64>,
        mem_usage: u64,
        needs: u64,
        parked: bool,
    ) -> Option<DeviceId> {
        let may = |d: &Device| d.open() && d.capacity_alone() >= needs;
        let fits = |d: &Device| !parked || d.gpu.largest_free_block() >= needs;
        if let Some(&(dev, _)) = app_id.and_then(|app| st.app_devices.get(&app)) {
            let d = &st.devices[&dev];
            return (may(d) && fits(d)).then_some(dev);
        }
        let mut cands = std::mem::take(&mut st.placing);
        cands.clear();
        let open = st.devices.iter().filter(|(_, d)| may(d));
        cands.extend(open.map(|(&id, d)| (id, d.gpu.spec().effective_flops(), false)));
        let dev = (!cands.is_empty()).then(|| {
            let draw = st.rng.next_u64() as usize;
            let max_flops = cands.iter().map(|&(_, flops, _)| flops).fold(f64::MIN, f64::max);
            let load =
                |id, flops: f64| (st.devices[&id].bound.len() + 1) as f64 / (flops / max_flops);
            let min_load =
                cands.iter().map(|&(id, f, _)| load(id, f)).fold(f64::INFINITY, f64::min);
            // Among near-equal loads (within 5%), prefer memory fit, then draw.
            cands.retain(|&(id, f, _)| load(id, f) <= min_load * 1.05);
            for (id, _, fit) in &mut cands {
                *fit = st.devices[id].gpu.mem_available() >= mem_usage;
            }
            let any_fits = cands.iter().any(|&(_, _, fit)| fit);
            cands.retain(|&(_, _, fit)| fit == any_fits);
            cands[draw % cands.len()].0
        });
        st.placing = cands;
        dev.filter(|dev| fits(&st.devices[dev]))
    }

    /// Takes a free slot on `dev` and records the binding and, for a CUDA
    /// 4.0 application thread, its application's affinity.
    fn grant_slot(st: &mut State, dev: DeviceId, ctx_id: CtxId, app_id: Option<u64>) -> Binding {
        let device = st.devices.get_mut(&dev).expect("grant on an unregistered device");
        let index = device.free.pop().expect("grant without free slot");
        device.bound.insert(index, (ctx_id, app_id));
        if let Some(app) = app_id {
            let affinity = st.app_devices.entry(app).or_insert((dev, 0));
            debug_assert_eq!(affinity.0, dev, "application {app} split across devices");
            affinity.1 += 1;
        }
        let vgpu = &device.vgpus[index as usize];
        Binding { vgpu: vgpu.id, gpu: Arc::clone(&vgpu.gpu), gpu_ctx: vgpu.gpu_ctx }
    }

    /// Hands free vGPUs to the waiting list — each to the first entry in
    /// policy order that may run on a device with a free one — until no
    /// such pair is left, waking exactly the granted entries. Every path
    /// that frees or adds a slot or adds an entry ends here (lock held), so
    /// a free slot and an entry that could take it never outlive the lock.
    /// An entry pinned to a full device (CUDA 4.0 affinity), or still
    /// waiting for room and fitting nowhere yet, is passed over, not waited
    /// behind.
    fn grant_waiting(&self, st: &mut State) {
        while !st.waiting.is_empty() && st.devices.values().any(Device::open) {
            let mut order = std::mem::take(&mut st.order);
            self.policy_order(st, &mut order);
            let granted = order.iter().find_map(|&i| {
                let w = &st.waiting[i];
                let (app_id, mem_usage, needs, parked) =
                    (w.app_id, w.mem_usage, w.needs, w.parked_on.is_some());
                Self::place(st, app_id, mem_usage, needs, parked).map(|dev| (i, dev))
            });
            st.order = order;
            let Some((idx, dev)) = granted else { return };
            let w = st.waiting.remove(idx);
            let binding = Self::grant_slot(st, dev, w.ctx.id, w.app_id);
            {
                let mut inner = w.ctx.inner();
                if self.policy == SchedulerPolicy::CreditBased {
                    inner.credits = inner.credits.saturating_sub(1);
                }
                inner.bind_wait = BindWait::Granted(binding);
            }
            (w.wake)();
            RuntimeMetrics::bump(&self.metrics.bindings);
            RuntimeMetrics::bump(&self.metrics.targeted_wakeups);
        }
    }

    /// The waiting list's indices in policy order, into `order`.
    fn policy_order(&self, st: &State, order: &mut Vec<usize>) {
        let queue = &st.waiting;
        order.clear();
        order.extend(0..queue.len());
        match self.policy {
            SchedulerPolicy::FcfsRoundRobin => order.sort_by_key(|&i| queue[i].enq_seq),
            SchedulerPolicy::ShortestJobFirst => order.sort_by(|&a, &b| {
                let by_work = queue[a].pending_work.total_cmp(&queue[b].pending_work);
                by_work.then(queue[a].enq_seq.cmp(&queue[b].enq_seq))
            }),
            SchedulerPolicy::CreditBased => {
                if queue.iter().all(|w| w.ctx.inner().credits == 0) {
                    for w in queue {
                        w.ctx.inner().credits = 4;
                    }
                }
                order.sort_by_key(|&i| (u32::MAX - queue[i].ctx.inner().credits, queue[i].enq_seq));
            }
        }
    }

    /// Releases the vGPU bound to `ctx_id` and grants it to the next
    /// waiting context that may run there, if any. A release is a room
    /// event on its device: whatever `ctx_id` held there is gone by then.
    /// Safe to call from the owner handler, a swapper or the fault path.
    pub fn release(&self, ctx_id: CtxId, vgpu: VGpuId) {
        self.free_slot(ctx_id, vgpu, true);
    }

    /// [`Self::release`] by a launch that unbinds to retry. What it gives
    /// back is only its own attempt's, so it is no room event: two tenants
    /// that do not fit together would wake each other for ever.
    pub(crate) fn release_to_retry(&self, ctx_id: CtxId, vgpu: VGpuId) {
        self.free_slot(ctx_id, vgpu, false);
    }

    fn free_slot(&self, ctx_id: CtxId, vgpu: VGpuId, room: bool) {
        let mut st = self.state.lock();
        if let Some(device) = st.devices.get_mut(&vgpu.device) {
            if device.bound.get(&vgpu.index).is_some_and(|&(owner, _)| owner == ctx_id) {
                let (_, app) = device.bound.remove(&vgpu.index).expect("checked above");
                device.free.push(vgpu.index);
                if let Some(Entry::Occupied(mut affinity)) = app.map(|a| st.app_devices.entry(a)) {
                    affinity.get_mut().1 -= 1;
                    if affinity.get().1 == 0 {
                        affinity.remove();
                    }
                }
                if room {
                    Self::room_on(&mut st, vgpu.device);
                }
                self.grant_waiting(&mut st);
            } else {
                debug_assert!(
                    !device.bound.contains_key(&vgpu.index),
                    "release of unbound vGPU {vgpu}"
                );
            }
        }
        drop(st);
        RuntimeMetrics::bump(&self.metrics.unbindings);
    }

    /// Immediately grants a free vGPU on `device` to `ctx_id`, bypassing the
    /// waiting list — the migration path (§5.3.4), only legal when nothing
    /// is waiting (checked here).
    pub fn try_acquire_on(&self, ctx_id: CtxId, device: DeviceId) -> Option<Binding> {
        let mut st = self.state.lock();
        if !st.waiting.is_empty() || !st.devices.get(&device)?.open() {
            return None;
        }
        let binding = Self::grant_slot(&mut st, device, ctx_id, None);
        RuntimeMetrics::bump(&self.metrics.bindings);
        Some(binding)
    }

    /// Contexts currently bound to `device`, in context-id order.
    pub fn bound_on(&self, device: DeviceId) -> Vec<CtxId> {
        self.state.lock().devices.get(&device).map(Device::bound_ctxs).unwrap_or_default()
    }

    /// Calls `f` with every context bound to `device`, in vGPU order, with
    /// the dispatcher's lock held: `f` must not block or call back into the
    /// manager. For a caller that collects them into a buffer it keeps.
    pub(crate) fn each_bound_on(&self, device: DeviceId, mut f: impl FnMut(CtxId)) {
        if let Some(d) = self.state.lock().devices.get(&device) {
            d.bound.values().for_each(|&(ctx, _)| f(ctx));
        }
    }

    /// Snapshot of every registered device, in device-id order.
    pub fn device_views(&self) -> Vec<DeviceView> {
        let st = self.state.lock();
        st.devices
            .iter()
            .map(|(&id, d)| DeviceView {
                id,
                gpu: Arc::clone(&d.gpu),
                total_vgpus: d.vgpus.len(),
                free_vgpus: d.free.len(),
                bound: d.bound_ctxs(),
                effective_flops: d.gpu.spec().effective_flops(),
                mem_available: d.gpu.mem_available(),
            })
            .collect()
    }

    /// Number of contexts waiting for a binding.
    pub fn waiting_count(&self) -> usize {
        self.state.lock().waiting.len()
    }

    /// Number of contexts currently bound.
    pub fn bound_count(&self) -> usize {
        self.state.lock().devices.values().map(|d| d.bound.len()).sum()
    }

    /// Total vGPUs across healthy devices — what `cudaGetDeviceCount`
    /// reports to applications (§4.3).
    pub fn total_vgpus(&self) -> usize {
        let st = self.state.lock();
        st.devices.values().filter(|d| !d.gpu.is_failed()).map(|d| d.vgpus.len()).sum()
    }

    /// The spec of the physical device backing virtual device `index`
    /// (vGPUs enumerated device-major).
    pub fn vgpu_spec(&self, index: u32) -> Option<mtgpu_gpusim::GpuSpec> {
        let st = self.state.lock();
        let mut remaining = index as usize;
        for d in st.devices.values() {
            if remaining < d.vgpus.len() {
                return Some(d.gpu.spec().clone());
            }
            remaining -= d.vgpus.len();
        }
        None
    }

    /// Closes the dispatcher (shutdown): every entry in the waiting list,
    /// and every one queued from now on, is refused as for a context that
    /// can no longer bind, and its owner woken to look again — the look
    /// sees the runtime's flag and unwinds.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        for entry in st.waiting.drain(..) {
            entry.ctx.inner().bind_wait = BindWait::Closed;
            (entry.wake)();
        }
    }

    /// Contended acquisitions of the dispatcher's lock since the last
    /// monitor pass (debug builds only — the ranked-lock observability
    /// hook).
    pub(crate) fn take_lock_contention(&self) -> u64 {
        self.state.take_contended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::GpuSpec;
    use mtgpu_simtime::Clock;
    use std::collections::HashMap;

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
        // A waiter belongs to no device: whichever device frees a slot, the
        // release grants it.
        let (bm, _) = setup(2, 1);
        let a = ctx(1);
        let b = ctx(2);
        let ba = bm.acquire(&a, 1.0, 0, Duration::from_secs(1)).unwrap();
        let bb = bm.acquire(&b, 1.0, 0, Duration::from_secs(1)).unwrap();
        assert_ne!(ba.vgpu.device, bb.vgpu.device);
        // Both devices full; park a third context.
        let c = ctx(3);
        let bm2 = Arc::clone(&bm);
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || bm2.acquire(&c2, 1.0, 0, Duration::from_secs(5)));
        while bm.waiting_count() == 0 {
            std::hint::spin_loop();
        }
        // Free a slot on whichever device: the waiter must get it.
        bm.release(a.id, ba.vgpu);
        let bc = waiter.join().unwrap().expect("waiter stranded");
        assert_eq!(bc.vgpu.device, ba.vgpu.device);
        bm.release(b.id, bb.vgpu);
        bm.release(c.id, bc.vgpu);
        assert_eq!(bm.bound_count(), 0);
    }

    #[test]
    fn add_device_unparks_waiter_queued_with_no_device() {
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
        // Remove the device holding `a`'s binding: the waiter stays in the
        // list and gets the surviving device's capacity once it frees.
        let dev_a = ba.vgpu.device;
        let affected = bm.remove_device(dev_a);
        assert_eq!(affected, vec![a.id]);
        // Free the *other* device so the waiter can bind.
        bm.release(b.id, _bb.vgpu);
        let bc = waiter.join().unwrap().expect("waiter stranded after device removal");
        assert_ne!(bc.vgpu.device, dev_a);
    }
}

#[cfg(test)]
mod entry_tests {
    use super::*;
    use mtgpu_gpusim::{DeviceAddr, GpuSpec};
    use mtgpu_simtime::Clock;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        bm.enqueue(&waiter, 1.0, 0, None, counting(&woken));
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
        bm.enqueue(&waiter, 1.0, 0, None, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        assert!(bm.poll(&waiter, 0).is_some());
    }

    #[test]
    fn cancel_takes_a_queued_entry_out_and_returns_a_grant_that_raced_it() {
        let (bm, metrics) = manager(1);
        let (holder, queued, granted) = (ctx(1), ctx(2), ctx(3));
        let held = bm.poll(&holder, 0).unwrap();
        let woken = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&queued, 1.0, 0, None, counting(&woken));
        bm.enqueue(&granted, 1.0, 0, None, counting(&woken));
        // Cancelled while queued: out of the queue, never woken, and the
        // context neither queues nor binds again — an owner that asks
        // anyway is woken at once, to find that out.
        assert!(bm.cancel(&queued).is_none());
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        let refused = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&queued, 1.0, 0, None, counting(&refused));
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
        bm.enqueue(&waiter, 1.0, 0, None, counting(&woken));
        // Kicked while queued (its lease was reaped): out of the queue and
        // woken, so the owner runs its launch again and sees the failure.
        waiter.mark_failed(mtgpu_api::CudaError::LeaseExpired);
        assert!(bm.kick(&waiter).is_none());
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        // The reap landed between the failed poll and the enqueue instead:
        // nothing is queued for a grant nobody would use, and the owner is
        // woken all the same. A blocking caller is refused, not parked.
        bm.enqueue(&waiter, 1.0, 0, None, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 2));
        assert!(bm.acquire(&waiter, 1.0, 0, Duration::from_secs(3600)).is_none());
        // Kicked after the grant: the vGPU comes back to be released.
        let late = ctx(3);
        bm.enqueue(&late, 1.0, 0, None, counting(&woken));
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
    fn grant_that_raced_a_cancel_is_released_to_the_next_waiter() {
        // Device 0 has two vGPUs, device 1 one, all bound, two contexts
        // waiting.
        let (bm, metrics) = manager(0);
        for (i, vgpus) in [(0, 2), (1, 1)] {
            let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), i);
            bm.add_device(DeviceId(i), gpu, vgpus).unwrap();
        }
        let holders = [ctx(1), ctx(2), ctx(3)];
        let held = holders.each_ref().map(|c| bm.poll(c, 0).expect("free vGPU"));
        let (first, second) = (ctx(4), ctx(5));
        let woken = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
        bm.enqueue(&first, 1.0, 0, None, counting(&woken[0]));
        bm.enqueue(&second, 1.0, 0, None, counting(&woken[1]));
        // A slot frees on device 0: the release grants it to the first
        // waiter, and only that one is woken.
        let on_zero = held.iter().position(|b| b.vgpu.device == DeviceId(0)).unwrap();
        bm.release(holders[on_zero].id, held[on_zero].vgpu);
        assert!(matches!(first.inner().bind_wait, BindWait::Granted(_)));
        assert_eq!((woken[0].load(Ordering::SeqCst), woken[1].load(Ordering::SeqCst)), (1, 0));
        // Its channel is torn down before it takes the grant. The grant
        // comes back, and releasing it hands the slot to the second waiter:
        // it never idles while somebody waits.
        let raced = bm.cancel(&first).expect("the grant raced the cancel");
        bm.release(first.id, raced.vgpu);
        assert_eq!(woken[1].load(Ordering::SeqCst), 1, "the slot was not passed on");
        let moved = bm.poll(&second, 0).expect("the freed slot");
        assert_eq!(moved.vgpu.device, DeviceId(0));
        assert_eq!((bm.waiting_count(), bm.bound_count()), (0, 3));
        let m = metrics.snapshot();
        assert_eq!((m.bindings, m.unbindings, m.targeted_wakeups), (5, 2, 2));
    }

    #[test]
    fn policy_order_is_node_wide() {
        // Two full one-vGPU devices and two contexts waiting, the earlier
        // ticket also the shorter job. Whichever device frees its slot,
        // under either policy and whatever the placement draws, the slot is
        // the first waiter's: a tenant's turn does not hang on where
        // another's placement landed.
        let mut passed_over = Vec::new();
        for policy in [SchedulerPolicy::FcfsRoundRobin, SchedulerPolicy::ShortestJobFirst] {
            for (seed, freed) in (0..16).flat_map(|seed| [(seed, 0), (seed, 1)]) {
                let bm =
                    BindingManager::new_seeded(policy, Arc::new(RuntimeMetrics::default()), seed);
                for i in 0..2 {
                    let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), i);
                    bm.add_device(DeviceId(i), gpu, 1).unwrap();
                }
                let holders = [ctx(1), ctx(2)];
                let held = holders.each_ref().map(|c| bm.poll(c, 0).expect("free vGPU"));
                let (first, second) = (ctx(3), ctx(4));
                bm.enqueue(&first, 1.0, 0, None, Box::new(|| {}));
                bm.enqueue(&second, 2.0, 0, None, Box::new(|| {}));
                let i = held.iter().position(|b| b.vgpu.device == DeviceId(freed)).unwrap();
                bm.release(holders[i].id, held[i].vgpu);
                if bm.poll(&first, 0).is_none() {
                    passed_over.push((policy, seed, freed));
                }
            }
        }
        assert!(passed_over.is_empty(), "{} of 64: {passed_over:?}", passed_over.len());
    }

    #[test]
    fn entry_queued_with_no_device_is_granted_when_one_appears() {
        let (bm, _) = manager(0);
        let waiter = ctx(1);
        let woken = Arc::new(AtomicUsize::new(0));
        assert!(bm.poll(&waiter, 0).is_none());
        bm.enqueue(&waiter, 1.0, 0, None, counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        bm.add_device(DeviceId(0), gpu, 1).unwrap();
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        assert!(bm.poll(&waiter, 0).is_some(), "rerouted onto the new device");
    }

    const MIB: u64 = 1 << 20;

    /// A 64 MiB device with two slots, a holder bound on it with 40 MiB
    /// resident, and a launch of `retrier` needing 30 MiB that fell short
    /// there and gave its vGPU up, queued for room. Returns the manager, the
    /// entry's wake count, the holder's binding and its allocation.
    fn retrying(holder: &Arc<AppContext>, retrier: &Arc<AppContext>) -> Fixture {
        let (bm, _) = manager(0);
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        bm.add_device(DeviceId(0), gpu, 2).unwrap();
        let held = bm.poll(holder, 0).expect("free vGPU");
        let resident = held.gpu.malloc(held.gpu_ctx, 40 * MIB).unwrap();
        let mine = bm.poll(retrier, 0).expect("free vGPU");
        bm.release_to_retry(retrier.id, mine.vgpu);
        let woken = Arc::new(AtomicUsize::new(0));
        let room = Room { device: DeviceId(0), needs: 30 * MIB };
        bm.enqueue(retrier, 1.0, 0, Some(room), counting(&woken));
        (bm, woken, held, resident)
    }

    type Fixture = (Arc<BindingManager>, Arc<AtomicUsize>, Binding, DeviceAddr);

    #[test]
    fn entry_waiting_for_room_is_granted_once_the_co_tenant_in_its_way_makes_some() {
        let (holder, retrier, bystander) = (ctx(1), ctx(2), ctx(3));
        let (bm, woken, ..) = retrying(&holder, &retrier);
        // A free slot does not grant it: it waits for room on its device.
        // The fast path may take the slot past it, and a retry's own
        // release wakes nothing.
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        let passing = bm.poll(&bystander, 0).expect("the slot nobody can take");
        bm.release_to_retry(bystander.id, passing.vgpu);
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        assert!(bm.try_acquire_on(CtxId(9), DeviceId(0)).is_none(), "it is a waiter all the same");
        // The holder makes room there (frees a resident entry, or sits idle
        // at a monitor pass): granted, woken once, whether or not the
        // working set fits yet.
        assert!(bm.parked_on().into_iter().eq([DeviceId(0)]));
        bm.make_room(DeviceId(0));
        assert!(bm.parked_on().is_empty());
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        assert!(bm.poll(&retrier, 0).is_some());
    }

    #[test]
    fn entry_waiting_for_room_goes_wherever_its_working_set_fits_now() {
        let (holder, retrier) = (ctx(1), ctx(2));
        let (bm, woken, held, resident) = retrying(&holder, &retrier);
        // The memory comes back with no word from the holder: the next grant
        // step, whatever runs it — here room on a device nobody waits on —
        // finds the working set fits and grants it.
        held.gpu.free(held.gpu_ctx, resident).unwrap();
        assert_eq!(woken.load(Ordering::SeqCst), 0);
        bm.make_room(DeviceId(7));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
    }

    #[test]
    fn room_made_between_the_shortfall_and_the_enqueue_is_not_lost() {
        let (bm, _) = manager(0);
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-7), 0);
        bm.add_device(DeviceId(0), gpu, 2).unwrap();
        let (holder, retrier) = (ctx(1), ctx(2));
        let held = bm.poll(&holder, 0).unwrap();
        let resident = held.gpu.malloc(held.gpu_ctx, 40 * MIB).unwrap();
        let mine = bm.poll(&retrier, 0).unwrap();
        // The holder frees its memory after the retrier's failed look, before
        // its enqueue: the entry finds the working set fits and does not wait
        // for an event that came and went.
        held.gpu.free(held.gpu_ctx, resident).unwrap();
        bm.make_room(DeviceId(0));
        bm.release_to_retry(retrier.id, mine.vgpu);
        let woken = Arc::new(AtomicUsize::new(0));
        let room = Room { device: DeviceId(0), needs: 30 * MIB };
        bm.enqueue(&retrier, 1.0, 0, Some(room), counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
        // A vGPU release is room too.
        let (holder, retrier) = (ctx(3), ctx(4));
        let (bm, woken, held, _) = retrying(&holder, &retrier);
        bm.release(holder.id, held.vgpu);
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (0, 1));
    }

    #[test]
    fn entry_whose_working_set_a_device_cannot_hold_alone_is_placed_elsewhere() {
        let (bm, _) = manager(0);
        for (i, spec) in [GpuSpec::test_small(), GpuSpec::quadro_2000()].into_iter().enumerate() {
            let gpu = Gpu::new(spec, Clock::with_scale(1e-7), i as u32);
            bm.add_device(DeviceId(i as u32), gpu, 1).unwrap();
        }
        let needs = 100 << 20;
        assert!(bm.fits_alone(needs) && !bm.fits_alone(1 << 40));
        // The small device has a free slot, but 100 MiB is more than it
        // holds for one context: the entry waits for nobody there (nothing
        // could make room) and goes to the other device when its slot frees.
        let (busy, waiter) = (CtxId(1), ctx(2));
        let held = bm.try_acquire_on(busy, DeviceId(1)).expect("free vGPU");
        let room = Room { device: DeviceId(0), needs };
        let woken = Arc::new(AtomicUsize::new(0));
        bm.enqueue(&waiter, 1.0, 0, Some(room), counting(&woken));
        assert_eq!((bm.waiting_count(), woken.load(Ordering::SeqCst)), (1, 0));
        bm.release(busy, held.vgpu);
        assert_eq!(woken.load(Ordering::SeqCst), 1);
        assert_eq!(bm.poll(&waiter, 0).expect("granted").vgpu.device, DeviceId(1));
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
    fn removed_device_takes_its_applications_affinity_with_it() {
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
        let ba = bm.poll(&a, 0).expect("free vGPU");
        // The sibling waits for the application's device although the other
        // one is idle (§4.8).
        let sibling = ctx(2);
        sibling.inner().app_id = Some(9);
        assert!(bm.poll(&sibling, 0).is_none());
        bm.enqueue(&sibling, 1.0, 0, None, Box::new(|| {}));
        assert_eq!(bm.waiting_count(), 1);
        // The device goes away with the first thread still bound on it: the
        // affinity goes with it, and the sibling binds on the survivor.
        assert_eq!(bm.remove_device(ba.vgpu.device), vec![a.id]);
        let bs = bm.poll(&sibling, 0).expect("sibling stranded on a device that is gone");
        assert_ne!(bs.vgpu.device, ba.vgpu.device);
        // The first thread's stale release is a no-op; recovered, it follows
        // the application to its new device and waits there.
        bm.release(a.id, ba.vgpu);
        assert!(bm.poll(&a, 0).is_none());
        bm.release(sibling.id, bs.vgpu);
        assert_eq!(bm.poll(&a, 0).expect("the application's slot").vgpu.device, bs.vgpu.device);
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
