//! The gateway: the runtime's serving loop behind every wire connection.
//!
//! A wire connection is accepted by the node's reactor (remote frontends,
//! peers relaying a stream, local socketpairs). It carries *channels* —
//! (connection, chan) pairs, each backed by one [`AppContext`] — and they
//! are served here. The reactor hands over a channel's frames from one read
//! as a *run*; the run is queued on its channel's FIFO and the channel
//! *visited*: its calls run in order, each under the context's service
//! lock, up to [`VISIT_BUDGET`], and their replies posted as one batch
//! through the [`ReplySink`]. A run that finds its channel idle is visited
//! by the thread that read it (§4.3), the reactor, if [`submit`]'s rule
//! admits all of it; any other runnable channel goes on a work queue for the
//! runtime's fixed worker pool as one item, so a pipelined flush costs one
//! hand-off per [`VISIT_BUDGET`] calls and is never split between the
//! reactor and a worker. The pool starts with the reactor
//! ([`NodeRuntime::serve`]) and is handed only what a reactor read. An
//! in-process client never comes here: it runs its own calls
//! ([`crate::service::InProcessChannel`]).
//!
//! Three invariants keep this sound:
//!
//! 1. **Per-channel ordering.** A channel is taken by one thread at a time
//!    (`scheduled` flag, mutated only under the channel's queue lock), and
//!    its visitor lets go of it only after the visit's replies are posted — so
//!    calls of one channel execute, and their replies reach the client, in
//!    arrival order, exactly like a connection of its own, while different
//!    channels proceed in parallel.
//! 2. **No thread waits for a vGPU.** With blocking waits, a pool's worth
//!    of launches waiting on fully-bound vGPUs would deadlock the pool — the
//!    bound contexts' own calls (the ones that would eventually release
//!    those vGPUs) could never run. A launch that cannot bind comes back
//!    [`Abort::WouldBlock`]; the visit puts it back at the head of the
//!    channel's FIFO, posts what it has answered, and only *then* queues the
//!    context in the dispatcher's policy-ordered wait queue
//!    ([`crate::sched::BindingManager::enqueue`]) and lets go of the
//!    channel. The entry's wake — run by the release that grants the vGPU,
//!    possibly before `enqueue` returns — puts the channel back on the work
//!    queue, and the next visit runs the launch. Enqueueing any earlier
//!    would let a grant that fires at once hand the channel to a second
//!    worker while its next call, not the launch, is at the head.
//! 3. **A finished reply never waits on something that may take long.** The
//!    batch is posted before Exit's teardown, when a launch has to queue,
//!    when it holds [`VISIT_REPLY_BYTES`] of payload and when the budget
//!    runs out. The budget bounds how long one deep channel can hold a
//!    worker while others wait: past it the channel goes to the *back* of
//!    the work queue.
//!
//! The pool is sized for what the vGPU count bounds — one call in flight per
//! bound context — plus [`SPARE_WORKERS`], and that holds because no worker
//! sits out a wait that the vGPU count does not bound: a launch that gave
//! its vGPU up for want of memory (§4.5 unbind-and-retry — any number of
//! contexts may be at it at once) comes back [`Abort::WouldBlock`] too,
//! with a [`crate::sched::Room`], and waits in the same list until room is
//! made on that device.
//!
//! Teardown (Exit or disconnect) removes the channel from the map first;
//! whichever path wins the `BTreeMap::remove` does the context teardown, so
//! it happens exactly once even when an Exit races a connection drop. It
//! also withdraws the context from the dispatcher, so an entry queued for a
//! channel that is gone neither takes a vGPU nor spends a wake-up.
//!
//! # Offload (§4.7)
//!
//! On a node with offloading configured, a new channel claims a local
//! service slot with its first call, unless that call is the
//! [`CudaCall::Offloaded`] marker of a stream a peer relayed here. With no
//! slot left the channel is not served by the pool: the gateway hands it to
//! a relay thread ([`NodeRuntime::offload`]) as a [`RelayedChannel`] and
//! from then on only forwards its calls. That thread, not the reactor,
//! connects to the peer, and no pool worker is tied up for the stream's
//! lifetime. If no peer answers, the relay thread serves the stream itself,
//! over the slot budget, one call at a time as it would have forwarded
//! them: through the in-process path, an
//! [`InProcessChannel`](crate::service::InProcessChannel) over the context
//! [`submit`] made. An in-process client claims no slot and is never
//! relayed.

use crate::ctx::AppContext;
use crate::metrics::RuntimeMetrics;
use crate::runtime::NodeRuntime;
use crate::service::{self, Abort, InProcessChannel};
use mtgpu_api::protocol::{CudaCall, CudaReply, ReplyValue};
use mtgpu_api::transport::{
    spawn_reactor, ConnId, MuxService, ReactorConfig, ReactorHandle, ReplyQueue, ReplySink,
};
use mtgpu_api::{CudaError, Transport};
use mtgpu_simtime::{lock_rank, RankedCondvar, RankedMutex, Shadow};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Weak};

/// Workers beyond one per vGPU: every slot stays servable while unbound and
/// teardown work never waits on launches.
const SPARE_WORKERS: usize = 4;

/// Most calls one visit executes before the channel goes to the back of the
/// work queue. Large enough that the two-frame `launch()` and the usual
/// pipelined flush are one visit; small enough that a channel with a deep
/// FIFO cannot keep a worker from the channels queued behind it. A constant
/// because nothing in the tree wants a second value.
pub const VISIT_BUDGET: usize = 64;

/// Most reply payload one visit holds back before it posts what it has, so
/// a run of bulk `MemcpyD2H`s leaves every few of them instead of sitting in
/// the worker (then, all at once, under the out lock) until the visit ends.
pub(crate) const VISIT_REPLY_BYTES: usize = 256 << 10;

/// A channel's key: (connection, channel-on-that-connection).
type ChanKey = (ConnId, u64);

/// Pending calls of one channel.
struct ChanQueue {
    /// FIFO of (request id, call) not yet executed.
    calls: VecDeque<(u64, CudaCall)>,
    /// Whether the channel is taken: on the work queue, being visited or
    /// waiting in the dispatcher for its wake (at most one of them). Clear
    /// only while `calls` is empty.
    scheduled: Shadow<bool>,
}

/// One channel: an application context plus its call FIFO.
struct ChannelState {
    ctx: Arc<AppContext>,
    queue: RankedMutex<ChanQueue>,
    /// Whether the channel claimed a §4.7 local-service slot at creation,
    /// to give back at teardown.
    holds_slot: bool,
}

impl ChannelState {
    fn new(ctx: Arc<AppContext>, holds_slot: bool) -> Arc<Self> {
        let scheduled = Shadow::new("mux.chan.scheduled", false);
        let calls = VecDeque::new();
        let queue = RankedMutex::new(lock_rank::CHAN_QUEUE, ChanQueue { calls, scheduled });
        Arc::new(ChannelState { ctx, queue, holds_slot })
    }
}

/// What the gateway keeps for one channel key.
enum Chan {
    /// Served here, by the worker pool.
    Local(Arc<ChannelState>),
    /// Handed to a relay thread (§4.7), which owns the context: the gateway
    /// only forwards calls. Dropping the sender hangs the relay up.
    Relayed(Sender<(u64, CudaCall)>),
}

/// The relay thread's end of a channel the gateway handed off. Calls arrive
/// in the order the client sent them and each reply is posted before the
/// next call is taken, so the channel's call/reply order holds without the
/// pool.
pub(crate) struct RelayedChannel {
    rt: Weak<NodeRuntime>,
    key: ChanKey,
    calls: Receiver<(u64, CudaCall)>,
    sink: ReplySink,
    /// Request id of the call handed out last, until its reply is posted.
    awaiting: Option<u64>,
    /// Whether the key has left the gateway's map ([`Self::leave`]).
    left: bool,
}

impl RelayedChannel {
    /// Blocks for the stream's next call; `None` once the client is gone.
    pub(crate) fn recv(&mut self) -> Option<CudaCall> {
        let (id, call) = self.calls.recv().ok()?;
        self.awaiting = Some(id);
        Some(call)
    }

    /// Answers the call taken last; `false` if there is none to answer.
    pub(crate) fn send(&mut self, reply: CudaReply) -> bool {
        let Some(id) = self.awaiting.take() else { return false };
        // A reply for a connection that is gone is dropped by the sink; the
        // next `recv` then reports the hang-up.
        self.sink.reply(self.key.0, id, reply);
        true
    }

    /// Takes the key out of the gateway's map, unless a disconnect took it
    /// already; from then on nothing more is forwarded here. The gateway
    /// forwards under the map lock, so nothing is queued after the removal.
    fn leave(&mut self) {
        if std::mem::replace(&mut self.left, true) {
            return;
        }
        if let Some(rt) = self.rt.upgrade() {
            let mut channels = rt.gateway().channels.lock();
            if matches!(channels.get(&self.key), Some(Chan::Relayed(_))) {
                channels.remove(&self.key);
            }
        }
    }
}

impl Drop for RelayedChannel {
    /// The stream is over (Exit, hang-up or shutdown): the key leaves the
    /// map, and what was queued behind an Exit is told the channel is gone.
    fn drop(&mut self) {
        self.leave();
        let dead: Vec<(u64, CudaReply)> = std::iter::from_fn(|| self.calls.try_recv().ok())
            .map(|(id, _)| (id, Err(CudaError::Disconnected)))
            .collect();
        self.sink.reply_batch(self.key.0, dead);
    }
}

/// A relay thread's whole life (§4.7): the stream runs on a peer or — no
/// peer reached — on this thread, through the in-process path over the
/// context `submit` made, one call at a time either way. The channel leaves
/// the gateway's map before the context leaves the registry (an `Exit`
/// takes the key out before it runs), so a drained registry means nothing
/// of the stream is left anywhere; a context that served no call goes when
/// `local` drops.
pub(crate) fn run_relay(
    rt: &Arc<NodeRuntime>,
    ctx: Arc<AppContext>,
    mut chan: RelayedChannel,
    first: CudaCall,
) {
    let mut peer = rt.dial_peer(ctx.id);
    let mut local = InProcessChannel { rt: Arc::clone(rt), ctx: Some(ctx) };
    let here = peer.is_none();
    if here {
        rt.force_keep_local();
    }
    let via: &mut dyn Transport = match peer.as_mut() {
        Some(peer) => peer,
        None => &mut local,
    };
    let mut next = Some(first);
    while let Some(call) = next.take().or_else(|| chan.recv()) {
        let done = matches!(call, CudaCall::Exit);
        if done {
            chan.leave();
        }
        if !chan.send(via.roundtrip(call)) || done {
            break;
        }
    }
    // In this order: the peer's connection, the key, the context.
    drop(peer);
    drop(chan);
    drop(local);
    if here {
        rt.release_local_slot();
    }
}

enum WorkItem {
    /// A channel became runnable: visit it.
    Chan(ChanKey),
    /// Channels removed on disconnect, awaiting context teardown.
    Teardown(Vec<Arc<ChannelState>>),
    /// Shutdown: the worker that takes it passes it on and exits.
    Stop,
}

/// The pool's work queue: FIFO, many producers (the reactor, workers, a
/// grant's wake under the dispatcher lock), many consumers (the workers).
/// A send wakes at most one parked worker, and none when nobody is parked.
struct WorkQueue {
    items: RankedMutex<VecDeque<WorkItem>>,
    ready: RankedCondvar,
    /// Waits begun in `recv` (test probe).
    #[cfg(test)]
    waits: std::sync::atomic::AtomicUsize,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            items: RankedMutex::new(lock_rank::GATEWAY_WORK, VecDeque::new()),
            ready: RankedCondvar::new(),
            #[cfg(test)]
            waits: Default::default(),
        }
    }

    fn send(&self, item: WorkItem) {
        self.items.lock().push_back(item);
        self.ready.notify_one();
    }

    /// Blocks until an item is queued.
    fn recv(&self) -> WorkItem {
        let mut items = self.items.lock();
        loop {
            if let Some(item) = items.pop_front() {
                return item;
            }
            #[cfg(test)]
            self.waits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.ready.wait(&mut items);
        }
    }

    fn try_recv(&self) -> Option<WorkItem> {
        self.items.lock().pop_front()
    }
}

/// The gateway's state, owned by the runtime.
pub(crate) struct Gateway {
    sink: ReplySink,
    /// channel key → state. BTreeMap so disconnects can range-scan a
    /// connection's channels and iteration order is deterministic.
    channels: RankedMutex<BTreeMap<ChanKey, Chan>>,
    /// Shared with the wakes of channels waiting in the dispatcher.
    work: Arc<WorkQueue>,
}

impl Gateway {
    pub(crate) fn new() -> Gateway {
        Gateway {
            // The other half is minted when a reactor is put in front
            // ([`NodeRuntime::reply_queue`]).
            sink: ReplySink::channel().0,
            channels: RankedMutex::new(lock_rank::CONN_CHANNELS, BTreeMap::new()),
            work: Arc::new(WorkQueue::new()),
        }
    }
}

/// Starts the pool: one worker per vGPU plus the spares. Returns their
/// number.
pub(crate) fn spawn_pool(rt: &Arc<NodeRuntime>) -> usize {
    let workers = rt.bindings().total_vgpus() + SPARE_WORKERS;
    for n in 0..workers {
        rt.spawn_handler(&format!("mux-worker-{n}"), worker_loop);
    }
    workers
}

impl NodeRuntime {
    /// Puts the node's one reactor in front of the gateway, on `listener`,
    /// and starts the worker pool behind it: the wire and the threads that
    /// serve it start together. Call it once; the reactor is stopped
    /// through the handle, before [`Self::shutdown`].
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<ReactorHandle> {
        // Workers before the reactor: the order in which threads first
        // allocate decides which of them share a malloc arena, and the
        // reactor first raised `mtgpu-perf`'s peak RSS by up to a quarter.
        spawn_pool(self);
        spawn_reactor(listener, ReactorConfig::default(), self.clone(), self.reply_queue())
    }

    /// The gateway's half of the reply path. [`Self::serve`] hands it to
    /// the reactor; tests and mtcheck scenarios attach a socket to it
    /// directly and play worker through [`Self::serve_queued`].
    #[doc(hidden)]
    pub fn reply_queue(&self) -> ReplyQueue {
        self.gateway().sink.queue()
    }

    /// Live wire channels (diagnostic): an in-process client has none.
    pub fn channel_count(&self) -> usize {
        self.gateway().channels.lock().len()
    }

    /// Plays worker on the calling thread until the work queue is empty;
    /// returns how many items it served. For tests and mtcheck scenarios on
    /// a runtime nobody called [`Self::serve`] on: no pool races them, so
    /// they decide which thread runs which visit.
    #[doc(hidden)]
    pub fn serve_queued(&self) -> usize {
        let mut served = 0;
        while let Some(item) = self.gateway().work.try_recv() {
            if !serve_item(self, item) {
                break;
            }
            served += 1;
        }
        served
    }
}

/// Queues a run — consecutive calls of one channel, in arrival order — on
/// its channel, created and its §4.7 placement decided with the run's first
/// call, and makes the channel runnable. Never waits on another thread:
/// context creation is a bounded map-insert + registry insert, plus one
/// thread spawn for a channel this node offloads. `budget` is what the
/// reactor's sweep has left; the reactor visits the channel itself only if
/// it is idle, the run no longer than the budget and every call admitted by
/// [`service::fits_on_reactor`]. Otherwise the whole run is one work item,
/// so a flush is never split between the reactor's write and a worker's.
fn submit(rt: &NodeRuntime, key: ChanKey, run: Vec<(u64, CudaCall)>, budget: &mut usize) {
    let g = rt.gateway();
    if rt.is_shutdown() {
        // The pool is stopping: nobody would serve the calls.
        let dead = run.into_iter().map(|(id, _)| (id, Err(CudaError::Disconnected)));
        return g.sink.reply_batch(key.0, dead);
    }
    let state = {
        let mut channels = g.channels.lock();
        match channels.get(&key) {
            Some(Chan::Local(s)) => Arc::clone(s),
            Some(Chan::Relayed(relay)) => {
                // Under the map lock, so the relay's final drain (which
                // removes the key first) misses nothing.
                run.into_iter().for_each(|call| drop(relay.send(call)));
                return;
            }
            None => {
                let Some((_, first)) = run.first() else { return };
                let ctx = rt.new_context(format!("mux-{}-{}", key.0, key.1));
                RuntimeMetrics::bump(&rt.metrics_ref().mux_channels);
                // §4.7: a stream a peer relayed here is served
                // unconditionally; any other new one needs a slot.
                let holds_slot = rt.offloads() && !matches!(first, CudaCall::Offloaded);
                if holds_slot && !rt.try_keep_local() {
                    // mtlint: allow(unranked-lock, reason = "one consumer, the relay thread, which waits holding no lock; an unbounded send never blocks the map lock it runs under; dropping the sender is the hang-up")
                    let (relay, calls) = mpsc::channel();
                    // The relay thread is handed the first call; the rest
                    // of the run waits for it in order.
                    let mut run = run.into_iter();
                    let (id, first) = run.next().expect("the run's first call");
                    run.for_each(|call| drop(relay.send(call)));
                    channels.insert(key, Chan::Relayed(relay));
                    // The thread spawn need not hold the map.
                    drop(channels);
                    let (sink, awaiting) = (g.sink.clone(), Some(id));
                    let relayed =
                        RelayedChannel { rt: rt.me(), key, calls, sink, awaiting, left: false };
                    return rt.offload(ctx, relayed, first);
                }
                let state = ChannelState::new(ctx, holds_slot);
                channels.insert(key, Chan::Local(Arc::clone(&state)));
                state
            }
        }
    };
    let here = run.len() <= *budget
        && run.iter().all(|(_, call)| service::fits_on_reactor(rt, &state.ctx, call));
    let idle = {
        let mut q = state.queue.lock();
        q.calls.extend(run);
        !std::mem::replace(&mut *q.scheduled, true)
    };
    match (idle, here) {
        (true, true) => serve_channel(rt, key, Some(budget)),
        (true, false) => g.work.send(WorkItem::Chan(key)),
        (false, _) => {}
    }
}

impl MuxService for NodeRuntime {
    /// No budget: the call is the pool's (the path tests playing worker drive).
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall) {
        self.on_sweep_run(conn, chan, vec![(id, call)], &mut 0);
    }

    fn on_sweep_run(&self, conn: ConnId, chan: u64, run: Vec<(u64, CudaCall)>, left: &mut usize) {
        RuntimeMetrics::add(&self.metrics_ref().mux_requests, run.len() as u64);
        submit(self, (conn, chan), run, left);
    }

    /// Detaches the connection's channels quickly and hands the
    /// (potentially blocking) context teardown to the worker pool.
    fn on_disconnect(&self, conn: ConnId) {
        let g = self.gateway();
        let removed: Vec<Arc<ChannelState>> = {
            let mut channels = g.channels.lock();
            let keys: Vec<ChanKey> =
                channels.range((conn, 0)..=(conn, u64::MAX)).map(|(k, _)| *k).collect();
            // A relayed channel's sender drops here: its relay thread sees
            // the hang-up and does that context's teardown itself.
            keys.into_iter()
                .filter_map(|k| match channels.remove(&k) {
                    Some(Chan::Local(state)) => Some(state),
                    _ => None,
                })
                .collect()
        };
        if !removed.is_empty() {
            g.work.send(WorkItem::Teardown(removed));
        }
    }
}

/// Stops serving: posts the stop marker behind whatever is queued.
pub(crate) fn stop(rt: &NodeRuntime) {
    rt.gateway().work.send(WorkItem::Stop);
}

/// Tears a removed channel's context down and gives its local-service slot
/// back.
fn retire(rt: &NodeRuntime, state: &ChannelState) {
    service::teardown(rt, &state.ctx);
    if state.holds_slot {
        rt.release_local_slot();
    }
}

/// Payload bytes a reply carries onto the wire (zero for the scalar ones).
fn bulk_bytes(reply: &CudaReply) -> usize {
    match reply {
        Ok(ReplyValue::Bytes(buf)) => buf.payload.len(),
        Ok(ReplyValue::Image(image)) => image.data_bytes(),
        _ => 0,
    }
}

/// A pool worker's life: work items until the stop marker.
fn worker_loop(rt: &Arc<NodeRuntime>) {
    while serve_item(rt, rt.gateway().work.recv()) {}
}

/// Serves one work item; `false` on the stop marker, which stays queued for
/// the next worker.
fn serve_item(rt: &NodeRuntime, item: WorkItem) -> bool {
    match item {
        WorkItem::Stop => {
            rt.gateway().work.send(WorkItem::Stop);
            return false;
        }
        WorkItem::Teardown(states) => {
            for state in states {
                // The connection is gone: queued calls get no replies (the
                // sink drops them anyway) — just release what the context
                // holds. Waits on the service lock until any in-flight call
                // finishes.
                retire(rt, &state);
            }
        }
        WorkItem::Chan(key) => serve_channel(rt, key, None),
    }
    true
}

/// One visit to a runnable channel: executes its queued calls in order, up
/// to [`VISIT_BUDGET`], and posts their replies as one batch. The reactor's
/// visit (one run, `sweep` the budget it takes one from per call it runs)
/// waits neither for the service lock nor for a device: held elsewhere (a
/// victim swap, a migration's quiesce, another channel's kernel), the call
/// and the rest of the run go to the pool.
fn serve_channel(rt: &NodeRuntime, key: ChanKey, mut sweep: Option<&mut usize>) {
    let g = rt.gateway();
    let state = match g.channels.lock().get(&key) {
        Some(Chan::Local(state)) => Arc::clone(state),
        // Torn down between scheduling and service: nothing to do.
        _ => return,
    };
    let conn = key.0;
    // Before a visit lets go of a channel whose head call cannot run now:
    // the call back at the head (ordering!), then what it did answered.
    let put_back = |call, replies| {
        state.queue.lock().calls.push_front(call);
        g.sink.reply_batch(conn, replies);
    };
    let mut replies: Vec<(u64, CudaReply)> = Vec::new();
    let mut held_bytes = 0;
    let mut served = 0;
    while served < VISIT_BUDGET {
        let head = {
            let mut q = state.queue.lock();
            let head = q.calls.pop_front();
            // The channel goes idle only with nothing left to post: while
            // `scheduled` is set no other thread can execute its next call
            // and get that reply to the client ahead of this visit's.
            if head.is_none() && replies.is_empty() {
                *q.scheduled = false;
            }
            head
        };
        let Some((id, call)) = head else {
            if replies.is_empty() {
                return;
            }
            // Post, then look again: a call may have arrived meanwhile.
            g.sink.reply_batch(conn, std::mem::take(&mut replies));
            held_bytes = 0;
            continue;
        };
        served += 1;
        let is_exit = matches!(call, CudaCall::Exit);
        let outcome = service::run_call(rt, &state.ctx, call, sweep.is_some());
        // What the pool is handed back is the pool's to run and count.
        let ran = !matches!(outcome, Err(Abort::Busy(_)));
        if let Some(left) = sweep.as_deref_mut().filter(|_| ran) {
            *left -= 1;
        }
        let reply = match outcome {
            Ok(value) => Ok(value),
            Err(Abort::Fail(e)) => Err(e),
            Err(Abort::Busy(call)) => {
                put_back((id, call), replies);
                return g.work.send(WorkItem::Chan(key));
            }
            Err(_) if rt.is_shutdown() => Err(CudaError::Disconnected),
            Err(Abort::WouldBlock { spec, room }) => {
                let (work, mem) = service::queue_key(rt, &state.ctx, &spec);
                put_back((id, CudaCall::Launch { spec }), replies);
                // From here the channel is the dispatcher's: the wake, which
                // may have run by the time `enqueue` returns, hands it to
                // whichever worker is free, with the launch at its head.
                let queue = Arc::clone(&g.work);
                let wake = move || queue.send(WorkItem::Chan(key));
                return rt.bindings().enqueue(&state.ctx, work, mem, room, Box::new(wake));
            }
        };
        held_bytes += bulk_bytes(&reply);
        replies.push((id, reply));
        if held_bytes >= VISIT_REPLY_BYTES {
            g.sink.reply_batch(conn, std::mem::take(&mut replies));
            held_bytes = 0;
        }
        if is_exit {
            g.sink.reply_batch(conn, replies);
            // Remove-then-teardown; a racing disconnect may have won the
            // removal, in which case it owns the teardown.
            let removed = g.channels.lock().remove(&key);
            if let Some(Chan::Local(owned)) = removed {
                // Whatever was queued behind the Exit is told the channel
                // is gone.
                let dead: Vec<(u64, CudaReply)> = {
                    let mut q = owned.queue.lock();
                    q.calls.drain(..).map(|(id, _)| (id, Err(CudaError::Disconnected))).collect()
                };
                g.sink.reply_batch(conn, dead);
                retire(rt, &owned);
            }
            return;
        }
    }
    // Out of budget: post first, then, with calls still queued, `scheduled`
    // stays set and the channel goes behind whatever else is runnable.
    g.sink.reply_batch(conn, replies);
    let more = {
        let mut q = state.queue.lock();
        *q.scheduled = !q.calls.is_empty();
        *q.scheduled
    };
    if more {
        g.work.send(WorkItem::Chan(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use mtgpu_api::client::CudaClient;
    use mtgpu_api::protocol::{AllocKind, ModuleHandle, MuxFrame};
    use mtgpu_api::transport::{FrameBuf, FrontendClient, MuxConnection, SWEEP_RUN_BUDGET};
    use mtgpu_gpusim::{
        DeviceId, Driver, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work,
    };
    use mtgpu_simtime::Clock;
    use std::time::Duration;

    fn quiet(cfg: RuntimeConfig) -> RuntimeConfig {
        RuntimeConfig { background_monitor: false, ..cfg }
    }

    /// A runtime over `devices` small GPUs with a reactor in front of it.
    fn start_node(devices: usize) -> (Arc<NodeRuntime>, ReactorHandle) {
        let driver =
            Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small(); devices]);
        let rt = NodeRuntime::start(driver, quiet(RuntimeConfig::default()));
        let reactor = rt.serve(TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
        (rt, reactor)
    }

    #[test]
    fn end_to_end_over_reactor() {
        let (rt, reactor) = start_node(2);
        let conn = MuxConnection::connect(reactor.addr()).unwrap();
        // Two channels on one socket, interleaved.
        let mut a = FrontendClient::new(conn.channel());
        let mut b = FrontendClient::new(conn.channel());
        assert_eq!(a.get_device_count().unwrap(), 8);
        assert_eq!(b.get_device_count().unwrap(), 8);
        let pa = a.malloc(1024).unwrap();
        let pb = b.malloc(2048).unwrap();
        a.memcpy_h2d(pa, mtgpu_api::HostBuf::from_slice(&[1, 2, 3])).unwrap();
        b.memcpy_h2d(pb, mtgpu_api::HostBuf::from_slice(&[9, 9])).unwrap();
        assert_eq!(a.memcpy_d2h(pa, 3).unwrap().payload[..3], [1, 2, 3]);
        a.exit().unwrap();
        b.exit().unwrap();
        assert!(rt.wait_idle(Duration::from_secs(10)), "contexts must tear down");
        assert_eq!(rt.channel_count(), 0);
        assert!(rt.metrics().mux_channels >= 2);
        reactor.shutdown();
        rt.shutdown();
    }

    #[test]
    fn disconnect_tears_channels_down() {
        let (rt, reactor) = start_node(1);
        let conn = MuxConnection::connect(reactor.addr()).unwrap();
        let mut c = FrontendClient::new(conn.channel());
        let _ = c.malloc(4096).unwrap();
        // Drop the socket without Exit: the reactor must notice and the
        // gateway must release the context and its memory.
        conn.shutdown();
        assert!(rt.wait_idle(Duration::from_secs(10)), "disconnect must tear down");
        assert_eq!(rt.channel_count(), 0);
        reactor.shutdown();
        rt.shutdown();
    }

    /// A runtime nobody called `serve` on, so it has no pool (the test is
    /// the worker), and the client end
    /// of a loopback socket attached to its sink as connection 1. The tests
    /// that feed it through `on_request` drive the pool path: with no sweep
    /// budget every call is queued for a visit the test plays; [`sweep`]
    /// feeds a run the way the reactor does.
    fn poolless_runtime(cfg: RuntimeConfig) -> (Arc<NodeRuntime>, std::net::TcpStream) {
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(driver, quiet(cfg));
        (Arc::clone(&rt), attach_client(&rt, 1))
    }

    /// The client end of a loopback socket attached as connection `conn`.
    fn attach_client(rt: &NodeRuntime, conn: ConnId) -> std::net::TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        rt.reply_queue().attach(conn, listener.accept().unwrap().0);
        client
    }

    /// Reads `want` response frames off the client end, in wire order.
    fn read_replies(client: &mut std::net::TcpStream, want: usize) -> Vec<(u64, CudaReply)> {
        client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut framebuf = FrameBuf::new();
        let mut got = Vec::new();
        while got.len() < want {
            assert_ne!(framebuf.read_from(client).expect("reply bytes"), 0, "early EOF");
            while let Some(frame) = framebuf.next_frame::<MuxFrame>().expect("frame decodes") {
                let MuxFrame::Response { id, reply } = frame else { panic!("not a response") };
                got.push((id, reply));
            }
        }
        got
    }

    /// A run of connection 1's channel `chan` read by the reactor, its
    /// calls numbered from `first`, with what is left of the sweep's budget:
    /// the gateway may run it on the calling thread.
    fn sweep(
        rt: &NodeRuntime,
        chan: u64,
        first: u64,
        calls: impl IntoIterator<Item = CudaCall>,
        budget: &mut usize,
    ) {
        rt.on_sweep_run(1, chan, (first..).zip(calls).collect(), budget);
    }

    fn malloc() -> CudaCall {
        CudaCall::Malloc { size: 64, kind: AllocKind::Linear }
    }

    fn register_noop() -> CudaCall {
        CudaCall::RegisterFunction { module: ModuleHandle(1), kernel: KernelDesc::plain("noop") }
    }

    fn noop_launch() -> CudaCall {
        CudaCall::Launch {
            spec: LaunchSpec {
                kernel: "noop".into(),
                config: LaunchConfig::default(),
                args: Vec::new(),
                work: Work::flops(1.0),
            },
        }
    }

    fn nothing_more_arrives(client: &mut std::net::TcpStream) {
        client.set_nonblocking(true).unwrap();
        let err = FrameBuf::new().read_from(client).expect_err("a reply nobody sent");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        client.set_nonblocking(false).unwrap();
    }

    /// Items on the work queue.
    fn queued(rt: &NodeRuntime) -> usize {
        rt.gateway().work.items.lock().len()
    }

    /// The state of a channel the pool serves.
    fn local_state(rt: &NodeRuntime, key: ChanKey) -> Arc<ChannelState> {
        match rt.gateway().channels.lock().get(&key) {
            Some(Chan::Local(state)) => Arc::clone(state),
            _ => panic!("channel {key:?} is not served here"),
        }
    }

    #[test]
    fn pipelined_flush_costs_one_hand_off_per_visit_budget_and_keeps_order() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        // A full client pipeline (MAX_PIPELINE = 160) and the call that
        // flushes it, read as one run: all of it the pool's, none run here.
        const CALLS: u64 = 161;
        let mut budget = SWEEP_RUN_BUDGET;
        sweep(&rt, 1, 0, std::iter::repeat_with(malloc).take(CALLS as usize), &mut budget);
        assert_eq!((budget, queued(&rt)), (SWEEP_RUN_BUDGET, 1), "one work item for the run");
        nothing_more_arrives(&mut client);
        assert_eq!(rt.serve_queued(), (CALLS as usize).div_ceil(VISIT_BUDGET));
        let replies = read_replies(&mut client, CALLS as usize);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..CALLS), "replies out of order");
        assert!(replies.iter().all(|(_, r)| matches!(r, Ok(ReplyValue::Ptr(_)))));
        // Idle again: the next request schedules the channel afresh. Exit
        // answers what the visit produced and itself before it tears down;
        // what was queued behind it is told the channel is gone.
        for (id, call) in [malloc(), CudaCall::Exit, malloc()].into_iter().enumerate() {
            rt.on_request(1, 1, CALLS + id as u64, call);
        }
        assert_eq!(rt.serve_queued(), 1);
        let last = read_replies(&mut client, 3);
        assert!(last.iter().map(|(id, _)| *id).eq(CALLS..CALLS + 3));
        assert!(matches!(last[0].1, Ok(ReplyValue::Ptr(_))));
        assert_eq!(last[1].1, Ok(ReplyValue::Unit));
        assert_eq!(last[2].1, Err(CudaError::Disconnected));
        assert_eq!(rt.channel_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn reactor_runs_a_call_on_an_idle_channel_and_leaves_the_rest_to_the_pool() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        let mut budget = SWEEP_RUN_BUDGET;
        // An idle channel: answered before the hook returns, nothing queued.
        sweep(&rt, 1, 0, [malloc()], &mut budget);
        assert!(matches!(read_replies(&mut client, 1)[0], (0, Ok(ReplyValue::Ptr(_)))));
        assert_eq!(queued(&rt), 0);
        assert_eq!(budget, SWEEP_RUN_BUDGET - 1);
        // A context another thread holds (a victim swap, a quiesce): the
        // reactor does not wait for it, the pool does, and the rest of the
        // run with it; the channel is taken from then on, so a later run
        // queues behind it even with budget left.
        let state = local_state(&rt, (1, 1));
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _service = state.ctx.service_lock();
                held.wait();
                release.wait();
            });
            held.wait();
            sweep(&rt, 1, 1, [malloc(), CudaCall::GetDeviceCount], &mut budget);
            sweep(&rt, 1, 3, [CudaCall::GetDeviceCount], &mut budget);
            release.wait();
        });
        assert_eq!(queued(&rt), 1);
        // An Exit, and any call once the sweep's budget is spent: the pool's.
        // What the pool is handed takes none of the budget.
        sweep(&rt, 2, 10, [CudaCall::Exit], &mut budget);
        sweep(&rt, 3, 20, [CudaCall::GetDeviceCount], &mut 0);
        assert_eq!(queued(&rt), 3);
        assert_eq!(budget, SWEEP_RUN_BUDGET - 1);
        assert_eq!(rt.serve_queued(), 3);
        let ids: Vec<u64> = read_replies(&mut client, 5).iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [1, 2, 3, 10, 20]);
        assert_eq!((rt.metrics().mux_requests, rt.channel_count()), (6, 2));
        rt.shutdown();
    }

    #[test]
    fn call_the_reactor_finds_its_device_busy_for_goes_to_the_pool_and_keeps_its_place() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        // Channel 1 binds and allocates, all of it run here.
        sweep(&rt, 1, 0, [register_noop(), noop_launch(), malloc()], &mut SWEEP_RUN_BUDGET.clone());
        let Ok(ReplyValue::Ptr(src)) = read_replies(&mut client, 3)[2].1 else { panic!("malloc") };
        // Another thread's work occupies the device (a kernel, a swap): a
        // copy of the bound channel, and a launch that binds the unbound
        // one, stop before they touch it and are the pool's with the rest of
        // their runs; the channel keeps its call order, and calls that need
        // no device still run here.
        let gpu = rt.driver().device(DeviceId(0)).unwrap();
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let mut budget = SWEEP_RUN_BUDGET;
        std::thread::scope(|s| {
            s.spawn(|| {
                let _device = gpu.try_hold().expect("an idle device");
                held.wait();
                release.wait();
            });
            held.wait();
            sweep(&rt, 1, 3, [CudaCall::MemcpyD2H { src, len: 64 }, noop_launch()], &mut budget);
            sweep(&rt, 2, 10, [CudaCall::GetDeviceCount], &mut budget);
            sweep(&rt, 3, 20, [register_noop(), noop_launch()], &mut budget);
            release.wait();
        });
        let ids: Vec<u64> = read_replies(&mut client, 2).iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [10, 20]);
        nothing_more_arrives(&mut client);
        assert_eq!((budget, queued(&rt)), (SWEEP_RUN_BUDGET - 2, 2));
        assert_eq!(rt.load().bound, 2, "the launch that stopped keeps the vGPU it bound");
        assert_eq!(rt.serve_queued(), 2);
        let late = read_replies(&mut client, 3);
        assert!(matches!(late[0], (3, Ok(ReplyValue::Bytes(_)))), "{late:?}");
        assert!(matches!(late[1], (4, Ok(ReplyValue::LaunchDone { .. }))), "{late:?}");
        assert!(matches!(late[2], (21, Ok(ReplyValue::LaunchDone { .. }))), "{late:?}");
        assert_eq!(rt.metrics().launches, 3);
        rt.shutdown();
    }

    #[test]
    fn launch_the_reactor_cannot_bind_waits_in_the_dispatcher_and_the_pool_finishes_it() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::serialized());
        let hog = rt.new_context("hog".into());
        let held = rt.bindings().poll(&hog, 0).expect("free vGPU");
        let mut budget = SWEEP_RUN_BUDGET;
        sweep(&rt, 1, 0, [register_noop(), noop_launch(), malloc()], &mut budget);
        // The registration and the launch ran here; the launch found no
        // vGPU and left the channel, launch at its head and the malloc
        // behind it, to the dispatcher — not to the work queue.
        assert_eq!(read_replies(&mut client, 1)[0], (0, Ok(ReplyValue::Unit)));
        nothing_more_arrives(&mut client);
        let m = rt.metrics();
        assert_eq!((budget, m.mux_retries, rt.load().waiting), (SWEEP_RUN_BUDGET - 2, 1, 1));
        assert_eq!(queued(&rt), 0);
        // The release's wake hands the channel to the pool: one visit runs
        // the launch and what queued behind it, in order.
        rt.bindings().release(hog.id, held.vgpu);
        assert_eq!(rt.serve_queued(), 1);
        let late = read_replies(&mut client, 2);
        assert!(matches!(late[0], (1, Ok(ReplyValue::LaunchDone { .. }))), "{late:?}");
        assert!(matches!(late[1], (2, Ok(ReplyValue::Ptr(_)))), "{late:?}");
        assert_eq!(rt.metrics().launches, 1);
        rt.on_request(1, 1, 3, CudaCall::Exit);
        rt.serve_queued();
        let m = rt.metrics();
        assert_eq!((m.bindings, m.unbindings), (2, 2));
        rt.shutdown();
    }

    #[test]
    fn a_long_flush_read_as_two_runs_is_the_pools_whole_and_keeps_order() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        // A full client pipeline split across two reads of one sweep, no
        // worker looking yet: the second run queues behind the first.
        const CALLS: u64 = 160;
        const SPLIT: u64 = 100;
        let mut budget = SWEEP_RUN_BUDGET;
        let calls = |n| std::iter::repeat_with(malloc).take(n as usize);
        sweep(&rt, 1, 0, calls(SPLIT), &mut budget);
        sweep(&rt, 1, SPLIT, calls(CALLS - SPLIT), &mut budget);
        nothing_more_arrives(&mut client);
        assert_eq!((budget, queued(&rt)), (SWEEP_RUN_BUDGET, 1));
        // One hand-off per visit budget of the flush, in call order.
        assert_eq!(rt.serve_queued(), (CALLS as usize).div_ceil(VISIT_BUDGET));
        let replies = read_replies(&mut client, CALLS as usize);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..CALLS));
        assert!(replies.iter().all(|(_, r)| matches!(r, Ok(ReplyValue::Ptr(_)))));
        rt.shutdown();
    }

    #[test]
    fn a_run_of_at_most_k_fitting_calls_on_an_idle_channel_runs_on_the_reactor() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        // A new channel's first run, K calls long: one context, every call
        // counted, all of it answered before the hook returns.
        let mut budget = SWEEP_RUN_BUDGET;
        let calls = std::iter::repeat_with(malloc).take(SWEEP_RUN_BUDGET);
        sweep(&rt, 1, 0, calls, &mut budget);
        assert_eq!((budget, queued(&rt)), (0, 0));
        let replies = read_replies(&mut client, SWEEP_RUN_BUDGET);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..SWEEP_RUN_BUDGET as u64));
        assert!(replies.iter().all(|(_, r)| matches!(r, Ok(ReplyValue::Ptr(_)))));
        let m = rt.metrics();
        assert_eq!((m.mux_channels, m.mux_requests), (1, SWEEP_RUN_BUDGET as u64));
        assert_eq!((rt.channel_count(), rt.context_count()), (1, 1));
        // The sweep's budget is spent: the next run is the pool's, whole.
        sweep(&rt, 1, 10, [malloc(), CudaCall::GetDeviceCount], &mut budget);
        nothing_more_arrives(&mut client);
        assert_eq!(rt.serve_queued(), 1);
        assert!(read_replies(&mut client, 2).iter().map(|(id, _)| *id).eq(10..12));
        let m = rt.metrics();
        assert_eq!((m.mux_channels, m.mux_requests), (1, SWEEP_RUN_BUDGET as u64 + 2));
        assert_eq!(rt.context_count(), 1);
        rt.shutdown();
    }

    #[test]
    fn a_run_with_an_exit_an_unfit_copy_or_more_than_k_calls_goes_to_the_pool_whole() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        let mut budget = SWEEP_RUN_BUDGET;
        sweep(&rt, 2, 0, [CudaCall::Malloc { size: 1 << 20, kind: AllocKind::Linear }], &mut 1);
        let Ok(ReplyValue::Ptr(ptr)) = read_replies(&mut client, 1)[0].1 else { panic!("malloc") };
        // A copy whose host bytes pass the visit's reply bound never fits.
        let upload = mtgpu_api::HostBuf::from_slice(&vec![7; VISIT_REPLY_BYTES + 1]);
        let runs = [
            (1, vec![malloc(), CudaCall::GetDeviceCount, CudaCall::Exit]),
            (2, vec![CudaCall::GetDeviceCount, CudaCall::MemcpyH2D { dst: ptr, buf: upload }]),
            (3, vec![malloc(); SWEEP_RUN_BUDGET + 1]),
        ];
        let mut first = 10;
        for (chan, run) in runs {
            let len = run.len();
            sweep(&rt, chan, first, run, &mut budget);
            nothing_more_arrives(&mut client);
            assert_eq!(rt.serve_queued(), 1, "channel {chan}: one work item for the run");
            let replies = read_replies(&mut client, len);
            assert!(replies.iter().map(|(id, _)| *id).eq(first..first + len as u64));
            assert!(replies.iter().all(|(_, r)| r.is_ok()), "{replies:?}");
            first += 10;
        }
        assert_eq!(budget, SWEEP_RUN_BUDGET, "nothing ran on the reactor");
        assert_eq!((rt.channel_count(), rt.metrics().mux_requests), (2, 11));
        rt.shutdown();
    }

    #[test]
    fn a_run_the_reactor_serves_leaves_in_the_sweeps_one_write() {
        let (rt, reactor) = start_node(1);
        let mut client = std::net::TcpStream::connect(reactor.addr()).unwrap();
        let mut burst = Vec::new();
        for id in 0..SWEEP_RUN_BUDGET as u64 {
            let request = MuxFrame::Request { chan: 1, id, call: CudaCall::GetDeviceCount };
            mtgpu_api::transport::encode_frame(&request, &mut burst).unwrap();
        }
        std::io::Write::write_all(&mut client, &burst).unwrap();
        // The first read takes every reply: they left in one write.
        client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut framebuf = FrameBuf::new();
        assert_ne!(framebuf.read_from(&mut client).unwrap(), 0);
        let mut ids = Vec::new();
        while let Some(MuxFrame::Response { id, reply }) = framebuf.next_frame().unwrap() {
            assert!(matches!(reply, Ok(ReplyValue::DeviceCount(_))), "{reply:?}");
            ids.push(id);
        }
        assert!(ids.iter().copied().eq(0..SWEEP_RUN_BUDGET as u64), "{ids:?}");
        let stats = reactor.stats();
        let on_reactor = stats.ran_inline.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(on_reactor, SWEEP_RUN_BUDGET as u64);
        reactor.shutdown();
        rt.shutdown();
    }

    #[test]
    fn launch_without_a_vgpu_ships_earlier_replies_and_waits_in_the_dispatcher_queue() {
        // Two one-vGPU devices. Application 7 has a thread bound on one of
        // them, so the channel's context, which joins it, must wait for
        // that device (§4.8) while the other stands free.
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small(); 2]);
        let rt = NodeRuntime::start(driver, quiet(RuntimeConfig::serialized()));
        let mut client = attach_client(&rt, 1);
        let hog = rt.new_context("hog".into());
        hog.inner().app_id = Some(7);
        let held = rt.bindings().poll(&hog, 0).expect("free vGPU");
        let free_device = DeviceId(1 - held.vgpu.device.0);
        let calls = [
            CudaCall::SetApplication { app_id: 7 },
            register_noop(),
            noop_launch(),
            malloc(),
            CudaCall::Synchronize,
        ];
        for (id, call) in calls.into_iter().enumerate() {
            rt.on_request(1, 1, id as u64, call);
        }
        assert_eq!(rt.serve_queued(), 1);
        // The two calls ahead of the launch are answered without waiting
        // for it; the launch and its successors wait, still in order, and
        // the channel is the dispatcher's, not the work queue's.
        let early = read_replies(&mut client, 2);
        assert!(early.iter().map(|(id, _)| *id).eq(0..2));
        nothing_more_arrives(&mut client);
        assert_eq!(rt.metrics().mux_retries, 1);
        assert_eq!(queued(&rt), 0);
        {
            let state = local_state(&rt, (1, 1));
            let q = state.queue.lock();
            assert!(*q.scheduled);
            assert!(q.calls.iter().map(|(id, _)| *id).eq(2..5));
            assert!(matches!(q.calls[0].1, CudaCall::Launch { .. }));
        }
        // A remote waiter is a waiter: the node's load shows it, and no
        // migration may take the free vGPU past it (§5.3.4).
        assert_eq!(rt.load().waiting, 1);
        assert!(rt.bindings().try_acquire_on(hog.id, free_device).is_none());
        // The release grants a vGPU to the waiting entry, whose wake puts
        // the channel back on the work queue: one visit finishes the batch.
        // Which vGPU is the placement's draw: the application's last bound
        // thread has just released, so its affinity has lapsed and either
        // device is legal.
        rt.bindings().release(hog.id, held.vgpu);
        assert_eq!(rt.load().waiting, 0);
        assert_eq!(queued(&rt), 1);
        assert_eq!(rt.serve_queued(), 1);
        let late = read_replies(&mut client, 3);
        assert!(late.iter().map(|(id, _)| *id).eq(2..5));
        assert!(late.iter().all(|(_, r)| r.is_ok()), "{late:?}");
        assert!(rt.binding_of(local_state(&rt, (1, 1)).ctx.id).is_some());
        rt.on_request(1, 1, 5, CudaCall::Exit);
        rt.serve_queued();
        let m = rt.metrics();
        assert_eq!((m.bindings, m.unbindings), (2, 2));
        rt.shutdown();
    }

    #[test]
    fn grant_skips_a_waiter_whose_connection_is_gone() {
        let (rt, mut first) = poolless_runtime(RuntimeConfig::serialized());
        let mut second = attach_client(&rt, 2);
        let hog = rt.new_context("hog".into());
        let held = rt.bindings().poll(&hog, 0).expect("free vGPU");
        // Two connections' launches queue behind the hog, in this order.
        for conn in [1, 2] {
            for (id, call) in [register_noop(), noop_launch()].into_iter().enumerate() {
                rt.on_request(conn, 1, id as u64, call);
            }
            assert_eq!(rt.serve_queued(), 1);
            assert_eq!(rt.bindings().waiting_count(), conn as usize);
        }
        read_replies(&mut first, 1);
        read_replies(&mut second, 1);
        // The first hangs up: its teardown takes its entry out of the queue.
        rt.on_disconnect(1);
        assert_eq!(rt.serve_queued(), 1);
        assert_eq!(rt.bindings().waiting_count(), 1);
        // One release, one wake-up, and it is the second channel's.
        rt.bindings().release(hog.id, held.vgpu);
        assert_eq!(queued(&rt), 1);
        assert_eq!(rt.serve_queued(), 1);
        assert!(matches!(read_replies(&mut second, 1)[0], (1, Ok(_))));
        rt.on_request(2, 1, 2, CudaCall::Exit);
        rt.serve_queued();
        assert_eq!(rt.bindings().waiting_count(), 0);
        let m = rt.metrics();
        assert_eq!(m.bindings, m.unbindings, "{m:?}");
        assert_eq!(rt.context_count(), 1, "only the hog is left");
        rt.shutdown();
    }

    #[test]
    fn lease_reaped_while_queued_for_a_vgpu_answers_the_launch_and_what_follows() {
        use crate::policy::{GpuLease, TenantPolicyConfig};
        use mtgpu_simtime::SimDuration;
        // Anonymous tenants' leases last one second; application 7's, the
        // hog's, does not expire.
        let clock = Clock::virtual_clock();
        let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::test_small()]);
        let policy = TenantPolicyConfig::default()
            .with_default_lease(GpuLease { ttl_s: 1, ..GpuLease::unlimited() })
            .with_tenant_lease(7, GpuLease::unlimited());
        let cfg = RuntimeConfig { tenant_policy: Some(policy), ..RuntimeConfig::serialized() };
        let rt = NodeRuntime::start(driver, quiet(cfg));
        let mut client = attach_client(&rt, 1);
        let hog = rt.new_context("hog".into());
        rt.policy().adopt(hog.id, 7, clock.now()).unwrap();
        let held = rt.bindings().poll(&hog, 0).expect("free vGPU");
        for (id, call) in [register_noop(), noop_launch(), malloc()].into_iter().enumerate() {
            rt.on_request(1, 1, id as u64, call);
        }
        assert_eq!(rt.serve_queued(), 1);
        read_replies(&mut client, 1);
        assert_eq!(rt.load().waiting, 1);
        // The lease runs out with the launch queued behind the hog. The
        // reaper takes the entry out and wakes the channel: the launch is
        // answered now, not at a grant, and so is the call behind it.
        clock.advance(SimDuration::from_secs(2));
        rt.monitor_tick();
        assert_eq!(rt.load().waiting, 0);
        assert_eq!(queued(&rt), 1, "the reaped entry's wake must run");
        assert_eq!(rt.serve_queued(), 1);
        let late = read_replies(&mut client, 2);
        assert!(late.iter().map(|(id, _)| *id).eq(1..3));
        assert!(late.iter().all(|(_, r)| *r == Err(CudaError::LeaseExpired)), "{late:?}");
        // The channel is as live as any: Exit is served and tears it down.
        rt.on_request(1, 1, 3, CudaCall::Exit);
        assert_eq!(rt.serve_queued(), 1);
        assert_eq!(read_replies(&mut client, 1)[0], (3, Ok(ReplyValue::Unit)));
        rt.bindings().release(hog.id, held.vgpu);
        let m = rt.metrics();
        assert_eq!((m.bindings, m.unbindings, m.lease_reaps), (1, 1, 1));
        assert_eq!((rt.channel_count(), rt.context_count()), (0, 1));
        rt.shutdown();
    }

    #[test]
    fn launch_that_unbinds_to_retry_waits_in_the_dispatcher_until_a_co_tenant_makes_room() {
        // Unbind-and-retry is the only answer to memory pressure here.
        let clock = Clock::virtual_clock();
        let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::test_small()]);
        let cfg = RuntimeConfig { inter_app_swap: false, ..RuntimeConfig::default() };
        let rt = NodeRuntime::start(driver, quiet(cfg));
        let mut client = attach_client(&rt, 1);
        let chunk = rt.driver().device(DeviceId(0)).unwrap().mem_available() * 6 / 10;
        let big_malloc = || CudaCall::Malloc { size: chunk, kind: AllocKind::Linear };
        let launch_on = |ptr| {
            let CudaCall::Launch { mut spec } = noop_launch() else { unreachable!() };
            spec.args = vec![KernelArg::Ptr(ptr)];
            CudaCall::Launch { spec }
        };
        let ptr_of = |reply: &(u64, CudaReply)| match reply.1 {
            Ok(ReplyValue::Ptr(ptr)) => ptr,
            ref other => panic!("not a pointer: {other:?}"),
        };
        // Channel 1 holds most of the device and stays bound.
        rt.on_request(1, 1, 0, register_noop());
        rt.on_request(1, 1, 1, big_malloc());
        rt.serve_queued();
        let held = ptr_of(&read_replies(&mut client, 2)[1]);
        rt.on_request(1, 1, 2, launch_on(held));
        rt.serve_queued();
        assert!(read_replies(&mut client, 1)[0].1.is_ok());
        // Channel 2's launch needs as much again.
        rt.on_request(1, 2, 10, register_noop());
        rt.on_request(1, 2, 11, big_malloc());
        rt.serve_queued();
        let wanted = ptr_of(&read_replies(&mut client, 2)[1]);
        let before = clock.now();
        for (id, call) in [malloc(), launch_on(wanted), malloc()].into_iter().enumerate() {
            rt.on_request(1, 2, 12 + id as u64, call);
        }
        // One visit: the call ahead of the launch is answered, the launch
        // gives its vGPU up and is back at the head, its successor behind
        // it, and the channel is the dispatcher's — waiting for channel 1,
        // the co-tenant in its way, not on the work queue or a timer.
        assert_eq!(rt.serve_queued(), 1);
        assert!(matches!(read_replies(&mut client, 1)[0], (12, Ok(ReplyValue::Ptr(_)))));
        nothing_more_arrives(&mut client);
        let waiting = local_state(&rt, (1, 2));
        {
            let q = waiting.queue.lock();
            assert!(*q.scheduled);
            assert!(q.calls.iter().map(|(id, _)| *id).eq(13..15));
        }
        assert_eq!(rt.binding_of(waiting.ctx.id), None);
        assert_eq!((rt.metrics().launch_retries, rt.load().waiting), (1, 1));
        assert_eq!(queued(&rt), 0);
        // A call of channel 1 that makes no room wakes nobody; no time
        // passes while the launch waits.
        rt.on_request(1, 1, 3, malloc());
        assert_eq!(rt.serve_queued(), 1);
        assert!(matches!(read_replies(&mut client, 1)[0], (3, Ok(ReplyValue::Ptr(_)))));
        assert_eq!((rt.metrics().launch_retries, rt.load().waiting), (1, 1));
        assert_eq!(clock.now(), before);
        // Channel 1 frees its resident memory: that is the room event. The
        // launch runs again once, goes through, and the call behind it
        // follows.
        rt.on_request(1, 1, 4, CudaCall::Free { ptr: held });
        assert_eq!(rt.serve_queued(), 2);
        let mut rest = read_replies(&mut client, 3);
        rest.sort_by_key(|(id, _)| *id);
        assert!(rest.iter().map(|(id, _)| *id).eq([4, 13, 14]));
        assert!(matches!(rest[1].1, Ok(ReplyValue::LaunchDone { .. })), "{rest:?}");
        assert!(matches!(rest[2].1, Ok(ReplyValue::Ptr(_))), "{rest:?}");
        assert_eq!((rt.metrics().launch_retries, rt.load().waiting), (1, 0));
        rt.shutdown();
    }

    #[test]
    fn launch_the_reactor_runs_that_unbinds_to_retry_is_the_pools_once_room_is_made() {
        // As above, with every call read by the reactor instead.
        let clock = Clock::virtual_clock();
        let driver = Driver::with_devices(clock.clone(), vec![GpuSpec::test_small()]);
        let cfg = RuntimeConfig { inter_app_swap: false, ..RuntimeConfig::default() };
        let rt = NodeRuntime::start(driver, quiet(cfg));
        let mut client = attach_client(&rt, 1);
        let chunk = rt.driver().device(DeviceId(0)).unwrap().mem_available() * 6 / 10;
        let big_malloc = CudaCall::Malloc { size: chunk, kind: AllocKind::Linear };
        let launch_on = |ptr| {
            let CudaCall::Launch { mut spec } = noop_launch() else { unreachable!() };
            spec.args = vec![KernelArg::Ptr(ptr)];
            CudaCall::Launch { spec }
        };
        // Channels 1 and 2 each hold most of the device; 1 launches on its
        // share and stays bound, all of it run here.
        let mut held = Vec::new();
        for chan in [1, 2] {
            let setup = [register_noop(), big_malloc.clone()];
            sweep(&rt, chan, 10 * chan, setup, &mut SWEEP_RUN_BUDGET.clone());
            match read_replies(&mut client, 2)[1] {
                (_, Ok(ReplyValue::Ptr(ptr))) => held.push(ptr),
                ref other => panic!("not a pointer: {other:?}"),
            }
        }
        sweep(&rt, 1, 12, [launch_on(held[0])], &mut SWEEP_RUN_BUDGET.clone());
        assert!(read_replies(&mut client, 1)[0].1.is_ok());
        // Channel 2's launch, run here, gives its vGPU up for want of
        // memory: the call ahead of it is answered, the launch is back at
        // the head with its successor behind it, and the channel waits in
        // the dispatcher for channel 1 to make room.
        let before = clock.now();
        let mut budget = SWEEP_RUN_BUDGET;
        sweep(&rt, 2, 22, [malloc(), launch_on(held[1]), malloc()], &mut budget);
        assert!(matches!(read_replies(&mut client, 1)[0], (22, Ok(ReplyValue::Ptr(_)))));
        nothing_more_arrives(&mut client);
        assert_eq!((rt.metrics().launch_retries, budget), (1, SWEEP_RUN_BUDGET - 2));
        assert_eq!((clock.now(), rt.load().waiting), (before, 1));
        assert_eq!(queued(&rt), 0);
        // Channel 1 frees its memory, on the reactor too: its room event
        // hands channel 2 to the pool, whose one try goes through, and the
        // call behind the launch follows it.
        sweep(&rt, 1, 13, [CudaCall::Free { ptr: held[0] }], &mut SWEEP_RUN_BUDGET.clone());
        assert_eq!(rt.serve_queued(), 1);
        assert_eq!(rt.metrics().launch_retries, 1);
        let mut rest = read_replies(&mut client, 3);
        rest.sort_by_key(|(id, _)| *id);
        assert!(rest.iter().map(|(id, _)| *id).eq([13, 23, 24]));
        assert!(matches!(rest[1].1, Ok(ReplyValue::LaunchDone { .. })), "{rest:?}");
        assert!(matches!(rest[2].1, Ok(ReplyValue::Ptr(_))), "{rest:?}");
        rt.shutdown();
    }

    /// Runs `body`, which takes calls off a relayed channel and so blocks
    /// for ever if one was never forwarded, on a thread of its own: past
    /// 30 s the test fails instead of hanging the suite.
    fn within_30_s(body: impl FnOnce() + Send + 'static) {
        let (running, finished) = mpsc::channel::<()>();
        let body = std::thread::spawn(move || {
            let _running = running;
            body();
        });
        // Nothing is sent: the sender drops when the body returns or unwinds.
        let waited = finished.recv_timeout(Duration::from_secs(30));
        if let Err(mpsc::RecvTimeoutError::Timeout) = waited {
            panic!("still blocked after 30 s: a call was not forwarded");
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn relayed_channel_is_forwarded_in_order_and_leaves_the_map_when_its_relay_ends() {
        within_30_s(relayed_channel_forwarding);
    }

    fn relayed_channel_forwarding() {
        let (rt, mut client) = poolless_runtime(RuntimeConfig::default());
        let key = (1, 2);
        // What `submit` sets up for a channel it offloads, by hand: the
        // test is the relay thread.
        let open_relay = || {
            let (relay, calls) = mpsc::channel();
            rt.gateway().channels.lock().insert(key, Chan::Relayed(relay));
            let sink = rt.gateway().sink.clone();
            RelayedChannel { rt: rt.me(), key, calls, sink, awaiting: None, left: false }
        };
        let mut conn = open_relay();
        let mut budget = SWEEP_RUN_BUDGET;
        sweep(&rt, 2, 0, [malloc(), CudaCall::Exit, malloc()], &mut budget);
        assert_eq!(queued(&rt), 0, "a relayed channel's calls never reach the pool");
        assert_eq!(budget, SWEEP_RUN_BUDGET, "nor run on the reactor");
        assert!(matches!(conn.recv(), Some(CudaCall::Malloc { .. })));
        assert!(conn.send(Ok(ReplyValue::Unit)));
        assert!(!conn.send(Ok(ReplyValue::Unit)), "one reply per call");
        assert!(matches!(conn.recv(), Some(CudaCall::Exit)));
        assert!(conn.send(Ok(ReplyValue::Unit)));
        // The relay ends at Exit: what was queued behind it is told so, and
        // the key is free again.
        drop(conn);
        let replies = read_replies(&mut client, 3);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..3));
        assert_eq!(replies[2].1, Err(CudaError::Disconnected));
        assert_eq!(rt.channel_count(), 0);

        // A client that vanishes hangs the relay up; the teardown is the
        // relay's, so the pool is handed nothing.
        let mut conn = open_relay();
        rt.on_disconnect(1);
        assert_eq!(rt.channel_count(), 0);
        assert_eq!(queued(&rt), 0);
        assert!(conn.recv().is_none());
        drop(conn);
        rt.shutdown();
    }

    #[test]
    fn relay_that_reaches_no_peer_serves_the_stream_itself_in_order() {
        within_30_s(relay_serving_its_stream);
    }

    fn relay_serving_its_stream() {
        // Offloading configured, no slot to keep anything here, and the one
        // peer refuses every connect.
        let unreachable = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let cfg = RuntimeConfig {
            offload_threshold: Some(0),
            offload_peers: vec![unreachable.to_string()],
            ..RuntimeConfig::default()
        };
        let (rt, mut client) = poolless_runtime(cfg);
        let key = (1, 2);
        // What `submit` sets up for a channel it offloads, by hand: the
        // test thread is the relay thread.
        let open_relay = |label: &str| {
            let (relay, calls) = mpsc::channel();
            rt.gateway().channels.lock().insert(key, Chan::Relayed(relay));
            let sink = rt.gateway().sink.clone();
            let chan =
                RelayedChannel { rt: rt.me(), key, calls, sink, awaiting: Some(0), left: false };
            (rt.new_context(label.into()), chan)
        };
        // The slot budget is back at 0: one given back is the only one.
        let slots_back_at_zero = || {
            rt.release_local_slot();
            rt.try_keep_local() && !rt.try_keep_local()
        };
        // The first call (a malloc, id 0) is held while the relay dials;
        // three more arrive meanwhile, the last an Exit, and one behind it.
        let (ctx, relayed) = open_relay("relayed");
        let calls = [malloc(), CudaCall::GetDeviceCount, CudaCall::Exit, malloc()];
        for (id, call) in calls.into_iter().enumerate() {
            rt.on_request(1, 2, 1 + id as u64, call);
        }
        run_relay(&rt, ctx, relayed, malloc());
        let replies = read_replies(&mut client, 5);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..5), "{replies:?}");
        assert!(matches!(replies[0].1, Ok(ReplyValue::Ptr(_))));
        assert!(matches!(replies[1].1, Ok(ReplyValue::Ptr(_))));
        assert!(matches!(replies[2].1, Ok(ReplyValue::DeviceCount(_))));
        assert_eq!(replies[3].1, Ok(ReplyValue::Unit));
        assert_eq!(replies[4].1, Err(CudaError::Disconnected));
        // Once the Exit is answered, nothing of the stream is left: no
        // channel, no context, nothing for a pool, and the slot taken over
        // the budget given back.
        assert_eq!((rt.channel_count(), rt.context_count()), (0, 0));
        assert_eq!(queued(&rt), 0);
        assert_eq!(rt.metrics().offloaded_connections, 0);
        assert!(slots_back_at_zero());

        // A client that hangs up while the relay dials leaves no context.
        let (ctx, relayed) = open_relay("gone");
        rt.on_disconnect(1);
        run_relay(&rt, ctx, relayed, malloc());
        assert_eq!((rt.channel_count(), rt.context_count()), (0, 0));
        assert_eq!(queued(&rt), 0);
        assert!(slots_back_at_zero());
        rt.shutdown();
    }

    #[test]
    fn a_channel_relayed_at_its_first_run_gets_the_whole_run_in_order() {
        // Offloading configured, no slot to keep anything here, and the one
        // peer refuses every connect: the relay thread serves the stream.
        let unreachable = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let cfg = RuntimeConfig {
            offload_threshold: Some(0),
            offload_peers: vec![unreachable.to_string()],
            ..RuntimeConfig::default()
        };
        let (rt, mut client) = poolless_runtime(cfg);
        let run = [malloc(), CudaCall::GetDeviceCount, malloc(), CudaCall::Exit, malloc()];
        sweep(&rt, 1, 0, run, &mut SWEEP_RUN_BUDGET.clone());
        let replies = read_replies(&mut client, 5);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..5), "{replies:?}");
        assert!(matches!(replies[1].1, Ok(ReplyValue::DeviceCount(_))), "{replies:?}");
        assert!(matches!(replies[2].1, Ok(ReplyValue::Ptr(_))), "{replies:?}");
        assert_eq!(replies[3].1, Ok(ReplyValue::Unit));
        assert_eq!(replies[4].1, Err(CudaError::Disconnected));
        assert!(rt.wait_idle(Duration::from_secs(30)), "the relayed context must go");
        assert_eq!(queued(&rt), 0);
        let m = rt.metrics();
        assert_eq!((m.mux_channels, m.mux_requests), (1, 5));
        rt.shutdown();
    }

    #[test]
    fn bulk_replies_past_the_byte_bound_arrive_whole_and_in_order() {
        let (rt, reactor) = start_node(1);
        let conn = MuxConnection::connect(reactor.addr()).unwrap();
        let mut ch = conn.channel();

        // Six downloads of half the bound each, small calls in between: a
        // visit that finds them all queued posts three times on the way.
        let len = VISIT_REPLY_BYTES / 2;
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let size = len as u64;
        let Ok(ReplyValue::Ptr(ptr)) =
            ch.roundtrip(CudaCall::Malloc { size, kind: AllocKind::Linear })
        else {
            panic!("malloc failed")
        };
        let upload = CudaCall::MemcpyH2D { dst: ptr, buf: mtgpu_api::HostBuf::from_slice(&data) };
        assert_eq!(ch.roundtrip(upload), Ok(ReplyValue::Unit));
        let mut calls = Vec::new();
        for _ in 0..6 {
            calls.push(CudaCall::MemcpyD2H { src: ptr, len: size });
            calls.push(CudaCall::GetDeviceCount);
        }
        let replies = ch.roundtrip_batch(&mut calls);
        assert_eq!(replies.len(), 12);
        for pair in replies.chunks(2) {
            let Ok(ReplyValue::Bytes(buf)) = &pair[0] else { panic!("{:?}", pair[0]) };
            assert!(buf.payload == data, "download differs from what was uploaded");
            assert!(matches!(pair[1], Ok(ReplyValue::DeviceCount(_))), "{:?}", pair[1]);
        }
        assert_eq!(ch.roundtrip(CudaCall::Exit), Ok(ReplyValue::Unit));
        reactor.shutdown();
        rt.shutdown();
    }

    /// Polls `read` until it reads `n`; panics after 30 s.
    fn until(read: impl Fn() -> usize, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while read() != n {
            assert!(std::time::Instant::now() < deadline, "stuck at {} of {n}", read());
            std::thread::yield_now();
        }
    }

    #[test]
    fn work_queue_send_wakes_exactly_one_of_n_parked_workers() {
        use std::sync::atomic::Ordering::SeqCst;
        const N: usize = 6;
        let q = WorkQueue::new();
        let (done, taken) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            for _ in 0..N {
                let (q, done) = (&q, done.clone());
                s.spawn(move || done.send(matches!(q.recv(), WorkItem::Chan(_))).unwrap());
            }
            until(|| q.waits.load(SeqCst), N);
            q.send(WorkItem::Chan((0, 7)));
            assert_eq!(taken.recv_timeout(Duration::from_secs(30)), Ok(true));
            assert!(taken.try_recv().is_err());
            for _ in 1..N {
                q.send(WorkItem::Stop);
            }
        });
        drop(done);
        assert_eq!(taken.iter().filter(|chan| !chan).count(), N - 1);
        // Every send found all the workers still waiting parked and took one
        // out: none was woken for nothing and had to wait again.
        assert_eq!(q.waits.load(SeqCst), N);
    }

    #[test]
    fn work_queue_items_from_several_senders_are_each_taken_once() {
        use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
        const ITEMS: u64 = 100_000;
        const WORKERS: usize = 8;
        let q = WorkQueue::new();
        let seen: Vec<AtomicU8> = (0..ITEMS).map(|_| AtomicU8::new(0)).collect();
        let taken: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut taken = 0;
                        // As `worker_loop` does: the stop marker is passed on.
                        while let WorkItem::Chan((_, i)) = q.recv() {
                            seen[i as usize].fetch_add(1, Relaxed);
                            taken += 1;
                        }
                        q.send(WorkItem::Stop);
                        taken
                    })
                })
                .collect();
            // Two senders, so sends race each other as well as the workers.
            let senders: Vec<_> = (0..2)
                .map(|half| {
                    let q = &q;
                    s.spawn(move || {
                        (half..ITEMS).step_by(2).for_each(|i| q.send(WorkItem::Chan((0, i))))
                    })
                })
                .collect();
            senders.into_iter().for_each(|t| t.join().unwrap());
            q.send(WorkItem::Stop);
            // A wake-up lost to `notify_one` would strand a worker with items
            // queued, and this sum would never arrive.
            workers.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(taken, ITEMS as usize);
        assert!(seen.iter().all(|n| n.load(Relaxed) == 1), "an item taken twice or never");
    }

    #[test]
    fn worker_pool_sizes_automatically() {
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small(); 2]);
        let rt = NodeRuntime::start(driver, quiet(RuntimeConfig::default()));
        assert_eq!(spawn_pool(&rt), rt.bindings().total_vgpus() + 4);
        rt.shutdown();
    }
}
