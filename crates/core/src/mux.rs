//! The multiplex gateway: the runtime's [`MuxService`] implementation, behind
//! the node's one listener.
//!
//! Where the in-process path dedicates one handler thread to every
//! connection, the gateway serves *channels* — (connection, chan) pairs, each
//! backed by one [`AppContext`] — with a fixed worker pool. The reactor
//! thread calls [`MuxGateway::on_request`] for every decoded frame; the
//! gateway enqueues the call on its channel's FIFO and marks the channel
//! runnable. Workers
//! pull runnable channels off a global work queue and *visit* them: a visit
//! executes the channel's queued calls in order, each under the context's
//! service lock, up to [`VISIT_BUDGET`], and posts the visit's replies as
//! one batch through the reactor's [`ReplySink`] — so a pipelined flush
//! costs one work-queue hand-off and one reply post, not one per call.
//!
//! Three invariants keep this sound:
//!
//! 1. **Per-channel ordering.** A channel is on the work queue at most once
//!    (`scheduled` flag, mutated only under the channel's queue lock), and a
//!    worker lets go of it only after its visit's replies are posted — so
//!    calls of one channel execute, and their replies reach the wire, in
//!    arrival order, exactly like a connection of its own, while different
//!    channels proceed in parallel.
//! 2. **No pool-wide starvation.** Launches use the *bounded* dispatch path
//!    ([`service::try_handle_call`]). With unbounded waits, a pool's worth of
//!    launches waiting on fully-bound vGPUs would deadlock the pool — the
//!    bound contexts' own calls (the ones that would eventually release
//!    those vGPUs) could never run. A launch that cannot bind immediately
//!    parks its channel on the gateway's *bind-waiters* list instead of
//!    holding a worker: every completed call kicks one waiter back onto the
//!    work queue for a cheap retry (completions are the only events that
//!    release vGPUs, so a kick rides every release), and a worker with an
//!    otherwise-empty queue gives one waiter a bounded [`BIND_SLICE`]
//!    park inside the dispatcher's wait queue, where it gets the targeted
//!    wakeup on release. Either way the pool never wedges and never burns
//!    a full slice per retry under load. The price, stated plainly: remote
//!    launches queue for vGPUs in this FIFO list, not in the dispatcher's
//!    policy-ordered queue (DESIGN.md §12, known limits).
//! 3. **A finished reply never waits on something that may take long.** The
//!    batch is posted before a call that may park (a launch given a bind
//!    slice on an unbound context), before Exit's teardown, when a launch
//!    would-blocks, when it holds [`VISIT_REPLY_BYTES`] of payload and when
//!    the budget runs out. The budget bounds how long one deep channel can
//!    hold a worker while others wait: past it the channel goes to the
//!    *back* of the work queue.
//!
//! Teardown (Exit or disconnect) removes the channel from the map first;
//! whichever path wins the `BTreeMap::remove` does the context teardown, so
//! it happens exactly once even when an Exit races a connection drop.
//!
//! # Offload (§4.7)
//!
//! On a node with offloading configured, a new channel claims a local
//! service slot with its first call, unless that call is the
//! [`CudaCall::Offloaded`] marker of a stream a peer relayed here. With no
//! slot left the channel is not served by the pool at all: the gateway hands
//! it to a relay thread ([`NodeRuntime::offload`]) as a [`RelayedChannel`] —
//! the same relay loop, local fallback included, that in-process
//! connections use — and from then on only forwards its calls. That thread,
//! not the reactor, connects to the peer, and no pool worker is tied up for
//! the stream's lifetime.

use crate::ctx::AppContext;
use crate::metrics::RuntimeMetrics;
use crate::runtime::NodeRuntime;
use crate::service::{self, CallOutcome};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mtgpu_api::protocol::{CudaCall, CudaReply, ReplyValue};
use mtgpu_api::transport::{ConnId, MuxService, RecvOutcome, ReplySink, ServerConn};
use mtgpu_api::CudaError;
use mtgpu_simtime::{lock_rank, RankedMutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// How many workers may simultaneously lend themselves to a parked
/// bind-waiter (a bounded [`BIND_SLICE`] wait inside the dispatcher).
/// Capped so a burst of fresh requests always finds free workers even
/// while many channels queue for vGPUs.
const MAX_IDLE_PARKERS: usize = 2;

/// How long an idle worker parks inside the dispatcher on a bind-waiter's
/// behalf before it hands the channel back and looks at the work queue.
const BIND_SLICE: Duration = Duration::from_millis(5);

/// Workers beyond one per vGPU: every slot stays servable while unbound and
/// teardown work never waits on launches.
const SPARE_WORKERS: usize = 4;

/// Most calls one visit executes before the channel goes to the back of the
/// work queue. Large enough that the two-frame `launch()` and the usual
/// pipelined flush are one visit; small enough that a channel with a deep
/// FIFO cannot keep a worker from the channels queued behind it. A constant
/// because nothing in the tree wants a second value.
const VISIT_BUDGET: usize = 64;

/// Most reply payload one visit holds back before it posts what it has, so
/// a run of bulk `MemcpyD2H`s leaves every few of them instead of sitting in
/// the worker (then, all at once, under the out lock) until the visit ends.
const VISIT_REPLY_BYTES: usize = 256 << 10;

/// A channel's key: (connection, channel-on-that-connection).
type ChanKey = (ConnId, u64);

/// Pending calls of one channel.
struct ChanQueue {
    /// FIFO of (request id, call) not yet executed.
    calls: VecDeque<(u64, CudaCall)>,
    /// Whether the channel currently sits on the work queue (at most once).
    scheduled: bool,
}

/// One multiplexed channel: an application context plus its call FIFO.
struct ChannelState {
    ctx: Arc<AppContext>,
    queue: RankedMutex<ChanQueue>,
    /// Whether the channel claimed a §4.7 local-service slot at creation,
    /// to give back at teardown.
    holds_slot: bool,
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
/// from the reactor in wire order and each reply is posted before the next
/// call is taken, so the channel's call/reply order holds without the pool.
struct RelayedChannel {
    gateway: Weak<MuxGateway>,
    key: ChanKey,
    calls: Receiver<(u64, CudaCall)>,
    sink: ReplySink,
    /// Request id of the call handed out last, until its reply is posted.
    awaiting: Option<u64>,
}

impl RelayedChannel {
    fn take(&mut self, (id, call): (u64, CudaCall)) -> CudaCall {
        self.awaiting = Some(id);
        call
    }
}

impl ServerConn for RelayedChannel {
    fn recv(&mut self) -> Option<CudaCall> {
        self.calls.recv().ok().map(|next| self.take(next))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        match self.calls.recv_timeout(timeout) {
            Ok(next) => RecvOutcome::Call(self.take(next)),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::Idle,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn send(&mut self, reply: CudaReply) -> bool {
        let Some(id) = self.awaiting.take() else { return false };
        // A reply for a connection that is gone is dropped by the sink; the
        // next `recv` then reports the hang-up.
        self.sink.reply(self.key.0, id, reply);
        true
    }

    fn peer(&self) -> String {
        format!("mux-{}-{}", self.key.0, self.key.1)
    }
}

impl Drop for RelayedChannel {
    /// The stream is over (Exit, hang-up or shutdown): the key leaves the
    /// map unless a disconnect took it already, and what was queued behind
    /// an Exit is told the channel is gone. The reactor forwards under the
    /// map lock, so nothing is queued after the removal.
    fn drop(&mut self) {
        if let Some(gateway) = self.gateway.upgrade() {
            gateway.channels.lock().remove(&self.key);
        }
        let dead: Vec<(u64, CudaReply)> = std::iter::from_fn(|| self.calls.try_recv().ok())
            .map(|(id, _)| (id, Err(CudaError::Disconnected)))
            .collect();
        self.sink.reply_batch(self.key.0, dead);
    }
}

enum WorkItem {
    /// A channel became runnable: visit it.
    Chan(ChanKey),
    /// Channels removed on disconnect, awaiting context teardown.
    Teardown(Vec<Arc<ChannelState>>),
    /// Worker shutdown.
    Stop,
}

/// The runtime's service endpoint for multiplexed connections.
pub struct MuxGateway {
    /// For the relay hand-off, which outlives the call that makes it.
    me: Weak<MuxGateway>,
    rt: Arc<NodeRuntime>,
    sink: ReplySink,
    /// channel key → state. BTreeMap so disconnects can range-scan a
    /// connection's channels and iteration order is deterministic.
    channels: RankedMutex<BTreeMap<ChanKey, Chan>>,
    workq: Sender<WorkItem>,
    /// [`NodeRuntime::offloads`], read once: with it off a new channel
    /// costs nothing it did not cost before.
    offloads: bool,
    /// Channels whose head launch found no free vGPU. They hold no worker
    /// while parked; releases and idle workers pull them back out.
    bind_waiters: RankedMutex<VecDeque<ChanKey>>,
    /// Workers currently parked in a bounded dispatcher wait on behalf of
    /// a bind-waiter (≤ [`MAX_IDLE_PARKERS`]).
    idle_parkers: AtomicUsize,
}

/// Owns the gateway's worker pool; joining it drains outstanding teardowns.
pub struct MuxGatewayHandle {
    gateway: Arc<MuxGateway>,
    workers: Vec<JoinHandle<()>>,
}

impl MuxGateway {
    /// Spawns the worker pool and returns the service plus its handle.
    ///
    /// `sink` must be the reply sink of the reactor that will drive this
    /// gateway (create both with `ReplySink::channel()`).
    pub fn start(rt: Arc<NodeRuntime>, sink: ReplySink) -> (Arc<MuxGateway>, MuxGatewayHandle) {
        let workers = rt.bindings().total_vgpus() + SPARE_WORKERS;
        let (gateway, rx) = MuxGateway::new(rt, sink);
        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let g = Arc::clone(&gateway);
            let rx: Receiver<WorkItem> = rx.clone();
            pool.push(
                std::thread::Builder::new()
                    .name(format!("mux-worker-{i}"))
                    .spawn(move || worker_loop(&g, &rx))
                    .expect("spawn mux worker"),
            );
        }
        (Arc::clone(&gateway), MuxGatewayHandle { gateway, workers: pool })
    }

    /// The gateway without its pool, plus the work queue's receiving end.
    fn new(rt: Arc<NodeRuntime>, sink: ReplySink) -> (Arc<MuxGateway>, Receiver<WorkItem>) {
        let (tx, rx) = unbounded();
        let gateway = Arc::new_cyclic(|me| MuxGateway {
            me: me.clone(),
            offloads: rt.offloads(),
            rt,
            sink,
            channels: RankedMutex::new(lock_rank::CONN_CHANNELS, BTreeMap::new()),
            workq: tx,
            bind_waiters: RankedMutex::new(lock_rank::MUX_WAITERS, VecDeque::new()),
            idle_parkers: AtomicUsize::new(0),
        });
        (gateway, rx)
    }

    /// Live channels (diagnostic).
    pub fn channel_count(&self) -> usize {
        self.channels.lock().len()
    }

    /// Takes the oldest parked channel, if any.
    fn pop_waiter(&self) -> Option<ChanKey> {
        self.bind_waiters.lock().pop_front()
    }

    /// Moves one parked channel back onto the work queue. Called whenever
    /// a call or teardown released a vGPU (observed as a bump of the
    /// `unbindings` counter), so every release is chased by a retry.
    fn kick_waiter(&self) {
        if let Some(key) = self.pop_waiter() {
            let _ = self.workq.send(WorkItem::Chan(key));
        }
    }

    /// Tears a removed channel's context down and gives its local-service
    /// slot back.
    fn retire(&self, state: &ChannelState) {
        service::teardown(&self.rt, &state.ctx);
        if state.holds_slot {
            self.rt.release_local_slot();
        }
    }

    /// Replies `Disconnected` to everything still queued on a dead channel.
    fn drain_dead(&self, conn: ConnId, state: &ChannelState) {
        let drained: Vec<(u64, CudaReply)> = {
            let mut q = state.queue.lock();
            q.calls.drain(..).map(|(id, _)| (id, Err(CudaError::Disconnected))).collect()
        };
        self.sink.reply_batch(conn, drained);
    }
}

impl MuxService for MuxGateway {
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall) {
        // Runs on the reactor thread: enqueue and get out. Context creation
        // (first call on a channel) is the only heavier step and is a
        // bounded map-insert + registry insert — plus, for a channel this
        // node offloads, one thread spawn; the connect is that thread's.
        let key = (conn, chan);
        RuntimeMetrics::bump(&self.rt.metrics_ref().mux_requests);
        let state = {
            let mut channels = self.channels.lock();
            match channels.get(&key) {
                Some(Chan::Local(s)) => Arc::clone(s),
                Some(Chan::Relayed(relay)) => {
                    // Under the map lock, so the relay's final drain (which
                    // removes the key first) misses nothing.
                    let _ = relay.send((id, call));
                    return;
                }
                None => {
                    let ctx = self.rt.new_context(format!("mux-{conn}-{chan}"));
                    RuntimeMetrics::bump(&self.rt.metrics_ref().mux_channels);
                    // §4.7: a stream a peer relayed here is served
                    // unconditionally; any other new one needs a slot.
                    let holds_slot = self.offloads && !matches!(call, CudaCall::Offloaded);
                    if holds_slot && !self.rt.try_keep_local() {
                        let (relay, calls) = unbounded();
                        channels.insert(key, Chan::Relayed(relay));
                        // The thread spawn need not hold the map.
                        drop(channels);
                        let gateway = self.me.clone();
                        let sink = self.sink.clone();
                        let relayed =
                            RelayedChannel { gateway, key, calls, sink, awaiting: Some(id) };
                        self.rt.offload(ctx, Box::new(relayed), call);
                        return;
                    }
                    let state = Arc::new(ChannelState {
                        ctx,
                        queue: RankedMutex::new(
                            lock_rank::CHAN_QUEUE,
                            ChanQueue { calls: VecDeque::new(), scheduled: false },
                        ),
                        holds_slot,
                    });
                    channels.insert(key, Chan::Local(Arc::clone(&state)));
                    state
                }
            }
        };
        let schedule = {
            let mut q = state.queue.lock();
            q.calls.push_back((id, call));
            let was = q.scheduled;
            q.scheduled = true;
            !was
        };
        if schedule {
            let _ = self.workq.send(WorkItem::Chan(key));
        }
    }

    fn on_disconnect(&self, conn: ConnId) {
        // Reactor thread: detach the connection's channels quickly and hand
        // the (potentially blocking) context teardown to the worker pool.
        let removed: Vec<Arc<ChannelState>> = {
            let mut channels = self.channels.lock();
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
            let _ = self.workq.send(WorkItem::Teardown(removed));
        }
    }
}

impl MuxGatewayHandle {
    /// Stops the worker pool after it drains all queued work (FIFO: the
    /// stop markers enqueue behind any outstanding teardowns).
    pub fn shutdown(self) {
        for _ in 0..self.workers.len() {
            let _ = self.gateway.workq.send(WorkItem::Stop);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Payload bytes a reply carries onto the wire (zero for the scalar ones).
fn bulk_bytes(reply: &CudaReply) -> usize {
    match reply {
        Ok(ReplyValue::Bytes(buf)) => buf.payload.len(),
        Ok(ReplyValue::Image(image)) => image.entries.iter().map(|e| e.data.len()).sum(),
        _ => 0,
    }
}

fn worker_loop(g: &MuxGateway, rx: &Receiver<WorkItem>) {
    loop {
        // Runnable channels first; bind-waiters only soak up idle workers.
        let item = match rx.try_recv() {
            Ok(item) => item,
            Err(TryRecvError::Empty) => {
                // Nothing else to run: give one waiter a *bounded* park
                // inside the dispatcher's wait queue, where a release
                // reaches it by targeted wakeup. Capped so most workers
                // stay parked on the work queue, ready for fresh calls.
                if g.idle_parkers.load(Ordering::Relaxed) < MAX_IDLE_PARKERS {
                    if let Some(key) = g.pop_waiter() {
                        g.idle_parkers.fetch_add(1, Ordering::Relaxed);
                        serve_channel(g, key, BIND_SLICE);
                        g.idle_parkers.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                }
                match rx.recv() {
                    Ok(item) => item,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match item {
            WorkItem::Stop => break,
            WorkItem::Teardown(states) => {
                for state in states {
                    // The connection is gone: queued calls get no replies
                    // (the sink drops them anyway) — just release what
                    // the context holds. Waits on the service lock until
                    // any in-flight call finishes.
                    g.retire(&state);
                }
                // Teardown released vGPUs: let a parked launch at them.
                g.kick_waiter();
            }
            // Queue-driven attempts never park: a launch that cannot bind
            // right now goes to the waiters list, not a worker slice.
            WorkItem::Chan(key) => serve_channel(g, key, Duration::ZERO),
        }
    }
}

/// One visit to a runnable channel: executes its queued calls in order, up
/// to [`VISIT_BUDGET`], and posts their replies as one batch. `bind_slice`
/// bounds how long a launch may park in the dispatcher's wait queue before
/// the channel is handed back.
fn serve_channel(g: &MuxGateway, key: ChanKey, bind_slice: Duration) {
    let state = match g.channels.lock().get(&key) {
        Some(Chan::Local(state)) => Arc::clone(state),
        // Torn down between scheduling and service: nothing to do.
        _ => return,
    };
    let conn = key.0;
    let mut replies: Vec<(u64, CudaReply)> = Vec::new();
    let mut held_bytes = 0;
    let mut served = 0;
    while served < VISIT_BUDGET {
        let head = {
            let mut q = state.queue.lock();
            let head = q.calls.pop_front();
            // The channel goes idle only with nothing left to post: while
            // `scheduled` is set no other worker can execute its next call
            // and get that reply onto the wire ahead of this visit's.
            if head.is_none() && replies.is_empty() {
                q.scheduled = false;
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
        // Launches may would-block; keep a copy to requeue. Launch specs
        // carry no bulk payloads, so the clone is cheap (bulk data travels
        // in MemcpyH2D, which never blocks on binding).
        let retry = if call.requires_binding() { Some(call.clone()) } else { None };
        let is_exit = matches!(call, CudaCall::Exit);
        if retry.is_some() && !bind_slice.is_zero() && state.ctx.binding().is_none() {
            // This launch may park for the whole slice: what the visit has
            // already answered goes out first.
            g.sink.reply_batch(conn, std::mem::take(&mut replies));
            held_bytes = 0;
        }
        // Snapshot the release counter: if this call frees any vGPU (unbind,
        // victim swap-out, exit teardown), one parked launch gets a retry.
        let unbound_before = g.rt.metrics_ref().unbindings.load(Ordering::Relaxed);
        let outcome = {
            let _guard = state.ctx.service_lock();
            service::try_handle_call(&g.rt, &state.ctx, call, bind_slice)
        };
        let mut parked = false;
        match outcome {
            CallOutcome::Reply(reply) => {
                held_bytes += bulk_bytes(&reply);
                replies.push((id, reply));
                if held_bytes >= VISIT_REPLY_BYTES {
                    g.sink.reply_batch(conn, std::mem::take(&mut replies));
                    held_bytes = 0;
                }
            }
            CallOutcome::WouldBlock => {
                RuntimeMetrics::bump(&g.rt.metrics_ref().mux_retries);
                if g.rt.is_shutdown() {
                    replies.push((id, Err(CudaError::Disconnected)));
                } else {
                    // Put the call back at the head (ordering!), answer
                    // what the visit got done, and only then park the
                    // channel on the waiters list, where the next completion,
                    // teardown or idle worker may pick it up at once.
                    let retry = retry.expect("only launches would-block");
                    state.queue.lock().calls.push_front((id, retry));
                    g.sink.reply_batch(conn, std::mem::take(&mut replies));
                    g.bind_waiters.lock().push_back(key);
                    parked = true;
                }
            }
        }
        if is_exit {
            g.sink.reply_batch(conn, std::mem::take(&mut replies));
            // Remove-then-teardown; a racing disconnect may have won the
            // removal, in which case it owns the teardown.
            let removed = g.channels.lock().remove(&key);
            if let Some(Chan::Local(owned)) = removed {
                g.drain_dead(conn, &owned);
                g.retire(&owned);
            }
        }
        if g.rt.metrics_ref().unbindings.load(Ordering::Relaxed) != unbound_before {
            g.kick_waiter();
        }
        if is_exit || parked {
            return;
        }
    }
    // Out of budget: post first, then, with calls still queued, `scheduled`
    // stays set and the channel goes behind whatever else is runnable.
    g.sink.reply_batch(conn, replies);
    let more = {
        let mut q = state.queue.lock();
        q.scheduled = !q.calls.is_empty();
        q.scheduled
    };
    if more {
        let _ = g.workq.send(WorkItem::Chan(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use mtgpu_api::client::CudaClient;
    use mtgpu_api::protocol::{AllocKind, ModuleHandle, MuxFrame};
    use mtgpu_api::transport::{
        spawn_reactor, FrameBuf, FrontendClient, MuxConnection, ReactorConfig, ReplySink,
    };
    use mtgpu_gpusim::{Driver, GpuSpec, KernelDesc, LaunchConfig, LaunchSpec, Work};
    use mtgpu_simtime::Clock;
    use std::net::TcpListener;

    fn start_node() -> (Arc<NodeRuntime>, Arc<MuxGateway>, MuxGatewayHandle) {
        let clock = Clock::with_scale(1e-7);
        let driver = Driver::with_devices(clock, vec![GpuSpec::test_small(); 2]);
        let rt = NodeRuntime::start(
            driver,
            RuntimeConfig { background_monitor: false, ..RuntimeConfig::default() },
        );
        let (sink, _queue) = ReplySink::channel();
        let (gw, handle) = MuxGateway::start(Arc::clone(&rt), sink);
        let _ = _queue;
        (rt, gw, handle)
    }

    #[test]
    fn end_to_end_over_reactor() {
        let clock = Clock::with_scale(1e-7);
        let driver = Driver::with_devices(clock, vec![GpuSpec::test_small(); 2]);
        let rt = NodeRuntime::start(
            driver,
            RuntimeConfig { background_monitor: false, ..RuntimeConfig::default() },
        );
        let (sink, queue) = ReplySink::channel();
        let (gw, workers) = MuxGateway::start(Arc::clone(&rt), sink);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let svc: Arc<dyn mtgpu_api::transport::MuxService> = gw.clone();
        let reactor = spawn_reactor(listener, ReactorConfig::default(), svc, queue).unwrap();

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
        assert!(rt.wait_idle(std::time::Duration::from_secs(10)), "contexts must tear down");
        assert_eq!(gw.channel_count(), 0);
        assert!(rt.metrics().mux_channels >= 2);
        reactor.shutdown();
        workers.shutdown();
        rt.shutdown();
    }

    #[test]
    fn disconnect_tears_channels_down() {
        let clock = Clock::with_scale(1e-7);
        let driver = Driver::with_devices(clock, vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(
            driver,
            RuntimeConfig { background_monitor: false, ..RuntimeConfig::default() },
        );
        let (sink, queue) = ReplySink::channel();
        let (gw, workers) = MuxGateway::start(Arc::clone(&rt), sink);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let svc: Arc<dyn mtgpu_api::transport::MuxService> = gw.clone();
        let reactor = spawn_reactor(listener, ReactorConfig::default(), svc, queue).unwrap();

        let conn = MuxConnection::connect(reactor.addr()).unwrap();
        let mut c = FrontendClient::new(conn.channel());
        let _ = c.malloc(4096).unwrap();
        // Drop the socket without Exit: the reactor must notice and the
        // gateway must release the context and its memory.
        conn.shutdown();
        assert!(rt.wait_idle(std::time::Duration::from_secs(10)), "disconnect must tear down");
        assert_eq!(gw.channel_count(), 0);
        reactor.shutdown();
        workers.shutdown();
        rt.shutdown();
    }

    /// A gateway with no pool (the test is the worker), the receiving end
    /// of its work queue, and the client end of a loopback socket attached
    /// to the gateway's sink as connection 1.
    fn poolless_gateway(
        cfg: RuntimeConfig,
    ) -> (Arc<NodeRuntime>, Arc<MuxGateway>, Receiver<WorkItem>, std::net::TcpStream) {
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(driver, RuntimeConfig { background_monitor: false, ..cfg });
        let (sink, queue) = ReplySink::channel();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        queue.attach(1, listener.accept().unwrap().0);
        let (gw, workq) = MuxGateway::new(Arc::clone(&rt), sink);
        (rt, gw, workq, client)
    }

    /// Plays worker until the work queue is empty; returns how many
    /// channel hand-offs it took.
    fn run_queue(gw: &MuxGateway, workq: &Receiver<WorkItem>) -> usize {
        let mut visits = 0;
        while let Ok(item) = workq.try_recv() {
            let WorkItem::Chan(key) = item else { panic!("only channel work is expected") };
            serve_channel(gw, key, Duration::ZERO);
            visits += 1;
        }
        visits
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

    fn malloc() -> CudaCall {
        CudaCall::Malloc { size: 64, kind: AllocKind::Linear }
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

    #[test]
    fn pipelined_flush_costs_one_hand_off_per_visit_budget_and_keeps_order() {
        let (rt, gw, workq, mut client) = poolless_gateway(RuntimeConfig::default());
        // A full client pipeline (MAX_PIPELINE = 160) and the call that
        // flushes it, all queued before any worker looks.
        const CALLS: u64 = 161;
        for id in 0..CALLS {
            gw.on_request(1, 1, id, malloc());
        }
        assert_eq!(workq.len(), 1, "a channel sits on the work queue at most once");
        assert_eq!(run_queue(&gw, &workq), (CALLS as usize).div_ceil(VISIT_BUDGET));
        let replies = read_replies(&mut client, CALLS as usize);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..CALLS), "replies out of order");
        assert!(replies.iter().all(|(_, r)| matches!(r, Ok(ReplyValue::Ptr(_)))));
        // Idle again: the next request schedules the channel afresh. Exit
        // answers what the visit produced and itself before it tears down;
        // what was queued behind it is told the channel is gone.
        for (id, call) in [malloc(), CudaCall::Exit, malloc()].into_iter().enumerate() {
            gw.on_request(1, 1, CALLS + id as u64, call);
        }
        assert_eq!(run_queue(&gw, &workq), 1);
        let last = read_replies(&mut client, 3);
        assert!(last.iter().map(|(id, _)| *id).eq(CALLS..CALLS + 3));
        assert!(matches!(last[0].1, Ok(ReplyValue::Ptr(_))));
        assert_eq!(last[1].1, Ok(ReplyValue::Unit));
        assert_eq!(last[2].1, Err(CudaError::Disconnected));
        assert_eq!(gw.channel_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn finished_replies_go_out_before_a_launch_parks() {
        let (rt, gw, workq, mut client) = poolless_gateway(RuntimeConfig::serialized());
        let hog = rt.new_context("hog".into());
        let held = rt.bindings().acquire(&hog, 0.0, 0, Duration::ZERO).expect("free vGPU");
        let register = CudaCall::RegisterFunction {
            module: ModuleHandle(1),
            kernel: KernelDesc::plain("noop"),
        };
        for (id, call) in [register, malloc(), noop_launch()].into_iter().enumerate() {
            gw.on_request(1, 1, id as u64, call);
        }
        let Ok(WorkItem::Chan(key)) = workq.try_recv() else { panic!("channel not scheduled") };
        std::thread::scope(|s| {
            // An idle worker lending itself to the channel: the launch may
            // park in the dispatcher for as long as this slice.
            let parker = s.spawn(|| serve_channel(&gw, key, Duration::from_secs(60)));
            // Only this thread can end the park, and it does so after the
            // first two replies are in hand.
            let early = read_replies(&mut client, 2);
            assert!(early.iter().map(|(id, _)| *id).eq(0..2));
            rt.bindings().release(hog.id, held.vgpu);
            let done = read_replies(&mut client, 1);
            assert!(matches!(done[0], (2, Ok(_))), "{done:?}");
            parker.join().unwrap();
        });
        gw.on_request(1, 1, 3, CudaCall::Exit);
        run_queue(&gw, &workq);
        rt.shutdown();
    }

    #[test]
    fn would_block_mid_visit_ships_earlier_replies_and_keeps_the_rest_queued_in_order() {
        let (rt, gw, workq, mut client) = poolless_gateway(RuntimeConfig::serialized());
        // The node's only vGPU is taken, so the channel's launch cannot bind.
        let hog = rt.new_context("hog".into());
        let held = rt.bindings().acquire(&hog, 0.0, 0, Duration::ZERO).expect("free vGPU");
        let calls = [
            CudaCall::RegisterFunction {
                module: ModuleHandle(1),
                kernel: KernelDesc::plain("noop"),
            },
            malloc(),
            noop_launch(),
            malloc(),
            CudaCall::Synchronize,
        ];
        for (id, call) in calls.into_iter().enumerate() {
            gw.on_request(1, 1, id as u64, call);
        }
        assert_eq!(run_queue(&gw, &workq), 1);
        // The two calls ahead of the launch are answered without waiting
        // for it; the launch and its successors wait, still in order, and
        // the channel is parked, not rescheduled.
        let early = read_replies(&mut client, 2);
        assert!(early.iter().map(|(id, _)| *id).eq(0..2));
        nothing_more_arrives(&mut client);
        assert_eq!(rt.metrics().mux_retries, 1);
        assert!(workq.is_empty());
        assert_eq!(*gw.bind_waiters.lock(), [(1, 1)]);
        {
            let state = match gw.channels.lock().get(&(1, 1)) {
                Some(Chan::Local(state)) => Arc::clone(state),
                _ => panic!("the channel is served here"),
            };
            let q = state.queue.lock();
            assert!(q.scheduled);
            assert!(q.calls.iter().map(|(id, _)| *id).eq(2..5));
            assert!(matches!(q.calls[0].1, CudaCall::Launch { .. }));
        }
        // The vGPU comes free: a kick puts the channel back on the queue
        // and one visit finishes the batch.
        rt.bindings().release(hog.id, held.vgpu);
        gw.kick_waiter();
        assert_eq!(run_queue(&gw, &workq), 1);
        let late = read_replies(&mut client, 3);
        assert!(late.iter().map(|(id, _)| *id).eq(2..5));
        assert!(late.iter().all(|(_, r)| r.is_ok()), "{late:?}");
        gw.on_request(1, 1, 5, CudaCall::Exit);
        run_queue(&gw, &workq);
        rt.shutdown();
    }

    #[test]
    fn relayed_channel_is_forwarded_in_order_and_leaves_the_map_when_its_relay_ends() {
        let (rt, gw, workq, mut client) = poolless_gateway(RuntimeConfig::default());
        let key = (1, 2);
        // What `on_request` sets up for a channel it offloads, by hand: the
        // test is the relay thread.
        let open_relay = || {
            let (relay, calls) = unbounded();
            gw.channels.lock().insert(key, Chan::Relayed(relay));
            let (gateway, sink) = (Arc::downgrade(&gw), gw.sink.clone());
            RelayedChannel { gateway, key, calls, sink, awaiting: None }
        };
        let mut conn = open_relay();
        for (id, call) in [malloc(), CudaCall::Exit, malloc()].into_iter().enumerate() {
            gw.on_request(1, 2, id as u64, call);
        }
        assert!(workq.is_empty(), "a relayed channel's calls never reach the pool");
        assert!(matches!(conn.recv(), Some(CudaCall::Malloc { .. })));
        assert!(conn.send(Ok(ReplyValue::Unit)));
        assert!(!conn.send(Ok(ReplyValue::Unit)), "one reply per call");
        assert!(matches!(conn.recv_timeout(Duration::ZERO), RecvOutcome::Call(CudaCall::Exit)));
        assert!(conn.send(Ok(ReplyValue::Unit)));
        // The relay ends at Exit: what was queued behind it is told so, and
        // the key is free again.
        drop(conn);
        let replies = read_replies(&mut client, 3);
        assert!(replies.iter().map(|(id, _)| *id).eq(0..3));
        assert_eq!(replies[2].1, Err(CudaError::Disconnected));
        assert_eq!(gw.channel_count(), 0);

        // A client that vanishes hangs the relay up; the teardown is the
        // relay's, so the pool is handed nothing.
        let mut conn = open_relay();
        gw.on_disconnect(1);
        assert_eq!(gw.channel_count(), 0);
        assert!(workq.is_empty());
        assert!(conn.recv().is_none());
        assert!(matches!(conn.recv_timeout(Duration::ZERO), RecvOutcome::Closed));
        drop(conn);
        rt.shutdown();
    }

    #[test]
    fn bulk_replies_past_the_byte_bound_arrive_whole_and_in_order() {
        use mtgpu_api::transport::Transport;
        let clock = Clock::with_scale(1e-7);
        let driver = Driver::with_devices(clock, vec![GpuSpec::test_small()]);
        let rt = NodeRuntime::start(
            driver,
            RuntimeConfig { background_monitor: false, ..RuntimeConfig::default() },
        );
        let (sink, queue) = ReplySink::channel();
        let (gw, workers) = MuxGateway::start(Arc::clone(&rt), sink);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let svc: Arc<dyn mtgpu_api::transport::MuxService> = gw;
        let reactor = spawn_reactor(listener, ReactorConfig::default(), svc, queue).unwrap();
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
        let replies = ch.roundtrip_batch(calls);
        assert_eq!(replies.len(), 12);
        for pair in replies.chunks(2) {
            let Ok(ReplyValue::Bytes(buf)) = &pair[0] else { panic!("{:?}", pair[0]) };
            assert!(buf.payload == data, "download differs from what was uploaded");
            assert!(matches!(pair[1], Ok(ReplyValue::DeviceCount(_))), "{:?}", pair[1]);
        }
        assert_eq!(ch.roundtrip(CudaCall::Exit), Ok(ReplyValue::Unit));
        reactor.shutdown();
        workers.shutdown();
        rt.shutdown();
    }

    #[test]
    fn worker_pool_sizes_automatically() {
        let (rt, _gw, handle) = start_node();
        assert_eq!(handle.workers.len(), rt.bindings().total_vgpus() + 4);
        handle.shutdown();
        rt.shutdown();
    }
}
