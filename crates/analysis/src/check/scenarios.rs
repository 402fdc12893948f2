//! The mtcheck scenario matrix: small, seeded, two-thread workloads over
//! the real runtime components, each hammering one of the shadowed state
//! cells the ISSUE's race detector audits:
//!
//! | scenario            | component          | shadow cell               |
//! |---------------------|--------------------|---------------------------|
//! | `dispatcher-churn`  | [`BindingManager`] | `sched.free`              |
//! | `swap-vs-free`      | [`MemoryManager`]  | `mm.swap`                 |
//! | `lease-admit-vs-reap` | [`LeaseBook`]    | `policy.lease.global_used`|
//! | `migrate-vs-launch` | [`MemoryManager`]  | `mm.swap`, `mm.table`     |
//! | `victim-swap-vs-owner` | [`MemoryManager`] | `mm.table`, `mm.swap`   |
//! | `reply-vs-retire`   | mux [`ReplySink`]  | `reactor.out.closed`      |
//! | `lead-vs-follow`    | [`MuxConnection`]  | `mux.demux.leader`        |
//! | `grant-vs-park`     | gateway + dispatcher | `sched.free`            |
//! | `inline-vs-visit`   | gateway (reactor + pool) | `mux.chan.scheduled`, `sched.free` |
//! | `cancel-vs-grant`   | [`BindingManager`] | `sched.free`              |
//! | `retry-vs-free`     | gateway + dispatcher | `mux.chan.scheduled`, `sched.free` |
//! | `fixture-race`      | seeded fixture     | `fixture.check.cell`      |
//!
//! Every builder constructs *fresh* component state on the (unregistered)
//! setup thread, so the session only observes the participants, and the
//! participants only use public runtime APIs. `fixture-race` is the
//! deliberately broken control: two threads mutate a shadow cell under two
//! *different* ranked locks, which the detector must flag.

use mtgpu_api::protocol::{CudaCall, CudaReply, ModuleHandle, MuxFrame, ReplyValue};
use mtgpu_api::transport::{
    encode_frame, ByteStream, FrameBuf, MuxConnection, MuxService, ReplyQueue, ReplySink,
    Transport, SWEEP_RUN_BUDGET,
};
use mtgpu_api::CudaError;
use mtgpu_core::memory::AllocKind;
use mtgpu_core::{
    AppContext, Binding, BindingManager, CtxId, GpuLease, LeaseBook, Materialize, MemoryConfig,
    MemoryManager, NodeRuntime, RuntimeConfig, RuntimeMetrics, SchedulerPolicy, SwapReason,
    TenantPolicyConfig, VGpuId,
};
use mtgpu_gpusim::{
    DeviceId, Driver, Gpu, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work,
};
use mtgpu_simtime::mtcheck::Participant;
use mtgpu_simtime::{Clock, LockRank, RankedCondvar, RankedMutex, Shadow, SimDuration};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One named scenario of the matrix.
pub struct Scenario {
    pub name: &'static str,
    pub about: &'static str,
    /// Whether a clean exploration is the pass criterion. The seeded
    /// fixture inverts this: it exists to prove the detector fires.
    pub expect_clean: bool,
    builder: fn() -> Vec<Participant>,
}

impl Scenario {
    /// Builds fresh participants for one run.
    pub fn participants(&self) -> Vec<Participant> {
        (self.builder)()
    }
}

/// The full matrix, in report order.
pub fn all() -> &'static [Scenario] {
    &MATRIX
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    MATRIX.iter().find(|s| s.name == name)
}

static MATRIX: [Scenario; 12] = [
    Scenario {
        name: "dispatcher-churn",
        about: "two contexts churn try_acquire_on/release against one \
                2-vGPU device (its free-list under SCHED)",
        expect_clean: true,
        builder: dispatcher_churn,
    },
    Scenario {
        name: "swap-vs-free",
        about: "one context mallocs (swap reserve) while another frees \
                pre-staged allocations (swap release): each under its own \
                MM_TABLE, the accounting under the MM_STATE leaf",
        expect_clean: true,
        builder: swap_vs_free,
    },
    Scenario {
        name: "lease-admit-vs-reap",
        about: "admission charges race the TTL reaper over the lease \
                book's global-used cell under TENANT_POLICY",
        expect_clean: true,
        builder: lease_admit_vs_reap,
    },
    Scenario {
        name: "migrate-vs-launch",
        about: "migration planning + context teardown race a launch-\
                closure walk over the same memory-manager state",
        expect_clean: true,
        builder: migrate_vs_launch,
    },
    Scenario {
        name: "victim-swap-vs-owner",
        about: "a requester materializes its own context, then swaps a \
                co-tenant out under that tenant's service lock, while the \
                tenant's owner frees entries and a third thread reads the \
                tenant's resident bytes: one MM_TABLE per context, counters \
                read with no lock",
        expect_clean: true,
        builder: victim_swap_vs_owner,
    },
    Scenario {
        name: "reply-vs-retire",
        about: "two workers post reply batches to one mux connection \
                while the reactor retires it (table, then the \
                connection's outbound half under CONN_OUT)",
        expect_clean: true,
        builder: reply_vs_retire,
    },
    Scenario {
        name: "lead-vs-follow",
        about: "two callers share one client connection with no reader \
                thread: whoever finds the stream unread reads it, files \
                the other's reply, hands the read on when it leaves; the \
                scripted peer answers out of order, volunteers stray \
                frames and hangs up on the last request but one",
        expect_clean: true,
        builder: lead_vs_follow,
    },
    Scenario {
        name: "grant-vs-park",
        about: "a release grants the vGPU to a channel whose visit is \
                just leaving its launch queued in the dispatcher, a third \
                worker standing by: the launch runs once, replies keep \
                call order",
        expect_clean: true,
        builder: grant_vs_park,
    },
    Scenario {
        name: "inline-vs-visit",
        about: "the reactor runs a channel's calls itself while a worker \
                finishes a visit to it (posts, then looks again) and another \
                tears down the context whose release wakes the channel: one \
                thread per channel, each call once, replies in call order",
        expect_clean: true,
        builder: inline_vs_visit,
    },
    Scenario {
        name: "cancel-vs-grant",
        about: "teardown of a queued context races the release that \
                grants to it and a late arrival: every slot comes back, \
                no entry stays queued",
        expect_clean: true,
        builder: cancel_vs_grant,
    },
    Scenario {
        name: "retry-vs-free",
        about: "a launch that falls short for memory gives its vGPU up and \
                waits for room while its co-tenant frees the memory in its \
                way and is torn down, and a worker runs whatever is woken: \
                the Free ends the wait wherever it lands, one grant, replies \
                in call order",
        expect_clean: true,
        builder: retry_vs_free,
    },
    Scenario {
        name: "fixture-race",
        about: "seeded control: two threads mutate one shadow cell under \
                two different ranked locks — must be detected",
        expect_clean: false,
        builder: fixture_race,
    },
];

fn metrics() -> Arc<RuntimeMetrics> {
    Arc::new(RuntimeMetrics::default())
}

fn dispatcher_churn() -> Vec<Participant> {
    let bm =
        Arc::new(BindingManager::new_seeded(SchedulerPolicy::FcfsRoundRobin, metrics(), 0x5eed));
    let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::virtual_clock(), 0);
    bm.add_device(DeviceId(0), gpu, 2).expect("attach scenario device");
    (0..2u64)
        .map(|t| {
            let bm = Arc::clone(&bm);
            Box::new(move || {
                let ctx = CtxId(100 + t);
                for _ in 0..3 {
                    if let Some(binding) = bm.try_acquire_on(ctx, DeviceId(0)) {
                        bm.release(ctx, binding.vgpu);
                    }
                }
            }) as Participant
        })
        .collect()
}

fn swap_vs_free() -> Vec<Participant> {
    let mm = Arc::new(MemoryManager::new(MemoryConfig::default(), metrics()));
    mm.register_ctx(CtxId(1));
    mm.register_ctx(CtxId(2));
    // Pre-stage the allocations thread B frees, so both sides are inside
    // the session from their first lock acquisition.
    let staged: Vec<_> = (0..4)
        .map(|_| mm.malloc(CtxId(2), 4096, AllocKind::Linear).expect("stage allocation"))
        .collect();
    let (ma, mb) = (Arc::clone(&mm), mm);
    vec![
        Box::new(move || {
            for _ in 0..4 {
                ma.malloc(CtxId(1), 4096, AllocKind::Linear).expect("scenario malloc");
            }
        }),
        Box::new(move || {
            for vaddr in staged {
                mb.free(CtxId(2), vaddr, None).expect("scenario free");
            }
        }),
    ]
}

fn lease_admit_vs_reap() -> Vec<Participant> {
    let lease = GpuLease { mem_mb: 4, max_contexts: 0, ttl_s: 1, priority: 100 };
    let cfg = TenantPolicyConfig::default().with_default_lease(lease);
    let book = Arc::new(LeaseBook::new(Some(cfg)));
    let clock = Clock::virtual_clock();
    let t0 = clock.now();
    book.register_ctx(CtxId(1), t0);
    book.register_ctx(CtxId(2), t0);
    // Advance past the TTL on the setup thread: expiry is then purely a
    // question of whether the reaper's tick runs before an admit.
    clock.advance(SimDuration::from_secs(2));
    let reap_now = clock.now();
    let (admit, reaper) = (Arc::clone(&book), book);
    vec![
        Box::new(move || {
            for _ in 0..3 {
                // May legitimately fail once the reaper expired the lease;
                // the point is the lock/cell traffic, not the verdict.
                if admit.try_charge(CtxId(1), 64 << 10).is_ok() {
                    admit.uncharge(CtxId(1), 64 << 10);
                }
            }
        }),
        Box::new(move || {
            let (_expired, _doomed) = reaper.tick(reap_now);
            reaper.release_ctx(CtxId(2));
        }),
    ]
}

fn migrate_vs_launch() -> Vec<Participant> {
    let mm = Arc::new(MemoryManager::new(MemoryConfig::default(), metrics()));
    mm.register_ctx(CtxId(1));
    mm.register_ctx(CtxId(2));
    let launch_args: Vec<KernelArg> = (0..2)
        .map(|_| KernelArg::Ptr(mm.malloc(CtxId(1), 4096, AllocKind::Linear).expect("stage arg")))
        .collect();
    for _ in 0..2 {
        mm.malloc(CtxId(2), 4096, AllocKind::Linear).expect("stage migration source");
    }
    let (launcher, migrator) = (Arc::clone(&mm), mm);
    vec![
        Box::new(move || {
            for _ in 0..3 {
                let bases =
                    launcher.launch_closure(CtxId(1), &launch_args).expect("launch closure");
                launcher.mark_launched(CtxId(1), &bases);
            }
        }),
        Box::new(move || {
            let _plan = migrator.migration_plan(CtxId(2));
            let _plan_again = migrator.migration_plan(CtxId(2));
            migrator.remove_ctx(CtxId(2), None);
        }),
    ]
}

/// Inter-application swap against the victim's own traffic. The victim's
/// table is only ever touched under its service lock (the requester wins it
/// with a `try_lock` or leaves the victim alone) and its table lock; the
/// reader touches neither. Whatever the interleaving, the victim's counters
/// end where its table does and the swap area balances.
fn victim_swap_vs_owner() -> Vec<Participant> {
    const REQUESTER: CtxId = CtxId(1);
    const VICTIM: CtxId = CtxId(2);
    let mm = Arc::new(MemoryManager::new(MemoryConfig::default(), metrics()));
    mm.register_ctx(REQUESTER);
    mm.register_ctx(VICTIM);
    let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::virtual_clock(), 0);
    let binding_on = |gpu: &Arc<Gpu>| Binding {
        vgpu: VGpuId { device: DeviceId(0), index: 0 },
        gpu: Arc::clone(gpu),
        gpu_ctx: gpu.create_context().expect("scenario device context"),
    };
    let (mine, theirs) = (binding_on(&gpu), binding_on(&gpu));
    // The victim starts resident and dirty, so the swap writes back.
    let victim = AppContext::new(VICTIM, 2, "victim".into());
    let staged: Vec<_> = (0..3)
        .map(|_| mm.malloc(VICTIM, 4096, AllocKind::Linear).expect("stage victim entry"))
        .collect();
    mm.materialize(VICTIM, &staged, &theirs).expect("stage victim residency");
    mm.mark_launched(VICTIM, &staged);
    let wanted = mm.malloc(REQUESTER, 4096, AllocKind::Linear).expect("stage requester entry");
    let (requester_mm, owner_mm, reader_mm) = (Arc::clone(&mm), Arc::clone(&mm), mm);
    let (asked, owner) = (Arc::clone(&victim), victim);
    let owner_binding = theirs.clone();
    vec![
        Box::new(move || {
            let ready = requester_mm.materialize(REQUESTER, &[wanted], &mine);
            assert_eq!(ready, Ok(Materialize::Ready));
            // A busy victim refuses; an idle one is swapped out whole.
            if let Some(_service) = asked.try_service_lock() {
                let out = requester_mm
                    .swap_out_ctx(VICTIM, &theirs, SwapReason::InterAppVictim)
                    .expect("victim swap-out");
                assert_eq!(out.freed, out.writeback_bytes + out.clean_bytes);
            }
        }),
        Box::new(move || {
            for vaddr in staged {
                let _service = owner.service_lock();
                owner_mm.free(VICTIM, vaddr, Some(&owner_binding)).expect("owner free");
            }
            assert_eq!((owner_mm.resident_bytes(VICTIM), owner_mm.mem_usage(VICTIM)), (0, 0));
        }),
        Box::new(move || {
            for _ in 0..3 {
                let resident = reader_mm.resident_bytes(VICTIM);
                assert!(resident <= 3 * 4096 && resident % 4096 == 0, "torn count {resident}");
            }
        }),
    ]
}

/// Mux teardown against in-flight replies, first slice: the sink side of
/// one connection. Whatever the interleaving, the peer must see whole
/// frames, each reply at most once, then end of stream — a reply that
/// loses the race with the retire is dropped, never half-written and never
/// written after the close.
fn reply_vs_retire() -> Vec<Participant> {
    const CONN: u64 = 1;
    const BATCHES: u64 = 3;
    let (sink, reactor) = ReplySink::channel();
    let mut peer = attach_client(&reactor, CONN);
    let worker = |first_id: u64| {
        let sink = sink.clone();
        Box::new(move || {
            for batch in 0..BATCHES {
                let id = first_id + 2 * batch;
                sink.reply_batch(
                    CONN,
                    [(id, Ok(ReplyValue::Unit)), (id + 1, Ok(ReplyValue::Unit))],
                );
            }
        }) as Participant
    };
    vec![
        worker(0),
        worker(100),
        Box::new(move || {
            reactor.detach(CONN);
            // The socket is shut down: what was written is buffered, the
            // rest never comes, so these reads cannot wait on a worker.
            peer.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            let mut framebuf = FrameBuf::new();
            let mut ids = Vec::new();
            while framebuf.read_from(&mut peer).expect("read up to end of stream") != 0 {
                while let Some(frame) = framebuf.next_frame::<MuxFrame>().expect("whole frames") {
                    match frame {
                        MuxFrame::Response { id, .. } => ids.push(id),
                        MuxFrame::Request { .. } => panic!("a sink wrote a request"),
                    }
                }
            }
            assert!(!framebuf.has_partial(), "a frame was cut by the retire");
            // Batches are atomic: replies come in pairs, each pair once.
            assert!(ids.chunks(2).all(|pair| pair.len() == 2 && pair[1] == pair[0] + 1), "{ids:?}");
            let mut once = ids.clone();
            once.sort_unstable();
            once.dedup();
            assert_eq!(once.len(), ids.len(), "a reply was written twice: {ids:?}");
        }),
    ]
}

const CHK_PEER: LockRank = LockRank { value: 242, name: "CHK_PEER" };

/// The far end of a client connection as a script. It sits behind a ranked
/// lock and condvar of its own, so a read that has to wait for the other
/// caller's request is a wait the explorer models — a real socket would
/// block the one thread that holds the turn.
///
/// The script: nothing until the second request is in, then a response
/// nobody asked for, a request (only a server sends those), the answer to
/// the second request and the answer to the first; nothing again until the
/// fourth, which is answered; the third never is — the peer hangs up.
/// A request is answered with its channel, so a caller knows its own reply.
struct ScriptedPeer {
    state: RankedMutex<PeerState>,
    arrived: RankedCondvar,
}

#[derive(Default)]
struct PeerState {
    /// What the client wrote, until it parses as requests.
    written: FrameBuf,
    /// `(chan, id)` of every request so far, in arrival order.
    requests: Vec<(u64, u64)>,
    /// Bytes the client has yet to read.
    inbox: Vec<u8>,
    hung_up: bool,
}

impl PeerState {
    fn send(&mut self, frame: MuxFrame) {
        encode_frame(&frame, &mut self.inbox).expect("small frame");
    }

    fn answer(&mut self, nth: usize) {
        let (chan, id) = self.requests[nth];
        self.send(MuxFrame::Response { id, reply: Ok(ReplyValue::DeviceCount(chan as u32)) });
    }
}

impl ByteStream for ScriptedPeer {
    fn read_into(&self, framebuf: &mut FrameBuf) -> std::io::Result<usize> {
        let mut state = self.state.lock();
        while state.inbox.is_empty() && !state.hung_up {
            self.arrived.wait(&mut state);
        }
        // What was sent before the hang-up is still read; then end of stream.
        let n = framebuf.read_from(&mut state.inbox.as_slice())?;
        state.inbox.drain(..n);
        Ok(n)
    }

    fn write_all(&self, buf: &[u8]) -> std::io::Result<()> {
        let mut state = self.state.lock();
        if state.hung_up {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        state.written.push(buf);
        while let Some(frame) = state.written.next_frame::<MuxFrame>()? {
            let MuxFrame::Request { chan, id, .. } = frame else { panic!("a client responded") };
            state.requests.push((chan, id));
            match state.requests.len() {
                2 => {
                    state.send(MuxFrame::Response { id: u64::MAX, reply: Ok(ReplyValue::Unit) });
                    state.send(MuxFrame::Request { chan, id, call: CudaCall::Synchronize });
                    state.answer(1);
                    state.answer(0);
                }
                4 => {
                    state.answer(3);
                    state.hung_up = true;
                }
                _ => continue,
            }
            // At most one caller reads at a time.
            self.arrived.notify_one();
        }
        Ok(())
    }

    fn shutdown(&self) {
        self.state.lock().hung_up = true;
        self.arrived.notify_one();
    }
}

/// The client's reply demux with no reader thread (DESIGN.md §12,
/// *Client*): each caller makes two round trips on a channel of its own.
/// Whatever the interleaving, the first is answered with the caller's own
/// reply though the replies arrive in the other order behind two stray
/// frames, the second with the caller's own reply or `Disconnected`; and
/// when both callers are back the connection is dead, nobody is reading, no
/// request is filed, and each stray frame was counted once.
fn lead_vs_follow() -> Vec<Participant> {
    let peer = ScriptedPeer {
        state: RankedMutex::new(CHK_PEER, PeerState::default()),
        arrived: RankedCondvar::new(),
    };
    let conn = MuxConnection::over(peer);
    let left = Arc::new(AtomicUsize::new(0));
    (0..2)
        .map(|_| {
            let (conn, left) = (conn.clone(), Arc::clone(&left));
            Box::new(move || {
                let mut chan = conn.channel();
                let mine = Ok(ReplyValue::DeviceCount(chan.chan() as u32));
                assert_eq!(chan.roundtrip(CudaCall::GetDeviceCount), mine);
                let last = chan.roundtrip(CudaCall::GetDeviceCount);
                assert!(last == mine || last == Err(CudaError::Disconnected), "{last:?}");
                if left.fetch_add(1, Ordering::SeqCst) == 1 {
                    assert!(conn.is_dead() && conn.is_idle());
                    assert_eq!((conn.unknown_responses(), conn.protocol_errors()), (1, 1));
                }
            }) as Participant
        })
        .collect()
}

/// The client end of a loopback socket attached to a sink as connection
/// `conn`, the way the reactor attaches what it accepts.
fn attach_client(sink: &ReplyQueue, conn: u64) -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scenario listener");
    let client =
        TcpStream::connect(listener.local_addr().expect("listener address")).expect("connect");
    let (accepted, _) = listener.accept().expect("accept scenario connection");
    accepted.set_nonblocking(true).expect("nonblocking");
    sink.attach(conn, accepted);
    client
}

/// Reads `want` replies off a scenario client's socket, in wire order.
fn read_replies(client: &mut TcpStream, want: usize) -> Vec<(u64, CudaReply)> {
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut framebuf = FrameBuf::new();
    let mut got = Vec::new();
    while got.len() < want {
        assert_ne!(framebuf.read_from(client).expect("reply bytes"), 0, "early end of stream");
        while let Some(frame) = framebuf.next_frame::<MuxFrame>().expect("whole frames") {
            match frame {
                MuxFrame::Response { id, reply } => got.push((id, reply)),
                MuxFrame::Request { .. } => panic!("a sink wrote a request"),
            }
        }
    }
    got
}

/// `noop`'s registration: the scenarios' launches run it.
fn register_noop() -> CudaCall {
    CudaCall::RegisterFunction { module: ModuleHandle(1), kernel: KernelDesc::plain("noop") }
}

/// A launch of `noop` over `args`.
fn noop_launch(args: Vec<KernelArg>) -> CudaCall {
    let (config, work) = (LaunchConfig::default(), Work::flops(1.0));
    CudaCall::Launch { spec: LaunchSpec { kernel: "noop".into(), config, args, work } }
}

fn malloc(size: u64) -> CudaCall {
    CudaCall::Malloc { size, kind: AllocKind::Linear }
}

/// What one participant of a gateway scenario does on the pool-less
/// runtime: play the reactor, or a worker.
type Body = Box<dyn FnOnce(&NodeRuntime) + Send>;

/// A pool worker's body: serve what is queued.
fn worker() -> Body {
    Box::new(|rt| {
        rt.serve_queued();
    })
}

/// A gateway scenario's bodies, one participant each. The participant that
/// leaves last serves what is still queued and runs `check` with its own
/// handle on `socket`, the client end whose replies the scenario judges.
fn gateway_participants(
    rt: &Arc<NodeRuntime>,
    socket: &TcpStream,
    bodies: Vec<Body>,
    check: fn(&NodeRuntime, &mut TcpStream),
) -> Vec<Participant> {
    let (left, last) = (Arc::new(AtomicUsize::new(0)), bodies.len() - 1);
    bodies
        .into_iter()
        .map(|body| {
            let (rt, left) = (Arc::clone(rt), Arc::clone(&left));
            let mut socket = socket.try_clone().expect("clone scenario socket");
            Box::new(move || {
                body(&rt);
                if left.fetch_add(1, Ordering::SeqCst) == last {
                    while rt.serve_queued() > 0 {}
                    check(&rt, &mut socket);
                }
            }) as Participant
        })
        .collect()
}

/// The end of a gateway scenario whose client's replies `ids` came in call
/// order, the launch at `launch` run and the malloc after it answered: the
/// client exits, and the node is drained.
fn replies_in_order(
    rt: &NodeRuntime,
    socket: &mut TcpStream,
    ids: std::ops::Range<u64>,
    launch: usize,
) {
    let replies = read_replies(socket, ids.clone().count());
    assert!(replies.iter().map(|(id, _)| *id).eq(ids.clone()), "call order: {replies:?}");
    assert!(matches!(replies[launch].1, Ok(ReplyValue::LaunchDone { .. })), "{replies:?}");
    assert!(matches!(replies[launch + 1].1, Ok(ReplyValue::Ptr(_))), "{replies:?}");
    rt.on_request(1, 1, ids.end, CudaCall::Exit);
    rt.serve_queued();
    let m = rt.metrics();
    assert_eq!(m.launches, 2, "the client's launch ran {} time(s)", m.launches - 1);
    assert_eq!(m.bindings, m.unbindings, "{m:?}");
    assert_eq!((rt.load().waiting, rt.context_count()), (0, 0));
}

/// A one-device node nobody called `serve` on, so it has no pool, and the
/// client ends of connection 1 (the scenario's client) and of connection 2
/// (its co-tenant).
fn gateway_node(cfg: RuntimeConfig) -> (Arc<NodeRuntime>, TcpStream, TcpStream) {
    let driver = Driver::with_devices(Clock::virtual_clock(), vec![GpuSpec::test_small()]);
    let rt = NodeRuntime::start(driver, cfg.with_background_monitor(false));
    let client = attach_client(&rt.reply_queue(), 1);
    let other = attach_client(&rt.reply_queue(), 2);
    (rt, client, other)
}

/// The hand-off at the heart of the serving path: one worker's visit finds
/// no vGPU for its channel's launch, puts the launch back, and queues the
/// context in the dispatcher, while another worker's visit tears down the
/// context that holds the vGPU, which grants it. Whichever way the two
/// interleave — the grant may fire inside the first worker's `enqueue` —
/// the wake hands the channel to exactly one worker, with the launch at its
/// head: the launch runs once, and the channel's replies keep call order.
fn grant_vs_park() -> Vec<Participant> {
    const WAITER: u64 = 1;
    const HOG: u64 = 2;
    let (rt, waiter, mut hog) = gateway_node(RuntimeConfig::serialized());
    // The hog binds the node's only vGPU (served here, on the setup
    // thread); then its Exit and the waiter's batch are queued, unserved.
    rt.on_request(HOG, 1, 0, register_noop());
    rt.on_request(HOG, 1, 1, noop_launch(Vec::new()));
    rt.serve_queued();
    assert!(read_replies(&mut hog, 2).iter().all(|(_, r)| r.is_ok()), "the hog never bound");
    let batch = [register_noop(), CudaCall::GetDeviceCount, noop_launch(Vec::new()), malloc(64)];
    for (id, call) in batch.into_iter().enumerate() {
        rt.on_request(WAITER, 1, id as u64, call);
    }
    rt.on_request(HOG, 1, 2, CudaCall::Exit);
    // Three workers drain the work queue — the visit that queues, the one
    // that releases, and one more to pick the woken channel up while the
    // first is still on its way out.
    let bodies = vec![worker(), worker(), worker()];
    gateway_participants(&rt, &waiter, bodies, |rt, waiter| replies_in_order(rt, waiter, 0..4, 2))
}

/// Run-to-completion against the pool on one channel (DESIGN.md §12). The
/// reactor reads three calls of a channel whose visit a worker may still be
/// finishing — posted its replies, about to look for more — and runs each
/// itself if it finds the channel idle; the launch among them finds no vGPU
/// until a second worker tears down the context that holds it, whose release
/// wakes the channel. Whoever wins each race, the channel is served by one
/// thread at a time (`scheduled`, read and written under the channel's
/// lock), every call runs once and the replies keep call order.
fn inline_vs_visit() -> Vec<Participant> {
    const WAITER: u64 = 1;
    const HOG: u64 = 2;
    let (rt, waiter, mut hog) = gateway_node(RuntimeConfig::serialized());
    // The hog binds the node's only vGPU; then the waiter's first two calls
    // and the hog's Exit are queued for the pool, unserved.
    rt.on_request(HOG, 1, 0, register_noop());
    rt.on_request(HOG, 1, 1, noop_launch(Vec::new()));
    rt.serve_queued();
    assert!(read_replies(&mut hog, 2).iter().all(|(_, r)| r.is_ok()), "the hog never bound");
    rt.on_request(WAITER, 1, 0, CudaCall::GetDeviceCount);
    rt.on_request(WAITER, 1, 1, malloc(64));
    rt.on_request(HOG, 1, 2, CudaCall::Exit);
    // The reactor reads one sweep's worth of the waiter's calls while two
    // workers drain the work queue.
    let bodies: Vec<Body> = vec![
        Box::new(move |rt| {
            let mut budget = SWEEP_RUN_BUDGET;
            let calls = [register_noop(), noop_launch(Vec::new()), malloc(64)];
            for (id, call) in calls.into_iter().enumerate() {
                rt.on_sweep_request(WAITER, 1, 2 + id as u64, call, &mut budget);
            }
        }),
        worker(),
        worker(),
    ];
    gateway_participants(&rt, &waiter, bodies, |rt, waiter| replies_in_order(rt, waiter, 0..5, 3))
}

/// Teardown of a queued context against the release that would grant to it,
/// with a late arrival queueing and leaving in between. Whoever wins, the
/// vGPU is released, never leaked: a cancel that finds the entry queued
/// takes it out, one that finds it granted hands the binding back.
fn cancel_vs_grant() -> Vec<Participant> {
    let metrics = metrics();
    let bm = Arc::new(BindingManager::new_seeded(
        SchedulerPolicy::FcfsRoundRobin,
        Arc::clone(&metrics),
        0x5eed,
    ));
    let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::virtual_clock(), 0);
    bm.add_device(DeviceId(0), gpu, 1).expect("attach scenario device");
    let ctx = |id: u64| AppContext::new(CtxId(id), id, format!("s{id}"));
    let (holder, queued, late) = (ctx(1), ctx(2), ctx(3));
    let held = bm.poll(&holder, 0).expect("free scenario vGPU");
    bm.enqueue(&queued, 1.0, 0, None, Box::new(|| {}));
    // What a teardown does with a context the dispatcher may know.
    let leave = |bm: &BindingManager, ctx: &Arc<AppContext>| {
        if let Some(raced) = bm.cancel(ctx) {
            bm.release(ctx.id, raced.vgpu);
        }
    };
    let left = Arc::new(AtomicUsize::new(0));
    let finish = move |bm: &BindingManager| {
        if left.fetch_add(1, Ordering::SeqCst) < 2 {
            return;
        }
        assert_eq!((bm.waiting_count(), bm.bound_count()), (0, 0));
        let m = metrics.snapshot();
        assert_eq!(m.bindings, m.unbindings, "{m:?}");
        let free = bm.try_acquire_on(CtxId(9), DeviceId(0)).expect("the slot is free again");
        bm.release(CtxId(9), free.vgpu);
    };
    // Each participant does its part, then leaves through `finish`.
    let participant = |body: Box<dyn FnOnce(&BindingManager) + Send>| {
        let (bm, finish) = (Arc::clone(&bm), finish.clone());
        Box::new(move || {
            body(&bm);
            finish(&bm);
        }) as Participant
    };
    vec![
        participant(Box::new(move |bm| bm.release(holder.id, held.vgpu))),
        participant(Box::new(move |bm| leave(bm, &queued))),
        participant(Box::new(move |bm| {
            match bm.poll(&late, 0) {
                Some(bound) => bm.release(late.id, bound.vgpu),
                None => bm.enqueue(&late, 1.0, 0, None, Box::new(|| {})),
            }
            leave(bm, &late);
        })),
    ]
}

/// §4.5 unbind-and-retry against the room events that end its wait
/// (DESIGN.md §9). The holder's context fills most of the node's one
/// device; the retrier's launch needs as much again, and with no
/// inter-application swap the only way it runs is the holder giving the
/// memory back. One participant runs the launch on its own thread, as the
/// reactor does: it falls short, gives its vGPU up and queues for room.
/// Another is the worker that runs the holder's `Free` — on the pool, as a
/// `Free` the reactor finds the device held for the launch goes — and
/// whatever that wakes; the third hangs the holder up once it has freed
/// (the teardown whose release would end the wait too). The `Free` alone
/// must end the wait, wherever it lands — before the launch looked, between
/// its failed look and its enqueue, or after: whichever of the launch and
/// the `Free` comes second checks that nobody waits any more. Every
/// schedule ends with the launch run once and its successor answered after
/// it, at most one retry, `bindings == unbindings`, no waiter, no context.
fn retry_vs_free() -> Vec<Participant> {
    const RETRIER: u64 = 1;
    const HOLDER: u64 = 2;
    let cfg = RuntimeConfig { inter_app_swap: false, ..RuntimeConfig::default() };
    let (rt, mut retrier, mut holder) = gateway_node(cfg);
    let chunk = rt.driver().device(DeviceId(0)).expect("device 0").mem_available() * 6 / 10;
    // Served here, on the setup thread: each registers and declares a
    // chunk; the holder binds and makes its chunk resident.
    let setup = |conn: u64, client: &mut TcpStream| {
        rt.on_request(conn, 1, 0, register_noop());
        rt.on_request(conn, 1, 1, malloc(chunk));
        rt.serve_queued();
        match read_replies(client, 2)[1] {
            (_, Ok(ReplyValue::Ptr(ptr))) => ptr,
            ref other => panic!("not a pointer: {other:?}"),
        }
    };
    let (held, wanted) = (setup(HOLDER, &mut holder), setup(RETRIER, &mut retrier));
    rt.on_request(HOLDER, 1, 2, noop_launch(vec![KernelArg::Ptr(held)]));
    rt.serve_queued();
    assert!(read_replies(&mut holder, 1)[0].1.is_ok(), "the holder never bound");
    let (freed, launched) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let launched_seen = Arc::clone(&launched);
    let (freed_seen, freed_done) = (Arc::clone(&freed), Arc::clone(&freed));
    let bodies: Vec<Body> = vec![
        Box::new(move |rt| {
            let mut budget = SWEEP_RUN_BUDGET;
            let launch = noop_launch(vec![KernelArg::Ptr(wanted)]);
            rt.on_sweep_request(RETRIER, 1, 2, launch, &mut budget);
            launched.store(true, Ordering::SeqCst);
            if freed_seen.load(Ordering::SeqCst) {
                assert_eq!(rt.load().waiting, 0, "the Free before the enqueue was lost");
            }
            rt.on_sweep_request(RETRIER, 1, 3, malloc(64), &mut budget);
        }),
        Box::new(move |rt| {
            rt.on_request(HOLDER, 1, 3, CudaCall::Free { ptr: held });
            rt.serve_queued();
            freed.store(true, Ordering::SeqCst);
            if launched_seen.load(Ordering::SeqCst) {
                assert_eq!(rt.load().waiting, 0, "the holder's Free woke nobody");
            }
        }),
        Box::new(move |rt| {
            if freed_done.load(Ordering::SeqCst) {
                rt.on_disconnect(HOLDER);
            }
        }),
    ];
    gateway_participants(&rt, &retrier, bodies, |rt, retrier| {
        rt.on_disconnect(HOLDER);
        let retries = rt.metrics().launch_retries;
        assert!(retries <= 1, "{retries} retries");
        replies_in_order(rt, retrier, 2..4, 0);
    })
}

const CHK_A: LockRank = LockRank { value: 240, name: "CHK_A" };
const CHK_B: LockRank = LockRank { value: 241, name: "CHK_B" };

/// The deliberately seeded race: the shadow cell sits behind a raw std
/// mutex (physically synchronized, no UB) while each thread "protects" it
/// with a *different* ranked lock — so the model sees no ordering edge.
fn fixture_race() -> Vec<Participant> {
    struct Fx {
        a: RankedMutex<()>,
        b: RankedMutex<()>,
        cell: std::sync::Mutex<Shadow<u64>>,
    }
    let fx = Arc::new(Fx {
        a: RankedMutex::new(CHK_A, ()),
        b: RankedMutex::new(CHK_B, ()),
        cell: std::sync::Mutex::new(Shadow::new("fixture.check.cell", 0)),
    });
    let (f1, f2) = (Arc::clone(&fx), fx);
    vec![
        Box::new(move || {
            let _g = f1.a.lock();
            **f1.cell.lock().unwrap() += 1;
        }),
        Box::new(move || {
            let _g = f2.b.lock();
            **f2.cell.lock().unwrap() += 1;
        }),
    ]
}
