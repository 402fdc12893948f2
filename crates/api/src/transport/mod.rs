//! Transports carrying the interposed call stream to the runtime daemon.
//!
//! The paper's prototype uses the gVirtuS socket framework: AF_UNIX sockets
//! natively, VM-sockets under virtualization (§3). We provide **one** wire
//! — multiplexed frames ([`MuxConnection`] on the client, [`spawn_reactor`]
//! on the server) over two socket families: TCP to the node's one listener,
//! which every remote frontend and the inter-node offload relay (§4.7)
//! speak, and local connections ([`ReactorHandle::connect_local`]) for
//! clients in the daemon's own process, such as the load drivers and the
//! benchmark: one codec, one framing, one set of hostile-peer checks. A
//! local connection ([`LocalStream`]) is two one-way Unix-domain
//! socketpairs, requests on one and replies on the other, so a caller
//! blocked on its reply is woken by the reply alone, not also when the
//! reactor drains its request.
//! Application threads that skip the wire (tests, figures, the in-process
//! deterministic runs) never reach this module's server side: the runtime
//! runs their calls on their own threads, behind a [`Transport`] of its own.

mod frame;
mod mux;
mod reactor;

use frame::KEEP_BYTES;
pub use frame::{encode_frame, read_frame, write_frame, FrameBuf, MAX_FRAME_BYTES};
pub use mux::{ByteStream, LocalStream, MuxChannel, MuxConnection, MuxPool};
pub use reactor::{
    spawn_reactor, ConnId, MuxService, ReactorConfig, ReactorHandle, ReactorStats, ReplyQueue,
    ReplySink, SWEEP_RUN_BUDGET,
};

use crate::client::CudaClient;
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply, ModuleHandle, ReplyValue, VaCursor};

/// Client side of a connection: ships one call, waits for one reply.
pub trait Transport: Send {
    /// Performs one request/reply exchange. Transport failures surface as
    /// `Err(CudaError::Disconnected)` / `Err(CudaError::Protocol)` replies.
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply;

    /// Ships a batch of calls, returning one reply per call in order. The
    /// calls are drained, so their buffer stays the caller's to fill again.
    /// The default is sequential roundtrips; multiplexed transports pipeline
    /// the batch over a single write.
    fn roundtrip_batch(&mut self, calls: &mut Vec<CudaCall>) -> Vec<CudaReply> {
        calls.drain(..).map(|c| self.roundtrip(c)).collect()
    }
}

/// The interposition frontend: a [`CudaClient`] that forwards every call
/// over a [`Transport`]. This is the piece that, in the paper, overrides the
/// CUDA Runtime API inside the guest OS or unmodified application.
///
/// With [`FrontendClient::with_pipelining`], every call whose reply the
/// frontend knows in advance is pipelined: it queues launches, copies into
/// and within the device, frees, registrations, mallocs and module
/// registrations locally, answers them at once, and ships the queue with
/// the next call whose reply only the server has (a device-to-host copy, a
/// synchronize, an exit). A malloc is answered with the address the
/// runtime will mint for it and a module registration with the handle it
/// will hand out: both follow a per-channel rule
/// ([`CudaCall::Malloc`], [`CudaCall::RegisterFatBinary`]) the frontend
/// mirrors. Over a multiplexed transport that turns a job's set-up, launch
/// loop and frees into one write and one wait each instead of a round trip
/// per call — the CUDA runtime makes the same asynchrony promise for
/// launches, and in the paper's runtime neither a malloc nor a
/// host-to-device copy touches the device. The server runs a channel's
/// calls in arrival order, so a queued free makes room, and a queued copy
/// lands, when the flush that carries it runs. An error from a queued call
/// (a refused malloc among them) surfaces on the flushing call, like a
/// deferred launch failure surfaces at `cudaDeviceSynchronize`; a pointer
/// that flush allocated is freed again, since its reply is lost. The
/// default stays eager, preserving Table 1's synchronous error matrix (a
/// launch on a bad pointer reports "No valid PTE" from the launch itself,
/// a copy into a freed pointer from the copy).
///
/// Eager or not, the frontend checks every address and module handle the
/// server answers against its mirror: a server that mints otherwise gets
/// [`CudaError::Protocol`] on that call, never an address the application
/// might already hold for another allocation.
pub struct FrontendClient<T: Transport> {
    transport: T,
    hung_up: bool,
    pipeline: bool,
    /// Queued calls. The buffer is kept from one flush to the next.
    pending: Vec<CudaCall>,
    /// The reply the mirror predicts for each queued call, likewise kept.
    minted: Vec<Option<ReplyValue>>,
    /// [`copy_bytes`] summed over `pending`.
    pending_bytes: u64,
    mirror: Mirror,
}

/// What the runtime will answer this channel's mallocs and module
/// registrations with, kept by the rules it mints them by.
#[derive(Default)]
struct Mirror {
    cursor: VaCursor,
    modules: u64,
}

impl Mirror {
    /// Moves past a call the channel is about to send, returning the reply
    /// it gets if it succeeds, where the rules fix it.
    fn mint(&mut self, call: &CudaCall) -> Option<ReplyValue> {
        match call {
            CudaCall::Malloc { size, .. } => Some(ReplyValue::Ptr(self.cursor.take(*size))),
            CudaCall::RegisterFatBinary => {
                self.modules += 1;
                Some(ReplyValue::Module(ModuleHandle(self.modules)))
            }
            CudaCall::ImportImage { image } => {
                self.cursor.lift(image);
                None
            }
            _ => None,
        }
    }
}

/// A reply as the application may see it: a success other than the one
/// the mirror minted means client and server disagree on the rules.
fn checked(reply: CudaReply, minted: &Option<ReplyValue>) -> CudaReply {
    match (reply, minted) {
        (Ok(got), Some(want)) if got != *want => {
            Err(CudaError::Protocol(format!("server answered {got:?}, the rules give {want:?}")))
        }
        (reply, _) => reply,
    }
}

/// Upper bound on queued pipelined calls, so one flush never balloons into
/// an arbitrarily large wire burst. A launch loop of up to 80 kernels (a
/// `ConfigureCall`/`Launch` pair each) fits in a single flush; longer ones,
/// BS-S's 256 launches (512 calls) and MM-S's 200, go out in several
/// flushes. Queued copies are bounded by the bytes they move as well, at
/// [`KEEP_BYTES`], the size the connection buffers keep: a call that would
/// cross either bound ships the queue along with itself, so a copy larger
/// than that is never held back.
const MAX_PIPELINE: usize = 160;

/// Calls whose successful reply the client knows before sending them —
/// `Unit`, or what the [`Mirror`] mints — and that are neither a
/// synchronization nor an admission point, so queueing them (and
/// reporting their errors at the next flush) loses nothing the
/// application reads. `Synchronize`, `Checkpoint`, `Exit`,
/// `SetApplication`, `SetDevice` and `ImportImage` stay eager, and so does
/// every call whose value only the server has.
fn deferrable(call: &CudaCall) -> bool {
    matches!(
        call,
        CudaCall::RegisterFatBinary
            | CudaCall::Malloc { .. }
            | CudaCall::ConfigureCall { .. }
            | CudaCall::RegisterFunction { .. }
            | CudaCall::RegisterVar { .. }
            | CudaCall::RegisterTexture { .. }
            | CudaCall::HintJobLength { .. }
            | CudaCall::RegisterNested { .. }
            | CudaCall::Free { .. }
            | CudaCall::MemcpyH2D { .. }
            | CudaCall::MemcpyD2D { .. }
    )
}

/// Batch-deferrable additionally includes `Launch`: its real reply carries
/// `LaunchDone { sim_nanos }`, which `call_batch` callers (the `launch()`
/// helper) discard — so a `Unit` placeholder is indistinguishable to them.
/// Raw `call(Launch)` stays eager for callers that want the timing.
fn batch_deferrable(call: &CudaCall) -> bool {
    deferrable(call) || matches!(call, CudaCall::Launch { .. })
}

/// Bytes a queued call moves: a host-to-device copy's declared length, the
/// size every layer past the client accounts and times it at (a scaled-down
/// shadow payload stands for all of it).
fn copy_bytes(call: &CudaCall) -> u64 {
    match call {
        CudaCall::MemcpyH2D { buf, .. } => buf.declared_len,
        _ => 0,
    }
}

impl<T: Transport> FrontendClient<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        FrontendClient {
            transport,
            hung_up: false,
            pipeline: false,
            pending: Vec::new(),
            minted: Vec::new(),
            pending_bytes: 0,
            mirror: Mirror::default(),
        }
    }

    /// Opts into pipelining every call whose reply it knows in advance
    /// (see the type docs).
    pub fn with_pipelining(mut self) -> Self {
        self.pipeline = true;
        self
    }

    /// The one admission check of the queue: whether `calls` may join it,
    /// pipelining being on and both bounds ([`MAX_PIPELINE`] calls,
    /// [`KEEP_BYTES`] moved) holding with them in. If not, they ship now,
    /// with the queue ahead of them.
    fn admit(&self, calls: &[CudaCall]) -> bool {
        self.pipeline
            && self.pending.len() + calls.len() <= MAX_PIPELINE
            && self.pending_bytes + calls.iter().map(copy_bytes).sum::<u64>() <= KEEP_BYTES as u64
    }

    /// Queues `call` with its minted reply.
    fn queue(&mut self, call: CudaCall, minted: Option<ReplyValue>) {
        self.pending_bytes += copy_bytes(&call);
        self.pending.push(call);
        self.minted.push(minted);
    }

    /// Ships the whole queue, returning the replies of the calls queued
    /// after the first `skip`, checked — unless one of those `skip` failed,
    /// in which case its error is reported for every call after them. Those
    /// calls did run, so a pointer one of them allocated is freed again
    /// rather than lost with its reply.
    fn flush(&mut self, skip: usize) -> Vec<CudaReply> {
        let n = self.pending.len() - skip;
        self.pending_bytes = 0;
        let replies = self.transport.roundtrip_batch(&mut self.pending);
        let minted = self.minted.drain(..);
        let mut rest: Vec<_> =
            replies.into_iter().zip(minted).map(|(r, m)| checked(r, &m)).collect();
        let failed = rest.drain(..skip.min(rest.len())).find_map(|r| r.err());
        let Some(err) = failed else { return rest };
        for reply in rest {
            if let Ok(ReplyValue::Ptr(ptr)) = reply {
                let _ = self.transport.roundtrip(CudaCall::Free { ptr });
            }
        }
        (0..n).map(|_| Err(err.clone())).collect()
    }
}

impl<T: Transport> CudaClient for FrontendClient<T> {
    fn call(&mut self, call: CudaCall) -> CudaReply {
        if self.hung_up {
            return Err(CudaError::Disconnected);
        }
        if matches!(call, CudaCall::Exit) {
            self.hung_up = true;
        }
        let minted = self.mirror.mint(&call);
        if deferrable(&call) && self.admit(std::slice::from_ref(&call)) {
            let reply = minted.clone().unwrap_or(ReplyValue::Unit);
            self.queue(call, minted);
            return Ok(reply);
        }
        if self.pending.is_empty() {
            return checked(self.transport.roundtrip(call), &minted);
        }
        let skip = self.pending.len();
        self.queue(call, minted);
        self.flush(skip).pop().unwrap_or(Err(CudaError::Disconnected))
    }

    fn call_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        if self.hung_up {
            return calls.iter().map(|_| Err(CudaError::Disconnected)).collect();
        }
        let skip = self.pending.len();
        self.minted.extend(calls.iter().map(|call| self.mirror.mint(call)));
        let admitted = calls.iter().all(batch_deferrable) && self.admit(&calls);
        if !admitted && calls.iter().any(|c| matches!(c, CudaCall::Exit)) {
            self.hung_up = true;
        }
        self.pending_bytes += calls.iter().map(copy_bytes).sum::<u64>();
        self.pending.extend(calls);
        if !admitted {
            return self.flush(skip);
        }
        self.minted[skip..].iter().map(|m| Ok(m.clone().unwrap_or(ReplyValue::Unit))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CudaClient;
    use crate::error::CudaResult;
    use crate::host_buf::HostBuf;
    use crate::protocol::{VADDR_BASE, VALIGN};
    use mtgpu_gpusim::{DeviceAddr, KernelDesc, LaunchConfig, LaunchSpec, Work};
    use std::collections::BTreeMap;

    /// Answers every call `Unit` and counts them; `hung_up` makes it the
    /// far end of a dead connection.
    #[derive(Default)]
    struct Echo {
        served: usize,
        hung_up: bool,
    }

    impl Transport for &mut Echo {
        fn roundtrip(&mut self, _call: CudaCall) -> CudaReply {
            if self.hung_up {
                return Err(CudaError::Disconnected);
            }
            self.served += 1;
            Ok(ReplyValue::Unit)
        }
    }

    #[test]
    fn frontend_forwards_every_call() {
        let mut echo = Echo::default();
        let mut client = FrontendClient::new(&mut echo);
        client.synchronize().unwrap();
        client.set_device(3).unwrap();
        client.exit().unwrap();
        assert_eq!(echo.served, 3);
    }

    #[test]
    fn calls_after_exit_fail_fast() {
        let mut echo = Echo::default();
        let mut client = FrontendClient::new(&mut echo);
        client.exit().unwrap();
        assert_eq!(client.synchronize(), Err(CudaError::Disconnected));
        assert_eq!(echo.served, 1, "nothing is sent once the client hung up");
    }

    #[test]
    fn server_disconnect_surfaces_as_error() {
        let mut echo = Echo { hung_up: true, ..Echo::default() };
        let mut client = FrontendClient::new(&mut echo);
        assert_eq!(client.synchronize(), Err(CudaError::Disconnected));
    }

    /// One channel's context behind a counting transport: a malloc hands
    /// out a fresh zeroed buffer at the address the rules give (plus
    /// `skew`, for a server that mints otherwise) unless it asks for more
    /// than `quota` bytes, copies land in and come back out of it, and a
    /// free or a copy on a pointer it never handed out (or already freed)
    /// fails `InvalidDevicePointer`. Module handles count from 1 (plus
    /// `skew`). Each `roundtrip`/`roundtrip_batch` is one round trip;
    /// `flushes` keeps how many calls each carried.
    #[derive(Default)]
    struct Device {
        mem: BTreeMap<u64, Vec<u8>>,
        cursor: VaCursor,
        modules: u64,
        /// 0: no malloc is refused.
        quota: u64,
        skew: u64,
        flushes: Vec<usize>,
    }

    impl Device {
        fn serve(&mut self, call: CudaCall) -> CudaReply {
            let bad = CudaError::InvalidDevicePointer;
            match call {
                CudaCall::Malloc { size, .. } => {
                    let ptr = self.cursor.take(size).0 + self.skew;
                    if self.quota > 0 && size > self.quota {
                        return Err(CudaError::QuotaExceeded(format!("{size} bytes")));
                    }
                    self.mem.insert(ptr, vec![0; size as usize]);
                    Ok(ReplyValue::Ptr(DeviceAddr(ptr)))
                }
                CudaCall::RegisterFatBinary => {
                    self.modules += 1;
                    Ok(ReplyValue::Module(ModuleHandle(self.modules + self.skew)))
                }
                CudaCall::Free { ptr } => {
                    self.mem.remove(&ptr.0).map(|_| ReplyValue::Unit).ok_or(bad)
                }
                CudaCall::MemcpyH2D { dst, buf } => {
                    let mem = self.mem.get_mut(&dst.0).ok_or(bad)?;
                    let place = mem.get_mut(..buf.payload.len()).ok_or(CudaError::SizeMismatch)?;
                    place.copy_from_slice(&buf.payload);
                    Ok(ReplyValue::Unit)
                }
                CudaCall::MemcpyD2H { src, len } => {
                    let mem = self.mem.get(&src.0).ok_or(bad)?;
                    let bytes = mem.get(..len as usize).ok_or(CudaError::SizeMismatch)?;
                    Ok(ReplyValue::Bytes(HostBuf::from_slice(bytes)))
                }
                CudaCall::MemcpyD2D { dst, src, len } => {
                    let mem = self.mem.get(&src.0).ok_or(bad.clone())?;
                    let bytes = mem.get(..len as usize).ok_or(CudaError::SizeMismatch)?.to_vec();
                    let mem = self.mem.get_mut(&dst.0).ok_or(bad)?;
                    let place = mem.get_mut(..bytes.len()).ok_or(CudaError::SizeMismatch)?;
                    place.copy_from_slice(&bytes);
                    Ok(ReplyValue::Unit)
                }
                CudaCall::GetDeviceCount => Ok(ReplyValue::DeviceCount(1)),
                CudaCall::Launch { .. } => Ok(ReplyValue::LaunchDone { sim_nanos: 1 }),
                _ => Ok(ReplyValue::Unit),
            }
        }
    }

    impl Transport for &mut Device {
        fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
            self.flushes.push(1);
            self.serve(call)
        }

        fn roundtrip_batch(&mut self, calls: &mut Vec<CudaCall>) -> Vec<CudaReply> {
            self.flushes.push(calls.len());
            calls.drain(..).map(|c| self.serve(c)).collect()
        }
    }

    fn kernel() -> LaunchSpec {
        LaunchSpec {
            kernel: "k".into(),
            config: LaunchConfig::default(),
            args: vec![],
            work: Work::flops(1.0),
        }
    }

    fn h2d(dst: DeviceAddr, len: usize) -> CudaCall {
        CudaCall::MemcpyH2D { dst, buf: HostBuf::from_slice(&vec![1; len]) }
    }

    /// The shape of a catalog job: a module with its kernel, 3 mallocs, 2
    /// uploads, a launch, a download, 3 frees and `Exit`. Returns the three
    /// pointers and the downloaded bytes.
    fn catalog_job(client: &mut impl CudaClient) -> CudaResult<(Vec<DeviceAddr>, Vec<u8>)> {
        let module = client.register_fat_binary()?;
        assert_eq!(module, ModuleHandle(1));
        client.register_function(module, KernelDesc::plain("k"))?;
        let ptrs = vec![client.malloc(64)?, client.malloc(64)?, client.malloc(32)?];
        client.memcpy_h2d(ptrs[0], HostBuf::from_slice(&[7; 64]))?;
        client.memcpy_h2d(ptrs[1], HostBuf::from_slice(&[9; 64]))?;
        client.launch(kernel())?;
        let out = client.memcpy_d2h(ptrs[1], 64)?;
        for &ptr in &ptrs {
            client.free(ptr)?;
        }
        client.exit()?;
        Ok((ptrs, out.payload))
    }

    #[test]
    fn the_queue_keeps_its_buffers_from_one_flush_to_the_next() {
        let mut device = Device::default();
        let mut client = FrontendClient::new(&mut device).with_pipelining();
        for _ in 0..2 {
            let ptr = client.malloc(64).unwrap();
            for _ in 0..9 {
                client.memcpy_h2d(ptr, HostBuf::from_slice(&[1; 64])).unwrap();
            }
            client.synchronize().unwrap();
            assert!(client.pending.is_empty() && client.minted.is_empty());
            assert!(client.pending.capacity() >= 11 && client.minted.capacity() >= 11);
        }
        drop(client);
        assert_eq!(device.flushes, [11, 11]);
    }

    #[test]
    fn pipelined_catalog_job_is_two_round_trips_and_eager_thirteen() {
        let mut eager = Device::default();
        let (eager_ptrs, eager_out) = catalog_job(&mut FrontendClient::new(&mut eager)).unwrap();
        let mut piped = Device::default();
        let (piped_ptrs, piped_out) =
            catalog_job(&mut FrontendClient::new(&mut piped).with_pipelining()).unwrap();

        // One round trip per call; the launch's two calls share one.
        assert_eq!(eager.flushes, [1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1]);
        // Registration, mallocs, uploads and launch with the download,
        // then the frees with `Exit`.
        assert_eq!(piped.flushes, [10, 4]);
        // Both get the addresses the rules give, answered early or not.
        let rule = [VADDR_BASE, VADDR_BASE + VALIGN, VADDR_BASE + 2 * VALIGN].map(DeviceAddr);
        for (ptrs, out) in [(&eager_ptrs, &eager_out), (&piped_ptrs, &piped_out)] {
            assert_eq!(ptrs, &rule);
            assert_eq!(out, &[9; 64], "the download reads the second upload");
        }
        assert!(eager.mem.is_empty() && piped.mem.is_empty(), "every free reached the device");
    }

    #[test]
    fn a_server_minting_off_the_rules_gets_a_protocol_error_not_an_alias() {
        let protocol = |reply: CudaResult<_>| matches!(reply, Err(CudaError::Protocol(_)));
        // Eager: the reply itself is checked.
        let mut skewed = Device { skew: VALIGN, ..Device::default() };
        let mut client = FrontendClient::new(&mut skewed);
        assert!(protocol(client.register_fat_binary().map(drop)));
        assert!(protocol(client.malloc(8).map(drop)));
        // Pipelined: the server's first buffer sits where the rules put the
        // second. Both mallocs are answered from the mirror, and the flush
        // that carries them reports the divergence instead of reading the
        // first buffer through the second pointer.
        let mut skewed = Device { skew: VALIGN, ..Device::default() };
        let mut client = FrontendClient::new(&mut skewed).with_pipelining();
        let first = client.malloc(8).unwrap();
        let second = client.malloc(8).unwrap();
        assert_eq!((first.0, second.0), (VADDR_BASE, VADDR_BASE + VALIGN));
        client.memcpy_h2d(second, HostBuf::from_slice(&[1; 8])).unwrap();
        assert!(protocol(client.memcpy_d2h(second, 8).map(drop)));
        // And a server that keeps to the rules is not second-guessed.
        let mut device = Device::default();
        let mut client = FrontendClient::new(&mut device).with_pipelining();
        let ptr = client.malloc(8).unwrap();
        client.memcpy_h2d(ptr, HostBuf::from_slice(&[1; 8])).unwrap();
        assert_eq!(client.memcpy_d2h(ptr, 8).unwrap().payload, [1; 8]);
    }

    #[test]
    fn a_refused_queued_malloc_surfaces_on_the_next_flush_and_its_address_stays_unused() {
        let mut device = Device { quota: 64, ..Device::default() };
        let mut client = FrontendClient::new(&mut device).with_pipelining();
        let refused = client.malloc(128).unwrap();
        assert!(matches!(client.synchronize(), Err(CudaError::QuotaExceeded(_))));
        // The refused malloc took its span: the next one lands past it.
        let ptr = client.malloc(64).unwrap();
        assert_eq!(ptr.0, refused.0 + VALIGN);
        client.memcpy_h2d(ptr, HostBuf::from_slice(&[5; 64])).unwrap();
        assert_eq!(client.memcpy_d2h(ptr, 64).unwrap().payload, [5; 64]);
        assert_eq!(client.memcpy_d2h(refused, 64), Err(CudaError::InvalidDevicePointer));
        assert_eq!(device.flushes, [2, 3, 1]);
    }

    #[test]
    fn deferred_copy_error_surfaces_on_every_call_of_the_flush() {
        let freed = DeviceAddr(0xdead);
        let mut eager = Device::default();
        let mut client = FrontendClient::new(&mut eager);
        assert_eq!(
            client.memcpy_h2d(freed, HostBuf::from_slice(&[1; 8])),
            Err(CudaError::InvalidDevicePointer)
        );

        let mut piped = Device::default();
        let mut client = FrontendClient::new(&mut piped).with_pipelining();
        let good = client.malloc(8).unwrap();
        assert_eq!(client.memcpy_h2d(freed, HostBuf::from_slice(&[1; 8])), Ok(()), "queued");
        // The flush carries the malloc, which ran: `good` is allocated.
        assert_eq!(client.memcpy_d2h(good, 8), Err(CudaError::InvalidDevicePointer));
        // The same through a batch: every call of the flush reports it,
        // though the server ran both of them.
        client.call(h2d(freed, 8)).unwrap();
        let replies = client.call_batch(vec![CudaCall::GetDeviceCount, h2d(good, 8)]);
        assert_eq!(
            replies,
            [Err(CudaError::InvalidDevicePointer), Err(CudaError::InvalidDevicePointer)]
        );
        assert_eq!(piped.flushes, [3, 3]);
        // A flush with no failed queued call answers as the server did.
        let mut client = FrontendClient::new(&mut piped).with_pipelining();
        client.call(h2d(good, 8)).unwrap();
        assert_eq!(client.memcpy_d2h(good, 8).unwrap().payload, [1; 8]);
    }

    #[test]
    fn queued_copies_ship_with_the_copy_that_crosses_keep_bytes() {
        let quarter = KEEP_BYTES / 4;
        let mut device = Device::default();
        let mut client = FrontendClient::new(&mut device).with_pipelining();
        let dst = client.malloc(2 * KEEP_BYTES as u64).unwrap();
        // Four quarters sit exactly on the bound and wait; the fifth
        // crosses it and ships them, and the malloc, along with itself.
        for _ in 0..4 {
            assert_eq!(client.call(h2d(dst, quarter)), Ok(ReplyValue::Unit));
        }
        assert_eq!(client.call(h2d(dst, quarter)), Ok(ReplyValue::Unit));
        // The same through `call_batch`: three wait, the batch of two
        // crosses.
        for _ in 0..3 {
            client.call(h2d(dst, quarter)).unwrap();
        }
        let replies = client.call_batch(vec![h2d(dst, quarter), h2d(dst, quarter)]);
        assert_eq!(replies, [Ok(ReplyValue::Unit), Ok(ReplyValue::Unit)]);
        // One copy past the bound is never held back, not even on an
        // empty queue, nor when only a small shadow of it is carried: the
        // bound counts the bytes the copy declares it moves.
        client.call(h2d(dst, KEEP_BYTES + 1)).unwrap();
        let shadow = HostBuf::with_shadow(KEEP_BYTES as u64 + 1, vec![1; 8]);
        client.call(CudaCall::MemcpyH2D { dst, buf: shadow }).unwrap();
        // A copy of exactly the bound waits for the next call.
        client.call(h2d(dst, KEEP_BYTES)).unwrap();
        client.synchronize().unwrap();
        assert_eq!(device.flushes, [6, 5, 1, 1, 2]);
    }

    #[test]
    fn failed_flush_frees_the_pointer_it_allocated() {
        let mut device = Device::default();
        let mut client = FrontendClient::new(&mut device).with_pipelining();
        let ptr = client.malloc(8).unwrap();
        client.free(ptr).unwrap();
        client.free(ptr).unwrap();
        while client.pending.len() < MAX_PIPELINE {
            client.call(CudaCall::ConfigureCall { config: LaunchConfig::default() }).unwrap();
        }
        // A malloc past a full queue ships it along with itself and runs
        // behind the double free, but the application only sees the
        // error: the client gives the memory back.
        assert_eq!(client.malloc(8), Err(CudaError::InvalidDevicePointer));
        assert!(device.mem.is_empty(), "leaked {:?}", device.mem.keys());
        assert_eq!(device.flushes, [MAX_PIPELINE + 1, 1]);
    }

    #[test]
    fn every_call_with_a_known_reply_but_a_sync_or_admission_point_waits() {
        let mut device = Device::default();
        let mut client = FrontendClient::new(&mut device).with_pipelining();
        let module = client.register_fat_binary().unwrap();
        let (src, dst) = (client.malloc(8).unwrap(), client.malloc(8).unwrap());
        let queued = [
            CudaCall::RegisterFunction { module, kernel: KernelDesc::plain("k") },
            CudaCall::RegisterVar { module, name: "v".into(), size: 4 },
            CudaCall::RegisterTexture { module, name: "t".into() },
            CudaCall::HintJobLength { flops: 1.0 },
            CudaCall::RegisterNested { parent: src, members: vec![dst] },
            h2d(src, 8),
            CudaCall::MemcpyD2D { dst, src, len: 8 },
            CudaCall::ConfigureCall { config: LaunchConfig::default() },
        ];
        for call in queued {
            assert_eq!(client.call(call), Ok(ReplyValue::Unit));
        }
        // One round trip carries them all, in order: the download reads
        // what the device-to-device copy moved.
        assert_eq!(client.memcpy_d2h(dst, 8).unwrap().payload, [1; 8]);
        client.free(src).unwrap();
        let eager = [
            CudaCall::Synchronize,
            CudaCall::Checkpoint,
            CudaCall::SetApplication { app_id: 1 },
            CudaCall::SetDevice { device: 0 },
        ];
        for call in eager {
            client.call(call).unwrap();
        }
        assert_eq!(device.flushes, [12, 2, 1, 1, 1]);
        assert_eq!(device.mem.len(), 1, "the queued free ran with the synchronize");
    }
}
