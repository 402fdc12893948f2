//! Transports carrying the interposed call stream to the runtime daemon.
//!
//! The paper's prototype uses the gVirtuS socket framework: AF_UNIX sockets
//! natively, VM-sockets under virtualization (§3). We provide **one** wire
//! — multiplexed frames ([`MuxConnection`] on the client, [`spawn_reactor`]
//! on the server) over two socket families: TCP to the node's one listener,
//! which every remote frontend and the inter-node offload relay (§4.7)
//! speak, and Unix-domain socketpairs ([`ReactorHandle::connect_local`])
//! for clients in the daemon's own process, such as the load drivers and
//! the benchmark: one codec, one framing, one set of hostile-peer checks.
//! Application threads that skip the wire (tests, figures, the in-process
//! deterministic runs) never reach this module's server side: the runtime
//! runs their calls on their own threads, behind a [`Transport`] of its own.

mod frame;
mod mux;
mod reactor;

pub use frame::{encode_frame, read_frame, write_frame, FrameBuf, MAX_FRAME_BYTES};
pub use mux::{ByteStream, MuxChannel, MuxConnection, MuxPool};
pub use reactor::{
    spawn_reactor, ConnId, MuxService, ReactorConfig, ReactorHandle, ReactorStats, ReplyQueue,
    ReplySink, SWEEP_RUN_BUDGET,
};

use crate::client::CudaClient;
use crate::error::CudaError;
use crate::protocol::{CudaCall, CudaReply};

/// Client side of a connection: ships one call, waits for one reply.
pub trait Transport: Send {
    /// Performs one request/reply exchange. Transport failures surface as
    /// `Err(CudaError::Disconnected)` / `Err(CudaError::Protocol)` replies.
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply;

    /// Ships a batch of calls, returning one reply per call in order. The
    /// default is sequential roundtrips; multiplexed transports pipeline
    /// the batch over a single write.
    fn roundtrip_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        calls.into_iter().map(|c| self.roundtrip(c)).collect()
    }
}

/// The interposition frontend: a [`CudaClient`] that forwards every call
/// over a [`Transport`]. This is the piece that, in the paper, overrides the
/// CUDA Runtime API inside the guest OS or unmodified application.
///
/// With [`FrontendClient::with_pipelining`], kernel launches are pipelined:
/// the frontend queues `ConfigureCall`/`Launch` pairs locally and ships the
/// whole run with the next call whose reply the application actually needs
/// (a transfer, a synchronize, an exit). Over a multiplexed transport that
/// turns a launch loop into one write and one wait instead of a round trip
/// per kernel — the CUDA runtime makes the same asynchrony promise. An
/// error from a pipelined launch surfaces on the flushing call, like a
/// deferred launch failure surfaces at `cudaDeviceSynchronize`. The default
/// stays eager, preserving Table 1's synchronous error matrix (a launch on
/// a bad pointer reports "No valid PTE" from the launch itself).
pub struct FrontendClient<T: Transport> {
    transport: T,
    hung_up: bool,
    pipeline: bool,
    pending: Vec<CudaCall>,
}

/// Upper bound on queued pipelined calls, so one flush never balloons into
/// an arbitrarily large wire burst. A launch loop of up to 80 kernels (a
/// `ConfigureCall`/`Launch` pair each) fits in a single flush; longer ones,
/// BS-S's 256 launches (512 calls) and MM-S's 200, go out in several
/// flushes: the launch that finds the queue full ships it along with
/// itself.
const MAX_PIPELINE: usize = 160;

/// Calls whose replies are always `Unit` and whose errors may be deferred,
/// so queueing them loses nothing. Transfers stay eager: their failure
/// modes (bad pointer, size mismatch) are part of the caller-visible
/// contract.
fn deferrable(call: &CudaCall) -> bool {
    matches!(
        call,
        CudaCall::ConfigureCall { .. }
            | CudaCall::RegisterFunction { .. }
            | CudaCall::HintJobLength { .. }
            | CudaCall::RegisterNested { .. }
    )
}

/// Batch-deferrable additionally includes `Launch`: its real reply carries
/// `LaunchDone { sim_nanos }`, which `call_batch` callers (the `launch()`
/// helper) discard — so a `Unit` placeholder is indistinguishable to them.
/// Raw `call(Launch)` stays eager for callers that want the timing.
fn batch_deferrable(call: &CudaCall) -> bool {
    deferrable(call) || matches!(call, CudaCall::Launch { .. })
}

impl<T: Transport> FrontendClient<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        FrontendClient { transport, hung_up: false, pipeline: false, pending: Vec::new() }
    }

    /// Opts into asynchronous launch pipelining (see the type docs).
    pub fn with_pipelining(mut self) -> Self {
        self.pipeline = true;
        self
    }

    /// Ships the pipelined prefix plus `calls`, returning the replies for
    /// `calls` — unless a pipelined launch failed, in which case its error
    /// is reported for every call in the flush.
    fn flush_with(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        let n = calls.len();
        let mut all = std::mem::take(&mut self.pending);
        let skip = all.len();
        all.extend(calls);
        let mut replies = self.transport.roundtrip_batch(all);
        let rest = replies.split_off(skip.min(replies.len()));
        if let Some(err) = replies.into_iter().find_map(|r| r.err()) {
            return (0..n).map(|_| Err(err.clone())).collect();
        }
        rest
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
        if self.pipeline && deferrable(&call) && self.pending.len() < MAX_PIPELINE {
            self.pending.push(call);
            return Ok(crate::protocol::ReplyValue::Unit);
        }
        if self.pending.is_empty() {
            return self.transport.roundtrip(call);
        }
        self.flush_with(vec![call]).pop().unwrap_or(Err(CudaError::Disconnected))
    }

    fn call_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        if self.hung_up {
            return calls.iter().map(|_| Err(CudaError::Disconnected)).collect();
        }
        if self.pipeline
            && calls.iter().all(batch_deferrable)
            && self.pending.len() + calls.len() <= MAX_PIPELINE
        {
            let n = calls.len();
            self.pending.extend(calls);
            return (0..n).map(|_| Ok(crate::protocol::ReplyValue::Unit)).collect();
        }
        if calls.iter().any(|c| matches!(c, CudaCall::Exit)) {
            self.hung_up = true;
        }
        self.flush_with(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CudaClient;
    use crate::protocol::ReplyValue;

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
}
