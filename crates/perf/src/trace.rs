//! Client-side tracing: one span per CUDA call, grouped under an op span.
//!
//! Spans are recorded from the benchmark's own side of each layer boundary
//! (tracing inside the runtime is a later change). A [`TracedClient`] wraps
//! the real client; the generator loop brackets each op with
//! [`Recorder::begin_op`]/[`Recorder::end_op`]. Spans stay in memory and are
//! written as Chrome trace-event JSON when the run ends. For the first
//! [`Recorder::record_ops`] ops the recorder also keeps the calls and
//! replies themselves, which is what the per-layer replays are driven from.

use mtgpu_api::{CudaCall, CudaClient, CudaReply};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name of the span that covers one whole op.
pub const OP_SPAN: &str = "op";

/// One timed interval. Call spans carry the op they belong to; op 0 means
/// "outside any op" (set-up traffic).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
    /// CUDA calls the span covers (a batched launch covers two).
    pub calls: u32,
}

/// How the application issued a recorded call: alone or as one batch.
#[derive(Debug, Clone)]
pub enum Invocation {
    Call(CudaCall),
    Batch(Vec<CudaCall>),
}

impl Invocation {
    /// The calls in issue order.
    pub fn calls(&self) -> &[CudaCall] {
        match self {
            Invocation::Call(c) => std::slice::from_ref(c),
            Invocation::Batch(cs) => cs,
        }
    }
}

/// One recorded client invocation with the replies it returned.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Which client (context) issued it; slots are numbered in creation
    /// order per recorder.
    pub slot: usize,
    pub inv: Invocation,
    pub replies: Vec<CudaReply>,
}

/// The recorded call stream of one generator thread.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Calls issued outside any op (context set-up).
    pub prepare: Vec<Recorded>,
    /// Calls of each recorded op, in op order.
    pub ops: Vec<Vec<Recorded>>,
}

/// Per-generator-thread span and call store.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    cur_op: u64,
    /// Index in `spans` of the open op span.
    op_index: usize,
    ops_done: u64,
    record_ops: usize,
    recording: Recording,
    next_slot: usize,
}

/// Handle shared by a thread's clients and its generator loop.
pub type SharedRecorder = Arc<Mutex<Recorder>>;

impl Recorder {
    /// A recorder whose timestamps count from `epoch` and which keeps the
    /// call contents of the first `record_ops` ops.
    pub fn shared(epoch: Instant, tid: u32, record_ops: usize) -> SharedRecorder {
        Arc::new(Mutex::new(Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            cur_op: 0,
            op_index: 0,
            ops_done: 0,
            record_ops,
            recording: Recording::default(),
            next_slot: 0,
        }))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the next op span. The span is stored before its call spans so
    /// that a truncated trace file never holds a call without its op.
    pub fn begin_op(&mut self) {
        self.cur_op = self.ops_done + 1;
        if self.recording.ops.len() < self.record_ops {
            self.recording.ops.push(Vec::new());
        }
        self.op_index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: OP_SPAN,
            start_ns: start,
            end_ns: start,
            op: self.cur_op,
            calls: 0,
        });
    }

    /// Closes the current op span.
    pub fn end_op(&mut self) {
        self.spans[self.op_index].end_ns = self.now();
        self.ops_done = self.cur_op;
        self.cur_op = 0;
    }

    /// Whether call contents are being kept right now: everything before the
    /// first op (set-up and warm-up), then the recorded ops.
    fn keeps_calls(&self) -> bool {
        (self.cur_op == 0 && self.ops_done == 0) || self.in_recorded_op()
    }

    fn in_recorded_op(&self) -> bool {
        self.cur_op != 0 && self.cur_op as usize <= self.record_ops
    }

    fn push(&mut self, span: Span, recorded: Option<Recorded>) {
        self.spans.push(span);
        if let Some(r) = recorded {
            if self.in_recorded_op() {
                self.recording.ops[self.cur_op as usize - 1].push(r);
            } else {
                self.recording.prepare.push(r);
            }
        }
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded call stream.
    pub fn recording(&self) -> &Recording {
        &self.recording
    }

    /// Thread id used in the trace file.
    pub fn tid(&self) -> u32 {
        self.tid
    }
}

/// A [`CudaClient`] that times every call of the client it wraps.
pub struct TracedClient<C: CudaClient> {
    inner: C,
    rec: SharedRecorder,
    slot: usize,
}

impl<C: CudaClient> TracedClient<C> {
    /// Wraps `inner`, taking the recorder's next context slot.
    pub fn new(inner: C, rec: SharedRecorder) -> Self {
        let slot = {
            let mut r = rec.lock().expect("recorder lock");
            r.next_slot += 1;
            r.next_slot - 1
        };
        TracedClient { inner, rec, slot }
    }

    fn finish(
        &self,
        name: &'static str,
        calls: u32,
        start_ns: u64,
        kept: Option<Invocation>,
        replies: &[CudaReply],
    ) {
        let mut r = self.rec.lock().expect("recorder lock");
        let span = Span { name, start_ns, end_ns: r.now(), op: r.cur_op, calls };
        let recorded = kept.map(|inv| Recorded { slot: self.slot, inv, replies: replies.to_vec() });
        r.push(span, recorded);
    }
}

impl<C: CudaClient> CudaClient for TracedClient<C> {
    fn call(&mut self, call: CudaCall) -> CudaReply {
        let (start, kept) = {
            let r = self.rec.lock().expect("recorder lock");
            (r.now(), r.keeps_calls().then(|| Invocation::Call(call.clone())))
        };
        let name = call.name();
        let reply = self.inner.call(call);
        self.finish(name, 1, start, kept, std::slice::from_ref(&reply));
        reply
    }

    fn call_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        let (start, kept) = {
            let r = self.rec.lock().expect("recorder lock");
            (r.now(), r.keeps_calls().then(|| Invocation::Batch(calls.clone())))
        };
        // A batch is named after its last call: `launch()` batches
        // ConfigureCall + Launch, and the launch is what the caller asked for.
        let name = calls.last().map_or("Batch", CudaCall::name);
        let n = calls.len() as u32;
        let replies = self.inner.call_batch(calls);
        self.finish(name, n, start, kept, &replies);
        replies
    }
}

/// Events written at most, so a fast workload cannot produce a trace file
/// of hundreds of megabytes; the per-layer numbers use every span either way.
pub const MAX_TRACE_EVENTS: usize = 100_000;

/// Writes the recorders' spans as Chrome trace-event JSON (opens in Perfetto
/// and `chrome://tracing`). Returns the number of events written.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    recorders: &[SharedRecorder],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let per_thread = MAX_TRACE_EVENTS / recorders.len().max(1);
    let mut written = 0usize;
    for rec in recorders {
        let rec = rec.lock().expect("recorder lock");
        for span in rec.spans().iter().take(per_thread) {
            let (cat, parent) = if span.name == OP_SPAN {
                ("op", workload)
            } else if span.op == 0 {
                ("setup", workload)
            } else {
                ("call", OP_SPAN)
            };
            if written > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"parent\":\"{parent}\",\"calls\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                rec.tid(),
                span.op,
                span.calls,
            )?;
            written += 1;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()?;
    Ok(written)
}
