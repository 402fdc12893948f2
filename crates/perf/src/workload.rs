//! The four workloads: what one op is, how its inputs derive from the seed
//! and how its result is checked.
//!
//! Every generator thread owns one [`Tenant`]. A tenant is generic over the
//! client type so the same code drives the plain client (end-to-end runs),
//! the traced client (per-layer runs) and the virtual-clock node (sim pass).

use mtgpu_api::{CudaClient, HostBuf, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
use mtgpu_gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu_gpusim::{DeviceAddr, Dim3};
use mtgpu_simtime::{Clock, DetRng};
use mtgpu_workloads::calib::Scale;
use mtgpu_workloads::{catalog, register_workload, AppKind};
use std::sync::Arc;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LaunchSmall,
    BulkCopy,
    OversubSwap,
    TenantMix,
}

impl Kind {
    /// All workloads, in report order.
    pub const ALL: [Kind; 4] =
        [Kind::LaunchSmall, Kind::BulkCopy, Kind::OversubSwap, Kind::TenantMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LaunchSmall => "launch_small",
            Kind::BulkCopy => "bulk_copy",
            Kind::OversubSwap => "oversub_swap",
            Kind::TenantMix => "tenant_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Physical devices (`GpuSpec::test_small`) on the node.
    pub fn devices(self) -> usize {
        match self {
            Kind::TenantMix => 2,
            _ => 1,
        }
    }

    /// Generator threads, each with its own connection. Never more than the
    /// two cores the benchmark is sized for.
    pub fn tenants(self) -> usize {
        match self {
            Kind::TenantMix => 2,
            _ => 1,
        }
    }

    /// Whether the clients pipeline launches (`with_pipelining`).
    pub fn pipelined(self) -> bool {
        matches!(self, Kind::OversubSwap | Kind::TenantMix)
    }

    /// Whether every op runs on a fresh channel (context) that it exits.
    pub fn fresh_context_per_op(self) -> bool {
        self == Kind::TenantMix
    }

    /// Warm-up ops per tenant before the first timed op. A count, not a
    /// duration, so that work a change moves into set-up shows in `setup_s`.
    pub fn warmup_ops(self) -> usize {
        match self {
            Kind::LaunchSmall => 400,
            Kind::BulkCopy => 12,
            Kind::OversubSwap => 200,
            Kind::TenantMix => 16,
        }
    }

    /// Ops of the sim pass (all tenants together).
    pub fn sim_ops(self) -> usize {
        match self {
            Kind::LaunchSmall => 2000,
            Kind::BulkCopy => 100,
            Kind::OversubSwap => 4000,
            Kind::TenantMix => 800,
        }
    }
}

/// One generator thread's view of its workload.
pub trait Tenant: Send {
    /// Creates contexts and uploads inputs (part of set-up).
    fn prepare(&mut self) -> Result<(), String>;
    /// Runs one complete, verified op.
    fn op(&mut self) -> Result<(), String>;
    /// Window-end checks, then exits every context the tenant still holds.
    fn finish(&mut self) -> Result<(), String>;
}

/// Makes a fresh client: a new channel (context) on the tenant's connection.
pub type Connect<C> = Box<dyn FnMut() -> C + Send>;

/// Builds tenant number `tenant` of `kind`. Inputs are a pure function of
/// `(seed, tenant)`.
pub fn build<C: CudaClient + 'static>(
    kind: Kind,
    tenant: usize,
    seed: u64,
    clock: Clock,
    connect: Connect<C>,
) -> Box<dyn Tenant> {
    let rng = DetRng::from_seed(seed).fork(&format!("{}-tenant-{tenant}", kind.name()));
    match kind {
        Kind::LaunchSmall => Box::new(LaunchSmall::new(rng, connect)),
        Kind::BulkCopy => Box::new(BulkCopy::new(rng, connect)),
        Kind::OversubSwap => Box::new(OversubSwap::new(rng, connect)),
        Kind::TenantMix => {
            Box::new(TenantMix { rng, connect, clock, upcoming: Vec::new(), started: false })
        }
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Small non-negative integers as `f32`s, so sums are exact and results can
/// be compared byte for byte.
fn fill_f32s(rng: &mut DetRng, out: &mut Vec<f32>, n: usize) {
    out.clear();
    out.extend((0..n).map(|_| (rng.next_u64() % 4096) as f32));
}

fn va_add_spec(a: DeviceAddr, b: DeviceAddr, c: DeviceAddr, n: usize) -> LaunchSpec {
    LaunchSpec {
        kernel: "va_add".to_string(),
        config: LaunchConfig { grid: Dim3::x(n.div_ceil(256) as u32), ..LaunchConfig::default() },
        args: vec![
            KernelArg::Ptr(a),
            KernelArg::Ptr(b),
            KernelArg::Ptr(c),
            KernelArg::Scalar(n as u64),
        ],
        // One add and three 4-byte accesses per element.
        work: Work { flops: n as f64, bytes: 12.0 * n as f64 },
    }
}

/// Registers `va_add` and allocates the three vectors of `n` floats.
fn va_add_context<C: CudaClient>(client: &mut C, n: usize) -> Result<[DeviceAddr; 3], String> {
    let module = client.register_fat_binary().map_err(err("register module"))?;
    client.register_function(module, KernelDesc::plain("va_add")).map_err(err("register"))?;
    let mut ptrs = [DeviceAddr(0); 3];
    for p in &mut ptrs {
        *p = client.malloc(n as u64 * 4).map_err(err("malloc"))?;
    }
    Ok(ptrs)
}

fn check_sums(a: &[f32], b: &[f32], got: &HostBuf) -> Result<(), String> {
    let got = got.as_f32s();
    if got.len() != a.len() {
        return Err(format!("result has {} floats, expected {}", got.len(), a.len()));
    }
    match (0..a.len()).find(|&i| got[i].to_bits() != (a[i] + b[i]).to_bits()) {
        Some(i) => Err(format!("sum {i} is {}, expected {}", got[i], a[i] + b[i])),
        None => Ok(()),
    }
}

// --- launch_small -----------------------------------------------------------

/// One eager `launch()` of `va_add` over three resident ~4 KiB buffers.
struct LaunchSmall<C> {
    client: C,
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    ptrs: [DeviceAddr; 3],
}

impl<C: CudaClient> LaunchSmall<C> {
    fn new(mut rng: DetRng, mut connect: Connect<C>) -> Self {
        // The vector length is part of the seeded input: 897..=1024 floats.
        let n = 1024 - rng.below(128) as usize;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fill_f32s(&mut rng, &mut a, n);
        fill_f32s(&mut rng, &mut b, n);
        LaunchSmall { client: connect(), n, a, b, ptrs: [DeviceAddr(0); 3] }
    }
}

impl<C: CudaClient> Tenant for LaunchSmall<C> {
    fn prepare(&mut self) -> Result<(), String> {
        self.ptrs = va_add_context(&mut self.client, self.n)?;
        self.client.memcpy_h2d(self.ptrs[0], HostBuf::from_f32s(&self.a)).map_err(err("h2d a"))?;
        self.client.memcpy_h2d(self.ptrs[1], HostBuf::from_f32s(&self.b)).map_err(err("h2d b"))
    }

    fn op(&mut self) -> Result<(), String> {
        let [a, b, c] = self.ptrs;
        self.client.launch(va_add_spec(a, b, c, self.n)).map_err(err("launch"))
    }

    fn finish(&mut self) -> Result<(), String> {
        let got = self.client.memcpy_d2h(self.ptrs[2], self.n as u64 * 4).map_err(err("d2h"))?;
        let checked = check_sums(&self.a, &self.b, &got);
        self.client.exit().map_err(err("exit"))?;
        checked
    }
}

// --- bulk_copy --------------------------------------------------------------

/// Two ~32 KiB uploads, a launch and a ~32 KiB download, every sum checked.
struct BulkCopy<C> {
    client: C,
    rng: DetRng,
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    ptrs: [DeviceAddr; 3],
}

impl<C: CudaClient> BulkCopy<C> {
    fn new(mut rng: DetRng, mut connect: Connect<C>) -> Self {
        // 8129..=8192 floats: the size is seeded but stays within 1 % so the
        // per-op payload (and with it ops/s) is comparable across seeds.
        let n = 8192 - rng.below(64) as usize;
        BulkCopy {
            client: connect(),
            rng,
            n,
            a: Vec::new(),
            b: Vec::new(),
            ptrs: [DeviceAddr(0); 3],
        }
    }
}

impl<C: CudaClient> Tenant for BulkCopy<C> {
    fn prepare(&mut self) -> Result<(), String> {
        self.ptrs = va_add_context(&mut self.client, self.n)?;
        Ok(())
    }

    fn op(&mut self) -> Result<(), String> {
        let [a, b, c] = self.ptrs;
        fill_f32s(&mut self.rng, &mut self.a, self.n);
        fill_f32s(&mut self.rng, &mut self.b, self.n);
        self.client.memcpy_h2d(a, HostBuf::from_f32s(&self.a)).map_err(err("h2d a"))?;
        self.client.memcpy_h2d(b, HostBuf::from_f32s(&self.b)).map_err(err("h2d b"))?;
        self.client.launch(va_add_spec(a, b, c, self.n)).map_err(err("launch"))?;
        let got = self.client.memcpy_d2h(c, self.n as u64 * 4).map_err(err("d2h"))?;
        check_sums(&self.a, &self.b, &got)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.client.exit().map_err(err("exit"))
    }
}

// --- oversub_swap -----------------------------------------------------------

const OVERSUB_CONTEXTS: usize = 6;
const OVERSUB_BUFFERS: usize = 16;
/// Declared size of each buffer; 6 × 16 × 1.5 MiB = 144 MiB against the
/// 64 MiB device.
const OVERSUB_DECLARED: u64 = 3 << 19;
/// Real bytes carried per buffer.
const OVERSUB_SHADOW: usize = 4096;
/// 32-bit words of the result the op downloads and checks.
const OVERSUB_WORDS: usize = 8;
const OVERSUB_KERNEL: &str = "perf_fold16";

/// Installs the benchmark's own kernel into the process-global library:
/// `out[j] = salt + Σ in_k[j]` over the fifteen input buffers, in wrapping
/// `u32` arithmetic. The catalog has no kernel over sixteen buffers.
pub fn install_kernels() {
    mtgpu_workloads::install_kernel_library();
    library::register(RegisteredKernel {
        desc: oversub_kernel_desc(),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let args = exec.args().to_vec();
            let scalar = |i: usize| match args.get(i) {
                Some(KernelArg::Scalar(v)) => *v,
                _ => 0,
            };
            let words = scalar(OVERSUB_BUFFERS) as usize;
            let mut acc = vec![scalar(OVERSUB_BUFFERS + 1) as u32; words];
            for arg in &args[1..OVERSUB_BUFFERS] {
                let Some(ptr) = arg.as_ptr() else { continue };
                exec.with_bytes_mut(ptr, words as u64 * 4, &mut |bytes| {
                    for (a, w) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
                        *a = a.wrapping_add(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
                    }
                })?;
            }
            let Some(out) = args[0].as_ptr() else { return Ok(()) };
            exec.with_bytes_mut(out, words as u64 * 4, &mut |bytes| {
                for (a, w) in acc.iter().zip(bytes.chunks_exact_mut(4)) {
                    w.copy_from_slice(&a.to_le_bytes());
                }
            })
        })),
    });
}

/// The second half of the inputs is declared read-only, as a PTX-parsing
/// frontend would report: those buffers stay clean and swap out without a
/// writeback, so `core.memory.clean_skip_share` has something to measure.
fn oversub_kernel_desc() -> KernelDesc {
    let read_only = (OVERSUB_BUFFERS as u32 / 2..OVERSUB_BUFFERS as u32).collect();
    KernelDesc::plain(OVERSUB_KERNEL).with_read_only_args(read_only)
}

struct OversubCtx<C> {
    client: C,
    bufs: Vec<DeviceAddr>,
    /// Σ of the inputs' first words: the result before the salt.
    base: [u32; OVERSUB_WORDS],
}

/// Six pipelined contexts whose declared footprints add up to 2.25× device
/// memory; each op picks one at random, so most ops swap a co-tenant out.
struct OversubSwap<C> {
    rng: DetRng,
    ctxs: Vec<OversubCtx<C>>,
    salt: u32,
}

impl<C: CudaClient> OversubSwap<C> {
    fn new(rng: DetRng, mut connect: Connect<C>) -> Self {
        let ctxs = (0..OVERSUB_CONTEXTS)
            .map(|_| OversubCtx { client: connect(), bufs: Vec::new(), base: [0; OVERSUB_WORDS] })
            .collect();
        OversubSwap { rng, ctxs, salt: 0 }
    }
}

impl<C: CudaClient> Tenant for OversubSwap<C> {
    fn prepare(&mut self) -> Result<(), String> {
        for ctx in &mut self.ctxs {
            let module = ctx.client.register_fat_binary().map_err(err("register module"))?;
            ctx.client.register_function(module, oversub_kernel_desc()).map_err(err("register"))?;
            for k in 0..OVERSUB_BUFFERS {
                let ptr = ctx.client.malloc(OVERSUB_DECLARED).map_err(err("malloc"))?;
                let mut payload = vec![0u8; OVERSUB_SHADOW];
                for word in payload.chunks_exact_mut(4) {
                    word.copy_from_slice(&(self.rng.next_u64() as u32).to_le_bytes());
                }
                if k > 0 {
                    for (b, w) in ctx.base.iter_mut().zip(payload.chunks_exact(4)) {
                        *b = b.wrapping_add(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
                    }
                }
                ctx.client
                    .memcpy_h2d(ptr, HostBuf::with_shadow(OVERSUB_DECLARED, payload))
                    .map_err(err("h2d"))?;
                ctx.bufs.push(ptr);
            }
        }
        Ok(())
    }

    fn op(&mut self) -> Result<(), String> {
        let pick = self.rng.pick_index(self.ctxs.len());
        let ctx = &mut self.ctxs[pick];
        self.salt = self.salt.wrapping_add(1);
        let mut args: Vec<KernelArg> = ctx.bufs.iter().map(|&p| KernelArg::Ptr(p)).collect();
        args.push(KernelArg::Scalar(OVERSUB_WORDS as u64));
        args.push(KernelArg::Scalar(self.salt as u64));
        let touched = (OVERSUB_BUFFERS as u64 * OVERSUB_DECLARED) as f64;
        ctx.client
            .launch(LaunchSpec {
                kernel: OVERSUB_KERNEL.to_string(),
                config: LaunchConfig::default(),
                args,
                work: Work { flops: touched / 4.0, bytes: touched },
            })
            .map_err(err("launch"))?;
        let got =
            ctx.client.memcpy_d2h(ctx.bufs[0], OVERSUB_WORDS as u64 * 4).map_err(err("d2h"))?;
        let mut want = Vec::with_capacity(OVERSUB_WORDS * 4);
        for b in ctx.base {
            want.extend_from_slice(&b.wrapping_add(self.salt).to_le_bytes());
        }
        if got.payload != want {
            return Err(format!("context {pick}: result {:?}, expected {want:?}", got.payload));
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        self.ctxs.iter_mut().try_for_each(|c| c.client.exit().map_err(err("exit")))
    }
}

// --- tenant_mix -------------------------------------------------------------

/// One catalog job per op on a fresh channel: register, run at tiny scale
/// with the workload's own verification, exit.
///
/// Kinds are drawn from the short pool without replacement, a seeded
/// shuffle of the whole pool at a time: one kind (BS-S, 256 launches at any
/// scale) costs ten times the median job, so with independent draws the
/// number of BS-S jobs, not the runtime, would set a run's throughput. Every
/// seed runs the same mix in a different order — up to where its first
/// shuffle starts, which is seeded too, so that a fixed op count does not see
/// the identical multiset of jobs (and the identical simulated time) for
/// every seed.
struct TenantMix<C> {
    rng: DetRng,
    connect: Connect<C>,
    clock: Clock,
    /// Kinds still to run from the current shuffle.
    upcoming: Vec<AppKind>,
    started: bool,
}

impl<C: CudaClient> TenantMix<C> {
    fn next_kind(&mut self) -> AppKind {
        if self.upcoming.is_empty() {
            self.upcoming = catalog::short_pool();
            for i in (1..self.upcoming.len()).rev() {
                self.upcoming.swap(i, self.rng.pick_index(i + 1));
            }
            if !self.started {
                self.started = true;
                let skip = self.rng.pick_index(self.upcoming.len());
                self.upcoming.truncate(self.upcoming.len() - skip);
            }
        }
        self.upcoming.pop().expect("the short pool is not empty")
    }
}

impl<C: CudaClient> Tenant for TenantMix<C> {
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn op(&mut self) -> Result<(), String> {
        let job = self.next_kind().build(Scale::TINY);
        let mut client = (self.connect)();
        register_workload(&mut client, job.as_ref()).map_err(err("register"))?;
        let report = job.run(&mut client, &self.clock).map_err(|e| format!("{}: {e}", job.name()));
        // Exit even after a failed run so the context never outlives its op.
        let exited = client.exit().map_err(err("exit"));
        if !report?.verified {
            return Err(format!("{}: result failed verification", job.name()));
        }
        exited
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}
