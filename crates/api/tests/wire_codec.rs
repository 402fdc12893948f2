//! The binary wire codec (`mtgpu_api::wire`, DESIGN.md §12): every protocol
//! value round-trips, three frames are pinned byte for byte and every
//! variant's bytes by one digest, frame sizes stay within their budget, and
//! a seeded mutation fuzzer shows the decoder answers hostile bytes with
//! `Err` or a valid value — never a panic, never an allocation a length
//! field alone could size.

use mtgpu_api::host_buf::fnv1a;
use mtgpu_api::protocol::{
    AllocKind, ContextImage, CudaCall, CudaReply, ImageEntry, ModuleHandle, MuxFrame, ReplyValue,
};
use mtgpu_api::transport::{encode_frame, read_frame, write_frame, FrameBuf, MAX_FRAME_BYTES};
use mtgpu_api::wire::{decode_exact, Wire, WireError};
use mtgpu_api::{CudaError, HostBuf};
use mtgpu_gpusim::{
    DeviceAddr, Dim3, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work,
};
use mtgpu_simtime::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// --- allocation accounting ----------------------------------------------------------

thread_local! {
    /// (largest single request, total requested) on this thread since the
    /// last reset. `const`-initialised and without a destructor, so the
    /// allocator may touch it at any point of a thread's life.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn note(size: usize) {
    let _ = ALLOCATED.try_with(|a| {
        let (peak, total) = a.get();
        a.set((peak.max(size), total.saturating_add(size)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the (largest, total) bytes it asked
/// the allocator for.
fn counting_allocations<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCATED.with(|a| a.set((0, 0)));
    let out = f();
    let (peak, total) = ALLOCATED.with(Cell::get);
    (out, peak, total)
}

// --- seeded value generator ---------------------------------------------------------

const CALL_VARIANTS: usize = 23;
const REPLY_VARIANTS: usize = 8;
const ERROR_VARIANTS: usize = 21;

/// Declaration index of a call's variant. Exhaustive on purpose: a new
/// variant fails to build here until the generator below covers it.
fn call_variant(call: &CudaCall) -> usize {
    match call {
        CudaCall::RegisterFatBinary => 0,
        CudaCall::RegisterFunction { .. } => 1,
        CudaCall::RegisterVar { .. } => 2,
        CudaCall::RegisterTexture { .. } => 3,
        CudaCall::SetApplication { .. } => 4,
        CudaCall::SetDevice { .. } => 5,
        CudaCall::GetDeviceCount => 6,
        CudaCall::GetDeviceProperties { .. } => 7,
        CudaCall::Malloc { .. } => 8,
        CudaCall::Free { .. } => 9,
        CudaCall::MemcpyH2D { .. } => 10,
        CudaCall::MemcpyD2H { .. } => 11,
        CudaCall::MemcpyD2D { .. } => 12,
        CudaCall::ConfigureCall { .. } => 13,
        CudaCall::Launch { .. } => 14,
        CudaCall::Synchronize => 15,
        CudaCall::RegisterNested { .. } => 16,
        CudaCall::Checkpoint => 17,
        CudaCall::HintJobLength { .. } => 18,
        CudaCall::ExportImage => 19,
        CudaCall::ImportImage { .. } => 20,
        CudaCall::Offloaded => 21,
        CudaCall::Exit => 22,
    }
}

fn reply_variant(value: &ReplyValue) -> usize {
    match value {
        ReplyValue::Unit => 0,
        ReplyValue::Module(_) => 1,
        ReplyValue::DeviceCount(_) => 2,
        ReplyValue::Properties(_) => 3,
        ReplyValue::Ptr(_) => 4,
        ReplyValue::Bytes(_) => 5,
        ReplyValue::LaunchDone { .. } => 6,
        ReplyValue::Image(_) => 7,
    }
}

fn error_variant(error: &CudaError) -> usize {
    match error {
        CudaError::MemoryAllocation => 0,
        CudaError::InvalidValue => 1,
        CudaError::InvalidDevicePointer => 2,
        CudaError::OutOfBounds => 3,
        CudaError::InvalidDevice => 4,
        CudaError::NoDevice => 5,
        CudaError::LaunchFailure(_) => 6,
        CudaError::InvalidDeviceFunction(_) => 7,
        CudaError::DeviceUnavailable => 8,
        CudaError::TooManyContexts => 9,
        CudaError::VirtualAddressExhausted => 10,
        CudaError::SwapAllocation => 11,
        CudaError::SizeMismatch => 12,
        CudaError::SwapDeallocation => 13,
        CudaError::NotEligible(_) => 14,
        CudaError::QuotaExceeded(_) => 15,
        CudaError::LeaseExpired => 16,
        CudaError::MalformedDescriptor(_) => 17,
        CudaError::PayloadHashMismatch => 18,
        CudaError::Disconnected => 19,
        CudaError::Protocol(_) => 20,
    }
}

/// Seeded source of protocol values that leans on the edges: extreme
/// integers, NaN bit patterns, empty and non-ASCII strings.
struct Gen {
    rng: DetRng,
    /// Largest payload `payload()` draws; the fuzzer keeps its seeds small.
    max_payload: u64,
}

impl Gen {
    fn new(seed: u64, max_payload: u64) -> Self {
        Gen { rng: DetRng::from_seed(seed), max_payload }
    }

    fn u64(&mut self) -> u64 {
        match self.rng.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::from(u32::MAX),
            3 => self.rng.below(256),
            _ => self.rng.next_u64(),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn bool(&mut self) -> bool {
        self.rng.below(2) == 1
    }

    fn f64(&mut self) -> f64 {
        match self.rng.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            // A signalling NaN with a payload, and a negative quiet one.
            4 => f64::from_bits(0x7ff0_0000_dead_beef),
            5 => f64::from_bits(0xfff8_0000_0000_0001),
            6 => 1e12,
            // Any bit pattern at all.
            _ => f64::from_bits(self.rng.next_u64()),
        }
    }

    fn string(&mut self) -> String {
        match self.rng.below(6) {
            0 => String::new(),
            1 => "k".into(),
            2 => "matmul_tiled".into(),
            3 => "ядро-核-🚀".into(),
            4 => "x".repeat(300),
            _ => "naïve\u{0}\t\u{fffd}".into(),
        }
    }

    fn addr(&mut self) -> DeviceAddr {
        DeviceAddr(self.u64())
    }

    fn addrs(&mut self) -> Vec<DeviceAddr> {
        (0..self.rng.below(5)).map(|_| self.addr()).collect()
    }

    fn payload(&mut self) -> Vec<u8> {
        let len = match self.rng.below(4) {
            0 => 0,
            1 => self.rng.below(16),
            _ => self.rng.below(self.max_payload + 1),
        };
        (0..len).map(|_| self.rng.next_u64() as u8).collect()
    }

    fn host_buf(&mut self) -> HostBuf {
        let payload = self.payload();
        let buf = HostBuf {
            // The codec carries forged lengths too; the guard judges them.
            declared_len: if self.bool() { payload.len() as u64 } else { self.u64() },
            payload,
            content_hash: None,
        };
        match self.rng.below(3) {
            0 => buf,
            1 => buf.sealed(),
            _ => HostBuf { content_hash: Some(self.u64()), ..buf },
        }
    }

    fn alloc_kind(&mut self) -> AllocKind {
        [AllocKind::Linear, AllocKind::Array, AllocKind::Pitched][self.rng.pick_index(3)]
    }

    fn config(&mut self) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3 { x: self.u32(), y: self.u32(), z: self.u32() },
            block: Dim3 { x: self.u32(), y: 1, z: 1 },
            shared_mem_bytes: self.u32(),
        }
    }

    fn image(&mut self) -> ContextImage {
        let entries = (0..self.rng.below(4))
            .map(|_| ImageEntry {
                vaddr: self.addr(),
                size: self.u64(),
                kind: self.alloc_kind(),
                data: self.payload(),
                nested_members: self.addrs(),
                nested_parent: if self.bool() { Some(self.addr()) } else { None },
            })
            .collect();
        ContextImage { label: self.string(), entries }
    }

    fn call(&mut self, variant: usize) -> CudaCall {
        let module = ModuleHandle(self.u64());
        match variant {
            0 => CudaCall::RegisterFatBinary,
            1 => CudaCall::RegisterFunction {
                module,
                kernel: KernelDesc {
                    name: self.string(),
                    uses_nested_pointers: self.bool(),
                    uses_dynamic_alloc: self.bool(),
                    read_only_args: (0..self.rng.below(4)).map(|_| self.u32()).collect(),
                },
            },
            2 => CudaCall::RegisterVar { module, name: self.string(), size: self.u64() },
            3 => CudaCall::RegisterTexture { module, name: self.string() },
            4 => CudaCall::SetApplication { app_id: self.u64() },
            5 => CudaCall::SetDevice { device: self.u32() },
            6 => CudaCall::GetDeviceCount,
            7 => CudaCall::GetDeviceProperties { device: self.u32() },
            8 => CudaCall::Malloc { size: self.u64(), kind: self.alloc_kind() },
            9 => CudaCall::Free { ptr: self.addr() },
            10 => CudaCall::MemcpyH2D { dst: self.addr(), buf: self.host_buf() },
            11 => CudaCall::MemcpyD2H { src: self.addr(), len: self.u64() },
            12 => CudaCall::MemcpyD2D { dst: self.addr(), src: self.addr(), len: self.u64() },
            13 => CudaCall::ConfigureCall { config: self.config() },
            14 => CudaCall::Launch {
                spec: LaunchSpec {
                    kernel: self.string(),
                    config: self.config(),
                    args: (0..self.rng.below(5))
                        .map(|_| match self.rng.below(3) {
                            0 => KernelArg::Ptr(self.addr()),
                            1 => KernelArg::Scalar(self.u64()),
                            _ => KernelArg::Float(self.f64()),
                        })
                        .collect(),
                    work: Work { flops: self.f64(), bytes: self.f64() },
                },
            },
            15 => CudaCall::Synchronize,
            16 => CudaCall::RegisterNested { parent: self.addr(), members: self.addrs() },
            17 => CudaCall::Checkpoint,
            18 => CudaCall::HintJobLength { flops: self.f64() },
            19 => CudaCall::ExportImage,
            20 => CudaCall::ImportImage { image: self.image() },
            21 => CudaCall::Offloaded,
            22 => CudaCall::Exit,
            _ => unreachable!("call variant {variant}"),
        }
    }

    fn reply_value(&mut self, variant: usize) -> ReplyValue {
        match variant {
            0 => ReplyValue::Unit,
            1 => ReplyValue::Module(ModuleHandle(self.u64())),
            2 => ReplyValue::DeviceCount(self.u32()),
            3 => ReplyValue::Properties(Box::new(GpuSpec {
                name: self.string(),
                clock_ghz: self.f64(),
                mem_bytes: self.u64(),
                ..GpuSpec::tesla_c2050()
            })),
            4 => ReplyValue::Ptr(self.addr()),
            5 => ReplyValue::Bytes(self.host_buf()),
            6 => ReplyValue::LaunchDone { sim_nanos: self.u64() },
            7 => ReplyValue::Image(Box::new(self.image())),
            _ => unreachable!("reply variant {variant}"),
        }
    }

    fn error(&mut self, variant: usize) -> CudaError {
        match variant {
            0 => CudaError::MemoryAllocation,
            1 => CudaError::InvalidValue,
            2 => CudaError::InvalidDevicePointer,
            3 => CudaError::OutOfBounds,
            4 => CudaError::InvalidDevice,
            5 => CudaError::NoDevice,
            6 => CudaError::LaunchFailure(self.string()),
            7 => CudaError::InvalidDeviceFunction(self.string()),
            8 => CudaError::DeviceUnavailable,
            9 => CudaError::TooManyContexts,
            10 => CudaError::VirtualAddressExhausted,
            11 => CudaError::SwapAllocation,
            12 => CudaError::SizeMismatch,
            13 => CudaError::SwapDeallocation,
            14 => CudaError::NotEligible(self.string()),
            15 => CudaError::QuotaExceeded(self.string()),
            16 => CudaError::LeaseExpired,
            17 => CudaError::MalformedDescriptor(self.string()),
            18 => CudaError::PayloadHashMismatch,
            19 => CudaError::Disconnected,
            20 => CudaError::Protocol(self.string()),
            _ => unreachable!("error variant {variant}"),
        }
    }

    /// `rounds` passes over every request, reply and error variant.
    fn frames(&mut self, rounds: usize) -> Vec<MuxFrame> {
        let mut frames = Vec::new();
        for _ in 0..rounds {
            for v in 0..CALL_VARIANTS {
                frames.push(MuxFrame::Request {
                    chan: self.u64(),
                    id: self.u64(),
                    call: self.call(v),
                });
            }
            for v in 0..REPLY_VARIANTS {
                frames.push(MuxFrame::Response { id: self.u64(), reply: Ok(self.reply_value(v)) });
            }
            for v in 0..ERROR_VARIANTS {
                frames.push(MuxFrame::Response { id: self.u64(), reply: Err(self.error(v)) });
            }
        }
        frames
    }
}

fn encoded<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

fn framed(frame: &MuxFrame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out).expect("frame encodes");
    out
}

/// The frames the battery leans on by hand: payloads at both size extremes,
/// a sealed buffer, and an image whose entries nest.
fn edge_frames() -> Vec<MuxFrame> {
    let mib: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let nested = ContextImage {
        label: "作业-7".into(),
        entries: vec![
            ImageEntry {
                vaddr: DeviceAddr(0x7f00_0000_0000),
                size: 1 << 30,
                kind: AllocKind::Linear,
                data: mib.clone(),
                nested_members: vec![DeviceAddr(0x7f00_0000_1000), DeviceAddr(0x7f00_0000_2000)],
                nested_parent: None,
            },
            ImageEntry {
                vaddr: DeviceAddr(0x7f00_0000_1000),
                size: 0,
                kind: AllocKind::Pitched,
                data: Vec::new(),
                nested_members: Vec::new(),
                nested_parent: Some(DeviceAddr(0x7f00_0000_0000)),
            },
        ],
    };
    let request = |id, call| MuxFrame::Request { chan: 9, id, call };
    vec![
        request(1, CudaCall::MemcpyH2D { dst: DeviceAddr(1), buf: HostBuf::from_slice(&[]) }),
        request(2, CudaCall::MemcpyH2D { dst: DeviceAddr(2), buf: HostBuf::from_slice(&mib) }),
        request(
            3,
            CudaCall::MemcpyH2D { dst: DeviceAddr(3), buf: HostBuf::from_slice(&mib).sealed() },
        ),
        request(4, CudaCall::ImportImage { image: nested.clone() }),
        MuxFrame::Response {
            id: 5,
            reply: Ok(ReplyValue::Bytes(HostBuf::with_shadow(1 << 40, mib))),
        },
        MuxFrame::Response { id: 6, reply: Ok(ReplyValue::Image(Box::new(nested))) },
        MuxFrame::Response { id: 7, reply: Ok(ReplyValue::Image(Box::default())) },
    ]
}

// --- round trips ----------------------------------------------------------------------

#[test]
fn generator_covers_every_variant() {
    let frames = Gen::new(0xC0DEC, 64).frames(1);
    let mut calls = [false; CALL_VARIANTS];
    let mut replies = [false; REPLY_VARIANTS];
    let mut errors = [false; ERROR_VARIANTS];
    for frame in &frames {
        match frame {
            MuxFrame::Request { call, .. } => calls[call_variant(call)] = true,
            MuxFrame::Response { reply: Ok(value), .. } => replies[reply_variant(value)] = true,
            MuxFrame::Response { reply: Err(error), .. } => errors[error_variant(error)] = true,
        }
    }
    assert!(calls.iter().chain(&replies).chain(&errors).all(|&seen| seen));
}

#[test]
fn every_value_survives_encode_then_decode() {
    let mut frames = Gen::new(0x5EED_0001, 4096).frames(40);
    frames.extend(edge_frames());
    for frame in &frames {
        let bytes = encoded(frame);
        let back: MuxFrame = decode_exact(&bytes).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
        // Bit-exact, NaN payloads included: the encoding is canonical, so
        // equal bytes are equal values.
        assert_eq!(encoded(&back), bytes, "{frame:?}");
        // `==` as well wherever it can hold (a NaN equals nothing).
        if *frame == frame.clone() {
            assert_eq!(&back, frame);
        }
        // The bare call/reply frames the per-connection transports carry.
        fn through_a_stream<T: Wire>(value: &T) {
            let mut stream = Vec::new();
            write_frame(&mut stream, value).expect("frame encodes");
            let back: T = read_frame(&mut stream.as_slice()).expect("frame decodes");
            assert_eq!(encoded(&back), encoded(value));
        }
        match frame {
            MuxFrame::Request { call, .. } => through_a_stream(call),
            MuxFrame::Response { reply, .. } => through_a_stream::<CudaReply>(reply),
        }
    }
}

/// Feeds `wire` through a [`FrameBuf`] in `cut`-byte pieces.
fn decode_stream(wire: &[u8], cut: usize) -> Vec<MuxFrame> {
    let mut buf = FrameBuf::new();
    let mut out = Vec::new();
    for piece in wire.chunks(cut) {
        buf.push(piece);
        while let Some(frame) = buf.next_frame::<MuxFrame>().expect("stream is well-formed") {
            out.push(frame);
        }
    }
    assert!(!buf.has_partial());
    out
}

#[test]
fn byte_at_a_time_and_coalesced_feeding_agree() {
    let mut frames = Gen::new(0x5EED_0002, 2048).frames(6);
    frames.extend(edge_frames());
    let wire: Vec<u8> = frames.iter().flat_map(framed).collect();
    let dripped = decode_stream(&wire, 1);
    let coalesced = decode_stream(&wire, wire.len());
    assert_eq!(dripped.len(), frames.len());
    for ((a, b), original) in dripped.iter().zip(&coalesced).zip(&frames) {
        assert_eq!(encoded(a), encoded(original));
        assert_eq!(encoded(b), encoded(original));
    }
}

// --- golden bytes and size budgets ----------------------------------------------------

fn three_pointer_launch() -> MuxFrame {
    MuxFrame::Request {
        chan: 3,
        id: 0x0102,
        call: CudaCall::Launch {
            spec: LaunchSpec {
                kernel: "va_add".into(),
                config: LaunchConfig { grid: Dim3::x(4), block: Dim3::x(256), shared_mem_bytes: 0 },
                args: vec![
                    KernelArg::Ptr(DeviceAddr(0x1000)),
                    KernelArg::Ptr(DeviceAddr(0x2000)),
                    KernelArg::Ptr(DeviceAddr(0x3000)),
                ],
                work: Work { flops: 1024.0, bytes: 12288.0 },
            },
        },
    }
}

/// The exact bytes of three frames. A change here is a wire-format change:
/// update DESIGN.md §12 with it, deliberately.
#[test]
fn golden_frames_are_pinned_byte_for_byte() {
    #[rustfmt::skip]
    let launch: &[u8] = &[
        0x67, 0, 0, 0,                                  // body length 103
        0x00,                                           // MuxFrame::Request
        3, 0, 0, 0, 0, 0, 0, 0,                         // chan
        0x02, 0x01, 0, 0, 0, 0, 0, 0,                   // id
        0x0e,                                           // CudaCall::Launch
        6, 0, 0, 0, b'v', b'a', b'_', b'a', b'd', b'd', // kernel
        4, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,             // grid
        0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,             // block
        0, 0, 0, 0,                                     // shared_mem_bytes
        3, 0, 0, 0,                                     // args: count
        0x00, 0x00, 0x10, 0, 0, 0, 0, 0, 0,             //   Ptr(0x1000)
        0x00, 0x00, 0x20, 0, 0, 0, 0, 0, 0,             //   Ptr(0x2000)
        0x00, 0x00, 0x30, 0, 0, 0, 0, 0, 0,             //   Ptr(0x3000)
        0, 0, 0, 0, 0, 0, 0x90, 0x40,                   // work.flops = 1024.0
        0, 0, 0, 0, 0, 0, 0xc8, 0x40,                   // work.bytes = 12288.0
    ];
    assert_eq!(framed(&three_pointer_launch()), launch);

    let h2d = MuxFrame::Request {
        chan: 1,
        id: 7,
        call: CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x7f00_0000_1000),
            buf: HostBuf {
                declared_len: 8,
                payload: vec![0xde, 0xad, 0xbe, 0xef],
                content_hash: Some(0x1122_3344_5566_7788),
            },
        },
    };
    #[rustfmt::skip]
    let h2d_bytes: &[u8] = &[
        0x33, 0, 0, 0,                                  // body length 51
        0x00,                                           // MuxFrame::Request
        1, 0, 0, 0, 0, 0, 0, 0,                         // chan
        7, 0, 0, 0, 0, 0, 0, 0,                         // id
        0x0a,                                           // CudaCall::MemcpyH2D
        0x00, 0x10, 0, 0, 0, 0x7f, 0, 0,                // dst
        8, 0, 0, 0, 0, 0, 0, 0,                         // declared_len
        4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef,             // payload: length, raw bytes
        0x01, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // content_hash: Some
    ];
    assert_eq!(framed(&h2d), h2d_bytes);

    let bytes_reply = MuxFrame::Response {
        id: 7,
        reply: Ok(ReplyValue::Bytes(HostBuf::from_slice(&[1, 2, 3, 4]))),
    };
    #[rustfmt::skip]
    let reply_bytes: &[u8] = &[
        0x1c, 0, 0, 0,                                  // body length 28
        0x01,                                           // MuxFrame::Response
        7, 0, 0, 0, 0, 0, 0, 0,                         // id
        0x00,                                           // Ok
        0x05,                                           // ReplyValue::Bytes
        4, 0, 0, 0, 0, 0, 0, 0,                         // declared_len
        4, 0, 0, 0, 1, 2, 3, 4,                         // payload
        0x00,                                           // content_hash: None
    ];
    assert_eq!(framed(&bytes_reply), reply_bytes);
}

/// The bytes of every variant of every protocol enum, pinned as one digest:
/// the generated frames cover each call, reply and error variant forty
/// times, the edge frames the payload and image extremes. Two tags swapped
/// on both the encode and the decode side round-trip cleanly, but not here.
/// The shortest forms that bound vector counts are pinned with them.
#[test]
fn every_variant_is_pinned_by_digest() {
    let mut frames = Gen::new(0x5EED_0001, 4096).frames(40);
    frames.extend(edge_frames());
    let wire: Vec<u8> = frames.iter().flat_map(framed).collect();
    assert_eq!((frames.len(), wire.len()), (2087, 5_496_781));
    assert_eq!(fnv1a(&wire), 0x84b2_3c95_0b59_1951);

    assert_eq!(AllocKind::MIN_WIRE, 1);
    assert_eq!(KernelArg::MIN_WIRE, 9);
    assert_eq!(CudaError::MIN_WIRE, 1);
    assert_eq!(ReplyValue::MIN_WIRE, 1);
    assert_eq!(CudaCall::MIN_WIRE, 1);
    assert_eq!(MuxFrame::MIN_WIRE, 11);
    assert_eq!((HostBuf::MIN_WIRE, ImageEntry::MIN_WIRE), (13, 26));
}

#[test]
fn frames_stay_within_their_size_budget() {
    // Bulk copies cost their payload plus a fixed header, sealed or not.
    for n in [0usize, 1, 4096, 32 << 10, 1 << 20] {
        let payload = vec![0xA5u8; n];
        for buf in [HostBuf::from_slice(&payload), HostBuf::from_slice(&payload).sealed()] {
            let frame = MuxFrame::Request {
                chan: u64::MAX,
                id: u64::MAX,
                call: CudaCall::MemcpyH2D { dst: DeviceAddr(u64::MAX), buf },
            };
            let len = framed(&frame).len();
            assert!(len <= n + 64, "MemcpyH2D of {n} bytes framed to {len}");
        }
    }
    let len = framed(&three_pointer_launch()).len();
    assert!(len <= 160, "three-pointer launch framed to {len}");
}

// --- hostile decode -------------------------------------------------------------------

/// Decodes one hostile body and checks the battery's contract: no panic;
/// nothing allocated that the body's own length does not pay for (on top of
/// it, only `Vec`'s first growth steps, four then eight elements, for a
/// short vector of the widest element, `ImageEntry`); and an accepted body
/// is canonical, i.e. re-encodes to itself.
fn check_hostile_body(body: &[u8], what: &str) {
    let outcome =
        std::panic::catch_unwind(|| counting_allocations(|| decode_exact::<MuxFrame>(body)));
    let Ok((decoded, peak, total)) = outcome else {
        panic!("{what}: decoder panicked on {body:02x?}");
    };
    let budget = body.len() + 8 * std::mem::size_of::<ImageEntry>();
    assert!(
        peak <= budget && total <= budget,
        "{what}: {} bytes of body drove allocations of {peak} peak / {total} total",
        body.len()
    );
    if let Ok(frame) = decoded {
        assert_eq!(encoded(&frame), body, "{what}: accepted a non-canonical body");
    }
}

#[test]
fn mutation_fuzzer_finds_no_panic_and_no_length_driven_allocation() {
    let mut gen = Gen::new(0xF022_0001, 96);
    let seeds: Vec<Vec<u8>> = gen.frames(3).iter().map(encoded).collect();
    let mut rng = DetRng::from_seed(0xF022_0002);
    let mut cases = 0u64;

    // Every 4- and 8-byte window of every seed overwritten with the values
    // that break a decoder trusting its length fields: this hits each inner
    // length, count and tag wherever it sits.
    for seed in &seeds {
        let beyond = (seed.len() as u32 + 1).to_le_bytes();
        let patches: [&[u8]; 4] = [&[0xff; 4], &[0xff; 8], &beyond, &[0xff, 0xff, 0xff, 0x7f]];
        for at in 0..seed.len() {
            for patch in patches {
                let mut body = seed.clone();
                let end = (at + patch.len()).min(body.len());
                body[at..end].copy_from_slice(&patch[..end - at]);
                check_hostile_body(&body, "length patch");
                cases += 1;
            }
        }
        // Every truncation.
        for cut in 0..seed.len() {
            assert!(decode_exact::<MuxFrame>(&seed[..cut]).is_err(), "truncation accepted");
            check_hostile_body(&seed[..cut], "truncation");
            cases += 1;
        }
    }

    // Random mutations: 100k more cases.
    for _ in 0..100_000 {
        let mut body = seeds[rng.pick_index(seeds.len())].clone();
        let what = match rng.below(5) {
            0 => {
                for _ in 0..=rng.below(3) {
                    if !body.is_empty() {
                        let at = rng.pick_index(body.len());
                        body[at] ^= 1 << rng.below(8);
                    }
                }
                "bit flip"
            }
            1 => {
                for _ in 0..=rng.below(4) {
                    if !body.is_empty() {
                        let at = rng.pick_index(body.len());
                        body[at] = rng.next_u64() as u8;
                    }
                }
                "byte smash"
            }
            2 => {
                body.extend((0..=rng.below(16)).map(|_| rng.next_u64() as u8));
                "extension"
            }
            3 => {
                // Head of one frame, tail of another.
                let other = &seeds[rng.pick_index(seeds.len())];
                body.truncate(rng.pick_index(body.len() + 1));
                body.extend_from_slice(&other[rng.pick_index(other.len() + 1)..]);
                "splice"
            }
            _ => {
                body = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
                "noise"
            }
        };
        check_hostile_body(&body, what);
        cases += 1;
    }
    assert!(cases >= 100_000, "battery shrank to {cases} cases");
}

#[test]
fn decoder_names_what_it_rejects() {
    let good = encoded(&three_pointer_launch());
    // Unknown tags at each level.
    assert_eq!(
        decode_exact::<MuxFrame>(&[9]),
        Err(WireError::UnknownTag { ty: "MuxFrame", tag: 9 })
    );
    let mut bad_call = good.clone();
    bad_call[17] = 23;
    assert_eq!(
        decode_exact::<MuxFrame>(&bad_call),
        Err(WireError::UnknownTag { ty: "CudaCall", tag: 23 })
    );
    // Trailing bytes.
    let mut long = good.clone();
    long.push(0);
    assert_eq!(decode_exact::<MuxFrame>(&long), Err(WireError::TrailingBytes(1)));
    // Invalid UTF-8 in the kernel name.
    let mut bad_name = good.clone();
    bad_name[22] = 0xff;
    assert_eq!(decode_exact::<MuxFrame>(&bad_name), Err(WireError::InvalidUtf8));
    // A vector count the body cannot hold.
    let mut bad_count = good.clone();
    bad_count[56..60].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode_exact::<MuxFrame>(&bad_count), Err(WireError::Truncated));
    // A boolean that is neither 0 nor 1.
    let desc =
        CudaCall::RegisterFunction { module: ModuleHandle(1), kernel: KernelDesc::plain("k") };
    let mut bad_bool = encoded(&desc);
    bad_bool[14] = 2;
    assert_eq!(
        decode_exact::<CudaCall>(&bad_bool),
        Err(WireError::UnknownTag { ty: "bool", tag: 2 })
    );
}

#[test]
fn json_body_from_an_old_peer_is_a_clean_protocol_error() {
    // What the JSON codec this one replaced put on the wire. `{` and `"`
    // are tags no frame, call or reply owns, so the first byte settles it.
    let bodies: [&[u8]; 4] = [
        br#"{"Request":{"chan":1,"id":1,"call":"Synchronize"}}"#,
        br#"{"Response":{"id":1,"reply":{"Ok":"Unit"}}}"#,
        br#""Synchronize""#,
        br#"{"Ok":"Unit"}"#,
    ];
    for body in bodies {
        assert!(matches!(
            decode_exact::<MuxFrame>(body),
            Err(WireError::UnknownTag { ty: "MuxFrame", .. })
        ));
        assert!(matches!(
            decode_exact::<CudaCall>(body),
            Err(WireError::UnknownTag { ty: "CudaCall", .. })
        ));
        assert!(matches!(
            decode_exact::<CudaReply>(body),
            Err(WireError::UnknownTag { ty: "Result", .. })
        ));
        // Framed, through both receive paths.
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        let mut buf = FrameBuf::new();
        buf.push(&wire);
        let err = buf.next_frame::<MuxFrame>().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = read_frame::<CudaCall>(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

#[test]
fn vector_count_reserves_no_more_than_the_bytes_behind_it() {
    // The count passes the `remaining / MIN_WIRE` check (`MIN_WIRE` bytes
    // follow per claimed entry), but an `ImageEntry` is several times wider in memory
    // than its shortest wire form: the reservation must follow the bytes,
    // not the count.
    let image = ContextImage { label: String::new(), entries: Vec::new() };
    let mut body =
        encoded(&MuxFrame::Request { chan: 1, id: 1, call: CudaCall::ImportImage { image } });
    let claimed = 4096usize;
    assert!(std::mem::size_of::<ImageEntry>() > 3 * ImageEntry::MIN_WIRE);
    let count_at = body.len() - 4;
    body[count_at..].copy_from_slice(&(claimed as u32).to_le_bytes());
    body.resize(body.len() + claimed * ImageEntry::MIN_WIRE, 0xff);
    let (result, peak, total) = counting_allocations(|| decode_exact::<MuxFrame>(&body));
    assert_eq!(result, Err(WireError::UnknownTag { ty: "AllocKind", tag: 0xff }));
    assert!(
        peak <= body.len() && total <= body.len(),
        "{} bytes of body reserved {peak} peak / {total} total",
        body.len()
    );
}

#[test]
fn oversized_prefix_allocates_nothing() {
    let wire = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
    let (result, peak, _) = counting_allocations(|| read_frame::<CudaCall>(&mut wire.as_slice()));
    assert_eq!(result.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    assert!(peak < 4096, "a refused prefix allocated {peak} bytes");
}
