//! The binary wire codec: the one way a protocol value becomes frame bytes.
//!
//! The node's one network wire (mux client + reactor, and through them the
//! §4.7 offload relay) carries bodies encoded by the [`Wire`] impls in this
//! file — see DESIGN.md §12 for the layout table. The rules are few:
//!
//! - integers are fixed-width little-endian; `f64` travels as `to_bits`, so
//!   every bit pattern (NaN payloads, ±∞, −0.0) survives and it is
//!   [`crate::guard`], not the codec, that refuses non-finite values;
//! - an enum is one `u8` tag (declaration order, from 0) followed by the
//!   variant's fields; a struct is its fields in declaration order;
//! - strings, byte payloads and vectors carry a `u32` length/count prefix;
//!   [`HostBuf::payload`] and [`ImageEntry::data`] are the raw bytes, moved
//!   with one `extend_from_slice` each way.
//!
//! Values are written straight into the frame buffer and read straight out
//! of it; there is no intermediate tree.
//!
//! The decoder is a trust boundary: it never panics, checks every inner
//! length against the bytes that remain *before* it allocates (a vector
//! count is refused past `remaining / MIN_WIRE` of its element type and
//! reserves at most `remaining` bytes of memory, so no length field alone
//! can size an allocation larger than the frame), and rejects unknown tags,
//! non-0/1 booleans, invalid UTF-8 and — through [`decode_exact`] — bytes
//! left over after the value.

use crate::error::CudaError;
use crate::host_buf::HostBuf;
use crate::protocol::{
    AllocKind, ContextImage, CudaCall, ImageEntry, ModuleHandle, MuxFrame, ReplyValue,
};
use mtgpu_gpusim::{
    DeviceAddr, Dim3, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work,
};
use std::fmt;

/// Why a body did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The value (or an inner length or count) needs more bytes than remain.
    Truncated,
    /// An enum tag no variant of `ty` owns.
    UnknownTag { ty: &'static str, tag: u8 },
    /// A string whose bytes are not UTF-8.
    InvalidUtf8,
    /// The value ended this many bytes before the body did.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "body ends before the value does"),
            WireError::UnknownTag { ty, tag } => write!(f, "unknown {ty} tag {tag:#04x}"),
            WireError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over one frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Reader { rest: body }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.array::<1>().map(|[b]| b)
    }

    /// A `u32`-length-prefixed run of raw bytes, borrowed from the body.
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = u32::decode(self)? as usize;
        self.take(n)
    }

    /// A `u32` element count, refused unless `count * min_each` bytes remain.
    fn count(&mut self, min_each: usize) -> Result<usize, WireError> {
        let n = u32::decode(self)? as usize;
        if n > self.rest.len() / min_each {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

/// A value with a wire layout.
pub trait Wire: Sized {
    /// Fewest bytes any value of this type occupies (at least 1); bounds
    /// vector counts against the bytes that remain.
    const MIN_WIRE: usize;

    /// Appends the value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Decodes a body that must hold exactly one `T`.
pub fn decode_exact<T: Wire>(body: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(body);
    let value = T::decode(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        n => Err(WireError::TrailingBytes(n)),
    }
}

/// A length that does not fit saturates: such a body is far past
/// `MAX_FRAME_BYTES`, so `encode_frame` refuses the frame.
fn put_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len).unwrap_or(u32::MAX).encode(out);
}

fn put_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    put_len(bytes.len(), out);
    out.extend_from_slice(bytes);
}

fn unknown_tag<T>(ty: &'static str, tag: u8) -> Result<T, WireError> {
    Err(WireError::UnknownTag { ty, tag })
}

// --- primitives and containers ----------------------------------------------------

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_WIRE: usize = std::mem::size_of::<$ty>();
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.array().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}
wire_int!(u32, u64);

impl Wire for f64 {
    const MIN_WIRE: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Wire for bool {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => unknown_tag("bool", tag),
        }
    }
}

impl Wire for String {
    const MIN_WIRE: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(self.as_bytes(), out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes()?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| WireError::InvalidUtf8)
    }
}

/// Vectors of structured elements. Byte payloads do not come through here
/// (`u8` has no `Wire` impl): they are length + raw bytes, see [`HostBuf`].
impl<T: Wire> Wire for Vec<T> {
    const MIN_WIRE: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(T::MIN_WIRE)?;
        // An element can be wider in memory than its shortest wire form, so
        // the count is not yet a safe capacity: reserve no more memory than
        // there are unread bytes and let elements that decode pay for the rest.
        let affordable = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(affordable));
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            tag => unknown_tag("Option", tag),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_WIRE: usize = T::MIN_WIRE;
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Box::new)
    }
}

/// `CudaReply` is `Result<ReplyValue, CudaError>`: tag 0 = `Ok`, 1 = `Err`.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => T::decode(r).map(Ok),
            1 => E::decode(r).map(Err),
            tag => unknown_tag("Result", tag),
        }
    }
}

// --- structs: fields in declaration order -----------------------------------------

/// Implements [`Wire`] for a struct as the concatenation of the listed
/// fields. Every field must be listed (the decode side is a struct
/// literal), so adding a field without extending the layout fails to build.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl Wire for $ty {
            const MIN_WIRE: usize = 0 $(+ <$fty as Wire>::MIN_WIRE)+;
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: <$fty as Wire>::decode(r)?),+ })
            }
        }
    };
}

wire_struct!(Dim3 { x: u32, y: u32, z: u32 });
wire_struct!(LaunchConfig { grid: Dim3, block: Dim3, shared_mem_bytes: u32 });
wire_struct!(Work { flops: f64, bytes: f64 });
wire_struct!(KernelDesc {
    name: String,
    uses_nested_pointers: bool,
    uses_dynamic_alloc: bool,
    read_only_args: Vec<u32>,
});
wire_struct!(LaunchSpec { kernel: String, config: LaunchConfig, args: Vec<KernelArg>, work: Work });
wire_struct!(GpuSpec {
    name: String,
    sm_count: u32,
    cores_per_sm: u32,
    clock_ghz: f64,
    efficiency: f64,
    mem_bytes: u64,
    pcie_bytes_per_sec: f64,
    mem_bytes_per_sec: f64,
    copy_engines: u32,
    ctx_reserved_bytes: u64,
    max_contexts: u32,
});
wire_struct!(ContextImage { label: String, entries: Vec<ImageEntry> });

impl Wire for DeviceAddr {
    const MIN_WIRE: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::decode(r).map(DeviceAddr)
    }
}

impl Wire for ModuleHandle {
    const MIN_WIRE: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::decode(r).map(ModuleHandle)
    }
}

impl Wire for HostBuf {
    const MIN_WIRE: usize = 8 + 4 + 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.declared_len.encode(out);
        put_bytes(&self.payload, out);
        self.content_hash.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HostBuf {
            declared_len: u64::decode(r)?,
            payload: r.bytes()?.to_vec(),
            content_hash: Option::decode(r)?,
        })
    }
}

impl Wire for ImageEntry {
    const MIN_WIRE: usize = 8 + 8 + 1 + 4 + 4 + 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.vaddr.encode(out);
        self.size.encode(out);
        self.kind.encode(out);
        put_bytes(&self.data, out);
        self.nested_members.encode(out);
        self.nested_parent.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ImageEntry {
            vaddr: DeviceAddr::decode(r)?,
            size: u64::decode(r)?,
            kind: AllocKind::decode(r)?,
            data: r.bytes()?.to_vec(),
            nested_members: Vec::decode(r)?,
            nested_parent: Option::decode(r)?,
        })
    }
}

// --- enums: a u8 tag in declaration order, then the variant's fields --------------

impl Wire for AllocKind {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            AllocKind::Linear => 0,
            AllocKind::Array => 1,
            AllocKind::Pitched => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AllocKind::Linear),
            1 => Ok(AllocKind::Array),
            2 => Ok(AllocKind::Pitched),
            tag => unknown_tag("AllocKind", tag),
        }
    }
}

impl Wire for KernelArg {
    const MIN_WIRE: usize = 1 + 8;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KernelArg::Ptr(p) => {
                out.push(0);
                p.encode(out);
            }
            KernelArg::Scalar(v) => {
                out.push(1);
                v.encode(out);
            }
            KernelArg::Float(v) => {
                out.push(2);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => DeviceAddr::decode(r).map(KernelArg::Ptr),
            1 => u64::decode(r).map(KernelArg::Scalar),
            2 => f64::decode(r).map(KernelArg::Float),
            tag => unknown_tag("KernelArg", tag),
        }
    }
}

impl Wire for CudaError {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, msg) = match self {
            CudaError::MemoryAllocation => (0, None),
            CudaError::InvalidValue => (1, None),
            CudaError::InvalidDevicePointer => (2, None),
            CudaError::OutOfBounds => (3, None),
            CudaError::InvalidDevice => (4, None),
            CudaError::NoDevice => (5, None),
            CudaError::LaunchFailure(m) => (6, Some(m)),
            CudaError::InvalidDeviceFunction(m) => (7, Some(m)),
            CudaError::DeviceUnavailable => (8, None),
            CudaError::TooManyContexts => (9, None),
            CudaError::VirtualAddressExhausted => (10, None),
            CudaError::SwapAllocation => (11, None),
            CudaError::SizeMismatch => (12, None),
            CudaError::SwapDeallocation => (13, None),
            CudaError::NotEligible(m) => (14, Some(m)),
            CudaError::QuotaExceeded(m) => (15, Some(m)),
            CudaError::LeaseExpired => (16, None),
            CudaError::MalformedDescriptor(m) => (17, Some(m)),
            CudaError::PayloadHashMismatch => (18, None),
            CudaError::Disconnected => (19, None),
            CudaError::Protocol(m) => (20, Some(m)),
        };
        out.push(tag);
        if let Some(msg) = msg {
            msg.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => CudaError::MemoryAllocation,
            1 => CudaError::InvalidValue,
            2 => CudaError::InvalidDevicePointer,
            3 => CudaError::OutOfBounds,
            4 => CudaError::InvalidDevice,
            5 => CudaError::NoDevice,
            6 => CudaError::LaunchFailure(String::decode(r)?),
            7 => CudaError::InvalidDeviceFunction(String::decode(r)?),
            8 => CudaError::DeviceUnavailable,
            9 => CudaError::TooManyContexts,
            10 => CudaError::VirtualAddressExhausted,
            11 => CudaError::SwapAllocation,
            12 => CudaError::SizeMismatch,
            13 => CudaError::SwapDeallocation,
            14 => CudaError::NotEligible(String::decode(r)?),
            15 => CudaError::QuotaExceeded(String::decode(r)?),
            16 => CudaError::LeaseExpired,
            17 => CudaError::MalformedDescriptor(String::decode(r)?),
            18 => CudaError::PayloadHashMismatch,
            19 => CudaError::Disconnected,
            20 => CudaError::Protocol(String::decode(r)?),
            tag => return unknown_tag("CudaError", tag),
        })
    }
}

impl Wire for ReplyValue {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReplyValue::Unit => out.push(0),
            ReplyValue::Module(m) => {
                out.push(1);
                m.encode(out);
            }
            ReplyValue::DeviceCount(n) => {
                out.push(2);
                n.encode(out);
            }
            ReplyValue::Properties(spec) => {
                out.push(3);
                spec.encode(out);
            }
            ReplyValue::Ptr(p) => {
                out.push(4);
                p.encode(out);
            }
            ReplyValue::Bytes(buf) => {
                out.push(5);
                buf.encode(out);
            }
            ReplyValue::LaunchDone { sim_nanos } => {
                out.push(6);
                sim_nanos.encode(out);
            }
            ReplyValue::Image(image) => {
                out.push(7);
                image.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => ReplyValue::Unit,
            1 => ReplyValue::Module(ModuleHandle::decode(r)?),
            2 => ReplyValue::DeviceCount(u32::decode(r)?),
            3 => ReplyValue::Properties(Box::decode(r)?),
            4 => ReplyValue::Ptr(DeviceAddr::decode(r)?),
            5 => ReplyValue::Bytes(HostBuf::decode(r)?),
            6 => ReplyValue::LaunchDone { sim_nanos: u64::decode(r)? },
            7 => ReplyValue::Image(Box::decode(r)?),
            tag => return unknown_tag("ReplyValue", tag),
        })
    }
}

impl Wire for CudaCall {
    const MIN_WIRE: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CudaCall::RegisterFatBinary => out.push(0),
            CudaCall::RegisterFunction { module, kernel } => {
                out.push(1);
                module.encode(out);
                kernel.encode(out);
            }
            CudaCall::RegisterVar { module, name, size } => {
                out.push(2);
                module.encode(out);
                name.encode(out);
                size.encode(out);
            }
            CudaCall::RegisterTexture { module, name } => {
                out.push(3);
                module.encode(out);
                name.encode(out);
            }
            CudaCall::SetApplication { app_id } => {
                out.push(4);
                app_id.encode(out);
            }
            CudaCall::SetDevice { device } => {
                out.push(5);
                device.encode(out);
            }
            CudaCall::GetDeviceCount => out.push(6),
            CudaCall::GetDeviceProperties { device } => {
                out.push(7);
                device.encode(out);
            }
            CudaCall::Malloc { size, kind } => {
                out.push(8);
                size.encode(out);
                kind.encode(out);
            }
            CudaCall::Free { ptr } => {
                out.push(9);
                ptr.encode(out);
            }
            CudaCall::MemcpyH2D { dst, buf } => {
                out.push(10);
                dst.encode(out);
                buf.encode(out);
            }
            CudaCall::MemcpyD2H { src, len } => {
                out.push(11);
                src.encode(out);
                len.encode(out);
            }
            CudaCall::MemcpyD2D { dst, src, len } => {
                out.push(12);
                dst.encode(out);
                src.encode(out);
                len.encode(out);
            }
            CudaCall::ConfigureCall { config } => {
                out.push(13);
                config.encode(out);
            }
            CudaCall::Launch { spec } => {
                out.push(14);
                spec.encode(out);
            }
            CudaCall::Synchronize => out.push(15),
            CudaCall::RegisterNested { parent, members } => {
                out.push(16);
                parent.encode(out);
                members.encode(out);
            }
            CudaCall::Checkpoint => out.push(17),
            CudaCall::HintJobLength { flops } => {
                out.push(18);
                flops.encode(out);
            }
            CudaCall::ExportImage => out.push(19),
            CudaCall::ImportImage { image } => {
                out.push(20);
                image.encode(out);
            }
            CudaCall::Offloaded => out.push(21),
            CudaCall::Exit => out.push(22),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => CudaCall::RegisterFatBinary,
            1 => CudaCall::RegisterFunction {
                module: ModuleHandle::decode(r)?,
                kernel: KernelDesc::decode(r)?,
            },
            2 => CudaCall::RegisterVar {
                module: ModuleHandle::decode(r)?,
                name: String::decode(r)?,
                size: u64::decode(r)?,
            },
            3 => CudaCall::RegisterTexture {
                module: ModuleHandle::decode(r)?,
                name: String::decode(r)?,
            },
            4 => CudaCall::SetApplication { app_id: u64::decode(r)? },
            5 => CudaCall::SetDevice { device: u32::decode(r)? },
            6 => CudaCall::GetDeviceCount,
            7 => CudaCall::GetDeviceProperties { device: u32::decode(r)? },
            8 => CudaCall::Malloc { size: u64::decode(r)?, kind: AllocKind::decode(r)? },
            9 => CudaCall::Free { ptr: DeviceAddr::decode(r)? },
            10 => CudaCall::MemcpyH2D { dst: DeviceAddr::decode(r)?, buf: HostBuf::decode(r)? },
            11 => CudaCall::MemcpyD2H { src: DeviceAddr::decode(r)?, len: u64::decode(r)? },
            12 => CudaCall::MemcpyD2D {
                dst: DeviceAddr::decode(r)?,
                src: DeviceAddr::decode(r)?,
                len: u64::decode(r)?,
            },
            13 => CudaCall::ConfigureCall { config: LaunchConfig::decode(r)? },
            14 => CudaCall::Launch { spec: LaunchSpec::decode(r)? },
            15 => CudaCall::Synchronize,
            16 => CudaCall::RegisterNested {
                parent: DeviceAddr::decode(r)?,
                members: Vec::decode(r)?,
            },
            17 => CudaCall::Checkpoint,
            18 => CudaCall::HintJobLength { flops: f64::decode(r)? },
            19 => CudaCall::ExportImage,
            20 => CudaCall::ImportImage { image: ContextImage::decode(r)? },
            21 => CudaCall::Offloaded,
            22 => CudaCall::Exit,
            tag => return unknown_tag("CudaCall", tag),
        })
    }
}

impl Wire for MuxFrame {
    const MIN_WIRE: usize = 1 + 8 + 1 + 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MuxFrame::Request { chan, id, call } => {
                out.push(0);
                chan.encode(out);
                id.encode(out);
                call.encode(out);
            }
            MuxFrame::Response { id, reply } => {
                out.push(1);
                id.encode(out);
                reply.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(MuxFrame::Request {
                chan: u64::decode(r)?,
                id: u64::decode(r)?,
                call: CudaCall::decode(r)?,
            }),
            1 => Ok(MuxFrame::Response { id: u64::decode(r)?, reply: Result::decode(r)? }),
            tag => unknown_tag("MuxFrame", tag),
        }
    }
}
