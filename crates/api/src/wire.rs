//! The binary wire codec: the one way a protocol value becomes frame bytes.
//!
//! The node's one network wire (mux client + reactor, and through them the
//! §4.7 offload relay) carries bodies encoded by the [`Wire`] impls in this
//! file — see DESIGN.md §12 for the layout table. The rules are few:
//!
//! - integers are fixed-width little-endian; `f64` travels as `to_bits`, so
//!   every bit pattern (NaN payloads, ±∞, −0.0) survives and it is
//!   [`crate::guard`], not the codec, that refuses non-finite values;
//! - an enum is one `u8` tag followed by the variant's fields; a struct is
//!   its fields in declaration order. Each type's layout is written once, as
//!   a `wire_struct!` or `wire_enum!` list: a tag is the variant's index in
//!   its type's list (which follows the declaration, from 0), and encoder,
//!   decoder and `MIN_WIRE` are all generated from that one list;
//! - strings, byte payloads and vectors carry a `u32` length/count prefix;
//!   a byte payload ([`HostBuf::payload`], [`ImageEntry::data`]) is the raw
//!   bytes, moved with one `extend_from_slice` each way.
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
    AllocKind, ContextImage, CudaCall, CudaReply, ImageEntry, ModuleHandle, MuxFrame, ReplyValue,
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

/// Vectors of structured elements. Byte payloads do not come through here:
/// a `Vec<u8>` is a length and the raw bytes (the impl below).
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

/// A byte payload ([`HostBuf::payload`], [`ImageEntry::data`]): its length,
/// then the raw bytes, moved with one `extend_from_slice` each way.
impl Wire for Vec<u8> {
    const MIN_WIRE: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.bytes().map(<[u8]>::to_vec)
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

// --- structs: fields in declaration order -----------------------------------------

/// Implements [`Wire`] for a struct as the concatenation of the listed
/// fields (a tuple struct's by index: `DeviceAddr { 0: u64 }`). Every field
/// must be listed (the decode side is a struct literal), so adding a field
/// without extending the layout fails to build.
macro_rules! wire_struct {
    ($ty:ident { $($field:tt: $fty:ty),+ $(,)? }) => {
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

wire_struct!(DeviceAddr { 0: u64 });
wire_struct!(ModuleHandle { 0: u64 });
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
wire_struct!(HostBuf { declared_len: u64, payload: Vec<u8>, content_hash: Option<u64> });
wire_struct!(ImageEntry {
    vaddr: DeviceAddr,
    size: u64,
    kind: AllocKind,
    data: Vec<u8>,
    nested_members: Vec<DeviceAddr>,
    nested_parent: Option<DeviceAddr>,
});
wire_struct!(ContextImage { label: String, entries: Vec<ImageEntry> });

// --- enums: a u8 tag (the index in the list), then the variant's fields -----------

/// The shortest of a list of lengths, for `MIN_WIRE`.
const fn shortest(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// Implements [`Wire`] for an enum from one list of its variants, in
/// declaration order: a variant's tag is its index in the list, its fields
/// follow in the listed order, and `MIN_WIRE` is the tag plus the shortest
/// variant. A tuple variant names its fields (`Ptr(addr: DeviceAddr)`) so
/// the encoder can bind them. The encoder's `match` is exhaustive and its
/// patterns name every field, so a variant or a field left out of the list
/// fails to build.
macro_rules! wire_enum {
    ($ty:ident $(<$($param:ident),+>)? {
        $($variant:ident
            $(($($bind:ident: $tty:ty),+))?
            $({ $($field:ident: $fty:ty),+ $(,)? })?
        ),+ $(,)?
    }) => {
        const _: () = {
            /// The list's tags: each variant's index, by its own name.
            #[allow(non_upper_case_globals, dead_code)]
            mod tag {
                #[repr(u8)]
                enum Index { $($variant),+ }
                $(pub const $variant: u8 = Index::$variant as u8;)+
            }

            impl $(<$($param: Wire),+>)? Wire for $ty $(<$($param),+>)? {
                const MIN_WIRE: usize = 1 + shortest(&[$(
                    0 $($(+ <$tty as Wire>::MIN_WIRE)+)? $($(+ <$fty as Wire>::MIN_WIRE)+)?
                ),+]);
                fn encode(&self, out: &mut Vec<u8>) {
                    match self {
                        $($ty::$variant $(($($bind),+))? $({ $($field),+ })? => {
                            out.push(tag::$variant);
                            $($($bind.encode(out);)+)?
                            $($($field.encode(out);)+)?
                        })+
                    }
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(match r.u8()? {
                        $(tag::$variant => $ty::$variant
                            $(($(<$tty as Wire>::decode(r)?),+))?
                            $({ $($field: <$fty as Wire>::decode(r)?),+ })?,)+
                        other => return unknown_tag(stringify!($ty), other),
                    })
                }
            }
        };
    };
}

wire_enum!(Option<T> { None, Some(value: T) });
// `CudaReply` is `Result<ReplyValue, CudaError>`: tag 0 = `Ok`, 1 = `Err`.
wire_enum!(Result<T, E> { Ok(value: T), Err(error: E) });
wire_enum!(AllocKind { Linear, Array, Pitched });
wire_enum!(KernelArg { Ptr(addr: DeviceAddr), Scalar(value: u64), Float(value: f64) });
wire_enum!(CudaError {
    MemoryAllocation,
    InvalidValue,
    InvalidDevicePointer,
    OutOfBounds,
    InvalidDevice,
    NoDevice,
    LaunchFailure(msg: String),
    InvalidDeviceFunction(msg: String),
    DeviceUnavailable,
    TooManyContexts,
    VirtualAddressExhausted,
    SwapAllocation,
    SizeMismatch,
    SwapDeallocation,
    NotEligible(msg: String),
    QuotaExceeded(msg: String),
    LeaseExpired,
    MalformedDescriptor(msg: String),
    PayloadHashMismatch,
    Disconnected,
    Protocol(msg: String),
});
wire_enum!(ReplyValue {
    Unit,
    Module(handle: ModuleHandle),
    DeviceCount(count: u32),
    Properties(spec: Box<GpuSpec>),
    Ptr(addr: DeviceAddr),
    Bytes(buf: HostBuf),
    LaunchDone { sim_nanos: u64 },
    Image(image: Box<ContextImage>),
});
wire_enum!(CudaCall {
    RegisterFatBinary,
    RegisterFunction { module: ModuleHandle, kernel: KernelDesc },
    RegisterVar { module: ModuleHandle, name: String, size: u64 },
    RegisterTexture { module: ModuleHandle, name: String },
    SetApplication { app_id: u64 },
    SetDevice { device: u32 },
    GetDeviceCount,
    GetDeviceProperties { device: u32 },
    Malloc { size: u64, kind: AllocKind },
    Free { ptr: DeviceAddr },
    MemcpyH2D { dst: DeviceAddr, buf: HostBuf },
    MemcpyD2H { src: DeviceAddr, len: u64 },
    MemcpyD2D { dst: DeviceAddr, src: DeviceAddr, len: u64 },
    ConfigureCall { config: LaunchConfig },
    Launch { spec: LaunchSpec },
    Synchronize,
    RegisterNested { parent: DeviceAddr, members: Vec<DeviceAddr> },
    Checkpoint,
    HintJobLength { flops: f64 },
    ExportImage,
    ImportImage { image: ContextImage },
    Offloaded,
    Exit,
});
wire_enum!(MuxFrame {
    Request { chan: u64, id: u64, call: CudaCall },
    Response { id: u64, reply: CudaReply },
});
