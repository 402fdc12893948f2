//! CUDA 3.2-style API surface for the `mtgpu` workspace.
//!
//! Applications in this workspace are written against [`CudaClient`], a trait
//! mirroring the slice of the CUDA Runtime API the paper enumerates (§3):
//! device selection, memory allocation/de-allocation, transfers, module and
//! kernel registration, and kernel launch — plus the paper's runtime API
//! extensions (nested-structure registration, explicit checkpoint).
//!
//! Two implementations exist:
//!
//! * [`BareClient`] — straight to the [`mtgpu_gpusim::Driver`] with CUDA 3.2
//!   semantics (programmer-visible devices, immediate allocation, no virtual
//!   memory). This is the paper's baseline ("bare CUDA runtime").
//! * [`FrontendClient`] — the gVirtuS-style *interposition library*: every
//!   call becomes a [`protocol::CudaCall`] shipped over a
//!   [`transport::Transport`] to a runtime daemon — encoded by the binary
//!   [`wire`] codec onto the framed socket, or run on the calling thread by
//!   the runtime's in-process client — and the reply comes back. Applications
//!   cannot tell the difference — which is the point of API remoting.

pub mod bare;
pub mod client;
pub mod error;
pub mod guard;
pub mod host_buf;
pub mod protocol;
pub mod transport;
pub mod wire;

pub use bare::BareClient;
pub use client::CudaClient;
pub use error::{CudaError, CudaResult};
pub use guard::DescriptorLimits;
pub use host_buf::HostBuf;
pub use protocol::{CudaCall, CudaReply, MuxFrame, ReplyValue};
pub use transport::{FrontendClient, MuxChannel, MuxConnection, MuxPool, Transport};

// Re-export the gpusim vocabulary types that appear in the API surface.
pub use mtgpu_gpusim::{DeviceAddr, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work};
