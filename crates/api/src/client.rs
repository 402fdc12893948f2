//! The application-facing API: [`CudaClient`], the trait the workloads are
//! written against.

use crate::error::{CudaError, CudaResult};
use crate::host_buf::HostBuf;
use crate::protocol::{AllocKind, CudaCall, CudaReply, ModuleHandle, ReplyValue};
use mtgpu_gpusim::{DeviceAddr, GpuSpec, KernelDesc, LaunchSpec};

/// One application thread's view of the CUDA runtime.
///
/// The single required method is [`CudaClient::call`]: every CUDA API entry
/// point is one request/reply exchange, exactly as the interposition library
/// forwards them. Typed wrappers are provided for ergonomics; they are how
/// the Table 2 workloads are written.
pub trait CudaClient: Send {
    /// Issues one CUDA call and blocks for its reply.
    fn call(&mut self, call: CudaCall) -> CudaReply;

    /// Issues a batch of calls, returning one reply per call in order.
    ///
    /// The default performs sequential roundtrips; pipelining transports
    /// (the multiplexed frontend) override it to ship the whole batch in
    /// one write and save the intermediate wire round-trips. Semantics are
    /// identical either way: calls execute in order on the server.
    fn call_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        calls.into_iter().map(|c| self.call(c)).collect()
    }

    /// `__cudaRegisterFatBinary`.
    fn register_fat_binary(&mut self) -> CudaResult<ModuleHandle> {
        match self.call(CudaCall::RegisterFatBinary)? {
            ReplyValue::Module(m) => Ok(m),
            other => Err(unexpected(other)),
        }
    }

    /// `__cudaRegisterFunction`.
    fn register_function(&mut self, module: ModuleHandle, kernel: KernelDesc) -> CudaResult<()> {
        unit(self.call(CudaCall::RegisterFunction { module, kernel }))
    }

    /// `cudaSetDevice`.
    fn set_device(&mut self, device: u32) -> CudaResult<()> {
        unit(self.call(CudaCall::SetDevice { device }))
    }

    /// CUDA 4.0 support (§4.8): identifies this thread's application so the
    /// runtime keeps all of the application's threads on one device.
    fn set_application(&mut self, app_id: u64) -> CudaResult<()> {
        unit(self.call(CudaCall::SetApplication { app_id }))
    }

    /// `cudaGetDeviceCount`.
    fn get_device_count(&mut self) -> CudaResult<u32> {
        match self.call(CudaCall::GetDeviceCount)? {
            ReplyValue::DeviceCount(n) => Ok(n),
            other => Err(unexpected(other)),
        }
    }

    /// `cudaGetDeviceProperties`.
    fn get_device_properties(&mut self, device: u32) -> CudaResult<GpuSpec> {
        match self.call(CudaCall::GetDeviceProperties { device })? {
            ReplyValue::Properties(spec) => Ok(*spec),
            other => Err(unexpected(other)),
        }
    }

    /// `cudaMalloc`.
    fn malloc(&mut self, size: u64) -> CudaResult<DeviceAddr> {
        match self.call(CudaCall::Malloc { size, kind: AllocKind::Linear })? {
            ReplyValue::Ptr(p) => Ok(p),
            other => Err(unexpected(other)),
        }
    }

    /// `cudaFree`.
    fn free(&mut self, ptr: DeviceAddr) -> CudaResult<()> {
        unit(self.call(CudaCall::Free { ptr }))
    }

    /// `cudaMemcpy(HostToDevice)`.
    fn memcpy_h2d(&mut self, dst: DeviceAddr, buf: HostBuf) -> CudaResult<()> {
        unit(self.call(CudaCall::MemcpyH2D { dst, buf }))
    }

    /// `cudaMemcpy(DeviceToHost)`.
    fn memcpy_d2h(&mut self, src: DeviceAddr, len: u64) -> CudaResult<HostBuf> {
        match self.call(CudaCall::MemcpyD2H { src, len })? {
            ReplyValue::Bytes(b) => Ok(b),
            other => Err(unexpected(other)),
        }
    }

    /// `cudaConfigureCall` + `cudaLaunch`, batched so pipelining transports
    /// ship both in one write (one wire round-trip per launch instead of
    /// two).
    fn launch(&mut self, spec: LaunchSpec) -> CudaResult<()> {
        let config = spec.config;
        let mut replies = self
            .call_batch(vec![CudaCall::ConfigureCall { config }, CudaCall::Launch { spec }])
            .into_iter();
        replies.next().unwrap_or(Err(CudaError::Disconnected))?;
        match replies.next().unwrap_or(Err(CudaError::Disconnected))? {
            ReplyValue::LaunchDone { .. } | ReplyValue::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `cudaThreadSynchronize`.
    fn synchronize(&mut self) -> CudaResult<()> {
        unit(self.call(CudaCall::Synchronize))
    }

    /// mtgpu runtime API: registers a nested structure (§1).
    fn register_nested(&mut self, parent: DeviceAddr, members: Vec<DeviceAddr>) -> CudaResult<()> {
        unit(self.call(CudaCall::RegisterNested { parent, members }))
    }

    /// mtgpu runtime API: scheduling hint — the job's estimated total GPU
    /// work in FLOPs (profiling information for shortest-job-first, §2).
    fn hint_job_length(&mut self, flops: f64) -> CudaResult<()> {
        unit(self.call(CudaCall::HintJobLength { flops }))
    }

    /// mtgpu runtime API: explicit checkpoint (§4.6).
    fn checkpoint(&mut self) -> CudaResult<()> {
        unit(self.call(CudaCall::Checkpoint))
    }

    /// mtgpu runtime API: checkpoint and export the context's memory image
    /// for restart on another node (§4.6).
    fn export_image(&mut self) -> CudaResult<crate::protocol::ContextImage> {
        match self.call(CudaCall::ExportImage)? {
            ReplyValue::Image(img) => Ok(*img),
            other => Err(unexpected(other)),
        }
    }

    /// mtgpu runtime API: restore an exported image into this (fresh)
    /// context, preserving virtual addresses.
    fn import_image(&mut self, image: crate::protocol::ContextImage) -> CudaResult<()> {
        unit(self.call(CudaCall::ImportImage { image }))
    }

    /// `cudaThreadExit` / connection teardown.
    fn exit(&mut self) -> CudaResult<()> {
        unit(self.call(CudaCall::Exit))
    }
}

fn unit(reply: CudaReply) -> CudaResult<()> {
    match reply? {
        ReplyValue::Unit => Ok(()),
        other => Err(unexpected(other)),
    }
}

fn unexpected(v: ReplyValue) -> CudaError {
    CudaError::Protocol(format!("unexpected reply {v:?}"))
}

impl CudaClient for Box<dyn CudaClient> {
    fn call(&mut self, call: CudaCall) -> CudaReply {
        (**self).call(call)
    }

    fn call_batch(&mut self, calls: Vec<CudaCall>) -> Vec<CudaReply> {
        (**self).call_batch(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::{LaunchConfig, Work};

    /// A scripted fake used to test the default-method decoding logic.
    struct Scripted {
        replies: Vec<CudaReply>,
        calls: Vec<&'static str>,
    }

    impl CudaClient for Scripted {
        fn call(&mut self, call: CudaCall) -> CudaReply {
            self.calls.push(call.name());
            self.replies.remove(0)
        }
    }

    #[test]
    fn launch_issues_configure_then_launch() {
        let mut c = Scripted {
            replies: vec![Ok(ReplyValue::Unit), Ok(ReplyValue::LaunchDone { sim_nanos: 1 })],
            calls: vec![],
        };
        c.launch(LaunchSpec {
            kernel: "k".into(),
            config: LaunchConfig::default(),
            args: vec![],
            work: Work::flops(1.0),
        })
        .unwrap();
        assert_eq!(c.calls, vec!["ConfigureCall", "Launch"]);
    }

    #[test]
    fn typed_decoding_rejects_wrong_variant() {
        let mut c = Scripted { replies: vec![Ok(ReplyValue::Unit)], calls: vec![] };
        let err = c.malloc(64).unwrap_err();
        assert!(matches!(err, CudaError::Protocol(_)));
    }

    #[test]
    fn error_replies_propagate() {
        let mut c = Scripted { replies: vec![Err(CudaError::MemoryAllocation)], calls: vec![] };
        assert_eq!(c.malloc(64), Err(CudaError::MemoryAllocation));
    }
}
