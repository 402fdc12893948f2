//! The "bare CUDA runtime" baseline: CUDA 3.2 semantics straight onto the
//! device model, with none of the paper's virtual-memory machinery.
//!
//! Properties reproduced (and measured against in §5):
//!
//! * each application thread gets one CUDA context on one device, created
//!   lazily at the first device-touching call;
//! * `cudaMalloc` allocates immediately — concurrent applications whose
//!   aggregate footprints exceed device memory fail with
//!   `cudaErrorMemoryAllocation`;
//! * context creation beyond the device's limit fails (the 8-context
//!   instability);
//! * `cudaSetDevice` after the context exists is an error, i.e. binding is
//!   static and programmer-defined.

use crate::error::{CudaError, CudaResult};
use crate::host_buf::HostBuf;
use crate::protocol::{CudaCall, CudaReply, ModuleHandle, ReplyValue, VaCursor};
use mtgpu_gpusim::kernel::{library, RegisteredKernel};
use mtgpu_gpusim::{
    DeviceAddr, DeviceId, Driver, Gpu, GpuContextId, KernelArg, KernelDesc, LaunchSpec,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A per-application-thread client talking directly to the driver.
///
/// Each context has an address space of its own, as a CUDA context has on
/// a real device: the application holds addresses minted by the same rule
/// the mtgpu runtime follows ([`CudaCall::Malloc`]), so two contexts' first
/// allocations share a number, and the client translates them to the
/// device model's addresses, which are unique device-wide. A pointer it did
/// not hand out reaches the device model untranslated, which refuses it.
pub struct BareClient {
    driver: Arc<Driver>,
    selected: u32,
    ctx: Option<(Arc<Gpu>, GpuContextId)>,
    kernels: HashMap<String, RegisteredKernel>,
    next_module: u64,
    cursor: VaCursor,
    /// Live allocations: address handed out → (declared size, device
    /// address).
    allocs: BTreeMap<u64, (u64, DeviceAddr)>,
}

impl BareClient {
    /// Creates a client for one application thread.
    pub fn new(driver: Arc<Driver>) -> Self {
        BareClient {
            driver,
            selected: 0,
            ctx: None,
            kernels: HashMap::new(),
            next_module: 1,
            cursor: VaCursor::default(),
            allocs: BTreeMap::new(),
        }
    }

    /// The device address behind a (possibly interior) pointer the client
    /// handed out; any other pointer as it is.
    fn device_addr(&self, ptr: DeviceAddr) -> DeviceAddr {
        match self.allocs.range(..=ptr.0).next_back() {
            Some((&base, &(size, dev))) if ptr.0 - base < size => {
                DeviceAddr(dev.0 + (ptr.0 - base))
            }
            _ => ptr,
        }
    }

    fn ensure_context(&mut self) -> CudaResult<(Arc<Gpu>, GpuContextId)> {
        if let Some((gpu, ctx)) = &self.ctx {
            return Ok((Arc::clone(gpu), *ctx));
        }
        let gpu =
            self.driver.device(DeviceId(self.selected)).map_err(|_| CudaError::InvalidDevice)?;
        let ctx = gpu.create_context().map_err(CudaError::from_gpu)?;
        self.ctx = Some((Arc::clone(&gpu), ctx));
        Ok((gpu, ctx))
    }

    fn handle(&mut self, call: CudaCall) -> CudaReply {
        match call {
            CudaCall::RegisterFatBinary => {
                let m = ModuleHandle(self.next_module);
                self.next_module += 1;
                Ok(ReplyValue::Module(m))
            }
            CudaCall::RegisterFunction { kernel, .. } => {
                self.register_kernel(kernel);
                Ok(ReplyValue::Unit)
            }
            CudaCall::RegisterVar { .. } | CudaCall::RegisterTexture { .. } => Ok(ReplyValue::Unit),
            CudaCall::SetApplication { .. } | CudaCall::HintJobLength { .. } => {
                Ok(ReplyValue::Unit)
            }
            CudaCall::SetDevice { device } => {
                if self.ctx.is_some() {
                    // CUDA 3.2: cannot retarget an active thread.
                    return Err(CudaError::InvalidValue);
                }
                if self.driver.device(DeviceId(device)).is_err() {
                    return Err(CudaError::InvalidDevice);
                }
                self.selected = device;
                Ok(ReplyValue::Unit)
            }
            CudaCall::GetDeviceCount => {
                Ok(ReplyValue::DeviceCount(self.driver.device_count() as u32))
            }
            CudaCall::GetDeviceProperties { device } => {
                let gpu =
                    self.driver.device(DeviceId(device)).map_err(|_| CudaError::InvalidDevice)?;
                Ok(ReplyValue::Properties(Box::new(gpu.spec().clone())))
            }
            CudaCall::Malloc { size, .. } => {
                let ptr = self.cursor.take(size);
                let (gpu, ctx) = self.ensure_context()?;
                let dev = gpu.malloc(ctx, size).map_err(CudaError::from_gpu)?;
                self.allocs.insert(ptr.0, (size, dev));
                Ok(ReplyValue::Ptr(ptr))
            }
            CudaCall::Free { ptr } => {
                let (gpu, ctx) = self.ensure_context()?;
                gpu.free(ctx, self.device_addr(ptr)).map_err(CudaError::from_gpu)?;
                self.allocs.remove(&ptr.0);
                Ok(ReplyValue::Unit)
            }
            CudaCall::MemcpyH2D { dst, buf } => {
                let (gpu, ctx) = self.ensure_context()?;
                gpu.memcpy_h2d(ctx, self.device_addr(dst), buf.declared_len, &buf.payload)
                    .map_err(CudaError::from_gpu)?;
                Ok(ReplyValue::Unit)
            }
            CudaCall::MemcpyD2H { src, len } => {
                let (gpu, ctx) = self.ensure_context()?;
                let payload =
                    gpu.memcpy_d2h(ctx, self.device_addr(src), len).map_err(CudaError::from_gpu)?;
                Ok(ReplyValue::Bytes(HostBuf::with_shadow(len, payload)))
            }
            CudaCall::MemcpyD2D { dst, src, len } => {
                let (gpu, ctx) = self.ensure_context()?;
                let payload =
                    gpu.memcpy_d2h(ctx, self.device_addr(src), len).map_err(CudaError::from_gpu)?;
                gpu.memcpy_h2d(ctx, self.device_addr(dst), len, &payload)
                    .map_err(CudaError::from_gpu)?;
                Ok(ReplyValue::Unit)
            }
            CudaCall::ConfigureCall { .. } => Ok(ReplyValue::Unit),
            CudaCall::Launch { spec } => self.launch(spec),
            CudaCall::Synchronize => {
                // All operations are synchronous in the model.
                self.ensure_context()?;
                Ok(ReplyValue::Unit)
            }
            CudaCall::RegisterNested { .. } | CudaCall::Checkpoint => {
                // Bare CUDA has no such facility; the calls are accepted and
                // ignored so workloads run unmodified on the baseline.
                Ok(ReplyValue::Unit)
            }
            CudaCall::ExportImage | CudaCall::ImportImage { .. } => {
                Err(CudaError::NotEligible("checkpoint images require the mtgpu runtime".into()))
            }
            CudaCall::Offloaded => Ok(ReplyValue::Unit),
            CudaCall::Exit => {
                self.teardown();
                Ok(ReplyValue::Unit)
            }
        }
    }

    fn register_kernel(&mut self, desc: KernelDesc) {
        // Resolve the functional payload from the process-global library
        // (the "machine code in the fat binary").
        let payload = library::lookup(&desc.name).and_then(|k| k.payload);
        self.kernels.insert(desc.name.clone(), RegisteredKernel { desc, payload });
    }

    fn launch(&mut self, mut spec: LaunchSpec) -> CudaReply {
        let kernel = self
            .kernels
            .get(&spec.kernel)
            .cloned()
            .ok_or_else(|| CudaError::InvalidDeviceFunction(spec.kernel.clone()))?;
        for arg in &mut spec.args {
            if let KernelArg::Ptr(p) = arg {
                *p = self.device_addr(*p);
            }
        }
        let (gpu, ctx) = self.ensure_context()?;
        let dur = gpu.launch(ctx, &kernel, &spec).map_err(CudaError::from_gpu)?;
        Ok(ReplyValue::LaunchDone { sim_nanos: dur.as_nanos() })
    }

    fn teardown(&mut self) {
        if let Some((gpu, ctx)) = self.ctx.take() {
            let _ = gpu.destroy_context(ctx);
        }
        self.allocs.clear();
        self.cursor = VaCursor::default();
    }
}

impl crate::client::CudaClient for BareClient {
    fn call(&mut self, call: CudaCall) -> CudaReply {
        self.handle(call)
    }
}

impl Drop for BareClient {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CudaClient;
    use mtgpu_gpusim::{DeviceAddr, GpuSpec, KernelArg, LaunchConfig, Work};
    use mtgpu_simtime::Clock;

    fn driver() -> Arc<Driver> {
        Driver::with_devices(Clock::with_scale(1e-6), vec![GpuSpec::test_small()])
    }

    fn spec_for(kernel: &str, ptrs: &[DeviceAddr]) -> LaunchSpec {
        LaunchSpec {
            kernel: kernel.into(),
            config: LaunchConfig::default(),
            args: ptrs.iter().map(|&p| KernelArg::Ptr(p)).collect(),
            work: Work::flops(1e6),
        }
    }

    #[test]
    fn end_to_end_roundtrip() {
        let mut c = BareClient::new(driver());
        let m = c.register_fat_binary().unwrap();
        c.register_function(m, KernelDesc::plain("noop")).unwrap();
        let ptr = c.malloc(1024).unwrap();
        c.memcpy_h2d(ptr, HostBuf::from_slice(&[9u8; 1024])).unwrap();
        c.launch(spec_for("noop", &[ptr])).unwrap();
        let back = c.memcpy_d2h(ptr, 1024).unwrap();
        assert_eq!(back.payload, vec![9u8; 1024]);
        c.free(ptr).unwrap();
        c.exit().unwrap();
    }

    #[test]
    fn each_context_has_its_own_address_space() {
        let d = driver();
        let (mut a, mut b) = (BareClient::new(Arc::clone(&d)), BareClient::new(d));
        let (pa, pb) = (a.malloc(64).unwrap(), b.malloc(64).unwrap());
        assert_eq!(pa, pb, "both follow the runtime's rule");
        a.memcpy_h2d(pa, HostBuf::from_slice(&[1u8; 64])).unwrap();
        b.memcpy_h2d(pb, HostBuf::from_slice(&[2u8; 64])).unwrap();
        assert_eq!(a.memcpy_d2h(DeviceAddr(pa.0 + 8), 8).unwrap().payload, [1u8; 8]);
        assert_eq!(b.memcpy_d2h(pb, 64).unwrap().payload, [2u8; 64]);
        a.free(pa).unwrap();
        assert_eq!(a.memcpy_d2h(pa, 8), Err(CudaError::InvalidDevicePointer));
        assert_eq!(b.memcpy_d2h(pb, 8).unwrap().payload, [2u8; 8]);
    }

    #[test]
    fn set_device_after_context_fails() {
        let d = Driver::with_devices(
            Clock::with_scale(1e-6),
            vec![GpuSpec::test_small(), GpuSpec::test_small()],
        );
        let mut c = BareClient::new(d);
        let _ = c.malloc(64).unwrap(); // forces context creation on device 0
        assert_eq!(c.set_device(1), Err(CudaError::InvalidValue));
    }

    #[test]
    fn set_device_selects_before_context() {
        let d = Driver::with_devices(
            Clock::with_scale(1e-6),
            vec![GpuSpec::test_small(), GpuSpec::test_small()],
        );
        let g1 = d.device(DeviceId(1)).unwrap();
        let mut c = BareClient::new(d);
        c.set_device(1).unwrap();
        let _ = c.malloc(64).unwrap();
        assert_eq!(g1.context_count(), 1);
    }

    #[test]
    fn invalid_device_ordinal() {
        let mut c = BareClient::new(driver());
        assert_eq!(c.set_device(7), Err(CudaError::InvalidDevice));
    }

    #[test]
    fn unregistered_kernel_rejected() {
        let mut c = BareClient::new(driver());
        let ptr = c.malloc(64).unwrap();
        let err = c.launch(spec_for("ghost", &[ptr])).unwrap_err();
        assert_eq!(err, CudaError::InvalidDeviceFunction("ghost".into()));
    }

    #[test]
    fn aggregate_overcommit_fails_like_cuda() {
        // Two threads each fitting alone, failing together: the paper's
        // motivating scenario (§1, Figure 1 discussion).
        let d = driver();
        let total = d.device(DeviceId(0)).unwrap().mem_available();
        let mut a = BareClient::new(Arc::clone(&d));
        let mut b = BareClient::new(d);
        let chunk = total * 6 / 10;
        let _pa = a.malloc(chunk).unwrap();
        assert_eq!(b.malloc(chunk), Err(CudaError::MemoryAllocation));
    }

    #[test]
    fn context_limit_is_eight() {
        let d = driver();
        let mut clients: Vec<BareClient> =
            (0..8).map(|_| BareClient::new(Arc::clone(&d))).collect();
        for c in &mut clients {
            c.malloc(64).unwrap();
        }
        let mut ninth = BareClient::new(d);
        assert_eq!(ninth.malloc(64), Err(CudaError::TooManyContexts));
    }

    #[test]
    fn drop_releases_context() {
        let d = driver();
        let gpu = d.device(DeviceId(0)).unwrap();
        {
            let mut c = BareClient::new(Arc::clone(&d));
            c.malloc(64).unwrap();
            assert_eq!(gpu.context_count(), 1);
        }
        assert_eq!(gpu.context_count(), 0);
    }

    #[test]
    fn device_count_and_properties() {
        let mut c = BareClient::new(driver());
        assert_eq!(c.get_device_count().unwrap(), 1);
        let props = c.get_device_properties(0).unwrap();
        assert_eq!(props.name, "TestGPU-64M");
        assert!(c.get_device_properties(3).is_err());
    }
}
