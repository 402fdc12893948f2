//! Checkpoint-restart across nodes (§4.6): a context's memory image is
//! exported on one node and restored on a *different* node — the mechanism
//! the paper combines with BLCR to survive full node restarts. Virtual
//! addresses are preserved, so the application resumes with its pointers
//! intact.

use mtgpu::api::protocol::ContextImage;
use mtgpu::api::wire::{self, Wire};
use mtgpu::api::{CudaClient, CudaError, HostBuf, KernelArg, LaunchConfig, LaunchSpec, Work};
use mtgpu::core::{NodeRuntime, RuntimeConfig};
use mtgpu::gpusim::kernel::{library, KernelExec, RegisteredKernel};
use mtgpu::gpusim::{Driver, GpuSpec, KernelDesc};
use mtgpu::simtime::Clock;
use std::sync::Arc;

fn install() {
    library::register(RegisteredKernel {
        desc: KernelDesc::plain("bump"),
        payload: Some(Arc::new(|exec: &mut KernelExec<'_>| {
            let p = exec.args()[0].as_ptr().expect("pointer");
            exec.with_bytes_mut(p, 64, &mut |b| {
                for x in b.iter_mut() {
                    *x += 1;
                }
            })
        })),
    });
}

fn new_node() -> Arc<NodeRuntime> {
    install();
    let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
    NodeRuntime::start(driver, RuntimeConfig::paper_default())
}

fn bump(c: &mut impl CudaClient, ptr: mtgpu::gpusim::DeviceAddr) {
    c.launch(LaunchSpec {
        kernel: "bump".into(),
        config: LaunchConfig::default(),
        args: vec![KernelArg::Ptr(ptr)],
        work: Work::flops(1e6),
    })
    .unwrap();
}

#[test]
fn image_survives_node_migration_with_pointers_intact() {
    let node_a = new_node();
    let node_b = new_node();

    // Run one kernel iteration on node A.
    let mut app_a = node_a.local_client();
    let m = app_a.register_fat_binary().unwrap();
    app_a.register_function(m, KernelDesc::plain("bump")).unwrap();
    let ptr = app_a.malloc(64).unwrap();
    app_a.memcpy_h2d(ptr, HostBuf::from_slice(&[10u8; 64])).unwrap();
    bump(&mut app_a, ptr); // 11

    // Export (implicit checkpoint), shut the whole node down.
    let image = app_a.export_image().unwrap();
    assert_eq!(image.entries.len(), 1);
    assert_eq!(image.entries[0].vaddr, ptr);
    app_a.exit().unwrap();
    node_a.shutdown();

    // The image is plain data (what BLCR would persist), in the wire
    // layout `ExportImage`/`ImportImage` ship it in between nodes.
    let mut bytes = Vec::new();
    image.encode(&mut bytes);
    let restored: ContextImage = wire::decode_exact(&bytes).unwrap();
    assert_eq!(restored, image);

    // Restore on node B and continue with the SAME virtual pointer.
    let mut app_b = node_b.local_client();
    app_b.import_image(restored).unwrap();
    let m = app_b.register_fat_binary().unwrap();
    app_b.register_function(m, KernelDesc::plain("bump")).unwrap();
    bump(&mut app_b, ptr); // 12
    let back = app_b.memcpy_d2h(ptr, 64).unwrap();
    assert_eq!(back.payload, vec![12u8; 64], "state continued across nodes");
    app_b.exit().unwrap();
    node_b.shutdown();
}

#[test]
fn import_requires_fresh_context() {
    let node = new_node();
    let mut donor = node.local_client();
    let p = donor.malloc(64).unwrap();
    donor.memcpy_h2d(p, HostBuf::from_slice(&[1u8; 64])).unwrap();
    let image = donor.export_image().unwrap();
    donor.exit().unwrap();

    let mut dirty = node.local_client();
    dirty.malloc(64).unwrap();
    assert_eq!(dirty.import_image(image), Err(CudaError::InvalidValue));
    dirty.exit().unwrap();
    node.shutdown();
}

#[test]
fn import_after_image_does_not_collide_with_new_allocations() {
    let node = new_node();
    let mut donor = node.local_client();
    let p = donor.malloc(1024).unwrap();
    donor.memcpy_h2d(p, HostBuf::from_slice(&[7u8; 1024])).unwrap();
    let image = donor.export_image().unwrap();
    donor.exit().unwrap();

    let node2 = new_node();
    let mut app = node2.local_client();
    app.import_image(image).unwrap();
    // New allocations must not overlap the imported virtual range.
    let q = app.malloc(1024).unwrap();
    assert!(q.0 >= p.0 + 1024 || q.0 + 1024 <= p.0, "virtual ranges overlap");
    app.memcpy_h2d(q, HostBuf::from_slice(&[9u8; 1024])).unwrap();
    assert_eq!(app.memcpy_d2h(p, 1024).unwrap().payload, vec![7u8; 1024]);
    assert_eq!(app.memcpy_d2h(q, 1024).unwrap().payload, vec![9u8; 1024]);
    app.exit().unwrap();
    node.shutdown();
    node2.shutdown();
}

#[test]
fn bare_runtime_rejects_images() {
    install();
    let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::test_small()]);
    let mut c = mtgpu::api::BareClient::new(driver);
    assert!(matches!(c.export_image(), Err(CudaError::NotEligible(_))));
}
