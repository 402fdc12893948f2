//! Tentpole fault-injection matrix: scripted device removal, transient
//! context faults and transport drops at precise virtual times, with the
//! recovery invariants the paper's runtime promises — and exact replay of
//! the whole faulted timeline.
//!
//! Timing map of [`DetScenario::fault_shape`] (6 clients, 3 devices, 2
//! rounds): compute phase ends before virtual t≈1.2 s; t=1.2–1.5 s is the
//! scripted quiet window where contexts sit idle and bound; downloads and
//! teardown follow. Faults are pinned inside those windows.

use mtgpu::det::{run, DetScenario};
use mtgpu::gpusim::{DeviceId, FaultPlan};
use mtgpu::simtime::SimDuration;

fn quiet_t() -> SimDuration {
    SimDuration::from_millis(1300)
}

#[test]
fn device_removal_recovers_checkpointed_contexts() {
    let mk = || {
        let mut s = DetScenario::fault_shape(42);
        s.checkpoint_each_round = true;
        s.plan = FaultPlan::new().fail_device(quiet_t(), DeviceId(0));
        s
    };
    let a = run(mk());
    // Two of the six clients sat on the failed device; checkpoints made
    // their state host-authoritative, so both recover and every download
    // still matches the host model (payload correctness after recovery).
    assert_eq!(a.metrics.recovered_contexts, 2, "contexts recovered");
    assert_eq!(a.metrics.failed_contexts, 0, "no context may be lost");
    assert!(a.clients.iter().all(|c| c.verified), "post-recovery data integrity");
    assert_eq!(a.clients.iter().map(|c| c.ops_err).sum::<u32>(), 0);

    let b = run(mk());
    assert_eq!(a.canonical(), b.canonical(), "faulted timeline replay diverged");
}

#[test]
fn device_removal_without_checkpoint_loses_dirty_contexts() {
    let mk = || {
        let mut s = DetScenario::fault_shape(42);
        s.plan = FaultPlan::new().fail_device(quiet_t(), DeviceId(0));
        s
    };
    let a = run(mk());
    // Un-checkpointed kernel results lived only on the dead device: those
    // contexts must fail *explicitly* (no silent wrong answers), while the
    // other four finish verified.
    assert_eq!(a.metrics.failed_contexts, 2);
    assert_eq!(a.metrics.recovered_contexts, 0);
    let (lost, fine): (Vec<_>, Vec<_>) = a.clients.iter().partition(|c| !c.verified);
    assert_eq!(lost.len(), 2);
    assert_eq!(fine.len(), 4);
    for c in &lost {
        assert!(c.ops_err > 0);
        let err = c.first_error.as_deref().unwrap_or_default();
        assert!(err.contains("DeviceUnavailable"), "unexpected error: {err}");
    }
    assert!(fine.iter().all(|c| c.ops_err == 0 && c.verified));

    let b = run(mk());
    assert_eq!(a.canonical(), b.canonical());
}

#[test]
fn transient_context_fault_fails_exactly_one_launch() {
    let mk = || {
        let mut s = DetScenario::fault_shape(42);
        // Armed during the compute phase: the next launch on device 0
        // fails once, then the device behaves normally.
        s.plan = FaultPlan::new().context_fault(SimDuration::from_millis(150), DeviceId(0));
        s
    };
    let a = run(mk());
    assert_eq!(a.clients.iter().map(|c| c.ops_err).sum::<u32>(), 1, "one-shot fault");
    assert_eq!(a.metrics.failed_contexts, 0);
    let err =
        a.clients.iter().find_map(|c| c.first_error.clone()).expect("one client saw the fault");
    assert!(err.contains("injected transient context fault"), "got: {err}");
    // The failed launch never touched the data, so every client —
    // including the faulted one — still verifies.
    assert!(a.clients.iter().all(|c| c.verified));

    let b = run(mk());
    assert_eq!(a.canonical(), b.canonical());
}

#[test]
fn transport_drop_tears_down_cleanly() {
    let mk = || {
        let mut s = DetScenario::fault_shape(42);
        s.plan = FaultPlan::new().drop_transport(quiet_t(), 2);
        s
    };
    let a = run(mk());
    // Client 2's connection died mid-session. The harness's context-count
    // barrier already proved the handler tore down (memory and vGPU
    // released) — here we check the blast radius: nobody else noticed.
    for (i, c) in a.clients.iter().enumerate() {
        assert_eq!(c.dropped, i == 2, "only client 2 drops");
    }
    let survivors: Vec<_> = a.clients.iter().filter(|c| !c.dropped).collect();
    assert_eq!(survivors.len(), 5);
    assert!(survivors.iter().all(|c| c.verified && c.ops_err == 0));
    assert_eq!(a.metrics.failed_contexts, 0);

    let b = run(mk());
    assert_eq!(a.canonical(), b.canonical());
}

#[test]
fn combined_fault_timeline_replays_bit_for_bit() {
    // All three fault kinds in one scripted timeline: a transient context
    // fault during compute, a transport drop just before, and a device
    // failure just after the quiet window opens.
    let mk = || {
        let mut s = DetScenario::fault_shape(77);
        s.checkpoint_each_round = true;
        s.plan = FaultPlan::new()
            .context_fault(SimDuration::from_millis(150), DeviceId(1))
            .drop_transport(SimDuration::from_millis(1250), 5)
            .fail_device(quiet_t(), DeviceId(0));
        s
    };
    let a = run(mk());
    let b = run(mk());
    assert_eq!(a.canonical(), b.canonical(), "combined fault replay diverged");
    // Invariants that must hold whatever the exact interleaving: no
    // context lost data silently (checkpoints cover the device loss), the
    // one-shot fault produced at most one error per client, and every
    // surviving client verified.
    assert_eq!(a.metrics.failed_contexts, 0);
    assert!(a.clients[5].dropped);
    assert!(a.clients.iter().filter(|c| !c.dropped).all(|c| c.verified));
}

#[test]
fn device_failure_mid_swap_leaves_page_table_consistent() {
    // Direct manager-level probe of the swap-out pass: the device dies
    // while the writeback plan is in flight, so some entries have synced to
    // their slabs and some have not. The failed `swap_out_ctx` must surface
    // the error, never free an unsynced dirty entry, and leave every
    // page-table entry in a state `on_device_lost` can classify — no silent
    // data loss, no `allocated` entry without a device pointer. Run on a
    // one-engine device (the plan runs inline on the caller) and a
    // two-engine one (two lanes), with the fault on a timer and with the
    // fault placed between two writebacks of the one pass.
    use mtgpu::api::protocol::AllocKind;
    use mtgpu::api::HostBuf;
    use mtgpu::core::{
        Binding, CtxId, MemoryConfig, MemoryManager, Recovery, RuntimeMetrics, SwapReason, VGpuId,
    };
    use mtgpu::gpusim::{Gpu, GpuSpec, KernelArg};
    use mtgpu::simtime::Clock;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const CTX: CtxId = CtxId(1);
    // 128 MiB over the PCIe model is ~33 ms (C2050, 4 GB/s) or ~42 ms
    // (C1060, 3.2 GB/s) of real wall time per writeback at clock scale 1.0;
    // six of them keep the plan in flight for ~100 ms across two lanes and
    // ~250 ms on one — plenty of room to land a fault mid-plan.
    const DECLARED: u64 = 128 << 20;
    const PAYLOAD: usize = 2048;

    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// ~40 ms in: on two lanes after the first op per lane, on one
        /// engine before the first writeback is through.
        Timer,
        /// The moment the first writeback has left the device: the others
        /// of the same pass are still in flight.
        AfterFirstWriteback,
    }

    let probe = |spec: GpuSpec, fault: Fault| {
        let label = format!("{} engine(s), {fault:?}", spec.copy_engines);
        let m = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        m.register_ctx(CTX);
        let gpu = Gpu::new(spec, Clock::with_scale(1.0), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        let binding = Binding {
            vgpu: VGpuId { device: mtgpu::gpusim::DeviceId(0), index: 0 },
            gpu: Arc::clone(&gpu),
            gpu_ctx,
        };
        let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![0xA0 + i as u8; PAYLOAD]).collect();
        let outputs: Vec<Vec<u8>> = (0..6).map(|i| vec![0x50 + i as u8; PAYLOAD]).collect();
        let bases: Vec<_> = payloads
            .iter()
            .map(|p| {
                let v = m.malloc(CTX, DECLARED, AllocKind::Linear).unwrap();
                m.copy_h2d(CTX, v, &HostBuf::with_shadow(DECLARED, p.clone()), None).unwrap();
                v
            })
            .collect();
        assert_eq!(m.materialize(CTX, &bases, &binding).unwrap(), mtgpu::core::Materialize::Ready);
        m.mark_launched(CTX, &bases);
        // What the kernel left on the device differs from every slab, so a
        // slab says which of the two it holds.
        for (&base, output) in bases.iter().zip(&outputs) {
            let args = m.translate_args(CTX, &[KernelArg::Ptr(base)]).unwrap();
            let KernelArg::Ptr(dptr) = args[0] else { unreachable!() };
            gpu.memcpy_h2d(gpu_ctx, dptr, PAYLOAD as u64, output).unwrap();
        }
        let d2h_before = gpu.stats().snapshot().d2h_bytes;

        let killer = {
            let gpu = Arc::clone(&gpu);
            std::thread::spawn(move || {
                match fault {
                    Fault::Timer => std::thread::sleep(Duration::from_millis(40)),
                    Fault::AfterFirstWriteback => {
                        let deadline = Instant::now() + Duration::from_secs(30);
                        while gpu.stats().snapshot().d2h_bytes < d2h_before + DECLARED {
                            assert!(Instant::now() < deadline, "no writeback ever landed");
                            std::thread::yield_now();
                        }
                    }
                }
                gpu.fail();
            })
        };
        let res = m.swap_out_ctx(CTX, &binding, SwapReason::Unbind);
        killer.join().unwrap();
        assert!(res.is_err(), "{label}: mid-plan device failure must surface: {res:?}");

        // Per-entry consistency after the failed swap: an entry is still
        // allocated and dirty (its writeback never landed: the slab holds
        // the old upload), still allocated and clean (the writeback is in
        // its slab, the free never ran), or fully swapped (freed,
        // host-authoritative, marked for re-upload). Nothing in between.
        let (mut dirty, mut synced) = (0, 0);
        let expected: Vec<&Vec<u8>> = bases
            .iter()
            .enumerate()
            .map(|(i, &base)| {
                let f = m.flags_of(CTX, base).unwrap();
                if f.allocated() && f.to_swap() {
                    dirty += 1;
                    &payloads[i]
                } else {
                    synced += 1;
                    assert!(
                        f.allocated() != f.to_dev(),
                        "{label}: entry {i} neither clean on device nor host-authoritative: {f:?}"
                    );
                    &outputs[i]
                }
            })
            .collect();
        assert!(dirty > 0, "{label}: the fault cannot have let all six writebacks finish");
        if let Fault::AfterFirstWriteback = fault {
            assert!(synced > 0, "{label}: the first writeback landed before the fault");
        }
        assert_eq!(m.resident_bytes(CTX), 6 * DECLARED, "{label}: a dead device frees nothing");

        // Dirty device state was lost exactly when a dirty entry remained —
        // recovery must say so explicitly rather than resume silently.
        assert_eq!(m.on_device_lost(CTX), Recovery::LostDirtyData, "{label}");
        assert_eq!(m.resident_bytes(CTX), 0, "{label}");
        for (i, &base) in bases.iter().enumerate() {
            let f = m.flags_of(CTX, base).unwrap();
            assert!(
                !f.allocated() && f.to_dev() && !f.to_swap(),
                "{label}: entry {i} not reset: {f:?}"
            );
            // A slab serves the kernel's output if its writeback landed and
            // the last upload if not — whole, never torn.
            let buf = m.copy_d2h(CTX, base, PAYLOAD as u64, None).unwrap();
            assert_eq!(&buf.payload, expected[i], "{label}: entry {i} slab corrupted");
        }
        // The other half of "exactly when": with nothing dirty left, the
        // same call recovers.
        assert_eq!(m.on_device_lost(CTX), Recovery::Recovered, "{label}");
    };
    for fault in [Fault::Timer, Fault::AfterFirstWriteback] {
        probe(GpuSpec::tesla_c1060(), fault);
        probe(GpuSpec::tesla_c2050(), fault);
    }
}

#[test]
fn device_failure_mid_preemption_keeps_victim_classifiable_and_leases_consistent() {
    // The tenant-policy variant of the mid-swap probe: the device dies
    // while a *priority preemption* is evicting a victim's resident pages
    // (`SwapReason::Preempted` rides the same pipelined writeback plan).
    // Two invariants: (1) the failed eviction leaves every victim
    // page-table entry in a state `on_device_lost` can classify — exactly
    // like any other interrupted swap; (2) the lease book, which charges on
    // *admission* rather than residency, is bit-for-bit untouched by the
    // whole ordeal, and settling the victim afterwards frees exactly what
    // was charged.
    use mtgpu::api::protocol::AllocKind;
    use mtgpu::api::HostBuf;
    use mtgpu::core::{
        Binding, CtxId, GpuLease, LeaseBook, MemoryConfig, MemoryManager, Recovery, RuntimeMetrics,
        SwapReason, TenantPolicyConfig, VGpuId,
    };
    use mtgpu::gpusim::{Gpu, GpuSpec};
    use mtgpu::simtime::Clock;
    use std::sync::Arc;

    const VICTIM: CtxId = CtxId(1);
    const DECLARED: u64 = 128 << 20;
    const PAYLOAD: usize = 2048;

    let clock = Clock::with_scale(1.0);
    let book = LeaseBook::new(Some(TenantPolicyConfig::default().with_default_lease(GpuLease {
        mem_mb: 1024,
        max_contexts: 0,
        ttl_s: 0,
        priority: 10,
    })));
    book.register_ctx(VICTIM, clock.now());

    let m = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
    m.register_ctx(VICTIM);
    let gpu = Gpu::new(GpuSpec::tesla_c2050(), clock.clone(), 0);
    let gpu_ctx = gpu.create_context().unwrap();
    let binding = Binding {
        vgpu: VGpuId { device: mtgpu::gpusim::DeviceId(0), index: 0 },
        gpu: Arc::clone(&gpu),
        gpu_ctx,
    };
    let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![0xB0 + i as u8; PAYLOAD]).collect();
    let bases: Vec<_> = payloads
        .iter()
        .map(|p| {
            book.try_charge(VICTIM, DECLARED).expect("admission fits the lease");
            let v = m.malloc(VICTIM, DECLARED, AllocKind::Linear).unwrap();
            m.copy_h2d(VICTIM, v, &HostBuf::with_shadow(DECLARED, p.clone()), None).unwrap();
            v
        })
        .collect();
    let charged = 6 * DECLARED;
    assert_eq!(book.global_used(), charged);
    assert_eq!(m.materialize(VICTIM, &bases, &binding).unwrap(), mtgpu::core::Materialize::Ready);
    m.mark_launched(VICTIM, &bases);

    // Fault timer: fires ~40 ms into the ~100 ms preemption writeback.
    let killer = {
        let gpu = Arc::clone(&gpu);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            gpu.fail();
        })
    };
    let res = m.swap_out_ctx(VICTIM, &binding, SwapReason::Preempted);
    killer.join().unwrap();
    assert!(res.is_err(), "mid-preemption device failure must surface: {res:?}");

    // (1) Every victim entry is classifiable: still allocated, or fully
    // swapped out (host-authoritative, marked for re-upload).
    let mut still_allocated = 0;
    for &base in &bases {
        let f = m.flags_of(VICTIM, base).unwrap();
        if f.allocated() {
            still_allocated += 1;
        } else {
            assert!(f.to_dev() && !f.to_swap(), "freed entry must be host-authoritative: {f:?}");
        }
    }
    assert!(still_allocated > 0, "a 40 ms fault cannot have let all six evictions finish");

    // (2) Lease accounting never moved: eviction (failed or not) is a
    // residency event, not an admission event.
    assert_eq!(book.global_used(), charged, "failed preemption corrupted the lease book");
    assert!(book.check_active(VICTIM).is_ok(), "victim's lease must survive the fault");

    // Recovery classifies the loss; the books still balance, and settling
    // the victim frees exactly the admitted bytes.
    assert_eq!(m.on_device_lost(VICTIM), Recovery::LostDirtyData);
    assert_eq!(book.global_used(), charged);
    m.remove_ctx(VICTIM, None);
    assert_eq!(book.release_ctx(VICTIM), charged, "reap must free exactly the charge");
    assert_eq!(book.global_used(), 0);
    assert_eq!(m.swap_used(), 0, "manager leaked swap bytes on teardown");
}

#[test]
fn device_failure_between_waves_keeps_entries_classifiable_and_leases_balanced() {
    // Two upload waves of one nested working set: the first launch's
    // materialization commits the whole closure; the host then rewrites the
    // two members, so the next launch owes a second wave of uploads for
    // entries that are resident but stale. The device dies between the two.
    // Three invariants: (1) the failed wave surfaces its error and leaves
    // *every* page-table entry classifiable — its members keep `to_dev`, so
    // the slab stays authoritative; (2) the lease book, charged on
    // admission, never moves through the failed wave or recovery; (3) no
    // dirty data existed (the kernel never marked), so recovery is
    // `Recovered` and every payload survives byte-for-byte.
    use mtgpu::api::protocol::AllocKind;
    use mtgpu::api::{CudaError, HostBuf};
    use mtgpu::core::{
        Binding, CtxId, GpuLease, LeaseBook, Materialize, MemoryConfig, MemoryManager, Recovery,
        RuntimeMetrics, TenantPolicyConfig, VGpuId,
    };
    use mtgpu::gpusim::{Gpu, GpuSpec, KernelArg};
    use mtgpu::simtime::Clock;
    use std::sync::Arc;

    const CTX: CtxId = CtxId(1);
    const DECLARED: u64 = 1 << 20;
    const PAYLOAD: usize = 2048;

    let clock = Clock::with_scale(1e-6);
    let book = LeaseBook::new(Some(TenantPolicyConfig::default().with_default_lease(GpuLease {
        mem_mb: 64,
        max_contexts: 0,
        ttl_s: 0,
        priority: 10,
    })));
    book.register_ctx(CTX, clock.now());

    let m = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
    m.register_ctx(CTX);
    let gpu = Gpu::new(GpuSpec::tesla_c2050(), clock, 0);
    let gpu_ctx = gpu.create_context().unwrap();
    let binding = Binding {
        vgpu: VGpuId { device: mtgpu::gpusim::DeviceId(0), index: 0 },
        gpu: Arc::clone(&gpu),
        gpu_ctx,
    };

    // A nested structure: one direct argument pointing at two members,
    // everything uploaded to slabs first.
    let upload = |v, fill: u8| {
        let payload = vec![fill; PAYLOAD];
        m.copy_h2d(CTX, v, &HostBuf::with_shadow(DECLARED, payload.clone()), None).unwrap();
        payload
    };
    let bases: Vec<_> = (0..3u8)
        .map(|i| {
            book.try_charge(CTX, DECLARED).expect("admission fits the lease");
            let v = m.malloc(CTX, DECLARED, AllocKind::Linear).unwrap();
            upload(v, 0xC0 + i);
            v
        })
        .collect();
    let (parent, members) = (bases[0], vec![bases[1], bases[2]]);
    m.register_nested(CTX, parent, members.clone()).unwrap();
    let charged = 3 * DECLARED;
    assert_eq!(book.global_used(), charged);

    // Wave 1: the whole closure lands. Then the host rewrites the members.
    let closure = m.launch_closure(CTX, &[KernelArg::Ptr(parent)]).unwrap();
    assert_eq!(closure.len(), 3, "closure extends to the nested members");
    assert_eq!(m.materialize(CTX, &closure, &binding).unwrap(), Materialize::Ready);
    let payloads = [vec![0xC0; PAYLOAD], upload(members[0], 0xD1), upload(members[1], 0xD2)];
    let pf = m.flags_of(CTX, parent).unwrap();
    assert!(pf.allocated() && !pf.to_dev(), "wave 1 must have committed: {pf:?}");
    for &mb in &members {
        let f = m.flags_of(CTX, mb).unwrap();
        assert!(f.allocated() && f.to_dev(), "member must await wave 2: {f:?}");
    }

    // The device dies exactly between the waves.
    gpu.fail();
    let res = m.materialize(CTX, &closure, &binding);
    assert!(
        matches!(res, Err(CudaError::DeviceUnavailable)),
        "wave 2 on a dead device must surface the loss: {res:?}"
    );

    // (1) Classifiability: failed uploads keep `to_dev`, so every entry is
    // either clean-committed (the parent) or host-authoritative with a
    // pending re-upload (the members). Nothing in between, nothing dirty.
    for (i, &base) in bases.iter().enumerate() {
        let f = m.flags_of(CTX, base).unwrap();
        assert!(f.allocated(), "entry {i} lost its residency record: {f:?}");
        assert!(!f.to_swap(), "entry {i} claims unsynced device data: {f:?}");
        assert_eq!(f.to_dev(), i != 0, "entry {i} misclassified: {f:?}");
    }

    // (2) Residency events are not admission events.
    assert_eq!(book.global_used(), charged, "failed wave corrupted the lease book");
    assert!(book.check_active(CTX).is_ok(), "the lease must survive the fault");

    // (3) No entry was dirty — the kernel never marked — so recovery keeps
    // the context, and the slabs still serve the last host-written payloads.
    assert_eq!(m.on_device_lost(CTX), Recovery::Recovered);
    for (i, &base) in bases.iter().enumerate() {
        let f = m.flags_of(CTX, base).unwrap();
        assert!(!f.allocated() && f.to_dev() && !f.to_swap(), "entry {i} not reset: {f:?}");
        let buf = m.copy_d2h(CTX, base, PAYLOAD as u64, None).unwrap();
        assert_eq!(buf.payload, payloads[i], "entry {i} slab corrupted");
    }
    m.remove_ctx(CTX, None);
    assert_eq!(book.release_ctx(CTX), charged, "settling must free exactly the charge");
    assert_eq!(book.global_used(), 0);
    assert_eq!(m.swap_used(), 0, "manager leaked swap bytes on teardown");
}

#[test]
fn device_failure_mid_swap_never_trips_lock_checker() {
    // Same mid-plan fault shape as the page-table probe above, but the
    // property under test is the concurrency discipline: the failure path
    // re-enters the memory manager and the device model from two threads
    // at once (the swapping thread inside `swap_out_ctx`, the killer
    // inside `Gpu::fail`), and none of that may violate the ranked-lock
    // order. Debug builds arm the runtime rank checker, so an inversion
    // anywhere on the MM_TABLE → MM_STATE / DEVICE_STATE → ENGINE_TICKETS
    // paths (the table lock is held across the whole pass now) would
    // panic this thread; the test additionally asserts the thread's
    // held-rank stack unwinds to empty across the error return and the
    // subsequent recovery.
    use mtgpu::api::protocol::AllocKind;
    use mtgpu::api::HostBuf;
    use mtgpu::core::{
        Binding, CtxId, MemoryConfig, MemoryManager, Recovery, RuntimeMetrics, SwapReason, VGpuId,
    };
    use mtgpu::gpusim::{Gpu, GpuSpec};
    use mtgpu::simtime::sync::held_ranks;
    use mtgpu::simtime::Clock;
    use std::sync::Arc;

    const CTX: CtxId = CtxId(1);
    const DECLARED: u64 = 128 << 20;

    let m = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
    m.register_ctx(CTX);
    let gpu = Gpu::new(GpuSpec::tesla_c2050(), Clock::with_scale(1.0), 0);
    let gpu_ctx = gpu.create_context().unwrap();
    let binding = Binding {
        vgpu: VGpuId { device: mtgpu::gpusim::DeviceId(0), index: 0 },
        gpu: Arc::clone(&gpu),
        gpu_ctx,
    };
    let bases: Vec<_> = (0..6)
        .map(|i| {
            let v = m.malloc(CTX, DECLARED, AllocKind::Linear).unwrap();
            m.copy_h2d(CTX, v, &HostBuf::with_shadow(DECLARED, vec![i as u8; 64]), None).unwrap();
            v
        })
        .collect();
    assert_eq!(m.materialize(CTX, &bases, &binding).unwrap(), mtgpu::core::Materialize::Ready);
    m.mark_launched(CTX, &bases);
    assert!(held_ranks().is_empty(), "setup leaked ranks: {:?}", held_ranks());

    let killer = {
        let gpu = Arc::clone(&gpu);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(40));
            gpu.fail();
            // The killer thread's own acquisitions must unwind too.
            assert!(held_ranks().is_empty(), "Gpu::fail leaked ranks: {:?}", held_ranks());
        })
    };
    let res = m.swap_out_ctx(CTX, &binding, SwapReason::Unbind);
    killer.join().expect("killer thread must not trip the lock checker");
    assert!(res.is_err(), "mid-plan device failure must surface: {res:?}");
    assert!(held_ranks().is_empty(), "error return leaked ranks: {:?}", held_ranks());

    // Recovery takes the context's table from scratch; still ordered, still
    // unwinding cleanly.
    assert_eq!(m.on_device_lost(CTX), Recovery::LostDirtyData);
    assert!(held_ranks().is_empty(), "recovery leaked ranks: {:?}", held_ranks());
}

#[test]
fn live_migration_fault_battery_each_phase_leaves_state_classifiable() {
    // The migration tentpole's fault matrix (DESIGN.md §15): a device dies
    // at the start of each protocol phase — quiesce, transfer, rebind,
    // resume — on either end of the move. Whatever the phase, three
    // invariants must hold when `migrate_ctx` returns: (1) the context is
    // fully on its source or fully on its destination, never split;
    // (2) every page-table entry is classifiable — still allocated, or
    // host-authoritative with a pending re-upload; (3) the lease book's
    // global balance never moves (admission charges are per-context, not
    // per-device). Where a *surviving* device holds the context, the
    // application must keep computing with intact data.
    use mtgpu::api::{CudaCall, CudaClient, DeviceAddr, HostBuf, ReplyValue};
    use mtgpu::core::{
        CtxId, GpuLease, MigrationError, MigrationPhase, RuntimeConfig, TenantPolicyConfig,
    };
    use mtgpu::det::{register_det_kernels, DET_KERNEL};
    use mtgpu::gpusim::{
        DeviceId, Driver, GpuSpec, KernelArg, KernelDesc, LaunchConfig, LaunchSpec, Work,
    };
    use mtgpu::simtime::Clock;
    use std::sync::Arc;

    const DECLARED: u64 = 4 << 20;
    const PAYLOAD: usize = 2048;

    fn launch(client: &mut dyn CudaClient, buf: DeviceAddr, xor: u8) -> Result<(), String> {
        let spec = LaunchSpec {
            kernel: DET_KERNEL.to_string(),
            config: LaunchConfig::default(),
            args: vec![
                KernelArg::Ptr(buf),
                KernelArg::Scalar(xor as u64),
                KernelArg::Scalar(PAYLOAD as u64),
            ],
            work: Work::flops(1e8),
        };
        client
            .call(CudaCall::ConfigureCall { config: spec.config })
            .map_err(|e| format!("{e:?}"))?;
        match client.call(CudaCall::Launch { spec }).map_err(|e| format!("{e:?}"))? {
            ReplyValue::LaunchDone { .. } => Ok(()),
            other => Err(format!("unexpected launch reply {other:?}")),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Dies {
        Src,
        Dst,
    }
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Lands {
        Src,
        Dst,
    }
    // (phase to kill at, which end dies, where the context must land).
    let matrix = [
        (MigrationPhase::Quiesce, Dies::Src, Lands::Src),
        (MigrationPhase::Quiesce, Dies::Dst, Lands::Src),
        (MigrationPhase::Transfer, Dies::Src, Lands::Src),
        (MigrationPhase::Transfer, Dies::Dst, Lands::Src),
        (MigrationPhase::Rebind, Dies::Src, Lands::Dst),
        (MigrationPhase::Rebind, Dies::Dst, Lands::Dst),
        (MigrationPhase::Resume, Dies::Src, Lands::Dst),
    ];

    for (phase, dies, lands) in matrix {
        let tag = format!("kill {dies:?} at {}", phase.name());
        register_det_kernels();
        let clock = Clock::with_scale(1e-6);
        let driver =
            Driver::with_devices(clock.clone(), vec![GpuSpec::test_small(), GpuSpec::test_small()]);
        let cfg = RuntimeConfig::default()
            .with_vgpus(2)
            .with_background_monitor(false)
            .with_tenant_policy(
                TenantPolicyConfig::default()
                    .with_default_lease(GpuLease::unlimited().with_priority(50)),
            );
        let rt = mtgpu::core::NodeRuntime::start(Arc::clone(&driver), cfg);
        let mut client = rt.local_client();
        let module = client.register_fat_binary().unwrap();
        client.register_function(module, KernelDesc::plain(DET_KERNEL)).unwrap();
        let model = vec![0x5Au8; PAYLOAD];
        let bufs = [client.malloc(DECLARED).unwrap(), client.malloc(DECLARED).unwrap()];
        for &b in &bufs {
            client.memcpy_h2d(b, HostBuf::with_shadow(DECLARED, model.clone())).unwrap();
        }
        // Bind the context and make both buffers device-current (dirty) on
        // the source device.
        for &b in &bufs {
            launch(&mut client, b, 0x0F).unwrap();
        }
        let expected: Vec<u8> = model.iter().map(|&v| v ^ 0x0F).collect();

        let ctx =
            (1..=8).map(CtxId).find(|&c| rt.binding_of(c).is_some()).expect("a bound context");
        let src = rt.binding_of(ctx).unwrap().device;
        let dst = if src == DeviceId(0) { DeviceId(1) } else { DeviceId(0) };
        let dying =
            driver.device(if dies == Dies::Src { src } else { dst }).expect("device handle");
        let used_before = rt.policy().global_used();
        assert!(used_before > 0, "{tag}: lease book must carry real charges");

        let mut killed = false;
        let res = rt.migrate_ctx_probed(ctx, dst, &mut |p| {
            if p == phase && !killed {
                dying.fail();
                killed = true;
            }
        });
        assert!(killed, "{tag}: probe never reached phase {}", phase.name());

        // (3) Lease balance is invariant across success, abort and death.
        assert_eq!(rt.policy().global_used(), used_before, "{tag}: lease book moved");
        // (1) All-or-nothing placement.
        let bound = rt.binding_of(ctx).expect("context still bound");
        match lands {
            Lands::Src => {
                assert!(res.is_err(), "{tag}: expected an aborted migration, got {res:?}");
                assert_eq!(bound.device, src, "{tag}: aborted migration moved the binding");
            }
            Lands::Dst => {
                assert!(res.is_ok(), "{tag}: migration should have committed: {res:?}");
                assert_eq!(bound.device, dst, "{tag}: committed migration left the binding");
            }
        }
        // Pin the abort paths' error taxonomy: a dead destination discovered
        // at reservation is NoSlot; anything that dies during the copy is
        // TransferFailed.
        match (phase, dies) {
            (MigrationPhase::Quiesce, Dies::Dst) => {
                assert_eq!(res.unwrap_err(), MigrationError::NoSlot, "{tag}");
            }
            (MigrationPhase::Quiesce | MigrationPhase::Transfer, _) => {
                assert_eq!(res.unwrap_err(), MigrationError::TransferFailed, "{tag}");
            }
            _ => {}
        }
        // (2) Every page-table entry is classifiable: still allocated, or
        // host-authoritative with a pending re-upload.
        for (i, &b) in bufs.iter().enumerate() {
            let f = rt.memory().flags_of(ctx, b).unwrap();
            assert!(
                f.allocated() || (f.to_dev() && !f.to_swap()),
                "{tag}: entry {i} unclassifiable: {f:?}"
            );
        }

        // Let the monitor's recovery pass classify the dead device's
        // contexts; the invariants must survive it too.
        rt.monitor_tick();
        assert_eq!(rt.policy().global_used(), used_before, "{tag}: recovery moved the book");
        for (i, &b) in bufs.iter().enumerate() {
            let f = rt.memory().flags_of(ctx, b).unwrap();
            assert!(
                f.allocated() || (f.to_dev() && !f.to_swap()),
                "{tag}: entry {i} unclassifiable after recovery: {f:?}"
            );
        }

        // Where the context landed on a *surviving* device, the application
        // must keep computing and the data must be intact end to end.
        let survived = matches!((lands, dies), (Lands::Src, Dies::Dst) | (Lands::Dst, Dies::Src));
        if survived {
            launch(&mut client, bufs[0], 0xF0).unwrap_or_else(|e| {
                panic!("{tag}: post-migration launch failed: {e}");
            });
            let got = client.memcpy_d2h(bufs[0], DECLARED).unwrap();
            let want: Vec<u8> = expected.iter().map(|&v| v ^ 0xF0).collect();
            assert_eq!(got.payload, want, "{tag}: payload corrupted across migration");
            let got1 = client.memcpy_d2h(bufs[1], DECLARED).unwrap();
            assert_eq!(got1.payload, expected, "{tag}: untouched buffer corrupted");
            client.exit().unwrap();
        } else {
            // The context's device is gone and its kernel results were
            // dirty: the loss must be explicit, never a silent wrong answer.
            let r = launch(&mut client, bufs[0], 0xF0);
            assert!(r.is_err(), "{tag}: launch on a lost context must fail explicitly");
        }
        rt.shutdown();
    }
}
