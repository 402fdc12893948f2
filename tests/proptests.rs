//! Property-based tests over the core data structures and invariants.

use mtgpu::core::memory::{
    Flags, MemoryConfig, MemoryManager, PageTable, PageTableEntry, SwapSlab,
};
use mtgpu::core::{Binding, CtxId, RuntimeMetrics, SwapReason, VGpuId};
use mtgpu::gpusim::alloc::{BlockAllocator, ALIGN};
use mtgpu::gpusim::{DeviceAddr, DeviceId, Gpu, GpuSpec};
use mtgpu::simtime::{Clock, SimDuration};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Figure 4 state machine
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum MemEvent {
    CopyHd,
    Launch,
    CopyDh,
    Swap,
}

fn event_strategy() -> impl Strategy<Value = MemEvent> {
    prop_oneof![
        Just(MemEvent::CopyHd),
        Just(MemEvent::Launch),
        Just(MemEvent::CopyDh),
        Just(MemEvent::Swap),
    ]
}

fn apply(f: Flags, e: MemEvent) -> Flags {
    match e {
        MemEvent::CopyHd => f.on_copy_hd(),
        MemEvent::Launch => f.on_launch(),
        MemEvent::CopyDh => f.on_copy_dh(),
        MemEvent::Swap => f.on_swap(),
    }
}

proptest! {
    /// Any event sequence keeps the flags inside Figure 4's five states.
    #[test]
    fn fig4_closed_over_event_sequences(events in prop::collection::vec(event_strategy(), 0..64)) {
        let mut f = Flags::INITIAL;
        for e in events {
            f = apply(f, e);
            prop_assert!(Flags::REACHABLE.contains(&f), "escaped Figure 4: {f:?}");
        }
    }

    /// The forbidden state toCopy2Dev ∧ toCopy2Swap (data authoritative in
    /// two places at once) is unreachable.
    #[test]
    fn fig4_no_double_authority(events in prop::collection::vec(event_strategy(), 0..128)) {
        let mut f = Flags::INITIAL;
        for e in events {
            f = apply(f, e);
            prop_assert!(!(f.to_dev() && f.to_swap()));
            // And an unallocated entry can never hold device-only data.
            prop_assert!(!f.to_swap() || f.allocated());
        }
    }

    /// A swap always leaves the entry host-authoritative and unallocated —
    /// the invariant the fault-tolerance path relies on ("unbound ⇒ fully
    /// host-resident").
    #[test]
    fn fig4_swap_always_host_authoritative(events in prop::collection::vec(event_strategy(), 0..64)) {
        let mut f = Flags::INITIAL;
        for e in events {
            f = apply(f, e);
        }
        let swapped = f.on_swap();
        prop_assert!(!swapped.allocated());
        prop_assert!(!swapped.to_swap());
    }
}

// ---------------------------------------------------------------------
// Device-memory allocator
// ---------------------------------------------------------------------

proptest! {
    /// Random alloc/free interleavings never produce overlapping live
    /// allocations, never lose capacity, and always coalesce back to a
    /// single block once everything is freed.
    #[test]
    fn allocator_never_overlaps_and_conserves(
        ops in prop::collection::vec((any::<bool>(), 1u64..100_000), 1..200)
    ) {
        let capacity = 1u64 << 22;
        let mut a = BlockAllocator::new(capacity);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (is_alloc, size) in ops {
            if is_alloc || live.is_empty() {
                if let Ok(base) = a.alloc(size) {
                    let len = (size + ALIGN - 1) & !(ALIGN - 1);
                    for &(b, l) in &live {
                        prop_assert!(base + len <= b || b + l <= base,
                            "overlap: new [{base},{len}) with [{b},{l})");
                    }
                    prop_assert_eq!(base % ALIGN, 0);
                    prop_assert!(base + len <= capacity);
                    live.push((base, len));
                }
            } else {
                let (base, len) = live.swap_remove(live.len() / 2);
                prop_assert!(a.free(base, len).is_ok());
                prop_assert!(a.free(base, len).is_err(), "double free accepted");
            }
            let used: u64 = live.iter().map(|&(_, l)| l).sum();
            prop_assert_eq!(a.used_bytes(), used);
        }
        for (base, len) in live {
            a.free(base, len).unwrap();
        }
        prop_assert_eq!(a.largest_free_block(), capacity);
    }
}

// ---------------------------------------------------------------------
// Page table resolution
// ---------------------------------------------------------------------

proptest! {
    /// Interior-address resolution agrees with a brute-force scan.
    #[test]
    fn page_table_resolution_matches_bruteforce(
        sizes in prop::collection::vec(1u64..10_000, 1..40),
        probes in prop::collection::vec(0u64..500_000, 0..64),
    ) {
        let mut pt = PageTable::new();
        let mut ranges = Vec::new();
        let mut base = 0x1000u64;
        for size in sizes {
            pt.insert(PageTableEntry {
                vaddr: DeviceAddr(base),
                size,
                device_ptr: None,
                flags: Flags::INITIAL,
                kind: mtgpu::api::protocol::AllocKind::Linear,
                slab: SwapSlab::new(size, 1 << 16),
                nested_members: Vec::new(),
                nested_parent: None,
                last_touch: TouchStamp::default(),
            });
            ranges.push((base, size));
            base += size + (base % 97); // irregular gaps
        }
        for probe in probes {
            let addr = 0x1000 + probe;
            let expected = ranges
                .iter()
                .find(|&&(b, s)| addr >= b && addr < b + s)
                .map(|&(b, _)| (DeviceAddr(b), addr - b));
            prop_assert_eq!(pt.resolve(DeviceAddr(addr)), expected);
        }
    }
}

// ---------------------------------------------------------------------
// Memory manager bookkeeping
// ---------------------------------------------------------------------

proptest! {
    /// Swap-area accounting is exact across random malloc/free sequences,
    /// and every byte is returned when the context is removed.
    #[test]
    fn mm_swap_accounting_exact(sizes in prop::collection::vec(1u64..1_000_000, 1..60)) {
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        let ctx = CtxId(1);
        mm.register_ctx(ctx);
        let mut total = 0u64;
        let mut ptrs = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let v = mm.malloc(ctx, *size, mtgpu::api::protocol::AllocKind::Linear).unwrap();
            total += size;
            ptrs.push((v, *size));
            prop_assert_eq!(mm.swap_used(), total);
            if i % 3 == 2 {
                let (v, s) = ptrs.swap_remove(ptrs.len() / 2);
                mm.free(ctx, v, None).unwrap();
                total -= s;
                prop_assert_eq!(mm.swap_used(), total);
            }
        }
        prop_assert_eq!(mm.mem_usage(ctx), total);
        mm.remove_ctx(ctx, None);
        prop_assert_eq!(mm.swap_used(), 0);
    }

    /// Data written through copy_h2d at arbitrary offsets reads back
    /// identically through copy_d2h (the swap tier is a faithful store).
    #[test]
    fn mm_copy_roundtrip(
        writes in prop::collection::vec((0u64..3_000, prop::collection::vec(any::<u8>(), 1..200)), 1..20)
    ) {
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        let ctx = CtxId(1);
        mm.register_ctx(ctx);
        let size = 4096u64;
        let v = mm.malloc(ctx, size, mtgpu::api::protocol::AllocKind::Linear).unwrap();
        let mut reference = vec![0u8; size as usize];
        for (offset, data) in &writes {
            let offset = offset % (size - data.len() as u64);
            let buf = mtgpu::api::HostBuf::from_slice(data);
            mm.copy_h2d(ctx, DeviceAddr(v.0 + offset), &buf, None).unwrap();
            reference[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
        let back = mm.copy_d2h(ctx, v, size, None).unwrap();
        // Shadow semantics: the read returns the lazily materialized
        // prefix; bytes beyond it are implicitly zero.
        let n = back.payload.len();
        prop_assert_eq!(&back.payload[..], &reference[..n]);
        prop_assert!(reference[n..].iter().all(|&b| b == 0),
            "unmaterialized region must be untouched");
    }
}

// ---------------------------------------------------------------------
// Seeded regressions: Figure 4 under concurrent swap + free
// ---------------------------------------------------------------------

/// Pinned seed corpus for the Figure 4 PTE state machine. These seeds are
/// kept in-repo so the exact event sequences that once probed tricky
/// corners (long runs ending in Swap, CopyDh immediately after Launch,
/// alternating Swap/CopyHd churn) are replayed on every CI run; each is
/// also replayable through the proptest blocks above with
/// `MTGPU_PROPTEST_SEED=<seed>`.
const FIG4_REGRESSION_SEEDS: &[u64] = &[
    0x0000_0000_0000_002A,
    0x0000_0000_0000_0F17,
    0xF164_0000_5EED_0001,
    0xABAD_1DEA_0000_0004,
    0x00DE_C0DE_0000_0009,
];

/// Replays the pinned corpus through the *same generator* the proptests
/// use and asserts the full set of Figure 4 invariants on every prefix.
#[test]
fn fig4_seeded_event_sequences_replay() {
    for &seed in FIG4_REGRESSION_SEEDS {
        let mut rng = TestRng::from_seed(seed);
        let events = Strategy::generate(&prop::collection::vec(event_strategy(), 0..256), &mut rng);
        let mut f = Flags::INITIAL;
        for e in events {
            f = apply(f, e);
            assert!(Flags::REACHABLE.contains(&f), "seed {seed:#x}: escaped Figure 4: {f:?}");
            assert!(!(f.to_dev() && f.to_swap()), "seed {seed:#x}: double authority");
            assert!(!f.to_swap() || f.allocated(), "seed {seed:#x}: device data unallocated");
        }
        let swapped = f.on_swap();
        assert!(!swapped.allocated() && !swapped.to_swap(), "seed {seed:#x}: swap not host-auth");
    }
}

/// Two contexts share one physical device: thread A continually
/// materializes, launches and swaps out its context while thread B
/// materializes and frees buffers of *another* context on the same
/// allocator. (A same-context race is impossible in production — the
/// per-context service lock serializes it — so the cross-context device
/// allocator and swap-tier accounting is the surface that must hold up.)
/// Whatever the interleaving: A's payloads survive the swap round-trips
/// byte-for-byte, swap accounting stays exact, and device memory returns
/// to its baseline.
#[test]
fn fig4_concurrent_swap_free_regressions() {
    for &seed in FIG4_REGRESSION_SEEDS {
        let mut rng = TestRng::from_seed(seed);
        let clock = Clock::with_scale(1e-8);
        let gpu = Gpu::new(GpuSpec::test_small(), clock, 0);
        let mm = Arc::new(MemoryManager::new(
            MemoryConfig::default(),
            Arc::new(RuntimeMetrics::default()),
        ));
        let (ctx_a, ctx_b) = (CtxId(1), CtxId(2));
        mm.register_ctx(ctx_a);
        mm.register_ctx(ctx_b);
        let binding = |index: u32| Binding {
            vgpu: VGpuId { device: DeviceId(0), index },
            gpu: gpu.clone(),
            gpu_ctx: gpu.create_context().unwrap(),
        };
        let (binding_a, binding_b) = (binding(0), binding(1));
        // Captured after both device contexts exist: the figure everything
        // must return to once the dust settles.
        let baseline = gpu.mem_available();

        let mut seed_buf = |ctx: CtxId, n: usize| {
            (0..n)
                .map(|_| {
                    let size = Strategy::generate(&(4096u64..32_768), &mut rng);
                    let fill = Strategy::generate(&any::<u8>(), &mut rng);
                    let v = mm.malloc(ctx, size, mtgpu::api::protocol::AllocKind::Linear).unwrap();
                    let data = vec![fill; size as usize];
                    mm.copy_h2d(ctx, v, &mtgpu::api::HostBuf::from_slice(&data), None).unwrap();
                    (v, data)
                })
                .collect::<Vec<_>>()
        };
        let bufs_a = seed_buf(ctx_a, 6);
        let bufs_b = seed_buf(ctx_b, 8);
        let total_a: u64 = bufs_a.iter().map(|(_, d)| d.len() as u64).sum();
        let bases_a: Vec<DeviceAddr> = bufs_a.iter().map(|&(v, _)| v).collect();

        std::thread::scope(|s| {
            let (mm_a, mm_b) = (mm.clone(), mm.clone());
            let (ba, bb) = (&binding_a, &binding_b);
            let bases = &bases_a;
            s.spawn(move || {
                for _ in 0..8 {
                    let m = mm_a.materialize(ctx_a, bases, ba).unwrap();
                    assert!(matches!(m, mtgpu::core::Materialize::Ready), "A fits: {m:?}");
                    mm_a.mark_launched(ctx_a, bases);
                    mm_a.swap_out_ctx(ctx_a, ba, SwapReason::Unbind).unwrap();
                }
            });
            let bufs = &bufs_b;
            s.spawn(move || {
                for (i, &(v, _)) in bufs.iter().enumerate() {
                    let m = mm_b.materialize(ctx_b, &[v], bb).unwrap();
                    assert!(matches!(m, mtgpu::core::Materialize::Ready), "B fits: {m:?}");
                    mm_b.mark_launched(ctx_b, &[v]);
                    if i % 2 == 0 {
                        mm_b.free(ctx_b, v, Some(bb)).unwrap();
                    }
                }
            });
        });

        // B's odd-indexed buffers are still live (and resident).
        for (i, &(v, _)) in bufs_b.iter().enumerate() {
            if i % 2 != 0 {
                mm.free(ctx_b, v, Some(&binding_b)).unwrap();
            }
        }
        // A ended swapped out; B freed everything: device memory restored.
        assert_eq!(gpu.mem_available(), baseline, "seed {seed:#x}: device bytes leaked");
        // Swap tier holds exactly A's live allocations.
        assert_eq!(mm.swap_used(), total_a, "seed {seed:#x}: swap accounting drifted");
        assert_eq!(mm.mem_usage(ctx_a), total_a);
        // Payload correctness through 8 materialize/launch/swap cycles
        // raced against the peer's frees.
        for &(v, ref data) in &bufs_a {
            let back = mm.copy_d2h(ctx_a, v, data.len() as u64, None).unwrap();
            assert_eq!(back.payload.len(), data.len(), "seed {seed:#x}: partial payload");
            assert_eq!(&back.payload[..], &data[..], "seed {seed:#x}: payload corrupted");
        }
        mm.remove_ctx(ctx_a, Some(&binding_a));
        mm.remove_ctx(ctx_b, Some(&binding_b));
        assert_eq!(mm.swap_used(), 0, "seed {seed:#x}: swap bytes leaked on teardown");
    }
}

// ---------------------------------------------------------------------
// Tenant lease book: admission under random interleavings
// ---------------------------------------------------------------------

use mtgpu::core::{GpuLease, LeaseBook, TenantKey, TenantPolicyConfig};

#[derive(Debug, Clone, Copy)]
enum LeaseOp {
    /// Register context slot `n` as a fresh anonymous tenant.
    Register(u8),
    /// Adopt context slot `.0` into application `.1`.
    Adopt(u8, u8),
    /// Charge an allocation of `.1` bytes to context slot `.0`.
    Charge(u8, u64),
    /// Credit `.1` bytes back to context slot `.0` (a free).
    Uncharge(u8, u64),
    /// Tear the context down (connection closed).
    Release(u8),
    /// Advance the virtual clock by `.0` milliseconds.
    Advance(u16),
    /// Run the monitor's expiry scan and reap whatever it condemns.
    Tick,
}

fn lease_op_strategy() -> impl Strategy<Value = LeaseOp> {
    prop_oneof![
        (0u8..6).prop_map(LeaseOp::Register),
        (0u8..6, 0u8..3).prop_map(|(c, a)| LeaseOp::Adopt(c, a)),
        (0u8..6, 1u64..2 * 1024 * 1024).prop_map(|(c, b)| LeaseOp::Charge(c, b)),
        (0u8..6, 1u64..2 * 1024 * 1024).prop_map(|(c, b)| LeaseOp::Uncharge(c, b)),
        (0u8..6).prop_map(LeaseOp::Release),
        (1u16..700).prop_map(LeaseOp::Advance),
        Just(LeaseOp::Tick),
    ]
}

proptest! {
    /// Random interleavings of lease grants, adoptions, allocations, frees,
    /// TTL expiries and reaping: no tenant ever exceeds its memory lease or
    /// context cap, the node never exceeds its global admission cap, the
    /// book's global counter never drifts from an independent model of the
    /// accepted charges, and releasing (or reaping) a context frees exactly
    /// the bytes that were charged to it.
    #[test]
    fn lease_book_interleavings_never_exceed_caps(
        ops in prop::collection::vec(lease_op_strategy(), 1..120)
    ) {
        const MB: u64 = 1 << 20;
        let cfg = TenantPolicyConfig::default()
            .with_default_lease(GpuLease { mem_mb: 2, max_contexts: 0, ttl_s: 0, priority: 50 })
            .with_tenant_lease(0, GpuLease { mem_mb: 4, max_contexts: 3, ttl_s: 1, priority: 10 })
            .with_tenant_lease(1, GpuLease { mem_mb: 3, max_contexts: 2, ttl_s: 0, priority: 200 })
            .with_global_mem_bytes(8 * MB);
        let clock = Clock::virtual_clock();
        let book = LeaseBook::new(Some(cfg.clone()));
        // Independent model: bytes the book *accepted* per live context.
        let mut charged: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut registered: std::collections::BTreeSet<u64> = Default::default();
        for op in ops {
            match op {
                LeaseOp::Register(slot) => {
                    let id = slot as u64;
                    if registered.insert(id) {
                        book.register_ctx(CtxId(id), clock.now());
                        charged.insert(id, 0);
                    }
                }
                LeaseOp::Adopt(slot, app) => {
                    // Moving a context between tenants moves its charges
                    // with it; acceptance or rejection leaves the per-ctx
                    // model untouched either way.
                    if registered.contains(&(slot as u64)) {
                        let _ = book.adopt(CtxId(slot as u64), app as u64, clock.now());
                    }
                }
                LeaseOp::Charge(slot, bytes) => {
                    let id = slot as u64;
                    if registered.contains(&id) && book.try_charge(CtxId(id), bytes).is_ok() {
                        *charged.get_mut(&id).unwrap() += bytes;
                    }
                }
                LeaseOp::Uncharge(slot, bytes) => {
                    let id = slot as u64;
                    if registered.contains(&id) {
                        book.uncharge(CtxId(id), bytes);
                        let c = charged.get_mut(&id).unwrap();
                        *c -= bytes.min(*c);
                    }
                }
                LeaseOp::Release(slot) => {
                    let id = slot as u64;
                    if registered.remove(&id) {
                        let freed = book.release_ctx(CtxId(id));
                        prop_assert_eq!(freed, charged.remove(&id).unwrap(),
                            "release must free exactly the charge");
                    }
                }
                LeaseOp::Advance(ms) => clock.advance(SimDuration::from_millis(ms as u64)),
                LeaseOp::Tick => {
                    let (_, doomed) = book.tick(clock.now());
                    for ctx in doomed {
                        // The monitor's reap settles each doomed context.
                        let freed = book.release_ctx(ctx);
                        prop_assert_eq!(freed, charged.remove(&ctx.0).unwrap(),
                            "reaping must free exactly the charge");
                        registered.remove(&ctx.0);
                    }
                }
            }
            // Invariants, re-checked after every single step.
            let model_total: u64 = charged.values().sum();
            prop_assert_eq!(book.global_used(), model_total, "book drifted from the model");
            prop_assert!(model_total <= 8 * MB, "global admission cap exceeded");
            for app in 0..3u64 {
                if let Some(u) = book.app_usage(app) {
                    let lease = cfg.lease_for(app);
                    prop_assert!(u.used_bytes <= lease.mem_bytes(),
                        "app {} exceeded its lease: {} bytes", app, u.used_bytes);
                    if lease.max_contexts > 0 {
                        prop_assert!(u.contexts as u32 <= lease.max_contexts,
                            "app {} exceeded its context cap: {}", app, u.contexts);
                    }
                }
            }
            for &id in &registered {
                if let Some(u) = book.usage(TenantKey::Anon(id)) {
                    prop_assert!(u.used_bytes <= cfg.default_lease.mem_bytes(),
                        "anonymous tenant {} exceeded the default lease", id);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Multiplexed wire framing (DESIGN.md §12)
// ---------------------------------------------------------------------

use mtgpu::api::protocol::{CudaCall, MuxFrame, ReplyValue};
use mtgpu::api::transport::{encode_frame, FrameBuf};

fn mux_call_strategy() -> impl Strategy<Value = CudaCall> {
    prop_oneof![
        Just(CudaCall::GetDeviceCount),
        Just(CudaCall::Synchronize),
        (0u32..8).prop_map(|device| CudaCall::SetDevice { device }),
        (1u64..100_000).prop_map(|size| CudaCall::Malloc {
            size,
            kind: mtgpu::api::protocol::AllocKind::Linear
        }),
        // Bulk payloads stress length-prefix handling across chunk cuts.
        prop::collection::vec(any::<u8>(), 0..96).prop_map(|bytes| CudaCall::MemcpyH2D {
            dst: DeviceAddr(0x1000),
            buf: mtgpu::api::HostBuf::from_slice(&bytes),
        }),
    ]
}

fn mux_frame_strategy() -> impl Strategy<Value = MuxFrame> {
    prop_oneof![
        (0u64..16, any::<u64>(), mux_call_strategy())
            .prop_map(|(chan, id, call)| MuxFrame::Request { chan, id, call }),
        (any::<u64>(), 0u32..1000)
            .prop_map(|(id, n)| MuxFrame::Response { id, reply: Ok(ReplyValue::DeviceCount(n)) }),
    ]
}

/// Encodes `frames` into one byte stream and replays it through a
/// [`FrameBuf`] cut at the given chunk sizes (cycled); returns the decoded
/// sequence. This is exactly what the reactor and the client reader see
/// when the kernel splits writes and coalesces reads arbitrarily.
fn replay_chunked(frames: &[MuxFrame], cuts: &[usize]) -> Vec<MuxFrame> {
    let mut wire = Vec::new();
    for f in frames {
        encode_frame(f, &mut wire).expect("encodes");
    }
    let mut buf = FrameBuf::new();
    let mut decoded = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < wire.len() {
        let take = if cuts.is_empty() {
            wire.len() - pos
        } else {
            cuts[i % cuts.len()].min(wire.len() - pos)
        };
        i += 1;
        buf.push(&wire[pos..pos + take]);
        pos += take;
        while let Some(f) = buf.next_frame::<MuxFrame>().expect("stream stays well-formed") {
            decoded.push(f);
        }
    }
    assert!(!buf.has_partial(), "no bytes may remain once the stream is consumed");
    decoded
}

proptest! {
    /// Any multiplexed frame sequence survives any split-write /
    /// coalesced-read chunking of the byte stream bit-for-bit, in order.
    #[test]
    fn mux_framing_roundtrips_any_chunking(
        frames in prop::collection::vec(mux_frame_strategy(), 1..24),
        cuts in prop::collection::vec(1usize..96, 0..48),
    ) {
        prop_assert_eq!(replay_chunked(&frames, &cuts), frames);
    }

    /// Responses demux by request ID alone: however completion order is
    /// permuted relative to issue order, pairing decoded responses back to
    /// their requests by ID reconstructs the original assignment exactly.
    #[test]
    fn mux_demux_handles_out_of_order_completion(
        ids in prop::collection::vec(any::<u64>(), 1..32),
        swaps in prop::collection::vec((any::<u16>(), any::<u16>()), 0..64),
        cuts in prop::collection::vec(1usize..64, 0..32),
    ) {
        // Distinct in-flight IDs (the reactor sheds duplicates; the client
        // allocates from a counter, so distinctness is the real contract).
        let mut ids = ids;
        ids.sort_unstable();
        ids.dedup();
        // Out-of-order completion: permute the response stream.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        for &(a, b) in &swaps {
            let n = order.len();
            order.swap(a as usize % n, b as usize % n);
        }
        let responses: Vec<MuxFrame> = order
            .iter()
            .map(|&i| MuxFrame::Response {
                id: ids[i],
                // Payload derived from the ID: receiving the wrong payload
                // for an ID would be detected.
                reply: Ok(ReplyValue::Ptr(DeviceAddr(ids[i] ^ 0xDEAD))),
            })
            .collect();
        let decoded = replay_chunked(&responses, &cuts);
        prop_assert_eq!(decoded.len(), ids.len());
        let mut seen = std::collections::BTreeSet::new();
        for f in decoded {
            let MuxFrame::Response { id, reply } = f else {
                panic!("request frame in response stream");
            };
            prop_assert!(seen.insert(id), "duplicate response id {id}");
            prop_assert_eq!(reply, Ok(ReplyValue::Ptr(DeviceAddr(id ^ 0xDEAD))));
        }
        prop_assert_eq!(seen.into_iter().collect::<Vec<_>>(), ids);
    }
}

/// Pinned seed corpus for the multiplexed framing decoder. Replayed through
/// the same generators as the proptests above on every CI run; each seed is
/// also replayable through the proptest blocks with
/// `MTGPU_PROPTEST_SEED=<seed>`. The corpus pins the corners that need
/// exact recurrence: 1-byte cuts across a length prefix, a cut landing
/// exactly on a frame boundary, and bulk MemcpyH2D payloads spanning many
/// chunks.
const MUX_REGRESSION_SEEDS: &[u64] = &[
    0x0000_0000_0000_002A,
    0x0000_0000_0000_0F17,
    0x5EED_0000_0000_0001,
    0xABAD_1DEA_0000_0007,
    0x00DE_C0DE_0000_000C,
];

/// Replays the pinned corpus through the same strategies the proptests use,
/// plus the two adversarial fixed chunkings (1-byte drip and whole-stream
/// coalesce) that random cuts only occasionally produce.
#[test]
fn mux_framing_seeded_chunkings_replay() {
    for &seed in MUX_REGRESSION_SEEDS {
        let mut rng = TestRng::from_seed(seed);
        let frames =
            Strategy::generate(&prop::collection::vec(mux_frame_strategy(), 1..24), &mut rng);
        let cuts = Strategy::generate(&prop::collection::vec(1usize..96, 0..48), &mut rng);
        assert_eq!(replay_chunked(&frames, &cuts), frames, "seed {seed:#x}: random cuts");
        assert_eq!(replay_chunked(&frames, &[1]), frames, "seed {seed:#x}: 1-byte drip");
        assert_eq!(replay_chunked(&frames, &[]), frames, "seed {seed:#x}: coalesced");
        assert_eq!(
            replay_chunked(&frames, &[3, 1, 7, 2, 5]),
            frames,
            "seed {seed:#x}: irregular cuts"
        );
    }
}

// ---------------------------------------------------------------------
// Intra-application victim order vs an independent reference model
// ---------------------------------------------------------------------

use mtgpu::core::memory::eviction::{self, EntryCandidate, TouchStamp};
use mtgpu::core::Materialize;

fn entry_candidates_strategy() -> impl Strategy<Value = Vec<EntryCandidate>> {
    // Unique vaddrs (as in a real page table); a common size and a small
    // stamp range so that score collisions exercise the vaddr tie-break.
    let size = prop_oneof![Just(4096u64), 1u64..1_000_000];
    prop::collection::vec((size, any::<bool>(), 0u64..40, 0u64..40), 1..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (size, dirty, nanos, seq))| EntryCandidate {
                vaddr: 0x1000 + i as u64 * 0x100,
                size,
                dirty,
                last_touch: TouchStamp { nanos, seq },
            })
            .collect()
    })
}

/// Independent reference for the victim order: repeated linear scan for the
/// best remaining candidate, comparing `bytes × touches since ÷ cost`
/// (dirty costs two, rounded down) field by field, ties to the smaller
/// vaddr. Deliberately not a sort-by-key over a shared scoring function, so
/// it cannot share a bug with the implementation's comparator.
fn victim_order_reference(mut pool: Vec<EntryCandidate>, now_seq: u64) -> Vec<u64> {
    let worth = |c: &EntryCandidate| {
        let touches_since = now_seq.saturating_sub(c.last_touch.seq);
        let reclaimed = u128::from(c.size) * (u128::from(touches_since) + 1);
        if c.dirty {
            reclaimed >> 1
        } else {
            reclaimed
        }
    };
    let mut out = Vec::with_capacity(pool.len());
    while !pool.is_empty() {
        let mut best = 0;
        for i in 1..pool.len() {
            let (a, b) = (worth(&pool[i]), worth(&pool[best]));
            if a > b || (a == b && pool[i].vaddr < pool[best].vaddr) {
                best = i;
            }
        }
        out.push(pool.swap_remove(best).vaddr);
    }
    out
}

proptest! {
    /// The victim order equals the independent best-first model for any
    /// candidate set, including score collisions and stamps from the
    /// future of `now_seq`.
    #[test]
    fn eviction_order_matches_reference_model(
        cands in entry_candidates_strategy(),
        now_seq in 0u64..60,
    ) {
        let expected = victim_order_reference(cands.clone(), now_seq);
        let mut got = cands;
        eviction::order_entry_victims(&mut got, now_seq);
        prop_assert_eq!(got.iter().map(|c| c.vaddr).collect::<Vec<_>>(), expected);
    }
}

proptest! {
    // Each case builds a simulated GPU; 5! touch orders × 2^5 dirty sets
    // only need a modest case count for good coverage.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// End-to-end through the manager: for *any* touch order and any set of
    /// kernel-written buffers, memory pressure evicts exactly the buffer
    /// the independent model ranks first, everything else stays resident,
    /// and every buffer — the evicted one included, written back if it was
    /// dirty — still reads back what was uploaded.
    #[test]
    fn eviction_order_evicts_reference_victim(
        order_keys in prop::collection::vec(any::<u64>(), 5),
        written in prop::collection::vec(any::<bool>(), 5),
    ) {
        // Random keys define a permutation of the five buffers (ties break
        // by index, so any key vector is a valid order).
        let mut order: Vec<usize> = (0..5).collect();
        order.sort_by_key(|&i| (order_keys[i], i));
        let clock = Clock::with_scale(1e-8);
        let gpu = Gpu::new(GpuSpec::test_small(), clock, 0);
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
        let ctx = CtxId(1);
        mm.register_ctx(ctx);
        let binding = Binding {
            vgpu: VGpuId { device: DeviceId(0), index: 0 },
            gpu: gpu.clone(),
            gpu_ctx: gpu.create_context().unwrap(),
        };
        // Five buffers fill the device exactly. Each is uploaded, then
        // launched alone in the generated order; a launch that writes its
        // buffer leaves it dirty on the device. The model tracks the same
        // history: one touch per malloc, upload, materialize and launch.
        let size = gpu.mem_available() / 5;
        let payload = |i: usize| vec![0xA0 + i as u8; 256];
        let mut touches = 0u64;
        let mut model: Vec<EntryCandidate> = Vec::new();
        let bufs: Vec<DeviceAddr> = (0..5)
            .map(|i| {
                let v = mm.malloc(ctx, size, mtgpu::api::protocol::AllocKind::Linear).unwrap();
                let buf = mtgpu::api::HostBuf::with_shadow(size, payload(i));
                mm.copy_h2d(ctx, v, &buf, None).unwrap();
                touches += 2;
                model.push(EntryCandidate {
                    vaddr: v.0,
                    size,
                    dirty: false,
                    last_touch: TouchStamp { nanos: 0, seq: touches },
                });
                v
            })
            .collect();
        for &i in &order {
            let m = mm.materialize(ctx, &[bufs[i]], &binding).unwrap();
            prop_assert!(matches!(m, Materialize::Ready));
            touches += 1;
            if written[i] {
                mm.mark_launched(ctx, &[bufs[i]]);
                touches += 1;
                model[i].dirty = true;
            }
            model[i].last_touch.seq = touches;
        }
        // A sixth buffer (one more touch: its malloc) fits only by evicting
        // one victim; the reference model says which.
        let newcomer = mm.malloc(ctx, size, mtgpu::api::protocol::AllocKind::Linear).unwrap();
        touches += 1;
        let victim = victim_order_reference(model, touches)[0];
        let m = mm.materialize(ctx, &[newcomer], &binding).unwrap();
        prop_assert!(matches!(m, Materialize::Ready));
        for (i, &v) in bufs.iter().enumerate() {
            let resident = mm.flags_of(ctx, v).unwrap().allocated();
            prop_assert_eq!(resident, v.0 != victim,
                "touch order {:?}, written {:?}: buffer {} wrong residency", order, written, i);
            let back = mm.copy_d2h(ctx, v, 256, Some(&binding)).unwrap();
            prop_assert_eq!(back.payload, payload(i), "buffer {} lost its data", i);
        }
        prop_assert!(mm.flags_of(ctx, newcomer).unwrap().allocated());
    }
}

// ---------------------------------------------------------------------
// SimDuration arithmetic
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn simduration_add_sub_roundtrip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
    }

    #[test]
    fn simduration_ordering_matches_nanos(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
    }
}

// ---------------------------------------------------------------------
// Dispatcher under concurrent churn
// ---------------------------------------------------------------------

proptest! {
    // Each case spawns real threads; a modest case count keeps the suite
    // fast while the seed range still varies arrival interleavings.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded thread fuzz of acquire/release/add_device/remove_device on
    /// the dispatcher: per-device capacity is never exceeded, no
    /// waiter is stranded (every acquire completes well inside its
    /// timeout), and the manager drains to empty.
    #[test]
    fn dispatcher_concurrent_churn(
        seed in 1u64..1_000_000,
        clients in 2usize..10,
        vgpus in 1u32..4,
        cycles in 2usize..7,
    ) {
        use mtgpu::core::{AppContext, BindingManager, SchedulerPolicy};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        let clock = Clock::with_scale(1e-7);
        let metrics = Arc::new(RuntimeMetrics::default());
        let bm = Arc::new(BindingManager::new_seeded(
            SchedulerPolicy::FcfsRoundRobin,
            Arc::clone(&metrics),
            seed,
        ));
        for d in 0..2u32 {
            bm.add_device(DeviceId(d), Gpu::new(GpuSpec::test_small(), clock.clone(), d), vgpus)
                .unwrap();
        }

        let done = Arc::new(AtomicBool::new(false));
        // Capacity checker: samples consistent per-device views during the
        // churn. A violation panics here and fails the case via join().
        let checker = {
            let bm = Arc::clone(&bm);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    for v in bm.device_views() {
                        assert!(
                            v.bound.len() <= v.total_vgpus,
                            "device {:?} over capacity: {} bound of {}",
                            v.id, v.bound.len(), v.total_vgpus
                        );
                        assert!(
                            v.bound.len() + v.free_vgpus <= v.total_vgpus,
                            "device {:?} slot accounting broken", v.id
                        );
                    }
                    std::thread::yield_now();
                }
            })
        };
        // Chaos: hot-adds a transient device and rips it back out while
        // clients are parked on and bound to it.
        let chaos = {
            let bm = Arc::clone(&bm);
            let clock = clock.clone();
            std::thread::spawn(move || {
                for k in 0..2u32 {
                    let id = DeviceId(100 + k);
                    bm.add_device(id, Gpu::new(GpuSpec::test_small(), clock.clone(), 100 + k), vgpus)
                        .unwrap();
                    std::thread::sleep(Duration::from_millis(2));
                    bm.remove_device(id);
                }
            })
        };

        let workers: Vec<_> = (0..clients)
            .map(|i| {
                let bm = Arc::clone(&bm);
                let ctx = AppContext::new(CtxId(i as u64 + 1), i as u64, format!("fuzz-{i}"));
                std::thread::spawn(move || {
                    for _ in 0..cycles {
                        let Some(b) = bm.acquire(&ctx, 1.0, 0, Duration::from_secs(20)) else {
                            return false; // stranded waiter
                        };
                        std::thread::yield_now();
                        // Release is also exercised against vGPUs whose
                        // device the chaos thread has already removed.
                        bm.release(ctx.id, b.vgpu);
                    }
                    true
                })
            })
            .collect();
        let mut all_granted = true;
        for w in workers {
            all_granted &= w.join().expect("worker panicked");
        }
        done.store(true, Ordering::SeqCst);
        chaos.join().expect("chaos thread panicked");
        checker.join().expect("capacity invariant violated");

        prop_assert!(all_granted, "an acquire timed out despite available capacity");
        prop_assert_eq!(bm.waiting_count(), 0, "waiter stranded in a queue");
        prop_assert_eq!(bm.bound_count(), 0, "binding leaked");
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.bindings, (clients * cycles) as u64);
        prop_assert!(snap.unbindings >= snap.bindings, "missing unbind accounting");
    }
}

// ---------------------------------------------------------------------
// SwapOutcome clean-page elision accounting
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `swap_out_ctx` accounting closes exactly, whatever interleaving of
    /// host touches and launches preceded it: every freed byte is either a
    /// written-back dirty byte or an elided clean byte
    /// (`freed == writeback_bytes + clean_bytes`), the split matches the
    /// entry flags at the swap boundary, and `swap_bytes_skipped_clean`
    /// records precisely the elided bytes.
    #[test]
    fn swap_outcome_clean_elision_accounts_every_byte(
        blocks in prop::collection::vec(1u64..256, 1..8),
        ops in prop::collection::vec((0usize..8usize, any::<bool>()), 0..24),
    ) {
        use mtgpu::api::protocol::AllocKind;
        use mtgpu::api::HostBuf;

        let metrics = Arc::new(RuntimeMetrics::default());
        let mm = MemoryManager::new(MemoryConfig::default(), Arc::clone(&metrics));
        let ctx = CtxId(1);
        mm.register_ctx(ctx);
        let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-9), 0);
        let gpu_ctx = gpu.create_context().unwrap();
        let binding = Binding {
            vgpu: VGpuId { device: DeviceId(0), index: 0 },
            gpu: Arc::clone(&gpu),
            gpu_ctx,
        };

        let sizes: Vec<u64> = blocks.iter().map(|&k| k * ALIGN).collect();
        let bases: Vec<DeviceAddr> = sizes
            .iter()
            .map(|&s| {
                let v = mm.malloc(ctx, s, AllocKind::Linear).unwrap();
                mm.copy_h2d(ctx, v, &HostBuf::from_slice(&[0xAB; 16]), None).unwrap();
                v
            })
            .collect();
        for (i, launch) in ops {
            let b = bases[i % bases.len()];
            if launch {
                // Materialize and run a kernel over it: device-dirty.
                mm.materialize(ctx, &[b], &binding).unwrap();
                mm.mark_launched(ctx, &[b]);
            } else {
                // Host write: a dirty device copy syncs down first, then
                // the slab is authoritative again.
                mm.copy_h2d(ctx, b, &HostBuf::from_slice(&[1, 2, 3]), Some(&binding)).unwrap();
            }
        }

        // Classify every entry from its flags at the swap boundary: a
        // resident entry writes back iff its device copy is the only
        // authority (to_swap), is elided otherwise.
        let mut want_freed = 0u64;
        let mut want_writeback = 0u64;
        let mut want_clean = 0u64;
        for (i, &b) in bases.iter().enumerate() {
            let f = mm.flags_of(ctx, b).unwrap();
            if !f.allocated() {
                continue;
            }
            want_freed += sizes[i];
            if f.to_swap() {
                want_writeback += sizes[i];
            } else {
                want_clean += sizes[i];
            }
        }

        let out = mm.swap_out_ctx(ctx, &binding, SwapReason::Unbind).unwrap();
        prop_assert_eq!(out.freed, out.writeback_bytes + out.clean_bytes,
            "freed bytes must split exactly into writeback + clean");
        prop_assert_eq!(out.freed, want_freed);
        prop_assert_eq!(out.writeback_bytes, want_writeback);
        prop_assert_eq!(out.clean_bytes, want_clean);
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.swap_bytes_skipped_clean, want_clean,
            "elision metric must record exactly the clean bytes");
        // `swap_bytes` counts the bytes swap-outs and own-entry evictions
        // free, and nothing else: the D2H syncs that host touches forced
        // along the way count as the device's swap traffic, not here. No
        // working set here comes near the device's size, so nothing was
        // evicted and the swap-out is all of it.
        prop_assert_eq!(snap.swap_bytes, want_freed,
            "swap traffic metric must record exactly the freed bytes");

        // Post-swap: every previously-resident entry is host-authoritative
        // with a pending re-upload.
        for &b in &bases {
            let f = mm.flags_of(ctx, b).unwrap();
            prop_assert!(!f.allocated() && !f.to_swap(), "entry not swapped clean: {:?}", f);
        }
    }
}

// ---------------------------------------------------------------------
// One copy engine and two: the same passes, the same outcome
// ---------------------------------------------------------------------

/// Everything a driver of [`drive_passes`] can observe at the end.
#[derive(Debug, PartialEq)]
struct PassOutcome {
    /// `(vaddr, flags)` of every live entry, in allocation order.
    flags: Vec<(DeviceAddr, Flags)>,
    slabs: Vec<Vec<u8>>,
    swap_traffic: (u64, u64),
    resident: u64,
    usage: u64,
}

/// Drives one context through `ops` on a 64 MiB device with `engines` copy
/// engines. Entries are 4–19 MiB declared, so launches of three evict the
/// context's own entries; a "kernel" writes straight into device memory, so
/// writebacks carry bytes no slab has.
fn drive_passes(engines: u32, ops: &[(u8, usize, u8)]) -> PassOutcome {
    use mtgpu::api::protocol::AllocKind;
    use mtgpu::api::HostBuf;
    use mtgpu::core::Materialize;
    use mtgpu::gpusim::KernelArg;

    const MIB: u64 = 1 << 20;
    let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
    let ctx = CtxId(1);
    mm.register_ctx(ctx);
    let spec = GpuSpec { copy_engines: engines, ..GpuSpec::test_small() };
    let gpu = Gpu::new(spec, Clock::with_scale(1e-9), 0);
    let gpu_ctx = gpu.create_context().unwrap();
    let binding =
        Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu: Arc::clone(&gpu), gpu_ctx };
    let mut live: Vec<(DeviceAddr, u64)> = Vec::new();
    for &(kind, pick, val) in ops {
        if live.is_empty() || kind == 0 {
            let size = (4 + val as u64 % 16) * MIB;
            live.push((mm.malloc(ctx, size, AllocKind::Linear).unwrap(), size));
            continue;
        }
        let (base, size) = live[pick % live.len()];
        match kind {
            1 => {
                let buf = HostBuf::with_shadow(size / 2, vec![val; 48]);
                mm.copy_h2d(ctx, DeviceAddr(base.0 + 16), &buf, Some(&binding)).unwrap();
            }
            2 | 3 => {
                // A launch over this entry and its two neighbours:
                // allocation, own-entry eviction and a multi-op upload plan.
                let next = |k: usize| KernelArg::Ptr(live[(pick + k) % live.len()].0);
                let args = [KernelArg::Ptr(base), next(1), next(2)];
                let closure = mm.launch_closure(ctx, &args).unwrap();
                // The allocator may be too fragmented for three: unbind
                // and retry on the empty device, as the service layer does.
                if mm.materialize(ctx, &closure, &binding).unwrap() != Materialize::Ready {
                    mm.swap_out_ctx(ctx, &binding, SwapReason::Unbind).unwrap();
                    assert_eq!(
                        mm.materialize(ctx, &closure, &binding).unwrap(),
                        Materialize::Ready
                    );
                }
                for arg in mm.translate_args(ctx, &args).unwrap() {
                    let KernelArg::Ptr(dptr) = arg else { unreachable!() };
                    gpu.memcpy_h2d(gpu_ctx, dptr, 32, &[val ^ 0x5A; 32]).unwrap();
                }
                mm.mark_launched(ctx, &closure);
            }
            4 => drop(mm.swap_out_ctx(ctx, &binding, SwapReason::Unbind).unwrap()),
            5 => {
                live.remove(pick % live.len());
                assert_eq!(mm.free(ctx, base, Some(&binding)).unwrap(), size);
            }
            6 => mm.checkpoint(ctx, &binding).unwrap(),
            _ => drop(mm.copy_d2h(ctx, base, 64, Some(&binding)).unwrap()),
        }
    }
    let flags: Vec<_> = live.iter().map(|&(b, _)| (b, mm.flags_of(ctx, b).unwrap())).collect();
    // The counters other threads read agree with the table they shadow.
    let resident: u64 =
        live.iter().zip(&flags).filter(|(_, (_, f))| f.allocated()).map(|(&(_, s), _)| s).sum();
    assert_eq!(mm.resident_bytes(ctx), resident);
    assert_eq!(mm.mem_usage(ctx), live.iter().map(|&(_, s)| s).sum::<u64>());
    assert_eq!(mm.swap_used(), mm.mem_usage(ctx));
    PassOutcome {
        flags,
        swap_traffic: mm.device_swap_traffic(DeviceId(0)),
        resident,
        usage: mm.mem_usage(ctx),
        slabs: live
            .iter()
            .map(|&(b, _)| mm.copy_d2h(ctx, b, 128, Some(&binding)).unwrap().payload)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A pass borrows from the held table whether it runs inline (one
    /// engine) or on two lanes (scoped threads): the same random
    /// malloc/copy/launch/swap/free/checkpoint sequence ends in the same
    /// flags, the same slab bytes and the same per-device swap traffic.
    #[test]
    fn one_lane_and_two_lanes_agree(
        ops in prop::collection::vec((0u8..8, 0usize..16, any::<u8>()), 8..64),
    ) {
        let (one, two) = (drive_passes(1, &ops), drive_passes(2, &ops));
        prop_assert_eq!(one, two);
    }
}

// ---------------------------------------------------------------------
// Copy_HD against "sync, then write"
// ---------------------------------------------------------------------

/// Everything one side of [`copy_hd_is_sync_then_write`] can observe.
#[derive(Debug, PartialEq)]
struct CopyHdOutcome {
    result: Result<(), mtgpu::api::CudaError>,
    flags: Flags,
    slab: Vec<u8>,
    /// What the device holds after the next launch's materialization.
    device: Vec<u8>,
    /// Bytes the device sent down during the copy.
    d2h: u64,
    /// Swap traffic out of the device recorded during the copy.
    swap_out: u64,
}

/// Brings a `size`-byte entry into Figure 4 state `state` (0 fresh, 1 host
/// copy pending, 2 resident and clean, 3 resident with a copy pending, 4
/// written by a kernel, 5 written by a kernel and swapped out), then runs
/// one Copy_HD of `copy` = (offset, declared, shadow bytes) into it. With
/// `reference` the copy is Table 1's written out: one in bounds first
/// brings a kernel-written entry down whole (`copy_d2h`), then writes.
fn copy_hd_outcome(
    state: u8,
    size: u64,
    initial: usize,
    copy: (u64, u64, usize),
    reference: bool,
) -> CopyHdOutcome {
    use mtgpu::api::protocol::AllocKind;
    use mtgpu::api::HostBuf;
    use mtgpu::gpusim::KernelArg;

    let pattern = |n: usize, salt: u8| -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(7) ^ salt).collect()
    };
    let mm = MemoryManager::new(MemoryConfig::default(), Arc::new(RuntimeMetrics::default()));
    let ctx = CtxId(1);
    mm.register_ctx(ctx);
    let gpu = Gpu::new(GpuSpec::test_small(), Clock::with_scale(1e-9), 0);
    let gpu_ctx = gpu.create_context().unwrap();
    let binding =
        Binding { vgpu: VGpuId { device: DeviceId(0), index: 0 }, gpu: Arc::clone(&gpu), gpu_ctx };
    let base = mm.malloc(ctx, size, AllocKind::Linear).unwrap();
    let dptr = |mm: &MemoryManager| {
        let args = mm.translate_args(ctx, &[KernelArg::Ptr(base)]).unwrap();
        let [KernelArg::Ptr(d)] = args[..] else { unreachable!() };
        d
    };
    if state >= 1 {
        let host = HostBuf::with_shadow(size, pattern(initial, 0x11));
        mm.copy_h2d(ctx, base, &host, None).unwrap();
    }
    if state >= 2 {
        mm.materialize(ctx, &[base], &binding).unwrap();
    }
    if state == 3 {
        let tail = DeviceAddr(base.0 + size / 2);
        mm.copy_h2d(ctx, tail, &HostBuf::from_slice(&[0x22; 8]), Some(&binding)).unwrap();
    }
    if state >= 4 {
        let kernel = pattern(size as usize, 0x5A);
        gpu.memcpy_h2d(gpu_ctx, dptr(&mm), size, &kernel).unwrap();
        mm.mark_launched(ctx, &[base]);
    }
    if state == 5 {
        mm.swap_out_ctx(ctx, &binding, SwapReason::Unbind).unwrap();
    }

    let (offset, declared, shadow) = copy;
    let buf = HostBuf::with_shadow(declared, pattern(shadow, 0x77));
    let d2h_before = gpu.stats().snapshot().d2h_bytes;
    let out_before = mm.device_swap_traffic(DeviceId(0)).1;
    if reference && offset + declared <= size {
        mm.copy_d2h(ctx, base, 1, Some(&binding)).unwrap();
    }
    let result = mm.copy_h2d(ctx, DeviceAddr(base.0 + offset), &buf, Some(&binding));
    let d2h = gpu.stats().snapshot().d2h_bytes - d2h_before;
    let swap_out = mm.device_swap_traffic(DeviceId(0)).1 - out_before;
    let flags = mm.flags_of(ctx, base).unwrap();
    let slab = mm.export_image(ctx, "", None).unwrap().entries.remove(0).data;
    mm.materialize(ctx, &[base], &binding).unwrap();
    let device = gpu.peek(dptr(&mm), size).unwrap();
    CopyHdOutcome { result, flags, slab, device, d2h, swap_out }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Copy_HD ends where "bring a kernel-written entry down, then write"
    /// ends, over every Figure 4 state, offset, length and shadow length:
    /// the same result, flags, slab bytes and next upload, and the same
    /// device-to-host bytes (each counted as swap traffic), except none at
    /// all for a copy that overwrites every slab byte.
    #[test]
    fn copy_hd_is_sync_then_write(
        state in 0u8..6,
        units in 1u64..32,
        initial in any::<u16>(),
        at in (0u8..3, any::<u64>()),
        len in (0u8..3, any::<u64>()),
        short in (0u8..2, any::<u64>()),
    ) {
        let size = units * 64;
        let initial = (initial as u64 % (size + 1)) as usize;
        // A third of the copies start at the entry's base; apart from
        // that, a third end at the entry's end and a third run past it;
        // half carry a full payload.
        let offset = if at.0 == 0 { 0 } else { at.1 % size };
        let room = size - offset;
        let declared = match len.0 {
            0 => room,
            1 => 1 + len.1 % room,
            _ => room + 1 + len.1 % 64,
        };
        let shadow = if short.0 == 0 { declared } else { short.1 % (declared + 1) } as usize;
        let copy = (offset, declared, shadow);
        let got = copy_hd_outcome(state, size, initial, copy, false);
        let want = copy_hd_outcome(state, size, initial, copy, true);
        let covers = offset == 0 && shadow as u64 >= size;
        prop_assert_eq!(&got.result, &want.result);
        prop_assert_eq!(got.flags, want.flags);
        prop_assert_eq!(&got.slab, &want.slab);
        prop_assert_eq!(&got.device, &want.device);
        prop_assert_eq!(got.d2h, if covers { 0 } else { want.d2h });
        prop_assert_eq!(got.swap_out, got.d2h, "a merge's download is swap traffic");
        prop_assert_eq!(want.swap_out, want.d2h);
    }
}
