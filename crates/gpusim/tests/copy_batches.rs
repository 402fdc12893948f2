//! A device's batched entry points against the same work one operation at
//! a time, on two identical devices: a plan's copies as one
//! `Gpu::memcpy_batch` against one batch per op that puts the op alone on
//! the engine the plan deals it to (op `i` on engine `i % copy_engines`),
//! a pass's allocations as one `Gpu::malloc_batch` against one
//! `Gpu::malloc` per size up to the first refusal, and its frees as one
//! `Gpu::free_batch` against one `Gpu::free` per address up to the first
//! refusal. Outcomes, device bytes, the caller's buffers, the counters
//! (all but `calls`), per-engine busy time and the clock must agree.

use mtgpu_gpusim::stats::DeviceStatsSnapshot;
use mtgpu_gpusim::{CopyOp, DeviceAddr, Gpu, GpuContextId, GpuError, GpuSpec};
use mtgpu_simtime::{Clock, SimDuration, SimInstant};
use proptest::prelude::*;
use std::sync::Arc;

/// One op of a generated plan.
#[derive(Debug, Clone)]
struct Op {
    /// An upload, or a download into a buffer holding `kept` bytes.
    upload: bool,
    /// The allocation it targets, or none (a pointer into no allocation).
    target: Option<usize>,
    offset: u64,
    declared: u64,
    /// Payload bytes of an upload, or bytes the download buffer holds.
    bytes: usize,
}

fn op() -> impl Strategy<Value = Op> {
    // One op in ten points into no allocation.
    (any::<bool>(), 0..40usize, 0..512u64, 0..1536u64, 0..1600usize).prop_map(
        |(upload, target, offset, declared, bytes)| Op {
            upload,
            target: (target < 36).then_some(target % 4),
            offset,
            declared,
            bytes,
        },
    )
}

/// A device with four allocations of `sizes`, each holding a pattern.
fn device(spec: &GpuSpec, sizes: &[u64]) -> (Arc<Gpu>, Clock, GpuContextId, Vec<DeviceAddr>) {
    let clock = Clock::virtual_clock();
    let gpu = Gpu::new(spec.clone(), clock.clone(), 0);
    let ctx = gpu.create_context().unwrap();
    let addrs: Vec<DeviceAddr> = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let addr = gpu.malloc(ctx, size).unwrap();
            let fill: Vec<u8> = (0..size.min(700)).map(|b| (b as u8) ^ (i as u8 * 37)).collect();
            gpu.memcpy_h2d(ctx, addr, size, &fill).unwrap();
            addr
        })
        .collect();
    (gpu, clock, ctx, addrs)
}

/// The counters, but for the calls that made them.
fn counters(gpu: &Gpu) -> DeviceStatsSnapshot {
    DeviceStatsSnapshot { calls: 0, ..gpu.stats().snapshot() }
}

/// Everything a run leaves observable.
#[derive(Debug, PartialEq)]
struct Seen {
    results: Vec<Result<(), GpuError>>,
    device: Vec<Vec<u8>>,
    buffers: Vec<Vec<u8>>,
    stats: DeviceStatsSnapshot,
    busy: Vec<SimDuration>,
    now: SimInstant,
}

/// Runs `plan` on a fresh device: one batch, or one batch per op.
fn run(spec: &GpuSpec, sizes: &[u64], plan: &[Op], fail_first: bool, batched: bool) -> Seen {
    let (gpu, clock, ctx, addrs) = device(spec, sizes);
    let payloads: Vec<Vec<u8>> =
        plan.iter().enumerate().map(|(i, op)| vec![i as u8 + 1; op.bytes]).collect();
    let mut buffers: Vec<Vec<u8>> = plan.iter().map(|op| vec![0xEE; op.bytes]).collect();
    if fail_first {
        gpu.fail();
    }
    let engines = spec.copy_engines as usize;
    let mut copies: Vec<CopyOp<'_>> = plan
        .iter()
        .zip(&payloads)
        .zip(buffers.iter_mut())
        .enumerate()
        .map(|(i, ((op, payload), buffer))| {
            // The engines of a batch run side by side: ops on different
            // engines target different allocations, so no op reads what
            // another engine's op may or may not have written yet.
            let target = op.target.map(|t| t - t % engines + i % engines);
            // Past the last allocation's end: inside no allocation.
            let base = target.map_or(DeviceAddr(addrs[3].0 + (64 << 20)), |t| addrs[t]);
            let addr = DeviceAddr(base.0 + op.offset);
            if op.upload {
                CopyOp::h2d(addr, op.declared, payload)
            } else {
                CopyOp::d2h(addr, op.declared, buffer)
            }
        })
        .collect();
    if batched {
        assert_eq!(gpu.memcpy_batch(ctx, &mut copies), engines.min(plan.len()));
    } else {
        // Op `i` behind `i % engines` refused zero-length copies, which
        // cost nothing: alone on the engine the plan deals it to.
        for (i, copy) in copies.iter_mut().enumerate() {
            let mut alone: Vec<CopyOp<'_>> = (0..i % engines).map(|_| refused()).collect();
            alone.push(std::mem::replace(copy, refused()));
            gpu.memcpy_batch(ctx, &mut alone);
            *copy = alone.pop().unwrap();
        }
    }
    let results = copies.into_iter().map(|copy| copy.result).collect();
    gpu.repair();
    let device = addrs.iter().map(|&a| gpu.peek(a, 1 << 20).unwrap()).collect();
    Seen {
        results,
        device,
        buffers,
        stats: counters(&gpu),
        busy: gpu.engine_busy_times(),
        now: clock.now(),
    }
}

/// A copy every device refuses before it takes an engine.
fn refused() -> CopyOp<'static> {
    CopyOp::h2d(DeviceAddr(0), 0, &[])
}

fn specs() -> impl Strategy<Value = GpuSpec> {
    prop_oneof![Just(GpuSpec::test_small()), Just(GpuSpec::tesla_c2050())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bad pointers, ops past their allocation's end, payloads longer than
    /// their declared length, zero lengths and a device failed before the
    /// plan: a batch gives every op the outcome, the bytes and the time it
    /// gives alone on its engine.
    #[test]
    fn copy_batches_match_single_copies(
        spec in specs(),
        sizes in (1u64..1024, 1u64..1024, 1u64..1024, 1u64..1024),
        plan in prop::collection::vec(op(), 1..12),
        fail_first in 0..100u8,
    ) {
        let (sizes, fail_first) = ([sizes.0, sizes.1, sizes.2, sizes.3], fail_first < 15);
        let single = run(&spec, &sizes, &plan, fail_first, false);
        let batched = run(&spec, &sizes, &plan, fail_first, true);
        prop_assert_eq!(batched, single);
    }

    /// A pass's allocations that run out of memory partway: the batch keeps
    /// the prefix the single mallocs made, at the same first-fit addresses,
    /// and returns the refusal that stopped them. Then the same for frees,
    /// with an address no allocation starts at somewhere in the list.
    #[test]
    fn malloc_and_free_batches_match_single_calls(
        spec in specs(),
        sizes in prop::collection::vec(1u64..24, 1..12),
        bad_free in 0..24usize,
        fail_first in 0..100u8,
    ) {
        let (bad_free, fail_first) = ((bad_free < 12).then_some(bad_free), fail_first < 15);
        let sizes: Vec<u64> = sizes.into_iter().map(|mib| mib << 20).collect();
        let run = |batched: bool| {
            let (gpu, clock, ctx, _) = device(&spec, &[4096; 4]);
            // Fill the device to 40 MiB short of full.
            let room = gpu.mem_available().saturating_sub(40 << 20);
            let _filler = gpu.malloc(ctx, room).unwrap();
            if fail_first {
                gpu.fail();
            }
            let mut addrs = Vec::new();
            let made = if batched {
                gpu.malloc_batch(ctx, sizes.iter().copied(), &mut addrs)
            } else {
                sizes.iter().try_for_each(|&size| gpu.malloc(ctx, size).map(|a| addrs.push(a)))
            };
            let mut frees = addrs.clone();
            if let Some(at) = bad_free {
                frees.insert(at.min(frees.len()), DeviceAddr(12345));
            }
            let freed = if batched {
                gpu.free_batch(ctx, frees.iter().copied())
            } else {
                let mut n = 0;
                let res = frees.iter().try_for_each(|&a| gpu.free(ctx, a).map(|()| n += 1));
                (n, res)
            };
            gpu.repair();
            (made, addrs, freed, counters(&gpu), gpu.mem_available(), clock.now())
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// A C2050 with four 4 KiB allocations for the mixed plan.
fn mixed_plan_device() -> (Arc<Gpu>, GpuContextId, Vec<DeviceAddr>) {
    let (gpu, _, ctx, addrs) = device(&GpuSpec::tesla_c2050(), &[4096; 4]);
    (gpu, ctx, addrs)
}

/// Runs the mixed plan: op `i` moves `LENS[i]` declared bytes, uploads
/// and downloads alternating in threes. Returns each engine's busy time
/// the plan added and the engines it was spread over.
fn run_mixed_plan(gpu: &Gpu, ctx: GpuContextId, addrs: &[DeviceAddr]) -> (Vec<SimDuration>, usize) {
    const LENS: [u64; 6] = [4096, 64, 1024, 3000, 8, 512];
    let before = gpu.engine_busy_times();
    let payload = [7u8; 8];
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); LENS.len()];
    let mut plan: Vec<CopyOp<'_>> = LENS
        .iter()
        .zip(outs.iter_mut())
        .enumerate()
        .map(|(i, (&len, out))| {
            if (i / 3) % 2 == 0 {
                CopyOp::h2d(addrs[i % 4], len, &payload)
            } else {
                CopyOp::d2h(addrs[i % 4], len, out)
            }
        })
        .collect();
    let engines = gpu.memcpy_batch(ctx, &mut plan);
    assert!(plan.iter().all(|op| op.result.is_ok()));
    let spent: Vec<SimDuration> =
        gpu.engine_busy_times().iter().zip(&before).map(|(&after, &b)| after - b).collect();
    // Op `i` on engine `i % 2`: each engine busy for its ops' sum.
    let spec = gpu.spec();
    let on = |engine: usize| {
        LENS.iter().skip(engine).step_by(2).map(|&len| spec.copy_duration(len)).sum::<SimDuration>()
    };
    assert_eq!(spent, [on(0), on(1)]);
    assert_ne!(on(0), on(1), "a plan whose engines' sums agree cannot tell them apart");
    (spent, engines)
}

#[test]
fn a_mixed_plan_on_a_c2050_keeps_op_i_on_engine_i_mod_2() {
    let (gpu, ctx, addrs) = mixed_plan_device();
    let calls = gpu.stats().snapshot().calls;
    let (_, engines) = run_mixed_plan(&gpu, ctx, &addrs);
    assert_eq!(engines, 2);
    assert_eq!(gpu.stats().snapshot().calls, calls + 1, "a plan is one device call");
}

#[test]
fn a_held_c2050_runs_a_plan_on_the_holders_thread_on_the_same_engines() {
    // Spread over threads, the other engine's ops would queue behind the
    // hold their own plan waits in: the plan would never end.
    let (gpu, ctx, addrs) = mixed_plan_device();
    let (done, ended) = std::sync::mpsc::channel();
    let holder = Arc::clone(&gpu);
    std::thread::spawn(move || {
        let hold = holder.try_hold().expect("an idle device");
        let ran = run_mixed_plan(&holder, ctx, &addrs);
        drop(hold);
        done.send(ran).unwrap();
    });
    let (_, engines) = ended
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the held device's plan waited behind its own hold");
    assert_eq!(engines, 2);
    assert!(gpu.try_hold().is_some(), "the hold was let go");
}
