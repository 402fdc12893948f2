//! Transfer plans: a residency pass's copies as one device call.
//!
//! The memory manager's residency passes (`materialize`, `swap_out_ctx`,
//! `checkpoint`) build a *plan* — the full list of H2D/D2H copies a state
//! transition needs, one [`CopyOp`] each — from the context's page table
//! and run it with that table's lock still held: an upload borrows its
//! payload straight from the slab, and a writeback lands straight in the
//! slab's buffer. A plan is one [`mtgpu_gpusim::Gpu::memcpy_batch`]: the
//! device deals its ops to its copy engines, runs them side by side or,
//! with one engine or a device the calling thread holds, inline, and says
//! how many engines it used. Which engine serves which copy is a pure
//! function of the plan's order, so per-engine busy time replays
//! bit-for-bit under the virtual clock.
//!
//! No allocation: a plan's ops live in a buffer each thread keeps from one
//! plan to the next, and a writeback copies into the slab it belongs to, so
//! a plan the device runs inline allocates nothing once the thread's buffer
//! and the slabs have grown. Once the plan ran, [`Plan::settle`] ends its
//! borrows of the table, and the caller reads each op's result in plan
//! order on the same buffer.

use mtgpu_gpusim::{CopyDir, CopyOp};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// The thread's plan buffer between plans, empty.
    static SPARE: Cell<Vec<CopyOp<'static>>> = const { Cell::new(Vec::new()) };
}

/// A transfer plan's copies in plan order, on the calling thread's kept
/// buffer: a plan allocates only while the buffer grows to the longest
/// plan the thread has run. The buffer goes back to the thread when the
/// plan is dropped.
pub(crate) struct Plan<'a>(Vec<CopyOp<'a>>);

impl Plan<'_> {
    /// An empty plan on the thread's buffer (a fresh one for a plan built
    /// while another is open).
    pub(crate) fn new() -> Self {
        Plan(SPARE.take())
    }

    /// The plan with its borrows ended: each op keeps its device address,
    /// declared length and result, on the same buffer.
    pub(crate) fn settle(mut self) -> Plan<'static> {
        Plan(std::mem::take(&mut self.0).into_iter().map(settled).collect())
    }
}

/// `op` without its host side. Only the lifetime differs, so collecting
/// these keeps the buffer.
fn settled(op: CopyOp<'_>) -> CopyOp<'static> {
    let CopyOp { addr, declared_len, result, .. } = op;
    CopyOp { addr, declared_len, dir: CopyDir::H2d(&[]), result }
}

impl<'a> Deref for Plan<'a> {
    type Target = Vec<CopyOp<'a>>;

    fn deref(&self) -> &Vec<CopyOp<'a>> {
        &self.0
    }
}

impl DerefMut for Plan<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Drop for Plan<'_> {
    fn drop(&mut self) {
        let mut ops = std::mem::take(&mut self.0);
        // A settled plan took the buffer along: nothing to give back.
        if ops.capacity() > 0 {
            ops.clear();
            SPARE.set(ops.into_iter().map(settled).collect());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::page_table::SwapSlab;
    use mtgpu_gpusim::{DeviceAddr, Gpu, GpuContextId, GpuSpec};
    use mtgpu_simtime::{Clock, SimDuration};
    use std::time::Duration;

    fn gpu_with(spec: GpuSpec, scale: f64) -> std::sync::Arc<Gpu> {
        Gpu::new(spec, Clock::with_scale(scale), 0)
    }

    /// Op `i` uploads 64 bytes of `i`.
    static FILLS: [[u8; 64]; 6] = [[0; 64], [1; 64], [2; 64], [3; 64], [4; 64], [5; 64]];

    /// A plan of `n` uploads of `size` declared bytes, op `i` of
    /// `FILLS[i]` into an allocation of its own.
    fn upload_plan(gpu: &Gpu, ctx: GpuContextId, n: usize, size: u64) -> Plan<'static> {
        let mut plan = Plan::new();
        plan.extend(
            FILLS[..n].iter().map(|fill| CopyOp::h2d(gpu.malloc(ctx, size).unwrap(), size, fill)),
        );
        plan
    }

    #[test]
    fn one_and_two_engines_agree_functionally() {
        for engines in [1, 2, 4] {
            let gpu = gpu_with(GpuSpec { copy_engines: engines, ..GpuSpec::tesla_c2050() }, 1e-7);
            let ctx = gpu.create_context().unwrap();
            let mut plan = upload_plan(&gpu, ctx, 6, 4096);
            assert_eq!(gpu.memcpy_batch(ctx, &mut plan), engines as usize);
            let plan = plan.settle();
            for (i, op) in plan.iter().enumerate() {
                assert!(op.result.is_ok());
                assert_eq!(gpu.peek(op.addr, 64).unwrap(), FILLS[i], "op {i} in plan order");
            }
            assert_eq!(gpu.stats().snapshot().h2d_bytes, 6 * 4096);
        }
    }

    #[test]
    fn writebacks_land_in_their_slabs_in_plan_order() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut uploads = upload_plan(&gpu, ctx, 4, 1024);
        gpu.memcpy_batch(ctx, &mut uploads);
        let uploads = uploads.settle();
        assert!(uploads.iter().all(|op| op.result.is_ok()));
        // Slab 1 holds more than its device copy: its tail stays.
        let mut slabs: Vec<SwapSlab> = (0..4).map(|_| SwapSlab::new(1024, 1024)).collect();
        slabs[1].write(0, &[9; 80]);
        let mut plan = Plan::new();
        plan.extend(
            uploads
                .iter()
                .zip(&mut slabs)
                .map(|(op, slab)| CopyOp::d2h(op.addr, 1024, &mut slab.data)),
        );
        assert_eq!(gpu.memcpy_batch(ctx, &mut plan), 2);
        assert!(plan.settle().iter().all(|op| op.result.is_ok()));
        for (i, slab) in slabs.iter().enumerate() {
            let mut want = vec![i as u8; 64];
            if i == 1 {
                want.extend([9; 16]);
            }
            assert_eq!(slab.data, want, "op {i} landed the wrong bytes");
        }
    }

    #[test]
    fn two_engines_halve_wall_time() {
        // Ordering, not speed: while another thread's long copy keeps engine
        // 1 busy, the plan finishes engine 0's ops (plan ops 0 and 2) and
        // only ops 1 and 3 wait. A serial plan queues op 1 behind the long
        // copy and runs op 2 after it, so op 2's bytes cannot reach the
        // device before engine 1's busy time moves off zero.
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1.0);
        let ctx = gpu.create_context().unwrap();
        let mut plan = upload_plan(&gpu, ctx, 4, 4096);
        let op2 = plan[2].addr;
        // 512 MiB at 4 GB/s: engine 1 stays busy for ~134 ms.
        let long = 512u64 << 20;
        let long_dst = gpu.malloc(ctx, long).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Behind a refused copy, the long one is op 1: engine 1's.
                let mut long_copy =
                    [CopyOp::h2d(DeviceAddr(0), 0, &[]), CopyOp::h2d(long_dst, long, &[])];
                gpu.memcpy_batch(ctx, &mut long_copy);
                long_copy[1].result.clone().unwrap();
            });
            // Until the long copy holds engine 1, the whole device can be held.
            while let Some(hold) = gpu.try_hold() {
                drop(hold);
                std::thread::yield_now();
            }
            let ran = s.spawn(|| gpu.memcpy_batch(ctx, &mut plan));
            loop {
                let op2_done = gpu.peek(op2, 64).unwrap() == FILLS[2];
                let engine1_free = gpu.engine_busy_times()[1] > SimDuration::ZERO;
                assert!(
                    !engine1_free,
                    "engine 1 came free before op 2 finished: the engines ran in turn"
                );
                if op2_done {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            assert_eq!(ran.join().unwrap(), 2);
        });
        assert!(plan.iter().all(|op| op.result.is_ok()));
    }

    #[test]
    fn a_held_device_runs_a_plan_on_the_holders_thread_on_the_same_engines() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut plan = upload_plan(&gpu, ctx, 5, 4096);
        let hold = gpu.try_hold().expect("an idle device");
        assert_eq!(gpu.memcpy_batch(ctx, &mut plan), 2);
        drop(hold);
        assert!(plan.iter().all(|op| op.result.is_ok()));
        // Ops 0, 2, 4 on engine 0 and 1, 3 on engine 1, as on two threads.
        let busy = gpu.engine_busy_times();
        assert_eq!(busy[0] * 2, busy[1] * 3);
    }

    #[test]
    fn failed_device_reports_errors_without_hanging() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut plan = upload_plan(&gpu, ctx, 4, 1024);
        gpu.fail();
        gpu.memcpy_batch(ctx, &mut plan);
        assert_eq!(plan.len(), 4);
        assert!(plan.iter().all(|op| op.result.is_err()));
    }

    #[test]
    fn a_plan_runs_on_the_buffer_the_last_one_left() {
        let gpu = gpu_with(GpuSpec::tesla_c1060(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut plan = upload_plan(&gpu, ctx, 5, 1024);
        gpu.memcpy_batch(ctx, &mut plan);
        let ran = plan.settle();
        assert_eq!(ran.len(), 5);
        drop(ran);
        assert!(Plan::new().capacity() >= 5);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut plan = Plan::new();
        assert_eq!(gpu.memcpy_batch(ctx, &mut plan), 0);
        assert!(plan.settle().is_empty());
        assert_eq!(gpu.engine_busy_times(), [SimDuration::ZERO; 2]);
    }
}
