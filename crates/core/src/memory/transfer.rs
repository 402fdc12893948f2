//! Pipelined transfer-plan execution.
//!
//! The memory manager's residency passes (`materialize`, `swap_out_ctx`,
//! `checkpoint`) build a *plan* — the full list of H2D/D2H operations a
//! state transition needs — from the context's page table and run it with
//! that table's lock still held: an upload borrows its payload straight from
//! the slab, a writeback lands straight in it (`SwapSlab::write_back`), and
//! the lane threads are scoped inside the caller's borrow. The executor
//! spreads the plan across the device's copy-engine lanes so a C2050's two
//! engines both carry traffic, while a single-engine C1060 runs the plan
//! inline with zero threading overhead.
//!
//! One device call per lane: operation `i` goes to lane `i % lanes`, and
//! each lane's operations, in plan order, are one
//! [`mtgpu_gpusim::Gpu::memcpy_batch`] pinned to that lane. The batch
//! checks its ops under one device-state lock and holds its engine once,
//! for their summed durations, landing each op as its time is spent, so
//! per-engine busy time and the virtual clock advance exactly as with one
//! copy per op. Which
//! engine serves which transfer is a pure function of the plan, not of
//! thread scheduling, and per-engine busy time replays bit-for-bit under
//! the virtual clock (concurrent sleeps on a shared atomic clock sum
//! commutatively).
//!
//! No allocation: a plan's operations and outcomes, and the lanes' copy
//! batches, live in buffers each thread keeps from one plan to the next
//! (`Plan`, `Outcomes`, `LANES`), and a writeback copies into the slab it
//! belongs to, so an inline plan — one engine, or a device the calling
//! thread holds — allocates nothing once its thread's buffers and its
//! slabs have grown. A plan spread over lane threads spawns them per plan.

use crate::memory::page_table::{PageTableEntry, SwapSlab};
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::{CopyDir, CopyOp, DeviceAddr, Gpu, GpuContextId};
use std::cell::Cell;
use std::ops::Deref;

/// What one operation of a plan moves.
#[derive(Debug)]
pub enum Payload<'a> {
    /// Host bytes uploaded to the device (H2D).
    Upload(&'a [u8]),
    /// The slab the device copy is written back into, in place (D2H).
    Writeback(&'a mut SwapSlab),
}

/// One operation of a transfer plan, addressed by the page-table entry's
/// virtual base so the caller can apply flag transitions afterwards.
#[derive(Debug)]
pub struct TransferOp<'a> {
    /// Virtual base address of the page-table entry this op serves.
    pub base: u64,
    /// Resolved device pointer to transfer to/from.
    pub dptr: DeviceAddr,
    /// Declared transfer size in bytes (what the PCIe model charges).
    pub size: u64,
    /// What the op moves, and which way.
    pub payload: Payload<'a>,
}

impl<'a> TransferOp<'a> {
    /// Upload of a resident entry's slab.
    pub(crate) fn upload(e: &'a PageTableEntry) -> Self {
        let payload = Payload::Upload(&e.slab.data);
        TransferOp { base: e.vaddr.0, dptr: e.dptr(), size: e.size, payload }
    }

    /// Writeback of a resident entry's device copy into its slab.
    pub(crate) fn writeback(e: &'a mut PageTableEntry) -> Self {
        let (base, dptr, size) = (e.vaddr.0, e.dptr(), e.size);
        TransferOp { base, dptr, size, payload: Payload::Writeback(&mut e.slab) }
    }

    /// The device copy this op makes, borrowing its payload.
    fn copy(&mut self) -> CopyOp<'_> {
        let dir = match &mut self.payload {
            Payload::Upload(bytes) => CopyDir::H2d(bytes),
            Payload::Writeback(slab) => CopyDir::D2h(&mut slab.data),
        };
        CopyOp { addr: self.dptr, declared_len: self.size, dir, result: Ok(()) }
    }
}

/// Result of one plan operation, reported in plan order.
#[derive(Debug)]
pub struct TransferOutcome {
    /// Virtual base address of the entry the op served.
    pub base: u64,
    /// Declared size of the op.
    pub size: u64,
    /// `Err` if the device rejected the transfer. A completed writeback is
    /// in its slab.
    pub result: CudaResult<()>,
}

/// What a plan execution looked like, for metrics/trace accounting.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape {
    /// Operations in the plan.
    pub ops: u32,
    /// Copy-engine lanes the plan was spread across.
    pub lanes: u32,
    /// Total declared bytes moved (attempted).
    pub bytes: u64,
    /// Whether more than one transfer could be in flight at once.
    pub overlapped: bool,
}

/// Executes a transfer plan across up to `lanes` copy-engine lanes, its
/// outcomes into `outcomes` (emptied first) in plan order.
///
/// Op `i` goes to lane `i % lanes`, and each lane's ops, in plan order, are
/// one device call ([`Gpu::memcpy_batch`]). With one lane (or one op) the
/// batch runs inline on the calling thread — the serial path pays no
/// synchronization at all, which keeps the single-engine C1060 at parity
/// with the pre-pipelining code — and so do the batches of a device the
/// calling thread holds ([`Gpu::try_hold`]), one lane after the other. With
/// more, lane 0 runs on the calling thread and lanes 1.. on scoped threads.
///
/// Outcomes come in plan order regardless of completion order. A
/// failed op does not stop its lane: later ops still run (on a failed
/// device they fail fast via the alive check, so nothing stalls), and the
/// caller decides per-entry what to commit.
pub fn execute(
    gpu: &Gpu,
    gpu_ctx: GpuContextId,
    ops: &mut [TransferOp<'_>],
    lanes: usize,
    outcomes: &mut Vec<TransferOutcome>,
) -> PlanShape {
    let lanes = lanes.max(1).min(ops.len().max(1));
    let shape = PlanShape {
        ops: ops.len() as u32,
        lanes: lanes as u32,
        bytes: ops.iter().map(|o| o.size).sum(),
        overlapped: lanes > 1 && ops.len() > 1,
    };
    outcomes.clear();
    outcomes.extend(ops.iter().map(|op| TransferOutcome {
        base: op.base,
        size: op.size,
        result: Ok(()),
    }));
    if ops.is_empty() {
        return shape;
    }
    // Deal the ops' copies to their lanes' batches, plan order kept.
    let mut kept = LANES.take();
    if kept.len() < lanes {
        kept.resize_with(lanes, Vec::new);
    }
    let mut batches: Vec<Vec<CopyOp<'_>>> = kept.into_iter().map(relifetime).collect();
    for (i, op) in ops.iter_mut().enumerate() {
        batches[i % lanes].push(op.copy());
    }
    let (lane0, rest) = batches[..lanes].split_first_mut().expect("lanes >= 1");
    // A device the calling thread holds would queue the other lanes' threads
    // behind the hold: its batches run here, each still on its own lane.
    if lanes == 1 || gpu.held_here() {
        gpu.memcpy_batch(gpu_ctx, 0, lane0);
        for (i, batch) in rest.iter_mut().enumerate() {
            gpu.memcpy_batch(gpu_ctx, i + 1, batch);
        }
    } else {
        std::thread::scope(|scope| {
            for (i, batch) in rest.iter_mut().enumerate() {
                scope.spawn(move || gpu.memcpy_batch(gpu_ctx, i + 1, batch));
            }
            gpu.memcpy_batch(gpu_ctx, 0, lane0);
        });
    }
    for (i, out) in outcomes.iter_mut().enumerate() {
        let result = std::mem::replace(&mut batches[i % lanes][i / lanes].result, Ok(()));
        out.result = result.map_err(CudaError::from_gpu);
    }
    LANES.set(batches.into_iter().map(relifetime).collect());
    // A writeback that landed keeps to its slab's cap.
    for (op, out) in ops.iter_mut().zip(outcomes.iter()) {
        if let (Payload::Writeback(slab), Ok(())) = (&mut op.payload, &out.result) {
            slab.landed();
        }
    }
    shape
}

/// `batch`, emptied, as a batch of another borrow's copies: only the
/// lifetime differs, so the collect keeps the buffer.
fn relifetime<'b>(mut batch: Vec<CopyOp<'_>>) -> Vec<CopyOp<'b>> {
    batch.clear();
    batch.into_iter().map(|_| unreachable!("emptied above")).collect()
}

thread_local! {
    /// The thread's plan buffers between plans, both empty.
    static SPARE: Cell<Option<(Vec<TransferOp<'static>>, Vec<TransferOutcome>)>> =
        const { Cell::new(None) };
    /// The thread's per-lane copy batches between plans, all empty.
    static LANES: Cell<Vec<Vec<CopyOp<'static>>>> = const { Cell::new(Vec::new()) };
}

/// A transfer plan being built, on the calling thread's buffers: a plan
/// allocates only while they grow to the longest plan the thread has run.
pub(crate) struct Plan<'a> {
    ops: Vec<TransferOp<'a>>,
    outcomes: Vec<TransferOutcome>,
}

impl<'a> Plan<'a> {
    /// An empty plan on the thread's buffers (fresh ones for a plan built
    /// while another is open).
    pub(crate) fn new() -> Self {
        let (ops, outcomes) = SPARE.take().unwrap_or_default();
        Plan { ops, outcomes }
    }

    /// Runs the plan ([`execute`]) and hands back its outcomes, with the
    /// plan's borrows of the table ended.
    pub(crate) fn execute(
        mut self,
        gpu: &Gpu,
        gpu_ctx: GpuContextId,
        lanes: usize,
    ) -> (Outcomes, PlanShape) {
        let shape = execute(gpu, gpu_ctx, &mut self.ops, lanes, &mut self.outcomes);
        self.ops.clear();
        // Only the borrow's lifetime differs: the collect keeps the buffer.
        let ops = self.ops.into_iter().map(|_| unreachable!("emptied above")).collect();
        (Outcomes { ops, outcomes: self.outcomes }, shape)
    }
}

impl<'a> Extend<TransferOp<'a>> for Plan<'a> {
    fn extend<I: IntoIterator<Item = TransferOp<'a>>>(&mut self, ops: I) {
        self.ops.extend(ops);
    }
}

/// A plan's outcomes, in plan order. Its buffers go back to the thread
/// when it is dropped.
pub(crate) struct Outcomes {
    ops: Vec<TransferOp<'static>>,
    outcomes: Vec<TransferOutcome>,
}

impl Deref for Outcomes {
    type Target = [TransferOutcome];

    fn deref(&self) -> &[TransferOutcome] {
        &self.outcomes
    }
}

impl Drop for Outcomes {
    fn drop(&mut self) {
        self.outcomes.clear();
        SPARE.set(Some((std::mem::take(&mut self.ops), std::mem::take(&mut self.outcomes))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtgpu_gpusim::GpuSpec;
    use mtgpu_simtime::{Clock, SimDuration};
    use std::time::Duration;

    fn gpu_with(spec: GpuSpec, scale: f64) -> std::sync::Arc<Gpu> {
        Gpu::new(spec, Clock::with_scale(scale), 0)
    }

    /// [`execute`] with outcomes of its own.
    fn run(
        gpu: &Gpu,
        ctx: GpuContextId,
        ops: &mut [TransferOp<'_>],
        lanes: usize,
    ) -> (Vec<TransferOutcome>, PlanShape) {
        let mut outcomes = Vec::new();
        let shape = execute(gpu, ctx, ops, lanes, &mut outcomes);
        (outcomes, shape)
    }

    /// Op `i` uploads 64 bytes of `i`.
    static FILLS: [[u8; 64]; 6] = [[0; 64], [1; 64], [2; 64], [3; 64], [4; 64], [5; 64]];

    fn upload_plan(gpu: &Gpu, ctx: GpuContextId, n: usize, size: u64) -> Vec<TransferOp<'static>> {
        (0..n)
            .map(|i| TransferOp {
                base: i as u64,
                dptr: gpu.malloc(ctx, size).unwrap(),
                size,
                payload: Payload::Upload(&FILLS[i]),
            })
            .collect()
    }

    #[test]
    fn serial_and_pipelined_agree_functionally() {
        for lanes in [1, 2, 4] {
            let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
            let ctx = gpu.create_context().unwrap();
            let mut ops = upload_plan(&gpu, ctx, 6, 4096);
            let dptrs: Vec<DeviceAddr> = ops.iter().map(|o| o.dptr).collect();
            let (outcomes, shape) = run(&gpu, ctx, &mut ops, lanes);
            assert_eq!(outcomes.len(), 6);
            for (i, out) in outcomes.iter().enumerate() {
                assert_eq!(out.base, i as u64, "outcomes must keep plan order");
                assert!(out.result.is_ok());
                assert_eq!(gpu.peek(dptrs[i], 64).unwrap(), vec![i as u8; 64]);
            }
            assert_eq!(shape.overlapped, lanes > 1);
            assert_eq!(gpu.stats().snapshot().h2d_bytes, 6 * 4096);
        }
    }

    #[test]
    fn writebacks_land_in_their_slabs_in_plan_order() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut uploads = upload_plan(&gpu, ctx, 4, 1024);
        let (outs, _) = run(&gpu, ctx, &mut uploads, 2);
        assert!(outs.iter().all(|o| o.result.is_ok()));
        // Slab 1 holds more than its device copy: its tail stays.
        let mut slabs: Vec<SwapSlab> = (0..4).map(|_| SwapSlab::new(1024, 1024)).collect();
        slabs[1].write(0, &[9; 80]);
        let mut sync_ops: Vec<TransferOp> = uploads
            .iter()
            .zip(&mut slabs)
            .map(|(o, slab)| TransferOp {
                base: o.base,
                dptr: o.dptr,
                size: 1024,
                payload: Payload::Writeback(slab),
            })
            .collect();
        let (outs, shape) = run(&gpu, ctx, &mut sync_ops, 2);
        assert!(shape.overlapped);
        assert!(outs.iter().all(|o| o.result.is_ok()));
        drop(sync_ops);
        for (i, slab) in slabs.iter().enumerate() {
            let mut want = vec![i as u8; 64];
            if i == 1 {
                want.extend([9; 16]);
            }
            assert_eq!(slab.data, want, "op {i} landed the wrong bytes");
        }
    }

    #[test]
    fn two_lanes_halve_wall_time_on_two_engines() {
        // Ordering, not speed: while another thread's long copy keeps lane
        // 1's engine busy, two lanes finish lane 0's ops (plan ops 0 and 2)
        // and only ops 1 and 3 wait. A serial executor queues op 1 behind
        // the long copy and runs op 2 after it, so op 2's bytes cannot reach
        // the device before lane 1's busy time moves off zero.
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1.0);
        let ctx = gpu.create_context().unwrap();
        let mut ops = upload_plan(&gpu, ctx, 4, 4096);
        let op2 = ops[2].dptr;
        // 512 MiB at 4 GB/s: lane 1 stays busy for ~134 ms.
        let long = 512u64 << 20;
        let long_dst = gpu.malloc(ctx, long).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut long_copy = [CopyOp::h2d(long_dst, long, &[])];
                gpu.memcpy_batch(ctx, 1, &mut long_copy);
                long_copy[0].result.clone().unwrap();
            });
            // Until the long copy holds lane 1, the whole device can be held.
            while let Some(hold) = gpu.try_hold() {
                drop(hold);
                std::thread::yield_now();
            }
            let plan = s.spawn(|| run(&gpu, ctx, &mut ops, 2));
            loop {
                let op2_done = gpu.peek(op2, 64).unwrap() == FILLS[2];
                let lane1_free = gpu.engine_busy_times()[1] > SimDuration::ZERO;
                assert!(
                    !lane1_free,
                    "lane 1 came free before op 2 finished: the lanes ran in turn"
                );
                if op2_done {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            let (outs, shape) = plan.join().unwrap();
            assert!(outs.iter().all(|o| o.result.is_ok()));
            assert!(shape.overlapped);
        });
    }

    #[test]
    fn a_held_device_runs_a_pipelined_plan_on_the_holders_thread_on_the_same_lanes() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut ops = upload_plan(&gpu, ctx, 5, 4096);
        let hold = gpu.try_hold().expect("an idle device");
        let (outs, shape) = run(&gpu, ctx, &mut ops, 2);
        drop(hold);
        assert!(outs.iter().all(|o| o.result.is_ok()));
        assert_eq!(shape.lanes, 2);
        // Ops 0, 2, 4 on lane 0 and 1, 3 on lane 1, as on two threads.
        let busy = gpu.engine_busy_times();
        assert_eq!(busy[0] * 2, busy[1] * 3);
    }

    #[test]
    fn failed_device_reports_errors_without_hanging() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut ops = upload_plan(&gpu, ctx, 4, 1024);
        gpu.fail();
        let (outs, _) = run(&gpu, ctx, &mut ops, 2);
        assert_eq!(outs.len(), 4);
        assert!(outs.iter().all(|o| o.result.is_err()));
    }

    #[test]
    fn a_plan_runs_on_the_buffers_the_last_one_left() {
        let gpu = gpu_with(GpuSpec::tesla_c1060(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let mut plan = Plan::new();
        plan.extend(upload_plan(&gpu, ctx, 5, 1024));
        let (outs, _) = plan.execute(&gpu, ctx, 1);
        assert_eq!(outs.len(), 5);
        drop(outs);
        let plan = Plan::new();
        assert!(plan.ops.capacity() >= 5 && plan.outcomes.capacity() >= 5);
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let (outs, shape) = run(&gpu, ctx, &mut [], 2);
        assert!(outs.is_empty());
        assert_eq!(shape.ops, 0);
        assert!(!shape.overlapped);
    }
}
