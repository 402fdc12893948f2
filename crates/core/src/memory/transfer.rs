//! Pipelined transfer-plan execution.
//!
//! The memory manager's residency passes (`materialize`, `swap_out_ctx`,
//! `checkpoint`) build a *plan* — the full list of H2D/D2H operations a
//! state transition needs — from the context's page table and hand it to
//! [`execute`] with that table's lock still held: an upload borrows its
//! payload straight from the slab, and the lane threads are scoped inside
//! the caller's borrow. The executor spreads the plan across the device's
//! copy-engine lanes so a C2050's two engines both carry traffic, while a
//! single-engine C1060 runs the plan inline with zero threading overhead.
//!
//! Determinism: operation `i` is pinned to lane `i % lanes`, and each lane
//! issues its operations in plan order via the lane-pinned memcpy entry
//! points ([`mtgpu_gpusim::Gpu::memcpy_h2d_on`]/`memcpy_d2h_on`). Which
//! engine serves which transfer is therefore a pure function of the plan,
//! not of thread scheduling, and per-engine busy time replays bit-for-bit
//! under the virtual clock (concurrent sleeps on a shared atomic clock sum
//! commutatively).

use crate::memory::page_table::PageTableEntry;
use mtgpu_api::{CudaError, CudaResult};
use mtgpu_gpusim::{DeviceAddr, Gpu, GpuContextId};

/// One operation of a transfer plan, addressed by the page-table entry's
/// virtual base so the caller can apply flag transitions afterwards.
#[derive(Debug, Clone)]
pub struct TransferOp<'a> {
    /// Virtual base address of the page-table entry this op serves.
    pub base: u64,
    /// Resolved device pointer to transfer to/from.
    pub dptr: DeviceAddr,
    /// Declared transfer size in bytes (what the PCIe model charges).
    pub size: u64,
    /// `Some(bytes)` uploads host data to the device (H2D); `None` reads
    /// the device copy back (D2H sync).
    pub payload: Option<&'a [u8]>,
}

impl<'a> TransferOp<'a> {
    /// Upload of a resident entry's slab.
    pub(crate) fn upload(e: &'a PageTableEntry) -> Self {
        TransferOp { payload: Some(&e.slab.data), ..TransferOp::writeback(e) }
    }

    /// Writeback of a resident entry's device copy.
    pub(crate) fn writeback(e: &PageTableEntry) -> Self {
        TransferOp { base: e.vaddr.0, dptr: e.dptr(), size: e.size, payload: None }
    }
}

/// Result of one plan operation, reported in plan order.
#[derive(Debug)]
pub struct TransferOutcome {
    /// Virtual base address of the entry the op served.
    pub base: u64,
    /// Declared size of the op.
    pub size: u64,
    /// The bytes a completed D2H sync read back (none for a completed H2D
    /// upload), `Err` if the device rejected the transfer.
    pub result: CudaResult<Vec<u8>>,
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

fn run_op(gpu: &Gpu, gpu_ctx: GpuContextId, op: &TransferOp<'_>, lane: usize) -> TransferOutcome {
    let result = match op.payload {
        Some(bytes) => gpu
            .memcpy_h2d_on(gpu_ctx, op.dptr, op.size, bytes, lane)
            .map(|()| Vec::new())
            .map_err(CudaError::from_gpu),
        None => gpu.memcpy_d2h_on(gpu_ctx, op.dptr, op.size, lane).map_err(CudaError::from_gpu),
    };
    TransferOutcome { base: op.base, size: op.size, result }
}

/// Executes a transfer plan across up to `lanes` copy-engine lanes.
///
/// With one lane (or one op) the plan runs inline on the calling thread —
/// the serial path pays no synchronization at all, which keeps the
/// single-engine C1060 at parity with the pre-pipelining code — and so does
/// a plan on a device the calling thread holds ([`Gpu::try_hold`]). With more,
/// lane 0 runs on the calling thread and lanes 1.. on scoped threads; every
/// lane issues its ops in plan order, so placement is canonical (op `i` →
/// lane `i % lanes`).
///
/// Outcomes are returned in plan order regardless of completion order. A
/// failed op does not stop its lane: later ops still run (on a failed
/// device they fail fast via the alive check, so nothing stalls), and the
/// caller decides per-entry what to commit.
pub fn execute(
    gpu: &Gpu,
    gpu_ctx: GpuContextId,
    ops: &[TransferOp<'_>],
    lanes: usize,
) -> (Vec<TransferOutcome>, PlanShape) {
    let lanes = lanes.max(1).min(ops.len().max(1));
    let shape = PlanShape {
        ops: ops.len() as u32,
        lanes: lanes as u32,
        bytes: ops.iter().map(|o| o.size).sum(),
        overlapped: lanes > 1 && ops.len() > 1,
    };
    if ops.is_empty() {
        return (Vec::new(), shape);
    }
    // A device the calling thread holds would queue the other lanes' threads
    // behind the hold: its plan runs here, each op still on its own lane.
    if lanes == 1 || gpu.held_here() {
        let outcomes =
            ops.iter().enumerate().map(|(i, op)| run_op(gpu, gpu_ctx, op, i % lanes)).collect();
        return (outcomes, shape);
    }
    let mut outcomes: Vec<Option<TransferOutcome>> = Vec::new();
    outcomes.resize_with(ops.len(), || None);
    // Deal ops and their outcome slots to lanes round-robin, preserving
    // plan order within each lane.
    let mut per_lane: Vec<Vec<(&TransferOp<'_>, &mut Option<TransferOutcome>)>> =
        (0..lanes).map(|_| Vec::new()).collect();
    let mut slot_iter = outcomes.iter_mut();
    for (i, op) in ops.iter().enumerate() {
        let slot = slot_iter.next().expect("one slot per op");
        per_lane[i % lanes].push((op, slot));
    }
    drop(slot_iter);
    std::thread::scope(|scope| {
        let mut lane_work = per_lane.into_iter().enumerate();
        let (_, lane0) = lane_work.next().expect("lanes >= 1");
        for (lane_idx, work) in lane_work {
            scope.spawn(move || {
                for (op, slot) in work {
                    *slot = Some(run_op(gpu, gpu_ctx, op, lane_idx));
                }
            });
        }
        for (op, slot) in lane0 {
            *slot = Some(run_op(gpu, gpu_ctx, op, 0));
        }
    });
    let outcomes = outcomes.into_iter().map(|o| o.expect("every op executed")).collect();
    (outcomes, shape)
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

    /// Op `i` uploads 64 bytes of `i`.
    static FILLS: [[u8; 64]; 6] = [[0; 64], [1; 64], [2; 64], [3; 64], [4; 64], [5; 64]];

    fn upload_plan(gpu: &Gpu, ctx: GpuContextId, n: usize, size: u64) -> Vec<TransferOp<'static>> {
        (0..n)
            .map(|i| TransferOp {
                base: i as u64,
                dptr: gpu.malloc(ctx, size).unwrap(),
                size,
                payload: Some(&FILLS[i]),
            })
            .collect()
    }

    #[test]
    fn serial_and_pipelined_agree_functionally() {
        for lanes in [1, 2, 4] {
            let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
            let ctx = gpu.create_context().unwrap();
            let ops = upload_plan(&gpu, ctx, 6, 4096);
            let dptrs: Vec<DeviceAddr> = ops.iter().map(|o| o.dptr).collect();
            let (outcomes, shape) = execute(&gpu, ctx, &ops, lanes);
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
    fn d2h_ops_return_payloads_in_plan_order() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let uploads = upload_plan(&gpu, ctx, 4, 1024);
        let sync_ops: Vec<TransferOp> = uploads
            .iter()
            .map(|o| TransferOp { base: o.base, dptr: o.dptr, size: 64, payload: None })
            .collect();
        let (outs, _) = execute(&gpu, ctx, &uploads, 2);
        assert!(outs.iter().all(|o| o.result.is_ok()));
        let (outs, shape) = execute(&gpu, ctx, &sync_ops, 2);
        assert!(shape.overlapped);
        for (i, out) in outs.iter().enumerate() {
            let bytes = out.result.as_ref().unwrap();
            assert_eq!(bytes, &vec![i as u8; 64], "op {i} returned wrong payload");
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
        let ops = upload_plan(&gpu, ctx, 4, 4096);
        let op2 = ops[2].dptr;
        // 512 MiB at 4 GB/s: lane 1 stays busy for ~134 ms.
        let long = 512u64 << 20;
        let long_dst = gpu.malloc(ctx, long).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| gpu.memcpy_h2d_on(ctx, long_dst, long, &[], 1).unwrap());
            // Until the long copy holds lane 1, the whole device can be held.
            while let Some(hold) = gpu.try_hold() {
                drop(hold);
                std::thread::yield_now();
            }
            let plan = s.spawn(|| execute(&gpu, ctx, &ops, 2));
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
        let ops = upload_plan(&gpu, ctx, 5, 4096);
        let hold = gpu.try_hold().expect("an idle device");
        let (outs, shape) = execute(&gpu, ctx, &ops, 2);
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
        let ops = upload_plan(&gpu, ctx, 4, 1024);
        gpu.fail();
        let (outs, _) = execute(&gpu, ctx, &ops, 2);
        assert_eq!(outs.len(), 4);
        assert!(outs.iter().all(|o| o.result.is_err()));
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let gpu = gpu_with(GpuSpec::tesla_c2050(), 1e-7);
        let ctx = gpu.create_context().unwrap();
        let (outs, shape) = execute(&gpu, ctx, &[], 2);
        assert!(outs.is_empty());
        assert_eq!(shape.ops, 0);
        assert!(!shape.overlapped);
    }
}
