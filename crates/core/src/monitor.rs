//! The health & load-balancing monitor (§4.6, §5.3.4).
//!
//! A single background thread per runtime periodically:
//!
//! 1. **Fault handling** — detects failed/detached devices, removes their
//!    vGPU slots, and recovers the contexts that were bound there: contexts
//!    whose device-resident data had a consistent swap copy rebind
//!    transparently on their next launch; contexts with unrecoverable dirty
//!    data are marked failed (§4.6).
//! 2. **Dynamic load balancing** — when nothing is waiting, live-migrates
//!    an idle context off the device under the most pressure (a slower
//!    device is under more at equal load) to one with a free vGPU ("the
//!    dispatcher keeps track of fast GPUs becoming idle, and, in the
//!    absence of pending jobs, migrates running jobs from slow to fast
//!    GPUs", §5.3.4).
//! 3. **Lease reaping** — when the tenant-policy layer is active, tenants
//!    whose lease TTL elapsed on the runtime clock are condemned: each
//!    member context is failed with `LeaseExpired`, evicted from its vGPU
//!    if bound, and its pages freed. TTLs are read off the [`Clock`], so
//!    deterministic harnesses observe expiry at exact virtual instants.
//! 4. **Idle victims** — a launch that unbound to wait for room on a device
//!    (§4.5) is woken while a co-tenant there sits idle on device memory,
//!    so that it asks that co-tenant to swap out.
//!
//! A context a pass wants to move or swap out but finds mid-call is asked
//! ([`Ask`]) to do it itself at its next kernel boundary, between calls,
//! where the pass would have found it idle ([`answer`]).
//!
//! [`Clock`]: mtgpu_simtime::Clock

use crate::ctx::{AppContext, Ask, CtxId};
use crate::metrics::RuntimeMetrics;
use crate::migrate::MigrationError;
use crate::runtime::NodeRuntime;
use crate::sched::DeviceView;
use crate::service;
use crate::trace::{TraceEvent, UnbindReason};
use mtgpu_api::CudaError;
use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Duration;

/// Minimum pressure ratio (hottest device / destination as it would look
/// after the move) before the rebalancer moves a context: below this the
/// placement is close enough that a migration would thrash.
const REBALANCE_MARGIN: f64 = 1.25;

/// How often the background monitor scans, real time.
const MONITOR_INTERVAL: Duration = Duration::from_millis(5);

/// Monitor entry point; returns when the runtime shuts down. The nap
/// between scans is a park, so `shutdown` (which unparks after raising the
/// flag) does not wait it out.
pub(crate) fn run(rt: Arc<NodeRuntime>) {
    while !rt.is_shutdown() {
        rt.monitor_tick();
        std::thread::park_timeout(MONITOR_INTERVAL);
    }
}

/// Condemns tenants whose lease TTL elapsed and reaps their contexts.
/// Runs on every monitor pass (and every deterministic `monitor_tick`);
/// a no-op when the policy layer is not configured.
pub(crate) fn reap_expired_leases(rt: &NodeRuntime) {
    if !rt.policy().enabled() {
        return;
    }
    let (expired_tenants, doomed) = rt.policy().tick(rt.clock().now());
    if expired_tenants > 0 {
        RuntimeMetrics::add(&rt.metrics_ref().lease_expiries, expired_tenants);
    }
    for ctx_id in doomed {
        reap_context(rt, ctx_id);
    }
}

fn reap_context(rt: &NodeRuntime, ctx_id: CtxId) {
    let Some(ctx) = rt.context(ctx_id) else {
        // Handler already tore the context down; just settle the books.
        rt.policy().release_ctx(ctx_id);
        return;
    };
    // Wait out the context's in-flight call, then condemn it: subsequent
    // calls on the connection observe the typed `LeaseExpired` failure.
    let _guard = ctx.service_lock();
    ctx.mark_failed(CudaError::LeaseExpired);
    // A launch queued for a vGPU is woken now, to fail like any later call
    // (the connection is still there and waits for its reply), and a grant
    // it was given meanwhile goes back: a condemned context never binds.
    if let Some(raced) = rt.bindings().kick(&ctx) {
        rt.bindings().release(ctx_id, raced.vgpu);
    }
    let binding = ctx.inner().binding.take();
    if let Some(b) = &binding {
        rt.tracer().record(TraceEvent::Unbound {
            ctx: ctx_id,
            vgpu: b.vgpu,
            reason: UnbindReason::LeaseReaped,
        });
    }
    // The lease is gone, so its data is too: free device copies, page
    // table and swap reservation in one sweep (no writeback — an expired
    // tenant has no further use for the bytes).
    rt.memory().remove_ctx(ctx_id, binding.as_ref());
    if let Some(b) = binding {
        rt.bindings().release(ctx_id, b.vgpu);
    }
    rt.policy().release_ctx(ctx_id);
    RuntimeMetrics::bump(&rt.metrics_ref().lease_reaps);
    rt.tracer().record(TraceEvent::LeaseReaped { ctx: ctx_id });
}

/// Offers the launches that wait for room (§4.5 unbind-and-retry) every
/// idle co-tenant as a victim: a room event on each device where one waits
/// and a context holding device memory has no call in flight, so the launch
/// runs again and an inter-application swap may take that memory. A
/// co-tenant that stays idle makes no room by itself. Where every such
/// co-tenant is mid-call, the one holding the most is asked to give the
/// device up at its next kernel boundary ([`Ask::Yield`]): one that leaves
/// no gap between its calls is never caught idle.
pub(crate) fn offer_idle_victims(rt: &NodeRuntime) {
    if !rt.config().inter_app_swap {
        return;
    }
    for device in rt.bindings().parked_on() {
        let holders: Vec<(u64, Arc<AppContext>)> = rt
            .bindings()
            .bound_on(device)
            .into_iter()
            .filter_map(|id| Some((rt.memory().resident_bytes(id), rt.context(id)?)))
            .filter(|&(resident, _)| resident > 0)
            .collect();
        if holders.iter().any(|(_, ctx)| ctx.try_service_lock().is_some()) {
            rt.bindings().make_room(device);
        } else if let Some((_, ctx)) =
            holders.iter().max_by_key(|(resident, ctx)| (*resident, Reverse(ctx.id)))
        {
            ctx.inner().ask = Some((rt.monitor_pass(), Ask::Yield));
        }
    }
}

/// Does what the latest monitor pass asked of `ctx` while it was mid-call
/// ([`Ask`]), now that it is between calls: its next launch off the
/// reactor calls this before it takes its service lock. An ask from an
/// older pass is dropped — the pass after it asked again or saw no need —
/// and the answer checks again that it is still wanted: the balancing
/// pass runs again on the scores of now, so it moves the context only if
/// that still clears [`REBALANCE_MARGIN`], counted and traced as any
/// move; a victim gives way only while a launch still waits for room on
/// its device.
pub(crate) fn answer(rt: &NodeRuntime, ctx: &Arc<AppContext>) {
    let Some((pass, ask)) = ctx.inner().ask.take() else { return };
    if pass != rt.monitor_pass() {
        return;
    }
    match ask {
        Ask::Rebalance => rebalance_once(rt),
        Ask::Yield => service::give_way(rt, ctx),
    }
}

/// Detects failed or detached devices and recovers their contexts.
pub(crate) fn recover_failed_devices(rt: &NodeRuntime) {
    let views = rt.bindings().device_views();
    for view in views {
        if !view.gpu.is_failed() {
            continue;
        }
        let affected = rt.bindings().remove_device(view.id);
        rt.tracer().record(TraceEvent::DeviceLost { device: view.id });
        for ctx_id in affected {
            recover_context(rt, ctx_id);
        }
    }
}

fn recover_context(rt: &NodeRuntime, ctx_id: CtxId) {
    let Some(ctx) = rt.context(ctx_id) else { return };
    // Block until the context's handler finishes its in-flight call (which
    // will itself hit DeviceFailed and recover inline; this lock then sees
    // binding already cleared).
    let _guard = ctx.service_lock();
    if let Some(binding) = ctx.binding() {
        // A context that lost dirty data is failed there, for its next call
        // to report.
        let _ = service::lose_binding(rt, &ctx, binding);
    }
}

/// One load-balancing pass (DESIGN.md §15): samples per-device pressure
/// signals, scores every device deterministically off the virtual clock,
/// and live-migrates ([`NodeRuntime::migrate_ctx`]) the costliest-misplaced
/// context from the hottest device to the coolest — at most one migration
/// per pass (avoids thrashing). A pick found mid-call is asked to run the
/// pass again at its next kernel boundary ([`Ask::Rebalance`]).
///
/// Pressure combines resident-memory fraction, vGPU occupancy, compute
/// queue depth and the device's swap-traffic rate (bytes per virtual
/// second, normalized by PCIe bandwidth), inflated on slower devices: the
/// same load costs more where FLOPS are scarcer. Every input is sampled
/// runtime state or the virtual clock — never the wall clock — so a
/// deterministic harness replays every migration decision bit-for-bit.
pub(crate) fn rebalance_once(rt: &NodeRuntime) {
    let views = rt.bindings().device_views();
    if views.len() < 2 {
        return;
    }
    // Waiting contexts outrank migration (§5.3.4): they will soak up the
    // free capacity themselves.
    if rt.bindings().waiting_count() > 0 {
        return;
    }
    let healthy: Vec<&DeviceView> = views.iter().filter(|v| !v.gpu.is_failed()).collect();
    if healthy.len() < 2 {
        return;
    }
    let max_flops =
        healthy.iter().map(|v| v.effective_flops).fold(f64::MIN, f64::max).max(f64::MIN_POSITIVE);
    let scores: Vec<f64> =
        healthy.iter().map(|v| pressure_score_with(rt, v, 0, 0, max_flops)).collect();
    // First strictly-hottest wins ties, so selection is a pure function of
    // the (device-id ordered) views.
    let mut hot = None;
    for (i, v) in healthy.iter().enumerate() {
        if !v.bound.is_empty() && hot.is_none_or(|h: usize| scores[i] > scores[h]) {
            hot = Some(i);
        }
    }
    let Some(hot) = hot else { return };
    // Targets in ascending pressure order (stable sort: score ties keep
    // device-id order).
    let mut targets: Vec<usize> =
        (0..healthy.len()).filter(|&i| i != hot && healthy[i].free_vgpus > 0).collect();
    targets.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    if targets.is_empty() {
        return;
    }
    let from = healthy[hot].id;
    // Candidate order: lowest lease priority first — a higher-priority
    // tenant is only disturbed after every lower-priority candidate was
    // tried, so it can never be migrated "to make room" for one of them —
    // then costliest-misplaced (largest footprint suffers the hot device
    // most), then context id for a total, replay-stable order.
    let mut candidates: Vec<(u8, u64, CtxId)> = healthy[hot]
        .bound
        .iter()
        .map(|&c| (rt.policy().priority_of(c), rt.memory().mem_usage(c), c))
        .collect();
    candidates.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    for (_, _, ctx_id) in candidates {
        let footprint = rt.memory().resident_bytes(ctx_id);
        for &t in &targets {
            // Hysteresis: score the *destination as it would look with this
            // context on it*. A move happens only if the context would still
            // be markedly better off after it lands — which also rules out
            // ping-ponging between equally-loaded devices.
            let projected = pressure_score_with(rt, healthy[t], 1, footprint, max_flops);
            if scores[hot] < projected.max(f64::MIN_POSITIVE) * REBALANCE_MARGIN {
                continue;
            }
            let to = healthy[t].id;
            // Traced only for the move that happened: a pass whose
            // candidates are all mid-call (`Busy`) would otherwise write
            // candidates × targets records every few milliseconds and push
            // everything else out of the ring. A pick mid-call is asked to
            // run the pass again at its next kernel boundary.
            let moved = rt.migrate_ctx(ctx_id, to);
            if let (Err(MigrationError::Busy), Some(ctx)) = (&moved, rt.context(ctx_id)) {
                ctx.inner().ask = Some((rt.monitor_pass(), Ask::Rebalance));
                return;
            }
            let Ok(_) = moved else { continue };
            RuntimeMetrics::bump(&rt.metrics_ref().rebalance_migrations);
            rt.tracer().record(TraceEvent::RebalancePicked {
                ctx: ctx_id,
                from,
                to,
                score: ((scores[hot] - projected) * 1000.0) as i64,
            });
            return;
        }
    }
}

/// One device's placement-pressure score (higher = worse place to be),
/// optionally projected with `extra_ctxs` more contexts carrying
/// `extra_bytes` of device-resident data (the rebalancer's "what would the
/// destination look like after the move" probe).
fn pressure_score_with(
    rt: &NodeRuntime,
    v: &DeviceView,
    extra_ctxs: u32,
    extra_bytes: u64,
    max_flops: f64,
) -> f64 {
    let resident: u64 =
        v.bound.iter().map(|&c| rt.memory().resident_bytes(c)).sum::<u64>() + extra_bytes;
    let (swap_in, swap_out) = rt.memory().device_swap_traffic(v.id);
    let mem_frac = resident as f64 / v.gpu.mem_capacity().max(1) as f64;
    let occupancy = if v.total_vgpus > 0 {
        (v.bound.len() as u32 + extra_ctxs) as f64 / v.total_vgpus as f64
    } else {
        0.0
    };
    let queue = v.gpu.compute_queue_depth() as f64;
    // Swap traffic as a fraction of the PCIe link, per virtual second —
    // the thrashing signal. Clamped so one pathological device cannot
    // flatten every other term.
    let elapsed = rt.clock().now().since_epoch().as_secs_f64().max(1e-9);
    let swap_frac = (((swap_in + swap_out) as f64 / elapsed)
        / v.gpu.spec().pcie_bytes_per_sec.max(1.0))
    .min(4.0);
    let speed = (v.effective_flops / max_flops).max(f64::MIN_POSITIVE);
    (mem_frac + occupancy + queue + swap_frac) / speed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::service::InProcessChannel;
    use mtgpu_api::client::CudaClient;
    use mtgpu_api::FrontendClient;
    use mtgpu_gpusim::{DeviceId, Driver, GpuSpec, KernelDesc, LaunchConfig, LaunchSpec, Work};
    use mtgpu_simtime::Clock;

    /// One job bound on the slow device and a fast one attached afterwards:
    /// the placement the balancer exists to fix. Returns the job's client
    /// and a launch for it.
    fn misplaced_job(
        dynamic_load_balancing: bool,
    ) -> (Arc<NodeRuntime>, FrontendClient<InProcessChannel>, LaunchSpec) {
        let driver = Driver::with_devices(Clock::with_scale(1e-7), vec![GpuSpec::quadro_2000()]);
        let cfg = RuntimeConfig { dynamic_load_balancing, ..RuntimeConfig::default() }
            .with_vgpus(1)
            .with_background_monitor(false);
        let rt = NodeRuntime::start(driver, cfg);
        let mut c = rt.local_client();
        let module = c.register_fat_binary().unwrap();
        c.register_function(module, KernelDesc::plain("noop")).unwrap();
        let noop = LaunchSpec {
            kernel: "noop".into(),
            config: LaunchConfig::default(),
            args: Vec::new(),
            work: Work::flops(1.0),
        };
        c.launch(noop.clone()).unwrap();
        rt.attach_device(GpuSpec::tesla_c2050());
        (rt, c, noop)
    }

    fn picks(rt: &NodeRuntime) -> usize {
        let picked = |r: &crate::trace::TraceRecord| {
            matches!(r.event, TraceEvent::RebalancePicked { ctx: CtxId(1), .. })
        };
        rt.trace().iter().filter(|r| picked(r)).count()
    }

    #[test]
    fn a_pass_whose_candidates_are_all_busy_leaves_the_trace_as_it_was() {
        let (rt, mut c, _) = misplaced_job(false);
        let ctx = rt.context(CtxId(1)).expect("the one context");

        // Mid-call, as far as the migrator can tell.
        let busy = ctx.service_lock();
        let before = rt.trace();
        rebalance_once(&rt);
        assert_eq!(rt.trace(), before, "a pass that moved nothing wrote to the trace");
        assert_eq!(rt.metrics().rebalance_migrations, 0);
        drop(busy);

        rebalance_once(&rt);
        assert_eq!(picks(&rt), 1);
        assert_eq!(rt.metrics().rebalance_migrations, 1);
        c.exit().unwrap();
        rt.shutdown();
    }

    #[test]
    fn a_move_picked_mid_call_is_made_by_the_next_launch_and_counted_there() {
        let (rt, mut c, noop) = misplaced_job(true);
        let ctx = rt.context(CtxId(1)).expect("the one context");
        let busy = ctx.service_lock();
        rt.monitor_tick();
        assert_eq!(ctx.inner().ask, Some((rt.monitor_pass(), Ask::Rebalance)));
        assert_eq!((picks(&rt), rt.metrics().rebalance_migrations), (0, 0));
        drop(busy);
        c.launch(noop).unwrap();
        assert_eq!(rt.binding_of(CtxId(1)).map(|v| v.device), Some(DeviceId(1)));
        assert_eq!((picks(&rt), rt.metrics().rebalance_migrations), (1, 1));
        assert_eq!(ctx.inner().ask, None);
        c.exit().unwrap();
        rt.shutdown();
    }

    #[test]
    fn an_ask_from_an_older_pass_is_dropped_and_a_fresh_one_moves_only_if_it_pays() {
        // The balancer itself is off: these passes ask nothing.
        let (rt, mut c, noop) = misplaced_job(false);
        let ctx = rt.context(CtxId(1)).expect("the one context");
        let on = |device| rt.binding_of(CtxId(1)).map(|v| v.device) == Some(DeviceId(device));
        // A pass has run since the ask: it is not the latest pick.
        ctx.inner().ask = Some((rt.monitor_pass(), Ask::Rebalance));
        rt.monitor_tick();
        c.launch(noop.clone()).unwrap();
        assert!(on(0), "a stale ask moved the context");
        // On the fast device, the pass run again finds that no move clears
        // the margin on the scores of now.
        rt.migrate_ctx(CtxId(1), DeviceId(1)).unwrap();
        ctx.inner().ask = Some((rt.monitor_pass(), Ask::Rebalance));
        c.launch(noop).unwrap();
        assert!(on(1), "a move that no longer pays was made");
        assert_eq!((picks(&rt), rt.metrics().rebalance_migrations), (0, 0));
        assert_eq!(ctx.inner().ask, None);
        c.exit().unwrap();
        rt.shutdown();
    }
}
