//! Tentpole determinism tests: the same seeded scenario, replayed on the
//! virtual clock, must reproduce the runtime's behaviour **bit for bit** —
//! every metric counter, every per-client result, the final virtual time.
//!
//! The scenarios are shaped after the paper's Figure 7 (three GPUs under
//! threefold sharing, where inter-application swapping carries the load)
//! and Figure 9 (the unbalanced node). Comparison is on the canonical JSON
//! fingerprint, so a single flipped counter fails loudly with a readable
//! diff.

use mtgpu::det::{run, DetScenario};
use mtgpu_loadgen::{run_det, DetLoadConfig, DetTransport};

#[test]
fn fig7_shape_seed42_replays_bit_for_bit() {
    let a = run(DetScenario::fig7_shape(42));
    let b = run(DetScenario::fig7_shape(42));
    assert_eq!(a.canonical(), b.canonical(), "seed-42 replay diverged");

    // The scenario must actually exercise the contended regime: every
    // client verified its data end-to-end *through* swap traffic.
    assert!(a.clients.iter().all(|c| c.verified), "data integrity under sharing");
    assert_eq!(a.clients.len(), 9);
    assert!(a.metrics.launches >= 72, "launches: {}", a.metrics.launches);
    assert!(a.metrics.total_swaps() > 0, "fig7 shape must swap");
    assert!(a.final_virtual_nanos > 0);
}

#[test]
fn pipelined_path_fingerprint_stable_across_three_runs() {
    // Copy-engine pipelining threads the materialize/swap hot path, so this
    // shape forces multi-lane plans: every device gets two copy engines and
    // each client carries enough buffers that round-end checkpoints and
    // victim swap-outs sync several dirty entries in one plan. Footprints
    // are sized so the node almost fits — co-tenants that fit accumulate
    // four dirty buffers (multi-op plans), while the tightest device still
    // overflows and swaps. Lane assignment is canonical (op i -> lane
    // i % lanes), so three full runs must still collapse to one
    // fingerprint.
    let mk = || {
        let mut spec = mtgpu::gpusim::GpuSpec::test_small();
        spec.copy_engines = 2;
        DetScenario {
            clients: 6,
            rounds: 2,
            buffers_per_client: 4,
            declared_base: 6656 * 1024,
            checkpoint_each_round: true,
            devices: vec![spec.clone(), spec.clone(), spec],
            ..DetScenario::fig7_shape(42)
        }
    };
    let runs = [run(mk()), run(mk()), run(mk())];
    assert_eq!(runs[0].canonical(), runs[1].canonical(), "run 2 diverged");
    assert_eq!(runs[0].canonical(), runs[2].canonical(), "run 3 diverged");

    // The fingerprint must come out of the regime under test: overlapped
    // multi-lane transfer plans, with swap traffic in the mix.
    let a = &runs[0];
    assert!(a.clients.iter().all(|c| c.verified), "data integrity under pipelining");
    assert!(a.metrics.transfer_plans > 0, "no transfer plans recorded");
    assert!(
        a.metrics.transfer_overlap_events > 0,
        "two-engine shape never overlapped: {} plans",
        a.metrics.transfer_plans
    );
    assert!(a.metrics.total_swaps() > 0, "shape must swap");
}

#[test]
fn eviction_policy_fingerprints_stable_and_divergent() {
    // One client with eight 12 MiB buffers on a 64 MiB device (60 MiB
    // usable: exactly five resident), launching each buffer in turn for two
    // rounds. Every launch past the fifth must evict, so the victim
    // sequence — and with it the writeback/re-upload traffic in the metrics
    // — *is* the intra-application order under test: three runs, one
    // fingerprint.
    let mk = |buffers| DetScenario {
        clients: 1,
        rounds: 2,
        devices: vec![mtgpu::gpusim::GpuSpec::test_small()],
        vgpus_per_device: 1,
        buffers_per_client: buffers,
        declared_base: 12 * 1024 * 1024,
        declared_stride: 0,
        ..DetScenario::fig7_shape(42)
    };
    let runs = [run(mk(8)), run(mk(8)), run(mk(8))];
    assert_eq!(runs[0].canonical(), runs[1].canonical(), "replay 2 diverged");
    assert_eq!(runs[0].canonical(), runs[2].canonical(), "replay 3 diverged");
    let a = &runs[0];
    assert!(a.clients.iter().all(|c| c.verified), "data integrity under eviction");
    assert!(a.metrics.intra_app_swaps > 0, "shape never evicted");

    // The eviction path is live in the fingerprint: the same client with
    // five buffers fits, never evicts, and tells a different story.
    let fits = run(mk(5));
    assert_eq!(fits.metrics.intra_app_swaps, 0);
    assert_ne!(a.canonical(), fits.canonical(), "eviction is decorative");
}

#[test]
fn inter_app_cascade_fingerprint_stable_across_three_runs() {
    // Four tenants, two 16 MiB buffers each, one 60 MiB-usable device: only
    // three buffers fit, so the fourth tenant's very first launch must
    // inter-app-swap a peer — and because every requester's *own* spare
    // buffer is then already host-resident, each subsequent launch keeps
    // 3a-ing the next peer in a deterministic cascade: every launch of the
    // run finds its buffer swapped out and a victim to pick. Three full
    // runs must collapse to one fingerprint.
    let mk = || {
        let mut spec = mtgpu::gpusim::GpuSpec::test_small();
        spec.copy_engines = 2;
        DetScenario {
            clients: 4,
            rounds: 3,
            devices: vec![spec],
            vgpus_per_device: 4,
            buffers_per_client: 2,
            declared_base: 16 * 1024 * 1024,
            declared_stride: 0,
            ..DetScenario::fig7_shape(42)
        }
    };
    let runs = [run(mk()), run(mk()), run(mk())];
    assert_eq!(runs[0].canonical(), runs[1].canonical(), "cascade replay 2 diverged");
    assert_eq!(runs[0].canonical(), runs[2].canonical(), "cascade replay 3 diverged");

    let a = &runs[0];
    assert!(a.clients.iter().all(|c| c.verified), "data integrity through the cascade");
    assert!(a.metrics.inter_app_swaps > 0, "no inter-app cascade");
}

#[test]
fn fig9_unbalanced_shape_replays_bit_for_bit() {
    let a = run(DetScenario::fig9_shape(42));
    let b = run(DetScenario::fig9_shape(42));
    assert_eq!(a.canonical(), b.canonical(), "fig9 replay diverged");
    assert!(a.clients.iter().all(|c| c.verified));
    assert!(a.metrics.total_swaps() > 0);
}

#[test]
fn seed_matrix_replays_and_seeds_diverge() {
    // Includes seed 0, the default: a seed like any other.
    let seeds = [0u64, 1, 7, 42, 0xDEC0DE];
    let mut canonicals = Vec::new();
    for &seed in &seeds {
        let mk = || DetScenario { clients: 6, rounds: 2, ..DetScenario::fig7_shape(seed) };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a.canonical(), b.canonical(), "seed {seed} replay diverged");
        assert!(a.clients.iter().all(|c| c.verified), "seed {seed} verification");
        canonicals.push(a.canonical());
    }
    // Different seeds draw different payloads and work sizes, so their
    // fingerprints must differ — the seed is live, not decorative.
    for i in 0..canonicals.len() {
        for j in (i + 1)..canonicals.len() {
            assert_ne!(
                canonicals[i], canonicals[j],
                "seeds {} and {} produced identical fingerprints",
                seeds[i], seeds[j]
            );
        }
    }
}

#[test]
fn quota_pressure_with_lease_expiry_replays_bit_for_bit() {
    // The tenant-policy tentpole under deterministic replay: three
    // applications — unlimited high-priority, one whose memory lease is
    // too small for its members' mallocs, one whose 1-second lease expires
    // mid-run — produce admission rejections and lease reaping at exact
    // virtual instants. Three full runs must collapse to one fingerprint.
    let runs = [
        run(DetScenario::quota_shape(42)),
        run(DetScenario::quota_shape(42)),
        run(DetScenario::quota_shape(42)),
    ];
    assert_eq!(runs[0].canonical(), runs[1].canonical(), "quota replay 2 diverged");
    assert_eq!(runs[0].canonical(), runs[2].canonical(), "quota replay 3 diverged");

    // The fingerprint must come out of the regime under test: real
    // rejections, a real expiry, real reaping — not a policy no-op.
    let a = &runs[0];
    assert!(a.metrics.quota_rejections > 0, "no admission rejections recorded");
    assert!(a.metrics.lease_expiries > 0, "no lease expired");
    assert!(a.metrics.lease_reaps > 0, "no contexts reaped");
    // The unlimited high-priority application (clients 0 and 1) must ride
    // out its neighbours' rejections and reaping untouched.
    assert!(a.clients[0].verified && a.clients[1].verified, "honest tenant was damaged");
    assert_eq!(a.clients[0].ops_err, 0);
    assert_eq!(a.clients[1].ops_err, 0);
    // The over-quota application saw typed rejections, not silent grants.
    assert!(
        a.clients[2].first_error.as_deref().unwrap_or("").contains("QuotaExceeded")
            || a.clients[3].first_error.as_deref().unwrap_or("").contains("QuotaExceeded"),
        "expected a QuotaExceeded first_error, got {:?} / {:?}",
        a.clients[2].first_error,
        a.clients[3].first_error
    );
    // The expired application's clients were cut off with the typed error.
    assert!(
        a.clients[4].first_error.as_deref().unwrap_or("").contains("LeaseExpired")
            || a.clients[5].first_error.as_deref().unwrap_or("").contains("LeaseExpired"),
        "expected a LeaseExpired first_error, got {:?} / {:?}",
        a.clients[4].first_error,
        a.clients[5].first_error
    );

    // The policy layer is live in the fingerprint: the same seed with the
    // layer off tells a different story.
    let off = run(DetScenario { tenant_policy: None, ..DetScenario::quota_shape(42) });
    assert_ne!(a.canonical(), off.canonical(), "policy layer is decorative");
    assert_eq!(off.metrics.quota_rejections, 0);
}

#[test]
fn migration_rebalancer_fingerprint_stable_across_three_runs() {
    // The live-migration tentpole under deterministic replay: a skewed
    // four-device node (two at quarter clock) with dynamic load balancing
    // on. Each monitor tick samples pressure, picks the hottest/coolest
    // devices off the virtual clock and peer-DMA-migrates one context, so
    // the *sequence* of migrations — source, destination, lane placement,
    // byte counts — is a pure function of the seed. Three full runs must
    // collapse to one fingerprint.
    let runs = [
        run(DetScenario::migration_shape(42)),
        run(DetScenario::migration_shape(42)),
        run(DetScenario::migration_shape(42)),
    ];
    assert_eq!(runs[0].canonical(), runs[1].canonical(), "migration replay 2 diverged");
    assert_eq!(runs[0].canonical(), runs[2].canonical(), "migration replay 3 diverged");

    // The fingerprint must come out of the regime under test: real
    // rebalancer-driven live migrations, with data surviving them.
    let a = &runs[0];
    assert!(a.clients.iter().all(|c| c.verified), "data integrity across live migration");
    assert!(a.metrics.live_migrations > 0, "rebalancer never migrated");
    assert!(a.metrics.rebalance_migrations > 0, "no migration credited to the rebalancer");
    assert!(a.metrics.migration_p2p_bytes > 0, "migrations moved no device-current bytes");
    assert_eq!(a.metrics.migration_failures, 0, "fault-free run aborted a migration");

    // The knob is live: the same shape with the rebalancer off migrates
    // nothing and tells a different story.
    let off =
        run(DetScenario { dynamic_load_balancing: false, ..DetScenario::migration_shape(42) });
    assert_eq!(off.metrics.live_migrations, 0);
    assert_ne!(a.canonical(), off.canonical(), "rebalancer is decorative");
}

#[test]
fn virtual_time_is_part_of_the_fingerprint() {
    let a = run(DetScenario { clients: 3, rounds: 2, ..DetScenario::fig7_shape(9) });
    let b = run(DetScenario { clients: 3, rounds: 2, ..DetScenario::fig7_shape(9) });
    assert_eq!(a.final_virtual_nanos, b.final_virtual_nanos);
    // Kernels, transfers and the per-step advances all consume virtual
    // time; a zero or tiny total means the clock was not actually virtual.
    assert!(
        a.final_virtual_nanos > 500_000_000,
        "implausibly small virtual runtime: {}",
        a.final_virtual_nanos
    );
}

#[test]
fn closed_loop_latency_fingerprint_replays_bit_for_bit() {
    // The issue's latency regression harness: a pinned-seed closed-loop
    // run of 16 clients on the virtual clock. The latency distribution is
    // measured in virtual nanoseconds, so the p50/p99 summary — and the
    // whole fingerprint around it — must be bit-identical across replays.
    let cfg = DetLoadConfig {
        clients: 16,
        requests_per_client: 2,
        seed: 42,
        devices: 4,
        vgpus_per_device: 4,
        transport: DetTransport::Local,
    };
    let (report_a, a) = run_det(&cfg);
    let (_, b) = run_det(&cfg);
    assert_eq!(a.canonical(), b.canonical(), "latency fingerprint diverged across replays");
    assert_eq!(a.p50_nanos, b.p50_nanos);
    assert_eq!(a.p99_nanos, b.p99_nanos);

    // The run must be a real measurement, not a degenerate one.
    assert_eq!(report_a.errors, 0);
    assert_eq!(report_a.completed, 32);
    assert!(a.p50_nanos > 0 && a.p99_nanos >= a.p50_nanos);
    assert!(a.final_virtual_nanos > 0, "virtual time must carry the latencies");

    // A different seed draws a different workload mix: the fingerprint
    // moves, proving the seed is live.
    let (_, other) = run_det(&DetLoadConfig { seed: 7, ..cfg });
    assert_ne!(a.canonical(), other.canonical(), "seed is decorative");
}

#[test]
fn multiplexed_latency_fingerprint_stable_across_three_runs() {
    // Same harness, but every request crosses the real multiplexed wire
    // (the node's local socketpair): reactor, framed MuxFrame stream,
    // gateway worker pool, reply
    // demux. Sequential one-in-flight driving keeps those threads off the
    // virtual-time axis, so three full runs must collapse to one
    // fingerprint — bit for bit, including the latency quantiles and the
    // mux counters.
    let cfg = DetLoadConfig {
        clients: 8,
        requests_per_client: 2,
        seed: 42,
        devices: 2,
        vgpus_per_device: 4,
        transport: DetTransport::Mux,
    };
    let runs = [run_det(&cfg), run_det(&cfg), run_det(&cfg)];
    let (ref report_a, ref a) = runs[0];
    assert_eq!(a.canonical(), runs[1].1.canonical(), "mux replay 2 diverged");
    assert_eq!(a.canonical(), runs[2].1.canonical(), "mux replay 3 diverged");

    // The fingerprint must come from the mux regime, not a silent local
    // fallback.
    assert_eq!(a.transport, "mux");
    assert!(a.metrics.mux_requests > 0, "no requests rode the mux wire");
    assert!(a.metrics.mux_channels as usize >= cfg.clients, "one channel per request context");
    assert_eq!(report_a.errors, 0);
    assert_eq!(report_a.completed, 16);
    assert!(a.p50_nanos > 0 && a.p99_nanos >= a.p50_nanos);

    // The wire is part of the fingerprint: a local-transport run of the
    // same shape reports a different transport label.
    let (_, local) = run_det(&DetLoadConfig { transport: DetTransport::Local, ..cfg });
    assert_ne!(a.canonical(), local.canonical());
}

#[test]
fn seed42_fingerprints_match_the_pinned_digests() {
    // What a refactor of the harness or of anything under it must not
    // move: FNV-1a of each canonical fingerprint at seed 42, captured on
    // the parent commit of PR 24 (bcf191b) before the three sequential
    // drivers were put on one harness core. A PR that changes a default on
    // purpose refreshes them — run this test, copy the printed `got` column
    // — and lists each fingerprint that moved, and why, in CHANGES.md.
    fn fnv1a(s: String) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }
    let mux = DetLoadConfig { transport: DetTransport::Mux, ..DetLoadConfig::default() };
    let got = [
        ("fig7_shape", fnv1a(run(DetScenario::fig7_shape(42)).canonical())),
        ("fig9_shape", fnv1a(run(DetScenario::fig9_shape(42)).canonical())),
        ("fault_shape", fnv1a(run(DetScenario::fault_shape(42)).canonical())),
        ("migration_shape", fnv1a(run(DetScenario::migration_shape(42)).canonical())),
        ("quota_shape", fnv1a(run(DetScenario::quota_shape(42)).canonical())),
        ("run_det local", fnv1a(run_det(&DetLoadConfig::default()).1.canonical())),
        ("run_det mux", fnv1a(run_det(&mux).1.canonical())),
    ];
    let pinned: [(&str, u64); 7] = [
        ("fig7_shape", 0xc0ef_d65b_c951_ef0a),
        ("fig9_shape", 0x8aab_a512_2b3d_f85c),
        ("fault_shape", 0xfd03_35aa_af4a_7ae4),
        ("migration_shape", 0x562a_4e43_6069_3c69),
        ("quota_shape", 0x2805_f843_8214_e7dd),
        ("run_det local", 0x4a15_0784_51d4_fa12),
        ("run_det mux", 0x6425_7034_4b45_48d5),
    ];
    assert_eq!(
        got.map(|(n, d)| format!("{n} {d:#018x}")),
        pinned.map(|(n, d)| format!("{n} {d:#018x}"))
    );
}
