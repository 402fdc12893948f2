#!/usr/bin/env bash
# CI tier ladder for the mtgpu workspace. Each tier must pass before the
# next runs; the whole script is what "CI green" means for a PR. What each
# tier runs by name, and why, is written once, in the tier's code below.
#
#   tier 0  non-test line count and settable fields (scripts/loc.sh), trajectory.py's verdict
#           fixture, pair.sh syntax, cargo fmt --check
#   tier 1  cargo clippy --workspace --all-targets -D warnings
#   tier 2  cargo test --workspace, then pinned tests by name, most in release
#   tier 3  determinism: seeded fig7 smoke, det-harness replays and fingerprints
#   tier 4  dispatch stress, 10k soak, loadgen fairness, memory-manager gates, perf smokes
#   tier 5  mtlint --deny and the ranked-lock checker tests
#   tier 6  tenant isolation: replay, hostile wire/launch/fault battery, no-leak, p99 gate
#   tier 7  live migration: fault battery, cross-node staging, skewed gate
#   tier 8  mtcheck race detection: scenario matrix, seeded fixture, regressions
#
# Usage: scripts/ci.sh [tier]   (default: all tiers)

set -euo pipefail
cd "$(dirname "$0")/.."

tier="${1:-all}"
case "$tier" in
all | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8) ;;
*)
    echo "unknown tier '$tier' (expected 0, 1, 2, 3, 4, 5, 6, 7, 8 or all)" >&2
    exit 2
    ;;
esac

run_tier() {
    echo "==> tier $1: $2"
}

if [[ "$tier" == "all" || "$tier" == "0" ]]; then
    run_tier 0 "non-test line count, settable fields, verdict fixture + cargo fmt --check"
    loc=$(bash scripts/loc.sh)
    echo "$loc"
    # One file per seam in the memory manager: none over 600 non-test lines.
    awk '/largest file under crates\/core\/src\/memory/ && $1 > 600 { exit 1 }' <<< "$loc" ||
        { echo "a file under crates/core/src/memory exceeds 600 lines" >&2; exit 1; }
    # The counter itself: braces in a test module's literals and comments
    # must not end it early or keep it open (nine lines of code outside
    # the fixture's two test modules).
    [[ $(bash scripts/loc.sh --count scripts/loc_fixture.rs) == 9 ]] ||
        { echo "scripts/loc.sh miscounts scripts/loc_fixture.rs" >&2; exit 1; }
    # The verdict math a claim is judged by (scripts/pair.sh hands every
    # session to it): two three-run report files, and the rows and table
    # worked out by hand for them.
    fixture=scripts/trajectory_fixture
    mkdir -p target
    python3 scripts/trajectory.py "$fixture/parent.jsonl" "$fixture/change.jsonl" \
        --parent-sha 1111111 --change-sha 2222222 --seed 7 --seconds 20 \
        > target/ci-trajectory.jsonl 2> target/ci-trajectory.stderr
    diff "$fixture/expected.jsonl" target/ci-trajectory.jsonl
    diff "$fixture/expected.stderr" target/ci-trajectory.stderr
    bash -n scripts/pair.sh
    cargo fmt --all -- --check
fi

if [[ "$tier" == "all" || "$tier" == "1" ]]; then
    run_tier 1 "cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

if [[ "$tier" == "all" || "$tier" == "2" ]]; then
    run_tier 2 "cargo test"
    cargo test -q --workspace
    # The Black-Scholes payload brings its own exp and ln; in the release
    # build its passes vectorise, and on x86_64 run in a baseline, an AVX2
    # and an AVX-512 build, each of which must price bit for bit like the
    # scalar `price`. After its first launch on a thread a catalog-sized
    # launch allocates nothing, and a larger one keeps nothing it grew.
    cargo test -q --release -p mtgpu-workloads --lib -- --exact \
        apps::blackscholes::tests::exp_and_ln_stay_within_an_ulp_of_libm \
        apps::blackscholes::tests::exp_and_ln_match_libm_exactly_on_special_values \
        apps::blackscholes::tests::every_build_prices_bit_for_bit_like_price > /dev/null
    cargo test -q --release -p mtgpu-workloads --test payload_allocations > /dev/null
    # The host buffer converts f32 payloads in one pass each way; in the
    # release build those passes vectorise, so they are pinned there too.
    # The pipelined frontend's round trips, deferred errors and byte
    # bound are pinned in the build the benchmark runs.
    cargo test -q --release -p mtgpu-api --lib -- --exact \
        host_buf::tests::f32_conversions_match_the_per_element_reference_on_special_values \
        host_buf::tests::f32_conversions_match_the_per_element_reference_over_a_strided_sweep \
        host_buf::tests::f32_conversions_ignore_trailing_bytes_and_declare_the_payload \
        transport::tests::pipelined_catalog_job_is_two_round_trips_and_eager_thirteen \
        transport::tests::a_server_minting_off_the_rules_gets_a_protocol_error_not_an_alias \
        transport::tests::a_refused_queued_malloc_surfaces_on_the_next_flush_and_its_address_stays_unused \
        transport::tests::deferred_copy_error_surfaces_on_every_call_of_the_flush \
        transport::tests::queued_copies_ship_with_the_copy_that_crosses_keep_bytes \
        transport::tests::failed_flush_frees_the_pointer_it_allocated \
        transport::tests::every_call_with_a_known_reply_but_a_sync_or_admission_point_waits \
        > /dev/null
    # A launch whose working set is resident, and one that swaps a
    # co-tenant out whole to bring its own set in, cost the runtime no heap
    # allocation: pinned in release too.
    cargo test -q --release -p mtgpu-core --test launch_allocations > /dev/null
    # The same two launches in device calls and argument walks: a resident
    # one is the launch alone and one walk, a swapping one six batched
    # calls and one walk. A device batch gives every op the outcome, the
    # bytes and the time the op gives alone.
    cargo test -q --release -p mtgpu-core --test launch_calls -- --exact \
        a_resident_launch_is_one_device_call_and_one_walk \
        a_swapping_launch_is_six_device_calls_and_one_walk > /dev/null
    cargo test -q --release -p mtgpu-gpusim --test copy_batches -- --exact \
        copy_batches_match_single_copies \
        malloc_and_free_batches_match_single_calls > /dev/null
    # A Copy_HD reads back only what it leaves of a kernel's output: a
    # covering copy moves no device bytes, a partial one merges, a
    # refused one touches nothing, pinned in the build the benchmark runs.
    cargo test -q --release --test table1_semantics -- --exact \
        covering_copy_hd_supersedes_kernel_output_without_reading_it \
        partial_copy_hd_merges_into_kernel_output > /dev/null
    cargo test -q --release --test proptests -- --exact copy_hd_is_sync_then_write > /dev/null
    cargo test -q --release -p mtgpu-core --lib -- --exact \
        memory::manager::tests::a_refused_copy_into_a_kernel_written_entry_touches_nothing \
        > /dev/null
    # A caller sleeps once per eager launch, for its replies, over both
    # socket families: a local connection's request side is not the
    # socket its caller reads, so draining a request wakes nobody.
    cargo test -q --release -p mtgpu-cluster --test wakeup_budget -- --exact \
        an_eager_launch_puts_caller_and_reactor_to_sleep_once_each_and_no_worker \
        an_eager_launch_over_a_local_connection_puts_the_caller_to_sleep_once_as_over_tcp \
        > /dev/null
    # The reactor hands a channel's frames over as runs; the gateway serves
    # a run on the reactor only whole, or hands it to the pool as one item.
    cargo test -q -p mtgpu-api --lib -- --exact \
        transport::reactor::tests::one_read_reaches_the_service_as_one_run_per_stretch_of_a_channel \
        transport::reactor::tests::a_duplicate_id_inside_a_run_sheds_the_connection_after_the_calls_before_it \
        > /dev/null
    cargo test -q -p mtgpu-core --lib -- --exact \
        mux::tests::a_run_of_at_most_k_fitting_calls_on_an_idle_channel_runs_on_the_reactor \
        mux::tests::a_run_with_an_exit_an_unfit_copy_or_more_than_k_calls_goes_to_the_pool_whole \
        mux::tests::a_run_the_reactor_serves_leaves_in_the_sweeps_one_write \
        mux::tests::a_long_flush_read_as_two_runs_is_the_pools_whole_and_keeps_order \
        mux::tests::pipelined_flush_costs_one_hand_off_per_visit_budget_and_keeps_order \
        mux::tests::a_channel_relayed_at_its_first_run_gets_the_whole_run_in_order \
        mux::tests::relayed_channel_is_forwarded_in_order_and_leaves_the_map_when_its_relay_ends \
        > /dev/null
fi

if [[ "$tier" == "all" || "$tier" == "3" ]]; then
    run_tier 3 "seeded fig7 smoke on the virtual clock"
    # The figure binary measures *concurrent* clients, so its swap counts
    # may vary run to run; the smoke asserts it completes and verifies.
    cargo build -q --release -p mtgpu-bench --bin fig7
    ./target/release/fig7 --quick --virtual-clock --seed 42 > /dev/null
    # Bit-for-bit replay is the sequential det harness's contract:
    cargo test -q --test deterministic_repro fig7_shape_seed42 -- --exact \
        fig7_shape_seed42_replays_bit_for_bit > /dev/null
    # `loadgen --persistent --virtual-clock --seed 42` as an exact count:
    # pipelined catalog jobs wait only on downloads, `Exit` and a full
    # queue (150 round trips for the same 4648 requests the server sees).
    cargo test -q -p mtgpu-loadgen --lib -- --exact \
        det::tests::persistent_seed42_run_is_150_round_trips_for_4648_requests > /dev/null
    # Copy-engine pipelining must not perturb replay: three runs of a
    # multi-engine shape must produce one canonical fingerprint.
    cargo test -q --test deterministic_repro pipelined -- --exact \
        pipelined_path_fingerprint_stable_across_three_runs > /dev/null
    # The intra-application eviction order must replay bit-for-bit (3
    # runs, one fingerprint) and show in it (the same client with a
    # working set that fits tells a different story).
    cargo test -q --test deterministic_repro eviction_policy -- --exact \
        eviction_policy_fingerprints_stable_and_divergent > /dev/null
    # Live migration driven by the load-balancing pass must replay
    # bit-for-bit: three runs of the churned migration shape collapse to
    # one fingerprint (and load balancing off means zero migrations and a
    # diverging fingerprint).
    cargo test -q --test deterministic_repro migration_rebalancer -- --exact \
        migration_rebalancer_fingerprint_stable_across_three_runs > /dev/null
    echo "fig7 smoke + seed-42 det replay + round-trip count + pipelined/policy/migration fingerprints: ok"
fi

if [[ "$tier" == "all" || "$tier" == "4" ]]; then
    run_tier 4 "dispatch stress + 10k soak + loadgen fairness smoke + memory-manager gates"
    cargo build -q --release -p mtgpu --test dispatch_stress
    cargo build -q --release -p mtgpu-loadgen --bin loadgen
    # The 10k soak drives a separate node_daemon process (10k sockets per
    # side under the per-process fd limit).
    cargo build -q --release -p mtgpu-cluster --bin node_daemon
    # The full 256-client stress over the wire, local and TCP, must finish
    # well inside a minute; a gateway or dispatcher deadlock or lost wakeup
    # shows up as the timeout firing.
    timeout 60 cargo test -q --release --test dispatch_stress -- --ignored \
        --exact dispatch_stress_256_reconnecting_clients
    timeout 60 cargo test -q --release --test dispatch_stress -- --ignored \
        --exact dispatch_stress_256_tcp_clients
    # The same queue with the wire and the gateway taken out: 256
    # in-process clients, each served by its own thread, and the sleeps an
    # in-process launch costs the node's serving threads (none), and the
    # serving threads a node has with and without a listener.
    timeout 60 cargo test -q --release --test dispatch_stress -- \
        --exact dispatch_stress_256_in_process_clients
    cargo test -q --release -p mtgpu-cluster --test wakeup_budget -- \
        --exact an_eager_in_process_launch_puts_no_serving_thread_to_sleep > /dev/null
    cargo test -q --release -p mtgpu-cluster --test wakeup_budget -- \
        --exact worker_threads_start_with_the_listener > /dev/null
    # The pool's hand-off itself: a send wakes one parked worker, and no
    # item is lost or taken twice.
    cargo test -q --release -p mtgpu-core --lib -- --exact \
        mux::tests::work_queue_send_wakes_exactly_one_of_n_parked_workers \
        mux::tests::work_queue_items_from_several_senders_are_each_taken_once > /dev/null
    # 10k persistent connections multiplexed through one reactor, each
    # probed end-to-end, the client's thread count checked with all of them
    # open; a stalled reactor shows up as the timeout firing.
    timeout 600 cargo test -q --release --test dispatch_stress -- --ignored \
        --exact dispatch_soak_10k_persistent_connections
    # Closed-loop smoke: the max/min tenant completion-time ratio gates
    # scheduling fairness. Tenants issue the same number of requests but
    # each draws its own jobs, so demand is not identical and the ratio has
    # a per-seed floor (about 1.6 at the default seed 42). It judges 16
    # requests over about 4 ms of wall time, so on two vCPUs host noise
    # alone turns it red now and then: at commit d880673, run alone, 7 of
    # 300 runs read above 2.0 (2.11-3.59, about 2.3 %; ROADMAP.md).
    # Rerun before suspecting the scheduler.
    ./target/release/loadgen --quick --max-fairness 2.0 \
        --out target/ci-loadgen-quick.json > /dev/null
    # The memory manager on the virtual clock, exact: a C2050's two copy
    # engines each carry half of what one engine carries when 16 buffers
    # are swapped in and out, and the oversubscription rotation moves
    # exactly the bytes and evicts exactly the entries it did when the
    # victim order was chosen.
    cargo test -q -p mtgpu-core --lib -- --exact \
        memory::residency::tests::two_copy_engines_each_carry_half_of_a_swap_in_and_of_a_swap_out \
        memory::residency::tests::the_victim_order_streams_stale_clean_buffers_past_a_dirty_hot_set \
        > /dev/null
    # The repository benchmark (BENCHMARK.json), short: every op of every
    # workload is verified and every pass ends in a post-drain audit, so a
    # non-zero exit is a correctness failure, not a slow run.
    cargo run -q --release -p mtgpu-perf -- --workload all --seconds 2 > /dev/null
    echo "256-client stress (local + TCP + in-process) + in-process wake-ups + work queue + 10k soak + loadgen fairness + memory-manager gates + perf workloads: ok"
fi

if [[ "$tier" == "all" || "$tier" == "5" ]]; then
    run_tier 5 "mtlint --deny + ranked-lock checker tests"
    # Workspace must lint clean (every escape hatch carries a reason); the
    # report lands in results/. The rank table's order is a build check.
    cargo run -q -p mtgpu-analysis --bin mtlint -- --deny
    # Runtime half of the discipline, debug build (checker armed): the
    # seeded two-thread inversion must panic deterministically, and a
    # device death mid-swap must never trip the checker.
    cargo test -q -p mtgpu-simtime --test ranked_lock > /dev/null
    cargo test -q --test fault_matrix \
        device_failure_mid_swap_never_trips_lock_checker > /dev/null
    echo "mtlint workspace-clean + ranked-lock tests: ok"
fi

if [[ "$tier" == "all" || "$tier" == "6" ]]; then
    run_tier 6 "adversarial-tenant isolation battery"
    cargo build -q --release -p mtgpu-loadgen --bin loadgen
    # Every policy decision must replay bit-for-bit: three runs of the
    # quota-pressure shape (admission rejections, a lease expiry, reaping)
    # collapse to one fingerprint.
    cargo test -q --test deterministic_repro quota_pressure -- --exact \
        quota_pressure_with_lease_expiry_replays_bit_for_bit > /dev/null
    # Hostile wire battery: malformed/oversized/tampered descriptors must
    # bounce with typed errors before dispatch.
    cargo test -q -p mtgpu-api --test wire_robustness > /dev/null
    # The same reactor-level hostile peers over local socketpairs, the
    # local path's lifecycle, and a listener out of descriptors.
    cargo test -q -p mtgpu-api --test local_socket > /dev/null
    # A kernel payload meeting hostile launch arguments, or a launch that
    # declares less work than its payload would do, answers its caller
    # with a typed error; hostile values in well-formed buffers price as
    # the host reference prices them; the reactor that serves every tenant
    # keeps answering the next connection.
    cargo test -q -p mtgpu-cluster --test hostile_launch -- --exact \
        hostile_launch_arguments_get_typed_errors_and_the_node_keeps_serving \
        matmul_declaring_less_work_than_it_takes_is_refused_and_the_node_keeps_serving \
        hostile_pricing_inputs_price_as_the_host_reference_and_the_node_keeps_serving \
        > /dev/null
    # A device dying mid-preemption must leave victims classifiable and
    # the lease book consistent.
    cargo test -q --test fault_matrix \
        device_failure_mid_preemption_keeps_victim_classifiable_and_leases_consistent \
        > /dev/null
    # No tenant's bytes survive its free: the shadow buffer a device
    # recycles for the next allocation reads as zeros past the new owner's
    # writes, through a kernel and through D2H.
    cargo test -q -p mtgpu-gpusim --lib -- --exact \
        device::tests::recycled_buffer_no_leak > /dev/null
    cargo test -q -p mtgpu-core --test runtime_e2e -- --exact \
        recycled_buffer_no_leak_across_tenants > /dev/null
    # The isolation gate proper: greedy tenants held to their leases
    # (zero over-quota grants) and honest p99 within 2x of the
    # hostile-free baseline. The p99 ratio is wall-clock noise over about
    # a second of work: 300 runs of this step alone on an unchanged tree
    # (two vCPUs) read over 2.0 in 5 (1.7 %; 2.24-2.45, and one 10.2),
    # median 1.15, p90 1.36; a second 300 with builds beside them, 1. A
    # single red is a rerun, not a regression (EXPERIMENTS.md).
    ./target/release/loadgen --profile hostile --quick --max-degradation 2.0 \
        --out results/BENCH_isolation.json > /dev/null
    echo "quota-pressure replay + hostile wire/launch/fault battery + no-leak + isolation gate: ok"
fi

if [[ "$tier" == "all" || "$tier" == "7" ]]; then
    run_tier 7 "live-migration fault battery + staging + skewed gate"
    cargo build -q --release -p mtgpu-loadgen --bin loadgen
    # Device death at every protocol phase (quiesce/transfer/rebind/
    # resume, source and destination) must leave all PTEs classifiable,
    # the lease book balanced, and the context fully on one side.
    cargo test -q --test fault_matrix \
        live_migration_fault_battery_each_phase_leaves_state_classifiable > /dev/null
    # Cross-node staging: pointers intact on the new node, failed import
    # leaves the source runnable.
    cargo test -q -p mtgpu-cluster --test stage_migration > /dev/null
    # Skewed gate: the load-balanced pass must migrate, keep p99, and
    # deliver 1.3x static placement's throughput. The profile runs on the
    # virtual clock, one request at a time, so the ratio is exact
    # (1.516786416394467 at seed 42) and the full profile takes well under
    # a second.
    ./target/release/loadgen --profile skewed --min-speedup 1.3 \
        --out target/ci-migration.json > /dev/null
    echo "migration fault battery + staging + skewed gate: ok"
fi

if [[ "$tier" == "all" || "$tier" == "8" ]]; then
    run_tier 8 "mtcheck race detection + schedule exploration"
    # Debug build on purpose: the vector-clock hooks are compiled out of
    # release binaries (mtcheck refuses to run there).
    cargo build -q -p mtgpu-analysis --bin mtcheck
    # The workspace matrix must explore clean — >=50 distinct schedules
    # per scenario, no races/deadlocks/stalls — inside the watchdog. The
    # run-to-completion race and the unbind-and-retry wait are named on
    # their own as well, so dropping either from the matrix cannot pass
    # unnoticed; so is the run rule against a visit that lets go.
    timeout 300 ./target/debug/mtcheck explore --deny
    timeout 120 ./target/debug/mtcheck explore --deny --scenario inline-vs-visit \
        --out target/ci-mtcheck-inline > /dev/null
    timeout 120 ./target/debug/mtcheck explore --deny --scenario run-vs-letgo \
        --out target/ci-mtcheck-runs > /dev/null
    timeout 120 ./target/debug/mtcheck explore --deny --scenario retry-vs-free \
        --budget 400 --min-distinct 200 --out target/ci-mtcheck-retry > /dev/null
    # The seeded fixture is the detector's self-test: its race must be
    # found, which under --deny is a nonzero exit. Artifacts go to a
    # scratch dir so the matrix report in results/ stays authoritative.
    if timeout 120 ./target/debug/mtcheck explore --deny --scenario fixture-race \
        --min-distinct 1 --out target/ci-mtcheck-fixture > /dev/null; then
        echo "mtcheck failed to detect the seeded race fixture" >&2
        exit 1
    fi
    # Engine fixture corpus (true race / lock-ordered / condvar handoff /
    # lost wakeup / bit-for-bit replay), then the explorer's pinned
    # schedules (and the grant-vs-park, inline-vs-visit, retry-vs-free and
    # run-vs-letgo sweeps) and the generative replay-determinism property.
    cargo test -q -p mtgpu-simtime --test mtcheck > /dev/null
    cargo test -q -p mtgpu-analysis --test check > /dev/null
    cargo test -q -p mtgpu-analysis --test replay_prop > /dev/null
    echo "mtcheck matrix clean + fixture detected + regressions + replay property: ok"
fi

echo "CI: all requested tiers passed"
