#!/usr/bin/env bash
# CI tier ladder for the mtgpu workspace. Each tier must pass before the
# next runs; the whole script is what "CI green" means for a PR.
#
#   tier 0  formatting           non-test line count per crate and the
#                                settable fields of each configuration
#                                struct the node reads, with their sum
#                                (scripts/loc.sh, printed for the record;
#                                gated only on the memory manager's largest
#                                file, at most 600 lines), the counter's
#                                own check on a fixture whose test modules
#                                hold unbalanced braces in strings, chars
#                                and comments, then cargo fmt --check
#   tier 1  lints                cargo clippy --workspace -D warnings
#   tier 2  tests                cargo test -q --workspace, then by name
#                                in release (where the passes vectorise)
#                                the Black-Scholes payload's own exp and
#                                ln against libm (within an ulp over a
#                                strided sweep of every finite f32, exact
#                                on special values), its baseline and
#                                AVX2 builds pricing bit for bit, and the
#                                host buffer's one-pass f32 conversions
#                                byte for byte against the per-element
#                                ones (NaN payloads, ±0, ±inf, subnormals,
#                                a strided sweep of every bit pattern,
#                                trailing bytes), and the pipelined
#                                frontend's contract (a catalog-shaped job
#                                in 2 round trips pipelined and 13 eager,
#                                a server minting addresses or module
#                                handles off the rules getting a protocol
#                                error, a refused queued malloc surfacing
#                                at the next flush with its address never
#                                reused, a queued copy's error on every
#                                call of the flush that carries it, queued
#                                copies bounded by 1 MiB declared, a
#                                failed flush freeing the pointer it
#                                allocated, which calls wait and which
#                                ship at once) and a resident in-process
#                                launch allocating nothing in the runtime
#                                (counting allocator), an eager launch
#                                putting its caller to sleep at most 1.2
#                                times, over TCP and over a local
#                                connection alike; in debug, the reactor's
#                                runs (one per stretch of a channel's
#                                frames in a read, a duplicate ID shedding
#                                after the calls before it) and the
#                                gateway's run rule (a run of at most K
#                                fitting calls on the reactor in the
#                                sweep's one write, any other run one work
#                                item, a relayed channel forwarded its
#                                first run in order)
#   tier 3  determinism smoke    fig7 --quick --virtual-clock --seed 42 runs
#                                clean, then the sequential det-harness replay
#                                of the fig7 shape must be bit-identical, the
#                                persistent seed-42 loadgen det run must make
#                                exactly 150 round trips for its 4648
#                                requests, the
#                                pipelined-transfer fingerprint must be
#                                stable across three runs, as must the
#                                intra-application eviction order's (and it
#                                must differ from the run that never evicts)
#                                and the live-migration shape's
#   tier 4  dispatch stress      256 reconnecting clients on the node's
#                                reactor, once over local socketpairs (as
#                                loadgen connects) and once each dialing
#                                its TCP listener, under a 60s timeout
#                                each (every launch
#                                that cannot bind waits in the dispatcher's
#                                one queue, remote or in-process; the
#                                policy-over-the-wire test runs in tier 2),
#                                the 256-in-process-client stress of that
#                                queue (each client's own thread serves it
#                                and blocks in the dispatcher), the
#                                in-process wake-up budget (an eager launch
#                                puts no worker and no reactor to sleep)
#                                and the worker count (none on a node
#                                without a listener, total_vgpus + 4 on a
#                                listening one) by name, and the gateway
#                                work queue's two tests by name (one send
#                                wakes one of six parked workers; items
#                                from two senders are each taken once),
#                                the 10k-persistent-connection reactor soak
#                                (out-of-process daemon; the client holds
#                                its 10k connections on under 200 threads,
#                                a caller reads its own reply) under a 600s
#                                timeout, a --quick loadgen smoke that fails
#                                if the tenant fairness ratio exceeds 2.0,
#                                then a --quick memory-transfer bench smoke
#                                (two copy engines >= one, and the
#                                oversubscription rotation's h2d/d2h/eviction
#                                counts exactly as recorded),
#                                then the mtgpu-perf benchmark over all four
#                                workloads at 2 s each (non-zero exit unless
#                                every op verified and every post-drain
#                                audit held)
#   tier 5  static analysis      mtlint --deny over the workspace (all
#                                determinism rules + the ranked-lock
#                                constructor check + lock-graph cycle
#                                detection), then the debug-build ranked-
#                                lock test subset (seeded inversion panics,
#                                mid-swap fault never trips the checker)
#   tier 6  tenant isolation     the adversarial-tenant battery: quota-
#                                pressure deterministic replay must be
#                                bit-identical, the hostile wire battery
#                                over TCP (wire_robustness) and over the
#                                local AF_UNIX socketpairs in-process
#                                clients take (local_socket: each hostile
#                                peer shed alone, no hang around the
#                                reactor's end, no spin on a listener out
#                                of descriptors), the hostile launch
#                                arguments (a misaligned pointer, a scalar
#                                in a pointer slot, a 2^40-element count, a
#                                matrix multiplication declaring less work
#                                than it takes: typed errors, and the
#                                node's reactor keeps answering), hostile
#                                pricing inputs (NaN, ±inf, ±0, negatives
#                                and denormals priced as the host
#                                reference prices them), the
#                                mid-preemption
#                                fault case and the no-leak tests (a
#                                device buffer recycled from one tenant's
#                                free reads as zeros to the next, in the
#                                device model and through a victim's
#                                swap-out at runtime level) must pass,
#                                then loadgen --profile hostile must hold
#                                a greedy tenant to its lease (zero
#                                over-quota grants) with honest p99 within
#                                2x of the hostile-free baseline
#                                (results/BENCH_isolation.json)
#   tier 7  live migration       the migration fault battery (device death
#                                at each protocol phase leaves every PTE
#                                classifiable, the context all-or-nothing),
#                                cross-node staging, then a --quick
#                                skewed-profile smoke (load balancing on
#                                must at least match static placement; the
#                                full 1.3x gate is the same loadgen profile,
#                                run by bench.sh — there is no bench target
#                                for it; the 3-run replay fingerprint of the
#                                migrating shape is tier 3's)
#   tier 8  race detection       mtcheck (debug build, instrumentation
#                                armed): the DPOR-lite explorer over the
#                                twelve workspace scenarios (inline-vs-visit,
#                                the reactor running a channel's calls
#                                against a worker's visit and a dispatcher
#                                wake, retry-vs-free, a launch waiting
#                                for room against its co-tenant's Free and
#                                teardown, and run-vs-letgo, a channel's
#                                runs landing on a visit that lets go,
#                                among them) must pass clean with
#                                >=50 distinct schedules per scenario
#                                (retry-vs-free, named on its own: >=200)
#                                under a watchdog timeout, the seeded race
#                                fixture must be *detected* (nonzero exit
#                                under --deny), and the engine's fixture
#                                corpus + pinned-schedule regressions (and
#                                the grant-vs-park, inline-vs-visit,
#                                retry-vs-free and run-vs-letgo sweeps) +
#                                replay property
#                                must pass
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
    run_tier 0 "non-test line count, settable fields + cargo fmt --check"
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
    # build its passes vectorise, and on x86_64 run in a baseline and an
    # AVX2 build that must price bit for bit alike.
    cargo test -q --release -p mtgpu-workloads --lib -- --exact \
        apps::blackscholes::tests::exp_and_ln_stay_within_an_ulp_of_libm \
        apps::blackscholes::tests::exp_and_ln_match_libm_exactly_on_special_values \
        apps::blackscholes::tests::baseline_and_avx2_builds_price_bit_for_bit > /dev/null
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
    # A launch whose working set is resident costs the runtime no heap
    # allocation: pinned in release too.
    cargo test -q --release -p mtgpu-core --test launch_allocations > /dev/null
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
    run_tier 4 "dispatch stress + 10k soak + loadgen fairness smoke"
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
    # a per-seed floor (about 1.6 at the default seed 42). Over ~15 ms of
    # wall time on two vCPUs the gate is noisy: on the unchanged PR 15
    # parent one run was above 2.0 in 59 % of 150 (EXPERIMENTS.md,
    # "Tier-4 fairness smoke"). Rerun before suspecting the scheduler.
    ./target/release/loadgen --quick --max-fairness 2.0 \
        --out target/ci-loadgen-quick.json > /dev/null
    # Transfer-pipelining + oversubscription smoke: materialize on two
    # copy engines must at least match the same device with one (the full
    # 1.4x gate runs via bench.sh), and the oversubscription rotation must
    # move exactly the bytes and evict exactly the entries it did when the
    # eviction order was chosen (counters, so no noise).
    cargo bench -q -p mtgpu-bench --bench memory -- --quick --gate 1.0 \
        --out "$PWD/target/ci-bench-memory.json" 2> /dev/null
    # The repository benchmark (BENCHMARK.json), short: every op of every
    # workload is verified and every pass ends in a post-drain audit, so a
    # non-zero exit is a correctness failure, not a slow run.
    cargo run -q --release -p mtgpu-perf -- --workload all --seconds 2 > /dev/null
    echo "256-client stress (local + TCP + in-process) + in-process wake-ups + work queue + 10k soak + loadgen fairness + memory bench smoke + perf workloads: ok"
fi

if [[ "$tier" == "all" || "$tier" == "5" ]]; then
    run_tier 5 "mtlint --deny + ranked-lock checker tests"
    # Workspace must lint clean (every escape hatch carries a reason) and
    # the extracted lock graph must be acyclic; artifacts land in results/.
    cargo run -q -p mtgpu-analysis --bin mtlint -- --deny
    # Runtime half of the discipline, debug build (checker armed): the
    # seeded two-thread inversion must panic deterministically, and a
    # device death mid-swap must never trip the checker.
    cargo test -q -p mtgpu-simtime --test ranked_lock > /dev/null
    cargo test -q --test fault_matrix \
        device_failure_mid_swap_never_trips_lock_checker > /dev/null
    echo "mtlint workspace-clean + lock-graph acyclic + ranked-lock tests: ok"
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
    # hostile-free baseline.
    ./target/release/loadgen --profile hostile --quick --max-degradation 2.0 \
        --out results/BENCH_isolation.json > /dev/null
    echo "quota-pressure replay + hostile wire/launch/fault battery + no-leak + isolation gate: ok"
fi

if [[ "$tier" == "all" || "$tier" == "7" ]]; then
    run_tier 7 "live-migration fault battery + staging + skewed smoke"
    cargo build -q --release -p mtgpu-loadgen --bin loadgen
    # Device death at every protocol phase (quiesce/transfer/rebind/
    # resume, source and destination) must leave all PTEs classifiable,
    # the lease book balanced, and the context fully on one side.
    cargo test -q --test fault_matrix \
        live_migration_fault_battery_each_phase_leaves_state_classifiable > /dev/null
    # Cross-node staging: pointers intact on the new node, failed import
    # leaves the source runnable.
    cargo test -q -p mtgpu-cluster --test stage_migration > /dev/null
    # Skewed smoke: the load-balanced pass must migrate, keep p99, and at
    # least match static placement (bench.sh runs this profile in full
    # against the 1.3x gate).
    ./target/release/loadgen --profile skewed --quick --min-speedup 1.0 \
        --out target/ci-migration-quick.json > /dev/null
    echo "migration fault battery + staging + skewed smoke: ok"
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
