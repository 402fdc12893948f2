//! Integration tests for the mtcheck half: scenario-matrix sanity, the
//! seeded fixture's detection, and pinned-schedule regressions over the
//! dispatcher / lease-book / memory-manager paths. The engine needs the
//! debug-build instrumentation, so everything is compiled out in release.
#![cfg(all(debug_assertions, feature = "check"))]

use mtgpu_analysis::check::{explore, parse_schedule_id, scenarios, schedule_id};

#[test]
fn matrix_has_twelve_clean_scenarios_plus_the_fixture() {
    let clean: Vec<_> =
        scenarios::all().iter().filter(|s| s.expect_clean).map(|s| s.name).collect();
    assert_eq!(
        clean,
        [
            "dispatcher-churn",
            "swap-vs-free",
            "lease-admit-vs-reap",
            "migrate-vs-launch",
            "victim-swap-vs-owner",
            "reply-vs-retire",
            "lead-vs-follow",
            "grant-vs-park",
            "inline-vs-visit",
            "cancel-vs-grant",
            "retry-vs-free",
            "run-vs-letgo"
        ]
    );
    let fixture = scenarios::find("fixture-race").expect("fixture scenario");
    assert!(!fixture.expect_clean);
}

#[test]
fn seeded_fixture_race_is_detected() {
    let fixture = scenarios::find("fixture-race").unwrap();
    let report = explore::explore_scenario(fixture, 8);
    assert!(
        report.violations.iter().any(|v| v.kind == "race"),
        "the detector must flag the seeded race: {:?}",
        report.violations
    );
    assert!(report.passed(), "the fixture's expectation is the detection itself");
}

#[test]
fn workspace_scenarios_explore_clean_on_a_small_budget() {
    for scn in scenarios::all().iter().filter(|s| s.expect_clean) {
        let report = explore::explore_scenario(scn, 10);
        assert!(
            report.violations.is_empty(),
            "{}: unexpected violations {:?}",
            scn.name,
            report.violations
        );
        assert!(report.distinct() >= 2, "{}: exploration found no branching", scn.name);
    }
}

/// Pinned-schedule regressions: one adversarial interleaving per runtime
/// path, replayed twice — the verdict must be clean and the replay
/// bit-for-bit. If a future change introduces an unordered access on one
/// of these paths, the pinned schedule re-derives it deterministically.
#[test]
fn pinned_schedules_stay_clean_and_replay_identically() {
    let pins: &[(&str, &str)] = &[
        // Let ctx B win the dispatcher's lock first, then alternate.
        ("dispatcher-churn", "s:1.0.1"),
        // Frees overtake the first malloc.
        ("swap-vs-free", "s:1.1.0"),
        // The reaper expires the lease before any admit runs.
        ("lease-admit-vs-reap", "s:1"),
        // Migration planning preempts the launch-closure walk.
        ("migrate-vs-launch", "s:1.1"),
        // The owner is first to its service lock and the reader looks in
        // mid-free: the requester's try meets a busy or an emptied victim.
        ("victim-swap-vs-owner", "s:1.1.2.1"),
        // The retire wins the table before either worker has looked up
        // the connection: every reply is dropped.
        ("reply-vs-retire", "s:2.2"),
        // The second caller to send reads; the first goes to sleep behind
        // it. The reader's own reply is the first real one to arrive, so it
        // leaves with the sleeper's still buffered: only the hand-off wakes
        // the sleeper, which decodes that reply before it reads (nine
        // decisions deep, past the default breadth-first budget).
        ("lead-vs-follow", "s:0.1.0.1.0.0.1.1.1"),
        // The releasing visit overtakes the queueing one at its start.
        ("grant-vs-park", "s:1.1.1"),
        // A worker serves the waiter's queued calls and lets the channel go;
        // the reactor then runs the next two itself, the launch finds the
        // hog still bound and waits in the dispatcher, and the hog's
        // teardown wakes the channel for the pool.
        ("inline-vs-visit", "s:1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1.1"),
        // The late arrival polls before the release, the cancel goes last.
        ("cancel-vs-grant", "s:2.0.2"),
    ];
    for (name, id) in pins {
        let scn = scenarios::find(name).unwrap();
        let prefix = parse_schedule_id(id).unwrap();
        let a = explore::replay(scn, &prefix);
        let b = explore::replay(scn, &prefix);
        assert!(a.clean(), "{name} {id}: {:?} {:?} {:?}", a.races, a.deadlock, a.panics);
        assert_eq!(a.fingerprint, b.fingerprint, "{name} {id}: replay diverged");
        assert_eq!(a.events, b.events, "{name} {id}");
        assert_eq!(a.decisions, b.decisions, "{name} {id}");
        // The pin must actually steer: it names a real decision prefix.
        assert!(a.decisions.len() >= prefix.len(), "{name} {id}: schedule underran its prefix");
    }
}

/// The enqueue-after-requeue rule of the serving path (DESIGN.md §12): a
/// visit whose launch finds no vGPU puts the launch back at the head of its
/// channel *before* it queues the context in the dispatcher, because a grant
/// that fires inside `enqueue` hands the channel to whichever worker is
/// free at once. The interleaving that would expose the other order — the
/// release lands between the failed poll and the enqueue, and a third worker
/// takes the woken channel before the first is out — is some forty
/// consecutive flips deep, so it is swept, not searched: the queueing visit
/// (participant 0) runs `k` segments, the releasing visit (1) runs up to
/// `m` in one go and the first resumes for the rest of them, then the third
/// worker (2) runs to completion. Swapping the two steps in
/// `mux::serve_channel` fails this sweep (first at `k` = 21, `m` = 28: the
/// third worker answers the call behind the launch and the replies leave
/// out of call order).
///
/// A schedule entry is an index into the enabled participants, sorted by id,
/// taken modulo their number. With three participants that makes 0 the
/// lowest enabled id and 5 (−1 modulo 1, 2 and 3) the highest; 4 is index 1
/// of three and index 0 of two, which, as long as the third worker has yet
/// to start and so is enabled, is the releasing visit when it can run and
/// the queueing one when it cannot.
#[test]
fn grant_vs_park_holds_wherever_the_release_and_a_third_worker_cut_into_the_visit() {
    const QUEUEING: u32 = 0;
    const RELEASING_ELSE_QUEUEING: u32 = 4;
    const THIRD: u32 = 5;
    let scn = scenarios::find("grant-vs-park").unwrap();
    for k in 8..36 {
        for m in (12..44).step_by(2) {
            let mut schedule = vec![QUEUEING; k];
            schedule.extend(std::iter::repeat_n(RELEASING_ELSE_QUEUEING, m));
            schedule.extend(std::iter::repeat_n(THIRD, 128));
            let run = explore::replay(scn, &schedule);
            let pin: Vec<u32> = run.decisions.iter().map(|d| d.chosen).collect();
            assert!(
                run.clean(),
                "k={k} m={m} ({}): {:?} {:?} {:?} stalled={}",
                schedule_id(&pin),
                run.races,
                run.deadlock,
                run.panics,
                run.stalled
            );
        }
    }
}

#[test]
fn schedule_ids_round_trip_through_the_report() {
    let scn = scenarios::find("dispatcher-churn").unwrap();
    let report = explore::explore_scenario(scn, 6);
    for sched in &report.schedules {
        let prefix = parse_schedule_id(&sched.id).unwrap();
        assert_eq!(schedule_id(&prefix), sched.id);
        let run = explore::replay(scn, &prefix);
        assert_eq!(
            run.fingerprint, sched.fingerprint,
            "{}: recorded fingerprint must replay bit-for-bit",
            sched.id
        );
    }
}

/// Run-to-completion against a visit (DESIGN.md §12), swept: a worker
/// (participant 1) runs `k` segments before the reactor (0) hands over its
/// run of three calls, then everyone runs in id order. Small `k` puts the
/// run inside the worker's visit — before it pops, between its calls, in the
/// window after it posts and before it looks again — where it must queue
/// behind it; from `k` = 15 the channel is idle and the reactor runs the
/// calls itself, its launch waiting in the dispatcher for the hog's teardown
/// up to `k` = 29 and binding at once from 30. Every cut must keep
/// one thread per channel, each call once and call order.
#[test]
fn inline_vs_visit_holds_wherever_the_reactor_cuts_into_the_visit() {
    const REACTOR: u32 = 0;
    const WORKER: u32 = 1;
    let scn = scenarios::find("inline-vs-visit").unwrap();
    for k in 0..64 {
        let mut schedule = vec![WORKER; k];
        schedule.extend(std::iter::repeat_n(REACTOR, 256));
        let run = explore::replay(scn, &schedule);
        let pin: Vec<u32> = run.decisions.iter().map(|d| d.chosen).collect();
        assert!(
            run.clean(),
            "k={k} ({}): {:?} {:?} {:?} stalled={}",
            schedule_id(&pin),
            run.races,
            run.deadlock,
            run.panics,
            run.stalled
        );
    }
}

/// Unbind-and-retry against the room event that ends its wait (DESIGN.md
/// §9), swept: the launch (participant 0) runs `k` segments, the holder's
/// Free on its worker (1) runs whole — the launch going on while it waits
/// for a lock — then the launch runs on, then the holder's hang-up (2).
/// Small `k` frees before the launch looks (no retry); `k` = 24–38 lands
/// the Free after the launch found the device short but before its entry
/// is queued — the window only the enqueue's and placement's look at the
/// memory free now cover: without both, exactly these fail — and from 39
/// on the entry is queued and the Free wakes it (without the Free's room
/// event, every `k` from 43 on fails).
#[test]
fn retry_vs_free_holds_wherever_the_free_cuts_into_the_launch() {
    const LAUNCH: u32 = 0;
    const FREE_ELSE_LAUNCH: u32 = 4;
    const TEARDOWN: u32 = 5;
    /// The Free between the failed look and the enqueue.
    const IN_THE_WINDOW: usize = 29;
    let scn = scenarios::find("retry-vs-free").unwrap();
    let schedule = |k: usize| {
        let mut schedule = vec![LAUNCH; k];
        schedule.extend(std::iter::repeat_n(FREE_ELSE_LAUNCH, 64));
        schedule.extend(std::iter::repeat_n(LAUNCH, 64));
        schedule.extend(std::iter::repeat_n(TEARDOWN, 256));
        schedule
    };
    for k in 0..80 {
        let run = explore::replay(scn, &schedule(k));
        let pin: Vec<u32> = run.decisions.iter().map(|d| d.chosen).collect();
        assert!(
            run.clean(),
            "k={k} ({}): {:?} {:?} {:?} stalled={}",
            schedule_id(&pin),
            run.races,
            run.deadlock,
            run.panics,
            run.stalled
        );
    }
    let (a, b) = (
        explore::replay(scn, &schedule(IN_THE_WINDOW)),
        explore::replay(scn, &schedule(IN_THE_WINDOW)),
    );
    assert_eq!((a.fingerprint, a.events), (b.fingerprint, b.events), "replay diverged");
}

/// The run rule against a visit that lets go (DESIGN.md §12), swept: the
/// first worker (participant 1) runs `k` segments before the reactor (0)
/// hands over both its runs, then everyone runs in id order. Small `k` lands
/// the runs inside the visit, where they queue behind it and the visit
/// serves them; larger `k` lands them in the window after it posted and
/// before it looks again, or after it let go, where the reactor runs the
/// short run itself and hands the long one to the pool as one item. Every
/// cut must run each call once, in call order, and strand no run.
#[test]
fn run_vs_letgo_holds_wherever_the_runs_cut_into_the_visit() {
    const REACTOR: u32 = 0;
    const WORKER: u32 = 1;
    let scn = scenarios::find("run-vs-letgo").unwrap();
    for k in 0..48 {
        let mut schedule = vec![WORKER; k];
        schedule.extend(std::iter::repeat_n(REACTOR, 256));
        let run = explore::replay(scn, &schedule);
        let pin: Vec<u32> = run.decisions.iter().map(|d| d.chosen).collect();
        assert!(
            run.clean(),
            "k={k} ({}): {:?} {:?} {:?} stalled={}",
            schedule_id(&pin),
            run.races,
            run.deadlock,
            run.panics,
            run.stalled
        );
    }
}
