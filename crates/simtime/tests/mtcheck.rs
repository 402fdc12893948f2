//! Seeded two-thread fixture corpus for the mtcheck engine: a true race, a
//! lock-ordered non-race, a condvar handoff, a lost wakeup, and replay
//! determinism. Sessions need the debug-build instrumentation, so the whole
//! file is compiled out in release.
#![cfg(debug_assertions)]

use mtgpu_simtime::mtcheck::{self, Mode};
use mtgpu_simtime::{LockRank, RankedCondvar, RankedMutex, Shadow};
use std::sync::Arc;

const RANK_A: LockRank = LockRank { value: 11, name: "FIX_A" };
const RANK_B: LockRank = LockRank { value: 12, name: "FIX_B" };

/// Two ranked mutexes plus a shadow cell. The cell lives behind a *raw*
/// std mutex so the physical accesses are synchronized (no UB) while the
/// model — which only sees ranked locks — observes whatever ordering the
/// fixture's ranked locks do or don't provide.
struct DualLockCell {
    a: RankedMutex<()>,
    b: RankedMutex<()>,
    cell: std::sync::Mutex<Shadow<u64>>,
}

impl DualLockCell {
    fn new() -> Arc<Self> {
        Arc::new(DualLockCell {
            a: RankedMutex::new(RANK_A, ()),
            b: RankedMutex::new(RANK_B, ()),
            cell: std::sync::Mutex::new(Shadow::new("fixture.cell", 0u64)),
        })
    }
}

#[test]
fn true_race_two_locks_is_detected() {
    let fx = DualLockCell::new();
    let (f1, f2) = (Arc::clone(&fx), Arc::clone(&fx));
    let report = mtcheck::explore(
        &[],
        vec![
            Box::new(move || {
                let _g = f1.a.lock();
                **f1.cell.lock().unwrap() += 1;
            }),
            Box::new(move || {
                let _g = f2.b.lock();
                **f2.cell.lock().unwrap() += 1;
            }),
        ],
    );
    assert!(report.deadlock.is_none() && !report.stalled, "engine trouble: {report:?}");
    assert!(!report.races.is_empty(), "disjoint locks must not order the writes");
    let race = &report.races[0];
    assert_eq!(race.kind, "write-write");
    assert_eq!(race.cell, "fixture.cell");
    // Rank annotation: each side names the (useless) lock it held.
    let all_ranks: Vec<_> =
        race.first.ranks.iter().chain(race.second.ranks.iter()).copied().collect();
    assert!(all_ranks.contains(&"FIX_A") && all_ranks.contains(&"FIX_B"), "{race:?}");
}

#[test]
fn lock_ordered_access_is_not_a_race() {
    let fx = DualLockCell::new();
    let (f1, f2) = (Arc::clone(&fx), Arc::clone(&fx));
    let report = mtcheck::explore(
        &[],
        vec![
            Box::new(move || {
                let _g = f1.a.lock();
                **f1.cell.lock().unwrap() += 1;
            }),
            Box::new(move || {
                let _g = f2.a.lock(); // same mutex: release→acquire edge
                **f2.cell.lock().unwrap() += 1;
            }),
        ],
    );
    assert!(report.clean(), "mutex-ordered writes flagged: {:?}", report.races);
    assert_eq!(**fx.cell.lock().unwrap(), 2);
}

struct Handoff {
    m: RankedMutex<bool>,
    cv: RankedCondvar,
    cell: std::sync::Mutex<Shadow<u64>>,
}

#[test]
fn condvar_handoff_orders_the_payload() {
    let fx = Arc::new(Handoff {
        m: RankedMutex::new(RANK_A, false),
        cv: RankedCondvar::new(),
        cell: std::sync::Mutex::new(Shadow::new("handoff.cell", 0u64)),
    });
    let (producer, consumer) = (Arc::clone(&fx), Arc::clone(&fx));
    let report = mtcheck::explore(
        &[],
        vec![
            Box::new(move || {
                // Payload written *outside* the mutex: only the notify edge
                // orders it for the consumer.
                **producer.cell.lock().unwrap() = 42;
                let mut flag = producer.m.lock();
                *flag = true;
                producer.cv.notify_one();
            }),
            Box::new(move || {
                let mut flag = consumer.m.lock();
                while !*flag {
                    consumer.cv.wait(&mut flag);
                }
                drop(flag);
                assert_eq!(**consumer.cell.lock().unwrap(), 42);
            }),
        ],
    );
    assert!(report.clean(), "handoff flagged: {report:?}");
}

#[test]
fn condvar_handoff_explores_both_arrival_orders() {
    // Schedule prefix [1, 1]: let the consumer run first and take the
    // mutex so it actually parks in wait() before the producer notifies —
    // the designated-wakeup path.
    for schedule in [&[0u32][..], &[1u32][..], &[1u32, 1][..]] {
        let fx = Arc::new(Handoff {
            m: RankedMutex::new(RANK_A, false),
            cv: RankedCondvar::new(),
            cell: std::sync::Mutex::new(Shadow::new("handoff.cell", 0u64)),
        });
        let (producer, consumer) = (Arc::clone(&fx), Arc::clone(&fx));
        let report = mtcheck::explore(
            schedule,
            vec![
                Box::new(move || {
                    **producer.cell.lock().unwrap() = 7;
                    let mut flag = producer.m.lock();
                    *flag = true;
                    producer.cv.notify_one();
                }),
                Box::new(move || {
                    let mut flag = consumer.m.lock();
                    while !*flag {
                        consumer.cv.wait(&mut flag);
                    }
                }),
            ],
        );
        assert!(report.clean(), "schedule {schedule:?}: {report:?}");
    }
}

#[test]
fn lost_wakeup_is_reported_as_deadlock() {
    let fx = Arc::new(Handoff {
        m: RankedMutex::new(RANK_A, false),
        cv: RankedCondvar::new(),
        cell: std::sync::Mutex::new(Shadow::new("lost.cell", 0u64)),
    });
    let (waiter, walker) = (Arc::clone(&fx), Arc::clone(&fx));
    let report = mtcheck::explore(
        &[],
        vec![
            Box::new(move || {
                let mut flag = waiter.m.lock();
                while !*flag {
                    waiter.cv.wait(&mut flag); // nobody will ever notify
                }
            }),
            Box::new(move || {
                // Touches the mutex but forgets both the flag and the
                // notify: the classic lost wakeup.
                let _g = walker.m.lock();
            }),
        ],
    );
    assert!(report.deadlock.is_some(), "lost wakeup undetected: {report:?}");
}

#[test]
fn same_schedule_replays_bit_for_bit() {
    let run = |schedule: &[u32]| {
        let fx = DualLockCell::new();
        let (f1, f2) = (Arc::clone(&fx), Arc::clone(&fx));
        mtcheck::explore(
            schedule,
            vec![
                Box::new(move || {
                    for _ in 0..3 {
                        let _g = f1.a.lock();
                        **f1.cell.lock().unwrap() += 1;
                    }
                }),
                Box::new(move || {
                    for _ in 0..3 {
                        let _g = f2.a.lock();
                        **f2.cell.lock().unwrap() += 10;
                    }
                }),
            ],
        )
    };
    for schedule in [&[][..], &[1, 0, 1][..], &[1, 1, 1, 1][..]] {
        let a = run(schedule);
        let b = run(schedule);
        assert_eq!(a.fingerprint, b.fingerprint, "schedule {schedule:?}");
        assert_eq!(a.events, b.events);
        assert_eq!(a.decisions, b.decisions);
        assert!(a.clean() && b.clean());
    }
    // And different schedules genuinely diverge.
    let a = run(&[]);
    let b = run(&[1, 0, 1]);
    assert_ne!(
        a.decisions.iter().map(|d| d.chosen).collect::<Vec<_>>(),
        b.decisions.iter().map(|d| d.chosen).collect::<Vec<_>>(),
    );
}

#[test]
fn observe_mode_detects_the_seeded_race_too() {
    // Physical interleaving is arbitrary here, but the verdict is not:
    // happens-before depends only on which locks each side held.
    let fx = DualLockCell::new();
    let (f1, f2) = (Arc::clone(&fx), Arc::clone(&fx));
    let report = mtcheck::observe(vec![
        Box::new(move || {
            let _g = f1.a.lock();
            **f1.cell.lock().unwrap() += 1;
        }),
        Box::new(move || {
            let _g = f2.b.lock();
            **f2.cell.lock().unwrap() += 1;
        }),
    ]);
    assert!(!report.stalled);
    assert!(!report.races.is_empty(), "observe mode must flag the unordered writes");
}

#[test]
fn mode_is_reported_by_instrumentation_probe() {
    assert!(mtcheck::instrumentation_active());
    let _ = Mode::Observe; // public surface sanity
}
