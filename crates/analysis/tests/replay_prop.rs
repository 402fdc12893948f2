//! Property: for ANY schedule id, two replays of the same scenario are
//! bit-for-bit identical — same fingerprint, same event count, same
//! decision trace. This is the explorer's core soundness assumption (it
//! dedups converging prefixes by fingerprint), so it gets a generative
//! test rather than a handful of pinned cases.
#![cfg(all(debug_assertions, feature = "check"))]

use mtgpu_analysis::check::{explore, scenarios};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn any_schedule_replays_bit_for_bit(
        prefix in prop::collection::vec(0u32..4, 0..6),
        which in 0usize..5,
    ) {
        // The scenarios that touch no socket: nothing outside the schedule
        // can reorder what they observe.
        let scn = scenarios::find([
            "dispatcher-churn",
            "swap-vs-free",
            "lease-admit-vs-reap",
            "migrate-vs-launch",
            "lead-vs-follow",
        ][which])
        .expect("a scenario of the matrix");
        let a = explore::replay(scn, &prefix);
        let b = explore::replay(scn, &prefix);
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.decisions, b.decisions);
        prop_assert!(a.clean(), "workspace scenario raced under {:?}", prefix);
    }
}
