//! The ranked-lock order checker under deliberate abuse.
//!
//! The central property: a seeded rank inversion across two threads
//! panics *deterministically* — same site, same message — because the
//! check runs against the acquiring thread's own held-rank stack before
//! blocking, not against whoever else happens to hold the lock. These
//! tests are intentionally NOT gated on `debug_assertions`: if the runtime
//! checker is ever compiled out of debug builds, the expected panic stops
//! happening and this suite fails the build.

use mtgpu_simtime::{lock_rank, LockRank, RankedMutex, RankedRwLock};
use proptest::prelude::*;
use std::sync::Arc;

/// Runs `f` on a fresh thread and returns its panic message, or `None` if
/// it completed cleanly.
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
    let handle = std::thread::Builder::new()
        .name("inversion-probe".into())
        .spawn(f)
        .expect("spawn probe thread");
    match handle.join() {
        Ok(()) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".to_string()),
        ),
    }
}

const PROP_LO: &str = "PROP_LO";
const PROP_HI: &str = "PROP_HI";

/// Two locks with the given rank values; the probe thread acquires them in
/// the stated order while a sibling thread uses the legal order.
fn two_thread_probe(lo: u32, hi: u32, invert: bool) -> Option<String> {
    let outer = Arc::new(RankedMutex::new(LockRank { value: lo, name: PROP_LO }, 0u64));
    let inner = Arc::new(RankedMutex::new(LockRank { value: hi, name: PROP_HI }, 0u64));

    // Sibling thread exercising the legal order concurrently: the checker
    // is per-thread, so this must neither panic nor perturb the probe.
    let (o2, i2) = (Arc::clone(&outer), Arc::clone(&inner));
    let legal = std::thread::spawn(move || {
        for _ in 0..64 {
            let a = o2.lock();
            let b = i2.lock();
            drop(b);
            drop(a);
        }
    });

    let result = panic_message_of(move || {
        if invert {
            let _b = inner.lock();
            let _a = outer.lock(); // rank inversion: hi held, acquiring lo
        } else {
            let _a = outer.lock();
            let _b = inner.lock();
        }
    });
    legal.join().expect("legal-order thread never panics");
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acquiring in descending rank order panics, every time, with the
    /// message naming both locks — regardless of the rank values chosen
    /// and of a concurrent well-behaved thread.
    #[test]
    fn seeded_inversion_panics_deterministically(lo in 1u32..1000, delta in 1u32..1000) {
        let hi = lo + delta;
        let msg = two_thread_probe(lo, hi, true)
            .expect("inversion must panic: the runtime rank checker appears to be disabled");
        prop_assert!(msg.contains("lock rank inversion"), "unexpected message: {msg}");
        prop_assert!(msg.contains(PROP_LO) && msg.contains(PROP_HI), "message names both locks: {msg}");
        // Deterministic: a second identical run produces the identical message.
        let again = two_thread_probe(lo, hi, true).expect("second inversion must panic too");
        prop_assert_eq!(msg, again);
    }

    /// The legal ascending order never panics for any rank pair.
    #[test]
    fn ascending_order_never_panics(lo in 1u32..1000, delta in 1u32..1000) {
        prop_assert!(two_thread_probe(lo, lo + delta, false).is_none());
    }
}

/// Equal ranks are an inversion too: neither lock orders before the other,
/// so nesting them is rejected in either direction (no sibling thread here —
/// with equal ranks there is no legal order to exercise).
#[test]
fn equal_ranks_are_rejected() {
    let a = Arc::new(RankedMutex::new(LockRank { value: 42, name: PROP_LO }, ()));
    let b = Arc::new(RankedMutex::new(LockRank { value: 42, name: PROP_HI }, ()));
    let msg = panic_message_of(move || {
        let _a = a.lock();
        let _b = b.lock();
    })
    .expect("equal-rank nesting must panic: the runtime rank checker appears to be disabled");
    assert!(msg.contains("lock rank inversion"), "{msg}");
}

/// The declared workspace table is usable end-to-end: nesting along the
/// published order holds, and a read lock participates in the same order.
#[test]
fn workspace_table_order_is_consistent() {
    let slots = Arc::new(RankedRwLock::new(lock_rank::DRIVER_SLOTS, ()));
    let table = Arc::new(RankedMutex::new(lock_rank::MM_TABLE, ()));
    let mm = Arc::new(RankedMutex::new(lock_rank::MM_STATE, ()));
    let tracer = Arc::new(RankedMutex::new(lock_rank::TRACER_RING, ()));
    let (s, p, m, t) =
        (Arc::clone(&slots), Arc::clone(&table), Arc::clone(&mm), Arc::clone(&tracer));
    assert!(panic_message_of(move || {
        let _a = s.read();
        let _b = p.lock();
        let _c = m.lock();
        let _d = t.lock();
    })
    .is_none());
    // A context's table is outer to the memory manager's leaf: the leaf is
    // never held while a table is taken.
    let msg = panic_message_of(move || {
        let _c = mm.lock();
        let _b = table.lock();
    })
    .expect("MM_STATE → MM_TABLE must panic");
    assert!(msg.contains("MM_TABLE") && msg.contains("MM_STATE"), "{msg}");
    // And the reverse nesting trips the checker through the rwlock too.
    let msg = panic_message_of(move || {
        let _c = tracer.lock();
        let _a = slots.read();
    })
    .expect("TRACER_RING → DRIVER_SLOTS must panic");
    assert!(msg.contains("DRIVER_SLOTS") && msg.contains("TRACER_RING"), "{msg}");
}
