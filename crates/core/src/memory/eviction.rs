//! The intra-application victim order (§4.5).
//!
//! When a launch's working set does not fit, the memory manager evicts the
//! context's *own* resident entries outside that working set, best victim
//! first by `bytes × staleness ÷ writeback cost`: a big entry frees more, a
//! stale one is less likely to be needed next, and a dirty one (`to_swap`
//! set — the device copy diverged from the host slab) must be written back
//! over PCIe before its memory can be reused, so it scores half a clean
//! entry of the same size and age.
//!
//! Inter-application and preemption victims are whole contexts and keep the
//! paper's rule — smallest sufficient resident set, ties by context id — in
//! the service layer; nothing here orders them.
//!
//! Every input is deterministic under seeded replay: a [`TouchStamp`] pairs
//! the *virtual* clock with a per-manager sequence number drawn from one
//! atomic counter (no wall-clock reads), staleness is counted in touches,
//! and ties break on the virtual address. The same op sequence picks the
//! same victims on every run.

use std::cmp::Reverse;

/// A deterministic touch stamp: the virtual-clock reading paired with a
/// per-manager monotone sequence number (one atomic counter for every table).
///
/// The sequence component makes stamps totally ordered even when the virtual
/// clock does not advance between touches (common in unit tests and at plan
/// boundaries), so recency comparisons never tie and never depend on thread
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TouchStamp {
    /// Virtual-clock nanos at the touch.
    pub nanos: u64,
    /// Per-manager sequence number; strictly increasing across touches.
    pub seq: u64,
}

/// An intra-application eviction candidate, snapshotted from a
/// `PageTableEntry` under its table's lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryCandidate {
    /// Virtual address (unique per context; the deterministic tie-break).
    pub vaddr: u64,
    /// Declared size in bytes.
    pub size: u64,
    /// The `to_swap` PTE bit: device copy diverged from the host slab, so
    /// eviction must pay a D2H writeback first.
    pub dirty: bool,
    /// Most recent touch.
    pub last_touch: TouchStamp,
}

/// Reclaimed bytes × staleness, halved when the entry is dirty. Larger
/// scores are better victims. Pure and overflow-safe (u128 arithmetic).
pub fn cost_score(c: &EntryCandidate, now_seq: u64) -> u128 {
    let age = now_seq.saturating_sub(c.last_touch.seq) as u128 + 1;
    let cost = if c.dirty { 2 } else { 1 };
    (c.size as u128) * age / cost
}

/// Orders intra-application eviction candidates so the best victim is
/// first. The order is invariant within one plan generation (evictions only
/// remove candidates), which is what lets the manager build the queue once
/// per materialize call instead of re-scanning on every OOM re-plan.
pub fn order_entry_victims(candidates: &mut [EntryCandidate], now_seq: u64) {
    candidates.sort_by_key(|c| (Reverse(cost_score(c, now_seq)), c.vaddr));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(vaddr: u64, size: u64, dirty: bool, seq: u64) -> EntryCandidate {
        EntryCandidate { vaddr, size, dirty, last_touch: TouchStamp { nanos: seq * 10, seq } }
    }

    fn victims(mut cands: Vec<EntryCandidate>, now_seq: u64) -> Vec<u64> {
        order_entry_victims(&mut cands, now_seq);
        cands.iter().map(|c| c.vaddr).collect()
    }

    #[test]
    fn prefers_clean_stale_bytes() {
        // Same size and age: the clean entry scores double the dirty one.
        let clean = cand(1, 100, false, 1);
        let dirty = cand(2, 100, true, 1);
        assert!(cost_score(&clean, 10) > cost_score(&dirty, 10));
        assert_eq!(victims(vec![dirty, clean], 10), vec![1, 2]);
        // A dirty entry must be big or stale enough to outscore a clean one.
        let big_dirty = cand(3, 500, true, 1);
        let small_clean = cand(4, 100, false, 1);
        assert_eq!(victims(vec![small_clean, big_dirty], 10), vec![3, 4]);
    }

    #[test]
    fn staleness_outweighs_a_smaller_size() {
        let stale_small = cand(1, 100, false, 1);
        let fresh_large = cand(2, 150, false, 9);
        assert_eq!(victims(vec![fresh_large, stale_small], 10), vec![1, 2]);
    }

    #[test]
    fn equal_scores_break_on_vaddr() {
        assert_eq!(victims(vec![cand(9, 64, false, 3), cand(7, 64, false, 3)], 5), vec![7, 9]);
    }

    #[test]
    fn cost_score_is_overflow_safe() {
        let c = cand(0, u64::MAX, false, 0);
        // u64::MAX bytes times u64::MAX age fits in u128.
        let _ = cost_score(&c, u64::MAX);
    }
}
