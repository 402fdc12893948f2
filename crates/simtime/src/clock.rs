use crate::SimDuration;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threshold below which [`precise_sleep`] busy-waits instead of yielding to
/// the OS scheduler. Linux `nanosleep` granularity is ~50µs; the spin tail
/// is kept short because on low-core-count machines spinning threads steal
/// time from the threads they are waiting for.
const SPIN_THRESHOLD: Duration = Duration::from_micros(60);

/// Sleeps for `dur` of real time with sub-100µs accuracy: OS-sleep for the
/// bulk, then spin for the tail.
pub(crate) fn precise_sleep(dur: Duration) {
    if dur.is_zero() {
        return;
    }
    let deadline = Instant::now() + dur;
    if dur > SPIN_THRESHOLD {
        std::thread::sleep(dur - SPIN_THRESHOLD);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// An instant on a [`Clock`]'s simulated timeline.
///
/// Instants are only meaningful relative to other instants taken from a clock
/// with the same epoch; the runtime shares one clock per node (or per test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimInstant {
    since_epoch: SimDuration,
}

impl SimInstant {
    /// Simulated time elapsed since `earlier`. Saturates to zero if `earlier`
    /// is in the future (clock reads from different threads may race by a few
    /// real microseconds).
    #[inline]
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        self.since_epoch.saturating_sub(earlier.since_epoch)
    }

    /// Simulated time since the clock's epoch.
    #[inline]
    pub fn since_epoch(self) -> SimDuration {
        self.since_epoch
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", self.since_epoch)
    }
}

enum Backend {
    /// Wall-clock backed: simulated time flows at `1/scale` of real time.
    Scaled {
        epoch: Instant,
        /// Real seconds per simulated second.
        scale: f64,
    },
    /// Logical time: a counter advanced only by [`Clock::sleep`] /
    /// [`Clock::advance`]. No real time ever passes, so a given sequence
    /// of operations produces the identical timeline on every run — the
    /// substrate of the deterministic simulation mode.
    Virtual { nanos: std::sync::atomic::AtomicU64 },
}

/// A shared clock: the bridge between simulated durations and wall time
/// (scaled backend), or a purely logical timeline (virtual backend).
///
/// Cloning a `Clock` is cheap and yields a handle onto the same timeline.
#[derive(Clone)]
pub struct Clock {
    inner: Arc<Backend>,
}

impl Clock {
    /// Default scale used by tests and examples: 1 simulated second per real
    /// millisecond.
    pub const DEFAULT_SCALE: f64 = 1e-3;

    /// Creates a clock with [`Clock::DEFAULT_SCALE`].
    pub fn new() -> Self {
        Self::with_scale(Self::DEFAULT_SCALE)
    }

    /// Creates a clock where one simulated second lasts `scale` real seconds.
    ///
    /// # Panics
    /// Panics if `scale` is not finite and strictly positive.
    pub fn with_scale(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "clock scale must be finite and positive, got {scale}"
        );
        Clock { inner: Arc::new(Backend::Scaled { epoch: Instant::now(), scale }) }
    }

    /// Creates a virtual clock: time starts at zero and advances only via
    /// [`Clock::sleep`] / [`Clock::advance`], instantly and without
    /// blocking. Runs at CPU speed and, driven from a single thread,
    /// yields bit-for-bit identical timelines across runs.
    pub fn virtual_clock() -> Self {
        Clock { inner: Arc::new(Backend::Virtual { nanos: std::sync::atomic::AtomicU64::new(0) }) }
    }

    /// Real seconds per simulated second. A virtual clock consumes no real
    /// time at all and reports a scale of `0.0`.
    #[inline]
    pub fn scale(&self) -> f64 {
        match &*self.inner {
            Backend::Scaled { scale, .. } => *scale,
            Backend::Virtual { .. } => 0.0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        match &*self.inner {
            Backend::Scaled { epoch, scale } => {
                let real = epoch.elapsed();
                SimInstant { since_epoch: SimDuration::from_secs_f64(real.as_secs_f64() / scale) }
            }
            Backend::Virtual { nanos } => SimInstant {
                since_epoch: SimDuration::from_nanos(
                    nanos.load(std::sync::atomic::Ordering::SeqCst),
                ),
            },
        }
    }

    /// Blocks the calling thread for `dur` of simulated time. On a virtual
    /// clock nothing blocks: the timeline advances by `dur` immediately.
    pub fn sleep(&self, dur: SimDuration) {
        match &*self.inner {
            Backend::Scaled { scale, .. } => precise_sleep(dur.to_real(*scale)),
            Backend::Virtual { nanos } => {
                nanos.fetch_add(dur.as_nanos(), std::sync::atomic::Ordering::SeqCst);
            }
        }
    }

    /// Advances the timeline by `dur` without blocking. Identical to
    /// [`Clock::sleep`] on a virtual clock; a scaled clock cannot jump, so
    /// this is a no-op there (the wall clock is the authority).
    pub fn advance(&self, dur: SimDuration) {
        if let Backend::Virtual { nanos } = &*self.inner {
            nanos.fetch_add(dur.as_nanos(), std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Converts a real elapsed duration into simulated time on this clock.
    /// On a virtual clock real time does not map onto the timeline: zero.
    pub fn real_to_sim(&self, real: Duration) -> SimDuration {
        match &*self.inner {
            Backend::Scaled { scale, .. } => SimDuration::from_secs_f64(real.as_secs_f64() / scale),
            Backend::Virtual { .. } => SimDuration::ZERO,
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.inner {
            Backend::Scaled { scale, .. } => f.debug_struct("Clock").field("scale", scale).finish(),
            Backend::Virtual { nanos } => f
                .debug_struct("Clock")
                .field("virtual_nanos", &nanos.load(std::sync::atomic::Ordering::SeqCst))
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let clock = Clock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn sleep_advances_sim_time_by_scale() {
        // 1 sim second = 0.1 real ms, so 10 sim seconds ~ 1ms real.
        let clock = Clock::with_scale(1e-4);
        let t0 = clock.now();
        let start = Instant::now();
        clock.sleep(SimDuration::from_secs(10));
        let real = start.elapsed();
        let sim = clock.now().duration_since(t0);
        assert!(real >= Duration::from_micros(900), "real sleep too short: {real:?}");
        assert!(sim >= SimDuration::from_secs_f64(9.0), "sim elapsed too short: {sim}");
    }

    #[test]
    fn shared_clock_handles_agree() {
        let clock = Clock::new();
        let other = clock.clone();
        let a = clock.now();
        let b = other.now();
        // Same timeline: readings nanoseconds apart.
        assert!(b.duration_since(a) < SimDuration::from_secs(1));
    }

    #[test]
    fn real_time_converts_by_the_scale() {
        let clock = Clock::with_scale(0.5);
        assert_eq!(clock.real_to_sim(Duration::from_secs(1)), SimDuration::from_secs(2));
    }

    #[test]
    fn duration_since_saturates() {
        let clock = Clock::new();
        let a = clock.now();
        clock.sleep(SimDuration::from_millis(100));
        let b = clock.now();
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "clock scale must be finite")]
    fn zero_scale_rejected() {
        let _ = Clock::with_scale(0.0);
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_never_drifts() {
        let clock = Clock::virtual_clock();
        let t0 = clock.now();
        assert_eq!(t0.since_epoch(), SimDuration::ZERO);
        // Real time passing does not move a virtual clock.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), t0);
    }

    #[test]
    fn virtual_sleep_advances_instantly() {
        let clock = Clock::virtual_clock();
        let start = Instant::now();
        clock.sleep(SimDuration::from_secs(3600));
        assert!(start.elapsed() < Duration::from_millis(50), "virtual sleep blocked");
        assert_eq!(clock.now().since_epoch(), SimDuration::from_secs(3600));
        clock.advance(SimDuration::from_nanos(5));
        assert_eq!(
            clock.now().since_epoch(),
            SimDuration::from_secs(3600) + SimDuration::from_nanos(5)
        );
    }

    #[test]
    fn virtual_clock_handles_share_one_timeline() {
        let clock = Clock::virtual_clock();
        let other = clock.clone();
        other.sleep(SimDuration::from_millis(7));
        assert_eq!(clock.now().since_epoch(), SimDuration::from_millis(7));
        assert_eq!(clock.real_to_sim(Duration::from_secs(9)), SimDuration::ZERO);
        assert_eq!(clock.scale(), 0.0);
    }

    #[test]
    fn precise_sleep_short_durations() {
        for micros in [10u64, 50, 120, 300] {
            let dur = Duration::from_micros(micros);
            let start = Instant::now();
            precise_sleep(dur);
            assert!(start.elapsed() >= dur);
        }
    }
}
