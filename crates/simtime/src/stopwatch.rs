use crate::{Clock, SimDuration, SimInstant};

/// Measures elapsed simulated time against a [`Clock`].
///
/// Used by the experiment harnesses to report batch execution times in the
/// paper's units (seconds of the 2012 testbed).
#[derive(Clone)]
pub struct Stopwatch {
    clock: Clock,
    start: SimInstant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current simulated time.
    pub fn start(clock: &Clock) -> Self {
        Stopwatch { clock: clock.clone(), start: clock.now() }
    }

    /// Simulated time elapsed since the stopwatch was started.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.now().duration_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_tracks_sleep() {
        let clock = Clock::with_scale(1e-4);
        let sw = Stopwatch::start(&clock);
        clock.sleep(SimDuration::from_secs(5));
        assert!(sw.elapsed() >= SimDuration::from_secs_f64(4.5));
    }
}
