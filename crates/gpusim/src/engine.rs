//! Execution engines: FIFO occupancy of a shared hardware resource.
//!
//! Pre-Kepler CUDA serializes kernels from distinct contexts in
//! first-come-first-served order; copy engines likewise serve one transfer at
//! a time. [`FifoEngine`] models an engine as a ticket lock whose holder
//! "occupies" the engine for a simulated duration: callers queue in strict
//! arrival order, and the simulated busy time is accumulated for utilization
//! accounting.
//!
//! Every occupancy is a [`Turn`]: the caller waits for the engine once and
//! spends durations on it, its busy time their sum. A kernel spends one
//! and applies its payload before it lets go; a copy batch
//! (`Gpu::memcpy_batch`) spends each op's on the op's engine in turn, so
//! FIFO order between threads is per batch, as between DMA descriptor
//! chains. Whether the
//! caller holds an engine is a comparison with a thread id kept per thread
//! ([`mtgpu_simtime::current_thread_id`]), not a fetch of the thread's
//! handle per occupancy.

use mtgpu_simtime::{
    current_thread_id, lock_rank, Clock, RankedCondvar, RankedMutex, RankedMutexGuard, SimDuration,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;

struct Tickets {
    next: u64,
    serving: u64,
    /// The thread holding the engine ([`FifoEngine::try_hold`]), whose
    /// serving ticket it is until [`FifoEngine::release`].
    holder: Option<ThreadId>,
}

/// A hardware engine (compute unit or copy engine) that one operation at a
/// time occupies for a simulated duration, in FIFO order.
pub struct FifoEngine {
    clock: Clock,
    tickets: RankedMutex<Tickets>,
    cv: RankedCondvar,
    busy_nanos: AtomicU64,
}

impl FifoEngine {
    /// Creates an idle engine on the given clock.
    pub fn new(clock: Clock) -> Self {
        FifoEngine {
            clock,
            tickets: RankedMutex::new(
                lock_rank::ENGINE_TICKETS,
                Tickets { next: 0, serving: 0, holder: None },
            ),
            cv: RankedCondvar::new(),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Waits for the engine and takes it until the turn is dropped: a
    /// chain of occupancies ([`Turn::spend`]) with no other caller's in
    /// between, as a DMA engine runs a descriptor chain. The engine's
    /// holder takes its turn at once, on the ticket it holds.
    pub fn turn(&self) -> Turn<'_> {
        let held = {
            let mut t = self.tickets.lock();
            let held = t.holder.is_some_and(|h| h == current_thread_id());
            if !held {
                let ticket = t.next;
                t.next += 1;
                while t.serving != ticket {
                    self.cv.wait(&mut t);
                }
            }
            held
        };
        Turn { engine: self, held, busy: SimDuration::ZERO }
    }

    /// Takes the engine for the calling thread if nothing occupies it and
    /// nobody is queued, without waiting. Until [`FifoEngine::release`], the
    /// thread's own occupancies run at once and everyone else's queue behind
    /// the hold.
    pub(crate) fn try_hold(&self) -> bool {
        let mut t = self.tickets.lock();
        if t.serving != t.next {
            return false;
        }
        t.next += 1;
        t.holder = Some(current_thread_id());
        true
    }

    /// Lets the engine held by the calling thread go to the next in line.
    /// Called from `GpuHold`'s drop, which is not `Send`: the caller is the
    /// holder.
    pub(crate) fn release(&self) {
        let mut t = self.tickets.lock();
        let held = t.holder.take();
        debug_assert_eq!(held, Some(current_thread_id()), "released by a non-holder");
        self.serve_next(t);
    }

    /// Whether the calling thread holds the engine.
    pub(crate) fn held_here(&self) -> bool {
        self.tickets.lock().holder.is_some_and(|h| h == current_thread_id())
    }

    /// Ends the serving ticket's turn.
    fn serve_next(&self, mut t: RankedMutexGuard<'_, Tickets>) {
        t.serving += 1;
        // mtlint: allow(notify-all, reason = "ticket turnstile: every parked waiter must re-check `serving` because only the thread holding the next ticket may proceed")
        self.cv.notify_all();
        drop(t);
    }

    /// Total simulated time this engine has been busy.
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Number of operations queued behind the current holder.
    pub fn queue_depth(&self) -> u64 {
        let t = self.tickets.lock();
        t.next.saturating_sub(t.serving)
    }
}

/// One caller's turn on a [`FifoEngine`] ([`FifoEngine::turn`]): the
/// serving ticket, or the holder's. Dropping it adds the time spent to the
/// engine's busy time and serves the next ticket.
pub struct Turn<'a> {
    engine: &'a FifoEngine,
    held: bool,
    busy: SimDuration,
}

impl Turn<'_> {
    /// Occupies the engine for `dur` of simulated time. The sleep is
    /// outside the ticket lock, so waiters can enqueue without blocking
    /// each other.
    pub fn spend(&mut self, dur: SimDuration) {
        self.engine.clock.sleep(dur);
        self.busy += dur;
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.engine.busy_nanos.fetch_add(self.busy.as_nanos(), Ordering::Relaxed);
        if !self.held {
            self.engine.serve_next(self.engine.tickets.lock());
        }
    }
}

/// A bank of identical engines with round-robin placement — models the two
/// copy engines of a Tesla C2050 (§5.1).
pub struct EngineBank {
    engines: Vec<FifoEngine>,
    next: AtomicU64,
}

impl EngineBank {
    /// Creates a bank of `n` engines (at least one).
    pub fn new(clock: Clock, n: u32) -> Self {
        let n = n.max(1);
        EngineBank {
            engines: (0..n).map(|_| FifoEngine::new(clock.clone())).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// A turn on the engine at `index % len`, or on the least-recently-
    /// assigned one when `index` is `None`.
    pub fn turn(&self, index: Option<usize>) -> Turn<'_> {
        let idx = index.unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed) as usize);
        self.engines[idx % self.engines.len()].turn()
    }

    /// Per-engine busy times, indexed by engine.
    pub fn busy_times(&self) -> Vec<SimDuration> {
        self.engines.iter().map(|e| e.busy_time()).collect()
    }

    /// The bank's engines, by index.
    pub(crate) fn engines(&self) -> &[FifoEngine] {
        &self.engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex;
    use std::time::Instant;

    /// One turn of `dur` on `engine`, running `work` before it lets go.
    fn occupy<R>(engine: &FifoEngine, dur: SimDuration, work: impl FnOnce() -> R) -> R {
        let mut turn = engine.turn();
        turn.spend(dur);
        work()
    }

    #[test]
    fn occupancy_serializes() {
        // Two 5-sim-second occupancies on one engine must take ~10 sim
        // seconds of wall time at the configured scale.
        let clock = Clock::with_scale(1e-4);
        let engine = Arc::new(FifoEngine::new(clock.clone()));
        let start = Instant::now();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || e.turn().spend(SimDuration::from_secs(5)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed_sim = clock.real_to_sim(start.elapsed());
        assert!(
            elapsed_sim >= SimDuration::from_secs_f64(9.5),
            "two 5s occupancies overlapped: {elapsed_sim}"
        );
        assert!(engine.busy_time() >= SimDuration::from_secs_f64(9.9));
    }

    #[test]
    fn fifo_order_is_respected() {
        let clock = Clock::with_scale(1e-5);
        let engine = Arc::new(FifoEngine::new(clock.clone()));
        let order = Arc::new(Mutex::new(Vec::new()));
        // Pin the engine so later arrivals stack behind a known head.
        let head = {
            let e = Arc::clone(&engine);
            std::thread::spawn(move || e.turn().spend(SimDuration::from_secs(20)))
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut joiners = Vec::new();
        for i in 0..4 {
            let e = Arc::clone(&engine);
            let o = Arc::clone(&order);
            joiners.push(std::thread::spawn(move || {
                occupy(&e, SimDuration::from_millis(1), || o.lock().unwrap().push(i));
            }));
            // Stagger arrivals so ticket order matches i.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        head.join().unwrap();
        for j in joiners {
            j.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tickets_queued_behind_a_long_occupancy_are_all_served_in_order() {
        // The turnstile's broadcast goes out only when somebody is parked
        // (the condvar counts its waiters), so park a queue of them for
        // certain: the head holds the engine until every ticket is taken,
        // and ticket i + 1 is taken only once ticket i is in the queue.
        const QUEUED: u64 = 16;
        let engine = Arc::new(FifoEngine::new(Clock::virtual_clock()));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (release, held) = std::sync::mpsc::channel::<()>();
        let head = {
            let e = Arc::clone(&engine);
            std::thread::spawn(move || {
                occupy(&e, SimDuration::from_secs(1), || held.recv().unwrap())
            })
        };
        let mut joiners = Vec::new();
        for i in 0..QUEUED {
            while engine.queue_depth() < i + 1 {
                std::thread::yield_now();
            }
            let (e, o) = (Arc::clone(&engine), Arc::clone(&order));
            joiners.push(std::thread::spawn(move || {
                occupy(&e, SimDuration::from_millis(1), || o.lock().unwrap().push(i));
            }));
        }
        while engine.queue_depth() < QUEUED + 1 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        head.join().unwrap();
        for j in joiners {
            j.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..QUEUED).collect::<Vec<_>>());
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn a_hold_is_taken_only_on_an_idle_engine_and_lets_its_holder_in_at_once() {
        let engine = Arc::new(FifoEngine::new(Clock::virtual_clock()));
        assert!(engine.try_hold() && engine.held_here());
        let order = Arc::new(Mutex::new(Vec::new()));
        let other = {
            let (e, o) = (Arc::clone(&engine), Arc::clone(&order));
            std::thread::spawn(move || {
                assert!(!e.try_hold() && !e.held_here());
                occupy(&e, SimDuration::from_millis(1), || o.lock().unwrap().push("other"));
            })
        };
        // The other thread queues behind the hold; the holder does not.
        while engine.queue_depth() < 2 {
            std::thread::yield_now();
        }
        occupy(&engine, SimDuration::from_millis(1), || order.lock().unwrap().push("holder"));
        engine.release();
        other.join().unwrap();
        assert_eq!(*order.lock().unwrap(), ["holder", "other"]);
        assert!(!engine.held_here());
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.busy_time(), SimDuration::from_millis(2));
    }

    #[test]
    fn bank_allows_parallel_occupancy() {
        // Two engines: two 5-sim-second transfers overlap, finishing well
        // under 10 sim seconds. A barrier keeps thread-spawn latency out of
        // the measured window — at fine clock scales that overhead rivals
        // the occupancies themselves and read as serialization.
        let clock = Clock::with_scale(1e-3);
        let bank = Arc::new(EngineBank::new(clock.clone(), 2));
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&bank);
                let gate = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    gate.wait();
                    b.turn(None).spend(SimDuration::from_secs(5))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed_sim = clock.real_to_sim(start.elapsed());
        assert!(elapsed_sim < SimDuration::from_secs_f64(9.0), "bank serialized: {elapsed_sim}");
    }

    #[test]
    fn lane_pinning_controls_placement() {
        // Same lane (modulo the bank size) serializes; distinct lanes
        // overlap. This is the canonical-order guarantee plan executors
        // rely on.
        let clock = Clock::with_scale(1e-3);
        let bank = Arc::new(EngineBank::new(clock.clone(), 2));
        // Each worker reads its own start and end around its turn: a
        // stopwatch on the spawning thread, started after the barrier, takes
        // that thread's scheduling delays for the engines'.
        let run_pair = |lane_a: usize, lane_b: usize| {
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let handles: Vec<_> = [lane_a, lane_b]
                .into_iter()
                .map(|lane| {
                    let b = Arc::clone(&bank);
                    let gate = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        gate.wait();
                        let start = Instant::now();
                        b.turn(Some(lane)).spend(SimDuration::from_secs(5));
                        (start, Instant::now())
                    })
                })
                .collect();
            let spans: Vec<(Instant, Instant)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            let first = spans.iter().map(|s| s.0).min().unwrap();
            let last = spans.iter().map(|s| s.1).max().unwrap();
            let longest = spans.iter().map(|s| s.1 - s.0).max().unwrap();
            (clock.real_to_sim(last - first), clock.real_to_sim(longest))
        };
        // Lanes 0 and 2 hit the same engine of a 2-bank: serialized, so the
        // two occupancies together span both.
        let (span, _) = run_pair(0, 2);
        assert!(span >= SimDuration::from_secs_f64(9.5), "same lane must serialize");
        // Lanes 0 and 1 hit distinct engines: overlapped, so neither worker
        // waits for the other's occupancy (a worker that starts late is no
        // wait). A worker descheduled as its sleep ends reads long too, so
        // the least of three tries is read: a wait would show in every one.
        let longest = (0..3).map(|_| run_pair(0, 1).1).min().unwrap();
        assert!(longest < SimDuration::from_secs_f64(9.0), "distinct lanes must overlap");
    }

    #[test]
    fn queue_depth_counts_waiters() {
        let clock = Clock::with_scale(1e-3);
        let engine = Arc::new(FifoEngine::new(clock));
        assert_eq!(engine.queue_depth(), 0);
        // The test holds the engine until it has looked, so the waiter
        // cannot be served (and the depth drop back) before it is seen.
        assert!(engine.try_hold());
        assert_eq!(engine.queue_depth(), 1);
        let e = Arc::clone(&engine);
        let h = std::thread::spawn(move || e.turn().spend(SimDuration::from_secs(1)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while engine.queue_depth() < 2 {
            assert!(std::time::Instant::now() < deadline, "the waiter never queued");
            std::thread::yield_now();
        }
        engine.release();
        h.join().unwrap();
        assert_eq!(engine.queue_depth(), 0);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Any mix of concurrent occupancies completes exactly once each and
        /// accounts its full busy time — no lost or double-served tickets.
        #[test]
        fn concurrent_occupancies_all_complete(durs in prop::collection::vec(0u64..200, 1..24)) {
            let clock = Clock::with_scale(1e-6);
            let engine = Arc::new(FifoEngine::new(clock));
            let expected_busy: u64 = durs.iter().sum();
            let handles: Vec<_> = durs
                .into_iter()
                .map(|micros| {
                    let e = Arc::clone(&engine);
                    std::thread::spawn(move || {
                        e.turn().spend(SimDuration::from_micros(micros));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            prop_assert_eq!(engine.queue_depth(), 0);
            prop_assert_eq!(engine.busy_time(), SimDuration::from_micros(expected_busy));
        }
    }
}
