//! Scaled simulation time for the `mtgpu` runtime.
//!
//! The HPDC'12 runtime reproduced by this workspace is a *real* multithreaded
//! system (threads, locks, channels, sockets), but the durations it arbitrates
//! — kernel executions, PCIe transfers, CPU phases — belong to 2012 hardware
//! that is not present. This crate provides the single point where simulated
//! durations are mapped onto wall-clock time: a [`Clock`] with a configurable
//! *scale* (real seconds per simulated second).
//!
//! Every component of the workspace that needs to "spend" simulated time calls
//! [`Clock::sleep`]; every measurement converts back through
//! [`Clock::now`]/[`SimInstant`]. Because the scale is uniform, every ratio,
//! overlap and crossover of the paper's experiments is preserved while the
//! full evaluation runs in minutes instead of hours.
//!
//! ```
//! use mtgpu_simtime::{Clock, SimDuration};
//!
//! // 1 simulated second == 1 real millisecond.
//! let clock = Clock::with_scale(1e-3);
//! let t0 = clock.now();
//! clock.sleep(SimDuration::from_secs_f64(2.0)); // ~2ms of real time
//! assert!(clock.now().duration_since(t0) >= SimDuration::from_secs_f64(1.9));
//! ```

mod clock;
mod duration;
pub mod mtcheck;
mod rng;
mod stopwatch;
pub mod sync;

pub use clock::{Clock, SimInstant};
pub use duration::SimDuration;
pub use mtcheck::Shadow;
pub use rng::DetRng;
pub use stopwatch::Stopwatch;
pub use sync::{
    current_thread_id, lock_rank, LockRank, RankedCondvar, RankedMutex, RankedMutexGuard,
    RankedRwLock, RankedRwLockReadGuard, RankedRwLockWriteGuard,
};
