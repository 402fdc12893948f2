//! Minimal `parking_lot`-compatible shim over `std::sync`.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the small API slice it actually uses: non-poisoning `Mutex`/`RwLock`
//! (poisoned std locks are transparently recovered via `into_inner`) and a
//! `Condvar` whose `wait`/`wait_until` take `&mut MutexGuard` like the real
//! crate. Semantics match parking_lot for this workspace's usage: no
//! poisoning, guards unlock on drop, `wait_until` takes an `Instant`
//! deadline and reports timeouts via [`WaitTimeoutResult::timed_out`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A mutual exclusion primitive (non-poisoning).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        MutexGuard { inner: guard }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard { inner: p.into_inner() }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<'a, T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'a, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A reader-writer lock (non-poisoning).
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let guard = self.inner.read().unwrap_or_else(|p| p.into_inner());
        RwLockReadGuard { inner: guard }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let guard = self.inner.write().unwrap_or_else(|p| p.into_inner());
        RwLockWriteGuard { inner: guard }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<'a, T: ?Sized> Deref for RwLockReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> Deref for RwLockWriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<'a, T: ?Sized> DerefMut for RwLockWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Builds a result directly. Not part of the real parking_lot API;
    /// used by instrumentation layers (mtcheck's schedule explorer) that
    /// model the wait themselves and must report its outcome.
    pub fn new(timed_out: bool) -> Self {
        WaitTimeoutResult { timed_out }
    }

    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with this module's [`MutexGuard`].
///
/// Like the real crate, and unlike `std::sync::Condvar` (whose notify is a
/// `futex` system call whether or not anybody sleeps), it counts its
/// waiters and a notify with none returns at once. The count is raised in
/// `wait`/`wait_until` while the guard's mutex is still held and lowered on
/// return, so a notify can miss a waiter only if it ran before that waiter
/// took the mutex. That is safe under the rule every caller in this
/// workspace follows (`gpusim::engine`, `simtime::sync::RankedCondvar`,
/// `api::transport::mux`, `cluster::sem`, `core::sched::acquire`, the
/// gateway's work queue in `core::mux` and the shutdown broadcast in
/// `core::runtime`): **the predicate changes
/// under the mutex the waiters wait with**, before the notify. A waiter
/// that locks later sees the new predicate and never sleeps; one that
/// locked earlier was counted before it let go of the mutex, and the
/// notifier's own acquisition of that mutex makes the count visible.
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
    /// Signals handed to the std condvar (test probe).
    #[cfg(test)]
    signals: AtomicUsize,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
            #[cfg(test)]
            signals: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified, releasing the guard's mutex while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        take_guard(guard, |g| self.inner.wait(g).unwrap_or_else(|p| p.into_inner()));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let mut timed_out = false;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        take_guard(guard, |g| {
            let dur = deadline.saturating_duration_since(Instant::now());
            let (g, res) = self.inner.wait_timeout(g, dur).unwrap_or_else(|p| p.into_inner());
            timed_out = res.timed_out();
            g
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        WaitTimeoutResult { timed_out }
    }

    /// Whether a notify has anyone to wake (and counts it, under test).
    fn has_waiters(&self) -> bool {
        let any = self.waiters.load(Ordering::SeqCst) != 0;
        #[cfg(test)]
        self.signals.fetch_add(any as usize, Ordering::Relaxed);
        any
    }

    pub fn notify_one(&self) {
        if self.has_waiters() {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.has_waiters() {
            // mtlint: allow(notify-all, reason = "this is the broadcast primitive itself; the rule audits its callers, each of which carries its own reason")
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// Runs `f` on the std guard inside `guard`, replacing it with the guard
/// `f` returns. `f` must not panic between taking and returning the guard
/// (std's wait APIs uphold this: a poisoned result still carries the
/// re-acquired guard, which `into_inner` recovers).
fn take_guard<'a, T>(
    guard: &mut MutexGuard<'a, T>,
    f: impl FnOnce(std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T>,
) {
    // Safety: we move the inner guard out, hand it to `f` (which returns a
    // live guard for the same mutex), and write the result back before
    // anyone can observe the hole. `f` (std Condvar wait) aborts the
    // process rather than unwinding mid-wait on the platforms we target.
    unsafe {
        let inner = std::ptr::read(&guard.inner);
        let back = f(inner);
        std::ptr::write(&mut guard.inner, back);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            *done = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        t.join().unwrap();
        assert!(*done);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn notify_without_waiter_is_not_stored() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out(), "a notify nobody heard must not wake a later waiter");
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u32 = 10_000;
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        // Each side waits for the turn to reach its parity, then passes it.
        let play = |pair: &(Mutex<u32>, Condvar), parity: u32| {
            let (turn, cv) = pair;
            let mut t = turn.lock();
            while *t < 2 * ROUNDS {
                if *t % 2 == parity {
                    *t += 1;
                    cv.notify_one();
                } else {
                    let res = cv.wait_until(&mut t, Instant::now() + Duration::from_secs(30));
                    assert!(!res.timed_out(), "wake-up lost at turn {}", *t);
                }
            }
        };
        let pair2 = Arc::clone(&pair);
        let other = std::thread::spawn(move || play(&pair2, 1));
        play(&pair, 0);
        other.join().unwrap();
        assert_eq!(*pair.0.lock(), 2 * ROUNDS);
    }

    #[test]
    fn notify_all_wakes_every_parked_waiter() {
        const N: usize = 8;
        // (parked, go): a waiter counts itself in under the mutex just
        // before it waits, so `parked == N` seen under the mutex means all
        // N have let go of it inside `wait`.
        let shared = Arc::new((Mutex::new((0usize, false)), Condvar::new()));
        let waiters: Vec<_> = (0..N)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let (m, cv) = &*shared;
                    let mut st = m.lock();
                    st.0 += 1;
                    while !st.1 {
                        cv.wait(&mut st);
                    }
                })
            })
            .collect();
        let (m, cv) = &*shared;
        loop {
            let mut st = m.lock();
            if st.0 == N {
                st.1 = true;
                cv.notify_all();
                break;
            }
            drop(st);
            std::thread::yield_now();
        }
        for w in waiters {
            w.join().unwrap();
        }
    }

    #[test]
    fn only_a_notify_somebody_waits_for_is_sent() {
        const ROUNDS: usize = 1_000;
        let m = Mutex::new(0usize);
        let cv = Condvar::new();
        for _ in 0..ROUNDS {
            *m.lock() += 1;
            cv.notify_one();
            cv.notify_all();
        }
        assert_eq!(cv.signals.load(Ordering::Relaxed), 0, "nobody waited: nothing to send");

        // (round the waiter sleeps in, round the notifier released): the
        // waiter publishes its round under the mutex just before it waits,
        // so a notifier that reads it there finds the waiter counted.
        let shared = Arc::new((Mutex::new((0usize, 0usize)), Condvar::new()));
        let shared2 = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*shared2;
            let mut st = m.lock();
            for round in 1..=ROUNDS {
                st.0 = round;
                while st.1 < round {
                    cv.wait(&mut st);
                }
            }
        });
        let (m, cv) = &*shared;
        for round in 1..=ROUNDS {
            loop {
                let mut st = m.lock();
                if st.0 == round {
                    st.1 = round;
                    cv.notify_one();
                    break;
                }
                drop(st);
                std::thread::yield_now();
            }
        }
        waiter.join().unwrap();
        assert_eq!(cv.signals.load(Ordering::Relaxed), ROUNDS, "one signal per parked round");
    }
}
