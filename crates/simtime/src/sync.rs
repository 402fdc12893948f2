//! Ranked locks: the workspace's lock-order discipline, checked at runtime.
//!
//! Every lock in the runtime, transport, load and cluster crates is
//! constructed with a [`LockRank`] from [`lock_rank`]. Debug builds keep a
//! per-thread stack of held ranks and panic the moment a thread acquires a
//! lock whose rank is not strictly greater than every rank it already
//! holds — turning a potential deadlock (which needs an unlucky
//! interleaving to reproduce) into a deterministic failure on *any*
//! interleaving that merely attempts the inverted order. Release builds compile the bookkeeping out entirely:
//! `lock()` is a pure passthrough to `std::sync::Mutex`, and a release
//! build fails to compile if a ranked lock or guard is larger than its
//! `std::sync` counterpart (plus the lock's rank). No lock here poisons: a
//! lock whose holder panicked is taken over as it was left
//! ([`PoisonError::into_inner`]), which is all any caller would do.
//!
//! The static half of the contract lives in `mtgpu-analysis`: `mtlint`
//! verifies every `Mutex`/`RwLock` in those crates (its `RANKED_CRATES`) is
//! a ranked lock constructed from a `lock_rank::` constant, and emits the
//! workspace lock graph (`results/lock_graph.{json,dot}`) with cycle
//! detection over the declared ranks.
//!
//! Waiting on a [`RankedCondvar`] keeps the mutex's rank on the stack while
//! parked. That is sound: a parked thread acquires nothing, so the stale
//! entry can never participate in an inversion, and the guard is
//! re-acquired before the wait returns, so the stack stays consistent.

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError, TryLockResult,
};
use std::thread::ThreadId;
use std::time::Instant;

/// A declared position in the workspace-wide lock order. Lower ranks are
/// outer locks (acquired first); a thread may only acquire a lock whose
/// rank is strictly greater than every rank it currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockRank {
    /// Position in the global order (lower = acquired earlier).
    pub value: u32,
    /// Stable name, used in panic messages and the emitted lock graph.
    pub name: &'static str,
}

/// The workspace lock-rank table (DESIGN.md §11). Validated against every
/// traced nesting path in the dispatcher, memory manager, transfer
/// pipeline and device model; `mtlint` regenerates the lock graph from
/// these declarations.
pub mod lock_rank {
    use super::LockRank;

    /// The head node's per-node capacity gate (`cluster::sem`; outermost:
    /// a job waits for a permit before it touches any node, so waiting
    /// there while holding a node's lock is an inversion).
    pub const HEAD_GATE: LockRank = LockRank { value: 5, name: "HEAD_GATE" };
    /// The reactor's per-connection channel→context map (held while
    /// contexts are created/torn down for a multiplexed channel).
    pub const CONN_CHANNELS: LockRank = LockRank { value: 7, name: "CONN_CHANNELS" };
    /// One multiplexed channel's pending-call queue (taken after the
    /// channel map, before any runtime lock).
    pub const CHAN_QUEUE: LockRank = LockRank { value: 8, name: "CHAN_QUEUE" };
    /// A context's service lock: held for the duration of one CUDA call.
    pub const CTX_SERVICE: LockRank = LockRank { value: 10, name: "CTX_SERVICE" };
    /// The node-wide migration turnstile: serializes live context
    /// migrations. Outer to every scheduler/memory lock so a migration may
    /// reserve slots and rewrite page tables while holding it, but inner to
    /// the service lock (migration quiesces a context first).
    pub const MIGRATION: LockRank = LockRank { value: 20, name: "MIGRATION" };
    /// The dispatcher's one lock: every device's vGPU slots, the waiting
    /// list, the affinity map and the tie-break generator.
    pub const SCHED: LockRank = LockRank { value: 40, name: "SCHED" };
    /// A context's inner bookkeeping (binding, credits, kernels, and the
    /// outcome of its queued vGPU request, which the dispatcher writes with
    /// its lock held).
    pub const CTX_INNER: LockRank = LockRank { value: 70, name: "CTX_INNER" };
    /// The tenant-policy lease book (quota charges, TTLs, priorities).
    pub const TENANT_POLICY: LockRank = LockRank { value: 75, name: "TENANT_POLICY" };
    /// The driver's device-slot table (held across `Gpu::fail` on detach).
    pub const DRIVER_SLOTS: LockRank = LockRank { value: 80, name: "DRIVER_SLOTS" };
    /// Runtime handler-thread bookkeeping (join handles).
    pub const RT_HANDLERS: LockRank = LockRank { value: 90, name: "RT_HANDLERS" };
    /// The runtime's monitor-thread handle.
    pub const RT_MONITOR: LockRank = LockRank { value: 91, name: "RT_MONITOR" };
    /// The runtime's context registry.
    pub const RT_REGISTRY: LockRank = LockRank { value: 95, name: "RT_REGISTRY" };
    /// One context's page table: held for a whole residency pass, device
    /// calls included (it pins nobody but its context); a thread never
    /// holds two.
    pub const MM_TABLE: LockRank = LockRank { value: 98, name: "MM_TABLE" };
    /// The memory manager's node-wide leaf: the directory of tables, swap
    /// accounting, the virtual-address cursor and per-device swap traffic.
    /// Taken under a table lock for a lookup or a sum, never across a
    /// device call.
    pub const MM_STATE: LockRank = LockRank { value: 100, name: "MM_STATE" };
    /// One simulated device's allocator/context state.
    pub const DEVICE_STATE: LockRank = LockRank { value: 110, name: "DEVICE_STATE" };
    /// One FIFO engine's ticket turnstile.
    pub const ENGINE_TICKETS: LockRank = LockRank { value: 120, name: "ENGINE_TICKETS" };
    /// The process-global kernel library.
    pub const KERNEL_STORE: LockRank = LockRank { value: 150, name: "KERNEL_STORE" };
    /// The gateway's work queue to the worker pool (leaf): a grant's wake
    /// pushes onto it with the dispatcher lock held.
    pub const GATEWAY_WORK: LockRank = LockRank { value: 190, name: "GATEWAY_WORK" };
    /// The runtime tracer's event ring (innermost: recorded from anywhere).
    pub const TRACER_RING: LockRank = LockRank { value: 200, name: "TRACER_RING" };
    /// The mux reactor's connection table: which connections exist and
    /// which of them a reply sink left for the reactor to look at. Every
    /// reply takes it for a lookup, never across a write or a service call.
    pub const REACTOR_CONNS: LockRank = LockRank { value: 201, name: "REACTOR_CONNS" };
    /// A multiplexed client connection's reply demux: the requests in
    /// flight, which caller is reading the socket, and what the last reader
    /// left buffered (leaf tier; never held across a read or a write).
    pub const MUX_PENDING: LockRank = LockRank { value: 203, name: "MUX_PENDING" };
    /// One reactor connection's outbound half (socket, unsent bytes,
    /// in-flight IDs): held by whichever thread encodes and writes a
    /// reply, taken after the reactor's table, never across a service call.
    pub const CONN_OUT: LockRank = LockRank { value: 204, name: "CONN_OUT" };
    /// One client connection's write half: serializes frame writes
    /// (innermost of the transport tier).
    pub const CONN_WRITE: LockRank = LockRank { value: 205, name: "CONN_WRITE" };

    /// Every declared rank, in order — the lock graph's node set.
    pub const ALL: &[LockRank] = &[
        HEAD_GATE,
        CONN_CHANNELS,
        CHAN_QUEUE,
        CTX_SERVICE,
        MIGRATION,
        SCHED,
        CTX_INNER,
        TENANT_POLICY,
        DRIVER_SLOTS,
        RT_HANDLERS,
        RT_MONITOR,
        RT_REGISTRY,
        MM_TABLE,
        MM_STATE,
        DEVICE_STATE,
        ENGINE_TICKETS,
        KERNEL_STORE,
        GATEWAY_WORK,
        TRACER_RING,
        REACTOR_CONNS,
        MUX_PENDING,
        CONN_OUT,
        CONN_WRITE,
    ];
}

#[cfg(debug_assertions)]
thread_local! {
    /// Ranks this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
}

/// Panics if acquiring `rank` now would violate the lock order. Runs
/// *before* blocking, so an attempted inversion fails deterministically
/// even when the locks happen to be free.
#[cfg(debug_assertions)]
fn check_order(rank: LockRank) {
    HELD.with(|held| {
        let held = held.borrow();
        if let Some(&worst) = held.iter().max_by_key(|r| r.value) {
            if rank.value <= worst.value {
                panic!(
                    "lock rank inversion: acquiring {} (rank {}) while holding {} (rank {}); \
                     held stack: {:?}",
                    rank.name,
                    rank.value,
                    worst.name,
                    worst.value,
                    held.iter().map(|r| r.name).collect::<Vec<_>>(),
                );
            }
        }
    });
}

#[cfg(debug_assertions)]
fn push_rank(rank: LockRank) {
    // `try_with`: a guard may drop during thread-local teardown.
    let _ = HELD.try_with(|held| held.borrow_mut().push(rank));
}

#[cfg(debug_assertions)]
fn pop_rank(rank: LockRank) {
    let _ = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|r| *r == rank) {
            held.remove(pos);
        }
    });
}

/// The ranks the current thread holds right now (debug builds only;
/// release builds always report an empty stack). Test/diagnostic hook.
pub fn held_ranks() -> Vec<LockRank> {
    #[cfg(debug_assertions)]
    {
        HELD.try_with(|held| held.borrow().clone()).unwrap_or_default()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

thread_local! {
    /// The thread's id, read from the standard library once per thread.
    static THREAD_ID: ThreadId = std::thread::current().id();
}

/// The calling thread's id. `std::thread::current()` clones the thread's
/// handle and drops it again on every call; this reads a copy kept per
/// thread, for the paths that ask "is it me?" per operation (an engine's
/// holder, a connection's cork).
pub fn current_thread_id() -> ThreadId {
    THREAD_ID.with(|id| *id)
}

/// A `try_lock` outcome with poisoning taken over: `None` only when the
/// lock is held.
fn unpoisoned<G>(res: TryLockResult<G>) -> Option<G> {
    match res {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A mutex carrying a declared [`LockRank`]. Debug builds enforce the rank
/// order on every `lock()` and count contended acquisitions; release
/// builds are a zero-cost wrapper over `std::sync::Mutex`.
pub struct RankedMutex<T> {
    rank: LockRank,
    #[cfg(debug_assertions)]
    contended: AtomicU64,
    inner: Mutex<T>,
}

/// RAII guard for [`RankedMutex`]; pops the rank off the thread's stack on
/// drop.
pub struct RankedMutexGuard<'a, T> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    /// The owning mutex's address: the mtcheck hooks key lock identity and
    /// condvar/mutex association off it.
    #[cfg(debug_assertions)]
    addr: usize,
    inner: MutexGuard<'a, T>,
}

impl<T> RankedMutex<T> {
    /// A mutex at the given position in the lock order.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedMutex {
            rank,
            #[cfg(debug_assertions)]
            contended: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// The declared rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the lock, enforcing the rank order in debug builds. In an
    /// armed mtcheck session this is a sync point: the explorer may park
    /// the thread here until the schedule grants it the turn.
    #[inline]
    pub fn lock(&self) -> RankedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let addr = self as *const Self as usize;
            check_order(self.rank);
            crate::mtcheck::hook_before_lock(addr, self.rank, crate::mtcheck::AcqKind::Mutex);
            let inner = match unpoisoned(self.inner.try_lock()) {
                Some(guard) => guard,
                None => {
                    // Contended: another thread holds it right now. Counted
                    // structurally (no timings) so the det harness — which
                    // drives the runtime sequentially — observes zero.
                    self.contended.fetch_add(1, Ordering::Relaxed);
                    self.inner.lock().unwrap_or_else(PoisonError::into_inner)
                }
            };
            push_rank(self.rank);
            crate::mtcheck::hook_acquired(addr, crate::mtcheck::AcqKind::Mutex);
            RankedMutexGuard { rank: self.rank, addr, inner }
        }
        #[cfg(not(debug_assertions))]
        {
            RankedMutexGuard { inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner) }
        }
    }

    /// Attempts the lock without blocking. Deliberately *not* rank-checked:
    /// a failed `try_lock` cannot participate in a deadlock cycle, and the
    /// runtime's swapper/migrator legitimately probe low-ranked service
    /// locks opportunistically. A successful try still records the rank so
    /// later blocking acquisitions are checked against it. Not a schedule
    /// sync point either (it never blocks, so its outcome is already a pure
    /// function of the schedule), though both outcomes enter the trace.
    #[inline]
    pub fn try_lock(&self) -> Option<RankedMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        {
            let addr = self as *const Self as usize;
            let Some(inner) = unpoisoned(self.inner.try_lock()) else {
                crate::mtcheck::hook_try_failed(addr);
                return None;
            };
            push_rank(self.rank);
            crate::mtcheck::hook_acquired(addr, crate::mtcheck::AcqKind::Mutex);
            Some(RankedMutexGuard { rank: self.rank, addr, inner })
        }
        #[cfg(not(debug_assertions))]
        {
            Some(RankedMutexGuard { inner: unpoisoned(self.inner.try_lock())? })
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Contended acquisitions observed since the last call, and resets the
    /// counter. Always 0 in release builds (the counter does not exist) and
    /// under sequential drivers (nothing ever contends), which keeps replay
    /// fingerprints byte-identical across build profiles.
    pub fn take_contended(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            self.contended.swap(0, Ordering::Relaxed)
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }
}

impl<T> std::ops::Deref for RankedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RankedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedMutexGuard<'_, T> {
    fn drop(&mut self) {
        pop_rank(self.rank);
        // Runs before the inner guard's own drop releases the mutex, so a
        // competing acquire always observes this release event first.
        crate::mtcheck::hook_released(self.addr);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedMutex").field("rank", &self.rank).field("data", &self.inner).finish()
    }
}

/// A reader-writer lock carrying a declared [`LockRank`]. Both read and
/// write acquisitions participate in the rank order.
pub struct RankedRwLock<T> {
    rank: LockRank,
    inner: RwLock<T>,
}

/// Shared-read RAII guard for [`RankedRwLock`].
pub struct RankedRwLockReadGuard<'a, T> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    #[cfg(debug_assertions)]
    addr: usize,
    inner: RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RankedRwLock`].
pub struct RankedRwLockWriteGuard<'a, T> {
    #[cfg(debug_assertions)]
    rank: LockRank,
    #[cfg(debug_assertions)]
    addr: usize,
    inner: RwLockWriteGuard<'a, T>,
}

impl<T> RankedRwLock<T> {
    /// An rwlock at the given position in the lock order.
    pub const fn new(rank: LockRank, value: T) -> Self {
        RankedRwLock { rank, inner: RwLock::new(value) }
    }

    /// The declared rank.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires a shared read guard, enforcing the rank order in debug.
    #[inline]
    pub fn read(&self) -> RankedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let addr = self as *const Self as usize;
            check_order(self.rank);
            crate::mtcheck::hook_before_lock(addr, self.rank, crate::mtcheck::AcqKind::Read);
            let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            push_rank(self.rank);
            crate::mtcheck::hook_acquired(addr, crate::mtcheck::AcqKind::Read);
            RankedRwLockReadGuard { rank: self.rank, addr, inner }
        }
        #[cfg(not(debug_assertions))]
        {
            RankedRwLockReadGuard {
                inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Acquires the exclusive write guard, enforcing the rank order in
    /// debug builds. Contention is not counted: writes are rare (hotplug,
    /// kernel registration).
    #[inline]
    pub fn write(&self) -> RankedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let addr = self as *const Self as usize;
            check_order(self.rank);
            crate::mtcheck::hook_before_lock(addr, self.rank, crate::mtcheck::AcqKind::Write);
            let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
            push_rank(self.rank);
            crate::mtcheck::hook_acquired(addr, crate::mtcheck::AcqKind::Write);
            RankedRwLockWriteGuard { rank: self.rank, addr, inner }
        }
        #[cfg(not(debug_assertions))]
        {
            RankedRwLockWriteGuard {
                inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

impl<T> std::ops::Deref for RankedRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::Deref for RankedRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RankedRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        pop_rank(self.rank);
        crate::mtcheck::hook_released(self.addr);
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for RankedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        pop_rank(self.rank);
        crate::mtcheck::hook_released(self.addr);
    }
}

impl<T> std::fmt::Debug for RankedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedRwLock").field("rank", &self.rank).finish_non_exhaustive()
    }
}

// Release builds compile the rank bookkeeping out: each ranked lock is its
// `std::sync` lock and its rank, and each ranked guard is its `std` guard.
#[cfg(not(debug_assertions))]
const _: () = {
    assert!(size_of::<RankedMutex<u64>>() == size_of::<(LockRank, Mutex<u64>)>());
    assert!(size_of::<RankedRwLock<u64>>() == size_of::<(LockRank, RwLock<u64>)>());
    assert!(size_of::<RankedMutexGuard<u64>>() == size_of::<MutexGuard<u64>>());
    assert!(size_of::<RankedRwLockReadGuard<u64>>() == size_of::<RwLockReadGuard<u64>>());
    assert!(size_of::<RankedRwLockWriteGuard<u64>>() == size_of::<RwLockWriteGuard<u64>>());
};

/// A condition variable paired with [`RankedMutex`] guards. The mutex's
/// rank stays on the thread's stack while parked (see module docs).
///
/// Unlike a bare `std::sync::Condvar`, whose notify is a `futex` system
/// call whether or not anybody sleeps, it counts its waiters, and a notify
/// with none returns at once. The count is raised in the wait while the
/// guard's mutex is still held and lowered on return, so a notify can miss
/// a waiter only if it ran before that waiter took the mutex. That is safe
/// under the rule every caller in this workspace follows
/// (`gpusim::engine`, `api::transport::mux`, `cluster::sem`,
/// `core::sched::acquire`, the gateway's work queue in `core::mux` and the
/// shutdown broadcast in `core::runtime`): **the predicate changes under
/// the mutex the waiters wait with**, before the notify. A waiter that
/// locks later sees the new predicate and never sleeps; one that locked
/// earlier was counted before it let go of the mutex, and the notifier's
/// own acquisition of that mutex makes the count visible.
pub struct RankedCondvar {
    inner: Condvar,
    waiters: AtomicUsize,
    /// Signals handed to the std condvar (test probe).
    #[cfg(test)]
    signals: AtomicUsize,
}

impl RankedCondvar {
    /// A fresh condvar.
    pub const fn new() -> Self {
        RankedCondvar {
            inner: Condvar::new(),
            waiters: AtomicUsize::new(0),
            #[cfg(test)]
            signals: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified, releasing the guard's mutex while parked.
    pub fn wait<T>(&self, guard: &mut RankedMutexGuard<'_, T>) {
        self.wait_or_time_out(guard, None);
    }

    /// Blocks until notified or `deadline` passes; `true` when it timed
    /// out. Under the explorer the real deadline is ignored (scenario time
    /// is logical): the wait behaves like [`RankedCondvar::wait`] and
    /// reports "notified".
    pub fn wait_until<T>(&self, guard: &mut RankedMutexGuard<'_, T>, deadline: Instant) -> bool {
        self.wait_or_time_out(guard, Some(deadline))
    }

    fn wait_or_time_out<T>(
        &self,
        guard: &mut RankedMutexGuard<'_, T>,
        deadline: Option<Instant>,
    ) -> bool {
        #[cfg(debug_assertions)]
        {
            use crate::mtcheck;
            let cv = self as *const Self as usize;
            match mtcheck::hook_cv_wait_begin(cv, guard.addr) {
                None => self.park(guard, deadline),
                Some(mtcheck::Mode::Observe) => {
                    let timed_out = self.park(guard, deadline);
                    mtcheck::hook_cv_wait_end(cv, guard.addr, guard.rank);
                    timed_out
                }
                Some(mtcheck::Mode::Explore) => {
                    // Under the explorer, the *model* decides who a notify
                    // wakes: re-park until designated. The short tick bounds
                    // the window where a broadcast lands before this thread
                    // is physically parked.
                    while !mtcheck::hook_cv_should_resume(cv) {
                        let tick = Instant::now() + std::time::Duration::from_millis(5);
                        self.park(guard, Some(tick));
                    }
                    mtcheck::hook_cv_wait_end(cv, guard.addr, guard.rank);
                    false
                }
            }
        }
        #[cfg(not(debug_assertions))]
        self.park(guard, deadline)
    }

    /// Parks on the std condvar, counted as a waiter, until notified or
    /// `deadline` (if any) passes; `true` when it passed.
    fn park<T>(&self, guard: &mut RankedMutexGuard<'_, T>, deadline: Option<Instant>) -> bool {
        let mut timed_out = false;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        take_guard(&mut guard.inner, |g| match deadline {
            None => self.inner.wait(g).unwrap_or_else(PoisonError::into_inner),
            Some(deadline) => {
                let dur = deadline.saturating_duration_since(Instant::now());
                let (g, res) =
                    self.inner.wait_timeout(g, dur).unwrap_or_else(PoisonError::into_inner);
                timed_out = res.timed_out();
                g
            }
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    /// Wakes one parked waiter.
    pub fn notify_one(&self) {
        #[cfg(debug_assertions)]
        if crate::mtcheck::hook_cv_notify(self as *const Self as usize, false) {
            // The explorer designated the winner in the model; broadcast so
            // the designation — not the OS queue order — decides who runs.
            self.broadcast();
            return;
        }
        if self.has_waiters() {
            self.inner.notify_one();
        }
    }

    /// Wakes every parked waiter. Call sites must justify the broadcast to
    /// `mtlint` (`// mtlint: allow(notify-all, reason = "...")`): targeted
    /// wakeups are the default discipline.
    pub fn notify_all(&self) {
        #[cfg(debug_assertions)]
        {
            let _ = crate::mtcheck::hook_cv_notify(self as *const Self as usize, true);
        }
        self.broadcast();
    }

    fn broadcast(&self) {
        if self.has_waiters() {
            self.inner.notify_all();
        }
    }

    /// Whether a notify has anyone to wake (and counts it, under test).
    fn has_waiters(&self) -> bool {
        let any = self.waiters.load(Ordering::SeqCst) != 0;
        #[cfg(test)]
        self.signals.fetch_add(any as usize, Ordering::Relaxed);
        any
    }
}

/// Runs `f` on the guard in `slot`, putting back the guard `f` returns.
/// `f` must not panic between taking and returning the guard (std's wait
/// calls uphold this: a poisoned result still carries the re-acquired
/// guard, which `into_inner` recovers).
fn take_guard<'a, T>(
    slot: &mut MutexGuard<'a, T>,
    f: impl FnOnce(MutexGuard<'a, T>) -> MutexGuard<'a, T>,
) {
    // SAFETY: the guard is moved out, handed to `f` (which returns a live
    // guard for the same mutex), and the result written back before anyone
    // can observe the hole, so it is dropped exactly once. `f` (a std
    // `Condvar` wait) does not unwind mid-wait on the platforms this
    // workspace targets; a poisoned wait returns its guard instead.
    unsafe {
        let guard = std::ptr::read(slot);
        std::ptr::write(slot, f(guard));
    }
}

impl Default for RankedCondvar {
    fn default() -> Self {
        RankedCondvar::new()
    }
}

impl std::fmt::Debug for RankedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RankedCondvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    const LO: LockRank = LockRank { value: 1, name: "TEST_LO" };
    const HI: LockRank = LockRank { value: 2, name: "TEST_HI" };

    #[test]
    fn increasing_order_is_accepted() {
        let a = RankedMutex::new(LO, 1u32);
        let b = RankedMutex::new(HI, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        #[cfg(debug_assertions)]
        assert_eq!(held_ranks().len(), 2);
        drop(gb);
        drop(ga);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn reacquire_after_release_is_accepted() {
        let a = RankedMutex::new(HI, ());
        let b = RankedMutex::new(LO, ());
        drop(a.lock());
        drop(b.lock()); // LO after HI released: fine.
        let _gb = b.lock();
        drop(_gb);
        let _ga = a.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panics_in_debug() {
        let out = std::panic::catch_unwind(|| {
            let a = RankedMutex::new(HI, ());
            let b = RankedMutex::new(LO, ());
            let _ga = a.lock();
            let _gb = b.lock(); // rank 1 while holding rank 2
        });
        let msg = *out.expect_err("inversion must panic").downcast::<String>().unwrap();
        assert!(msg.contains("lock rank inversion"), "unexpected panic: {msg}");
        assert!(msg.contains("TEST_LO") && msg.contains("TEST_HI"));
        assert!(held_ranks().is_empty(), "unwound guards must pop their ranks");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_nesting_panics_in_debug() {
        let out = std::panic::catch_unwind(|| {
            let a = RankedMutex::new(LO, ());
            let b = RankedMutex::new(LO, ());
            let _ga = a.lock();
            let _gb = b.lock();
        });
        assert!(out.is_err(), "two locks at one rank may never nest");
    }

    #[test]
    fn try_lock_is_unchecked_but_recorded() {
        let a = RankedMutex::new(HI, ());
        let b = RankedMutex::new(LO, ());
        let _ga = a.lock();
        // Opportunistic probe below the held rank: allowed.
        let gb = b.try_lock().expect("uncontended");
        #[cfg(debug_assertions)]
        assert_eq!(held_ranks().len(), 2);
        drop(gb);
    }

    #[test]
    fn rwlock_participates_in_the_order() {
        let map = RankedRwLock::new(LO, vec![1, 2, 3]);
        let inner = RankedMutex::new(HI, 0u32);
        let r = map.read();
        *inner.lock() += r.len() as u32; // read guard held: 1 -> 2 is fine
        drop(r);
        map.write().push(4);
        assert_eq!(map.read().len(), 4);
    }

    #[test]
    fn condvar_roundtrip_under_ranked_mutex() {
        let pair = Arc::new((RankedMutex::new(LO, false), RankedCondvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock() = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        drop(done);
        t.join().unwrap();
        assert!(held_ranks().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn contended_acquisitions_are_counted() {
        let m = Arc::new(RankedMutex::new(LO, ()));
        assert_eq!(m.take_contended(), 0, "uncontended lock counts nothing");
        drop(m.lock());
        assert_eq!(m.take_contended(), 0);
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            drop(m2.lock()); // blocks until the main thread releases
        });
        // Give the spawned thread time to hit the contended path.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(g);
        t.join().unwrap();
        assert_eq!(m.take_contended(), 1);
        assert_eq!(m.take_contended(), 0, "take drains the counter");
    }

    #[test]
    fn mutex_try_lock_fails_only_while_held() {
        let m = RankedMutex::new(LO, 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn mutex_stays_usable_after_a_holder_panicked() {
        let m = Arc::new(RankedMutex::new(LO, 1u32));
        let m2 = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            *m2.lock() += 1;
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 3, "the dead holder's write is kept");
        assert!(m.try_lock().is_some());
        let cv = RankedCondvar::new();
        assert!(cv.wait_until(&mut m.lock(), Instant::now() + Duration::from_millis(1)));
        assert!(held_ranks().is_empty());
        assert_eq!(Arc::try_unwrap(m).ok().unwrap().into_inner(), 3);
    }

    #[test]
    fn rwlock_stays_usable_after_a_writer_panicked() {
        let l = Arc::new(RankedRwLock::new(LO, 1u32));
        let l2 = Arc::clone(&l);
        let died = std::thread::spawn(move || {
            *l2.write() += 1;
            let _w = l2.write();
            panic!("writer dies");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*l.read(), 2, "the dead writer's write is kept");
        *l.write() += 1;
        assert_eq!(*l.read(), 3);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = RankedMutex::new(LO, ());
        let cv = RankedCondvar::new();
        assert!(cv.wait_until(&mut m.lock(), Instant::now() + Duration::from_millis(10)));
    }

    #[test]
    fn notify_without_waiter_is_not_stored() {
        let m = RankedMutex::new(LO, ());
        let cv = RankedCondvar::new();
        cv.notify_one();
        cv.notify_all();
        let timed_out = cv.wait_until(&mut m.lock(), Instant::now() + Duration::from_millis(10));
        assert!(timed_out, "a notify nobody heard must not wake a later waiter");
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u32 = 10_000;
        let pair = Arc::new((RankedMutex::new(LO, 0u32), RankedCondvar::new()));
        // Each side waits for the turn to reach its parity, then passes it.
        let play = |pair: &(RankedMutex<u32>, RankedCondvar), parity: u32| {
            let (turn, cv) = pair;
            let mut t = turn.lock();
            while *t < 2 * ROUNDS {
                if *t % 2 == parity {
                    *t += 1;
                    cv.notify_one();
                } else {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    assert!(!cv.wait_until(&mut t, deadline), "wake-up lost at turn {}", *t);
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
        let shared = Arc::new((RankedMutex::new(LO, (0usize, false)), RankedCondvar::new()));
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
        let m = RankedMutex::new(LO, 0usize);
        let cv = RankedCondvar::new();
        for _ in 0..ROUNDS {
            *m.lock() += 1;
            cv.notify_one();
            cv.notify_all();
        }
        assert_eq!(cv.signals.load(Ordering::Relaxed), 0, "nobody waited: nothing to send");

        // (round the waiter sleeps in, round the notifier released): the
        // waiter publishes its round under the mutex just before it waits,
        // so a notifier that reads it there finds the waiter counted.
        let shared = Arc::new((RankedMutex::new(LO, (0usize, 0usize)), RankedCondvar::new()));
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

    #[test]
    fn rank_table_is_strictly_increasing_and_unique() {
        for pair in lock_rank::ALL.windows(2) {
            assert!(
                pair[0].value < pair[1].value,
                "{} ({}) must precede {} ({})",
                pair[0].name,
                pair[0].value,
                pair[1].name,
                pair[1].value
            );
        }
    }
}
