//! mtcheck: dynamic happens-before race detection and controlled schedule
//! exploration over the ranked-lock layer (DESIGN.md §16).
//!
//! Two cooperating pieces share this module:
//!
//! 1. **Happens-before race detector.** While a session is armed, every
//!    ranked-lock acquire/release and condvar wait/notify performed by a
//!    *registered participant thread* maintains per-thread [`VectorClock`]s
//!    (release joins the thread's clock into the lock, acquire joins the
//!    lock's clock into the thread). A [`Shadow<T>`] cell records each read
//!    and write against those clocks: two conflicting accesses with no
//!    happens-before edge between them are reported as a race, annotated
//!    with the lock ranks each side held — the report says not just *that*
//!    the accesses were unordered but *which* locks failed to order them.
//!
//! 2. **Schedule explorer engine.** In [`Mode::Explore`] a cooperative
//!    scheduler serializes the participant threads: each blocking lock
//!    acquisition is a *sync point* where the thread parks until the
//!    controller grants it the turn, and the controller picks the next
//!    thread from the currently *enabled* set (those whose wanted lock is
//!    actually free) following an explicit schedule prefix. Replaying the
//!    same prefix reproduces the same decision sequence, event trace and
//!    fingerprint bit for bit. Condvars are modeled precisely: `notify_one`
//!    designates the lowest-tid modeled waiter (and broadcasts underneath so
//!    the designation, not the OS, picks the winner), waiters re-park until
//!    designated, and a state where every live thread waits on an
//!    un-signaled condvar is reported as a lost-wakeup deadlock.
//!
//! The instrumentation call sites live in [`crate::sync`] behind
//! `cfg(debug_assertions)` — release builds compile the entire layer out
//! (the same `bench.sh` rank-overhead gate that covers the rank checker
//! covers these hooks). Even in debug builds every hook is two loads
//! (an armed flag and a thread-local) unless a session is active *and* the
//! calling thread registered as a participant, so the ordinary test suite
//! pays nothing.

// The hook call sites in sync.rs are cfg(debug_assertions); in release the
// engine internals are intentionally uncalled (and the public entry points
// refuse to run).
#![cfg_attr(not(debug_assertions), allow(dead_code))]

use crate::sync::{held_ranks, LockRank};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on participants per session (scenarios use 2–4 threads).
pub const MAX_PARTICIPANTS: usize = 8;

/// How long the controller waits for the running thread to reach its next
/// sync point before declaring the run stalled (a liveness backstop only;
/// scenario segments are microseconds).
const WATCHDOG: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A fixed-width vector clock over participant thread ids. Component `i`
/// counts release epochs of thread `i`; `a ≤ b` pointwise means every event
/// `a` knows about happened before `b`'s view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock {
    slots: [u32; MAX_PARTICIPANTS],
}

impl VectorClock {
    /// The zero clock (knows about nothing).
    pub const fn new() -> Self {
        VectorClock { slots: [0; MAX_PARTICIPANTS] }
    }

    /// Component for thread `tid`.
    pub fn get(&self, tid: usize) -> u32 {
        self.slots[tid]
    }

    /// Advances `tid`'s own component (a new epoch: later accesses by `tid`
    /// are no longer ordered before edges published at the old epoch).
    pub fn tick(&mut self, tid: usize) {
        self.slots[tid] += 1;
    }

    /// Pointwise maximum: after `a.join(b)`, `a` knows everything `b` knew.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Pointwise `self ≤ other`: everything `self` knows, `other` knows.
    pub fn le(&self, other: &VectorClock) -> bool {
        self.slots.iter().zip(other.slots.iter()).all(|(a, b)| a <= b)
    }

    /// Whether the epoch `(tid, clock)` happened before this clock's view —
    /// the FastTrack-style O(1) ordering test.
    pub fn covers(&self, tid: usize, clock: u32) -> bool {
        self.slots[tid] >= clock
    }
}

// ---------------------------------------------------------------------------
// Public report types
// ---------------------------------------------------------------------------

/// Session mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Race detection only; participant threads free-run under the OS
    /// scheduler. Verdicts are still deterministic for lock-disjoint and
    /// lock-ordered fixtures: happens-before does not depend on timing.
    Observe,
    /// Race detection plus the cooperative scheduler: one participant runs
    /// at a time, interleavings are chosen by an explicit schedule prefix.
    Explore,
}

/// One side of a reported race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// Participant thread id (spawn order).
    pub thread: u32,
    /// Whether the access was a write.
    pub write: bool,
    /// Names of the lock ranks the thread held at the access — the
    /// rank-annotation that tells the reader which locks failed to order
    /// the two sides.
    pub ranks: Vec<&'static str>,
    /// Global operation index within the session (trace position).
    pub op: u64,
}

/// Two conflicting, happens-before-unordered accesses to one shadow cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The cell's declared name (e.g. `"sched.free"`).
    pub cell: String,
    /// `"write-write"`, `"write-read"` or `"read-write"`.
    pub kind: &'static str,
    pub first: AccessInfo,
    pub second: AccessInfo,
}

impl RaceReport {
    /// One-line deterministic rendering for reports and CLI output.
    pub fn describe(&self) -> String {
        let fmt = |a: &AccessInfo| {
            format!(
                "t{} {} holding [{}] at op {}",
                a.thread,
                if a.write { "write" } else { "read" },
                a.ranks.join(", "),
                a.op
            )
        };
        format!(
            "{} race on `{}`: {} vs {}",
            self.kind,
            self.cell,
            fmt(&self.first),
            fmt(&self.second)
        )
    }
}

/// One scheduling decision of an explored run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Threads that were enabled (sorted by tid).
    pub enabled: Vec<u32>,
    /// Index into `enabled` that was granted the turn.
    pub chosen: u32,
    /// Human-readable sync point of the granted thread.
    pub point: String,
    /// Stable ids of the locks and cells the granted segment touched
    /// (until the next decision) — the DPOR-lite dependence footprint.
    pub footprint: Vec<u64>,
}

/// Everything one session observed.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Explore mode: the decision sequence actually taken.
    pub decisions: Vec<Decision>,
    /// Happens-before violations, deduplicated per (cell, kind, threads).
    pub races: Vec<RaceReport>,
    /// Participant panics (tid, rendered payload) — a rank-inversion panic
    /// inside a scenario surfaces here.
    pub panics: Vec<(u32, String)>,
    /// Set when every live thread was blocked with nothing enabled (e.g. a
    /// lost wakeup: all waiting on a condvar nobody will signal).
    pub deadlock: Option<String>,
    /// The watchdog fired: a granted thread never reached its next sync
    /// point. The report is partial and the run's threads were abandoned.
    pub stalled: bool,
    /// Total instrumented events.
    pub events: u64,
    /// FNV-1a fingerprint of the full event + decision trace. Two runs of
    /// the same scenario under the same schedule produce the same value.
    pub fingerprint: u64,
}

impl RunReport {
    /// Whether the run found any violation (race, deadlock, panic, stall).
    pub fn clean(&self) -> bool {
        self.races.is_empty() && self.panics.is_empty() && self.deadlock.is_none() && !self.stalled
    }
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// How a lock is being taken (affects enabledness and hold tracking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AcqKind {
    Mutex,
    Read,
    Write,
}

#[derive(Clone, Debug)]
enum Point {
    Start,
    Lock { addr: usize, rank: &'static str, kind: AcqKind },
    PostWait { rank: &'static str },
}

impl Point {
    fn describe(&self, tid: u32) -> String {
        match self {
            Point::Start => format!("t{tid} start"),
            Point::Lock { rank, kind, .. } => {
                let verb = match kind {
                    AcqKind::Mutex => "lock",
                    AcqKind::Read => "read",
                    AcqKind::Write => "write",
                };
                format!("t{tid} {verb} {rank}")
            }
            Point::PostWait { rank } => format!("t{tid} resume {rank}"),
        }
    }
}

#[derive(Clone, Debug)]
enum Status {
    /// Spawned but not yet registered.
    Absent,
    /// Holds the turn (or free-running in observe mode).
    Running,
    /// Parked at a sync point awaiting a grant.
    Arrived(Point),
    /// Parked in a condvar wait (released `mutex`).
    WaitingCv {
        mutex: usize,
    },
    /// Designated by a notify; physically reacquiring `mutex`.
    Notified {
        mutex: usize,
    },
    Finished,
}

#[derive(Clone, Debug)]
enum Hold {
    Free,
    Excl(u32),
    Shared(Vec<u32>),
}

struct LockState {
    stable: u32,
    vc: VectorClock,
    hold: Hold,
}

#[derive(Clone)]
struct Access {
    tid: u32,
    clock: u32,
    ranks: Vec<&'static str>,
    op: u64,
}

impl Access {
    fn info(&self, write: bool) -> AccessInfo {
        AccessInfo { thread: self.tid, write, ranks: self.ranks.clone(), op: self.op }
    }
}

struct CellState {
    stable: u32,
    name: &'static str,
    write: Option<Access>,
    reads: Vec<Access>,
}

struct CvState {
    vc: VectorClock,
    /// tids parked in a modeled wait.
    waiters: Vec<u32>,
    /// tids designated by a notify but not yet resumed.
    notified: Vec<u32>,
    /// The `RankedCondvar`'s address, kept so a deadlock abort can broadcast
    /// a real wakeup to modeled waiters (see [`SessionState::abort`]).
    addr: usize,
}

struct SessionState {
    epoch: u64,
    mode: Mode,
    schedule: Vec<u32>,
    nthreads: u32,
    registered: u32,
    statuses: Vec<Status>,
    clocks: Vec<VectorClock>,
    turn: Option<u32>,
    aborting: bool,
    locks: BTreeMap<usize, LockState>,
    cells: BTreeMap<u64, CellState>,
    cvs: BTreeMap<usize, CvState>,
    decisions: Vec<Decision>,
    cur_footprint: Vec<u64>,
    races: Vec<RaceReport>,
    race_keys: BTreeSet<(u32, &'static str, u32, u32)>,
    panics: Vec<(u32, String)>,
    deadlock: Option<String>,
    stalled: bool,
    events: u64,
    hash: u64,
    next_lock_stable: u32,
    next_cell_stable: u32,
}

impl SessionState {
    fn new(epoch: u64, mode: Mode, schedule: Vec<u32>, nthreads: u32) -> Self {
        // Each thread's own component starts at 1 so a first-epoch access
        // (t, 1) is NOT covered by another thread's zero clock — a race
        // before t's first release must still be flagged.
        let mut clocks = vec![VectorClock::new(); nthreads as usize];
        for (i, c) in clocks.iter_mut().enumerate() {
            c.tick(i);
        }
        SessionState {
            epoch,
            mode,
            schedule,
            nthreads,
            registered: 0,
            statuses: vec![Status::Absent; nthreads as usize],
            clocks,
            turn: None,
            aborting: false,
            locks: BTreeMap::new(),
            cells: BTreeMap::new(),
            cvs: BTreeMap::new(),
            decisions: Vec::new(),
            cur_footprint: Vec::new(),
            races: Vec::new(),
            race_keys: BTreeSet::new(),
            panics: Vec::new(),
            deadlock: None,
            stalled: false,
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            next_lock_stable: 0,
            next_cell_stable: 0,
        }
    }

    /// FNV-1a fold of one event word.
    fn fold(&mut self, word: u64) {
        let mut h = self.hash;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash = h;
    }

    fn event(&mut self, tag: u64, tid: u32, a: u64, b: u64) {
        self.events += 1;
        self.fold(tag);
        self.fold(tid as u64);
        self.fold(a);
        self.fold(b);
    }

    fn lock_entry(&mut self, addr: usize) -> &mut LockState {
        let next = &mut self.next_lock_stable;
        self.locks.entry(addr).or_insert_with(|| {
            let stable = *next;
            *next += 1;
            LockState { stable, vc: VectorClock::new(), hold: Hold::Free }
        })
    }

    fn lock_available(&self, addr: usize, kind: AcqKind, tid: u32) -> bool {
        match self.locks.get(&addr).map(|l| &l.hold) {
            None | Some(Hold::Free) => true,
            Some(Hold::Excl(owner)) => *owner == tid,
            Some(Hold::Shared(readers)) => {
                kind == AcqKind::Read || readers.iter().all(|r| *r == tid)
            }
        }
    }

    fn report_race(
        &mut self,
        cell_stable: u32,
        name: &'static str,
        kind: &'static str,
        first: (Access, bool),
        second: (Access, bool),
    ) {
        let key = (cell_stable, kind, first.0.tid, second.0.tid);
        if self.race_keys.insert(key) {
            self.races.push(RaceReport {
                cell: name.to_string(),
                kind,
                first: first.0.info(first.1),
                second: second.0.info(second.1),
            });
        }
    }

    /// Unsticks every parked participant: gate waiters proceed without a
    /// turn and modeled condvar waiters get a real broadcast (spurious from
    /// the caller's point of view, which condvar semantics permit).
    fn abort(&mut self) -> Vec<usize> {
        self.aborting = true;
        self.cvs.values().filter(|cv| !cv.waiters.is_empty()).map(|cv| cv.addr).collect()
    }
}

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<SessionState>> = Mutex::new(None);
/// Participants parked for a turn wait here (re-checking `turn`).
static GATE: Condvar = Condvar::new();
/// The controller parks here waiting for quiescence.
static CTRL: Condvar = Condvar::new();
/// Serializes sessions process-wide (tests in one binary share the globals).
static SLOT: Mutex<()> = Mutex::new(());
static SESSION_EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(session epoch, tid)` of the current thread's registration. The
    /// epoch guards against a thread leaked by a stalled session touching a
    /// later session's state.
    static TID: Cell<Option<(u64, u32)>> = const { Cell::new(None) };
}

#[inline]
fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Whether lock instrumentation is compiled into this build. The explorer
/// requires a debug build; release builds compile every hook out.
pub fn instrumentation_active() -> bool {
    cfg!(debug_assertions)
}

/// The registered participant id of the current thread under the *current*
/// session, if any.
fn cur_tid(s: &SessionState) -> Option<u32> {
    match TID.try_with(Cell::get) {
        Ok(Some((epoch, tid))) if epoch == s.epoch => Some(tid),
        _ => None,
    }
}

/// Waits until the controller grants `tid` the turn (explore mode).
fn gate_wait(st: &mut MutexGuard<'_, Option<SessionState>>, tid: u32) {
    loop {
        let Some(s) = st.as_mut() else { return };
        if s.aborting || s.turn == Some(tid) {
            s.statuses[tid as usize] = Status::Running;
            return;
        }
        GATE.wait(st);
    }
}

/// Parks `tid` at a sync point and waits for the next grant.
fn arrive(st: &mut MutexGuard<'_, Option<SessionState>>, tid: u32, point: Point) {
    {
        let Some(s) = st.as_mut() else { return };
        if s.aborting {
            return;
        }
        s.statuses[tid as usize] = Status::Arrived(point);
        if s.turn == Some(tid) {
            s.turn = None;
        }
        CTRL.notify_all();
    }
    gate_wait(st, tid);
}

// ---------------------------------------------------------------------------
// Hooks (called from sync.rs on debug builds)
// ---------------------------------------------------------------------------

pub(crate) fn hook_before_lock(addr: usize, rank: LockRank, kind: AcqKind) {
    if !armed() {
        return;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return };
    let Some(tid) = cur_tid(s) else { return };
    if s.mode != Mode::Explore {
        return;
    }
    s.lock_entry(addr);
    arrive(&mut st, tid, Point::Lock { addr, rank: rank.name, kind });
}

pub(crate) fn hook_acquired(addr: usize, kind: AcqKind) {
    if !armed() {
        return;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return };
    let Some(tid) = cur_tid(s) else { return };
    let lock = s.lock_entry(addr);
    let (stable, lock_vc) = (lock.stable, lock.vc.clone());
    match kind {
        AcqKind::Mutex | AcqKind::Write => lock.hold = Hold::Excl(tid),
        AcqKind::Read => match &mut lock.hold {
            Hold::Shared(readers) => readers.push(tid),
            hold => *hold = Hold::Shared(vec![tid]),
        },
    }
    s.clocks[tid as usize].join(&lock_vc);
    s.event(1, tid, stable as u64, kind as u64);
    s.cur_footprint.push(1 << 32 | stable as u64);
}

pub(crate) fn hook_released(addr: usize) {
    if !armed() {
        return;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return };
    let Some(tid) = cur_tid(s) else { return };
    let thread_vc = s.clocks[tid as usize].clone();
    let lock = s.lock_entry(addr);
    lock.vc.join(&thread_vc);
    match &mut lock.hold {
        Hold::Shared(readers) => {
            readers.retain(|r| *r != tid);
            if readers.is_empty() {
                lock.hold = Hold::Free;
            }
        }
        hold => *hold = Hold::Free,
    }
    let stable = lock.stable;
    s.clocks[tid as usize].tick(tid as usize);
    s.event(2, tid, stable as u64, 0);
    // A release can unblock a notified thread's reacquisition: let the
    // controller re-evaluate quiescence.
    CTRL.notify_all();
}

/// A failed `try_lock` still contributes to the trace (its outcome is a
/// pure function of the schedule, so replays stay bit-identical).
pub(crate) fn hook_try_failed(addr: usize) {
    if !armed() {
        return;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return };
    let Some(tid) = cur_tid(s) else { return };
    let stable = s.lock_entry(addr).stable;
    s.event(3, tid, stable as u64, 0);
}

/// Begin a modeled condvar wait. Returns the session mode when the calling
/// thread is a tracked participant — the caller then performs the wait
/// (explore mode: looping on [`hook_cv_should_resume`]) and finishes with
/// [`hook_cv_wait_end`]. `None` means untracked: wait normally.
pub(crate) fn hook_cv_wait_begin(cv_addr: usize, mutex_addr: usize) -> Option<Mode> {
    if !armed() {
        return None;
    }
    let mut st = STATE.lock();
    let s = st.as_mut()?;
    let tid = cur_tid(s)?;
    if s.mode == Mode::Explore && s.aborting {
        // Post-abort drain: don't model the wait. The thread parks for
        // real; if nothing ever wakes it, the controller exits promptly
        // (quiescent + aborting) and the thread is abandoned.
        return None;
    }
    // The wait releases the mutex: record the release edge.
    let thread_vc = s.clocks[tid as usize].clone();
    let lock = s.lock_entry(mutex_addr);
    lock.vc.join(&thread_vc);
    lock.hold = Hold::Free;
    let stable = lock.stable;
    s.clocks[tid as usize].tick(tid as usize);
    let cv = s.cvs.entry(cv_addr).or_insert_with(|| CvState {
        vc: VectorClock::new(),
        waiters: Vec::new(),
        notified: Vec::new(),
        addr: cv_addr,
    });
    cv.waiters.push(tid);
    s.event(4, tid, stable as u64, 0);
    let mode = s.mode;
    if mode == Mode::Explore {
        s.statuses[tid as usize] = Status::WaitingCv { mutex: mutex_addr };
        if s.turn == Some(tid) {
            s.turn = None;
        }
        CTRL.notify_all();
    }
    Some(mode)
}

/// Whether a woken waiter may return from the wait (observe mode: always;
/// explore mode: only once designated by a notify, or on abort).
pub(crate) fn hook_cv_should_resume(cv_addr: usize) -> bool {
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return true };
    let Some(tid) = cur_tid(s) else { return true };
    if s.mode != Mode::Explore || s.aborting {
        return true;
    }
    s.cvs.get(&cv_addr).is_some_and(|cv| cv.notified.contains(&tid))
}

/// The wait returned (mutex reacquired): park for a turn (explore mode),
/// then acquire edges from the condvar and the mutex. The turn comes first
/// because a notifier that signals after (or just before) releasing the
/// mutex is still running when its waiter gets here: an event recorded now
/// would land before or behind the notifier's next ones as the OS pleases,
/// and replays of one schedule would stop being bit-identical.
pub(crate) fn hook_cv_wait_end(cv_addr: usize, mutex_addr: usize, rank: LockRank) {
    if !armed() {
        return;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return };
    let Some(tid) = cur_tid(s) else { return };
    if let Some(cv) = s.cvs.get_mut(&cv_addr) {
        cv.waiters.retain(|w| *w != tid);
        cv.notified.retain(|w| *w != tid);
    }
    s.lock_entry(mutex_addr).hold = Hold::Excl(tid);
    if s.mode == Mode::Explore && !s.aborting {
        arrive(&mut st, tid, Point::PostWait { rank: rank.name });
    }
    let Some(s) = st.as_mut() else { return };
    let cv_vc = s.cvs.get(&cv_addr).map(|cv| cv.vc.clone()).unwrap_or_default();
    let lock = s.lock_entry(mutex_addr);
    let (stable, lock_vc) = (lock.stable, lock.vc.clone());
    s.clocks[tid as usize].join(&cv_vc);
    s.clocks[tid as usize].join(&lock_vc);
    s.event(5, tid, stable as u64, 0);
}

/// A notify. Returns `true` when the caller is an explore-mode participant:
/// the engine designated the winner itself, so the caller must broadcast
/// underneath (`notify_all`) rather than let the OS pick one.
pub(crate) fn hook_cv_notify(cv_addr: usize, all: bool) -> bool {
    if !armed() {
        return false;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return false };
    let Some(tid) = cur_tid(s) else { return false };
    let thread_vc = s.clocks[tid as usize].clone();
    let explore = s.mode == Mode::Explore && !s.aborting;
    let cv = s.cvs.entry(cv_addr).or_insert_with(|| CvState {
        vc: VectorClock::new(),
        waiters: Vec::new(),
        notified: Vec::new(),
        addr: cv_addr,
    });
    cv.vc.join(&thread_vc);
    let mut designated = 0u64;
    if explore {
        // Deterministic designation: lowest-tid waiters first.
        let mut pending: Vec<u32> =
            cv.waiters.iter().copied().filter(|w| !cv.notified.contains(w)).collect();
        pending.sort_unstable();
        let take = if all { pending.len() } else { 1.min(pending.len()) };
        for w in &pending[..take] {
            cv.notified.push(*w);
            designated = designated << 8 | (*w as u64 + 1);
        }
        for w in &pending[..take] {
            if let Status::WaitingCv { mutex, .. } = s.statuses[*w as usize] {
                s.statuses[*w as usize] = Status::Notified { mutex };
            }
        }
    }
    s.clocks[tid as usize].tick(tid as usize);
    s.event(6, tid, all as u64, designated);
    explore
}

/// A shadow-cell access: the race check proper.
fn cell_access(id: u64, name: &'static str, write: bool) {
    if !armed() {
        return;
    }
    let mut st = STATE.lock();
    let Some(s) = st.as_mut() else { return };
    let Some(tid) = cur_tid(s) else { return };
    let my_vc = s.clocks[tid as usize].clone();
    let op = s.events;
    let next = &mut s.next_cell_stable;
    let cell = s.cells.entry(id).or_insert_with(|| {
        let stable = *next;
        *next += 1;
        CellState { stable, name, write: None, reads: Vec::new() }
    });
    let (stable, name) = (cell.stable, cell.name);
    let access = Access { tid, clock: my_vc.get(tid as usize), ranks: held_ranks_names(), op };
    let mut found: Vec<(&'static str, Access, bool)> = Vec::new();
    if let Some(w) = &cell.write {
        if w.tid != tid && !my_vc.covers(w.tid as usize, w.clock) {
            found.push((if write { "write-write" } else { "write-read" }, w.clone(), true));
        }
    }
    if write {
        for r in &cell.reads {
            if r.tid != tid && !my_vc.covers(r.tid as usize, r.clock) {
                found.push(("read-write", r.clone(), false));
            }
        }
        cell.write = Some(access.clone());
        cell.reads.clear();
    } else {
        cell.reads.retain(|r| r.tid != tid);
        cell.reads.push(access.clone());
    }
    for (kind, prior, prior_write) in found {
        s.report_race(stable, name, kind, (prior, prior_write), (access.clone(), write));
    }
    s.event(if write { 8 } else { 7 }, tid, stable as u64, 0);
    s.cur_footprint.push(2 << 32 | stable as u64);
}

fn held_ranks_names() -> Vec<&'static str> {
    held_ranks().iter().map(|r| r.name).collect()
}

// ---------------------------------------------------------------------------
// Shadow cells
// ---------------------------------------------------------------------------

/// A shared-state cell whose reads and writes are checked against the
/// session's happens-before relation. Transparent in release builds and in
/// debug builds without an armed session: `Deref`/`DerefMut` pass straight
/// through, so adopting a cell is a type change, not a call-site rewrite.
pub struct Shadow<T> {
    #[cfg(debug_assertions)]
    id: u64,
    #[cfg(debug_assertions)]
    name: &'static str,
    value: T,
}

impl<T> Shadow<T> {
    /// Wraps `value`; `name` labels the cell in race reports.
    pub fn new(name: &'static str, value: T) -> Self {
        let _ = name;
        Shadow {
            #[cfg(debug_assertions)]
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            #[cfg(debug_assertions)]
            name,
            value,
        }
    }

    /// Unwraps the cell.
    pub fn into_inner(self) -> T {
        self.value
    }

    #[inline]
    fn record(&self, write: bool) {
        #[cfg(debug_assertions)]
        if armed() {
            cell_access(self.id, self.name, write);
        }
        #[cfg(not(debug_assertions))]
        let _ = write;
    }
}

impl<T> std::ops::Deref for Shadow<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.record(false);
        &self.value
    }
}

impl<T> std::ops::DerefMut for Shadow<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.record(true);
        &mut self.value
    }
}

impl<T: Default> Default for Shadow<T> {
    fn default() -> Self {
        Shadow::new("shadow", T::default())
    }
}

impl<T: Clone> Clone for Shadow<T> {
    fn clone(&self) -> Self {
        self.record(false);
        #[cfg(debug_assertions)]
        let name = self.name;
        #[cfg(not(debug_assertions))]
        let name = "shadow";
        Shadow::new(name, self.value.clone())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shadow<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // No access recording: Debug formatting is diagnostic, not program
        // data flow.
        self.value.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Session harness
// ---------------------------------------------------------------------------

/// A participant thread body.
pub type Participant = Box<dyn FnOnce() + Send + 'static>;

/// Runs `threads` under race detection only (free-running interleaving).
pub fn observe(threads: Vec<Participant>) -> RunReport {
    run(Mode::Observe, Vec::new(), threads)
}

/// Runs `threads` under the cooperative scheduler, following `schedule` as
/// a prefix of decision indices (beyond the prefix, the lowest-tid enabled
/// thread is chosen). Deterministic: equal schedules yield equal reports.
pub fn explore(schedule: &[u32], threads: Vec<Participant>) -> RunReport {
    run(Mode::Explore, schedule.to_vec(), threads)
}

fn run(mode: Mode, schedule: Vec<u32>, threads: Vec<Participant>) -> RunReport {
    assert!(threads.len() <= MAX_PARTICIPANTS, "at most {MAX_PARTICIPANTS} participants");
    assert!(
        instrumentation_active(),
        "mtcheck sessions need a debug build (instrumentation is compiled out in release)"
    );
    let _slot = SLOT.lock();
    let epoch = SESSION_EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    let nthreads = threads.len() as u32;
    *STATE.lock() = Some(SessionState::new(epoch, mode, schedule, nthreads));
    ARMED.store(true, Ordering::Release);

    let handles: Vec<_> = threads
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            let tid = i as u32;
            std::thread::spawn(move || participant_main(epoch, tid, body))
        })
        .collect();

    let completed = match mode {
        Mode::Explore => controller(),
        Mode::Observe => wait_all_finished(nthreads),
    };

    ARMED.store(false, Ordering::Release);
    let s = STATE.lock().take().expect("session state present");
    if completed {
        for h in handles {
            let _ = h.join();
        }
    } else {
        // Stalled: abandon the wedged threads (they no-op against the dead
        // session if they ever wake).
        drop(handles);
    }
    let mut report = RunReport {
        decisions: s.decisions,
        races: s.races,
        panics: s.panics,
        deadlock: s.deadlock,
        stalled: s.stalled,
        events: s.events,
        fingerprint: s.hash,
    };
    // Close the final footprint.
    if let Some(last) = report.decisions.last_mut() {
        if last.footprint.is_empty() {
            last.footprint = s.cur_footprint;
        }
    }
    report
}

fn participant_main(epoch: u64, tid: u32, body: Participant) {
    TID.with(|t| t.set(Some((epoch, tid))));
    {
        let mut st = STATE.lock();
        let Some(s) = st.as_mut() else { return };
        if s.epoch != epoch {
            return;
        }
        s.registered += 1;
        let explore = s.mode == Mode::Explore;
        if explore {
            s.statuses[tid as usize] = Status::Arrived(Point::Start);
        } else {
            s.statuses[tid as usize] = Status::Running;
        }
        CTRL.notify_all();
        if explore {
            gate_wait(&mut st, tid);
        }
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(body));
    let mut st = STATE.lock();
    if let Some(s) = st.as_mut() {
        if s.epoch == epoch {
            s.statuses[tid as usize] = Status::Finished;
            if s.turn == Some(tid) {
                s.turn = None;
            }
            if let Err(payload) = outcome {
                let text = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                s.panics.push((tid, text));
            }
            CTRL.notify_all();
        }
    }
    TID.with(|t| t.set(None));
}

fn quiescent(s: &SessionState) -> bool {
    s.turn.is_none()
        && s.registered == s.nthreads
        && s.statuses.iter().all(|st| match st {
            Status::Arrived(_) | Status::Finished | Status::WaitingCv { .. } => true,
            Status::Notified { mutex } => {
                // Mid-reacquire: quiescent only while the mutex is held by
                // someone else (the thread is truly blocked, not running).
                !s.lock_available(*mutex, AcqKind::Mutex, u32::MAX)
            }
            Status::Running | Status::Absent => false,
        })
}

fn enabled_set(s: &SessionState) -> Vec<u32> {
    let mut out = Vec::new();
    for (i, st) in s.statuses.iter().enumerate() {
        let tid = i as u32;
        let ok = match st {
            Status::Arrived(Point::Start) | Status::Arrived(Point::PostWait { .. }) => true,
            Status::Arrived(Point::Lock { addr, kind, .. }) => s.lock_available(*addr, *kind, tid),
            _ => false,
        };
        if ok {
            out.push(tid);
        }
    }
    out
}

/// The explore-mode control loop: wait for quiescence, pick from the
/// enabled set per the schedule, grant, repeat. Returns `false` on stall.
fn controller() -> bool {
    let mut step = 0usize;
    loop {
        let mut st = STATE.lock();
        let deadline = Instant::now() + WATCHDOG;
        loop {
            let Some(s) = st.as_mut() else { return false };
            if quiescent(s) {
                break;
            }
            if CTRL.wait_until(&mut st, deadline).timed_out() {
                let Some(s) = st.as_mut() else { return false };
                if quiescent(s) {
                    break;
                }
                s.stalled = true;
                let cvs = s.abort();
                GATE.notify_all();
                drop(st);
                // Condvar wakeups must happen with STATE released: the
                // notify path re-enters the hooks.
                for cv in cvs {
                    wake_condvar(cv);
                }
                return false;
            }
        }
        let s = st.as_mut().expect("session live");
        // Attribute the events since the previous grant to that decision.
        let footprint = std::mem::take(&mut s.cur_footprint);
        if let Some(last) = s.decisions.last_mut() {
            last.footprint = footprint;
        }
        if s.statuses.iter().all(|x| matches!(x, Status::Finished)) {
            return true;
        }
        if s.aborting {
            // Quiescent after an abort but not everyone finished: the
            // drain wedged (e.g. a thread re-waited on a condvar nobody
            // will signal). Abandon the run — expected after a reported
            // deadlock, a genuine stall otherwise.
            if s.deadlock.is_none() {
                s.stalled = true;
            }
            return false;
        }
        let enabled = enabled_set(s);
        if enabled.is_empty() {
            let desc: Vec<String> =
                s.statuses.iter().enumerate().map(|(i, x)| format!("t{i}:{x:?}")).collect();
            s.deadlock = Some(format!(
                "no enabled thread (lost wakeup or lock cycle): [{}]",
                desc.join(" ")
            ));
            let cvs = s.abort();
            GATE.notify_all();
            drop(st);
            for cv in cvs {
                wake_condvar(cv);
            }
            continue;
        }
        let idx = s.schedule.get(step).copied().unwrap_or(0) as usize % enabled.len();
        let chosen = enabled[idx];
        let point = match &s.statuses[chosen as usize] {
            Status::Arrived(p) => p.describe(chosen),
            _ => unreachable!("enabled threads are Arrived"),
        };
        s.decisions.push(Decision {
            enabled: enabled.clone(),
            chosen: idx as u32,
            point,
            footprint: Vec::new(),
        });
        s.fold(0x5ead);
        s.fold(idx as u64);
        s.fold(enabled.len() as u64);
        s.turn = Some(chosen);
        step += 1;
        GATE.notify_all();
    }
}

/// Broadcasts a real wakeup on an aborted session's condvar so modeled
/// waiters re-check and observe the abort. The address was captured while a
/// participant was parked inside `wait` on that very condvar, so the
/// referent is alive for exactly the duration we need it.
fn wake_condvar(addr: usize) {
    let cv = unsafe { &*(addr as *const crate::sync::RankedCondvar) };
    cv.notify_all();
}

/// Observe-mode completion: wait (with watchdog) for every participant.
fn wait_all_finished(nthreads: u32) -> bool {
    let deadline = Instant::now() + WATCHDOG;
    let mut st = STATE.lock();
    loop {
        let Some(s) = st.as_mut() else { return false };
        let done =
            s.registered == nthreads && s.statuses.iter().all(|x| matches!(x, Status::Finished));
        if done {
            return true;
        }
        if CTRL.wait_until(&mut st, deadline).timed_out() {
            let cvs = match st.as_mut() {
                Some(s) => {
                    s.stalled = true;
                    s.abort()
                }
                None => Vec::new(),
            };
            drop(st);
            for cv in cvs {
                wake_condvar(cv);
            }
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_clock_join_is_pointwise_max() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        a.tick(0);
        b.tick(1);
        a.join(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn vector_clock_le_is_pointwise() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        b.tick(0);
        b.tick(1);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.le(&a), "reflexive");
    }

    #[test]
    fn vector_clock_concurrent_clocks_are_incomparable() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    fn vector_clock_covers_is_the_epoch_test() {
        let mut a = VectorClock::new();
        a.tick(3);
        a.tick(3);
        assert!(a.covers(3, 1));
        assert!(a.covers(3, 2));
        assert!(!a.covers(3, 3));
        assert!(a.covers(0, 0), "zero epochs are always covered");
    }

    #[test]
    fn vector_clock_tick_breaks_le() {
        let mut a = VectorClock::new();
        let b = a.clone();
        assert!(a.le(&b) && b.le(&a));
        a.tick(5);
        assert!(b.le(&a));
        assert!(!a.le(&b));
    }

    #[test]
    fn shadow_is_transparent_when_unarmed() {
        let mut s = Shadow::new("test.cell", 41u64);
        *s += 1;
        assert_eq!(*s, 42);
        assert_eq!(s.into_inner(), 42);
    }

    #[test]
    fn shadow_default_and_clone() {
        let s: Shadow<Vec<u32>> = Shadow::default();
        assert!(s.is_empty());
        let mut c = s.clone();
        c.push(7);
        assert_eq!(c.len(), 1);
    }
}
