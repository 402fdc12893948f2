//! The two operating-system calls the benchmark needs and `std` does not
//! offer: CPU affinity and the calling thread's CPU time.
//!
//! # Pinning
//!
//! The benchmark is sized for a two-vCPU sandbox. There a wake-up that
//! crosses vCPUs costs about 20 µs against 2 µs on one CPU, and which of an
//! op's five thread hand-offs cross is up to the scheduler: unpinned,
//! `launch_small` alternates between modes 40 % apart within one window and
//! no wall metric resolves at its bound. On one CPU the hand-offs cost the
//! same every time, so what is left is the runtime's own work.

/// Restricts the calling thread — and every thread it spawns afterwards — to
/// the first CPU it is allowed to run on. Returns that CPU, or `None` where
/// the platform offers no affinity call or the call fails (the run goes on
/// unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().find(|(_, w)| **w != 0)?;
    let bit = bits.trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(word * 64 + bit)
}

/// No affinity call on this platform: the run goes on unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// CPU time the calling thread has consumed, in ns. Time spent runnable but
/// waiting for the CPU is not in it, which is what makes it the right clock
/// for the calibration quantum: the quantum should slow down with the
/// machine, not with how many other threads happen to be runnable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, which writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// No per-thread CPU clock known for this platform.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}
