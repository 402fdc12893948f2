//! Machine-speed calibration: a fixed reference quantum timed between ops.
//!
//! The sandbox the benchmark is sized for changes speed under its feet: with
//! the process pinned and the CPU never idle or stolen, the same fixed
//! compute loop takes 0.14 s in one ten-second stretch and 0.24 s in the
//! next, and uncalibrated throughput of one commit spreads by 12–25 % over
//! ten runs — wider than any bound worth having. So every generator thread
//! interleaves its ops with a reference *quantum*: a fixed piece of work
//! that owes nothing to the code under test (a hand-off to a helper thread
//! and back, a 64-byte round trip through a socket pair, 1024 multiply-adds,
//! a 16 KiB copy). What the quantum costs right now, against its nominal cost
//! ([`QUANTUM_NOMINAL_NS`]), is the machine's current speed factor, and
//! measured times are scaled by it. Calibrated times are therefore "seconds
//! of the sandbox at the quantum's nominal cost"; the raw wall figures are
//! printed beside them.
//!
//! The quantum is timed on the thread's CPU clock, so queueing for the CPU
//! behind the other tenant of `tenant_mix` is not in it; what remains of the
//! hand-off is the sender's and receiver's own kernel path, which slows with
//! the machine like the runtime's five hand-offs per call do.

use crate::sys::thread_cpu_ns;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Nominal cost of one quantum in ns: its median over the runs of the first
/// baseline on the two-vCPU sandbox. Only a unit: it anchors calibrated
/// seconds to that sandbox's wall seconds and cancels out of every
/// comparison between two commits.
pub const QUANTUM_NOMINAL_NS: f64 = 4700.0;

/// Reference work as a share of the op time it follows.
const REFERENCE_SHARE: f64 = 0.2;

/// Ops on either side whose quanta are averaged into one op's speed factor:
/// long enough to average the quantum's own jitter, short enough to follow
/// a slow stretch of a few milliseconds.
const NEIGHBOURS: usize = 10;
const RING: usize = 2 * NEIGHBOURS + 1;

const MAX_QUANTA_PER_OP: usize = 4096;

/// Runs and times reference quanta for one thread.
pub struct Calibrator {
    to_helper: Option<Sender<()>>,
    from_helper: Receiver<()>,
    helper: Option<JoinHandle<()>>,
    near: UnixStream,
    far: UnixStream,
    words: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    /// `(op_ns, ns per quantum after it)` of the most recent ops.
    ring: VecDeque<(f64, f64)>,
    /// Whether the ring's first half has been emitted.
    primed: bool,
    quanta: u64,
    quanta_ns: u64,
}

impl Calibrator {
    /// Spawns the helper thread (it inherits the caller's CPU affinity).
    pub fn new() -> std::io::Result<Self> {
        let (to_helper, helper_rx) = channel::<()>();
        let (helper_tx, from_helper) = channel::<()>();
        let helper = std::thread::Builder::new().name("perf-calib".into()).spawn(move || {
            while helper_rx.recv().is_ok() {
                if helper_tx.send(()).is_err() {
                    break;
                }
            }
        })?;
        let (near, far) = UnixStream::pair()?;
        Ok(Calibrator {
            to_helper: Some(to_helper),
            from_helper,
            helper: Some(helper),
            near,
            far,
            words: vec![1; 1024],
            src: vec![7; 16 << 10],
            dst: vec![0; 16 << 10],
            ring: VecDeque::with_capacity(RING),
            primed: false,
            quanta: 0,
            quanta_ns: 0,
        })
    }

    /// One unit of reference work.
    fn quantum(&mut self) {
        if let Some(tx) = &self.to_helper {
            if tx.send(()).is_ok() {
                let _ = self.from_helper.recv();
            }
        }
        let mut small = [0u8; 64];
        if self.near.write_all(&small).is_ok() {
            let _ = self.far.read_exact(&mut small);
        }
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = w.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i as u64);
        }
        self.dst.copy_from_slice(&self.src);
        std::hint::black_box((&mut self.words, &mut self.dst));
    }

    /// Runs `n` quanta and returns the mean ns per quantum: ns of this
    /// thread's CPU time, so that waiting behind other runnable threads for
    /// the CPU does not count (wall time where the platform has no such
    /// clock).
    pub fn burst(&mut self, n: usize) -> f64 {
        let n = n.max(1);
        let (wall0, cpu0) = (Instant::now(), thread_cpu_ns());
        for _ in 0..n {
            self.quantum();
        }
        let ns = match (cpu0, thread_cpu_ns()) {
            (Some(c0), Some(c1)) => c1.saturating_sub(c0).max(1),
            _ => wall0.elapsed().as_nanos() as u64,
        };
        self.quanta += n as u64;
        self.quanta_ns += ns;
        ns as f64 / n as f64
    }

    /// Mean speed factor over every quantum run so far: multiply a raw time
    /// by it to get calibrated time. 1 before any quantum ran.
    pub fn mean_factor(&self) -> f64 {
        if self.quanta_ns == 0 {
            return 1.0;
        }
        QUANTUM_NOMINAL_NS * self.quanta as f64 / self.quanta_ns as f64
    }

    /// Follows an op that took `op_ns` with reference work worth about a
    /// fifth of it, and appends the calibrated latencies (ns) of the ops whose
    /// neighbourhood is now complete to `out`. Each op's factor comes from
    /// the quanta after it and its ten neighbours on either side.
    pub fn after_op(&mut self, op_ns: u64, out: &mut Vec<f64>) {
        let per_quantum = self.ring.back().map_or(QUANTUM_NOMINAL_NS, |&(_, q)| q);
        let share = REFERENCE_SHARE * op_ns as f64 / per_quantum;
        let measured = self.burst((share.round() as usize).clamp(1, MAX_QUANTA_PER_OP));
        if self.ring.len() == RING {
            self.ring.pop_front();
        }
        self.ring.push_back((op_ns as f64, measured));
        if self.ring.len() == RING {
            let factor = self.ring_factor();
            let first = if self.primed { NEIGHBOURS } else { 0 };
            self.primed = true;
            out.extend(self.ring.range(first..=NEIGHBOURS).map(|&(op, _)| op * factor));
        }
    }

    /// Appends the calibrated latencies of the ops still waiting for
    /// neighbours (the window's last ten, or all of a window shorter than
    /// the ring) to `out`.
    pub fn drain(&mut self, out: &mut Vec<f64>) {
        if self.ring.is_empty() {
            return;
        }
        let factor = self.ring_factor();
        let first = if self.primed { NEIGHBOURS + 1 } else { 0 };
        out.extend(self.ring.range(first.min(self.ring.len())..).map(|&(op, _)| op * factor));
        self.ring.clear();
        self.primed = false;
    }

    fn ring_factor(&self) -> f64 {
        let mean = self.ring.iter().map(|&(_, q)| q).sum::<f64>() / self.ring.len() as f64;
        QUANTUM_NOMINAL_NS / mean
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.to_helper = None;
        if let Some(h) = self.helper.take() {
            let _ = h.join();
        }
    }
}

/// Collects per-op times of a measurement loop, interleaving each with
/// reference quanta, and hands back the calibrated times.
pub struct CalibratedTimes {
    cal: Calibrator,
    ns: Vec<f64>,
}

impl CalibratedTimes {
    /// Starts a collection (spawns the calibrator's helper thread).
    pub fn new() -> std::io::Result<Self> {
        Ok(CalibratedTimes { cal: Calibrator::new()?, ns: Vec::new() })
    }

    /// Adds one op's raw time.
    pub fn record(&mut self, raw: std::time::Duration) {
        self.cal.after_op(raw.as_nanos() as u64, &mut self.ns);
    }

    /// The calibrated times in µs, in op order.
    pub fn finish_us(mut self) -> Vec<f64> {
        self.cal.drain(&mut self.ns);
        self.ns.iter().map(|ns| ns / 1e3).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_is_emitted_exactly_once() {
        for ops in [0usize, 1, 5, RING - 1, RING, RING + 1, 3 * RING + 4] {
            let mut cal = Calibrator::new().expect("calibrator");
            let mut out = Vec::new();
            for i in 0..ops {
                cal.after_op(1_000 + i as u64, &mut out);
            }
            cal.drain(&mut out);
            assert_eq!(out.len(), ops, "{ops} ops");
            assert!(out.iter().all(|x| x.is_finite() && *x > 0.0));
            // Latencies come out in op order: scaled by nearly equal factors,
            // they keep the order of the raw values (which increase).
            assert!(out.windows(2).all(|w| w[0] < w[1] * 1.5));
        }
    }

    #[test]
    fn factor_is_nominal_over_measured() {
        let mut cal = Calibrator::new().expect("calibrator");
        assert_eq!(cal.mean_factor(), 1.0);
        let per_quantum = cal.burst(50);
        assert!(per_quantum > 0.0);
        let expected = QUANTUM_NOMINAL_NS / per_quantum;
        assert!((cal.mean_factor() - expected).abs() / expected < 1e-6);
    }
}
