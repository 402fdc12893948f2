//! A small counting semaphore (the GPU-aware head node's per-node capacity
//! gate).

use mtgpu_simtime::{lock_rank, RankedCondvar, RankedMutex};

/// Counting semaphore.
pub struct Semaphore {
    permits: RankedMutex<usize>,
    cv: RankedCondvar,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            permits: RankedMutex::new(lock_rank::HEAD_GATE, permits),
            cv: RankedCondvar::new(),
        }
    }

    /// Blocks until a permit is available, then takes it.
    pub fn acquire(&self) {
        let mut p = self.permits.lock();
        while *p == 0 {
            self.cv.wait(&mut p);
        }
        *p -= 1;
    }

    /// Takes a permit if one is available.
    pub fn try_acquire(&self) -> bool {
        let mut p = self.permits.lock();
        if *p == 0 {
            return false;
        }
        *p -= 1;
        true
    }

    /// Returns a permit.
    pub fn release(&self) {
        *self.permits.lock() += 1;
        self.cv.notify_one();
    }

    /// Current permit count.
    pub fn available(&self) -> usize {
        *self.permits.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_roundtrip() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert_eq!(s.available(), 1);
        s.acquire();
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.acquire());
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.release();
        t.join().unwrap();
        assert_eq!(s.available(), 0);
    }
}
