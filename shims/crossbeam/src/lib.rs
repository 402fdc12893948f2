//! Minimal `crossbeam`-compatible shim: an MPMC channel built on
//! `Mutex<VecDeque>` and two `Condvar`s.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the API slice it uses: `channel::{bounded, unbounded}` with cloneable
//! multi-producer multi-consumer `Sender`/`Receiver`, blocking `recv`,
//! `recv_timeout` with [`channel::RecvTimeoutError`], and disconnect
//! detection when all peers on the other side have dropped.
//!
//! Every hand-off wakes exactly one thread: a `send` wakes one parked
//! receiver, a receive on a *bounded* channel wakes one sender parked on
//! capacity, and nothing else is signalled. Receivers and capacity-blocked
//! senders park on separate condvars so a wake-up meant for one side can
//! never be swallowed by the other. Only the last sender's or the last
//! receiver's drop broadcasts, because every parked peer must observe it.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T: Send> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// Nothing arrived within the timeout.
        Timeout,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel is empty"),
                TryRecvError::Disconnected => f.write_str("channel is disconnected"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Receivers park here: one is woken per message, all on the last
        /// sender's drop.
        readable: Condvar,
        /// Senders blocked on a full bounded queue park here: one is woken
        /// per freed slot, all on the last receiver's drop.
        writable: Condvar,
        cap: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        #[cfg(test)]
        probe: Probe,
    }

    /// Test-only view of who is parked and how often receivers were woken,
    /// so the wake-up tests can force "all N are inside the wait" before
    /// they signal and count wake-ups instead of timing them.
    #[cfg(test)]
    #[derive(Default)]
    pub(crate) struct Probe {
        pub parked_receivers: AtomicUsize,
        pub parked_senders: AtomicUsize,
        pub receiver_wakeups: AtomicUsize,
    }

    type Queue<'a, T> = MutexGuard<'a, VecDeque<T>>;

    impl<T> Shared<T> {
        fn lock(&self) -> Queue<'_, T> {
            self.queue.lock().unwrap_or_else(|p| p.into_inner())
        }

        /// Parks a receiver until a message or a disconnect is signalled
        /// (or `timeout` passes).
        fn wait_readable<'a>(&self, q: Queue<'a, T>, timeout: Option<Duration>) -> Queue<'a, T> {
            // Counted under the queue lock, which the wait releases
            // atomically: whoever next takes the lock and reads N here
            // knows N receivers are inside the wait.
            #[cfg(test)]
            self.probe.parked_receivers.fetch_add(1, Ordering::SeqCst);
            let q = match timeout {
                None => self.readable.wait(q).unwrap_or_else(|p| p.into_inner()),
                Some(t) => self.readable.wait_timeout(q, t).unwrap_or_else(|p| p.into_inner()).0,
            };
            #[cfg(test)]
            {
                self.probe.parked_receivers.fetch_sub(1, Ordering::SeqCst);
                self.probe.receiver_wakeups.fetch_add(1, Ordering::SeqCst);
            }
            q
        }

        /// Parks a sender until a slot frees up or the receivers are gone.
        fn wait_writable<'a>(&self, q: Queue<'a, T>) -> Queue<'a, T> {
            #[cfg(test)]
            self.probe.parked_senders.fetch_add(1, Ordering::SeqCst);
            let q = self.writable.wait(q).unwrap_or_else(|p| p.into_inner());
            #[cfg(test)]
            self.probe.parked_senders.fetch_sub(1, Ordering::SeqCst);
            q
        }

        /// A receive freed a slot: hand it to one capacity-blocked sender.
        /// Unbounded channels never block a sender, so they signal nothing.
        fn slot_freed(&self) {
            if self.cap.is_some() {
                self.writable.notify_one();
            }
        }
    }

    /// The sending half; cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a channel holding at most `cap` queued messages. `cap = 0`
    /// degrades to capacity 1 (this shim has no rendezvous mode; the
    /// workspace only uses non-zero capacities).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            readable: Condvar::new(),
            writable: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            #[cfg(test)]
            probe: Probe::default(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: every parked receiver must observe the
                // disconnect. Passing through the queue lock orders the
                // broadcast after any receiver that has checked the count
                // but not parked yet.
                drop(self.shared.lock());
                // mtlint: allow(notify-all, reason = "disconnect is not a hand-off: every parked receiver has to return Disconnected, not one of them")
                self.shared.readable.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver: every sender blocked on a full queue must
                // fail (same lock pass as the sender side).
                drop(self.shared.lock());
                // mtlint: allow(notify-all, reason = "disconnect is not a hand-off: every capacity-blocked sender has to return SendError, not one of them")
                self.shared.writable.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while a bounded queue is full. Fails only
        /// when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut q = self.shared.lock();
            loop {
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(msg));
                }
                match self.shared.cap {
                    Some(cap) if q.len() >= cap => {
                        q = self.shared.wait_writable(q);
                    }
                    _ => break,
                }
            }
            q.push_back(msg);
            drop(q);
            self.shared.readable.notify_one();
            Ok(())
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().is_empty()
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        /// Reads the probe while holding the queue lock.
        #[cfg(test)]
        pub(crate) fn probe<R>(&self, f: impl FnOnce(&Probe) -> R) -> R {
            let _q = self.shared.lock();
            f(&self.shared.probe)
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.lock();
            loop {
                if let Some(msg) = q.pop_front() {
                    drop(q);
                    self.shared.slot_freed();
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.shared.wait_readable(q, None);
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.shared.lock();
            loop {
                if let Some(msg) = q.pop_front() {
                    drop(q);
                    self.shared.slot_freed();
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q = self.shared.wait_readable(q, Some(deadline - now));
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.lock();
            if let Some(msg) = q.pop_front() {
                drop(q);
                self.shared.slot_freed();
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.shared.lock().is_empty()
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, Probe, RecvTimeoutError, TryRecvError};
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// How long a test waits for threads that a lost wake-up would leave
    /// parked forever; hitting it is the failure, not a slow machine.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Spins until `probe` (read under the queue lock) reports `n`.
    fn until_parked(read: impl Fn() -> usize, n: usize) {
        while read() != n {
            std::thread::yield_now();
        }
    }

    fn receivers(p: &Probe) -> usize {
        p.parked_receivers.load(Ordering::SeqCst)
    }

    fn senders(p: &Probe) -> usize {
        p.parked_senders.load(Ordering::SeqCst)
    }

    #[test]
    fn unbounded_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
    }

    #[test]
    fn disconnect_detected() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert!(rx.recv().is_err());
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until a recv frees a slot
        });
        assert_eq!(rx.recv().unwrap(), 1);
        t.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn send_wakes_exactly_one_of_n_parked_receivers() {
        const N: usize = 6;
        let (tx, rx) = unbounded::<u32>();
        let (done_tx, done_rx) = mpsc::channel();
        let threads: Vec<_> = (0..N)
            .map(|_| {
                let (rx, done) = (rx.clone(), done_tx.clone());
                std::thread::spawn(move || done.send(rx.recv()).unwrap())
            })
            .collect();
        until_parked(|| tx.probe(receivers), N);
        tx.send(7).unwrap();
        assert_eq!(done_rx.recv_timeout(WATCHDOG).unwrap(), Ok(7));
        // One message, one thread taken out of the wait: the other five
        // were never scheduled.
        until_parked(|| tx.probe(receivers), N - 1);
        assert_eq!(tx.probe(|p| p.receiver_wakeups.load(Ordering::SeqCst)), 1);
        assert!(done_rx.try_recv().is_err());
        drop(tx);
        for _ in 1..N {
            assert!(done_rx.recv_timeout(WATCHDOG).unwrap().is_err());
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn eight_receivers_take_200k_items_exactly_once() {
        const ITEMS: usize = 200_000;
        let (tx, rx) = unbounded::<usize>();
        let seen: Arc<Vec<AtomicU8>> = Arc::new((0..ITEMS).map(|_| AtomicU8::new(0)).collect());
        let (done_tx, done_rx) = mpsc::channel();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (rx, seen, done) = (rx.clone(), Arc::clone(&seen), done_tx.clone());
                std::thread::spawn(move || {
                    let mut taken = 0usize;
                    while let Ok(i) = rx.recv() {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                        taken += 1;
                    }
                    done.send(taken).unwrap();
                })
            })
            .collect();
        // Two producers, so sends race each other as well as the receivers.
        let producers: Vec<_> = (0..2)
            .map(|half| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in (half..ITEMS).step_by(2) {
                        tx.send(i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        producers.into_iter().for_each(|t| t.join().unwrap());
        // A wake-up lost to `notify_one` would strand a receiver with items
        // queued, and this sum would never arrive.
        let total: usize = (0..8).map(|_| done_rx.recv_timeout(WATCHDOG).unwrap()).sum();
        assert_eq!(total, ITEMS);
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        threads.into_iter().for_each(|t| t.join().unwrap());
    }

    #[test]
    fn every_receive_flavour_releases_a_capacity_blocked_sender() {
        type Take = fn(&super::channel::Receiver<u32>) -> u32;
        let flavours: [Take; 3] = [
            |rx| rx.recv().unwrap(),
            |rx| rx.try_recv().unwrap(),
            |rx| rx.recv_timeout(Duration::from_secs(1)).unwrap(),
        ];
        for take in flavours {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let blocked = {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(2))
            };
            until_parked(|| tx.probe(senders), 1);
            assert_eq!(take(&rx), 1);
            assert_eq!(blocked.join().unwrap(), Ok(()));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }
    }

    #[test]
    fn disconnect_wakes_every_parked_receiver_and_every_blocked_sender() {
        const N: usize = 5;
        let (tx, rx) = unbounded::<u32>();
        let parked: Vec<_> = (0..N)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            })
            .collect();
        until_parked(|| tx.probe(receivers), N);
        drop(tx);
        for t in parked {
            assert!(t.join().unwrap().is_err());
        }

        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let returned = Arc::new(AtomicUsize::new(0));
        let blocked: Vec<_> = (0..N)
            .map(|_| {
                let (tx, returned) = (tx.clone(), Arc::clone(&returned));
                std::thread::spawn(move || {
                    let res = tx.send(9);
                    returned.fetch_add(1, Ordering::SeqCst);
                    res
                })
            })
            .collect();
        until_parked(|| tx.probe(senders), N);
        assert_eq!(returned.load(Ordering::SeqCst), 0);
        drop(rx);
        for t in blocked {
            assert!(t.join().unwrap().is_err());
        }
    }
}
