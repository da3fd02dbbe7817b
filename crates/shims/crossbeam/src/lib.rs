//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! The build environment has no registry access, so this shim provides the
//! two surfaces the workspace uses — unbounded MPSC channels and the
//! work-stealing injector queue — implemented over `std::sync::mpsc` and
//! `std::sync::Mutex`. Semantics match crossbeam for the patterns in this
//! codebase: cloneable senders, blocking `recv` that errors once every
//! sender is dropped, and a shared FIFO [`deque::Injector`] any thread
//! can push to and steal from.

#![forbid(unsafe_code)]

/// Work-stealing queues (subset of `crossbeam::deque`).
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Outcome of a steal attempt (mirrors `crossbeam_deque::Steal`).
    ///
    /// The mutex-backed shim never *produces* `Retry`, but the variant is
    /// part of the surface so consumer loops are written correctly for
    /// the real crate (which returns `Retry` under contention; a loop
    /// that treats it as `Empty` would silently drop queued tasks).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// A task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried.
        Retry,
    }

    /// A FIFO task queue shared between threads: any thread can
    /// [`push`](Injector::push) and any thread can
    /// [`steal`](Injector::steal). Subset of `crossbeam_deque::Injector`,
    /// backed by a mutex — contention stays low as long as tasks are
    /// coarse, which is how the shard pool uses it (work units are
    /// threshold-sized chunks, not single intersections).
    #[derive(Debug)]
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// An empty queue.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Appends a task at the back of the queue.
        pub fn push(&self, task: T) {
            self.queue
                .lock()
                .expect("injector lock poisoned")
                .push_back(task);
        }

        /// Pops the task at the front of the queue, if any.
        pub fn steal(&self) -> Steal<T> {
            match self
                .queue
                .lock()
                .expect("injector lock poisoned")
                .pop_front()
            {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }

        /// Whether the queue currently holds no tasks.
        pub fn is_empty(&self) -> bool {
            self.queue
                .lock()
                .expect("injector lock poisoned")
                .is_empty()
        }

        /// Number of tasks currently queued.
        pub fn len(&self) -> usize {
            self.queue.lock().expect("injector lock poisoned").len()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn fifo_order_single_thread() {
            let q = Injector::new();
            assert!(q.is_empty());
            q.push(1);
            q.push(2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.steal(), Steal::Success(1));
            assert_eq!(q.steal(), Steal::Success(2));
            assert_eq!(q.steal(), Steal::<i32>::Empty);
        }

        #[test]
        fn every_task_is_stolen_exactly_once_across_threads() {
            let q = Arc::new(Injector::new());
            for i in 0..100u64 {
                q.push(i);
            }
            let mut sums = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let q = Arc::clone(&q);
                        s.spawn(move || {
                            let mut sum = 0u64;
                            while let Steal::Success(t) = q.steal() {
                                sum += t;
                            }
                            sum
                        })
                    })
                    .collect();
                sums = handles.into_iter().map(|h| h.join().unwrap()).collect();
            });
            assert_eq!(sums.iter().sum::<u64>(), (0..100).sum());
            assert!(q.is_empty());
        }
    }
}

/// Multi-producer channels (subset of `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    /// Sending half of an unbounded channel.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    // Derived Clone would require T: Clone; the underlying sender does not.
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, failing if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// Receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives; errors once the channel is empty
        /// and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Iterates over received messages until the channel disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.iter()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip_across_threads() {
            let (tx, rx) = unbounded::<u64>();
            let tx2 = tx.clone();
            std::thread::scope(|scope| {
                scope.spawn(move || tx.send(1).unwrap());
                scope.spawn(move || tx2.send(2).unwrap());
                let mut got = vec![rx.recv().unwrap(), rx.recv().unwrap()];
                got.sort_unstable();
                assert_eq!(got, vec![1, 2]);
            });
            assert!(rx.recv().is_err(), "all senders dropped");
        }

        #[test]
        fn try_recv_on_empty_channel() {
            let (tx, rx) = unbounded::<u8>();
            assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
            tx.send(9).unwrap();
            assert_eq!(rx.try_recv().unwrap(), 9);
        }
    }
}
