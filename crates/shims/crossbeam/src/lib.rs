//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! The build environment has no registry access, so this shim provides the
//! one surface the workspace uses — unbounded MPSC channels — implemented
//! over `std::sync::mpsc`. Semantics match crossbeam for the patterns in
//! this codebase: cloneable senders, and a blocking `recv` that errors
//! once every sender is dropped.

#![forbid(unsafe_code)]

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
