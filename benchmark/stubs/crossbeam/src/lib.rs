//! Offline stand-in for `crossbeam` 0.8 (see `benchmark/README.md`,
//! "Building offline"): `channel::unbounded` over `std::sync::mpsc`. The
//! benchmark's deployment (`--serving event-loop`, `PipeClient`) never sends
//! on one of these; only the legacy threaded paths do.

/// Multi-producer channels.
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Sending half; clone freely.
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Queues `msg`; errors once the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// Receiving half.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks for the next message.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
        /// Returns a queued message or an error, without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
        /// Blocking iterator that ends when every sender is dropped.
        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    /// A channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}
