//! A minimal stand-in for [`crossbeam`], used because this workspace builds
//! in offline environments.
//!
//! Provides `crossbeam::channel::{bounded, Sender, Receiver}` backed by
//! `std::sync::mpsc::sync_channel`. The properties the TCP runtime
//! relies on hold: per-channel FIFO ordering, bounded capacity with
//! blocking sends, cloneable senders, and `recv_timeout`.
//!
//! [`crossbeam`]: https://crates.io/crates/crossbeam

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvTimeoutError, SendError, TryRecvError, TrySendError};

    /// The sending half of a bounded channel. Clone freely.
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full; errors once disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }

        /// Never blocks: a full channel hands the value back, so an event
        /// loop can apply backpressure instead of stalling.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            self.0.try_send(value)
        }
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, mpsc::RecvError> {
            self.0.recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
    }

    /// Creates a bounded FIFO channel of the given capacity.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn fifo_round_trip() {
        let (tx, rx) = channel::bounded::<u32>(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn recv_timeout_expires() {
        let (_tx, rx) = channel::bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(channel::RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn disconnect_is_reported() {
        let (tx, rx) = channel::bounded::<u32>(1);
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(channel::RecvTimeoutError::Disconnected)
        ));
    }
}
