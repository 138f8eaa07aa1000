//! Offline stand-in for [`crossbeam`](https://crates.io/crates/crossbeam).
//!
//! Implements the subset the workspace uses: [`channel::unbounded`] — an
//! MPMC channel built on `Mutex` + `Condvar` — with blocking, timed and
//! non-blocking receives. No bounded channels, no waiting on several
//! channels at once and no `thread::scope`: the runtime's shards wait on
//! one mailbox each with `recv_timeout`, the reactor polls its command
//! channel with `try_recv`, and scoped-thread users call
//! `std::thread::scope`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel {
    //! MPMC channels with an API matching `crossbeam-channel`.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        // Signalled on push and on the last sender's drop.
        cond: Condvar,
    }

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloneable.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crate: Debug without requiring `T: Debug`.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders are gone and the channel is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders are gone and the channel is drained.
        Disconnected,
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            cond: Condvar::new(),
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Sends `value`; never blocks. Fails only if every [`Receiver`]
        /// has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.shared.cond.notify_all();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders += 1;
            drop(st);
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            if st.senders == 0 {
                self.shared.cond.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or every
        /// [`Sender`] has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receives a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Receives a message, giving up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .cond
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers += 1;
            drop(st);
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn unbounded_roundtrip_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}
