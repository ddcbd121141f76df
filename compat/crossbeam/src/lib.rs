//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! This workspace builds with no crates.io access, so external dependencies
//! are replaced by local implementations of exactly the API surface the
//! workspace uses (see `compat/README.md`). For `crossbeam` that is
//! [`channel::bounded`]: an MPMC channel with cloneable
//! [`channel::Sender`]/[`channel::Receiver`] ends, a blocking `send`, a
//! blocking `recv`, and a blocking `iter()`.
//!
//! The channel is a `Mutex` + two-`Condvar` ring buffer — simple rather than
//! lock-free, but it preserves the semantics its callers rely on: FIFO
//! order per channel, backpressure on `send` while the channel is full, and
//! disconnect detection when all peers on the other side are dropped.

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half of a channel. Cloning adds another producer.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel. Cloning adds another consumer.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; the
    /// unsent message is handed back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Creates a channel holding at most `cap` in-flight messages; `send`
    /// blocks (backpressure) while the channel is full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded channel capacity must be positive");
        let inner = Arc::new(Inner {
            state: Mutex::new(State { queue: VecDeque::new(), cap, senders: 1, receivers: 1 }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
    }

    impl<T> Sender<T> {
        /// Blocks until there is room, then enqueues `msg`. Errors (returning
        /// the message) once every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                if state.queue.len() < state.cap {
                    break;
                }
                state = self.inner.not_full.wait(state).unwrap();
            }
            state.queue.push_back(msg);
            drop(state);
            self.inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives. Errors once the channel is empty
        /// and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.state.lock().unwrap();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    drop(state);
                    self.inner.not_full.notify_one();
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.inner.not_empty.wait(state).unwrap();
            }
        }

        /// Blocking iterator over incoming messages; ends when the channel is
        /// empty and every sender has been dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().senders += 1;
            Sender { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().receivers += 1;
            Receiver { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut state = self.inner.state.lock().unwrap();
                state.senders -= 1;
                state.senders
            };
            if remaining == 0 {
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut state = self.inner.state.lock().unwrap();
                state.receivers -= 1;
                state.receivers
            };
            if remaining == 0 {
                self.inner.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvError};
    use std::time::Duration;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = bounded(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_applies_backpressure() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Channel full: a third send must block until the consumer drains.
        let producer = std::thread::spawn(move || {
            tx.send(3).unwrap();
            "sent"
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(!producer.is_finished(), "send must block while full");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(producer.join().unwrap(), "sent");
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn mpmc_delivers_every_message_once() {
        let (tx, rx) = bounded::<u64>(8);
        let n_workers = 4;
        let per_producer = 100u64;
        std::thread::scope(|s| {
            for p in 0..n_workers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per_producer {
                        tx.send(p * per_producer + i).unwrap();
                    }
                });
            }
            drop(tx);
            let consumers: Vec<_> = (0..n_workers)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || rx.iter().collect::<Vec<u64>>())
                })
                .collect();
            let mut all: Vec<u64> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
            all.sort_unstable();
            let expect: Vec<u64> = (0..n_workers * per_producer).collect();
            assert_eq!(all, expect);
        });
    }
}
