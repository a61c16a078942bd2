//! Cloneable unbounded MPMC channel matching the `crossbeam-channel` API
//! surface the workspace uses: `unbounded`, `Sender::send`,
//! `Receiver::{recv, recv_timeout, try_recv}`, clone-on-both-ends, and
//! disconnection once the opposite side is fully dropped.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Shared<T> {
    fn disconnected(&self) -> bool {
        self.senders.load(Ordering::SeqCst) == 0
    }
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> Sender<T> {
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.shared.receivers.load(Ordering::SeqCst) == 0 {
            return Err(SendError(value));
        }
        self.shared.queue.lock().unwrap().push_back(value);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake blocked receivers so they observe
            // the disconnect.
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.shared.queue.lock().unwrap();
        loop {
            if let Some(v) = queue.pop_front() {
                return Ok(v);
            }
            if self.shared.disconnected() {
                return Err(RecvError);
            }
            queue = self.shared.ready.wait(queue).unwrap();
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // The clock is read only when about to wait: a queued message (or a
        // zero timeout, the engines' poll) costs no `Instant::now()`.
        let mut deadline = None;
        let mut queue = self.shared.queue.lock().unwrap();
        loop {
            if let Some(v) = queue.pop_front() {
                return Ok(v);
            }
            if self.shared.disconnected() {
                return Err(RecvTimeoutError::Disconnected);
            }
            if timeout.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (q, timed_out) = self
                .shared
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap();
            queue = q;
            if timed_out.timed_out() && queue.is_empty() {
                if self.shared.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.shared.queue.lock().unwrap();
        if let Some(v) = queue.pop_front() {
            return Ok(v);
        }
        if self.shared.disconnected() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    pub fn is_empty(&self) -> bool {
        self.shared.queue.lock().unwrap().is_empty()
    }

    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver { shared: self.shared.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn queued_message_is_returned_under_a_zero_timeout() {
        let (tx, rx) = unbounded();
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(5));
        assert_eq!(rx.recv_timeout(Duration::ZERO), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::ZERO), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn drained_messages_survive_sender_drop() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
