//! The bounded admission queue: `Mutex<VecDeque>` + `Condvar`, no timeouts.
//!
//! This is the server's backpressure point. Readers [`RequestQueue::try_push`]
//! — never block — and turn a full queue into a typed overload response;
//! shard workers [`RequestQueue::try_pop`] while their lanes are busy and
//! fall back to the blocking [`RequestQueue::pop_wait`] only when idle.
//! [`RequestQueue::close`] flips the queue into drain mode: pushes are
//! refused, pops keep draining what is already queued, and `pop_wait`
//! returns `None` once the queue is empty — the signal for a shard to exit.
//!
//! Everything here is explicit-notification blocking: no `Condvar`
//! timeouts, no clocks (the workspace's determinism lint bans ambient time
//! outside the bench crate). A waiting shard is woken by the push or close
//! that concerns it, never by a timer.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — the caller should shed load (typed
    /// overload response), not wait.
    Full,
    /// The queue is closed (server draining) — no new work is accepted.
    Closed,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with explicit close.
pub struct RequestQueue<T> {
    inner: Mutex<QueueInner<T>>,
    readable: Condvar,
    cap: usize,
}

impl<T> RequestQueue<T> {
    /// A queue admitting at most `cap` items (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        RequestQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Recovers the guard even if another thread panicked while holding the
    /// lock: the queue's state is a plain `VecDeque` + flag and every
    /// critical section leaves it consistent, so continuing is sound — and
    /// the scheduler hot path must not cascade a panic (lint L2).
    fn lock(&self) -> MutexGuard<'_, QueueInner<T>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enqueues `item` if there is room and the queue is open. Never
    /// blocks; wakes one waiting consumer on success.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.readable.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item if one is queued. Never blocks; keeps
    /// draining after [`Self::close`].
    pub fn try_pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Blocks until an item is available (returns `Some`) or the queue is
    /// closed *and* empty (returns `None` — the consumer should exit).
    pub fn pop_wait(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.readable.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue: subsequent pushes fail with [`PushError::Closed`],
    /// queued items keep draining, and every blocked consumer wakes.
    pub fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
    }

    /// Number of queued items right now.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn push_pop_fifo() {
        let q = RequestQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn full_queue_refuses_with_typed_error() {
        let q = RequestQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.try_pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_refuses_pushes_but_drains_pops() {
        let q = RequestQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn pop_wait_blocks_until_push_or_close() {
        let q = RequestQueue::new(4);
        let got = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while let Some(v) = q.pop_wait() {
                    got.fetch_add(v, Ordering::Relaxed);
                }
            });
            s.spawn(|| {
                q.try_push(5).unwrap();
                q.try_push(7).unwrap();
                q.close();
            });
        });
        assert_eq!(got.load(Ordering::Relaxed), 12);
    }
}
