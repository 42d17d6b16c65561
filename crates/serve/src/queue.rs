//! A bounded MPMC queue with *non-blocking* admission.
//!
//! The server's load-shedding contract lives here: `BoundedQueue::try_push`
//! never waits — a full queue returns the item straight back so the caller
//! can reply `shed` while the client is still listening. Consumers block in
//! `BoundedQueue::pop`, which also honours a pause latch (used by the
//! `pause` control message to make burst shed counts deterministic: with
//! consumers held, a blast of B requests admits exactly `capacity` and
//! sheds `B - capacity`, independent of thread timing).
//!
//! Closing the queue lets consumers drain what is already queued — `pop`
//! keeps returning items until the queue is empty, then returns `None`.
//! Closing also overrides pause, so a drain can never deadlock behind a
//! forgotten `pause`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`BoundedQueue::try_push`] refused an item (the item comes back).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// At capacity — the caller should shed.
    Full(T),
    /// Closed — the server is draining.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// Fixed-capacity queue; see module docs for the shedding contract.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "a zero-capacity queue sheds everything");
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                paused: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy by nature; for gauges and health replies).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit without blocking. Returns the depth *after* the push.
    pub(crate) fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Block until an item is available (and the queue is not paused),
    /// or until the queue is closed *and* empty — then `None`.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = (!st.paused || st.closed)
                .then(|| st.items.pop_front())
                .flatten()
            {
                return Some(item);
            }
            if st.closed && st.items.is_empty() {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Hold (or release) consumers. Admission is unaffected.
    pub(crate) fn set_paused(&self, paused: bool) {
        let mut st = self.state.lock().unwrap();
        st.paused = paused;
        drop(st);
        self.cv.notify_all();
    }

    /// Stop admission; wake every consumer. Items already queued still
    /// drain through `pop`.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_beyond_capacity_sheds_exactly_the_overflow() {
        let q = BoundedQueue::new(4);
        let mut shed = 0;
        for i in 0..10 {
            match q.try_push(i) {
                Ok(depth) => assert!(depth <= 4),
                Err(PushError::Full(item)) => {
                    assert_eq!(item, i);
                    shed += 1;
                }
                Err(PushError::Closed(_)) => unreachable!(),
            }
        }
        assert_eq!(shed, 6);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn close_drains_queued_items_then_returns_none() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn paused_consumers_do_not_pop_until_resume() {
        let q = Arc::new(BoundedQueue::new(8));
        q.set_paused(true);
        q.try_push(7).unwrap();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // The popper must still be blocked while paused.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(q.len(), 1, "paused queue must hold its item");
        q.set_paused(false);
        assert_eq!(popper.join().unwrap(), Some(7));
    }

    #[test]
    fn close_overrides_pause_so_drain_cannot_deadlock() {
        let q = Arc::new(BoundedQueue::new(8));
        q.set_paused(true);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(16));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut admitted = 0u32;
        for i in 0..1000u32 {
            loop {
                match q.try_push(i) {
                    Ok(_) => {
                        admitted += 1;
                        break;
                    }
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap().len()).sum();
        assert_eq!(admitted, 1000);
        assert_eq!(total, 1000, "every admitted item must be consumed");
    }
}
