//! A min-heap of future timers.
//!
//! The simulator schedules "worker finishes service and re-enters the
//! waiting list" events against the arrival stream; `TimerQueue` is the
//! generic priority queue that drives them. Ties pop in insertion order,
//! which keeps whole-simulation runs deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Timestamp;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Timestamp,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first popping.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic earliest-first timer queue.
#[derive(Debug, Clone)]
pub(crate) struct TimerQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> TimerQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`.
    pub(crate) fn schedule(&mut self, at: Timestamp, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pop the next timer if it fires at or before `now`.
    pub(crate) fn pop_due(&mut self, now: Timestamp) -> Option<(Timestamp, T)> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            self.heap.pop().map(|e| (e.at, e.payload))
        } else {
            None
        }
    }

    /// Number of pending timers.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
impl<T> TimerQueue<T> {
    /// Pop the next timer unconditionally.
    fn pop(&mut self) -> Option<(Timestamp, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Drop all pending timers.
    fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn pops_earliest_first() {
        let mut q = TimerQueue::new();
        q.schedule(ts(5.0), "b");
        q.schedule(ts(1.0), "a");
        q.schedule(ts(9.0), "c");
        assert_eq!(q.pop(), Some((ts(1.0), "a")));
        assert_eq!(q.pop(), Some((ts(5.0), "b")));
        assert_eq!(q.pop(), Some((ts(9.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = TimerQueue::new();
        q.schedule(ts(2.0), 1);
        q.schedule(ts(2.0), 2);
        q.schedule(ts(2.0), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = TimerQueue::new();
        q.schedule(ts(2.0), "x");
        q.schedule(ts(4.0), "y");
        assert!(q.pop_due(ts(1.0)).is_none());
        assert_eq!(q.pop_due(ts(2.0)), Some((ts(2.0), "x")));
        assert!(q.pop_due(ts(3.0)).is_none());
        assert_eq!(q.pop_due(ts(10.0)), Some((ts(4.0), "y")));
    }

    #[test]
    fn len_and_clear() {
        let mut q = TimerQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(ts(1.0), ());
        q.schedule(ts(2.0), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert_eq!(q.len(), 0);
    }
}
