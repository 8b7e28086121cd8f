//! A minimal discrete-event engine.
//!
//! A binary-heap calendar queue with deterministic FIFO tie-breaking for
//! simultaneous events. Event payloads are a caller-defined type; the
//! engine only orders time. It exports no metrics: the loop that pops its
//! events counts what they cause (`daemon.*`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation timestamp in seconds.
pub(crate) type SimTime = f64;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest time (then lowest seq) pops first. total_cmp
        // keeps the heap's comparator total (schedule() rejects non-finite
        // times, but the ordering must not rely on that).
        other.time.total_cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

/// The event calendar.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar at time zero.
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: 0.0 }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past — a scheduling bug, not a runtime
    /// condition.
    pub(crate) fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        assert!(at.is_finite(), "event time must be finite");
        self.heap.push(Entry { time: at, seq: self.seq, payload });
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.payload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
        q.schedule(q.now() + 2.5, ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 7.5);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }
}
