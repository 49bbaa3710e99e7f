//! Discrete-event simulation core.
//!
//! The serving engine advances a simulated clock by popping timestamped
//! events from an [`EventQueue`]. Two properties matter for correctness:
//!
//! 1. events are delivered in non-decreasing timestamp order, and
//! 2. ties are broken by insertion order (FIFO), so the simulation is
//!    deterministic even when many events share a timestamp (e.g. a batch
//!    of requests arriving in the same Poisson burst).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A timestamped event carrying an arbitrary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<E> {
    /// The simulated instant at which the event fires.
    pub at: SimTime,
    /// Monotone sequence number used for FIFO tie-breaking.
    pub seq: u64,
    /// The event payload.
    pub payload: E,
}

/// Internal heap entry ordered so that `BinaryHeap` (a max-heap) pops the
/// earliest timestamp, then the lowest sequence number.
struct HeapEntry<E> {
    event: Event<E>,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.event.at == other.event.at && self.event.seq == other.event.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse both keys: BinaryHeap is a max-heap but we want the
        // earliest event (and among equals, the earliest insertion) first.
        other
            .event
            .at
            .cmp(&self.event.at)
            .then_with(|| other.event.seq.cmp(&self.event.seq))
    }
}

/// A deterministic priority queue of future events.
///
/// # Examples
///
/// ```
/// use loong_simcore::events::EventQueue;
/// use loong_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// let first = q.pop().unwrap();
/// assert_eq!(first.payload, "early");
/// assert_eq!(first.at, SimTime::from_secs(1.0));
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock, which would break
    /// causality.
    pub fn push(&mut self, at: SimTime, payload: E) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at:?} before the current time {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            event: Event { at, seq, payload },
        });
        seq
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(
            entry.event.at >= self.now,
            "event queue violated time order"
        );
        self.now = entry.event.at;
        Some(entry.event)
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.event.at)
    }

    /// Removes every pending event, leaving the clock untouched.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), ());
        q.pop();
        q.push(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
