//! Dense request table with incrementally maintained phase indices.
//!
//! The serving engine's run loop must build a scheduler view at every
//! scheduling point. Scanning every request ever seen makes each point cost
//! O(all requests) and a whole trace O(N²); [`RequestTable`] makes the view
//! O(active) instead. It is a packed slab, found through a dense
//! [`RequestId`] index, whose entries each carry a coarse [`PhaseClass`];
//! for every class the table maintains an index set ordered by **admission
//! rank** — the order in which requests became visible to the scheduler. Phase transitions move an entry
//! between index sets in O(log n); iterating one class visits exactly the
//! requests in that class, in the same order a full scan over an append-only
//! arrival log would produce. That ordering guarantee is what keeps
//! incremental maintenance bit-for-bit equivalent to the naive rebuild.
//!
//! The payload type is generic: the engine stores its full per-request state
//! (timestamps, fine-grained phase) in `T` and mirrors the coarse class via
//! [`RequestTable::set_class`] on every transition.
//!
//! # Examples
//!
//! ```
//! use loong_simcore::ids::RequestId;
//! use loong_simcore::table::{PhaseClass, RequestTable};
//!
//! let mut table: RequestTable<&'static str> = RequestTable::new();
//! table.insert(RequestId(0), "a");
//! table.insert(RequestId(1), "b");
//! // Nothing is visible until admitted.
//! assert_eq!(table.iter_class(PhaseClass::Pending).count(), 0);
//! table.admit(RequestId(1));
//! table.admit(RequestId(0));
//! // Iteration follows admission order, not id order.
//! let pending: Vec<RequestId> = table.iter_class(PhaseClass::Pending).collect();
//! assert_eq!(pending, vec![RequestId(1), RequestId(0)]);
//! table.set_class(RequestId(1), PhaseClass::InFlight);
//! assert_eq!(table.iter_class(PhaseClass::Pending).count(), 1);
//! ```

use crate::ids::RequestId;
use std::collections::BTreeSet;

/// Coarse request phases the engine indexes by.
///
/// The engine keeps its fine-grained phase (chunked-prefill progress,
/// generated-token counts, …) in the table payload; the class only decides
/// which scheduler-view list — if any — the request appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseClass {
    /// Waiting for (more) prefill; appears in the pending view.
    Pending,
    /// Decode phase, ready for its next iteration; appears in the decoding
    /// view.
    DecodeReady,
    /// An iteration or migration is executing; appears in no view.
    InFlight,
    /// Evicted to the host-DRAM swap tier; appears in the swapped view and
    /// waits there until memory pressure clears.
    Swapped,
    /// Finished or rejected; appears in no view and never transitions again.
    Done,
}

impl PhaseClass {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            PhaseClass::Pending => 0,
            PhaseClass::DecodeReady => 1,
            PhaseClass::InFlight => 2,
            PhaseClass::Swapped => 3,
            PhaseClass::Done => 4,
        }
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    payload: T,
    class: PhaseClass,
    /// Admission rank; `u64::MAX` until admitted.
    rank: u64,
    admitted: bool,
}

/// A packed slab of per-request state with intrusive phase-index sets.
///
/// Slots are stored in insertion order and found through a dense index
/// keyed by `RequestId::index()` that costs four bytes per id up to the
/// largest one inserted. A fleet replica that sees every fourth id of a
/// trace therefore holds only its own requests' state, not a slab
/// spanning the whole trace.
#[derive(Debug, Clone, Default)]
pub struct RequestTable<T> {
    /// Slot position of each id, [`RequestTable::ABSENT`] when not present.
    index: Vec<u32>,
    slots: Vec<Slot<T>>,
    /// One ordered index per class, keyed by (admission rank, id).
    classes: [BTreeSet<(u64, RequestId)>; PhaseClass::COUNT],
    next_rank: u64,
}

impl<T> RequestTable<T> {
    const ABSENT: u32 = u32::MAX;

    /// Creates an empty table.
    pub fn new() -> Self {
        RequestTable {
            index: Vec::new(),
            slots: Vec::new(),
            classes: Default::default(),
            next_rank: 0,
        }
    }

    /// Creates an empty table with room for `capacity` requests (and for
    /// ids `0..capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut t = Self::new();
        t.slots.reserve_exact(capacity);
        t.index.reserve_exact(capacity);
        t
    }

    /// Number of requests in the table.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns true if the table holds no requests.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn position(&self, id: RequestId) -> Option<usize> {
        match self.index.get(id.index()) {
            Some(&pos) if pos != Self::ABSENT => Some(pos as usize),
            _ => None,
        }
    }

    /// Inserts a request in class [`PhaseClass::Pending`], initially
    /// invisible: it joins the phase indices only once [`Self::admit`]ted.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present.
    pub fn insert(&mut self, id: RequestId, payload: T) {
        let idx = id.index();
        if idx >= self.index.len() {
            self.index.resize(idx + 1, Self::ABSENT);
        }
        assert!(
            self.index[idx] == Self::ABSENT,
            "request {id} inserted twice"
        );
        self.index[idx] = u32::try_from(self.slots.len()).expect("fewer than 2^32 requests");
        self.slots.push(Slot {
            payload,
            class: PhaseClass::Pending,
            rank: u64::MAX,
            admitted: false,
        });
    }

    /// Makes a request visible to class iteration, assigning it the next
    /// admission rank. Iteration order within every class follows this rank,
    /// so admitting in event order reproduces an append-only arrival log.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or already admitted.
    pub fn admit(&mut self, id: RequestId) {
        let rank = self.next_rank;
        let slot = self.slot_mut(id);
        assert!(!slot.admitted, "request {id} admitted twice");
        slot.admitted = true;
        slot.rank = rank;
        let class = slot.class;
        self.next_rank += 1;
        self.classes[class.index()].insert((rank, id));
    }

    /// Returns true if the request is present.
    pub fn contains(&self, id: RequestId) -> bool {
        self.position(id).is_some()
    }

    /// The payload of `id`, if present.
    pub fn get(&self, id: RequestId) -> Option<&T> {
        self.position(id).map(|pos| &self.slots[pos].payload)
    }

    /// Mutable payload of `id`, if present. Class membership is unaffected;
    /// callers that change the logical phase must also call
    /// [`Self::set_class`].
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut T> {
        let pos = self.position(id)?;
        Some(&mut self.slots[pos].payload)
    }

    /// Moves `id` to `class`, updating the phase indices in O(log n).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn set_class(&mut self, id: RequestId, class: PhaseClass) {
        let slot = self.slot_mut(id);
        let old = slot.class;
        if old == class {
            return;
        }
        slot.class = class;
        if slot.admitted {
            let rank = slot.rank;
            self.classes[old.index()].remove(&(rank, id));
            self.classes[class.index()].insert((rank, id));
        }
    }

    /// Iterates the admitted requests of `class` in admission order.
    pub fn iter_class(&self, class: PhaseClass) -> impl Iterator<Item = RequestId> + '_ {
        self.classes[class.index()].iter().map(|&(_, id)| id)
    }

    /// Iterates `(id, payload)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &T)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &pos)| pos != Self::ABSENT)
            .map(|(i, &pos)| (RequestId::from(i), &self.slots[pos as usize].payload))
    }

    /// Consumes the table, yielding `(id, payload)` in id order.
    pub fn into_entries(self) -> impl Iterator<Item = (RequestId, T)> {
        let mut slots: Vec<Option<T>> = self.slots.into_iter().map(|s| Some(s.payload)).collect();
        self.index
            .into_iter()
            .enumerate()
            .filter(|&(_, pos)| pos != Self::ABSENT)
            .map(move |(i, pos)| {
                let payload = slots[pos as usize].take().expect("each slot indexed once");
                (RequestId::from(i), payload)
            })
    }

    /// Checks the index invariants: every admitted entry appears in exactly
    /// the set of its class, unadmitted entries appear nowhere, and set
    /// sizes add up. Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut admitted = 0usize;
        for (i, &pos) in self.index.iter().enumerate() {
            if pos == Self::ABSENT {
                continue;
            }
            let slot = &self.slots[pos as usize];
            let id = RequestId::from(i);
            for class_idx in 0..PhaseClass::COUNT {
                let present = self.classes[class_idx].contains(&(slot.rank, id));
                let expected = slot.admitted && class_idx == slot.class.index();
                if present != expected {
                    return Err(format!(
                        "request {id}: class index {class_idx} membership {present}, expected {expected}"
                    ));
                }
            }
            if slot.admitted {
                admitted += 1;
            }
        }
        let indexed: usize = self.classes.iter().map(|s| s.len()).sum();
        if indexed != admitted {
            return Err(format!(
                "phase indices hold {indexed} entries but {admitted} requests are admitted"
            ));
        }
        Ok(())
    }

    fn slot_mut(&mut self, id: RequestId) -> &mut Slot<T> {
        let pos = self
            .position(id)
            .unwrap_or_else(|| panic!("unknown request {id}"));
        &mut self.slots[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(ids: &[u64]) -> RequestTable<u64> {
        let mut t = RequestTable::new();
        for &i in ids {
            t.insert(RequestId(i), i * 10);
        }
        t
    }

    #[test]
    fn insert_admit_and_lookup() {
        let mut t = table_with(&[0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert!(t.contains(RequestId(1)));
        assert_eq!(t.get(RequestId(2)), Some(&20));
        // Invisible until admitted.
        assert_eq!(t.iter_class(PhaseClass::Pending).count(), 0);
        t.admit(RequestId(0));
        t.admit(RequestId(2));
        assert_eq!(t.iter_class(PhaseClass::Pending).count(), 2);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn iteration_follows_admission_order_not_id_order() {
        let mut t = table_with(&[0, 1, 2, 3]);
        for id in [3u64, 0, 2, 1] {
            t.admit(RequestId(id));
        }
        let order: Vec<u64> = t.iter_class(PhaseClass::Pending).map(|r| r.raw()).collect();
        assert_eq!(order, vec![3, 0, 2, 1]);
    }

    #[test]
    fn transitions_move_between_index_sets() {
        let mut t = table_with(&[0, 1]);
        t.admit(RequestId(0));
        t.admit(RequestId(1));
        t.set_class(RequestId(0), PhaseClass::InFlight);
        assert_eq!(t.iter_class(PhaseClass::Pending).count(), 1);
        assert_eq!(t.iter_class(PhaseClass::InFlight).count(), 1);
        t.set_class(RequestId(0), PhaseClass::DecodeReady);
        t.set_class(RequestId(1), PhaseClass::Done);
        assert_eq!(t.iter_class(PhaseClass::Pending).count(), 0);
        assert_eq!(
            t.iter_class(PhaseClass::DecodeReady).collect::<Vec<_>>(),
            vec![RequestId(0)]
        );
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn reentering_a_class_keeps_the_original_rank() {
        let mut t = table_with(&[0, 1]);
        t.admit(RequestId(1));
        t.admit(RequestId(0));
        // Request 1 leaves and re-enters pending (chunked prefill does
        // this); it must keep its place ahead of request 0.
        t.set_class(RequestId(1), PhaseClass::InFlight);
        t.set_class(RequestId(1), PhaseClass::Pending);
        let order: Vec<u64> = t.iter_class(PhaseClass::Pending).map(|r| r.raw()).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn class_changes_before_admission_take_effect_at_admission() {
        let mut t = table_with(&[0]);
        // E.g. a request rejected before its arrival event fires.
        t.set_class(RequestId(0), PhaseClass::Done);
        t.admit(RequestId(0));
        assert_eq!(t.iter_class(PhaseClass::Pending).count(), 0);
        assert_eq!(t.iter_class(PhaseClass::Done).count(), 1);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn into_entries_yields_id_order() {
        let mut t = RequestTable::new();
        t.insert(RequestId(2), "c");
        t.insert(RequestId(0), "a");
        let entries: Vec<(RequestId, &str)> = t.into_entries().collect();
        assert_eq!(entries, vec![(RequestId(0), "a"), (RequestId(2), "c")]);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut t = table_with(&[0]);
        t.insert(RequestId(0), 9);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn set_class_of_unknown_request_panics() {
        let mut t: RequestTable<u64> = RequestTable::new();
        t.set_class(RequestId(7), PhaseClass::Done);
    }
}
