//! The one bounded event ring behind the span ring ([`crate::trace`]) and
//! the flight recorder ([`crate::journal`]).
//!
//! A push claims a slot with one `fetch_add` and writes it under a short
//! per-slot latch; nothing allocates. Overflow overwrites the oldest event,
//! keeping the newest, and counts each overwrite, so drops are observable
//! instead of silent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One slot: an event beside its global sequence number, under a latch.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// A bounded ring of events, oldest overwritten first. Snapshots come back
/// in push order.
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    next: AtomicU64,
    dropped: AtomicU64,
    drained: AtomicU64,
}

impl<T: Clone> Ring<T> {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Ring<T> {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Push the event `event(seq)` builds from its sequence number,
    /// overwriting (and counting) the oldest on overflow.
    pub fn push(&self, event: impl FnOnce(u64) -> T) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let (slot, event) = ((seq % self.slots.len() as u64) as usize, (seq, event(seq)));
        let prev = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()).replace(event);
        if prev.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every buffered event, oldest first; `take` empties the slots.
    fn collect(&self, take: bool) -> Vec<T> {
        let mut out: Vec<(u64, T)> = Vec::new();
        for slot in self.slots.iter() {
            let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(if take { slot.take() } else { slot.clone() });
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, event)| event).collect()
    }

    /// Copy every buffered event, oldest first, leaving the ring intact
    /// (dumps and exports must not destroy the evidence they report).
    pub fn snapshot(&self) -> Vec<T> {
        self.collect(false)
    }

    /// Take every buffered event, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<T> {
        let out = self.collect(true);
        self.drained.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Events pushed over the ring's lifetime (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events lost to overflow before anyone drained them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events taken out via [`Ring::drain`].
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ev {
        seq: u64,
        id: u64,
    }

    fn ids(events: &[Ev]) -> Vec<u64> {
        events.iter().map(|e| e.id).collect()
    }

    #[test]
    fn ring_keeps_the_newest_in_order_and_counts_every_drop() {
        for (capacity, pushes) in [(3, 5), (4, 10), (4, 3)] {
            let ring = Ring::new(capacity);
            for id in 0..pushes {
                ring.push(|seq| Ev { seq, id });
            }
            let kept = pushes.min(capacity as u64);
            let newest: Vec<u64> = (pushes - kept..pushes).collect();
            assert_eq!(ring.pushed(), pushes);
            assert_eq!(ring.dropped(), pushes - kept, "overwrites are counted exactly");
            let snap = ring.snapshot();
            assert_eq!(ids(&snap), newest, "only the newest survive, oldest first");
            assert!(snap.iter().zip(&newest).all(|(e, &id)| e.seq == id), "pushes are stamped");
            assert_eq!(ring.snapshot(), snap, "snapshot is non-destructive");
            assert_eq!(ring.drained(), 0);
            assert_eq!(ids(&ring.drain()), newest);
            assert_eq!(ring.drained(), kept);
            assert!(ring.snapshot().is_empty() && ring.drain().is_empty(), "drain empties it");
            assert_eq!(ring.drained(), kept);
            ring.push(|seq| Ev { seq, id: 99 });
            assert_eq!(ring.dropped(), pushes - kept, "a drained slot is free, not a drop");
            assert_eq!(ring.snapshot()[0].seq, pushes, "the sequence carries on after a drain");
        }
    }
}
