//! The simulator's event queue: an indexed binary min-heap with stable
//! `(time, seq)` tie-breaking, plus a FIFO lane for events scheduled at
//! the current instant.
//!
//! Three properties matter here (DESIGN.md §11):
//!
//! * **Ordering is bit-for-bit the old ordering.** Events pop by
//!   `(time, insertion sequence)` — ties at one timestamp drain in push
//!   order, exactly as the previous `BinaryHeap<Reverse<(SimTime, u64,
//!   Ev)>>` did (the sequence number is unique, so the payload was never
//!   consulted there either). Traces, `RunStats`, and critical-path
//!   attribution are therefore unchanged, and the golden-equivalence
//!   suite holds the swap to that.
//! * **The hot loop compares one integer.** [`SimTime`] is non-NaN and
//!   non-negative, so the IEEE-754 bit pattern of its seconds orders
//!   exactly like the number itself; packing `(time_bits << 64) | seq`
//!   into a `u128` makes every sift step a single integer compare. The
//!   heap stores only that key plus a slot index — payloads sit in a
//!   slab and never move during sifts, which is what "indexed" buys when
//!   events are fat enum variants.
//! * **"Now" costs no sift.** A rank that resumes, a copy that starts, a
//!   delivery that completes — a large share of pushes land at exactly
//!   the latest popped time. Those go to a FIFO lane instead of the heap.
//!   Every lane entry carries that one timestamp and a sequence number
//!   above every earlier push, so the lane is sorted by key as it
//!   stands; a pop takes whichever of the heap head and the lane front
//!   has the smaller key. Both are the minima of their sides, so the pop
//!   order is still exactly `(time, seq)`. A heap entry wins over the
//!   lane only when it shares the lane's timestamp (it was pushed
//!   earlier, before that time became "now") or lies in the past.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Min-queue of `(SimTime, seq)`-keyed events; pop order is creation
/// order within a timestamp.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Binary heap of `(packed key, slot)`, 32 bytes per entry (the
    /// `u128` key is 16-byte aligned).
    heap: Vec<(u128, u32)>,
    /// Payload slab, indexed by the heap entries' slots.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    /// Events pushed at `now_bits`, in push (= key) order. Payloads sit
    /// inline: the lane never sifts, so nothing moves them but the pop.
    lane: VecDeque<(u128, E)>,
    /// Bit pattern of the latest time popped so far (0 = time zero).
    /// It never moves backwards, so every lane entry carries it.
    now_bits: u64,
    seq: u64,
}

#[inline]
fn pack(t: SimTime, seq: u64) -> u128 {
    // Non-negative, non-NaN f64s order identically to their bit patterns.
    ((t.seconds().to_bits() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::new(f64::from_bits((key >> 64) as u64))
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            now_bits: 0,
            seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Schedule `ev` at `t`. Events pushed at equal times pop in push order.
    pub fn push(&mut self, t: SimTime, ev: E) {
        let key = pack(t, self.seq);
        self.seq += 1;
        if t.seconds().to_bits() == self.now_bits {
            self.lane.push_back((key, ev));
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(ev);
                s
            }
            None => {
                self.slots.push(Some(ev));
                self.slots.len() as u32 - 1
            }
        };
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// True when the next pop comes from the heap rather than the lane.
    #[inline]
    fn heap_first(&self) -> Option<bool> {
        match (self.heap.first(), self.lane.front()) {
            (Some(&(hk, _)), Some(&(lk, _))) => Some(hk < lk),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = if self.heap_first()? {
            self.heap[0].0
        } else {
            self.lane[0].0
        };
        Some(unpack_time(key))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, ev) = if self.heap_first()? {
            let (key, slot) = self.heap[0];
            let last = self.heap.pop().expect("non-empty");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down_to_bottom();
            }
            let ev = self.slots[slot as usize].take().expect("live slot");
            self.free.push(slot);
            (key, ev)
        } else {
            self.lane.pop_front().expect("non-empty")
        };
        // The lane is empty whenever time moves forward (its entries sit
        // at `now_bits` and would have popped first), so raising the mark
        // keeps "every lane entry is at `now_bits`" true.
        self.now_bits = self.now_bits.max((key >> 64) as u64);
        Some((unpack_time(key), ev))
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Restore the heap after its root was replaced by the former last
    /// entry: walk the root's hole down along the smaller children to a
    /// leaf, then sift the entry up from there. An entry taken from the
    /// bottom usually belongs near the bottom, so this costs about one
    /// compare per level instead of two (as `std`'s `BinaryHeap::pop`).
    #[inline]
    fn sift_down_to_bottom(&mut self) {
        let n = self.heap.len();
        let entry = self.heap[0];
        let mut i = 0;
        let mut child = 1;
        while child + 1 < n {
            if self.heap[child + 1].0 < self.heap[child].0 {
                child += 1;
            }
            self.heap[i] = self.heap[child];
            i = child;
            child = 2 * i + 1;
        }
        if child + 1 == n {
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = entry;
        self.sift_up(i);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(SimTime::new(3.0), "c");
        q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop(), Some((SimTime::new(1.0), "a")));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "b")));
        assert_eq!(q.pop(), Some((SimTime::new(3.0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::new(1.5e-6);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_stable_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t0 = SimTime::new(1.0);
        let t1 = SimTime::new(2.0);
        q.push(t1, 10);
        q.push(t0, 0);
        q.push(t0, 1);
        assert_eq!(q.pop(), Some((t0, 0)));
        q.push(t0, 2); // same time, later seq: after the earlier t0 push
        assert_eq!(q.pop(), Some((t0, 1)));
        assert_eq!(q.pop(), Some((t0, 2)));
        q.push(t1, 11);
        assert_eq!(q.pop(), Some((t1, 10)));
        assert_eq!(q.pop(), Some((t1, 11)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn matches_std_binary_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Deterministic pseudo-random schedule, including many exact ties.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut times = Vec::new();
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            times.push(SimTime::new((x >> 40) as f64 * 1e-9));
        }
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut std_heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
            std_heap.push(Reverse((t, i as u64, i)));
        }
        while let Some(Reverse((t, _, i))) = std_heap.pop() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn pushes_at_the_popped_time_use_the_lane() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::new(1.0);
        q.push(t, 0);
        q.push(t, 1); // both at a future time: heap
        assert_eq!(q.pop(), Some((t, 0)));
        q.push(t, 2); // at the popped time: lane, behind the heap's 1
        assert_eq!((q.heap.len(), q.lane.len()), (1, 1));
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 1)));
        q.push(t, 3);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert!(q.is_empty() && q.peek_time().is_none());
    }

    use proptest::prelude::*;

    proptest! {
        /// Random interleavings of pushes at the last popped time (the
        /// lane), pushes in the future (the heap, with many exact ties)
        /// and pops drain in exactly `BinaryHeap<Reverse<(SimTime, seq,
        /// _)>>` order, with `peek_time`/`len` agreeing at every step.
        #[test]
        fn prop_lane_and_heap_pop_in_std_heap_order(
            ops in proptest::collection::vec((0u8..3, 1u32..6), 1..300),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut q: EventQueue<usize> = EventQueue::new();
            let mut std_heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
            let mut last = SimTime::ZERO;
            let mut seq = 0u64;
            for &(kind, step) in &ops {
                let t = match kind {
                    0 => Some(last),
                    1 => Some(last.after(step as f64 * 1e-9)),
                    _ => None,
                };
                match t {
                    Some(t) => {
                        q.push(t, seq as usize);
                        std_heap.push(Reverse((t, seq, seq as usize)));
                        seq += 1;
                    }
                    None => {
                        let want = std_heap.pop().map(|Reverse((t, _, i))| (t, i));
                        prop_assert_eq!(q.pop(), want);
                        if let Some((t, _)) = want {
                            last = t;
                        }
                    }
                }
                prop_assert_eq!(q.len(), std_heap.len());
                prop_assert_eq!(q.peek_time(), std_heap.peek().map(|Reverse((t, _, _))| *t));
            }
            while let Some(Reverse((t, _, i))) = std_heap.pop() {
                prop_assert_eq!(q.pop(), Some((t, i)));
            }
            prop_assert!(q.pop().is_none() && q.is_empty());
        }
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..16 {
                q.push(SimTime::new(round as f64 + i as f64 * 0.01), round * 16 + i);
            }
            for i in 0..16 {
                assert_eq!(q.pop().unwrap().1, round * 16 + i);
            }
        }
        // All payload slots were recycled rather than grown per push.
        assert!(q.slots.len() <= 16);
    }
}
