//! Registered handshake FIFO.
//!
//! [`Fifo`] mimics an RTL FIFO whose `ready`/occupancy is registered:
//!
//! * a `push` performed during cycle *k* is visible to `pop` from cycle
//!   *k + 1* on (one register stage of latency);
//! * [`Fifo::can_push`] compares against the occupancy at the *start* of the
//!   cycle, so space freed by a `pop` in the same cycle cannot be reused
//!   until the next cycle.
//!
//! Both rules together make simulation outcomes independent of the order in
//! which producer and consumer components are ticked within a cycle, which
//! is what keeps the whole-system simulation deterministic without a global
//! event scheduler. The price is that a capacity-1 FIFO sustains only one
//! item every two cycles; use capacity ≥ 2 for full-rate links (exactly like
//! a two-deep skid buffer in RTL).
//!
//! A FIFO also records whether anything was pushed or popped this cycle
//! ([`Fifo::handshook`]). Without a handshake its register stage is a
//! no-op, so a run loop may skip [`Fifo::end_cycle`] for it, and whoever
//! reads it sees the same values next cycle.

use std::collections::VecDeque;

/// A registered, bounded, handshake-style queue.
///
/// See the [module documentation](self) for the timing semantics.
///
/// # Examples
///
/// ```
/// use simkit::Fifo;
///
/// let mut link: Fifo<&str> = Fifo::new(2);
/// link.push("beat0");
/// link.end_cycle();
/// link.push("beat1");
/// assert_eq!(link.pop(), Some("beat0"));
/// link.end_cycle();
/// assert_eq!(link.pop(), Some("beat1"));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    /// Items visible to `pop` this cycle.
    queue: VecDeque<T>,
    /// Items pushed this cycle; promoted to `queue` by `end_cycle`.
    staged: VecDeque<T>,
    /// Occupancy captured at the start of the current cycle.
    len_at_cycle_start: usize,
    capacity: usize,
    /// Whether an item was pushed or popped this cycle.
    handshook: bool,
    /// Lifetime statistics.
    total_pushed: u64,
    total_popped: u64,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be at least 1");
        Fifo {
            queue: VecDeque::with_capacity(capacity),
            // Staged items are bounded by the capacity too; pre-sizing
            // means a FIFO never reallocates after construction.
            staged: VecDeque::with_capacity(capacity),
            len_at_cycle_start: 0,
            capacity,
            handshook: false,
            total_pushed: 0,
            total_popped: 0,
        }
    }

    // simcheck: hot-path begin -- per-cycle handshake methods; both rings
    // are pre-sized in `new` and must never reallocate.

    /// Returns `true` if a `push` this cycle would be accepted.
    ///
    /// Evaluated against the occupancy at the start of the cycle plus any
    /// pushes already performed this cycle.
    #[inline]
    pub fn can_push(&self) -> bool {
        self.len_at_cycle_start + self.staged.len() < self.capacity
    }

    /// Returns how many more items can be pushed this cycle.
    #[inline]
    pub fn push_slots(&self) -> usize {
        self.capacity
            .saturating_sub(self.len_at_cycle_start + self.staged.len())
    }

    /// Enqueues an item; it becomes visible to `pop` next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO cannot accept an item this cycle
    /// (check [`Fifo::can_push`] first).
    #[inline]
    pub fn push(&mut self, item: T) {
        assert!(self.can_push(), "push into full fifo");
        self.staged.push_back(item);
        self.total_pushed += 1;
        self.handshook = true;
    }

    /// Returns a reference to the oldest visible item without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Returns `true` if an item is available to `pop` this cycle.
    #[inline]
    pub fn can_pop(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Dequeues the oldest visible item, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let item = self.queue.pop_front();
        if item.is_some() {
            self.total_popped += 1;
            self.handshook = true;
        }
        item
    }

    /// Returns `true` if an item was pushed or popped this cycle.
    ///
    /// When it is `false`, [`Fifo::end_cycle`] changes nothing a reader
    /// can see: nothing is staged, and the occupancy is the one the last
    /// register stage captured.
    #[inline]
    pub fn handshook(&self) -> bool {
        self.handshook
    }

    /// Commits this cycle's pushes and re-registers the occupancy.
    ///
    /// Must be called once per simulated cycle, after all component
    /// ticks, unless nothing was pushed or popped (see
    /// [`Fifo::handshook`]): then it does nothing, and skipping it is
    /// exact.
    #[inline]
    pub fn end_cycle(&mut self) {
        if !self.handshook {
            return;
        }
        self.handshook = false;
        if !self.staged.is_empty() {
            self.queue.append(&mut self.staged);
            debug_assert!(
                self.queue.len() <= self.capacity,
                "fifo overflow: {} > {}",
                self.queue.len(),
                self.capacity
            );
        }
        self.len_at_cycle_start = self.queue.len();
    }

    // simcheck: hot-path end

    /// Number of items currently visible to `pop`.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no items are visible *and* none are staged.
    ///
    /// This is the "completely drained" check used to detect the end of a
    /// simulation, not the per-cycle `can_pop` handshake.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.staged.is_empty()
    }

    /// Maximum number of items the FIFO can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of items ever pushed.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Total number of items ever popped.
    #[inline]
    pub fn total_popped(&self) -> u64 {
        self.total_popped
    }

    /// Iterates over the items currently visible to `pop`, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }

    /// Iterates over the items pushed *this* cycle (not yet visible to
    /// `pop`), oldest first.
    ///
    /// This is the observation point for protocol monitors: every item
    /// pushed into the FIFO appears in exactly one cycle's staged set, so
    /// observing the staged items immediately before [`Fifo::end_cycle`]
    /// sees each accepted handshake exactly once, in order, without
    /// perturbing the simulation.
    pub fn staged(&self) -> impl Iterator<Item = &T> {
        self.staged.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_not_visible_same_cycle() {
        let mut f: Fifo<u8> = Fifo::new(4);
        f.push(1);
        assert!(!f.can_pop());
        assert_eq!(f.pop(), None);
        f.end_cycle();
        assert!(f.can_pop());
        assert_eq!(f.pop(), Some(1));
    }

    #[test]
    fn capacity_counts_staged_items() {
        let mut f: Fifo<u8> = Fifo::new(2);
        f.push(1);
        f.push(2);
        assert!(!f.can_push());
        f.end_cycle();
        assert!(!f.can_push());
    }

    #[test]
    fn pop_does_not_free_space_same_cycle() {
        let mut f: Fifo<u8> = Fifo::new(1);
        f.push(1);
        f.end_cycle();
        assert_eq!(f.pop(), Some(1));
        // Space is freed only at the next end_cycle.
        assert!(!f.can_push());
        f.end_cycle();
        assert!(f.can_push());
    }

    #[test]
    fn capacity_two_sustains_full_rate() {
        let mut f: Fifo<u32> = Fifo::new(2);
        let mut received = Vec::new();
        let mut next = 0u32;
        for _ in 0..100 {
            // Consumer and producer in the same cycle, any order.
            if let Some(v) = f.pop() {
                received.push(v);
            }
            if f.can_push() {
                f.push(next);
                next += 1;
            }
            f.end_cycle();
        }
        // After warm-up, one item per cycle flows through.
        assert!(received.len() >= 98);
        for (i, v) in received.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    }

    #[test]
    fn fifo_preserves_order() {
        let mut f: Fifo<u32> = Fifo::new(8);
        for i in 0..5 {
            f.push(i);
        }
        f.end_cycle();
        for i in 0..5 {
            assert_eq!(f.pop(), Some(i));
        }
    }

    #[test]
    fn statistics_track_traffic() {
        let mut f: Fifo<u8> = Fifo::new(4);
        f.push(1);
        f.push(2);
        f.end_cycle();
        f.pop();
        assert_eq!(f.total_pushed(), 2);
        assert_eq!(f.total_popped(), 1);
    }

    #[test]
    #[should_panic(expected = "push into full fifo")]
    fn push_into_full_panics() {
        let mut f: Fifo<u8> = Fifo::new(1);
        f.push(1);
        f.push(2);
    }

    #[test]
    fn staged_sees_each_item_exactly_once() {
        let mut f: Fifo<u8> = Fifo::new(4);
        let mut observed = Vec::new();
        f.push(1);
        f.push(2);
        observed.extend(f.staged().copied());
        f.end_cycle();
        assert!(f.staged().next().is_none(), "promoted items left staging");
        f.push(3);
        observed.extend(f.staged().copied());
        f.end_cycle();
        assert_eq!(observed, vec![1, 2, 3]);
    }

    #[test]
    fn push_slots_reports_remaining() {
        let mut f: Fifo<u8> = Fifo::new(3);
        assert_eq!(f.push_slots(), 3);
        f.push(1);
        assert_eq!(f.push_slots(), 2);
        f.end_cycle();
        assert_eq!(f.push_slots(), 2);
    }

    proptest::proptest! {
        /// `handshook` is set exactly by a push or a successful pop, and
        /// after a cycle without either the register stage changes
        /// nothing a reader sees: skipping it is exact.
        #[test]
        fn a_cycle_without_a_handshake_has_a_no_op_register_stage(
            capacity in 1usize..5,
            ops in proptest::collection::vec((0usize..3, 0usize..3), 1..120),
        ) {
            let mut f: Fifo<u32> = Fifo::new(capacity);
            let seen = |f: &Fifo<u32>| {
                (f.can_push(), f.push_slots(), f.len(), f.peek().copied(), f.is_empty())
            };
            let mut next = 0;
            for (pops, pushes) in ops {
                let mut moved = false;
                for _ in 0..pops {
                    moved |= f.pop().is_some();
                }
                for _ in 0..pushes {
                    if f.can_push() {
                        f.push(next);
                        next += 1;
                        moved = true;
                    }
                }
                proptest::prop_assert_eq!(f.handshook(), moved);
                if !moved {
                    // What makes the stage a no-op: nothing staged, and
                    // the registered occupancy is the visible one.
                    proptest::prop_assert_eq!(f.push_slots(), capacity - f.len());
                }
                let before = seen(&f);
                f.end_cycle();
                proptest::prop_assert!(!f.handshook());
                if !moved {
                    proptest::prop_assert_eq!(seen(&f), before);
                }
            }
        }
    }

    #[test]
    fn is_empty_sees_staged() {
        let mut f: Fifo<u8> = Fifo::new(2);
        assert!(f.is_empty());
        f.push(1);
        assert!(!f.is_empty());
        f.end_cycle();
        f.pop();
        f.end_cycle();
        assert!(f.is_empty());
    }
}
