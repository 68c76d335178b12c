//! Fixed-latency pipeline register chains.
//!
//! Models fixed structural latencies such as the banked SRAM's access
//! pipeline (§III-D) without hand-written shift registers.

use std::collections::VecDeque;

/// A fixed-latency, stall-free pipeline of `latency` register stages.
///
/// Models structures like an SRAM macro's access pipeline: an item inserted
/// in cycle *k* emerges in cycle *k + latency*. At most one item may enter
/// per cycle; the pipeline never back-pressures (the inserter is responsible
/// for downstream space, typically via a [`crate::Credit`] regulator).
///
/// # Examples
///
/// ```
/// use simkit::Pipeline;
///
/// let mut p: Pipeline<&str> = Pipeline::new(2);
/// p.insert("req");
/// assert_eq!(p.end_cycle(), None);
/// assert_eq!(p.end_cycle(), Some("req"));
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<T> {
    stages: VecDeque<Option<T>>,
    inserted_this_cycle: bool,
    /// Items currently in flight, maintained incrementally so emptiness
    /// checks on the per-cycle path are O(1).
    in_flight: usize,
}

impl<T> Pipeline<T> {
    /// Creates a pipeline with `latency` stages.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero; a zero-latency path is a wire, not a
    /// pipeline.
    pub fn new(latency: usize) -> Self {
        assert!(latency > 0, "pipeline latency must be at least 1");
        let mut stages = VecDeque::with_capacity(latency);
        for _ in 0..latency {
            stages.push_back(None);
        }
        Pipeline {
            stages,
            inserted_this_cycle: false,
            in_flight: 0,
        }
    }

    // simcheck: hot-path begin -- per-cycle stage shifting; the stage ring
    // is pre-sized in `new` and rotates in place.

    /// Inserts an item into the first stage.
    ///
    /// # Panics
    ///
    /// Panics if an item was already inserted this cycle.
    pub fn insert(&mut self, item: T) {
        assert!(
            !self.inserted_this_cycle,
            "pipeline accepts one insert per cycle"
        );
        self.inserted_this_cycle = true;
        self.in_flight += 1;
        // Goes into the newest stage slot at end_cycle; stash it here.
        *self.stages.back_mut().expect("nonzero latency") = Some(item);
    }

    /// Returns `true` if no item was inserted yet this cycle.
    #[inline]
    pub fn can_insert(&self) -> bool {
        !self.inserted_this_cycle
    }

    /// Advances all stages by one and returns the item leaving the pipeline.
    pub fn end_cycle(&mut self) -> Option<T> {
        self.inserted_this_cycle = false;
        let out = self.stages.pop_front().expect("nonzero latency");
        self.stages.push_back(None);
        if out.is_some() {
            self.in_flight -= 1;
        }
        out
    }

    // simcheck: hot-path end

    /// Number of items currently somewhere in the pipeline.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.in_flight
    }

    /// Returns `true` if no items are in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Pipeline depth in cycles.
    pub fn latency(&self) -> usize {
        self.stages.len()
    }

    /// Cycles until the next in-flight item emerges, if any.
    ///
    /// An item in the front stage emerges from the next [`Pipeline::end_cycle`]
    /// (`next_emerge() == Some(1)`). `None` means the pipeline is drained.
    #[inline]
    pub fn next_emerge(&self) -> Option<u64> {
        if self.in_flight == 0 {
            return None;
        }
        self.stages
            .iter()
            .position(Option::is_some)
            .map(|i| i as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_exact() {
        let mut p: Pipeline<u32> = Pipeline::new(3);
        p.insert(42);
        assert_eq!(p.end_cycle(), None);
        assert_eq!(p.end_cycle(), None);
        assert_eq!(p.end_cycle(), Some(42));
        assert_eq!(p.end_cycle(), None);
    }

    #[test]
    fn sustains_one_item_per_cycle() {
        let mut p: Pipeline<u32> = Pipeline::new(2);
        let mut out = Vec::new();
        for i in 0..10u32 {
            p.insert(i);
            if let Some(v) = p.end_cycle() {
                out.push(v);
            }
        }
        // Item i emerges from the 2nd end_cycle after its insert; the insert
        // and first end_cycle share an iteration, so item i appears in
        // iteration i + 1 and the last item is still in flight.
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "one insert per cycle")]
    fn double_insert_panics() {
        let mut p: Pipeline<u32> = Pipeline::new(1);
        p.insert(1);
        p.insert(2);
    }

    #[test]
    fn latency_one_behaves_like_register() {
        let mut p: Pipeline<u8> = Pipeline::new(1);
        p.insert(9);
        assert_eq!(p.end_cycle(), Some(9));
        assert!(p.is_empty());
    }
}
