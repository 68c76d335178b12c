//! Property test of the readiness/wakeup contract the event-driven run
//! loop stands on: no component ever sleeps through its own wake
//! condition under randomized FIFO traffic.

use proptest::prelude::*;
use simkit::sched::Wake;
use simkit::Fifo;

proptest! {
    /// A consumer driven purely by [`Fifo::wake`] never sleeps through
    /// traffic and never misses data: under any randomized producer
    /// schedule it pops exactly the pushed sequence, in order, touching
    /// the queue only on cycles where its wake condition fired.
    #[test]
    fn no_consumer_sleeps_through_fifo_traffic(
        capacity in 1usize..6,
        traffic in proptest::collection::vec(proptest::bool::ANY, 1..200),
    ) {
        let mut fifo: Fifo<u32> = Fifo::new(capacity);
        let mut next = 0u32;
        let mut popped = Vec::new();
        for push in traffic {
            if push && fifo.can_push() {
                fifo.push(next);
                next += 1;
            }
            fifo.end_cycle();
            match fifo.wake() {
                Wake::Ready => {
                    // The wake condition fired: data must actually be there.
                    let v = fifo.pop();
                    prop_assert!(v.is_some(), "woken with nothing to pop");
                    popped.push(v.expect("just checked"));
                }
                Wake::Idle => {
                    // Sleeping is only sound when a pop would find nothing.
                    prop_assert!(fifo.is_empty(), "slept through visible data");
                }
                Wake::Sleep(_) => {
                    return Err(TestCaseError::fail("a FIFO has no deadline of its own"));
                }
            }
        }
        // Drain: wake must keep firing until the queue is empty.
        loop {
            fifo.end_cycle();
            match fifo.wake() {
                Wake::Ready => popped.push(fifo.pop().expect("woken with data")),
                _ => break,
            }
        }
        prop_assert_eq!(popped.len(), next as usize, "consumer missed pushed data");
        for (i, v) in popped.iter().enumerate() {
            prop_assert_eq!(*v as usize, i, "order violated");
        }
    }
}
