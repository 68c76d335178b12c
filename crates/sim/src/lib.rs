//! `simkit` — a small, deterministic, cycle-driven simulation substrate.
//!
//! Every hardware model in this workspace is built from three primitives:
//!
//! * [`Fifo`] — a registered, handshake-style queue. Items pushed in cycle
//!   *k* become visible to consumers in cycle *k + 1*, mirroring a
//!   flip-flop-based FIFO in RTL. Occupancy checks are evaluated against the
//!   state at the *start* of the cycle, which makes simulation results
//!   independent of the order in which components are ticked.
//! * [`RoundRobin`] — a fair, stateful arbiter (the same policy the paper's
//!   controller uses between the index and element stages).
//! * [`Credit`] — a credit counter used to build request regulators that
//!   bound the number of in-flight requests per lane.
//! * [`InlineBuf`] — a fixed-capacity inline byte buffer so data-carrying
//!   beats and word accesses never touch the heap on the per-cycle path.
//!
//! A simulation is a plain `struct` owning its components and the [`Fifo`]s
//! that wire them together; each cycle it calls `tick` on every component
//! (any order) and then [`Fifo::end_cycle`] on every queue.
//!
//! Components may additionally report a [`sched::Wake`] at each cycle
//! boundary; the [`sched`] module turns those reports into provably-safe
//! idle-span skips so run loops can fast-forward across dead cycles instead
//! of ticking through them (with the lockstep tick loop retained as the
//! differential oracle).
//!
//! On top of the single-simulation substrate, [`sweep`] provides the
//! *parallel sweep engine*: [`SweepSpec`] builds cartesian parameter grids
//! and fans the independent simulation points across worker threads with
//! deterministic per-point seeds and ordered result collection — how the
//! figure harness regenerates the paper's evaluation on all cores.
//!
//! ```
//! use simkit::Fifo;
//!
//! let mut q: Fifo<u32> = Fifo::new(2);
//! assert!(q.can_push());
//! q.push(7);
//! assert!(q.pop().is_none()); // not visible until next cycle
//! q.end_cycle();
//! assert_eq!(q.pop(), Some(7));
//! ```

// Public-API documentation is part of this crate's contract: every
// public item must explain what paper structure it models.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arbiter;
pub mod buf;
pub mod credit;
pub mod fault;
pub mod fifo;
pub mod pipeline;
pub mod sched;
pub mod stats;
pub mod sweep;

pub use arbiter::RoundRobin;
pub use buf::InlineBuf;
pub use credit::Credit;
pub use fault::{FaultReport, FaultSpec, HangComponent, HangReport, SiteSchedule};
pub use fifo::Fifo;
pub use pipeline::Pipeline;
pub use sched::Wake;
pub use stats::{Counter, Histogram, Utilization};
pub use sweep::{PointCtx, SweepSpec};

/// A simulation cycle index.
///
/// A plain `u64` newtype so cycle counts cannot be confused with element
/// counts, addresses, or byte sizes in interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Advances the cycle counter by one.
    #[inline]
    pub fn advance(&mut self) {
        self.0 += 1;
    }
}

impl std::fmt::Display for Cycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}
