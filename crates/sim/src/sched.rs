//! Readiness/wakeup scheduling: the event-driven alternative to lockstep.
//!
//! The lockstep engine visits every component every cycle, even across long
//! spans where nothing can progress (a scalar stall, a reduction tail, an
//! ideal-memory latency countdown). [`Wake`] is the vocabulary a run loop
//! needs to *fast-forward* across such spans instead: a component's
//! self-classification at a cycle boundary — ready to do observable work,
//! provably asleep for a known number of ticks, or idle until external
//! input arrives — and [`Wake::merge`], which combines per-component
//! answers into a whole-system answer.
//!
//! The contract that makes skipping sound: a component reporting
//! [`Wake::Sleep`]`(n)` promises that ticking it `n` times changes nothing
//! observable except fixed per-tick bookkeeping (cycle counters, idle
//! utilization samples, countdown decrements) — so the run loop may replay
//! that bookkeeping in one `fast_forward(n)` call and land in a state
//! bit-identical to `n` lockstep ticks. The differential fuzzer holds every
//! run path to exactly that standard against the lockstep oracle.

/// A component's wake status at a cycle boundary.
///
/// Queried *between* ticks (after `end_cycle`), so the component inspects
/// settled start-of-cycle state.
///
/// # Examples
///
/// ```
/// use simkit::sched::Wake;
///
/// // A stalled frontend (3 ticks left) next to a drained memory system:
/// let system = Wake::Sleep(3).merge(Wake::Idle);
/// assert_eq!(system, Wake::Sleep(3));
/// // Any ready component forces a normal tick.
/// assert_eq!(system.merge(Wake::Ready), Wake::Ready);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The component would do observable work if ticked this cycle.
    Ready,
    /// The component is provably idle for the next `n` ticks (`n >= 1`):
    /// ticking it `n` times performs only fixed per-tick bookkeeping, and it
    /// may first do observable work on tick `n + 1`.
    Sleep(u64),
    /// The component cannot make progress on its own; only external input
    /// (a beat arriving, a FIFO becoming non-empty) can wake it.
    Idle,
}

impl Wake {
    /// Builds a wake from a countdown: `0` means ready now, otherwise the
    /// component sleeps for the remaining ticks.
    #[inline]
    pub fn countdown(ticks: u64) -> Self {
        if ticks == 0 {
            Wake::Ready
        } else {
            Wake::Sleep(ticks)
        }
    }

    /// Combines two components' wakes into the wake of the pair.
    ///
    /// `Ready` dominates (someone has work); two sleeps wake at the earlier
    /// deadline; `Idle` defers to anything with a deadline.
    #[inline]
    pub fn merge(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::Ready, _) | (_, Wake::Ready) => Wake::Ready,
            (Wake::Sleep(a), Wake::Sleep(b)) => Wake::Sleep(a.min(b)),
            (Wake::Sleep(n), Wake::Idle) | (Wake::Idle, Wake::Sleep(n)) => Wake::Sleep(n),
            (Wake::Idle, Wake::Idle) => Wake::Idle,
        }
    }

    /// Returns `true` for [`Wake::Ready`].
    #[inline]
    pub fn is_ready(self) -> bool {
        matches!(self, Wake::Ready)
    }

    /// The sleep span, if this wake is a sleep.
    #[inline]
    pub fn sleep_ticks(self) -> Option<u64> {
        match self {
            Wake::Sleep(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_ready_dominates() {
        assert_eq!(Wake::Ready.merge(Wake::Sleep(3)), Wake::Ready);
        assert_eq!(Wake::Idle.merge(Wake::Ready), Wake::Ready);
        assert_eq!(Wake::Ready.merge(Wake::Ready), Wake::Ready);
    }

    #[test]
    fn merge_sleep_takes_min() {
        assert_eq!(Wake::Sleep(3).merge(Wake::Sleep(7)), Wake::Sleep(3));
        assert_eq!(Wake::Sleep(4).merge(Wake::Idle), Wake::Sleep(4));
        assert_eq!(Wake::Idle.merge(Wake::Idle), Wake::Idle);
    }

    #[test]
    fn countdown_zero_is_ready() {
        assert_eq!(Wake::countdown(0), Wake::Ready);
        assert_eq!(Wake::countdown(2), Wake::Sleep(2));
    }
}
