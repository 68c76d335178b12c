//! Round-robin arbitration.
//!
//! The fairness policy the paper's controller uses wherever requests
//! compete: between the index and element stages of the indirect
//! converters (Fig. 2d) and among word lanes at the bank ports (§III-C).

/// A stateful round-robin arbiter over `n` requestors.
///
/// Grants rotate: after requestor *i* wins, requestor *i + 1* has the
/// highest priority next time. This matches the arbitration the paper's
/// indirect converter uses between its index and element stages, and the
/// bank crossbar uses among word ports.
///
/// # Examples
///
/// ```
/// use simkit::RoundRobin;
///
/// let mut arb = RoundRobin::new(3);
/// assert_eq!(arb.grant(&[true, true, false]), Some(0));
/// assert_eq!(arb.grant(&[true, true, false]), Some(1));
/// assert_eq!(arb.grant(&[true, true, false]), Some(0));
/// assert_eq!(arb.grant(&[false, false, false]), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    /// Index with the highest priority for the next grant.
    next: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requestors.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requestor");
        RoundRobin { n, next: 0 }
    }

    /// Number of requestors.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the arbiter has no requestors (never true; kept for
    /// API completeness alongside [`RoundRobin::len`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grants one of the asserted requestors, rotating priority.
    ///
    /// Returns `None` when no requestor is asserted; priority is unchanged
    /// in that case.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` differs from the arbiter width.
    #[inline]
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector width mismatch");
        // Probe from the priority index to the end, then wrap to the
        // start: two plain scans instead of a divide per probe.
        let (tail, head) = requests.split_at(self.next);
        let idx = match head.iter().position(|&r| r) {
            Some(off) => self.next + off,
            None => tail.iter().position(|&r| r)?,
        };
        self.next = self.wrap(idx + 1);
        Some(idx)
    }

    /// Maps an index in `0..2n` back into `0..n` with a compare instead
    /// of a divide.
    #[inline]
    fn wrap(&self, idx: usize) -> usize {
        if idx >= self.n {
            idx - self.n
        } else {
            idx
        }
    }

    /// Grants from a bitmask request vector (bit *i* = requestor *i*
    /// asserted) — the allocation- and loop-free variant of
    /// [`RoundRobin::grant`] used on per-cycle paths with many arbiters
    /// (e.g. one per memory bank). Identical policy: the first asserted
    /// requestor at or after the priority index wins, and priority
    /// rotates past the winner.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if a bit at or above the arbiter width is set.
    #[inline]
    pub fn grant_mask(&mut self, mask: u32) -> Option<usize> {
        debug_assert!(
            self.n >= 32 || mask >> self.n == 0,
            "request mask wider than the arbiter"
        );
        if mask == 0 {
            return None;
        }
        // Rotate the mask so the priority index lands at bit 0, pick the
        // lowest set bit, and map it back to a requestor index. The lane
        // mask is computed shift-safely: at n == 32 (e.g. a 1024-bit bus
        // over 4-byte bank words) `1u32 << n` would overflow.
        let n = self.n as u32;
        let next = self.next as u32;
        let lane_mask = if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
        let rotated = if next == 0 {
            mask
        } else {
            ((mask >> next) | (mask << (n - next))) & lane_mask
        };
        let off = rotated.trailing_zeros() as usize;
        let idx = self.wrap(self.next + off);
        self.next = self.wrap(idx + 1);
        Some(idx)
    }

    /// Peeks at who would win without rotating the priority.
    #[inline]
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector width mismatch");
        (self.next..self.n)
            .chain(0..self.next)
            .find(|&idx| requests[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_fairly() {
        let mut arb = RoundRobin::new(4);
        let all = [true; 4];
        let grants: Vec<_> = (0..8).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_idle_requestors() {
        let mut arb = RoundRobin::new(3);
        assert_eq!(arb.grant(&[false, false, true]), Some(2));
        assert_eq!(arb.grant(&[true, false, true]), Some(0));
        assert_eq!(arb.grant(&[true, false, true]), Some(2));
    }

    #[test]
    fn none_when_idle_preserves_priority() {
        let mut arb = RoundRobin::new(2);
        assert_eq!(arb.grant(&[false, false]), None);
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    #[test]
    fn grant_mask_matches_grant_at_full_width() {
        // Width 32 is reachable (1024-bit bus / 4-byte words); the lane
        // mask must not overflow once the priority index has rotated.
        let mut a = RoundRobin::new(32);
        let mut b = RoundRobin::new(32);
        let masks = [1u32 << 31, 0x8000_0001, u32::MAX, 0, 0x0001_0000];
        for (round, &m) in masks.iter().cycle().take(64).enumerate() {
            let bools: Vec<bool> = (0..32).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(
                a.grant_mask(m),
                b.grant(&bools),
                "round {round} mask {m:#x}"
            );
        }
        // Narrow widths agree too.
        let mut a = RoundRobin::new(5);
        let mut b = RoundRobin::new(5);
        for m in [0b10110u32, 0b00001, 0b11111, 0b01000] {
            let bools: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(a.grant_mask(m), b.grant(&bools));
        }
    }

    /// The divide-per-probe policy the arbiter implements, kept as the
    /// reference the compare-wrapped scans must match.
    fn reference_grant(n: usize, next: &mut usize, mask: u32) -> Option<usize> {
        for off in 0..n {
            let idx = (*next + off) % n;
            if mask >> idx & 1 == 1 {
                *next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    #[test]
    fn division_free_grants_match_the_modulo_reference() {
        // splitmix64: every width 1..=32, every start position, a spread
        // of random masks (dense, sparse and empty) and follow-up rounds
        // from wherever the priority rotated to.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for n in 1..=32usize {
            let width = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
            for start in 0..n {
                let (mut a, mut b) = (RoundRobin::new(n), RoundRobin::new(n));
                a.next = start;
                b.next = start;
                let mut want = start;
                for round in 0..24 {
                    let raw = draw() as u32;
                    let mask = match round % 3 {
                        0 => raw,
                        1 => raw & (raw >> 7) & (raw >> 13),
                        _ => raw & (raw >> 5) & (raw >> 11) & (raw >> 17),
                    } & width;
                    let bools: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                    let expect = reference_grant(n, &mut want, mask);
                    let ctx = format!("n {n} start {start} round {round} mask {mask:#x}");
                    assert_eq!(a.peek(&bools), expect, "peek, {ctx}");
                    assert_eq!(a.grant(&bools), expect, "grant, {ctx}");
                    assert_eq!(b.grant_mask(mask), expect, "grant_mask, {ctx}");
                    assert_eq!((a.next, b.next), (want, want), "priority, {ctx}");
                }
            }
        }
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobin::new(2);
        assert_eq!(arb.peek(&[true, true]), Some(0));
        assert_eq!(arb.peek(&[true, true]), Some(0));
        assert_eq!(arb.grant(&[true, true]), Some(0));
        assert_eq!(arb.peek(&[true, true]), Some(1));
    }

    #[test]
    fn two_requestors_alternate_like_index_element_stages() {
        // The pattern that produces the paper's r/(r+1) utilization bound:
        // two always-ready stages share ports 50/50.
        let mut arb = RoundRobin::new(2);
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            wins[arb.grant(&[true, true]).unwrap()] += 1;
        }
        assert_eq!(wins, [50, 50]);
    }
}
