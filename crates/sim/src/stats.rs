//! Simulation statistics: channel-utilization trackers.
//!
//! [`Utilization`] implements the paper's headline metric — R-channel
//! payload bytes over theoretical bus bytes (Fig. 3a, Fig. 5a/5b).

/// Tracks how many cycles a channel carried useful data.
///
/// The paper's headline metric is *R bus utilization*: the fraction of
/// cycles in which the R channel transferred a beat, optionally weighted by
/// how much of the beat carried useful payload (narrow beats on a wide bus
/// count fractionally). [`Utilization`] accumulates both views:
///
/// * [`Utilization::busy_fraction`] — beats / cycles;
/// * [`Utilization::payload_fraction`] — payload bytes / (cycles × bus bytes).
///
/// # Examples
///
/// ```
/// use simkit::Utilization;
///
/// let mut u = Utilization::new(32); // 256-bit bus
/// u.record_beat(4);  // a narrow 32-bit beat
/// u.record_beat(32); // a full-width beat
/// u.record_idle();
/// assert_eq!(u.cycles(), 3);
/// assert!((u.busy_fraction() - 2.0 / 3.0).abs() < 1e-12);
/// assert!((u.payload_fraction() - 36.0 / 96.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Utilization {
    bus_bytes: u64,
    cycles: u64,
    busy_cycles: u64,
    payload_bytes: u64,
}

impl Utilization {
    /// Creates a tracker for a bus `bus_bytes` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bus_bytes` is zero.
    pub fn new(bus_bytes: usize) -> Self {
        assert!(bus_bytes > 0, "bus width must be nonzero");
        Utilization {
            bus_bytes: bus_bytes as u64,
            cycles: 0,
            busy_cycles: 0,
            payload_bytes: 0,
        }
    }

    /// Records a cycle in which a beat carrying `payload_bytes` transferred.
    #[inline]
    pub fn record_beat(&mut self, payload_bytes: usize) {
        self.cycles += 1;
        self.busy_cycles += 1;
        self.payload_bytes += payload_bytes as u64;
    }

    /// Records a cycle with no transfer.
    #[inline]
    pub fn record_idle(&mut self) {
        self.cycles += 1;
    }

    /// Records `n` consecutive idle cycles in one call.
    ///
    /// Used by the event-driven scheduler's fast-forward path, which must
    /// leave the tracker bit-identical to `n` [`Utilization::record_idle`]
    /// calls.
    #[inline]
    pub fn record_idle_n(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Total observed cycles.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles in which a beat transferred.
    #[inline]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total payload bytes transferred.
    #[inline]
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Fraction of cycles with any transfer.
    pub fn busy_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of the theoretical byte bandwidth actually used.
    ///
    /// This is the paper's *bus utilization*: narrow beats on a wide bus are
    /// charged only for the bytes they carry.
    pub fn payload_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / (self.cycles * self.bus_bytes) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_distinguishes_busy_and_payload() {
        let mut u = Utilization::new(32);
        // Ten narrow 4-byte beats: busy 100%, payload 12.5%.
        for _ in 0..10 {
            u.record_beat(4);
        }
        assert!((u.busy_fraction() - 1.0).abs() < 1e-12);
        assert!((u.payload_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let u = Utilization::new(8);
        assert_eq!(u.busy_fraction(), 0.0);
        assert_eq!(u.payload_fraction(), 0.0);
    }

    #[test]
    fn idle_cycles_dilute_utilization() {
        let mut u = Utilization::new(8);
        u.record_beat(8);
        u.record_idle();
        u.record_idle();
        u.record_idle();
        assert!((u.busy_fraction() - 0.25).abs() < 1e-12);
        assert!((u.payload_fraction() - 0.25).abs() < 1e-12);
    }
}
