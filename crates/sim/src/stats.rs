//! Simulation statistics: channel-utilization trackers and histograms.
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

/// A power-of-two-bucketed histogram for burst lengths and queue depths.
///
/// Bucket *k* counts values in `[2^k, 2^(k+1))`, with bucket 0 counting
/// values 0 and 1. Useful for characterizing traffic — e.g. the burst
/// length distribution a workload presents to the AXI-Pack controller.
///
/// # Examples
///
/// ```
/// use simkit::stats::Histogram;
///
/// let mut h = Histogram::new("burst_beats");
/// h.record(1);
/// h.record(6);
/// h.record(6);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_counts()[2], 2); // 4..8
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [0; 32],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() - 1).min(31) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Raw bucket counts; bucket k covers `[2^k, 2^(k+1))`.
    pub fn bucket_counts(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// Histogram name, for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.1} max={}",
            self.name,
            self.count,
            self.mean(),
            self.max
        )?;
        if self.count > 0 {
            let top = self.buckets.iter().rposition(|c| *c > 0).unwrap_or(0);
            for (k, c) in self.buckets[..=top].iter().enumerate() {
                write!(f, " [{}..{}):{}", 1u64 << k, 1u64 << (k + 1), c)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::Histogram;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        let mut h = Histogram::new("t");
        for v in [0u64, 1, 2, 3, 4, 7, 8, 255, 256] {
            h.record(v);
        }
        let b = h.bucket_counts();
        assert_eq!(b[0], 2); // 0, 1
        assert_eq!(b[1], 2); // 2, 3
        assert_eq!(b[2], 2); // 4, 7
        assert_eq!(b[3], 1); // 8
        assert_eq!(b[7], 1); // 255
        assert_eq!(b[8], 1); // 256
        assert_eq!(h.max(), 256);
    }

    #[test]
    fn mean_and_display() {
        let mut h = Histogram::new("beats");
        h.record(2);
        h.record(6);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        let s = h.to_string();
        assert!(s.contains("beats"));
        assert!(s.contains("n=2"));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new("e");
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }
}
