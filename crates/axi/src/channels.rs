//! The five-channel AXI bus as a bundle of handshake FIFOs.
//!
//! The AR/R/AW/W/B structure of AXI4 (paper Fig. 1) that both BASE and
//! PACK systems drive; AXI-Pack changes beat *contents*, never channels.

use simkit::Fifo;

use crate::beat::{ArBeat, BBeat, RBeat, WBeat};
use crate::checker::Monitor;

/// One AXI(-Pack) bus: AR, AW, W, R and B channel registers.
///
/// A *manager* (e.g. a vector processor's load-store unit) pushes AR/AW/W
/// and pops R/B; a *subordinate* (e.g. the AXI-Pack memory controller) does
/// the opposite. Each channel is a depth-2 [`simkit::Fifo`], i.e. a
/// full-rate skid buffer: one beat per channel per cycle, with one register
/// stage of latency — the behaviour of a register slice in an AXI
/// interconnect.
///
/// # Examples
///
/// ```
/// use axi_proto::{ArBeat, AxiChannels, BusConfig};
///
/// let bus = BusConfig::new(256);
/// let mut ch = AxiChannels::new();
/// ch.ar.push(ArBeat::incr(0, 0x40, 2, &bus));
/// ch.end_cycle();
/// assert!(ch.ar.can_pop());
/// ```
#[derive(Debug)]
pub struct AxiChannels {
    /// Read request channel.
    pub ar: Fifo<ArBeat>,
    /// Write request channel.
    pub aw: Fifo<ArBeat>,
    /// Write data channel.
    pub w: Fifo<WBeat>,
    /// Read data channel.
    pub r: Fifo<RBeat>,
    /// Write response channel.
    pub b: Fifo<BBeat>,
}

/// Register depth of every AXI channel FIFO. Two entries make each channel
/// a full-rate skid buffer; static checkers (the `simcheck` DRC) read this
/// to verify stall-freedom instead of hard-coding the depth.
pub const CHANNEL_DEPTH: usize = 2;

impl AxiChannels {
    /// Creates channel FIFOs of depth [`CHANNEL_DEPTH`] (full-rate register
    /// slices).
    pub fn new() -> Self {
        AxiChannels {
            ar: Fifo::new(CHANNEL_DEPTH),
            aw: Fifo::new(CHANNEL_DEPTH),
            w: Fifo::new(CHANNEL_DEPTH),
            r: Fifo::new(CHANNEL_DEPTH),
            b: Fifo::new(CHANNEL_DEPTH),
        }
    }

    // simcheck: hot-path begin -- ticked once per simulated cycle on every
    // bus in the system.

    /// Advances all channel registers; call once per cycle.
    pub fn end_cycle(&mut self) {
        self.ar.end_cycle();
        self.aw.end_cycle();
        self.w.end_cycle();
        self.r.end_cycle();
        self.b.end_cycle();
    }

    /// Advances all channel registers like [`AxiChannels::end_cycle`],
    /// first feeding every handshake accepted this cycle to a protocol
    /// [`Monitor`].
    ///
    /// Each beat pushed into a channel sits in exactly one cycle's staged
    /// set, so a run loop that ends every cycle through this method shows
    /// the monitor every AR/AW/W/R/B handshake exactly once, in channel
    /// order, without touching the simulated timing — the hook the
    /// differential fuzzing harness attaches to.
    pub fn end_cycle_observed(&mut self, mon: &mut Monitor) {
        for ar in self.ar.staged() {
            mon.observe_ar(ar);
        }
        for aw in self.aw.staged() {
            mon.observe_aw(aw);
        }
        for w in self.w.staged() {
            mon.observe_w(w);
        }
        for r in self.r.staged() {
            mon.observe_r(r);
        }
        for b in self.b.staged() {
            mon.observe_b(b);
        }
        self.end_cycle();
    }

    /// Returns `true` if any channel was pushed to or popped from this
    /// cycle. Otherwise [`AxiChannels::end_cycle`] changes nothing, and a
    /// run loop may skip it (see [`simkit::Fifo::handshook`]).
    #[inline]
    pub fn handshook(&self) -> bool {
        // Five flag loads and no branch: `|` does not short-circuit.
        self.ar.handshook()
            | self.aw.handshook()
            | self.w.handshook()
            | self.r.handshook()
            | self.b.handshook()
    }

    /// Returns `true` when every channel is fully drained.
    pub fn is_empty(&self) -> bool {
        self.ar.is_empty()
            && self.aw.is_empty()
            && self.w.is_empty()
            && self.r.is_empty()
            && self.b.is_empty()
    }

    // simcheck: hot-path end
}

impl Default for AxiChannels {
    fn default() -> Self {
        AxiChannels::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BusConfig;

    #[test]
    fn observed_end_cycle_feeds_the_monitor_once_per_beat() {
        use crate::beat::{AxiId, BeatBuf, RBeat, Resp};
        let bus = BusConfig::new(64);
        let mut ch = AxiChannels::new();
        let mut mon = Monitor::new(bus);
        ch.ar.push(ArBeat::incr(3, 0, 2, &bus));
        ch.end_cycle_observed(&mut mon);
        for last in [false, true] {
            ch.r.push(RBeat {
                id: AxiId(3),
                data: BeatBuf::zeroed(8),
                payload_bytes: 8,
                last,
                resp: Resp::Okay,
            });
            ch.end_cycle_observed(&mut mon);
        }
        // Drain without re-observing: already-promoted beats never recount.
        ch.ar.pop();
        ch.r.pop();
        ch.r.pop();
        ch.end_cycle_observed(&mut mon);
        assert_eq!(mon.r_beats(), 2);
        assert!(mon.violations().is_empty());
        assert!(mon.quiescent());
    }

    #[test]
    fn channels_register_one_cycle() {
        let bus = BusConfig::new(64);
        let mut ch = AxiChannels::new();
        ch.ar.push(ArBeat::incr(0, 0, 1, &bus));
        assert!(!ch.ar.can_pop());
        assert!(!ch.is_empty());
        ch.end_cycle();
        assert!(ch.ar.pop().is_some());
        ch.end_cycle();
        assert!(ch.is_empty());
    }
}
