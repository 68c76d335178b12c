//! Base AXI4 converter: regular contiguous and narrow bursts.
//!
//! This converter is what makes the adapter fully backward-compatible: any
//! plain AXI4 burst is served here, untouched by the AXI-Pack machinery.
//! It is also the entire memory path of the evaluation's BASE system, where
//! strided and indexed vector accesses degenerate into one *narrow*
//! single-beat transaction per element — the bandwidth pathology the paper
//! sets out to fix.
//!
//! Reads pipeline: several transactions may be in flight (the AR channel
//! accepts one per cycle), and R beats are returned strictly in AR order per
//! the AXI same-ID ordering rule. Writes also pipeline, with per-lane
//! transaction reference queues attributing write acks to the correct
//! transaction.

use std::collections::VecDeque;

use axi_proto::{Addr, ArBeat, AxiId, BeatBuf, BusConfig, RBeat, Resp, WBeat};
use banked_mem::WordReq;

use crate::lane::{fault_resp, ConvId, LaneJob, LaneSet, RetryCtl};
use crate::CtrlConfig;

/// How a read transaction's beats are assembled.
#[derive(Debug, Clone)]
enum RKind {
    /// Full-bus-width contiguous burst: each beat pops one word per lane.
    Full { beats: u32, done_beats: u32 },
    /// Narrow single-beat transfer of one element within one word.
    Narrow {
        lane: usize,
        /// Byte offset of the element within the bus beat (AXI places
        /// narrow data on the lane its address selects).
        lane_off: usize,
        /// Byte offset of the element within the memory word.
        word_off: usize,
        bytes: usize,
    },
}

#[derive(Debug)]
struct RTxn {
    id: AxiId,
    kind: RKind,
    /// Worst response seen so far — sticky, so beat responses never "heal"
    /// within a burst.
    resp: Resp,
}

#[derive(Debug)]
struct WTxn {
    id: AxiId,
    /// Words (including zero-strobe skips) that must complete before B.
    total_words: u64,
    acked: u64,
    /// W beats still expected from the bus.
    w_beats_left: u32,
    /// Narrow write: (lane, lane_off, word_off, bytes); `None` = full-width.
    narrow: Option<(usize, usize, usize, usize)>,
    /// Worst write-ack response seen so far, reported on B.
    resp: Resp,
}

/// The base AXI4 read/write converter.
#[derive(Debug)]
pub struct BaseConverter {
    bus: BusConfig,
    word_bytes: usize,
    /// log2 of `word_bytes`.
    word_shift: u32,
    ports: usize,
    r_lanes: LaneSet,
    w_lanes: LaneSet,
    r_txns: VecDeque<RTxn>,
    w_txns: VecDeque<WTxn>,
    /// Per-lane queue mapping each planned write job to its transaction
    /// sequence number, for ack attribution.
    w_refs: Vec<VecDeque<u64>>,
    /// Sequence numbers delimiting `w_txns`: front txn is `w_seq_head`.
    w_seq_head: u64,
    w_seq_next: u64,
    max_txns: usize,
    /// Completed-write responses ready for B, in order.
    b_ready: VecDeque<(AxiId, Resp)>,
}

impl BaseConverter {
    /// Creates the converter; `max_txns` bounds outstanding transactions
    /// per direction.
    pub fn new(cfg: &CtrlConfig, max_txns: usize) -> Self {
        let ports = cfg.ports();
        BaseConverter {
            bus: cfg.bus,
            word_bytes: cfg.word_bytes(),
            word_shift: cfg.word_bytes().trailing_zeros(),
            ports,
            r_lanes: LaneSet::new(ports, cfg.queue_depth, ConvId::Base, cfg.word_bytes()),
            w_lanes: LaneSet::new(ports, cfg.queue_depth, ConvId::Base, cfg.word_bytes()),
            r_txns: VecDeque::new(),
            w_txns: VecDeque::new(),
            w_refs: (0..ports).map(|_| VecDeque::new()).collect(),
            w_seq_head: 0,
            w_seq_next: 0,
            max_txns,
            b_ready: VecDeque::new(),
        }
    }

    // simcheck: hot-path begin -- per-handshake acceptance, W routing, lane
    // arbitration and beat assembly; transaction queues are bounded by
    // `max_txns` and reach steady-state capacity within a few bursts.

    /// The lane serving the word at `addr`: word width and port count are
    /// powers of two, so this is a shift and a mask.
    fn lane_of_word(&self, addr: Addr) -> usize {
        (addr >> self.word_shift) as usize & (self.ports - 1)
    }

    /// Returns `true` if a new read burst can be accepted this cycle.
    pub fn can_accept_read(&self) -> bool {
        self.r_txns.len() < self.max_txns
    }

    /// Accepts a plain AXI4 read burst.
    ///
    /// # Panics
    ///
    /// Panics on a packed burst, a multi-beat narrow burst, or a full-width
    /// burst that is not bus-aligned.
    pub fn accept_read(&mut self, ar: &ArBeat) {
        assert!(
            ar.pack_mode().is_none(),
            "packed burst routed to base converter"
        );
        assert!(self.can_accept_read(), "caller must check can_accept_read");
        let ebytes = ar.size.bytes();
        if ebytes == self.bus.data_bytes() {
            assert_eq!(
                ar.addr % self.bus.data_bytes() as Addr,
                0,
                "full-width bursts must be bus-aligned"
            );
            for b in 0..ar.beats as u64 {
                for k in 0..self.ports as u64 {
                    let addr = ar.addr + (b * self.ports as u64 + k) * self.word_bytes as Addr;
                    self.r_lanes.push_job(k as usize, LaneJob::Read { addr });
                }
            }
            self.r_txns.push_back(RTxn {
                id: ar.id,
                kind: RKind::Full {
                    beats: ar.beats,
                    done_beats: 0,
                },
                resp: Resp::Okay,
            });
        } else {
            assert_eq!(ar.beats, 1, "narrow bursts are modeled single-beat");
            assert!(
                ebytes <= self.word_bytes,
                "narrow element must fit in a memory word"
            );
            let word_addr = ar.addr & !(self.word_bytes as Addr - 1);
            let word_off = (ar.addr % self.word_bytes as Addr) as usize;
            assert!(
                word_off + ebytes <= self.word_bytes,
                "narrow element must not straddle a word"
            );
            let lane = self.lane_of_word(ar.addr);
            self.r_lanes
                .push_job(lane, LaneJob::Read { addr: word_addr });
            self.r_txns.push_back(RTxn {
                id: ar.id,
                kind: RKind::Narrow {
                    lane,
                    lane_off: (ar.addr % self.bus.data_bytes() as Addr) as usize,
                    word_off,
                    bytes: ebytes,
                },
                resp: Resp::Okay,
            });
        }
    }

    /// Returns `true` if a new write burst can be accepted this cycle.
    pub fn can_accept_write(&self) -> bool {
        self.w_txns.len() < self.max_txns
    }

    /// Accepts a plain AXI4 write burst; W data arrives later via
    /// [`BaseConverter::push_w`].
    ///
    /// # Panics
    ///
    /// Panics on packed, multi-beat narrow, or misaligned full-width bursts.
    pub fn accept_write(&mut self, aw: &ArBeat) {
        assert!(
            aw.pack_mode().is_none(),
            "packed burst routed to base converter"
        );
        assert!(
            self.can_accept_write(),
            "caller must check can_accept_write"
        );
        let seq = self.w_seq_next;
        self.w_seq_next += 1;
        let ebytes = aw.size.bytes();
        if ebytes == self.bus.data_bytes() {
            assert_eq!(
                aw.addr % self.bus.data_bytes() as Addr,
                0,
                "full-width bursts must be bus-aligned"
            );
            for b in 0..aw.beats as u64 {
                for k in 0..self.ports as u64 {
                    let addr = aw.addr + (b * self.ports as u64 + k) * self.word_bytes as Addr;
                    self.w_lanes
                        .push_job(k as usize, LaneJob::AwaitData { addr });
                    self.w_refs[k as usize].push_back(seq);
                }
            }
            self.w_txns.push_back(WTxn {
                id: aw.id,
                total_words: aw.beats as u64 * self.ports as u64,
                acked: 0,
                w_beats_left: aw.beats,
                narrow: None,
                resp: Resp::Okay,
            });
        } else {
            assert_eq!(aw.beats, 1, "narrow bursts are modeled single-beat");
            assert!(
                ebytes <= self.word_bytes,
                "narrow element must fit in a word"
            );
            let word_addr = aw.addr & !(self.word_bytes as Addr - 1);
            let word_off = (aw.addr % self.word_bytes as Addr) as usize;
            let lane = self.lane_of_word(aw.addr);
            self.w_lanes
                .push_job(lane, LaneJob::AwaitData { addr: word_addr });
            self.w_refs[lane].push_back(seq);
            self.w_txns.push_back(WTxn {
                id: aw.id,
                total_words: 1,
                acked: 0,
                w_beats_left: 1,
                narrow: Some((
                    lane,
                    (aw.addr % self.bus.data_bytes() as Addr) as usize,
                    word_off,
                    ebytes,
                )),
                resp: Resp::Okay,
            });
        }
    }

    /// Returns `true` if the converter expects more W data.
    pub fn needs_w(&self) -> bool {
        self.w_txns.iter().any(|t| t.w_beats_left > 0)
    }

    /// Feeds one W beat to the oldest write transaction still expecting
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if no write transaction expects data.
    pub fn push_w(&mut self, w: &WBeat) {
        let txn = self
            .w_txns
            .iter_mut()
            .find(|t| t.w_beats_left > 0)
            .expect("W beat without expecting write transaction");
        txn.w_beats_left -= 1;
        match txn.narrow {
            None => {
                for k in 0..self.ports {
                    let lo = k * self.word_bytes;
                    let strb = ((w.strb >> lo) & ((1u128 << self.word_bytes) - 1)) as u32;
                    self.w_lanes
                        .fill_data(k, &w.data[lo..lo + self.word_bytes], strb);
                }
            }
            Some((lane, lane_off, word_off, bytes)) => {
                let mut data = banked_mem::WordBuf::zeroed(self.word_bytes);
                let mut strb = 0u32;
                for i in 0..bytes {
                    data[word_off + i] = w.data[lane_off + i];
                    if w.strb >> (lane_off + i) & 1 == 1 {
                        strb |= 1 << (word_off + i);
                    }
                }
                self.w_lanes.fill_data(lane, &data, strb);
            }
        }
    }

    /// The lanes with an issuable word request, one bit per lane.
    #[inline]
    pub(crate) fn want_mask(&self) -> u32 {
        self.r_lanes.want_mask() | self.w_lanes.want_mask()
    }

    /// Returns `true` if `lane` has an issuable word request.
    #[inline]
    pub fn port_wants(&self, lane: usize) -> bool {
        self.want_mask() >> lane & 1 == 1
    }

    /// Pops the next word request for `lane`.
    ///
    /// Reads take priority: they are latency-critical, writes are posted.
    /// Starvation would need an unbounded same-lane read stream, which the
    /// transaction cap prevents.
    pub fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        if self.r_lanes.wants(lane) {
            return self.r_lanes.pop_request(lane);
        }
        self.w_lanes.pop_request(lane)
    }

    /// Completes zero-strobe write words without memory accesses. Called
    /// once per cycle by the adapter before port arbitration.
    pub fn drain_local_acks(&mut self) {
        if self.w_txns.is_empty() {
            return; // no write in flight, nothing to drain
        }
        for lane in 0..self.ports {
            while self.w_lanes.take_local_ack(lane) {
                self.attribute_ack(lane, Resp::Okay);
            }
        }
    }

    fn attribute_ack(&mut self, lane: usize, resp: Resp) {
        let seq = self.w_refs[lane]
            .pop_front()
            .expect("ack without planned write job");
        let idx = (seq - self.w_seq_head) as usize;
        let txn = &mut self.w_txns[idx];
        txn.acked += 1;
        txn.resp = txn.resp.worst(resp);
        // Retire any leading fully-acked transactions in order.
        while let Some(front) = self.w_txns.front() {
            if front.acked == front.total_words && front.w_beats_left == 0 {
                self.b_ready.push_back((front.id, front.resp));
                self.w_txns.pop_front();
                self.w_seq_head += 1;
            } else {
                break;
            }
        }
    }

    /// Delivers a memory response; `ctl` bounds transient-fault retries.
    pub fn deliver(&mut self, resp: banked_mem::WordResp, ctl: &mut RetryCtl) {
        if resp.is_write {
            let lane = resp.port;
            // Return the credit and attribute the ack. A retried or held
            // response may release zero or several acks at once.
            self.w_lanes.deliver(resp, ctl);
            while self.w_lanes.has_resp(lane) {
                let r = self.w_lanes.pop_resp(lane); // write acks carry no data
                self.attribute_ack(lane, fault_resp(r.fault));
            }
        } else {
            self.r_lanes.deliver(resp, ctl);
        }
    }

    /// Returns `true` if [`BaseConverter::pop_r`] would produce a beat.
    pub fn r_ready(&self) -> bool {
        match self.r_txns.front() {
            None => false,
            Some(txn) => match &txn.kind {
                RKind::Full { .. } => self.r_lanes.all_have_resp(0..self.ports),
                RKind::Narrow { lane, .. } => self.r_lanes.has_resp(*lane),
            },
        }
    }

    /// Returns `true` if a B response is pending.
    pub fn has_b(&self) -> bool {
        !self.b_ready.is_empty()
    }

    /// Produces the next R beat if available (in AR order).
    pub fn pop_r(&mut self) -> Option<RBeat> {
        let bus_bytes = self.bus.data_bytes();
        let txn = self.r_txns.front_mut()?;
        match &mut txn.kind {
            RKind::Full { beats, done_beats } => {
                if !self.r_lanes.all_have_resp(0..self.ports) {
                    return None;
                }
                let mut data = BeatBuf::zeroed(bus_bytes);
                let mut resp = txn.resp;
                for lane in 0..self.ports {
                    let word = self.r_lanes.pop_resp(lane);
                    resp = resp.worst(fault_resp(word.fault));
                    data[lane * self.word_bytes..(lane + 1) * self.word_bytes]
                        .copy_from_slice(&word.data);
                }
                txn.resp = resp;
                *done_beats += 1;
                let last = *done_beats == *beats;
                let id = txn.id;
                if last {
                    self.r_txns.pop_front();
                }
                Some(RBeat {
                    id,
                    data,
                    payload_bytes: bus_bytes,
                    last,
                    resp,
                })
            }
            RKind::Narrow {
                lane,
                lane_off,
                word_off,
                bytes,
            } => {
                if !self.r_lanes.has_resp(*lane) {
                    return None;
                }
                let word = self.r_lanes.pop_resp(*lane);
                let resp = txn.resp.worst(fault_resp(word.fault));
                let mut data = BeatBuf::zeroed(bus_bytes);
                data[*lane_off..*lane_off + *bytes]
                    .copy_from_slice(&word.data[*word_off..*word_off + *bytes]);
                let id = txn.id;
                let payload = *bytes;
                self.r_txns.pop_front();
                Some(RBeat {
                    id,
                    data,
                    payload_bytes: payload,
                    last: true,
                    resp,
                })
            }
        }
    }

    /// Produces the next B response (id and worst ack response) if a write
    /// transaction completed.
    pub fn pop_b(&mut self) -> Option<(AxiId, Resp)> {
        self.b_ready.pop_front()
    }

    /// Returns `true` when nothing is in flight.
    pub fn idle(&self) -> bool {
        self.r_txns.is_empty()
            && self.w_txns.is_empty()
            && self.b_ready.is_empty()
            && self.r_lanes.idle()
            && self.w_lanes.idle()
    }

    // simcheck: hot-path end
}
