//! Strided read and write converters (paper Fig. 2c).
//!
//! For each beat of a packed strided burst, the *request generator* plans
//! one word request per lane (lane *j* carries byte `j·W` of every beat —
//! the bus-aligned packing rule), the per-lane *request regulators* bound
//! in-flight words, and the *beat packer* concatenates returning words into
//! full-width R beats. The write converter reverses the datapath: a *beat
//! unpacker* splits W beats into per-lane word writes, and write acks are
//! counted toward the B response.

use std::collections::VecDeque;

use axi_proto::{Addr, ArBeat, AxiId, BeatBuf, BusConfig, PackMode, RBeat, Resp, WBeat};
use banked_mem::{WordReq, WordResp};

use crate::lane::{fault_resp, ConvId, LaneJob, LaneSet, RetryCtl};
use crate::CtrlConfig;

/// Calls `f(beat, lane, addr)` for every word of a packed strided burst,
/// in beat-major order. Only *valid* elements (excluding the masked tail)
/// are visited.
///
/// # Panics
///
/// Panics if the burst is not packed-strided, the element is smaller than
/// a memory word, the base address is not word-aligned, or an address
/// underflows.
pub(crate) fn for_each_strided_word<F: FnMut(u32, usize, Addr)>(
    ar: &ArBeat,
    bus: &BusConfig,
    word_bytes: usize,
    mut f: F,
) {
    let Some(PackMode::Strided { stride }) = ar.pack_mode() else {
        panic!("strided converter got a non-strided burst");
    };
    let eb = ar.size.bytes();
    assert!(
        eb >= word_bytes,
        "packed elements must be at least one memory word ({word_bytes} B), got {eb} B"
    );
    assert_eq!(
        ar.addr % word_bytes as Addr,
        0,
        "strided burst base must be word-aligned"
    );
    let wpe = eb / word_bytes;
    let stride_bytes = stride as i64 * eb as i64;
    // Strength-reduced: one running element address instead of a
    // multiplication per element (this runs once per word of every
    // accepted burst).
    let mut elem_addr = ar.addr as i64;
    let mut k = 0i64;
    for b in 0..ar.beats {
        let valid = ar.beat_valid_elems(b, bus);
        for e in 0..valid {
            assert!(elem_addr >= 0, "strided address underflow at element {k}");
            for w in 0..wpe {
                f(b, e * wpe + w, elem_addr as Addr + (w * word_bytes) as Addr);
            }
            elem_addr += stride_bytes;
            k += 1;
        }
    }
}

/// Per-burst packing metadata (the paper's *info queue*).
#[derive(Debug, Clone)]
struct PackMeta {
    id: AxiId,
    beats: u32,
    done: u32,
    /// Lanes carrying valid data in the last beat.
    tail_lanes: usize,
    /// Worst response seen so far — sticky, so beat responses never
    /// "heal" within a burst.
    resp: Resp,
}

impl PackMeta {
    fn lanes_for_next_beat(&self, ports: usize) -> usize {
        if self.done + 1 == self.beats {
            self.tail_lanes
        } else {
            ports
        }
    }
}

fn tail_lanes(ar: &ArBeat, word_bytes: usize, ports: usize) -> usize {
    let wpe = ar.size.bytes() / word_bytes;
    if ar.tail_elems == 0 {
        ports
    } else {
        ar.tail_elems as usize * wpe
    }
}

/// The strided read converter.
#[derive(Debug)]
pub struct StridedReadConverter {
    bus: BusConfig,
    word_bytes: usize,
    ports: usize,
    lanes: LaneSet,
    pack_q: VecDeque<PackMeta>,
    max_bursts: usize,
}

impl StridedReadConverter {
    /// Creates the converter; at most `max_bursts` bursts overlap.
    pub fn new(cfg: &CtrlConfig, max_bursts: usize) -> Self {
        StridedReadConverter {
            bus: cfg.bus,
            word_bytes: cfg.word_bytes(),
            ports: cfg.ports(),
            lanes: LaneSet::new(
                cfg.ports(),
                cfg.queue_depth,
                ConvId::StridedR,
                cfg.word_bytes(),
            ),
            pack_q: VecDeque::new(),
            max_bursts,
        }
    }

    // simcheck: hot-path begin -- per-burst planning and per-cycle beat
    // packing; the pack queue is bounded by `max_bursts`.

    /// Returns `true` if another burst can be accepted.
    pub fn can_accept(&self) -> bool {
        self.pack_q.len() < self.max_bursts
    }

    /// Accepts a packed strided read burst, planning all word requests.
    pub fn accept(&mut self, ar: &ArBeat) {
        assert!(self.can_accept(), "caller must check can_accept");
        for_each_strided_word(ar, &self.bus, self.word_bytes, |_b, lane, addr| {
            self.lanes.push_job(lane, LaneJob::Read { addr });
        });
        self.pack_q.push_back(PackMeta {
            id: ar.id,
            beats: ar.beats,
            done: 0,
            tail_lanes: tail_lanes(ar, self.word_bytes, self.ports),
            resp: Resp::Okay,
        });
    }

    /// The lanes with an issuable word request, one bit per lane.
    #[inline]
    pub(crate) fn want_mask(&self) -> u32 {
        self.lanes.want_mask()
    }

    /// Returns `true` if `lane` has an issuable word request.
    #[inline]
    pub fn port_wants(&self, lane: usize) -> bool {
        self.lanes.wants(lane)
    }

    /// Pops the next word request for `lane`.
    pub fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        self.lanes.pop_request(lane)
    }

    /// Delivers a word response into the decoupling queues; `ctl` bounds
    /// transient-fault retries.
    pub fn deliver(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        self.lanes.deliver(resp, ctl);
    }

    /// Returns `true` if [`StridedReadConverter::pop_r`] would produce a beat.
    pub fn r_ready(&self) -> bool {
        match self.pack_q.front() {
            None => false,
            Some(meta) => self
                .lanes
                .all_have_resp(0..meta.lanes_for_next_beat(self.ports)),
        }
    }

    /// Assembles and returns the next R beat if all its words have arrived.
    pub fn pop_r(&mut self) -> Option<RBeat> {
        let bus_bytes = self.bus.data_bytes();
        let meta = self.pack_q.front_mut()?;
        let lanes_used = meta.lanes_for_next_beat(self.ports);
        if !self.lanes.all_have_resp(0..lanes_used) {
            return None;
        }
        let mut data = BeatBuf::zeroed(bus_bytes);
        let mut resp = meta.resp;
        for lane in 0..lanes_used {
            let word = self.lanes.pop_resp(lane);
            resp = resp.worst(fault_resp(word.fault));
            data[lane * self.word_bytes..(lane + 1) * self.word_bytes].copy_from_slice(&word.data);
        }
        meta.resp = resp;
        meta.done += 1;
        let last = meta.done == meta.beats;
        let id = meta.id;
        let payload = lanes_used * self.word_bytes;
        if last {
            self.pack_q.pop_front();
        }
        Some(RBeat {
            id,
            data,
            payload_bytes: payload,
            last,
            resp,
        })
    }

    /// Returns `true` when no burst is in flight.
    pub fn idle(&self) -> bool {
        self.pack_q.is_empty() && self.lanes.idle()
    }

    // simcheck: hot-path end
}

/// Per-burst write bookkeeping.
#[derive(Debug)]
struct WMeta {
    id: AxiId,
    /// Words that must ack (valid lanes over all beats), minus zero-strobe
    /// local completions which also count as acked.
    total_words: u64,
    acked: u64,
    /// W beats still expected.
    w_left: u32,
    beats: u32,
    beats_filled: u32,
    tail_lanes: usize,
    /// Worst write-ack response seen so far, reported on B.
    resp: Resp,
}

/// The strided write converter — the read converter's datapath reversed.
#[derive(Debug)]
pub struct StridedWriteConverter {
    bus: BusConfig,
    word_bytes: usize,
    ports: usize,
    lanes: LaneSet,
    bursts: VecDeque<WMeta>,
    /// Per-lane queue of burst sequence numbers, one entry per planned word.
    refs: Vec<VecDeque<u64>>,
    seq_head: u64,
    seq_next: u64,
    b_ready: VecDeque<(AxiId, Resp)>,
    max_bursts: usize,
}

impl StridedWriteConverter {
    /// Creates the converter; at most `max_bursts` bursts overlap.
    pub fn new(cfg: &CtrlConfig, max_bursts: usize) -> Self {
        StridedWriteConverter {
            bus: cfg.bus,
            word_bytes: cfg.word_bytes(),
            ports: cfg.ports(),
            lanes: LaneSet::new(
                cfg.ports(),
                cfg.queue_depth,
                ConvId::StridedW,
                cfg.word_bytes(),
            ),
            bursts: VecDeque::new(),
            refs: (0..cfg.ports()).map(|_| VecDeque::new()).collect(),
            seq_head: 0,
            seq_next: 0,
            b_ready: VecDeque::new(),
            max_bursts,
        }
    }

    // simcheck: hot-path begin -- per-burst planning, beat unpacking and ack
    // attribution; burst and ref queues are bounded by `max_bursts`.

    /// Returns `true` if another burst can be accepted.
    pub fn can_accept(&self) -> bool {
        self.bursts.len() < self.max_bursts
    }

    /// Accepts a packed strided write burst; data arrives via
    /// [`StridedWriteConverter::push_w`].
    pub fn accept(&mut self, aw: &ArBeat) {
        assert!(self.can_accept(), "caller must check can_accept");
        let seq = self.seq_next;
        self.seq_next += 1;
        let mut total = 0u64;
        let refs = &mut self.refs;
        let lanes = &mut self.lanes;
        for_each_strided_word(aw, &self.bus, self.word_bytes, |_b, lane, addr| {
            lanes.push_job(lane, LaneJob::AwaitData { addr });
            refs[lane].push_back(seq);
            total += 1;
        });
        self.bursts.push_back(WMeta {
            id: aw.id,
            total_words: total,
            acked: 0,
            w_left: aw.beats,
            beats: aw.beats,
            beats_filled: 0,
            tail_lanes: tail_lanes(aw, self.word_bytes, self.ports),
            resp: Resp::Okay,
        });
    }

    /// Returns `true` if the converter expects more W data.
    pub fn needs_w(&self) -> bool {
        self.bursts.iter().any(|b| b.w_left > 0)
    }

    /// Feeds one W beat to the oldest burst still expecting data.
    ///
    /// # Panics
    ///
    /// Panics if no burst expects data.
    pub fn push_w(&mut self, w: &WBeat) {
        let wb = self.word_bytes;
        let burst = self
            .bursts
            .iter_mut()
            .find(|b| b.w_left > 0)
            .expect("W beat without expecting strided write burst");
        let lanes_used = if burst.beats_filled + 1 == burst.beats {
            burst.tail_lanes
        } else {
            self.ports
        };
        for lane in 0..lanes_used {
            let lo = lane * wb;
            let strb = ((w.strb >> lo) & ((1u128 << wb) - 1)) as u32;
            self.lanes.fill_data(lane, &w.data[lo..lo + wb], strb);
        }
        burst.beats_filled += 1;
        burst.w_left -= 1;
    }

    /// The lanes with an issuable word request, one bit per lane.
    #[inline]
    pub(crate) fn want_mask(&self) -> u32 {
        self.lanes.want_mask()
    }

    /// Returns `true` if `lane` has an issuable word request.
    #[inline]
    pub fn port_wants(&self, lane: usize) -> bool {
        self.lanes.wants(lane)
    }

    /// Pops the next word request for `lane`.
    pub fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        self.lanes.pop_request(lane)
    }

    /// Completes zero-strobe words locally; call once per cycle.
    pub fn drain_local_acks(&mut self) {
        if self.bursts.is_empty() {
            return; // no write burst in flight, nothing to drain
        }
        for lane in 0..self.ports {
            while self.lanes.take_local_ack(lane) {
                self.attribute_ack(lane, Resp::Okay);
            }
        }
    }

    fn attribute_ack(&mut self, lane: usize, resp: Resp) {
        let seq = self.refs[lane]
            .pop_front()
            .expect("write ack without planned job");
        let idx = (seq - self.seq_head) as usize;
        self.bursts[idx].acked += 1;
        self.bursts[idx].resp = self.bursts[idx].resp.worst(resp);
        while let Some(front) = self.bursts.front() {
            if front.acked == front.total_words && front.w_left == 0 {
                self.b_ready.push_back((front.id, front.resp));
                self.bursts.pop_front();
                self.seq_head += 1;
            } else {
                break;
            }
        }
    }

    /// Delivers a write ack from memory; `ctl` bounds transient-fault
    /// retries. A retried or held response may release zero or several
    /// acks at once.
    pub fn deliver(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        debug_assert!(resp.is_write, "strided write converter got read data");
        let lane = resp.port;
        self.lanes.deliver(resp, ctl);
        while self.lanes.has_resp(lane) {
            let r = self.lanes.pop_resp(lane);
            self.attribute_ack(lane, fault_resp(r.fault));
        }
    }

    /// Returns `true` if a B response is pending.
    pub fn has_b(&self) -> bool {
        !self.b_ready.is_empty()
    }

    /// Produces the next B response (id and worst ack response) for a
    /// completed burst.
    pub fn pop_b(&mut self) -> Option<(AxiId, Resp)> {
        self.b_ready.pop_front()
    }

    /// Returns `true` when nothing is in flight.
    pub fn idle(&self) -> bool {
        self.bursts.is_empty() && self.b_ready.is_empty() && self.lanes.idle()
    }

    // simcheck: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_proto::{element_addresses, ElemSize};
    use banked_mem::{BankConfig, BankedMemory, Storage, WordOp};

    fn cfg() -> CtrlConfig {
        CtrlConfig::new(BusConfig::new(256), BankConfig::default(), 4)
    }

    fn storage_with_pattern() -> Storage {
        let mut s = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            s.write_u32(w * 4, 0x1000_0000 + w as u32);
        }
        s
    }

    /// Drives a read converter against a real banked memory until the burst
    /// completes; returns the emitted beats and the cycle count.
    fn run_read(
        conv: &mut StridedReadConverter,
        mem: &mut BankedMemory,
        max_cycles: usize,
    ) -> (Vec<RBeat>, usize) {
        let mut ctl = RetryCtl::new(0);
        let mut beats = Vec::new();
        for cycle in 0..max_cycles {
            for lane in 0..8 {
                if mem.port_free(lane) && conv.port_wants(lane) {
                    let req = conv.pop_request(lane).expect("wants implies request");
                    assert!(mem.try_issue(req));
                }
            }
            if let Some(r) = conv.pop_r() {
                beats.push(r);
            }
            for resp in mem.end_cycle() {
                conv.deliver(resp, &mut ctl);
            }
            if conv.idle() {
                return (beats, cycle + 1);
            }
        }
        panic!("converter did not finish in {max_cycles} cycles");
    }

    #[test]
    fn gathers_exactly_the_strided_elements() {
        let c = cfg();
        let mut conv = StridedReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, storage_with_pattern());
        let ar = ArBeat::packed_strided(1, 0x100, 24, ElemSize::B4, 5, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 200);
        assert_eq!(beats.len(), 3);
        assert!(beats[2].last);
        let expect = element_addresses(&ar, None, &c.bus);
        for (k, &addr) in expect.iter().enumerate() {
            let beat = &beats[k / 8];
            let off = (k % 8) * 4;
            let got = u32::from_le_bytes(beat.data[off..off + 4].try_into().unwrap());
            assert_eq!(got, 0x1000_0000 + (addr / 4) as u32, "element {k}");
        }
    }

    #[test]
    fn tail_beat_reports_partial_payload() {
        let c = cfg();
        let mut conv = StridedReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, storage_with_pattern());
        let ar = ArBeat::packed_strided(0, 0x0, 11, ElemSize::B4, 3, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 200);
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0].payload_bytes, 32);
        assert_eq!(beats[1].payload_bytes, 3 * 4);
        // The masked tail lanes are zero-filled.
        assert!(beats[1].data[12..].iter().all(|b| *b == 0));
    }

    #[test]
    fn unit_stride_sustains_a_beat_per_cycle_plus_latency() {
        // 17 banks, stride 1: no conflicts, so 32 beats should take roughly
        // 32 cycles plus pipeline fill.
        let c = cfg();
        let mut conv = StridedReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, storage_with_pattern());
        let ar = ArBeat::packed_strided(0, 0x0, 256, ElemSize::B4, 1, &c.bus);
        conv.accept(&ar);
        let (beats, cycles) = run_read(&mut conv, &mut mem, 400);
        assert_eq!(beats.len(), 32);
        assert!(
            cycles <= 32 + 10,
            "unit stride should stream at ~1 beat/cycle, took {cycles}"
        );
    }

    #[test]
    fn pathological_stride_on_pow2_banks_serializes() {
        // Stride of 8 words on 8 banks: every element of a beat maps to the
        // same bank, so each beat serializes over 8 grants.
        let bank = BankConfig {
            banks: 8,
            ..BankConfig::default()
        };
        let c = CtrlConfig::new(BusConfig::new(256), bank, 4);
        let mut conv = StridedReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, storage_with_pattern());
        let ar = ArBeat::packed_strided(0, 0x0, 64, ElemSize::B4, 8, &c.bus);
        conv.accept(&ar);
        let (beats, cycles) = run_read(&mut conv, &mut mem, 400);
        assert_eq!(beats.len(), 8);
        assert!(
            cycles >= 60,
            "stride-8 on 8 banks must serialize ~8x, took {cycles}"
        );
    }

    #[test]
    fn wide_elements_span_multiple_lanes() {
        let c = cfg();
        let mut conv = StridedReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, storage_with_pattern());
        // 16-byte elements: 2 per beat, 4 words each.
        let ar = ArBeat::packed_strided(0, 0x200, 4, ElemSize::B16, 3, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 200);
        assert_eq!(beats.len(), 2);
        for (k, addr) in element_addresses(&ar, None, &c.bus).iter().enumerate() {
            let beat = &beats[k / 2];
            let off = (k % 2) * 16;
            for w in 0..4u64 {
                let got = u32::from_le_bytes(
                    beat.data[off + w as usize * 4..off + w as usize * 4 + 4]
                        .try_into()
                        .unwrap(),
                );
                assert_eq!(got, 0x1000_0000 + ((addr + w * 4) / 4) as u32);
            }
        }
    }

    #[test]
    fn back_to_back_bursts_pack_in_order() {
        let c = cfg();
        let mut conv = StridedReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, storage_with_pattern());
        let ar1 = ArBeat::packed_strided(1, 0x0, 8, ElemSize::B4, 2, &c.bus);
        let ar2 = ArBeat::packed_strided(2, 0x1000, 8, ElemSize::B4, 3, &c.bus);
        conv.accept(&ar1);
        conv.accept(&ar2);
        assert!(!conv.can_accept());
        let (beats, _) = run_read(&mut conv, &mut mem, 300);
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0].id, AxiId(1));
        assert_eq!(beats[1].id, AxiId(2));
        assert!(beats[0].last && beats[1].last);
    }

    /// Drives a write converter to completion.
    fn run_write(
        conv: &mut StridedWriteConverter,
        mem: &mut BankedMemory,
        w_beats: &mut VecDeque<WBeat>,
        max_cycles: usize,
    ) -> usize {
        let mut ctl = RetryCtl::new(0);
        for cycle in 0..max_cycles {
            conv.drain_local_acks();
            if conv.needs_w() {
                if let Some(w) = w_beats.pop_front() {
                    conv.push_w(&w);
                }
            }
            for lane in 0..8 {
                if mem.port_free(lane) && conv.port_wants(lane) {
                    let req = conv.pop_request(lane).expect("wants implies request");
                    assert!(mem.try_issue(req));
                }
            }
            let _ = conv.pop_b();
            for resp in mem.end_cycle() {
                conv.deliver(resp, &mut ctl);
            }
            if conv.idle() && w_beats.is_empty() {
                return cycle + 1;
            }
        }
        panic!("write converter did not finish in {max_cycles} cycles");
    }

    #[test]
    fn scatters_elements_to_strided_addresses() {
        let c = cfg();
        let mut conv = StridedWriteConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, Storage::new(1 << 16));
        let aw = ArBeat::packed_strided(3, 0x100, 16, ElemSize::B4, 7, &c.bus);
        conv.accept(&aw);
        let mut w_beats = VecDeque::new();
        for b in 0..2u32 {
            let mut data = Vec::new();
            for e in 0..8u32 {
                data.extend_from_slice(&(0xAB00_0000 + b * 8 + e).to_le_bytes());
            }
            w_beats.push_back(WBeat::full(data, b == 1));
        }
        run_write(&mut conv, &mut mem, &mut w_beats, 300);
        for k in 0..16u64 {
            let addr = 0x100 + k * 7 * 4;
            assert_eq!(
                mem.storage().read_u32(addr),
                0xAB00_0000 + k as u32,
                "element {k}"
            );
        }
    }

    #[test]
    fn masked_tail_words_are_not_written() {
        let c = cfg();
        let mut conv = StridedWriteConverter::new(&c, 2);
        let mut storage = Storage::new(1 << 16);
        for a in 0..(1 << 14) {
            storage.write_u32(a * 4, 0xDEAD_0000);
        }
        let mut mem = BankedMemory::new(c.bank, storage);
        // 5 valid elements: tail beat has 5 lanes, 3 masked.
        let aw = ArBeat::packed_strided(0, 0x0, 5, ElemSize::B4, 2, &c.bus);
        conv.accept(&aw);
        let mut data = Vec::new();
        for e in 0..8u32 {
            data.extend_from_slice(&e.to_le_bytes());
        }
        let mut w_beats = VecDeque::from([WBeat::full(data, true)]);
        run_write(&mut conv, &mut mem, &mut w_beats, 300);
        for k in 0..5u64 {
            assert_eq!(mem.storage().read_u32(k * 2 * 4), k as u32);
        }
        // Elements 5..8 would land at 40, 48, 56 — untouched.
        for k in 5..8u64 {
            assert_eq!(mem.storage().read_u32(k * 2 * 4), 0xDEAD_0000);
        }
    }

    #[test]
    fn write_burst_acks_exactly_once() {
        let c = cfg();
        let mut conv = StridedWriteConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, Storage::new(1 << 16));
        let aw = ArBeat::packed_strided(9, 0x0, 8, ElemSize::B4, 1, &c.bus);
        conv.accept(&aw);
        let mut w_beats = VecDeque::from([WBeat::full(vec![7u8; 32], true)]);
        let mut ctl = RetryCtl::new(0);
        let mut bs = Vec::new();
        for _ in 0..100 {
            conv.drain_local_acks();
            if conv.needs_w() {
                if let Some(w) = w_beats.pop_front() {
                    conv.push_w(&w);
                }
            }
            for lane in 0..8 {
                if mem.port_free(lane) && conv.port_wants(lane) {
                    let req = conv.pop_request(lane).expect("wants");
                    assert!(mem.try_issue(req));
                }
            }
            if let Some((id, resp)) = conv.pop_b() {
                assert_eq!(resp, Resp::Okay);
                bs.push(id);
            }
            for resp in mem.end_cycle() {
                conv.deliver(resp, &mut ctl);
            }
        }
        assert_eq!(bs, vec![AxiId(9)]);
        assert!(conv.idle());
    }

    #[test]
    fn word_op_shapes_are_correct() {
        let c = cfg();
        let mut conv = StridedReadConverter::new(&c, 2);
        let ar = ArBeat::packed_strided(0, 0x40, 8, ElemSize::B4, 2, &c.bus);
        conv.accept(&ar);
        let req = conv.pop_request(0).expect("lane 0 has a job");
        assert_eq!(req.word_addr, 0x40);
        assert_eq!(req.op, WordOp::Read);
        let req1 = conv.pop_request(1).expect("lane 1 has a job");
        assert_eq!(req1.word_addr, 0x40 + 8);
    }
}
