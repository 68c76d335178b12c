//! Indirect read and write converters (paper Fig. 2d).
//!
//! An indirect burst names an index array (the AR/AW address) and an
//! element base (in the user field). The converter runs two stages that
//! share the *n* word request ports through round-robin arbitration:
//!
//! * the **index stage** fetches the index array with contiguous word
//!   requests — whole bus lines at a time — and the *offsets extraction*
//!   unit parses the raw words into index values;
//! * the **element stage** shifts each index by the element size, adds the
//!   base, and gathers (or scatters) the elements, packing them into beats.
//!
//! Because indices are fetched as whole lines, every `r` data beats cost
//! one extra line of index traffic for an element:index size ratio of `r` —
//! the paper's `r/(r+1)` utilization bound, which emerges here from the
//! port arbitration rather than being coded anywhere.

use std::collections::VecDeque;

use axi_proto::{Addr, ArBeat, AxiId, BeatBuf, BusConfig, IdxSize, PackMode, RBeat, Resp, WBeat};
use banked_mem::{WordReq, WordResp};
use simkit::RoundRobin;

use crate::lane::{fault_resp, ConvId, LaneJob, LaneSet, RetryCtl};
use crate::{CtrlConfig, StagePolicy};

/// Decoded per-burst parameters shared by the read and write sides.
/// All fields are scalar, so the struct is `Copy` — bursts are booked by
/// value, never cloned through the heap.
#[derive(Debug, Clone, Copy)]
struct BurstParams {
    id: AxiId,
    beats: u32,
    /// Valid (unmasked) elements.
    n_elems: u32,
    /// log2 of the element size, the shift applied to indices.
    elem_shift: u32,
    epb: usize,
    /// Words per element.
    wpe: usize,
    idx_size: IdxSize,
    elem_base: Addr,
    /// Word-aligned address of the index array.
    idx_addr: Addr,
    /// Total index words to fetch.
    idx_words: u32,
}

impl BurstParams {
    fn decode(ar: &ArBeat, bus: &BusConfig, word_bytes: usize) -> Self {
        let Some(PackMode::Indirect {
            idx_size,
            elem_base,
        }) = ar.pack_mode()
        else {
            panic!("indirect converter got a non-indirect burst");
        };
        let eb = ar.size.bytes();
        assert!(
            eb >= word_bytes,
            "packed elements must be at least one memory word"
        );
        assert_eq!(
            ar.addr % word_bytes as Addr,
            0,
            "index array must be word-aligned"
        );
        assert_eq!(
            elem_base % word_bytes as Addr,
            0,
            "element base must be word-aligned"
        );
        let n_elems = ar.valid_elems(bus);
        let idx_bytes_total = n_elems as usize * idx_size.bytes();
        BurstParams {
            id: ar.id,
            beats: ar.beats,
            n_elems,
            elem_shift: ar.size.log2_bytes(),
            epb: bus.elems_per_beat(ar.size),
            wpe: eb / word_bytes,
            idx_size,
            elem_base,
            idx_addr: ar.addr,
            idx_words: idx_bytes_total.div_ceil(word_bytes) as u32,
        }
    }

    /// Valid elements in beat `b`.
    fn beat_elems(&self, b: u32) -> usize {
        let packed = (b as usize + 1) * self.epb;
        if packed <= self.n_elems as usize {
            self.epb
        } else {
            self.n_elems as usize - b as usize * self.epb
        }
    }
}

/// Per-burst progress of the index stage and offsets extraction.
#[derive(Debug)]
struct IdxProgress {
    params: BurstParams,
    /// Index words whose responses have been parsed.
    words_parsed: u32,
    /// Fetched index bytes not yet assembled into a whole index — needed
    /// when an index is *wider* than a memory word (e.g. 64-bit indices
    /// over 32-bit words) and spans several word responses.
    pending: VecDeque<u8>,
    /// Parsed index values awaiting the element stage.
    parsed: VecDeque<u64>,
    /// Indices parsed in total (unlike `parsed.len()`, never shrinks).
    parsed_total: u32,
    /// Indices handed to the element stage so far.
    consumed: u32,
    /// Worst response across the burst's index fetches — sticky, because a
    /// corrupted index taints every element planned from that point on.
    resp: Resp,
}

/// The shared index stage: plans contiguous index-word fetches and parses
/// responses into index values.
#[derive(Debug)]
struct IndexStage {
    lanes: LaneSet,
    bursts: VecDeque<IdxProgress>,
    ports: usize,
    word_bytes: usize,
    /// log2 of `word_bytes`.
    word_shift: u32,
    /// Cap on buffered parsed indices per burst (two bus lines' worth of
    /// the smallest index), providing back-pressure to the index fetch.
    parse_buf: usize,
}

impl IndexStage {
    fn new(cfg: &CtrlConfig, id: ConvId) -> Self {
        IndexStage {
            lanes: LaneSet::new(cfg.ports(), cfg.queue_depth, id, cfg.word_bytes()),
            bursts: VecDeque::new(),
            ports: cfg.ports(),
            word_bytes: cfg.word_bytes(),
            word_shift: cfg.word_bytes().trailing_zeros(),
            parse_buf: 2 * cfg.ports() * cfg.word_bytes(),
        }
    }

    // simcheck: hot-path begin -- per-cycle index extraction; index bytes
    // accumulate in per-burst queues that drain every cycle, and the
    // caller-owned scratch keeps its capacity so planning never allocates.

    fn accept(&mut self, params: BurstParams) {
        // Word width and port count are powers of two: index word `w`
        // sits `w << word_shift` bytes in, on lane `w mod ports`.
        for w in 0..params.idx_words {
            let lane = w as usize & (self.ports - 1);
            let addr = params.idx_addr + ((w as Addr) << self.word_shift);
            self.lanes.push_job(lane, LaneJob::Read { addr });
        }
        self.bursts.push_back(IdxProgress {
            params,
            words_parsed: 0,
            pending: VecDeque::new(),
            parsed: VecDeque::new(),
            parsed_total: 0,
            consumed: 0,
            resp: Resp::Okay,
        });
    }

    /// Offsets extraction: parses up to one bus line of fetched index words
    /// per cycle.
    ///
    /// Word responses accumulate into a byte stream and indices are cut
    /// from it at `idx_size` granularity, so the stage handles indices
    /// both narrower than a word (several per response) and wider than a
    /// word (one index spanning several responses) with the same code.
    fn tick_extract(&mut self) {
        let Some(prog) = self
            .bursts
            .iter_mut()
            .find(|p| p.words_parsed < p.params.idx_words)
        else {
            return;
        };
        let idx_bytes = prog.params.idx_size.bytes();
        // One fetched line yields this many whole indices (at least one
        // once enough bytes accumulate, even for indices wider than the
        // line's words).
        let line_indices = (self.ports * self.word_bytes / idx_bytes).max(1);
        if prog.parsed.len() + line_indices > self.parse_buf * 2 {
            return; // back-pressure: element stage is behind
        }
        let line_start = prog.words_parsed;
        let line_words = (prog.params.idx_words - line_start).min(self.ports as u32) as usize;
        let first_lane = (line_start as usize) % self.ports;
        debug_assert_eq!(first_lane, 0, "lines are n-word aligned by planning");
        if !self.lanes.all_have_resp(0..line_words) {
            return;
        }
        for l in 0..line_words {
            let word = self.lanes.pop_resp(l);
            prog.resp = prog.resp.worst(fault_resp(word.fault));
            prog.pending.extend(&word.data[..self.word_bytes]);
            prog.words_parsed += 1;
        }
        while prog.pending.len() >= idx_bytes && prog.parsed_total < prog.params.n_elems {
            let mut le = [0u8; 8];
            for (i, b) in prog.pending.drain(..idx_bytes).enumerate() {
                le[i] = b;
            }
            let v = prog.params.idx_size.read_le(&le);
            prog.parsed.push_back(v);
            prog.parsed_total += 1;
        }
        if prog.words_parsed == prog.params.idx_words {
            // Padding bytes in the final word carry no index.
            prog.pending.clear();
        }
    }

    /// Pops `want` indices for the element stage's next beat into the
    /// caller's scratch vector (cleared first), from the oldest burst
    /// with unconsumed indices. Returns `None` — and takes nothing — if
    /// fewer than `want` indices are parsed; otherwise the burst's worst
    /// index-fetch response so far, so the planner can taint the beat. The
    /// scratch keeps its capacity across beats, so the per-beat path never
    /// allocates.
    fn take_indices_into(&mut self, want: usize, out: &mut Vec<u64>) -> Option<Resp> {
        let prog = self
            .bursts
            .iter_mut()
            .find(|p| p.consumed < p.params.n_elems)?;
        if prog.parsed.len() < want {
            return None;
        }
        prog.consumed += want as u32;
        out.clear();
        out.extend(prog.parsed.drain(..want));
        let resp = prog.resp;
        if prog.consumed == prog.params.n_elems && prog.words_parsed == prog.params.idx_words {
            self.bursts.pop_front();
        }
        Some(resp)
    }

    #[inline]
    fn wants(&self, lane: usize) -> bool {
        self.lanes.wants(lane)
    }

    fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        self.lanes.pop_request(lane)
    }

    fn deliver(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        self.lanes.deliver(resp, ctl);
    }

    fn idle(&self) -> bool {
        self.bursts.is_empty() && self.lanes.idle()
    }

    // simcheck: hot-path end
}

/// The indirect read converter.
#[derive(Debug)]
pub struct IndirectReadConverter {
    bus: BusConfig,
    word_bytes: usize,
    ports: usize,
    idx: IndexStage,
    elem_lanes: LaneSet,
    /// Per-port arbitration between the two stages (0 = index, 1 = element).
    stage_arb: Vec<RoundRobin>,
    policy: StagePolicy,
    /// Beats whose element requests are planned, awaiting packing.
    pack_q: VecDeque<PackEntry>,
    /// Bursts accepted, in order, for element planning.
    plan_q: VecDeque<PlanState>,
    /// Per-beat index scratch, reused so planning never allocates.
    idx_scratch: Vec<u64>,
    /// Worst response of the burst currently being packed — sticky across
    /// its beats, reset when the last beat pops.
    burst_resp: Resp,
    max_bursts: usize,
}

#[derive(Debug)]
struct PlanState {
    params: BurstParams,
    beats_planned: u32,
}

#[derive(Debug, Clone, Copy)]
struct PackEntry {
    id: AxiId,
    lanes_used: usize,
    last: bool,
    /// Worst index-fetch response at planning time.
    resp: Resp,
}

impl IndirectReadConverter {
    /// Creates the converter; at most `max_bursts` bursts overlap.
    pub fn new(cfg: &CtrlConfig, max_bursts: usize) -> Self {
        IndirectReadConverter {
            bus: cfg.bus,
            word_bytes: cfg.word_bytes(),
            ports: cfg.ports(),
            idx: IndexStage::new(cfg, ConvId::IndirRIdx),
            elem_lanes: LaneSet::new(
                cfg.ports(),
                cfg.queue_depth,
                ConvId::IndirRElem,
                cfg.word_bytes(),
            ),
            stage_arb: (0..cfg.ports()).map(|_| RoundRobin::new(2)).collect(),
            policy: cfg.stage_policy,
            pack_q: VecDeque::new(),
            plan_q: VecDeque::new(),
            idx_scratch: Vec::new(),
            burst_resp: Resp::Okay,
            max_bursts,
        }
    }

    // simcheck: hot-path begin -- per-cycle planning tick and beat packing;
    // queues are bounded by `max_bursts` and the planned-job cap.

    /// Returns `true` if another burst can be accepted.
    pub fn can_accept(&self) -> bool {
        self.plan_q.len() < self.max_bursts
    }

    /// Accepts a packed indirect read burst.
    pub fn accept(&mut self, ar: &ArBeat) {
        assert!(self.can_accept(), "caller must check can_accept");
        let params = BurstParams::decode(ar, &self.bus, self.word_bytes);
        self.idx.accept(params);
        self.plan_q.push_back(PlanState {
            params,
            beats_planned: 0,
        });
    }

    /// Advances offsets extraction and element request planning; call once
    /// per cycle before port arbitration.
    ///
    /// Element request generation plans one beat per cycle — matching the
    /// RTL's rate of at most *n* element requests per cycle. Planning is
    /// strictly in burst order, so the front of the plan queue is always
    /// the burst being worked on.
    pub fn tick(&mut self) {
        self.idx.tick_extract();
        // Bound planned-but-unissued jobs so a slow memory cannot make the
        // per-lane job queues grow without limit.
        if self.elem_lanes.queued_jobs() > self.ports * 4 {
            return;
        }
        let Some(plan) = self.plan_q.front() else {
            return;
        };
        let p = plan.params;
        let want = p.beat_elems(plan.beats_planned);
        let Some(idx_resp) = self.idx.take_indices_into(want, &mut self.idx_scratch) else {
            return;
        };
        for e in 0..want {
            let elem_addr = p.elem_base + (self.idx_scratch[e] << p.elem_shift);
            for w in 0..p.wpe {
                self.elem_lanes.push_job(
                    e * p.wpe + w,
                    LaneJob::Read {
                        addr: elem_addr + (w * self.word_bytes) as Addr,
                    },
                );
            }
        }
        let plan = self.plan_q.front_mut().expect("still present");
        plan.beats_planned += 1;
        let last = plan.beats_planned == p.beats;
        self.pack_q.push_back(PackEntry {
            id: p.id,
            lanes_used: want * p.wpe,
            last,
            resp: idx_resp,
        });
        if last {
            self.plan_q.pop_front();
        }
    }

    /// The lanes with an issuable request in either stage, one bit per
    /// lane.
    #[inline]
    pub(crate) fn want_mask(&self) -> u32 {
        self.idx.lanes.want_mask() | self.elem_lanes.want_mask()
    }

    /// Returns `true` if `lane` has an issuable request in either stage.
    #[inline]
    pub fn port_wants(&self, lane: usize) -> bool {
        self.want_mask() >> lane & 1 == 1
    }

    /// Pops the next word request for `lane`, arbitrating between the
    /// index and element stages according to the configured policy.
    pub fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        let wants = [self.idx.wants(lane), self.elem_lanes.wants(lane)];
        let winner = match self.policy {
            StagePolicy::RoundRobin => self.stage_arb[lane].grant(&wants),
            StagePolicy::IndexPriority => wants.iter().position(|w| *w),
            StagePolicy::ElementPriority => wants.iter().rposition(|w| *w),
        };
        match winner {
            Some(0) => self.idx.pop_request(lane),
            Some(1) => self.elem_lanes.pop_request(lane),
            _ => None,
        }
    }

    /// Delivers a word response to the right stage; `ctl` bounds
    /// transient-fault retries.
    pub fn deliver(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        match ConvId::from_tag(resp.tag) {
            ConvId::IndirRIdx => self.idx.deliver(resp, ctl),
            ConvId::IndirRElem => self.elem_lanes.deliver(resp, ctl),
            other => panic!("indirect read converter got {other:?} response"),
        }
    }

    /// Returns `true` if [`IndirectReadConverter::pop_r`] would produce a
    /// beat.
    pub fn r_ready(&self) -> bool {
        match self.pack_q.front() {
            None => false,
            Some(entry) => self.elem_lanes.all_have_resp(0..entry.lanes_used),
        }
    }

    /// Assembles and returns the next R beat if all its words have arrived.
    pub fn pop_r(&mut self) -> Option<RBeat> {
        let entry = *self.pack_q.front()?;
        if !self.elem_lanes.all_have_resp(0..entry.lanes_used) {
            return None;
        }
        let mut data = BeatBuf::zeroed(self.bus.data_bytes());
        self.burst_resp = self.burst_resp.worst(entry.resp);
        for lane in 0..entry.lanes_used {
            let word = self.elem_lanes.pop_resp(lane);
            self.burst_resp = self.burst_resp.worst(fault_resp(word.fault));
            data[lane * self.word_bytes..(lane + 1) * self.word_bytes].copy_from_slice(&word.data);
        }
        self.pack_q.pop_front();
        let resp = self.burst_resp;
        if entry.last {
            self.burst_resp = Resp::Okay;
        }
        Some(RBeat {
            id: entry.id,
            data,
            payload_bytes: entry.lanes_used * self.word_bytes,
            last: entry.last,
            resp,
        })
    }

    /// Returns `true` when nothing is in flight.
    pub fn idle(&self) -> bool {
        self.plan_q.is_empty()
            && self.pack_q.is_empty()
            && self.idx.idle()
            && self.elem_lanes.idle()
    }

    // simcheck: hot-path end
}

/// The indirect write converter: the read converter with the element
/// datapath reversed (beat unpacker instead of beat packer).
#[derive(Debug)]
pub struct IndirectWriteConverter {
    bus: BusConfig,
    word_bytes: usize,
    ports: usize,
    idx: IndexStage,
    elem_lanes: LaneSet,
    stage_arb: Vec<RoundRobin>,
    policy: StagePolicy,
    plan_q: VecDeque<PlanState>,
    /// Per-beat index scratch, reused so planning never allocates.
    idx_scratch: Vec<u64>,
    /// W beats received, awaiting indices.
    w_buf: VecDeque<WBeat>,
    /// Write-ack bookkeeping, one entry per burst in acceptance order.
    acks: VecDeque<WAck>,
    refs: Vec<VecDeque<u64>>,
    seq_head: u64,
    seq_next: u64,
    b_ready: VecDeque<(AxiId, Resp)>,
    max_bursts: usize,
}

#[derive(Debug)]
struct WAck {
    id: AxiId,
    total_words: u64,
    planned_words: u64,
    acked: u64,
    /// All W beats of the burst consumed.
    data_done: bool,
    /// Worst response across index fetches and element write acks.
    resp: Resp,
}

impl IndirectWriteConverter {
    /// Creates the converter; at most `max_bursts` bursts overlap.
    pub fn new(cfg: &CtrlConfig, max_bursts: usize) -> Self {
        IndirectWriteConverter {
            bus: cfg.bus,
            word_bytes: cfg.word_bytes(),
            ports: cfg.ports(),
            idx: IndexStage::new(cfg, ConvId::IndirWIdx),
            elem_lanes: LaneSet::new(
                cfg.ports(),
                cfg.queue_depth,
                ConvId::IndirWElem,
                cfg.word_bytes(),
            ),
            stage_arb: (0..cfg.ports()).map(|_| RoundRobin::new(2)).collect(),
            policy: cfg.stage_policy,
            plan_q: VecDeque::new(),
            idx_scratch: Vec::new(),
            w_buf: VecDeque::new(),
            acks: VecDeque::new(),
            refs: (0..cfg.ports()).map(|_| VecDeque::new()).collect(),
            seq_head: 0,
            seq_next: 0,
            b_ready: VecDeque::new(),
            max_bursts,
        }
    }

    // simcheck: hot-path begin -- per-cycle write planning, beat unpacking
    // and ack attribution; queues are bounded by `max_bursts` and the
    // 4-beat W buffer.

    /// Returns `true` if another burst can be accepted.
    pub fn can_accept(&self) -> bool {
        self.plan_q.len() < self.max_bursts
    }

    /// Accepts a packed indirect write burst.
    pub fn accept(&mut self, aw: &ArBeat) {
        assert!(self.can_accept(), "caller must check can_accept");
        let params = BurstParams::decode(aw, &self.bus, self.word_bytes);
        let total_words = params.n_elems as u64 * params.wpe as u64;
        self.idx.accept(params);
        self.acks.push_back(WAck {
            id: params.id,
            total_words,
            planned_words: 0,
            acked: 0,
            data_done: false,
            resp: Resp::Okay,
        });
        self.plan_q.push_back(PlanState {
            params,
            beats_planned: 0,
        });
        self.seq_next += 1;
    }

    /// Returns `true` if the converter can buffer another W beat.
    pub fn needs_w(&self) -> bool {
        self.w_buf.len() < 4 && !self.plan_q.is_empty()
    }

    /// Buffers one W beat (taken by value — the payload is inline, so the
    /// move is a plain copy, never a heap clone).
    pub fn push_w(&mut self, w: WBeat) {
        assert!(self.w_buf.len() < 4, "caller must check needs_w");
        self.w_buf.push_back(w);
    }

    /// Advances extraction and write planning; call once per cycle.
    ///
    /// Plans one beat per cycle, strictly in burst order (the front of the
    /// plan queue is always the burst being worked on).
    pub fn tick(&mut self) {
        self.idx.tick_extract();
        if self.elem_lanes.queued_jobs() > self.ports * 4 {
            return;
        }
        if self.w_buf.is_empty() {
            return;
        }
        let Some(plan) = self.plan_q.front() else {
            return;
        };
        let p = plan.params;
        let want = p.beat_elems(plan.beats_planned);
        let Some(idx_resp) = self.idx.take_indices_into(want, &mut self.idx_scratch) else {
            return;
        };
        let w = self.w_buf.pop_front().expect("checked nonempty");
        // The front plan entry is the oldest not-fully-planned burst.
        let seq = self.seq_next - self.plan_q.len() as u64;
        for e in 0..want {
            let elem_addr = p.elem_base + (self.idx_scratch[e] << p.elem_shift);
            for wrd in 0..p.wpe {
                let lane = e * p.wpe + wrd;
                let lo = lane * self.word_bytes;
                let data = banked_mem::WordBuf::from_slice(&w.data[lo..lo + self.word_bytes]);
                let strb = ((w.strb >> lo) & ((1u128 << self.word_bytes) - 1)) as u32;
                self.elem_lanes.push_job(
                    lane,
                    LaneJob::Write {
                        addr: elem_addr + (wrd * self.word_bytes) as Addr,
                        data,
                        strb,
                    },
                );
                self.refs[lane].push_back(seq);
            }
        }
        let ack_idx = (seq - self.seq_head) as usize;
        self.acks[ack_idx].planned_words += (want * p.wpe) as u64;
        self.acks[ack_idx].resp = self.acks[ack_idx].resp.worst(idx_resp);
        let plan = self.plan_q.front_mut().expect("still present");
        plan.beats_planned += 1;
        if plan.beats_planned == p.beats {
            self.acks[ack_idx].data_done = true;
            self.plan_q.pop_front();
        }
    }

    /// The lanes with an issuable request in either stage, one bit per
    /// lane.
    #[inline]
    pub(crate) fn want_mask(&self) -> u32 {
        self.idx.lanes.want_mask() | self.elem_lanes.want_mask()
    }

    /// Returns `true` if `lane` has an issuable request in either stage.
    #[inline]
    pub fn port_wants(&self, lane: usize) -> bool {
        self.want_mask() >> lane & 1 == 1
    }

    /// Pops the next word request for `lane`, arbitrating between stages
    /// according to the configured policy.
    pub fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        let wants = [self.idx.wants(lane), self.elem_lanes.wants(lane)];
        let winner = match self.policy {
            StagePolicy::RoundRobin => self.stage_arb[lane].grant(&wants),
            StagePolicy::IndexPriority => wants.iter().position(|w| *w),
            StagePolicy::ElementPriority => wants.iter().rposition(|w| *w),
        };
        match winner {
            Some(0) => self.idx.pop_request(lane),
            Some(1) => self.elem_lanes.pop_request(lane),
            _ => None,
        }
    }

    /// Completes zero-strobe words locally; call once per cycle.
    pub fn drain_local_acks(&mut self) {
        if self.acks.is_empty() {
            return; // no write burst in flight, nothing to drain
        }
        for lane in 0..self.ports {
            while self.elem_lanes.take_local_ack(lane) {
                self.attribute_ack(lane, Resp::Okay);
            }
        }
    }

    fn attribute_ack(&mut self, lane: usize, resp: Resp) {
        let seq = self.refs[lane]
            .pop_front()
            .expect("write ack without planned job");
        let idx = (seq - self.seq_head) as usize;
        self.acks[idx].acked += 1;
        self.acks[idx].resp = self.acks[idx].resp.worst(resp);
        while let Some(front) = self.acks.front() {
            if front.data_done && front.acked == front.total_words {
                debug_assert_eq!(front.planned_words, front.total_words);
                self.b_ready.push_back((front.id, front.resp));
                self.acks.pop_front();
                self.seq_head += 1;
            } else {
                break;
            }
        }
    }

    /// Delivers a word response to the right stage; `ctl` bounds
    /// transient-fault retries. A retried or held element ack may release
    /// zero or several acks at once.
    pub fn deliver(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        match ConvId::from_tag(resp.tag) {
            ConvId::IndirWIdx => self.idx.deliver(resp, ctl),
            ConvId::IndirWElem => {
                debug_assert!(resp.is_write);
                let lane = resp.port;
                self.elem_lanes.deliver(resp, ctl);
                while self.elem_lanes.has_resp(lane) {
                    let r = self.elem_lanes.pop_resp(lane);
                    self.attribute_ack(lane, fault_resp(r.fault));
                }
            }
            other => panic!("indirect write converter got {other:?} response"),
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
        self.plan_q.is_empty()
            && self.acks.is_empty()
            && self.b_ready.is_empty()
            && self.w_buf.is_empty()
            && self.idx.idle()
            && self.elem_lanes.idle()
    }

    // simcheck: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_proto::{element_addresses, ElemSize};
    use banked_mem::{BankConfig, BankedMemory, Storage};

    fn cfg() -> CtrlConfig {
        CtrlConfig::new(BusConfig::new(256), BankConfig::default(), 4)
    }

    /// A storage image with recognizable element data and an index array.
    fn setup(indices: &[u32]) -> Storage {
        let mut s = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            s.write_u32(w * 4, 0x2000_0000 + w as u32);
        }
        s.write_u32_slice(0x8000, indices);
        s
    }

    fn run_read(
        conv: &mut IndirectReadConverter,
        mem: &mut BankedMemory,
        max_cycles: usize,
    ) -> (Vec<RBeat>, usize) {
        let mut ctl = RetryCtl::new(0);
        let mut beats = Vec::new();
        for cycle in 0..max_cycles {
            conv.tick();
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
        panic!("indirect read did not finish in {max_cycles} cycles");
    }

    #[test]
    fn gathers_through_memory_resident_indices() {
        let c = cfg();
        let idx: Vec<u32> = vec![0, 9, 1, 5, 1, 8, 2, 1, 40, 41, 100, 7, 3, 3, 3, 200];
        let mut conv = IndirectReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, setup(&idx));
        let ar = ArBeat::packed_indirect(4, 0x8000, 16, ElemSize::B4, IdxSize::B4, 0x0, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 500);
        assert_eq!(beats.len(), 2);
        assert!(beats[1].last);
        let idx64: Vec<u64> = idx.iter().map(|&i| i as u64).collect();
        let addrs = element_addresses(&ar, Some(&idx64), &c.bus);
        for (k, addr) in addrs.iter().enumerate() {
            let off = (k % 8) * 4;
            let got = u32::from_le_bytes(beats[k / 8].data[off..off + 4].try_into().unwrap());
            assert_eq!(got, 0x2000_0000 + (addr / 4) as u32, "element {k}");
        }
    }

    #[test]
    fn partial_tail_gathers_only_valid_elements() {
        let c = cfg();
        let idx: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let mut conv = IndirectReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, setup(&idx));
        let ar = ArBeat::packed_indirect(0, 0x8000, 11, ElemSize::B4, IdxSize::B4, 0x0, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 500);
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[1].payload_bytes, 3 * 4);
        assert!(beats[1].data[12..].iter().all(|b| *b == 0));
    }

    #[test]
    fn indices_wider_than_a_word_span_responses() {
        // Regression: 64-bit indices over 32-bit memory words used to
        // parse zero indices per word (`word_bytes / idx_bytes == 0`) and
        // wedge the burst forever. Found by `figures fuzz` seed 1.
        let c = cfg();
        let mut s = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            s.write_u32(w * 4, 0x4000_0000 + w as u32);
        }
        let idx64: Vec<u64> = vec![11, 0, 257, 3, 1000, 42];
        for (i, v) in idx64.iter().enumerate() {
            s.write(0x8000 + 8 * i as u64, &v.to_le_bytes());
        }
        let mut conv = IndirectReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, s);
        let ar = ArBeat::packed_indirect(2, 0x8000, 6, ElemSize::B4, IdxSize::B8, 0x0, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 500);
        assert_eq!(beats.len(), 1);
        let addrs = element_addresses(&ar, Some(&idx64), &c.bus);
        for (k, addr) in addrs.iter().enumerate() {
            let got = u32::from_le_bytes(beats[0].data[4 * k..4 * k + 4].try_into().unwrap());
            assert_eq!(got, 0x4000_0000 + (addr / 4) as u32, "element {k}");
        }
    }

    #[test]
    fn sixteen_bit_indices_parse_correctly() {
        let c = cfg();
        let mut s = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            s.write_u32(w * 4, 0x3000_0000 + w as u32);
        }
        // 8 16-bit indices packed into 4 words.
        let idx16: Vec<u16> = vec![7, 0, 513, 2, 2, 90, 1000, 42];
        for (i, v) in idx16.iter().enumerate() {
            s.write(0x8000 + 2 * i as u64, &v.to_le_bytes());
        }
        let mut conv = IndirectReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, s);
        let ar = ArBeat::packed_indirect(0, 0x8000, 8, ElemSize::B4, IdxSize::B2, 0x0, &c.bus);
        conv.accept(&ar);
        let (beats, _) = run_read(&mut conv, &mut mem, 500);
        assert_eq!(beats.len(), 1);
        for (k, &i) in idx16.iter().enumerate() {
            let got = u32::from_le_bytes(beats[0].data[k * 4..k * 4 + 4].try_into().unwrap());
            assert_eq!(got, 0x3000_0000 + i as u32);
        }
    }

    #[test]
    fn equal_sizes_limit_utilization_to_half() {
        // elem 32b / idx 32b, long burst: data beats cannot exceed ~50% of
        // cycles because every beat of data costs a line of indices.
        let c = cfg();
        let idx: Vec<u32> = (0..256u32).map(|i| (i * 37) % 1024).collect();
        let mut conv = IndirectReadConverter::new(&c, 2);
        let mut mem = BankedMemory::new(
            BankConfig {
                conflict_free: true,
                ..c.bank
            },
            setup(&idx),
        );
        let ar = ArBeat::packed_indirect(0, 0x8000, 256, ElemSize::B4, IdxSize::B4, 0x0, &c.bus);
        conv.accept(&ar);
        let (beats, cycles) = run_read(&mut conv, &mut mem, 2000);
        assert_eq!(beats.len(), 32);
        let util = beats.len() as f64 / cycles as f64;
        assert!(
            util <= 0.55,
            "r/(r+1) bound violated: util {util:.2} over {cycles} cycles"
        );
        assert!(util >= 0.35, "throughput collapsed: util {util:.2}");
    }

    fn run_write(
        conv: &mut IndirectWriteConverter,
        mem: &mut BankedMemory,
        w_beats: &mut VecDeque<WBeat>,
        max_cycles: usize,
    ) -> Vec<AxiId> {
        let mut ctl = RetryCtl::new(0);
        let mut bs = Vec::new();
        for _ in 0..max_cycles {
            conv.drain_local_acks();
            if conv.needs_w() {
                if let Some(w) = w_beats.pop_front() {
                    conv.push_w(w);
                }
            }
            conv.tick();
            for lane in 0..8 {
                if mem.port_free(lane) && conv.port_wants(lane) {
                    let req = conv.pop_request(lane).expect("wants implies request");
                    assert!(mem.try_issue(req));
                }
            }
            if let Some((id, _)) = conv.pop_b() {
                bs.push(id);
            }
            for resp in mem.end_cycle() {
                conv.deliver(resp, &mut ctl);
            }
            if conv.idle() && w_beats.is_empty() {
                return bs;
            }
        }
        panic!("indirect write did not finish in {max_cycles} cycles");
    }

    #[test]
    fn scatters_through_memory_resident_indices() {
        let c = cfg();
        let idx: Vec<u32> = vec![10, 20, 30, 40, 50, 60, 70, 80];
        let mut conv = IndirectWriteConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, setup(&idx));
        let aw = ArBeat::packed_indirect(6, 0x8000, 8, ElemSize::B4, IdxSize::B4, 0x0, &c.bus);
        conv.accept(&aw);
        let mut data = Vec::new();
        for e in 0..8u32 {
            data.extend_from_slice(&(0xCC00_0000 + e).to_le_bytes());
        }
        let mut w_beats = VecDeque::from([WBeat::full(data, true)]);
        let bs = run_write(&mut conv, &mut mem, &mut w_beats, 500);
        assert_eq!(bs, vec![AxiId(6)]);
        for (e, &i) in idx.iter().enumerate() {
            assert_eq!(
                mem.storage().read_u32(i as u64 * 4),
                0xCC00_0000 + e as u32,
                "element {e}"
            );
        }
    }

    #[test]
    fn write_tail_is_masked() {
        let c = cfg();
        let idx: Vec<u32> = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        let mut conv = IndirectWriteConverter::new(&c, 2);
        let mut mem = BankedMemory::new(c.bank, setup(&idx));
        // Only 9 valid elements of the 16 the two beats could carry.
        let aw = ArBeat::packed_indirect(0, 0x8000, 9, ElemSize::B4, IdxSize::B4, 0x0, &c.bus);
        conv.accept(&aw);
        let mk = |b: u32, last| {
            let mut data = Vec::new();
            for e in 0..8u32 {
                data.extend_from_slice(&(0xDD00_0000 + b * 8 + e).to_le_bytes());
            }
            WBeat::full(data, last)
        };
        let mut w_beats = VecDeque::from([mk(0, false), mk(1, true)]);
        run_write(&mut conv, &mut mem, &mut w_beats, 500);
        for (e, &i) in idx.iter().take(9).enumerate() {
            assert_eq!(mem.storage().read_u32(i as u64 * 4), 0xDD00_0000 + e as u32);
        }
        // Index 100 (the 10th) must be untouched.
        assert_eq!(mem.storage().read_u32(100 * 4), 0x2000_0000 + 100);
    }
}
