//! Per-port lane machinery shared by all converters.
//!
//! Every converter moves data through *n* word lanes. Each lane owns
//!
//! * an **address queue** — word requests planned but not yet issued
//!   (filled when a burst is accepted, drained as the memory port grants);
//! * a **decoupling queue** — word responses waiting to be packed;
//! * a **request regulator** ([`simkit::Credit`]) bounding in-flight words
//!   per lane to the decoupling-queue depth, so responses can never
//!   overflow.
//!
//! The lane layer is also where **transient-fault recovery** lives: a word
//! response carrying [`banked_mem::WordFault::Slave`] is re-issued to the
//! front of its lane's address queue (spending one unit of the adapter-wide
//! [`RetryCtl`] budget), and later-issued responses that arrive before the
//! retried word are *held* so the decoupling queue keeps its planned word
//! order. Decode faults are never retried — the address cannot become valid.

use std::collections::VecDeque;

use axi_proto::{Addr, Resp};
use banked_mem::{WordBuf, WordFault, WordOp, WordReq, WordResp};
use simkit::Credit;

/// Maps a word-level fault tag onto the AXI response it produces on the
/// bus: a bank error is a slave error, an out-of-window address a decode
/// error.
#[inline]
pub fn fault_resp(fault: Option<WordFault>) -> Resp {
    match fault {
        None => Resp::Okay,
        Some(WordFault::Slave) => Resp::Slverr,
        Some(WordFault::Decode) => Resp::Decerr,
    }
}

/// The adapter-wide transient-retry budget, shared by every converter lane.
///
/// Each re-issue of a slave-faulted word spends one unit. When the budget
/// is exhausted, further faults are accepted as errors and surface on the
/// bus as SLVERR beats — the recovery doctrine is *bounded*, so a
/// persistently failing bank cannot spin the controller forever.
#[derive(Debug)]
pub struct RetryCtl {
    budget: u32,
    spent: u64,
    /// First faulted word response that recovery could not absorb
    /// (word address, is-write, fault kind) — the forensic anchor for the
    /// requestor's typed abort report.
    first_surfaced: Option<(u64, bool, WordFault)>,
}

impl RetryCtl {
    /// Creates a budget of `budget` retries (0 disables recovery).
    pub fn new(budget: u32) -> Self {
        RetryCtl {
            budget,
            spent: 0,
            first_surfaced: None,
        }
    }

    /// Spends one retry if the budget allows, returning whether it did.
    #[inline]
    pub fn try_spend(&mut self) -> bool {
        if self.spent < self.budget as u64 {
            self.spent += 1;
            true
        } else {
            false
        }
    }

    /// Retries spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The configured budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// The first fault that surfaced past recovery, if any:
    /// `(word_addr, is_write, fault)`.
    pub fn first_surfaced(&self) -> Option<(u64, bool, WordFault)> {
        self.first_surfaced
    }

    /// Records a faulted response that is being accepted as an error.
    fn note_surfaced(&mut self, resp: &WordResp) {
        if self.first_surfaced.is_none() {
            if let Some(fault) = resp.fault {
                self.first_surfaced = Some((resp.word_addr, resp.is_write, fault));
            }
        }
    }
}

/// Per-lane recovery state while a retried word is outstanding.
#[derive(Debug)]
struct RetryLane {
    /// Responses still in flight that were issued *before* the retry and
    /// therefore arrive ahead of the retried word's response.
    displace_left: u32,
    /// Displaced responses parked until the retried word's response
    /// arrives, preserving planned word order in the decoupling queue.
    held: VecDeque<WordResp>,
}

/// Identifies which converter (and internal stage) a word request belongs
/// to, so the adapter can route responses back. Encoded into the low bits of
/// [`banked_mem::WordReq::tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvId {
    /// Base AXI4 converter.
    Base,
    /// Strided read converter.
    StridedR,
    /// Strided write converter.
    StridedW,
    /// Indirect read converter, index stage.
    IndirRIdx,
    /// Indirect read converter, element stage.
    IndirRElem,
    /// Indirect write converter, index stage.
    IndirWIdx,
    /// Indirect write converter, element stage.
    IndirWElem,
}

impl ConvId {
    /// Encodes into a request tag.
    pub fn tag(self) -> u64 {
        match self {
            ConvId::Base => 0,
            ConvId::StridedR => 1,
            ConvId::StridedW => 2,
            ConvId::IndirRIdx => 3,
            ConvId::IndirRElem => 4,
            ConvId::IndirWIdx => 5,
            ConvId::IndirWElem => 6,
        }
    }

    /// Decodes from a response tag.
    pub fn from_tag(tag: u64) -> ConvId {
        match tag & 0x7 {
            0 => ConvId::Base,
            1 => ConvId::StridedR,
            2 => ConvId::StridedW,
            3 => ConvId::IndirRIdx,
            4 => ConvId::IndirRElem,
            5 => ConvId::IndirWIdx,
            6 => ConvId::IndirWElem,
            _ => unreachable!("3-bit converter tag"),
        }
    }
}

/// One planned word access waiting in a lane's address queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneJob {
    /// Read one word.
    Read {
        /// Word-aligned address.
        addr: Addr,
    },
    /// Write one word under a byte strobe.
    Write {
        /// Word-aligned address.
        addr: Addr,
        /// Word data (inline, word-width).
        data: WordBuf,
        /// Byte-enable mask; all-zero jobs are completed without a memory
        /// access.
        strb: u32,
    },
    /// Placeholder for a write lane whose data has not arrived yet (the
    /// address is planned at AW time, the data at W time).
    AwaitData {
        /// Word-aligned address.
        addr: Addr,
    },
}

/// The mask of lanes `0..n` (`n` up to 32).
#[inline]
fn lanes_below(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1 << n) - 1
    }
}

/// The per-port lane state of one converter (or converter stage).
///
/// Two masks, one bit per lane, answer the adapter's per-cycle questions
/// without a scan: `want_mask` holds the lanes with an issuable job and a
/// free credit, `resp_mask` the lanes with a response waiting. Each is
/// refreshed where its inputs change — a lane's front job, its credits or
/// its response queue — and checked against the scan in debug builds.
#[derive(Debug)]
pub struct LaneSet {
    /// Planned word accesses, per lane, in issue order.
    jobs: Vec<VecDeque<LaneJob>>,
    /// Word responses waiting to be packed, per lane, in order.
    resp: Vec<VecDeque<WordResp>>,
    /// Request regulators, per lane.
    credits: Vec<Credit>,
    /// Issued requests whose responses have not yet been delivered, per
    /// lane (unlike `credits`, excludes responses parked in queues).
    awaiting: Vec<u32>,
    /// Transient-fault recovery state, per lane (`None` on the fault-free
    /// path).
    retry: Vec<Option<RetryLane>>,
    /// Planned jobs across all lanes, maintained incrementally so the
    /// adapter's per-cycle activity gating is O(1).
    total_jobs: usize,
    /// Credits taken across all lanes and not yet returned — words in
    /// flight, held for retry order, or parked in a decoupling queue — so
    /// [`LaneSet::idle`] is O(1) too.
    credits_out: usize,
    /// Lanes whose front job is issuable and that hold a free credit.
    want_mask: u32,
    /// Lanes with a response in their decoupling queue.
    resp_mask: u32,
    /// Tag all requests carry.
    id: ConvId,
    word_bytes: usize,
}

impl LaneSet {
    /// Creates `ports` lanes with decoupling queues of `depth` words.
    pub fn new(ports: usize, depth: usize, id: ConvId, word_bytes: usize) -> Self {
        LaneSet {
            jobs: (0..ports).map(|_| VecDeque::new()).collect(),
            resp: (0..ports).map(|_| VecDeque::new()).collect(),
            credits: (0..ports).map(|_| Credit::new(depth)).collect(),
            awaiting: vec![0; ports],
            retry: (0..ports).map(|_| None).collect(),
            total_jobs: 0,
            credits_out: 0,
            want_mask: 0,
            resp_mask: 0,
            id,
            word_bytes,
        }
    }

    /// Number of lanes.
    pub fn ports(&self) -> usize {
        self.jobs.len()
    }

    // simcheck: hot-path begin -- per-word job queuing, credit-regulated
    // issue and response delivery; every converter funnels its word traffic
    // through these methods each cycle.

    /// Queues a job on `lane`.
    #[inline]
    pub fn push_job(&mut self, lane: usize, job: LaneJob) {
        self.jobs[lane].push_back(job);
        self.total_jobs += 1;
        if self.jobs[lane].len() == 1 {
            self.refresh_want(lane);
        }
    }

    /// Returns `true` if `lane` has an issuable job and a free credit.
    ///
    /// Jobs still awaiting write data are not issuable, and neither are
    /// zero-strobe writes (drain those with [`LaneSet::take_local_ack`]).
    #[inline]
    pub fn wants(&self, lane: usize) -> bool {
        let wants = self.want_mask >> lane & 1 == 1;
        debug_assert_eq!(wants, self.scan_wants(lane), "lane {lane} want bit stale");
        wants
    }

    /// The lanes [`LaneSet::wants`] holds for, one bit per lane.
    #[inline]
    pub(crate) fn want_mask(&self) -> u32 {
        debug_assert_eq!(
            self.want_mask,
            (0..self.ports()).fold(0, |m, l| m | u32::from(self.scan_wants(l)) << l),
            "want mask out of step with the lanes"
        );
        self.want_mask
    }

    /// The lanes with a response waiting, one bit per lane.
    #[inline]
    pub(crate) fn resp_mask(&self) -> u32 {
        debug_assert_eq!(
            self.resp_mask,
            (0..self.ports()).fold(0, |m, l| m | u32::from(!self.resp[l].is_empty()) << l),
            "response mask out of step with the queues"
        );
        self.resp_mask
    }

    /// The issuability of `lane` read from its front job and credits.
    #[inline]
    fn scan_wants(&self, lane: usize) -> bool {
        match self.jobs[lane].front() {
            None | Some(LaneJob::AwaitData { .. }) | Some(LaneJob::Write { strb: 0, .. }) => false,
            Some(_) => self.credits[lane].has_credit(),
        }
    }

    /// Re-reads `lane`'s want bit after its front job or credits changed.
    #[inline]
    fn refresh_want(&mut self, lane: usize) {
        let bit = 1 << lane;
        if self.scan_wants(lane) {
            self.want_mask |= bit;
        } else {
            self.want_mask &= !bit;
        }
    }

    /// Queues a response on `lane`'s decoupling queue.
    #[inline]
    fn push_resp(&mut self, lane: usize, resp: WordResp) {
        self.resp[lane].push_back(resp);
        self.resp_mask |= 1 << lane;
    }

    /// Pops one zero-strobe write job from the front of `lane`, if present.
    ///
    /// Zero-strobe writes (fully masked tail words) complete locally without
    /// a memory access; converters drain them before issuing and record the
    /// ack themselves. Returns `true` if a job was consumed.
    pub fn take_local_ack(&mut self, lane: usize) -> bool {
        if let Some(LaneJob::Write { strb: 0, .. }) = self.jobs[lane].front() {
            self.jobs[lane].pop_front();
            self.total_jobs -= 1;
            self.refresh_want(lane);
            true
        } else {
            false
        }
    }

    /// Pops the next issuable job on `lane` as a memory request, consuming
    /// a credit. Returns `None` if nothing is issuable.
    ///
    /// # Panics
    ///
    /// Panics if the front job is a zero-strobe write — converters must
    /// drain those via [`LaneSet::take_local_ack`] first.
    pub fn pop_request(&mut self, lane: usize) -> Option<WordReq> {
        if !self.wants(lane) {
            return None;
        }
        assert!(
            !matches!(
                self.jobs[lane].front(),
                Some(LaneJob::Write { strb: 0, .. })
            ),
            "zero-strobe writes must be drained with take_local_ack"
        );
        assert!(self.credits[lane].take(), "wants() guaranteed a credit");
        self.credits_out += 1;
        let job = self.jobs[lane].pop_front().expect("wants() checked front");
        self.total_jobs -= 1;
        self.refresh_want(lane);
        self.awaiting[lane] += 1;
        let (addr, op) = match job {
            LaneJob::Read { addr } => (addr, WordOp::Read),
            LaneJob::Write { addr, data, strb } => (addr, WordOp::Write { data, strb }),
            LaneJob::AwaitData { .. } => unreachable!("wants() excludes AwaitData"),
        };
        Some(WordReq {
            port: lane,
            word_addr: addr,
            op,
            tag: self.id.tag(),
        })
    }

    /// Delivers a word response into the lane's decoupling queue,
    /// transparently re-issuing slave-faulted words while `ctl` has budget.
    ///
    /// On the fault-free path this is a single branch on top of the queue
    /// push; all recovery work lives in the cold `deliver_faulted` path.
    #[inline]
    pub fn deliver(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        self.awaiting[resp.port] -= 1;
        if self.retry[resp.port].is_none() && resp.fault.is_none() {
            self.push_resp(resp.port, resp);
            return;
        }
        self.deliver_faulted(resp, ctl);
    }

    /// Returns `true` if every lane in `lanes` has a response available.
    #[inline]
    pub fn all_have_resp(&self, lanes: std::ops::Range<usize>) -> bool {
        let m = lanes_below(lanes.end) & !lanes_below(lanes.start);
        self.resp_mask() & m == m
    }

    /// Returns `true` if `lane` has a response available.
    #[inline]
    pub fn has_resp(&self, lane: usize) -> bool {
        let has = self.resp_mask >> lane & 1 == 1;
        debug_assert_eq!(
            has,
            !self.resp[lane].is_empty(),
            "lane {lane} response bit stale"
        );
        has
    }

    /// Pops the oldest response on `lane`, returning its credit.
    ///
    /// # Panics
    ///
    /// Panics if the lane has no response.
    pub fn pop_resp(&mut self, lane: usize) -> WordResp {
        let r = self.resp[lane].pop_front().expect("pop_resp on empty lane");
        if self.resp[lane].is_empty() {
            self.resp_mask &= !(1 << lane);
        }
        self.credits[lane].put();
        self.credits_out -= 1;
        self.refresh_want(lane);
        r
    }

    /// Fills the oldest `AwaitData` job on `lane` with write data.
    ///
    /// # Panics
    ///
    /// Panics if the lane's oldest unfilled job is not `AwaitData` — write
    /// data must arrive in beat order (AXI W channel property).
    pub fn fill_data(&mut self, lane: usize, data: &[u8], strb: u32) {
        assert_eq!(data.len(), self.word_bytes, "word-sized write data");
        let job = self.jobs[lane]
            .iter_mut()
            .find(|j| matches!(j, LaneJob::AwaitData { .. }))
            .expect("fill_data without a pending AwaitData job");
        let LaneJob::AwaitData { addr } = *job else {
            unreachable!()
        };
        *job = LaneJob::Write {
            addr,
            data: WordBuf::from_slice(data),
            strb,
        };
        self.refresh_want(lane);
    }

    /// Returns `true` when no jobs, responses, or in-flight words remain.
    ///
    /// Every response and retry state holds a credit until it drains, so
    /// the two counters cover them.
    #[inline]
    pub fn idle(&self) -> bool {
        debug_assert_eq!(
            self.total_jobs == 0 && self.credits_out == 0,
            self.jobs.iter().all(VecDeque::is_empty)
                && self.resp.iter().all(VecDeque::is_empty)
                && self.credits.iter().all(|c| c.in_flight() == 0)
                && self.retry.iter().all(Option::is_none),
            "lane busy counts out of step with the lanes"
        );
        self.total_jobs == 0 && self.credits_out == 0
    }

    /// Total planned jobs across lanes (for back-pressure and activity
    /// decisions); O(1), maintained incrementally.
    #[inline]
    pub fn queued_jobs(&self) -> usize {
        self.total_jobs
    }

    // simcheck: hot-path end

    /// The recovery path of [`LaneSet::deliver`]: runs only when a fault
    /// plan is injecting errors, so it may allocate and branch freely.
    ///
    /// Ordering invariant: per-port responses arrive in issue order, and a
    /// retried word is re-issued at the *front* of its lane's address
    /// queue, so exactly `displace_left` (= requests in flight at re-issue
    /// time) responses arrive before the retried word's. Those are parked
    /// in `held` and drained behind the retried word, restoring planned
    /// word order. Held responses that are themselves slave-faulted start
    /// their own retry round from the drain loop, so recovery nests.
    #[cold]
    fn deliver_faulted(&mut self, resp: WordResp, ctl: &mut RetryCtl) {
        let lane = resp.port;
        if let Some(rt) = self.retry[lane].as_mut() {
            if rt.displace_left > 0 {
                rt.displace_left -= 1;
                rt.held.push_back(resp);
                return;
            }
            // The retried word's own response.
            if resp.fault == Some(WordFault::Slave) && ctl.try_spend() {
                self.reissue(lane, &resp);
                return;
            }
            ctl.note_surfaced(&resp);
            self.push_resp(lane, resp);
            self.settle(lane, ctl);
            return;
        }
        // First fault on an unencumbered lane.
        if resp.fault == Some(WordFault::Slave) && ctl.try_spend() {
            self.retry[lane] = Some(RetryLane {
                displace_left: 0,
                held: VecDeque::new(),
            });
            self.reissue(lane, &resp);
            return;
        }
        // Decode faults and budget-exhausted slave faults are accepted as
        // errors; the fault tag rides the response into the beat packers.
        ctl.note_surfaced(&resp);
        self.push_resp(lane, resp);
    }

    /// Re-queues the faulted word at the front of `lane`'s address queue,
    /// returning its credit (the re-issue takes a fresh one) and arming the
    /// displacement counter.
    fn reissue(&mut self, lane: usize, resp: &WordResp) {
        self.credits[lane].put();
        self.credits_out -= 1;
        let job = if resp.is_write {
            LaneJob::Write {
                addr: resp.word_addr,
                data: resp.data,
                strb: resp.strb,
            }
        } else {
            LaneJob::Read {
                addr: resp.word_addr,
            }
        };
        self.jobs[lane].push_front(job);
        self.total_jobs += 1;
        self.refresh_want(lane);
        let rt = self.retry[lane].as_mut().expect("retry state armed");
        rt.displace_left = self.awaiting[lane];
    }

    /// Drains held responses behind a just-accepted retried word. A held
    /// response that is itself slave-faulted (and in budget) starts a new
    /// retry round with the remaining held responses kept parked behind it.
    fn settle(&mut self, lane: usize, ctl: &mut RetryCtl) {
        loop {
            let rt = self.retry[lane].as_mut().expect("settle with retry state");
            match rt.held.pop_front() {
                None => {
                    self.retry[lane] = None;
                    return;
                }
                Some(r) if r.fault == Some(WordFault::Slave) && ctl.try_spend() => {
                    self.reissue(lane, &r);
                    return;
                }
                Some(r) => {
                    ctl.note_surfaced(&r);
                    self.push_resp(lane, r);
                }
            }
        }
    }

    /// Memory word width in bytes.
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(port: usize, tag: u64) -> WordResp {
        WordResp {
            port,
            word_addr: 0,
            data: WordBuf::zeroed(4),
            is_write: false,
            tag,
            fault: None,
            strb: 0,
        }
    }

    fn faulted(port: usize, tag: u64, addr: u64) -> WordResp {
        WordResp {
            word_addr: addr,
            fault: Some(WordFault::Slave),
            ..resp(port, tag)
        }
    }

    #[test]
    fn conv_id_tag_roundtrip() {
        for id in [
            ConvId::Base,
            ConvId::StridedR,
            ConvId::StridedW,
            ConvId::IndirRIdx,
            ConvId::IndirRElem,
            ConvId::IndirWIdx,
            ConvId::IndirWElem,
        ] {
            assert_eq!(ConvId::from_tag(id.tag()), id);
        }
    }

    #[test]
    fn regulator_bounds_in_flight_words() {
        let mut lanes = LaneSet::new(2, 2, ConvId::StridedR, 4);
        lanes.push_job(0, LaneJob::Read { addr: 0 });
        lanes.push_job(0, LaneJob::Read { addr: 4 });
        lanes.push_job(0, LaneJob::Read { addr: 8 });
        assert!(lanes.pop_request(0).is_some());
        assert!(lanes.pop_request(0).is_some());
        // Third request blocked: both credits in flight.
        assert!(!lanes.wants(0));
        assert_eq!(lanes.pop_request(0), None);
        // A response returns a credit.
        lanes.deliver(resp(0, ConvId::StridedR.tag()), &mut RetryCtl::new(0));
        lanes.pop_resp(0);
        assert!(lanes.wants(0));
    }

    #[test]
    fn zero_strobe_write_completes_locally() {
        let mut lanes = LaneSet::new(1, 1, ConvId::StridedW, 4);
        lanes.push_job(
            0,
            LaneJob::Write {
                addr: 0,
                data: WordBuf::zeroed(4),
                strb: 0,
            },
        );
        assert!(!lanes.wants(0));
        assert!(lanes.take_local_ack(0));
        assert!(!lanes.take_local_ack(0));
        assert!(lanes.idle());
    }

    #[test]
    fn await_data_blocks_until_filled() {
        let mut lanes = LaneSet::new(1, 4, ConvId::StridedW, 4);
        lanes.push_job(0, LaneJob::AwaitData { addr: 0x10 });
        assert!(!lanes.wants(0));
        lanes.fill_data(0, &[1, 2, 3, 4], 0xf);
        assert!(lanes.wants(0));
        let req = lanes.pop_request(0).expect("issuable");
        assert_eq!(req.word_addr, 0x10);
        assert!(matches!(req.op, WordOp::Write { .. }));
    }

    #[test]
    fn idle_accounts_for_in_flight_credits() {
        let mut lanes = LaneSet::new(1, 4, ConvId::Base, 4);
        lanes.push_job(0, LaneJob::Read { addr: 0 });
        let _ = lanes.pop_request(0);
        assert!(!lanes.idle()); // word still in flight
        lanes.deliver(resp(0, 0), &mut RetryCtl::new(0));
        assert!(!lanes.idle()); // response not yet drained
        lanes.pop_resp(0);
        assert!(lanes.idle());
    }

    #[test]
    fn slave_fault_is_reissued_within_budget() {
        let mut ctl = RetryCtl::new(4);
        let mut lanes = LaneSet::new(1, 4, ConvId::StridedR, 4);
        lanes.push_job(0, LaneJob::Read { addr: 0x40 });
        let req = lanes.pop_request(0).expect("issuable");
        assert_eq!(req.word_addr, 0x40);
        // The memory faults the word: the lane re-queues it silently.
        lanes.deliver(faulted(0, ConvId::StridedR.tag(), 0x40), &mut ctl);
        assert!(!lanes.has_resp(0), "faulted word must not surface");
        assert_eq!(ctl.spent(), 1);
        let retry = lanes.pop_request(0).expect("retry re-issued");
        assert_eq!(retry.word_addr, 0x40);
        // The retry succeeds and surfaces clean.
        lanes.deliver(resp(0, ConvId::StridedR.tag()), &mut ctl);
        let r = lanes.pop_resp(0);
        assert_eq!(r.fault, None);
        assert!(lanes.idle());
    }

    #[test]
    fn exhausted_budget_surfaces_the_fault() {
        let mut ctl = RetryCtl::new(0);
        let mut lanes = LaneSet::new(1, 4, ConvId::Base, 4);
        lanes.push_job(0, LaneJob::Read { addr: 0x10 });
        let _ = lanes.pop_request(0);
        lanes.deliver(faulted(0, 0, 0x10), &mut ctl);
        let r = lanes.pop_resp(0);
        assert_eq!(r.fault, Some(WordFault::Slave));
        assert!(lanes.idle());
    }

    #[test]
    fn displaced_responses_keep_planned_order() {
        // Three reads in flight on one lane; the first faults. The second
        // and third responses arrive before the retried first and must be
        // held, so the decoupling queue still pops in planned order.
        let mut ctl = RetryCtl::new(4);
        let mut lanes = LaneSet::new(1, 4, ConvId::Base, 4);
        for addr in [0x10u64, 0x20, 0x30] {
            lanes.push_job(0, LaneJob::Read { addr });
        }
        for _ in 0..3 {
            lanes.pop_request(0).expect("issuable");
        }
        lanes.deliver(faulted(0, 0, 0x10), &mut ctl);
        let retry = lanes.pop_request(0).expect("retry re-issued");
        assert_eq!(retry.word_addr, 0x10);
        // Responses for 0x20 and 0x30 land before the retried 0x10.
        lanes.deliver(
            WordResp {
                word_addr: 0x20,
                ..resp(0, 0)
            },
            &mut ctl,
        );
        lanes.deliver(
            WordResp {
                word_addr: 0x30,
                ..resp(0, 0)
            },
            &mut ctl,
        );
        assert!(!lanes.has_resp(0), "displaced responses stay held");
        lanes.deliver(
            WordResp {
                word_addr: 0x10,
                ..resp(0, 0)
            },
            &mut ctl,
        );
        let order: Vec<u64> = (0..3).map(|_| lanes.pop_resp(0).word_addr).collect();
        assert_eq!(order, vec![0x10, 0x20, 0x30]);
        assert!(lanes.idle());
    }

    #[test]
    fn faulted_write_retries_verbatim() {
        let mut ctl = RetryCtl::new(4);
        let mut lanes = LaneSet::new(1, 4, ConvId::StridedW, 4);
        lanes.push_job(
            0,
            LaneJob::Write {
                addr: 0x8,
                data: WordBuf::from_slice(&[1, 2, 3, 4]),
                strb: 0b0101,
            },
        );
        let _ = lanes.pop_request(0);
        lanes.deliver(
            WordResp {
                word_addr: 0x8,
                data: WordBuf::from_slice(&[1, 2, 3, 4]),
                is_write: true,
                strb: 0b0101,
                fault: Some(WordFault::Slave),
                ..resp(0, ConvId::StridedW.tag())
            },
            &mut ctl,
        );
        let retry = lanes.pop_request(0).expect("write retry re-issued");
        assert_eq!(retry.word_addr, 0x8);
        match retry.op {
            WordOp::Write { data, strb } => {
                assert_eq!(&data[..4], &[1, 2, 3, 4]);
                assert_eq!(strb, 0b0101);
            }
            WordOp::Read => panic!("write retried as read"),
        }
    }

    #[test]
    #[should_panic(expected = "fill_data without a pending AwaitData")]
    fn fill_without_await_panics() {
        let mut lanes = LaneSet::new(1, 4, ConvId::StridedW, 4);
        lanes.fill_data(0, &[0; 4], 0);
    }

    /// Both masks recomputed from the lanes' front jobs, credits and
    /// response queues.
    fn scanned_masks(lanes: &LaneSet) -> (u32, u32) {
        let mut want = 0;
        let mut resp = 0;
        for l in 0..lanes.ports() {
            let issuable = matches!(
                lanes.jobs[l].front(),
                Some(LaneJob::Read { .. }) | Some(LaneJob::Write { strb: 1.., .. })
            );
            if issuable && lanes.credits[l].has_credit() {
                want |= 1 << l;
            }
            if !lanes.resp[l].is_empty() {
                resp |= 1 << l;
            }
        }
        (want, resp)
    }

    #[test]
    fn masks_track_every_lane_operation() {
        // A random walk over every operation that moves a front job, a
        // credit or a response queue, with a model of each lane's
        // in-flight requests so responses return in issue order.
        for seed in 0..8u64 {
            let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let mut draw = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let ports = 4;
            let mut lanes = LaneSet::new(ports, 2, ConvId::Base, 4);
            let mut ctl = RetryCtl::new(6);
            let mut in_flight: Vec<VecDeque<WordReq>> = vec![VecDeque::new(); ports];
            for step in 0..4000 {
                let lane = (draw() % ports as u64) as usize;
                let addr = (draw() % 256) * 4;
                let op = draw() % 12;
                match op {
                    0 => lanes.push_job(lane, LaneJob::Read { addr }),
                    1 => lanes.push_job(
                        lane,
                        LaneJob::Write {
                            addr,
                            data: WordBuf::from_slice(&[7; 4]),
                            strb: 1 + (draw() % 15) as u32,
                        },
                    ),
                    2 => lanes.push_job(lane, LaneJob::AwaitData { addr }),
                    3 => lanes.push_job(
                        lane,
                        LaneJob::Write {
                            addr,
                            data: WordBuf::zeroed(4),
                            strb: 0,
                        },
                    ),
                    4 => {
                        let awaiting = lanes.jobs[lane]
                            .iter()
                            .any(|j| matches!(j, LaneJob::AwaitData { .. }));
                        if awaiting {
                            lanes.fill_data(lane, &[3; 4], (draw() % 16) as u32);
                        }
                    }
                    5 => {
                        lanes.take_local_ack(lane);
                    }
                    6 | 7 => {
                        if let Some(req) = lanes.pop_request(lane) {
                            in_flight[lane].push_back(req);
                        }
                    }
                    8 | 9 => {
                        if let Some(req) = in_flight[lane].pop_front() {
                            let fault = match draw() % 4 {
                                0 => Some(WordFault::Slave),
                                1 if draw() % 4 == 0 => Some(WordFault::Decode),
                                _ => None,
                            };
                            let (data, strb, is_write) = match req.op {
                                WordOp::Read => (WordBuf::zeroed(4), 0, false),
                                WordOp::Write { data, strb } => (data, strb, true),
                            };
                            let resp = WordResp {
                                port: lane,
                                word_addr: req.word_addr,
                                data,
                                is_write,
                                tag: req.tag,
                                fault,
                                strb,
                            };
                            lanes.deliver(resp, &mut ctl);
                        }
                    }
                    _ => {
                        if lanes.has_resp(lane) {
                            lanes.pop_resp(lane);
                        }
                    }
                }
                assert_eq!(
                    (lanes.want_mask, lanes.resp_mask),
                    scanned_masks(&lanes),
                    "seed {seed} step {step}: masks stale after op {op} on lane {lane}"
                );
            }
            assert_eq!(
                ctl.spent(),
                6,
                "seed {seed}: the walk must exhaust the budget"
            );
        }
    }
}
