//! The execution engine: frontend, chained lanes, and the decoupled VLSU.
//!
//! # Execution model
//!
//! *Eager-functional, timed-structural.* When the frontend issues an
//! instruction it immediately applies the architectural effect (register
//! file and backing store) in program order, so results are always
//! correct. Timing is tracked separately: every in-flight instruction has
//! a *produced* counter advanced by the lanes (compute) or by arriving bus
//! beats (loads); a dependent instruction may consume element *k* only
//! once its producer has produced it — Ara's chaining.
//!
//! # VLSU ordering
//!
//! Loads may overlap loads (bounded by `max_outstanding_loads`), but loads
//! and stores never reorder around each other: a store waits until all
//! older loads drained, and a load waits until the older store completed.
//! This is the conservative read-write ordering that caps the R-bus
//! utilization of the in-place transpose at 50 % in the paper.
//!
//! # Data verification
//!
//! Each load snapshots its expected payload at issue; when the timed beats
//! arrive, mismatches are *counted* (not asserted): a mismatch is expected
//! when a younger store writes the loaded region before the timed fetch
//! drains (e.g. the in-place transpose), and must be zero for read-only
//! kernels — integration tests assert exactly that.

use std::collections::VecDeque;
use std::sync::Arc;

use axi_proto::{Addr, ArBeat, AxiChannels, BeatBuf, BusConfig, ElemSize, IdxSize, Resp, WBeat};
use banked_mem::Storage;
use simkit::sched::Wake;
use simkit::Utilization;

use crate::config::{SystemKind, VprocConfig};
use crate::isa::{Program, VInsn, VReg};
use crate::regfile::RegFile;

/// Aggregate statistics of one engine run.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Total cycles ticked.
    pub cycles: u64,
    /// R-channel utilization including index traffic.
    pub r_util: Utilization,
    /// R-channel utilization with index-load beats counted as idle.
    pub r_util_data: Utilization,
    /// Cycles this engine had an AR request ready but the channel was
    /// full — bus back-pressure, the per-engine signal that makes
    /// shared-bus contention attributable to a specific requestor.
    pub ar_stall_cycles: u64,
    /// Cycles a W beat was data-ready but the channel was full.
    pub w_stall_cycles: u64,
    /// W beats pushed.
    pub w_beats: u64,
    /// W payload bytes pushed.
    pub w_payload: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Floating-point operations performed (MACs count 2).
    pub flops: u64,
    /// Lane-element operations (compute activity proxy for energy).
    pub lane_elems: u64,
    /// Elements moved by loads.
    pub load_elems: u64,
    /// Elements moved by stores.
    pub store_elems: u64,
    /// R beats whose payload differed from the issue-time snapshot.
    pub data_mismatches: u64,
    /// Cycles the frontend was stalled on scalar work.
    pub scalar_stall_cycles: u64,
}

impl EngineStats {
    fn new(bus_bytes: usize) -> Self {
        EngineStats {
            cycles: 0,
            r_util: Utilization::new(bus_bytes),
            r_util_data: Utilization::new(bus_bytes),
            ar_stall_cycles: 0,
            w_stall_cycles: 0,
            w_beats: 0,
            w_payload: 0,
            issued: 0,
            flops: 0,
            lane_elems: 0,
            load_elems: 0,
            store_elems: 0,
            data_mismatches: 0,
            scalar_stall_cycles: 0,
        }
    }
}

/// The first error response this engine observed on the bus.
///
/// An errored beat means the data the requestor consumed is suspect, so
/// the run harness aborts the requestor with a typed fault report once the
/// bus drains; the engine itself keeps accounting beats normally so the
/// drain always completes (errors must never wedge the pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusFault {
    /// AXI transaction id that carried the error (widened so multi-level
    /// fabrics can fold their manager prefixes in when reporting).
    pub axi_id: u16,
    /// `true` when the error arrived on the B (write response) channel.
    pub is_write: bool,
    /// Response class name, `"SLVERR"` or `"DECERR"`.
    pub resp: &'static str,
}

/// Timing class of an in-flight instruction.
#[derive(Debug)]
enum Class {
    Compute {
        srcs: Vec<u64>,
        flops_per_elem: u64,
    },
    Reduction {
        src: u64,
        consumed: usize,
        tail: u32,
    },
    Load,
    Store {
        done: bool,
    },
}

#[derive(Debug)]
struct InFlight {
    uid: u64,
    vl: usize,
    produced: usize,
    class: Class,
}

impl InFlight {
    fn complete(&self) -> bool {
        match &self.class {
            Class::Compute { .. } | Class::Load => self.produced >= self.vl,
            Class::Reduction { consumed, tail, .. } => *consumed >= self.vl && *tail == 0,
            Class::Store { done } => *done,
        }
    }
}

/// One load's bus activity.
#[derive(Debug)]
struct LoadRun {
    uid: u64,
    axi_id: u8,
    /// Requests not yet pushed to AR.
    reqs: VecDeque<ArBeat>,
    /// Valid elements carried by each expected R beat, in order.
    beat_elems: VecDeque<usize>,
    /// Byte lane each expected beat's payload starts at (narrow beats).
    lane_offs: VecDeque<usize>,
    /// Issue-time snapshot of the expected payload (vl × 4 bytes).
    expected: Vec<u8>,
    received_elems: usize,
    total_elems: usize,
    is_index: bool,
}

/// One store's bus activity.
#[derive(Debug)]
struct StoreRun {
    uid: u64,
    axi_id: u8,
    /// Producer gating W beats (chained stores), if still in flight.
    src_uid: Option<u64>,
    aws: VecDeque<ArBeat>,
    /// W beats with the cumulative source elements each needs.
    ws: VecDeque<(WBeat, usize)>,
    /// W beats permitted by already-sent AWs.
    unlocked_w: u32,
    b_expected: u32,
    b_received: u32,
}

/// One memory operation on the IDEAL per-lane-port back-end.
#[derive(Debug)]
struct IdealRun {
    uid: u64,
    src_uid: Option<u64>,
    transferred: usize,
    total: usize,
    latency_left: u32,
    is_store: bool,
    is_index: bool,
}

#[derive(Debug)]
enum MemRun {
    Load(LoadRun),
    Store(StoreRun),
    Ideal(IdealRun),
}

/// The vector processor engine.
///
/// Drive it with [`Engine::tick`] once per cycle until [`Engine::done`].
/// For the BASE and PACK systems pass the bus channels; for IDEAL pass
/// `None`.
#[derive(Debug)]
pub struct Engine {
    cfg: VprocConfig,
    kind: SystemKind,
    bus: BusConfig,
    regs: RegFile,
    /// The program, shared (never cloned) between the kernel and any
    /// number of engines; `pc` is this engine's issue cursor into it.
    program: Arc<Program>,
    pc: usize,
    vl: usize,
    /// In-flight instructions in issue order, which is also uid order.
    window: VecDeque<InFlight>,
    reg_writer: [u64; 32],
    next_uid: u64,
    next_axi_id: u8,
    scalar_stall: u32,
    // VLSU
    mem_q: VecDeque<MemRun>,
    load_issuing: Option<LoadRun>,
    loads_draining: Vec<LoadRun>,
    store_active: Option<StoreRun>,
    /// Stores whose data is fully sent, awaiting their B response.
    stores_draining: Vec<StoreRun>,
    ideal_active: Option<IdealRun>,
    /// Cycle index of the last IDEAL-port transfer, for latency hiding on
    /// back-to-back operations.
    ideal_last_active: u64,
    stats: EngineStats,
    /// First error response seen on R or B, if any.
    first_fault: Option<BusFault>,
    /// Start-of-cycle producer-progress snapshot, reused every cycle so
    /// chaining never allocates (uid → produced, in issue order).
    progress_scratch: Vec<(u64, usize)>,
}

/// Sentinel "no writer" uid (uids start at 1).
const NO_WRITER: u64 = 0;

/// The in-flight entry of `uid`, if it has not retired. Uids grow with
/// issue and the window keeps issue order, so a binary search finds it.
#[inline]
fn in_window(window: &VecDeque<InFlight>, uid: u64) -> Option<&InFlight> {
    let i = window.binary_search_by_key(&uid, |e| e.uid).ok()?;
    Some(&window[i])
}

/// Mutable [`in_window`].
#[inline]
fn in_window_mut(window: &mut VecDeque<InFlight>, uid: u64) -> Option<&mut InFlight> {
    let i = window.binary_search_by_key(&uid, |e| e.uid).ok()?;
    Some(&mut window[i])
}

impl Engine {
    /// Creates an engine for the given system kind and program.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.axi_id_bits` is in `1..=8` — a zero width would
    /// collapse every transaction onto ID 0 and silently cross-wire R
    /// beats between outstanding loads.
    pub fn new(
        cfg: VprocConfig,
        kind: SystemKind,
        bus: BusConfig,
        program: impl Into<Arc<Program>>,
    ) -> Self {
        assert!(
            (1..=8).contains(&cfg.axi_id_bits),
            "axi_id_bits must be 1..=8, got {}",
            cfg.axi_id_bits
        );
        let bus_bytes = match kind {
            SystemKind::Ideal => cfg.lanes * 4,
            _ => bus.data_bytes(),
        };
        Engine {
            regs: RegFile::new(cfg.vlen_bytes),
            program: program.into(),
            pc: 0,
            vl: cfg.max_vl(),
            window: VecDeque::new(),
            reg_writer: [NO_WRITER; 32],
            next_uid: 1,
            next_axi_id: 0,
            scalar_stall: 0,
            mem_q: VecDeque::new(),
            load_issuing: None,
            loads_draining: Vec::new(),
            store_active: None,
            stores_draining: Vec::new(),
            ideal_active: None,
            ideal_last_active: 0,
            stats: EngineStats::new(bus_bytes),
            first_fault: None,
            progress_scratch: Vec::new(),
            cfg,
            kind,
            bus,
        }
    }

    /// The engine's statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The architectural register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// The first error response this engine saw on the bus, if any.
    pub fn first_fault(&self) -> Option<BusFault> {
        self.first_fault
    }

    /// One-line state snapshot for hang forensics: issue cursor, in-flight
    /// window, and VLSU occupancy.
    pub fn describe_state(&self) -> String {
        format!(
            "pc {}/{}, {} in window, {} mem ops queued, load issuing: {}, {} loads draining, store active: {}, {} stores awaiting B",
            self.pc,
            self.program.len(),
            self.window.len(),
            self.mem_q.len(),
            self.load_issuing.is_some(),
            self.loads_draining.len(),
            self.store_active.is_some(),
            self.stores_draining.len(),
        )
    }

    /// Returns `true` when the program has fully executed and drained.
    pub fn done(&self) -> bool {
        self.pc >= self.program.len()
            && self.window.is_empty()
            && self.scalar_stall == 0
            && self.mem_q.is_empty()
            && self.load_issuing.is_none()
            && self.loads_draining.is_empty()
            && self.store_active.is_none()
            && self.stores_draining.is_empty()
            && self.ideal_active.is_none()
    }

    // simcheck: hot-path begin -- the engine's per-cycle tick: memory
    // back-ends, compute lanes and the frontend. The progress scratch is
    // engine-owned and reused; burst planning (which allocates per issued
    // memory instruction, not per cycle) lives outside this region.

    /// One cycle of engine work. Pass the bus channels for BASE/PACK and
    /// `None` for IDEAL; `storage` is the shared backing store.
    pub fn tick(&mut self, channels: Option<&mut AxiChannels>, storage: &mut Storage) {
        self.stats.cycles += 1;
        match self.kind {
            SystemKind::Ideal => {
                debug_assert!(channels.is_none(), "IDEAL runs without a bus");
                self.tick_ideal_mem();
            }
            _ => {
                let ch = channels.expect("BASE/PACK run over the bus");
                self.tick_axi_mem(ch);
            }
        }
        self.tick_compute();
        self.tick_frontend(storage);
        self.sweep_completed();
    }

    // ------------------------------------------------------------------
    // AXI back-end
    // ------------------------------------------------------------------

    fn tick_axi_mem(&mut self, ch: &mut AxiChannels) {
        // R channel: at most one beat per cycle.
        if let Some(beat) = ch.r.pop() {
            let is_index = self.note_r_beat(&beat);
            self.stats.r_util.record_beat(beat.payload_bytes);
            if is_index {
                self.stats.r_util_data.record_idle();
            } else {
                self.stats.r_util_data.record_beat(beat.payload_bytes);
            }
        } else {
            self.stats.r_util.record_idle();
            self.stats.r_util_data.record_idle();
        }
        // B channel.
        if let Some(b) = ch.b.pop() {
            if b.resp != Resp::Okay && self.first_fault.is_none() {
                self.first_fault = Some(BusFault {
                    axi_id: b.id.0,
                    is_write: true,
                    resp: b.resp.name(),
                });
            }
            let run = self
                .store_active
                .as_mut()
                .filter(|r| u16::from(r.axi_id) == b.id.0)
                .or_else(|| {
                    self.stores_draining
                        .iter_mut()
                        .find(|r| u16::from(r.axi_id) == b.id.0)
                })
                .expect("B response matches an outstanding store");
            run.b_received += 1;
            if run.b_received == run.b_expected {
                let uid = run.uid;
                if let Some(e) = in_window_mut(&mut self.window, uid) {
                    if let Class::Store { done } = &mut e.class {
                        *done = true;
                    }
                    e.produced = e.vl;
                }
                if self.store_active.as_ref().is_some_and(|r| r.uid == uid) {
                    self.store_active = None;
                } else {
                    self.stores_draining.retain(|r| r.uid != uid);
                }
            }
        }
        // Start the next memory operation if ordering permits.
        self.try_start_mem();
        // AR channel: one request per cycle from the issuing load.
        if let Some(run) = self.load_issuing.as_mut() {
            if ch.ar.can_push() {
                if let Some(ar) = run.reqs.pop_front() {
                    ch.ar.push(ar);
                }
            } else if !run.reqs.is_empty() {
                self.stats.ar_stall_cycles += 1;
            }
            if run.reqs.is_empty() {
                let run = self.load_issuing.take().expect("checked above");
                self.loads_draining.push(run);
            }
        }
        // AW/W channels for the active store.
        if let Some(run) = self.store_active.as_mut() {
            if ch.aw.can_push() {
                if let Some(aw) = run.aws.pop_front() {
                    run.unlocked_w += aw.beats;
                    ch.aw.push(aw);
                }
            }
            if run.unlocked_w > 0 {
                let src_uid = run.src_uid;
                let ready = match run.ws.front() {
                    Some((_, need)) => {
                        let avail = match src_uid {
                            Some(uid) if uid != NO_WRITER => {
                                in_window(&self.window, uid).map_or(usize::MAX, |e| e.produced)
                            }
                            _ => usize::MAX,
                        };
                        avail >= *need
                    }
                    None => false,
                };
                if ready {
                    if ch.w.can_push() {
                        let run = self.store_active.as_mut().expect("still active");
                        let (w, _) = run.ws.pop_front().expect("front checked");
                        run.unlocked_w -= 1;
                        self.stats.w_beats += 1;
                        self.stats.w_payload += w.payload_bytes() as u64;
                        ch.w.push(w);
                    } else {
                        self.stats.w_stall_cycles += 1;
                    }
                }
            }
            // All data sent: only the B response is outstanding; free the
            // store slot so the next memory operation can proceed.
            if self
                .store_active
                .as_ref()
                .is_some_and(|r| r.aws.is_empty() && r.ws.is_empty())
            {
                let run = self.store_active.take().expect("checked");
                self.stores_draining.push(run);
            }
        }
    }

    /// Books an arriving R beat; returns whether it was index traffic.
    fn note_r_beat(&mut self, beat: &axi_proto::RBeat) -> bool {
        let run = self
            .load_issuing
            .as_mut()
            .filter(|r| u16::from(r.axi_id) == beat.id.0)
            .or_else(|| {
                self.loads_draining
                    .iter_mut()
                    .find(|r| u16::from(r.axi_id) == beat.id.0)
            })
            .expect("R beat matches an outstanding load");
        let elems = run
            .beat_elems
            .pop_front()
            .expect("more R beats than planned");
        let lane_off = run.lane_offs.pop_front().expect("planned with beat_elems");
        let lo = run.received_elems * 4;
        let expected = &run.expected[lo..lo + elems * 4];
        if beat.resp != Resp::Okay {
            // Errored beats carry no trustworthy payload; the fault record,
            // not a mismatch count, is what reaches the user.
            if self.first_fault.is_none() {
                self.first_fault = Some(BusFault {
                    axi_id: beat.id.0,
                    is_write: false,
                    resp: beat.resp.name(),
                });
            }
        } else if beat.data[lane_off..lane_off + elems * 4] != *expected {
            self.stats.data_mismatches += 1;
        }
        run.received_elems += elems;
        self.stats.load_elems += elems as u64;
        let uid = run.uid;
        let received = run.received_elems;
        let finished = run.received_elems >= run.total_elems;
        let is_index = run.is_index;
        if let Some(e) = in_window_mut(&mut self.window, uid) {
            e.produced = received;
        }
        if finished {
            self.loads_draining.retain(|r| r.uid != uid);
            if self.load_issuing.as_ref().is_some_and(|r| r.uid == uid) {
                self.load_issuing = None;
            }
        }
        is_index
    }

    /// Starts the front memory operation when the VLSU ordering allows.
    fn try_start_mem(&mut self) {
        let can_start = match self.mem_q.front() {
            None => false,
            Some(MemRun::Load(_)) => {
                // A younger load may start once the older store has *sent*
                // all of its data — the write is ordered ahead of the read
                // at the single memory endpoint; waiting for B would only
                // add dead bus time (the paper's 50% ismt utilization
                // implies back-to-back read/write phases).
                let store_drained = self
                    .store_active
                    .as_ref()
                    .is_none_or(|s| s.aws.is_empty() && s.ws.is_empty());
                store_drained
                    && self.load_issuing.is_none()
                    && self.loads_draining.len() < self.cfg.max_outstanding_loads
            }
            Some(MemRun::Store(_)) => {
                self.store_active.is_none()
                    && self.load_issuing.is_none()
                    && self.loads_draining.is_empty()
            }
            Some(MemRun::Ideal(_)) => unreachable!("ideal runs use tick_ideal_mem"),
        };
        if can_start {
            match self.mem_q.pop_front().expect("front checked") {
                MemRun::Load(run) => self.load_issuing = Some(run),
                MemRun::Store(run) => self.store_active = Some(run),
                MemRun::Ideal(_) => unreachable!(),
            }
        }
    }

    // ------------------------------------------------------------------
    // IDEAL back-end
    // ------------------------------------------------------------------

    fn tick_ideal_mem(&mut self) {
        if self.ideal_active.is_none() {
            if let Some(MemRun::Ideal(_)) = self.mem_q.front() {
                match self.mem_q.pop_front().expect("front checked") {
                    MemRun::Ideal(mut run) => {
                        // Back-to-back operations pipeline through the
                        // ideal ports: the access latency is hidden unless
                        // the port went idle.
                        if self.stats.cycles <= self.ideal_last_active + 1 {
                            run.latency_left = 0;
                        }
                        self.ideal_active = Some(run);
                    }
                    _ => unreachable!(),
                }
            }
        }
        let Some(run) = self.ideal_active.as_mut() else {
            self.stats.r_util.record_idle();
            self.stats.r_util_data.record_idle();
            return;
        };
        if run.latency_left > 0 {
            run.latency_left -= 1;
            self.stats.r_util.record_idle();
            self.stats.r_util_data.record_idle();
            return;
        }
        let avail = match run.src_uid {
            Some(uid) if uid != NO_WRITER => {
                in_window(&self.window, uid).map_or(usize::MAX, |e| e.produced)
            }
            _ => usize::MAX,
        };
        let step = self
            .cfg
            .lanes
            .min(run.total - run.transferred)
            .min(avail.saturating_sub(run.transferred));
        if step == 0 {
            self.stats.r_util.record_idle();
            self.stats.r_util_data.record_idle();
            return;
        }
        run.transferred += step;
        self.ideal_last_active = self.stats.cycles;
        let is_store = run.is_store;
        let is_index = run.is_index;
        if is_store {
            self.stats.store_elems += step as u64;
            self.stats.r_util.record_idle();
            self.stats.r_util_data.record_idle();
        } else {
            self.stats.load_elems += step as u64;
            self.stats.r_util.record_beat(step * 4);
            if is_index {
                self.stats.r_util_data.record_idle();
            } else {
                self.stats.r_util_data.record_beat(step * 4);
            }
        }
        let uid = run.uid;
        let transferred = run.transferred;
        let finished = run.transferred >= run.total;
        if let Some(e) = in_window_mut(&mut self.window, uid) {
            e.produced = transferred;
            if finished {
                if let Class::Store { done } = &mut e.class {
                    *done = true;
                }
            }
        }
        if finished {
            self.ideal_active = None;
        }
    }

    // ------------------------------------------------------------------
    // Lanes
    // ------------------------------------------------------------------

    /// Advances compute instructions under a shared `lanes`-elements-per-
    /// cycle budget, honoring chaining via producer progress snapshots.
    fn tick_compute(&mut self) {
        // Snapshot producer progress at the start of the compute tick so
        // same-cycle production is never consumed (registered chaining).
        // The scratch vector is engine-owned and reused every cycle; the
        // window is small (≤ cfg.window entries), so linear lookup wins
        // over any hashing.
        self.progress_scratch.clear();
        for e in &self.window {
            self.progress_scratch.push((e.uid, e.produced));
        }
        let snapshot = &self.progress_scratch;
        let progress = |uid: u64| -> usize {
            if uid == NO_WRITER {
                usize::MAX
            } else {
                snapshot
                    .iter()
                    .find(|(u, _)| *u == uid)
                    .map_or(usize::MAX, |(_, p)| *p)
            }
        };
        let mut budget = self.cfg.lanes;
        for entry in self.window.iter_mut() {
            if budget == 0 {
                break;
            }
            match &mut entry.class {
                Class::Compute {
                    srcs,
                    flops_per_elem,
                } => {
                    let avail = srcs
                        .iter()
                        .map(|s| progress(*s))
                        .min()
                        .unwrap_or(usize::MAX)
                        .min(entry.vl);
                    let step = budget
                        .min(avail.saturating_sub(entry.produced))
                        .min(entry.vl - entry.produced);
                    entry.produced += step;
                    budget -= step;
                    self.stats.lane_elems += step as u64;
                    self.stats.flops += step as u64 * *flops_per_elem;
                }
                Class::Reduction {
                    src,
                    consumed,
                    tail,
                } => {
                    if *consumed < entry.vl {
                        let avail = progress(*src).min(entry.vl);
                        let step = budget
                            .min(avail.saturating_sub(*consumed))
                            .min(entry.vl - *consumed);
                        *consumed += step;
                        budget -= step;
                        self.stats.lane_elems += step as u64;
                        self.stats.flops += step as u64;
                    } else if *tail > 0 {
                        *tail -= 1;
                        if *tail == 0 {
                            entry.produced = entry.vl;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Frontend
    // ------------------------------------------------------------------

    fn tick_frontend(&mut self, storage: &mut Storage) {
        if self.scalar_stall > 0 {
            self.scalar_stall -= 1;
            self.stats.scalar_stall_cycles += 1;
            return;
        }
        if self.window.len() >= self.cfg.window {
            return;
        }
        // CVA6 blocks on the value of a scalar store (e.g. the reduction
        // result written back after each row): the next vector instruction
        // cannot issue until the producer completes. This is what keeps
        // row-wise dataflows reduction-bound in the paper's Fig. 3b/3c.
        if let Some(VInsn::ScalarStoreF32 { vs, .. }) = self.program.insns().get(self.pc) {
            let producer = self.reg_writer[*vs as usize];
            if producer != NO_WRITER && in_window(&self.window, producer).is_some() {
                self.stats.scalar_stall_cycles += 1;
                return;
            }
        }
        // Instructions are tiny flat enums; cloning one out of the shared
        // program is a register-width copy, not a heap operation.
        let Some(insn) = self.program.insns().get(self.pc).cloned() else {
            return;
        };
        self.pc += 1;
        self.stats.issued += 1;
        self.exec_functional(&insn, storage);
        match &insn {
            VInsn::SetVl { vl } => {
                assert!(
                    *vl > 0 && *vl <= self.cfg.max_vl(),
                    "vl {vl} out of 1..={}",
                    self.cfg.max_vl()
                );
                self.vl = *vl;
            }
            VInsn::Scalar { cycles } => {
                self.scalar_stall = cycles.saturating_sub(1);
            }
            VInsn::ScalarStoreF32 { .. } => {}
            _ => {
                let uid = self.next_uid;
                self.next_uid += 1;
                let vl = self.vl;
                let class = self.classify(&insn);
                self.window.push_back(InFlight {
                    uid,
                    vl,
                    produced: 0,
                    class,
                });
                if insn.is_mem() {
                    let run = self.build_mem_run(uid, &insn);
                    self.mem_q.push_back(run);
                }
                if let Some(vd) = insn.dest() {
                    self.reg_writer[vd as usize] = uid;
                }
            }
        }
    }

    fn classify(&self, insn: &VInsn) -> Class {
        match insn {
            VInsn::Vfredsum { vs, .. } | VInsn::Vfredmin { vs, .. } => Class::Reduction {
                src: self.reg_writer[*vs as usize],
                consumed: 0,
                tail: self.cfg.reduction_tail,
            },
            _ if insn.is_load() => Class::Load,
            _ if insn.is_store() => Class::Store { done: false },
            _ => {
                let srcs = insn
                    .sources()
                    .iter()
                    .map(|v| self.reg_writer[*v as usize])
                    .collect();
                let flops = match insn {
                    VInsn::Vfmacc { .. } | VInsn::VfmaccVf { .. } => 2,
                    VInsn::VmvVf { .. } => 0,
                    _ => 1,
                };
                Class::Compute {
                    srcs,
                    flops_per_elem: flops,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Functional semantics (eager, program order)
    // ------------------------------------------------------------------

    fn exec_functional(&mut self, insn: &VInsn, storage: &mut Storage) {
        let vl = self.vl;
        match *insn {
            VInsn::SetVl { .. } | VInsn::Scalar { .. } => {}
            VInsn::Vle { vd, base, .. } => {
                // Registers hold little-endian f32 bytes, exactly the
                // storage layout: a raw byte copy is the same result as
                // the element-wise read, without the intermediate Vec.
                let a = base as usize;
                self.regs
                    .write_bytes(vd, &storage.as_bytes()[a..a + vl * 4]);
            }
            VInsn::Vlse { vd, base, stride } => {
                for k in 0..vl {
                    let addr = (base as i64 + k as i64 * stride as i64 * 4) as Addr;
                    let v = storage.read_f32(addr);
                    self.regs.set_elem_f32(vd, k, v);
                }
            }
            VInsn::Vluxei { vd, vidx, base } => {
                for k in 0..vl {
                    let i = self.regs.elem_u32(vidx, k);
                    let v = storage.read_f32(base + i as Addr * 4);
                    self.regs.set_elem_f32(vd, k, v);
                }
            }
            VInsn::Vlimxei { vd, idx_addr, base } => {
                for k in 0..vl {
                    let i = storage.read_u32(idx_addr + 4 * k as Addr);
                    let v = storage.read_f32(base + i as Addr * 4);
                    self.regs.set_elem_f32(vd, k, v);
                }
            }
            VInsn::Vse { vs, base } => {
                storage.write(base, &self.regs.bytes(vs)[..vl * 4]);
            }
            VInsn::Vsse { vs, base, stride } => {
                for k in 0..vl {
                    let addr = (base as i64 + k as i64 * stride as i64 * 4) as Addr;
                    storage.write_f32(addr, self.regs.elem_f32(vs, k));
                }
            }
            VInsn::Vsuxei { vs, vidx, base } => {
                for k in 0..vl {
                    let i = self.regs.elem_u32(vidx, k);
                    storage.write_f32(base + i as Addr * 4, self.regs.elem_f32(vs, k));
                }
            }
            VInsn::Vsimxei { vs, idx_addr, base } => {
                for k in 0..vl {
                    let i = storage.read_u32(idx_addr + 4 * k as Addr);
                    storage.write_f32(base + i as Addr * 4, self.regs.elem_f32(vs, k));
                }
            }
            VInsn::Vfadd { vd, vs1, vs2 } => self.elementwise(vd, vs1, vs2, |a, b| a + b),
            VInsn::Vfmul { vd, vs1, vs2 } => self.elementwise(vd, vs1, vs2, |a, b| a * b),
            VInsn::Vfmin { vd, vs1, vs2 } => self.elementwise(vd, vs1, vs2, f32::min),
            VInsn::Vfmacc { vd, vs1, vs2 } => {
                for k in 0..vl {
                    let v = self.regs.elem_f32(vd, k)
                        + self.regs.elem_f32(vs1, k) * self.regs.elem_f32(vs2, k);
                    self.regs.set_elem_f32(vd, k, v);
                }
            }
            VInsn::VfmaccVf { vd, rs, vs } => {
                for k in 0..vl {
                    let v = self.regs.elem_f32(vd, k) + rs * self.regs.elem_f32(vs, k);
                    self.regs.set_elem_f32(vd, k, v);
                }
            }
            VInsn::VfmulVf { vd, rs, vs } => {
                for k in 0..vl {
                    self.regs
                        .set_elem_f32(vd, k, rs * self.regs.elem_f32(vs, k));
                }
            }
            VInsn::VfaddVf { vd, rs, vs } => {
                for k in 0..vl {
                    self.regs
                        .set_elem_f32(vd, k, rs + self.regs.elem_f32(vs, k));
                }
            }
            VInsn::VmvVf { vd, imm } => {
                for k in 0..vl {
                    self.regs.set_elem_f32(vd, k, imm);
                }
            }
            VInsn::Vfredsum { vd, vs } => {
                let mut sum = 0.0f32;
                for k in 0..vl {
                    sum += self.regs.elem_f32(vs, k);
                }
                self.regs.set_elem_f32(vd, 0, sum);
            }
            VInsn::Vfredmin { vd, vs } => {
                let mut m = f32::INFINITY;
                for k in 0..vl {
                    m = m.min(self.regs.elem_f32(vs, k));
                }
                self.regs.set_elem_f32(vd, 0, m);
            }
            VInsn::ScalarStoreF32 { vs, addr } => {
                storage.write_f32(addr, self.regs.elem_f32(vs, 0));
            }
        }
    }

    fn elementwise(&mut self, vd: VReg, vs1: VReg, vs2: VReg, f: impl Fn(f32, f32) -> f32) {
        for k in 0..self.vl {
            let v = f(self.regs.elem_f32(vs1, k), self.regs.elem_f32(vs2, k));
            self.regs.set_elem_f32(vd, k, v);
        }
    }

    // ------------------------------------------------------------------
    // Event-driven scheduling: wake classification and fast-forward
    // ------------------------------------------------------------------

    /// A producer's settled progress, [`usize::MAX`] when retired or
    /// absent (no writer).
    fn progress_of(&self, uid: u64) -> usize {
        if uid == NO_WRITER {
            usize::MAX
        } else {
            in_window(&self.window, uid).map_or(usize::MAX, |e| e.produced)
        }
    }

    /// Classifies the engine's wake status at a cycle boundary, as seen
    /// with an empty bus bundle.
    ///
    /// Queried between ticks (settled state). The classification is
    /// deliberately conservative — anything whose progress depends on bus
    /// handshakes the engine cannot predict is [`Wake::Ready`] (pending or
    /// issuing memory runs) or [`Wake::Idle`] (draining runs awaiting R/B
    /// beats; the bus-side wake decides whether beats can still arrive).
    /// Only provable countdowns produce [`Wake::Sleep`]: scalar stalls,
    /// reduction tails, and the IDEAL port's access latency. The contract
    /// is exact: if this returns `Sleep(n)`, then `n` lockstep ticks would
    /// perform only the bookkeeping [`Engine::fast_forward`] replays.
    ///
    /// This is [`Engine::next_wake_on`] with an empty leaf: nothing to
    /// pop, and room in AR for an issuing load.
    pub fn next_wake(&self) -> Wake {
        self.wake(true)
    }

    /// Classifies the engine's wake status at a cycle boundary, looking at
    /// its own bus bundle (`leaf`) as the next tick would see it.
    ///
    /// Beyond [`Engine::next_wake`], a load whose next AR request cannot
    /// be pushed because `leaf`'s AR register is full is not `Ready`:
    /// each such tick only counts an AR stall, which
    /// [`Engine::fast_forward`] replays. An `Idle` answer therefore means
    /// the engine's only bus work is waiting — for R/B beats, or for AR
    /// space — and stays `Idle` until [`Engine::leaf_wakes`] reports input
    /// on `leaf`: untouched, the engine's own state cannot change.
    pub fn next_wake_on(&self, leaf: &AxiChannels) -> Wake {
        if self.leaf_wakes(leaf) {
            Wake::Ready
        } else {
            self.wake(false)
        }
    }

    /// Returns `true` when `leaf` holds input the engine's next tick acts
    /// on: a visible R or B beat, or AR space for an issuing load.
    #[inline]
    pub fn leaf_wakes(&self, leaf: &AxiChannels) -> bool {
        leaf.r.can_pop() || leaf.b.can_pop() || (self.load_issuing.is_some() && leaf.ar.can_push())
    }

    /// The wake classification shared by [`Engine::next_wake`] and
    /// [`Engine::next_wake_on`]; `ar_space` says whether an issuing load
    /// could push its next request.
    fn wake(&self, ar_space: bool) -> Wake {
        let mut countdown = u64::MAX;
        // Memory back-end. A pending run or an issuing load with AR space
        // makes progress (or contends for the bus) every cycle; queued
        // runs cannot start while a load is issuing, and draining runs
        // wait on R/B beats and contribute nothing of their own.
        let mem_ready = match &self.load_issuing {
            Some(_) => ar_space,
            None => !self.mem_q.is_empty(),
        };
        if mem_ready || self.store_active.is_some() {
            return Wake::Ready;
        }
        if let Some(run) = &self.ideal_active {
            if run.latency_left > 0 {
                countdown = countdown.min(run.latency_left as u64);
            } else {
                let avail = match run.src_uid {
                    Some(uid) if uid != NO_WRITER => self.progress_of(uid),
                    _ => usize::MAX,
                };
                let step = self
                    .cfg
                    .lanes
                    .min(run.total - run.transferred)
                    .min(avail.saturating_sub(run.transferred));
                if step > 0 {
                    return Wake::Ready;
                }
                // Blocked on a producer: that producer's own wake governs.
            }
        }
        // Lanes: any compute or reduction that can consume produces work.
        // Blocked consumers are governed by their producer's wake (checked
        // in the same pass); load/store window entries by the back-end.
        for entry in &self.window {
            match &entry.class {
                Class::Compute { srcs, .. } => {
                    let avail = srcs
                        .iter()
                        .map(|s| self.progress_of(*s))
                        .min()
                        .unwrap_or(usize::MAX)
                        .min(entry.vl);
                    if avail > entry.produced {
                        return Wake::Ready;
                    }
                }
                Class::Reduction {
                    src,
                    consumed,
                    tail,
                } => {
                    if *consumed < entry.vl {
                        if self.progress_of(*src).min(entry.vl) > *consumed {
                            return Wake::Ready;
                        }
                    } else if *tail > 0 {
                        countdown = countdown.min(*tail as u64);
                    }
                }
                Class::Load | Class::Store { .. } => {}
            }
        }
        // Frontend, mirroring `tick_frontend`'s check order: a scalar
        // stall is a countdown; a full window blocks silently; a scalar
        // store of a live producer blocks (with a per-tick stall statistic
        // that `fast_forward` replays); anything else issues.
        if self.scalar_stall > 0 {
            countdown = countdown.min(self.scalar_stall as u64);
        } else if self.window.len() < self.cfg.window {
            match self.program.insns().get(self.pc) {
                Some(VInsn::ScalarStoreF32 { vs, .. }) => {
                    let producer = self.reg_writer[*vs as usize];
                    if producer == NO_WRITER || in_window(&self.window, producer).is_none() {
                        return Wake::Ready;
                    }
                }
                Some(_) => return Wake::Ready,
                None => {}
            }
        }
        if countdown == u64::MAX {
            Wake::Idle
        } else {
            Wake::Sleep(countdown)
        }
    }

    /// Replays the bookkeeping of `span` provably-idle ticks in one call.
    ///
    /// Must only be called with `span` no larger than the `n` of a
    /// [`Wake::Sleep`]`(n)` from [`Engine::next_wake`], or for an engine
    /// whose wake is [`Wake::Idle`], which has no countdowns to expire:
    /// arbitrarily after [`Engine::next_wake`], and after
    /// [`Engine::next_wake_on`] for as long as [`Engine::leaf_wakes`]
    /// stays `false` (a load parked on a full AR register counts one AR
    /// stall per replayed tick). The resulting state — statistics
    /// included — is bit-identical to ticking `span` times, which the
    /// lockstep differential oracle verifies on every fuzz seed.
    pub fn fast_forward(&mut self, span: u64) {
        self.stats.cycles += span;
        // Both memory back-ends record one idle sample per tracker per
        // idle tick (AXI: no R beat popped; IDEAL: no transfer).
        self.stats.r_util.record_idle_n(span);
        self.stats.r_util_data.record_idle_n(span);
        // A load with requests left was back-pressured on every skipped
        // tick: the only wake that skips it is a full AR register.
        if self
            .load_issuing
            .as_ref()
            .is_some_and(|r| !r.reqs.is_empty())
        {
            self.stats.ar_stall_cycles += span;
        }
        // Frontend: a scalar stall decrements and counts every tick; a
        // scalar store blocked on a live producer counts without state.
        // The window cannot change before the frontend runs within a tick
        // (retirement sweeps at tick end), so the pre-span membership
        // check is valid for the whole span.
        if self.scalar_stall > 0 {
            debug_assert!(span <= self.scalar_stall as u64, "slept through a wake");
            self.scalar_stall -= span as u32;
            self.stats.scalar_stall_cycles += span;
        } else if self.window.len() < self.cfg.window {
            if let Some(VInsn::ScalarStoreF32 { vs, .. }) = self.program.insns().get(self.pc) {
                let producer = self.reg_writer[*vs as usize];
                if producer != NO_WRITER && in_window(&self.window, producer).is_some() {
                    self.stats.scalar_stall_cycles += span;
                }
            }
        }
        // Reduction tails count down once per tick regardless of the lane
        // budget (nothing else can be consuming it — the span proof).
        for entry in self.window.iter_mut() {
            if let Class::Reduction { consumed, tail, .. } = &mut entry.class {
                if *consumed >= entry.vl && *tail > 0 {
                    debug_assert!(span <= *tail as u64, "slept through a wake");
                    *tail -= span as u32;
                    if *tail == 0 {
                        entry.produced = entry.vl;
                    }
                }
            }
        }
        // IDEAL port access latency.
        if let Some(run) = self.ideal_active.as_mut() {
            if run.latency_left > 0 {
                debug_assert!(span <= run.latency_left as u64, "slept through a wake");
                run.latency_left -= span as u32;
            }
        }
        // Countdowns that expired at the span's end retire exactly as the
        // final lockstep tick's sweep would have.
        self.sweep_completed();
    }

    // simcheck: hot-path end

    // ------------------------------------------------------------------
    // Memory run construction
    // ------------------------------------------------------------------

    fn alloc_axi_id(&mut self) -> u8 {
        // Wrap within the configured ID space: the full u8 range when the
        // engine owns the bus, the mux's manager-local width behind one.
        let mask = ((1u16 << self.cfg.axi_id_bits) - 1) as u8;
        let id = self.next_axi_id & mask;
        self.next_axi_id = id.wrapping_add(1) & mask;
        id
    }

    fn build_mem_run(&mut self, uid: u64, insn: &VInsn) -> MemRun {
        if self.kind == SystemKind::Ideal {
            return self.build_ideal_run(uid, insn);
        }
        if insn.is_load() {
            MemRun::Load(self.build_load_run(uid, insn))
        } else {
            MemRun::Store(self.build_store_run(uid, insn))
        }
    }

    fn build_ideal_run(&mut self, uid: u64, insn: &VInsn) -> MemRun {
        let is_store = insn.is_store();
        let src_uid = if is_store {
            insn.sources().first().map(|v| self.reg_writer[*v as usize])
        } else {
            None
        };
        // On IDEAL, `vlimxei` does not exist: workloads use vle + vluxei.
        assert!(
            !matches!(insn, VInsn::Vlimxei { .. } | VInsn::Vsimxei { .. }),
            "IDEAL has no in-memory indexed accesses; use vle + vluxei"
        );
        let is_index = matches!(insn, VInsn::Vle { is_index: true, .. });
        MemRun::Ideal(IdealRun {
            uid,
            src_uid,
            transferred: 0,
            total: self.vl,
            latency_left: self.cfg.ideal_latency,
            is_store,
            is_index,
        })
    }

    /// Elements per full bus beat (32-bit elements).
    fn epb(&self) -> usize {
        self.bus.data_bytes() / 4
    }

    fn build_load_run(&mut self, uid: u64, insn: &VInsn) -> LoadRun {
        let vl = self.vl;
        let id = self.alloc_axi_id();
        let bus_bytes = self.bus.data_bytes();
        let epb = self.epb();
        let mut reqs = VecDeque::new();
        let mut beat_elems = VecDeque::new();
        let mut lane_offs = VecDeque::new();
        let (vd, is_index) = match *insn {
            VInsn::Vle { vd, base, is_index } => {
                assert_eq!(base % 4, 0, "vle base must be element-aligned");
                // Unaligned head: narrow beats up to the first bus boundary
                // (what an AXI data-width converter does for unaligned
                // INCR bursts), then one full-width burst.
                let head = (((bus_bytes as Addr - base % bus_bytes as Addr) % bus_bytes as Addr)
                    / 4) as usize;
                let head = head.min(vl);
                for k in 0..head {
                    let addr = base + 4 * k as Addr;
                    reqs.push_back(ArBeat::narrow(id, addr, ElemSize::B4));
                    beat_elems.push_back(1);
                    lane_offs.push_back((addr % bus_bytes as Addr) as usize);
                }
                let rem = vl - head;
                if rem > 0 {
                    let aligned = base + 4 * head as Addr;
                    let beats = rem.div_ceil(epb) as u32;
                    reqs.push_back(ArBeat::incr(id, aligned, beats, &self.bus));
                    for b in 0..beats as usize {
                        let elems = epb.min(rem - b * epb);
                        beat_elems.push_back(elems);
                        lane_offs.push_back(0);
                    }
                }
                (vd, is_index)
            }
            VInsn::Vlse { vd, base, stride } => {
                match self.kind {
                    SystemKind::Pack => {
                        let ar = ArBeat::packed_strided(
                            id,
                            base,
                            vl as u32,
                            ElemSize::B4,
                            stride,
                            &self.bus,
                        );
                        for b in 0..ar.beats {
                            beat_elems.push_back(ar.beat_valid_elems(b, &self.bus));
                            lane_offs.push_back(0);
                        }
                        reqs.push_back(ar);
                    }
                    SystemKind::Base => {
                        for k in 0..vl {
                            let addr = (base as i64 + k as i64 * stride as i64 * 4) as Addr;
                            reqs.push_back(ArBeat::narrow(id, addr, ElemSize::B4));
                            beat_elems.push_back(1);
                            lane_offs.push_back((addr % bus_bytes as Addr) as usize);
                        }
                    }
                    SystemKind::Ideal => unreachable!("ideal handled earlier"),
                }
                (vd, false)
            }
            VInsn::Vluxei { vd, vidx, base } => {
                for k in 0..vl {
                    let addr = base + self.regs.elem_u32(vidx, k) as Addr * 4;
                    reqs.push_back(ArBeat::narrow(id, addr, ElemSize::B4));
                    beat_elems.push_back(1);
                    lane_offs.push_back((addr % bus_bytes as Addr) as usize);
                }
                (vd, false)
            }
            VInsn::Vlimxei { vd, idx_addr, base } => {
                assert_eq!(
                    self.kind,
                    SystemKind::Pack,
                    "vlimxei exists only on the PACK system"
                );
                let ar = ArBeat::packed_indirect(
                    id,
                    idx_addr,
                    vl as u32,
                    ElemSize::B4,
                    IdxSize::B4,
                    base,
                    &self.bus,
                );
                for b in 0..ar.beats {
                    beat_elems.push_back(ar.beat_valid_elems(b, &self.bus));
                    lane_offs.push_back(0);
                }
                reqs.push_back(ar);
                (vd, false)
            }
            _ => unreachable!("build_load_run on a non-load"),
        };
        // Snapshot the expected payload from the (eagerly updated) regfile.
        let expected = self.regs.bytes(vd)[..vl * 4].to_vec();
        LoadRun {
            uid,
            axi_id: id,
            reqs,
            beat_elems,
            lane_offs,
            expected,
            received_elems: 0,
            total_elems: vl,
            is_index,
        }
    }

    fn build_store_run(&mut self, uid: u64, insn: &VInsn) -> StoreRun {
        let vl = self.vl;
        let id = self.alloc_axi_id();
        let bus_bytes = self.bus.data_bytes();
        let epb = self.epb();
        let mut aws = VecDeque::new();
        let mut ws: VecDeque<(WBeat, usize)> = VecDeque::new();
        let vs = insn.sources()[0];
        // The store's data, snapshotted in program order. NOTE: snapshotted
        // *before* this fn runs? exec_functional already ran, so the
        // regfile holds this insn's program-order input values (stores do
        // not write registers).
        let data = self.regs.bytes(vs)[..vl * 4].to_vec();
        let src_uid = Some(self.reg_writer[vs as usize]);
        let full_beat = |b: usize, total_beats: usize| -> (WBeat, usize) {
            let elems = epb.min(vl - b * epb);
            let mut bytes = BeatBuf::zeroed(bus_bytes);
            bytes[..elems * 4].copy_from_slice(&data[b * epb * 4..b * epb * 4 + elems * 4]);
            let strb = if elems * 4 >= 128 {
                u128::MAX
            } else {
                (1u128 << (elems * 4)) - 1
            };
            (
                WBeat {
                    data: bytes,
                    strb,
                    last: b + 1 == total_beats,
                },
                (b * epb + elems).min(vl),
            )
        };
        let b_expected;
        match *insn {
            VInsn::Vse { base, .. } => {
                assert_eq!(base % 4, 0, "vse base must be element-aligned");
                // Unaligned head as narrow writes, then one aligned burst
                // whose beats draw data starting at the head offset.
                let head = (((bus_bytes as Addr - base % bus_bytes as Addr) % bus_bytes as Addr)
                    / 4) as usize;
                let head = head.min(vl);
                for k in 0..head {
                    let addr = base + 4 * k as Addr;
                    aws.push_back(ArBeat::narrow(id, addr, ElemSize::B4));
                    ws.push_back((Self::narrow_w(&data, k, addr, bus_bytes), k + 1));
                }
                let rem = vl - head;
                if rem > 0 {
                    let aligned = base + 4 * head as Addr;
                    let beats = rem.div_ceil(epb);
                    aws.push_back(ArBeat::incr(id, aligned, beats as u32, &self.bus));
                    for b in 0..beats {
                        let elems = epb.min(rem - b * epb);
                        let mut bytes = BeatBuf::zeroed(bus_bytes);
                        let lo = (head + b * epb) * 4;
                        bytes[..elems * 4].copy_from_slice(&data[lo..lo + elems * 4]);
                        let strb = if elems * 4 >= 128 {
                            u128::MAX
                        } else {
                            (1u128 << (elems * 4)) - 1
                        };
                        ws.push_back((
                            WBeat {
                                data: bytes,
                                strb,
                                last: b + 1 == beats,
                            },
                            head + b * epb + elems,
                        ));
                    }
                }
                b_expected = head as u32 + if rem > 0 { 1 } else { 0 };
            }
            VInsn::Vsse { base, stride, .. } => match self.kind {
                SystemKind::Pack => {
                    let aw = ArBeat::packed_strided(
                        id,
                        base,
                        vl as u32,
                        ElemSize::B4,
                        stride,
                        &self.bus,
                    );
                    let beats = aw.beats as usize;
                    aws.push_back(aw);
                    b_expected = 1;
                    for b in 0..beats {
                        ws.push_back(full_beat(b, beats));
                    }
                }
                SystemKind::Base => {
                    b_expected = vl as u32;
                    for k in 0..vl {
                        let addr = (base as i64 + k as i64 * stride as i64 * 4) as Addr;
                        aws.push_back(ArBeat::narrow(id, addr, ElemSize::B4));
                        ws.push_back((Self::narrow_w(&data, k, addr, bus_bytes), k + 1));
                    }
                }
                SystemKind::Ideal => unreachable!(),
            },
            VInsn::Vsuxei { vidx, base, .. } => {
                b_expected = vl as u32;
                for k in 0..vl {
                    let addr = base + self.regs.elem_u32(vidx, k) as Addr * 4;
                    aws.push_back(ArBeat::narrow(id, addr, ElemSize::B4));
                    ws.push_back((Self::narrow_w(&data, k, addr, bus_bytes), k + 1));
                }
            }
            VInsn::Vsimxei { idx_addr, base, .. } => {
                assert_eq!(
                    self.kind,
                    SystemKind::Pack,
                    "vsimxei exists only on the PACK system"
                );
                let aw = ArBeat::packed_indirect(
                    id,
                    idx_addr,
                    vl as u32,
                    ElemSize::B4,
                    IdxSize::B4,
                    base,
                    &self.bus,
                );
                let beats = aw.beats as usize;
                aws.push_back(aw);
                b_expected = 1;
                for b in 0..beats {
                    ws.push_back(full_beat(b, beats));
                }
            }
            _ => unreachable!("build_store_run on a non-store"),
        }
        self.stats.store_elems += vl as u64;
        StoreRun {
            uid,
            axi_id: id,
            src_uid,
            aws,
            ws,
            unlocked_w: 0,
            b_expected,
            b_received: 0,
        }
    }

    /// Builds the W beat of a narrow per-element store.
    fn narrow_w(data: &[u8], k: usize, addr: Addr, bus_bytes: usize) -> WBeat {
        let lane = (addr % bus_bytes as Addr) as usize;
        let mut bytes = BeatBuf::zeroed(bus_bytes);
        bytes[lane..lane + 4].copy_from_slice(&data[k * 4..k * 4 + 4]);
        WBeat {
            data: bytes,
            strb: 0b1111u128 << lane,
            last: true,
        }
    }

    // ------------------------------------------------------------------
    // Retirement
    // ------------------------------------------------------------------

    // simcheck: hot-path begin -- per-cycle retirement sweep over the small
    // in-flight window; in-place retain, no reallocation.

    fn sweep_completed(&mut self) {
        self.window.retain(|e| !e.complete());
    }

    // simcheck: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ProgramBuilder;
    use banked_mem::BankConfig;
    use pack_ctrl::{Adapter, CtrlConfig};

    fn bus() -> BusConfig {
        BusConfig::new(256)
    }

    fn patterned_storage() -> Storage {
        let mut s = Storage::new(1 << 19);
        for w in 0..(1 << 16) {
            s.write_f32(w * 4, w as f32);
        }
        s
    }

    /// Runs a program on an AXI system (BASE or PACK); returns (engine,
    /// adapter) at quiescence and the cycle count.
    fn run_axi(kind: SystemKind, program: Program) -> (Engine, Adapter, u64) {
        let cfg = VprocConfig::default();
        let ctrl = CtrlConfig::new(bus(), BankConfig::default(), 4);
        let mut adapter = Adapter::new(ctrl, patterned_storage());
        let mut engine = Engine::new(cfg, kind, bus(), program);
        let mut ch = AxiChannels::new();
        let mut cycles = 0u64;
        while !(engine.done() && adapter.quiescent() && ch.is_empty()) {
            engine.tick(Some(&mut ch), adapter.storage_mut());
            adapter.tick(&mut ch);
            adapter.end_cycle();
            ch.end_cycle();
            cycles += 1;
            assert!(cycles < 2_000_000, "simulation hung");
        }
        (engine, adapter, cycles)
    }

    fn run_ideal(program: Program) -> (Engine, Storage, u64) {
        let cfg = VprocConfig::default();
        let mut storage = patterned_storage();
        let mut engine = Engine::new(cfg, SystemKind::Ideal, bus(), program);
        let mut cycles = 0u64;
        while !engine.done() {
            engine.tick(None, &mut storage);
            cycles += 1;
            assert!(cycles < 2_000_000, "simulation hung");
        }
        (engine, storage, cycles)
    }

    #[test]
    fn axi_ids_wrap_within_configured_width() {
        let cfg = VprocConfig {
            axi_id_bits: 6,
            ..VprocConfig::default()
        };
        let mut engine = Engine::new(cfg, SystemKind::Pack, bus(), Program::default());
        for k in 0..130u32 {
            let id = engine.alloc_axi_id();
            assert!(id < 64, "6-bit ID space violated: {id}");
            assert_eq!(id as u32, k % 64);
        }
        let mut wide = Engine::new(
            VprocConfig::default(),
            SystemKind::Pack,
            bus(),
            Program::default(),
        );
        for k in 0..300u32 {
            assert_eq!(wide.alloc_axi_id() as u32, k % 256);
        }
    }

    #[test]
    fn unit_load_reads_correct_data_on_both_axi_systems() {
        for kind in [SystemKind::Base, SystemKind::Pack] {
            let p = ProgramBuilder::new().set_vl(64).vle(1, 0x400).build();
            let (engine, _, _) = run_axi(kind, p);
            let expect: Vec<f32> = (0..64).map(|k| (0x100 + k) as f32).collect();
            assert_eq!(engine.regs().read_f32(1, 64), expect, "{kind}");
            assert_eq!(engine.stats().data_mismatches, 0);
        }
    }

    #[test]
    fn strided_load_much_faster_on_pack() {
        let p = |_: ()| {
            ProgramBuilder::new()
                .set_vl(128)
                .vlse(1, 0x0, 7)
                .vlse(2, 0x4000, 7)
                .vlse(3, 0x8000, 7)
                .vlse(4, 0xc000, 7)
                .build()
        };
        let (eb, _, base_cycles) = run_axi(SystemKind::Base, p(()));
        let (ep, _, pack_cycles) = run_axi(SystemKind::Pack, p(()));
        assert_eq!(eb.stats().data_mismatches, 0);
        assert_eq!(ep.stats().data_mismatches, 0);
        // 512 elements: BASE needs >512 cycles (1 elem/cycle on AR), PACK
        // needs ~64 beats plus overhead.
        assert!(base_cycles > 480, "base too fast: {base_cycles}");
        assert!(pack_cycles < 160, "pack too slow: {pack_cycles}");
        assert!(
            base_cycles as f64 / pack_cycles as f64 > 4.0,
            "pack speedup collapsed: {base_cycles} vs {pack_cycles}"
        );
    }

    #[test]
    fn pack_strided_data_is_correct() {
        let p = ProgramBuilder::new().set_vl(32).vlse(5, 0x1000, 9).build();
        let (engine, _, _) = run_axi(SystemKind::Pack, p);
        let expect: Vec<f32> = (0..32).map(|k| (0x400 + k * 9) as f32).collect();
        assert_eq!(engine.regs().read_f32(5, 32), expect);
        assert_eq!(engine.stats().data_mismatches, 0);
    }

    #[test]
    fn in_memory_indexed_gather_matches_register_indexed() {
        // Plant an index array at 0x40000 (beyond the f32 pattern writes).
        let idx: Vec<u32> = (0..64u32).map(|i| (i * 53) % 4096).collect();
        let pack_prog = ProgramBuilder::new()
            .set_vl(64)
            .vlimxei(1, 0x40000, 0x0)
            .build();
        let cfg = VprocConfig::default();
        let ctrl = CtrlConfig::new(bus(), BankConfig::default(), 4);
        let mut storage = patterned_storage();
        storage.write_u32_slice(0x40000, &idx);
        let mut adapter = Adapter::new(ctrl, storage);
        let mut engine = Engine::new(cfg, SystemKind::Pack, bus(), pack_prog);
        let mut ch = AxiChannels::new();
        let mut cycles = 0;
        while !(engine.done() && adapter.quiescent() && ch.is_empty()) {
            engine.tick(Some(&mut ch), adapter.storage_mut());
            adapter.tick(&mut ch);
            adapter.end_cycle();
            ch.end_cycle();
            cycles += 1;
            assert!(cycles < 100_000);
        }
        let expect: Vec<f32> = idx.iter().map(|&i| i as f32).collect();
        assert_eq!(engine.regs().read_f32(1, 64), expect);
        assert_eq!(engine.stats().data_mismatches, 0);
        // Indices never cross the bus: both utilization views agree.
        assert_eq!(
            engine.stats().r_util.payload_bytes(),
            engine.stats().r_util_data.payload_bytes()
        );
    }

    #[test]
    fn base_indexed_gather_spends_bus_time_on_indices() {
        let idx: Vec<u32> = (0..64u32).map(|i| (i * 29) % 4096).collect();
        let prog = ProgramBuilder::new()
            .set_vl(64)
            .vle_index(2, 0x40000)
            .vluxei(1, 2, 0x0)
            .build();
        let cfg = VprocConfig::default();
        let ctrl = CtrlConfig::new(bus(), BankConfig::default(), 4);
        let mut storage = patterned_storage();
        storage.write_u32_slice(0x40000, &idx);
        let mut adapter = Adapter::new(ctrl, storage);
        let mut engine = Engine::new(cfg, SystemKind::Base, bus(), prog);
        let mut ch = AxiChannels::new();
        let mut cycles = 0;
        while !(engine.done() && adapter.quiescent() && ch.is_empty()) {
            engine.tick(Some(&mut ch), adapter.storage_mut());
            adapter.tick(&mut ch);
            adapter.end_cycle();
            ch.end_cycle();
            cycles += 1;
            assert!(cycles < 100_000);
        }
        let expect: Vec<f32> = idx.iter().map(|&i| i as f32).collect();
        assert_eq!(engine.regs().read_f32(1, 64), expect);
        // Index beats are excluded from the data-only utilization.
        assert!(engine.stats().r_util.payload_bytes() > engine.stats().r_util_data.payload_bytes());
    }

    #[test]
    fn compute_chain_and_store_roundtrip() {
        let p = ProgramBuilder::new()
            .set_vl(32)
            .vle(1, 0x400)
            .vle(2, 0x800)
            .vfmacc(3, 1, 2)
            .vse(3, 0x10000)
            .build();
        let (engine, adapter, _) = run_axi(SystemKind::Pack, p);
        for k in 0..32u64 {
            let a = (0x100 + k) as f32;
            let b = (0x200 + k) as f32;
            assert_eq!(adapter.storage().read_f32(0x10000 + 4 * k), a * b);
        }
        assert_eq!(engine.stats().data_mismatches, 0);
    }

    #[test]
    fn reduction_takes_the_tail_latency() {
        let p = ProgramBuilder::new()
            .set_vl(128)
            .vle(1, 0x0)
            .vfredsum(2, 1)
            .scalar_store_f32(2, 0x20000)
            .build();
        let (engine, adapter, cycles) = run_axi(SystemKind::Pack, p);
        let expect: f32 = (0..128).map(|k| k as f32).sum();
        assert_eq!(adapter.storage().read_f32(0x20000), expect);
        // 16 beats + reduction consume + tail: must exceed the tail alone.
        assert!(cycles > VprocConfig::default().reduction_tail as u64);
        assert_eq!(engine.stats().flops, 128);
    }

    #[test]
    fn strided_store_scatters_correctly_on_pack() {
        let p = ProgramBuilder::new()
            .set_vl(16)
            .vle(1, 0x400)
            .vsse(1, 0x30000, 5)
            .build();
        let (_, adapter, _) = run_axi(SystemKind::Pack, p);
        for k in 0..16u64 {
            assert_eq!(
                adapter.storage().read_f32(0x30000 + k * 5 * 4),
                (0x100 + k) as f32
            );
        }
    }

    #[test]
    fn base_strided_store_is_one_element_per_cycle_ish() {
        let p = ProgramBuilder::new()
            .set_vl(128)
            .vle(1, 0x400)
            .vsse(1, 0x30000, 3)
            .build();
        let (_, adapter, cycles) = run_axi(SystemKind::Base, p);
        for k in 0..128u64 {
            assert_eq!(
                adapter.storage().read_f32(0x30000 + k * 3 * 4),
                (0x100 + k) as f32
            );
        }
        assert!(cycles > 128, "narrow stores cannot beat 1 elem/cycle");
    }

    #[test]
    fn load_store_ordering_serializes() {
        // Load then dependent-region store then load: phases cannot overlap.
        let p = ProgramBuilder::new()
            .set_vl(128)
            .vle(1, 0x0)
            .vse(1, 0x4000)
            .vle(2, 0x4000)
            .build();
        let (engine, _, _) = run_axi(SystemKind::Pack, p);
        // The second load observes the stored data (functional), and R
        // busy fraction stays near 50% of the memory phases.
        let expect: Vec<f32> = (0..128).map(|k| k as f32).collect();
        assert_eq!(engine.regs().read_f32(2, 128), expect);
    }

    #[test]
    fn ideal_backend_streams_at_lane_rate() {
        let p = ProgramBuilder::new()
            .set_vl(128)
            .vlse(1, 0x0, 17)
            .vlse(2, 0x4000, 17)
            .build();
        let (engine, _, cycles) = run_ideal(p);
        let expect: Vec<f32> = (0..128).map(|k| (k * 17) as f32).collect();
        assert_eq!(engine.regs().read_f32(1, 128), expect);
        // 256 elements at 8/cycle = 32 transfer cycles + small overhead.
        assert!(cycles < 60, "ideal too slow: {cycles}");
    }

    #[test]
    fn unaligned_unit_accesses_roundtrip() {
        // Base 0x40c is element-aligned but not bus-aligned: 5 head
        // elements on a 256-bit bus, then full beats.
        let p = ProgramBuilder::new()
            .set_vl(30)
            .vle(1, 0x40c)
            .vse(1, 0x3000c)
            .build();
        for kind in [SystemKind::Base, SystemKind::Pack] {
            let (engine, adapter, _) = run_axi(kind, p.clone());
            let expect: Vec<f32> = (0..30).map(|k| (0x103 + k) as f32).collect();
            assert_eq!(engine.regs().read_f32(1, 30), expect, "{kind}");
            for k in 0..30u64 {
                assert_eq!(
                    adapter.storage().read_f32(0x3000c + 4 * k),
                    (0x103 + k) as f32,
                    "{kind} elem {k}"
                );
            }
            assert_eq!(engine.stats().data_mismatches, 0, "{kind}");
        }
    }

    #[test]
    fn scalar_markers_stall_the_frontend() {
        let p = ProgramBuilder::new()
            .set_vl(8)
            .scalar(50)
            .vle(1, 0x0)
            .build();
        let (engine, _, cycles) = run_axi(SystemKind::Pack, p);
        assert!(cycles >= 50, "scalar overhead was not charged: {cycles}");
        assert!(engine.stats().scalar_stall_cycles >= 49);
    }

    #[test]
    fn register_indexed_scatter_roundtrips() {
        let idx: Vec<u32> = vec![9, 3, 77, 12, 5, 60, 31, 2];
        let mut prog = ProgramBuilder::new().set_vl(8);
        prog = prog
            .vle(1, 0x400)
            .vle_index(2, 0x40000)
            .vsuxei(1, 2, 0x60000);
        let cfg = VprocConfig::default();
        let ctrl = CtrlConfig::new(bus(), BankConfig::default(), 4);
        let mut storage = patterned_storage();
        storage.write_u32_slice(0x40000, &idx);
        let mut adapter = Adapter::new(ctrl, storage);
        let mut engine = Engine::new(cfg, SystemKind::Base, bus(), prog.build());
        let mut ch = AxiChannels::new();
        let mut cycles = 0;
        while !(engine.done() && adapter.quiescent() && ch.is_empty()) {
            engine.tick(Some(&mut ch), adapter.storage_mut());
            adapter.tick(&mut ch);
            adapter.end_cycle();
            ch.end_cycle();
            cycles += 1;
            assert!(cycles < 100_000);
        }
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(
                adapter.storage().read_f32(0x60000 + 4 * i as u64),
                (0x100 + k) as f32,
                "element {k}"
            );
        }
    }

    #[test]
    fn in_memory_indexed_scatter_roundtrips_on_pack() {
        let idx: Vec<u32> = vec![9, 3, 77, 12, 5, 60, 31, 2, 100, 101];
        let prog = ProgramBuilder::new()
            .set_vl(10)
            .vle(1, 0x400)
            .vsimxei(1, 0x40000, 0x60000)
            .build();
        let cfg = VprocConfig::default();
        let ctrl = CtrlConfig::new(bus(), BankConfig::default(), 4);
        let mut storage = patterned_storage();
        storage.write_u32_slice(0x40000, &idx);
        let mut adapter = Adapter::new(ctrl, storage);
        let mut engine = Engine::new(cfg, SystemKind::Pack, bus(), prog);
        let mut ch = AxiChannels::new();
        let mut cycles = 0;
        while !(engine.done() && adapter.quiescent() && ch.is_empty()) {
            engine.tick(Some(&mut ch), adapter.storage_mut());
            adapter.tick(&mut ch);
            adapter.end_cycle();
            ch.end_cycle();
            cycles += 1;
            assert!(cycles < 100_000);
        }
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(
                adapter.storage().read_f32(0x60000 + 4 * i as u64),
                (0x100 + k) as f32,
                "element {k}"
            );
        }
    }

    #[test]
    fn ideal_index_fetch_costs_transfer_time() {
        let idx: Vec<u32> = (0..128u32).collect();
        let mut storage = patterned_storage();
        storage.write_u32_slice(0x40000, &idx);
        let prog = ProgramBuilder::new()
            .set_vl(128)
            .vle_index(2, 0x40000)
            .vluxei(1, 2, 0x0)
            .build();
        let cfg = VprocConfig::default();
        let mut engine = Engine::new(cfg, SystemKind::Ideal, bus(), prog);
        let mut cycles = 0u64;
        while !engine.done() {
            engine.tick(None, &mut storage);
            cycles += 1;
            assert!(cycles < 100_000);
        }
        // Index fetch (16 cycles) + gather (16 cycles) both hit the port.
        assert!(cycles >= 32, "index traffic must cost port time: {cycles}");
        assert!(engine.stats().r_util.payload_bytes() > engine.stats().r_util_data.payload_bytes());
    }

    #[test]
    fn next_wake_classifies_frontend_states() {
        let cfg = VprocConfig::default();
        // A pending instruction is observable work.
        let p = ProgramBuilder::new().scalar(11).build();
        let mut engine = Engine::new(cfg, SystemKind::Ideal, bus(), p);
        assert_eq!(engine.next_wake(), Wake::Ready);
        // Issuing the scalar turns the remaining stall into a deadline.
        let mut storage = patterned_storage();
        engine.tick(None, &mut storage);
        assert_eq!(engine.next_wake(), Wake::Sleep(10));
        // A finished engine has nothing to wake for.
        let done = Engine::new(cfg, SystemKind::Ideal, bus(), Program::default());
        assert!(done.done());
        assert_eq!(done.next_wake(), Wake::Idle);
    }

    #[test]
    fn fast_forward_equals_that_many_ticks() {
        // Two identical engines issue a long scalar; one sleeps through the
        // stall in a single fast_forward, the other ticks it out. Every
        // statistic must land bit-identically.
        let p = || ProgramBuilder::new().scalar(50).build();
        let cfg = VprocConfig::default();
        let mut skipper = Engine::new(cfg, SystemKind::Ideal, bus(), p());
        let mut ticker = Engine::new(cfg, SystemKind::Ideal, bus(), p());
        let mut storage = patterned_storage();
        skipper.tick(None, &mut storage);
        ticker.tick(None, &mut storage);
        let span = skipper.next_wake().sleep_ticks().expect("stalled");
        assert_eq!(span, 49);
        skipper.fast_forward(span);
        for _ in 0..span {
            ticker.tick(None, &mut storage);
        }
        assert!(skipper.done() && ticker.done(), "both engines must finish");
        assert_eq!(
            format!("{:?}", skipper.stats()),
            format!("{:?}", ticker.stats()),
            "fast_forward diverged from lockstep ticking"
        );
    }

    #[test]
    fn a_back_pressured_load_parks_and_replays_its_stalls() {
        // Two identical BASE engines issue a strided load (one AR request
        // per element) into leaves whose AR register is held full. Once
        // the leaf-aware wake parks them, one ticks N cycles and the other
        // replays them in one fast_forward: the statistics must match
        // field for field, the AR stalls included.
        let p = || ProgramBuilder::new().set_vl(16).vlse(1, 0x400, 3).build();
        let cfg = VprocConfig::default();
        let mut ticker = Engine::new(cfg, SystemKind::Base, bus(), p());
        let mut parked = Engine::new(cfg, SystemKind::Base, bus(), p());
        let mut leaves = [AxiChannels::new(), AxiChannels::new()];
        for leaf in &mut leaves {
            while leaf.ar.can_push() {
                leaf.ar.push(ArBeat::incr(0, 0, 1, &bus()));
            }
            leaf.end_cycle();
        }
        let mut storage = patterned_storage();
        let mut guard = 0u32;
        while parked.next_wake_on(&leaves[1]) != Wake::Idle {
            ticker.tick(Some(&mut leaves[0]), &mut storage);
            parked.tick(Some(&mut leaves[1]), &mut storage);
            leaves.iter_mut().for_each(AxiChannels::end_cycle);
            guard += 1;
            assert!(guard < 100, "the load never reached the full AR register");
        }
        assert_eq!(ticker.next_wake_on(&leaves[0]), Wake::Idle);
        // Seen without its leaf, an issuing load is work: the two wakes
        // differ only in what the leaf shows.
        assert_eq!(parked.next_wake(), Wake::Ready);
        const N: u64 = 37;
        for _ in 0..N {
            ticker.tick(Some(&mut leaves[0]), &mut storage);
            leaves[0].end_cycle();
        }
        parked.fast_forward(N);
        let (t, s) = (ticker.stats(), parked.stats());
        assert_eq!(s.cycles, t.cycles, "cycles");
        assert!(t.ar_stall_cycles > N, "every held tick stalls AR");
        assert_eq!(s.ar_stall_cycles, t.ar_stall_cycles, "ar_stall_cycles");
        assert_eq!(
            s.scalar_stall_cycles, t.scalar_stall_cycles,
            "scalar_stall_cycles"
        );
        for (name, a, b) in [
            ("r_util", &s.r_util, &t.r_util),
            ("r_util_data", &s.r_util_data, &t.r_util_data),
        ] {
            assert_eq!(a.cycles(), b.cycles(), "{name} samples");
            assert_eq!(
                a.payload_fraction().to_bits(),
                b.payload_fraction().to_bits(),
                "{name}"
            );
        }
        assert_eq!(
            format!("{s:?}"),
            format!("{t:?}"),
            "replay diverged from ticking"
        );
        // The hang-forensics line of a parked engine reads cleanly.
        let state = parked.describe_state();
        assert!(state.contains("load issuing: true"), "{state}");
        assert!(!state.contains("  "), "double space in {state:?}");
        // A beat wakes it on the cycle it becomes visible, not when staged.
        let leaf = &mut leaves[1];
        leaf.r.push(axi_proto::RBeat {
            id: axi_proto::AxiId(0),
            data: BeatBuf::zeroed(bus().data_bytes()),
            payload_bytes: 4,
            last: true,
            resp: Resp::Okay,
        });
        assert_eq!(parked.next_wake_on(leaf), Wake::Idle, "staged beat");
        leaf.end_cycle();
        assert!(parked.leaf_wakes(leaf));
        assert_eq!(parked.next_wake_on(leaf), Wake::Ready, "visible R beat");
        leaf.r.pop();
        leaf.end_cycle();
        assert_eq!(parked.next_wake_on(leaf), Wake::Idle);
        // AR space freed by a pop registers at the cycle boundary.
        leaf.ar.pop();
        assert_eq!(parked.next_wake_on(leaf), Wake::Idle, "same-cycle pop");
        leaf.end_cycle();
        assert_eq!(parked.next_wake_on(leaf), Wake::Ready, "AR space");
    }

    #[test]
    fn fast_forward_replays_ideal_latency() {
        // An IDEAL load spends `ideal_latency` cycles before transferring;
        // the wake is that countdown and skipping it must match ticking.
        let p = || {
            ProgramBuilder::new()
                .set_vl(8)
                .vle(1, 0x400)
                .scalar(40)
                .build()
        };
        let cfg = VprocConfig::default();
        let mut skipper = Engine::new(cfg, SystemKind::Ideal, bus(), p());
        let mut ticker = Engine::new(cfg, SystemKind::Ideal, bus(), p());
        let mut s1 = patterned_storage();
        let mut s2 = patterned_storage();
        let mut guard = 0u32;
        while !(skipper.done() && ticker.done()) {
            if let Wake::Sleep(span) = skipper.next_wake() {
                skipper.fast_forward(span);
                for _ in 0..span {
                    ticker.tick(None, &mut s2);
                }
            } else {
                if !skipper.done() {
                    skipper.tick(None, &mut s1);
                }
                if !ticker.done() {
                    ticker.tick(None, &mut s2);
                }
            }
            guard += 1;
            assert!(guard < 10_000, "lockstep shadow run hung");
        }
        assert_eq!(skipper.regs().read_f32(1, 8), ticker.regs().read_f32(1, 8));
        assert_eq!(
            format!("{:?}", skipper.stats()),
            format!("{:?}", ticker.stats()),
            "fast_forward diverged across load + stall phases"
        );
    }
}
