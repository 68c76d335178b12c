//! Multi-manager AXI multiplexer.
//!
//! The paper notes that AXI-Pack "in principle supports non-core requestors
//! and systems with multiple requestors and endpoints" — packed bursts are
//! ordinary AXI4 transactions, so any ID-remapping interconnect carries
//! them untouched. [`AxiMux`] demonstrates that: it funnels up to
//! [`MAX_FAN_IN`] manager ports ([`MAX_MANAGERS`] on a flat mux) into one
//! subordinate port by prefixing transaction IDs with the manager index
//! (the standard AXI interconnect scheme), routes W beats in AW-acceptance
//! order, and demultiplexes R/B responses by ID prefix. Packed bursts
//! need no special handling whatsoever.
//!
//! # Arbitration policy
//!
//! Both request channels arbitrate **round-robin** through
//! [`simkit::RoundRobin`]: after manager *i* wins a grant, manager *i + 1*
//! holds the highest priority for the next one, so under sustained load
//! every manager receives the same request bandwidth regardless of its
//! port index. A fixed-priority mux would starve high-index managers and
//! skew every contention measurement toward manager 0; the fairness tests
//! below pin the rotating behaviour down. AR and AW rotate independently
//! (reads cannot starve writes or vice versa), W follows AW-acceptance
//! order as AXI4 requires, and R/B are pure demultiplexers (the
//! subordinate already serialized them).
//!
//! # Accounting
//!
//! The mux tracks, per manager, the outstanding read bursts (AR accepted,
//! final R beat not yet returned) and writes awaiting their B response, so
//! a multi-requestor run loop can ask [`AxiMux::manager_quiescent`] when a
//! single requestor has fully drained while its neighbours keep running.
//! It also counts, per manager, granted and lost AR arbitration rounds
//! ([`AxiMux::ar_grants`] / [`AxiMux::ar_lost`]) — the mux-level view of
//! bus contention that the per-engine stall counters complement.
//!
//! # Parking
//!
//! A tick that moves nothing changes no state but `ar_lost` (one lost
//! round per manager showing an AR) and, with a fault plan armed, the
//! storm schedules, which advance once per round with AR or AW demand.
//! What a tick sees changes only when a register stage of one of the
//! mux's bundles runs, so until then every round repeats the last one.
//! An event-driven run loop may therefore skip those rounds and
//! [`AxiMux::replay`] them in one call once such a stage runs;
//! [`AxiMux::parkable`] says when that is exact.

use simkit::fault::{site, FaultSpec, SiteSchedule};
use simkit::RoundRobin;
use std::collections::VecDeque;

use crate::beat::AxiId;
use crate::channels::AxiChannels;

/// Maximum managers a *flat* (non-cascaded) mux supports (2 ID bits).
pub const MAX_MANAGERS: usize = 4;
/// Maximum fan-in of one level of a cascaded mux tree (3 ID-prefix bits).
/// Sized so the per-cycle arbitration scratch stays on the stack.
pub const MAX_FAN_IN: usize = 8;
/// Bits of the ID space left to each manager: the mux prefixes the
/// manager-index bits above them, so manager-local transaction IDs must
/// stay below `1 << LOCAL_ID_BITS`. Engines sitting behind a mux restrict
/// their ID allocators to this width. Cascaded levels stack further
/// prefix bits above this (see [`AxiMux::cascade`]).
pub const LOCAL_ID_BITS: u32 = 6;
/// Total ID bits an [`crate::AxiId`] can carry: the budget every mux
/// tree's stacked prefixes plus the engine-local bits must fit into.
pub const ID_BITS: u32 = 16;

/// Installed grant-delay fault state (see [`AxiMux::install_faults`]).
///
/// Storm countdowns advance only on arbitration rounds where at least one
/// manager wants a grant, so the schedule is keyed on *demand ordinals*,
/// not wall-clock cycles — the event-driven scheduler never skips such a
/// cycle, keeping fault timing bit-identical across scheduler modes.
#[derive(Debug)]
struct MuxFaults {
    ar: SiteSchedule,
    aw: SiteSchedule,
    storm_len: u32,
    ar_storm_left: u32,
    aw_storm_left: u32,
    storms: u64,
    stalled: u64,
    /// Whether the last round had AR or AW demand, which advanced the
    /// storm schedules: the next round would advance them again.
    demand: bool,
}

/// An N-to-1 AXI(-Pack) multiplexer.
///
/// Per cycle it forwards at most one AR and one AW (round-robin across
/// managers — see the [module docs](self) for the policy), one W beat
/// (strictly in AW-acceptance order, as AXI4 requires), and routes back
/// one R and one B beat by ID prefix.
///
/// # Examples
///
/// ```
/// use axi_proto::{ArBeat, AxiChannels, AxiMux, BusConfig};
///
/// let bus = BusConfig::new(256);
/// let mut mux = AxiMux::new(2);
/// let mut managers = vec![AxiChannels::new(), AxiChannels::new()];
/// let mut downstream = AxiChannels::new();
/// assert!(!mux.tick(&mut managers, &mut downstream), "nothing to move");
/// assert!(mux.quiescent());
/// // Manager 1 requests while the downstream AR register is full.
/// managers[1].ar.push(ArBeat::incr(0, 0x40, 1, &bus));
/// managers[1].end_cycle();
/// for _ in 0..2 {
///     downstream.ar.push(ArBeat::incr(0, 0, 1, &bus));
///     downstream.end_cycle();
/// }
/// assert!(!mux.tick(&mut managers, &mut downstream), "back-pressured");
/// assert_eq!(mux.ar_lost(1), 1);
/// // Until a register stage of one of its bundles runs, every round
/// // repeats that one: skip nine and replay them in one call.
/// assert!(mux.parkable());
/// mux.replay(9);
/// assert_eq!(mux.ar_lost(1), 10);
/// ```
#[derive(Debug)]
pub struct AxiMux {
    n: usize,
    /// ID bits below this mux's manager prefix: manager-local IDs must fit
    /// `shift` bits, and the prefix occupies the bits at and above it.
    shift: u32,
    ar_arb: RoundRobin,
    aw_arb: RoundRobin,
    /// W routing: (manager, beats remaining) per accepted AW, in order.
    w_route: VecDeque<(usize, u32)>,
    /// Outstanding read bursts per manager (AR forwarded, last R pending).
    reads_open: Vec<u32>,
    /// Writes per manager awaiting their B response.
    writes_open: Vec<u32>,
    /// AR requests granted per manager.
    ar_grants: Vec<u64>,
    /// Cycles a manager had an AR ready but was not granted (downstream
    /// back-pressure or a lost arbitration round).
    ar_lost: Vec<u64>,
    /// Managers whose AR lost the last round, one bit each: what every
    /// round [`AxiMux::replay`] stands in for adds to `ar_lost`.
    ar_losers: u8,
    /// R beats routed back upstream through this mux — the per-level
    /// occupancy measure the fabric reports aggregate.
    r_routed: u64,
    /// Installed grant-delay storms; `None` (the default) keeps the fault
    /// hooks to one branch per arbitration round.
    faults: Option<MuxFaults>,
}

impl AxiMux {
    /// Creates a flat mux over `n` manager ports whose managers are
    /// engines with [`LOCAL_ID_BITS`]-bit local IDs — the single-level
    /// topology every pre-fabric system uses.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 4`.
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=MAX_MANAGERS).contains(&n),
            "mux supports 1..=4 managers, got {n}"
        );
        Self::cascade(n, LOCAL_ID_BITS)
    }

    /// Creates one level of a cascaded mux tree: `n` manager ports whose
    /// IDs already occupy `shift` bits (engine-local bits plus any
    /// lower-level prefixes). This level stacks its own manager-index
    /// prefix at bit `shift`, so its downstream IDs occupy
    /// `shift + ceil(log2(n))` bits; a parent level is constructed with
    /// that wider shift.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= MAX_FAN_IN` and the prefixed IDs fit the
    /// [`ID_BITS`]-bit carrier.
    pub fn cascade(n: usize, shift: u32) -> Self {
        assert!(
            (1..=MAX_FAN_IN).contains(&n),
            "mux level supports 1..={MAX_FAN_IN} managers, got {n}"
        );
        let prefix_bits = (n.max(2) - 1).ilog2() + 1;
        assert!(
            shift + prefix_bits <= ID_BITS,
            "mux level at shift {shift} with {n} managers overflows the \
             {ID_BITS}-bit ID space"
        );
        AxiMux {
            n,
            shift,
            ar_arb: RoundRobin::new(n),
            aw_arb: RoundRobin::new(n),
            w_route: VecDeque::new(),
            reads_open: vec![0; n],
            writes_open: vec![0; n],
            ar_grants: vec![0; n],
            ar_lost: vec![0; n],
            ar_losers: 0,
            r_routed: 0,
            faults: None,
        }
    }

    /// Installs deterministic grant-delay storms: at splitmix64-scheduled
    /// demand ordinals, the AR (or AW) arbiter withholds every grant for
    /// `spec.grant_storm_len` busy rounds — the interconnect-level fault
    /// that exercises requestor patience without corrupting any data.
    pub fn install_faults(&mut self, spec: &FaultSpec) {
        self.faults = Some(MuxFaults {
            ar: spec.schedule(site::MUX_AR_GRANT, spec.grant_storm_period),
            aw: spec.schedule(site::MUX_AW_GRANT, spec.grant_storm_period),
            storm_len: spec.grant_storm_len,
            ar_storm_left: 0,
            aw_storm_left: 0,
            storms: 0,
            stalled: 0,
            demand: false,
        });
    }

    /// Number of manager ports.
    pub fn managers(&self) -> usize {
        self.n
    }

    /// ID bits below this level's manager prefix (see [`AxiMux::cascade`]).
    pub fn shift(&self) -> u32 {
        self.shift
    }

    // simcheck: hot-path begin -- ID remapping and the per-cycle arbitration
    // tick; the W-route deque is the only queue and it is bounded by the
    // outstanding-write limit, so it reaches steady-state capacity early.

    /// Prefixes a manager-local ID with the manager index above `shift`
    /// bits. Public so fabric plumbing (fault attribution, endpoint-ID
    /// reconstruction) can reproduce the mapping a mux path applies.
    pub fn prefix_id(shift: u32, port: usize, id: AxiId) -> AxiId {
        assert!(
            id.0 >> shift == 0,
            "manager IDs must fit {shift} bits, got {}",
            id.0
        );
        AxiId((port as u16) << shift | id.0)
    }

    /// Splits a downstream ID back into (manager, local ID) at `shift`.
    pub fn split_id(shift: u32, id: AxiId) -> (usize, AxiId) {
        ((id.0 >> shift) as usize, AxiId(id.0 & ((1 << shift) - 1)))
    }

    /// Prefixes a manager-local ID with the manager index.
    fn upstream_id(&self, port: usize, id: AxiId) -> AxiId {
        Self::prefix_id(self.shift, port, id)
    }

    /// Splits a downstream ID back into (manager, local ID).
    fn downstream_id(&self, id: AxiId) -> (usize, AxiId) {
        Self::split_id(self.shift, id)
    }

    /// One cycle of multiplexer work; returns whether any beat moved
    /// (a request granted, a W beat forwarded or a response routed).
    ///
    /// # Panics
    ///
    /// Panics if `managers.len()` differs from the configured port count,
    /// or if a response carries a manager index out of range.
    pub fn tick(&mut self, managers: &mut [AxiChannels], down: &mut AxiChannels) -> bool {
        assert_eq!(managers.len(), self.n, "manager port count mismatch");
        let mut moved = false;
        // AR: round-robin one request. The request vectors live on the
        // stack (at most MAX_FAN_IN ports) — no per-cycle allocation.
        let mut wants = [false; MAX_FAN_IN];
        for (p, m) in managers.iter().enumerate() {
            wants[p] = m.ar.can_pop();
        }
        let wants = &wants[..self.n];
        let mut ar_stormed = false;
        if let Some(f) = self.faults.as_mut() {
            f.demand = wants.iter().any(|w| *w);
            if f.demand {
                if f.ar_storm_left == 0 && f.ar.fires() {
                    f.ar_storm_left = f.storm_len;
                    f.storms += 1;
                }
                if f.ar_storm_left > 0 {
                    f.ar_storm_left -= 1;
                    f.stalled += 1;
                    ar_stormed = true;
                }
            }
        }
        let granted = if down.ar.can_push() && !ar_stormed {
            self.ar_arb.grant(wants)
        } else {
            None
        };
        let mut losers = 0u8;
        for (p, want) in wants.iter().enumerate() {
            if *want && granted != Some(p) {
                self.ar_lost[p] += 1;
                losers |= 1 << p;
            }
        }
        self.ar_losers = losers;
        if let Some(p) = granted {
            let mut ar = managers[p].ar.pop().expect("granted manager has AR");
            ar.id = self.upstream_id(p, ar.id);
            self.reads_open[p] += 1;
            self.ar_grants[p] += 1;
            down.ar.push(ar);
            moved = true;
        }
        // AW: round-robin one request; record the W route.
        {
            let mut wants = [false; MAX_FAN_IN];
            for (p, m) in managers.iter().enumerate() {
                wants[p] = m.aw.can_pop();
            }
            let mut aw_stormed = false;
            if let Some(f) = self.faults.as_mut() {
                let demand = wants[..self.n].iter().any(|w| *w);
                f.demand |= demand;
                if demand {
                    if f.aw_storm_left == 0 && f.aw.fires() {
                        f.aw_storm_left = f.storm_len;
                        f.storms += 1;
                    }
                    if f.aw_storm_left > 0 {
                        f.aw_storm_left -= 1;
                        f.stalled += 1;
                        aw_stormed = true;
                    }
                }
            }
            if !down.aw.can_push() || aw_stormed {
                // fall through: no AW grant this round
            } else if let Some(p) = self.aw_arb.grant(&wants[..self.n]) {
                let mut aw = managers[p].aw.pop().expect("granted manager has AW");
                aw.id = self.upstream_id(p, aw.id);
                self.w_route.push_back((p, aw.beats));
                self.writes_open[p] += 1;
                down.aw.push(aw);
                moved = true;
            }
        }
        // W: strictly in AW order.
        if down.w.can_push() {
            if let Some((p, beats_left)) = self.w_route.front_mut() {
                if let Some(w) = managers[*p].w.pop() {
                    down.w.push(w);
                    *beats_left -= 1;
                    if *beats_left == 0 {
                        self.w_route.pop_front();
                    }
                    moved = true;
                }
            }
        }
        // R: route by ID prefix (peek first so back-pressure propagates).
        if let Some(r) = down.r.peek() {
            let (p, local) = self.downstream_id(r.id);
            assert!(p < self.n, "R beat for unknown manager {p}");
            if managers[p].r.can_push() {
                let mut r = down.r.pop().expect("peeked");
                r.id = local;
                if r.last {
                    debug_assert!(self.reads_open[p] > 0, "last R without open read");
                    self.reads_open[p] = self.reads_open[p].saturating_sub(1);
                }
                self.r_routed += 1;
                managers[p].r.push(r);
                moved = true;
            }
        }
        // B: route by ID prefix.
        if let Some(b) = down.b.peek() {
            let (p, local) = self.downstream_id(b.id);
            assert!(p < self.n, "B beat for unknown manager {p}");
            if managers[p].b.can_push() {
                let mut b = down.b.pop().expect("peeked");
                b.id = local;
                debug_assert!(self.writes_open[p] > 0, "B without open write");
                self.writes_open[p] = self.writes_open[p].saturating_sub(1);
                managers[p].b.push(b);
                moved = true;
            }
        }
        moved
    }

    /// After a [`AxiMux::tick`] that moved nothing: whether the following
    /// rounds may be skipped and later replayed with [`AxiMux::replay`].
    /// True unless a fault plan is armed and the round had AR or AW
    /// demand — its storm schedules advance once per demand round.
    #[inline]
    pub fn parkable(&self) -> bool {
        self.faults.as_ref().is_none_or(|f| !f.demand)
    }

    /// Replays `rounds` skipped rounds in one call: each would have
    /// repeated the last tick, which moved nothing, so each manager that
    /// lost that round loses `rounds` more.
    ///
    /// Valid only while the last tick moved nothing, left the mux
    /// [`AxiMux::parkable`], and no register stage of the mux's port or
    /// downstream bundles has run since: until then every round sees the
    /// same ports.
    #[inline]
    pub fn replay(&mut self, rounds: u64) {
        debug_assert!(self.parkable(), "replayed rounds would advance a storm");
        let mut losers = self.ar_losers;
        while losers != 0 {
            self.ar_lost[losers.trailing_zeros() as usize] += rounds;
            losers &= losers - 1;
        }
    }

    // simcheck: hot-path end

    /// Returns `true` when manager `p` has no outstanding traffic through
    /// the mux: no read burst awaiting its last R beat, no write awaiting
    /// its B response, and no W route still draining.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a valid manager index.
    pub fn manager_quiescent(&self, p: usize) -> bool {
        assert!(p < self.n, "manager {p} out of range");
        self.reads_open[p] == 0
            && self.writes_open[p] == 0
            && !self.w_route.iter().any(|(q, _)| *q == p)
    }

    /// Returns `true` when no manager has outstanding traffic (every read
    /// returned its last beat, every write its B, no W burst mid-route).
    pub fn quiescent(&self) -> bool {
        self.w_route.is_empty()
            && self.reads_open.iter().all(|&r| r == 0)
            && self.writes_open.iter().all(|&w| w == 0)
    }

    /// AR requests granted to manager `p` so far.
    pub fn ar_grants(&self, p: usize) -> u64 {
        self.ar_grants[p]
    }

    /// Cycles manager `p` had an AR ready but was not granted (lost the
    /// arbitration round or the subordinate back-pressured).
    pub fn ar_lost(&self, p: usize) -> u64 {
        self.ar_lost[p]
    }

    /// Rounds lost summed over all managers: the mux's AR grant waits
    /// (see [`AxiMux::ar_lost`]).
    pub fn ar_waits(&self) -> u64 {
        self.ar_lost.iter().sum()
    }

    /// Total AR requests forwarded downstream across all managers.
    pub fn ar_forwarded(&self) -> u64 {
        self.ar_grants.iter().sum()
    }

    /// Total R beats routed back upstream across all managers.
    pub fn r_forwarded(&self) -> u64 {
        self.r_routed
    }

    /// True while an injected grant storm is actively suppressing
    /// arbitration — hang forensics must treat a storming mux as busy
    /// even when no burst is mid-route.
    pub fn storm_active(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.ar_storm_left > 0 || f.aw_storm_left > 0)
    }

    /// Grant-delay storms started by the installed fault plan.
    pub fn grant_storms(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.storms)
    }

    /// Arbitration rounds suppressed while a storm was active.
    pub fn storm_stalls(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.stalled)
    }

    /// One-line state snapshot for hang forensics: per-manager open
    /// transactions, the W-route backlog, and any active grant storm.
    pub fn describe_state(&self) -> String {
        let opens: Vec<String> = (0..self.n)
            .map(|p| format!("m{p}: {}r/{}w", self.reads_open[p], self.writes_open[p]))
            .collect();
        let storm = self
            .faults
            .as_ref()
            .map_or(0, |f| f.ar_storm_left + f.aw_storm_left);
        format!(
            "open [{}], {} W routes pending, storm suppression {} rounds left",
            opens.join(", "),
            self.w_route.len(),
            storm,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beat::{ArBeat, BBeat, BeatBuf, RBeat, Resp, WBeat};
    use crate::config::{BusConfig, ElemSize};

    #[test]
    fn id_mapping_roundtrips() {
        for p in 0..4 {
            for id in [0u16, 1, 33, 63] {
                let up = AxiMux::prefix_id(LOCAL_ID_BITS, p, AxiId(id));
                assert_eq!(AxiMux::split_id(LOCAL_ID_BITS, up), (p, AxiId(id)));
            }
        }
    }

    #[test]
    fn cascaded_prefixes_stack_above_lower_levels() {
        // A level-1 mux at shift 8 prefixes above a level-0 prefix at
        // shift 6: both split back out in reverse order.
        let lvl0 = AxiMux::prefix_id(LOCAL_ID_BITS, 3, AxiId(17));
        let lvl1 = AxiMux::prefix_id(8, 5, lvl0);
        let (p1, rest) = AxiMux::split_id(8, lvl1);
        assert_eq!(p1, 5);
        assert_eq!(AxiMux::split_id(LOCAL_ID_BITS, rest), (3, AxiId(17)));
    }

    #[test]
    fn cascade_levels_report_their_shift() {
        assert_eq!(AxiMux::new(4).shift(), LOCAL_ID_BITS);
        assert_eq!(AxiMux::cascade(8, 9).shift(), 9);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn cascade_rejects_id_space_overflow() {
        let _ = AxiMux::cascade(8, 14);
    }

    #[test]
    #[should_panic(expected = "mux level supports")]
    fn cascade_rejects_excess_fan_in() {
        let _ = AxiMux::cascade(MAX_FAN_IN + 1, LOCAL_ID_BITS);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_manager_id_rejected() {
        let _ = AxiMux::prefix_id(LOCAL_ID_BITS, 0, AxiId(64));
    }

    #[test]
    fn ar_requests_interleave_fairly() {
        let bus = BusConfig::new(256);
        let mut mux = AxiMux::new(2);
        let mut mgrs = vec![AxiChannels::new(), AxiChannels::new()];
        let mut down = AxiChannels::new();
        let mut order = Vec::new();
        let mut sent = [0u64; 2];
        for _ in 0..40 {
            for (p, m) in mgrs.iter_mut().enumerate() {
                if m.ar.can_push() && sent[p] < 8 {
                    m.ar.push(ArBeat::incr(p as u8, sent[p] * 0x40, 1, &bus));
                    sent[p] += 1;
                }
            }
            if let Some(ar) = down.ar.pop() {
                order.push(AxiMux::split_id(LOCAL_ID_BITS, ar.id).0);
            }
            mux.tick(&mut mgrs, &mut down);
            for m in mgrs.iter_mut() {
                m.end_cycle();
            }
            down.end_cycle();
        }
        assert_eq!(order.len(), 16);
        assert_eq!(order.iter().filter(|p| **p == 0).count(), 8);
        // Round-robin: managers alternate when both are ready.
        let alternations = order.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(alternations >= 12, "poor interleave: {order:?}");
        assert_eq!(mux.ar_grants(0), 8);
        assert_eq!(mux.ar_grants(1), 8);
    }

    #[test]
    fn arbitration_rotates_without_index_bias() {
        // Four always-ready managers must each win exactly one grant per
        // four-cycle rotation — the round-robin policy the contention
        // figures depend on (a fixed-priority mux would hand manager 0
        // every grant).
        let bus = BusConfig::new(256);
        let mut mux = AxiMux::new(4);
        let mut mgrs: Vec<AxiChannels> = (0..4).map(|_| AxiChannels::new()).collect();
        let mut down = AxiChannels::new();
        let mut order = Vec::new();
        for cycle in 0..64u64 {
            for (p, m) in mgrs.iter_mut().enumerate() {
                if m.ar.can_push() {
                    m.ar.push(ArBeat::incr(p as u8, cycle * 0x40, 1, &bus));
                }
            }
            if let Some(ar) = down.ar.pop() {
                order.push(AxiMux::split_id(LOCAL_ID_BITS, ar.id).0);
            }
            mux.tick(&mut mgrs, &mut down);
            for m in mgrs.iter_mut() {
                m.end_cycle();
            }
            down.end_cycle();
        }
        assert!(order.len() >= 32, "sustained load must keep granting");
        // Every window of four consecutive grants covers all four managers.
        for w in order.windows(4) {
            let mut seen = [false; 4];
            for &p in w {
                seen[p] = true;
            }
            assert_eq!(seen, [true; 4], "rotation broke: {order:?}");
        }
        let grants: Vec<u64> = (0..4).map(|p| mux.ar_grants(p)).collect();
        let (min, max) = (grants.iter().min().unwrap(), grants.iter().max().unwrap());
        assert!(max - min <= 1, "grant skew by manager index: {grants:?}");
    }

    #[test]
    fn grant_storms_stall_arbitration_but_lose_nothing() {
        let bus = BusConfig::new(256);
        let mut mux = AxiMux::new(2);
        let mut spec = simkit::fault::FaultSpec::silent(11);
        spec.grant_storm_period = 3;
        spec.grant_storm_len = 4;
        mux.install_faults(&spec);
        let mut mgrs = vec![AxiChannels::new(), AxiChannels::new()];
        let mut down = AxiChannels::new();
        let mut granted = 0usize;
        let mut sent = [0u64; 2];
        for _ in 0..400 {
            for (p, m) in mgrs.iter_mut().enumerate() {
                if m.ar.can_push() && sent[p] < 8 {
                    m.ar.push(ArBeat::incr(p as u8, sent[p] * 0x40, 1, &bus));
                    sent[p] += 1;
                }
            }
            if down.ar.pop().is_some() {
                granted += 1;
            }
            mux.tick(&mut mgrs, &mut down);
            for m in mgrs.iter_mut() {
                m.end_cycle();
            }
            down.end_cycle();
            if granted == 16 {
                break;
            }
        }
        assert_eq!(granted, 16, "storms delay grants; they must not drop them");
        assert!(mux.grant_storms() > 0, "a mean-3 storm schedule must fire");
        assert!(
            mux.storm_stalls() >= mux.grant_storms(),
            "each storm suppresses at least one arbitration round"
        );
        assert_eq!(
            mux.ar_grants(0) + mux.ar_grants(1),
            16,
            "per-manager grant accounting survives storms"
        );
    }

    /// Managers and a subordinate around one mux, driven by a seeded
    /// pattern that depends only on the roll and on what the bundles
    /// show, so two rigs in the same state stay in step.
    struct Rig {
        mgrs: Vec<AxiChannels>,
        down: AxiChannels,
        /// Requests the subordinate accepted and has yet to answer.
        reads: VecDeque<AxiId>,
        writes: VecDeque<AxiId>,
    }

    impl Rig {
        fn new(n: usize) -> Self {
            Rig {
                mgrs: (0..n).map(|_| AxiChannels::new()).collect(),
                down: AxiChannels::new(),
                reads: VecDeque::new(),
                writes: VecDeque::new(),
            }
        }

        /// Managers post single-beat reads and writes and drain their
        /// responses at random; the subordinate accepts requests rarely,
        /// so the downstream AR register stays full for long stretches.
        fn drive(&mut self, roll: u64, bus: &BusConfig) {
            let bit = |k: u32| roll >> k & 1 == 1;
            for (p, m) in self.mgrs.iter_mut().enumerate() {
                let k = 8 * p as u32;
                if bit(k) && bit(k + 1) && m.ar.can_push() {
                    m.ar.push(ArBeat::incr(p as u8, 0x40 * p as u64, 1, bus));
                }
                if bit(k + 2) && bit(k + 3) && bit(k + 4) && m.aw.can_push() && m.w.can_push() {
                    m.aw.push(ArBeat::incr(p as u8, 0x40 * p as u64, 1, bus));
                    m.w.push(WBeat::full(vec![p as u8; 32], true));
                }
                if bit(k + 5) {
                    m.r.pop();
                }
                if bit(k + 6) {
                    m.b.pop();
                }
            }
            if roll >> 40 & 7 == 0 {
                if let Some(ar) = self.down.ar.pop() {
                    self.reads.push_back(ar.id);
                }
            }
            if bit(43) {
                if let Some(aw) = self.down.aw.pop() {
                    self.writes.push_back(aw.id);
                }
            }
            if bit(44) {
                self.down.w.pop();
            }
            if bit(45) && self.down.r.can_push() {
                if let Some(id) = self.reads.pop_front() {
                    self.down.r.push(RBeat {
                        id,
                        data: BeatBuf::zeroed(32),
                        payload_bytes: 32,
                        last: true,
                        resp: Resp::Okay,
                    });
                }
            }
            if bit(46) && self.down.b.can_push() {
                if let Some(id) = self.writes.pop_front() {
                    self.down.b.push(BBeat {
                        id,
                        resp: Resp::Okay,
                    });
                }
            }
        }

        /// Whether a register stage of one of the mux's bundles runs at
        /// this cycle's boundary.
        fn handshook(&self) -> bool {
            self.down.handshook() || self.mgrs.iter().any(AxiChannels::handshook)
        }

        fn end_cycle(&mut self) {
            for m in self.mgrs.iter_mut() {
                m.end_cycle();
            }
            self.down.end_cycle();
        }
    }

    #[test]
    fn a_parked_mux_replays_exactly_the_rounds_it_skipped() {
        // One mux ticks every cycle; its twin parks after each tick that
        // moves nothing and replays the skipped rounds once a register
        // stage of one of its bundles runs. After every wake the two must
        // agree on every bit of state, lost rounds included.
        let bus = BusConfig::new(256);
        let (mut ticking, mut parking) = (AxiMux::new(3), AxiMux::new(3));
        let (mut a, mut b) = (Rig::new(3), Rig::new(3));
        let mut roll = 0x9e37_79b9_7f4a_7c15u64;
        let mut parked_since: Option<u64> = None;
        let (mut wakes, mut replayed_losses) = (0u64, 0u64);
        let lost = |m: &AxiMux| (0..3).map(|p| m.ar_lost(p)).collect::<Vec<_>>();
        for cycle in 0..2000u64 {
            roll ^= roll << 13;
            roll ^= roll >> 7;
            roll ^= roll << 17;
            a.drive(roll, &bus);
            b.drive(roll, &bus);
            ticking.tick(&mut a.mgrs, &mut a.down);
            if parked_since.is_none()
                && !parking.tick(&mut b.mgrs, &mut b.down)
                && parking.parkable()
            {
                parked_since = Some(cycle + 1);
            }
            let wake = b.handshook();
            a.end_cycle();
            b.end_cycle();
            if let Some(since) = parked_since.filter(|_| wake) {
                let before: u64 = lost(&parking).iter().sum();
                parking.replay(cycle + 1 - since);
                replayed_losses += lost(&parking).iter().sum::<u64>() - before;
                parked_since = None;
                wakes += 1;
                assert_eq!(lost(&parking), lost(&ticking), "cycle {cycle}: ar_lost");
                assert_eq!(
                    format!("{parking:?}"),
                    format!("{ticking:?}"),
                    "cycle {cycle}: mux state"
                );
            }
        }
        assert!(wakes > 100, "the pattern must park the mux often: {wakes}");
        assert!(
            replayed_losses > 100,
            "few blocked rounds replayed: {replayed_losses}"
        );
        assert!(
            ticking.ar_forwarded() > 50,
            "the pattern must move requests"
        );

        // Storms armed to fire on every demand round: an idle round
        // advances none, so the mux may park it and replay any number.
        let mut spec = simkit::fault::FaultSpec::silent(5);
        spec.grant_storm_period = 1;
        spec.grant_storm_len = 1;
        let (mut stormy, mut plain) = (AxiMux::new(3), AxiMux::new(3));
        stormy.install_faults(&spec);
        let mut rig = Rig::new(3);
        assert!(
            !stormy.tick(&mut rig.mgrs, &mut rig.down),
            "an idle tick moved a beat"
        );
        assert!(stormy.parkable(), "an idle round advances no storm");
        stormy.replay(1000);
        assert_eq!((stormy.grant_storms(), stormy.storm_stalls()), (0, 0));
        assert!(!stormy.storm_active());
        assert_eq!((stormy.ar_forwarded(), stormy.ar_waits()), (0, 0));
        // A visible request is demand, even while back-pressured: its
        // round advances the storm schedule, so the armed mux must tick
        // it; an unarmed mux parks the same round.
        for (port, aw) in [(1, false), (2, true)] {
            let mut rig = Rig::new(3);
            let beat = ArBeat::incr(port as u8, 0x40, 1, &bus);
            if aw {
                rig.mgrs[port].aw.push(beat);
                rig.down.aw.push(ArBeat::incr(0, 0, 1, &bus));
                rig.down.end_cycle();
                rig.down.aw.push(ArBeat::incr(0, 0, 1, &bus));
            } else {
                rig.mgrs[port].ar.push(beat);
                rig.down.ar.push(ArBeat::incr(0, 0, 1, &bus));
                rig.down.end_cycle();
                rig.down.ar.push(ArBeat::incr(0, 0, 1, &bus));
            }
            rig.end_cycle();
            assert!(!plain.tick(&mut rig.mgrs, &mut rig.down), "back-pressured");
            assert!(plain.parkable(), "port {port}: unarmed mux must park");
            for _ in 0..4 {
                assert!(!stormy.tick(&mut rig.mgrs, &mut rig.down), "back-pressured");
                assert!(
                    !stormy.parkable(),
                    "port {port}: armed mux parked a demand round"
                );
            }
        }
        assert!(
            stormy.grant_storms() > 0,
            "demand rounds advance the storms"
        );
        assert_eq!(plain.ar_lost(1), 1, "a blocked round still counts");
    }

    #[test]
    fn w_beats_follow_aw_order() {
        let bus = BusConfig::new(256);
        let mut mux = AxiMux::new(2);
        let mut mgrs = vec![AxiChannels::new(), AxiChannels::new()];
        let mut down = AxiChannels::new();
        // Manager 0 posts a 2-beat write, manager 1 a 1-beat write.
        mgrs[0].aw.push(ArBeat::incr(1, 0x0, 2, &bus));
        mgrs[1].aw.push(ArBeat::incr(2, 0x100, 1, &bus));
        mgrs[0].w.push(WBeat::full(vec![0xAA; 32], false));
        mgrs[1].w.push(WBeat::full(vec![0xBB; 32], true));
        for m in mgrs.iter_mut() {
            m.end_cycle();
        }
        let mut w_data = Vec::new();
        for cycle in 0..20 {
            if cycle == 2 {
                mgrs[0].w.push(WBeat::full(vec![0xAA; 32], true));
            }
            if let Some(w) = down.w.pop() {
                w_data.push(w.data[0]);
            }
            down.aw.pop();
            mux.tick(&mut mgrs, &mut down);
            for m in mgrs.iter_mut() {
                m.end_cycle();
            }
            down.end_cycle();
        }
        // Whichever AW won arbitration first sends ALL its beats first.
        assert_eq!(w_data.len(), 3);
        if w_data[0] == 0xAA {
            assert_eq!(w_data, vec![0xAA, 0xAA, 0xBB]);
        } else {
            assert_eq!(w_data, vec![0xBB, 0xAA, 0xAA]);
        }
        // Both writes still await their B responses.
        assert!(!mux.quiescent());
        assert!(!mux.manager_quiescent(0));
        // Return the Bs; the mux books full quiescence per manager.
        down.b.push(BBeat {
            id: AxiMux::prefix_id(LOCAL_ID_BITS, 0, AxiId(1)),
            resp: Resp::Okay,
        });
        down.end_cycle();
        mux.tick(&mut mgrs, &mut down);
        for m in mgrs.iter_mut() {
            m.end_cycle();
        }
        assert!(mux.manager_quiescent(0));
        assert!(!mux.manager_quiescent(1));
        down.b.push(BBeat {
            id: AxiMux::prefix_id(LOCAL_ID_BITS, 1, AxiId(2)),
            resp: Resp::Okay,
        });
        down.end_cycle();
        mux.tick(&mut mgrs, &mut down);
        assert!(mux.quiescent());
    }

    #[test]
    fn responses_route_back_by_prefix() {
        let mut mux = AxiMux::new(3);
        let mut mgrs = vec![AxiChannels::new(), AxiChannels::new(), AxiChannels::new()];
        let mut down = AxiChannels::new();
        // Open the transactions the responses answer, so the per-manager
        // accounting sees a consistent stream.
        let bus = BusConfig::new(256);
        mgrs[2].ar.push(ArBeat::incr(5, 0x0, 1, &bus));
        mgrs[1].aw.push(ArBeat::incr(9, 0x100, 1, &bus));
        mgrs[1].w.push(WBeat::full(vec![0u8; 32], true));
        for m in mgrs.iter_mut() {
            m.end_cycle();
        }
        for _ in 0..4 {
            mux.tick(&mut mgrs, &mut down);
            down.aw.pop();
            down.ar.pop();
            down.w.pop();
            for m in mgrs.iter_mut() {
                m.end_cycle();
            }
            down.end_cycle();
        }
        down.r.push(RBeat {
            id: AxiMux::prefix_id(LOCAL_ID_BITS, 2, AxiId(5)),
            data: BeatBuf::zeroed(32),
            payload_bytes: 32,
            last: true,
            resp: Resp::Okay,
        });
        down.b.push(BBeat {
            id: AxiMux::prefix_id(LOCAL_ID_BITS, 1, AxiId(9)),
            resp: Resp::Okay,
        });
        down.end_cycle();
        mux.tick(&mut mgrs, &mut down);
        for m in mgrs.iter_mut() {
            m.end_cycle();
        }
        assert_eq!(mgrs[2].r.pop().expect("routed").id, AxiId(5));
        assert_eq!(mgrs[1].b.pop().expect("routed").id, AxiId(9));
        assert!(!mgrs[0].r.can_pop());
        assert!(mux.quiescent());
    }

    #[test]
    fn packed_bursts_pass_through_untouched_except_id() {
        let bus = BusConfig::new(256);
        let mut mux = AxiMux::new(2);
        let mut mgrs = vec![AxiChannels::new(), AxiChannels::new()];
        let mut down = AxiChannels::new();
        let ar = ArBeat::packed_strided(3, 0x40, 16, ElemSize::B4, 7, &bus);
        let user = ar.user;
        mgrs[1].ar.push(ar);
        mgrs[1].end_cycle();
        mux.tick(&mut mgrs, &mut down);
        down.end_cycle();
        let got = down.ar.pop().expect("forwarded");
        assert_eq!(got.user, user, "pack semantics must survive the mux");
        assert_eq!(AxiMux::split_id(LOCAL_ID_BITS, got.id), (1, AxiId(3)));
        // The burst is open until its last R beat returns.
        assert!(!mux.manager_quiescent(1));
        assert!(mux.manager_quiescent(0));
    }
}
