//! The AXI-Pack adapter (paper Fig. 2b): burst demux, bank port mux, and
//! response channel arbitration.

use std::collections::VecDeque;

use axi_proto::{AxiChannels, BBeat, PackMode};
use banked_mem::{BankedMemory, Storage, WordResp};
use simkit::fault::FaultSpec;
use simkit::RoundRobin;

use crate::base::BaseConverter;
use crate::indirect::{IndirectReadConverter, IndirectWriteConverter};
use crate::lane::{ConvId, RetryCtl};
use crate::strided::{StridedReadConverter, StridedWriteConverter};
use crate::CtrlConfig;

/// Which write converter consumes the W beats of an accepted AW burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WConsumer {
    Base,
    Strided,
    Indirect,
}

/// The complete AXI-Pack endpoint: adapter, five converters, and the banked
/// memory behind them.
///
/// Per cycle, call [`Adapter::tick`] with the channel FIFOs, then
/// [`Adapter::end_cycle`]. The tick:
///
/// 1. lets the converters complete zero-strobe writes and plan indirect
///    element requests;
/// 2. accepts at most one AR and one AW burst, demultiplexing by
///    [`PackMode`];
/// 3. routes W beats to write converters in AW acceptance order (the AXI4
///    W-channel ordering rule);
/// 4. arbitrates each free word port that some converter wants
///    round-robin among those converters (the *bank port mux*);
/// 5. arbitrates the single R output among the three read converters, and B
///    among the three write converters.
///
/// At the cycle boundary the banked memory grants and performs accesses,
/// and each response leaving it lands straight in its converter's lane.
#[derive(Debug)]
pub struct Adapter {
    cfg: CtrlConfig,
    mem: BankedMemory,
    base: BaseConverter,
    strided_r: StridedReadConverter,
    strided_w: StridedWriteConverter,
    indirect_r: IndirectReadConverter,
    indirect_w: IndirectWriteConverter,
    /// Per-port arbitration among the converters (bank port mux).
    port_arb: Vec<RoundRobin>,
    r_arb: RoundRobin,
    b_arb: RoundRobin,
    /// W routing: (consumer, beats remaining) per accepted AW, in order.
    w_route: VecDeque<(WConsumer, u32)>,
    /// Adapter-wide transient-retry budget shared by every converter lane
    /// (armed by [`Adapter::install_faults`]; zero otherwise).
    retry: RetryCtl,
    /// Statistics.
    r_beats: u64,
    w_beats: u64,
    word_reads: u64,
    word_writes: u64,
    cycles: u64,
}

/// Outstanding-transaction capacity of the base converter. Sixteen is
/// enough for the AR channel (1 accept/cycle) to stay saturated against the
/// one-cycle bank latency plus arbitration jitter. Public so static
/// checkers (the `simcheck` DRC) can reason about adapter capacity.
pub const BASE_TXNS: usize = 16;
/// Concurrent packed bursts per packed converter (public for the same
/// introspection reason as [`BASE_TXNS`]).
pub const PACKED_BURSTS: usize = 4;

impl Adapter {
    /// Creates the endpoint over a backing store.
    pub fn new(cfg: CtrlConfig, storage: Storage) -> Self {
        let ports = cfg.ports();
        Adapter {
            base: BaseConverter::new(&cfg, BASE_TXNS),
            strided_r: StridedReadConverter::new(&cfg, PACKED_BURSTS),
            strided_w: StridedWriteConverter::new(&cfg, PACKED_BURSTS),
            indirect_r: IndirectReadConverter::new(&cfg, PACKED_BURSTS),
            indirect_w: IndirectWriteConverter::new(&cfg, PACKED_BURSTS),
            mem: BankedMemory::new(cfg.bank, storage),
            port_arb: (0..ports).map(|_| RoundRobin::new(5)).collect(),
            r_arb: RoundRobin::new(3),
            b_arb: RoundRobin::new(3),
            w_route: VecDeque::new(),
            retry: RetryCtl::new(0),
            cfg,
            r_beats: 0,
            w_beats: 0,
            word_reads: 0,
            word_writes: 0,
            cycles: 0,
        }
    }

    /// The adapter's configuration.
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// Installs deterministic fault injection: the banked memory arms its
    /// bank-error and latency-spike schedules, and the converters get a
    /// shared retry budget of `spec.retry_budget` transient re-issues.
    pub fn install_faults(&mut self, spec: &FaultSpec) {
        self.mem.install_faults(spec);
        self.retry = RetryCtl::new(spec.retry_budget);
    }

    // simcheck: hot-path begin -- the controller's per-cycle tick;
    // responses land in the converters' lanes at the cycle boundary, and
    // arbitration works on port and lane masks.

    /// One simulation cycle of adapter work against the channel FIFOs.
    pub fn tick(&mut self, ports: &mut AxiChannels) {
        self.cycles += 1;
        // 1. Internal per-cycle work.
        self.base.drain_local_acks();
        self.strided_w.drain_local_acks();
        self.indirect_w.drain_local_acks();
        self.indirect_r.tick();
        self.indirect_w.tick();

        // 2. Accept one AR.
        if let Some(ar) = ports.ar.peek() {
            let accepted = match ar.pack_mode() {
                None => {
                    if self.base.can_accept_read() {
                        self.base.accept_read(ar);
                        true
                    } else {
                        false
                    }
                }
                Some(PackMode::Strided { .. }) => {
                    if self.strided_r.can_accept() {
                        self.strided_r.accept(ar);
                        true
                    } else {
                        false
                    }
                }
                Some(PackMode::Indirect { .. }) => {
                    if self.indirect_r.can_accept() {
                        self.indirect_r.accept(ar);
                        true
                    } else {
                        false
                    }
                }
            };
            if accepted {
                ports.ar.pop().expect("peeked");
            }
        }
        // 2b. Accept one AW.
        if let Some(aw) = ports.aw.peek() {
            let beats = aw.beats;
            let consumer = match aw.pack_mode() {
                None => self.base.can_accept_write().then(|| {
                    self.base.accept_write(aw);
                    WConsumer::Base
                }),
                Some(PackMode::Strided { .. }) => self.strided_w.can_accept().then(|| {
                    self.strided_w.accept(aw);
                    WConsumer::Strided
                }),
                Some(PackMode::Indirect { .. }) => self.indirect_w.can_accept().then(|| {
                    self.indirect_w.accept(aw);
                    WConsumer::Indirect
                }),
            };
            if let Some(c) = consumer {
                self.w_route.push_back((c, beats));
                ports.aw.pop().expect("peeked");
            }
        }
        // 3. Route one W beat in AW order.
        if let Some((consumer, beats_left)) = self.w_route.front_mut() {
            let ready = match consumer {
                WConsumer::Base => true, // base buffers internally per txn
                WConsumer::Strided => true,
                WConsumer::Indirect => self.indirect_w.needs_w(),
            };
            if ready {
                if let Some(w) = ports.w.pop() {
                    match consumer {
                        WConsumer::Base => self.base.push_w(&w),
                        WConsumer::Strided => self.strided_w.push_w(&w),
                        WConsumer::Indirect => self.indirect_w.push_w(w),
                    }
                    self.w_beats += 1;
                    *beats_left -= 1;
                    if *beats_left == 0 {
                        self.w_route.pop_front();
                    }
                }
            }
        }
        // 4. Bank port mux: only the free ports some converter wants are
        // arbitrated, each among the converters wanting it. Issuing on a
        // port changes only that port's lane bits, so the masks read once
        // here hold for every later port.
        let wants = [
            self.base.want_mask(),
            self.strided_r.want_mask(),
            self.strided_w.want_mask(),
            self.indirect_r.want_mask(),
            self.indirect_w.want_mask(),
        ];
        let mut todo = self.mem.free_ports() & wants.iter().fold(0, |m, w| m | w);
        while todo != 0 {
            let p = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let contenders = wants
                .iter()
                .enumerate()
                .fold(0, |m, (c, w)| m | (w >> p & 1) << c);
            let winner = self.port_arb[p]
                .grant_mask(contenders)
                .expect("a wanted port has a contender");
            let req = match winner {
                0 => self.base.pop_request(p),
                1 => self.strided_r.pop_request(p),
                2 => self.strided_w.pop_request(p),
                3 => self.indirect_r.pop_request(p),
                4 => self.indirect_w.pop_request(p),
                _ => unreachable!(),
            }
            .expect("a wanted port has a request");
            match req.op {
                banked_mem::WordOp::Read => self.word_reads += 1,
                banked_mem::WordOp::Write { .. } => self.word_writes += 1,
            }
            assert!(self.mem.try_issue(req), "the port was free");
        }
        // 5. R output arbitration: one beat per cycle.
        if ports.r.can_push() {
            let avail = [
                self.base.r_ready(),
                self.strided_r.r_ready(),
                self.indirect_r.r_ready(),
            ];
            if let Some(w) = self.r_arb.grant(&avail) {
                let beat = match w {
                    0 => self.base.pop_r(),
                    1 => self.strided_r.pop_r(),
                    2 => self.indirect_r.pop_r(),
                    _ => unreachable!(),
                }
                .expect("readiness was probed");
                self.r_beats += 1;
                ports.r.push(beat);
            }
        }
        // 5b. B output arbitration.
        if ports.b.can_push() {
            let avail = [
                self.base.has_b(),
                self.strided_w.has_b(),
                self.indirect_w.has_b(),
            ];
            if let Some(w) = self.b_arb.grant(&avail) {
                let (id, resp) = match w {
                    0 => self.base.pop_b(),
                    1 => self.strided_w.pop_b(),
                    2 => self.indirect_w.pop_b(),
                    _ => unreachable!(),
                }
                .expect("readiness was probed");
                ports.b.push(BBeat { id, resp });
            }
        }
    }

    /// The cycle boundary; call once per cycle after [`Adapter::tick`].
    /// The banked memory grants and performs this cycle's accesses, and
    /// every response leaving it lands in its converter's lane at once —
    /// a slave-faulted one re-queued for retry there.
    pub fn end_cycle(&mut self) {
        let Adapter {
            mem,
            base,
            strided_r,
            strided_w,
            indirect_r,
            indirect_w,
            retry,
            ..
        } = self;
        mem.end_cycle_with(|resp: WordResp| match ConvId::from_tag(resp.tag) {
            ConvId::Base => base.deliver(resp, retry),
            ConvId::StridedR => strided_r.deliver(resp, retry),
            ConvId::StridedW => strided_w.deliver(resp, retry),
            ConvId::IndirRIdx | ConvId::IndirRElem => indirect_r.deliver(resp, retry),
            ConvId::IndirWIdx | ConvId::IndirWElem => indirect_w.deliver(resp, retry),
        });
    }

    // simcheck: hot-path end

    /// Returns `true` when the adapter, converters and memory are all idle.
    pub fn quiescent(&self) -> bool {
        self.base.idle()
            && self.strided_r.idle()
            && self.strided_w.idle()
            && self.indirect_r.idle()
            && self.indirect_w.idle()
            && self.w_route.is_empty()
            && self.mem.quiescent()
    }

    /// Replays the bookkeeping of `span` idle ticks in one call.
    ///
    /// A quiescent adapter's [`Adapter::tick`] + [`Adapter::end_cycle`]
    /// changes nothing but `cycles`; the event-driven run loops call this
    /// when they fast-forward so the adapter's cycle statistic stays
    /// bit-identical to the lockstep oracle.
    #[inline]
    pub fn skip_idle(&mut self, span: u64) {
        debug_assert!(self.quiescent(), "skipping a non-quiescent adapter");
        self.cycles += span;
    }

    /// The memory's backing store.
    pub fn storage(&self) -> &Storage {
        self.mem.storage()
    }

    /// Mutable access to the backing store (workload setup).
    pub fn storage_mut(&mut self) -> &mut Storage {
        self.mem.storage_mut()
    }

    /// Consumes the adapter, returning the backing store.
    pub fn into_storage(self) -> Storage {
        self.mem.into_storage()
    }

    /// Total R beats emitted.
    pub fn r_beats(&self) -> u64 {
        self.r_beats
    }

    /// Total W beats consumed.
    pub fn w_beats(&self) -> u64 {
        self.w_beats
    }

    /// Total word reads issued to the banks.
    pub fn word_reads(&self) -> u64 {
        self.word_reads
    }

    /// Total word writes issued to the banks.
    pub fn word_writes(&self) -> u64 {
        self.word_writes
    }

    /// Cumulative bank-conflict serialization events in the memory.
    pub fn bank_conflicts(&self) -> u64 {
        self.mem.conflict_stall_events()
    }

    /// Total faults injected by the memory (bank errors, decode errors and
    /// latency-spike stalls count separately; this sums the error classes).
    pub fn injected_faults(&self) -> u64 {
        self.mem.injected_faults() + self.mem.decode_faults()
    }

    /// Transient retries spent from the adapter-wide budget.
    pub fn fault_retries(&self) -> u64 {
        self.retry.spent()
    }

    /// The configured transient-retry budget (0 when no faults installed).
    pub fn retry_budget(&self) -> u32 {
        self.retry.budget()
    }

    /// The first fault recovery could not absorb, if any:
    /// `(word_addr, is_write, fault)`.
    pub fn first_surfaced_fault(&self) -> Option<(u64, bool, banked_mem::WordFault)> {
        self.retry.first_surfaced()
    }

    /// One-line state snapshot for hang forensics: which converters are
    /// mid-burst, how many W-route entries are pending, the retry budget,
    /// and what the banked memory reports.
    pub fn describe_state(&self) -> String {
        let mut busy = Vec::new();
        if !self.base.idle() {
            busy.push("base");
        }
        if !self.strided_r.idle() {
            busy.push("strided-r");
        }
        if !self.strided_w.idle() {
            busy.push("strided-w");
        }
        if !self.indirect_r.idle() {
            busy.push("indirect-r");
        }
        if !self.indirect_w.idle() {
            busy.push("indirect-w");
        }
        format!(
            "busy converters [{}], {} W routes pending, retries {}/{}; mem: {}",
            busy.join(", "),
            self.w_route.len(),
            self.retry.spent(),
            self.retry.budget(),
            self.mem.describe_state(),
        )
    }

    /// Cycles ticked so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_proto::{ArBeat, BusConfig, ElemSize, IdxSize, RBeat, WBeat};
    use banked_mem::BankConfig;

    fn mk() -> (Adapter, AxiChannels) {
        let cfg = CtrlConfig::new(BusConfig::new(256), BankConfig::default(), 4);
        let mut storage = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            storage.write_u32(w * 4, 0x5000_0000 + w as u32);
        }
        (Adapter::new(cfg, storage), AxiChannels::new())
    }

    fn step(adapter: &mut Adapter, ports: &mut AxiChannels) {
        adapter.tick(ports);
        adapter.end_cycle();
        ports.end_cycle();
    }

    fn run_until_quiescent(
        adapter: &mut Adapter,
        ports: &mut AxiChannels,
        max: usize,
    ) -> Vec<RBeat> {
        let mut beats = Vec::new();
        for _ in 0..max {
            if let Some(r) = ports.r.pop() {
                beats.push(r);
            }
            step(adapter, ports);
            if adapter.quiescent() && ports.is_empty() {
                return beats;
            }
        }
        panic!("adapter did not quiesce in {max} cycles");
    }

    #[test]
    fn plain_axi4_burst_roundtrips() {
        let (mut adapter, mut ports) = mk();
        let bus = BusConfig::new(256);
        ports.ar.push(ArBeat::incr(0, 0x100, 4, &bus));
        let beats = run_until_quiescent(&mut adapter, &mut ports, 100);
        assert_eq!(beats.len(), 4);
        assert!(beats[3].last);
        for (b, beat) in beats.iter().enumerate() {
            for k in 0..8 {
                let got = u32::from_le_bytes(beat.data[k * 4..k * 4 + 4].try_into().unwrap());
                assert_eq!(got, 0x5000_0000 + 0x40 + (b * 8 + k) as u32);
            }
        }
    }

    #[test]
    fn strided_and_indirect_bursts_coexist() {
        let (mut adapter, mut ports) = mk();
        let bus = BusConfig::new(256);
        // Plant an index array.
        adapter
            .storage_mut()
            .write_u32_slice(0x8000, &[5, 3, 8, 13, 21, 34, 55, 89]);
        ports
            .ar
            .push(ArBeat::packed_strided(1, 0x0, 8, ElemSize::B4, 4, &bus));
        ports.ar.end_cycle(); // make room for the second AR
        ports.ar.push(ArBeat::packed_indirect(
            2,
            0x8000,
            8,
            ElemSize::B4,
            IdxSize::B4,
            0x0,
            &bus,
        ));
        let beats = run_until_quiescent(&mut adapter, &mut ports, 300);
        assert_eq!(beats.len(), 2);
        let strided = beats.iter().find(|b| b.id.0 == 1).expect("strided beat");
        let indirect = beats.iter().find(|b| b.id.0 == 2).expect("indirect beat");
        for k in 0..8 {
            let s = u32::from_le_bytes(strided.data[k * 4..k * 4 + 4].try_into().unwrap());
            assert_eq!(s, 0x5000_0000 + (k * 4) as u32);
        }
        let idx = [5u32, 3, 8, 13, 21, 34, 55, 89];
        for (k, &i) in idx.iter().enumerate() {
            let v = u32::from_le_bytes(indirect.data[k * 4..k * 4 + 4].try_into().unwrap());
            assert_eq!(v, 0x5000_0000 + i);
        }
    }

    #[test]
    fn packed_write_then_plain_read_sees_new_data() {
        let (mut adapter, mut ports) = mk();
        let bus = BusConfig::new(256);
        ports
            .aw
            .push(ArBeat::packed_strided(3, 0x200, 8, ElemSize::B4, 2, &bus));
        let mut wdata = Vec::new();
        for e in 0..8u32 {
            wdata.extend_from_slice(&(0xEE00_0000 + e).to_le_bytes());
        }
        ports.w.push(WBeat::full(wdata, true));
        let mut got_b = false;
        for _ in 0..200 {
            if ports.b.pop().is_some() {
                got_b = true;
            }
            step(&mut adapter, &mut ports);
            if got_b && adapter.quiescent() {
                break;
            }
        }
        assert!(got_b, "write response missing");
        for e in 0..8u64 {
            assert_eq!(
                adapter.storage().read_u32(0x200 + e * 8),
                0xEE00_0000 + e as u32
            );
        }
    }

    #[test]
    fn narrow_reads_pipeline_at_one_per_cycle() {
        let (mut adapter, mut ports) = mk();
        // Feed 32 narrow reads, one per cycle; measure total latency.
        let mut pushed = 0u64;
        let mut beats = 0u64;
        let mut cycles = 0u64;
        while beats < 32 && cycles < 300 {
            if pushed < 32 && ports.ar.can_push() {
                ports
                    .ar
                    .push(ArBeat::narrow(0, 0x1000 + pushed * 20, ElemSize::B4));
                pushed += 1;
            }
            if let Some(r) = ports.r.pop() {
                assert_eq!(r.payload_bytes, 4);
                beats += 1;
            }
            step(&mut adapter, &mut ports);
            cycles += 1;
        }
        assert_eq!(beats, 32);
        assert!(
            cycles <= 32 + 16,
            "narrow stream should pipeline at ~1/cycle, took {cycles}"
        );
    }

    #[test]
    fn r_channel_interleaves_fairly_under_contention() {
        let (mut adapter, mut ports) = mk();
        let bus = BusConfig::new(256);
        adapter
            .storage_mut()
            .write_u32_slice(0x8000, &(0..64u32).collect::<Vec<_>>());
        ports
            .ar
            .push(ArBeat::packed_strided(1, 0x0, 64, ElemSize::B4, 1, &bus));
        ports.ar.end_cycle();
        ports.ar.push(ArBeat::packed_indirect(
            2,
            0x8000,
            64,
            ElemSize::B4,
            IdxSize::B4,
            0x0,
            &bus,
        ));
        let beats = run_until_quiescent(&mut adapter, &mut ports, 500);
        assert_eq!(beats.len(), 16);
        assert_eq!(beats.iter().filter(|b| b.id.0 == 1).count(), 8);
        assert_eq!(beats.iter().filter(|b| b.id.0 == 2).count(), 8);
    }

    #[test]
    fn plain_and_packed_reads_drain_their_beats() {
        let (mut adapter, mut ports) = mk();
        let bus = BusConfig::new(256);
        ports.ar.push(ArBeat::incr(0, 0, 4, &bus));
        ports.ar.end_cycle();
        ports
            .ar
            .push(ArBeat::packed_strided(1, 0, 64, ElemSize::B4, 2, &bus));
        let beats = run_until_quiescent(&mut adapter, &mut ports, 1000);
        assert_eq!(beats.iter().filter(|b| b.id.0 == 0).count(), 4);
        assert_eq!(beats.iter().filter(|b| b.id.0 == 1).count(), 8);
        assert_eq!(beats.len(), 12);
    }
}
