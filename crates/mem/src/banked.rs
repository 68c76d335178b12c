//! Conflict-accurate banked memory endpoint.
//!
//! The paper's near-memory SRAM (§III-D): *m* single-port banks whose
//! conflict behaviour under strided and random access produces the
//! utilization curves of Fig. 5a/5b.

use axi_proto::Addr;
use simkit::fault::{site, FaultSpec, SiteSchedule};
use simkit::RoundRobin;

use crate::map::BankMap;
use crate::storage::Storage;

/// Maximum bank word width in bytes — the fixed capacity of [`WordBuf`].
/// The paper's banks are 32 bit; 16 bytes leaves headroom for wide-word
/// experiments without ever heap-allocating word data.
pub const MAX_WORD_BYTES: usize = 16;

/// Inline payload of one bank word access.
///
/// Word requests and responses cross the bank port every cycle on every
/// lane; carrying their data in a fixed-capacity inline buffer
/// ([`simkit::InlineBuf`]) instead of a `Vec<u8>` keeps the per-cycle
/// path allocation-free. The visible length equals the configured bank
/// word width.
pub type WordBuf = simkit::InlineBuf<MAX_WORD_BYTES>;

/// Configuration of a [`BankedMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Number of interleaved banks (the paper sweeps 8–32, default 17).
    pub banks: usize,
    /// Bank word width in bytes (the paper uses 32-bit banks).
    pub word_bytes: usize,
    /// Bank access latency in cycles.
    pub latency: usize,
    /// Number of word-access ports (n = bus bytes / word bytes).
    pub ports: usize,
    /// If `true`, model an ideal conflict-free memory: every port request is
    /// granted every cycle (the "ideal" series of Fig. 5a).
    pub conflict_free: bool,
    /// Row-buffer capacity per bank, in bank words. `0` (the default)
    /// disables the row-buffer model entirely — the paper's on-chip SRAM
    /// banks have no notion of an open row, and every pre-fabric timing
    /// result depends on that. Off-chip DRAM-ish channels set this
    /// nonzero: accesses whose bank row matches the open row proceed at
    /// [`BankConfig::latency`] (a row hit), while a differing row first
    /// pays [`BankConfig::row_miss_penalty`] activation cycles.
    pub row_words: usize,
    /// Extra grant-stall cycles a row miss charges before the access can
    /// enter the bank pipeline (precharge + activate). Ignored while
    /// [`BankConfig::row_words`] is zero.
    pub row_miss_penalty: usize,
    /// If `false`, write accesses keep their full timing (bank occupancy,
    /// acks) but do not modify the backing store. Used by the system
    /// simulation, where the engine's eager-functional execution is the
    /// single source of truth for memory contents — otherwise a delayed
    /// timed write could land *after* a younger instruction's eager write
    /// to the same address and corrupt it.
    pub commit_writes: bool,
}

impl Default for BankConfig {
    /// The paper's evaluation system: 17 banks × 32 bit, 8 ports.
    fn default() -> Self {
        BankConfig {
            banks: 17,
            word_bytes: 4,
            latency: 1,
            ports: 8,
            conflict_free: false,
            commit_writes: true,
            row_words: 0,
            row_miss_penalty: 0,
        }
    }
}

/// Operation of one word access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordOp {
    /// Read one word.
    Read,
    /// Write `data` under byte-enable `strb` (bit *i* enables byte *i*).
    Write {
        /// Word data, `word_bytes` long.
        data: WordBuf,
        /// Byte-enable mask.
        strb: u32,
    },
}

/// One word access presented at a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordReq {
    /// Issuing port (0..ports).
    pub port: usize,
    /// Word-aligned byte address.
    pub word_addr: Addr,
    /// Read or write.
    pub op: WordOp,
    /// Opaque requestor tag, returned with the response.
    pub tag: u64,
}

/// Failure class of a word access, mapping onto AXI response codes at the
/// adapter boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordFault {
    /// The bank failed the access (injected transient or persistent bank
    /// error → SLVERR upstream). Retrying the access may succeed.
    Slave,
    /// The address decodes to no storage (past the end of the backing
    /// store → DECERR upstream). Retrying can never succeed.
    Decode,
}

/// A completed word access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordResp {
    /// Port the request was issued on.
    pub port: usize,
    /// Word-aligned byte address.
    pub word_addr: Addr,
    /// Word data for reads; the written data echoed back for writes.
    /// Zeroed for faulted reads.
    pub data: WordBuf,
    /// `true` for writes (an ack), `false` for reads.
    pub is_write: bool,
    /// The requestor tag.
    pub tag: u64,
    /// `Some` when the access failed: a faulted read returns no data and a
    /// faulted write does **not** commit, so a successful retry converges
    /// on exactly the fault-free result.
    pub fault: Option<WordFault>,
    /// Byte-enable strobe of the original request (0 for reads), echoed
    /// back so a faulted write can be re-issued verbatim by the retry
    /// machinery.
    pub strb: u32,
}

/// Fault-injection state for one [`BankedMemory`]: the per-site schedules
/// expanded from a [`FaultSpec`]. All decisions are keyed on access/grant
/// ordinals, never cycles, so injected runs replay identically under
/// event-driven and lockstep scheduling.
#[derive(Debug, Clone)]
struct BankFaults {
    /// Transient access errors: consulted once per word access, when its
    /// bank grants it.
    access: SiteSchedule,
    /// Latency spikes: consulted once per grant round with pending work.
    delay: SiteSchedule,
    delay_len: u32,
    /// Remaining stalled grant rounds of the current spike.
    spike_left: u32,
    /// Persistently-failing bank: every access it serves from
    /// `persistent_from` (an access ordinal) onward faults.
    persistent_bank: Option<usize>,
    persistent_from: u64,
    /// Total faults injected (transient + persistent).
    injected: u64,
    /// Grant rounds stalled by latency spikes.
    spike_stalls: u64,
}

/// A port register's request with its bank and, under the row-buffer
/// model, its row — decoded once when the request is presented, not on
/// every grant round it waits through.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: WordReq,
    bank: usize,
    /// Row-buffer row (`0` while the row-buffer model is off).
    row: u64,
}

impl Pending {
    /// The contents of a port register that holds no request; only the
    /// registers whose bit is set in the memory's `occupied` mask are read.
    const EMPTY: Pending = Pending {
        req: WordReq {
            port: 0,
            word_addr: 0,
            op: WordOp::Read,
            tag: 0,
        },
        bank: 0,
        row: 0,
    };
}

/// A banked, word-interleaved memory with exact conflict modeling.
///
/// Each cycle:
///
/// 1. the requestor fills free port registers via [`BankedMemory::try_issue`];
/// 2. [`BankedMemory::end_cycle_with`] arbitrates — every bank grants at
///    most one contending port (round-robin), banks in ascending order —
///    and performs each granted access against the [`Storage`] at once.
///    Its [`WordResp`] leaves `latency − 1` cycle boundaries later (at the
///    same boundary for the paper's single-cycle banks).
///
/// Ports hold one pending request each; a port blocked by a bank conflict
/// back-pressures its requestor, which is exactly how throughput is lost in
/// the paper's Fig. 5a/5b sweeps.
///
/// Because all banks share one latency and a port only frees after its
/// grant, responses return to each port in issue order, and the responses
/// leaving at one boundary do so in ascending bank order.
#[derive(Debug)]
pub struct BankedMemory {
    cfg: BankConfig,
    map: BankMap,
    storage: Storage,
    /// One request register per port; only the registers whose bit is set
    /// in `occupied` hold a live request.
    pending: Vec<Pending>,
    /// Occupied port registers, one bit per port: the port checks and the
    /// grant round read this mask instead of scanning the registers.
    occupied: u32,
    /// Every port's bit.
    all_ports: u32,
    /// Requests accepted whose responses have not left yet — port
    /// registers plus the delay line — so quiescence is one compare.
    busy: usize,
    /// Per-bank arbiter across ports.
    arbs: Vec<RoundRobin>,
    /// Grant-round request masks, one bit per port, one mask per bank.
    /// Only contended banks' entries are set, and each is cleared as its
    /// bank is visited, so a round never touches an idle bank.
    wants: Vec<u32>,
    /// Banks with at least one contender this round, one bit per bank:
    /// the round visits them — and so performs its accesses — in
    /// ascending bank order.
    contended: Vec<u64>,
    /// The bank latency past the grant: a ring of `latency − 1` response
    /// groups, one per cycle boundary, `delay_head` the oldest. Each group
    /// keeps its `ports`-response capacity and is refilled as it drains,
    /// so the line never allocates. Empty at latency 1.
    delay: Vec<Vec<WordResp>>,
    delay_head: usize,
    /// Open row per bank (row-buffer model; unused while
    /// `cfg.row_words == 0`).
    open_rows: Vec<Option<u64>>,
    /// Remaining activation-stall cycles per bank after a row miss.
    row_stall: Vec<usize>,
    /// Statistics.
    total_accesses: u64,
    conflict_stall_events: u64,
    row_hits: u64,
    row_misses: u64,
    /// Installed fault-injection schedules; `None` (the default) keeps
    /// every hook to a single branch on the fault-free hot path.
    faults: Option<BankFaults>,
    /// Out-of-window accesses that raised [`WordFault::Decode`] (counted
    /// whether or not a fault plan is installed).
    decode_faults: u64,
}

impl BankedMemory {
    /// Creates a banked memory over the given backing store.
    ///
    /// # Panics
    ///
    /// Panics on a zero port count or invalid [`BankMap`] parameters.
    pub fn new(cfg: BankConfig, storage: Storage) -> Self {
        assert!(cfg.ports > 0, "need at least one port");
        assert!(
            cfg.ports <= 32,
            "the grant-phase port masks are 32 bits wide"
        );
        assert!(
            cfg.word_bytes <= MAX_WORD_BYTES,
            "bank words of {} B exceed the {MAX_WORD_BYTES}-B inline word buffer",
            cfg.word_bytes
        );
        let map = BankMap::new(cfg.banks, cfg.word_bytes);
        BankedMemory {
            map,
            storage,
            pending: vec![Pending::EMPTY; cfg.ports],
            occupied: 0,
            all_ports: u32::MAX >> (32 - cfg.ports),
            busy: 0,
            arbs: (0..cfg.banks).map(|_| RoundRobin::new(cfg.ports)).collect(),
            wants: vec![0; cfg.banks],
            contended: vec![0; cfg.banks.div_ceil(64)],
            delay: (1..cfg.latency.max(1))
                .map(|_| Vec::with_capacity(cfg.ports))
                .collect(),
            delay_head: 0,
            open_rows: vec![None; cfg.banks],
            row_stall: vec![0; cfg.banks],
            cfg,
            total_accesses: 0,
            conflict_stall_events: 0,
            row_hits: 0,
            row_misses: 0,
            faults: None,
            decode_faults: 0,
        }
    }

    /// Installs fault-injection schedules derived from `spec`. The
    /// persistently-failing bank (if enabled) and its onset ordinal are
    /// drawn deterministically from the spec's seed.
    pub fn install_faults(&mut self, spec: &FaultSpec) {
        let mut persistent = spec.schedule(site::BANK_PERSISTENT, 0);
        let (persistent_bank, persistent_from) = if spec.persistent_bank {
            (
                Some((persistent.draw() % self.cfg.banks as u64) as usize),
                1 + persistent.draw() % 4096,
            )
        } else {
            (None, 0)
        };
        self.faults = Some(BankFaults {
            access: spec.schedule(site::BANK_ACCESS, spec.bank_error_period),
            delay: spec.schedule(site::BANK_DELAY, spec.bank_delay_period),
            delay_len: spec.bank_delay_len,
            spike_left: 0,
            persistent_bank,
            persistent_from,
            injected: 0,
            spike_stalls: 0,
        });
    }

    // simcheck: hot-path begin -- per-cycle issue, arbitration and access;
    // the grant masks and the delay line's groups are pre-sized and keep
    // their capacity across cycles.

    /// Returns `true` if `port` can accept a request this cycle.
    #[inline]
    pub fn port_free(&self, port: usize) -> bool {
        self.occupied >> port & 1 == 0
    }

    /// The ports that can accept a request this cycle, one bit per port.
    #[inline]
    pub fn free_ports(&self) -> u32 {
        !self.occupied & self.all_ports
    }

    /// Presents a request at its port; returns `false` (and drops nothing —
    /// the caller retries) if the port still holds an ungranted request.
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range or the address is not
    /// word-aligned.
    pub fn try_issue(&mut self, req: WordReq) -> bool {
        assert!(req.port < self.cfg.ports, "port {} out of range", req.port);
        // `BankMap::new` guarantees a power-of-two word width.
        assert!(
            req.word_addr & (self.cfg.word_bytes as Addr - 1) == 0,
            "word address 0x{:x} not aligned to {} B",
            req.word_addr,
            self.cfg.word_bytes
        );
        let port = req.port;
        if !self.port_free(port) {
            return false;
        }
        let row = match self.cfg.row_words {
            0 => 0,
            words => self.map.row_of(req.word_addr) / words as u64,
        };
        self.pending[port] = Pending {
            req,
            bank: self.map.bank_of(req.word_addr),
            row,
        };
        self.occupied |= 1 << port;
        self.busy += 1;
        true
    }

    /// Arbitrates, performs the granted accesses, and returns the
    /// responses leaving this cycle (any number of ports may complete in
    /// the same cycle).
    ///
    /// Allocates the response vector; per-cycle callers use
    /// [`BankedMemory::end_cycle_with`], which hands each response to a
    /// sink instead.
    pub fn end_cycle(&mut self) -> Vec<WordResp> {
        // simcheck: allow(alloc) -- convenience wrapper; per-cycle run loops call `end_cycle_with`
        let mut responses = Vec::new();
        self.end_cycle_with(|resp| responses.push(resp));
        responses
    }

    /// The cycle boundary: hands every response leaving this cycle to
    /// `sink`, in ascending bank order (port order for a conflict-free
    /// memory).
    ///
    /// Responses granted `latency − 1` boundaries ago leave first. Then
    /// every contended bank, in ascending order, grants one port and
    /// performs the access at once: a latency-1 response goes straight
    /// to `sink`, a longer one waits in the delay line. The grant order
    /// fixes the access ordinals the fault sites key on.
    pub fn end_cycle_with(&mut self, mut sink: impl FnMut(WordResp)) {
        let head = self.delay_head;
        if let Some(group) = self.delay.get_mut(head) {
            self.busy -= group.len();
            for resp in group.drain(..) {
                sink(resp);
            }
        }
        if self.cfg.conflict_free {
            // Ideal memory: every port's request is accepted every cycle
            // and served after the configured latency, regardless of
            // banks.
            let mut ports = std::mem::take(&mut self.occupied);
            while ports != 0 {
                let p = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let Pending { req, bank, .. } = self.pending[p];
                let resp = self.access(bank, req);
                self.land(resp, &mut sink);
            }
        } else {
            self.grant_round(&mut sink);
        }
        if !self.delay.is_empty() {
            self.delay_head = if head + 1 == self.delay.len() {
                0
            } else {
                head + 1
            };
        }
    }

    /// One grant round of the banked path: each contended bank, in
    /// ascending order, grants at most one of its contenders and performs
    /// the access.
    fn grant_round(&mut self, sink: &mut impl FnMut(WordResp)) {
        if self.occupied == 0 {
            return;
        }
        let mut ports = self.occupied;
        while ports != 0 {
            let p = ports.trailing_zeros() as usize;
            ports &= ports - 1;
            let b = self.pending[p].bank;
            self.wants[b] |= 1 << p;
            self.contended[b >> 6] |= 1 << (b & 63);
        }
        // Latency-spike site: consulted once per grant round that has
        // pending work. While a spike is active no bank grants anything
        // and the stalled requests keep the memory non-quiescent, so
        // neither scheduling mode can skip past the spike — the stall
        // is ordinal-keyed and mode-independent.
        let spiked = self.spike_round();
        for word in 0..self.contended.len() {
            let mut banks = std::mem::take(&mut self.contended[word]);
            while banks != 0 {
                let b = word << 6 | banks.trailing_zeros() as usize;
                banks &= banks - 1;
                let want = std::mem::take(&mut self.wants[b]);
                if !spiked {
                    self.grant(b, want, sink);
                }
            }
        }
    }

    /// Advances the latency-spike site by one grant round with pending
    /// work; `true` while a spike suppresses every grant.
    fn spike_round(&mut self) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        if f.spike_left == 0 && f.delay.fires() {
            f.spike_left = f.delay_len;
        }
        if f.spike_left == 0 {
            return false;
        }
        f.spike_left -= 1;
        f.spike_stalls += 1;
        true
    }

    /// Bank `b`'s grant among the ports in `want` (nonempty): counts the
    /// conflict, charges or waits out a row activation, and performs the
    /// winner's access.
    fn grant(&mut self, b: usize, want: u32, sink: &mut impl FnMut(WordResp)) {
        self.conflict_stall_events += u64::from(want.count_ones() - 1);
        if self.row_stall[b] > 0 {
            // A row activation is in flight: the bank grants nothing
            // until the precharge+activate window elapses; the requests
            // stay pending.
            self.row_stall[b] -= 1;
            return;
        }
        // FR-FCFS: requests hitting the open row arbitrate ahead of row
        // misses. Hit-first ordering is what real DRAM schedulers do for
        // throughput, and here it is also what guarantees forward
        // progress — round-robin over raw contenders would let two ports
        // on different rows re-open the row against each other after
        // every activation window, and neither would ever be served.
        let choose = match self.row_hit_mask(b, want) {
            0 => want,
            hits => hits,
        };
        let p = self.arbs[b]
            .grant_mask(choose)
            .expect("a contended bank has a contender");
        let Pending { req, row, .. } = self.pending[p];
        if self.cfg.row_words > 0 {
            if self.open_rows[b] == Some(row) {
                self.row_hits += 1;
            } else {
                // Row miss: open the row and charge the activation
                // penalty; the request retries — and wins, as a hit —
                // once the window elapses.
                self.open_rows[b] = Some(row);
                self.row_misses += 1;
                if self.cfg.row_miss_penalty > 0 {
                    self.row_stall[b] = self.cfg.row_miss_penalty;
                    return;
                }
            }
        }
        self.occupied &= !(1 << p);
        let resp = self.access(b, req);
        self.land(resp, sink);
    }

    /// Sends a response granted this cycle on its way: straight out at
    /// latency 1, otherwise into the newest delay-line group.
    #[inline]
    fn land(&mut self, resp: WordResp, sink: &mut impl FnMut(WordResp)) {
        match self.delay.get_mut(self.delay_head) {
            Some(group) => group.push(resp),
            None => {
                self.busy -= 1;
                sink(resp);
            }
        }
    }

    /// Contender ports of `want` whose pending request falls in bank
    /// `b`'s currently open row; `0` when the row-buffer model is off,
    /// no row is open, or every contender misses.
    fn row_hit_mask(&self, b: usize, want: u32) -> u32 {
        if self.cfg.row_words == 0 {
            return 0;
        }
        let Some(open) = self.open_rows[b] else {
            return 0;
        };
        let mut hits = 0u32;
        let mut m = want;
        while m != 0 {
            let p = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.pending[p].row == open {
                hits |= 1 << p;
            }
        }
        hits
    }

    /// Performs one word access on bank `bank`, first deciding its fault
    /// class: out-of-window addresses always raise [`WordFault::Decode`]
    /// (plan or no plan — replacing what used to be a slice panic), and
    /// installed schedules may raise [`WordFault::Slave`]. A faulted read
    /// returns zeroed data; a faulted write does not commit.
    fn access(&mut self, bank: usize, req: WordReq) -> WordResp {
        let word_bytes = self.cfg.word_bytes;
        let ordinal = self.total_accesses;
        self.total_accesses += 1;
        let oob = req.word_addr as usize + word_bytes > self.storage.len();
        let mut fault = if oob {
            self.decode_faults += 1;
            Some(WordFault::Decode)
        } else {
            None
        };
        if let Some(f) = self.faults.as_mut() {
            // The transient stream is consulted on *every* access so its
            // ordinals stay aligned whatever other fault class fires.
            let transient = f.access.fires();
            let persistent = f.persistent_bank == Some(bank) && ordinal >= f.persistent_from;
            if fault.is_none() && (transient || persistent) {
                fault = Some(WordFault::Slave);
                f.injected += 1;
            }
        }
        match req.op {
            WordOp::Read => {
                let mut data = WordBuf::zeroed(word_bytes);
                if fault.is_none() {
                    self.storage.read(req.word_addr, &mut data);
                }
                WordResp {
                    port: req.port,
                    word_addr: req.word_addr,
                    data,
                    is_write: false,
                    tag: req.tag,
                    fault,
                    strb: 0,
                }
            }
            WordOp::Write { data, strb } => {
                if self.cfg.commit_writes && fault.is_none() {
                    self.storage
                        .write_masked(req.word_addr, &data, strb as u128);
                }
                WordResp {
                    port: req.port,
                    word_addr: req.word_addr,
                    data,
                    is_write: true,
                    tag: req.tag,
                    fault,
                    strb,
                }
            }
        }
    }

    // simcheck: hot-path end

    /// The backing store (for functional checks after a run).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to the backing store (for workload setup).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Consumes the memory, returning the backing store.
    pub fn into_storage(self) -> Storage {
        self.storage
    }

    /// Configuration this memory was built with.
    pub fn config(&self) -> &BankConfig {
        &self.cfg
    }

    /// Total word accesses performed.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Cumulative count of (contenders − 1) over all banks and cycles — a
    /// measure of serialization lost to bank conflicts.
    pub fn conflict_stall_events(&self) -> u64 {
        self.conflict_stall_events
    }

    /// Grants served from an already-open row (row-buffer model only).
    /// An access that missed counts one activation ([`Self::row_misses`])
    /// and, once the activation window elapses, one open-row grant here.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row activations performed (row-buffer model only): grants whose
    /// bank row differed from the open row and paid
    /// [`BankConfig::row_miss_penalty`] cycles.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Faults injected by installed schedules (transient + persistent
    /// bank errors; excludes decode faults).
    pub fn injected_faults(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected)
    }

    /// Grant rounds stalled by injected latency spikes.
    pub fn spike_stalls(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.spike_stalls)
    }

    /// Out-of-window accesses that raised [`WordFault::Decode`].
    pub fn decode_faults(&self) -> u64 {
        self.decode_faults
    }

    /// Hang-forensics snapshot: pending port requests, responses waiting
    /// out the bank latency in the delay line, and whether a latency
    /// spike is currently suppressing grants.
    pub fn describe_state(&self) -> String {
        let pending = self.occupied.count_ones();
        let delayed = self.delayed();
        let spike = self.faults.as_ref().map_or(0, |f| f.spike_left);
        if spike > 0 {
            format!(
                "{pending} pending port reqs, {delayed} responses in the delay line, \
                 latency spike suppressing grants for {spike} more rounds"
            )
        } else {
            format!("{pending} pending port reqs, {delayed} responses in the delay line")
        }
    }

    /// Responses waiting in the delay line.
    fn delayed(&self) -> usize {
        self.delay.iter().map(Vec::len).sum()
    }

    /// Returns `true` when no request is pending or in flight.
    #[inline]
    pub fn quiescent(&self) -> bool {
        debug_assert_eq!(
            self.busy,
            self.occupied.count_ones() as usize + self.delayed(),
            "busy count out of step with the port registers and the delay line"
        );
        self.busy == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(banks: usize) -> BankedMemory {
        let mut storage = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            storage.write_u32(w * 4, w as u32);
        }
        BankedMemory::new(
            BankConfig {
                banks,
                word_bytes: 4,
                latency: 1,
                ports: 4,
                conflict_free: false,
                commit_writes: true,
                row_words: 0,
                row_miss_penalty: 0,
            },
            storage,
        )
    }

    fn run_until_quiescent(m: &mut BankedMemory, max: usize) -> Vec<WordResp> {
        let mut out = Vec::new();
        for _ in 0..max {
            out.extend(m.end_cycle());
            if m.quiescent() {
                return out;
            }
        }
        panic!("memory did not quiesce in {max} cycles");
    }

    #[test]
    fn single_read_returns_stored_word() {
        let mut m = mem(8);
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 0x10,
            op: WordOp::Read,
            tag: 42
        }));
        let resps = run_until_quiescent(&mut m, 10);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].tag, 42);
        assert_eq!(*resps[0].data, 4u32.to_le_bytes());
    }

    #[test]
    fn conflict_free_requests_complete_in_parallel() {
        let mut m = mem(8);
        // Four ports, four distinct banks: all served in one grant round.
        for p in 0..4 {
            assert!(m.try_issue(WordReq {
                port: p,
                word_addr: (p as u64) * 4,
                op: WordOp::Read,
                tag: p as u64
            }));
        }
        let mut cycles = 0;
        let mut resps = Vec::new();
        while !m.quiescent() {
            resps.extend(m.end_cycle());
            cycles += 1;
        }
        assert_eq!(resps.len(), 4);
        assert!(cycles <= 2, "no conflicts should mean full parallelism");
        assert_eq!(m.conflict_stall_events(), 0);
    }

    #[test]
    fn same_bank_requests_serialize() {
        let mut m = mem(8);
        // All four ports hit bank 0 (addresses 0, 32·4, 64·4... stride 8 words on 8 banks).
        for p in 0..4 {
            assert!(m.try_issue(WordReq {
                port: p,
                word_addr: (p as u64) * 8 * 4,
                op: WordOp::Read,
                tag: p as u64
            }));
        }
        let mut cycles = 0;
        while !m.quiescent() {
            m.end_cycle();
            cycles += 1;
        }
        assert!(
            cycles >= 4,
            "conflicting accesses must serialize, took {cycles}"
        );
        assert!(m.conflict_stall_events() > 0);
    }

    #[test]
    fn port_blocks_until_granted() {
        let mut m = mem(8);
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 0,
            op: WordOp::Read,
            tag: 0
        }));
        // Same port again before any end_cycle: rejected.
        assert!(!m.try_issue(WordReq {
            port: 0,
            word_addr: 4,
            op: WordOp::Read,
            tag: 1
        }));
        m.end_cycle();
        assert!(m.port_free(0));
    }

    #[test]
    fn write_then_read_returns_new_data() {
        let mut m = mem(8);
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 0x20,
            op: WordOp::Write {
                data: 0xcafe_f00du32.to_le_bytes().into(),
                strb: 0xf
            },
            tag: 0
        }));
        run_until_quiescent(&mut m, 10);
        assert_eq!(m.storage().read_u32(0x20), 0xcafe_f00d);
    }

    #[test]
    fn masked_write_touches_enabled_bytes_only() {
        let mut m = mem(8);
        m.storage_mut().write_u32(0x40, 0xaaaa_aaaa);
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 0x40,
            op: WordOp::Write {
                data: WordBuf::from_slice(&[0x55; 4]),
                strb: 0b0011
            },
            tag: 0
        }));
        run_until_quiescent(&mut m, 10);
        assert_eq!(m.storage().read_u32(0x40), 0xaaaa_5555);
    }

    #[test]
    fn responses_per_port_stay_in_issue_order() {
        let mut m = mem(8);
        let mut got = Vec::new();
        let mut next_tag = 0u64;
        for _ in 0..50 {
            if m.port_free(0) && next_tag < 20 {
                // Alternate banks to exercise arbitration.
                let addr = (next_tag % 8) * 4 + (next_tag / 8) * 8 * 4;
                assert!(m.try_issue(WordReq {
                    port: 0,
                    word_addr: addr,
                    op: WordOp::Read,
                    tag: next_tag
                }));
                next_tag += 1;
            }
            for r in m.end_cycle() {
                got.push(r.tag);
            }
        }
        assert_eq!(got.len(), 20);
        for (i, t) in got.iter().enumerate() {
            assert_eq!(*t, i as u64, "port responses out of order");
        }
    }

    #[test]
    fn conflict_free_mode_never_stalls() {
        let mut storage = Storage::new(1 << 12);
        storage.write_u32(0, 7);
        let mut m = BankedMemory::new(
            BankConfig {
                banks: 8,
                word_bytes: 4,
                latency: 1,
                ports: 4,
                conflict_free: true,
                commit_writes: true,
                row_words: 0,
                row_miss_penalty: 0,
            },
            storage,
        );
        // All ports hammer the same bank — ideal memory doesn't care.
        for p in 0..4 {
            assert!(m.try_issue(WordReq {
                port: p,
                word_addr: 0,
                op: WordOp::Read,
                tag: p as u64
            }));
        }
        let resps = run_until_quiescent(&mut m, 5);
        assert_eq!(resps.len(), 4);
        assert!(resps.iter().all(|r| *r.data == 7u32.to_le_bytes()));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_word_address_panics() {
        let mut m = mem(8);
        m.try_issue(WordReq {
            port: 0,
            word_addr: 0x3,
            op: WordOp::Read,
            tag: 0,
        });
    }

    #[test]
    fn transient_bank_faults_zero_data_and_count() {
        let mut m = mem(8);
        let mut spec = FaultSpec::silent(42);
        spec.bank_error_period = 3;
        m.install_faults(&spec);
        let mut responses = Vec::new();
        // Words 1.. hold their own nonzero index, so zeroed data is
        // unambiguously the fault's doing.
        for w in 1..=64u64 {
            assert!(m.try_issue(WordReq {
                port: 0,
                word_addr: w * 4,
                op: WordOp::Read,
                tag: w,
            }));
            responses.extend(run_until_quiescent(&mut m, 100));
        }
        let faulted: Vec<&WordResp> = responses
            .iter()
            .filter(|r| r.fault == Some(WordFault::Slave))
            .collect();
        assert!(
            !faulted.is_empty(),
            "a mean-3 transient schedule must fire within 64 accesses"
        );
        assert_eq!(m.injected_faults(), faulted.len() as u64);
        for r in &faulted {
            assert!(
                r.data.iter().all(|&b| b == 0),
                "faulted reads must return zeroed data"
            );
        }
        assert!(
            responses
                .iter()
                .any(|r| r.fault.is_none() && r.data.iter().any(|&b| b != 0)),
            "clean responses still carry real data"
        );
    }

    #[test]
    fn persistent_bank_fails_every_access_after_onset() {
        let mut m = mem(2);
        let mut spec = FaultSpec::silent(3);
        spec.persistent_bank = true;
        m.install_faults(&spec);
        let mut responses = Vec::new();
        // The onset ordinal is drawn in [1, 4096]; 5000 serialized reads
        // are guaranteed to cross it.
        for w in 0..5000u64 {
            assert!(m.try_issue(WordReq {
                port: 0,
                word_addr: (w % 64) * 4,
                op: WordOp::Read,
                tag: w,
            }));
            responses.extend(run_until_quiescent(&mut m, 100));
        }
        let mut failed_bank = None;
        let mut healed = 0u64;
        for r in &responses {
            let bank = (r.word_addr / 4) % 2;
            match (r.fault, failed_bank) {
                (Some(WordFault::Slave), None) => failed_bank = Some(bank),
                (Some(WordFault::Slave), Some(b)) => {
                    assert_eq!(bank, b, "persistent faults must stay on one bank");
                }
                (None, Some(b)) if bank == b => healed += 1,
                _ => {}
            }
        }
        assert!(
            failed_bank.is_some(),
            "the persistent onset must land within 5000 accesses"
        );
        assert_eq!(
            healed, 0,
            "after onset, every access to the failed bank must fault"
        );
    }

    #[test]
    fn delay_spikes_stall_grants_but_lose_nothing() {
        let mut m = mem(8);
        let mut spec = FaultSpec::silent(7);
        spec.bank_delay_period = 2;
        spec.bank_delay_len = 4;
        m.install_faults(&spec);
        let mut served = 0usize;
        for w in 0..32u64 {
            assert!(m.try_issue(WordReq {
                port: 0,
                word_addr: w * 4,
                op: WordOp::Read,
                tag: w,
            }));
            let resps = run_until_quiescent(&mut m, 200);
            assert!(resps.iter().all(|r| r.fault.is_none()));
            served += resps.len();
        }
        assert_eq!(served, 32, "delay spikes must not drop requests");
        assert!(
            m.spike_stalls() > 0,
            "a mean-2 delay schedule must stall some grant rounds"
        );
        assert_eq!(
            m.injected_faults(),
            0,
            "the delay site stalls; it never corrupts"
        );
    }

    #[test]
    fn row_buffer_charges_misses_and_streams_hits() {
        let mut storage = Storage::new(1 << 16);
        for w in 0..(1 << 14) {
            storage.write_u32(w * 4, w as u32);
        }
        let mut m = BankedMemory::new(
            BankConfig {
                banks: 8,
                word_bytes: 4,
                latency: 1,
                ports: 1,
                conflict_free: false,
                commit_writes: true,
                row_words: 16,
                row_miss_penalty: 6,
            },
            storage,
        );
        // 16 sequential accesses to one bank (stride = banks words): all
        // share bank 0 row 0, so exactly one activation is charged.
        let mut cycles = 0u64;
        for k in 0..16u64 {
            assert!(m.try_issue(WordReq {
                port: 0,
                word_addr: k * 8 * 4,
                op: WordOp::Read,
                tag: k,
            }));
            while !m.quiescent() {
                m.end_cycle();
                cycles += 1;
            }
        }
        assert_eq!(m.row_misses(), 1, "one row activation for the stream");
        assert_eq!(m.row_hits(), 16, "every access is served from the open row");
        // Crossing into row 1 of the same bank charges another activation.
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 16 * 8 * 4,
            op: WordOp::Read,
            tag: 99,
        }));
        let before = cycles;
        while !m.quiescent() {
            m.end_cycle();
            cycles += 1;
        }
        assert_eq!(m.row_misses(), 2);
        assert!(
            cycles - before > 6,
            "a row miss must pay the activation penalty"
        );
    }

    #[test]
    fn two_ports_on_different_rows_of_one_bank_both_complete() {
        // Livelock guard for the FR-FCFS grant order: without hit-first
        // arbitration, round-robin lets port 0 and port 1 re-open the row
        // against each other after every activation window, and neither
        // request is ever inserted. Both must be served, each paying one
        // activation.
        let mut m = BankedMemory::new(
            BankConfig {
                banks: 8,
                word_bytes: 4,
                latency: 1,
                ports: 2,
                conflict_free: false,
                commit_writes: true,
                row_words: 16,
                row_miss_penalty: 6,
            },
            Storage::new(1 << 16),
        );
        // Same bank (0), rows 0 and 1: word 0 and word 16*banks.
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 0,
            op: WordOp::Read,
            tag: 1,
        }));
        assert!(m.try_issue(WordReq {
            port: 1,
            word_addr: 16 * 8 * 4,
            op: WordOp::Read,
            tag: 2,
        }));
        let mut tags = Vec::new();
        let mut cycles = 0u64;
        while !m.quiescent() {
            assert!(cycles < 200, "activation livelock: served only {tags:?}");
            for r in m.end_cycle() {
                tags.push(r.tag);
            }
            cycles += 1;
        }
        tags.sort_unstable();
        assert_eq!(tags, [1, 2], "both contenders must complete");
        assert_eq!(m.row_misses(), 2, "one activation per row, not a ping-pong");
    }

    #[test]
    fn zero_row_words_is_timing_identical_to_the_sram_model() {
        // The same access pattern over the SRAM config and a row model
        // with row_words = 0 must take the same number of cycles.
        let run = |row_words: usize, row_miss_penalty: usize| -> (u64, Vec<u64>) {
            let mut storage = Storage::new(1 << 12);
            let mut m = BankedMemory::new(
                BankConfig {
                    banks: 8,
                    word_bytes: 4,
                    latency: 2,
                    ports: 4,
                    conflict_free: false,
                    commit_writes: true,
                    row_words,
                    row_miss_penalty,
                },
                std::mem::replace(&mut storage, Storage::new(1)),
            );
            let mut tags = Vec::new();
            let mut cycles = 0u64;
            for k in 0..12u64 {
                let _ = m.try_issue(WordReq {
                    port: (k % 4) as usize,
                    word_addr: (k % 16) * 4,
                    op: WordOp::Read,
                    tag: k,
                });
                for r in m.end_cycle() {
                    tags.push(r.tag);
                }
                cycles += 1;
            }
            while !m.quiescent() {
                for r in m.end_cycle() {
                    tags.push(r.tag);
                }
                cycles += 1;
            }
            (cycles, tags)
        };
        assert_eq!(run(0, 0), run(0, 99), "penalty is inert without rows");
    }

    #[test]
    fn out_of_window_access_raises_decode_fault_without_a_plan() {
        let mut m = mem(8);
        // One word past the end of the 64 KiB backing store.
        assert!(m.try_issue(WordReq {
            port: 0,
            word_addr: 1 << 16,
            op: WordOp::Read,
            tag: 9,
        }));
        let resps = run_until_quiescent(&mut m, 100);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].fault, Some(WordFault::Decode));
        assert_eq!(m.decode_faults(), 1);
        assert_eq!(m.injected_faults(), 0);
    }
}
