//! Property tests: the banked memory is functionally a plain memory under
//! any request schedule, its address mapping is a bijection, and its
//! timing matches a reference that re-decodes every waiting request (and,
//! conflict-free, a plain fixed-delay memory).

use banked_mem::{BankConfig, BankMap, BankedMemory, Storage, WordBuf, WordOp, WordReq, WordResp};
use proptest::prelude::*;
use simkit::{Pipeline, RoundRobin};

/// The grant policy of [`BankedMemory`] written the direct way: every
/// grant round decodes each waiting request's bank and row from its
/// address again, where the memory decodes them once at issue. Per bank,
/// requests hitting the open row win over misses, round-robin decides
/// among the chosen, a miss opens its row and waits out the activation
/// penalty, and a granted request emerges after the bank latency.
struct Redecode {
    cfg: BankConfig,
    map: BankMap,
    storage: Storage,
    pending: Vec<Option<WordReq>>,
    banks: Vec<Pipeline<WordReq>>,
    arbs: Vec<RoundRobin>,
    open_rows: Vec<Option<u64>>,
    row_stall: Vec<usize>,
    conflicts: u64,
    row_hits: u64,
    row_misses: u64,
}

impl Redecode {
    fn new(cfg: BankConfig, storage: Storage) -> Self {
        Redecode {
            map: BankMap::new(cfg.banks, cfg.word_bytes),
            storage,
            pending: vec![None; cfg.ports],
            banks: (0..cfg.banks).map(|_| Pipeline::new(cfg.latency)).collect(),
            arbs: (0..cfg.banks).map(|_| RoundRobin::new(cfg.ports)).collect(),
            open_rows: vec![None; cfg.banks],
            row_stall: vec![0; cfg.banks],
            cfg,
            conflicts: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    fn row(&self, req: &WordReq) -> u64 {
        self.map.row_of(req.word_addr) / self.cfg.row_words as u64
    }

    fn end_cycle(&mut self) -> Vec<WordResp> {
        for b in 0..self.cfg.banks {
            let mut want = 0u32;
            for (p, slot) in self.pending.iter().enumerate() {
                if slot.is_some_and(|req| self.map.bank_of(req.word_addr) == b) {
                    want |= 1 << p;
                }
            }
            if want == 0 {
                continue;
            }
            self.conflicts += u64::from(want.count_ones() - 1);
            if self.row_stall[b] > 0 {
                self.row_stall[b] -= 1;
                continue;
            }
            let mut hits = 0u32;
            if self.cfg.row_words > 0 {
                for (p, slot) in self.pending.iter().enumerate() {
                    if want >> p & 1 == 1 && self.open_rows[b] == slot.map(|r| self.row(&r)) {
                        hits |= 1 << p;
                    }
                }
            }
            let p = self.arbs[b]
                .grant_mask(if hits == 0 { want } else { hits })
                .expect("a contender wins");
            let req = self.pending[p].take().expect("granted port has a request");
            if self.cfg.row_words == 0 {
                self.banks[b].insert(req);
            } else if self.open_rows[b] == Some(self.row(&req)) {
                self.row_hits += 1;
                self.banks[b].insert(req);
            } else {
                self.open_rows[b] = Some(self.row(&req));
                self.row_misses += 1;
                if self.cfg.row_miss_penalty == 0 {
                    self.banks[b].insert(req);
                } else {
                    self.row_stall[b] = self.cfg.row_miss_penalty;
                    self.pending[p] = Some(req);
                }
            }
        }
        let mut out = Vec::new();
        for b in 0..self.cfg.banks {
            let Some(req) = self.banks[b].end_cycle() else {
                continue;
            };
            let (data, is_write, strb) = match req.op {
                WordOp::Read => {
                    let mut data = WordBuf::zeroed(self.cfg.word_bytes);
                    self.storage.read(req.word_addr, &mut data);
                    (data, false, 0)
                }
                WordOp::Write { data, strb } => {
                    self.storage
                        .write_masked(req.word_addr, &data, u128::from(strb));
                    (data, true, strb)
                }
            };
            out.push(WordResp {
                port: req.port,
                word_addr: req.word_addr,
                data,
                is_write,
                tag: req.tag,
                fault: None,
                strb,
            });
        }
        out
    }
}

/// A conflict-free memory written the plain way: at every cycle boundary
/// the requests waiting at the ports, in port order, join a queue of
/// per-boundary groups, and the group accepted `latency` boundaries ago
/// (counting its own) is served, in port order.
struct FixedDelay {
    latency: usize,
    storage: Storage,
    pending: Vec<Option<WordReq>>,
    groups: std::collections::VecDeque<Vec<WordReq>>,
}

impl FixedDelay {
    fn end_cycle(&mut self) -> Vec<WordResp> {
        self.groups
            .push_back(self.pending.iter_mut().filter_map(Option::take).collect());
        if self.groups.len() < self.latency {
            return Vec::new();
        }
        let group = self.groups.pop_front().expect("a full delay");
        group
            .into_iter()
            .map(|req| {
                let (data, is_write, strb) = match req.op {
                    WordOp::Read => {
                        let mut data = WordBuf::zeroed(4);
                        self.storage.read(req.word_addr, &mut data);
                        (data, false, 0)
                    }
                    WordOp::Write { data, strb } => {
                        self.storage
                            .write_masked(req.word_addr, &data, u128::from(strb));
                        (data, true, strb)
                    }
                };
                WordResp {
                    port: req.port,
                    word_addr: req.word_addr,
                    data,
                    is_write,
                    tag: req.tag,
                    fault: None,
                    strb,
                }
            })
            .collect()
    }
}

/// A read, or a write of `value` under its low four bits as the strobe.
fn word_op(write: bool, value: u32) -> WordOp {
    if write {
        WordOp::Write {
            data: value.to_le_bytes().into(),
            strb: value & 0xf,
        }
    } else {
        WordOp::Read
    }
}

proptest! {
    /// (bank, row) uniquely identifies every word for any bank count.
    #[test]
    fn bank_mapping_is_bijective(banks in 1usize..40, words in 1u64..500) {
        let map = BankMap::new(banks, 4);
        let mut seen = std::collections::HashSet::new();
        for w in 0..words {
            prop_assert!(seen.insert((map.bank_of(w * 4), map.row_of(w * 4))));
        }
    }

    /// Any schedule of reads over a patterned memory returns exactly the
    /// stored words, regardless of bank count, latency, or conflicts.
    #[test]
    fn reads_always_return_stored_data(
        banks in prop_oneof![Just(8usize), Just(11), Just(16), Just(17), Just(31), Just(32)],
        latency in 1usize..4,
        addrs in proptest::collection::vec(0u64..1024, 1..64),
    ) {
        let mut storage = Storage::new(1 << 14);
        for w in 0..(1 << 12) {
            storage.write_u32(w * 4, (w as u32).wrapping_mul(2654435761));
        }
        let cfg = BankConfig {
            banks,
            word_bytes: 4,
            latency,
            ports: 4,
            conflict_free: false,
            commit_writes: true,
            row_words: 0,
            row_miss_penalty: 0,
        };
        let mut mem = BankedMemory::new(cfg, storage);
        let mut pending: Vec<(u64, u64)> = addrs
            .iter()
            .enumerate()
            .map(|(tag, w)| (tag as u64, w * 4))
            .collect();
        pending.reverse();
        let mut got = std::collections::HashMap::new();
        let mut guard = 0;
        while got.len() < addrs.len() {
            for port in 0..4 {
                if mem.port_free(port) {
                    if let Some((tag, addr)) = pending.pop() {
                        let req = WordReq {
                            port,
                            word_addr: addr,
                            op: WordOp::Read,
                            tag,
                        };
                        prop_assert!(mem.try_issue(req));
                    }
                }
            }
            for resp in mem.end_cycle() {
                got.insert(resp.tag, u32::from_le_bytes((*resp.data).try_into().expect("4")));
            }
            guard += 1;
            prop_assert!(guard < 10_000, "memory hung");
        }
        for (tag, w) in addrs.iter().enumerate() {
            prop_assert_eq!(got[&(tag as u64)], (*w as u32).wrapping_mul(2654435761));
        }
    }

    /// Writes then reads round-trip through the banks under conflicts.
    #[test]
    fn write_read_roundtrip(
        banks in prop_oneof![Just(8usize), Just(17)],
        writes in proptest::collection::vec((0u64..256, proptest::num::u32::ANY), 1..32),
    ) {
        let cfg = BankConfig {
            banks,
            word_bytes: 4,
            latency: 1,
            ports: 4,
            conflict_free: false,
            commit_writes: true,
            row_words: 0,
            row_miss_penalty: 0,
        };
        let mut mem = BankedMemory::new(cfg, Storage::new(1 << 12));
        // Issue all writes (later writes to the same word win by issue
        // order only if they land on the same port in order; to keep the
        // property crisp, dedup addresses keeping the last value).
        let mut dedup = std::collections::HashMap::new();
        for (w, v) in &writes {
            dedup.insert(*w * 4, *v);
        }
        let mut pending: Vec<(u64, u32)> = dedup.iter().map(|(a, v)| (*a, *v)).collect();
        pending.sort_unstable();
        let total = pending.len();
        pending.reverse();
        let mut acks = 0;
        let mut guard = 0;
        while acks < total {
            for port in 0..4 {
                if mem.port_free(port) {
                    if let Some((addr, v)) = pending.pop() {
                        let req = WordReq {
                            port,
                            word_addr: addr,
                            op: WordOp::Write { data: v.to_le_bytes().into(), strb: 0xf },
                            tag: 0,
                        };
                        prop_assert!(mem.try_issue(req));
                    }
                }
            }
            acks += mem.end_cycle().len();
            guard += 1;
            prop_assert!(guard < 10_000, "memory hung");
        }
        for (addr, v) in dedup {
            prop_assert_eq!(mem.storage().read_u32(addr), v);
        }
    }

    /// Decoding a request's bank and row once at issue is invisible:
    /// under random mixed traffic the memory returns the same responses
    /// in the same cycles, counts the same conflicts and row activations,
    /// and leaves the same store as a model that re-decodes every
    /// waiting request on every grant round — with and without row
    /// buffers.
    #[test]
    fn cached_decode_matches_a_per_round_redecode(
        banks in prop_oneof![Just(8usize), Just(11), Just(16), Just(17)],
        latency in 1usize..4,
        ports in 1usize..9,
        rows in prop_oneof![Just((0usize, 0usize)), Just((0, 5)), Just((4, 0)), Just((8, 6)), Just((16, 3))],
        ops in proptest::collection::vec((0u64..512, proptest::bool::ANY, proptest::num::u32::ANY), 1..160),
    ) {
        let (row_words, row_miss_penalty) = rows;
        let cfg = BankConfig {
            banks,
            word_bytes: 4,
            latency,
            ports,
            conflict_free: false,
            commit_writes: true,
            row_words,
            row_miss_penalty,
        };
        let mut storage = Storage::new(1 << 12);
        for w in 0..(1 << 10) {
            storage.write_u32(w * 4, (w as u32).wrapping_mul(0x9e37_79b9));
        }
        let mut reference = Redecode::new(cfg, storage.clone());
        let mut mem = BankedMemory::new(cfg, storage);
        let mut next = ops.iter().enumerate();
        let mut served = 0usize;
        let mut cycle = 0u64;
        while served < ops.len() {
            for port in 0..ports {
                prop_assert_eq!(mem.port_free(port), reference.pending[port].is_none());
                if !mem.port_free(port) {
                    continue;
                }
                let Some((tag, &(word, write, value))) = next.next() else {
                    break;
                };
                let op = if write {
                    WordOp::Write { data: value.to_le_bytes().into(), strb: value & 0xf }
                } else {
                    WordOp::Read
                };
                let req = WordReq { port, word_addr: word * 4, op, tag: tag as u64 };
                prop_assert!(mem.try_issue(req));
                reference.pending[port] = Some(req);
            }
            let got = mem.end_cycle();
            prop_assert_eq!(&got, &reference.end_cycle(), "cycle {}", cycle);
            served += got.len();
            cycle += 1;
            prop_assert!(cycle < 100_000, "memory hung");
        }
        prop_assert!(mem.quiescent());
        prop_assert_eq!(mem.conflict_stall_events(), reference.conflicts);
        prop_assert_eq!((mem.row_hits(), mem.row_misses()), (reference.row_hits, reference.row_misses));
        prop_assert_eq!(mem.total_accesses(), ops.len() as u64);
        prop_assert_eq!(mem.storage().as_bytes(), reference.storage.as_bytes());
    }

    /// A conflict-free memory is a plain fixed-delay memory: every
    /// request is served `latency` boundaries after it is presented, in
    /// port order, whatever banks it falls in.
    #[test]
    fn conflict_free_serves_every_request_after_the_latency(
        banks in prop_oneof![Just(8usize), Just(17)],
        latency in 1usize..5,
        ports in 1usize..9,
        ops in proptest::collection::vec((0u64..64, proptest::bool::ANY, proptest::num::u32::ANY), 1..120),
    ) {
        let cfg = BankConfig {
            banks,
            word_bytes: 4,
            latency,
            ports,
            conflict_free: true,
            commit_writes: true,
            row_words: 0,
            row_miss_penalty: 0,
        };
        let mut storage = Storage::new(1 << 12);
        for w in 0..(1 << 10) {
            storage.write_u32(w * 4, (w as u32).wrapping_mul(0x9e37_79b9));
        }
        let mut reference = FixedDelay {
            latency,
            storage: storage.clone(),
            pending: vec![None; ports],
            groups: std::collections::VecDeque::new(),
        };
        let mut mem = BankedMemory::new(cfg, storage);
        let mut next = ops.iter().enumerate();
        let mut served = 0usize;
        let mut cycle = 0u64;
        while served < ops.len() {
            prop_assert_eq!(mem.free_ports().count_ones() as usize, ports, "cycle {}", cycle);
            for port in 0..ports {
                let Some((tag, &(word, write, value))) = next.next() else {
                    break;
                };
                let req = WordReq { port, word_addr: word * 4, op: word_op(write, value), tag: tag as u64 };
                prop_assert!(mem.try_issue(req));
                reference.pending[port] = Some(req);
            }
            let got = mem.end_cycle();
            prop_assert_eq!(&got, &reference.end_cycle(), "cycle {}", cycle);
            served += got.len();
            cycle += 1;
            prop_assert!(cycle < 10_000, "memory hung");
        }
        prop_assert!(mem.quiescent());
        prop_assert_eq!(mem.conflict_stall_events(), 0);
        prop_assert_eq!(mem.total_accesses(), ops.len() as u64);
        prop_assert_eq!(mem.storage().as_bytes(), reference.storage.as_bytes());
    }

    /// The responses leaving a banked memory at one cycle boundary were
    /// all granted in one round, one per bank, and leave in ascending
    /// bank order — the order the accesses were performed in.
    #[test]
    fn banked_responses_leave_in_ascending_bank_order(
        banks in prop_oneof![Just(2usize), Just(8), Just(11), Just(17), Just(31)],
        latency in 1usize..5,
        ports in 1usize..9,
        rows in prop_oneof![Just((0usize, 0usize)), Just((8, 6))],
        ops in proptest::collection::vec((0u64..512, proptest::bool::ANY, proptest::num::u32::ANY), 1..160),
    ) {
        let (row_words, row_miss_penalty) = rows;
        let cfg = BankConfig {
            banks,
            word_bytes: 4,
            latency,
            ports,
            conflict_free: false,
            commit_writes: true,
            row_words,
            row_miss_penalty,
        };
        let map = BankMap::new(banks, 4);
        let mut mem = BankedMemory::new(cfg, Storage::new(1 << 12));
        let mut next = ops.iter().enumerate();
        let mut served = 0usize;
        let mut cycle = 0u64;
        while served < ops.len() {
            for port in 0..ports {
                if !mem.port_free(port) {
                    continue;
                }
                let Some((tag, &(word, write, value))) = next.next() else {
                    break;
                };
                let req = WordReq { port, word_addr: word * 4, op: word_op(write, value), tag: tag as u64 };
                prop_assert!(mem.try_issue(req));
            }
            let got = mem.end_cycle();
            let order: Vec<usize> = got.iter().map(|r| map.bank_of(r.word_addr)).collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "cycle {}: banks {:?} not strictly ascending", cycle, order
            );
            served += got.len();
            cycle += 1;
            prop_assert!(cycle < 100_000, "memory hung");
        }
        prop_assert!(mem.quiescent());
    }
}
