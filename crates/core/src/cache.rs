//! The result cache: canonical content keys for simulation runs, byte
//! codecs for reports, and the cache-aware execution wrapper the run
//! loops consult.
//!
//! ## Key canon
//!
//! Every cacheable computation is named by a 128-bit digest over an
//! **explicit, field-by-field byte encoding** — never a derived hash —
//! so the key is stable across struct field reordering and survives
//! refactors that don't change simulated physics. Each key starts with
//! a domain string and [`KEY_VERSION`]; bumping the version is the
//! invalidation mechanism (old entries become unreachable, no deletion
//! pass needed). Report-**invariant** knobs are deliberately excluded
//! from keys:
//!
//! * [`SystemConfig::sched`] — the PR 7 scheduler oracle proves Event
//!   and Lockstep produce bit-identical reports, so both modes share
//!   one cache entry;
//! * thread count / sweep parallelism — per-point seeds are positional
//!   (`simkit::sweep::point_seed`), so scheduling doesn't reach results.
//!
//! Everything the simulation *can* observe is included: the full
//! [`SystemConfig`] (minus `sched`), the requestor [`SystemKind`], and
//! the complete [`Kernel`] — name, memory image bytes, program
//! instruction stream, expected-value checks, stream flags.
//!
//! ## What is never cached
//!
//! Probed runs. A [`crate::differential::RunProbe`] captures bus-level
//! event streams that reports don't carry, and the differential fuzzer's
//! lockstep oracle exists precisely to re-execute runs independently —
//! serving it from a cache would verify the cache against itself. The
//! run loops therefore consult the cache **only when no probe is
//! attached**; `figures fuzz` and `figures bench` never install one at
//! all. Errors are also never cached: only clean reports are stored.
//!
//! ## Sharding and resume
//!
//! The same keyspace partitions work across processes: shard `i/N` owns
//! the keys with `digest mod N == i`, computes those, and returns inert
//! placeholder reports for the rest (shard output is discarded; only
//! the store matters). Completed keys are appended to a per-shard
//! manifest so `--resume` can skip them after a crash. The union of N
//! shards fills the same store a single unsharded run would, which a
//! warm unsharded pass then serves byte-identically.

use crate::report::{LevelOccupancy, RequestorOutcome, RunReport, SystemReport};
use crate::requestor::SweepConfig;
use crate::system::{SystemConfig, Topology};
use axi_proto::{Addr, ElemSize, IdxSize};
use hwmodel::energy::Activity;
use pack_ctrl::StagePolicy;
use simkit_cache::{Cache, Digest, DigestWriter, Manifest, DEFAULT_MEM_BYTES};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use vproc::{SystemKind, VInsn, VprocConfig};
use workloads::kernel::Check;
use workloads::Kernel;

/// Version tag mixed into every cache key. Bump whenever the canonical
/// encoding below changes meaning, whenever simulated semantics change
/// in a way old reports no longer reflect, or whenever the digest
/// algorithm itself moves — old entries then simply stop matching.
/// (v2: topology keys gained the fabric shape — channels, arity,
/// row-buffer timing — so hierarchical-fabric runs never collide with
/// the flat runs of the same requestor set.)
pub const KEY_VERSION: u32 = 2;

/// Version tag leading every stored value blob. Bump on codec layout
/// changes; stale blobs fail decoding and are recomputed in place.
/// (v2: [`RunReport`] gained `injected_faults`/`fault_retries`;
/// v3: [`SystemReport`] gained per-level fabric occupancy;
/// v4: [`SystemReport`] gained fault totals over every channel;
/// v5: each fabric level gained its AR grant waits.)
pub const VALUE_VERSION: u32 = 5;

/// Environment variable naming the default cache directory.
pub const ENV_CACHE_DIR: &str = "AXI_PACK_CACHE";

/// Fallback cache directory (relative to the working directory).
pub const DEFAULT_DIR: &str = ".axi-pack-cache";

/// The cache directory the CLI uses when `--cache-dir` is absent:
/// `$AXI_PACK_CACHE` if set and non-empty, else [`DEFAULT_DIR`].
pub fn default_dir() -> PathBuf {
    match std::env::var(ENV_CACHE_DIR) {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(DEFAULT_DIR),
    }
}

// ---------------------------------------------------------------------
// Key canon: explicit encoders
// ---------------------------------------------------------------------

/// Starts a key digest: domain separation string + key version.
fn key_writer(domain: &str) -> DigestWriter {
    let mut w = DigestWriter::new();
    w.put_str(domain);
    w.put_u32(KEY_VERSION);
    w
}

/// Stable tag for a [`SystemKind`] (declaration order must never leak
/// into keys, so the mapping is explicit).
fn kind_tag(kind: SystemKind) -> u8 {
    match kind {
        SystemKind::Base => 0,
        SystemKind::Pack => 1,
        SystemKind::Ideal => 2,
    }
}

fn decode_kind(tag: u8) -> Option<SystemKind> {
    match tag {
        0 => Some(SystemKind::Base),
        1 => Some(SystemKind::Pack),
        2 => Some(SystemKind::Ideal),
        _ => None,
    }
}

fn put_vproc(w: &mut DigestWriter, v: &VprocConfig) {
    w.put_usize(v.lanes);
    w.put_usize(v.vlen_bytes);
    w.put_u32(v.reduction_tail);
    w.put_usize(v.window);
    w.put_u32(v.ideal_latency);
    w.put_usize(v.max_outstanding_loads);
    w.put_u32(v.axi_id_bits);
}

/// Digests a [`SystemConfig`] field by field — except `sched`, which is
/// report-invariant by the scheduler oracle and deliberately excluded.
fn put_system_config(w: &mut DigestWriter, cfg: &SystemConfig) {
    w.put_u8(kind_tag(cfg.kind));
    w.put_u32(cfg.bus_bits);
    w.put_usize(cfg.banks);
    w.put_usize(cfg.queue_depth);
    put_vproc(w, &cfg.vproc);
    w.put_u64(cfg.max_cycles);
}

fn put_check(w: &mut DigestWriter, c: &Check) {
    w.put_u64(c.addr);
    w.put_usize(c.values.len());
    for &v in c.values.iter() {
        w.put_f32(v);
    }
    w.put_str(&c.label);
}

/// Digests one instruction: a stable variant tag, then its fields.
fn put_insn(w: &mut DigestWriter, insn: &VInsn) {
    fn reg(w: &mut DigestWriter, r: u8) {
        w.put_u8(r);
    }
    fn addr(w: &mut DigestWriter, a: Addr) {
        w.put_u64(a);
    }
    match *insn {
        VInsn::SetVl { vl } => {
            w.put_u8(0);
            w.put_usize(vl);
        }
        VInsn::Scalar { cycles } => {
            w.put_u8(1);
            w.put_u32(cycles);
        }
        VInsn::Vle { vd, base, is_index } => {
            w.put_u8(2);
            reg(w, vd);
            addr(w, base);
            w.put_bool(is_index);
        }
        VInsn::Vlse { vd, base, stride } => {
            w.put_u8(3);
            reg(w, vd);
            addr(w, base);
            w.put_i32(stride);
        }
        VInsn::Vluxei { vd, vidx, base } => {
            w.put_u8(4);
            reg(w, vd);
            reg(w, vidx);
            addr(w, base);
        }
        VInsn::Vlimxei { vd, idx_addr, base } => {
            w.put_u8(5);
            reg(w, vd);
            addr(w, idx_addr);
            addr(w, base);
        }
        VInsn::Vse { vs, base } => {
            w.put_u8(6);
            reg(w, vs);
            addr(w, base);
        }
        VInsn::Vsse { vs, base, stride } => {
            w.put_u8(7);
            reg(w, vs);
            addr(w, base);
            w.put_i32(stride);
        }
        VInsn::Vsuxei { vs, vidx, base } => {
            w.put_u8(8);
            reg(w, vs);
            reg(w, vidx);
            addr(w, base);
        }
        VInsn::Vsimxei { vs, idx_addr, base } => {
            w.put_u8(9);
            reg(w, vs);
            addr(w, idx_addr);
            addr(w, base);
        }
        VInsn::Vfadd { vd, vs1, vs2 } => {
            w.put_u8(10);
            reg(w, vd);
            reg(w, vs1);
            reg(w, vs2);
        }
        VInsn::Vfmul { vd, vs1, vs2 } => {
            w.put_u8(11);
            reg(w, vd);
            reg(w, vs1);
            reg(w, vs2);
        }
        VInsn::Vfmacc { vd, vs1, vs2 } => {
            w.put_u8(12);
            reg(w, vd);
            reg(w, vs1);
            reg(w, vs2);
        }
        VInsn::VfmaccVf { vd, rs, vs } => {
            w.put_u8(13);
            reg(w, vd);
            w.put_f32(rs);
            reg(w, vs);
        }
        VInsn::VfmulVf { vd, rs, vs } => {
            w.put_u8(14);
            reg(w, vd);
            w.put_f32(rs);
            reg(w, vs);
        }
        VInsn::VfaddVf { vd, rs, vs } => {
            w.put_u8(15);
            reg(w, vd);
            w.put_f32(rs);
            reg(w, vs);
        }
        VInsn::Vfmin { vd, vs1, vs2 } => {
            w.put_u8(16);
            reg(w, vd);
            reg(w, vs1);
            reg(w, vs2);
        }
        VInsn::VmvVf { vd, imm } => {
            w.put_u8(17);
            reg(w, vd);
            w.put_f32(imm);
        }
        VInsn::Vfredsum { vd, vs } => {
            w.put_u8(18);
            reg(w, vd);
            reg(w, vs);
        }
        VInsn::Vfredmin { vd, vs } => {
            w.put_u8(19);
            reg(w, vd);
            reg(w, vs);
        }
        VInsn::ScalarStoreF32 { vs, addr: a } => {
            w.put_u8(20);
            reg(w, vs);
            addr(w, a);
        }
    }
}

/// Digests a full [`Kernel`]: name, memory image, storage size, program
/// stream, expected-value checks, stream flags, useful-byte accounting.
fn put_kernel(w: &mut DigestWriter, k: &Kernel) {
    w.put_str(&k.name);
    w.put_usize(k.image.len());
    for (addr, bytes) in &k.image {
        w.put_u64(*addr);
        w.put_bytes(bytes);
    }
    w.put_usize(k.storage_size);
    let insns = k.program.insns();
    w.put_usize(insns.len());
    for insn in insns {
        put_insn(w, insn);
    }
    w.put_usize(k.expected.len());
    for c in &k.expected {
        put_check(w, c);
    }
    w.put_bool(k.read_only_streams);
    w.put_u64(k.useful_bytes);
}

/// Key of a single-requestor run: `(SystemConfig minus sched, requestor
/// SystemKind, Kernel)`.
pub fn single_run_key(cfg: &SystemConfig, kind: SystemKind, kernel: &Kernel) -> Digest {
    let mut w = key_writer("axi-pack.run.single");
    put_system_config(&mut w, cfg);
    w.put_u8(kind_tag(kind));
    put_kernel(&mut w, kernel);
    w.finish()
}

/// Key of a topology run: the shared [`SystemConfig`], the fabric shape
/// (channel count, mux arity, row-buffer timing), plus every requestor's
/// `(SystemKind, Kernel)` in position order.
pub fn topology_key(topo: &Topology) -> Digest {
    let mut w = key_writer("axi-pack.run.topology");
    put_system_config(&mut w, &topo.system);
    w.put_usize(topo.fabric.channels);
    w.put_usize(topo.fabric.arity);
    w.put_usize(topo.fabric.row_words);
    w.put_usize(topo.fabric.row_miss_penalty);
    w.put_usize(topo.requestors.len());
    for r in &topo.requestors {
        w.put_u8(kind_tag(r.kind));
        put_kernel(&mut w, &r.kernel);
    }
    w.finish()
}

fn stage_policy_tag(p: StagePolicy) -> u8 {
    match p {
        StagePolicy::RoundRobin => 0,
        StagePolicy::IndexPriority => 1,
        StagePolicy::ElementPriority => 2,
    }
}

fn put_sweep_config(w: &mut DigestWriter, cfg: &SweepConfig) {
    w.put_u32(cfg.bus_bits);
    w.put_usize(cfg.banks);
    w.put_bool(cfg.conflict_free);
    w.put_usize(cfg.queue_depth);
    w.put_usize(cfg.bursts);
    w.put_u8(stage_policy_tag(cfg.stage_policy));
}

/// Key of a stride-averaged utilization point (Fig. 5b family).
pub fn strided_avg_key(cfg: &SweepConfig, elem: ElemSize) -> Digest {
    let mut w = key_writer("axi-pack.util.strided-avg");
    put_sweep_config(&mut w, cfg);
    w.put_u32(elem.log2_bytes());
    w.finish()
}

/// Key of a randomized indirect-read utilization point (Fig. 5a /
/// ablation families).
pub fn indirect_key(cfg: &SweepConfig, elem: ElemSize, idx: IdxSize, seed: u64) -> Digest {
    let mut w = key_writer("axi-pack.util.indirect");
    put_sweep_config(&mut w, cfg);
    w.put_u32(elem.log2_bytes());
    w.put_u32(idx.log2_bytes());
    w.put_u64(seed);
    w.finish()
}

// ---------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------

/// Blob type tag for an encoded [`SystemReport`].
const TAG_SYSTEM_REPORT: u8 = 1;
/// Blob type tag for an encoded bare f64 (utilization points).
const TAG_F64: u8 = 2;

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_run_report(w: &mut ByteWriter, r: &RunReport) {
    w.str(&r.kernel);
    w.u8(kind_tag(r.kind));
    w.u32(r.bus_bits);
    w.u64(r.cycles);
    w.f64(r.r_util);
    w.f64(r.r_util_no_idx);
    w.f64(r.r_busy);
    w.u64(r.data_mismatches);
    w.u64(r.ar_stall_cycles);
    w.u64(r.w_stall_cycles);
    w.u64(r.bank_conflicts);
    let a = &r.activity;
    w.u64(a.cycles);
    w.u64(a.lane_elems);
    w.u64(a.r_payload_bytes);
    w.u64(a.w_payload_bytes);
    w.u64(a.word_accesses);
    w.u64(a.insns_issued);
    w.u8(u8::from(a.has_pack_adapter));
    w.f64(r.power_mw);
    w.f64(r.energy_uj);
    w.u64(r.injected_faults);
    w.u64(r.fault_retries);
}

fn decode_run_report(r: &mut ByteReader<'_>) -> Option<RunReport> {
    Some(RunReport {
        kernel: r.str()?,
        kind: decode_kind(r.u8()?)?,
        bus_bits: r.u32()?,
        cycles: r.u64()?,
        r_util: r.f64()?,
        r_util_no_idx: r.f64()?,
        r_busy: r.f64()?,
        data_mismatches: r.u64()?,
        ar_stall_cycles: r.u64()?,
        w_stall_cycles: r.u64()?,
        bank_conflicts: r.u64()?,
        activity: Activity {
            cycles: r.u64()?,
            lane_elems: r.u64()?,
            r_payload_bytes: r.u64()?,
            w_payload_bytes: r.u64()?,
            word_accesses: r.u64()?,
            insns_issued: r.u64()?,
            has_pack_adapter: r.u8()? != 0,
        },
        power_mw: r.f64()?,
        energy_uj: r.f64()?,
        injected_faults: r.u64()?,
        fault_retries: r.u64()?,
    })
}

/// Encodes a [`SystemReport`] into a versioned blob. Floats travel as
/// raw bit patterns, so decode → encode is the identity and warm runs
/// are bit-exact replicas of cold ones.
pub fn encode_system_report(rep: &SystemReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(VALUE_VERSION);
    w.u8(TAG_SYSTEM_REPORT);
    w.u64(rep.cycles);
    w.f64(rep.bus_r_busy);
    w.f64(rep.bus_r_util);
    w.u64(rep.bank_conflicts);
    w.u64(rep.word_accesses);
    w.u64(rep.injected_faults);
    w.u64(rep.fault_retries);
    w.u32(rep.requestors.len() as u32);
    for r in &rep.requestors {
        encode_run_report(&mut w, r);
    }
    w.u32(rep.levels.len() as u32);
    for l in &rep.levels {
        w.u32(l.level);
        w.u32(l.muxes);
        w.u64(l.ar_beats);
        w.u64(l.r_beats);
        w.u64(l.ar_waits);
    }
    w.buf
}

/// Decodes a [`SystemReport`] blob. `None` on any version or layout
/// mismatch — the caller treats that as a miss and recomputes.
pub fn decode_system_report(buf: &[u8]) -> Option<SystemReport> {
    let mut r = ByteReader::new(buf);
    if r.u32()? != VALUE_VERSION || r.u8()? != TAG_SYSTEM_REPORT {
        return None;
    }
    let cycles = r.u64()?;
    let bus_r_busy = r.f64()?;
    let bus_r_util = r.f64()?;
    let bank_conflicts = r.u64()?;
    let word_accesses = r.u64()?;
    let injected_faults = r.u64()?;
    let fault_retries = r.u64()?;
    let n = r.u32()? as usize;
    // Cap requestor count well above any real topology so a corrupt
    // length can't balloon an allocation (the store checksum should
    // catch corruption first; this is defense in depth).
    if n > 4096 {
        return None;
    }
    let mut requestors = Vec::with_capacity(n);
    for _ in 0..n {
        requestors.push(decode_run_report(&mut r)?);
    }
    let nl = r.u32()? as usize;
    // A mux tree over <= 4096 requestors never exceeds a dozen levels;
    // same defense-in-depth cap as the requestor count above.
    if nl > 64 {
        return None;
    }
    let mut levels = Vec::with_capacity(nl);
    for _ in 0..nl {
        levels.push(LevelOccupancy {
            level: r.u32()?,
            muxes: r.u32()?,
            ar_beats: r.u64()?,
            r_beats: r.u64()?,
            ar_waits: r.u64()?,
        });
    }
    if !r.done() {
        return None;
    }
    // Outcomes are not encoded: fault-injected runs bypass the cache
    // entirely, so every cached report is all-Completed by construction.
    let outcomes = vec![RequestorOutcome::Completed; n];
    Some(SystemReport {
        cycles,
        requestors,
        bus_r_busy,
        bus_r_util,
        bank_conflicts,
        word_accesses,
        injected_faults,
        fault_retries,
        outcomes,
        levels,
    })
}

/// Encodes a bare f64 (utilization point) into a versioned blob.
pub fn encode_f64(v: f64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(VALUE_VERSION);
    w.u8(TAG_F64);
    w.f64(v);
    w.buf
}

/// Decodes a bare f64 blob; `None` on mismatch.
pub fn decode_f64(buf: &[u8]) -> Option<f64> {
    let mut r = ByteReader::new(buf);
    if r.u32()? != VALUE_VERSION || r.u8()? != TAG_F64 {
        return None;
    }
    let v = r.f64()?;
    if !r.done() {
        return None;
    }
    Some(v)
}

// ---------------------------------------------------------------------
// Placeholders for keys a shard doesn't own
// ---------------------------------------------------------------------

fn placeholder_run_report(kernel: &str, kind: SystemKind, bus_bits: u32) -> RunReport {
    RunReport {
        kernel: kernel.to_string(),
        kind,
        bus_bits,
        cycles: 1,
        r_util: 0.0,
        r_util_no_idx: 0.0,
        r_busy: 0.0,
        data_mismatches: 0,
        ar_stall_cycles: 0,
        w_stall_cycles: 0,
        bank_conflicts: 0,
        activity: Activity {
            cycles: 1,
            lane_elems: 0,
            r_payload_bytes: 0,
            w_payload_bytes: 0,
            word_accesses: 0,
            insns_issued: 0,
            has_pack_adapter: false,
        },
        power_mw: 0.0,
        energy_uj: 0.0,
        injected_faults: 0,
        fault_retries: 0,
    }
}

/// An inert stand-in report for a single-requestor key this shard does
/// not own. Kernel names and kinds are preserved (table renderers key
/// on them); every metric is a harmless constant. Shard-mode output is
/// discarded, so these never reach a figure file.
pub fn placeholder_single(cfg: &SystemConfig, kind: SystemKind, kernel: &Kernel) -> SystemReport {
    SystemReport {
        cycles: 1,
        requestors: vec![placeholder_run_report(&kernel.name, kind, cfg.bus_bits)],
        bus_r_busy: 0.0,
        bus_r_util: 0.0,
        bank_conflicts: 0,
        word_accesses: 0,
        injected_faults: 0,
        fault_retries: 0,
        outcomes: vec![RequestorOutcome::Completed],
        levels: Vec::new(),
    }
}

/// An inert stand-in report for a topology key this shard doesn't own.
pub fn placeholder_topology(topo: &Topology) -> SystemReport {
    SystemReport {
        cycles: 1,
        requestors: topo
            .requestors
            .iter()
            .map(|r| placeholder_run_report(&r.kernel.name, r.kind, topo.system.bus_bits))
            .collect(),
        bus_r_busy: 0.0,
        bus_r_util: 0.0,
        bank_conflicts: 0,
        word_accesses: 0,
        injected_faults: 0,
        fault_retries: 0,
        outcomes: topo
            .requestors
            .iter()
            .map(|_| RequestorOutcome::Completed)
            .collect(),
        levels: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// The cache-aware execution wrapper
// ---------------------------------------------------------------------

/// A deterministic partition of the keyspace: shard `index` of `total`
/// owns the keys with `digest.lo mod total == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index in `0..total`.
    pub index: u32,
    /// Total number of shards.
    pub total: u32,
}

impl ShardSpec {
    /// Parses the CLI form `i/N` (`0 <= i < N`, `N >= 1`).
    pub fn parse(s: &str) -> Option<ShardSpec> {
        let (i, n) = s.split_once('/')?;
        let index: u32 = i.trim().parse().ok()?;
        let total: u32 = n.trim().parse().ok()?;
        (total >= 1 && index < total).then_some(ShardSpec { index, total })
    }

    /// True when this shard owns `key`.
    pub fn owns(&self, key: Digest) -> bool {
        key.lo % u64::from(self.total) == u64::from(self.index)
    }
}

/// Everything needed to stand up a [`RunCache`].
#[derive(Debug, Clone)]
pub struct CacheSetup {
    /// On-disk store root.
    pub dir: PathBuf,
    /// In-memory LRU budget in payload bytes.
    pub mem_bytes: usize,
    /// Keyspace partition, when running as one shard of many.
    pub shard: Option<ShardSpec>,
    /// Skip keys listed in this shard's completion manifest.
    pub resume: bool,
    /// Recompute a deterministic sample of hits and byte-compare.
    pub verify: bool,
    /// Stop computing after this many points (placeholders after) —
    /// simulates a killed shard for the resume protocol and its tests.
    pub compute_budget: Option<u64>,
    /// Names this run's completion manifest (typically family+scale);
    /// manifests are only kept for sharded runs.
    pub manifest_tag: Option<String>,
}

impl CacheSetup {
    /// A plain unsharded, unverified setup over `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> CacheSetup {
        CacheSetup {
            dir: dir.into(),
            mem_bytes: DEFAULT_MEM_BYTES,
            shard: None,
            resume: false,
            verify: false,
            compute_budget: None,
            manifest_tag: None,
        }
    }
}

/// The installed result cache: blob cache + shard plan + manifest.
///
/// All methods are `&self` and thread-safe — sweep workers share one
/// instance through [`active`].
#[derive(Debug)]
pub struct RunCache {
    cache: Cache,
    shard: Option<ShardSpec>,
    verify: bool,
    manifest: Option<Manifest>,
    done: Mutex<HashSet<Digest>>,
    budget: Option<AtomicI64>,
    computed: AtomicU64,
    foreign_skips: AtomicU64,
    resumed_skips: AtomicU64,
    budget_skips: AtomicU64,
    verified: AtomicU64,
    verify_failures: AtomicU64,
}

impl RunCache {
    /// Builds a cache from `setup`. No IO happens until first use
    /// except loading the resume manifest.
    pub fn new(setup: &CacheSetup) -> RunCache {
        let manifest = match (&setup.shard, &setup.manifest_tag) {
            (Some(shard), Some(tag)) => {
                Some(Manifest::new(setup.dir.join("manifests").join(format!(
                    "{tag}.shard-{}of{}.txt",
                    shard.index, shard.total
                ))))
            }
            _ => None,
        };
        let done = if setup.resume {
            manifest.as_ref().map(Manifest::load).unwrap_or_default()
        } else {
            HashSet::new()
        };
        RunCache {
            cache: Cache::new(&setup.dir, setup.mem_bytes),
            shard: setup.shard,
            verify: setup.verify,
            manifest,
            done: Mutex::new(done),
            budget: setup.compute_budget.map(|b| AtomicI64::new(b as i64)),
            computed: AtomicU64::new(0),
            foreign_skips: AtomicU64::new(0),
            resumed_skips: AtomicU64::new(0),
            budget_skips: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
        }
    }

    /// The shard plan, if any.
    pub fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// Points actually simulated by this run.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Hits served (memory + disk).
    pub fn hits(&self) -> u64 {
        self.cache.stats().hits()
    }

    /// Keys skipped because another shard owns them.
    pub fn foreign_skips(&self) -> u64 {
        self.foreign_skips.load(Ordering::Relaxed)
    }

    /// Keys skipped because a prior attempt's manifest listed them.
    pub fn resumed_skips(&self) -> u64 {
        self.resumed_skips.load(Ordering::Relaxed)
    }

    /// Keys skipped because the compute budget ran out.
    pub fn budget_skips(&self) -> u64 {
        self.budget_skips.load(Ordering::Relaxed)
    }

    /// Hits recomputed and byte-compared by `--verify-cache`.
    pub fn verified(&self) -> u64 {
        self.verified.load(Ordering::Relaxed)
    }

    /// Verified hits whose recomputation did NOT match the stored blob.
    /// Always zero unless the cache or the simulator is broken.
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures.load(Ordering::Relaxed)
    }

    /// One-line traffic summary for the CLI.
    pub fn stats_line(&self) -> String {
        let s = self.cache.stats();
        let mem = s.mem_hits.load(Ordering::Relaxed);
        let disk = s.disk_hits.load(Ordering::Relaxed);
        let hits = mem + disk;
        let computed = self.computed();
        let served = hits + computed;
        let mut line = if served == 0 {
            "[cache] no cacheable points".to_string()
        } else {
            format!(
                "[cache] {hits} hits ({mem} mem, {disk} disk), {computed} computed — {:.1}% hit rate",
                100.0 * hits as f64 / served as f64
            )
        };
        if let Some(shard) = self.shard {
            line.push_str(&format!(
                "; shard {}/{}: {} foreign, {} resumed, {} deferred",
                shard.index,
                shard.total,
                self.foreign_skips(),
                self.resumed_skips(),
                self.budget_skips()
            ));
        }
        if self.verify {
            line.push_str(&format!(
                "; verified {} hits, {} mismatches",
                self.verified(),
                self.verify_failures()
            ));
        }
        if self.cache.is_degraded() {
            line.push_str("; DEGRADED (memory only)");
        }
        line
    }

    /// Deterministic 1-in-8 sample of hits to re-check under
    /// `--verify-cache`.
    fn sampled(key: Digest) -> bool {
        key.lo & 7 == 0
    }

    fn resume_skip(&self, key: Digest) -> bool {
        self.shard.is_some()
            && self
                .done
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&key)
    }

    fn shard_foreign(&self, key: Digest) -> bool {
        self.shard.is_some_and(|s| !s.owns(key))
    }

    fn budget_exhausted(&self) -> bool {
        match &self.budget {
            Some(b) => b.fetch_sub(1, Ordering::Relaxed) <= 0,
            None => false,
        }
    }

    fn record_complete(&self, key: Digest, blob: Vec<u8>) {
        self.cache.put(key, blob);
        if let Some(m) = &self.manifest {
            m.append(key);
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
    }

    /// The cache-aware run wrapper. Serves `key` from cache when
    /// possible; otherwise applies the shard plan (placeholder for
    /// foreign/resumed/deferred keys) or computes, stores, and
    /// checkpoints. `compute` errors pass through uncached.
    pub fn run_report<E: From<String>>(
        &self,
        key: Digest,
        placeholder: impl FnOnce() -> SystemReport,
        compute: impl FnOnce() -> Result<SystemReport, E>,
    ) -> Result<SystemReport, E> {
        if self.resume_skip(key) {
            self.resumed_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(placeholder());
        }
        if let Some(blob) = self.cache.get(key) {
            if let Some(report) = decode_system_report(&blob) {
                if self.verify && Self::sampled(key) {
                    let fresh = compute()?;
                    self.verified.fetch_add(1, Ordering::Relaxed);
                    if encode_system_report(&fresh) != *blob {
                        self.verify_failures.fetch_add(1, Ordering::Relaxed);
                        return Err(E::from(format!(
                            "cache verification failed for key {key}: stored report \
                             differs from recomputation"
                        )));
                    }
                }
                return Ok(report);
            }
            // Undecodable (stale VALUE_VERSION): fall through, recompute.
        }
        if self.shard_foreign(key) {
            self.foreign_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(placeholder());
        }
        if self.budget_exhausted() {
            self.budget_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(placeholder());
        }
        let report = compute()?;
        self.record_complete(key, encode_system_report(&report));
        Ok(report)
    }

    /// [`RunCache::run_report`] for bare f64 utilization points. The
    /// compute path is infallible, so a verification mismatch is
    /// counted (see [`RunCache::verify_failures`]) and the *fresh*
    /// value returned; the CLI turns a nonzero count into a run
    /// failure.
    pub fn util_value(&self, key: Digest, compute: impl FnOnce() -> f64) -> f64 {
        if self.resume_skip(key) {
            self.resumed_skips.fetch_add(1, Ordering::Relaxed);
            return 0.0;
        }
        if let Some(blob) = self.cache.get(key) {
            if let Some(v) = decode_f64(&blob) {
                if self.verify && Self::sampled(key) {
                    let fresh = compute();
                    self.verified.fetch_add(1, Ordering::Relaxed);
                    if fresh.to_bits() != v.to_bits() {
                        self.verify_failures.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "error: cache verification failed for key {key}: stored \
                             {v:?} != recomputed {fresh:?}"
                        );
                        return fresh;
                    }
                }
                return v;
            }
        }
        if self.shard_foreign(key) {
            self.foreign_skips.fetch_add(1, Ordering::Relaxed);
            return 0.0;
        }
        if self.budget_exhausted() {
            self.budget_skips.fetch_add(1, Ordering::Relaxed);
            return 0.0;
        }
        let v = compute();
        self.record_complete(key, encode_f64(v));
        v
    }
}

// ---------------------------------------------------------------------
// Global installation
// ---------------------------------------------------------------------

static ACTIVE: RwLock<Option<Arc<RunCache>>> = RwLock::new(None);

/// Installs a result cache for the whole process; subsequent unprobed
/// runs consult it. Returns the handle (also retrievable via
/// [`active`]) so callers can read stats after [`uninstall`].
pub fn install(setup: &CacheSetup) -> Arc<RunCache> {
    let cache = Arc::new(RunCache::new(setup));
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = Some(cache.clone());
    cache
}

/// Removes the installed cache; runs go back to always computing.
pub fn uninstall() {
    *ACTIVE.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The currently installed cache, if any.
pub fn active() -> Option<Arc<RunCache>> {
    ACTIVE.read().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_kernel;
    use workloads::gemv;

    fn tmp(tag: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("axi-pack-cache-mod-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn small_kernel() -> Kernel {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        gemv::build(8, 7, workloads::Dataflow::ColWise, &cfg.kernel_params())
    }

    #[test]
    fn report_codec_round_trips_bit_exactly() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let rep = run_kernel(&cfg, &small_kernel()).expect("run");
        let sys = SystemReport {
            cycles: rep.cycles,
            requestors: vec![rep],
            bus_r_busy: 0.123_456_789,
            bus_r_util: f64::from_bits(0x3fe5_5555_5555_5555),
            bank_conflicts: 7,
            word_accesses: 99,
            injected_faults: 5,
            fault_retries: 4,
            outcomes: vec![RequestorOutcome::Completed],
            levels: vec![LevelOccupancy {
                level: 0,
                muxes: 3,
                ar_beats: 17,
                r_beats: 170,
                ar_waits: 23,
            }],
        };
        let blob = encode_system_report(&sys);
        let back = decode_system_report(&blob).expect("decode");
        assert_eq!(encode_system_report(&back), blob);
        assert_eq!(back.cycles, sys.cycles);
        assert_eq!((back.injected_faults, back.fault_retries), (5, 4));
        assert_eq!(back.requestors[0].kernel, sys.requestors[0].kernel);
        assert_eq!(
            back.requestors[0].r_util.to_bits(),
            sys.requestors[0].r_util.to_bits()
        );
    }

    #[test]
    fn f64_codec_round_trips_nan_and_neg_zero() {
        for v in [0.0, -0.0, f64::NAN, 1.0 / 3.0, f64::INFINITY] {
            let blob = encode_f64(v);
            assert_eq!(decode_f64(&blob).unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(decode_f64(b"junk"), None);
        let cfg = SystemConfig::paper(SystemKind::Base);
        let topo = Topology::builder(&cfg)
            .requestor(cfg.kind, small_kernel())
            .build()
            .expect("DRC-clean");
        assert_eq!(
            decode_f64(&encode_system_report(&placeholder_topology(&topo))),
            None
        );
    }

    #[test]
    fn sched_mode_is_excluded_from_keys() {
        let kernel = small_kernel();
        let mut event = SystemConfig::paper(SystemKind::Pack);
        event.sched = crate::system::SchedMode::Event;
        let mut lockstep = event;
        lockstep.sched = crate::system::SchedMode::Lockstep;
        assert_eq!(
            single_run_key(&event, SystemKind::Pack, &kernel),
            single_run_key(&lockstep, SystemKind::Pack, &kernel)
        );
        // …but every report-visible knob separates keys.
        let mut other = event;
        other.banks = 16;
        assert_ne!(
            single_run_key(&event, SystemKind::Pack, &kernel),
            single_run_key(&other, SystemKind::Pack, &kernel)
        );
        assert_ne!(
            single_run_key(&event, SystemKind::Pack, &kernel),
            single_run_key(&event, SystemKind::Base, &kernel)
        );
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        assert_eq!(
            ShardSpec::parse("0/4"),
            Some(ShardSpec { index: 0, total: 4 })
        );
        assert_eq!(
            ShardSpec::parse("3/4"),
            Some(ShardSpec { index: 3, total: 4 })
        );
        assert_eq!(ShardSpec::parse("4/4"), None);
        assert_eq!(ShardSpec::parse("0/0"), None);
        assert_eq!(ShardSpec::parse("x/2"), None);
        assert_eq!(ShardSpec::parse("2"), None);
        // Every key is owned by exactly one shard.
        for b in 0u8..32 {
            let key = Digest::of_bytes(&[b]);
            let owners = (0..4)
                .filter(|&i| ShardSpec { index: i, total: 4 }.owns(key))
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn run_report_caches_and_replays() {
        let dir = tmp("replay");
        let rc = RunCache::new(&CacheSetup::new(&dir));
        let key = Digest::of_bytes(b"k1");
        let cfg = SystemConfig::paper(SystemKind::Base);
        let kernel = small_kernel();
        let mut computes = 0;
        for _ in 0..3 {
            let rep: Result<SystemReport, crate::system::RunError> = rc.run_report(
                key,
                || placeholder_single(&cfg, cfg.kind, &kernel),
                || {
                    computes += 1;
                    Ok(SystemReport {
                        cycles: 42,
                        requestors: vec![],
                        bus_r_busy: 0.5,
                        bus_r_util: 0.25,
                        bank_conflicts: 1,
                        word_accesses: 2,
                        injected_faults: 0,
                        fault_retries: 0,
                        outcomes: vec![],
                        levels: vec![],
                    })
                },
            );
            assert_eq!(rep.unwrap().cycles, 42);
        }
        assert_eq!(computes, 1);
        assert_eq!(rc.computed(), 1);
        assert_eq!(rc.hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_store_degrades_but_results_stay_correct() {
        // Cache dir is a FILE → every disk write fails; the run must
        // still produce correct results from the compute path (plus
        // the memory tier).
        let path = tmp("poison");
        std::fs::write(&path, b"not a dir").unwrap();
        let rc = RunCache::new(&CacheSetup::new(&path));
        let key = Digest::of_bytes(b"p");
        for want in [7u64, 7, 7] {
            let rep: Result<SystemReport, crate::system::RunError> = rc.run_report(
                key,
                || unreachable!("unsharded runs never use placeholders"),
                || {
                    Ok(SystemReport {
                        cycles: want,
                        requestors: vec![],
                        bus_r_busy: 0.0,
                        bus_r_util: 0.0,
                        bank_conflicts: 0,
                        word_accesses: 0,
                        injected_faults: 0,
                        fault_retries: 0,
                        outcomes: vec![],
                        levels: vec![],
                    })
                },
            );
            assert_eq!(rep.unwrap().cycles, want);
        }
        // First call computed and stored to memory; the rest hit there.
        assert_eq!(rc.computed(), 1);
        assert_eq!(rc.hits(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
