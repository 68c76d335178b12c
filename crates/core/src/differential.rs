//! The randomized differential scenario engine (`figures fuzz`).
//!
//! Every seed expands into a family of checks that must all agree:
//!
//! 1. **Cross-system differential** — a random kernel from
//!    [`workloads::synth`] runs on BASE, PACK and IDEAL; each run's final
//!    backing store must match the host-side reference model
//!    **bit-for-bit** ([`memory_digest`]), every AXI handshake is checked
//!    by a protocol [`axi_proto::checker::Monitor`], and the kernel's
//!    tolerance checks must pass.
//! 2. **Metamorphic invariants** — a single-requestor [`Topology`] must
//!    reproduce the solo [`crate::run_kernel`] report exactly; relocating
//!    the kernel into a 4 KiB-aligned address window
//!    ([`workloads::Kernel::rebased`]) must change neither the report nor
//!    the results.
//! 3. **Topology replay** — the same seed expands into 2- and 4-requestor
//!    shared-bus topologies (mixed BASE/PACK/IDEAL kinds); the shared
//!    store must equal the composition of every requestor's reference
//!    memory in its window, with all leaf-port and root-link monitors
//!    violation-free.
//! 4. **Burst-level differential** — random packed/plain bursts at *all*
//!    element widths (the kernel path is 32-bit only) drive the adapter
//!    directly; R payloads must match the [`axi_proto::expand`] reference
//!    expansion and plain writes must land exactly where issued.
//! 5. **Scheduler oracle** — every solo run and the 2-requestor topology
//!    are replayed in lockstep mode ([`SchedMode::Lockstep`]);
//!    [`lockstep_divergence`] demands the same memory digest and the
//!    same whole report, and a replay that skipped no span and parked no
//!    engine.
//!
//! Every run-equality check here and in [`crate::chaos`] compares whole
//! reports through [`run_divergence`].
//!
//! A failing seed reports a one-line repro command
//! ([`repro_command`]); [`minimize`] shrinks it by halving program
//! length, then element count, re-running the same seed at each rung.

use axi_proto::checker::Monitor;
use axi_proto::expand::element_addresses;
use axi_proto::{Addr, ArBeat, AxiChannels, BusConfig, ElemSize, IdxSize, WBeat};
use banked_mem::{BankConfig, Storage};
use pack_ctrl::{Adapter, CtrlConfig};
use vproc::SystemKind;
use workloads::synth::{self, SplitMix64, SynthConfig, SynthKernel};

use std::fmt::Debug;
use std::sync::Arc;

use crate::report::RunReport;
use crate::system::{
    run_kernel_probed, run_system, run_system_probed, Requestor, SchedMode, SystemConfig, Topology,
};

/// FNV-1a digest of a memory image — the bit-for-bit comparison the
/// differential checks use (two stores are considered equal iff every
/// byte matches; FNV keeps the comparison O(n) with no allocation).
pub fn memory_digest(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// [`memory_digest`] of the store a run over these windows must leave:
/// each reference image at its window base, every gap zero.
pub(crate) fn composed_digest(bases: &[u64], images: &[Arc<[u8]>]) -> u64 {
    let windows = || bases.iter().map(|&b| b as usize).zip(images);
    let end = windows().map(|(b, r)| b + r.len()).max().unwrap_or(0);
    let mut composed = vec![0u8; end];
    for (b, r) in windows() {
        composed[b..b + r.len()].copy_from_slice(r);
    }
    memory_digest(&composed)
}

/// Scheduler activity of one probed run.
///
/// Deliberately kept out of [`crate::RunReport`]: reports must be
/// bit-identical between event and lockstep modes (that is the oracle's
/// contract), while skip counts are a property of *how* time advanced.
/// Lockstep runs report all zeros.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedProbe {
    /// Cycles covered by fast-forwarded idle spans instead of ticks.
    pub skipped_cycles: u64,
    /// Number of idle spans fast-forwarded.
    pub skip_spans: u64,
}

impl SchedProbe {
    /// Accounts one fast-forwarded span of `span` cycles.
    #[inline]
    pub fn record_span(&mut self, span: u64) {
        self.skipped_cycles += span;
        self.skip_spans += 1;
    }
}

/// Observation state a probed run fills in: per-leaf protocol monitors,
/// one monitor on the root link of every muxed channel, a digest of the
/// final backing store, and the scheduler's skip, parking and
/// work-skipping accounting.
#[derive(Debug, Default)]
pub struct RunProbe {
    /// One monitor per bus-attached leaf port, channel by channel in
    /// port order (empty for IDEAL-only runs).
    pub monitors: Vec<Monitor>,
    /// The requestor behind each of [`RunProbe::monitors`].
    pub(crate) monitor_requestors: Vec<usize>,
    /// Always `None` after a run: the link below a mux is a channel's
    /// root link, and its monitor lands in [`RunProbe::roots`]. The
    /// field stays so code that reads it keeps compiling.
    pub downstream: Option<Monitor>,
    /// One monitor per memory channel on the root link of its mux tree;
    /// channels without a mux (a single bus-attached member) have none.
    pub roots: Vec<Monitor>,
    /// The channel behind each of [`RunProbe::roots`].
    pub(crate) root_channels: Vec<usize>,
    /// [`memory_digest`] of the final backing store.
    pub storage_digest: Option<u64>,
    /// Idle spans the event-driven scheduler fast-forwarded (all zeros in
    /// lockstep mode).
    pub sched: SchedProbe,
    /// Engine ticks event mode replaced by replayed bookkeeping while the
    /// engine was parked on its leaf port, waiting for R/B beats or AR
    /// space (always 0 in lockstep mode).
    pub parked_ticks: u64,
    /// Bus bundles whose cycle-boundary register stage ran. Lockstep ends
    /// every bundle every ticked cycle (cycles × bundles); event mode ends
    /// only the bundles an engine, mux or adapter pushed to or popped
    /// from that cycle.
    pub stage_visits: u64,
    /// Mux ticks executed. Lockstep ticks every mux every ticked cycle
    /// (cycles × muxes); event mode parks a mux whose tick moved nothing
    /// until the register stage of one of its port or down-link bundles
    /// runs, then replays the skipped rounds' lost AR grants in one call.
    pub mux_ticks: u64,
}

impl RunProbe {
    /// Returns a description of every protocol violation and every
    /// non-quiescent monitor, or `None` when the run was protocol-clean.
    pub fn violation_summary(&self) -> Option<String> {
        let mut out = Vec::new();
        let sides = self
            .monitors
            .iter()
            .enumerate()
            .map(|(k, m)| (format!("requestor {}", self.monitor_requestors[k]), m))
            .chain(
                self.roots
                    .iter()
                    .enumerate()
                    .map(|(k, m)| (format!("channel {} root", self.root_channels[k]), m)),
            );
        for (side, mon) in sides {
            for v in mon.violations() {
                out.push(format!("{side}: {v}"));
            }
            if !mon.quiescent() {
                out.push(format!("{side}: bursts left open at end of run"));
            }
        }
        (!out.is_empty()).then(|| out.join("; "))
    }
}

/// The first line on which two run reports ([`RunReport`] or
/// [`crate::SystemReport`]) differ, numbered and shown from both, or
/// `None` when they are identical. The reports are compared by their
/// pretty [`Debug`] rendering, which prints every field and every float
/// exactly, so equal renderings mean bit-equal reports and a field added
/// to a report is compared from then on.
pub fn run_divergence<R: Debug>(a: &R, b: &R) -> Option<String> {
    // The compact rendering holds the same text at a third of the cost;
    // only a divergence needs the lines.
    if format!("{a:?}") == format!("{b:?}") {
        return None;
    }
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let n = (0..a.len().max(b.len())).find(|&n| a.get(n) != b.get(n))?;
    let [x, y] = [&a, &b].map(|r| r.get(n).map_or("<end of report>", |l| l.trim()));
    Some(format!("line {}: `{x}` vs `{y}`", n + 1))
}

/// [`run_divergence`] between an event-mode run and its lockstep replay,
/// after what the replay itself must show: it fast-forwarded no idle
/// span, parked no engine and left the same backing store.
pub fn lockstep_divergence<R: Debug>(
    event: &R,
    ev_probe: &RunProbe,
    lockstep: &R,
    lk_probe: &RunProbe,
) -> Option<String> {
    if lk_probe.sched != SchedProbe::default() || lk_probe.parked_ticks != 0 {
        return Some(format!(
            "lockstep skipped {} spans and parked {} engine ticks; it must do neither",
            lk_probe.sched.skip_spans, lk_probe.parked_ticks
        ));
    }
    if ev_probe.storage_digest != lk_probe.storage_digest {
        return Some(format!(
            "final memory differs: digest {:#018x?} (event) vs {:#018x?} (lockstep)",
            ev_probe.storage_digest, lk_probe.storage_digest
        ));
    }
    run_divergence(event, lockstep).map(|d| format!("report differs at {d} (event vs lockstep)"))
}

/// What one seed's full differential check covered (for reporting).
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// One-line scenario description from the generator.
    pub summary: String,
    /// Individual assertions that held (digest comparisons, monitor
    /// checks, metamorphic equalities, burst payload comparisons).
    pub checks: u64,
    /// Total simulated cycles across every run of this seed.
    pub cycles: u64,
}

/// The one-line command that reproduces a failing seed.
pub fn repro_command(seed: u64, cfg: &SynthConfig) -> String {
    let mut cmd = format!("figures fuzz --seed-start {seed} --count 1");
    let d = SynthConfig::default();
    if cfg.max_ops != d.max_ops {
        cmd.push_str(&format!(" --max-ops {}", cfg.max_ops));
    }
    if cfg.max_elems != d.max_elems {
        cmd.push_str(&format!(" --max-elems {}", cfg.max_elems));
    }
    if cfg.allow_read_back != d.allow_read_back {
        cmd.push_str(" --no-read-back");
    }
    cmd
}

/// Runs *every* differential check for one seed: the kernel family
/// (cross-system + metamorphic + topologies) and the burst family.
///
/// # Errors
///
/// Returns a human-readable description of the first check that failed,
/// prefixed with enough context to localize it (system kind, topology
/// shape, or burst description).
pub fn check_seed(seed: u64, cfg: &SynthConfig) -> Result<SeedOutcome, String> {
    let mut outcome = check_kernel_seed(seed, cfg)?;
    let burst = check_burst_seed(seed)?;
    outcome.checks += burst.checks;
    outcome.cycles += burst.cycles;
    Ok(outcome)
}

/// System parameters a seed's kernel family runs under (shared by every
/// kind and topology of that seed, so the differential is apples to
/// apples).
pub(crate) fn seed_system(seed: u64, kind: SystemKind) -> SystemConfig {
    let mut rng = SplitMix64::new(seed ^ 0xD1FF_7E57_0000_0001);
    let bus_bits = [64u32, 128, 256][rng.below(3)];
    let mut sys = SystemConfig::with_bus(kind, bus_bits);
    sys.banks = [8usize, 16, 17, 32][rng.below(4)];
    sys.queue_depth = [1usize, 2, 4, 8][rng.below(4)];
    // Fuzz kernels are small; a hung datapath should fail fast.
    sys.max_cycles = 20_000_000;
    sys
}

/// The kernel-family differential for one seed (checks 1–3 and 5 of the
/// [module docs](self)).
///
/// # Errors
///
/// See [`check_seed`].
pub fn check_kernel_seed(seed: u64, cfg: &SynthConfig) -> Result<SeedOutcome, String> {
    check_kernel_seed_watched(seed, cfg, 0)
}

/// [`check_kernel_seed`] with an explicit progress-watchdog window on
/// every run (0 = disabled). The shrink ladder uses a tight window so a
/// hanging rung fails in tens of thousands of cycles instead of riding
/// the full `max_cycles` ceiling.
fn check_kernel_seed_watched(
    seed: u64,
    cfg: &SynthConfig,
    watchdog: u64,
) -> Result<SeedOutcome, String> {
    let mut rng = SplitMix64::new(seed ^ 0xD1FF_7E57_0000_0002);
    let mut checks = 0u64;
    let mut cycles = 0u64;

    // --- 1. Cross-system differential -------------------------------
    // One generation + one reference-model execution, lowered per kind.
    let kinds = [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal];
    let max_vl = seed_system(seed, SystemKind::Pack).kernel_params().max_vl;
    // The primary path runs event-driven regardless of the global
    // `--lockstep` default: check 5 replays it in lockstep anyway, so
    // both modes are exercised on every seed either way, and pinning the
    // mode keeps the metamorphic equalities (2a/2b) mode-consistent.
    let built: Vec<(SystemConfig, SynthKernel)> = kinds
        .iter()
        .zip(synth::build_kinds(seed, cfg, max_vl, &kinds))
        .map(|(&kind, sk)| {
            let mut sys = seed_system(seed, kind);
            sys.sched = SchedMode::Event;
            sys.watchdog = watchdog;
            (sys, sk)
        })
        .collect();
    let reference = memory_digest(&built[0].1.final_mem);
    let summary = built[0].1.summary.clone();
    let mut solo: Vec<RunReport> = Vec::with_capacity(kinds.len());
    for (i, (sys, sk)) in built.iter().enumerate() {
        let mut probe = RunProbe::default();
        let report = run_kernel_probed(sys, &sk.kernel, &mut probe)
            .map_err(|e| format!("seed {seed}: {} run failed: {e}", kinds[i]))?;
        if let Some(v) = probe.violation_summary() {
            return Err(format!(
                "seed {seed}: {} protocol violations: {v}",
                kinds[i]
            ));
        }
        let got = probe.storage_digest.expect("probed run digests storage");
        if got != reference {
            return Err(format!(
                "seed {seed}: {} final memory diverges from the reference model \
                 (digest {got:#018x} vs {reference:#018x}; scenario: {summary})",
                kinds[i]
            ));
        }
        cycles += report.cycles;
        checks += 3;

        // --- 5. Scheduler oracle: lockstep replay must be identical --
        let mut lock_sys = *sys;
        lock_sys.sched = SchedMode::Lockstep;
        let mut lock_probe = RunProbe::default();
        let lock_report = run_kernel_probed(&lock_sys, &sk.kernel, &mut lock_probe)
            .map_err(|e| format!("seed {seed}: lockstep {} run failed: {e}", kinds[i]))?;
        if let Some(d) = lockstep_divergence(&report, &probe, &lock_report, &lock_probe) {
            return Err(format!(
                "seed {seed}: {} lockstep replay diverges: {d} (scenario: {summary})",
                kinds[i]
            ));
        }
        cycles += lock_report.cycles;
        checks += 3;
        solo.push(report);
    }

    // --- 2a. Metamorphic: 1-requestor topology == solo run ----------
    let (pack_sys, pack_kernel) = {
        let (sys, sk) = &built[1];
        (*sys, sk.kernel.clone())
    };
    // Static invariant: every generated topology must be DRC-clean — a
    // seed the builder's design-rule gate rejects is a generator bug,
    // not a simulation bug.
    let topo = Topology::builder(&pack_sys)
        .requestor(pack_sys.kind, pack_kernel.clone())
        .build()
        .map_err(|e| {
            format!("seed {seed}: generated single-requestor topology violates the DRC: {e}")
        })?;
    checks += 1;
    let sys_report = run_system(&topo)
        .map_err(|e| format!("seed {seed}: single-requestor topology failed: {e}"))?;
    if let Some(d) = run_divergence(&sys_report.requestors[0], &solo[1]) {
        return Err(format!(
            "seed {seed}: single-requestor topology report differs from the solo run at {d}"
        ));
    }
    cycles += sys_report.cycles;
    checks += 1;

    // --- 2b. Metamorphic: window relocation changes nothing ---------
    let offset = 0x1000u64 * (1 + rng.below(15)) as u64;
    let moved = pack_kernel.rebased(offset);
    let mut probe = RunProbe::default();
    let report = run_kernel_probed(&pack_sys, &moved, &mut probe)
        .map_err(|e| format!("seed {seed}: rebased (+{offset:#x}) pack run failed: {e}"))?;
    if let Some(d) = run_divergence(&report, &solo[1]) {
        return Err(format!(
            "seed {seed}: rebasing by {offset:#x} changed the pack report at {d}"
        ));
    }
    if let Some(v) = probe.violation_summary() {
        return Err(format!("seed {seed}: rebased run protocol violations: {v}"));
    }
    let moved_ref = composed_digest(&[offset], &[built[1].1.final_mem.clone()]);
    if probe.storage_digest != Some(moved_ref) {
        return Err(format!(
            "seed {seed}: rebasing by {offset:#x} changed the functional result"
        ));
    }
    cycles += report.cycles;
    checks += 3;

    // --- 3. Topology replay: 2 and 4 requestors ---------------------
    for n in [2usize, 4] {
        let mut requestors = Vec::with_capacity(n);
        let mut refs: Vec<Arc<[u8]>> = Vec::with_capacity(n);
        for i in 0..n {
            let sub_seed = simkit::sweep::point_seed(seed, i);
            // At most one IDEAL slot (4-requestor runs), so the shared
            // bus always carries real contention.
            let kind = match rng.below(if n == 4 && i == 3 { 3 } else { 2 }) {
                0 => SystemKind::Pack,
                1 => SystemKind::Base,
                _ => SystemKind::Ideal,
            };
            let sk = synth::build(sub_seed, cfg, &pack_sys.kernel_params_for(kind));
            refs.push(sk.final_mem.clone());
            requestors.push(Requestor::new(kind, sk.kernel));
        }
        // Same static invariant for every generated multi-requestor
        // topology: the builder's design-rule gate must accept it.
        let topo = Topology::builder(&pack_sys)
            .requestors(requestors)
            .build()
            .map_err(|e| {
                format!("seed {seed}: generated {n}-requestor topology violates the DRC: {e}")
            })?;
        checks += 1;
        let bases = topo.window_bases();
        let mut probe = RunProbe::default();
        let report = run_system_probed(&topo, &mut probe)
            .map_err(|e| format!("seed {seed}: {n}-requestor topology failed: {e}"))?;
        if let Some(v) = probe.violation_summary() {
            return Err(format!(
                "seed {seed}: {n}-requestor topology protocol violations: {v}"
            ));
        }
        if probe.storage_digest != Some(composed_digest(&bases, &refs)) {
            return Err(format!(
                "seed {seed}: {n}-requestor shared store diverges from the composed \
                 per-window references"
            ));
        }
        cycles += report.cycles;
        checks += 2 + n as u64;

        // --- 5. Scheduler oracle on the shared fabric (2-requestor
        // topology only; the solo replays already cover every kind) ----
        if n == 2 {
            let mut lock_topo = topo.clone();
            lock_topo.system.sched = SchedMode::Lockstep;
            let mut lock_probe = RunProbe::default();
            let lock_report = run_system_probed(&lock_topo, &mut lock_probe)
                .map_err(|e| format!("seed {seed}: lockstep {n}-requestor topology failed: {e}"))?;
            if let Some(d) = lockstep_divergence(&report, &probe, &lock_report, &lock_probe) {
                return Err(format!(
                    "seed {seed}: {n}-requestor lockstep replay diverges: {d}"
                ));
            }
            cycles += lock_report.cycles;
            checks += 4 + n as u64;
        }
    }

    Ok(SeedOutcome {
        seed,
        summary,
        checks,
        cycles,
    })
}

/// Watchdog window the shrink ladder applies once a seed is known to
/// hang: any fuzz-sized kernel that makes zero datapath progress for
/// this many cycles is wedged for good (legitimate stalls are orders of
/// magnitude shorter), so each hanging rung aborts here instead of
/// burning the full `max_cycles` ceiling.
const SHRINK_WATCHDOG: u64 = 50_000;

/// Shrinks a failing kernel seed: re-runs the same seed down the
/// [`SynthConfig::shrunk`] ladder (halving program length, then element
/// count) and returns the smallest configuration that still fails,
/// together with its failure message. Returns `None` if the seed does
/// not fail at `cfg` in the first place.
///
/// When the original failure is a hang (a [`crate::RunError::Hang`]
/// "exceeded N cycles" report), every rung below it runs with a
/// 50 k-cycle progress watchdog (`SHRINK_WATCHDOG`) so the ladder descends
/// in seconds rather than re-simulating each hang to the cycle ceiling.
pub fn minimize(seed: u64, cfg: &SynthConfig) -> Option<(SynthConfig, String)> {
    let first = check_kernel_seed(seed, cfg).err()?;
    // Hang detection by message shape: a ceiling overrun says
    // "exceeded {limit} cycles"; a watchdog detection says
    // "no progress for {window} cycles".
    let watchdog = if first.contains("exceeded") || first.contains("no progress for") {
        SHRINK_WATCHDOG
    } else {
        0
    };
    let mut failing = (*cfg, first);
    while let Some(next) = failing.0.shrunk() {
        match check_kernel_seed_watched(seed, &next, watchdog) {
            Err(e) => failing = (next, e),
            Ok(_) => break,
        }
    }
    Some(failing)
}

// ---------------------------------------------------------------------
// Burst-level differential (random element widths)
// ---------------------------------------------------------------------

/// Storage layout of a burst scenario: a patterned read-only pool, a
/// region for planted index arrays, and one disjoint slot per write
/// transaction.
const READ_POOL: usize = 1 << 16;
const IDX_REGION: usize = 1 << 14;

#[derive(Debug)]
struct ExpectedBeat {
    /// Byte offset inside the beat where the comparison starts.
    at: usize,
    bytes: Vec<u8>,
}

/// One generated transaction with its reference data.
#[derive(Debug)]
struct Txn {
    ar: ArBeat,
    is_write: bool,
    /// Expected R beats, in order (reads only).
    expected: std::collections::VecDeque<ExpectedBeat>,
    /// W beats to send (writes only).
    w_beats: std::collections::VecDeque<WBeat>,
    /// `(address, bytes)` the write must have landed by the end.
    landed: Vec<(Addr, Vec<u8>)>,
    desc: String,
}

/// The burst-family differential for one seed: random packed strided /
/// packed indirect / plain incrementing / narrow transactions at every
/// element width the bus admits, checked against the
/// [`axi_proto::expand`] reference and a protocol monitor.
///
/// # Errors
///
/// See [`check_seed`].
pub fn check_burst_seed(seed: u64) -> Result<SeedOutcome, String> {
    let mut rng = SplitMix64::new(seed ^ 0xB0B5_7ED0_0000_0003);
    let bus = BusConfig::new([64u32, 128, 256][rng.below(3)]);
    let banks = [8usize, 16, 17, 32][rng.below(4)];
    let queue_depth = [1usize, 2, 4, 8][rng.below(4)];
    let bus_bytes = bus.data_bytes();

    let n_txns = 4 + rng.below(9);
    let write_slot = |i: usize| (READ_POOL + IDX_REGION + i * 1024) as Addr;
    let mut storage = Storage::new(READ_POOL + IDX_REGION + n_txns * 1024 + (1 << 12));
    // Recognizable read-pool pattern: word w holds a Knuth hash of w.
    for (w, chunk) in storage.as_bytes_mut()[..READ_POOL]
        .chunks_exact_mut(4)
        .enumerate()
    {
        chunk.copy_from_slice(&(w as u32).wrapping_mul(2654435761).to_le_bytes());
    }

    // Element sizes the packed converters admit on this bus: at least one
    // memory word (4 B), at most one beat.
    let packed_sizes: Vec<ElemSize> = ElemSize::ALL
        .into_iter()
        .filter(|e| e.bytes() >= 4 && e.bytes() <= bus_bytes)
        .collect();
    let mut idx_cursor = READ_POOL;
    let mut txns: Vec<Txn> = Vec::with_capacity(n_txns);
    for i in 0..n_txns {
        let id = i as u8;
        let snap = |storage: &Storage, addr: Addr, len: usize| {
            storage.as_bytes()[addr as usize..addr as usize + len].to_vec()
        };
        let txn = match rng.below(10) {
            0..=2 => {
                // Packed strided read.
                let esz = packed_sizes[rng.below(packed_sizes.len())];
                let eb = esz.bytes();
                let epb = bus.elems_per_beat(esz);
                let n_elems = 1 + rng.below(3 * epb);
                let stride = rng.range_i64(-8, 8) as i32;
                let span = (n_elems as i64 - 1) * stride.unsigned_abs() as i64 * eb as i64;
                let lo = if stride < 0 { span as usize } else { 0 };
                let hi = READ_POOL - eb - if stride >= 0 { span as usize } else { 0 };
                let base = (lo + rng.below((hi - lo) / 4 + 1) * 4) as Addr;
                let ar = ArBeat::packed_strided(id, base, n_elems as u32, esz, stride, &bus);
                let addrs = element_addresses(&ar, None, &bus);
                Txn {
                    expected: packed_expectation(&ar, &addrs, &storage, &bus),
                    ar,
                    is_write: false,
                    w_beats: Default::default(),
                    landed: Vec::new(),
                    desc: format!("strided read {n_elems}x{eb}B stride {stride} @ {base:#x}"),
                }
            }
            3..=4 => {
                // Packed indirect read through a freshly planted index
                // array.
                let esz = packed_sizes[rng.below(packed_sizes.len())];
                let eb = esz.bytes();
                let epb = bus.elems_per_beat(esz);
                let n_elems = 1 + rng.below(3 * epb);
                let isz = IdxSize::ALL[rng.below(IdxSize::ALL.len())];
                let pool = 200u64.min(isz.max_index().saturating_add(1));
                let elem_base = (rng.below((READ_POOL - pool as usize * eb) / 4) * 4) as Addr;
                let idx_addr = idx_cursor as Addr;
                let mut bytes = vec![0u8; (n_elems * isz.bytes() + 3) & !3];
                let mut indices = Vec::with_capacity(n_elems);
                for k in 0..n_elems {
                    let v = rng.below(pool as usize) as u64;
                    isz.write_le(v, &mut bytes[k * isz.bytes()..]);
                    indices.push(v);
                }
                storage.write(idx_addr, &bytes);
                idx_cursor += (bytes.len() + 63) & !63;
                assert!(idx_cursor < READ_POOL + IDX_REGION, "index region overflow");
                let ar = ArBeat::packed_indirect(
                    id,
                    idx_addr,
                    n_elems as u32,
                    esz,
                    isz,
                    elem_base,
                    &bus,
                );
                let addrs = element_addresses(&ar, Some(&indices), &bus);
                Txn {
                    expected: packed_expectation(&ar, &addrs, &storage, &bus),
                    ar,
                    is_write: false,
                    w_beats: Default::default(),
                    landed: Vec::new(),
                    desc: format!(
                        "indirect read {n_elems}x{eb}B idx{}B @ {idx_addr:#x}",
                        isz.bytes()
                    ),
                }
            }
            5..=6 => {
                // Plain incrementing read.
                let beats = 1 + rng.below(6);
                let base =
                    (rng.below((READ_POOL - beats * bus_bytes) / bus_bytes) * bus_bytes) as Addr;
                let ar = ArBeat::incr(id, base, beats as u32, &bus);
                let expected = (0..beats)
                    .map(|b| ExpectedBeat {
                        at: 0,
                        bytes: snap(&storage, base + (b * bus_bytes) as Addr, bus_bytes),
                    })
                    .collect();
                Txn {
                    ar,
                    is_write: false,
                    expected,
                    w_beats: Default::default(),
                    landed: Vec::new(),
                    desc: format!("incr read {beats} beats @ {base:#x}"),
                }
            }
            7 => {
                // Narrow single-element read (the BASE per-element shape).
                // The plain converter handles elements up to one memory
                // word (4 B) — BASE never issues wider narrow transfers.
                let esz = [ElemSize::B1, ElemSize::B2, ElemSize::B4][rng.below(3)];
                let eb = esz.bytes();
                let addr = (rng.below((READ_POOL - eb) / eb) * eb) as Addr;
                let lane = (addr as usize) % bus_bytes;
                let ar = ArBeat::narrow(id, addr, esz);
                let expected = std::collections::VecDeque::from([ExpectedBeat {
                    at: lane,
                    bytes: snap(&storage, addr, eb),
                }]);
                Txn {
                    ar,
                    is_write: false,
                    expected,
                    w_beats: Default::default(),
                    landed: Vec::new(),
                    desc: format!("narrow read {eb}B @ {addr:#x}"),
                }
            }
            _ => {
                // Plain incrementing write into this transaction's own
                // disjoint slot.
                let beats = 1 + rng.below(2);
                let base = write_slot(i);
                let mut w_beats = std::collections::VecDeque::new();
                let mut landed = Vec::new();
                for b in 0..beats {
                    let data: Vec<u8> = (0..bus_bytes).map(|_| rng.below(256) as u8).collect();
                    landed.push((base + (b * bus_bytes) as Addr, data.clone()));
                    w_beats.push_back(WBeat::full(data, b + 1 == beats));
                }
                Txn {
                    ar: ArBeat::incr(id, base, beats as u32, &bus),
                    is_write: true,
                    expected: Default::default(),
                    w_beats,
                    landed,
                    desc: format!("incr write {beats} beats @ {base:#x}"),
                }
            }
        };
        txns.push(txn);
    }

    // Drive the adapter to quiescence under a monitor.
    let bank = BankConfig {
        banks,
        word_bytes: 4,
        latency: 1,
        ports: 0,
        conflict_free: false,
        commit_writes: true,
        row_words: 0,
        row_miss_penalty: 0,
    };
    let mut adapter = Adapter::new(CtrlConfig::new(bus, bank, queue_depth), storage);
    let mut ch = AxiChannels::new();
    let mut mon = Monitor::new(bus);
    let mut next_txn = 0usize;
    let mut w_queue: std::collections::VecDeque<WBeat> = Default::default();
    let mut b_expected = 0usize;
    let mut b_received = 0usize;
    // Outstanding reads by transaction index. Different IDs may complete
    // in any interleaving (AXI orders only same-ID traffic), so beats are
    // matched by ID, not issue order.
    let mut open_reads: Vec<usize> = Vec::new();
    let mut cycles = 0u64;
    let mut checks = 0u64;
    loop {
        // Issue the next transaction (requests go out strictly in order;
        // the adapter interleaves service internally).
        if next_txn < txns.len() {
            let t = &mut txns[next_txn];
            let chan = if t.is_write { &mut ch.aw } else { &mut ch.ar };
            if chan.can_push() {
                chan.push(t.ar.clone());
                if t.is_write {
                    w_queue.extend(t.w_beats.drain(..));
                    b_expected += 1;
                } else {
                    open_reads.push(next_txn);
                }
                next_txn += 1;
            }
        }
        if !w_queue.is_empty() && ch.w.can_push() {
            ch.w.push(w_queue.pop_front().expect("nonempty"));
        }
        if let Some(r) = ch.r.pop() {
            let pos = open_reads
                .iter()
                .position(|&ti| txns[ti].ar.id == r.id)
                .ok_or_else(|| {
                    format!(
                        "seed {seed}: R beat {} with no matching read outstanding",
                        r.id
                    )
                })?;
            let t = &mut txns[open_reads[pos]];
            let exp = t
                .expected
                .pop_front()
                .ok_or_else(|| format!("seed {seed}: extra R beat for {}", t.desc))?;
            if r.data[exp.at..exp.at + exp.bytes.len()] != exp.bytes[..] {
                return Err(format!(
                    "seed {seed}: R payload mismatch on {} (beat {} of {}): got {:02x?}, \
                     expected {:02x?}",
                    t.desc,
                    t.ar.beats as usize - t.expected.len() - 1,
                    t.ar.beats,
                    &r.data[exp.at..exp.at + exp.bytes.len()],
                    exp.bytes
                ));
            }
            checks += 1;
            if t.expected.is_empty() {
                open_reads.remove(pos);
            }
        }
        if ch.b.pop().is_some() {
            b_received += 1;
        }
        adapter.tick(&mut ch);
        adapter.end_cycle();
        ch.end_cycle_observed(&mut mon);
        cycles += 1;
        if next_txn == txns.len()
            && open_reads.is_empty()
            && w_queue.is_empty()
            && b_received == b_expected
            && adapter.quiescent()
            && ch.is_empty()
        {
            break;
        }
        if cycles > 2_000_000 {
            let open: Vec<String> = open_reads
                .iter()
                .map(|&ti| {
                    format!(
                        "{} ({} beats still expected)",
                        txns[ti].desc,
                        txns[ti].expected.len()
                    )
                })
                .collect();
            return Err(format!(
                "seed {seed}: burst scenario hung (issued {next_txn}/{} txns; open: {})",
                txns.len(),
                open.join(", ")
            ));
        }
    }
    if !mon.violations().is_empty() {
        let v: Vec<String> = mon.violations().iter().map(|v| v.to_string()).collect();
        return Err(format!(
            "seed {seed}: burst protocol violations: {}",
            v.join("; ")
        ));
    }
    checks += 1;
    // Writes must have landed exactly as issued.
    for t in &txns {
        for (addr, bytes) in &t.landed {
            let got = &adapter.storage().as_bytes()[*addr as usize..*addr as usize + bytes.len()];
            if got != &bytes[..] {
                return Err(format!("seed {seed}: {} did not land at {addr:#x}", t.desc));
            }
            checks += 1;
        }
    }
    Ok(SeedOutcome {
        seed,
        summary: format!(
            "{} burst txns on {}b bus, {banks} banks",
            txns.len(),
            bus.data_bits()
        ),
        checks,
        cycles,
    })
}

/// Reference R-beat contents of a packed burst: elements packed from
/// lane 0 in bus order, partial tail compared only over its valid bytes.
fn packed_expectation(
    ar: &ArBeat,
    addrs: &[Addr],
    storage: &Storage,
    bus: &BusConfig,
) -> std::collections::VecDeque<ExpectedBeat> {
    let eb = ar.size.bytes();
    let epb = bus.elems_per_beat(ar.size);
    addrs
        .chunks(epb)
        .map(|chunk| {
            let mut bytes = Vec::with_capacity(chunk.len() * eb);
            for &a in chunk {
                bytes.extend_from_slice(&storage.as_bytes()[a as usize..a as usize + eb]);
            }
            ExpectedBeat { at: 0, bytes }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Regression corpus
// ---------------------------------------------------------------------

/// One corpus entry: a seed plus the generator configuration it runs at.
#[derive(Debug, Clone, Copy)]
pub struct FuzzCase {
    /// The seed to replay.
    pub seed: u64,
    /// Generator configuration.
    pub cfg: SynthConfig,
    /// Why this seed is in the corpus.
    pub note: &'static str,
}

/// Default-config corpus case.
const fn case(seed: u64, note: &'static str) -> FuzzCase {
    FuzzCase {
        seed,
        cfg: SynthConfig {
            max_ops: 24,
            max_elems: 192,
            allow_read_back: true,
        },
        note,
    }
}

/// Sized corpus case.
const fn sized(seed: u64, max_ops: usize, max_elems: usize, note: &'static str) -> FuzzCase {
    FuzzCase {
        seed,
        cfg: SynthConfig {
            max_ops,
            max_elems,
            allow_read_back: true,
        },
        note,
    }
}

/// The checked-in regression corpus: seeds that ever exposed a bug plus
/// a spread of generator shapes (tiny programs, long programs, short
/// arrays, shrink-ladder endpoints). `crates/core/tests/fuzz_corpus.rs`
/// replays it on every `cargo test`; `figures fuzz --corpus` replays it
/// from the CLI.
pub static SEED_CORPUS: &[FuzzCase] = &[
    case(0, "first seed of every CI fuzz-smoke window"),
    case(
        1,
        "found the 64-bit-index converter hang (IndexStage parsed zero \
         indices per word when idx_bytes > word_bytes, wedging the burst)",
    ),
    case(7, "duplicate-heavy scatter indices"),
    case(11, "negative strides on a 64-bit bus"),
    case(23, "read-after-write on an output array"),
    case(42, "reduction + scalar write-back mix"),
    case(63, "last seed of the CI fuzz-smoke window"),
    sized(
        2,
        2,
        4,
        "shrink-ladder floor: minimal program, minimal arrays",
    ),
    sized(3, 4, 8, "near-minimal program with indexed accesses"),
    sized(5, 48, 192, "double-length program (beyond the default cap)"),
    sized(13, 24, 16, "long program over short arrays (dense overlap)"),
    sized(17, 8, 256, "short program over long arrays (big bursts)"),
    FuzzCase {
        seed: 29,
        cfg: SynthConfig {
            max_ops: 24,
            max_elems: 192,
            allow_read_back: false,
        },
        note: "read-only streams: data_mismatches must stay zero",
    },
];

/// Replays the whole [`SEED_CORPUS`]; returns the number of cases run.
///
/// # Errors
///
/// *Every* failing case as `(seed, message)`, each message carrying the
/// case's corpus note — the tier-1 corpus test and `figures fuzz
/// --corpus` both report through this one function.
pub fn replay_corpus() -> Result<usize, Vec<(u64, String)>> {
    let failures: Vec<(u64, String)> = SEED_CORPUS
        .iter()
        .filter_map(|c| {
            check_seed(c.seed, &c.cfg)
                .err()
                .map(|e| (c.seed, format!("corpus case '{}': {e}", c.note)))
        })
        .collect();
    if failures.is_empty() {
        Ok(SEED_CORPUS.len())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FabricSpec;

    #[test]
    fn digest_is_order_and_content_sensitive() {
        assert_eq!(memory_digest(&[]), 0xCBF2_9CE4_8422_2325);
        assert_ne!(memory_digest(&[1, 2]), memory_digest(&[2, 1]));
        assert_ne!(memory_digest(&[0]), memory_digest(&[0, 0]));
    }

    #[test]
    fn first_seeds_pass_every_differential_check() {
        let cfg = SynthConfig::default();
        for seed in 0..8 {
            let out = check_seed(seed, &cfg).expect("seed must pass");
            assert!(out.checks >= 10, "seed {seed} ran too few checks");
            assert!(out.cycles > 0);
        }
    }

    #[test]
    fn corrupted_expectation_is_caught_and_reported() {
        // A deliberately wrong reference must fail with a repro-worthy
        // message — the detection path the fuzzer relies on.
        let cfg = SynthConfig::default();
        let sys = seed_system(3, SystemKind::Pack);
        let sk = synth::build(3, &cfg, &sys.kernel_params());
        let mut probe = RunProbe::default();
        run_kernel_probed(&sys, &sk.kernel, &mut probe).expect("clean run");
        let mut corrupted = sk.final_mem.to_vec();
        corrupted[0x1000] ^= 0xFF;
        assert_ne!(
            probe.storage_digest,
            Some(memory_digest(&corrupted)),
            "a flipped reference byte must change the comparison"
        );
    }

    #[test]
    fn repro_command_reflects_non_default_config() {
        let d = SynthConfig::default();
        assert_eq!(
            repro_command(9, &d),
            "figures fuzz --seed-start 9 --count 1"
        );
        let small = SynthConfig {
            max_ops: 6,
            max_elems: 16,
            allow_read_back: false,
        };
        let cmd = repro_command(9, &small);
        assert!(cmd.contains("--max-ops 6"));
        assert!(cmd.contains("--max-elems 16"));
        assert!(cmd.contains("--no-read-back"));
    }

    /// Seed 3's PACK kernel, run probed under `sched`.
    fn seed3_run(sched: SchedMode) -> (RunReport, RunProbe) {
        let mut sys = seed_system(3, SystemKind::Pack);
        sys.sched = sched;
        let sk = synth::build(3, &SynthConfig::default(), &sys.kernel_params());
        let mut probe = RunProbe::default();
        let report = run_kernel_probed(&sys, &sk.kernel, &mut probe).expect("clean run");
        (report, probe)
    }

    #[test]
    fn identical_runs_do_not_diverge() {
        let (ev, ev_probe) = seed3_run(SchedMode::Event);
        let (again, _) = seed3_run(SchedMode::Event);
        let (lk, lk_probe) = seed3_run(SchedMode::Lockstep);
        assert_eq!(run_divergence(&ev, &again), None);
        assert_eq!(lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe), None);
    }

    #[test]
    fn one_ulp_or_one_requestor_fewer_diverges_at_its_line() {
        let (ev, _) = seed3_run(SchedMode::Event);
        let mut off = ev.clone();
        off.r_util = f64::from_bits(ev.r_util.to_bits() + 1);
        let d = run_divergence(&ev, &off).expect("one ULP is a divergence");
        let line = |r: &RunReport| format!("`r_util: {:?},`", r.r_util);
        assert_eq!(d, format!("line 6: {} vs {}", line(&ev), line(&off)));

        let cfg = seed_system(3, SystemKind::Pack);
        let topo = Topology::builder(&cfg)
            .requestors((0..2).map(|i| {
                let sk = synth::build(i, &SynthConfig::default(), &cfg.kernel_params());
                Requestor::new(SystemKind::Pack, sk.kernel)
            }))
            .build()
            .expect("DRC-clean");
        let full = run_system(&topo).expect("clean run");
        let mut fewer = full.clone();
        fewer.requestors.pop();
        let d = run_divergence(&full, &fewer).expect("a missing requestor is a divergence");
        assert!(d.ends_with("`RunReport {` vs `],`"), "{d}");
    }

    #[test]
    fn a_skipping_parking_or_storing_lockstep_replay_diverges() {
        let (ev, ev_probe) = seed3_run(SchedMode::Event);
        let (lk, mut lk_probe) = seed3_run(SchedMode::Lockstep);
        lk_probe.sched.record_span(1);
        let d = lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe);
        assert!(d.expect("a skip span").contains("skipped 1 spans"));
        lk_probe.sched = SchedProbe::default();
        lk_probe.parked_ticks = 1;
        let d = lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe);
        assert!(d.expect("a parked tick").contains("parked 1 engine ticks"));
        lk_probe.parked_ticks = 0;
        lk_probe.storage_digest = lk_probe.storage_digest.map(|d| !d);
        let d = lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe);
        assert!(d
            .expect("a different store")
            .contains("final memory differs"));
    }

    #[test]
    fn violations_name_the_requestor_or_channel_behind_each_monitor() {
        // Requestor i lives on channel i % 2: channel 0 holds IDEAL 0
        // and PACK 2 (one leaf, no mux), channel 1 holds PACK 1 and
        // BASE 3 under one mux. Leaf monitors run channel by channel, so
        // position k is not requestor k, and only channel 1 has a root.
        let cfg = seed_system(3, SystemKind::Pack);
        let kinds = [
            SystemKind::Ideal,
            SystemKind::Pack,
            SystemKind::Pack,
            SystemKind::Base,
        ];
        let topo = Topology::builder(&cfg)
            .requestors(kinds.iter().enumerate().map(|(i, &kind)| {
                let sk = synth::build(
                    i as u64,
                    &SynthConfig::default(),
                    &cfg.kernel_params_for(kind),
                );
                Requestor::new(kind, sk.kernel)
            }))
            .fabric(FabricSpec::tree(2).with_channels(2))
            .build()
            .expect("DRC-clean");
        let mut probe = RunProbe::default();
        run_system_probed(&topo, &mut probe).expect("clean run");
        assert_eq!(probe.violation_summary(), None);
        // Leave one burst open on every monitor.
        let ar = ArBeat::incr(0, 0, 1, &BusConfig::new(cfg.bus_bits));
        for mon in probe.monitors.iter_mut().chain(&mut probe.roots) {
            mon.observe_ar(&ar);
        }
        let open = ": bursts left open at end of run";
        let want = [
            "requestor 2",
            "requestor 1",
            "requestor 3",
            "channel 1 root",
        ];
        assert_eq!(
            probe.violation_summary(),
            Some(want.map(|side| format!("{side}{open}")).join("; "))
        );
    }

    #[test]
    fn minimize_returns_none_for_passing_seeds() {
        assert!(minimize(0, &SynthConfig::default()).is_none());
    }

    #[test]
    fn every_corpus_case_generates_a_drc_clean_topology() {
        // Static sweep over the whole regression corpus: each case's
        // generated kernel must assemble into a design-rule-clean
        // topology without running a single cycle.
        for case in SEED_CORPUS {
            let sys = seed_system(case.seed, SystemKind::Pack);
            let sk = synth::build(case.seed, &case.cfg, &sys.kernel_params());
            let topo = Topology::builder(&sys)
                .requestor(sys.kind, sk.kernel)
                .build();
            assert!(
                topo.is_ok(),
                "corpus seed {} ('{}') is not DRC-clean: {}",
                case.seed,
                case.note,
                topo.err().map(|e| e.to_string()).unwrap_or_default()
            );
        }
    }

    #[test]
    fn burst_seeds_pass_on_their_own() {
        for seed in 0..8 {
            let out = check_burst_seed(seed).expect("burst seed must pass");
            assert!(out.checks > 0, "seed {seed} checked nothing");
        }
    }
}
