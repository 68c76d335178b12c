//! System assembly and the run loop.
//!
//! Builds the paper's three evaluation systems (§III-A): BASE (plain
//! AXI4), PACK (AXI-Pack bus + near-memory adapter) and IDEAL (per-lane
//! conflict-free memory) — and runs kernels to completion on them.
//!
//! Assembly revolves around a [`Topology`]: one shared bus/memory
//! configuration plus N requestors, each with its own [`SystemKind`],
//! kernel, and private address-space window of the shared backing store.
//! [`run_system`] ticks all N engines; with two or more bus-attached
//! requestors they share a [`pack_ctrl::Adapter`] through ID-remapping
//! [`axi_proto::AxiMux`] levels — the multi-requestor configuration
//! the paper sketches in §II-A/§V, which is where bus contention,
//! arbitration fairness, and cross-requestor bank-conflict amplification
//! become measurable. [`run_kernel`] is the single-requestor entry point
//! behind every bar of Fig. 3: the paper's evaluation system is the
//! degenerate fabric of one leaf, no mux level and one channel.
//!
//! Topologies are built with [`TopologyBuilder`] (via
//! [`Topology::builder`]), which validates through the static design-rule
//! checker and returns typed [`RunError::Drc`] diagnostics instead of
//! panicking. A [`FabricSpec`] scales the interconnect past the flat
//! four-port mux: bus-attached requestors cascade through a tree of mux
//! levels (fan-in [`FabricSpec::arity`] per level, one ID-prefix field
//! per level), and requestor windows interleave round-robin across
//! [`FabricSpec::channels`] independent memory channels, each with its
//! own adapter and optionally a DRAM-style row-buffer timing model.
//!
//! One loop advances simulated time for every run, solo or shared: the
//! fabric loop below. It owns the event-skip gate, engine parking, the
//! watchdog, hang forensics, fault isolation and report assembly.

use std::borrow::Cow;

use axi_proto::checker::Monitor;
use axi_proto::{AxiChannels, AxiId, AxiMux, BusConfig, LOCAL_ID_BITS, MAX_FAN_IN, MAX_MANAGERS};
use banked_mem::{BankConfig, ChannelMap, Storage, WordFault};
use hwmodel::energy::{Activity, EnergyModel};
use pack_ctrl::{Adapter, CtrlConfig};
use simkit::fault::{site, FaultReport, FaultSpec, HangComponent, HangReport};
use simkit::sched::Wake;
use vproc::{BusFault, Engine, EngineStats, SystemKind, VprocConfig};
use workloads::{Kernel, KernelParams};

use crate::differential::{memory_digest, RunProbe, SchedProbe};
use crate::drc::{self, DrcReport};
use crate::report::{LevelOccupancy, RequestorOutcome, RunReport, SystemReport};

/// Why a run refused to start or failed to complete.
///
/// The run paths validate every configuration with the static design-rule
/// checker ([`crate::drc`]) before cycle 0; a rejected configuration
/// carries its full [`DrcReport`] so the caller sees every violated rule,
/// not just the first. Running-simulation failures are typed too:
/// an unrecoverable injected AXI fault aborts with a [`FaultReport`]
/// naming the site and retry history, and a stalled or over-budget run
/// aborts with a [`HangReport`] naming the stalled dependency chain.
/// Only functional divergence from the scalar reference stays a plain
/// string.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The design-rule check rejected the configuration before cycle 0.
    Drc(DrcReport),
    /// The simulation ran and the functional result diverged from the
    /// scalar reference.
    Sim(String),
    /// A requestor aborted on an unrecoverable AXI fault: the adapter's
    /// retry budget was exhausted, or a decode error (never retryable)
    /// reached the requestor.
    Axi(FaultReport),
    /// The run hung: the progress watchdog saw no real-work counter move
    /// for a whole window, or the hard `max_cycles` budget ran out. Boxed
    /// — the forensics snapshot is large and errors travel by value.
    Hang(Box<HangReport>),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Drc(report) => write!(f, "{report}"),
            RunError::Sim(msg) => f.write_str(msg),
            RunError::Axi(report) => write!(f, "{report}"),
            RunError::Hang(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<String> for RunError {
    fn from(msg: String) -> Self {
        RunError::Sim(msg)
    }
}

impl From<RunError> for String {
    fn from(err: RunError) -> Self {
        err.to_string()
    }
}

impl RunError {
    /// The DRC report, when this error is a design-rule rejection.
    pub fn drc_report(&self) -> Option<&DrcReport> {
        match self {
            RunError::Drc(report) => Some(report),
            _ => None,
        }
    }

    /// The fault report, when this error is an AXI fault abort.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        match self {
            RunError::Axi(report) => Some(report),
            _ => None,
        }
    }

    /// The hang forensics, when this error is a hang.
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            RunError::Hang(report) => Some(report),
            _ => None,
        }
    }
}

/// How the run loops advance simulated time.
///
/// Both modes produce bit-identical results — final memory, every
/// [`RunReport`] counter, and the completion cycle — which the
/// differential fuzzer asserts on every seed. Event mode is purely a
/// wall-clock optimization; lockstep is the oracle it is proven against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Readiness/wakeup scheduling: run loops query every component's
    /// [`simkit::sched::Wake`] at each cycle boundary and fast-forward the
    /// global cycle counter across spans where all of them are provably
    /// idle (scalar stalls, reduction tails, memory latency countdowns).
    #[default]
    Event,
    /// Tick every component every cycle — the original scheduler, kept as
    /// the differential oracle (`figures --lockstep`).
    Lockstep,
}

impl std::fmt::Display for SchedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedMode::Event => "event",
            SchedMode::Lockstep => "lockstep",
        })
    }
}

/// Process-wide default for [`SystemConfig::sched`], flipped once at
/// startup by the `figures --lockstep` flag. `true` means lockstep.
static DEFAULT_LOCKSTEP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Sets the process-wide default scheduling mode that newly built
/// [`SystemConfig`]s pick up.
///
/// Intended for CLI entry points (the `figures --lockstep` oracle mode);
/// tests and library code should set [`SystemConfig::sched`] on the
/// specific config instead of mutating process state.
pub fn set_default_sched_mode(mode: SchedMode) {
    DEFAULT_LOCKSTEP.store(
        mode == SchedMode::Lockstep,
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// The process-wide default scheduling mode (see
/// [`set_default_sched_mode`]).
pub fn default_sched_mode() -> SchedMode {
    if DEFAULT_LOCKSTEP.load(std::sync::atomic::Ordering::Relaxed) {
        SchedMode::Lockstep
    } else {
        SchedMode::Event
    }
}

/// Configuration of one evaluation system.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// BASE, PACK or IDEAL (paper §III-A).
    pub kind: SystemKind,
    /// Bus width in bits (64 / 128 / 256; lanes scale with it).
    pub bus_bits: u32,
    /// Bank count of the shared SRAM (paper default 17).
    pub banks: usize,
    /// Decoupling-queue depth in the controller (paper default 4).
    pub queue_depth: usize,
    /// Vector processor parameters (derived from the bus width).
    pub vproc: VprocConfig,
    /// Safety limit on simulated cycles.
    pub max_cycles: u64,
    /// Event-driven or lockstep time advancement (results are identical;
    /// see [`SchedMode`]).
    pub sched: SchedMode,
    /// Deterministic fault injection, `None` (the default) for clean
    /// runs. Installing a spec arms the bank, decode and mux grant sites
    /// and the adapter's bounded retry recovery.
    pub fault: Option<FaultSpec>,
    /// Progress-watchdog window in cycles (0 disables it): when no
    /// real-work counter advances for a whole window the run aborts with
    /// [`RunError::Hang`] instead of spinning to `max_cycles`.
    pub watchdog: u64,
}

impl SystemConfig {
    /// The paper's evaluation system at a 256-bit bus.
    pub fn paper(kind: SystemKind) -> Self {
        SystemConfig::with_bus(kind, 256)
    }

    /// A paper system at a different bus width (Fig. 3d/3e sweeps).
    pub fn with_bus(kind: SystemKind, bus_bits: u32) -> Self {
        SystemConfig {
            kind,
            bus_bits,
            banks: 17,
            queue_depth: 4,
            vproc: VprocConfig::for_bus_bits(bus_bits),
            max_cycles: 500_000_000,
            sched: default_sched_mode(),
            fault: None,
            watchdog: 0,
        }
    }

    /// Kernel-builder parameters matching this system.
    pub fn kernel_params(&self) -> KernelParams {
        self.kernel_params_for(self.kind)
    }

    /// Kernel-builder parameters for a requestor of another kind sharing
    /// this system (programs are system-specific).
    pub fn kernel_params_for(&self, kind: SystemKind) -> KernelParams {
        KernelParams::new(kind, self.vproc.max_vl())
    }

    fn bus(&self) -> BusConfig {
        BusConfig::new(self.bus_bits)
    }

    /// Controller config for one channel of a fabric: this system's banks
    /// with the fabric's row-buffer timing model.
    fn ctrl_for(&self, fabric: &FabricSpec) -> CtrlConfig {
        let bank = BankConfig {
            banks: self.banks,
            word_bytes: 4,
            latency: 1,
            ports: 0, // derived by CtrlConfig::new
            conflict_free: false,
            // Eager-functional execution is the source of truth for
            // memory contents; timed writes keep timing only.
            commit_writes: false,
            row_words: fabric.row_words,
            row_miss_penalty: fabric.row_miss_penalty,
        };
        CtrlConfig::new(self.bus(), bank, self.queue_depth)
    }
}

/// One requestor of a [`Topology`]: a system kind plus the kernel built
/// for that kind (programs are system-specific — build the kernel with
/// [`SystemConfig::kernel_params_for`] of the same kind).
#[derive(Debug, Clone)]
pub struct Requestor {
    /// How this requestor accesses memory (BASE and PACK requestors may
    /// share one bus; IDEAL requestors own per-lane ports and never
    /// contend).
    pub kind: SystemKind,
    /// The kernel this requestor executes, in window-relative addresses.
    pub kernel: Kernel,
}

impl Requestor {
    /// Bundles a kind with its kernel.
    pub fn new(kind: SystemKind, kernel: Kernel) -> Self {
        Requestor { kind, kernel }
    }
}

/// Requestor windows are 4 KiB-aligned so every kernel keeps its internal
/// 64-byte layout alignment — and therefore its bus-boundary behaviour —
/// regardless of which window it lands in. Public so the static
/// design-rule checker ([`crate::drc`]) verifies alignment against the
/// same constant the assembly code derives windows from.
pub const WINDOW_ALIGN: u64 = 0x1000;

/// Shape of the memory-side fabric of a [`Topology`]: how many
/// interleaved memory channels back the requestors, the manager fan-in
/// of each cascaded mux level, and the DRAM-style row-buffer timing of
/// each channel's banks.
///
/// The default ([`FabricSpec::flat`]) is the pre-fabric system — one
/// channel, one flat mux of up to [`MAX_MANAGERS`] ports, no row-buffer
/// model — and runs byte-identically to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// Independent memory channels, each with its own adapter and banked
    /// store behind it. Requestor windows interleave across channels
    /// round-robin by window index (window *i* on channel
    /// `i % channels`).
    pub channels: usize,
    /// Manager fan-in of one mux level (2..=[`MAX_FAN_IN`]). A channel
    /// with more bus-attached requestors than this cascades them through
    /// a tree of levels, each stacking its own ID-prefix field.
    pub arity: usize,
    /// Words per bank row: a channel access outside a bank's open row
    /// pays [`FabricSpec::row_miss_penalty`]. 0 disables the model.
    pub row_words: usize,
    /// Extra cycles a row-buffer miss costs (activate + precharge).
    pub row_miss_penalty: usize,
}

impl Default for FabricSpec {
    fn default() -> Self {
        FabricSpec::flat()
    }
}

impl FabricSpec {
    /// The pre-fabric shape: one channel, one flat mux, SRAM-flat banks.
    pub fn flat() -> Self {
        FabricSpec {
            channels: 1,
            arity: MAX_MANAGERS,
            row_words: 0,
            row_miss_penalty: 0,
        }
    }

    /// A cascaded mux tree with the given per-level fan-in.
    pub fn tree(arity: usize) -> Self {
        FabricSpec {
            arity,
            ..FabricSpec::flat()
        }
    }

    /// Same fabric, interleaved across `channels` memory channels.
    pub fn with_channels(self, channels: usize) -> Self {
        FabricSpec { channels, ..self }
    }

    /// Same fabric, with a DRAM-style row-buffer model on every bank.
    pub fn with_row_buffer(self, row_words: usize, row_miss_penalty: usize) -> Self {
        FabricSpec {
            row_words,
            row_miss_penalty,
            ..self
        }
    }
}

/// Where one mux of a channel's tree sits among the channel's bundles
/// (see [`ChannelPlan::bundles`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MuxWiring {
    /// First of its manager ports, `bundles[lo..hi]`.
    pub(crate) lo: usize,
    /// One past its last manager port.
    pub(crate) hi: usize,
    /// Its downstream link, `bundles[down]`; always at or above `hi`.
    pub(crate) down: usize,
    /// ID bits below its port prefix: the leaf-local bits plus one
    /// prefix per level beneath it.
    pub(crate) shift: u32,
}

/// The mux tree of one memory channel, as [`Placement`] wires it.
#[derive(Debug, Clone)]
pub(crate) struct ChannelPlan {
    /// Requestor index of every leaf port, in port order: the channel's
    /// bus-attached requestors.
    pub(crate) members: Vec<usize>,
    /// Every mux, level by level bottom-up, the last level exactly one
    /// mux — the tree root. Empty when a lone member's leaf is the
    /// adapter's link, or on an all-IDEAL channel.
    pub(crate) muxes: Vec<MuxWiring>,
    /// Level `l` holds `muxes[level_starts[l]..level_starts[l + 1]]`.
    level_starts: Vec<usize>,
}

impl ChannelPlan {
    /// Wires the tree over `members`' leaf ports: each level groups
    /// `arity` consecutive links of the level below under one mux, whose
    /// down-link is the next new bundle, until a single link remains.
    fn new(members: Vec<usize>, arity: usize, id_bits_at: impl Fn(usize) -> u32) -> Self {
        let mut muxes = Vec::new();
        let mut level_starts = vec![0];
        // The current level's ports are `bundles[first..first + width]`.
        let (mut first, mut width) = (0, members.len());
        while width > 1 {
            let links = members.len() + muxes.len();
            let shift = id_bits_at(level_starts.len() - 1);
            for k in 0..width.div_ceil(arity) {
                let lo = first + k * arity;
                muxes.push(MuxWiring {
                    lo,
                    hi: (lo + arity).min(first + width),
                    down: links + k,
                    shift,
                });
            }
            level_starts.push(muxes.len());
            (first, width) = (links, members.len() + muxes.len() - links);
        }
        ChannelPlan {
            members,
            muxes,
            level_starts,
        }
    }

    /// Mux levels of the tree (0 for a lone member or an all-IDEAL
    /// channel).
    pub(crate) fn depth(&self) -> usize {
        self.level_starts.len() - 1
    }

    /// The indices into [`ChannelPlan::muxes`] of level `l`, bottom-up.
    pub(crate) fn level(&self, l: usize) -> std::ops::Range<usize> {
        self.level_starts[l]..self.level_starts[l + 1]
    }

    /// Bus bundles of the channel: first the leaves, one per member in
    /// port order, then each mux's down-link in mux order. The last
    /// bundle is the link the adapter serves — the tree's root link, or
    /// a lone member's leaf.
    pub(crate) fn bundles(&self) -> usize {
        self.members.len() + self.muxes.len()
    }
}

/// Physical placement of a [`Topology`] and the plan of its fabric: every
/// requestor's address window, the decoder interleaving those windows
/// across memory channels, each requestor's owning channel, leaf port and
/// ID width, and the mux tree of every channel. The one authoritative
/// answer shared by the run loop, the DRC and the forensics — none of
/// them re-derive windows, channel routing, tree wiring or ID widths ad
/// hoc.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Window base address per requestor (4 KiB-aligned, disjoint,
    /// requestor 0 at address 0).
    pub window_bases: Vec<u64>,
    /// Window size in bytes per requestor (its kernel's storage size).
    pub window_sizes: Vec<u64>,
    /// Address-range decoder mapping every window onto its channel.
    pub channels: ChannelMap,
    /// Owning memory channel per requestor.
    pub channel_of: Vec<usize>,
    /// Total backing-store bytes covering every window.
    pub storage_bytes: usize,
    /// The fabric as configured (the DRC judges its raw arity and
    /// channel count).
    pub(crate) fabric: FabricSpec,
    /// ID-prefix bits one mux level stacks.
    pub(crate) level_bits: u32,
    /// The mux tree of every channel, `fabric.channels.max(1)` of them.
    pub(crate) trees: Vec<ChannelPlan>,
    /// Per requestor: its `(channel, leaf port)`, `None` for IDEAL.
    pub(crate) slots: Vec<Option<(usize, usize)>>,
    /// Per requestor: the AXI ID width its engine runs at.
    pub(crate) id_bits: Vec<u32>,
}

impl Placement {
    /// Lays the requestors' windows out back to back (4 KiB-aligned, the
    /// first at address 0), interleaves them across the fabric's memory
    /// channels, and plans every channel's mux tree over its
    /// bus-attached requestors in requestor order. Never panics, however
    /// malformed the fabric: the DRC diagnoses it afterwards.
    pub(crate) fn new(
        sys: &SystemConfig,
        fabric: &FabricSpec,
        reqs: &[(SystemKind, &Kernel)],
    ) -> Self {
        let mut next = 0u64;
        let windows: Vec<(u64, u64)> = reqs
            .iter()
            .map(|(_, k)| {
                let (base, size) = (next, k.storage_size as u64);
                next = (base + size).div_ceil(WINDOW_ALIGN) * WINDOW_ALIGN;
                (base, size)
            })
            .collect();
        let nch = fabric.channels.max(1);
        let channel_of: Vec<usize> = (0..windows.len()).map(|i| i % nch).collect();
        // Bus-attached requestors take their channel's leaf ports in
        // requestor order; IDEAL ones use per-lane ports and take none.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nch];
        let slots: Vec<Option<(usize, usize)>> = reqs
            .iter()
            .zip(&channel_of)
            .enumerate()
            .map(|(i, (&(kind, _), &c))| {
                (kind != SystemKind::Ideal).then(|| {
                    members[c].push(i);
                    (c, members[c].len() - 1)
                })
            })
            .collect();
        // The one clamp of the arity: the DRC rejects arities outside
        // 2..=MAX_FAN_IN from the raw spec, and the plan stays panic-free.
        let arity = fabric.arity.clamp(2, MAX_FAN_IN);
        let mut plan = Placement {
            channels: ChannelMap::interleaved(&windows, fabric.channels),
            channel_of,
            // Windows ascend, so the last one ends the store.
            storage_bytes: windows
                .last()
                .map_or(0, |&(base, size)| (base + size) as usize),
            window_bases: windows.iter().map(|&(base, _)| base).collect(),
            window_sizes: windows.iter().map(|&(_, size)| size).collect(),
            fabric: *fabric,
            level_bits: (arity - 1).ilog2() + 1,
            trees: Vec::new(),
            slots,
            id_bits: Vec::new(),
        };
        plan.trees = members
            .into_iter()
            .map(|m| ChannelPlan::new(m, arity, |l| plan.id_bits_at(l)))
            .collect();
        // Behind a mux tree, local IDs must leave room for the stacked
        // level prefixes.
        plan.id_bits = plan
            .slots
            .iter()
            .map(|slot| match *slot {
                Some((c, _)) if !plan.trees[c].muxes.is_empty() => plan.id_bits_at(0),
                _ => sys.vproc.axi_id_bits,
            })
            .collect();
        plan
    }

    /// ID bits a transaction carries above `level` mux levels of a tree:
    /// the leaf-local width, plus one port prefix per level.
    pub(crate) fn id_bits_at(&self, level: usize) -> u32 {
        LOCAL_ID_BITS + level as u32 * self.level_bits
    }

    /// Mux levels of the deepest channel's tree.
    pub(crate) fn depth(&self) -> usize {
        self.trees.iter().map(ChannelPlan::depth).max().unwrap_or(0)
    }

    /// The ID under which requestor `i`'s leaf-local ID `local` reaches
    /// its channel's adapter: every mux on the path stacks its port
    /// prefix, exactly as the tree remaps on the way down. A lone leaf
    /// or an IDEAL requestor keeps its ID.
    pub(crate) fn endpoint_id(&self, i: usize, local: u16) -> u16 {
        let Some((c, leaf)) = self.slots[i] else {
            return local;
        };
        let (mut id, mut link) = (AxiId(local), leaf);
        // Muxes are listed bottom-up and every down-link lies above its
        // ports, so one pass meets the path's muxes in order.
        for w in &self.trees[c].muxes {
            if (w.lo..w.hi).contains(&link) {
                id = AxiMux::prefix_id(w.shift, link - w.lo, id);
                link = w.down;
            }
        }
        id.0
    }
}

/// A complete system: shared bus/memory parameters plus N requestors,
/// each in its own address-space window (paper §II-A/§V), connected
/// through the fabric a [`FabricSpec`] describes.
///
/// Requestor 0's window starts at address 0, so a single-requestor
/// topology on the flat fabric is *exactly* the classic [`run_kernel`]
/// system — same addresses, same cycle loop, byte-identical
/// [`RunReport`].
#[derive(Debug, Clone)]
pub struct Topology {
    /// Shared system parameters: bus width, bank count, queue depth,
    /// vector-processor shape and cycle limit. (`system.kind` seeds
    /// single-requestor topologies; each requestor carries its own kind.)
    pub system: SystemConfig,
    /// The requestors sharing the system, in manager-port order.
    pub requestors: Vec<Requestor>,
    /// Interconnect and memory-channel shape. The default is the flat
    /// pre-fabric system.
    pub fabric: FabricSpec,
}

impl Topology {
    /// Starts a [`TopologyBuilder`] over the given system parameters —
    /// the panic-free way to assemble a topology.
    pub fn builder(cfg: &SystemConfig) -> TopologyBuilder {
        TopologyBuilder::new(cfg)
    }

    /// The window base address of every requestor: 4 KiB-aligned,
    /// disjoint, requestor 0 at address 0.
    pub fn window_bases(&self) -> Vec<u64> {
        self.placement().window_bases
    }

    /// The full physical placement: windows, channel interleave, the
    /// backing-store size and the plan of every channel's mux tree. Never
    /// panics — degenerate fabrics (zero channels, out-of-range arities,
    /// empty requestor lists) produce a degenerate placement the DRC then
    /// diagnoses.
    pub fn placement(&self) -> Placement {
        Placement::new(&self.system, &self.fabric, &self.reqs())
    }

    /// Every requestor as the `(kind, kernel)` pair the plan, the DRC and
    /// the run loop read.
    pub(crate) fn reqs(&self) -> Vec<(SystemKind, &Kernel)> {
        self.requestors
            .iter()
            .map(|r| (r.kind, &r.kernel))
            .collect()
    }
}

/// Panic-free [`Topology`] assembly: collect requestors and fabric
/// knobs, then [`TopologyBuilder::build`] validates the whole
/// configuration through the static design-rule checker and returns
/// either a run-ready topology or the full typed [`DrcReport`].
///
/// # Examples
///
/// ```
/// use axi_pack::{FabricSpec, SystemConfig, Topology};
/// use vproc::SystemKind;
/// use workloads::ismt;
///
/// let cfg = SystemConfig::paper(SystemKind::Pack);
/// let p = cfg.kernel_params();
/// let topo = Topology::builder(&cfg)
///     .requestor(SystemKind::Pack, ismt::build(16, 1, &p))
///     .requestor(SystemKind::Pack, ismt::build(16, 2, &p))
///     .fabric(FabricSpec::tree(2))
///     .build()
///     .expect("DRC-clean");
/// assert_eq!(topo.requestors.len(), 2);
///
/// // Errors are typed, not panics: an empty topology is DRC-U1.
/// let err = Topology::builder(&cfg).build().expect_err("rejected");
/// assert!(err.drc_report().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    system: SystemConfig,
    requestors: Vec<Requestor>,
    fabric: FabricSpec,
}

impl TopologyBuilder {
    /// Starts a builder over the given system parameters with the flat
    /// default fabric and no requestors.
    pub fn new(cfg: &SystemConfig) -> Self {
        TopologyBuilder {
            system: *cfg,
            requestors: Vec::new(),
            fabric: FabricSpec::default(),
        }
    }

    /// Appends one requestor (window order is append order).
    pub fn requestor(mut self, kind: SystemKind, kernel: Kernel) -> Self {
        self.requestors.push(Requestor::new(kind, kernel));
        self
    }

    /// Appends every requestor of an iterator.
    pub fn requestors(mut self, reqs: impl IntoIterator<Item = Requestor>) -> Self {
        self.requestors.extend(reqs);
        self
    }

    /// Replaces the whole fabric shape.
    pub fn fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// Validates the assembled topology through the DRC.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Drc`] with every violated rule — empty
    /// topologies (DRC-U1), fabric arities outside `2..=MAX_FAN_IN`
    /// (DRC-I2), dead or overlapping channel ranges (DRC-F1), ID spaces
    /// too small for the mux-tree prefixes (DRC-I1), zero-capacity
    /// queues, misaligned windows, and the rest of the rule book. This
    /// method never panics.
    pub fn build(self) -> Result<Topology, RunError> {
        let topo = Topology {
            system: self.system,
            requestors: self.requestors,
            fabric: self.fabric,
        };
        // The same rule set run_system applies, whatever the requestor
        // count: a topology that builds also runs.
        let report = drc::check_topology(&topo);
        if report.is_clean() {
            Ok(topo)
        } else {
            Err(RunError::Drc(report))
        }
    }
}

/// Counters of one channel's adapter, snapshotted before the adapter is
/// consumed for its storage.
struct AdapterSnap {
    word_accesses: u64,
    bank_conflicts: u64,
    r_beats: u64,
    injected_faults: u64,
    fault_retries: u64,
    retry_budget: u32,
    first_surfaced: Option<(u64, bool, WordFault)>,
}

impl AdapterSnap {
    fn of(adapter: &Adapter) -> Self {
        AdapterSnap {
            word_accesses: adapter.word_reads() + adapter.word_writes(),
            bank_conflicts: adapter.bank_conflicts(),
            r_beats: adapter.r_beats(),
            injected_faults: adapter.injected_faults(),
            fault_retries: adapter.fault_retries(),
            retry_budget: adapter.retry_budget(),
            first_surfaced: adapter.first_surfaced_fault(),
        }
    }
}

/// Builds one requestor's [`RunReport`] from its engine statistics.
///
/// `sole` is the snapshot of the requestor's channel adapter when the
/// requestor is the only bus-attached member of that channel: every
/// word access, bank conflict and fault the adapter counted is then its
/// own. Otherwise — IDEAL, or an adapter shared with other requestors —
/// word accesses are charged as one word per element moved, and
/// conflicts and faults are reported at the system level only.
fn build_report(
    kernel: &Kernel,
    kind: SystemKind,
    bus_bits: u32,
    cycles: u64,
    stats: &EngineStats,
    sole: Option<&AdapterSnap>,
) -> RunReport {
    let (word_accesses, bank_conflicts, injected_faults, fault_retries) = match sole {
        Some(a) => (
            a.word_accesses,
            a.bank_conflicts,
            a.injected_faults,
            a.fault_retries,
        ),
        None => (stats.load_elems + stats.store_elems, 0, 0, 0),
    };
    let activity = Activity {
        cycles,
        lane_elems: stats.lane_elems,
        r_payload_bytes: stats.r_util.payload_bytes(),
        w_payload_bytes: stats.w_payload,
        word_accesses,
        insns_issued: stats.issued,
        has_pack_adapter: kind == SystemKind::Pack,
    };
    RunReport {
        kernel: kernel.name.clone(),
        kind,
        bus_bits,
        cycles,
        r_util: stats.r_util.payload_fraction(),
        r_util_no_idx: stats.r_util_data.payload_fraction(),
        r_busy: stats.r_util.busy_fraction(),
        data_mismatches: stats.data_mismatches,
        ar_stall_cycles: stats.ar_stall_cycles,
        w_stall_cycles: stats.w_stall_cycles,
        bank_conflicts,
        activity,
        power_mw: EnergyModel::default().power_mw(&activity),
        energy_uj: EnergyModel::default().energy_uj(&activity),
        injected_faults,
        fault_retries,
    }
}

/// Real-work progress signature of one engine: advances whenever the
/// engine issues, computes, moves data, or burns a *programmed* scalar
/// stall. Deliberately excludes injected stall classes (bank-delay
/// spikes, mux grant storms) so a fault-stalled system reads as making
/// no progress and the watchdog can name it.
fn engine_progress(stats: &EngineStats) -> u64 {
    stats.issued
        + stats.lane_elems
        + stats.load_elems
        + stats.store_elems
        + stats.w_beats
        + stats.scalar_stall_cycles
}

/// Progress watchdog: fires when the caller-computed signature stays
/// flat for a whole window. A window of 0 disables it.
struct Watchdog {
    window: u64,
    last_sig: u64,
    last_change: u64,
}

impl Watchdog {
    fn new(window: u64) -> Self {
        Watchdog {
            window,
            last_sig: 0,
            last_change: 0,
        }
    }

    /// Accounts the signature at `cycles`; `true` means no progress for
    /// a full window — abort with hang forensics. The signature is only
    /// computed when the watchdog is armed.
    #[inline]
    fn expired(&mut self, cycles: u64, sig: impl FnOnce() -> u64) -> bool {
        if self.window == 0 {
            return false;
        }
        let sig = sig();
        if sig != self.last_sig {
            self.last_sig = sig;
            self.last_change = cycles;
            return false;
        }
        cycles.saturating_sub(self.last_change) >= self.window
    }
}

/// Snapshot of one [`AxiChannels`] bundle for hang forensics.
fn channels_component(name: &str, ch: &AxiChannels) -> HangComponent {
    HangComponent {
        name: name.to_string(),
        state: format!(
            "ar {} aw {} w {} r {} b {}",
            ch.ar.len(),
            ch.aw.len(),
            ch.w.len(),
            ch.r.len(),
            ch.b.len()
        ),
        busy: !ch.is_empty(),
    }
}

/// Builds the [`RunError::Hang`] for a run: the dependency-ordered
/// component snapshots plus the computed suspect (the *deepest* busy
/// component — the thing everything upstream is waiting on).
fn hang_error(
    subject: String,
    cycle: u64,
    limit: u64,
    no_progress: bool,
    components: Vec<HangComponent>,
) -> RunError {
    let suspect = components.iter().rev().find(|c| c.busy).map_or_else(
        || "none (all components idle)".to_string(),
        |c| c.name.clone(),
    );
    RunError::Hang(Box::new(HangReport {
        cycle,
        limit,
        no_progress,
        subject,
        components,
        suspect,
    }))
}

/// Builds the typed abort for a requestor whose bus traffic carried an
/// unrecoverable error response. The word-level anchor (site, address)
/// comes from the channel adapter's first unabsorbed fault; the
/// burst-level anchor (AXI id, direction, response class) from the
/// requestor's own first errored beat.
fn fault_abort(
    requestor: usize,
    bus_fault: BusFault,
    axi_id: u16,
    spec: Option<&FaultSpec>,
    snap: &AdapterSnap,
) -> FaultReport {
    let (word_addr, _, fault) =
        snap.first_surfaced
            .unwrap_or((0, bus_fault.is_write, WordFault::Slave));
    let site = match fault {
        WordFault::Decode => site::DECODE.0,
        WordFault::Slave => {
            if spec.is_some_and(|s| s.persistent_bank) {
                site::BANK_PERSISTENT.0
            } else {
                site::BANK_ACCESS.0
            }
        }
    };
    FaultReport {
        site,
        requestor,
        axi_id,
        resp: bus_fault.resp,
        is_write: bus_fault.is_write,
        word_addr,
        retries_spent: snap.fault_retries,
        retry_budget: snap.retry_budget,
        injected_faults: snap.injected_faults,
    }
}

/// Post-run functional checks of one requestor.
fn verify_requestor(kernel: &Kernel, stats: &EngineStats, storage: &Storage) -> Result<(), String> {
    kernel.verify(storage)?;
    if kernel.read_only_streams && stats.data_mismatches > 0 {
        return Err(format!(
            "{}: {} R-payload mismatches on read-only streams",
            kernel.name, stats.data_mismatches
        ));
    }
    Ok(())
}

/// Runs a kernel to completion on the configured system.
///
/// The one-requestor case of [`run_system`]: the kernel is borrowed
/// (not cloned into a [`Topology`]) as the only leaf of the flat fabric
/// — no mux level, one channel — and runs through the same loop. The
/// returned [`RunReport`] contains cycle counts, bus utilizations and
/// energy activity. Functional verification against the kernel's scalar
/// reference runs before returning.
///
/// # Examples
///
/// ```
/// use axi_pack::{run_kernel, SystemConfig};
/// use vproc::SystemKind;
/// use workloads::gemv;
///
/// let base = SystemConfig::paper(SystemKind::Base);
/// let pack = SystemConfig::paper(SystemKind::Pack);
/// let run = |cfg: &SystemConfig| {
///     let kernel = gemv::build(32, 7, workloads::Dataflow::ColWise, &cfg.kernel_params());
///     run_kernel(cfg, &kernel).expect("kernel verifies")
/// };
/// // Column-wise gemv is exactly the strided traffic AXI-Pack packs.
/// assert!(run(&pack).cycles < run(&base).cycles);
/// ```
///
/// # Errors
///
/// Returns [`RunError::Drc`] when the static design-rule check rejects
/// the configuration before cycle 0, [`RunError::Axi`] when an
/// unrecoverable injected fault reaches the requestor, [`RunError::Hang`]
/// when the run exceeds `max_cycles` or the watchdog fires, and
/// [`RunError::Sim`] if the functional result diverges from the scalar
/// reference or the engine observed R-payload mismatches on a kernel
/// with read-only streams.
pub fn run_kernel(cfg: &SystemConfig, kernel: &Kernel) -> Result<RunReport, RunError> {
    run_solo(cfg, kernel, None)
}

/// [`run_kernel`] with a [`RunProbe`] attached: every bus handshake is fed
/// to a protocol [`Monitor`] and the final backing store is digested for
/// bit-exact differential comparison. Timing is unchanged — a probed run
/// returns the same report as an unprobed one.
///
/// # Errors
///
/// Exactly as [`run_kernel`]; protocol violations do *not* error here —
/// inspect `probe` after the run (see
/// [`RunProbe::violation_summary`]).
pub fn run_kernel_probed(
    cfg: &SystemConfig,
    kernel: &Kernel,
    probe: &mut RunProbe,
) -> Result<RunReport, RunError> {
    run_solo(cfg, kernel, Some(probe))
}

fn run_solo(
    cfg: &SystemConfig,
    kernel: &Kernel,
    probe: Option<&mut RunProbe>,
) -> Result<RunReport, RunError> {
    let mut report = run_planned(cfg, &FabricSpec::flat(), &[(cfg.kind, kernel)], probe)?;
    // With nobody to isolate it from, a faulted solo is a typed abort.
    match report.outcomes.swap_remove(0) {
        RequestorOutcome::Faulted(fault) => Err(RunError::Axi(fault)),
        RequestorOutcome::Completed => Ok(report.requestors.swap_remove(0)),
    }
}

/// Runs every requestor of a [`Topology`] to completion.
///
/// Bus-attached (BASE/PACK) requestors share their channel's near-memory
/// adapter and banked SRAM; with two or more of them on a channel an
/// [`AxiMux`] tree arbitrates the request channels round-robin and
/// demultiplexes responses by ID prefix. IDEAL requestors execute
/// against the same storage through their per-lane ports without
/// touching the bus. Every requestor's functional result is verified
/// against its own scalar reference inside its own address window; a
/// requestor that hits an unrecoverable fault is isolated as a
/// [`RequestorOutcome::Faulted`] while the others still verify.
///
/// # Examples
///
/// ```
/// use axi_pack::{run_system, SystemConfig, Topology};
/// use vproc::SystemKind;
/// use workloads::{gemv, Dataflow};
///
/// let cfg = SystemConfig::paper(SystemKind::Pack);
/// let mk = |seed| gemv::build(24, seed, Dataflow::ColWise, &cfg.kernel_params());
/// let topo = Topology::builder(&cfg)
///     .requestor(SystemKind::Pack, mk(1))
///     .requestor(SystemKind::Pack, mk(2))
///     .build()
///     .expect("DRC-clean");
/// let report = run_system(&topo).expect("both requestors verify");
/// assert_eq!(report.requestors.len(), 2);
/// assert!(report.cycles >= report.slowest().cycles);
/// ```
///
/// # Errors
///
/// Returns [`RunError::Drc`] when the static design-rule check rejects
/// the topology before cycle 0 — overlapping or misaligned windows, an
/// AXI ID space too small for the outstanding-transaction limit, bad
/// fabric shapes, zero-capacity queues — [`RunError::Hang`] when the run
/// exceeds `max_cycles` or the watchdog fires, and [`RunError::Sim`] if
/// any requestor's functional result diverges from its scalar reference
/// or a read-only-stream kernel saw R-payload mismatches.
pub fn run_system(topo: &Topology) -> Result<SystemReport, RunError> {
    run_topology(topo, None)
}

/// [`run_system`] with a [`RunProbe`] attached: one protocol [`Monitor`]
/// per bus-attached leaf port (ID-width-aware behind a mux), one on the
/// root link of every muxed channel, plus a digest of the final store.
/// Timing is unchanged.
///
/// # Errors
///
/// Exactly as [`run_system`].
pub fn run_system_probed(topo: &Topology, probe: &mut RunProbe) -> Result<SystemReport, RunError> {
    run_topology(topo, Some(probe))
}

fn run_topology(topo: &Topology, probe: Option<&mut RunProbe>) -> Result<SystemReport, RunError> {
    run_planned(&topo.system, &topo.fabric, &topo.reqs(), probe)
}

/// The gate in front of the run loop: plans the fabric once, has the DRC
/// judge that plan — empty and malformed topologies are typed rejections,
/// never panics — and runs it.
fn run_planned(
    sys: &SystemConfig,
    fabric: &FabricSpec,
    reqs: &[(SystemKind, &Kernel)],
    probe: Option<&mut RunProbe>,
) -> Result<SystemReport, RunError> {
    let placement = Placement::new(sys, fabric, reqs);
    let drc = drc::check_plan(sys, reqs, &placement);
    if !drc.is_clean() {
        return Err(RunError::Drc(drc));
    }
    run_fabric(sys, reqs, &placement, probe)
}

/// One memory channel of the fabric: a cascaded tree of round-robin
/// muxes funneling the channel's bus-attached requestors into its own
/// near-memory adapter, which owns the channel's copy of the backing
/// store (only this channel's windows are live in it). A channel with a
/// single bus-attached member has no mux level: its leaf bundle is the
/// adapter's link.
///
/// In event mode a cycle costs what moves. The register stage ends only
/// the bundles a party handshook on ([`AxiChannels::handshook`]): without
/// a push or pop a [`simkit::Fifo`] has nothing staged and an unchanged
/// occupancy, and monitors observe only staged beats. A mux whose tick
/// moved nothing parks until the register stage of one of its port or
/// down-link bundles runs — until then every round repeats the parked
/// one — and [`AxiMux::replay`]s the skipped rounds when it wakes. The
/// same stage of a leaf wakes the engine parked on it. Lockstep ends
/// every bundle and ticks every mux.
struct ChannelHw<'p> {
    /// The channel's tree as the placement planned it: its members, and
    /// the wiring of every mux.
    plan: &'p ChannelPlan,
    /// Every bus bundle of the channel, laid out as
    /// [`ChannelPlan::bundles`] says; engines tick straight into the
    /// leaves.
    bundles: Vec<AxiChannels>,
    /// One mux per [`ChannelPlan::muxes`] entry, in the same order.
    muxes: Vec<AxiMux>,
    adapter: Adapter,
    /// Monitors on the leaf bundles (probed runs only), one per member.
    leaf_monitors: Vec<Monitor>,
    /// Monitor on the root link below the tree — probed runs with two or
    /// more members only; a single member's leaf *is* the root link.
    root_monitor: Option<Monitor>,
    /// Bundles handshook on this cycle (event mode), each listed once
    /// (`is_touched` dedupes).
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    /// Per bundle: the mux it is a manager port of; `None` for the
    /// adapter's link. (Mux `m`'s down-link is bundle `members + m`.)
    port_of: Vec<Option<usize>>,
    /// Per mux: while parked (event mode), the cycle of its first
    /// skipped round.
    parked: Vec<Option<u64>>,
    /// Bundle register stages run, for [`RunProbe::stage_visits`].
    stage_visits: u64,
    /// Mux ticks run, for [`RunProbe::mux_ticks`].
    mux_ticks: u64,
}

impl<'p> ChannelHw<'p> {
    /// Builds channel `c`'s hardware exactly as `placement` planned it.
    fn new(
        sys: &SystemConfig,
        placement: &'p Placement,
        c: usize,
        storage: Storage,
        probed: bool,
    ) -> Self {
        let plan = &placement.trees[c];
        let mut muxes: Vec<AxiMux> = plan
            .muxes
            .iter()
            .map(|w| AxiMux::cascade(w.hi - w.lo, w.shift))
            .collect();
        let mut adapter = Adapter::new(sys.ctrl_for(&placement.fabric), storage);
        if let Some(spec) = sys.fault.as_ref() {
            adapter.install_faults(spec);
            for mux in muxes.iter_mut() {
                mux.install_faults(spec);
            }
        }
        // Each leaf carries its engine's ID width; below the root every
        // level's prefix has been stacked on.
        let leaf_monitors: Vec<Monitor> = if probed {
            plan.members
                .iter()
                .map(|&i| Monitor::with_id_bits(sys.bus(), placement.id_bits[i]))
                .collect()
        } else {
            Vec::new()
        };
        let root_monitor = (probed && !muxes.is_empty())
            .then(|| Monitor::with_id_bits(sys.bus(), placement.id_bits_at(plan.depth())));
        let bundles = plan.bundles();
        let mut port_of = vec![None; bundles];
        for (m, w) in plan.muxes.iter().enumerate() {
            port_of[w.lo..w.hi].fill(Some(m));
        }
        ChannelHw {
            plan,
            bundles: (0..bundles).map(|_| AxiChannels::new()).collect(),
            parked: vec![None; muxes.len()],
            muxes,
            adapter,
            leaf_monitors,
            root_monitor,
            touched: Vec::with_capacity(bundles),
            is_touched: vec![false; bundles],
            port_of,
            stage_visits: 0,
            mux_ticks: 0,
        }
    }

    /// The muxes of level `l`, bottom-up.
    fn level(&self, l: usize) -> &[AxiMux] {
        &self.muxes[self.plan.level(l)]
    }

    // simcheck: hot-path begin -- the channel's per-cycle mux ticks and
    // register stage; the touched list and the per-bundle and per-mux
    // slots are sized for every bundle and mux at construction.

    /// Lists bundle `b` for this cycle's register stage if a party
    /// pushed to or popped from it.
    #[inline]
    fn touch_if_handshook(&mut self, b: usize) {
        if !self.is_touched[b] && self.bundles[b].handshook() {
            self.is_touched[b] = true;
            self.touched.push(b);
        }
    }

    /// Cycle `cycle`: each unparked mux, level by level bottom-up, then
    /// the adapter on its link. The FIFO register stages make every hop
    /// visible only at the cycle boundary, so each level adds one cycle
    /// of honest latency in both directions.
    #[inline]
    fn tick(&mut self, event: bool, cycle: u64) {
        let plan = self.plan;
        if plan.members.is_empty() {
            // An all-IDEAL channel has no bus hardware to tick; its
            // adapter merely owns the storage.
            return;
        }
        for (m, &MuxWiring { lo, hi, down, .. }) in plan.muxes.iter().enumerate() {
            if self.parked[m].is_some() {
                continue;
            }
            let (ports, upper) = self.bundles.split_at_mut(down);
            self.mux_ticks += 1;
            if self.muxes[m].tick(&mut ports[lo..hi], &mut upper[0]) {
                for b in lo..hi {
                    self.touch_if_handshook(b);
                }
                self.touch_if_handshook(down);
            } else if event && self.muxes[m].parkable() {
                self.parked[m] = Some(cycle + 1);
            }
        }
        let link = self.bundles.len() - 1;
        self.adapter.tick(&mut self.bundles[link]);
        self.touch_if_handshook(link);
        self.adapter.end_cycle();
    }

    /// Cycle-boundary register stage into cycle `next`, feeding the probe
    /// monitors where attached: every bundle in lockstep, only the
    /// touched ones in event mode. Each stage that runs wakes the muxes
    /// on both sides of its bundle and, on a leaf, puts the leaf's
    /// engine in `visit`.
    #[inline]
    fn end_cycle(&mut self, event: bool, next: u64, visit: &mut Visits) {
        if event {
            for k in 0..self.touched.len() {
                let b = self.touched[k];
                self.is_touched[b] = false;
                self.end_bundle(b, next, visit);
            }
            self.stage_visits += self.touched.len() as u64;
        } else {
            for &b in &self.touched {
                self.is_touched[b] = false;
            }
            for b in 0..self.bundles.len() {
                self.end_bundle(b, next, visit);
            }
            self.stage_visits += self.bundles.len() as u64;
        }
        self.touched.clear();
    }

    /// Ends bundle `b`'s register stage, through the monitor watching it
    /// if there is one, and wakes whoever reads the bundle.
    #[inline]
    fn end_bundle(&mut self, b: usize, next: u64, visit: &mut Visits) {
        let members = self.plan.members.len();
        if let Some(m) = self.port_of[b] {
            self.wake_mux(m, next);
        }
        if b < members {
            visit.insert(self.plan.members[b]);
        } else {
            self.wake_mux(b - members, next);
        }
        let root = b + 1 == self.bundles.len();
        let ch = &mut self.bundles[b];
        let mon = if b < members {
            self.leaf_monitors.get_mut(b)
        } else {
            self.root_monitor.as_mut().filter(|_| root)
        };
        match mon {
            Some(mon) => ch.end_cycle_observed(mon),
            None => ch.end_cycle(),
        }
    }

    /// Unparks mux `m`, if parked, replaying its skipped rounds up to
    /// cycle `next`, the one it ticks in again.
    #[inline]
    fn wake_mux(&mut self, m: usize, next: u64) {
        if let Some(since) = self.parked[m].take() {
            self.muxes[m].replay(next - since);
        }
    }

    /// Adapter and muxes quiescent and every bundle empty — nothing in
    /// flight anywhere in the channel. The adapter answers in O(1) and is
    /// asked first: on a busy fabric it is almost never quiescent. A
    /// channel without bus-attached members never ticks, so it is always
    /// drained.
    #[inline]
    fn drained(&self) -> bool {
        self.plan.members.is_empty()
            || (self.adapter.quiescent()
                && self.muxes.iter().all(AxiMux::quiescent)
                && self.bundles.iter().all(AxiChannels::is_empty))
    }

    // simcheck: hot-path end

    /// Wakes every parked mux at cycle `now`, so its counters read as if
    /// it had ticked through every cycle before `now`.
    fn wake_muxes(&mut self, now: u64) {
        for m in 0..self.muxes.len() {
            self.wake_mux(m, now);
        }
    }

    /// Appends this channel's component snapshots for hang forensics, in
    /// dependency order (leaves, then levels bottom-up, then adapter).
    fn hang_components(&self, c: usize, out: &mut Vec<HangComponent>) {
        let plan = self.plan;
        for (j, &member) in plan.members.iter().enumerate() {
            out.push(channels_component(
                &format!("ch{c} requestor {member} leaf channels"),
                &self.bundles[j],
            ));
        }
        for l in 0..plan.depth() {
            for (k, mux) in self.level(l).iter().enumerate() {
                out.push(HangComponent {
                    name: format!("ch{c} level {l} mux {k}"),
                    state: mux.describe_state(),
                    busy: !mux.quiescent() || mux.storm_active(),
                });
            }
            for (k, w) in plan.muxes[plan.level(l)].iter().enumerate() {
                out.push(channels_component(
                    &format!("ch{c} level {l} link {k}"),
                    &self.bundles[w.down],
                ));
            }
        }
        if !plan.members.is_empty() {
            out.push(HangComponent {
                name: format!("ch{c} adapter"),
                state: self.adapter.describe_state(),
                busy: !self.adapter.quiescent(),
            });
        }
    }
}

/// Stamps `cycle` as the completion cycle of every engine that finished
/// since the last call; returns how many did.
fn mark_finished(engines: &[Engine], done_at: &mut [Option<u64>], cycle: u64) -> usize {
    let mut finished = 0;
    for (engine, done) in engines.iter().zip(done_at) {
        if done.is_none() && engine.done() {
            *done = Some(cycle);
            finished += 1;
        }
    }
    finished
}

/// Replays the ticks a parked engine skipped from cycle `since` up to
/// `cycles`; returns how many it replayed.
fn replay_parked(engine: &mut Engine, since: u64, cycles: u64) -> u64 {
    let span = cycles - since;
    engine.fast_forward(span);
    span
}

/// The requestors the run loop visits in a cycle, one bit each, walked in
/// requestor order: every live engine that is not parked, plus each
/// parked one whose leaf's register stage just ran. Sized for every
/// requestor up front.
struct Visits(Vec<u64>);

impl Visits {
    /// Every one of `n` requestors.
    fn all(n: usize) -> Self {
        let mut visits = Visits(vec![0; n.div_ceil(64)]);
        for i in 0..n {
            visits.insert(i);
        }
        visits
    }

    // simcheck: hot-path begin -- set and clear one bit.

    #[inline]
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    // simcheck: hot-path end
}

/// The run loop — the only code that advances simulated time. Engines
/// run in private windows; bus-attached ones tick into leaf ports of
/// their channel's mux tree, IDEAL ones straight into the channel's
/// store. A solo run is the degenerate fabric: one leaf, no mux level,
/// one channel.
///
/// A requestor's report describes *its* run: a finished engine stops
/// ticking, which freezes its statistics at its own completion cycle,
/// while the run as a whole continues until every channel has drained.
fn run_fabric(
    sys: &SystemConfig,
    reqs: &[(SystemKind, &Kernel)],
    placement: &Placement,
    probe: Option<&mut RunProbe>,
) -> Result<SystemReport, RunError> {
    // Window relocation is zero-copy: requestor 0's window starts at 0,
    // so its kernel is used as is, and `rebased` shares image payloads
    // and reference data via `Arc` for the others.
    let kernels: Vec<Cow<'_, Kernel>> = reqs
        .iter()
        .zip(&placement.window_bases)
        .map(|(&(_, k), &base)| match base {
            0 => Cow::Borrowed(k),
            _ => Cow::Owned(k.rebased(base)),
        })
        .collect();
    let kinds: Vec<SystemKind> = reqs.iter().map(|&(kind, _)| kind).collect();
    let nch = placement.trees.len();
    let probed = probe.is_some();
    let mut storages: Vec<Storage> = (0..nch)
        .map(|_| Storage::new(placement.storage_bytes))
        .collect();
    for (i, k) in kernels.iter().enumerate() {
        k.apply_image(&mut storages[placement.channel_of[i]]);
    }
    let mut channels_hw: Vec<ChannelHw> = storages
        .into_iter()
        .enumerate()
        .map(|(c, s)| ChannelHw::new(sys, placement, c, s, probed))
        .collect();
    let mut engines: Vec<Engine> = kernels
        .iter()
        .zip(&placement.id_bits)
        .enumerate()
        .map(|(i, (k, &axi_id_bits))| {
            let vcfg = VprocConfig {
                axi_id_bits,
                ..sys.vproc
            };
            Engine::new(vcfg, kinds[i], sys.bus(), k.program.clone())
        })
        .collect();

    let mut cycles = 0u64;
    let mut done_at: Vec<Option<u64>> = vec![None; engines.len()];
    let mut live = engines.len() - mark_finished(&engines, &mut done_at, 0);
    let mut sched_stats = SchedProbe::default();
    let mut watchdog = Watchdog::new(sys.watchdog);
    let event = sys.sched == SchedMode::Event;
    // Event mode parks a bus-attached engine whose leaf-aware wake is
    // `Idle`, stamped with the cycle of its first skipped tick: it is not
    // visited again until its leaf's register stage runs and the leaf
    // shows input, and `fast_forward` then replays the skipped ticks
    // before anything reads its state.
    let mut parked: Vec<Option<u64>> = vec![None; engines.len()];
    let mut parked_ticks = 0u64;
    let mut visit = Visits::all(engines.len());
    while live > 0 || !channels_hw.iter().all(ChannelHw::drained) {
        // Event mode's skip gate: every channel drained. Then no beat can
        // reach any engine without some engine acting first, so the live
        // engines' merged wake governs the whole system. (Finished
        // requestors are not ticked in lockstep either; they contribute
        // no deadline.) Only a sleep skips: a ready engine ticks, and
        // with no deadline anywhere a genuine deadlock must tick normally
        // into the max_cycles error, exactly as lockstep would.
        if event && channels_hw.iter().all(ChannelHw::drained) {
            // Parked engines rejoin first, so the merge below sees every
            // live engine exactly as lockstep would.
            for (i, (engine, slot)) in engines.iter_mut().zip(&mut parked).enumerate() {
                if let Some(since) = slot.take() {
                    parked_ticks += replay_parked(engine, since, cycles);
                    visit.insert(i);
                }
            }
            let mut wake = Wake::Idle;
            for (engine, done) in engines.iter().zip(&done_at) {
                if done.is_none() {
                    wake = wake.merge(engine.next_wake());
                    if wake.is_ready() {
                        break;
                    }
                }
            }
            // The cap keeps a max_cycles overrun on a normal tick at the
            // same cycle as lockstep.
            let span = wake
                .sleep_ticks()
                .map_or(0, |n| n.min(sys.max_cycles.saturating_sub(cycles)));
            if span > 0 {
                for (engine, done) in engines.iter_mut().zip(&done_at) {
                    if done.is_none() {
                        engine.fast_forward(span);
                    }
                }
                for hw in channels_hw.iter_mut() {
                    if !hw.plan.members.is_empty() {
                        hw.adapter.skip_idle(span);
                    }
                }
                cycles += span;
                sched_stats.record_span(span);
                live -= mark_finished(&engines, &mut done_at, cycles);
                continue;
            }
        }
        for w in 0..visit.0.len() {
            let mut bits = visit.0[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A finished requestor contributes nothing to any channel;
                // not ticking it freezes its stats (cycles, utilization
                // denominators) at its own completion cycle. (Its last
                // handshake may still have put it here.)
                if done_at[i].is_some() {
                    visit.remove(i);
                    continue;
                }
                let engine = &mut engines[i];
                match placement.slots[i] {
                    Some((c, j)) => {
                        let hw = &mut channels_hw[c];
                        if event {
                            // A parked engine's state is frozen, and only
                            // its leaf's register stage, which put it
                            // here, can change what it sees there.
                            match parked[i] {
                                Some(since) => {
                                    if !engine.leaf_wakes(&hw.bundles[j]) {
                                        visit.remove(i);
                                        continue;
                                    }
                                    parked_ticks += replay_parked(engine, since, cycles);
                                    parked[i] = None;
                                }
                                None if engine.next_wake_on(&hw.bundles[j]) == Wake::Idle => {
                                    parked[i] = Some(cycles);
                                    visit.remove(i);
                                    continue;
                                }
                                None => {}
                            }
                        }
                        engine.tick(Some(&mut hw.bundles[j]), hw.adapter.storage_mut());
                        hw.touch_if_handshook(j);
                    }
                    None => {
                        let hw = &mut channels_hw[placement.channel_of[i]];
                        engine.tick(None, hw.adapter.storage_mut());
                    }
                }
                // Only a tick or a fast-forward can finish an engine, and
                // a parked one has no countdown left to finish on.
                if engine.done() {
                    done_at[i] = Some(cycles + 1);
                    live -= 1;
                    visit.remove(i);
                }
            }
        }
        for hw in channels_hw.iter_mut() {
            hw.tick(event, cycles);
            hw.end_cycle(event, cycles + 1, &mut visit);
        }
        cycles += 1;
        let hung = cycles > sys.max_cycles;
        let progress = || {
            // The signature reads engine statistics: bring parked engines
            // up to date first (they stay parked).
            for (engine, slot) in engines.iter_mut().zip(&mut parked) {
                if let Some(since) = slot {
                    parked_ticks += replay_parked(engine, *since, cycles);
                    *since = cycles;
                }
            }
            engines
                .iter()
                .map(|e| engine_progress(e.stats()))
                .sum::<u64>()
                + channels_hw
                    .iter()
                    .map(|hw| {
                        hw.adapter.word_reads()
                            + hw.adapter.word_writes()
                            + hw.adapter.fault_retries()
                    })
                    .sum::<u64>()
        };
        if hung || watchdog.expired(cycles, progress) {
            for hw in channels_hw.iter_mut() {
                hw.wake_muxes(cycles);
            }
            let mut components: Vec<HangComponent> = engines
                .iter()
                .enumerate()
                .map(|(i, e)| HangComponent {
                    name: format!("requestor {i} engine"),
                    state: e.describe_state(),
                    busy: done_at[i].is_none(),
                })
                .collect();
            for (c, hw) in channels_hw.iter().enumerate() {
                hw.hang_components(c, &mut components);
            }
            let subject = match &kernels[..] {
                [only] => only.name.clone(),
                _ => format!(
                    "topology of {} requestors over {nch} channels",
                    kernels.len()
                ),
            };
            return Err(hang_error(
                subject,
                cycles,
                if hung { sys.max_cycles } else { sys.watchdog },
                !hung,
                components,
            ));
        }
    }
    for hw in channels_hw.iter_mut() {
        hw.wake_muxes(cycles);
    }
    // Per-level occupancy, aggregated across channels (level 0 is the
    // leaf level of every channel's tree).
    let levels: Vec<LevelOccupancy> = (0..placement.depth())
        .map(|l| {
            let mut muxes = 0u32;
            let (mut ar_beats, mut r_beats, mut ar_waits) = (0u64, 0u64, 0u64);
            for hw in channels_hw.iter().filter(|hw| l < hw.plan.depth()) {
                let row = hw.level(l);
                muxes += row.len() as u32;
                ar_beats += row.iter().map(AxiMux::ar_forwarded).sum::<u64>();
                r_beats += row.iter().map(AxiMux::r_forwarded).sum::<u64>();
                ar_waits += row.iter().map(AxiMux::ar_waits).sum::<u64>();
            }
            LevelOccupancy {
                level: l as u32,
                muxes,
                ar_beats,
                r_beats,
                ar_waits,
            }
        })
        .collect();
    let snaps: Vec<AdapterSnap> = channels_hw
        .iter()
        .map(|hw| AdapterSnap::of(&hw.adapter))
        .collect();
    // Consume the hardware: monitors out, each with the requestor or
    // channel it watched, per-channel storages out.
    let mut leaf_monitors: Vec<(usize, Monitor)> = Vec::new();
    let mut root_monitors: Vec<(usize, Monitor)> = Vec::new();
    let mut storages: Vec<Storage> = Vec::with_capacity(nch);
    let (mut stage_visits, mut mux_ticks) = (0u64, 0u64);
    for (c, hw) in channels_hw.into_iter().enumerate() {
        stage_visits += hw.stage_visits;
        mux_ticks += hw.mux_ticks;
        leaf_monitors.extend(hw.plan.members.iter().copied().zip(hw.leaf_monitors));
        root_monitors.extend(hw.root_monitor.map(|m| (c, m)));
        storages.push(hw.adapter.into_storage());
    }
    if let Some(p) = probe {
        (p.monitor_requestors, p.monitors) = leaf_monitors.into_iter().unzip();
        (p.root_channels, p.roots) = root_monitors.into_iter().unzip();
        p.downstream = None;
        // Digest over the composed windows — every window read from its
        // owning channel's storage, gaps zero: the layout a single
        // shared store holds, so digests compare across fabric shapes.
        let mut composed = vec![0u8; placement.storage_bytes];
        for (i, (&base, &size)) in placement
            .window_bases
            .iter()
            .zip(&placement.window_sizes)
            .enumerate()
        {
            let (lo, hi) = (base as usize, (base + size) as usize);
            composed[lo..hi].copy_from_slice(&storages[placement.channel_of[i]].as_bytes()[lo..hi]);
        }
        p.storage_digest = Some(memory_digest(&composed));
        p.sched = sched_stats;
        p.parked_ticks = parked_ticks;
        p.stage_visits = stage_visits;
        p.mux_ticks = mux_ticks;
    }
    let bus_bytes = sys.bus().data_bytes() as u64;
    let mut payload_bytes = 0u64;
    let mut reports = Vec::with_capacity(engines.len());
    let mut outcomes = Vec::with_capacity(engines.len());
    for (i, engine) in engines.iter().enumerate() {
        let stats = engine.stats();
        let chan = placement.channel_of[i];
        // A faulting requestor is isolated: its abort is recorded as a
        // per-requestor outcome (functional verification is meaningless
        // for it), while healthy requestors still verify normally.
        match engine.first_fault() {
            Some(bf) => {
                outcomes.push(RequestorOutcome::Faulted(fault_abort(
                    i,
                    bf,
                    placement.endpoint_id(i, bf.axi_id),
                    sys.fault.as_ref(),
                    &snaps[chan],
                )));
            }
            None => {
                verify_requestor(&kernels[i], stats, &storages[chan])
                    .map_err(|e| format!("requestor {i}: {e}"))?;
                outcomes.push(RequestorOutcome::Completed);
            }
        }
        if kinds[i] != SystemKind::Ideal {
            payload_bytes += stats.r_util.payload_bytes();
        }
        let sole = placement.slots[i].is_some() && placement.trees[chan].members.len() == 1;
        reports.push(build_report(
            &kernels[i],
            kinds[i],
            sys.bus_bits,
            done_at[i].expect("loop exits only when all done"),
            stats,
            sole.then_some(&snaps[chan]),
        ));
    }
    let total = |f: fn(&AdapterSnap) -> u64| snaps.iter().map(f).sum::<u64>();
    // A run with nothing to do takes zero cycles and moves nothing.
    let per_cycle = |x: u64, width: u64| match cycles {
        0 => 0.0,
        _ => x as f64 / (cycles * width) as f64,
    };
    Ok(SystemReport {
        cycles,
        requestors: reports,
        // Several channels each move up to one R beat per cycle, so the
        // fabric busy figure is beats-per-cycle across all channels (it
        // may exceed 1.0); utilization normalizes by the aggregate width.
        bus_r_busy: per_cycle(total(|s| s.r_beats), 1),
        bus_r_util: per_cycle(payload_bytes, bus_bytes * nch as u64),
        bank_conflicts: total(|s| s.bank_conflicts),
        word_accesses: total(|s| s.word_accesses),
        injected_faults: total(|s| s.injected_faults),
        fault_retries: total(|s| s.fault_retries),
        outcomes,
        levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_proto::ArBeat;
    use workloads::{gemv, ismt, spmv, CsrMatrix, Dataflow};

    #[test]
    fn ismt_verifies_on_all_three_systems() {
        for kind in [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal] {
            let cfg = SystemConfig::paper(kind);
            let k = ismt::build(24, 3, &cfg.kernel_params());
            let r = run_kernel(&cfg, &k).expect("ismt verifies");
            assert!(r.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn pack_beats_base_on_strided_gemv() {
        let mk = |kind| {
            let cfg = SystemConfig::paper(kind);
            let k = gemv::build(48, 5, Dataflow::ColWise, &cfg.kernel_params());
            run_kernel(&cfg, &k).expect("gemv verifies")
        };
        let base = mk(SystemKind::Base);
        let pack = mk(SystemKind::Pack);
        let ideal = mk(SystemKind::Ideal);
        assert!(
            base.cycles > 2 * pack.cycles,
            "pack speedup missing: {} vs {}",
            base.cycles,
            pack.cycles
        );
        assert!(ideal.cycles <= pack.cycles, "ideal is the lower bound");
    }

    #[test]
    fn spmv_verifies_and_reports_utilization() {
        let m = CsrMatrix::random(48, 48, 8.0, 2);
        for kind in [SystemKind::Base, SystemKind::Pack] {
            let cfg = SystemConfig::paper(kind);
            let k = spmv::build(&m, 1, &cfg.kernel_params());
            let r = run_kernel(&cfg, &k).expect("spmv verifies");
            assert!(r.r_util > 0.0 && r.r_util < 1.0);
            if kind == SystemKind::Pack {
                // In-memory indirection: no index beats on the bus.
                assert!((r.r_util - r.r_util_no_idx).abs() < 1e-9);
            } else {
                assert!(r.r_util > r.r_util_no_idx);
            }
        }
    }

    #[test]
    fn power_is_reported_in_a_sane_band() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let k = ismt::build(32, 1, &cfg.kernel_params());
        let r = run_kernel(&cfg, &k).expect("verifies");
        assert!((100.0..500.0).contains(&r.power_mw), "{} mW", r.power_mw);
        assert!(r.energy_uj > 0.0);
    }

    #[test]
    fn windows_are_aligned_and_disjoint() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let topo = Topology::builder(&cfg)
            .requestor(SystemKind::Pack, ismt::build(16, 1, &p))
            .requestor(SystemKind::Pack, ismt::build(24, 2, &p))
            .requestor(SystemKind::Pack, ismt::build(16, 3, &p))
            .build()
            .expect("DRC-clean");
        let bases = topo.window_bases();
        assert_eq!(bases[0], 0);
        for (i, w) in bases.windows(2).enumerate() {
            assert_eq!(w[1] % WINDOW_ALIGN, 0);
            assert!(
                w[1] >= w[0] + topo.requestors[i].kernel.storage_size as u64,
                "windows overlap"
            );
        }
        assert!(topo.placement().storage_bytes >= *bases.last().unwrap() as usize);
    }

    #[test]
    fn shared_bus_requestors_slow_each_other_down() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let solo =
            run_kernel(&cfg, &gemv::build(32, 7, Dataflow::ColWise, &p)).expect("solo verifies");
        let topo = Topology::builder(&cfg)
            .requestor(SystemKind::Pack, gemv::build(32, 7, Dataflow::ColWise, &p))
            .requestor(SystemKind::Pack, gemv::build(32, 8, Dataflow::ColWise, &p))
            .build()
            .expect("DRC-clean");
        let shared = run_system(&topo).expect("shared bus verifies");
        assert_eq!(shared.requestors.len(), 2);
        // Two identical bus-bound kernels sharing one endpoint: both run
        // slower than solo, but not worse than full serialization plus
        // mux overhead.
        for r in &shared.requestors {
            assert!(
                r.cycles > solo.cycles,
                "{} vs solo {}",
                r.cycles,
                solo.cycles
            );
            assert!(r.cycles < 3 * solo.cycles, "sharing cost exploded");
        }
        assert!(shared.slowest().cycles >= shared.fastest().cycles);
        assert!(shared.bus_r_busy > 0.0 && shared.bus_r_busy <= 1.0);
    }

    #[test]
    fn ideal_requestors_do_not_count_against_the_manager_cap() {
        // 2 bus-attached + 3 IDEAL requestors: only the bus-attached ones
        // occupy mux ports, so this 5-requestor topology is valid.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let ip = cfg.kernel_params_for(SystemKind::Ideal);
        let mut reqs = vec![
            Requestor::new(SystemKind::Pack, ismt::build(16, 1, &p)),
            Requestor::new(SystemKind::Pack, ismt::build(16, 2, &p)),
        ];
        for s in 3..6 {
            reqs.push(Requestor::new(SystemKind::Ideal, ismt::build(16, s, &ip)));
        }
        let topo = Topology::builder(&cfg)
            .requestors(reqs)
            .build()
            .expect("DRC-clean");
        let report = run_system(&topo).expect("all five verify");
        assert_eq!(report.requestors.len(), 5);
    }

    #[test]
    fn builder_scales_past_the_flat_cap() {
        // Five bus-attached requestors used to be a hard panic; the
        // fabric cascades them through two mux levels and every one
        // still verifies against its own scalar reference.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let topo = Topology::builder(&cfg)
            .requestors((0..5).map(|s| Requestor::new(SystemKind::Pack, ismt::build(16, s, &p))))
            .build()
            .expect("five bus-attached requestors are DRC-clean now");
        let report = run_system(&topo).expect("all five verify");
        assert_eq!(report.requestors.len(), 5);
        // 5 leaves at arity 4 -> level 0 (2 muxes) + root level (1 mux).
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.levels[0].muxes, 2);
        assert_eq!(report.levels[1].muxes, 1);
        assert!(report.levels[0].r_beats > 0, "leaf level moved beats");
        assert_eq!(
            report.levels[0].r_beats, report.levels[1].r_beats,
            "every R beat crosses every level of a single-channel tree"
        );
    }

    #[test]
    fn interleaved_channels_split_the_load() {
        // Four requestors over two channels: two managers per channel,
        // one single-level mux each. Both channels carry beats and the
        // aggregate busy figure may legitimately exceed a single bus.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let topo = Topology::builder(&cfg)
            .requestors((0..4).map(|s| Requestor::new(SystemKind::Pack, ismt::build(16, s, &p))))
            .fabric(FabricSpec::flat().with_channels(2))
            .build()
            .expect("DRC-clean");
        let place = topo.placement();
        assert_eq!(place.channel_of, vec![0, 1, 0, 1]);
        let report = run_system(&topo).expect("all verify");
        assert_eq!(report.levels.len(), 1);
        assert_eq!(report.levels[0].muxes, 2, "one mux per channel");
        // The same four requestors on one channel contend harder.
        let flat = Topology::builder(&cfg)
            .requestors((0..4).map(|s| Requestor::new(SystemKind::Pack, ismt::build(16, s, &p))))
            .build()
            .expect("DRC-clean");
        let flat_report = run_system(&flat).expect("all verify");
        assert!(
            report.cycles <= flat_report.cycles,
            "two channels must not be slower than one: {} vs {}",
            report.cycles,
            flat_report.cycles
        );
    }

    #[test]
    fn row_buffer_misses_cost_cycles() {
        // The DRAM-ish timing model: same topology, same kernels, but a
        // narrow row with a heavy miss penalty must run strictly slower
        // than the flat-SRAM fabric — and still verify.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let build = |spec: FabricSpec| {
            Topology::builder(&cfg)
                .requestor(SystemKind::Pack, gemv::build(24, 3, Dataflow::ColWise, &p))
                .requestor(SystemKind::Pack, gemv::build(24, 4, Dataflow::ColWise, &p))
                .fabric(spec)
                .build()
                .expect("DRC-clean")
        };
        let dram = run_system(&build(FabricSpec::flat().with_row_buffer(8, 16)))
            .expect("row-buffer run verifies");
        let sram = run_system(&build(FabricSpec::flat())).expect("flat run verifies");
        assert!(
            dram.cycles > sram.cycles,
            "row misses must cost cycles: {} vs {}",
            dram.cycles,
            sram.cycles
        );
    }

    #[test]
    fn a_solo_requestor_pays_the_row_buffer_too() {
        // Regression: a 1-requestor shortcut once ignored the fabric,
        // so a scaling sweep's solo baseline ran on flat SRAM timing
        // while every other point paid DRAM-ish row misses.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let build = |spec: FabricSpec| {
            Topology::builder(&cfg)
                .requestor(SystemKind::Pack, gemv::build(24, 3, Dataflow::ColWise, &p))
                .fabric(spec)
                .build()
                .expect("DRC-clean")
        };
        let dram = run_system(&build(FabricSpec::flat().with_row_buffer(8, 16)))
            .expect("row-buffer solo verifies");
        let sram = run_system(&build(FabricSpec::flat())).expect("flat solo verifies");
        assert!(
            dram.cycles > sram.cycles,
            "a solo run must pay row misses like any other point: {} vs {}",
            dram.cycles,
            sram.cycles
        );
        // A flat-fabric solo topology is exactly the run_kernel system.
        let single =
            run_kernel(&cfg, &gemv::build(24, 3, Dataflow::ColWise, &p)).expect("single verifies");
        assert_eq!(sram.cycles, single.cycles);
    }

    #[test]
    fn every_leaf_reaches_the_root_link_under_its_planned_endpoint_id() {
        // Fault reports name a requestor by the plan's `endpoint_id`; the
        // muxes built from the same plan must remap every leaf's AR to
        // exactly that ID, one level per cycle, inside the width the
        // root link's monitor checks.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let k = ismt::build(16, 1, &cfg.kernel_params());
        for n in [1, 2, 3, 5, 9, 17, 40] {
            // Every third requestor is IDEAL and takes no leaf port.
            let reqs: Vec<(SystemKind, &Kernel)> = (0..n)
                .map(|i| match i % 3 {
                    2 => (SystemKind::Ideal, &k),
                    _ => (SystemKind::Pack, &k),
                })
                .collect();
            for arity in 2..=MAX_FAN_IN {
                for channels in 1..=4 {
                    let fabric = FabricSpec::tree(arity).with_channels(channels);
                    let placement = Placement::new(&cfg, &fabric, &reqs);
                    let point = format!("{n} requestors, arity {arity}, {channels} channels");
                    for (c, tree) in placement.trees.iter().enumerate() {
                        if tree.members.is_empty() {
                            continue;
                        }
                        let storage = Storage::new(placement.storage_bytes);
                        let mut hw = ChannelHw::new(&cfg, &placement, c, storage, true);
                        let mut visit = Visits::all(n);
                        let root = tree.bundles() - 1;
                        for (leaf, &i) in tree.members.iter().enumerate() {
                            let local = (leaf * 7 + 3) as u16 & ((1 << placement.id_bits[i]) - 1);
                            let mut ar = ArBeat::incr(0, 0, 1, &cfg.bus());
                            ar.id = AxiId(local);
                            hw.bundles[leaf].ar.push(ar);
                            let mut cycle = 0;
                            let id = loop {
                                if let Some(ar) = hw.bundles[root].ar.peek() {
                                    break ar.id.0;
                                }
                                assert!(cycle <= tree.depth(), "{point}: leaf {leaf} stuck");
                                hw.tick(false, cycle as u64);
                                cycle += 1;
                                hw.end_cycle(false, cycle as u64, &mut visit);
                            };
                            hw.bundles[root].ar.pop();
                            assert_eq!(cycle, tree.depth() + 1, "{point}: leaf {leaf}");
                            assert_eq!(id, placement.endpoint_id(i, local), "{point}: leaf {leaf}");
                            let width = match tree.depth() {
                                0 => placement.id_bits[i],
                                depth => placement.id_bits_at(depth),
                            };
                            assert_eq!(u32::from(id) >> width, 0, "{point}: leaf {leaf}");
                        }
                        for mon in hw.leaf_monitors.iter().chain(&hw.root_monitor) {
                            assert_eq!(mon.violations(), &[], "{point}: channel {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn builder_surfaces_every_error_as_typed_diagnostics() {
        // The zero-panic guarantee: every malformed configuration comes
        // back as RunError::Drc naming the violated rule.
        use crate::drc::Rule;
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let two = |b: TopologyBuilder| {
            b.requestor(SystemKind::Pack, ismt::build(16, 1, &p))
                .requestor(SystemKind::Pack, ismt::build(16, 2, &p))
        };
        let rule_of = |err: RunError| -> Vec<Rule> {
            let report = err.drc_report().expect("typed DRC rejection").clone();
            Rule::ALL
                .into_iter()
                .filter(|r| report.violates(*r))
                .collect()
        };
        // Empty topology: dead-logic rule.
        let err = Topology::builder(&cfg).build().expect_err("empty rejected");
        assert!(rule_of(err).contains(&Rule::Unreachable));
        // Arity below 2 can never converge; above MAX_FAN_IN overflows a
        // level's port budget. Both are manager-overflow diagnostics.
        for arity in [0, 1, MAX_FAN_IN + 1] {
            let err = two(Topology::builder(&cfg))
                .fabric(FabricSpec::tree(arity))
                .build()
                .expect_err("bad arity rejected");
            assert!(
                rule_of(err).contains(&Rule::ManagerOverflow),
                "arity {arity}"
            );
        }
        // Zero channels: nothing can route anywhere.
        let err = two(Topology::builder(&cfg))
            .fabric(FabricSpec::flat().with_channels(0))
            .build()
            .expect_err("zero channels rejected");
        assert!(rule_of(err).contains(&Rule::FabricRange));
        // One requestor gets the same rule book as any other topology:
        // a second channel would be dead hardware, and arity 1 is as
        // malformed as it is elsewhere. The builder and the run path
        // agree on both.
        let one = || Topology::builder(&cfg).requestor(SystemKind::Pack, ismt::build(16, 1, &p));
        let cases = [
            (
                one().fabric(FabricSpec::flat().with_channels(2)),
                Rule::FabricRange,
            ),
            (one().fabric(FabricSpec::tree(1)), Rule::ManagerOverflow),
        ];
        for (builder, rule) in cases {
            let topo = Topology {
                system: cfg,
                requestors: builder.requestors.clone(),
                fabric: builder.fabric,
            };
            let err = builder.build().expect_err("malformed solo fabric rejected");
            assert!(rule_of(err).contains(&rule), "{rule:?}");
            let err = run_system(&topo).expect_err("run path rejects it too");
            assert!(rule_of(err).contains(&rule), "{rule:?}");
        }
        // Outstanding-load limit that cannot fit the mux-narrowed local
        // ID space: a capacity rejection, not a silent allocator wrap.
        let mut idcfg = cfg;
        idcfg.vproc.max_outstanding_loads = 1 << LOCAL_ID_BITS;
        let err = two(Topology::builder(&idcfg))
            .build()
            .expect_err("aliasing IDs rejected");
        assert!(rule_of(err).contains(&Rule::IdCapacity));
        // Zero-depth queues: the classic pre-cycle-0 rejection.
        let mut qcfg = cfg;
        qcfg.queue_depth = 0;
        let err = two(Topology::builder(&qcfg))
            .build()
            .expect_err("zero-depth queues rejected");
        assert!(rule_of(err).contains(&Rule::QueueStall));
    }

    #[test]
    fn id_aliasing_behind_the_mux_is_a_hard_drc_error() {
        // Regression: the mux narrows every engine to LOCAL_ID_BITS local
        // IDs. An outstanding limit that exceeds that masked space used to
        // be silently accepted — the allocator would wrap and alias a
        // live transaction. It is now a typed DRC rejection.
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.vproc.max_outstanding_loads = 1 << LOCAL_ID_BITS;
        let p = cfg.kernel_params();
        // A hand-rolled literal (not the builder) so the run path's own
        // DRC gate is what rejects it.
        let topo = Topology {
            system: cfg,
            requestors: vec![
                Requestor::new(SystemKind::Pack, ismt::build(16, 1, &p)),
                Requestor::new(SystemKind::Pack, ismt::build(16, 2, &p)),
            ],
            fabric: FabricSpec::default(),
        };
        let err = run_system(&topo).expect_err("aliasing IDs must be rejected");
        let report = err.drc_report().expect("a DRC rejection, not a sim error");
        assert!(report.violates(crate::drc::Rule::IdCapacity), "{report}");
        // Solo, the full 8-bit ID space covers the same limit: the run
        // is legal and completes.
        run_kernel(&cfg, &ismt::build(16, 1, &p)).expect("solo run is legal");
    }

    #[test]
    fn empty_topology_is_a_typed_error_not_a_panic() {
        let topo = Topology {
            system: SystemConfig::paper(SystemKind::Pack),
            requestors: Vec::new(),
            fabric: FabricSpec::default(),
        };
        let err = run_system(&topo).expect_err("empty topology rejected");
        let report = err.drc_report().expect("a DRC rejection");
        assert!(report.violates(crate::drc::Rule::Unreachable), "{report}");
        // And the error converts losslessly into the legacy String shape.
        let msg: String = err.into();
        assert!(msg.contains("DRC-U1"), "{msg}");
    }

    #[test]
    fn zero_depth_queues_are_rejected_before_cycle_zero() {
        // queue_depth = 0 used to panic inside CtrlConfig::new mid-setup;
        // the DRC now reports it as a typed diagnostic first.
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.queue_depth = 0;
        let k = ismt::build(16, 1, &cfg.kernel_params());
        let err = run_kernel(&cfg, &k).expect_err("zero-depth queues rejected");
        let report = err.drc_report().expect("a DRC rejection");
        assert!(report.violates(crate::drc::Rule::QueueStall), "{report}");
    }

    #[test]
    fn finished_requestors_keep_their_own_utilization_denominator() {
        // A short kernel next to a long one: the short requestor's stats
        // must describe its own run, not be diluted by the tail it sat
        // out (its engine stops ticking once done).
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let p = cfg.kernel_params();
        let topo = Topology::builder(&cfg)
            .requestor(SystemKind::Pack, ismt::build(12, 1, &p))
            .requestor(SystemKind::Pack, ismt::build(40, 2, &p))
            .build()
            .expect("DRC-clean");
        let report = run_system(&topo).expect("verifies");
        let (short, long) = (&report.requestors[0], &report.requestors[1]);
        assert!(short.cycles < long.cycles);
        // busy_fraction × cycles recovers the requestor's R beat count;
        // that count is workload-determined and must match the solo run
        // of the same kernel. If the idle tail diluted the fraction, the
        // product would undershoot badly.
        let solo = run_kernel(&cfg, &ismt::build(12, 1, &p)).expect("solo verifies");
        let beats_shared = short.r_busy * short.cycles as f64;
        let beats_solo = solo.r_busy * solo.cycles as f64;
        assert!(
            (beats_shared - beats_solo).abs() < 1.0,
            "beat accounting drifted: {beats_shared:.1} vs {beats_solo:.1}"
        );
    }

    #[test]
    fn ideal_requestors_share_storage_without_bus_contention() {
        let cfg = SystemConfig::paper(SystemKind::Ideal);
        let p = cfg.kernel_params();
        let solo = run_kernel(&cfg, &ismt::build(16, 4, &p)).expect("solo verifies");
        let topo = Topology::builder(&cfg)
            .requestor(SystemKind::Ideal, ismt::build(16, 4, &p))
            .requestor(SystemKind::Ideal, ismt::build(16, 5, &p))
            .build()
            .expect("DRC-clean");
        let shared = run_system(&topo).expect("ideal pair verifies");
        // Per-lane ports: no shared resource, no slowdown.
        assert_eq!(shared.requestors[0].cycles, solo.cycles);
        assert_eq!(shared.bank_conflicts, 0);
        assert_eq!(shared.bus_r_busy, 0.0);
    }
}
