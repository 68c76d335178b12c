//! Static design-rule checking (`simcheck` analyzer 1).
//!
//! A [`Topology`] can be silently wrong in ways no unit test of a single
//! component catches: overlapping address windows, an AXI ID space too
//! small for the engine's outstanding-transaction limit (the ID-remapping
//! mux masks IDs, so overflow *aliases* transactions instead of failing),
//! zero-capacity queues that wedge the datapath at cycle 0, or wait-for
//! cycles between back-pressured components that deadlock mid-run. This
//! module rejects those configurations *before* cycle 0:
//!
//! 1. [`extract`] lowers a `Topology` into a [`SystemModel`] — a plain-data
//!    description of every window, engine, queue capacity and the
//!    back-pressure wait-for graph between components;
//! 2. [`check_model`] runs the rule suite over the model and returns a
//!    [`DrcReport`] of typed diagnostics (rule ID, severity, offending
//!    component path, fix hint).
//!
//! [`check_topology`] composes the two. The run paths
//! ([`crate::run_system`], [`crate::run_kernel`]) validate by default and
//! return [`crate::RunError::Drc`] instead of panicking or wedging;
//! `workloads::synth`-generated topologies are asserted DRC-clean by the
//! differential engine (a rejected seed is a generator bug); and
//! `figures drc` pretty-prints reports for the in-tree config grids.
//!
//! The rule catalog is stable: every rule has a short ID ([`Rule::id`],
//! e.g. `DRC-I1`) that tests and fix hints reference. Rules detect either
//! **errors** (the run would panic, wedge, or silently corrupt — the run
//! paths refuse to start) or **warnings** (legal but suspicious; reported,
//! never fatal).

use std::fmt;

use axi_proto::{CHANNEL_DEPTH, ID_BITS, MAX_FAN_IN};
use banked_mem::{ChannelMap, MAX_WORD_BYTES};
use pack_ctrl::{BASE_TXNS, PACKED_BURSTS};
use vproc::SystemKind;
use workloads::Kernel;

use crate::system::{FabricSpec, Placement, SystemConfig, Topology, WINDOW_ALIGN};

// ---------------------------------------------------------------------
// Rules and diagnostics
// ---------------------------------------------------------------------

/// One design rule of the catalog. The numeric IDs are stable across
/// releases — tests assert on them and fix hints cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `DRC-W1` — requestor windows must be 4 KiB-aligned.
    WindowAlign,
    /// `DRC-W2` — requestor windows must be disjoint.
    WindowOverlap,
    /// `DRC-W3` — a window must be non-empty, fit inside the backing
    /// store, and contain its kernel's image and expected-output regions.
    WindowBounds,
    /// `DRC-I1` — the effective AXI ID space must cover the engine's
    /// outstanding-transaction limit (ID masking aliases on overflow),
    /// and the deepest mux tree's stacked ID-prefix fields must fit the
    /// bus's [`ID_BITS`]-bit ID on top of the leaf-local width.
    IdCapacity,
    /// `DRC-I2` — the fabric's per-level mux fan-in (arity) must be
    /// between 2 and [`MAX_FAN_IN`]: below 2 a tree never converges,
    /// above it a level overflows its port budget.
    ManagerOverflow,
    /// `DRC-Q1` — queues and channel FIFOs must have stall-free capacity.
    QueueStall,
    /// `DRC-C1` — the back-pressure wait-for graph must be free of cycles
    /// made entirely of conditional edges (deadlock freedom).
    CreditCycle,
    /// `DRC-B1` — bank, word and port counts must be mutually consistent.
    BankPorts,
    /// `DRC-U1` — every component must be reachable from a requestor; a
    /// topology needs at least one requestor.
    Unreachable,
    /// `DRC-V1` — vector-processor and bus shape parameters must be in
    /// the ranges the engine supports.
    VprocShape,
    /// `DRC-F1` — the fabric's channel ranges must be disjoint, point at
    /// existing channels, and leave no channel unreachable.
    FabricRange,
}

impl Rule {
    /// Every rule of the catalog, in ID order.
    pub const ALL: [Rule; 11] = [
        Rule::WindowAlign,
        Rule::WindowOverlap,
        Rule::WindowBounds,
        Rule::IdCapacity,
        Rule::ManagerOverflow,
        Rule::QueueStall,
        Rule::CreditCycle,
        Rule::BankPorts,
        Rule::Unreachable,
        Rule::VprocShape,
        Rule::FabricRange,
    ];

    /// The stable rule ID (`DRC-W1` … `DRC-V1`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::WindowAlign => "DRC-W1",
            Rule::WindowOverlap => "DRC-W2",
            Rule::WindowBounds => "DRC-W3",
            Rule::IdCapacity => "DRC-I1",
            Rule::ManagerOverflow => "DRC-I2",
            Rule::QueueStall => "DRC-Q1",
            Rule::CreditCycle => "DRC-C1",
            Rule::BankPorts => "DRC-B1",
            Rule::Unreachable => "DRC-U1",
            Rule::VprocShape => "DRC-V1",
            Rule::FabricRange => "DRC-F1",
        }
    }

    /// One-line catalog description (for `figures drc` and the docs).
    pub fn summary(self) -> &'static str {
        match self {
            Rule::WindowAlign => "requestor windows are 4 KiB-aligned",
            Rule::WindowOverlap => "requestor windows are disjoint",
            Rule::WindowBounds => "kernel images fit inside their windows",
            Rule::IdCapacity => "AXI ID space covers the outstanding-transaction limit",
            Rule::ManagerOverflow => "mux fan-in per fabric level is between 2 and 8",
            Rule::QueueStall => "queues and channel FIFOs have stall-free capacity",
            Rule::CreditCycle => "the back-pressure wait-for graph is deadlock-free",
            Rule::BankPorts => "bank, word and port counts are consistent",
            Rule::Unreachable => "every component is reachable from a requestor",
            Rule::VprocShape => "vector-processor and bus parameters are supported",
            Rule::FabricRange => "fabric ranges are disjoint and every channel reachable",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Legal but suspicious; reported, never fatal.
    Warning,
    /// The run would panic, wedge, or silently corrupt — the run paths
    /// refuse to start.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One rule violation: which rule, how severe, where, what, and how to
/// fix it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Error (run refused) or warning (reported only).
    pub severity: Severity,
    /// Path of the offending component (e.g. `requestor[1].engine`).
    pub path: String,
    /// What is wrong, with the offending values.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.rule.id(),
            self.path,
            self.message
        )?;
        if !self.hint.is_empty() {
            write!(f, " (hint: {})", self.hint)?;
        }
        Ok(())
    }
}

/// The result of one DRC pass: every diagnostic, plus how much was
/// checked (so a clean report still says what it covered).
#[derive(Debug, Clone, Default)]
pub struct DrcReport {
    /// Every diagnostic, in rule-catalog order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of components (graph nodes) the pass examined.
    pub components: usize,
}

impl DrcReport {
    /// `true` when no *error*-severity diagnostic fired (warnings are
    /// allowed — they never block a run).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when any diagnostic of `rule` fired (any severity).
    pub fn violates(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    fn push(
        &mut self,
        rule: Rule,
        severity: Severity,
        path: impl Into<String>,
        message: String,
        hint: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            rule,
            severity,
            path: path.into(),
            message,
            hint: hint.into(),
        });
    }
}

impl fmt::Display for DrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        if self.diagnostics.is_empty() {
            return write!(
                f,
                "DRC clean: {} rules over {} components",
                Rule::ALL.len(),
                self.components
            );
        }
        write!(
            f,
            "DRC: {errors} error{}, {warnings} warning{}",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The static system model
// ---------------------------------------------------------------------

/// One requestor's private address-space window.
#[derive(Debug, Clone)]
pub struct WindowModel {
    /// Component path (`requestor[i].window`).
    pub path: String,
    /// Window base address in the shared store.
    pub base: u64,
    /// Window size in bytes (the kernel's `storage_size`).
    pub size: usize,
    /// One past the highest window-relative byte the kernel's image or
    /// expected-output regions touch (0 for an empty image).
    pub content_end: u64,
}

/// One requestor's vector engine, as the DRC sees it.
#[derive(Debug, Clone)]
pub struct EngineModel {
    /// Component path (`requestor[i].engine`).
    pub path: String,
    /// BASE, PACK or IDEAL.
    pub kind: SystemKind,
    /// `axi_id_bits` as configured on the [`SystemConfig`].
    pub configured_id_bits: u32,
    /// The ID width the engine will actually run with: the fabric plan
    /// narrows an engine that shares its channel's mux tree to the
    /// leaf-local width so the level prefixes fit.
    pub effective_id_bits: u32,
    /// Maximum concurrently outstanding load transactions.
    pub max_outstanding_loads: usize,
    /// Vector lanes.
    pub lanes: usize,
    /// Vector register length in bytes.
    pub vlen_bytes: usize,
    /// Sequencer in-flight instruction window.
    pub window: usize,
}

impl EngineModel {
    /// `true` when this engine drives the shared AXI(-Pack) bus (IDEAL
    /// engines use per-lane memory ports instead).
    pub fn bus_attached(&self) -> bool {
        self.kind != SystemKind::Ideal
    }
}

/// Whether a wait-for edge can stall forever or is guaranteed to drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The source makes progress only if the target does (back-pressure:
    /// "waits while the target is full/busy").
    Conditional,
    /// The target always makes progress regardless of anything upstream
    /// (a fixed-latency pipeline, or a consumer that pops every cycle).
    Unconditional,
}

/// The component/channel wait-for graph of a system: nodes are pipeline
/// stages (engine issue/drain sides, leaf channels, every mux, the
/// adapter, the banked memory), directed edges mean "the source waits on
/// the target". A cycle made entirely of [`EdgeKind::Conditional`] edges
/// is a potential deadlock ([`Rule::CreditCycle`]).
#[derive(Debug, Clone, Default)]
pub struct ComponentGraph {
    nodes: Vec<String>,
    edges: Vec<(usize, usize, EdgeKind)>,
}

impl ComponentGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ComponentGraph::default()
    }

    /// Adds a component node; returns its index.
    pub fn add_node(&mut self, path: impl Into<String>) -> usize {
        self.nodes.push(path.into());
        self.nodes.len() - 1
    }

    /// Adds a directed wait-for edge.
    pub fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.edges.push((from, to, kind));
    }

    /// Number of component nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The path of node `i`.
    pub fn path(&self, i: usize) -> &str {
        &self.nodes[i]
    }

    /// Finds a cycle made entirely of conditional edges, as a list of
    /// node indices along the cycle; `None` when the conditional
    /// subgraph is acyclic (deadlock-free).
    pub fn conditional_cycle(&self) -> Option<Vec<usize>> {
        // Iterative DFS with colors over the Conditional-only subgraph.
        let conditional = self.edges.iter().filter(|e| e.2 == EdgeKind::Conditional);
        let (starts, succ) = self.successors(conditional.map(|&(a, b, _)| (a, b)));
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.nodes.len()];
        let mut parent = vec![usize::MAX; self.nodes.len()];
        // Stack of (node, index into `succ` of its next successor).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..self.nodes.len() {
            if color[start] != Color::White {
                continue;
            }
            stack.push((start, starts[start]));
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < starts[node + 1] {
                    let n = succ[*next];
                    *next += 1;
                    match color[n] {
                        Color::White => {
                            color[n] = Color::Gray;
                            parent[n] = node;
                            stack.push((n, starts[n]));
                        }
                        Color::Gray => {
                            // Found a back edge node -> n: walk parents
                            // back to n to materialize the cycle.
                            let mut cycle = vec![node];
                            let mut at = node;
                            while at != n {
                                at = parent[at];
                                cycle.push(at);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Nodes not connected (in either edge direction) to any of `roots`.
    pub fn unreachable_from(&self, roots: &[usize]) -> Vec<usize> {
        let both_ways = self.edges.iter().flat_map(|&(a, b, _)| [(a, b), (b, a)]);
        let (starts, adj) = self.successors(both_ways);
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = roots.iter().copied().filter(|&r| r < seen.len()).collect();
        for &r in &queue {
            seen[r] = true;
        }
        while let Some(n) = queue.pop() {
            for &m in &adj[starts[n]..starts[n + 1]] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push(m);
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| !seen[i]).collect()
    }

    /// The successor lists of `arcs`, compressed into one array: node
    /// `n`'s successors are `succ[starts[n]..starts[n + 1]]`, in arc
    /// order. Three allocations in all: a 128-requestor fabric's graph
    /// has about 600 nodes, and a list per node would dominate the check.
    fn successors(
        &self,
        arcs: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut starts = vec![0; self.nodes.len() + 1];
        for (a, _) in arcs.clone() {
            starts[a + 1] += 1;
        }
        for n in 0..self.nodes.len() {
            starts[n + 1] += starts[n];
        }
        let mut fill = starts.clone();
        let mut succ = vec![0; starts[self.nodes.len()]];
        for (a, b) in arcs {
            succ[fill[a]] = b;
            fill[a] += 1;
        }
        (starts, succ)
    }
}

/// The plain-data model the rules run over, extracted from a
/// [`Topology`] by [`extract`]. All fields are public so tests can
/// doctor a model into each failure mode — a well-formed `Topology`
/// *derives* aligned, disjoint windows, so some rules are only reachable
/// through a corrupted model.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// Bus width in bits (unvalidated — rule `DRC-V1` checks it).
    pub bus_bits: u32,
    /// Bank count of the shared SRAM.
    pub banks: usize,
    /// Memory word width in bytes.
    pub bank_word_bytes: usize,
    /// Per-lane decoupling-queue depth in the controller.
    pub queue_depth: usize,
    /// Register depth of every AXI channel FIFO.
    pub channel_depth: usize,
    /// Outstanding-transaction capacity of the adapter's plain-AXI4
    /// converter.
    pub plain_txn_slots: usize,
    /// Concurrent packed bursts per packed converter.
    pub packed_burst_slots: usize,
    /// Simulation cycle limit.
    pub max_cycles: u64,
    /// Total backing-store size covering every window.
    pub storage_bytes: usize,
    /// Memory channels of the fabric, as configured (1 is the classic
    /// flat shared endpoint; 0 is a `DRC-F1` error).
    pub fabric_channels: usize,
    /// Manager fan-in of one mux level of the fabric.
    pub fabric_arity: usize,
    /// ID bits a leaf keeps below the stacked level prefixes (the width
    /// engines behind a mux run at).
    pub local_id_bits: u32,
    /// ID-prefix bits each mux level stacks onto a transaction ID.
    pub level_bits: u32,
    /// Mux-tree depth of the channel with the most bus-attached
    /// requestors (0 when no channel needs a mux).
    pub fabric_depth: u32,
    /// The fabric's address-to-channel decoder.
    pub channel_map: ChannelMap,
    /// One window per requestor, in requestor order.
    pub windows: Vec<WindowModel>,
    /// One engine per requestor, in requestor order.
    pub engines: Vec<EngineModel>,
    /// The back-pressure wait-for graph.
    pub graph: ComponentGraph,
    /// Graph nodes that are engine issue sides (roots for reachability).
    pub engine_nodes: Vec<usize>,
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

/// One past the highest window-relative byte a kernel's image and
/// expected-output regions touch.
fn kernel_content_end(kernel: &Kernel) -> u64 {
    let image_end = kernel
        .image
        .iter()
        .map(|(addr, bytes)| addr + bytes.len() as u64)
        .max()
        .unwrap_or(0);
    let check_end = kernel
        .expected
        .iter()
        .map(|c| c.addr + 4 * c.values.len() as u64)
        .max()
        .unwrap_or(0);
    image_end.max(check_end)
}

/// Extracts the static model of a topology: windows, engines (with the
/// ID width the plan runs them at), capacities, and the wait-for graph
/// of the fabric the plan wires. Never panics — even on configurations
/// the run paths would reject.
pub fn extract(topo: &Topology) -> SystemModel {
    build_model(&topo.system, &topo.reqs(), &topo.placement())
}

fn build_model(
    sys: &SystemConfig,
    reqs: &[(SystemKind, &Kernel)],
    placement: &Placement,
) -> SystemModel {
    let windows: Vec<WindowModel> = reqs
        .iter()
        .zip(&placement.window_bases)
        .enumerate()
        .map(|(i, ((_, kernel), &base))| WindowModel {
            path: format!("requestor[{i}].window"),
            base,
            size: kernel.storage_size,
            content_end: kernel_content_end(kernel),
        })
        .collect();
    let engines: Vec<EngineModel> = reqs
        .iter()
        .zip(&placement.id_bits)
        .enumerate()
        .map(|(i, (&(kind, _), &effective_id_bits))| EngineModel {
            path: format!("requestor[{i}].engine"),
            kind,
            configured_id_bits: sys.vproc.axi_id_bits,
            effective_id_bits,
            max_outstanding_loads: sys.vproc.max_outstanding_loads,
            lanes: sys.vproc.lanes,
            vlen_bytes: sys.vproc.vlen_bytes,
            window: sys.vproc.window,
        })
        .collect();

    // The wait-for graph. Nodes are pipeline stages; an edge A -> B means
    // "A makes progress only when B does" (Conditional) or "A feeds B,
    // which always drains" (Unconditional). The request path is
    // back-pressured end to end; the response path terminates in the
    // engine's drain side, which pops R/B every cycle regardless of the
    // engine's own issue state — that unconditional sink is what makes
    // the in-tree systems deadlock-free. Each channel is an independent
    // memory + adapter + mux-tree stack, wired as the plan wires it.
    let mut graph = ComponentGraph::new();
    let mut engine_nodes = Vec::with_capacity(reqs.len());
    struct ChanNodes {
        memory: usize,
        /// Per bundle of the channel: the (request, response) nodes of
        /// the stage that consumes it — the mux it feeds, or the adapter.
        consumer: Vec<(usize, usize)>,
    }
    let mut chans: Vec<Option<ChanNodes>> = Vec::with_capacity(placement.trees.len());
    for (c, tree) in placement.trees.iter().enumerate() {
        // A channel no window routes to gets no hardware: DRC-F1 names it.
        if !placement.channel_of.contains(&c) {
            chans.push(None);
            continue;
        }
        let memory = graph.add_node(format!("ch{c}.memory.banks"));
        let mut consumer = Vec::new();
        if !tree.members.is_empty() {
            let adapter = graph.add_node(format!("ch{c}.adapter"));
            graph.add_edge(adapter, memory, EdgeKind::Conditional);
            consumer = vec![(adapter, adapter); tree.bundles()];
            // One request/response node pair per mux, top-down so each
            // mux's down-link consumer is known when it is wired.
            for l in (0..tree.depth()).rev() {
                for (k, m) in tree.level(l).enumerate() {
                    let w = tree.muxes[m];
                    let req = graph.add_node(format!("ch{c}.level{l}.mux{k}.request"));
                    let resp = graph.add_node(format!("ch{c}.level{l}.mux{k}.response"));
                    let (up_req, up_resp) = consumer[w.down];
                    graph.add_edge(req, up_req, EdgeKind::Conditional);
                    graph.add_edge(up_resp, resp, EdgeKind::Conditional);
                    consumer[w.lo..w.hi].fill((req, resp));
                }
            }
        }
        chans.push(Some(ChanNodes { memory, consumer }));
    }
    for (i, slot) in placement.slots.iter().enumerate() {
        let issue = graph.add_node(format!("requestor[{i}].engine.issue"));
        engine_nodes.push(issue);
        let Some(chan) = &chans[placement.channel_of[i]] else {
            continue;
        };
        let Some((_, leaf)) = *slot else {
            // Per-lane ports into the channel's store: fixed latency,
            // always drains — no response path to model.
            graph.add_edge(issue, chan.memory, EdgeKind::Unconditional);
            continue;
        };
        let drain = graph.add_node(format!("requestor[{i}].engine.drain"));
        let req_ch = graph.add_node(format!("requestor[{i}].axi.request"));
        let resp_ch = graph.add_node(format!("requestor[{i}].axi.response"));
        let (up_req, up_resp) = chan.consumer[leaf];
        graph.add_edge(issue, req_ch, EdgeKind::Conditional);
        graph.add_edge(req_ch, up_req, EdgeKind::Conditional);
        graph.add_edge(up_resp, resp_ch, EdgeKind::Conditional);
        // The engine pops R/B every cycle: the response channel always
        // drains into the engine's drain side, which waits on nothing.
        graph.add_edge(resp_ch, drain, EdgeKind::Unconditional);
    }

    SystemModel {
        bus_bits: sys.bus_bits,
        banks: sys.banks,
        bank_word_bytes: 4, // SystemConfig::ctrl always runs 32-bit words
        queue_depth: sys.queue_depth,
        channel_depth: CHANNEL_DEPTH,
        plain_txn_slots: BASE_TXNS,
        packed_burst_slots: PACKED_BURSTS,
        max_cycles: sys.max_cycles,
        storage_bytes: placement.storage_bytes,
        fabric_channels: placement.fabric.channels,
        fabric_arity: placement.fabric.arity,
        local_id_bits: placement.id_bits_at(0),
        level_bits: placement.level_bits,
        fabric_depth: placement.depth() as u32,
        channel_map: placement.channels.clone(),
        windows,
        engines,
        graph,
        engine_nodes,
    }
}

// ---------------------------------------------------------------------
// The rule suite
// ---------------------------------------------------------------------

/// Runs the whole rule suite over a model.
pub fn check_model(model: &SystemModel) -> DrcReport {
    let mut report = DrcReport {
        diagnostics: Vec::new(),
        components: model.graph.len(),
    };
    check_windows(model, &mut report);
    check_ids(model, &mut report);
    check_queues(model, &mut report);
    check_credit_cycles(model, &mut report);
    check_banks(model, &mut report);
    check_reachability(model, &mut report);
    check_vproc_shape(model, &mut report);
    check_fabric(model, &mut report);
    report
}

/// Extracts and checks a topology in one call — the gate of
/// [`crate::TopologyBuilder::build`].
pub fn check_topology(topo: &Topology) -> DrcReport {
    check_model(&extract(topo))
}

/// [`check_topology`] for the classic single-requestor system, without
/// building a [`Topology`].
pub fn check_single(cfg: &SystemConfig, kind: SystemKind, kernel: &Kernel) -> DrcReport {
    let reqs = [(kind, kernel)];
    check_plan(cfg, &reqs, &Placement::new(cfg, &FabricSpec::flat(), &reqs))
}

/// Checks the fabric `placement` planned for `reqs` — the gate of the
/// run paths, which then run that same plan.
pub(crate) fn check_plan(
    sys: &SystemConfig,
    reqs: &[(SystemKind, &Kernel)],
    placement: &Placement,
) -> DrcReport {
    check_model(&build_model(sys, reqs, placement))
}

/// `DRC-W1`/`DRC-W2`/`DRC-W3`: window alignment, disjointness, bounds.
fn check_windows(model: &SystemModel, report: &mut DrcReport) {
    for w in &model.windows {
        if w.base % WINDOW_ALIGN != 0 {
            report.push(
                Rule::WindowAlign,
                Severity::Error,
                &w.path,
                format!(
                    "window base {:#x} is not {} KiB-aligned",
                    w.base,
                    WINDOW_ALIGN / 1024
                ),
                "window bases must be multiples of 0x1000 so kernels keep \
                 their 64-byte layout alignment",
            );
        }
        if w.size == 0 {
            report.push(
                Rule::WindowBounds,
                Severity::Error,
                &w.path,
                "window is empty (kernel storage_size is 0)".into(),
                "give the kernel a non-zero storage_size",
            );
        } else if w.content_end > w.size as u64 {
            report.push(
                Rule::WindowBounds,
                Severity::Error,
                &w.path,
                format!(
                    "kernel image/checks reach byte {:#x}, past the window's \
                     {:#x}-byte storage",
                    w.content_end, w.size
                ),
                "grow the kernel's storage_size to cover every image and \
                 expected-output region",
            );
        }
        if w.base as usize + w.size > model.storage_bytes {
            report.push(
                Rule::WindowBounds,
                Severity::Error,
                &w.path,
                format!(
                    "window [{:#x}, {:#x}) exceeds the {:#x}-byte backing store",
                    w.base,
                    w.base + w.size as u64,
                    model.storage_bytes
                ),
                "grow storage_bytes to cover every window",
            );
        }
    }
    // Pairwise disjointness. Windows are few (<= requestor count), so the
    // quadratic check stays trivial.
    for (i, a) in model.windows.iter().enumerate() {
        for b in model.windows.iter().skip(i + 1) {
            let a_end = a.base + a.size as u64;
            let b_end = b.base + b.size as u64;
            if a.base < b_end && b.base < a_end {
                report.push(
                    Rule::WindowOverlap,
                    Severity::Error,
                    &b.path,
                    format!(
                        "window [{:#x}, {b_end:#x}) overlaps {} [{:#x}, {a_end:#x})",
                        b.base, a.path, a.base
                    ),
                    "windows must be disjoint; derive them with \
                     Topology::window_bases",
                );
            }
        }
    }
}

/// `DRC-I1`/`DRC-I2`: ID-space capacity and the manager-port limit.
fn check_ids(model: &SystemModel, report: &mut DrcReport) {
    for e in model.engines.iter().filter(|e| e.bus_attached()) {
        // Loads and stores never share IDs in flight: the engine caps
        // outstanding loads and allows at most one outstanding store, so
        // the ID allocator must cover max_outstanding_loads + 1 live IDs
        // before it wraps into a still-outstanding one.
        let needed = e.max_outstanding_loads as u64 + 1;
        let have = match e.effective_id_bits {
            0 => 0,
            bits => 1u64 << bits.min(16),
        };
        if have < needed {
            let narrowed = e.effective_id_bits != e.configured_id_bits;
            report.push(
                Rule::IdCapacity,
                Severity::Error,
                &e.path,
                format!(
                    "{} AXI IDs ({} ID bits{}) cannot cover {} outstanding \
                     transactions ({} loads + 1 store) — the allocator would \
                     wrap and alias a live transaction",
                    have,
                    e.effective_id_bits,
                    if narrowed {
                        format!(
                            ", narrowed from {} behind the ID-remapping mux",
                            e.configured_id_bits
                        )
                    } else {
                        String::new()
                    },
                    needed,
                    e.max_outstanding_loads
                ),
                format!(
                    "lower vproc.max_outstanding_loads to at most {} or widen \
                     the ID space",
                    have.saturating_sub(1)
                ),
            );
        }
    }
    let arity = model.fabric_arity;
    if !(2..=MAX_FAN_IN).contains(&arity) {
        report.push(
            Rule::ManagerOverflow,
            Severity::Error,
            "fabric",
            format!(
                "mux fan-in (arity) of {arity} is outside the supported \
                 2..={MAX_FAN_IN}: below 2 a tree never converges, above \
                 it a level overflows its port budget"
            ),
            "pick a per-level fan-in between 2 and 8",
        );
    }
    // Per-level ID budget: every mux level of the deepest tree stacks
    // level_bits of port prefix onto the leaf-local ID; the total must
    // still fit the bus's transaction-ID field.
    let (depth, local, level) = (model.fabric_depth, model.local_id_bits, model.level_bits);
    let total_bits = local + depth * level;
    if depth > 0 && total_bits > ID_BITS {
        report.push(
            Rule::IdCapacity,
            Severity::Error,
            "fabric",
            format!(
                "a {depth}-level mux tree needs {total_bits} ID bits ({local} \
                 leaf-local + {depth} levels x {level} prefix bits), past the \
                 {ID_BITS}-bit transaction ID"
            ),
            "spread requestors over more channels or raise the arity to \
             shrink the tree",
        );
    }
}

/// `DRC-F1`: every address the fabric accepts routes to exactly one,
/// existing, reachable channel.
fn check_fabric(model: &SystemModel, report: &mut DrcReport) {
    if model.fabric_channels == 0 {
        report.push(
            Rule::FabricRange,
            Severity::Error,
            "fabric",
            "channel count is 0: no address can route anywhere".into(),
            "a fabric needs at least one memory channel",
        );
    }
    if let Some((a, b)) = model.channel_map.overlapping() {
        report.push(
            Rule::FabricRange,
            Severity::Error,
            format!("fabric.ch{}", b.channel),
            format!(
                "range [{:#x}, {:#x}) of channel {} overlaps \
                 [{:#x}, {:#x}) of channel {}",
                b.base,
                b.end(),
                b.channel,
                a.base,
                a.end(),
                a.channel
            ),
            "fabric ranges must be disjoint so every address routes to \
             exactly one channel",
        );
    }
    if let Some(r) = model.channel_map.out_of_range() {
        report.push(
            Rule::FabricRange,
            Severity::Error,
            format!("fabric.ch{}", r.channel),
            format!(
                "range [{:#x}, {:#x}) claims channel {}, but the fabric \
                 has only {}",
                r.base,
                r.end(),
                r.channel,
                model.channel_map.channels()
            ),
            "point every range at an existing channel",
        );
    }
    // An empty topology has no windows at all; DRC-U1 already owns that
    // failure, so only flag dead channels when there is something routed.
    if !model.windows.is_empty() {
        if let Some(c) = model.channel_map.unreachable() {
            report.push(
                Rule::FabricRange,
                Severity::Error,
                format!("fabric.ch{c}"),
                format!("no address range routes to channel {c}: dead hardware"),
                "interleave at least one window onto every channel, or \
                 drop the channel",
            );
        }
    }
}

/// `DRC-Q1`: stall-free queue and FIFO capacities.
fn check_queues(model: &SystemModel, report: &mut DrcReport) {
    if model.queue_depth == 0 {
        report.push(
            Rule::QueueStall,
            Severity::Error,
            "adapter.queues",
            "decoupling-queue depth is 0: no word request can ever issue".into(),
            "queue_depth must be >= 1 (paper default 4)",
        );
    }
    if model.channel_depth == 0 {
        report.push(
            Rule::QueueStall,
            Severity::Error,
            "bus.channels",
            "zero-depth channel FIFOs can never carry a beat".into(),
            "channel FIFOs need depth >= 1",
        );
    } else if model.channel_depth < 2 {
        report.push(
            Rule::QueueStall,
            Severity::Warning,
            "bus.channels",
            format!(
                "channel FIFO depth {} sustains at most one beat per two \
                 cycles (a full-rate register slice needs 2)",
                model.channel_depth
            ),
            "use depth-2 skid buffers for full-rate channels",
        );
    }
    if model.engines.iter().any(|e| e.bus_attached()) {
        if model.plain_txn_slots == 0 {
            report.push(
                Rule::QueueStall,
                Severity::Error,
                "adapter.base",
                "the plain-AXI4 converter has no transaction slots: any BASE \
                 burst would wedge the AR channel forever"
                    .into(),
                "the base converter needs >= 1 outstanding-transaction slot",
            );
        }
        if model.packed_burst_slots == 0 {
            report.push(
                Rule::QueueStall,
                Severity::Error,
                "adapter.packed",
                "the packed converters have no burst slots: any packed burst \
                 would wedge the AR channel forever"
                    .into(),
                "the packed converters need >= 1 concurrent-burst slot",
            );
        }
    }
    if model.max_cycles == 0 {
        report.push(
            Rule::QueueStall,
            Severity::Error,
            "system",
            "max_cycles is 0: the run would be reported as hung at cycle 1".into(),
            "set a positive simulation cycle limit",
        );
    }
}

/// `DRC-C1`: deadlock freedom of the back-pressure wait-for graph.
fn check_credit_cycles(model: &SystemModel, report: &mut DrcReport) {
    if let Some(cycle) = model.graph.conditional_cycle() {
        let path: Vec<&str> = cycle.iter().map(|&n| model.graph.path(n)).collect();
        let first = path.first().copied().unwrap_or("?");
        report.push(
            Rule::CreditCycle,
            Severity::Error,
            first,
            format!(
                "back-pressure cycle with no guaranteed drain: {} -> {first}",
                path.join(" -> ")
            ),
            "break the cycle with an unconditional consumer (e.g. a drain \
             side that pops every cycle) or a credit reserve",
        );
    }
}

/// `DRC-B1`: bank/word/port consistency.
fn check_banks(model: &SystemModel, report: &mut DrcReport) {
    if model.banks == 0 {
        report.push(
            Rule::BankPorts,
            Severity::Error,
            "memory.banks",
            "bank count is 0: no address can be mapped".into(),
            "use >= 1 bank (paper default 17)",
        );
    }
    let wb = model.bank_word_bytes;
    if wb == 0 || !wb.is_power_of_two() || wb > MAX_WORD_BYTES {
        report.push(
            Rule::BankPorts,
            Severity::Error,
            "memory.banks",
            format!(
                "word width of {wb} B is unsupported (must be a power of two \
                 up to {MAX_WORD_BYTES} B)"
            ),
            "use a power-of-two word width within the inline word buffer",
        );
    } else if model.bus_bits.is_multiple_of(8) {
        let bus_bytes = model.bus_bits as usize / 8;
        if !bus_bytes.is_multiple_of(wb) || bus_bytes / wb == 0 {
            report.push(
                Rule::BankPorts,
                Severity::Error,
                "adapter.ports",
                format!(
                    "a {}-bit bus does not decompose into {wb}-B words: the \
                     n-port crossbar would have {} ports",
                    model.bus_bits,
                    bus_bytes / wb
                ),
                "the bus width must be a positive multiple of the memory \
                 word width",
            );
        }
    }
}

/// `DRC-U1`: at least one requestor; every component reachable.
fn check_reachability(model: &SystemModel, report: &mut DrcReport) {
    if model.engines.is_empty() {
        report.push(
            Rule::Unreachable,
            Severity::Error,
            "topology",
            "a topology needs at least one requestor".into(),
            "add a requestor",
        );
        return;
    }
    for n in model.graph.unreachable_from(&model.engine_nodes) {
        report.push(
            Rule::Unreachable,
            Severity::Error,
            model.graph.path(n).to_string(),
            "component is not connected to any requestor".into(),
            "remove the dangling component or wire it into the datapath",
        );
    }
}

/// `DRC-V1`: engine/bus parameter ranges.
fn check_vproc_shape(model: &SystemModel, report: &mut DrcReport) {
    let bits = model.bus_bits;
    if !(32..=1024).contains(&bits) || !bits.is_power_of_two() {
        report.push(
            Rule::VprocShape,
            Severity::Error,
            "bus",
            format!(
                "bus width of {bits} bits is unsupported (power of two \
                 between 32 and 1024)"
            ),
            "the paper pairs 64/128/256-bit buses with 2/4/8 lanes",
        );
    }
    for e in &model.engines {
        let mut bad = |message: String, hint: &str| {
            report.push(Rule::VprocShape, Severity::Error, &e.path, message, hint);
        };
        if e.lanes == 0 {
            bad(
                "engine has 0 lanes".into(),
                "lanes must be >= 1 (paper: bus bits / 32)",
            );
        }
        if e.vlen_bytes < 4 || e.vlen_bytes % 4 != 0 {
            bad(
                format!("VLEN of {} B cannot hold 32-bit elements", e.vlen_bytes),
                "vlen_bytes must be a positive multiple of 4",
            );
        }
        if e.window == 0 {
            bad(
                "sequencer window is 0: no instruction can issue".into(),
                "window must be >= 1 (paper default 16)",
            );
        }
        if e.max_outstanding_loads == 0 {
            bad(
                "max_outstanding_loads is 0: no load can ever issue".into(),
                "allow at least one outstanding load",
            );
        }
        if e.bus_attached() && !(1..=8).contains(&e.configured_id_bits) {
            bad(
                format!(
                    "axi_id_bits of {} outside the engine's supported 1..=8",
                    e.configured_id_bits
                ),
                "AXI IDs are u8: configure 1 to 8 ID bits",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_proto::LOCAL_ID_BITS;
    use workloads::ismt;

    fn paper_model() -> SystemModel {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let k = ismt::build(16, 1, &cfg.kernel_params());
        extract(&Topology {
            system: cfg,
            requestors: vec![crate::Requestor::new(SystemKind::Pack, k)],
            fabric: FabricSpec::default(),
        })
    }

    #[test]
    fn paper_single_system_is_clean() {
        let report = check_model(&paper_model());
        assert!(report.is_clean(), "{report}");
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(report.components >= 4);
    }

    #[test]
    fn rule_ids_are_stable_and_unique() {
        let mut ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len());
        assert_eq!(Rule::IdCapacity.id(), "DRC-I1");
        assert_eq!(Rule::CreditCycle.to_string(), "DRC-C1");
    }

    #[test]
    fn conditional_cycle_detection_ignores_unconditional_edges() {
        let mut g = ComponentGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, EdgeKind::Conditional);
        g.add_edge(b, c, EdgeKind::Conditional);
        g.add_edge(c, a, EdgeKind::Unconditional);
        assert!(
            g.conditional_cycle().is_none(),
            "unconditional edge breaks it"
        );
        g.add_edge(c, a, EdgeKind::Conditional);
        let cycle = g.conditional_cycle().expect("now fully conditional");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn clean_report_pretty_prints_coverage() {
        let report = check_model(&paper_model());
        let text = report.to_string();
        assert!(text.contains("DRC clean"), "{text}");
    }

    #[test]
    fn doctored_model_fires_window_rules() {
        let mut model = paper_model();
        model.windows[0].base = 0x800; // unaligned
        let report = check_model(&model);
        assert!(report.violates(Rule::WindowAlign), "{report}");
        assert!(!report.is_clean());
    }

    // --- one deliberately broken fixture per rule of the catalog ------

    fn pack_pair_topology(cfg: &SystemConfig) -> Topology {
        // A literal, not the builder: several fixtures below doctor the
        // config into states build() would reject, then assert the DRC
        // is what rejects them.
        let p = cfg.kernel_params();
        Topology {
            system: *cfg,
            requestors: vec![
                crate::Requestor::new(SystemKind::Pack, ismt::build(16, 1, &p)),
                crate::Requestor::new(SystemKind::Pack, ismt::build(16, 2, &p)),
            ],
            fabric: FabricSpec::default(),
        }
    }

    #[test]
    fn w2_overlapping_windows_are_an_error() {
        let topo = pack_pair_topology(&SystemConfig::paper(SystemKind::Pack));
        let mut model = extract(&topo);
        model.windows[1].base = model.windows[0].base; // collide
        let report = check_model(&model);
        assert!(report.violates(Rule::WindowOverlap), "{report}");
    }

    #[test]
    fn w3_kernel_escaping_its_window_is_an_error() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let mut k = ismt::build(16, 1, &cfg.kernel_params());
        k.storage_size = 0x40; // far smaller than the image it carries
        let report = check_single(&cfg, SystemKind::Pack, &k);
        assert!(report.violates(Rule::WindowBounds), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn i1_masked_id_space_smaller_than_outstanding_limit_is_an_error() {
        // Behind the mux the plan narrows every engine to
        // LOCAL_ID_BITS; 64 outstanding loads + 1 store need 65 live IDs
        // against 64 available — the allocator would wrap and alias.
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.vproc.max_outstanding_loads = 1 << LOCAL_ID_BITS;
        let topo = pack_pair_topology(&cfg);
        let report = check_topology(&topo);
        assert!(report.violates(Rule::IdCapacity), "{report}");
        // Solo, the full 8-bit ID space covers the same limit: clean.
        let k = ismt::build(16, 1, &cfg.kernel_params());
        let solo = check_single(&cfg, SystemKind::Pack, &k);
        assert!(solo.is_clean(), "{solo}");
    }

    #[test]
    fn i2_fan_in_outside_the_supported_range_is_an_error() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        for arity in [0, 1, MAX_FAN_IN + 1] {
            let mut topo = pack_pair_topology(&cfg);
            topo.fabric.arity = arity;
            let report = check_topology(&topo);
            assert!(
                report.violates(Rule::ManagerOverflow),
                "arity {arity}: {report}"
            );
        }
        // Five bus-attached requestors — once a flat-mux overflow — now
        // cascade legally through a two-level tree.
        let p = cfg.kernel_params();
        let topo = Topology {
            system: cfg,
            requestors: (0..5)
                .map(|s| crate::Requestor::new(SystemKind::Pack, ismt::build(16, s, &p)))
                .collect(),
            fabric: FabricSpec::default(),
        };
        let report = check_topology(&topo);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn i1_a_tree_too_deep_for_the_id_field_is_an_error() {
        // Doctored: 6 leaf-local bits + 6 levels x 2 prefix bits = 18,
        // past the 16-bit transaction ID. (Reaching this with real
        // requestors needs > 4^5 of them; the model is the fixture.)
        let mut model = paper_model();
        model.fabric_depth = 6;
        model.level_bits = 2;
        let report = check_model(&model);
        assert!(report.violates(Rule::IdCapacity), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn f1_malformed_channel_maps_are_errors() {
        use banked_mem::ChannelRange;
        // Zero channels can route nothing.
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let mut topo = pack_pair_topology(&cfg);
        topo.fabric.channels = 0;
        let report = check_topology(&topo);
        assert!(report.violates(Rule::FabricRange), "{report}");

        // Overlapping ranges double-route an address.
        let mut model = paper_model();
        model.channel_map = ChannelMap::new(
            1,
            vec![
                ChannelRange {
                    base: 0x0,
                    size: 0x2000,
                    channel: 0,
                },
                ChannelRange {
                    base: 0x1000,
                    size: 0x1000,
                    channel: 0,
                },
            ],
        );
        assert!(check_model(&model).violates(Rule::FabricRange));

        // A channel no range routes to is dead hardware.
        let mut model = paper_model();
        model.channel_map = ChannelMap::interleaved(&[(0x0, 0x1000)], 2);
        assert!(check_model(&model).violates(Rule::FabricRange));
    }

    #[test]
    fn q1_zero_capacity_queues_are_errors_and_shallow_channels_warn() {
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.queue_depth = 0;
        let k = ismt::build(16, 1, &cfg.kernel_params());
        let report = check_single(&cfg, SystemKind::Pack, &k);
        assert!(report.violates(Rule::QueueStall), "{report}");
        assert!(!report.is_clean());

        let mut model = paper_model();
        model.channel_depth = 1;
        let report = check_model(&model);
        assert!(report.violates(Rule::QueueStall), "{report}");
        assert!(
            report.is_clean(),
            "depth-1 channels are a warning: {report}"
        );

        let mut model = paper_model();
        model.plain_txn_slots = 0;
        model.max_cycles = 0;
        let report = check_model(&model);
        assert_eq!(
            report
                .errors()
                .filter(|d| d.rule == Rule::QueueStall)
                .count(),
            2,
            "{report}"
        );
    }

    #[test]
    fn c1_all_conditional_wait_cycle_is_an_error() {
        let mut model = paper_model();
        let mut g = ComponentGraph::new();
        let a = g.add_node("requestor[0].engine.issue");
        let b = g.add_node("adapter");
        g.add_edge(a, b, EdgeKind::Conditional);
        g.add_edge(b, a, EdgeKind::Conditional);
        model.engine_nodes = vec![a];
        model.graph = g;
        let report = check_model(&model);
        assert!(report.violates(Rule::CreditCycle), "{report}");
        let diag = report
            .errors()
            .find(|d| d.rule == Rule::CreditCycle)
            .expect("cycle diagnostic");
        assert!(diag.message.contains("adapter"), "{diag}");
    }

    #[test]
    fn b1_inconsistent_bank_geometry_is_an_error() {
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.banks = 0;
        let k = ismt::build(16, 1, &cfg.kernel_params());
        let report = check_single(&cfg, SystemKind::Pack, &k);
        assert!(report.violates(Rule::BankPorts), "{report}");

        let mut model = paper_model();
        model.bank_word_bytes = 3; // not a power of two
        assert!(check_model(&model).violates(Rule::BankPorts));
    }

    #[test]
    fn u1_empty_topology_and_dangling_components_are_errors() {
        let topo = Topology {
            system: SystemConfig::paper(SystemKind::Pack),
            requestors: Vec::new(),
            fabric: FabricSpec::default(),
        };
        let report = check_topology(&topo);
        assert!(report.violates(Rule::Unreachable), "{report}");

        let mut model = paper_model();
        model.graph.add_node("orphan");
        let report = check_model(&model);
        assert!(report.violates(Rule::Unreachable), "{report}");
        assert!(report.errors().any(|d| d.path == "orphan"));
    }

    #[test]
    fn v1_unsupported_shapes_are_errors() {
        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.bus_bits = 96; // not a power of two
        let k = ismt::build(16, 1, &cfg.kernel_params());
        let report = check_single(&cfg, SystemKind::Pack, &k);
        assert!(report.violates(Rule::VprocShape), "{report}");

        let mut cfg = SystemConfig::paper(SystemKind::Pack);
        cfg.vproc.axi_id_bits = 0;
        let report = check_single(&cfg, SystemKind::Pack, &k);
        assert!(report.violates(Rule::VprocShape), "{report}");
        assert!(report.violates(Rule::IdCapacity), "{report}");
    }

    #[test]
    fn multi_requestor_paper_topologies_are_clean() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let topo = pack_pair_topology(&cfg);
        let report = check_topology(&topo);
        assert!(report.is_clean(), "{report}");
        assert!(report.diagnostics.is_empty(), "{report}");
    }
}
