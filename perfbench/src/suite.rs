//! The four workloads: how each one generates its kernels from the data
//! seed, assembles its topologies, and runs them through the simulator's
//! public entry points.

use axi_pack::{
    run_kernel, run_kernel_probed, run_system, run_system_probed, FabricSpec, LevelOccupancy,
    Requestor, RunProbe, RunReport, SystemConfig, SystemReport, Topology,
};
use vproc::SystemKind;
use workloads::{gemv, ismt, prank, scatter, spmv, sssp, trmv, CsrMatrix, Dataflow, Kernel};

use crate::trace::Tracer;

/// The figures' data seed (`axi_pack_bench::SEED`); the pinned
/// fingerprints and the `EXPERIMENTS.md` cross-checks hold at this seed.
pub const DEFAULT_SEED: u64 = 0xDA7E_2023;

/// The three evaluation systems of the paper, in table order.
pub const KINDS: [SystemKind; 3] = [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 3a strided half: ismt, gemv, trmv at dim 256, one requestor.
    StridedSolo,
    /// Fig. 3a indirect half (spmv, prank, sssp) plus the scatter kernel.
    IndirectSolo,
    /// Four requestors on the flat shared bus, gemv and spmv alternating.
    Shared4,
    /// 128 gemv requestors on an arity-4 mux tree over 4 row-buffered
    /// channels.
    Fabric128,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::StridedSolo,
        Workload::IndirectSolo,
        Workload::Shared4,
        Workload::Fabric128,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StridedSolo => "strided-solo",
            Workload::IndirectSolo => "indirect-solo",
            Workload::Shared4 => "shared-4",
            Workload::Fabric128 => "fabric-128",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the one-requestor workloads, which run every kernel on
    /// BASE, PACK and IDEAL through `run_kernel`.
    pub fn is_solo(self) -> bool {
        matches!(self, Workload::StridedSolo | Workload::IndirectSolo)
    }

    /// The kernels of a solo workload, in report order.
    pub fn solo_kernels(self) -> &'static [&'static str] {
        match self {
            Workload::StridedSolo => &["ismt", "gemv", "trmv"],
            Workload::IndirectSolo => &["spmv", "prank", "sssp", "scatter"],
            Workload::Shared4 | Workload::Fabric128 => &[],
        }
    }

    /// The kinds one pass runs: all three for solos, all-BASE and
    /// all-PACK for the shared topologies.
    pub fn kinds(self) -> &'static [SystemKind] {
        if self.is_solo() {
            &KINDS
        } else {
            &[SystemKind::Base, SystemKind::Pack]
        }
    }
}

/// One simulation of a pass: a run-ready topology and its label.
#[derive(Debug, Clone)]
pub struct Job {
    /// `"<kernel>/<kind>"` for solo runs, `"<workload>/<kind>"` otherwise.
    pub label: String,
    /// The kernel name (solo) or the workload name (shared topologies).
    pub kernel: &'static str,
    /// The kind every requestor of the topology runs.
    pub kind: SystemKind,
    /// The topology, DRC-checked by `TopologyBuilder::build`.
    pub topo: Topology,
}

/// What one run measured, whichever entry point produced it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Simulated cycles until the system quiesced.
    pub cycles: u64,
    /// Per-requestor reports, in topology order.
    pub reqs: Vec<RunReport>,
    /// Bank-conflict events in the memory.
    pub bank_conflicts: u64,
    /// Word accesses issued to the banks.
    pub word_accesses: u64,
    /// R-channel payload utilization of the shared bus.
    pub bus_r_util: f64,
    /// Fraction of cycles the R channel carried a beat (per channel root,
    /// summed, on a fabric).
    pub bus_r_busy: f64,
    /// Per-level mux occupancy, leaf level first; empty without a mux.
    pub levels: Vec<LevelOccupancy>,
}

impl Outcome {
    /// The outcome of a `run_kernel` call.
    pub fn solo(r: RunReport) -> Self {
        Outcome {
            cycles: r.cycles,
            bank_conflicts: r.bank_conflicts,
            word_accesses: r.activity.word_accesses,
            bus_r_util: r.r_util,
            bus_r_busy: r.r_busy,
            levels: Vec::new(),
            reqs: vec![r],
        }
    }

    /// The outcome of a `run_system` call.
    pub fn system(r: SystemReport) -> Self {
        Outcome {
            cycles: r.cycles,
            bank_conflicts: r.bank_conflicts,
            word_accesses: r.word_accesses,
            bus_r_util: r.bus_r_util,
            bus_r_busy: r.bus_r_busy,
            levels: r.levels,
            reqs: r.requestors,
        }
    }

    /// Energy of every requestor, summed in topology order.
    pub fn energy_uj(&self) -> f64 {
        self.reqs.iter().map(|r| r.energy_uj).sum()
    }
}

/// The system configuration every workload runs on: the paper's 256-bit
/// bus, 17 banks and queue depth 4.
pub fn system_config(wl: Workload, kind: SystemKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper(kind);
    if wl == Workload::Fabric128 {
        cfg.max_cycles = 40_000_000;
    }
    cfg
}

fn dataflow(kind: SystemKind) -> Dataflow {
    match kind {
        SystemKind::Base => Dataflow::RowWise,
        _ => Dataflow::ColWise,
    }
}

/// The operands the indirect kernels share across the three systems.
struct Operands {
    spmv: CsrMatrix,
    prank: CsrMatrix,
    sssp: CsrMatrix,
}

impl Operands {
    /// Fig. 3a's paper-scale operands: spmv 128 rows × ≈390 nnz, 512-node
    /// graphs of degree ≈390.
    fn paper(seed: u64) -> Self {
        let (rows, nnz, nodes, degree) = (128, 390.0, 512, 390.0);
        let cols = (rows.max((nnz * 2.5) as usize)).next_power_of_two();
        Operands {
            spmv: CsrMatrix::random(rows, cols, nnz, seed),
            prank: CsrMatrix::random(nodes, nodes, degree, seed),
            sssp: CsrMatrix::random_graph(nodes, degree, seed),
        }
    }
}

/// Builds one Fig. 3a-style solo kernel for `kind`.
fn solo_kernel(name: &str, kind: SystemKind, seed: u64, ops: Option<&Operands>) -> Kernel {
    let p = SystemConfig::paper(kind).kernel_params();
    let ops = || ops.expect("indirect kernels need their operands");
    match name {
        "ismt" => ismt::build(256, seed, &p),
        "gemv" => gemv::build(256, seed, dataflow(kind), &p),
        "trmv" => trmv::build(256, seed, dataflow(kind), &p),
        "spmv" => spmv::build(&ops().spmv, seed, &p),
        "prank" => prank::build(&ops().prank, 2, &p),
        "sssp" => sssp::build(&ops().sssp, 0, 3, &p),
        "scatter" => scatter::build(65_536, 2.0, seed, &p),
        other => unreachable!("no solo kernel {other}"),
    }
}

/// The kernel requestor `slot` of a shared workload runs: the contention
/// family's paper-scale strided+indirect mix (gemv dim 128, spmv 64 rows
/// × 48 nnz) for shared-4, gemv dim 24 for fabric-128. Seeds vary per
/// slot so requestors stream different data.
pub fn slot_kernel(wl: Workload, slot: usize, kind: SystemKind, seed: u64) -> Kernel {
    let p = system_config(wl, kind).kernel_params();
    let seed = seed + slot as u64;
    match wl {
        Workload::Shared4 if slot % 2 == 1 => {
            let (rows, nnz) = (64, 48.0);
            let cols = (rows.max((nnz * 2.5) as usize)).next_power_of_two();
            spmv::build(&CsrMatrix::random(rows, cols, nnz, seed), seed, &p)
        }
        Workload::Shared4 => gemv::build(128, seed, dataflow(kind), &p),
        Workload::Fabric128 => gemv::build(24, seed, dataflow(kind), &p),
        _ => unreachable!("solo workloads have no slots"),
    }
}

/// Requestor count and fabric of a shared workload.
pub fn shared_shape(wl: Workload) -> (usize, FabricSpec) {
    match wl {
        Workload::Shared4 => (4, FabricSpec::flat()),
        Workload::Fabric128 => (
            128,
            FabricSpec::tree(4).with_channels(4).with_row_buffer(8, 6),
        ),
        _ => unreachable!("solo workloads have no fabric"),
    }
}

fn build_topology(
    cfg: &SystemConfig,
    reqs: Vec<Requestor>,
    fabric: FabricSpec,
    tr: &mut Tracer,
    label: &str,
) -> Result<Topology, String> {
    tr.span("system.build", label, |_| {
        Topology::builder(cfg)
            .requestors(reqs)
            .fabric(fabric)
            .build()
            .map_err(|e| format!("{label}: topology rejected: {e}"))
    })
}

/// Set-up of one pass: generates every kernel from `seed` and assembles
/// and DRC-checks every topology, before cycle 0.
pub fn setup(wl: Workload, seed: u64, tr: &mut Tracer) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    if wl.is_solo() {
        let ops = (wl == Workload::IndirectSolo)
            .then(|| tr.span("workloads", "operands", |_| Operands::paper(seed)));
        for &name in wl.solo_kernels() {
            for &kind in wl.kinds() {
                let label = format!("{name}/{kind}");
                let kernel = tr.span("workloads", &label, |_| {
                    solo_kernel(name, kind, seed, ops.as_ref())
                });
                let cfg = system_config(wl, kind);
                let reqs = vec![Requestor::new(kind, kernel)];
                let topo = build_topology(&cfg, reqs, FabricSpec::flat(), tr, &label)?;
                jobs.push(Job {
                    label,
                    kernel: name,
                    kind,
                    topo,
                });
            }
        }
    } else {
        let (n, fabric) = shared_shape(wl);
        for &kind in wl.kinds() {
            let label = format!("{}/{kind}", wl.name());
            let reqs = tr.span("workloads", &label, |_| {
                (0..n)
                    .map(|slot| Requestor::new(kind, slot_kernel(wl, slot, kind, seed)))
                    .collect()
            });
            let cfg = system_config(wl, kind);
            let topo = build_topology(&cfg, reqs, fabric, tr, &label)?;
            jobs.push(Job {
                label,
                kernel: wl.name(),
                kind,
                topo,
            });
        }
    }
    Ok(jobs)
}

/// Runs one job untraced: `run_kernel` for a solo topology (the Fig. 3
/// entry point), `run_system` otherwise.
pub fn run(job: &Job) -> Result<Outcome, String> {
    let res = if job.topo.requestors.len() == 1 {
        run_kernel(&job.topo.system, &job.topo.requestors[0].kernel).map(Outcome::solo)
    } else {
        run_system(&job.topo).map(Outcome::system)
    };
    res.map_err(|e| format!("{}: {e}", job.label))
}

/// [`run`] through the probed entry points: protocol monitors on every
/// bus, the scheduler's skip counts and the final storage digest.
pub fn run_probed(job: &Job, probe: &mut RunProbe) -> Result<Outcome, String> {
    let res = if job.topo.requestors.len() == 1 {
        run_kernel_probed(&job.topo.system, &job.topo.requestors[0].kernel, probe)
            .map(Outcome::solo)
    } else {
        run_system_probed(&job.topo, probe).map(Outcome::system)
    };
    res.map_err(|e| format!("{}: {e}", job.label))
}

/// The reference runs behind the fidelity metrics of a shared workload,
/// made once per process outside the timed passes.
pub struct SharedReference {
    /// The all-IDEAL topology's cycles (IDEAL requestors own per-lane
    /// ports and never contend).
    pub ideal_cycles: u64,
    /// Each distinct slot kernel run solo on BASE, PACK and IDEAL at the
    /// workload's sizes: `(kernel, [base, pack, ideal])`.
    pub solos: Vec<(&'static str, [RunReport; 3])>,
}

/// The distinct slot kernels of a shared workload: slot 0 (gemv) and, on
/// shared-4, slot 1 (spmv).
pub fn distinct_slots(wl: Workload) -> &'static [(usize, &'static str)] {
    match wl {
        Workload::Shared4 => &[(0, "gemv"), (1, "spmv")],
        Workload::Fabric128 => &[(0, "gemv")],
        _ => &[],
    }
}

/// Runs the reference set of a shared workload.
pub fn shared_reference(wl: Workload, seed: u64) -> Result<SharedReference, String> {
    let (n, fabric) = shared_shape(wl);
    let kind = SystemKind::Ideal;
    let cfg = system_config(wl, kind);
    let reqs = (0..n)
        .map(|slot| Requestor::new(kind, slot_kernel(wl, slot, kind, seed)))
        .collect();
    let topo = build_topology(&cfg, reqs, fabric, &mut Tracer::off(), "ideal reference")?;
    let ideal_cycles = run_system(&topo)
        .map_err(|e| format!("{}/ideal: {e}", wl.name()))?
        .cycles;
    let mut solos = Vec::new();
    for &(slot, name) in distinct_slots(wl) {
        let run = |kind| {
            let kernel = slot_kernel(wl, slot, kind, seed);
            run_kernel(&system_config(wl, kind), &kernel)
                .map_err(|e| format!("{name}/{kind} solo reference: {e}"))
        };
        solos.push((
            name,
            [
                run(SystemKind::Base)?,
                run(SystemKind::Pack)?,
                run(SystemKind::Ideal)?,
            ],
        ));
    }
    Ok(SharedReference {
        ideal_cycles,
        solos,
    })
}
