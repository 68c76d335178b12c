//! Run reports: the measurements every figure is built from.
//!
//! One [`RunReport`] per (kernel × system) point carries the cycles and
//! utilizations of Fig. 3, and the activity counts the energy model of
//! Fig. 4c charges.

use hwmodel::energy::Activity;
use simkit::fault::FaultReport;
use vproc::SystemKind;

/// The outcome of one kernel run on one system.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Kernel name (e.g. `"spmv"`).
    pub kernel: String,
    /// System kind the kernel ran on.
    pub kind: SystemKind,
    /// Bus width in bits.
    pub bus_bits: u32,
    /// Total cycles to completion (the paper's performance metric).
    pub cycles: u64,
    /// R-bus utilization: payload bytes over theoretical bytes
    /// (the paper's headline bus metric, including index traffic).
    pub r_util: f64,
    /// R-bus utilization with index-fetch beats counted as idle
    /// (Fig. 3a's "no indices" series).
    pub r_util_no_idx: f64,
    /// Fraction of cycles the R channel carried *any* beat.
    pub r_busy: f64,
    /// R beats whose payload differed from the issue-time snapshot
    /// (nonzero only for kernels with overlapping load/store streams).
    pub data_mismatches: u64,
    /// Cycles this requestor had an AR request ready but the channel was
    /// full — per-requestor bus back-pressure, the counter that makes
    /// shared-bus contention attributable (zero on IDEAL).
    pub ar_stall_cycles: u64,
    /// Cycles a data-ready W beat waited on a full channel (zero on
    /// IDEAL).
    pub w_stall_cycles: u64,
    /// Bank-conflict serialization events in the memory. In a
    /// multi-requestor run conflicts happen at the shared banks and are
    /// not attributable to one requestor; see
    /// [`SystemReport::bank_conflicts`] for the aggregate (this field is
    /// then zero).
    pub bank_conflicts: u64,
    /// Raw activity counts, for energy modeling.
    pub activity: Activity,
    /// Average power under the default [`hwmodel::energy::EnergyModel`],
    /// in mW.
    pub power_mw: f64,
    /// Total energy in µJ.
    pub energy_uj: f64,
    /// Faults injected by an installed [`simkit::fault::FaultSpec`]
    /// (bank and decode errors; zero when no plan is installed).
    pub injected_faults: u64,
    /// Transient-error retries the adapter spent recovering (zero when no
    /// plan is installed or nothing faulted).
    pub fault_retries: u64,
}

impl RunReport {
    /// Speedup of this run relative to a baseline run of the same kernel.
    ///
    /// # Panics
    ///
    /// Panics when comparing runs of different kernels.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        assert_eq!(
            self.kernel, baseline.kernel,
            "speedups compare the same kernel"
        );
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Energy-efficiency improvement relative to a baseline run.
    ///
    /// # Panics
    ///
    /// Panics when comparing runs of different kernels.
    pub fn efficiency_over(&self, baseline: &RunReport) -> f64 {
        assert_eq!(
            self.kernel, baseline.kernel,
            "efficiency compares the same kernel"
        );
        baseline.energy_uj / self.energy_uj
    }
}

/// Per-requestor completion status of a system run.
///
/// A faulting requestor is *isolated*: its abort is recorded here while
/// healthy requestors still finish and verify. [`crate::run_kernel`]
/// has nobody to isolate a fault from, so it returns
/// [`crate::RunError::Axi`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestorOutcome {
    /// The requestor completed and its functional result verified.
    Completed,
    /// The requestor aborted on an unrecoverable AXI fault; its
    /// [`RunReport`] entry still carries the cycles it ran.
    Faulted(FaultReport),
}

impl RequestorOutcome {
    /// `true` for [`RequestorOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RequestorOutcome::Completed)
    }

    /// The fault report, when this requestor aborted.
    pub fn fault(&self) -> Option<&FaultReport> {
        match self {
            RequestorOutcome::Completed => None,
            RequestorOutcome::Faulted(f) => Some(f),
        }
    }
}

/// Aggregate occupancy of one mux level of the hierarchical fabric,
/// summed across every channel's tree (level 0 is the leaf level; the
/// flat single-mux system reports exactly one level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOccupancy {
    /// Level index, 0 at the leaves.
    pub level: u32,
    /// Muxes instantiated at this level across all channels.
    pub muxes: u32,
    /// AR requests forwarded downstream through this level.
    pub ar_beats: u64,
    /// R beats routed back upstream through this level.
    pub r_beats: u64,
    /// AR grant waits at this level: per mux and manager, the cycles an
    /// AR request was visible but not granted (a lost arbitration round
    /// or a full downstream AR register), summed.
    pub ar_waits: u64,
}

/// The outcome of one system run: per-requestor reports plus the
/// aggregate view of the shared bus and memory.
///
/// Produced by [`crate::run_system`]. A single-requestor topology yields
/// exactly one entry in `requestors`, identical to what
/// [`crate::run_kernel`] returns.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Cycles until the whole system quiesced: every engine done, the mux
    /// drained, the adapter and banks idle.
    pub cycles: u64,
    /// One report per requestor, in topology (manager-port) order. Each
    /// entry's `cycles` is that requestor's own completion cycle, so the
    /// spread across entries measures arbitration fairness.
    pub requestors: Vec<RunReport>,
    /// Fraction of cycles the shared R channel carried any beat,
    /// aggregated over all requestors (0 when no requestor uses the bus).
    pub bus_r_busy: f64,
    /// Aggregate R-channel utilization: summed payload bytes of all
    /// bus-attached requestors over the bus's theoretical capacity.
    pub bus_r_util: f64,
    /// Bank-conflict serialization events in the shared memory.
    pub bank_conflicts: u64,
    /// Word accesses issued to the shared banks.
    pub word_accesses: u64,
    /// Faults injected by an installed [`simkit::fault::FaultSpec`],
    /// summed over every channel's adapter (zero without a plan).
    pub injected_faults: u64,
    /// Transient-error retries spent recovering, summed over every
    /// channel's adapter.
    pub fault_retries: u64,
    /// Per-requestor completion status, index-aligned with `requestors`.
    /// All `Completed` on fault-free runs.
    pub outcomes: Vec<RequestorOutcome>,
    /// Per-level fabric occupancy, leaf level first. Empty when no
    /// channel has a mux (one bus-attached requestor per channel, or
    /// all-IDEAL runs).
    pub levels: Vec<LevelOccupancy>,
}

impl SystemReport {
    /// The requestor that finished last.
    ///
    /// # Panics
    ///
    /// Panics on an empty report (never produced by `run_system`).
    pub fn slowest(&self) -> &RunReport {
        self.requestors
            .iter()
            .max_by_key(|r| r.cycles)
            .expect("at least one requestor")
    }

    /// The requestor that finished first.
    ///
    /// # Panics
    ///
    /// Panics on an empty report (never produced by `run_system`).
    pub fn fastest(&self) -> &RunReport {
        self.requestors
            .iter()
            .min_by_key(|r| r.cycles)
            .expect("at least one requestor")
    }

    /// `true` when every requestor completed (no isolated faults).
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(RequestorOutcome::is_completed)
    }

    /// The faulted requestors as `(index, report)` pairs.
    pub fn faulted(&self) -> impl Iterator<Item = (usize, &FaultReport)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.fault().map(|f| (i, f)))
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12} on {:>5} ({:>3}b): {:>9} cycles, R util {:>5.1}% ({:>5.1}% w/o idx), {:>5.0} mW",
            self.kernel,
            self.kind.to_string(),
            self.bus_bits,
            self.cycles,
            100.0 * self.r_util,
            100.0 * self.r_util_no_idx,
            self.power_mw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(kernel: &str, cycles: u64, energy: f64) -> RunReport {
        RunReport {
            kernel: kernel.into(),
            kind: SystemKind::Pack,
            bus_bits: 256,
            cycles,
            r_util: 0.5,
            r_util_no_idx: 0.5,
            r_busy: 0.5,
            data_mismatches: 0,
            ar_stall_cycles: 0,
            w_stall_cycles: 0,
            bank_conflicts: 0,
            activity: Activity {
                cycles,
                ..Activity::default()
            },
            power_mw: 200.0,
            energy_uj: energy,
            injected_faults: 0,
            fault_retries: 0,
        }
    }

    #[test]
    fn speedup_and_efficiency_ratios() {
        let base = report("k", 1000, 10.0);
        let pack = report("k", 250, 4.0);
        assert_eq!(pack.speedup_over(&base), 4.0);
        assert_eq!(pack.efficiency_over(&base), 2.5);
    }

    #[test]
    #[should_panic(expected = "same kernel")]
    fn cross_kernel_speedup_rejected() {
        let a = report("a", 10, 1.0);
        let b = report("b", 10, 1.0);
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn slowest_and_fastest_requestors() {
        let sys = SystemReport {
            cycles: 1200,
            requestors: vec![report("a", 1000, 1.0), report("b", 1200, 1.0)],
            bus_r_busy: 0.5,
            bus_r_util: 0.4,
            bank_conflicts: 3,
            word_accesses: 10,
            injected_faults: 0,
            fault_retries: 0,
            outcomes: vec![RequestorOutcome::Completed; 2],
            levels: vec![LevelOccupancy {
                level: 0,
                muxes: 1,
                ar_beats: 5,
                r_beats: 9,
                ar_waits: 2,
            }],
        };
        assert_eq!(sys.slowest().kernel, "b");
        assert!(sys.all_completed());
        assert_eq!(sys.faulted().count(), 0);
        assert_eq!(sys.fastest().kernel, "a");
    }

    #[test]
    fn display_is_informative() {
        let s = report("spmv", 1234, 1.0).to_string();
        assert!(s.contains("spmv"));
        assert!(s.contains("1234"));
    }
}
