//! A stepped twin of the simulator's solo run loop, assembled from public
//! component calls only, that times every call it makes.
//!
//! The twin measures what each component costs per simulated cycle; it
//! does not time the simulator's own loop. It is only trusted when it
//! reproduces `run_kernel`'s `RunReport` (floats compared by bits) and the
//! final storage digest exactly, which [`same_report`] and the caller
//! check.

use std::time::Instant;

use axi_pack::{memory_digest, RunReport, SchedMode, SchedProbe, SystemConfig};
use axi_proto::{AxiChannels, BusConfig};
use banked_mem::{BankConfig, Storage};
use hwmodel::energy::{Activity, EnergyModel};
use pack_ctrl::{Adapter, CtrlConfig};
use simkit::sched::Wake;
use vproc::{Engine, EngineStats, SystemKind};
use workloads::Kernel;

/// Host nanoseconds spent in each component, accumulated over runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerClock {
    /// `Engine::tick`.
    pub vproc_ns: u64,
    /// `Adapter::tick` + `Adapter::end_cycle` (banks included).
    pub ctrl_ns: u64,
    /// `AxiChannels::end_cycle`.
    pub axi_ns: u64,
    /// Wake queries, gate checks and fast-forwards of idle spans.
    pub sched_ns: u64,
    /// Everything else in the loop: the completion test, the cycle
    /// counter and its limit.
    pub loop_ns: u64,
    /// Simulated cycles covered, skipped spans included.
    pub cycles: u64,
}

/// What one twin run produced besides its report.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwinExtras {
    /// Digest of the final backing store.
    pub digest: u64,
    /// Idle spans the twin fast-forwarded.
    pub sched: SchedProbe,
    /// Adapter R beats emitted (zero on IDEAL).
    pub r_beats: u64,
    /// Adapter word reads (zero on IDEAL).
    pub word_reads: u64,
    /// Adapter word writes (zero on IDEAL).
    pub word_writes: u64,
}

/// A running timestamp: each lap returns the ns since the previous one,
/// so consecutive laps partition the loop's time with no gaps.
struct Stopwatch(Instant);

impl Stopwatch {
    #[inline]
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// The controller configuration `SystemConfig` derives for a solo run:
/// its banks, word-granular latency-1 SRAM, no row-buffer model.
fn ctrl_config(cfg: &SystemConfig) -> CtrlConfig {
    let bank = BankConfig {
        banks: cfg.banks,
        word_bytes: 4,
        latency: 1,
        ports: 0,
        conflict_free: false,
        commit_writes: false,
        row_words: 0,
        row_miss_penalty: 0,
    };
    CtrlConfig::new(BusConfig::new(cfg.bus_bits), bank, cfg.queue_depth)
}

/// Runs `kernel` on `cfg.kind` with the solo loop's semantics, charging
/// every component call to `clock`.
///
/// # Errors
///
/// A failed functional verification, an error response or a run past
/// `max_cycles`.
pub fn run(
    cfg: &SystemConfig,
    kernel: &Kernel,
    clock: &mut LayerClock,
) -> Result<(RunReport, TwinExtras), String> {
    let kind = cfg.kind;
    let bus = BusConfig::new(cfg.bus_bits);
    let mut engine = Engine::new(cfg.vproc, kind, bus, kernel.program.clone());
    let event = cfg.sched == SchedMode::Event;
    let over = |cycles| format!("{}: twin ran past {cycles} cycles", kernel.name);
    let mut extras = TwinExtras::default();
    let mut cycles = 0u64;
    let mut sw;
    let (storage, adapter_stats) = if kind == SystemKind::Ideal {
        let mut storage = kernel.build_storage();
        sw = Stopwatch(Instant::now());
        loop {
            let finished = engine.done();
            clock.loop_ns += sw.lap();
            if finished {
                break;
            }
            if event {
                if let Wake::Sleep(n) = engine.next_wake() {
                    let span = n.min(cfg.max_cycles.saturating_sub(cycles));
                    if span > 0 {
                        engine.fast_forward(span);
                        cycles += span;
                        extras.sched.record_span(span);
                        clock.sched_ns += sw.lap();
                        continue;
                    }
                }
                clock.sched_ns += sw.lap();
            }
            engine.tick(None, &mut storage);
            clock.vproc_ns += sw.lap();
            cycles += 1;
            if cycles > cfg.max_cycles {
                return Err(over(cycles));
            }
        }
        (storage, None)
    } else {
        let mut adapter = Adapter::new(ctrl_config(cfg), kernel.build_storage());
        let mut ch = AxiChannels::new();
        sw = Stopwatch(Instant::now());
        loop {
            let finished = engine.done() && adapter.quiescent() && ch.is_empty();
            clock.loop_ns += sw.lap();
            if finished {
                break;
            }
            if event {
                if ch.is_empty() && adapter.quiescent() {
                    if let Wake::Sleep(n) = engine.next_wake() {
                        let span = n.min(cfg.max_cycles.saturating_sub(cycles));
                        if span > 0 {
                            engine.fast_forward(span);
                            adapter.skip_idle(span);
                            cycles += span;
                            extras.sched.record_span(span);
                            clock.sched_ns += sw.lap();
                            continue;
                        }
                    }
                }
                clock.sched_ns += sw.lap();
            }
            engine.tick(Some(&mut ch), adapter.storage_mut());
            clock.vproc_ns += sw.lap();
            adapter.tick(&mut ch);
            adapter.end_cycle();
            clock.ctrl_ns += sw.lap();
            ch.end_cycle();
            clock.axi_ns += sw.lap();
            cycles += 1;
            if cycles > cfg.max_cycles {
                return Err(over(cycles));
            }
        }
        if let Some(fault) = engine.first_fault() {
            return Err(format!("{}: error response {fault:?}", kernel.name));
        }
        extras.r_beats = adapter.r_beats();
        extras.word_reads = adapter.word_reads();
        extras.word_writes = adapter.word_writes();
        let stats = (
            adapter.word_reads() + adapter.word_writes(),
            adapter.bank_conflicts(),
            adapter.injected_faults(),
            adapter.fault_retries(),
        );
        (adapter.into_storage(), Some(stats))
    };
    clock.loop_ns += sw.lap();
    clock.cycles += cycles;
    extras.digest = memory_digest(storage.as_bytes());
    let stats = engine.stats();
    verify(kernel, stats, &storage)?;
    Ok((report(cfg, kernel, cycles, stats, adapter_stats), extras))
}

fn verify(kernel: &Kernel, stats: &EngineStats, storage: &Storage) -> Result<(), String> {
    kernel.verify(storage)?;
    if kernel.read_only_streams && stats.data_mismatches > 0 {
        return Err(format!(
            "{}: {} R-payload mismatches on read-only streams",
            kernel.name, stats.data_mismatches
        ));
    }
    Ok(())
}

/// The `RunReport` of a solo run, assembled from the engine statistics
/// and, on BASE/PACK, the adapter's `(word accesses, bank conflicts,
/// injected faults, retries)`.
fn report(
    cfg: &SystemConfig,
    kernel: &Kernel,
    cycles: u64,
    stats: &EngineStats,
    adapter: Option<(u64, u64, u64, u64)>,
) -> RunReport {
    let (word_accesses, bank_conflicts, injected_faults, fault_retries) =
        adapter.unwrap_or((stats.load_elems + stats.store_elems, 0, 0, 0));
    let activity = Activity {
        cycles,
        lane_elems: stats.lane_elems,
        r_payload_bytes: stats.r_util.payload_bytes(),
        w_payload_bytes: stats.w_payload,
        word_accesses,
        insns_issued: stats.issued,
        has_pack_adapter: cfg.kind == SystemKind::Pack,
    };
    let model = EnergyModel::default();
    RunReport {
        kernel: kernel.name.clone(),
        kind: cfg.kind,
        bus_bits: cfg.bus_bits,
        cycles,
        r_util: stats.r_util.payload_fraction(),
        r_util_no_idx: stats.r_util_data.payload_fraction(),
        r_busy: stats.r_util.busy_fraction(),
        data_mismatches: stats.data_mismatches,
        ar_stall_cycles: stats.ar_stall_cycles,
        w_stall_cycles: stats.w_stall_cycles,
        bank_conflicts,
        activity,
        power_mw: model.power_mw(&activity),
        energy_uj: model.energy_uj(&activity),
        injected_faults,
        fault_retries,
    }
}

/// `None` when two reports agree on every field, floats compared by
/// bits; otherwise the first field that differs.
pub fn same_report(a: &RunReport, b: &RunReport) -> Option<String> {
    let ints = [
        ("bus_bits", u64::from(a.bus_bits), u64::from(b.bus_bits)),
        ("cycles", a.cycles, b.cycles),
        ("data_mismatches", a.data_mismatches, b.data_mismatches),
        ("ar_stall_cycles", a.ar_stall_cycles, b.ar_stall_cycles),
        ("w_stall_cycles", a.w_stall_cycles, b.w_stall_cycles),
        ("bank_conflicts", a.bank_conflicts, b.bank_conflicts),
        ("injected_faults", a.injected_faults, b.injected_faults),
        ("fault_retries", a.fault_retries, b.fault_retries),
    ];
    let floats = [
        ("r_util", a.r_util, b.r_util),
        ("r_util_no_idx", a.r_util_no_idx, b.r_util_no_idx),
        ("r_busy", a.r_busy, b.r_busy),
        ("power_mw", a.power_mw, b.power_mw),
        ("energy_uj", a.energy_uj, b.energy_uj),
    ];
    if a.kernel != b.kernel || a.kind != b.kind {
        return Some(format!(
            "run of {}/{} vs {}/{}",
            a.kernel, a.kind, b.kernel, b.kind
        ));
    }
    if let Some((f, x, y)) = ints.iter().find(|(_, x, y)| x != y) {
        return Some(format!("{f}: {x} vs {y}"));
    }
    if let Some((f, x, y)) = floats.iter().find(|(_, x, y)| x.to_bits() != y.to_bits()) {
        return Some(format!("{f}: {x:e} vs {y:e}"));
    }
    (a.activity != b.activity).then(|| format!("activity: {:?} vs {:?}", a.activity, b.activity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi_pack::{run_kernel_probed, RunProbe};
    use workloads::{gemv, spmv, CsrMatrix, Dataflow};

    fn check(kind: SystemKind, build: impl Fn(&SystemConfig) -> Kernel) {
        let cfg = SystemConfig::paper(kind);
        let kernel = build(&cfg);
        let mut probe = RunProbe::default();
        let want = run_kernel_probed(&cfg, &kernel, &mut probe).expect("kernel verifies");
        let mut clock = LayerClock::default();
        let (got, extras) = run(&cfg, &kernel, &mut clock).expect("twin verifies");
        assert_eq!(same_report(&got, &want), None, "{kind}");
        assert_eq!(Some(extras.digest), probe.storage_digest, "{kind}");
        assert_eq!(extras.sched, probe.sched, "{kind}");
        assert_eq!(clock.cycles, want.cycles);
        assert!(clock.vproc_ns > 0);
        if kind != SystemKind::Ideal {
            assert!(clock.ctrl_ns > 0 && clock.axi_ns > 0 && extras.r_beats > 0);
        }
    }

    #[test]
    fn the_twin_reproduces_run_kernel_on_every_system() {
        for kind in [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal] {
            let flow = if kind == SystemKind::Base {
                Dataflow::RowWise
            } else {
                Dataflow::ColWise
            };
            check(kind, |cfg| gemv::build(16, 3, flow, &cfg.kernel_params()));
            check(kind, |cfg| {
                let m = CsrMatrix::random(8, 32, 6.0, 5);
                spmv::build(&m, 5, &cfg.kernel_params())
            });
        }
    }

    #[test]
    fn a_changed_field_is_named() {
        let cfg = SystemConfig::paper(SystemKind::Pack);
        let kernel = gemv::build(8, 1, Dataflow::ColWise, &cfg.kernel_params());
        let (a, _) = run(&cfg, &kernel, &mut LayerClock::default()).expect("verifies");
        let mut b = a.clone();
        b.energy_uj = f64::from_bits(b.energy_uj.to_bits() + 1);
        assert!(same_report(&a, &b)
            .expect("differs")
            .starts_with("energy_uj"));
    }
}
