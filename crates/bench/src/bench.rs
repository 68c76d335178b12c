//! The tracked perf baseline: `figures bench`.
//!
//! Times every figure family's render at a given [`Scale`], measures
//! simulator throughput (simulated cycles per host second) on a
//! representative kernel, and emits the results as machine-readable JSON
//! (`BENCH_hotpath.json`); the history of past baselines lives in
//! `CHANGES.md`, not in the file.
//!
//! CI runs `figures bench --smoke --check`, which re-measures and fails
//! if the wall-clock regresses more than [`MAX_REGRESSION`] against the
//! committed baseline — so future PRs regress against numbers, not
//! vibes. The dense probe times a full PACK run, the granule every
//! figure sweep repeats.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use axi_pack::{run_kernel, SchedMode, SystemConfig};
use vproc::{ProgramBuilder, SystemKind};
use workloads::{ismt, Kernel};

use crate::{figures, Scale};

/// Allowed wall-clock regression before `--check` fails (fraction of the
/// committed baseline: 0.25 = 25 %).
pub const MAX_REGRESSION: f64 = 0.25;

/// Minimum event-over-lockstep speedup the sparse probe must show for
/// `--check` to pass. A same-host ratio, so it holds across machines;
/// the measured value sits well above this floor.
pub const SPARSE_SPEEDUP_FLOOR: f64 = 3.0;

/// Maximum relative slowdown the *armed-but-silent* fault hooks may
/// cost over the no-spec hot path for `--check` to pass. Same-host
/// ratio measured back-to-back, so it is not widened by the wall-clock
/// tolerance: the fault-free figure path is the product, and its hooks
/// must stay within this budget.
pub const FAULT_OVERHEAD_LIMIT: f64 = 0.05;

/// One bench run: per-family wall-clocks plus aggregate metrics.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `(family name, seconds)` per figure family, in registry order.
    pub families: Vec<(&'static str, f64)>,
    /// Sum of the family wall-clocks (the "smoke suite" time).
    pub total_s: f64,
    /// Simulated cycles per host second on the dense throughput probe
    /// (PACK ismt, event scheduler).
    pub cycles_per_sec: f64,
    /// The dense probe forced into lockstep mode — the floor the event
    /// scheduler must never fall below.
    pub cycles_per_sec_lockstep: f64,
    /// Simulated cycles per host second on the sparse/stall-heavy probe
    /// (a scalar-bound PACK row loop, event scheduler) — the shape
    /// idle-span fast-forwarding targets.
    pub sparse_cycles_per_sec: f64,
    /// The sparse probe in lockstep mode.
    pub sparse_cycles_per_sec_lockstep: f64,
    /// Fully-checked differential fuzz scenarios per host second
    /// ([`crate::fuzz::fuzz_scenarios_per_sec`]), so generator/runner
    /// throughput is tracked alongside the figure families.
    ///
    /// History note: this fell ~250 → ~177 between PR 5 and PR 7. That
    /// was not decay in the hot path — PR 7's scheduler oracle (check 5
    /// of the differential engine) replays every solo run of every seed
    /// *and* the 2-requestor topology a second time in lockstep mode,
    /// roughly doubling the simulated work each scenario buys. The
    /// baseline was re-based at the deeper coverage and the field is
    /// now gated by `figures bench --check` so any further drop is a
    /// loud failure, not a silent one.
    pub fuzz_scenarios_per_sec: f64,
    /// Relative cost of arming a silent fault plan plus the progress
    /// watchdog on the dense probe ([`fault_overhead_probe`]): 0.01 =
    /// the hooks cost 1 % of the fault-free throughput. Clamped at 0.
    pub fault_overhead: f64,
    /// Wall-clock of one 128-requestor PACK gemv run on the hierarchical
    /// fabric ([`scale_128_probe`]) — the deepest topology the fabric
    /// builds, timing mux cascades, channel interleaving and the
    /// row-buffer model together.
    pub scale_128_requestors_s: f64,
}

impl BenchResult {
    /// Event-over-lockstep simulator throughput on the sparse probe —
    /// the headline gain of the readiness/wakeup scheduler.
    pub fn sparse_event_speedup(&self) -> f64 {
        self.sparse_cycles_per_sec / self.sparse_cycles_per_sec_lockstep
    }
}

/// Renders every figure family once at `scale`, timing each, then runs
/// the throughput probe (a PACK ismt kernel at the scale's dense dim).
pub fn run(scale: Scale) -> BenchResult {
    let mut families = Vec::with_capacity(figures::FIGURES.len());
    let mut total = 0.0;
    for fig in figures::FIGURES {
        let t0 = Instant::now();
        let tables = (fig.render)(scale);
        let dt = t0.elapsed().as_secs_f64();
        assert!(!tables.is_empty(), "{} rendered no tables", fig.name);
        families.push((fig.name, dt));
        total += dt;
    }
    BenchResult {
        families,
        total_s: total,
        cycles_per_sec: cycles_per_sec_probe(scale, SchedMode::Event),
        cycles_per_sec_lockstep: cycles_per_sec_probe(scale, SchedMode::Lockstep),
        sparse_cycles_per_sec: sparse_cycles_per_sec_probe(scale, SchedMode::Event),
        sparse_cycles_per_sec_lockstep: sparse_cycles_per_sec_probe(scale, SchedMode::Lockstep),
        fuzz_scenarios_per_sec: crate::fuzz::fuzz_scenarios_per_sec(),
        fault_overhead: fault_overhead_probe(scale),
        scale_128_requestors_s: scale_128_probe(scale),
    }
}

/// Times one 128-requestor PACK point end to end (topology build +
/// fabric run): the figure-family loop above amortizes the whole scale
/// sweep into one number, while this probe isolates the single deepest
/// point — 128 leaves through a 3-level arity-4 mux cascade onto four
/// row-buffered channels.
pub fn scale_128_probe(scale: Scale) -> f64 {
    use axi_pack::{run_system, Requestor, Topology};
    use workloads::{gemv, Dataflow};
    let mut cfg = SystemConfig::with_bus(SystemKind::Pack, 256);
    cfg.max_cycles = 40_000_000;
    let params = cfg.kernel_params();
    let t0 = Instant::now();
    let requestors = (0..128).map(|slot| {
        Requestor::new(
            SystemKind::Pack,
            gemv::build(
                scale.scale_dim(),
                crate::SEED + slot as u64,
                Dataflow::ColWise,
                &params,
            ),
        )
    });
    let topo = Topology::builder(&cfg)
        .requestors(requestors)
        .fabric(crate::scale::fabric_for(128))
        .build()
        .expect("128-requestor probe is DRC-clean");
    run_system(&topo).expect("128-requestor probe verifies");
    t0.elapsed().as_secs_f64()
}

/// Measures what the robustness layer costs when it is *not* in use:
/// the dense probe runs fault-free, then again with a silent fault plan
/// (every site schedule disabled, hooks armed) plus an unreachable
/// progress-watchdog window. The two runs are simulated-cycle
/// identical, so the throughput ratio isolates the per-access fault
/// branches and the per-cycle progress-signature read. `--check` fails
/// if the hooks cost more than [`FAULT_OVERHEAD_LIMIT`].
///
/// The hooks cost ~2%, close enough to host scheduling noise that one
/// paired sample flaps: the probe interleaves three plain/hooked pairs
/// and keeps the smallest ratio — noise only ever inflates a sample,
/// so the minimum is the honest estimate of the structural cost.
pub fn fault_overhead_probe(scale: Scale) -> f64 {
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let kernel = ismt::build(scale.dense_dim(), 1, &cfg.kernel_params());
    let mut armed = cfg;
    armed.fault = Some(simkit::fault::FaultSpec::silent(0));
    armed.watchdog = u64::MAX;
    (0..3)
        .map(|_| {
            let plain = probe(&cfg, &kernel);
            let hooked = probe(&armed, &kernel);
            plain / hooked - 1.0
        })
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
}

/// Times `kernel` on `cfg`: one warm-up, then a few repetitions, in
/// simulated cycles per host second.
fn probe(cfg: &SystemConfig, kernel: &Kernel) -> f64 {
    let warm = run_kernel(cfg, kernel).expect("probe kernel verifies");
    // Smoke-scale kernels finish in microseconds; repeat until enough
    // host time has passed that timer granularity and scheduling noise
    // wash out of the ratio.
    let t0 = Instant::now();
    let mut reps = 0u64;
    while reps < 3 || t0.elapsed().as_secs_f64() < 0.05 {
        run_kernel(cfg, kernel).expect("probe kernel verifies");
        reps += 1;
    }
    (warm.cycles * reps) as f64 / t0.elapsed().as_secs_f64()
}

/// Measures simulated cycles per host second on one representative dense
/// full-system run (PACK ismt — exercises engine, converters, and banks;
/// the bus is busy nearly every cycle, so `sched` barely matters here).
pub fn cycles_per_sec_probe(scale: Scale, sched: SchedMode) -> f64 {
    let mut cfg = SystemConfig::paper(SystemKind::Pack);
    cfg.sched = sched;
    probe(
        &cfg,
        &ismt::build(scale.dense_dim(), 1, &cfg.kernel_params()),
    )
}

/// Measures simulated cycles per host second on the sparse probe: a
/// scalar-bound row loop (the extreme short-stream regime of the paper's
/// Fig. 3d/3e, where scalar row bookkeeping dwarfs each row's vector
/// work). Every row pays a long scalar stall followed by one short load,
/// so nearly all cycles are provably idle — the shape the event
/// scheduler fast-forwards.
pub fn sparse_cycles_per_sec_probe(scale: Scale, sched: SchedMode) -> f64 {
    let mut cfg = SystemConfig::paper(SystemKind::Pack);
    cfg.sched = sched;
    let rows = scale.dense_dim();
    let mut b = ProgramBuilder::new().set_vl(16);
    for r in 0..rows {
        b = b
            .scalar(256)
            .vle(1 + (r % 8) as u8, 0x100 * (1 + (r % 16) as u64));
    }
    let kernel = Kernel {
        name: "sparse-row-loop".into(),
        image: Vec::new(),
        storage_size: 0x10000,
        program: Arc::new(b.build()),
        expected: Vec::new(),
        read_only_streams: true,
        useful_bytes: 0,
    };
    probe(&cfg, &kernel)
}

/// Serializes a measurement as the `BENCH_hotpath.json` document.
pub fn to_json(scale: Scale, result: &BenchResult) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "{{").unwrap();
    writeln!(w, "  \"scale\": \"{scale:?}\",").unwrap();
    writeln!(w, "  \"families\": {{").unwrap();
    for (i, (name, secs)) in result.families.iter().enumerate() {
        let comma = if i + 1 == result.families.len() {
            ""
        } else {
            ","
        };
        writeln!(w, "    \"{name}\": {secs:.4}{comma}").unwrap();
    }
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"total_s\": {:.4},", result.total_s).unwrap();
    writeln!(w, "  \"cycles_per_sec\": {:.0},", result.cycles_per_sec).unwrap();
    writeln!(
        w,
        "  \"cycles_per_sec_lockstep\": {:.0},",
        result.cycles_per_sec_lockstep
    )
    .unwrap();
    writeln!(
        w,
        "  \"sparse_cycles_per_sec\": {:.0},",
        result.sparse_cycles_per_sec
    )
    .unwrap();
    writeln!(
        w,
        "  \"sparse_cycles_per_sec_lockstep\": {:.0},",
        result.sparse_cycles_per_sec_lockstep
    )
    .unwrap();
    writeln!(
        w,
        "  \"sparse_event_speedup\": {:.2},",
        result.sparse_event_speedup()
    )
    .unwrap();
    writeln!(
        w,
        "  \"fuzz_scenarios_per_sec\": {:.1},",
        result.fuzz_scenarios_per_sec
    )
    .unwrap();
    writeln!(w, "  \"fault_overhead\": {:.4},", result.fault_overhead).unwrap();
    writeln!(
        w,
        "  \"scale_128_requestors_s\": {:.4}",
        result.scale_128_requestors_s
    )
    .unwrap();
    writeln!(w, "}}").unwrap();
    out
}

/// Extracts a top-level string field (`"key": "value"`) from the
/// document — used to refuse comparing measurements taken at different
/// [`Scale`]s.
pub fn parse_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a top-level numeric field (`"key": 1.23`) from the document.
/// Hand-rolled on purpose: the workspace vendors no JSON parser, and the
/// file format is our own.
pub fn parse_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_totals() {
        let r = BenchResult {
            families: vec![("fig3a", 0.07), ("fig5b", 0.92)],
            total_s: 0.99,
            cycles_per_sec: 123456.0,
            cycles_per_sec_lockstep: 120000.0,
            sparse_cycles_per_sec: 400000.0,
            sparse_cycles_per_sec_lockstep: 100000.0,
            fuzz_scenarios_per_sec: 42.5,
            fault_overhead: 0.012,
            scale_128_requestors_s: 0.31,
        };
        let json = to_json(Scale::Smoke, &r);
        assert_eq!(parse_number(&json, "total_s"), Some(0.99));
        assert_eq!(parse_number(&json, "fuzz_scenarios_per_sec"), Some(42.5));
        assert_eq!(parse_number(&json, "fault_overhead"), Some(0.012));
        assert_eq!(parse_number(&json, "scale_128_requestors_s"), Some(0.31));
        // The exact key must not be confused with its prefixed variants.
        assert_eq!(parse_number(&json, "cycles_per_sec"), Some(123456.0));
        assert_eq!(
            parse_number(&json, "cycles_per_sec_lockstep"),
            Some(120000.0)
        );
        assert_eq!(parse_number(&json, "sparse_cycles_per_sec"), Some(400000.0));
        assert_eq!(parse_number(&json, "sparse_event_speedup"), Some(4.0));
    }

    #[test]
    fn missing_fields_parse_to_none() {
        assert_eq!(parse_number("{}", "total_s"), None);
        assert_eq!(parse_string("{}", "scale"), None);
    }

    #[test]
    fn scale_field_roundtrips() {
        let r = BenchResult {
            families: vec![("fig3a", 0.07)],
            total_s: 0.07,
            cycles_per_sec: 1.0,
            cycles_per_sec_lockstep: 1.0,
            sparse_cycles_per_sec: 1.0,
            sparse_cycles_per_sec_lockstep: 1.0,
            fuzz_scenarios_per_sec: 1.0,
            fault_overhead: 0.0,
            scale_128_requestors_s: 1.0,
        };
        let json = to_json(Scale::Smoke, &r);
        assert_eq!(parse_string(&json, "scale").as_deref(), Some("Smoke"));
    }
}
