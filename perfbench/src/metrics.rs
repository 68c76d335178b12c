//! Metric values, the statistics they are reduced with, and the result
//! line the benchmark prints.

use std::fmt::Write as _;

use vproc::SystemKind;

use crate::suite::{Outcome, SharedReference, Workload};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// `true` when `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n as f64).exp()
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// BASE, PACK and IDEAL runs of one kernel, each the kernel's only
/// requestor.
struct Triple<'a> {
    /// Kernel name.
    kernel: &'a str,
    /// BASE / PACK / IDEAL outcome.
    runs: [&'a Outcome; 3],
}

impl Triple<'_> {
    fn speedup(&self) -> f64 {
        self.runs[0].cycles as f64 / self.runs[1].cycles as f64
    }
    fn pack_util(&self) -> f64 {
        self.runs[1].bus_r_util
    }
    fn energy_gain(&self) -> f64 {
        self.runs[0].energy_uj() / self.runs[1].energy_uj()
    }
    fn pack_vs_ideal(&self) -> f64 {
        self.runs[2].cycles as f64 / self.runs[1].cycles as f64
    }
}

/// A headline number the paper quotes for an access class.
#[derive(Debug, Clone, Copy)]
enum Quoted {
    Speedup(f64),
    PackUtil(f64),
    EnergyGain(f64),
}

impl Quoted {
    fn rel_err(self, t: &Triple) -> f64 {
        let (sim, paper) = match self {
            Quoted::Speedup(p) => (t.speedup(), p),
            Quoted::PackUtil(p) => (t.pack_util(), p),
            Quoted::EnergyGain(p) => (t.energy_gain(), p),
        };
        (sim / paper - 1.0).abs()
    }
}

/// The paper's strided headline numbers: 5.4× speedup, 87 % PACK R-bus
/// utilization, 5.3× energy gain.
const STRIDED: [Quoted; 3] = [
    Quoted::Speedup(5.4),
    Quoted::PackUtil(0.87),
    Quoted::EnergyGain(5.3),
];
/// The paper's indirect headline numbers: 2.4×, 39 %, 2.1×.
const INDIRECT: [Quoted; 3] = [
    Quoted::Speedup(2.4),
    Quoted::PackUtil(0.39),
    Quoted::EnergyGain(2.1),
];

/// `(kernel, quoted number)` pairs `paper_err` averages over.
///
/// The solo workloads compare the kernel the paper quotes each number
/// for: ismt speedup and energy and gemv utilization (strided), spmv
/// speedup and sssp utilization and energy (indirect). The shared
/// workloads have no paper reference; they compare each of their kernels,
/// run solo at the workload's sizes, with all three numbers of its
/// access class.
fn quoted(wl: Workload) -> Vec<(&'static str, Quoted)> {
    match wl {
        Workload::StridedSolo => vec![
            ("ismt", STRIDED[0]),
            ("gemv", STRIDED[1]),
            ("ismt", STRIDED[2]),
        ],
        Workload::IndirectSolo => vec![
            ("spmv", INDIRECT[0]),
            ("sssp", INDIRECT[1]),
            ("sssp", INDIRECT[2]),
        ],
        Workload::Shared4 => STRIDED
            .iter()
            .map(|&q| ("gemv", q))
            .chain(INDIRECT.iter().map(|&q| ("spmv", q)))
            .collect(),
        Workload::Fabric128 => STRIDED.iter().map(|&q| ("gemv", q)).collect(),
    }
}

/// The simulated end-to-end metrics of a workload.
///
/// `runs` holds one pass's `(kernel, kind, outcome)` triples; shared
/// workloads also need their [`SharedReference`].
pub fn fidelity(
    wl: Workload,
    runs: &[(&str, SystemKind, Outcome)],
    reference: Option<&SharedReference>,
) -> Vec<Metric> {
    let find = |kernel: &str, kind: SystemKind| {
        runs.iter()
            .find(|(k, w, _)| *k == kernel && *w == kind)
            .map(|(_, _, o)| o)
            .expect("every kernel runs on every kind")
    };
    let mut ref_outcomes = Vec::new();
    let triples: Vec<Triple> = if wl.is_solo() {
        wl.solo_kernels()
            .iter()
            .map(|k| Triple {
                kernel: k,
                runs: [
                    find(k, SystemKind::Base),
                    find(k, SystemKind::Pack),
                    find(k, SystemKind::Ideal),
                ],
            })
            .collect()
    } else {
        let reference = reference.expect("shared workloads carry a reference");
        for (kernel, reps) in &reference.solos {
            let outs = reps.clone().map(Outcome::solo);
            ref_outcomes.push((*kernel, outs));
        }
        ref_outcomes
            .iter()
            .map(|(k, outs)| Triple {
                kernel: k,
                runs: [&outs[0], &outs[1], &outs[2]],
            })
            .collect()
    };
    let triple = |k: &str| {
        triples
            .iter()
            .find(|t| t.kernel == k)
            .expect("quoted kernels are in the workload")
    };
    let paper_err = mean(quoted(wl).into_iter().map(|(k, q)| q.rel_err(triple(k))));
    let (speedup, util, energy, vs_ideal) = if wl.is_solo() {
        (
            geomean(triples.iter().map(Triple::speedup)),
            mean(triples.iter().map(Triple::pack_util)),
            geomean(triples.iter().map(Triple::energy_gain)),
            geomean(triples.iter().map(Triple::pack_vs_ideal)),
        )
    } else {
        let (base, pack) = (
            find(wl.name(), SystemKind::Base),
            find(wl.name(), SystemKind::Pack),
        );
        let ideal = reference.expect("checked above").ideal_cycles;
        (
            base.cycles as f64 / pack.cycles as f64,
            pack.bus_r_util,
            base.energy_uj() / pack.energy_uj(),
            ideal as f64 / pack.cycles as f64,
        )
    };
    vec![
        metric("pack_speedup", "x", speedup),
        metric("pack_r_util", "fraction", util),
        metric("pack_energy_gain", "x", energy),
        metric("pack_vs_ideal", "x", vs_ideal),
        metric("paper_err", "fraction", paper_err),
    ]
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; a non-finite value already marks the run incorrect.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The process's peak resident set in MB (`VmHWM`), if the host reports
/// it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_alphabet() {
        assert!(valid_name("mux.l0.ar_beats.pack"));
        assert!(valid_name("sim_cycles_per_s"));
        assert!(!valid_name("pack speedup"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("x×"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[metric("wall_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
