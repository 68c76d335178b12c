//! Report fingerprints pinned at the default seed.
//!
//! A performance or simplicity change must leave every simulated
//! statistic identical, so at [`crate::suite::DEFAULT_SEED`] every run's
//! fingerprint is compared with the line pinned in `pins/<workload>.txt`;
//! a drift counts as a failed run. The default-seed cycle counts are also
//! cross-checked against the paper-scale tables of `EXPERIMENTS.md`.

use axi_pack::{memory_digest, RunReport};
use vproc::SystemKind;

use crate::suite::{Outcome, Workload};

/// One run's fingerprint: simulated cycles, bank conflicts, word
/// accesses, the bits of the summed energy, and a digest over every
/// per-requestor counter of the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// The job label, `<kernel>/<kind>` or `<workload>/<kind>`.
    pub label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Bank-conflict events.
    pub bank_conflicts: u64,
    /// Word accesses to the banks.
    pub word_accesses: u64,
    /// `f64::to_bits` of the energy summed over requestors.
    pub energy_bits: u64,
    /// Digest over every requestor's counters and float bits.
    pub requestors: u64,
}

fn requestor_words(r: &RunReport) -> [u64; 18] {
    let a = &r.activity;
    [
        r.cycles,
        r.r_util.to_bits(),
        r.r_util_no_idx.to_bits(),
        r.r_busy.to_bits(),
        r.data_mismatches,
        r.ar_stall_cycles,
        r.w_stall_cycles,
        r.bank_conflicts,
        r.power_mw.to_bits(),
        r.energy_uj.to_bits(),
        r.injected_faults,
        r.fault_retries,
        a.lane_elems,
        a.r_payload_bytes,
        a.w_payload_bytes,
        a.word_accesses,
        a.insns_issued,
        u64::from(r.bus_bits),
    ]
}

impl Fingerprint {
    /// The fingerprint of one run.
    pub fn of(label: &str, out: &Outcome) -> Self {
        let bytes: Vec<u8> = out
            .reqs
            .iter()
            .flat_map(requestor_words)
            .flat_map(u64::to_le_bytes)
            .collect();
        Fingerprint {
            label: label.to_string(),
            cycles: out.cycles,
            bank_conflicts: out.bank_conflicts,
            word_accesses: out.word_accesses,
            energy_bits: out.energy_uj().to_bits(),
            requestors: memory_digest(&bytes),
        }
    }

    /// The pin-file line.
    pub fn line(&self) -> String {
        format!(
            "{} cycles={} bank_conflicts={} word_accesses={} energy_bits={:016x} requestors={:016x}",
            self.label,
            self.cycles,
            self.bank_conflicts,
            self.word_accesses,
            self.energy_bits,
            self.requestors
        )
    }

    /// Parses a pin-file line.
    pub fn parse(line: &str) -> Option<Self> {
        let mut parts = line.split_whitespace();
        let label = parts.next()?.to_string();
        let mut field = |key: &str, radix: u32| {
            let (k, v) = parts.next()?.split_once('=')?;
            (k == key).then(|| u64::from_str_radix(v, radix).ok())?
        };
        let fp = Fingerprint {
            label,
            cycles: field("cycles", 10)?,
            bank_conflicts: field("bank_conflicts", 10)?,
            word_accesses: field("word_accesses", 10)?,
            energy_bits: field("energy_bits", 16)?,
            requestors: field("requestors", 16)?,
        };
        parts.next().is_none().then_some(fp)
    }
}

/// The pinned fingerprints of a workload, compiled in.
pub fn pinned_text(wl: Workload) -> &'static str {
    match wl {
        Workload::StridedSolo => include_str!("../pins/strided-solo.txt"),
        Workload::IndirectSolo => include_str!("../pins/indirect-solo.txt"),
        Workload::Shared4 => include_str!("../pins/shared-4.txt"),
        Workload::Fabric128 => include_str!("../pins/fabric-128.txt"),
    }
}

/// The pin file as fingerprints; comment and blank lines are skipped.
///
/// # Errors
///
/// A line that does not parse.
pub fn parse_pins(text: &str) -> Result<Vec<Fingerprint>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| Fingerprint::parse(l).ok_or_else(|| format!("bad pin line: {l}")))
        .collect()
}

/// Renders a pin file.
pub fn render_pins(wl: Workload, fps: &[Fingerprint]) -> String {
    let mut out = format!(
        "# {} report fingerprints at seed {:#x}; regenerate with --write-pins.\n",
        wl.name(),
        crate::suite::DEFAULT_SEED
    );
    for fp in fps {
        out.push_str(&fp.line());
        out.push('\n');
    }
    out
}

/// Paper-scale cycles of `EXPERIMENTS.md` at the default seed: Fig. 3a
/// (BASE, PACK, IDEAL per kernel) and the contention table's
/// 4-requestor strided+indirect rows (BASE, PACK).
const FIG3A_CYCLES: [(&str, [u64; 3]); 6] = [
    ("ismt", [76690, 19888, 17109]),
    ("gemv", [31488, 8251, 8246]),
    ("trmv", [24832, 4490, 4480]),
    ("spmv", [75766, 30624, 26975]),
    ("prank", [577010, 224147, 208455]),
    ("sssp", [881547, 350205, 332021]),
];
const CONTENTION_4_MIXED: [u64; 2] = [16975, 8297];

/// The cycles `EXPERIMENTS.md` records for a job, where it records any.
pub fn documented_cycles(wl: Workload, kernel: &str, kind: SystemKind) -> Option<u64> {
    let idx = match kind {
        SystemKind::Base => 0,
        SystemKind::Pack => 1,
        SystemKind::Ideal => 2,
    };
    match wl {
        Workload::StridedSolo | Workload::IndirectSolo => FIG3A_CYCLES
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|(_, c)| c[idx]),
        Workload::Shared4 => CONTENTION_4_MIXED.get(idx).copied(),
        Workload::Fabric128 => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fingerprint_round_trips_through_its_line() {
        let fp = Fingerprint {
            label: "spmv/pack".into(),
            cycles: 30624,
            bank_conflicts: 21_000,
            word_accesses: 99,
            energy_bits: 42.5f64.to_bits(),
            requestors: u64::MAX - 3,
        };
        assert_eq!(Fingerprint::parse(&fp.line()), Some(fp.clone()));
        let file = render_pins(Workload::IndirectSolo, std::slice::from_ref(&fp));
        assert_eq!(parse_pins(&file), Ok(vec![fp]));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Fingerprint::parse("x cycles=1").is_none());
        assert!(Fingerprint::parse(
            "x cycles=1 bank_conflicts=2 word_accesses=3 energy_bits=4 requestors=5 extra"
        )
        .is_none());
        assert!(parse_pins("# comment\n\nnot a pin\n").is_err());
    }

    #[test]
    fn every_workload_has_parseable_pins() {
        for wl in Workload::ALL {
            let pins = parse_pins(pinned_text(wl)).expect("pins parse");
            assert!(!pins.is_empty(), "{} has no pins", wl.name());
        }
    }

    #[test]
    fn pinned_cycles_match_the_documented_tables() {
        for wl in Workload::ALL {
            for fp in parse_pins(pinned_text(wl)).expect("pins parse") {
                let (kernel, kind) = fp.label.split_once('/').expect("label has a kind");
                let kind = match kind {
                    "base" => SystemKind::Base,
                    "pack" => SystemKind::Pack,
                    _ => SystemKind::Ideal,
                };
                if let Some(doc) = documented_cycles(wl, kernel, kind) {
                    assert_eq!(fp.cycles, doc, "{}", fp.label);
                }
            }
        }
    }
}
