//! The chaos engine (`figures chaos`): differential fuzzing **under
//! injected faults**.
//!
//! Every seed expands into the same kernel family the differential
//! engine checks, then replays it with a deterministic
//! [`FaultSpec::transient`] plan armed — transient bank errors, access
//! delay spikes, decode rejects and arbitration grant storms, all keyed
//! on per-site operation ordinals. The contract a seed must uphold:
//!
//! 1. **Recover or abort, never wedge.** Every faulted run either
//!    completes with a **bit-identical** final memory image (the adapter
//!    absorbed every transient inside its retry budget) or returns a
//!    typed error — [`RunError::Axi`] with a [`FaultReport`] naming the
//!    site, or [`RunError::Hang`] with component forensics. A panic,
//!    a silent wrong answer, or an untyped failure fails the seed.
//! 2. **Mode determinism.** The event-driven and lockstep schedulers
//!    must agree: recovered runs pass [`lockstep_divergence`] — equal
//!    digests and whole reports, fault counters included; aborted runs
//!    produce bit-equal [`FaultReport`]s. Hangs are compared by class
//!    only — the watchdog's firing cycle is the one quantity allowed to
//!    differ.
//! 3. **Isolation on the shared bus.** A 2-requestor topology under the
//!    same plan must report per-requestor [`RequestorOutcome`]s; both
//!    modes must classify every requestor identically, and a fully
//!    recovered topology must reproduce the fault-free composed store
//!    and pass [`lockstep_divergence`] on its whole system report.
//!
//! With no [`FaultSpec`] armed, none of this code runs — `figures all`
//! output stays byte-identical and the disabled hooks are covered by the
//! `fault_overhead` probe in `BENCH_hotpath.json`.

use simkit::fault::{FaultReport, FaultSpec};
use vproc::SystemKind;
use workloads::synth::{self, SplitMix64, SynthConfig};

use crate::differential::{composed_digest, lockstep_divergence, seed_system, RunProbe};
use crate::report::{RequestorOutcome, RunReport, SystemReport};
use crate::system::{
    run_kernel_probed, run_system_probed, Requestor, RunError, SchedMode, Topology,
};

/// Progress-watchdog window for every chaos run. Injected stalls (delay
/// spikes, grant storms) deliberately do **not** count as progress, so
/// the window must dwarf the longest plan-injected stall
/// (`bank_delay_len` + `grant_storm_len`, a few hundred cycles) while
/// still catching a genuinely wedged datapath quickly.
pub const CHAOS_WATCHDOG: u64 = 200_000;

/// What one shared-bus chaos run resolves to: the per-requestor
/// outcome vector (empty = the whole topology hung) plus, when fully
/// recovered, the verified report and the probe that watched it.
type SharedOutcome = (Vec<RequestorOutcome>, Option<(SystemReport, RunProbe)>);

/// How one faulted run ended, reduced to the classes the cross-mode
/// comparison cares about.
#[derive(Debug)]
enum ChaosClass {
    /// Completed with a verified, digest-checked result: its report and
    /// the probe that watched it.
    Recovered(RunReport, Box<RunProbe>),
    /// Typed abort: retry budget exhausted or unretryable fault.
    Aborted(FaultReport),
    /// Progress watchdog (or cycle ceiling) fired.
    Hung,
}

impl ChaosClass {
    fn name(&self) -> &'static str {
        match self {
            ChaosClass::Recovered(..) => "recovered",
            ChaosClass::Aborted(_) => "aborted",
            ChaosClass::Hung => "hung",
        }
    }
}

/// What one chaos seed's checks covered (for reporting).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The seed.
    pub seed: u64,
    /// One-line scenario description from the generator.
    pub summary: String,
    /// Individual assertions that held.
    pub checks: u64,
    /// Total simulated cycles across every run of this seed.
    pub cycles: u64,
    /// Faulted runs that recovered bit-identically.
    pub recovered: u64,
    /// Faulted runs that ended in a typed [`RunError::Axi`] abort.
    pub aborted: u64,
    /// Faulted runs that ended in a typed [`RunError::Hang`].
    pub hung: u64,
    /// Total faults injected across all recovered runs.
    pub injected_faults: u64,
    /// Total retry rounds spent across all recovered runs.
    pub fault_retries: u64,
}

/// Runs one chaos run and classifies the result.
///
/// `Err` means the run failed the chaos contract itself: an untyped
/// error, a protocol violation, or a recovered run whose memory image
/// diverges from `reference`.
fn classify_solo(
    sys: &crate::system::SystemConfig,
    kernel: &workloads::Kernel,
    reference: u64,
    cycles: &mut u64,
) -> Result<ChaosClass, String> {
    let mut probe = RunProbe::default();
    match run_kernel_probed(sys, kernel, &mut probe) {
        Ok(report) => {
            if let Some(v) = probe.violation_summary() {
                return Err(format!("protocol violations under fault: {v}"));
            }
            let digest = probe.storage_digest.expect("probed run digests storage");
            if digest != reference {
                return Err(format!(
                    "recovered run diverges from the fault-free image \
                     (digest {digest:#018x} vs {reference:#018x})"
                ));
            }
            *cycles += report.cycles;
            Ok(ChaosClass::Recovered(report, Box::new(probe)))
        }
        Err(RunError::Axi(r)) => Ok(ChaosClass::Aborted(r)),
        Err(RunError::Hang(r)) => {
            // A hang report must name a suspect — empty forensics would
            // make the report useless for triage.
            if r.components.is_empty() || r.suspect.is_empty() {
                return Err(format!("hang report carries no forensics: {r}"));
            }
            Ok(ChaosClass::Hung)
        }
        Err(e) => Err(format!("untyped failure under fault: {e}")),
    }
}

/// Runs *every* chaos check for one seed: per-kind solo runs and the
/// 2-requestor shared-bus topology, each under the seed's transient
/// fault plan in both scheduler modes.
///
/// # Errors
///
/// Returns a human-readable description of the first check that failed,
/// prefixed with enough context to localize it.
pub fn check_chaos_seed(seed: u64, cfg: &SynthConfig) -> Result<ChaosOutcome, String> {
    let mut checks = 0u64;
    let mut cycles = 0u64;
    let mut recovered = 0u64;
    let mut aborted = 0u64;
    let mut hung = 0u64;
    let mut injected = 0u64;
    let mut retries = 0u64;

    // IDEAL has no bus and no banked endpoint, so no fault site can
    // reach it — chaos covers the two bus-attached kinds.
    let kinds = [SystemKind::Base, SystemKind::Pack];
    let max_vl = seed_system(seed, SystemKind::Pack).kernel_params().max_vl;
    let built = synth::build_kinds(seed, cfg, max_vl, &kinds);
    let summary = built[0].summary.clone();
    // Every fourth seed runs with a nearly-exhausted retry budget so the
    // typed-abort path (budget exhaustion → [`RunError::Axi`]) is
    // exercised across the window, not only in unit tests.
    let mut plan = FaultSpec::transient(seed);
    if seed % 4 == 3 {
        plan.retry_budget = 1;
    }

    for (&kind, sk) in kinds.iter().zip(&built) {
        let mut sys = seed_system(seed, kind);
        sys.sched = SchedMode::Event;
        sys.watchdog = CHAOS_WATCHDOG;

        // Fault-free baseline: the digest every recovered run must hit.
        let mut base_probe = RunProbe::default();
        let base = run_kernel_probed(&sys, &sk.kernel, &mut base_probe)
            .map_err(|e| format!("seed {seed}: fault-free {kind} baseline failed: {e}"))?;
        let reference = base_probe.storage_digest.expect("probed baseline digests");
        if base.injected_faults != 0 || base.fault_retries != 0 {
            return Err(format!(
                "seed {seed}: fault-free {kind} baseline reports nonzero fault counters"
            ));
        }
        cycles += base.cycles;
        checks += 2;

        // The same kernel under the armed plan, in both modes.
        sys.fault = Some(plan);
        let ev_class = classify_solo(&sys, &sk.kernel, reference, &mut cycles)
            .map_err(|e| format!("seed {seed}: {kind} event-mode chaos run: {e}"))?;
        let mut lock_sys = sys;
        lock_sys.sched = SchedMode::Lockstep;
        let lk_class = classify_solo(&lock_sys, &sk.kernel, reference, &mut cycles)
            .map_err(|e| format!("seed {seed}: {kind} lockstep chaos run: {e}"))?;
        checks += 2;

        // Mode determinism: same class; recovered → bit-equal reports;
        // aborted → bit-equal fault reports.
        match (ev_class, lk_class) {
            (ChaosClass::Recovered(ev, ev_probe), ChaosClass::Recovered(lk, lk_probe)) => {
                if let Some(d) = lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe) {
                    return Err(format!(
                        "seed {seed}: {kind} chaos lockstep replay diverges: {d} \
                         (scenario: {summary})"
                    ));
                }
                recovered += 1;
                injected += ev.injected_faults;
                retries += ev.fault_retries;
            }
            (ChaosClass::Aborted(a), ChaosClass::Aborted(b)) => {
                if a != b {
                    return Err(format!(
                        "seed {seed}: {kind} fault report differs between modes: \
                         [{a}] vs [{b}]"
                    ));
                }
                aborted += 1;
            }
            (ChaosClass::Hung, ChaosClass::Hung) => hung += 1,
            (a, b) => {
                return Err(format!(
                    "seed {seed}: {kind} chaos outcome class differs between modes: \
                     {} (event) vs {} (lockstep)",
                    a.name(),
                    b.name()
                ));
            }
        }
        checks += 1;
    }

    // --- Shared-bus isolation: 2 requestors under the same plan ------
    let pack_sys = {
        let mut s = seed_system(seed, SystemKind::Pack);
        s.sched = SchedMode::Event;
        s.watchdog = CHAOS_WATCHDOG;
        s
    };
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5EED_0000_0001);
    let mut requestors = Vec::with_capacity(2);
    let mut refs: Vec<std::sync::Arc<[u8]>> = Vec::with_capacity(2);
    for i in 0..2 {
        let sub_seed = simkit::sweep::point_seed(seed, i);
        let kind = if rng.below(2) == 0 {
            SystemKind::Pack
        } else {
            SystemKind::Base
        };
        let sk = synth::build(sub_seed, cfg, &pack_sys.kernel_params_for(kind));
        refs.push(sk.final_mem.clone());
        requestors.push(Requestor::new(kind, sk.kernel));
    }
    let mut topo = Topology::builder(&pack_sys)
        .requestors(requestors)
        .build()
        .map_err(|e| format!("seed {seed}: generated chaos topology violates the DRC: {e}"))?;

    // Fault-free composed reference.
    let reference = composed_digest(&topo.window_bases(), &refs);

    topo.system.fault = Some(plan);
    let classify_shared = |topo: &Topology| -> Result<SharedOutcome, String> {
        let mut probe = RunProbe::default();
        match run_system_probed(topo, &mut probe) {
            Ok(report) => {
                if report.all_completed() {
                    if let Some(v) = probe.violation_summary() {
                        return Err(format!("protocol violations under fault: {v}"));
                    }
                    let digest = probe.storage_digest.expect("probed run digests");
                    if digest != reference {
                        return Err(format!(
                            "recovered topology diverges from the composed fault-free \
                             image (digest {digest:#018x} vs {reference:#018x})"
                        ));
                    }
                    Ok((report.outcomes.clone(), Some((report, probe))))
                } else {
                    Ok((report.outcomes, None))
                }
            }
            Err(RunError::Hang(_)) => Ok((Vec::new(), None)),
            Err(e) => Err(format!("untyped failure under fault: {e}")),
        }
    };
    let ev = classify_shared(&topo)
        .map_err(|e| format!("seed {seed}: 2-requestor event-mode chaos run: {e}"))?;
    let mut lock_topo = topo;
    lock_topo.system.sched = SchedMode::Lockstep;
    let lk = classify_shared(&lock_topo)
        .map_err(|e| format!("seed {seed}: 2-requestor lockstep chaos run: {e}"))?;
    checks += 2;
    // An empty outcome vector encodes "the whole topology hung" — the
    // one shared-run class compared by class alone.
    if ev.0 != lk.0 {
        return Err(format!(
            "seed {seed}: 2-requestor per-requestor outcomes differ between modes: \
             {:?} (event) vs {:?} (lockstep)",
            ev.0.iter().map(|o| o.is_completed()).collect::<Vec<_>>(),
            lk.0.iter().map(|o| o.is_completed()).collect::<Vec<_>>()
        ));
    }
    checks += 1;
    match (ev.1, lk.1) {
        (Some((er, ep)), Some((lr, lp))) => {
            if let Some(d) = lockstep_divergence(&er, &ep, &lr, &lp) {
                return Err(format!(
                    "seed {seed}: 2-requestor chaos lockstep replay diverges: {d}"
                ));
            }
            recovered += 1;
            cycles += er.cycles + lr.cycles;
            checks += 3;
        }
        (None, None) => {
            if ev.0.is_empty() {
                hung += 1;
            } else {
                aborted += 1;
            }
        }
        _ => unreachable!("outcome vectors compared equal above"),
    }

    Ok(ChaosOutcome {
        seed,
        summary,
        checks,
        cycles,
        recovered,
        aborted,
        hung,
        injected_faults: injected,
        fault_retries: retries,
    })
}

/// The one-line command that reproduces a failing chaos seed.
pub fn chaos_repro_command(seed: u64) -> String {
    format!("figures chaos --seed-start {seed} --count 1")
}

/// Replays the whole fuzz regression corpus
/// ([`crate::differential::SEED_CORPUS`]) under each case's transient
/// fault plan; returns the number of cases run.
///
/// # Errors
///
/// *Every* failing case as `(seed, message)`, each message carrying the
/// case's corpus note — shared by the tier-1 chaos-corpus test and
/// `figures chaos --corpus`.
pub fn replay_chaos_corpus() -> Result<usize, Vec<(u64, String)>> {
    let corpus = crate::differential::SEED_CORPUS;
    let failures: Vec<(u64, String)> = corpus
        .iter()
        .filter_map(|c| {
            check_chaos_seed(c.seed, &c.cfg)
                .err()
                .map(|e| (c.seed, format!("corpus case '{}': {e}", c.note)))
        })
        .collect();
    if failures.is_empty() {
        Ok(corpus.len())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_chaos_seeds_uphold_the_contract() {
        let cfg = SynthConfig::default();
        let mut total_faults = 0u64;
        for seed in 0..4 {
            let out = check_chaos_seed(seed, &cfg).expect("chaos seed must pass");
            assert!(out.checks >= 8, "seed {seed} ran too few checks");
            assert_eq!(
                out.recovered + out.aborted + out.hung,
                3,
                "seed {seed}: two solo runs and one topology must each classify"
            );
            total_faults += out.injected_faults;
        }
        assert!(
            total_faults > 0,
            "the transient plan injected nothing across four seeds — \
             chaos would be vacuous"
        );
    }

    #[test]
    fn chaos_repro_is_one_line() {
        assert_eq!(
            chaos_repro_command(17),
            "figures chaos --seed-start 17 --count 1"
        );
    }
}
