//! Tier-1 event-vs-lockstep oracle: replays the full fuzz corpus in both
//! scheduler modes and demands bit-identical results.
//!
//! The event-driven scheduler ([`axi_pack::SchedMode::Event`]) may
//! fast-forward across provably idle spans, but nothing observable is
//! allowed to change: the final backing store and the whole report must
//! match a lockstep run exactly. This suite replays every [`SEED_CORPUS`]
//! entry solo on all three system kinds and as a 2-requestor shared-bus
//! topology, once per mode, and compares everything through
//! [`lockstep_divergence`].

use axi_pack::differential::{lockstep_divergence, SEED_CORPUS};
use axi_pack::{
    run_kernel_probed, run_system_probed, Requestor, RunProbe, SchedMode, SystemConfig, Topology,
};
use vproc::SystemKind;
use workloads::synth;

const KINDS: [SystemKind; 3] = [SystemKind::Base, SystemKind::Pack, SystemKind::Ideal];

fn system(kind: SystemKind, sched: SchedMode) -> SystemConfig {
    let mut sys = SystemConfig::with_bus(kind, 128);
    sys.max_cycles = 20_000_000;
    sys.sched = sched;
    sys
}

#[test]
fn corpus_solo_runs_agree_across_modes() {
    let max_vl = system(SystemKind::Pack, SchedMode::Event)
        .kernel_params()
        .max_vl;
    let mut skipped = 0u64;
    for case in SEED_CORPUS {
        let built = synth::build_kinds(case.seed, &case.cfg, max_vl, &KINDS);
        for (kind, sk) in KINDS.iter().zip(built) {
            let ctx = format!("seed {} on {kind}", case.seed);
            let mut ev_probe = RunProbe::default();
            let ev = run_kernel_probed(&system(*kind, SchedMode::Event), &sk.kernel, &mut ev_probe)
                .unwrap_or_else(|e| panic!("{ctx}: event run failed: {e}"));
            let mut lk_probe = RunProbe::default();
            let lk = run_kernel_probed(
                &system(*kind, SchedMode::Lockstep),
                &sk.kernel,
                &mut lk_probe,
            )
            .unwrap_or_else(|e| panic!("{ctx}: lockstep run failed: {e}"));
            assert_eq!(
                lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe),
                None,
                "{ctx}"
            );
            skipped += ev_probe.sched.skipped_cycles;
        }
    }
    assert!(
        skipped > 0,
        "event mode never fast-forwarded across the whole corpus — the scheduler is not engaged"
    );
}

#[test]
fn corpus_topologies_agree_across_modes() {
    let max_vl = system(SystemKind::Pack, SchedMode::Event)
        .kernel_params()
        .max_vl;
    for case in SEED_CORPUS {
        let kinds = [SystemKind::Pack, SystemKind::Base];
        let built = synth::build_kinds(case.seed, &case.cfg, max_vl, &kinds);
        let requestors: Vec<Requestor> = kinds
            .iter()
            .zip(&built)
            .map(|(&kind, sk)| Requestor::new(kind, sk.kernel.clone()))
            .collect();
        let run = |sched: SchedMode| {
            let topo = Topology::builder(&system(SystemKind::Pack, sched))
                .requestors(requestors.clone())
                .build()
                .unwrap_or_else(|e| panic!("seed {}: topology not DRC-clean: {e}", case.seed));
            let mut probe = RunProbe::default();
            let report = run_system_probed(&topo, &mut probe)
                .unwrap_or_else(|e| panic!("seed {} ({sched}): topology failed: {e}", case.seed));
            (report, probe)
        };
        let (ev, ev_probe) = run(SchedMode::Event);
        let (lk, lk_probe) = run(SchedMode::Lockstep);
        assert_eq!(
            lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe),
            None,
            "seed {} shared-bus",
            case.seed
        );
    }
}
