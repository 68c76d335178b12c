//! Pins the event scheduler's idle-span fast-forward behavior.
//!
//! Two anchors: a sparse kernel (one long scalar stall) must skip exactly
//! the predicted number of cycles in one span, and a fully-saturated
//! kernel (back-to-back loads keeping the bus busy) must skip nothing —
//! event mode degenerates to exact lockstep when there is no idle time.
//! Every run is replayed in lockstep and must match it exactly.

use axi_pack::differential::lockstep_divergence;
use axi_pack::{run_kernel_probed, RunProbe, RunReport, SchedMode, SystemConfig};
use std::sync::Arc;
use vproc::{Program, ProgramBuilder, SystemKind};
use workloads::Kernel;

fn kernel(name: &str, program: Program) -> Kernel {
    Kernel {
        name: name.into(),
        image: Vec::new(),
        storage_size: 0x1000,
        program: Arc::new(program),
        expected: Vec::new(),
        read_only_streams: true,
        useful_bytes: 0,
    }
}

/// Runs `k` on `kind` in both scheduler modes, demands that the lockstep
/// replay match the event-mode run exactly, and returns the event run.
fn run(kind: SystemKind, k: &Kernel) -> (RunReport, RunProbe) {
    let [(ev, ev_probe), (lk, lk_probe)] = [SchedMode::Event, SchedMode::Lockstep].map(|sched| {
        let mut sys = SystemConfig::with_bus(kind, 256);
        sys.sched = sched;
        let mut probe = RunProbe::default();
        let report = run_kernel_probed(&sys, k, &mut probe).expect("kernel runs clean");
        (report, probe)
    });
    assert_eq!(
        lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe),
        None,
        "{kind} on {}",
        k.name
    );
    (ev, ev_probe)
}

#[test]
fn sparse_kernel_skips_the_predicted_span() {
    // scalar(101): one issue tick, then a 100-cycle stall the scheduler
    // can prove idle — a single span of exactly 100 skipped cycles, on
    // both the AXI and the IDEAL run loop.
    let k = kernel("sparse", ProgramBuilder::new().scalar(101).build());
    for kind in [SystemKind::Pack, SystemKind::Base, SystemKind::Ideal] {
        let (report, ev) = run(kind, &k);
        assert_eq!(report.cycles, 101, "{kind}: issue tick + 100 stall cycles");
        assert_eq!(ev.sched.skipped_cycles, 100, "{kind}: skipped cycles");
        assert_eq!(ev.sched.skip_spans, 1, "{kind}: one contiguous span");
    }
}

#[test]
fn interleaved_stalls_skip_every_gap() {
    // Alternating stalls and loads: every stall is skippable, every load
    // phase is not. The skip count is the sum of the provable gaps and
    // the report still matches lockstep exactly.
    let k = kernel(
        "gaps",
        ProgramBuilder::new()
            .scalar(64)
            .set_vl(8)
            .vle(1, 0x100)
            .scalar(64)
            .vle(2, 0x200)
            .scalar(64)
            .build(),
    );
    for kind in [SystemKind::Pack, SystemKind::Ideal] {
        let (_, ev) = run(kind, &k);
        assert!(
            ev.sched.skip_spans >= 3,
            "{kind}: each scalar gap must fast-forward (got {} spans)",
            ev.sched.skip_spans
        );
        assert!(
            ev.sched.skipped_cycles >= 150,
            "{kind}: most of the 192 stall cycles are provably idle (got {})",
            ev.sched.skipped_cycles
        );
    }
}

#[test]
fn saturated_kernel_never_skips() {
    // Back-to-back unit-stride loads keep request/response traffic in
    // flight on every cycle: the scheduler must find zero idle spans and
    // the run must be cycle-for-cycle identical to lockstep.
    let mut b = ProgramBuilder::new().set_vl(64);
    for v in 1..=8 {
        b = b.vle(v, 0x100 * v as u64);
    }
    let k = kernel("saturated", b.build());
    for kind in [SystemKind::Pack, SystemKind::Base, SystemKind::Ideal] {
        let (_, ev) = run(kind, &k);
        assert_eq!(
            ev.sched.skip_spans, 0,
            "{kind}: a saturated pipeline has no idle span to skip"
        );
        assert_eq!(ev.sched.skipped_cycles, 0, "{kind}");
    }
}
