//! Flat-era compatibility pins and the hierarchical-fabric oracle.
//!
//! Every run goes through the one fabric loop, and it must not move a
//! single bit of the flat-era results: 1-requestor runs and flat
//! shared-bus topologies (up to four bus-attached requestors, one
//! channel, no row buffer) are degenerate fabrics — one leaf and no mux
//! level, or one mux level on one channel. The golden numbers below were
//! captured from the dedicated solo and flat shared-bus loops that
//! preceded the fold; they pin that equivalence against future drift.
//!
//! The second half replays the fuzz regression corpus over an
//! 8-requestor arity-2 mux tree with two interleaved, row-buffered
//! memory channels — the deep-fabric path — and demands the event-driven
//! and lockstep schedulers agree on the whole report and the store
//! ([`lockstep_divergence`], the oracle every cross-mode check calls),
//! while event mode parks idle engines on their leaf ports, ends only
//! the register stages something touched and parks muxes whose tick
//! moved nothing. A 32-requestor, three-level tree carries write-heavy
//! scatter and spmv traffic through the same oracle, with and without
//! transient faults, and arity-3 and arity-8 trees over one or three
//! channels, with and without row buffers and with IDEAL requestors
//! mixed in, do too.

use axi_pack::differential::{lockstep_divergence, run_divergence, SEED_CORPUS};
use axi_pack::{
    run_kernel, run_kernel_probed, run_system, run_system_probed, FabricSpec, Requestor, RunProbe,
    SchedMode, SystemConfig, SystemReport, Topology,
};
use simkit::FaultSpec;
use vproc::SystemKind;
use workloads::{gemv, scatter, spmv, synth, CsrMatrix, Dataflow};

/// Checks the work counters of one topology run in both modes: lockstep
/// ends every one of the run's `bundles` register stages and ticks every
/// one of its `muxes` on every cycle, while event mode does strictly
/// less of both.
fn assert_work_skipped(
    ctx: &str,
    cycles: u64,
    (bundles, muxes): (u64, u64),
    ev: &RunProbe,
    lk: &RunProbe,
) {
    assert_eq!(lk.stage_visits, cycles * bundles, "{ctx}: lockstep stages");
    assert_eq!(lk.mux_ticks, cycles * muxes, "{ctx}: lockstep mux ticks");
    assert!(
        ev.stage_visits < lk.stage_visits,
        "{ctx}: event mode ended {} register stages, lockstep {}",
        ev.stage_visits,
        lk.stage_visits
    );
    assert!(
        ev.mux_ticks < lk.mux_ticks,
        "{ctx}: event mode ran {} mux ticks, lockstep {}",
        ev.mux_ticks,
        lk.mux_ticks
    );
}

#[test]
fn flat_reports_are_pinned_byte_for_byte() {
    // Captured from the pre-fabric tree (commit before the fabric
    // landed): pack/gemv solo and the 4x pack/gemv shared bus. Floats
    // are pinned by bit pattern — parity means *byte*-identical.
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let p = cfg.kernel_params();
    let solo = run_kernel(&cfg, &gemv::build(24, 2, Dataflow::ColWise, &p)).expect("verifies");
    assert_eq!(solo.cycles, 146);
    assert_eq!(solo.r_util.to_bits(), 0x3fdf8fc7e3f1f8fc);
    assert_eq!(solo.energy_uj.to_bits(), 0x3f9ec2ce4649906c);

    let reqs: Vec<Requestor> = (0..4)
        .map(|i| {
            Requestor::new(
                SystemKind::Pack,
                gemv::build(24, 3 + i as u64, Dataflow::ColWise, &p),
            )
        })
        .collect();
    let topo = Topology::builder(&cfg)
        .requestors(reqs)
        .build()
        .expect("DRC-clean");
    let r = run_system(&topo).expect("verifies");
    assert_eq!(r.cycles, 325);
    assert_eq!(r.bus_r_busy.to_bits(), 0x3fec5b5f4f8e9283);
    assert_eq!(r.word_accesses, 2400);
    let per_req: Vec<u64> = r.requestors.iter().map(|q| q.cycles).collect();
    assert_eq!(per_req, [313, 319, 322, 325]);
    // The flat shared bus is a one-level fabric: its single mux shows up
    // in the (new, additive) per-level occupancy without disturbing any
    // of the pinned legacy fields above.
    assert_eq!(r.levels.len(), 1, "flat topologies have exactly one level");
    assert_eq!(r.levels[0].muxes, 1);
    assert!(r.levels[0].r_beats > 0, "the mux carried every response");

    // Solo paths the pins above leave out, captured from the dedicated
    // solo loop: an IDEAL solo (no bus, no adapter), BASE and PACK spmv
    // (index words make the adapter's word count differ from the
    // elements moved, so these pin which counters a solo is charged)
    // and a probed PACK solo's skip counts and final store.
    let ideal = SystemConfig::paper(SystemKind::Ideal);
    let r = run_kernel(
        &ideal,
        &gemv::build(24, 2, Dataflow::ColWise, &ideal.kernel_params()),
    )
    .expect("verifies");
    assert_eq!(r.cycles, 141);
    assert_eq!(r.r_util.to_bits(), 0x3fe0572620ae4c41);
    assert_eq!(r.energy_uj.to_bits(), 0x3f9ccb11e1a9d3a3);
    assert_eq!(r.activity.word_accesses, 600);
    let m = CsrMatrix::random(32, 64, 6.0, 9);
    let pins = [
        (
            SystemKind::Base,
            1867,
            835,
            0,
            0x3fcf54e0535e3348,
            0x3fcee9e5e2478853,
        ),
        (
            SystemKind::Pack,
            1614,
            731,
            40,
            0x3fba032c181bea6e,
            0x3fcc55b6ebb9f7dd,
        ),
    ];
    for (kind, cycles, words, conflicts, r_busy, energy) in pins {
        let cfg = SystemConfig::paper(kind);
        let k = spmv::build(&m, 9, &cfg.kernel_params());
        let r = run_kernel(&cfg, &k).expect("verifies");
        assert_eq!(r.cycles, cycles, "{kind}");
        assert_eq!(r.activity.word_accesses, words, "{kind}");
        assert_eq!(r.bank_conflicts, conflicts, "{kind}");
        assert_eq!(r.r_busy.to_bits(), r_busy, "{kind}");
        assert_eq!(r.energy_uj.to_bits(), energy, "{kind}");
        if kind == SystemKind::Pack {
            let mut probe = RunProbe::default();
            let probed = run_kernel_probed(&cfg, &k, &mut probe).expect("verifies");
            assert_eq!(probed.energy_uj.to_bits(), energy);
            assert_eq!(probe.sched.skipped_cycles, 1056);
            assert_eq!(probe.sched.skip_spans, 96);
            assert_eq!(probe.storage_digest, Some(0x7561041fd8e6d994));
            assert_eq!(probe.monitors.len(), 1, "one monitor on the solo bus");
            assert_eq!(probe.violation_summary(), None);
        }
    }
}

#[test]
fn an_explicit_flat_fabric_is_the_default_fabric() {
    // Spelling out FabricSpec::flat() must build the same hardware as
    // leaving the fabric unset — not a near-identical variant.
    let cfg = SystemConfig::paper(SystemKind::Pack);
    let p = cfg.kernel_params();
    let build = |fabric: Option<FabricSpec>| {
        let mut b = Topology::builder(&cfg);
        for i in 0..2 {
            b = b.requestor(
                SystemKind::Pack,
                gemv::build(24, 3 + i, Dataflow::ColWise, &p),
            );
        }
        if let Some(f) = fabric {
            b = b.fabric(f);
        }
        run_system(&b.build().expect("DRC-clean")).expect("verifies")
    };
    assert_eq!(
        run_divergence(&build(None), &build(Some(FabricSpec::flat()))),
        None
    );
}

#[test]
fn corpus_replays_on_an_eight_requestor_tree_across_modes() {
    // Every corpus seed, fanned out to 8 requestors (its PACK and BASE
    // synth kernels alternating across disjoint windows) on an arity-2
    // tree over two row-buffered channels. Event and lockstep must agree
    // bit-for-bit on the shared store and the whole report — the oracle
    // the flat corpus replay applies, on a deep tree.
    let fabric = FabricSpec::tree(2).with_channels(2).with_row_buffer(8, 6);
    let mk_sys = |sched: SchedMode| {
        let mut sys = SystemConfig::with_bus(SystemKind::Pack, 128);
        sys.max_cycles = 40_000_000;
        sys.sched = sched;
        sys
    };
    let max_vl = mk_sys(SchedMode::Event).kernel_params().max_vl;
    let (mut corpus_r_beats, mut ev_parked) = (0u64, 0u64);
    for case in SEED_CORPUS {
        let kinds = [SystemKind::Pack, SystemKind::Base];
        let built = synth::build_kinds(case.seed, &case.cfg, max_vl, &kinds);
        let requestors: Vec<Requestor> = (0..8)
            .map(|i| {
                let (kind, sk) = (kinds[i % 2], &built[i % 2]);
                Requestor::new(kind, sk.kernel.clone())
            })
            .collect();
        let run = |sched: SchedMode| {
            let topo = Topology::builder(&mk_sys(sched))
                .requestors(requestors.clone())
                .fabric(fabric)
                .build()
                .unwrap_or_else(|e| panic!("seed {}: 8-way tree not DRC-clean: {e}", case.seed));
            let mut probe = RunProbe::default();
            let report = run_system_probed(&topo, &mut probe)
                .unwrap_or_else(|e| panic!("seed {} ({sched}): tree run failed: {e}", case.seed));
            (report, probe)
        };
        let (ev, ev_probe) = run(SchedMode::Event);
        let (lk, lk_probe) = run(SchedMode::Lockstep);
        let ctx = format!("seed {} 8-way tree", case.seed);
        assert_eq!(
            lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe),
            None,
            "{ctx}"
        );
        ev_parked += ev_probe.parked_ticks;
        // 4 bus-attached members per channel through arity-2 muxes is a
        // 2-level cascade; the report must expose both levels. (A
        // write-only corpus kernel legitimately moves zero AR/R beats,
        // so response traffic is asserted corpus-wide below.)
        assert_eq!(ev.levels.len(), 2, "{ctx}: tree depth in the report");
        let muxes: Vec<u32> = ev.levels.iter().map(|l| l.muxes).collect();
        assert_eq!(muxes, [4, 2], "{ctx}: mux population per level");
        corpus_r_beats += ev.levels.iter().map(|l| l.r_beats).sum::<u64>();
        // One probe monitor per channel watched the root links.
        assert_eq!(ev_probe.roots.len(), 2, "{ctx}: root monitors");
        // Per channel: 4 leaves plus 2 + 1 links, and 2 + 1 muxes.
        assert_work_skipped(&ctx, lk.cycles, (14, 6), &ev_probe, &lk_probe);
    }
    assert!(
        corpus_r_beats > 0,
        "no corpus seed moved a response beat through the trees — the \
         level counters are not wired"
    );
    // Everything above held while event mode parked engines on their
    // leaves; lockstep ticks every live engine every cycle.
    assert!(
        ev_parked > 0,
        "no corpus seed parked an engine on the trees"
    );
}

#[test]
fn write_heavy_traffic_agrees_across_modes_on_a_three_level_tree() {
    // 32 requestors on one channel through arity-4 muxes (32 → 8 → 2 → 1,
    // fabric-128's depth per channel), alternating PACK and BASE and
    // pairwise alternating scatter (indexed AW/W/B bursts) with spmv
    // (indexed reads), so write traffic crosses every level. The whole
    // report and the store must agree across modes, with and without
    // transient faults (grant storms included).
    for fault in [None, Some(FaultSpec::transient(23))] {
        let mk_sys = |sched: SchedMode| {
            let mut sys = SystemConfig::paper(SystemKind::Pack);
            sys.sched = sched;
            sys.fault = fault;
            sys
        };
        let requestors: Vec<Requestor> = (0..32u64)
            .map(|i| {
                let kind = [SystemKind::Pack, SystemKind::Base][i as usize % 2];
                let p = mk_sys(SchedMode::Event).kernel_params_for(kind);
                let kernel = if i / 2 % 2 == 0 {
                    scatter::build(96, 1.5, i, &p)
                } else {
                    spmv::build(&CsrMatrix::random(8, 64, 6.0, i), i, &p)
                };
                Requestor::new(kind, kernel)
            })
            .collect();
        let run = |sched: SchedMode| -> (SystemReport, RunProbe) {
            let topo = Topology::builder(&mk_sys(sched))
                .requestors(requestors.clone())
                .fabric(FabricSpec::tree(4))
                .build()
                .expect("32-way tree is DRC-clean");
            let mut probe = RunProbe::default();
            let report = run_system_probed(&topo, &mut probe).expect("tree run completes");
            (report, probe)
        };
        let (ev, ev_probe) = run(SchedMode::Event);
        let (lk, lk_probe) = run(SchedMode::Lockstep);
        let ctx = format!("32-way tree, faults {}", fault.is_some());
        let muxes: Vec<u32> = ev.levels.iter().map(|l| l.muxes).collect();
        assert_eq!(muxes, [8, 2, 1], "{ctx}: three mux levels");
        for (i, r) in ev
            .requestors
            .iter()
            .enumerate()
            .filter(|(i, _)| i / 2 % 2 == 0)
        {
            assert!(r.activity.w_payload_bytes > 0, "{ctx}: scatter {i} wrote");
        }
        if fault.is_some() {
            assert!(ev.injected_faults > 0, "{ctx}: the plan injected nothing");
        }
        assert_eq!(
            lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe),
            None,
            "{ctx}"
        );
        assert!(ev_probe.parked_ticks > 0, "{ctx}: nothing parked");
        assert_eq!(ev_probe.violation_summary(), None, "{ctx}: protocol");
        // 32 leaves plus 8 + 2 + 1 links, and 8 + 2 + 1 muxes.
        assert_work_skipped(&ctx, lk.cycles, (43, 11), &ev_probe, &lk_probe);
    }
}

/// Register-stage bundles and muxes of a fabric whose channels hold
/// `members` bus-attached requestors each, wired as arity-`arity` trees:
/// one leaf per member, and per level one mux (and its down-link) per
/// `arity` links of the level below, until one link remains.
fn tree_size(members: &[usize], arity: usize) -> (u64, u64) {
    let mut muxes = 0;
    for &m in members {
        let mut width = m;
        while width > 1 {
            width = width.div_ceil(arity);
            muxes += width;
        }
    }
    ((members.iter().sum::<usize>() + muxes) as u64, muxes as u64)
}

#[test]
fn odd_and_widest_arities_agree_across_modes() {
    // Arity 3 (a partial last mux) and 8 (the widest cascade level) over
    // one or three channels, with and without row buffers. Twelve
    // requestors: every fourth IDEAL, the rest PACK and BASE, alternating
    // scatter (indexed AW/W/B bursts) with spmv (indexed reads).
    let kinds = [
        SystemKind::Pack,
        SystemKind::Base,
        SystemKind::Pack,
        SystemKind::Ideal,
    ];
    let mk_sys = |sched: SchedMode| {
        let mut sys = SystemConfig::paper(SystemKind::Pack);
        sys.sched = sched;
        sys
    };
    let requestors: Vec<Requestor> = (0..12u64)
        .map(|i| {
            let kind = kinds[i as usize % 4];
            let p = mk_sys(SchedMode::Event).kernel_params_for(kind);
            let kernel = if i % 2 == 0 {
                scatter::build(96, 1.5, i, &p)
            } else {
                spmv::build(&CsrMatrix::random(16, 64, 6.0, i), i, &p)
            };
            Requestor::new(kind, kernel)
        })
        .collect();
    for arity in [3, 8] {
        for channels in [1, 3] {
            for row_buffer in [None, Some((8, 6))] {
                let mut fabric = FabricSpec::tree(arity).with_channels(channels);
                if let Some((words, penalty)) = row_buffer {
                    fabric = fabric.with_row_buffer(words, penalty);
                }
                let ctx =
                    format!("arity {arity}, {channels} channel(s), row buffer {row_buffer:?}");
                let run = |sched: SchedMode| -> (SystemReport, RunProbe) {
                    let topo = Topology::builder(&mk_sys(sched))
                        .requestors(requestors.clone())
                        .fabric(fabric)
                        .build()
                        .unwrap_or_else(|e| panic!("{ctx}: not DRC-clean: {e}"));
                    let mut probe = RunProbe::default();
                    let report = run_system_probed(&topo, &mut probe)
                        .unwrap_or_else(|e| panic!("{ctx} ({sched}): run failed: {e}"));
                    (report, probe)
                };
                let (ev, ev_probe) = run(SchedMode::Event);
                let (lk, lk_probe) = run(SchedMode::Lockstep);
                assert_eq!(
                    lockstep_divergence(&ev, &ev_probe, &lk, &lk_probe),
                    None,
                    "{ctx}"
                );
                assert_eq!(ev_probe.violation_summary(), None, "{ctx}: protocol");
                assert!(
                    ev.levels.iter().any(|l| l.ar_waits > 0),
                    "{ctx}: no AR grant wait anywhere"
                );
                let mut members = vec![0; channels];
                for i in (0..12).filter(|i| i % 4 != 3) {
                    members[i % channels] += 1;
                }
                assert_work_skipped(
                    &ctx,
                    lk.cycles,
                    tree_size(&members, arity),
                    &ev_probe,
                    &lk_probe,
                );
            }
        }
    }
}
