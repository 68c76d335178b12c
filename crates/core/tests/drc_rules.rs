//! Deliberately-broken fixtures for the fabric-era DRC rules.
//!
//! Each test assembles one topology that violates exactly one of the
//! rules the hierarchical fabric generalized (DRC-I1 per-level ID
//! budgets, DRC-I2 per-level fan-in) or introduced (DRC-F1 channel
//! ranges), and pins the typed diagnostic — rule, severity, and the
//! component path the report points at. The clean control at the end
//! pins the flip side: a deep tree that *fits* the ID budget must pass.
//!
//! Broken shapes that [`TopologyBuilder`] can express are driven through
//! `build()` so the test doubles as proof the builder returns typed
//! errors instead of panicking; shapes the builder cannot reach (it
//! never emits an out-of-range arity on its own) use raw `Topology`
//! literals against [`check_topology`].

use axi_pack::drc::{check_topology, Rule, Severity};
use axi_pack::{FabricSpec, Requestor, SystemConfig, Topology};
use vproc::SystemKind;
use workloads::ismt;

fn pack_cfg() -> SystemConfig {
    SystemConfig::paper(SystemKind::Pack)
}

/// `count` clones of one tiny PACK kernel — rule checks are static, so
/// identical kernels are as good as distinct ones and far cheaper.
fn clones(cfg: &SystemConfig, count: usize) -> Vec<Requestor> {
    let kernel = ismt::build(16, 1, &cfg.kernel_params());
    (0..count)
        .map(|_| Requestor::new(SystemKind::Pack, kernel.clone()))
        .collect()
}

#[test]
fn i2_an_arity_the_mux_cannot_cascade_is_a_typed_error() {
    // The builder refuses arity 1 up front; a hand-rolled literal must
    // hit the same wall inside the rule suite instead of panicking in
    // AxiMux::cascade at run time.
    let cfg = pack_cfg();
    let topo = Topology {
        system: cfg,
        requestors: clones(&cfg, 2),
        fabric: FabricSpec {
            arity: 1,
            ..FabricSpec::flat()
        },
    };
    let report = check_topology(&topo);
    let diag = report
        .errors()
        .find(|d| d.rule == Rule::ManagerOverflow)
        .expect("arity 1 must violate DRC-I2");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.path, "fabric");
    assert_eq!(diag.rule.id(), "DRC-I2");
}

#[test]
fn i1_a_tree_deeper_than_the_id_field_is_a_typed_error() {
    // 520 requestors through arity-8 muxes need 4 levels; 4 levels x 3
    // prefix bits on top of the 6-bit local IDs is 18 bits — two more
    // than the 16-bit AXI ID field carries. The builder must hand back
    // the budget arithmetic as a DRC-I1 report, not truncate IDs.
    let cfg = pack_cfg();
    let err = Topology::builder(&cfg)
        .requestors(clones(&cfg, 520))
        .fabric(FabricSpec::tree(8))
        .build()
        .expect_err("an over-deep tree must be rejected");
    let report = err.drc_report().expect("typed DRC report, not a string");
    let diag = report
        .errors()
        .find(|d| d.rule == Rule::IdCapacity)
        .expect("ID budget overflow must violate DRC-I1");
    assert_eq!(diag.path, "fabric");
    assert!(
        diag.message.contains("18") && diag.message.contains("16"),
        "the diagnostic must show the budget arithmetic: {}",
        diag.message
    );
}

#[test]
fn f1_zero_memory_channels_is_a_typed_error() {
    let cfg = pack_cfg();
    let err = Topology::builder(&cfg)
        .requestors(clones(&cfg, 2))
        .fabric(FabricSpec::flat().with_channels(0))
        .build()
        .expect_err("a fabric with no channels routes nothing");
    let report = err.drc_report().expect("typed DRC report");
    assert!(
        report.errors().any(|d| d.rule == Rule::FabricRange),
        "zero channels must violate DRC-F1: {report}"
    );
}

#[test]
fn f1_a_channel_no_window_interleaves_onto_is_a_typed_error() {
    // Two windows striped across three channels leave channel 2 with no
    // address range at all — dead hardware the DRC must name.
    let cfg = pack_cfg();
    let err = Topology::builder(&cfg)
        .requestors(clones(&cfg, 2))
        .fabric(FabricSpec::flat().with_channels(3))
        .build()
        .expect_err("a dead channel must be rejected");
    let report = err.drc_report().expect("typed DRC report");
    let diag = report
        .errors()
        .find(|d| d.rule == Rule::FabricRange)
        .expect("dead channel must violate DRC-F1");
    assert_eq!(diag.path, "fabric.ch2", "the report names the dead channel");
}

#[test]
fn a_deep_tree_inside_the_id_budget_is_clean() {
    // The control for I1/I2: 32 requestors through arity-4 muxes (3
    // levels x 2 bits + 6 local bits = 12 <= 16) on two interleaved
    // channels passes the whole suite with zero diagnostics.
    let cfg = pack_cfg();
    let topo = Topology::builder(&cfg)
        .requestors(clones(&cfg, 32))
        .fabric(FabricSpec::tree(4).with_channels(2))
        .build()
        .expect("a within-budget tree is DRC-clean");
    let report = check_topology(&topo);
    assert!(
        report.is_clean() && report.diagnostics.is_empty(),
        "{report}"
    );
}
