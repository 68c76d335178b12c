//! `axi-pack` — end-to-end simulation of the paper's three evaluation
//! systems.
//!
//! This is the crate a user of the reproduction drives. It assembles
//!
//! * a [`vproc::Engine`] (CVA6 + Ara model) configured as BASE, PACK or
//!   IDEAL,
//! * for BASE/PACK: an AXI(-Pack) bus ([`axi_proto::AxiChannels`]) and the
//!   banked memory controller ([`pack_ctrl::Adapter`]) over a 17-bank SRAM,
//! * for IDEAL: a per-lane-port idealized memory,
//!
//! runs a [`workloads::Kernel`] to completion, verifies the functional
//! result against the kernel's scalar reference, and reports cycles, bus
//! utilization and energy.
//!
//! Multi-requestor systems (paper §II-A/§V) are first-class: a
//! [`Topology`] — assembled panic-free through [`TopologyBuilder`] —
//! places N requestors, each with its own kernel, [`vproc::SystemKind`]
//! and private address-space window, on a hierarchical fabric
//! ([`FabricSpec`]): cascaded ID-prefix mux trees funnel up to 128
//! requestors onto address-interleaved memory channels, and
//! [`run_system`] measures them together (contention, arbitration
//! fairness, shared-bank conflicts, per-level fabric occupancy).
//!
//! ```
//! use axi_pack::{SystemConfig, run_kernel};
//! use vproc::SystemKind;
//! use workloads::{ismt, KernelParams};
//!
//! let cfg = SystemConfig::paper(SystemKind::Pack);
//! let kernel = ismt::build(16, 7, &cfg.kernel_params());
//! let report = run_kernel(&cfg, &kernel).expect("kernel verifies");
//! assert!(report.cycles > 0);
//! ```

// Public-API documentation is part of this crate's contract: every
// public item must explain what paper structure it models.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod differential;
pub mod drc;
pub mod prelude;
pub mod report;
pub mod requestor;
pub mod system;

pub use chaos::{check_chaos_seed, ChaosOutcome};
pub use differential::{memory_digest, RunProbe, SchedProbe};
pub use drc::{check_single, check_topology, Diagnostic, DrcReport, Rule, Severity};
pub use report::{LevelOccupancy, RunReport, SystemReport};
pub use system::{
    default_sched_mode, run_kernel, run_kernel_probed, run_system, run_system_probed,
    set_default_sched_mode, FabricSpec, Placement, Requestor, RunError, SchedMode, SystemConfig,
    Topology, TopologyBuilder, WINDOW_ALIGN,
};

// Sweep points run on `simkit::sweep` worker threads: everything a point
// closure captures or returns must stay `Send + Sync`. Compile-time audit
// so a stray `Rc`/`RefCell` in a config or report breaks the build here,
// not in a distant figure harness.
const _: () = {
    const fn assert_thread_safe<T: Send + Sync>() {}
    assert_thread_safe::<SystemConfig>();
    assert_thread_safe::<Topology>();
    assert_thread_safe::<RunReport>();
    assert_thread_safe::<SystemReport>();
    assert_thread_safe::<requestor::SweepConfig>();
    assert_thread_safe::<RunError>();
    assert_thread_safe::<DrcReport>();
    assert_thread_safe::<FabricSpec>();
    assert_thread_safe::<Placement>();
    assert_thread_safe::<TopologyBuilder>();
    assert_thread_safe::<LevelOccupancy>();
};
