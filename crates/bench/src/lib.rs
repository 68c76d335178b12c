//! `axi-pack-bench` — the figure-regeneration harness.
//!
//! One library function per figure of the paper's evaluation (Fig. 3a–3e,
//! 4a–4c, 5a–5c), each a [`simkit::SweepSpec`] grid whose points run in
//! parallel on the sweep engine and return structured rows. The [`figures`]
//! registry turns rows into tables (markdown + CSV + JSON via [`emit`]),
//! [`experiments`] renders the complete `EXPERIMENTS.md`, [`mod@bench`] tracks
//! the simulator's own wall-clock baseline (`figures bench` →
//! `BENCH_hotpath.json`), and the single
//! `figures` binary exposes it all as subcommands (`figures fig3a`,
//! `figures all`, `figures sweep …`, `figures kernel …`).
//!
//! Absolute cycle counts come from this reproduction's simulator, not the
//! authors' RTL, so the comparison targets are the *shapes*: who wins, by
//! roughly what factor, and where the crossovers sit (see EXPERIMENTS.md).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod chaos;
pub mod cli;
pub mod contention;
pub mod drc;
pub mod emit;
pub mod experiments;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod figures;
pub mod fuzz;
pub mod scale;
pub mod sweeps;
pub mod table;

/// Problem-size preset for figure runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for smoke tests and the CI gates (seconds).
    Smoke,
    /// Paper-like inputs (matrix dimension 256, ≈390 nonzeros/row).
    Paper,
}

impl Scale {
    /// Dense matrix dimension for ismt/gemv/trmv.
    pub fn dense_dim(&self) -> usize {
        match self {
            Scale::Smoke => 48,
            Scale::Paper => 256,
        }
    }

    /// Rows of the sparse operands.
    pub fn sparse_rows(&self) -> usize {
        match self {
            Scale::Smoke => 48,
            Scale::Paper => 128,
        }
    }

    /// Average nonzeros per row of the spmv operand (paper: heart1 ≈ 390).
    pub fn spmv_nnz_per_row(&self) -> f64 {
        match self {
            Scale::Smoke => 24.0,
            Scale::Paper => 390.0,
        }
    }

    /// Nodes of the graph workloads. The paper runs all three indirect
    /// benchmarks on SuiteSparse's `heart1` (3557 nodes, ~390 nonzeros per
    /// row); this reproduction keeps the controlling nnz-per-row and trims
    /// the node count to bound simulation time.
    pub fn graph_nodes(&self) -> usize {
        match self {
            Scale::Smoke => 48,
            Scale::Paper => 512,
        }
    }

    /// Average degree of the graph workloads (heart1: ≈ 390).
    pub fn graph_degree(&self) -> f64 {
        match self {
            Scale::Smoke => 6.0,
            Scale::Paper => 390.0,
        }
    }

    /// Burst count of the Fig. 5a indirect-utilization sweep.
    ///
    /// These per-figure burst defaults used to be duplicated across the
    /// figure binaries; they live here so every entry point agrees.
    pub fn fig5a_bursts(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Paper => 3,
        }
    }

    /// Burst count of the Fig. 5b strided-utilization sweep.
    pub fn fig5b_bursts(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Paper => 2,
        }
    }

    /// Burst count of the ablation sweeps (queue depth, stage policy).
    pub fn ablation_bursts(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Paper => 2,
        }
    }

    /// Dense dimension of the contention family's strided requestors
    /// (kept below `dense_dim` — up to four copies share one bus).
    pub fn contention_dim(&self) -> usize {
        match self {
            Scale::Smoke => 32,
            Scale::Paper => 128,
        }
    }

    /// Average nonzeros per row of the contention family's indirect
    /// requestors.
    pub fn contention_nnz(&self) -> f64 {
        match self {
            Scale::Smoke => 6.0,
            Scale::Paper => 48.0,
        }
    }

    /// Dense dimension of the scale family's gemv requestors (small —
    /// up to 128 copies ride one hierarchical fabric per point).
    pub fn scale_dim(&self) -> usize {
        match self {
            Scale::Smoke => 24,
            Scale::Paper => 64,
        }
    }

    /// The scale selected by a `--smoke` flag in `args` (the convention
    /// every figure entry point shares).
    pub fn from_flags<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Self {
        if args.into_iter().any(|a| a.as_ref() == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Paper
        }
    }
}

/// Deterministic seed shared by all figure data sets.
pub const SEED: u64 = 0xDA7E_2023;
