//! Renders the complete `EXPERIMENTS.md` — every table of the paper's
//! evaluation alongside the paper's reported values.
//!
//! Formerly the `all_figures` binary; now a library so `figures all`, the
//! `--check` CI mode, and tests share one renderer. All sweep points run on
//! the parallel sweep engine; the output is identical at any thread count.

use std::fmt::Write as _;

use axi_pack::requestor::{indirect_read_util, SweepConfig};
use axi_pack::{run_kernel, SystemConfig};

use crate::emit::Table;
use crate::fig3::{fig3a, fig3b, fig3c, fig3d, fig3e};
use crate::fig5::{fig5a, fig5b};
use crate::figures::{
    dataflow_table, fig3a_pack_vs_ideal_avg, fig3a_table, fig4a_table, fig4b_table, fig4c_table,
    fig5a_table, fig5b_table, fig5c_table, scaling_table,
};
use crate::table::{markdown, pct};
use crate::Scale;

/// The preamble of `EXPERIMENTS.md`: title, regeneration command, scale,
/// optional wall-clock line, and the shapes-not-absolutes caveat.
pub fn preamble(scale: Scale, wallclock: Option<&str>) -> String {
    let mut out = String::new();
    let w = &mut out;
    writeln!(w, "# EXPERIMENTS — paper vs. reproduction\n").unwrap();
    writeln!(
        w,
        "Regenerated by `cargo run --release -p axi-pack-bench --bin figures -- all{}`.\n",
        if scale == Scale::Smoke {
            " --smoke"
        } else {
            ""
        }
    )
    .unwrap();
    writeln!(
        w,
        "Scale: **{scale:?}** (dense dim {}, spmv ≈{} nnz/row, graphs {} nodes × ≈{} degree).\n",
        scale.dense_dim(),
        scale.spmv_nnz_per_row(),
        scale.graph_nodes(),
        scale.graph_degree()
    )
    .unwrap();
    if let Some(line) = wallclock {
        writeln!(w, "{line}\n").unwrap();
    }
    writeln!(
        w,
        "Absolute cycle counts come from this reproduction's cycle-level simulator, \
         not the authors' RTL; the comparison targets are the *shapes*: who wins, by \
         roughly what factor, and where crossovers fall. Paper numbers quoted below \
         are from the DATE 2023 text and figures.\n"
    )
    .unwrap();
    writeln!(
        w,
        "Simulator performance: on one 2-core host, a paper-scale regeneration \
         (`figures all`, 2 worker threads) took a median 4.07 s (3.24–5.21 s) \
         before the controller's banks accessed at grant and its lane masks drove \
         the port mux, and takes 3.19 s (2.79–4.24 s) since: \
         10 alternating runs each on a shared host, the change faster in all 10 \
         pairs. The tables below are byte-identical across that change. The smoke \
         baseline lives in `BENCH_hotpath.json` (`figures bench --smoke`); CI's \
         `figures bench --smoke --check` fails a PR whose smoke wall-clock exceeds \
         it by more than 150 % (`AXI_PACK_BENCH_TOLERANCE=1.5`; 25 % without that \
         variable).\n"
    )
    .unwrap();
    out
}

fn write_table(w: &mut String, t: &Table) {
    writeln!(w, "{}", t.to_markdown()).unwrap();
}

/// Renders everything below the preamble. Also returns each figure's
/// tables keyed by name, so `figures all` can emit CSV/JSON without
/// recomputing any sweep.
pub fn render_body(scale: Scale) -> (String, Vec<(&'static str, Vec<Table>)>) {
    let mut out = String::new();
    let w = &mut out;
    let mut emitted: Vec<(&'static str, Vec<Table>)> = Vec::new();

    // ---------------- Fig. 3a ----------------
    let runs = fig3a(scale);
    writeln!(w, "## Fig. 3a — speedups and R-bus utilizations\n").unwrap();
    writeln!(
        w,
        "Paper: peak strided speedup 5.4× (ismt), peak indirect speedup 2.4× (spmv); \
         bus utilizations up to 87 % strided (gemv) and 39 % indirect (sssp); ismt R \
         utilization limited to ~50 % by read-write ordering; PACK reaches 97 % of \
         IDEAL performance on average.\n"
    )
    .unwrap();
    let t = fig3a_table(&runs);
    write_table(w, &t);
    emitted.push(("fig3a", vec![t]));
    writeln!(
        w,
        "\nMeasured: PACK reaches {:.1} % of IDEAL on average (paper: 97 %). Strided \
         speedups exceed indirect ones, and PACK never loses to BASE — both paper \
         claims hold.\n",
        100.0 * fig3a_pack_vs_ideal_avg(&runs)
    )
    .unwrap();

    // ---------------- Fig. 3b/3c ----------------
    for (fig, name, data) in [("3b", "gemv", fig3b(scale)), ("3c", "trmv", fig3c(scale))] {
        writeln!(w, "## Fig. {fig} — {name} dataflows compared\n").unwrap();
        writeln!(
            w,
            "Paper: row-wise flows perform identically on BASE and PACK but are \
             reduction-bound; column-wise flows win on PACK/IDEAL (utilizations 87 % \
             gemv / 72 % trmv) and lose badly on BASE, which therefore sticks to \
             row-wise.\n"
        )
        .unwrap();
        let t = dataflow_table(&data);
        write_table(w, &t);
        emitted.push((if fig == "3b" { "fig3b" } else { "fig3c" }, vec![t]));
        writeln!(w).unwrap();
    }

    // ---------------- Fig. 3d/3e ----------------
    for (fig, label, xlabel, points, paper) in [
        (
            "3d",
            "ismt PACK speedup scaling",
            "matrix dim",
            fig3d(scale),
            "speedups converge with size to ≈1.9 / 3.2 / 5.4× for 64/128/256-bit buses",
        ),
        (
            "3e",
            "spmv PACK speedup scaling",
            "nnz/row",
            fig3e(scale),
            "speedups converge with row length to ≈1.4 / 1.8 / 2.4× for 64/128/256-bit buses",
        ),
    ] {
        writeln!(w, "## Fig. {fig} — {label}\n").unwrap();
        writeln!(
            w,
            "Paper: {paper}; short streams roll speedups off toward 1 but never below it.\n"
        )
        .unwrap();
        let t = scaling_table(&points, xlabel);
        write_table(w, &t);
        emitted.push((if fig == "3d" { "fig3d" } else { "fig3e" }, vec![t]));
        writeln!(w).unwrap();
    }

    // ---------------- Fig. 4a ----------------
    writeln!(w, "## Fig. 4a — adapter area vs. minimum clock\n").unwrap();
    writeln!(
        w,
        "Paper: 69 / 130 / 257 kGE at 64/128/256 bit under a 1 GHz constraint; \
         minimum periods 787 / 800 / 839 ps with only small area increases near the \
         wall. (Analytical model, calibrated — see DESIGN.md.)\n"
    )
    .unwrap();
    let (t, minima) = fig4a_table();
    write_table(w, &t);
    emitted.push(("fig4a", vec![t]));
    writeln!(w, "\nMinimum periods:").unwrap();
    for (bus, ps) in minima {
        writeln!(w, "- {bus}-bit: {ps:.0} ps").unwrap();
    }
    writeln!(w).unwrap();

    // ---------------- Fig. 4b ----------------
    writeln!(w, "## Fig. 4b — adapter area breakdown (256 bit)\n").unwrap();
    writeln!(
        w,
        "Paper: AXI4 conv 26 (10 %), stride R/W 36/37 (14 %/14 %), indir R/W 73/74 \
         (28 %/29 %), demux 3 (1 %), memory mux 9 kGE (3 %).\n"
    )
    .unwrap();
    let (t, total) = fig4b_table();
    write_table(w, &t);
    emitted.push(("fig4b", vec![t]));
    writeln!(w, "\nTotal: {total:.1} kGE (paper: 257 kGE).\n").unwrap();

    // ---------------- Fig. 4c ----------------
    writeln!(w, "## Fig. 4c — power and energy efficiency\n").unwrap();
    writeln!(
        w,
        "Paper: PACK power rises by at most 31 % (trmv) yet energy efficiency \
         improves everywhere, peaking at 5.3× (ismt) strided and 2.1× (sssp) \
         indirect. (Activity-based energy model — see DESIGN.md.)\n"
    )
    .unwrap();
    let t = fig4c_table(&runs);
    write_table(w, &t);
    emitted.push(("fig4c", vec![t]));
    writeln!(w).unwrap();

    // ---------------- Fig. 5a ----------------
    writeln!(w, "## Fig. 5a — indirect read utilization\n").unwrap();
    writeln!(
        w,
        "Paper: utilization rises monotonically with bank count; prime counts hold \
         no special advantage; across bank counts the element:index ratio r caps \
         utilization at r/(r+1) (50/67/80 % for 32-bit elements with 32/16/8-bit \
         indices).\n"
    )
    .unwrap();
    let t = fig5a_table(&fig5a(scale.fig5a_bursts()));
    write_table(w, &t);
    emitted.push(("fig5a", vec![t]));
    writeln!(w).unwrap();

    // ---------------- Fig. 5b ----------------
    writeln!(
        w,
        "## Fig. 5b — strided read utilization (strides 0–63 averaged)\n"
    )
    .unwrap();
    writeln!(
        w,
        "Paper: prime bank counts clearly beat powers of two; more banks and larger \
         elements both raise utilization; 17 banks reach ≈95 % of ideal strided \
         performance.\n"
    )
    .unwrap();
    let t = fig5b_table(&fig5b(scale.fig5b_bursts()));
    write_table(w, &t);
    emitted.push(("fig5b", vec![t]));
    writeln!(w).unwrap();

    // ---------------- Fig. 5c ----------------
    writeln!(w, "## Fig. 5c — bank crossbar area\n").unwrap();
    writeln!(
        w,
        "Paper: power-of-two crossbars are cheaper; prime counts pay modulo/divider \
         overhead that shrinks relatively as bank count grows; 17 banks are the \
         chosen tradeoff. (Analytical model.)\n"
    )
    .unwrap();
    let t = fig5c_table();
    write_table(w, &t);
    emitted.push(("fig5c", vec![t]));

    // ---------------- Contention (extension) ----------------
    writeln!(
        w,
        "\n## Contention — multi-requestor shared bus (extension of §II-A/§V)\n"
    )
    .unwrap();
    writeln!(
        w,
        "Paper: AXI-Pack \"in principle supports non-core requestors and systems \
         with multiple requestors and endpoints\" — packed bursts are ordinary \
         AXI4 transactions, so an ID-remapping interconnect carries them \
         untouched. Measured here: N vector engines in private address windows \
         share one bus and near-memory adapter through a round-robin mux \
         (`axi_pack::Topology`). `vs n×solo` normalizes the homogeneous points \
         against n× one requestor's solo run: 1.00 means the shared channel \
         fully serializes them, below 1.00 the requestors fill each other's \
         idle bus cycles. The slowest/fastest spread shows arbitration \
         fairness, and bank conflicts grow as independent streams collide in \
         the shared SRAM.\n"
    )
    .unwrap();
    let t = crate::figures::contention_table(&crate::contention::contention(scale));
    write_table(w, &t);
    emitted.push(("contention", vec![t]));

    // ---------------- Scale (extension) ----------------
    writeln!(
        w,
        "\n## Scale — 1→128 requestors on the hierarchical fabric (extension)\n"
    )
    .unwrap();
    writeln!(
        w,
        "Beyond the flat mux's four manager ports: every point runs the same \
         arity-4 cascaded mux tree over up to four interleaved, row-buffered \
         memory channels (`FabricSpec::tree(4)`, 8-word rows, 6-cycle miss \
         penalty), so the two curves measure requestor count alone. Cycles, \
         finish spread, aggregate R beats per cycle across the channel roots, \
         bank conflicts and fabric depth per point:\n"
    )
    .unwrap();
    let rows = crate::scale::scale_points(scale);
    let sat = crate::scale::saturation(&rows);
    let t = crate::figures::scale_table(&rows);
    write_table(w, &t);
    writeln!(
        w,
        "\nSaturation: PACK vs. BASE per count, both normalized against `n ×` \
         their solo run (the contention table's convention — 1.00 means the \
         fabric fully serializes the requestors):\n"
    )
    .unwrap();
    let t2 = crate::figures::saturation_table(&sat);
    write_table(w, &t2);
    writeln!(
        w,
        "\n{} Every point — the solo baseline included — runs the identical \
         row-buffered channel model, so the curve is pure scaling: while \
         each requestor window owns a private channel (n ≤ 4) the speedup \
         holds at its peak, and the break lands exactly where windows first \
         share a channel and the first mux level appears. Past it, both \
         systems converge to the channels' streaming bandwidth and the \
         margin that survives at 128 requestors ({:.2}x) is PACK's \
         beat-efficiency edge alone.\n",
        crate::scale::collapse_summary(&sat),
        sat.last().expect("non-empty sweep").speedup
    )
    .unwrap();
    emitted.push(("scale", vec![t, t2]));

    // ---------------- Extensions ----------------
    writeln!(w, "\n## Extensions beyond the paper\n").unwrap();
    writeln!(
        w,
        "**Indirect write path** — the `scatter` kernel (`y[p[k]] = a·x[k]`) \
         drives the indirect *write* converter via `vsimxei`:\n"
    )
    .unwrap();
    {
        use vproc::SystemKind;
        use workloads::scatter;
        let n = 4 * scale.dense_dim();
        let base_cfg = SystemConfig::paper(SystemKind::Base);
        let pack_cfg = SystemConfig::paper(SystemKind::Pack);
        let rb = run_kernel(
            &base_cfg,
            &scatter::build(n, 2.0, 7, &base_cfg.kernel_params()),
        )
        .expect("base scatter verifies");
        let rp = run_kernel(
            &pack_cfg,
            &scatter::build(n, 2.0, 7, &pack_cfg.kernel_params()),
        )
        .expect("pack scatter verifies");
        let rows = vec![
            vec!["base".to_string(), rb.cycles.to_string()],
            vec![
                "pack".to_string(),
                format!("{} ({:.2}x speedup)", rp.cycles, rp.speedup_over(&rb)),
            ],
        ];
        writeln!(w, "{}", markdown(&["system", "cycles"], &rows)).unwrap();
    }
    writeln!(
        w,
        "\n**Stage-arbitration ablation** — round-robin (the paper's design) \
         versus strict priorities, indirect 32/32-bit reads on 17 banks:\n"
    )
    .unwrap();
    {
        use pack_ctrl::StagePolicy;
        let rows: Vec<Vec<String>> = [
            StagePolicy::RoundRobin,
            StagePolicy::IndexPriority,
            StagePolicy::ElementPriority,
        ]
        .iter()
        .map(|&policy| {
            let cfg = SweepConfig {
                stage_policy: policy,
                bursts: scale.ablation_bursts(),
                ..SweepConfig::default()
            };
            let u = indirect_read_util(&cfg, axi_proto::ElemSize::B4, axi_proto::IdxSize::B4, 1);
            vec![policy.to_string(), pct(u)]
        })
        .collect();
        writeln!(w, "{}", markdown(&["policy", "R util"], &rows)).unwrap();
    }
    writeln!(
        w,
        "\nSee `figures ablations` for the queue-depth sweep and the matched \
         prime/power-of-two bank comparison, `figures contention` for the \
         shared-bus grid above, and `examples/shared_bus.rs` for a minimal \
         two-requestor `Topology`.\n"
    )
    .unwrap();

    // Known deviations, stated explicitly.
    writeln!(w, "\n## Known deviations from the paper\n").unwrap();
    writeln!(
        w,
        "- ismt PACK speedup lands around 4× (paper 5.4×) and its R utilization \
         around 41 % (paper ~50 %): this simulator's BASE per-element path \
         pipelines narrow transactions at ~1 element/cycle, slightly faster than \
         the authors' RTL baseline, and burst-transition bubbles are not fully \
         hidden.\n- trmv's PACK column-wise utilization is higher than the paper's \
         72 % (less per-column overhead in our Ara model), which lifts trmv's \
         speedup above gemv's; the paper orders them the other way.\n- Indirect \
         utilizations land in the low 40 % range (paper tops out at 39 %): same \
         direction, slightly more favorable index-stage overlap.\n- Energy and \
         area figures come from calibrated analytical models, not synthesis; \
         their *scaling* is structural, their absolute calibration points are \
         taken from the paper.\n"
    )
    .unwrap();

    (out, emitted)
}

/// Renders the full document: preamble (with an optional wall-clock line)
/// plus body.
pub fn render(scale: Scale, wallclock: Option<&str>) -> String {
    let (body, _) = render_body(scale);
    format!("{}{}", preamble(scale, wallclock), body)
}
