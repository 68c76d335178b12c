//! The unified figure CLI: every paper figure family, the full
//! `EXPERIMENTS.md` regeneration, ad-hoc cartesian sweeps, and single
//! kernel runs — one binary, all sweep points fanned across cores by
//! `simkit::sweep`.
//!
//! ```sh
//! figures list                 # what can I regenerate?
//! figures fig3a --smoke        # one figure family, quick inputs
//! figures all                  # everything -> EXPERIMENTS.md + CSV/JSON
//! figures all --smoke --check  # CI: regenerate, verify determinism, write nothing
//! figures sweep --kernel spmv,gemv --backend base,pack --bus 64,256 --size 32
//! figures sweep --ew 32,64,256 --idx 8,32 --banks 8,17
//! figures kernel --kernel spmv --system pack --mtx path/to/heart1.mtx
//! ```
//!
//! Thread count: `--threads N` or the `AXI_PACK_THREADS` environment
//! variable; default is the host's available parallelism.

use std::path::PathBuf;
use std::time::Instant;

use axi_pack::differential::{replay_corpus, SEED_CORPUS};
use axi_pack_bench::bench::{self, MAX_REGRESSION};
use axi_pack_bench::chaos::{run_chaos, ChaosSpec};
use axi_pack_bench::cli::{resolve, Dispatch};
use axi_pack_bench::emit::{write_files, Table};
use axi_pack_bench::fuzz::{run_fuzz, FuzzSpec};
use axi_pack_bench::sweeps::{
    kernel_sweep, parse_elem, parse_idx, util_sweep, KernelPoint, KernelSweep, UtilSweep,
    KERNEL_NAMES,
};
use axi_pack_bench::{drc, experiments, figures, Scale};
use simkit::sweep::THREADS_ENV;
use vproc::SystemKind;
use workloads::Dataflow;

fn usage() -> ! {
    eprintln!(
        "usage: figures <subcommand> [options]\n\
         \n\
         subcommands:\n\
         \x20 list                     list the figure families\n\
         \x20 <figure>                 regenerate one family (fig3a..fig5c, ablations)\n\
         \x20 all                      regenerate everything into EXPERIMENTS.md\n\
         \x20 bench                    time every figure family -> BENCH_hotpath.json\n\
         \x20                          (--check: fail if >25% slower than committed)\n\
         \x20 sweep                    ad-hoc cartesian sweep (see axes below)\n\
         \x20 kernel                   run one kernel and print the full report\n\
         \x20 fuzz                     randomized differential engine: every seed runs\n\
         \x20                          random kernels on BASE/PACK/IDEAL and 1/2/4-requestor\n\
         \x20                          topologies against a bit-exact reference model\n\
         \x20 drc                      static design-rule check (simcheck) of the in-tree\n\
         \x20                          config grids; exits non-zero on any rule error\n\
         \x20 chaos                    fault-injection engine: every seed replays the\n\
         \x20                          differential kernel family under a deterministic\n\
         \x20                          transient fault plan in both scheduler modes; each\n\
         \x20                          run must recover bit-identically or return a typed\n\
         \x20                          fault/hang report — never wedge, never panic\n\
         \n\
         drc options:\n\
         \x20 --target NAME            check one grid (paper/bus/contention/corpus/scale;\n\
         \x20                          default: all)\n\
         \x20 --rules                  print the rule catalog and exit\n\
         \x20 --verbose                also print clean-report coverage lines\n\
         \n\
         fuzz options:\n\
         \x20 --seed-start N           first seed (default 0)\n\
         \x20 --count M                seeds to check (default 64)\n\
         \x20 --minimize               shrink failing seeds before reporting\n\
         \x20 --corpus                 replay the checked-in regression corpus instead\n\
         \x20 --max-ops N              generator: program-length cap (default 24)\n\
         \x20 --max-elems N            generator: array-length cap (default 192)\n\
         \x20 --no-read-back           generator: keep load and store streams disjoint\n\
         \n\
         chaos options:\n\
         \x20 --seed-start N           first seed (default 0)\n\
         \x20 --count M                seeds to check (default 64)\n\
         \x20 --corpus                 replay the regression corpus under faults instead\n\
         \x20 --max-ops N              generator: program-length cap (default 24)\n\
         \x20 --max-elems N            generator: array-length cap (default 192)\n\
         \x20 --no-read-back           generator: keep load and store streams disjoint\n\
         \n\
         common options:\n\
         \x20 --smoke                  quick problem sizes (default: paper scale)\n\
         \x20 --lockstep               tick every component every cycle instead of the\n\
         \x20                          event-driven scheduler (the differential oracle;\n\
         \x20                          slower, bit-identical results)\n\
         \x20 --threads N              sweep worker threads (default: {} or all cores)\n\
         \x20 --out DIR                CSV/JSON output directory (default: figures-out)\n\
         \x20 --no-files               write no CSV/JSON output (`bench`: no\n\
         \x20                          BENCH_hotpath.json); `all` still writes\n\
         \x20                          EXPERIMENTS.md\n\
         \n\
         figure/all options:\n\
         \x20 --check                  regenerate at N threads and serial, verify they\n\
         \x20                          match, write nothing (CI mode)\n\
         \x20 --compare-serial         (`all` only) also time a serial run; record\n\
         \x20                          both wall-clocks\n\
         \n\
         sweep axes (comma-separated lists):\n\
         \x20 kernel grid:  --kernel a,b --backend base,pack,ideal --bus 64,128,256\n\
         \x20               --size N,M [--nnz F] [--banks N,M] [--queue-depth N]\n\
         \x20               [--dataflow row|col] [--seed N]\n\
         \x20 util grid:    --ew 32,64,128,256 [--idx 8,16,32 | --stride 0,1,7]\n\
         \x20               [--banks 8,17,32] [--bursts N] [--seed N]\n\
         \n\
         kernel options: --kernel NAME --system base|pack|ideal --bus N --banks N\n\
         \x20             --queue-depth N --size N --nnz F --seed N --mtx FILE\n\
         \x20             --dataflow row|col",
        THREADS_ENV
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(1);
}

/// Options shared by every subcommand.
struct Common {
    scale: Scale,
    out_dir: PathBuf,
    write_files: bool,
    rest: Vec<String>,
}

fn parse_common(args: Vec<String>) -> Common {
    let mut scale = Scale::Paper;
    let mut out_dir = PathBuf::from("figures-out");
    let mut write = true;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => scale = Scale::Smoke,
            // Process-wide: every run constructed after this point defaults
            // to lockstep mode (the fuzz oracle still runs both modes).
            "--lockstep" => axi_pack::set_default_sched_mode(axi_pack::SchedMode::Lockstep),
            "--out" => out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--no-files" => write = false,
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                // Read by `simkit::sweep::thread_count` at each sweep.
                std::env::set_var(THREADS_ENV, n.to_string());
            }
            "--help" | "-h" => usage(),
            _ => rest.push(a),
        }
    }
    Common {
        scale,
        out_dir,
        write_files: write,
        rest,
    }
}

fn print_tables(title: &str, tables: &[Table]) {
    println!("{title}\n");
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", t.to_markdown());
    }
}

fn emit(c: &Common, name: &str, tables: &[Table]) {
    if !c.write_files {
        return;
    }
    match write_files(&c.out_dir, name, tables) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => fail(&format!("writing {name} output: {e}")),
    }
}

/// Re-renders serially, restores the thread setting, and fails the
/// process unless the serial result equals the parallel one — the
/// determinism recheck shared by `--check` on `all` and on any single
/// family. Returns the serial wall-clock in seconds.
fn check_serial<T: PartialEq>(
    threads: usize,
    what: &str,
    parallel: &T,
    render: impl Fn() -> T,
) -> f64 {
    std::env::set_var(THREADS_ENV, "1");
    let t0 = Instant::now();
    let serial = render();
    let serial_elapsed = t0.elapsed().as_secs_f64();
    std::env::set_var(THREADS_ENV, threads.to_string());
    if &serial != parallel {
        fail(&format!(
            "determinism violation: {what} differs between serial and {threads}-thread sweeps"
        ));
    }
    serial_elapsed
}

fn cmd_figure(fig: &figures::Figure, c: &Common) {
    let mut check = false;
    for a in &c.rest {
        match a.as_str() {
            "--check" => check = true,
            other => fail(&format!("unknown flag {other} for `{}`", fig.name)),
        }
    }
    let threads = simkit::sweep::thread_count(None);
    let t0 = Instant::now();
    let tables = (fig.render)(c.scale);
    let elapsed = t0.elapsed().as_secs_f64();
    if check {
        // CI mode: verify the parallel sweep is deterministic; write
        // nothing.
        check_serial(threads, &format!("`{}`", fig.name), &tables, || {
            (fig.render)(c.scale)
        });
        println!(
            "figures {} --check OK: byte-identical at {threads} thread(s) and serial \
             ({elapsed:.2} s)",
            fig.name
        );
        return;
    }
    print_tables(fig.title, &tables);
    println!("\n[{elapsed:.2} s on {threads} worker thread(s)]");
    emit(c, fig.name, &tables);
}

fn cmd_all(c: &Common) {
    let mut check = false;
    let mut compare_serial = false;
    for a in &c.rest {
        match a.as_str() {
            "--check" => check = true,
            "--compare-serial" => compare_serial = true,
            other => fail(&format!("unknown flag {other} for `all`")),
        }
    }
    let threads = simkit::sweep::thread_count(None);
    let t0 = Instant::now();
    let (body, tables) = experiments::render_body(c.scale);
    let elapsed = t0.elapsed().as_secs_f64();
    let wallclock = if check || compare_serial {
        let serial_elapsed = check_serial(threads, "`all`", &body, || {
            experiments::render_body(c.scale).0
        });
        if check {
            println!(
                "figures all --check OK: {} figure families byte-identical at {threads} thread(s) \
                 and serial ({elapsed:.2} s vs {serial_elapsed:.2} s)",
                tables.len(),
            );
            return;
        }
        format!(
            "_Wall-clock: {elapsed:.2} s on {threads} worker thread(s) vs {serial_elapsed:.2} s \
             serial ({:.2}× speedup)._",
            serial_elapsed / elapsed
        )
    } else {
        format!("_Wall-clock: {elapsed:.2} s on {threads} worker thread(s)._")
    };
    finish_all(c, &body, &tables, &wallclock);
}

fn finish_all(c: &Common, body: &str, tables: &[(&'static str, Vec<Table>)], wallclock: &str) {
    let doc = format!(
        "{}{}",
        experiments::preamble(c.scale, Some(wallclock)),
        body
    );
    std::fs::write("EXPERIMENTS.md", &doc).unwrap_or_else(|e| fail(&e.to_string()));
    println!("{doc}");
    println!("\nwrote EXPERIMENTS.md");
    for (name, t) in tables {
        emit(c, name, t);
    }
}

/// `figures bench`: time every figure family, write (or in `--check`
/// mode, gate against) the committed `BENCH_hotpath.json` baseline.
fn cmd_bench(c: &Common) {
    let mut check = false;
    let mut baseline = PathBuf::from("BENCH_hotpath.json");
    let mut it = c.rest.clone().into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--baseline" => baseline = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            other => fail(&format!("unknown flag {other} for `bench`")),
        }
    }
    let result = bench::run(c.scale);
    println!("figures bench ({:?} scale):", c.scale);
    for (name, secs) in &result.families {
        println!("  {name:<10} {secs:>8.3} s");
    }
    println!("  {:<10} {:>8.3} s", "total", result.total_s);
    println!(
        "  throughput {:>8.0} simulated cycles/s (PACK ismt probe, event; lockstep {:.0})",
        result.cycles_per_sec, result.cycles_per_sec_lockstep
    );
    println!(
        "  sparse     {:>8.0} simulated cycles/s (PACK scalar-bound row loop, event; lockstep {:.0}, \
         {:.1}x)",
        result.sparse_cycles_per_sec,
        result.sparse_cycles_per_sec_lockstep,
        result.sparse_event_speedup()
    );
    println!(
        "  fuzz       {:>8.1} differential scenarios/s",
        result.fuzz_scenarios_per_sec
    );
    println!(
        "  fault      {:>8.1} % overhead of armed-silent fault hooks on the dense probe",
        result.fault_overhead * 100.0
    );
    println!(
        "  scale128   {:>8.4} s for one 128-requestor point on the hierarchical fabric",
        result.scale_128_requestors_s
    );
    let committed = std::fs::read_to_string(&baseline).ok();
    // Wall-clocks from different scales must never be compared.
    let scale_matches = committed
        .as_deref()
        .and_then(|doc| bench::parse_string(doc, "scale"))
        .is_none_or(|s| s == format!("{:?}", c.scale));
    if check {
        let Some(doc) = committed else {
            fail(&format!(
                "--check needs a committed baseline at {}",
                baseline.display()
            ));
        };
        if !scale_matches {
            fail(&format!(
                "{} was measured at {} scale, this run is {:?} — re-run with the \
                 matching scale flag",
                baseline.display(),
                bench::parse_string(&doc, "scale").unwrap_or_default(),
                c.scale
            ));
        }
        let Some(base_total) = bench::parse_number(&doc, "total_s") else {
            fail(&format!("no \"total_s\" in {}", baseline.display()));
        };
        // The committed numbers come from one specific host; a slower
        // (CI) machine can widen the limit instead of regenerating the
        // file: AXI_PACK_BENCH_TOLERANCE=0.60 allows +60%.
        let limit = std::env::var("AXI_PACK_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(MAX_REGRESSION);
        let ratio = result.total_s / base_total;
        if ratio > 1.0 + limit {
            fail(&format!(
                "smoke wall-clock regressed {:.0}% over the committed baseline \
                 ({:.3} s vs {:.3} s; limit {:.0}%)",
                (ratio - 1.0) * 100.0,
                result.total_s,
                base_total,
                limit * 100.0
            ));
        }
        // The scheduler's gains must not come at lockstep's expense: the
        // oracle mode's throughput is gated against the committed number
        // too. The probe runs for well under a second, so its absolute
        // value is far noisier than total_s — the band here is a
        // collapse detector (debug build, accidental O(n) in the tick
        // path), not a drift tracker.
        let probe_limit = limit.max(0.60);
        if let Some(base_lockstep) = bench::parse_number(&doc, "cycles_per_sec_lockstep") {
            let lockstep_ratio = base_lockstep / result.cycles_per_sec_lockstep;
            if lockstep_ratio > 1.0 + probe_limit {
                fail(&format!(
                    "lockstep throughput regressed {:.0}% under the committed baseline \
                     ({:.0} vs {:.0} cycles/s; limit {:.0}%)",
                    (lockstep_ratio - 1.0) * 100.0,
                    result.cycles_per_sec_lockstep,
                    base_lockstep,
                    probe_limit * 100.0
                ));
            }
        }
        // Fuzz throughput is gated like the lockstep probe: a short
        // per-seed probe, so it gets the widened band. The committed
        // number was re-based after PR 7 (the scheduler oracle roughly
        // doubled per-seed work — see BenchResult::fuzz_scenarios_per_sec);
        // from here on any further drop fails loudly.
        if let Some(base_fuzz) = bench::parse_number(&doc, "fuzz_scenarios_per_sec") {
            let fuzz_ratio = base_fuzz / result.fuzz_scenarios_per_sec;
            if fuzz_ratio > 1.0 + probe_limit {
                fail(&format!(
                    "fuzz throughput regressed {:.0}% under the committed baseline \
                     ({:.1} vs {:.1} scenarios/s; limit {:.0}%)",
                    (fuzz_ratio - 1.0) * 100.0,
                    result.fuzz_scenarios_per_sec,
                    base_fuzz,
                    probe_limit * 100.0
                ));
            }
        }
        // The deepest fabric point is a short probe too: same widened
        // band, so a regression in the mux cascade, the channel
        // interleave, or the row-buffer model fails loudly.
        if let Some(base_scale128) = bench::parse_number(&doc, "scale_128_requestors_s") {
            let scale_ratio = result.scale_128_requestors_s / base_scale128;
            if scale_ratio > 1.0 + probe_limit {
                fail(&format!(
                    "128-requestor fabric point regressed {:.0}% over the committed \
                     baseline ({:.4} s vs {:.4} s; limit {:.0}%)",
                    (scale_ratio - 1.0) * 100.0,
                    result.scale_128_requestors_s,
                    base_scale128,
                    probe_limit * 100.0
                ));
            }
        }
        // The robustness hooks must stay free when disarmed: a same-host
        // back-to-back ratio (fault-free vs armed-silent dense probe),
        // gated against the fixed budget — deliberately NOT widened by
        // AXI_PACK_BENCH_TOLERANCE, since host speed cancels out of the
        // ratio.
        if result.fault_overhead > bench::FAULT_OVERHEAD_LIMIT {
            fail(&format!(
                "armed-silent fault hooks cost {:.1}% of dense-probe throughput, \
                 over the {:.0}% budget",
                result.fault_overhead * 100.0,
                bench::FAULT_OVERHEAD_LIMIT * 100.0
            ));
        }
        // And the headline event-mode gain must still be there. The
        // speedup is a same-host ratio (event and lockstep probes run on
        // the same machine in the same process), so instead of chasing a
        // noisy committed number it is gated against the architectural
        // floor the scheduler promises.
        let speedup = result.sparse_event_speedup();
        if speedup < bench::SPARSE_SPEEDUP_FLOOR {
            fail(&format!(
                "sparse event-mode speedup collapsed: {:.1}x, below the {:.0}x floor \
                 the event scheduler promises",
                speedup,
                bench::SPARSE_SPEEDUP_FLOOR
            ));
        }
        println!(
            "figures bench --check OK: {:.3} s vs committed {:.3} s ({:+.0}%, limit +{:.0}%); \
             sparse event speedup {:.1}x",
            result.total_s,
            base_total,
            (ratio - 1.0) * 100.0,
            limit * 100.0,
            result.sparse_event_speedup()
        );
        return;
    }
    if !c.write_files {
        return;
    }
    let json = bench::to_json(c.scale, &result);
    match std::fs::write(&baseline, &json) {
        Ok(()) => println!("wrote {}", baseline.display()),
        Err(e) => fail(&format!("writing {}: {e}", baseline.display())),
    }
}

/// `figures fuzz`: run a seed window (or the regression corpus) through
/// the differential engine; print one repro line per failing seed and
/// exit non-zero if anything failed.
fn cmd_fuzz(c: &Common) {
    let mut spec = FuzzSpec::default();
    let mut corpus = false;
    let mut it = c.rest.clone().into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed-start" => spec.seed_start = val().parse().unwrap_or_else(|_| usage()),
            "--count" => spec.count = val().parse().unwrap_or_else(|_| usage()),
            "--minimize" => spec.minimize = true,
            "--corpus" => corpus = true,
            "--max-ops" => spec.cfg.max_ops = val().parse().unwrap_or_else(|_| usage()),
            "--max-elems" => spec.cfg.max_elems = val().parse().unwrap_or_else(|_| usage()),
            "--no-read-back" => spec.cfg.allow_read_back = false,
            other => fail(&format!("unknown flag {other} for `fuzz`")),
        }
    }
    if spec.count == 0 || spec.cfg.max_ops == 0 || spec.cfg.max_elems == 0 {
        fail("--count, --max-ops and --max-elems must be positive");
    }
    if corpus {
        let t0 = Instant::now();
        match replay_corpus() {
            Ok(cases) => println!(
                "figures fuzz --corpus OK: {cases} regression cases green ({:.2} s)",
                t0.elapsed().as_secs_f64()
            ),
            Err(failures) => {
                for (seed, e) in &failures {
                    eprintln!("corpus seed {seed} FAILED: {e}");
                }
                fail(&format!(
                    "{} of {} corpus cases failed",
                    failures.len(),
                    SEED_CORPUS.len()
                ));
            }
        }
        return;
    }
    let threads = simkit::sweep::thread_count(None);
    let summary = run_fuzz(&spec);
    if summary.failures.is_empty() {
        println!(
            "figures fuzz OK: seeds {}..{} all green — {} checks, {} simulated cycles \
             ({:.2} s on {threads} worker thread(s), {:.1} scenarios/s)",
            spec.seed_start,
            spec.seed_start + spec.count as u64,
            summary.checks,
            summary.cycles,
            summary.elapsed_s,
            summary.scenarios_per_sec,
        );
        return;
    }
    for f in &summary.failures {
        eprintln!("seed {} FAILED: {}", f.seed, f.error);
        if let Some((_, min_err)) = &f.minimized {
            eprintln!("  minimized: {min_err}");
        }
        eprintln!("  repro: {}", f.repro(&spec.cfg));
    }
    fail(&format!(
        "{} of {} seeds failed differential checking",
        summary.failures.len(),
        spec.count
    ));
}

/// `figures chaos`: run a seed window (or the regression corpus) through
/// the fault-injection engine; print one repro line per failing seed and
/// exit non-zero if anything failed.
fn cmd_chaos(c: &Common) {
    let mut spec = ChaosSpec::default();
    let mut corpus = false;
    let mut it = c.rest.clone().into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed-start" => spec.seed_start = val().parse().unwrap_or_else(|_| usage()),
            "--count" => spec.count = val().parse().unwrap_or_else(|_| usage()),
            "--corpus" => corpus = true,
            "--max-ops" => spec.cfg.max_ops = val().parse().unwrap_or_else(|_| usage()),
            "--max-elems" => spec.cfg.max_elems = val().parse().unwrap_or_else(|_| usage()),
            "--no-read-back" => spec.cfg.allow_read_back = false,
            other => fail(&format!("unknown flag {other} for `chaos`")),
        }
    }
    if spec.count == 0 || spec.cfg.max_ops == 0 || spec.cfg.max_elems == 0 {
        fail("--count, --max-ops and --max-elems must be positive");
    }
    if corpus {
        let t0 = Instant::now();
        match axi_pack::chaos::replay_chaos_corpus() {
            Ok(cases) => println!(
                "figures chaos --corpus OK: {cases} regression cases green under \
                 injected faults ({:.2} s)",
                t0.elapsed().as_secs_f64()
            ),
            Err(failures) => {
                for (seed, e) in &failures {
                    eprintln!("chaos corpus seed {seed} FAILED: {e}");
                }
                fail(&format!(
                    "{} of {} corpus cases failed under injected faults",
                    failures.len(),
                    SEED_CORPUS.len()
                ));
            }
        }
        return;
    }
    let threads = simkit::sweep::thread_count(None);
    let summary = run_chaos(&spec);
    if summary.failures.is_empty() {
        println!(
            "figures chaos OK: seeds {}..{} all green — {} checks, {} simulated cycles; \
             {} recovered / {} aborted / {} hung faulted runs, {} faults absorbed over \
             {} retries ({:.2} s on {threads} worker thread(s))",
            spec.seed_start,
            spec.seed_start + spec.count as u64,
            summary.checks,
            summary.cycles,
            summary.recovered,
            summary.aborted,
            summary.hung,
            summary.injected_faults,
            summary.fault_retries,
            summary.elapsed_s,
        );
        return;
    }
    for (seed, error, repro) in &summary.failures {
        eprintln!("chaos seed {seed} FAILED: {error}");
        eprintln!("  repro: {repro}");
    }
    fail(&format!(
        "{} of {} seeds failed chaos checking",
        summary.failures.len(),
        spec.count
    ));
}

/// `figures drc`: statically design-rule check the in-tree config grids
/// (paper systems, bus sweeps, contention topologies, the fuzz corpus)
/// and pretty-print one report per topology. Exits non-zero on any
/// error-severity diagnostic — the CI gate mode.
fn cmd_drc(c: &Common) {
    let mut targets: Vec<&'static drc::DrcTarget> = Vec::new();
    let mut verbose = false;
    let mut it = c.rest.clone().into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--target" => {
                let name = it.next().unwrap_or_else(|| usage());
                match drc::find(&name) {
                    Some(t) => targets.push(t),
                    None => fail(&format!(
                        "unknown drc target {name} (expected one of {})",
                        drc::TARGETS
                            .iter()
                            .map(|t| t.name)
                            .collect::<Vec<_>>()
                            .join("/")
                    )),
                }
            }
            "--rules" => {
                // The rule catalog, straight from the checker.
                for rule in axi_pack::Rule::ALL {
                    println!("{:8} {}", rule.id(), rule.summary());
                }
                return;
            }
            "--verbose" => verbose = true,
            other => fail(&format!("unknown flag {other} for `drc`")),
        }
    }
    if targets.is_empty() {
        targets = drc::TARGETS.iter().collect();
    }
    let t0 = Instant::now();
    let outcomes = drc::check_targets(&targets, c.scale);
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for t in &targets {
        println!("{} — {}", t.name, t.title);
        for o in outcomes.iter().filter(|o| o.target == t.name) {
            let status = if !o.report.is_clean() {
                "FAIL"
            } else if o.report.warnings().next().is_some() {
                "warn"
            } else {
                "ok"
            };
            println!("  {status:4} {}", o.label);
            errors += o.report.errors().count();
            warnings += o.report.warnings().count();
            for d in &o.report.diagnostics {
                eprintln!("       {d}");
            }
            if verbose && o.report.diagnostics.is_empty() {
                println!("       {}", o.report);
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if errors > 0 {
        fail(&format!(
            "{errors} design-rule error(s), {warnings} warning(s) across {} topologies",
            outcomes.len()
        ));
    }
    println!(
        "figures drc OK: {} topologies clean across {} target(s), {warnings} warning(s) \
         ({elapsed:.2} s)",
        outcomes.len(),
        targets.len()
    );
}

fn split_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

fn parse_kind(s: &str) -> SystemKind {
    match s {
        "base" => SystemKind::Base,
        "pack" => SystemKind::Pack,
        "ideal" => SystemKind::Ideal,
        _ => usage(),
    }
}

fn cmd_sweep(c: &Common) {
    let mut kernels: Vec<String> = Vec::new();
    let mut kinds: Vec<SystemKind> = Vec::new();
    let mut buses: Vec<u32> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut ews: Vec<String> = Vec::new();
    let mut idxs: Vec<String> = Vec::new();
    let mut strides: Vec<i32> = Vec::new();
    let mut banks: Vec<usize> = Vec::new();
    let mut bursts = 1usize;
    let mut fixed = KernelPoint::default();
    let mut it = c.rest.clone().into_iter();
    let parse_list = |v: String| -> Vec<String> { split_list(&v) };
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--kernel" => kernels = parse_list(val()),
            "--backend" => kinds = parse_list(val()).iter().map(|s| parse_kind(s)).collect(),
            "--bus" => {
                buses = parse_list(val())
                    .iter()
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--size" => {
                sizes = parse_list(val())
                    .iter()
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--ew" => ews = parse_list(val()),
            "--idx" => idxs = parse_list(val()),
            "--stride" => {
                strides = parse_list(val())
                    .iter()
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--banks" => {
                banks = parse_list(val())
                    .iter()
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--bursts" => bursts = val().parse().unwrap_or_else(|_| usage()),
            "--nnz" => fixed.nnz = val().parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => fixed.queue_depth = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => fixed.seed = val().parse().unwrap_or_else(|_| usage()),
            "--dataflow" => {
                fixed.dataflow = match val().as_str() {
                    "row" => Dataflow::RowWise,
                    "col" => Dataflow::ColWise,
                    _ => usage(),
                }
            }
            other => fail(&format!("unknown sweep flag {other}")),
        }
    }
    let t0 = Instant::now();
    let table = if !ews.is_empty() {
        if !kernels.is_empty() {
            fail("--kernel and --ew select different sweep families; pick one");
        }
        if !idxs.is_empty() && !strides.is_empty() {
            fail("--idx (indirect grid) and --stride (strided grid) are exclusive; pick one");
        }
        let spec = UtilSweep {
            elems: ews
                .iter()
                .map(|s| parse_elem(s).unwrap_or_else(|e| fail(&e)))
                .collect(),
            idxs: idxs
                .iter()
                .map(|s| parse_idx(s).unwrap_or_else(|e| fail(&e)))
                .collect(),
            strides: if strides.is_empty() && idxs.is_empty() {
                (0..8).collect() // a default handful of strides
            } else {
                strides
            },
            banks: if banks.is_empty() { vec![17] } else { banks },
            bursts,
            seed: fixed.seed,
        };
        util_sweep(&spec)
    } else {
        if kernels.is_empty() {
            fail("sweep needs --kernel (kernel grid) or --ew (utilization grid)");
        }
        let spec = KernelSweep {
            kernels,
            kinds: if kinds.is_empty() {
                vec![SystemKind::Base, SystemKind::Pack]
            } else {
                kinds
            },
            buses: if buses.is_empty() { vec![256] } else { buses },
            sizes: if sizes.is_empty() {
                vec![fixed.size]
            } else {
                sizes
            },
            banks: if banks.is_empty() {
                vec![fixed.banks]
            } else {
                banks
            },
            fixed,
        };
        kernel_sweep(&spec).unwrap_or_else(|e| fail(&e))
    };
    print_tables("Custom sweep", std::slice::from_ref(&table));
    println!(
        "\n[{} points, {:.2} s on {} worker thread(s)]",
        table.rows.len(),
        t0.elapsed().as_secs_f64(),
        simkit::sweep::thread_count(None)
    );
    emit(c, "sweep", &[table]);
}

fn cmd_kernel(c: &Common) {
    let mut p = KernelPoint::default();
    let mut it = c.rest.clone().into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--kernel" => p.kernel = val(),
            "--system" => p.kind = parse_kind(&val()),
            "--bus" => p.bus_bits = val().parse().unwrap_or_else(|_| usage()),
            "--banks" => p.banks = val().parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => p.queue_depth = val().parse().unwrap_or_else(|_| usage()),
            "--size" => p.size = val().parse().unwrap_or_else(|_| usage()),
            "--nnz" => p.nnz = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => p.seed = val().parse().unwrap_or_else(|_| usage()),
            "--mtx" => p.mtx_path = Some(val()),
            "--dataflow" => {
                p.dataflow = match val().as_str() {
                    "row" => Dataflow::RowWise,
                    "col" => Dataflow::ColWise,
                    _ => usage(),
                }
            }
            other => fail(&format!("unknown kernel flag {other}")),
        }
    }
    if !KERNEL_NAMES.contains(&p.kernel.as_str()) {
        fail(&format!(
            "unknown kernel {} (expected one of {})",
            p.kernel,
            KERNEL_NAMES.join("/")
        ));
    }
    let (cfg, kernel) = p.build().unwrap_or_else(|e| fail(&e));
    match axi_pack::run_kernel(&cfg, &kernel) {
        Ok(report) => {
            println!("{report}");
            println!(
                "  bank conflicts: {}, useful bytes: {}, energy: {:.2} uJ",
                report.bank_conflicts, kernel.useful_bytes, report.energy_uj
            );
            println!("  functional result verified against the scalar reference");
        }
        Err(e) => fail(&format!("run failed: {e}")),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let sub = args.remove(0);
    let c = parse_common(args);
    // One tested dispatch table (axi_pack_bench::cli) decides what a name
    // means; anything unknown fails loudly with a non-zero exit.
    match resolve(&sub) {
        Dispatch::List => {
            if let Some(stray) = c.rest.first() {
                fail(&format!("unknown flag {stray} for `list`"));
            }
            for f in figures::FIGURES {
                println!("{:10} {}", f.name, f.title);
            }
            println!("{:10} everything -> EXPERIMENTS.md + CSV/JSON", "all");
            println!("{:10} perf baseline -> BENCH_hotpath.json", "bench");
            println!("{:10} ad-hoc cartesian sweep", "sweep");
            println!("{:10} one kernel, full report", "kernel");
            println!("{:10} randomized differential engine", "fuzz");
            println!("{:10} differential fuzzing under injected faults", "chaos");
            println!("{:10} static design-rule check of the in-tree grids", "drc");
        }
        Dispatch::All => cmd_all(&c),
        Dispatch::Bench => cmd_bench(&c),
        Dispatch::Sweep => cmd_sweep(&c),
        Dispatch::Kernel => cmd_kernel(&c),
        Dispatch::Fuzz => cmd_fuzz(&c),
        Dispatch::Chaos => cmd_chaos(&c),
        Dispatch::Drc => cmd_drc(&c),
        Dispatch::Figure(fig) => cmd_figure(fig, &c),
        Dispatch::Unknown => {
            eprintln!(
                "figures: unknown subcommand `{sub}` (run `figures list` for the families)\n"
            );
            usage();
        }
    }
}
