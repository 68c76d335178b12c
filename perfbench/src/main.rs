//! `perfbench` — the repository benchmark of the AXI-Pack simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --write-pins
//! ```
//!
//! One process runs one workload on one thread, release build, with no
//! result cache installed. `--trace 0` repeats untraced passes (set-up
//! plus every run) for `--seconds` and reports the end-to-end metrics;
//! `--trace 1` alternates untraced passes with traced ones and the
//! stepped component twin, and reports the per-layer metrics. Every run
//! is verified; the last stdout line is the JSON result. See README.md.

mod metrics;
mod pins;
mod suite;
mod trace;
mod twin;

use std::time::{Duration, Instant};

use axi_pack::{drc, RunProbe};
use vproc::SystemKind;

use metrics::{median, metric, Metric};
use pins::Fingerprint;
use suite::{Job, Outcome, SharedReference, Workload, DEFAULT_SEED, KINDS};
use trace::Tracer;
use twin::{LayerClock, TwinExtras};

/// Set-up-only rounds after every pass, so `setup_s` is sampled across the
/// whole run rather than in one burst.
const EXTRA_SETUPS_PER_PASS: usize = 2;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => v.replace('_', "").parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::StridedSolo,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        write_pins: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            args.write_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    args.workload =
        workload.ok_or_else(|| format!("--workload is required: {}", names.join(", ")))?;
    Ok(args)
}

/// Attempted and failed runs; the first failures are printed to stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED: {e}");
            }
        }
    }
}

/// Checks every run against the expected fingerprints: the pins at the
/// default seed, otherwise the first pass of this process (so every pass
/// must repeat the first bit for bit).
struct Checker {
    wl: Workload,
    seed: u64,
    expected: Option<Vec<Fingerprint>>,
    tally: Tally,
}

impl Checker {
    fn new(wl: Workload, seed: u64) -> Result<Self, String> {
        let expected = (seed == DEFAULT_SEED)
            .then(|| pins::parse_pins(pins::pinned_text(wl)))
            .transpose()?;
        Ok(Checker {
            wl,
            seed,
            expected,
            tally: Tally::default(),
        })
    }

    fn check_pass(&mut self, jobs: &[Job], results: &[Result<Outcome, String>]) {
        let fps: Vec<Option<Fingerprint>> = jobs
            .iter()
            .zip(results)
            .map(|(job, res)| res.as_ref().ok().map(|o| Fingerprint::of(&job.label, o)))
            .collect();
        for ((job, res), fp) in jobs.iter().zip(results).zip(&fps) {
            let verdict = match (res, fp) {
                (Err(e), _) => Err(e.clone()),
                (Ok(out), Some(fp)) => self.check_run(job, out, fp),
                (Ok(_), None) => unreachable!("fingerprints exist for every outcome"),
            };
            self.tally.record(verdict);
        }
        if self.expected.is_none() {
            self.expected = Some(fps.into_iter().flatten().collect());
        }
    }

    fn check_run(&self, job: &Job, out: &Outcome, fp: &Fingerprint) -> Result<(), String> {
        if self.seed == DEFAULT_SEED {
            if let Some(doc) = pins::documented_cycles(self.wl, job.kernel, job.kind) {
                if doc != out.cycles {
                    return Err(format!(
                        "{}: {} cycles, EXPERIMENTS.md records {doc}",
                        job.label, out.cycles
                    ));
                }
            }
        }
        let Some(expected) = &self.expected else {
            return Ok(());
        };
        match expected.iter().find(|e| e.label == job.label) {
            Some(e) if e == fp => Ok(()),
            Some(e) => Err(format!(
                "fingerprint drift:\n  want {}\n  got  {}",
                e.line(),
                fp.line()
            )),
            None => Err(format!("{}: no pinned fingerprint", job.label)),
        }
    }
}

/// One untraced pass: set-up, then every run.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// Host seconds of each run, in job order.
    job_s: Vec<f64>,
}

fn untraced_pass(
    wl: Workload,
    seed: u64,
    checker: &mut Checker,
) -> Result<(Pass, Vec<Job>, Vec<Outcome>), String> {
    let t0 = Instant::now();
    let jobs = suite::setup(wl, seed, &mut Tracer::off())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut job_s = Vec::with_capacity(jobs.len());
    let mut results = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let t = Instant::now();
        let res = suite::run(job);
        job_s.push(t.elapsed().as_secs_f64());
        results.push(res);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    checker.check_pass(&jobs, &results);
    let outcomes: Vec<Outcome> = results.into_iter().flatten().collect();
    let pass = Pass {
        setup_s,
        wall_s,
        job_s,
    };
    Ok((pass, jobs, outcomes))
}

fn host_context(args: &Args, passes: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let cache = if axi_pack::cache::active().is_some() {
        "on"
    } else {
        "off"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host_cores\": {cores}, \"sim_threads\": 1, \
         \"build_profile\": \"{profile}\", \"result_cache\": \"{cache}\", \"passes\": {passes}}}",
        args.workload.name(),
        args.seed
    )
}

/// Prints the metrics, the context line and the result line; the exit
/// code is 0 only for a correct run.
fn finish(args: &Args, passes: usize, tally: &Tally, extra_ok: bool, metrics: &[Metric]) -> i32 {
    let finite = metrics
        .iter()
        .all(|m| m.value.is_finite() && metrics::valid_name(&m.name));
    let correct = tally.failed == 0 && extra_ok && finite && tally.attempted > 0;
    for m in metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<32} {:>18.6} fraction ({} of {} runs failed)",
        "run_fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("context {}", host_context(args, passes));
    println!(
        "{}",
        metrics::result_json(correct, tally.attempted.max(1), tally.failed, metrics)
    );
    i32::from(!correct)
}

/// `--trace 0`: repeated untraced passes until the time is up.
///
/// Co-tenant load on a shared host slows whole seconds, even most of a
/// run, by up to a fifth, and it only ever slows a sample down. Host times
/// are therefore each run's fastest time across passes: `wall_s` is the
/// median set-up time plus every run's fastest time, and
/// `sim_cycles_per_s` divides the pass's simulated cycles by that run time.
fn end_to_end(args: &Args) -> Result<i32, String> {
    let wl = args.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut checker = Checker::new(wl, args.seed)?;
    let reference = shared_reference(wl, args.seed, &mut checker.tally);
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<(Vec<Job>, Vec<Outcome>)> = None;
    while passes.is_empty() || Instant::now() < deadline {
        let (pass, jobs, outcomes) = untraced_pass(wl, args.seed, &mut checker)?;
        setups.push(pass.setup_s);
        for _ in 0..EXTRA_SETUPS_PER_PASS {
            let t = Instant::now();
            std::hint::black_box(suite::setup(wl, args.seed, &mut Tracer::off())?);
            setups.push(t.elapsed().as_secs_f64());
        }
        passes.push(pass);
        first.get_or_insert((jobs, outcomes));
    }
    let setup_s = median(&setups);
    let run_s: f64 = (0..passes[0].job_s.len())
        .map(|j| {
            passes
                .iter()
                .map(|p| p.job_s[j])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let (jobs, outcomes) = first.expect("at least one pass ran");
    let sim_cycles: u64 = outcomes.iter().map(|o| o.cycles).sum();
    let rss = metrics::peak_rss_mb().ok_or("the host reports no peak RSS")?;
    let mut out = host_metrics(setup_s, run_s, sim_cycles, rss);
    let complete = outcomes.len() == jobs.len() && (wl.is_solo() || reference.is_some());
    if complete {
        let runs: Vec<(&str, SystemKind, Outcome)> = jobs
            .iter()
            .zip(outcomes)
            .map(|(j, o)| (j.kernel, j.kind, o))
            .collect();
        out.extend(metrics::fidelity(wl, &runs, reference.as_ref()));
    }
    Ok(finish(args, passes.len(), &checker.tally, complete, &out))
}

/// The host-side end-to-end metrics.
fn host_metrics(setup_s: f64, run_s: f64, sim_cycles: u64, rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", "s", setup_s + run_s),
        metric("sim_cycles_per_s", "cycles/s", sim_cycles as f64 / run_s),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MB", rss_mb),
    ]
}

/// The shared workloads' reference runs; a failure counts as a failed run.
fn shared_reference(wl: Workload, seed: u64, tally: &mut Tally) -> Option<SharedReference> {
    if wl.is_solo() {
        return None;
    }
    match suite::shared_reference(wl, seed) {
        Ok(r) => {
            tally.record(Ok(()));
            Some(r)
        }
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

/// What one traced pass and its twin measured.
struct TracedPass {
    wall_s: f64,
    workloads_s: f64,
    system_build_s: f64,
    run_s: f64,
    req_cycles: u64,
    drc_s: f64,
    clock: LayerClock,
    runs: Vec<(SystemKind, Outcome, RunProbe)>,
    twins: Vec<(SystemKind, TwinExtras)>,
    violations: u64,
}

fn count_violations(p: &RunProbe) -> u64 {
    p.monitors
        .iter()
        .chain(&p.downstream)
        .chain(&p.roots)
        .map(|m| m.violations().len() as u64 + u64::from(!m.quiescent()))
        .sum()
}

/// One traced pass: set-up and probed runs under spans, then a separate
/// DRC call per topology, then the stepped twin.
fn traced_pass(
    wl: Workload,
    seed: u64,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Result<TracedPass, String> {
    let from = tr.spans().len();
    let t0 = Instant::now();
    let (jobs, results) = tr.span("pass", wl.name(), |tr| -> Result<_, String> {
        let jobs = suite::setup(wl, seed, tr)?;
        let results: Vec<Result<(Outcome, RunProbe), String>> = jobs
            .iter()
            .map(|job| {
                tr.span("system.run", &job.label, |_| {
                    let mut probe = RunProbe::default();
                    suite::run_probed(job, &mut probe).map(|o| (o, probe))
                })
            })
            .collect();
        Ok((jobs, results))
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let outcomes: Vec<Result<Outcome, String>> = results
        .iter()
        .map(|r| r.as_ref().map(|(o, _)| o.clone()).map_err(Clone::clone))
        .collect();
    checker.check_pass(&jobs, &outcomes);
    let runs: Vec<(SystemKind, Outcome, RunProbe)> = jobs
        .iter()
        .zip(results)
        .filter_map(|(job, r)| r.ok().map(|(o, p)| (job.kind, o, p)))
        .collect();
    let mut violations = 0;
    for (_, _, probe) in &runs {
        violations += count_violations(probe);
        if let Some(v) = probe.violation_summary() {
            eprintln!("FAILED: protocol violations: {v}");
        }
    }

    for job in &jobs {
        tr.span("drc", &job.label, |_| {
            let report = match &job.topo.requestors[..] {
                [r] => drc::check_single(&job.topo.system, r.kind, &r.kernel),
                _ => drc::check_topology(&job.topo),
            };
            std::hint::black_box(report.is_clean())
        });
    }

    let mut clock = LayerClock::default();
    let mut twins = Vec::new();
    tr.span("twin", wl.name(), |tr| {
        for (kernel_label, cfg, kernel, want) in twin_targets(wl, seed, &jobs, &runs, checker) {
            let res = tr.span("twin.run", &kernel_label, |_| {
                twin::run(&cfg, &kernel, &mut clock)
            });
            let verdict = res.and_then(|(got, extras)| {
                let (report, digest, sched) = &want;
                if let Some(d) = twin::same_report(&got, report) {
                    return Err(format!("{kernel_label}: twin differs from run_kernel: {d}"));
                }
                if Some(extras.digest) != *digest || extras.sched != *sched {
                    return Err(format!(
                        "{kernel_label}: twin storage digest or skip counts differ"
                    ));
                }
                twins.push((cfg.kind, extras));
                Ok(())
            });
            checker.tally.record(verdict);
        }
    });
    let req_cycles = runs
        .iter()
        .map(|(_, o, _)| o.cycles * o.reqs.len() as u64)
        .sum();
    Ok(TracedPass {
        wall_s,
        workloads_s: tr.layer_s("workloads", from),
        system_build_s: tr.layer_s("system.build", from),
        run_s: tr.layer_s("system.run", from),
        req_cycles,
        drc_s: tr.layer_s("drc", from),
        clock,
        runs,
        twins,
        violations,
    })
}

/// What the twin must reproduce: a `run_kernel_probed` report, storage
/// digest and skip counts.
type TwinWant = (axi_pack::RunReport, Option<u64>, axi_pack::SchedProbe);

/// The twin's runs: every solo job against its probed run, or each
/// distinct slot kernel of a shared workload on all three systems against
/// a fresh `run_kernel_probed` (counted as an attempted run).
fn twin_targets(
    wl: Workload,
    seed: u64,
    jobs: &[Job],
    runs: &[(SystemKind, Outcome, RunProbe)],
    checker: &mut Checker,
) -> Vec<(String, axi_pack::SystemConfig, workloads::Kernel, TwinWant)> {
    if wl.is_solo() {
        if runs.len() != jobs.len() {
            // A failed run already fails the pass; nothing lines up to compare.
            return Vec::new();
        }
        return jobs
            .iter()
            .zip(runs)
            .map(|(job, (_, out, probe))| {
                let want = (out.reqs[0].clone(), probe.storage_digest, probe.sched);
                let r = &job.topo.requestors[0];
                (job.label.clone(), job.topo.system, r.kernel.clone(), want)
            })
            .collect();
    }
    let mut out = Vec::new();
    for &(slot, name) in suite::distinct_slots(wl) {
        for kind in KINDS {
            let cfg = suite::system_config(wl, kind);
            let kernel = suite::slot_kernel(wl, slot, kind, seed);
            let mut probe = RunProbe::default();
            let label = format!("{name}/{kind}");
            match axi_pack::run_kernel_probed(&cfg, &kernel, &mut probe) {
                Ok(report) => {
                    checker.tally.record(Ok(()));
                    out.push((
                        label,
                        cfg,
                        kernel,
                        (report, probe.storage_digest, probe.sched),
                    ));
                }
                Err(e) => checker.tally.record(Err(format!("{label} solo: {e}"))),
            }
        }
    }
    out
}

/// `--trace 1`: untraced and traced passes alternate until the time is
/// up; per-layer metrics are medians over the traced passes.
fn per_layer(args: &Args) -> Result<i32, String> {
    let wl = args.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut checker = Checker::new(wl, args.seed)?;
    let mut tr = Tracer::on();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.is_empty() || Instant::now() < deadline {
        plain.push(untraced_pass(wl, args.seed, &mut checker)?.0.wall_s);
        traced.push(traced_pass(wl, args.seed, &mut tr, &mut checker)?);
    }
    let trace_ok = traced.iter().all(|t| t.violations == 0);
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-{}.json", wl.name(), args.seed);
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {} spans to {path}", tr.spans().len());
    let out = layer_metrics(&plain, &traced);
    Ok(finish(args, traced.len(), &checker.tally, trace_ok, &out))
}

/// The per-layer metrics: host times are medians over the traced passes,
/// simulated counts come from the last one (they repeat exactly).
fn layer_metrics(plain: &[f64], traced: &[TracedPass]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let per_cycle = |f: fn(&LayerClock) -> u64| {
        move |t: &TracedPass| f(&t.clock) as f64 / t.clock.cycles.max(1) as f64
    };
    let mut out = vec![
        metric("workloads.build_s", "s", med(&|t| t.workloads_s)),
        metric("system.build_s", "s", med(&|t| t.system_build_s)),
        metric("drc.check_s", "s", med(&|t| t.drc_s)),
        metric("system.run_s", "s", med(&|t| t.run_s)),
        metric(
            "system.ns_per_req_cycle",
            "ns/cycle",
            med(&|t| t.run_s * 1e9 / t.req_cycles.max(1) as f64),
        ),
        metric("vproc.tick_ns", "ns/cycle", med(&per_cycle(|c| c.vproc_ns))),
        metric("ctrl.tick_ns", "ns/cycle", med(&per_cycle(|c| c.ctrl_ns))),
        metric(
            "axi.end_cycle_ns",
            "ns/cycle",
            med(&per_cycle(|c| c.axi_ns)),
        ),
        metric("sched.skip_ns", "ns/cycle", med(&per_cycle(|c| c.sched_ns))),
        metric("system.loop_ns", "ns/cycle", med(&per_cycle(|c| c.loop_ns))),
    ];
    let last = traced.last().expect("at least one traced pass");
    for kind in [SystemKind::Base, SystemKind::Pack] {
        let k = kind.to_string();
        let runs: Vec<&(SystemKind, Outcome, RunProbe)> =
            last.runs.iter().filter(|(w, _, _)| *w == kind).collect();
        let sum = |f: &dyn Fn(&Outcome, &RunProbe) -> f64| -> f64 {
            runs.iter().map(|(_, o, p)| f(o, p)).sum()
        };
        let reqs = |f: fn(&axi_pack::RunReport) -> u64| {
            sum(&|o, _| o.reqs.iter().map(f).sum::<u64>() as f64)
        };
        let twin = |f: fn(&TwinExtras) -> u64| {
            last.twins
                .iter()
                .filter(|(w, _)| *w == kind)
                .map(|(_, e)| f(e) as f64)
                .sum::<f64>()
        };
        let cycles = sum(&|o, _| o.cycles as f64);
        let accesses = sum(&|o, _| o.word_accesses as f64);
        let conflicts = sum(&|o, _| o.bank_conflicts as f64);
        out.extend([
            metric(
                format!("sched.skipped_frac.{k}"),
                "fraction",
                sum(&|_, p| p.sched.skipped_cycles as f64) / cycles,
            ),
            metric(
                format!("sched.skip_spans.{k}"),
                "count",
                sum(&|_, p| p.sched.skip_spans as f64),
            ),
            metric(
                format!("vproc.insns_issued.{k}"),
                "count",
                reqs(|r| r.activity.insns_issued),
            ),
            metric(
                format!("vproc.lane_elems.{k}"),
                "count",
                reqs(|r| r.activity.lane_elems),
            ),
            metric(
                format!("axi.r_busy.{k}"),
                "fraction",
                sum(&|o, _| o.bus_r_busy) / runs.len() as f64,
            ),
            metric(
                format!("axi.r_payload_mb.{k}"),
                "MB",
                reqs(|r| r.activity.r_payload_bytes) / 1e6,
            ),
            metric(
                format!("axi.ar_stall_cycles.{k}"),
                "cycles",
                reqs(|r| r.ar_stall_cycles),
            ),
            metric(
                format!("axi.w_stall_cycles.{k}"),
                "cycles",
                reqs(|r| r.w_stall_cycles),
            ),
        ]);
        for level in 0..3 {
            let beats = |f: fn(&axi_pack::LevelOccupancy) -> u64| {
                sum(&|o, _| o.levels.get(level).map_or(0, f) as f64)
            };
            out.push(metric(
                format!("mux.l{level}.ar_beats.{k}"),
                "count",
                beats(|l| l.ar_beats),
            ));
            out.push(metric(
                format!("mux.l{level}.r_beats.{k}"),
                "count",
                beats(|l| l.r_beats),
            ));
        }
        out.extend([
            metric(format!("mem.word_accesses.{k}"), "count", accesses),
            metric(format!("mem.bank_conflicts.{k}"), "count", conflicts),
            metric(
                format!("mem.conflicts_per_kaccess.{k}"),
                "1/kaccess",
                1e3 * conflicts / accesses.max(1.0),
            ),
            metric(format!("ctrl.r_beats.{k}"), "count", twin(|e| e.r_beats)),
            metric(
                format!("ctrl.word_reads.{k}"),
                "count",
                twin(|e| e.word_reads),
            ),
            metric(
                format!("ctrl.word_writes.{k}"),
                "count",
                twin(|e| e.word_writes),
            ),
            metric(
                format!("hwmodel.energy_uj.{k}"),
                "uJ",
                sum(&|o, _| o.energy_uj()),
            ),
        ]);
    }
    let all_reqs = |f: fn(&axi_pack::RunReport) -> u64| -> f64 {
        last.runs
            .iter()
            .flat_map(|(_, o, _)| &o.reqs)
            .map(|r| f(r) as f64)
            .sum()
    };
    out.extend([
        metric("fault.injected", "count", all_reqs(|r| r.injected_faults)),
        metric("fault.retries", "count", all_reqs(|r| r.fault_retries)),
        metric("axi.violations", "count", last.violations as f64),
        metric("trace.overhead", "fraction", trace_overhead(plain, traced)),
    ]);
    out
}

/// Median over iterations of traced pass / the untraced pass just before
/// it − 1: adjacent passes share the host's load, so pairing them keeps
/// host drift out of the ratio.
fn trace_overhead(plain: &[f64], traced: &[TracedPass]) -> f64 {
    let ratios: Vec<f64> = plain
        .iter()
        .zip(traced)
        .map(|(p, t)| t.wall_s / p - 1.0)
        .collect();
    median(&ratios)
}

/// `--write-pins`: one pass at the default seed, written to the pin file.
fn write_pins(wl: Workload) -> Result<i32, String> {
    let jobs = suite::setup(wl, DEFAULT_SEED, &mut Tracer::off())?;
    let mut fps = Vec::new();
    for job in &jobs {
        let out = suite::run(job)?;
        fps.push(Fingerprint::of(&job.label, &out));
    }
    let path = format!("{}/pins/{}.txt", env!("CARGO_MANIFEST_DIR"), wl.name());
    std::fs::write(&path, pins::render_pins(wl, &fps)).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {} fingerprints to {path}", fps.len());
    Ok(0)
}

fn main() {
    let code = parse_args().and_then(|args| {
        if args.write_pins {
            write_pins(args.workload)
        } else if args.trace {
            per_layer(&args)
        } else {
            end_to_end(&args)
        }
    });
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let rest = &line
                [line.find(&format!("\"{key}\": \"")).expect("field exists") + key.len() + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn emitted(metrics: Vec<Metric>) -> Vec<(String, String)> {
        for m in &metrics {
            assert!(
                metrics::valid_name(&m.name),
                "{} is not a legal name",
                m.name
            );
        }
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    }

    fn dummy_outcome() -> Outcome {
        Outcome {
            cycles: 100,
            reqs: Vec::new(),
            bank_conflicts: 0,
            word_accesses: 0,
            bus_r_util: 0.5,
            bus_r_busy: 0.5,
            levels: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_metrics_match_the_benchmark_file() {
        let runs: Vec<(&str, SystemKind, Outcome)> = Workload::StridedSolo
            .solo_kernels()
            .iter()
            .flat_map(|&k| KINDS.map(|kind| (k, kind, dummy_outcome())))
            .collect();
        let mut out = host_metrics(1.0, 1.0, 1, 1.0);
        out.extend(metrics::fidelity(Workload::StridedSolo, &runs, None));
        assert_eq!(emitted(out), listed("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_match_the_benchmark_file() {
        let traced = TracedPass {
            wall_s: 1.0,
            workloads_s: 0.0,
            system_build_s: 0.0,
            run_s: 0.0,
            req_cycles: 0,
            drc_s: 0.0,
            clock: LayerClock::default(),
            runs: Vec::new(),
            twins: Vec::new(),
            violations: 0,
        };
        assert_eq!(
            emitted(layer_metrics(&[1.0], &[traced])),
            listed("per_layer")
        );
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0xDA7E_2023"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("-1"), None);
    }
}
