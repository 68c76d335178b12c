//! Deterministic fault injection and hang forensics.
//!
//! A production-scale simulator has to model the *error half* of the
//! protocols it reproduces: slave errors, decode errors, arbiter
//! pathologies, and memory-port latency spikes. This module provides the
//! substrate the hardware models build on:
//!
//! * [`FaultSpec`] — a tiny `Copy` configuration (seed + per-site mean
//!   periods) that callers place in their run configuration. With no spec
//!   installed every fault hook is a single branch on `None`, so the
//!   fault-free hot path is unchanged (gated by the `fault_overhead` bench
//!   probe).
//! * [`SiteSchedule`] — the per-injection-site event stream expanded from
//!   the spec. Events are keyed on **operation ordinals** (the n-th access,
//!   grant, or beat at that site), *never* on wall-clock cycles. Ordinals
//!   are identical under both event-driven and lockstep scheduling, which
//!   is what makes an injected run replayable bit-for-bit under either
//!   `SchedMode`.
//! * [`FaultReport`] — the typed abort record produced when recovery (a
//!   bounded retry budget in the AXI adapter) is exhausted: it names the
//!   site, the burst, and the retry history.
//! * [`HangReport`] — the forensics snapshot produced by the progress
//!   watchdog when a run stops making progress (or exceeds its cycle
//!   budget): per-component quiescence, FIFO occupancies, and a computed
//!   suspect naming the stalled dependency chain.
//!
//! The site registry is the set of [`site`] constants; each names one
//! place in the model where the schedule is consulted. To add a site, pick
//! a fresh constant (any unique u64 tag), derive a [`SiteSchedule`] from
//! the spec with that tag, and consult [`SiteSchedule::fires`] once per
//! operation at the new site.

/// Named injection sites. Each constant is both the display name and the
/// seed-domain separator for that site's event stream: two sites fed from
/// the same [`FaultSpec`] seed draw from independent splitmix64 streams.
pub mod site {
    /// Bank word-access errors in `banked-mem` (transient SLVERR).
    pub const BANK_ACCESS: (&str, u64) = ("bank-access", 0xFA01);
    /// Persistent bank failure in `banked-mem` (a chosen bank starts
    /// failing at a scheduled ordinal and never recovers).
    pub const BANK_PERSISTENT: (&str, u64) = ("bank-persistent", 0xFA02);
    /// Latency spikes on the bank ports (grants suppressed for a span).
    pub const BANK_DELAY: (&str, u64) = ("bank-delay", 0xFA03);
    /// Grant-delay storms in the `AxiMux` AR arbiter.
    pub const MUX_AR_GRANT: (&str, u64) = ("mux-ar-grant", 0xFA04);
    /// Grant-delay storms in the `AxiMux` AW arbiter.
    pub const MUX_AW_GRANT: (&str, u64) = ("mux-aw-grant", 0xFA05);
    /// Decode errors for out-of-window addresses (structural, not
    /// scheduled: any access past the end of backing storage raises
    /// DECERR whether or not a plan is installed).
    pub const DECODE: (&str, u64) = ("decode", 0xFA06);
}

/// splitmix64 — the workspace-wide seeding convention (identical to the
/// generator in `workloads::synth`, duplicated here so the base crate
/// stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Fault-injection configuration: the seed plus per-site mean periods.
///
/// A period of 0 disables that site entirely. Periods are *mean* ordinal
/// gaps: the schedule draws each inter-fault gap uniformly from
/// `1..=2*period`, so a period of 50 injects a fault roughly every 50
/// operations at that site.
///
/// `Copy` on purpose — this rides inside run configurations that are
/// themselves `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Root seed; each site derives an independent splitmix64 stream from
    /// `seed ^ site_tag`.
    pub seed: u64,
    /// Mean period (in bank word accesses) between transient bank errors.
    pub bank_error_period: u32,
    /// When `true`, one bank (chosen from the seed) fails persistently
    /// starting at a scheduled access ordinal: every access it serves from
    /// then on raises SLVERR, so retries cannot recover and the requestor
    /// aborts with a typed [`FaultReport`].
    pub persistent_bank: bool,
    /// Mean period (in grant rounds with pending work) between bank-port
    /// latency spikes.
    pub bank_delay_period: u32,
    /// Length of each bank-port latency spike, in stalled grant rounds.
    pub bank_delay_len: u32,
    /// Mean period (in mux grants) between grant-delay storms.
    pub grant_storm_period: u32,
    /// Length of each grant-delay storm, in suppressed arbitration rounds.
    pub grant_storm_len: u32,
    /// Retry budget: total transient-error retries the adapter may spend
    /// across the whole run before aborting the requestor.
    pub retry_budget: u32,
}

impl FaultSpec {
    /// A transient-only profile: bank errors plus mild storms and spikes,
    /// generous retry budget — the "recoverable chaos" profile used by
    /// corpus replay. Runs under this spec either finish bit-identical to
    /// their fault-free digest or abort with a typed error.
    pub fn transient(seed: u64) -> Self {
        FaultSpec {
            seed,
            bank_error_period: 200,
            persistent_bank: false,
            bank_delay_period: 400,
            bank_delay_len: 12,
            grant_storm_period: 300,
            grant_storm_len: 8,
            retry_budget: 4096,
        }
    }

    /// A profile with everything off. Installing it arms every hook
    /// (schedules exist but never fire) without changing behaviour —
    /// exactly what the `fault_overhead` bench probe measures.
    pub fn silent(seed: u64) -> Self {
        FaultSpec {
            seed,
            bank_error_period: 0,
            persistent_bank: false,
            bank_delay_period: 0,
            bank_delay_len: 0,
            grant_storm_period: 0,
            grant_storm_len: 0,
            retry_budget: 0,
        }
    }

    /// Derives the site schedule for `site` (a `(name, tag)` pair from
    /// [`site`]) with the given mean period.
    pub fn schedule(&self, site: (&'static str, u64), mean_period: u32) -> SiteSchedule {
        SiteSchedule::new(self.seed ^ site.1, mean_period)
    }
}

/// One injection site's deterministic event stream.
///
/// The schedule is a countdown over *operation ordinals*: each call to
/// [`fires`](SiteSchedule::fires) accounts one operation at the site and
/// returns whether a fault lands on it. Gaps between faults are drawn
/// uniformly from `1..=2*mean` so the long-run rate is one fault per
/// `mean + 0.5` operations. Allocation-free and O(1) per call, so it is
/// safe inside `simcheck` hot-path regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSchedule {
    rng: SplitMix64,
    /// Operations remaining until the next fault; `u64::MAX` = disabled.
    countdown: u64,
    mean: u32,
    fired: u64,
}

impl SiteSchedule {
    /// Builds a schedule from a derived seed and a mean ordinal period
    /// (0 disables the site).
    pub fn new(seed: u64, mean: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let countdown = if mean == 0 {
            u64::MAX
        } else {
            1 + rng.next_u64() % (2 * mean as u64)
        };
        SiteSchedule {
            rng,
            countdown,
            mean,
            fired: 0,
        }
    }

    /// Accounts one operation at this site; returns `true` when a fault
    /// lands on it and re-arms the countdown for the next one.
    #[inline]
    pub fn fires(&mut self) -> bool {
        if self.countdown > 1 {
            self.countdown -= 1;
            return false;
        }
        if self.mean == 0 {
            return false;
        }
        self.countdown = 1 + self.rng.next_u64() % (2 * self.mean as u64);
        self.fired += 1;
        true
    }

    /// Number of faults this schedule has injected so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Draws one raw value from the site's stream (used for one-shot
    /// decisions such as picking the persistently-failing bank).
    pub fn draw(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// Typed abort record for an unrecoverable AXI fault: produced when the
/// adapter's retry budget is exhausted or a decode error (never
/// retryable) reaches a requestor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Injection-site name (from [`site`]) that produced the killing fault.
    pub site: &'static str,
    /// Requestor index in the topology (0 for single-requestor runs).
    pub requestor: usize,
    /// AXI transaction id of the aborted burst, as seen downstream of the
    /// fabric (prefixed with each mux level's manager index in
    /// multi-requestor topologies).
    pub axi_id: u16,
    /// Response class that reached the requestor: `"SLVERR"` or `"DECERR"`.
    pub resp: &'static str,
    /// Whether the aborted burst was a write.
    pub is_write: bool,
    /// Word address of the access that exhausted recovery.
    pub word_addr: u64,
    /// Retries spent on this run before the abort.
    pub retries_spent: u64,
    /// The configured retry budget.
    pub retry_budget: u32,
    /// Total faults injected across the run up to the abort.
    pub injected_faults: u64,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requestor {} aborted: {} at site '{}' on {} burst id {} (word addr {:#x}); \
             {} of {} retries spent, {} faults injected",
            self.requestor,
            self.resp,
            self.site,
            if self.is_write { "write" } else { "read" },
            self.axi_id,
            self.word_addr,
            self.retries_spent,
            self.retry_budget,
            self.injected_faults,
        )
    }
}

/// One component's state snapshot inside a [`HangReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangComponent {
    /// Component path, e.g. `"requestor 0 engine"` or `"channels.r"`.
    pub name: String,
    /// Human-readable state: quiescence, occupancy, wake condition.
    pub state: String,
    /// Whether this component still holds or awaits work.
    pub busy: bool,
}

/// Forensics snapshot produced when a run hangs: either the progress
/// watchdog saw no counter advance for a full window, or the hard
/// `max_cycles` budget ran out. Replaces the bare
/// `"exceeded N cycles"` string with enough state to name the stalled
/// dependency chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Cycle at which the run was declared hung.
    pub cycle: u64,
    /// The budget that was exceeded: `max_cycles` for hard overruns, the
    /// watchdog window for no-progress detections.
    pub limit: u64,
    /// `true` when the progress watchdog fired (no counter moved for the
    /// whole window); `false` for a hard `max_cycles` overrun.
    pub no_progress: bool,
    /// What was running, e.g. a kernel name or `"topology of 3 requestors"`.
    pub subject: String,
    /// Per-component snapshots, in dependency order (engines → channels →
    /// mux → adapter → banks).
    pub components: Vec<HangComponent>,
    /// The computed suspect: the deepest busy component in the dependency
    /// chain, i.e. the thing everything else is waiting on.
    pub suspect: String,
}

impl std::fmt::Display for HangReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The leading clause keeps the historical "<subject>: exceeded N
        // cycles" shape so substring checks on old messages still match.
        if self.no_progress {
            write!(
                f,
                "{}: no progress for {} cycles (hung at cycle {})",
                self.subject, self.limit, self.cycle
            )?;
        } else {
            write!(f, "{}: exceeded {} cycles", self.subject, self.limit)?;
        }
        write!(f, "; suspect: {}", self.suspect)?;
        for c in &self.components {
            let mark = if c.busy { "busy" } else { "idle" };
            write!(f, "\n  [{mark}] {}: {}", c.name, c.state)?;
        }
        Ok(())
    }
}

impl HangReport {
    /// The components still holding or awaiting work.
    pub fn busy_components(&self) -> impl Iterator<Item = &HangComponent> {
        self.components.iter().filter(|c| c.busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_schedule_never_fires() {
        let mut s = SiteSchedule::new(42, 0);
        for _ in 0..10_000 {
            assert!(!s.fires());
        }
        assert_eq!(s.fired(), 0);
    }

    #[test]
    fn schedule_rate_tracks_mean_period() {
        let mut s = SiteSchedule::new(7, 50);
        let mut hits = 0u64;
        for _ in 0..100_000 {
            if s.fires() {
                hits += 1;
            }
        }
        // Mean gap is (1 + 2*50)/2 = 50.5 ops; expect ~1980 hits.
        assert!((1500..2500).contains(&hits), "hits = {hits}");
        assert_eq!(s.fired(), hits);
    }

    #[test]
    fn schedule_is_deterministic_and_ordinal_keyed() {
        let a: Vec<bool> = {
            let mut s = SiteSchedule::new(99, 10);
            (0..1000).map(|_| s.fires()).collect()
        };
        let b: Vec<bool> = {
            let mut s = SiteSchedule::new(99, 10);
            (0..1000).map(|_| s.fires()).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f));
    }

    #[test]
    fn sites_draw_independent_streams() {
        let spec = FaultSpec::transient(1234);
        let mut a = spec.schedule(site::BANK_ACCESS, 10);
        let mut b = spec.schedule(site::MUX_AR_GRANT, 10);
        let fa: Vec<bool> = (0..200).map(|_| a.fires()).collect();
        let fb: Vec<bool> = (0..200).map(|_| b.fires()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn silent_spec_arms_nothing() {
        let spec = FaultSpec::silent(5);
        let mut s = spec.schedule(site::BANK_ACCESS, spec.bank_error_period);
        for _ in 0..1000 {
            assert!(!s.fires());
        }
    }

    #[test]
    fn reports_render_site_and_retry_history() {
        let fr = FaultReport {
            site: site::BANK_ACCESS.0,
            requestor: 2,
            axi_id: 5,
            resp: "SLVERR",
            is_write: false,
            word_addr: 0x40,
            retries_spent: 9,
            retry_budget: 8,
            injected_faults: 11,
        };
        let s = fr.to_string();
        assert!(s.contains("bank-access"));
        assert!(s.contains("requestor 2"));
        assert!(s.contains("9 of 8 retries"));

        let hr = HangReport {
            cycle: 123,
            limit: 100,
            no_progress: true,
            subject: "ismt".into(),
            components: vec![HangComponent {
                name: "adapter".into(),
                state: "3 jobs queued".into(),
                busy: true,
            }],
            suspect: "adapter".into(),
        };
        let s = hr.to_string();
        assert!(s.contains("no progress for 100 cycles"));
        assert!(s.contains("suspect: adapter"));
        assert_eq!(hr.busy_components().count(), 1);
    }
}
