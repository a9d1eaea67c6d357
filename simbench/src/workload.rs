//! The four workloads and the passes that drive them.
//!
//! * `npb_dense`, `mpi_small`: simulated runs built with
//!   `repro::scenario::Scenario` and run back to back from one driver
//!   thread (a closed loop: the next run starts when the previous ends).
//! * `sweep_cold`, `sweep_warm`: the `quick` campaign spec through
//!   `repro::campaign::run` on an empty and on a filled cache.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use desim::obs::analysis::{Analysis, Collector};
use desim::obs::json::Value;
use desim::obs::ledger::{read_runs, RunRow};
use desim::obs::{Obs, Recorder, Tee};
use desim::prop::{mix_seed, Rng};
use desim::{HostProfiler, SimError};
use mpisim::{MpiImpl, MpiProgram, RankCtx, RunReport, HEADER_BYTES};
use netsim::{grid5000_pair, Network};
use npb::{NasBenchmark, NasClass, NasRun};
use repro::campaign::{self, CampaignConfig, CampaignReport, Spec};
use repro::scenario::Scenario;
use repro::util::TuningLevel;

use crate::check::{CellRef, Reference, RunRef};
use crate::clock::{RefClock, Timing};
use crate::report::{median, metrics, percentile, Metric, END_TO_END, PER_LAYER};
use crate::trace::{Counts, ProfileLayers, Spans};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// NPB IS, FT, CG at 16 ranks: many flows in flight.
    NpbDense,
    /// Small NPB runs for all four implementations plus a seeded
    /// small-message exchange: few flows in flight.
    MpiSmall,
    /// The quick campaign spec on an empty cache.
    SweepCold,
    /// The quick campaign spec on a filled cache.
    SweepWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::NpbDense,
        Workload::MpiSmall,
        Workload::SweepCold,
        Workload::SweepWarm,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbDense => "npb_dense",
            Workload::MpiSmall => "mpi_small",
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
        }
    }

    /// Whether the workload's inputs depend on the seed.
    pub fn uses_seed(self) -> bool {
        self == Workload::MpiSmall
    }
}

/// Input size: the benchmark's own, or a reduced one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// NPB class B, 200-round exchanges, the `quick` spec.
    Full,
    /// NPB class S, 4-round exchanges, the `tiny` spec, 3 sweeps a pass.
    Smoke,
}

impl Scale {
    fn nas(self, bench: NasBenchmark) -> NasRun {
        match self {
            Scale::Full => NasRun::new(bench, NasClass::B),
            Scale::Smoke => NasRun::quick(bench, NasClass::S),
        }
    }

    fn exchange_rounds(self) -> usize {
        match self {
            Scale::Full => 200,
            Scale::Smoke => 4,
        }
    }

    fn spec(self) -> Spec {
        match self {
            Scale::Full => Spec::Quick,
            Scale::Smoke => Spec::Tiny,
        }
    }

    /// Sweeps per pass: at least 100, so a pass's p90 has ten sweeps
    /// beyond it. Cold sweeps take ~0.12 s and warm ones ~8 ms.
    fn sweeps_per_pass(self, warm: bool) -> usize {
        match (self, warm) {
            (Scale::Full, false) => 100,
            (Scale::Full, true) => 200,
            (Scale::Smoke, _) => 3,
        }
    }
}

// ------------------------------------------------------------ simulated runs

/// Ranks of the seeded exchange (two per node of the 8+8 testbed).
const EXCHANGE_RANKS: usize = 32;

/// Exchange variants pinned per implementation; the seed picks one each.
pub const EXCHANGE_VARIANTS: u64 = 16;

/// A small-message exchange: in every round each rank sends one
/// eager-size message to its partner and receives one from its partner's
/// inverse, the partners forming one random cycle over all ranks.
struct Exchange {
    impl_id: MpiImpl,
    variant: u64,
    /// `plan[round][rank] = (dst, src, bytes)`.
    plan: Arc<Vec<Vec<(usize, usize, u64)>>>,
}

impl Exchange {
    /// Variant `variant` for `impl_id`: partners and sizes drawn from a
    /// stream fixed by the pair, so the reference outputs can pin it.
    fn generate(impl_id: MpiImpl, variant: u64, rounds: usize) -> Exchange {
        let stream = impl_index(impl_id) * EXCHANGE_VARIANTS + variant;
        let mut rng = Rng::new(mix_seed(0x5eed_e8c4, stream));
        let n = EXCHANGE_RANKS;
        let plan = (0..rounds)
            .map(|_| {
                // Sattolo's shuffle: a single n-cycle, so nobody sends to
                // itself.
                let mut p: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = rng.range_usize(0, i);
                    p.swap(i, j);
                }
                let mut round = vec![(0, 0, 0); n];
                for r in 0..n {
                    round[r].0 = p[r];
                    round[r].2 = rng.range_u64(8, 16 * 1024 + 1);
                    round[p[r]].1 = r;
                }
                round
            })
            .collect();
        Exchange {
            impl_id,
            variant,
            plan: Arc::new(plan),
        }
    }

    fn key(&self) -> String {
        format!("exchange/{}/v{}", self.impl_id.name(), self.variant)
    }

    /// The 8+8 testbed, fully tuned for the implementation, two ranks per
    /// node.
    fn scenario(&self) -> Scenario {
        let level = TuningLevel::FullyTuned;
        let (mut topo, rennes, nancy) = grid5000_pair(8);
        topo.set_kernel_all(level.kernel(Some(self.impl_id)));
        let nodes: Vec<_> = rennes.into_iter().chain(nancy).collect();
        let placement = (0..EXCHANGE_RANKS)
            .map(|r| nodes[r % nodes.len()])
            .collect();
        Scenario::custom(Network::new(topo), placement, self.impl_id)
            .tuning(level.tuning(self.impl_id))
    }

    fn program(&self) -> impl MpiProgram {
        let plan = Arc::clone(&self.plan);
        move |mut ctx: RankCtx| {
            let plan = Arc::clone(&plan);
            async move {
                for (tag, round) in plan.iter().enumerate() {
                    let (dst, src, bytes) = round[ctx.rank()];
                    ctx.sendrecv(dst, bytes, src, tag as u64).await;
                }
            }
        }
    }
}

fn impl_index(id: MpiImpl) -> u64 {
    MpiImpl::ALL.iter().position(|&i| i == id).unwrap_or(0) as u64
}

enum CaseKind {
    Npb {
        run: NasRun,
        nodes_per_site: usize,
        rennes: usize,
        nancy: usize,
        impl_id: MpiImpl,
    },
    Exchange(Exchange),
}

/// One simulated run of a driven workload.
pub struct Case {
    /// Reference key.
    pub key: String,
    kind: CaseKind,
}

impl Case {
    fn npb(run: NasRun, nodes_per_site: usize, rennes: usize, nancy: usize, id: MpiImpl) -> Case {
        Case {
            key: format!(
                "npb/{}/{}.{}.w{}t{}/{rennes}+{nancy}",
                id.name(),
                run.bench.name(),
                run.class.name(),
                run.warmup,
                run.timed
            ),
            kind: CaseKind::Npb {
                run,
                nodes_per_site,
                rennes,
                nancy,
                impl_id: id,
            },
        }
    }

    fn exchange(x: Exchange) -> Case {
        Case {
            key: x.key(),
            kind: CaseKind::Exchange(x),
        }
    }

    /// Build the run's inputs: topology, network, placement, tuning.
    fn scenario(&self) -> Scenario {
        match &self.kind {
            CaseKind::Npb {
                nodes_per_site,
                rennes,
                nancy,
                impl_id,
                ..
            } => Scenario::npb(
                *nodes_per_site,
                *rennes,
                *nancy,
                TuningLevel::FullyTuned,
                *impl_id,
            ),
            CaseKind::Exchange(x) => x.scenario(),
        }
    }

    /// Run the program on `scenario`.
    fn run(&self, scenario: Scenario) -> Result<RunReport, SimError> {
        match &self.kind {
            CaseKind::Npb { run, .. } => scenario.run(run.program()),
            CaseKind::Exchange(x) => scenario.run(x.program()),
        }
    }
}

/// The NPB runs of `npb_dense`: IS, FT and CG with 16 ranks on the
/// 16-node cluster and on the 8+8 grid, MPICH2 fully tuned. IS simulates
/// one iteration without warm-up: its default 1 + 4 take 7–10 s on 16
/// nodes, too long to repeat a pass several times per run.
fn dense_cases(scale: Scale) -> Vec<Case> {
    let mut cases = Vec::new();
    for (nodes, rennes, nancy) in [(16, 16, 0), (8, 8, 8)] {
        for bench in [NasBenchmark::Is, NasBenchmark::Ft, NasBenchmark::Cg] {
            let mut run = scale.nas(bench);
            if bench == NasBenchmark::Is {
                (run.warmup, run.timed) = (0, 1);
            }
            cases.push(Case::npb(run, nodes, rennes, nancy, MpiImpl::Mpich2));
        }
    }
    cases
}

/// The NPB runs of `mpi_small`: LU, MG, BT, SP and EP on the 4-node
/// cluster and the 2+2 grid for every implementation.
fn small_npb_cases(scale: Scale) -> Vec<Case> {
    let mut cases = Vec::new();
    for id in MpiImpl::ALL {
        for bench in [
            NasBenchmark::Lu,
            NasBenchmark::Mg,
            NasBenchmark::Bt,
            NasBenchmark::Sp,
            NasBenchmark::Ep,
        ] {
            for (nodes, rennes, nancy) in [(4, 4, 0), (2, 2, 2)] {
                cases.push(Case::npb(scale.nas(bench), nodes, rennes, nancy, id));
            }
        }
    }
    cases
}

/// The seed's exchanges: one variant per implementation.
fn seeded_exchanges(seed: u64, scale: Scale) -> Vec<Case> {
    MpiImpl::ALL
        .into_iter()
        .map(|id| {
            let variant = mix_seed(seed, impl_index(id)) % EXCHANGE_VARIANTS;
            Case::exchange(Exchange::generate(id, variant, scale.exchange_rounds()))
        })
        .collect()
}

/// The runs of a driven workload for `seed`.
pub fn cases(workload: Workload, seed: u64, scale: Scale) -> Vec<Case> {
    match workload {
        Workload::NpbDense => dense_cases(scale),
        Workload::MpiSmall => {
            let mut c = small_npb_cases(scale);
            c.extend(seeded_exchanges(seed, scale));
            c
        }
        Workload::SweepCold | Workload::SweepWarm => Vec::new(),
    }
}

// ------------------------------------------------------------------ options

/// How to run one workload.
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (only `mpi_small` uses it).
    pub seed: u64,
    /// Measurement budget: passes continue while the next one is expected
    /// to end within it; at least one pass runs.
    pub seconds: f64,
    /// Separate traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for the campaign cache and ledger.
    pub work_dir: PathBuf,
}

/// Set-up samples per run of a driven workload, at least; `setup_s` is
/// their median.
const SETUP_SAMPLES: usize = 31;

/// Set-up samples taken before each pass. The host's speed drifts within
/// a run (building `npb_dense`'s inputs takes 6 or 10 µs for seconds at a
/// time), so samples spread over the run see it as the passes do, where
/// samples taken together at start would catch a single state.
const SETUP_SAMPLES_PER_PASS: usize = 2;

/// Host time one set-up sample spans at least. Building one pass's inputs
/// takes micro- to milliseconds, so a sample builds (and drops) them
/// repeatedly and reports the time per build.
const SETUP_SAMPLE_SECS: f64 = 2e-3;

/// Set-up repetitions of the sweep workloads (each is a full cold sweep).
const SWEEP_SETUP_SAMPLES: usize = 5;

/// What a workload run measured and found.
pub struct Outcome {
    /// Runs or cells attempted.
    pub attempted: u64,
    /// Runs or cells that errored or failed their output check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sample counts and other notes for the human-readable output.
    pub notes: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Spans,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Min, median and max of the passes' times of one kind, for the
/// human-readable output.
fn spread(kind: &str, passes: &[Timing], secs: impl Fn(&Timing) -> f64) -> String {
    let xs: Vec<f64> = passes.iter().map(secs).collect();
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0, f64::max);
    format!(
        "{kind} min {min:.4} s, median {:.4} s, max {max:.4} s",
        median(&xs)
    )
}

/// The spreads of a run's passes in reference, CPU and wall-clock seconds.
fn spreads(passes: &[Timing]) -> String {
    format!(
        "pass time: {}; {}; {}",
        spread("reference", passes, |t| t.ref_s),
        spread("CPU", passes, |t| t.cpu_s),
        spread("wall-clock", passes, |t| t.wall_s)
    )
}

/// The sum of `timings`.
fn total(timings: &[Timing]) -> Timing {
    let sum = |f: fn(&Timing) -> f64| timings.iter().map(f).sum();
    Timing {
        wall_s: sum(|t| t.wall_s),
        cpu_s: sum(|t| t.cpu_s),
        ref_s: sum(|t| t.ref_s),
    }
}

/// Whether another pass, expected to take `pass_s`, ends within the
/// budget.
fn more(start: Instant, seconds: f64, pass_s: f64) -> bool {
    start.elapsed().as_secs_f64() + pass_s <= seconds
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Run one workload and check its outputs against `reference`.
pub fn run(opts: &Options, reference: &Reference) -> Result<Outcome, String> {
    match opts.workload {
        Workload::NpbDense | Workload::MpiSmall => run_driven(
            opts,
            &cases(opts.workload, opts.seed, opts.scale),
            reference,
        ),
        Workload::SweepCold | Workload::SweepWarm => run_sweeps(opts, reference),
    }
}

// ------------------------------------------------------------ driven passes

fn build_all(cases: &[Case]) -> Vec<Scenario> {
    cases.iter().map(Case::scenario).collect()
}

/// Builds per set-up sample: enough to span `SETUP_SAMPLE_SECS`.
fn builds_per_sample(cases: &[Case]) -> usize {
    let t = Instant::now();
    drop(build_all(cases));
    let once = t.elapsed().as_secs_f64();
    (SETUP_SAMPLE_SECS / once.max(1e-9))
        .ceil()
        .clamp(1.0, 10_000.0) as usize
}

/// `n` samples of the time (reference seconds) to build one pass's
/// inputs, each averaged over `builds` builds. They run on a helper
/// thread, whose allocator arena is not the driver thread's, so the builds
/// leave the passes' heap (and the peak resident memory) as it was.
fn setup_samples(cases: &[Case], builds: usize, n: usize) -> Vec<f64> {
    let sample = || {
        let mut clock = RefClock::new(1);
        (0..n)
            .map(|_| {
                let ((), t) = clock.measure(|| {
                    for _ in 0..builds {
                        drop(std::hint::black_box(build_all(cases)));
                    }
                });
                t.ref_s / builds as f64
            })
            .collect()
    };
    std::thread::scope(|s| {
        s.spawn(sample)
            .join()
            .expect("set-up sampling thread panicked")
    })
}

fn run_driven(opts: &Options, cases: &[Case], reference: &Reference) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let builds = builds_per_sample(cases);
    let mut setups = Vec::new();
    let mut pass_times = Vec::new();
    let start = Instant::now();
    // Untraced passes: all the measurement with `--trace 0`, the baseline
    // of `trace.overhead` with `--trace 1`. Each run is timed on its own,
    // between calibrations; a pass's time is the sum.
    loop {
        setups.extend(setup_samples(cases, builds, SETUP_SAMPLES_PER_PASS));
        let scenarios = build_all(cases);
        let mut clock = RefClock::new(1);
        let mut runs = Vec::with_capacity(cases.len());
        for (c, s) in cases.iter().zip(scenarios) {
            let (report, t) = clock.measure(|| c.run(s));
            tally.record(check_report(reference, &c.key, &report));
            runs.push(t);
        }
        pass_times.push(total(&runs));
        let mean_pass = start.elapsed().as_secs_f64() / pass_times.len() as f64;
        if opts.trace || !more(start, opts.seconds, mean_pass) {
            break;
        }
    }
    let wall = median(&pass_times.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    if !opts.trace {
        let missing = SETUP_SAMPLES.saturating_sub(setups.len());
        setups.extend(setup_samples(cases, builds, missing));
        let refs: Vec<f64> = pass_times.iter().map(|t| t.ref_s).collect();
        let values = [
            ("setup_s", median(&setups)),
            ("pass_cpu_s", median(&refs)),
            ("sweep_cpu_p50_ms", median(&refs) * 1e3),
            ("sweep_cpu_p90_ms", percentile(&refs, 0.9) * 1e3),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            metrics: metrics(END_TO_END, &values),
            notes: vec![
                format!("passes: {} ({} runs each)", pass_times.len(), cases.len()),
                spreads(&pass_times),
                format!("setup samples: {}", setups.len()),
                "sweep_cpu_p50_ms/sweep_cpu_p90_ms: one sweep is one pass of this workload"
                    .to_string(),
            ],
            spans: Spans::new(),
        });
    }

    // Traced passes.
    let mut spans = Spans::new();
    let counts = Arc::new(Counts::default());
    let prof = Arc::new(HostProfiler::new());
    let (mut passes, mut runs, mut failed_runs) = (0u64, 0u64, 0u64);
    let (mut wire_messages, mut wire_bytes, mut analysis_in) = (0u64, 0u64, 0u64);
    loop {
        let t = Instant::now();
        spans.open("pass");
        spans.open("setup");
        let scenarios: Vec<Scenario> = cases
            .iter()
            .map(|c| spans.time("netsim.build", || c.scenario()))
            .collect();
        spans.close();
        for (case, scenario) in cases.iter().zip(scenarios) {
            let collector = Arc::new(Collector::new());
            let tee = Tee::new(vec![
                Arc::clone(&counts) as Arc<dyn Recorder>,
                Arc::clone(&collector) as Arc<dyn Recorder>,
            ]);
            let scenario = scenario.observe(
                Obs::none()
                    .profiler(Arc::clone(&prof))
                    .recorder(Arc::new(tee)),
            );
            let report = spans.time("mpisim.run", || case.run(scenario));
            let events = collector.events();
            analysis_in += events.len() as u64;
            spans.time("analysis", || Analysis::from_events(&events, HEADER_BYTES));
            drop(events);
            runs += 1;
            if let Ok(r) = &report {
                wire_messages += r.stats.wire_messages;
                wire_bytes += r.stats.wire_bytes;
            }
            let verdict = check_report(reference, &case.key, &report);
            failed_runs += u64::from(verdict.is_err());
            tally.record(verdict);
        }
        spans.close();
        passes += 1;
        if !more(start, opts.seconds, t.elapsed().as_secs_f64()) {
            break;
        }
    }
    let n = passes as f64;
    let c = counts.snapshot();
    let layers = ProfileLayers::from_rows(&prof.stacks());
    let s = |ns: u64| ns as f64 / 1e9 / n;
    let run_s = spans.total_s("mpisim.run") / n;
    let values = [
        ("desim.events", c.kernel_events as f64 / n),
        ("desim.kernel_runs", c.kernel_runs as f64 / n),
        ("desim.dispatch_s", s(layers.dispatch)),
        ("desim.dispatch_self_s", s(layers.dispatch_self())),
        (
            "desim.ns_per_event",
            layers.dispatch_self() as f64 / c.kernel_events.max(1) as f64,
        ),
        (
            "desim.dispatch_share",
            s(layers.dispatch_self()) / run_s.max(1e-12),
        ),
        ("netsim.build_s", spans.total_s("netsim.build") / n),
        ("netsim.s", s(layers.netsim())),
        ("netsim.allocate_s", s(layers.allocate)),
        ("netsim.settle_s", s(layers.settle)),
        ("netsim.round_s", s(layers.round)),
        ("netsim.finish_s", s(layers.finish)),
        ("netsim.fastpath_s", s(layers.fastpath)),
        ("netsim.share", s(layers.netsim()) / run_s.max(1e-12)),
        ("netsim.flows", c.flows as f64 / n),
        ("netsim.tcp_samples", c.tcp_samples as f64 / n),
        ("mpisim.run_s", run_s),
        ("mpisim.job_setup_s", s(layers.job_setup)),
        ("mpisim.job_collect_s", s(layers.job_collect)),
        ("mpisim.wire_messages", wire_messages as f64 / n),
        ("mpisim.wire_bytes", wire_bytes as f64 / n),
        ("mpisim.runs", runs as f64 / n),
        ("mpisim.failed", failed_runs as f64 / n),
        ("analysis.s", spans.total_s("analysis") / n),
        ("analysis.events_in", analysis_in as f64 / n),
        ("repro.campaign_s", 0.0),
        ("repro.cells", 0.0),
        ("repro.cache_hits", 0.0),
        ("repro.hit_ratio", 0.0),
        ("repro.cell_busy_s", 0.0),
        ("repro.runner_overhead_s", 0.0),
        ("repro.par_idle_frac", 0.0),
        ("repro.cache_bytes", 0.0),
        ("repro.ledger_bytes", 0.0),
        ("repro.ledger_read_s", 0.0),
        ("other.s", s(layers.other)),
        ("trace.overhead", run_s / wall.max(1e-12)),
        ("trace.unattributed_s", run_s - s(layers.self_total())),
        ("fail_frac", tally.fail_frac()),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics: metrics(PER_LAYER, &values),
        notes: vec![
            format!(
                "traced passes: {passes} ({} runs each), untraced baseline passes: {}",
                cases.len(),
                pass_times.len()
            ),
            "profiler rows are sampled (1 in 31 kernel events, 1 in 13 netsim handler calls) \
             and extrapolated: desim.* and netsim.* seconds are estimates"
                .to_string(),
            "repro.* are 0: this workload runs no campaign".to_string(),
        ],
        spans,
    })
}

fn check_report(
    reference: &Reference,
    key: &str,
    report: &Result<RunReport, SimError>,
) -> Result<(), String> {
    match report {
        Ok(r) => reference.check_run(key, r),
        Err(e) => Err(format!("{key}: run failed: {e:?}")),
    }
}

// ------------------------------------------------------------------ sweeps

fn campaign_config(opts: &Options) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(opts.scale.spec());
    cfg.label = "simbench".into();
    cfg.ledger_dir = opts.work_dir.clone();
    cfg.cache_path = opts.work_dir.join("campaign_cache.json");
    cfg.heartbeat_secs = None;
    cfg.quiet = true;
    cfg
}

fn remove(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

/// The files a sweep reads and writes, reset before every sweep (untimed):
/// the ledger removed, the cache removed (cold) or written afresh from the
/// filled copy (warm). Rewriting a file in place can make the filesystem
/// flush its previous contents to disk, and back-to-back sweeps could then
/// wait on that flush inside the timed region.
struct SweepFiles {
    cache: PathBuf,
    ledger: Option<PathBuf>,
    filled_cache: Option<Vec<u8>>,
}

impl SweepFiles {
    fn reset(&self) -> Result<(), String> {
        if let Some(ledger) = &self.ledger {
            remove(ledger)?;
        }
        remove(&self.cache)?;
        match &self.filled_cache {
            Some(bytes) => std::fs::write(&self.cache, bytes)
                .map_err(|e| format!("cannot write {}: {e}", self.cache.display())),
            None => Ok(()),
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One sweep: `campaign::run`, its time and the ledger it wrote.
struct Sweep {
    time: Timing,
    report: CampaignReport,
    rows: Vec<RunRow>,
}

fn sweep(
    cfg: &CampaignConfig,
    spans: &mut Option<&mut Spans>,
    clock: &mut RefClock,
) -> Result<Sweep, String> {
    let (report, time) = clock.measure(|| match spans {
        Some(sp) => sp.time("repro.campaign", || campaign::run(cfg)),
        None => campaign::run(cfg),
    });
    let report = report?;
    let text = std::fs::read_to_string(&report.ledger_path)
        .map_err(|e| format!("cannot read {}: {e}", report.ledger_path.display()))?;
    let rows = match spans {
        Some(sp) => sp.time("ledger.read", || read_runs(&text))?,
        None => read_runs(&text)?,
    };
    Ok(Sweep { time, report, rows })
}

/// Check one sweep's rows: every cell present, clean, at its reference
/// elapsed time, replayed from the cache exactly when `warm`, and (when
/// `cold_rows` is given) equal to the cold sweep's rows apart from the
/// host-time fields.
fn check_sweep(
    tally: &mut Tally,
    reference: &Reference,
    sweep: &Result<Sweep, String>,
    warm: bool,
    cold_rows: Option<&[RunRow]>,
) {
    let cells = reference.cells.len();
    let sw = match sweep {
        Ok(sw) => sw,
        Err(e) => {
            for _ in 0..cells {
                tally.record(Err(format!("sweep failed: {e}")));
            }
            return;
        }
    };
    let expected_hits = if warm { sw.rows.len() } else { 0 };
    for row in &sw.rows {
        let verdict = reference.check_row(row).and_then(|()| {
            if row.cached != warm {
                return Err(format!(
                    "{}: cached={} in a {} sweep",
                    row.scenario,
                    row.cached,
                    if warm { "warm" } else { "cold" }
                ));
            }
            if sw.report.cache_hits != expected_hits {
                return Err(format!(
                    "{}: sweep reported {} cache hits, expected {expected_hits}",
                    row.scenario, sw.report.cache_hits
                ));
            }
            match cold_rows.and_then(|c| c.iter().find(|c| c.seq == row.seq)) {
                Some(cold) if cold.normalized() != row.normalized() => Err(format!(
                    "{}: warm row differs from the cold row",
                    row.scenario
                )),
                None if cold_rows.is_some() => {
                    Err(format!("{}: no cold row to compare with", row.scenario))
                }
                _ => Ok(()),
            }
        });
        tally.record(verdict);
    }
    for _ in sw.rows.len()..cells {
        tally.record(Err(format!(
            "sweep wrote {} rows, reference has {cells} cells",
            sw.rows.len()
        )));
    }
}

fn counter(row: &RunRow, name: &str) -> u64 {
    row.metrics.get(name).and_then(Value::as_u64).unwrap_or(0)
}

fn run_sweeps(opts: &Options, reference: &Reference) -> Result<Outcome, String> {
    let warm = opts.workload == Workload::SweepWarm;
    let cfg = campaign_config(opts);
    let mut tally = Tally::default();
    let mut none: Option<&mut Spans> = None;
    // `campaign::run` keeps this many `par_map` workers busy.
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut clock = RefClock::new(workers);

    // Set-up: a cold sweep that fills the cache (warm) or primes the
    // process (cold), repeated; the last one's rows are the cold rows
    // warm rows must equal.
    let mut files = SweepFiles {
        cache: cfg.cache_path.clone(),
        ledger: None,
        filled_cache: None,
    };
    let mut setups = Vec::new();
    let mut cold_rows = Vec::new();
    for _ in 0..SWEEP_SETUP_SAMPLES {
        files.reset()?;
        let sw = sweep(&cfg, &mut none, &mut clock);
        if let Ok(s) = &sw {
            setups.push(s.time.ref_s);
        }
        check_sweep(&mut tally, reference, &sw, false, None);
        if let Ok(s) = &sw {
            files.ledger = Some(s.report.ledger_path.clone());
        }
        cold_rows = sw.map(|s| s.rows).unwrap_or_default();
    }
    let baseline = warm.then_some(cold_rows.as_slice());
    if warm {
        let bytes = std::fs::read(&cfg.cache_path)
            .map_err(|e| format!("cannot read {}: {e}", cfg.cache_path.display()))?;
        files.filled_cache = Some(bytes);
    }

    let per_pass = opts.scale.sweeps_per_pass(warm);
    let start = Instant::now();
    let mut latencies = Vec::new();
    let (mut pass_times, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        // A pass's time is the sum of its sweeps' times: file resets,
        // calibrations, ledger reading and checks run between sweeps,
        // untimed.
        let t = Instant::now();
        let mut pass = Vec::with_capacity(per_pass);
        for _ in 0..per_pass {
            files.reset()?;
            let sw = sweep(&cfg, &mut none, &mut clock);
            if let Ok(s) = &sw {
                pass.push(s.time);
            }
            check_sweep(&mut tally, reference, &sw, warm, baseline);
        }
        let refs: Vec<f64> = pass.iter().map(|t| t.ref_s).collect();
        p50s.push(median(&refs));
        p90s.push(percentile(&refs, 0.9));
        pass_times.push(total(&pass));
        latencies.extend(pass.iter().map(|t| t.wall_s));
        if opts.trace || !more(start, opts.seconds, t.elapsed().as_secs_f64()) {
            break;
        }
    }
    if !opts.trace {
        let refs: Vec<f64> = pass_times.iter().map(|t| t.ref_s).collect();
        let values = [
            ("setup_s", median(&setups)),
            ("pass_cpu_s", median(&refs)),
            ("sweep_cpu_p50_ms", median(&p50s) * 1e3),
            ("sweep_cpu_p90_ms", median(&p90s) * 1e3),
            ("peak_rss_mb", peak_rss_mb()?),
        ];
        return Ok(Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            metrics: metrics(END_TO_END, &values),
            notes: vec![
                format!(
                    "passes: {} ({per_pass} sweeps of {} cells each)",
                    pass_times.len(),
                    reference.cells.len(),
                ),
                spreads(&pass_times),
                format!(
                    "sweep_cpu_p50_ms/sweep_cpu_p90_ms: per-pass percentiles of {per_pass} \
                     sweeps' times, median over {} passes ({} sweeps in all)",
                    pass_times.len(),
                    latencies.len()
                ),
                format!("setup samples: {} cold sweeps", setups.len()),
            ],
            spans: Spans::new(),
        });
    }

    // Traced passes: spans around the campaign and ledger calls; counts
    // from the rows of cells that simulated.
    let workers = workers as f64;
    let mut spans = Spans::new();
    let mut passes = 0u64;
    let mut traced_latencies = Vec::new();
    let (mut cells, mut hits, mut sims, mut kernel_runs) = (0u64, 0u64, 0u64, 0u64);
    let (mut flows, mut tcp, mut wire, mut events_in) = (0u64, 0u64, 0u64, 0u64);
    let (mut busy_ns, mut cache_bytes, mut ledger_bytes) = (0u64, 0u64, 0u64);
    loop {
        let t = Instant::now();
        spans.open("pass");
        for _ in 0..per_pass {
            files.reset()?;
            let sw = sweep(&cfg, &mut Some(&mut spans), &mut clock);
            if let Ok(s) = &sw {
                traced_latencies.push(s.time.wall_s);
                cells += s.rows.len() as u64;
                hits += s.report.cache_hits as u64;
                cache_bytes += file_len(&cfg.cache_path);
                ledger_bytes += file_len(&s.report.ledger_path);
                for row in &s.rows {
                    busy_ns += row.host_ns;
                    if !row.cached {
                        sims += 1;
                        kernel_runs += counter(row, "events.kernel_run");
                        flows += counter(row, "events.flow_start");
                        tcp += counter(row, "events.tcp_sample");
                        wire += counter(row, "run.wire_messages");
                        events_in += row.events;
                    }
                }
            }
            check_sweep(&mut tally, reference, &sw, warm, baseline);
        }
        spans.close();
        passes += 1;
        if !more(start, opts.seconds, t.elapsed().as_secs_f64()) {
            break;
        }
    }
    // Per sweep: the unit whose latency the end-to-end metrics report.
    let n = traced_latencies.len().max(1) as f64;
    let campaign_s = spans.total_s("repro.campaign") / n;
    let busy_s = busy_ns as f64 / 1e9 / n;
    let values = [
        ("desim.events", 0.0),
        ("desim.kernel_runs", kernel_runs as f64 / n),
        ("desim.dispatch_s", 0.0),
        ("desim.dispatch_self_s", 0.0),
        ("desim.ns_per_event", 0.0),
        ("desim.dispatch_share", 0.0),
        ("netsim.build_s", 0.0),
        ("netsim.s", 0.0),
        ("netsim.allocate_s", 0.0),
        ("netsim.settle_s", 0.0),
        ("netsim.round_s", 0.0),
        ("netsim.finish_s", 0.0),
        ("netsim.fastpath_s", 0.0),
        ("netsim.share", 0.0),
        ("netsim.flows", flows as f64 / n),
        ("netsim.tcp_samples", tcp as f64 / n),
        ("mpisim.run_s", 0.0),
        ("mpisim.job_setup_s", 0.0),
        ("mpisim.job_collect_s", 0.0),
        ("mpisim.wire_messages", wire as f64 / n),
        ("mpisim.wire_bytes", 0.0),
        ("mpisim.runs", sims as f64 / n),
        ("mpisim.failed", 0.0),
        ("analysis.s", 0.0),
        ("analysis.events_in", events_in as f64 / n),
        ("repro.campaign_s", campaign_s),
        ("repro.cells", cells as f64 / n),
        ("repro.cache_hits", hits as f64 / n),
        ("repro.hit_ratio", hits as f64 / cells.max(1) as f64),
        ("repro.cell_busy_s", busy_s),
        ("repro.runner_overhead_s", campaign_s - busy_s / workers),
        (
            "repro.par_idle_frac",
            1.0 - busy_s / (workers * campaign_s).max(1e-12),
        ),
        ("repro.cache_bytes", cache_bytes as f64 / n),
        ("repro.ledger_bytes", ledger_bytes as f64 / n),
        ("repro.ledger_read_s", spans.total_s("ledger.read") / n),
        ("other.s", 0.0),
        (
            "trace.overhead",
            median(&traced_latencies) / median(&latencies).max(1e-12),
        ),
        ("trace.unattributed_s", 0.0),
        ("fail_frac", tally.fail_frac()),
    ];
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics: metrics(PER_LAYER, &values),
        notes: vec![
            format!(
                "traced passes: {passes} ({per_pass} sweeps each), untraced baseline passes: {}; \
                 per-layer values are per sweep",
                pass_times.len()
            ),
            format!("par_map workers: {workers}"),
            "cells simulate inside campaign::run, where no profiler or recorder attaches: \
             desim/netsim/mpisim seconds read 0; counts come from the ledger rows of cells \
             that simulated (desim.events is not in the rows; desim.kernel_runs is)"
                .to_string(),
        ],
        spans,
    })
}

// ---------------------------------------------------------------- recording

/// Record the reference outputs of every run and cell at `scale`: every
/// NPB run of both driven workloads, every exchange variant, and one cold
/// sweep of the campaign spec.
pub fn record_reference(scale: Scale, work_dir: &Path) -> Result<Reference, String> {
    let mut reference = Reference::default();
    let mut all = dense_cases(scale);
    all.extend(small_npb_cases(scale));
    for id in MpiImpl::ALL {
        for v in 0..EXCHANGE_VARIANTS {
            all.push(Case::exchange(Exchange::generate(
                id,
                v,
                scale.exchange_rounds(),
            )));
        }
    }
    for case in &all {
        let report = case
            .run(case.scenario())
            .map_err(|e| format!("{}: run failed: {e:?}", case.key))?;
        reference.runs.insert(case.key.clone(), RunRef::of(&report));
    }
    let opts = Options {
        workload: Workload::SweepCold,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale,
        work_dir: work_dir.to_path_buf(),
    };
    let cfg = campaign_config(&opts);
    remove(&cfg.cache_path)?;
    for row in sweep(&cfg, &mut None, &mut RefClock::new(1))?.rows {
        if row.scenario.contains(char::is_whitespace) {
            return Err(format!("scenario key {:?} has whitespace", row.scenario));
        }
        reference.cells.insert(
            row.scenario.clone(),
            CellRef {
                elapsed_ns: row.elapsed_ns,
                clean: row.clean,
            },
        );
    }
    Ok(reference)
}
