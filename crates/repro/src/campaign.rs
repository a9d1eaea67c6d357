//! `repro campaign` — the sweep engine and run-ledger writer.
//!
//! Expands a declarative spec (workload × implementation × tuning ×
//! network × loss × collective pin × engine/shards) into scenario runs,
//! executes them through [`crate::par::par_map_with`], and appends one
//! structured JSONL row per run to a ledger file
//! (`results/ledger/<label>.jsonl`) — config fingerprint, event digest,
//! virtual elapsed, blame decomposition from [`desim::obs::analysis`],
//! and a metrics snapshot. Everything in a row except host wall clock is
//! a pure function of the configuration, so results are cached under the
//! fingerprint: re-running an unchanged spec replays every row from
//! `target/campaign_cache.json` and produces a byte-identical ledger
//! (modulo the host-time fields).
//!
//! While the sweep runs, a heartbeat thread prints completed/total, the
//! cache-hit rate, and p50/p99 per-run wall clock (a
//! [`desim::obs::metrics::StreamHist`] fed by the completion hook, with
//! a [`desim::obs::metrics::Windowed`] ring for the recent completion
//! rate).
//!
//! `--perturb loss[=RATE]` overlays extra WAN segment loss on every
//! scenario *without changing the scenario keys*, so `repro ledger
//! diff`/`top` can attribute the damage — fingerprints move (it is a
//! config change) but rows still match across campaigns.
//!
//! The collective autotuner is one more spec ([`Spec::Autotune`]): its
//! algorithm grid expands into ordinary cells here, and
//! [`crate::autotune`] renders the decision tables from the rows.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use desim::obs::analysis::{Analysis, Collector};
use desim::obs::json::{self, Value};
use desim::obs::ledger::{RunRow, SCHEMA};
use desim::obs::{CountingSink, DigestSink, Recorder, Tee};
use desim::{Metrics, SimTime, StreamHist, Windowed};
use mpisim::{
    CollAlgo, CollConfig, CollOp, CollSel, CommPattern, Engine, ExecConfig, FaultPlan, MpiImpl,
    MpiProgram, RankCtx, HEADER_BYTES,
};
use netsim::{grid5000_four_sites, grid5000_pair, Network, NodeId, Topology};

use crate::autotune;
use crate::par::par_map_with;
use crate::scenario::{pingpong_program, Scenario};
use crate::util::{size_label, Scope, TuningLevel};

/// Bump to invalidate every cached campaign result.
const CACHE_VERSION: u32 = 1;

/// Virtual-time guard on every cell; a deterministic workload that hits
/// this is a bug, not a slow network.
const DEADLINE_NS: u64 = 600_000_000_000;

/// What one cell simulates.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// `iters` round trips of `bytes` between two ranks.
    PingPong {
        /// Message payload bytes.
        bytes: u64,
        /// Round trips.
        iters: u32,
    },
    /// `rounds` back-to-back collectives on every rank of the placement.
    Coll {
        /// The collective operation.
        op: CollOp,
        /// Payload bytes.
        bytes: u64,
        /// Back-to-back repetitions.
        rounds: u32,
    },
    /// A 16-rank ring exchange (site-disjoint, PDES-shardable).
    Ring {
        /// Exchange rounds.
        rounds: u32,
    },
}

/// Where a cell runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Net {
    /// Two nodes of the Rennes cluster.
    Cluster,
    /// One node in Rennes, one in Nancy (WAN pair).
    Grid,
    /// 8 ranks on 8 Rennes nodes (collective cells).
    Lan8,
    /// 16 ranks on 16 Rennes nodes (autotune cells).
    Lan16,
    /// 2 ranks on each of the four Fig. 8 sites (collective cells).
    Wan4,
    /// 4 ranks on each of the four Fig. 8 sites (autotune cells).
    Wan4x4,
    /// 16 ranks over the 8+8 two-site testbed (ring cells).
    Pair16,
}

impl Net {
    fn key(self) -> &'static str {
        match self {
            Net::Cluster => "cluster",
            Net::Grid => "grid",
            Net::Lan8 => "lan8",
            Net::Lan16 => "lan16",
            Net::Wan4 => "wan4",
            Net::Wan4x4 => "wan4x4",
            Net::Pair16 => "pair16",
        }
    }

    /// True when the placement crosses a WAN link (loss applies).
    fn has_wan(self) -> bool {
        !matches!(self, Net::Cluster | Net::Lan8 | Net::Lan16)
    }

    /// The network with `level`'s kernel and MPI tuning applied for
    /// `impl_id`, before any execution knobs, faults or deadline.
    pub fn scenario(self, level: TuningLevel, impl_id: MpiImpl) -> Scenario {
        let custom = |mut topo: Topology, placement: Vec<NodeId>| {
            topo.set_kernel_all(level.kernel(Some(impl_id)));
            Scenario::custom(Network::new(topo), placement, impl_id).tuning(level.tuning(impl_id))
        };
        let lan = |ranks| {
            let (topo, rn, _nn) = grid5000_pair(ranks);
            custom(topo, rn)
        };
        let wan4 = |per_site| {
            let (topo, _sites, nodes) = grid5000_four_sites(per_site);
            custom(topo, nodes.into_iter().flatten().collect())
        };
        match self {
            Net::Cluster => Scenario::pair(Scope::Cluster, level, impl_id),
            Net::Grid => Scenario::pair(Scope::Grid, level, impl_id),
            Net::Lan8 => lan(8),
            Net::Lan16 => lan(16),
            Net::Wan4 => wan4(2),
            Net::Wan4x4 => wan4(4),
            Net::Pair16 => {
                let (topo, rn, nn) = grid5000_pair(8);
                custom(topo, rn.into_iter().chain(nn).collect())
            }
        }
    }
}

/// One fully specified scenario run.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Short workload name (`pp_1m`, `bcast_64k`, …). One name always
    /// means one [`Workload`], across every spec.
    pub workload: String,
    /// What to simulate.
    pub kind: Workload,
    /// MPI implementation profile.
    pub impl_id: MpiImpl,
    /// Tuning level.
    pub level: TuningLevel,
    /// Topology/placement.
    pub net: Net,
    /// Injected WAN segment-loss rate from the spec (0 = clean).
    pub loss: f64,
    /// Collective algorithm pin for the workload's op (`None`: the
    /// profile's own dispatch).
    pub coll: Option<CollSel>,
    /// Execution engine.
    pub engine: Engine,
    /// PDES worker count (0 = classic single-kernel driver).
    pub shards: u32,
}

impl Cell {
    /// One autotune measurement: [`autotune::ROUNDS`] back-to-back `op`s
    /// of `bytes` on MPICH2 with `sel` pinned.
    pub fn autotune(level: TuningLevel, net: Net, op: CollOp, sel: CollSel, bytes: u64) -> Cell {
        Cell {
            workload: format!(
                "{}_{}_x{}",
                autotune::op_name(op),
                size_label(bytes).to_lowercase(),
                autotune::ROUNDS
            ),
            kind: Workload::Coll {
                op,
                bytes,
                rounds: autotune::ROUNDS,
            },
            impl_id: MpiImpl::Mpich2,
            level,
            net,
            loss: 0.0,
            coll: Some(sel),
            engine: Engine::Pooled,
            shards: 0,
        }
    }

    /// The stable cross-campaign match key: every axis, but *not* the
    /// perturbation — perturbed and clean campaigns keep the same keys so
    /// `ledger diff`/`top` can join them.
    pub fn scenario_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|loss={}|coll={}|{}|shards={}",
            self.workload,
            self.impl_id.name(),
            level_key(self.level),
            self.net.key(),
            self.loss,
            self.coll_key(),
            engine_key(self.engine),
            self.shards
        )
    }

    /// 16-hex FNV-1a fingerprint of the *effective* configuration:
    /// scenario key, cache version, and any perturbation. Any config
    /// change moves the fingerprint and forces a re-simulation.
    pub fn fingerprint(&self, perturb_loss: f64) -> String {
        format!(
            "{:016x}",
            fnv1a64(&format!(
                "campaign-v{CACHE_VERSION}-s{SCHEMA}|{}|perturb_loss={perturb_loss}",
                self.scenario_key()
            ))
        )
    }

    /// The pin as the key renders it: `default`, or [`CollSel::name`].
    fn coll_key(&self) -> String {
        self.coll
            .map_or_else(|| "default".to_string(), CollSel::name)
    }

    /// The axes object embedded in the ledger row.
    fn axes(&self, perturb_loss: f64) -> Value {
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("impl".into(), Value::Str(self.impl_id.name().into())),
            ("tuning".into(), Value::Str(level_key(self.level).into())),
            ("net".into(), Value::Str(self.net.key().into())),
            ("loss".into(), Value::Num(self.loss)),
            ("coll".into(), Value::Str(self.coll_key())),
            ("engine".into(), Value::Str(engine_key(self.engine).into())),
            ("shards".into(), Value::Num(self.shards as f64)),
            ("perturb_loss".into(), Value::Num(perturb_loss)),
        ])
    }
}

fn level_key(level: TuningLevel) -> &'static str {
    match level {
        TuningLevel::Default => "default",
        TuningLevel::TcpTuned => "tcp_tuned",
        TuningLevel::FullyTuned => "fully_tuned",
    }
}

fn engine_key(engine: Engine) -> &'static str {
    match engine {
        Engine::Threaded => "threaded",
        Engine::Pooled => "pooled",
    }
}

pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ------------------------------------------------------------------ specs

/// The built-in sweep specs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Spec {
    /// The CI sweep: ≥100 runs over every axis (~2 min cold on 8 cores).
    Quick,
    /// A 12-run subset for tests and benchmarks.
    Tiny,
    /// The collective autotuner's grid (336 cells): profile × topology
    /// × op × candidate algorithm × six message sizes.
    Autotune,
    /// The autotuner's three-size subset (168 cells), for CI.
    AutotuneQuick,
}

impl Spec {
    /// Parse a spec name.
    pub fn parse(name: &str) -> Option<Spec> {
        match name {
            "quick" => Some(Spec::Quick),
            "tiny" => Some(Spec::Tiny),
            "autotune" => Some(Spec::Autotune),
            "autotune-quick" => Some(Spec::AutotuneQuick),
            _ => None,
        }
    }

    /// The spec's name, as recorded in the ledger header.
    pub fn name(self) -> &'static str {
        match self {
            Spec::Quick => "quick",
            Spec::Tiny => "tiny",
            Spec::Autotune => "autotune",
            Spec::AutotuneQuick => "autotune-quick",
        }
    }

    /// Expand the spec into its cells, in deterministic order.
    pub fn cells(self) -> Vec<Cell> {
        let base = |workload: &str, kind| Cell {
            workload: workload.to_string(),
            kind,
            impl_id: MpiImpl::Mpich2,
            level: TuningLevel::TcpTuned,
            net: Net::Grid,
            loss: 0.0,
            coll: None,
            engine: Engine::Pooled,
            shards: 0,
        };
        // Iteration counts are sized so a cold quick sweep does real
        // work (the cold/warm cache speedup gate in CI needs simulation
        // time to dominate fixed overhead) while staying seconds-scale
        // on one core.
        let pp_1m = Workload::PingPong {
            bytes: 1 << 20,
            iters: 10,
        };
        let pp_16m = Workload::PingPong {
            bytes: 16 << 20,
            iters: 2,
        };
        let bcast_64k = Workload::Coll {
            op: CollOp::Bcast,
            bytes: 64 << 10,
            rounds: 8,
        };
        let allreduce_256k = Workload::Coll {
            op: CollOp::Allreduce,
            bytes: 256 << 10,
            rounds: 4,
        };
        let ring = Workload::Ring { rounds: 16 };
        let mut cells = Vec::new();
        match self {
            Spec::Quick => {
                // Point-to-point grid: workload × impl × tuning × RTT ×
                // loss (72 cells).
                for (workload, kind) in [("pp_1m", pp_1m), ("pp_16m", pp_16m)] {
                    for impl_id in [MpiImpl::Mpich2, MpiImpl::GridMpi, MpiImpl::OpenMpi] {
                        for level in [
                            TuningLevel::Default,
                            TuningLevel::TcpTuned,
                            TuningLevel::FullyTuned,
                        ] {
                            for net in [Net::Cluster, Net::Grid] {
                                for loss in [0.0, 1e-3] {
                                    cells.push(Cell {
                                        impl_id,
                                        level,
                                        net,
                                        loss,
                                        ..base(workload, kind)
                                    });
                                }
                            }
                        }
                    }
                }
                // Collectives: workload × tuning × topology × pin
                // (36 cells).
                for (workload, kind, algo) in [
                    ("bcast_64k", bcast_64k, CollAlgo::Binomial),
                    ("allreduce_256k", allreduce_256k, CollAlgo::Ring),
                ] {
                    for level in [
                        TuningLevel::Default,
                        TuningLevel::TcpTuned,
                        TuningLevel::FullyTuned,
                    ] {
                        for net in [Net::Lan8, Net::Wan4] {
                            for coll in [
                                None,
                                Some(CollSel::flat(algo)),
                                Some(CollSel::two_level(algo)),
                            ] {
                                cells.push(Cell {
                                    level,
                                    net,
                                    coll,
                                    ..base(workload, kind)
                                });
                            }
                        }
                    }
                }
                // Engine axis: the threaded oracle on the small ping-pong
                // (6 cells; their pooled twins are in the grid above).
                for impl_id in [MpiImpl::Mpich2, MpiImpl::GridMpi, MpiImpl::OpenMpi] {
                    for net in [Net::Cluster, Net::Grid] {
                        cells.push(Cell {
                            impl_id,
                            net,
                            engine: Engine::Threaded,
                            level: TuningLevel::FullyTuned,
                            ..base("pp_1m", pp_1m)
                        });
                    }
                }
                // Shards axis: the site-disjoint ring on the PDES driver
                // (3 cells).
                for shards in [0, 2, 4] {
                    cells.push(Cell {
                        net: Net::Pair16,
                        shards,
                        ..base("ring16", ring)
                    });
                }
            }
            Spec::Tiny => {
                for impl_id in [MpiImpl::Mpich2, MpiImpl::GridMpi] {
                    for level in [TuningLevel::Default, TuningLevel::TcpTuned] {
                        for net in [Net::Cluster, Net::Grid] {
                            cells.push(Cell {
                                impl_id,
                                level,
                                net,
                                ..base("pp_1m", pp_1m)
                            });
                        }
                    }
                }
                for coll in [None, Some(CollSel::flat(CollAlgo::Binomial))] {
                    cells.push(Cell {
                        net: Net::Lan8,
                        coll,
                        ..base("bcast_64k", bcast_64k)
                    });
                }
                for shards in [0, 2] {
                    cells.push(Cell {
                        net: Net::Pair16,
                        shards,
                        ..base("ring16", ring)
                    });
                }
            }
            Spec::Autotune | Spec::AutotuneQuick => {
                for (_, level) in autotune::PROFILES {
                    for (net, _) in autotune::NETS {
                        for op in autotune::OPS {
                            for sel in autotune::candidates(op) {
                                for &bytes in autotune::sizes(self == Spec::AutotuneQuick) {
                                    cells.push(Cell::autotune(level, net, op, sel, bytes));
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

// -------------------------------------------------------------- execution

/// The deterministic result of simulating one cell.
struct SimOut {
    digest: String,
    events: u64,
    elapsed_ns: u64,
    clean: bool,
    blame: Value,
    metrics: Value,
}

/// Build the cell's scenario (topology, tuning, faults, exec) and run it
/// with the full observability tee attached.
fn simulate(cell: &Cell, perturb_loss: f64) -> SimOut {
    let loss = cell.loss + perturb_loss;
    let scenario = scenario_for(cell, loss);
    match cell.kind {
        Workload::PingPong { bytes, iters } => run_with(scenario, pingpong_program(bytes, iters)),
        Workload::Coll { op, bytes, rounds } => {
            run_with(scenario, move |mut ctx: RankCtx| async move {
                for _ in 0..rounds {
                    match op {
                        CollOp::Bcast => ctx.bcast(0, bytes).await,
                        _ => ctx.allreduce(bytes).await,
                    }
                }
            })
        }
        Workload::Ring { rounds } => run_with(scenario, move |mut ctx: RankCtx| async move {
            const TAG: u64 = 7;
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..rounds {
                ctx.sendrecv(right, 1024, left, TAG).await;
            }
        }),
    }
}

/// Topology + tuning + exec + faults for one cell. `loss` is the
/// effective rate (spec axis + perturbation).
fn scenario_for(cell: &Cell, loss: f64) -> Scenario {
    let mut exec = ExecConfig::new().engine(cell.engine);
    if cell.shards > 0 {
        exec = exec.shards(cell.shards).pattern(CommPattern::SiteDisjoint);
    }
    if let Some(sel) = cell.coll {
        let Workload::Coll { op, .. } = cell.kind else {
            unreachable!("coll pin on a non-collective workload")
        };
        exec = exec.coll(CollConfig::new().pin_all(op, sel));
    }
    let base = cell.net.scenario(cell.level, cell.impl_id);
    let mut scenario = base.exec(exec).deadline(SimTime::from_nanos(DEADLINE_NS));
    if loss > 0.0 && cell.net.has_wan() {
        // Seeded per scenario key so every cell's loss pattern is stable
        // across campaigns and cache generations.
        let seed = fnv1a64(&cell.scenario_key()) | 1;
        scenario = scenario.faults(FaultPlan::new().with_seed(seed).with_wan_loss(loss));
    }
    scenario
}

/// Run a prepared scenario with the digest/collector/metrics tee and
/// fold the outputs into the deterministic row fields.
fn run_with(scenario: Scenario, program: impl MpiProgram) -> SimOut {
    let digest = Arc::new(DigestSink::new());
    let collector = Arc::new(Collector::new());
    let metrics = Arc::new(Metrics::new());
    let counting = Arc::new(CountingSink::new(metrics.clone()));
    let tee = Arc::new(Tee::new(vec![
        digest.clone() as Arc<dyn Recorder>,
        collector.clone(),
        counting,
    ]));
    let report = scenario
        .recorder(tee)
        .run(program)
        .unwrap_or_else(|e| panic!("campaign cell failed: {e:?}"));
    metrics.counter_add("run.p2p_messages", report.stats.p2p_messages());
    metrics.counter_add("run.wire_messages", report.stats.wire_messages);
    let events = collector.events();
    let analysis = Analysis::from_events(&events, HEADER_BYTES);
    let metrics_value =
        json::parse(&metrics.snapshot().to_json()).expect("metrics snapshot is valid JSON");
    SimOut {
        digest: digest.value().to_string(),
        events: digest.events(),
        elapsed_ns: report.elapsed.as_nanos(),
        clean: report.clean,
        blame: blame_value(&analysis),
        metrics: metrics_value,
    }
}

/// The blame object of a ledger row: per-bucket seconds and shares from
/// the flow decomposition, plus critical-path shares. All values finite.
fn blame_value(a: &Analysis) -> Value {
    let totals = a.flow_totals();
    let total = totals.total();
    let mut members: Vec<(String, Value)> = vec![("flows".into(), Value::Num(totals.flows as f64))];
    for (name, secs) in totals.rows() {
        members.push((name.to_string(), Value::Num(secs)));
        let share = if total > 0.0 { secs / total } else { 0.0 };
        members.push((format!("{name}_share"), Value::Num(share)));
    }
    members.push((
        "slow_start_ramp_share".into(),
        Value::Num(a.slow_start_share()),
    ));
    if let Some(path) = &a.path {
        for (kind, _) in &path.blame {
            members.push((format!("path_{kind}_share"), Value::Num(path.share(kind))));
        }
    }
    Value::Obj(members)
}

// ------------------------------------------------------------------ cache

type Cache = BTreeMap<String, Value>;

fn load_cache(path: &PathBuf) -> Cache {
    let mut cache = Cache::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return cache;
    };
    let Ok(Value::Obj(members)) = json::parse(&text) else {
        return cache;
    };
    for (k, v) in members {
        if matches!(v, Value::Obj(_)) {
            cache.insert(k, v);
        }
    }
    cache
}

fn save_cache(path: &PathBuf, cache: &Cache) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let members: Vec<(String, Value)> = cache.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    std::fs::write(path, json::write(&Value::Obj(members)))
        .map_err(|e| format!("cannot write cache {}: {e}", path.display()))
}

/// The deterministic row subset stored under the fingerprint.
fn cache_entry(scenario_key: &str, axes: &Value, out: &SimOut) -> Value {
    Value::Obj(vec![
        ("scenario".into(), Value::Str(scenario_key.into())),
        ("axes".into(), axes.clone()),
        ("digest".into(), Value::Str(out.digest.clone())),
        ("events".into(), Value::Num(out.events as f64)),
        ("elapsed_ns".into(), Value::Num(out.elapsed_ns as f64)),
        ("clean".into(), Value::Bool(out.clean)),
        ("blame".into(), out.blame.clone()),
        ("metrics".into(), out.metrics.clone()),
    ])
}

fn entry_to_sim(entry: &Value) -> Option<SimOut> {
    Some(SimOut {
        digest: entry.get("digest")?.as_str()?.to_string(),
        events: entry.get("events")?.as_u64()?,
        elapsed_ns: entry.get("elapsed_ns")?.as_u64()?,
        clean: matches!(entry.get("clean"), Some(Value::Bool(true))),
        blame: entry.get("blame")?.clone(),
        metrics: entry.get("metrics")?.clone(),
    })
}

// -------------------------------------------------------------- campaign

/// Everything `repro campaign` needs to run a sweep.
pub struct CampaignConfig {
    /// Which spec to expand.
    pub spec: Spec,
    /// Campaign label: the ledger file stem and the rows' `campaign`.
    pub label: String,
    /// Directory the ledger file is written into.
    pub ledger_dir: PathBuf,
    /// Result-cache path (shared across campaigns).
    pub cache_path: PathBuf,
    /// Extra WAN loss overlaid on every scenario (`--perturb loss`).
    pub perturb_loss: f64,
    /// Heartbeat interval in seconds (`None` = silent).
    pub heartbeat_secs: Option<f64>,
    /// Suppress the end-of-run summary prints.
    pub quiet: bool,
}

impl CampaignConfig {
    /// The defaults `repro campaign` starts from.
    pub fn new(spec: Spec) -> CampaignConfig {
        CampaignConfig {
            spec,
            label: "campaign".into(),
            ledger_dir: PathBuf::from("results/ledger"),
            cache_path: PathBuf::from("target/campaign_cache.json"),
            perturb_loss: 0.0,
            heartbeat_secs: Some(2.0),
            quiet: false,
        }
    }
}

/// What a campaign did, for callers and gates.
pub struct CampaignReport {
    /// Where the ledger was written.
    pub ledger_path: PathBuf,
    /// Scenario runs executed (rows written).
    pub runs: usize,
    /// How many were replayed from the cache.
    pub cache_hits: usize,
    /// Host wall clock for the whole sweep.
    pub host_secs: f64,
    /// Campaign-level guideline outcomes `(name, pass, detail)`.
    pub guidelines: Vec<(String, bool, String)>,
    /// The ledger's run rows, in cell order.
    pub rows: Vec<RunRow>,
}

impl CampaignReport {
    /// Cache hits as a percentage of runs.
    pub fn hit_pct(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        100.0 * self.cache_hits as f64 / self.runs as f64
    }
}

/// Heartbeat state the completion hook feeds and the ticker thread reads.
struct Pulse {
    total: usize,
    done: AtomicUsize,
    hits: AtomicUsize,
    /// Per-run host µs, for p50/p99.
    hist: Mutex<StreamHist>,
    /// Completions over host time, for the recent rate.
    windowed: Mutex<Windowed>,
    started: Instant,
}

impl Pulse {
    fn new(total: usize) -> Pulse {
        Pulse {
            total,
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            hist: Mutex::new(StreamHist::new()),
            // 1 s windows, keep the last 64.
            windowed: Mutex::new(Windowed::new(1_000_000_000, 64)),
            started: Instant::now(),
        }
    }

    fn complete(&self, host_ns: u64, hit: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.hist.lock().unwrap().observe(host_ns / 1_000);
        let t_ns = self.started.elapsed().as_nanos() as u64;
        self.windowed.lock().unwrap().observe(t_ns, 1.0);
    }

    fn line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let hist = self.hist.lock().unwrap();
        let (p50, p99) = (hist.percentile(0.50), hist.percentile(0.99));
        drop(hist);
        let rate = {
            let w = self.windowed.lock().unwrap();
            let rates = w.rates();
            rates.last().map_or(0.0, |&(_, r)| r)
        };
        format!(
            "campaign: {done}/{} done, {:.0}% cache hits, p50 {:.1} ms / p99 {:.1} ms per run, \
             {rate:.1} runs/s",
            self.total,
            if done > 0 {
                100.0 * hits as f64 / done as f64
            } else {
                0.0
            },
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
        )
    }
}

/// Run a campaign: expand, simulate (or replay from cache), append the
/// ledger, and report.
pub fn run(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    let cells = cfg.spec.cells();
    let fingerprints: Vec<String> = cells
        .iter()
        .map(|c| c.fingerprint(cfg.perturb_loss))
        .collect();
    let cache = Arc::new(load_cache(&cfg.cache_path));
    let pulse = Arc::new(Pulse::new(cells.len()));
    let started = Instant::now();

    // Heartbeat ticker: prints while the sweep runs, then one final line.
    let stop = Arc::new(AtomicBool::new(false));
    let rows: Vec<(usize, RunRow, bool)> = std::thread::scope(|s| {
        let ticker = cfg.heartbeat_secs.map(|secs| {
            let pulse = pulse.clone();
            let stop = stop.clone();
            s.spawn(move || {
                // Poll fine-grained so a finished sweep joins promptly; a
                // coarse sleep here would put a floor under warm-cache
                // campaign latency.
                let step = std::time::Duration::from_millis(10);
                let mut elapsed = 0.0f64;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(step);
                    elapsed += 0.01;
                    if elapsed >= secs {
                        elapsed = 0.0;
                        eprintln!("{}", pulse.line());
                    }
                }
            })
        });
        let indexed: Vec<usize> = (0..cells.len()).collect();
        let rows = par_map_with(
            &indexed,
            |&i| {
                let cell = &cells[i];
                let fp = &fingerprints[i];
                let t0 = Instant::now();
                let (out, hit) = match cache.get(fp).and_then(entry_to_sim) {
                    Some(cached) => (cached, true),
                    None => (simulate(cell, cfg.perturb_loss), false),
                };
                let host_ns = t0.elapsed().as_nanos() as u64;
                pulse.complete(host_ns, hit);
                let row = RunRow {
                    campaign: cfg.label.clone(),
                    seq: i as u64,
                    scenario: cell.scenario_key(),
                    fingerprint: fp.clone(),
                    axes: cell.axes(cfg.perturb_loss),
                    digest: out.digest.clone(),
                    events: out.events,
                    elapsed_ns: out.elapsed_ns,
                    clean: out.clean,
                    blame: out.blame.clone(),
                    metrics: out.metrics.clone(),
                    cached: hit,
                    host_ns,
                };
                (i, row, hit)
            },
            |_| {},
        );
        stop.store(true, Ordering::Relaxed);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        rows
    });

    // Fold fresh results back into the cache.
    let mut new_cache = (*cache).clone();
    let mut cache_hits = 0usize;
    for (i, row, hit) in &rows {
        if *hit {
            cache_hits += 1;
        } else {
            let out = SimOut {
                digest: row.digest.clone(),
                events: row.events,
                elapsed_ns: row.elapsed_ns,
                clean: row.clean,
                blame: row.blame.clone(),
                metrics: row.metrics.clone(),
            };
            new_cache.insert(
                fingerprints[*i].clone(),
                cache_entry(&row.scenario, &row.axes, &out),
            );
        }
    }
    save_cache(&cfg.cache_path, &new_cache)?;

    let run_rows: Vec<&RunRow> = rows.iter().map(|(_, row, _)| row).collect();
    let guidelines = campaign_guidelines(&run_rows);
    let host_secs = started.elapsed().as_secs_f64();

    // Append the ledger: header, runs, summary.
    std::fs::create_dir_all(&cfg.ledger_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.ledger_dir.display()))?;
    let ledger_path = cfg.ledger_dir.join(format!("{}.jsonl", cfg.label));
    let mut body = String::new();
    body.push_str(&json::write(&Value::Obj(vec![
        ("kind".into(), Value::Str("campaign".into())),
        ("schema".into(), Value::Num(SCHEMA as f64)),
        ("campaign".into(), Value::Str(cfg.label.clone())),
        ("spec".into(), Value::Str(cfg.spec.name().into())),
        ("cells".into(), Value::Num(cells.len() as f64)),
        ("perturb_loss".into(), Value::Num(cfg.perturb_loss)),
    ])));
    body.push('\n');
    for (_, row, _) in &rows {
        body.push_str(&row.to_line());
        body.push('\n');
    }
    let guideline_values: Vec<Value> = guidelines
        .iter()
        .map(|(name, pass, detail)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(name.clone())),
                ("pass".into(), Value::Bool(*pass)),
                ("detail".into(), Value::Str(detail.clone())),
            ])
        })
        .collect();
    body.push_str(&json::write(&Value::Obj(vec![
        ("kind".into(), Value::Str("summary".into())),
        ("schema".into(), Value::Num(SCHEMA as f64)),
        ("campaign".into(), Value::Str(cfg.label.clone())),
        ("runs".into(), Value::Num(rows.len() as f64)),
        ("cache_hits".into(), Value::Num(cache_hits as f64)),
        ("host_secs".into(), Value::Num(host_secs)),
        ("guidelines".into(), Value::Arr(guideline_values)),
    ])));
    body.push('\n');
    std::fs::write(&ledger_path, &body)
        .map_err(|e| format!("cannot write {}: {e}", ledger_path.display()))?;

    Ok(CampaignReport {
        ledger_path,
        runs: rows.len(),
        cache_hits,
        host_secs,
        guidelines,
        rows: rows.into_iter().map(|(_, row, _)| row).collect(),
    })
}

// -------------------------------------------- campaign-level guidelines

/// Cross-run guideline outcomes computed from the rows themselves — the
/// paper's shapes at campaign scale, recorded in the summary row so CI
/// and the ledger tools consume them without re-running anything.
fn campaign_guidelines(rows: &[&RunRow]) -> Vec<(String, bool, String)> {
    let mut out = Vec::new();

    // Every run completed cleanly within its deadline.
    let dirty: Vec<&str> = rows
        .iter()
        .filter(|r| !r.clean)
        .map(|r| r.scenario.as_str())
        .collect();
    out.push((
        "campaign-clean-completion".to_string(),
        dirty.is_empty(),
        if dirty.is_empty() {
            format!("all {} runs drained every message", rows.len())
        } else {
            format!("unclean runs: {}", dirty.join(", "))
        },
    ));

    // Index by (scenario key with the tuning axis blanked) so rows that
    // differ only in tuning can be compared; same for loss.
    let axis = |row: &RunRow, key: &str| {
        row.axes
            .get(key)
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                Value::Num(n) => format!("{n}"),
                other => format!("{other:?}"),
            })
            .unwrap_or_default()
    };
    let wan = |row: &RunRow| matches!(axis(row, "net").as_str(), "grid" | "wan4" | "pair16");

    // TCP tuning never hurts bandwidth-bound WAN transfers (§4.2.1 is a
    // large-message claim: at small sizes the tuned kernel's slow-start
    // ramp can legitimately lose to a window-capped transfer, which is
    // exactly what the blame decomposition is there to show). For every
    // pair of large-transfer rows equal on all axes but tuning,
    // tcp_tuned must not be slower than default.
    let mut by_tuning: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for row in rows {
        if !wan(row) || axis(row, "workload") != "pp_16m" {
            continue;
        }
        let group = format!(
            "{}|{}|{}|loss={}|coll={}|{}|shards={}",
            axis(row, "workload"),
            axis(row, "impl"),
            axis(row, "net"),
            axis(row, "loss"),
            axis(row, "coll"),
            axis(row, "engine"),
            axis(row, "shards"),
        );
        by_tuning
            .entry(group)
            .or_default()
            .insert(axis(row, "tuning"), row.elapsed_ns);
    }
    let mut worst: Option<(String, f64)> = None;
    let mut pairs = 0usize;
    for (group, levels) in &by_tuning {
        if let (Some(&default), Some(&tuned)) = (levels.get("default"), levels.get("tcp_tuned")) {
            pairs += 1;
            let ratio = tuned as f64 / default.max(1) as f64;
            if worst.as_ref().is_none_or(|(_, w)| ratio > *w) {
                worst = Some((group.clone(), ratio));
            }
        }
    }
    let (pass, detail) = match &worst {
        None => (
            true,
            "no default/tcp_tuned large-transfer WAN pairs in this spec".into(),
        ),
        Some((group, ratio)) if *ratio <= 1.01 => (
            true,
            format!("{pairs} WAN pairs; worst tuned/default ratio {ratio:.3} ({group})"),
        ),
        Some((group, ratio)) => (
            false,
            format!("tcp_tuned is {ratio:.3}x default on {group}"),
        ),
    };
    out.push(("campaign-tuned-not-slower-wan".to_string(), pass, detail));

    // Injected loss never makes a WAN run faster.
    let mut by_loss: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for row in rows {
        if !wan(row) {
            continue;
        }
        let group = format!(
            "{}|{}|{}|{}|coll={}|{}|shards={}",
            axis(row, "workload"),
            axis(row, "impl"),
            axis(row, "tuning"),
            axis(row, "net"),
            axis(row, "coll"),
            axis(row, "engine"),
            axis(row, "shards"),
        );
        by_loss
            .entry(group)
            .or_default()
            .insert(axis(row, "loss"), row.elapsed_ns);
    }
    let mut worst: Option<(String, f64)> = None;
    let mut pairs = 0usize;
    for (group, losses) in &by_loss {
        if let (Some(&clean), Some(&lossy)) = (losses.get("0"), losses.get("0.001")) {
            pairs += 1;
            let ratio = lossy as f64 / clean.max(1) as f64;
            if worst.as_ref().is_none_or(|(_, w)| ratio < *w) {
                worst = Some((group.clone(), ratio));
            }
        }
    }
    let (pass, detail) = match &worst {
        None => (true, "no clean/lossy WAN pairs in this spec".into()),
        Some((group, ratio)) if *ratio >= 0.999 => (
            true,
            format!("{pairs} WAN pairs; best lossy/clean ratio {ratio:.3} ({group})"),
        ),
        Some((group, ratio)) => (
            false,
            format!("1e-3 loss made {group} faster ({ratio:.3}x)"),
        ),
    };
    out.push(("campaign-loss-never-faster".to_string(), pass, detail));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_is_at_least_100_runs_with_unique_keys() {
        let cells = Spec::Quick.cells();
        assert!(cells.len() >= 100, "quick spec has {} cells", cells.len());
        let keys: std::collections::BTreeSet<String> =
            cells.iter().map(Cell::scenario_key).collect();
        assert_eq!(keys.len(), cells.len(), "duplicate scenario keys");
    }

    #[test]
    fn tiny_spec_is_small_and_unique() {
        let cells = Spec::Tiny.cells();
        assert!(
            (8..=20).contains(&cells.len()),
            "tiny spec has {} cells",
            cells.len()
        );
        let keys: std::collections::BTreeSet<String> =
            cells.iter().map(Cell::scenario_key).collect();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn autotune_specs_expand_the_full_grid_with_unique_keys() {
        for (spec, expected) in [(Spec::AutotuneQuick, 168), (Spec::Autotune, 336)] {
            let cells = spec.cells();
            assert_eq!(cells.len(), expected, "{spec:?}");
            let keys: std::collections::BTreeSet<String> =
                cells.iter().map(Cell::scenario_key).collect();
            assert_eq!(keys.len(), cells.len(), "duplicate keys in {spec:?}");
        }
    }

    #[test]
    fn quick_spec_keys_match_the_benchmark_reference() {
        // The benchmark pins every quick cell by scenario key; a renamed
        // key would orphan its reference row.
        let pinned: std::collections::BTreeSet<&str> =
            include_str!("../../../simbench/reference/outputs.txt")
                .lines()
                .filter_map(|l| l.strip_prefix("cell "))
                .filter_map(|l| l.split(' ').next())
                .collect();
        assert_eq!(pinned.len(), 117);
        let keys: std::collections::BTreeSet<String> =
            Spec::Quick.cells().iter().map(Cell::scenario_key).collect();
        let keys: std::collections::BTreeSet<&str> = keys.iter().map(String::as_str).collect();
        assert_eq!(keys, pinned);
    }

    #[test]
    fn a_workload_name_means_one_workload_across_specs() {
        let mut seen: BTreeMap<String, String> = BTreeMap::new();
        for spec in [Spec::Quick, Spec::Tiny, Spec::Autotune] {
            for cell in spec.cells() {
                let kind = format!("{:?}", cell.kind);
                let prev = seen.entry(cell.workload.clone()).or_insert(kind.clone());
                assert_eq!(*prev, kind, "workload {} is two workloads", cell.workload);
            }
        }
    }

    #[test]
    fn fingerprint_moves_with_perturbation_but_key_does_not() {
        let cell = &Spec::Tiny.cells()[0];
        assert_ne!(cell.fingerprint(0.0), cell.fingerprint(3e-3));
        // Perturbation is not part of the match key.
        assert_eq!(cell.scenario_key(), cell.scenario_key());
    }
}
