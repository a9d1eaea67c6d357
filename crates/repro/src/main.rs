//! `repro` — regenerates every table and figure of INRIA RR-6200
//! ("Comparison and tuning of MPI implementations in a grid context")
//! from the simulator. One subcommand per exhibit; `all` runs everything.

mod ablation;
mod analysis;
mod blame;
mod faults;
mod g2;
mod golden;
mod guidelines;
mod heterogeneity;
mod ledgercli;
mod methodology;
mod nas;
mod pingpong;
mod profile;
mod rays;
mod slowstart;

// The sweep/scenario layer lives in the `repro` library (shared with
// `bench` and the integration tests); re-export it so the binary's
// modules keep their `crate::par::...` paths.
pub(crate) use repro::{par, scenario, util};

use gridapps::Ray2MeshConfig;
use mpisim::MpiImpl;
use npb::NasClass;

use nas::{impl_matrix, layout_matrix, table2, Layout};
use pingpong::{bandwidth_sweep, pingpong, Stack};
use rays::master_location_matrix;
use slowstart::{slowstart_series, time_to};
use util::{fig_sizes, size_label, Scope, TuningLevel};

use std::io::Write as _;
use std::sync::OnceLock;

/// Directory for gnuplot-ready `.dat` files (`--dat DIR`).
static DAT_DIR: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();

/// Chrome trace-event output path (`--trace-out FILE`).
static TRACE_OUT: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();

/// Metrics snapshot output path (`--metrics FILE`).
static METRICS_OUT: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();

/// When `--trace-out` or `--metrics` was given, a ring sink (with an
/// attached metrics registry) to hang on a job via
/// [`mpisim::MpiJob::with_obs`]. Commands that support observability
/// call this, run, then hand the pair to [`write_obs`].
pub(crate) fn obs_sink() -> Option<(
    std::sync::Arc<desim::RingSink>,
    std::sync::Arc<desim::Metrics>,
)> {
    let want =
        |cell: &OnceLock<Option<std::path::PathBuf>>| cell.get().is_some_and(|p| p.is_some());
    if !want(&TRACE_OUT) && !want(&METRICS_OUT) {
        return None;
    }
    let metrics = std::sync::Arc::new(desim::Metrics::new());
    let sink = std::sync::Arc::new(desim::RingSink::with_metrics(1 << 21, metrics.clone()));
    Some((sink, metrics))
}

/// Export whatever `--trace-out` / `--metrics` asked for.
pub(crate) fn write_obs(sink: &desim::RingSink, metrics: &desim::Metrics) {
    if let Some(Some(path)) = TRACE_OUT.get() {
        let events = sink.events();
        let body = desim::obs::export::chrome_trace_with_drops(&events, sink.dropped());
        match std::fs::write(path, body) {
            Ok(()) => println!(
                "wrote {} events to {} ({} dropped); load in Perfetto / chrome://tracing",
                events.len(),
                path.display(),
                sink.dropped()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        if sink.dropped() > 0 {
            eprintln!(
                "warning: recording ring overflowed — {} events were dropped before export; \
                 the trace is truncated (raise the ring capacity to keep everything)",
                sink.dropped()
            );
        }
    }
    if let Some(Some(path)) = METRICS_OUT.get() {
        match std::fs::write(path, metrics.snapshot().to_json()) {
            Ok(()) => println!("wrote metrics snapshot to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Open `<dat-dir>/<name>.dat` if `--dat` was given.
pub(crate) fn dat_file(name: &str) -> Option<std::fs::File> {
    out_file(name, "dat")
}

/// Open `<dat-dir>/<name>.json` if `--dat` was given.
pub(crate) fn json_file(name: &str) -> Option<std::fs::File> {
    out_file(name, "json")
}

fn out_file(name: &str, ext: &str) -> Option<std::fs::File> {
    let dir = DAT_DIR.get()?.as_ref()?;
    std::fs::create_dir_all(dir).ok()?;
    std::fs::File::create(dir.join(format!("{name}.{ext}"))).ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A leading flag means "trace with observability outputs", so that
    // `repro --trace-out run.trace.json` does the obvious thing.
    let cmd = match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with('-') => "trace",
        Some(cmd) => cmd,
        None => "help",
    };
    let class = if args.iter().any(|a| a == "--class-a") {
        NasClass::A
    } else {
        NasClass::B
    };
    let dat = args
        .iter()
        .position(|a| a == "--dat")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let _ = DAT_DIR.set(dat);
    let flag_path = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(std::path::PathBuf::from)
    };
    let _ = TRACE_OUT.set(flag_path("--trace-out"));
    let _ = METRICS_OUT.set(flag_path("--metrics"));
    match cmd {
        "table1" => cmd_table1(),
        "table2" => cmd_table2(class),
        "table4" => cmd_table4(),
        "table5" => cmd_table5(),
        "table6" | "table7" => cmd_ray2mesh(),
        "fig3" => cmd_bandwidth(Scope::Grid, TuningLevel::Default, "Figure 3"),
        "fig5" => cmd_bandwidth(Scope::Cluster, TuningLevel::Default, "Figure 5"),
        "fig6" => cmd_bandwidth(Scope::Grid, TuningLevel::TcpTuned, "Figure 6"),
        "fig7" => cmd_bandwidth(Scope::Grid, TuningLevel::FullyTuned, "Figure 7"),
        "fig9" => cmd_fig9(),
        "fig10" => cmd_fig10(class, Layout::Split(8, 8), "Figure 10"),
        "fig11" => cmd_fig10(class, Layout::Split(2, 2), "Figure 11"),
        "fig12" => cmd_fig12(class),
        "fig13" => cmd_fig13(class),
        "testbed" => cmd_testbed(),
        "ablation" => ablation::cmd_ablation(),
        "g2" => g2::cmd_g2(class),
        "heterogeneity" => heterogeneity::cmd_heterogeneity(),
        "perturbation" => methodology::cmd_perturbation(),
        "simri" => methodology::cmd_simri(),
        "utilization" => analysis::cmd_utilization(),
        "placement" => analysis::cmd_placement(),
        "scaling" => analysis::cmd_scaling(),
        "trace" => {
            let bench = args
                .get(1)
                .and_then(|a| {
                    npb::NasBenchmark::ALL
                        .into_iter()
                        .find(|b| b.name().eq_ignore_ascii_case(a))
                })
                .unwrap_or(npb::NasBenchmark::Cg);
            analysis::cmd_trace(bench);
        }
        "ring" => cmd_ring(&args[1..]),
        "cwnd" => slowstart::cmd_cwnd(),
        "faults" => faults::cmd_faults(),
        "blame" => blame::cmd_blame(&args[1..]),
        "profile" => profile::cmd_profile(&args[1..]),
        "timeline" => profile::cmd_timeline(&args[1..]),
        "autotune-coll" => ledgercli::cmd_autotune_coll(&args[1..]),
        "golden" => golden::cmd_golden(&args),
        "guidelines" => guidelines::cmd_guidelines(&args[1..]),
        "campaign" => ledgercli::cmd_campaign(&args[1..]),
        "ledger" => ledgercli::cmd_ledger(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "all" => {
            cmd_testbed();
            cmd_table1();
            cmd_bandwidth(Scope::Cluster, TuningLevel::Default, "Figure 5");
            cmd_bandwidth(Scope::Grid, TuningLevel::Default, "Figure 3");
            cmd_bandwidth(Scope::Grid, TuningLevel::TcpTuned, "Figure 6");
            cmd_bandwidth(Scope::Grid, TuningLevel::FullyTuned, "Figure 7");
            cmd_table4();
            cmd_table5();
            cmd_fig9();
            cmd_table2(class);
            cmd_fig10(class, Layout::Split(8, 8), "Figure 10");
            cmd_fig10(class, Layout::Split(2, 2), "Figure 11");
            cmd_fig12(class);
            cmd_fig13(class);
            cmd_ray2mesh();
            ablation::cmd_ablation();
            g2::cmd_g2(class);
            heterogeneity::cmd_heterogeneity();
            methodology::cmd_perturbation();
            methodology::cmd_simri();
            analysis::cmd_utilization();
            analysis::cmd_placement();
            analysis::cmd_scaling();
            slowstart::cmd_cwnd();
            faults::cmd_faults();
        }
        _ => {
            eprintln!(
                "usage: repro <table1|table2|table4|table5|table6|table7|\
                 fig3|fig5|fig6|fig7|fig9|fig10|fig11|fig12|fig13|testbed|ablation|g2|heterogeneity|perturbation|simri|\
                 utilization|placement|scaling|trace [BENCH]|cwnd|faults|\
                 ring [--ranks N] [--rounds N]|\
                 blame [pingpong|nas|ray2mesh|faults] [--trace-in FILE] \
                 [--emit-events FILE] [--format text|json|dat]|\
                 profile [pingpong|nas|ray2mesh|faults] [--domain host|virtual] \
                 [--format folded|speedscope]|\
                 timeline [pingpong|nas|ray2mesh|faults] [--window MS]|\
                 autotune-coll [--quick] [--check] [--cache FILE]|\
                 golden <record|check> [--dir DIR]|\
                 guidelines [NAME ...] [--format text|json]|\
                 campaign [--spec quick|tiny|autotune|autotune-quick] [--label NAME] [--ledger-dir DIR] \
                 [--cache FILE] [--perturb loss[=RATE]] [--no-heartbeat] \
                 [--min-cache-hits PCT]|\
                 ledger <diff OLD NEW [--threshold PCT]|\
                 top OLD NEW [--limit N] [--min-delta X]|report FILE [--dat DIR]>|\
                 validate FILE [--require-event NAME] [--summary]|all> \
                 [--class-a] [--dat DIR] [--trace-out FILE] [--metrics FILE]"
            );
        }
    }
}

/// `repro ring [--ranks N] [--rounds N] [--shards N]`: the rank-scale
/// demonstration — a ring exchange far beyond the paper's 16-rank
/// testbed, run in one process by the pooled continuation engine (or
/// whatever `MPISIM_ENGINE` selects). Ranks are placed in contiguous
/// blocks across an 8+8-node tuned testbed, so ring edges are mostly
/// node-local and the run completes in seconds even at 4096+ ranks.
/// `--shards N` runs on the sharded PDES driver with `N` workers: the
/// ring is eager with in-degree 1 per rank, so it satisfies the
/// site-disjoint partition contract and splits into one shard per site.
fn cmd_ring(args: &[String]) {
    let flag_num = |flag: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{flag} takes a number"))
            })
            .unwrap_or(default)
    };
    let ranks = flag_num("--ranks", 4096);
    let rounds = flag_num("--rounds", 4) as u32;
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<u32>().expect("--shards takes a number"));
    let engine = mpisim::Engine::from_env();
    let mut exec = mpisim::ExecConfig::new().engine(engine);
    if let Some(n) = shards {
        exec = exec.shards(n).pattern(mpisim::CommPattern::SiteDisjoint);
    }
    let (mut topo, rn, nn) = netsim::grid5000_pair(8);
    topo.set_kernel_all(netsim::KernelConfig::tuned(4 << 20));
    let nodes: Vec<netsim::NodeId> = rn.into_iter().chain(nn).collect();
    let placement: Vec<netsim::NodeId> = (0..ranks)
        .map(|r| nodes[r * nodes.len() / ranks.max(nodes.len())])
        .collect();
    let wall = std::time::Instant::now();
    let report = mpisim::MpiJob::new(netsim::Network::new(topo), placement, MpiImpl::Mpich2)
        .with_tuning(mpisim::Tuning::paper_tuned(MpiImpl::Mpich2))
        .with_exec(exec)
        .run(move |mut ctx: mpisim::RankCtx| async move {
            const TAG: u64 = 7;
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..rounds {
                ctx.sendrecv(right, 1024, left, TAG).await;
            }
        })
        .expect("ring completes");
    let wall = wall.elapsed().as_secs_f64();
    match shards {
        Some(n) => println!(
            "# Rank-scale ring ({ranks} ranks x {rounds} rounds, engine {engine:?}, pdes {n} workers)"
        ),
        None => println!("# Rank-scale ring ({ranks} ranks x {rounds} rounds, engine {engine:?})"),
    }
    println!("ranks            {ranks}");
    println!("virtual elapsed  {:.6} s", report.elapsed.as_secs_f64());
    println!("p2p messages     {}", report.stats.p2p_messages());
    println!("wire messages    {}", report.stats.wire_messages);
    println!("host wall clock  {wall:.2} s");
    assert!(report.clean, "ring left undrained messages");
}

/// `repro validate FILE [--require-event NAME ...] [--summary]`: check
/// that an exported trace or metrics file is well-formed JSON (std-only
/// RFC 8259 validator, no external tools), and — for each
/// `--require-event` — that the trace actually contains an *event* with
/// that name. Unlike a bare `grep`, the check looks only at `"name"`
/// fields of trace objects, so a string that happens to appear in some
/// unrelated field cannot satisfy it. `--summary` additionally prints the
/// event count per kind and the total span coverage of the document, and
/// every parse warns when the trace records that its recording ring
/// dropped events.
fn cmd_validate(args: &[String]) {
    let path = args
        .iter()
        .find(|a| !a.starts_with('-'))
        .map(String::as_str);
    let required: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--require-event")
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect();
    let summary = args.iter().any(|a| a == "--summary");
    let required_total = required.len();
    let Some(path) = path else {
        eprintln!("usage: repro validate FILE [--require-event NAME ...] [--summary]");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    // JSON-lines documents (campaign ledgers, bench output) validate
    // per line; ledger rows additionally pass the schema validator.
    if path.ends_with(".jsonl") {
        validate_jsonl(path, &text, summary);
        return;
    }
    let doc = match desim::obs::json::parse(&text) {
        Ok(v) => v,
        Err((pos, msg)) => {
            eprintln!("{path}: invalid JSON at byte {pos}: {msg}");
            std::process::exit(1);
        }
    };
    println!("{path}: valid JSON ({} bytes)", text.len());
    if let Some(dropped) = doc.get("droppedEvents").and_then(|v| v.as_u64()) {
        if dropped > 0 {
            eprintln!(
                "{path}: warning: the recording ring dropped {dropped} events before export — \
                 this trace is truncated"
            );
        }
    }
    if summary {
        print_summary(path, &doc);
    }
    if required.is_empty() {
        return;
    }
    let mut missing = Vec::new();
    for name in required {
        if event_named(&doc, name) {
            println!("{path}: has event {name:?}");
        } else {
            eprintln!("{path}: MISSING required event {name:?}");
            missing.push(name);
        }
    }
    if !missing.is_empty() {
        // One closing line naming every absent event, so a CI log shows
        // the full damage without re-running per name.
        eprintln!(
            "{path}: {} of {} required events missing: {}",
            missing.len(),
            required_total,
            missing.join(", ")
        );
        std::process::exit(1);
    }
}

/// Validate a JSON-lines document: every non-empty line must be valid
/// JSON, and any line carrying a `"kind"` field must also pass the
/// ledger schema validator ([`desim::obs::ledger::validate_line`]).
fn validate_jsonl(path: &str, text: &str, summary: bool) {
    let mut lines = 0usize;
    let mut kinds: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let doc = match desim::obs::json::parse(line) {
            Ok(v) => v,
            Err((pos, msg)) => {
                eprintln!("{path}:{}: invalid JSON at byte {pos}: {msg}", i + 1);
                std::process::exit(1);
            }
        };
        let kind = doc
            .get("kind")
            .and_then(desim::obs::json::Value::as_str)
            .map(str::to_string);
        if kind.is_some() {
            if let Err(e) = desim::obs::ledger::validate_line(line) {
                eprintln!("{path}:{}: {e}", i + 1);
                std::process::exit(1);
            }
        }
        *kinds
            .entry(kind.unwrap_or_else(|| "(no kind)".into()))
            .or_insert(0) += 1;
    }
    println!(
        "{path}: valid JSON lines ({lines} lines, {} bytes)",
        text.len()
    );
    if summary {
        println!("{path}: summary:");
        for (kind, n) in &kinds {
            println!("  {kind:<12} {n:>8}");
        }
    }
}

/// True if `doc` contains (at any depth) an object whose `"name"` is
/// `want` exactly, or `want` followed by a ` #subject` suffix (the form
/// fault instants use in the Chrome trace, e.g. `"rank_fail #3"`).
fn event_named(doc: &desim::obs::json::Value, want: &str) -> bool {
    use desim::obs::json::Value;
    let name_matches = |name: &str| {
        name == want
            || name
                .strip_prefix(want)
                .is_some_and(|rest| rest.starts_with(" #"))
    };
    match doc {
        Value::Obj(members) => {
            if doc
                .get("name")
                .and_then(Value::as_str)
                .is_some_and(name_matches)
            {
                return true;
            }
            members.iter().any(|(_, v)| event_named(v, want))
        }
        Value::Arr(items) => items.iter().any(|v| event_named(v, want)),
        _ => false,
    }
}

/// `repro validate --summary`: per-kind event counts plus total span
/// coverage. Works on both document shapes the tools emit: Chrome trace
/// rows carry a `"ph"` discriminator (`X` span, `C` counter, `i` instant,
/// `M` metadata); json-lines-derived objects carry a `"kind"` field.
fn print_summary(path: &str, doc: &desim::obs::json::Value) {
    use desim::obs::json::Value;
    fn walk(doc: &Value, f: &mut impl FnMut(&Value)) {
        match doc {
            Value::Obj(members) => {
                f(doc);
                for (_, v) in members {
                    walk(v, f);
                }
            }
            Value::Arr(items) => {
                for v in items {
                    walk(v, f);
                }
            }
            _ => {}
        }
    }
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut span_us = 0.0f64;
    let mut spans = 0u64;
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    walk(doc, &mut |obj| {
        let kind = match obj.get("ph").and_then(Value::as_str) {
            Some("X") => Some("span".to_string()),
            Some("C") => Some("counter".to_string()),
            Some("i") => Some("instant".to_string()),
            Some("M") => Some("metadata".to_string()),
            Some(other) => Some(format!("ph:{other}")),
            None => obj.get("kind").and_then(Value::as_str).map(str::to_string),
        };
        let Some(kind) = kind else { return };
        *counts.entry(kind).or_insert(0) += 1;
        if let Some(ts) = obj.get("ts").and_then(Value::as_f64) {
            t_min = t_min.min(ts);
            t_max = t_max.max(ts);
            if let Some(dur) = obj.get("dur").and_then(Value::as_f64) {
                spans += 1;
                span_us += dur;
                t_max = t_max.max(ts + dur);
            }
        }
    });
    if counts.is_empty() {
        println!("{path}: summary: no trace events (not a trace document?)");
        return;
    }
    println!("{path}: summary:");
    let total: u64 = counts.values().sum();
    for (kind, n) in &counts {
        println!("  {kind:<12} {n:>8}");
    }
    println!("  {:<12} {:>8}", "total", total);
    if spans > 0 && t_max > t_min {
        let range_us = t_max - t_min;
        println!(
            "  span coverage: {spans} spans, {:.6} s total over a {:.6} s range ({:.1}% — \
             >100% means overlapping rows)",
            span_us / 1e6,
            range_us / 1e6,
            100.0 * span_us / range_us
        );
    }
}

/// Quote and escape a string for JSON output.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn cmd_testbed() {
    header("Testbed (Figures 1, 2 and 8): Grid'5000 model");
    let (topo, rn, nn) = netsim::grid5000_pair(8);
    let p = topo.route(rn[0], nn[0]);
    println!(
        "Rennes <-> Nancy: RTT {:.1} ms, per-flow bottleneck {:.0} Mbps (1 GbE NIC), WAN 10 GbE",
        p.rtt.as_secs_f64() * 1e3,
        p.bottleneck * 8.0 / 1e6
    );
    println!("Inter-site RTT matrix (ms), Fig. 8 sites:");
    print!("{:>10}", "");
    for s in netsim::Grid5000Site::ALL {
        print!("{:>10}", s.name());
    }
    println!();
    for (i, s) in netsim::Grid5000Site::ALL.iter().enumerate() {
        print!("{:>10}", s.name());
        for j in 0..4 {
            print!("{:>10.1}", netsim::GRID5000_RTT_MS[i][j]);
        }
        println!();
    }
    println!("Per-node CPU model (Gflop/s, Table 3 + §4.4 ordering):");
    for s in netsim::Grid5000Site::ALL {
        println!("  {:<10} {:.1}", s.name(), s.cpu_gflops());
    }
}

fn cmd_table1() {
    header("Table 1: Comparison of MPI implementation features");
    println!(
        "{:<18} {:<34} {:<40}",
        "", "Long-distance optimizations", "Network heterogeneity management"
    );
    for id in MpiImpl::ALL {
        let p = id.profile();
        let long = match id {
            MpiImpl::GridMpi => "TCP pacing; optim. Bcast/Allreduce",
            MpiImpl::MpichG2 => "Parallel streams; optim. collectives",
            MpiImpl::MpichVmi => "Optim. of collective operations",
            _ => "None",
        };
        let het = match id {
            MpiImpl::Mpich2 => "None",
            MpiImpl::GridMpi => "IMPI above TCP (no low-latency nets)",
            MpiImpl::MpichMadeleine => "Gateways: TCP/SCI/VIA/Myrinet/Quadrics",
            MpiImpl::OpenMpi => "BTL components: TCP/Myrinet/Infiniband",
            MpiImpl::MpichG2 => "TCP above VendorMPI (Globus)",
            MpiImpl::MpichVmi => "VMI gateways: TCP/Myrinet/Infiniband",
        };
        println!("{:<18} {:<34} {:<40}", p.impl_id.name(), long, het);
        println!(
            "{:<18}   eager threshold {:>10}, socket policy {:?}, pacing {}",
            "",
            if p.eager_threshold == u64::MAX {
                "inf".to_string()
            } else {
                size_label(p.eager_threshold)
            },
            p.socket_policy,
            p.pacing
        );
    }
}

fn cmd_bandwidth(scope: Scope, level: TuningLevel, title: &str) {
    let dat_name = title.to_lowercase().replace(' ', "");
    header(&format!(
        "{title}: MPI bandwidth, {} network, {}",
        match scope {
            Scope::Cluster => "local (cluster)",
            Scope::Grid => "distant (grid)",
        },
        level.label()
    ));
    let sizes = fig_sizes();
    let sweep = bandwidth_sweep(scope, level, &sizes, 30);
    if let Some(mut f) = dat_file(&dat_name) {
        let _ = writeln!(
            f,
            "# bytes {}",
            sweep
                .iter()
                .map(|(s, _)| s.label().replace(' ', "_"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for i in 0..sizes.len() {
            let _ = write!(f, "{}", sizes[i]);
            for (_, points) in &sweep {
                let _ = write!(f, " {:.2}", points[i].max_mbps);
            }
            let _ = writeln!(f);
        }
    }
    print!("{:>8}", "size");
    for (stack, _) in &sweep {
        print!("{:>24}", stack.label());
    }
    println!("   (Mbps, max over iterations)");
    for i in 0..sizes.len() {
        print!("{:>8}", size_label(sweep[0].1[i].bytes));
        for (_, points) in &sweep {
            print!("{:>24.1}", points[i].max_mbps);
        }
        println!();
    }
}

fn cmd_table4() {
    header("Table 4: 1-byte latency in a cluster and in the grid (µs, min over iterations)");
    println!(
        "{:<24} {:>18} {:>18}",
        "", "Rennes cluster", "Rennes-Nancy grid"
    );
    let mut tcp = (0.0, 0.0);
    for stack in Stack::ALL {
        let c = pingpong(stack, Scope::Cluster, TuningLevel::Default, 1, 20);
        let g = pingpong(stack, Scope::Grid, TuningLevel::Default, 1, 20);
        let (cu, gu) = (c.min_one_way * 1e6, g.min_one_way * 1e6);
        match stack {
            Stack::RawTcp => {
                tcp = (cu, gu);
                println!("{:<24} {:>18.0} {:>18.0}", stack.label(), cu, gu);
            }
            Stack::Mpi(id) => {
                println!(
                    "{:<24} {:>12.0} (+{:>2.0}) {:>12.0} (+{:>2.0})",
                    id.name(),
                    cu,
                    cu - tcp.0,
                    gu,
                    gu - tcp.1
                );
            }
        }
    }
}

fn cmd_table5() {
    header("Table 5: ideal eager/rendezvous threshold per implementation");
    println!(
        "{:<18} {:>12} {:>16} {:>16}",
        "", "original", "ideal (cluster)", "ideal (grid)"
    );
    for id in MpiImpl::ALL {
        let orig = id.profile().eager_threshold;
        if id == MpiImpl::GridMpi {
            println!("{:<18} {:>12} {:>16} {:>16}", id.name(), "inf", "-", "-");
            continue;
        }
        let cap: u64 = if id == MpiImpl::OpenMpi {
            32 << 20
        } else {
            65 << 20
        };
        let ideal = |scope: Scope| -> String {
            // Does rendezvous ever beat eager below 64 MB?
            for bytes in [1u64 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26] {
                let eager = timed_mode(id, scope, bytes, Some(u64::MAX));
                let rndv = timed_mode(id, scope, bytes, Some(0));
                if rndv < eager {
                    return size_label(bytes);
                }
            }
            size_label(cap)
        };
        println!(
            "{:<18} {:>12} {:>16} {:>16}",
            id.name(),
            size_label(orig),
            ideal(Scope::Cluster),
            ideal(Scope::Grid)
        );
    }
    println!("(ideal = smallest size where rendezvous wins, else the knob maximum:");
    println!(" the paper's 65M/32M mean 'rendezvous never wins below 64 MB')");
}

/// Steady-state one-way time for `bytes` with a forced protocol mode.
pub(crate) fn timed_mode(id: MpiImpl, scope: Scope, bytes: u64, threshold: Option<u64>) -> f64 {
    let level = TuningLevel::TcpTuned;
    let mut tuning = level.tuning(id);
    tuning.eager_threshold = threshold;
    let report = scenario::Scenario::pair(scope, level, id)
        .tuning(tuning)
        .run(move |mut ctx: mpisim::RankCtx| async move {
            const TAG: u64 = 1;
            for _ in 0..10 {
                if ctx.rank() == 0 {
                    let t0 = ctx.now();
                    ctx.send(1, bytes, TAG).await;
                    ctx.recv(1, TAG).await;
                    ctx.record("one_way", ctx.now().since(t0).as_secs_f64() / 2.0);
                } else {
                    ctx.recv(0, TAG).await;
                    ctx.send(0, bytes, TAG).await;
                }
            }
        })
        .expect("mode probe completes");
    report
        .values("one_way")
        .into_iter()
        .map(|(_, v)| v)
        .fold(f64::INFINITY, f64::min)
}

fn cmd_fig9() {
    header("Figure 9: impact of TCP slow start — 200 x 1 MB pingpong Rennes->Nancy");
    for stack in Stack::ALL {
        let series = slowstart_series(stack, 1 << 20, 200);
        if let Some(mut f) = dat_file(&format!(
            "figure9_{}",
            stack.label().to_lowercase().replace(' ', "_")
        )) {
            let _ = writeln!(f, "# t_secs mbps");
            for p in &series {
                let _ = writeln!(f, "{:.4} {:.2}", p.t, p.mbps);
            }
        }
        println!("\n--- {} ---", stack.label());
        println!("{:>8} {:>10}", "t (s)", "Mbps");
        for (i, p) in series.iter().enumerate() {
            if i % 10 == 0 {
                println!("{:>8.2} {:>10.1}", p.t, p.mbps);
            }
        }
        let t500 = time_to(&series, 500.0);
        let max = series.iter().map(|p| p.mbps).fold(0.0, f64::max);
        let t90 = time_to(&series, 0.9 * max);
        println!(
            "reaches 500 Mbps at {}; 90% of max ({max:.0} Mbps) at {}",
            t500.map_or("never".into(), |t| format!("{t:.2}s")),
            t90.map_or("never".into(), |t| format!("{t:.2}s")),
        );
    }
}

fn cmd_fig10(class: NasClass, layout: Layout, title: &str) {
    header(&format!(
        "{title}: NPB class {} on {} — relative to MPICH2",
        class.name(),
        layout.label()
    ));
    let matrix = impl_matrix(class, layout);
    if let Some(mut f) = json_file(&format!("{}_times", title.to_lowercase().replace(' ', ""))) {
        // Machine-readable record alongside the table; keys sorted so the
        // output is stable run-to-run.
        let records: Vec<String> = matrix
            .iter()
            .map(|(bench, row)| {
                let mut seconds: Vec<(&str, Option<f64>)> =
                    row.iter().map(|(id, o)| (id.name(), o.secs())).collect();
                seconds.sort_by_key(|(name, _)| *name);
                let seconds = seconds
                    .iter()
                    .map(|(name, s)| {
                        format!(
                            "      {}: {}",
                            json_str(name),
                            s.map_or("null".into(), |s| format!("{s}"))
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    "  {{\n    \"benchmark\": {},\n    \"class\": {},\n    \
                     \"layout\": {},\n    \"seconds\": {{\n{}\n    }}\n  }}",
                    json_str(bench.name()),
                    json_str(class.name()),
                    json_str(&layout.label()),
                    seconds
                )
            })
            .collect();
        let _ = write!(f, "[\n{}\n]", records.join(",\n"));
    }
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>14}   (time s | speedup vs MPICH2)",
        "", "MPICH2", "GridMPI", "MPICH-Mad.", "OpenMPI"
    );
    for (bench, row) in matrix {
        let reference = row
            .iter()
            .find(|(id, _)| *id == MpiImpl::Mpich2)
            .and_then(|(_, o)| o.secs())
            .unwrap_or(f64::NAN);
        print!("{:<6}", bench.name());
        for (_, outcome) in &row {
            match outcome.secs() {
                Some(s) => print!("{:>8.1}|{:<5.2}", s, reference / s),
                None => print!("{:>14}", "timeout"),
            }
        }
        println!();
    }
}

fn cmd_fig12(class: NasClass) {
    header(&format!(
        "Figure 12: NPB class {} — 8+8 grid relative to 16 nodes on one cluster",
        class.name()
    ));
    let matrix = layout_matrix(class, Layout::Cluster(16), Layout::Split(8, 8));
    print_layout_matrix(matrix, "t_cluster16/t_grid (1.0 = no grid penalty)");
}

fn cmd_fig13(class: NasClass) {
    header(&format!(
        "Figure 13: NPB class {} — 8+8 grid speed-up over 4 nodes on one cluster",
        class.name()
    ));
    let matrix = layout_matrix(class, Layout::Cluster(4), Layout::Split(8, 8));
    print_layout_matrix(matrix, "speedup = t_cluster4/t_grid (ideal 4)");
}

fn print_layout_matrix(matrix: Vec<(npb::NasBenchmark, nas::LayoutRow)>, metric: &str) {
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>14}   ({metric})",
        "", "MPICH2", "GridMPI", "MPICH-Mad.", "OpenMPI"
    );
    for (bench, row) in matrix {
        print!("{:<6}", bench.name());
        for (_, reference, grid) in &row {
            match (reference.secs(), grid.secs()) {
                (Some(r), Some(g)) => print!("{:>14.2}", r / g),
                _ => print!("{:>14}", "timeout"),
            }
        }
        println!();
    }
}

fn cmd_table2(class: NasClass) {
    header(&format!(
        "Table 2: NPB communication features (class {}, 16 ranks, instrumented)",
        class.name()
    ));
    for row in table2(class) {
        println!("\n{} [{}]", row.bench.name(), row.comm_type);
        if !row.p2p.is_empty() {
            print!("  p2p:");
            for (lo, hi, n) in &row.p2p {
                if lo == hi {
                    print!(" {n} x {lo}B;");
                } else {
                    print!(" {n} x {lo}..{hi}B;");
                }
            }
            println!();
        }
        if !row.collectives.is_empty() {
            print!("  collectives:");
            for (op, sz, n) in &row.collectives {
                print!(" {n} x {op}({sz}B);");
            }
            println!();
        }
    }
}

fn cmd_ray2mesh() {
    header("Tables 6 and 7: ray2mesh on four clusters, master location varied");
    let cfg = Ray2MeshConfig::default();
    let runs = master_location_matrix(&cfg);
    println!("\nTable 6: mean rays computed per node of each cluster");
    print!("{:<12}", "cluster");
    for r in &runs {
        print!("{:>12}", r.master.name());
    }
    println!("   (column = master location)");
    for (i, site) in netsim::Grid5000Site::ALL.iter().enumerate() {
        print!("{:<12}", site.name());
        for r in &runs {
            print!("{:>12.0}", r.rays_per_node[i]);
        }
        println!();
    }
    println!("\nTable 7: phase times (s)");
    print!("{:<12}", "");
    for r in &runs {
        print!("{:>12}", r.master.name());
    }
    println!();
    for (label, f) in [
        (
            "Comp. time",
            (|r: &rays::RayRun| r.compute_secs) as fn(&rays::RayRun) -> f64,
        ),
        ("Merge time", |r| r.merge_secs),
        ("Total time", |r| r.total_secs),
    ] {
        print!("{:<12}", label);
        for r in &runs {
            print!("{:>12.2}", f(r));
        }
        println!();
    }
}
