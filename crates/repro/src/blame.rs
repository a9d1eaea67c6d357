//! `repro blame` — where every microsecond went.
//!
//! Runs a scenario with a live [`Collector`] attached (or replays a
//! JSON-lines trace via `--trace-in`), feeds the event stream to
//! [`desim::obs::analysis::Analysis`], and reports three views: per-rank
//! wait states (late sender / late receiver / imbalance), per-flow
//! transfer decomposition (slow-start ramp, window-limited plateau,
//! congestion avoidance, RTO stalls, outages, wire time), and the
//! critical path with per-activity blame. The `pingpong` scenario
//! additionally contrasts untuned vs tuned kernels and forced-eager vs
//! forced-rendezvous protocol modes — the quantified form of the paper's
//! two tuning stories (§3.2 socket buffers, §3.3 eager threshold).

use std::io::Write as _;
use std::sync::Arc;

use desim::obs::analysis::{events_from_jsonl, Analysis, Collector};
use desim::Event;
use gridapps::Ray2MeshConfig;
use mpisim::{FaultPlan, MpiImpl, MpiProgram, RankCtx, HEADER_BYTES};
use netsim::Grid5000Site;
use npb::{NasBenchmark, NasClass, NasRun};

use crate::scenario::{pingpong_program, Scenario};
use crate::util::{Scope, TuningLevel};

/// One analyzed run (or replayed stream).
struct Section {
    label: &'static str,
    /// What the run was, for the report header.
    detail: String,
    /// Virtual elapsed time (0 for replays, which have no run report).
    elapsed_ns: u64,
    events: Vec<Event>,
    analysis: Analysis,
}

/// Run `scenario` with a collector attached and analyze the stream.
fn run_section(
    label: &'static str,
    detail: String,
    scenario: Scenario,
    program: impl MpiProgram,
) -> Section {
    let col = Arc::new(Collector::new());
    let report = scenario
        .recorder(col.clone())
        .run(program)
        .unwrap_or_else(|e| panic!("blame scenario {label} failed: {e:?}"));
    let events = col.events();
    let analysis = Analysis::from_events(&events, HEADER_BYTES);
    Section {
        label,
        detail,
        elapsed_ns: report.elapsed.as_nanos(),
        events,
        analysis,
    }
}

/// A pair scenario with the eager/rendezvous decision forced.
fn forced_mode(threshold: Option<u64>) -> Scenario {
    let level = TuningLevel::TcpTuned;
    let mut tuning = level.tuning(MpiImpl::Mpich2);
    tuning.eager_threshold = threshold;
    Scenario::pair(Scope::Grid, level, MpiImpl::Mpich2).tuning(tuning)
}

/// 64 MB WAN ping-pong, untuned vs tuned kernel: the aggregate
/// slow-start share of each (the guideline
/// `blame-slow-start-share` asserts untuned > tuned > absent).
pub(crate) fn slow_start_shares() -> (f64, f64) {
    let bytes = 64 << 20;
    let untuned = run_section(
        "untuned",
        String::new(),
        Scenario::pair(Scope::Grid, TuningLevel::Default, MpiImpl::Mpich2),
        pingpong_program(bytes, 1),
    );
    let tuned = run_section(
        "tuned",
        String::new(),
        Scenario::pair(Scope::Grid, TuningLevel::TcpTuned, MpiImpl::Mpich2),
        pingpong_program(bytes, 1),
    );
    (
        untuned.analysis.slow_start_share(),
        tuned.analysis.slow_start_share(),
    )
}

/// Crossover-sized WAN message under forced eager vs forced rendezvous:
/// mean handshake seconds of each (the guideline `blame-rndv-handshake`
/// asserts the difference is at least one WAN round trip).
pub(crate) fn handshake_split() -> (f64, f64) {
    let bytes = 1 << 20;
    let mean = |s: &Section| {
        let msgs = &s.analysis.messages;
        if msgs.is_empty() {
            return 0.0;
        }
        msgs.iter().map(|m| m.handshake_secs).sum::<f64>() / msgs.len() as f64
    };
    let eager = run_section(
        "eager",
        String::new(),
        forced_mode(Some(u64::MAX)),
        pingpong_program(bytes, 1),
    );
    let rndv = run_section(
        "rendezvous",
        String::new(),
        forced_mode(Some(0)),
        pingpong_program(bytes, 1),
    );
    (mean(&eager), mean(&rndv))
}

fn sections_for(scenario: &str) -> Vec<Section> {
    match scenario {
        "pingpong" => {
            let bytes = 64 << 20;
            vec![
                run_section(
                    "untuned",
                    "64 MB WAN ping-pong, untuned kernel (default buffers)".into(),
                    Scenario::pair(Scope::Grid, TuningLevel::Default, MpiImpl::Mpich2),
                    pingpong_program(bytes, 1),
                ),
                run_section(
                    "tuned",
                    "64 MB WAN ping-pong, tuned kernel (4 MB buffers)".into(),
                    Scenario::pair(Scope::Grid, TuningLevel::TcpTuned, MpiImpl::Mpich2),
                    pingpong_program(bytes, 1),
                ),
                run_section(
                    "eager",
                    "1 MB WAN message, protocol forced eager".into(),
                    forced_mode(Some(u64::MAX)),
                    pingpong_program(1 << 20, 1),
                ),
                run_section(
                    "rendezvous",
                    "1 MB WAN message, protocol forced rendezvous".into(),
                    forced_mode(Some(0)),
                    pingpong_program(1 << 20, 1),
                ),
            ]
        }
        "nas" => {
            let run = NasRun::quick(NasBenchmark::Cg, NasClass::S);
            vec![run_section(
                "nas_cg",
                "NPB CG class S quick run, 8+8 grid, GridMPI fully tuned".into(),
                Scenario::npb(8, 8, 8, TuningLevel::FullyTuned, MpiImpl::GridMpi),
                run.program(),
            )]
        }
        "ray2mesh" => {
            let cfg = Ray2MeshConfig::small();
            vec![run_section(
                "ray2mesh",
                "ray2mesh small, four sites, master on the first site".into(),
                Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi),
                cfg.program(),
            )]
        }
        "faults" => vec![run_section(
            "lossy_wan",
            "16 MB WAN transfer with seeded 1e-3 segment loss".into(),
            Scenario::pair(Scope::Grid, TuningLevel::TcpTuned, MpiImpl::Mpich2)
                .faults(FaultPlan::new().with_seed(42).with_wan_loss(1e-3)),
            |mut ctx: RankCtx| async move {
                const TAG: u64 = 7;
                if ctx.rank() == 0 {
                    ctx.send(1, 16 << 20, TAG).await;
                } else {
                    ctx.recv(0, TAG).await;
                }
            },
        )],
        other => {
            eprintln!("unknown blame scenario {other:?} (want pingpong|nas|ray2mesh|faults)");
            std::process::exit(2);
        }
    }
}

fn print_text(section: &Section) {
    println!("\n--- {} ---", section.label);
    if !section.detail.is_empty() {
        println!("{}", section.detail);
    }
    if section.elapsed_ns > 0 {
        println!("virtual elapsed: {:.6} s", section.elapsed_ns as f64 / 1e9);
    }
    let a = &section.analysis;

    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11} {:>11} {:>10}",
        "rank",
        "compute",
        "send",
        "recv",
        "wait_send",
        "coll",
        "idle",
        "late-send",
        "late-recv",
        "imbalance"
    );
    for r in &a.ranks {
        println!(
            "{:>5} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>11.4} {:>11.4} {:>10.4}",
            r.rank,
            r.compute_secs,
            r.send_secs,
            r.recv_secs,
            r.wait_send_secs,
            r.collective_secs,
            r.idle_secs,
            r.late_sender_secs,
            r.late_receiver_secs,
            r.imbalance_secs
        );
    }

    let b = a.flow_totals();
    let total = b.total();
    println!(
        "transfer decomposition ({} flows, {:.6} s on the wire):",
        b.flows, total
    );
    for (name, secs) in b.rows() {
        if secs > 0.0 {
            println!(
                "  {:<16} {:>10.6} s  ({:>5.1}%)",
                name,
                secs,
                100.0 * secs / total.max(f64::MIN_POSITIVE)
            );
        }
    }
    println!(
        "  slow-start share (ramp + window-limited): {:.1}%",
        100.0 * a.slow_start_share()
    );

    if !a.messages.is_empty() {
        let n = a.messages.len() as f64;
        let hs: f64 = a.messages.iter().map(|m| m.handshake_secs).sum();
        let tr: f64 = a.messages.iter().map(|m| m.transfer_secs).sum();
        println!(
            "messages: {} paired; mean handshake {:.3} ms, mean transfer {:.3} ms",
            a.messages.len(),
            1e3 * hs / n,
            1e3 * tr / n
        );
    }

    if let Some(p) = &a.path {
        println!(
            "critical path: {} segments to t={:.6} s; blame:",
            p.segments.len(),
            p.end_ns as f64 / 1e9
        );
        for (kind, secs) in &p.blame {
            println!(
                "  {:<10} {:>10.6} s  ({:>5.1}%)",
                kind,
                secs,
                100.0 * p.share(kind)
            );
        }
    }
}

fn json_section(s: &Section) -> String {
    let a = &s.analysis;
    let ranks = a
        .ranks
        .iter()
        .map(|r| {
            format!(
                "{{\"rank\":{},\"compute_secs\":{},\"send_secs\":{},\"recv_secs\":{},\
                 \"wait_send_secs\":{},\"collective_secs\":{},\"idle_secs\":{},\
                 \"late_sender_secs\":{},\"late_receiver_secs\":{},\"imbalance_secs\":{}}}",
                r.rank,
                r.compute_secs,
                r.send_secs,
                r.recv_secs,
                r.wait_send_secs,
                r.collective_secs,
                r.idle_secs,
                r.late_sender_secs,
                r.late_receiver_secs,
                r.imbalance_secs
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let b = a.flow_totals();
    let buckets = b
        .rows()
        .iter()
        .map(|(name, secs)| format!("\"{name}\":{secs}"))
        .collect::<Vec<_>>()
        .join(",");
    let msgs = {
        let n = a.messages.len();
        let hs: f64 = a.messages.iter().map(|m| m.handshake_secs).sum();
        let tr: f64 = a.messages.iter().map(|m| m.transfer_secs).sum();
        let d = (n as f64).max(1.0);
        format!(
            "{{\"count\":{},\"mean_handshake_secs\":{},\"mean_transfer_secs\":{}}}",
            n,
            hs / d,
            tr / d
        )
    };
    let path = a.path.as_ref().map_or("null".to_string(), |p| {
        let blame = p
            .blame
            .iter()
            .map(|(k, secs)| format!("{{\"kind\":{},\"secs\":{}}}", crate::json_str(k), secs))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"end_ns\":{},\"segments\":{},\"blame\":[{}]}}",
            p.end_ns,
            p.segments.len(),
            blame
        )
    });
    format!(
        "{{\"label\":{},\"detail\":{},\"elapsed_ns\":{},\"events\":{},\
         \"slow_start_share\":{},\"ranks\":[{}],\"flows\":{{\"count\":{},{}}},\
         \"messages\":{},\"critical_path\":{}}}",
        crate::json_str(s.label),
        crate::json_str(&s.detail),
        s.elapsed_ns,
        s.events.len(),
        a.slow_start_share(),
        ranks,
        b.flows,
        buckets,
        msgs,
        path
    )
}

fn dat_lines(sections: &[Section]) -> String {
    let mut out = String::from("# section bucket secs share\n");
    for s in sections {
        let b = s.analysis.flow_totals();
        let total = b.total().max(f64::MIN_POSITIVE);
        for (name, secs) in b.rows() {
            out.push_str(&format!(
                "{} {} {:.9} {:.6}\n",
                s.label,
                name,
                secs,
                secs / total
            ));
        }
    }
    out
}

/// `repro blame <pingpong|nas|ray2mesh|faults> [--trace-in FILE]
/// [--emit-events FILE] [--format text|json|dat]`.
pub fn cmd_blame(args: &[String]) {
    let mut scenario: Option<&str> = None;
    let mut format = "text";
    let mut trace_in: Option<&str> = None;
    let mut emit: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                format = args.get(i + 1).map(String::as_str).unwrap_or("text");
                i += 2;
            }
            "--trace-in" => {
                trace_in = args.get(i + 1).map(String::as_str);
                i += 2;
            }
            "--emit-events" => {
                emit = args.get(i + 1).map(String::as_str);
                i += 2;
            }
            // Global flags main() already consumed; skip their values.
            "--dat" | "--trace-out" | "--metrics" => i += 2,
            s if !s.starts_with('-') && scenario.is_none() => {
                scenario = Some(s);
                i += 1;
            }
            _ => i += 1,
        }
    }
    if !matches!(format, "text" | "json" | "dat") {
        eprintln!("unknown --format {format:?} (want text|json|dat)");
        std::process::exit(2);
    }

    let sections = match trace_in {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let events = events_from_jsonl(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            let analysis = Analysis::from_events(&events, HEADER_BYTES);
            vec![Section {
                label: "replay",
                detail: format!("replayed {} events from {path}", events.len()),
                elapsed_ns: 0,
                events,
                analysis,
            }]
        }
        None => sections_for(scenario.unwrap_or("pingpong")),
    };

    if let Some(path) = emit {
        // The first section's raw stream, replayable with --trace-in.
        let body = desim::obs::export::jsonl(&sections[0].events);
        match std::fs::write(path, &body) {
            Ok(()) => eprintln!(
                "wrote {} events to {path} (replay with `repro blame --trace-in {path}`)",
                sections[0].events.len()
            ),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let name = scenario.unwrap_or(if trace_in.is_some() {
        "replay"
    } else {
        "pingpong"
    });
    if let Some(mut f) = crate::dat_file(&format!("blame_{name}")) {
        let _ = f.write_all(dat_lines(&sections).as_bytes());
    }

    match format {
        "json" => {
            let body = sections
                .iter()
                .map(json_section)
                .collect::<Vec<_>>()
                .join(",\n  ");
            println!(
                "{{\n  \"scenario\": {},\n  \"sections\": [\n  {}\n  ]\n}}",
                crate::json_str(name),
                body
            );
        }
        "dat" => print!("{}", dat_lines(&sections)),
        _ => {
            crate::header(&format!("Blame analysis: {name}"));
            for s in &sections {
                print_text(s);
            }
            if name == "pingpong" && sections.len() == 4 {
                let share = |i: usize| sections[i].analysis.slow_start_share();
                let hs = |i: usize| {
                    let m = &sections[i].analysis.messages;
                    if m.is_empty() {
                        0.0
                    } else {
                        m.iter().map(|m| m.handshake_secs).sum::<f64>() / m.len() as f64
                    }
                };
                println!("\nsummary:");
                println!(
                    "  slow-start share: untuned {:.1}% vs tuned {:.1}% \
                     (tuning breaks the window-limited plateau)",
                    100.0 * share(0),
                    100.0 * share(1)
                );
                println!(
                    "  handshake: rendezvous {:.2} ms vs eager {:.2} ms \
                     (+{:.2} ms, the rendezvous control round trip)",
                    1e3 * hs(3),
                    1e3 * hs(2),
                    1e3 * (hs(3) - hs(2))
                );
            }
        }
    }
}
