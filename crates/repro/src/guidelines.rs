//! `repro guidelines` — the paper's qualitative *shapes*, encoded as
//! machine-verified assertions (after Hunold's "Tuning MPI Collectives by
//! Verifying Performance Guidelines": a performance expectation is only
//! real once a checker can fail on it).
//!
//! Golden digests (`repro golden`) pin *exact* behaviour; guidelines pin
//! the *relationships* the reproduction exists to demonstrate. A refactor
//! that re-records goldens but breaks a guideline is changing the
//! physics, not the bookkeeping — this gate names which claim died.

use desim::SimTime;
use gridapps::Ray2MeshConfig;
use mpisim::{
    CollAlgo, CollConfig, CollOp, CollSel, ExecConfig, FaultPlan, FaultPolicy, MpiImpl, MpiProgram,
    RankCtx,
};
use netsim::Grid5000Site;
use repro::campaign::Net;

use crate::pingpong::{pingpong, Stack};
use crate::scenario::Scenario;
use crate::util::{size_label, Scope, TuningLevel};

/// One verified guideline: a stable name, the paper claim it encodes, and
/// a check returning a measured summary (`Ok`) or a violation (`Err`).
struct Guideline {
    name: &'static str,
    claim: &'static str,
    check: fn() -> Result<String, String>,
}

/// §3.2/Table 5 — the eager/rendezvous protocol trade-off is real: the
/// extra handshake round trip makes forced rendezvous slower than forced
/// eager for small WAN messages, and the gap collapses (under 10%
/// one-way) once transfers are bandwidth-bound at 64 MB — which is why
/// the paper's ideal grid thresholds are so large.
fn eager_rendezvous_crossover() -> Result<String, String> {
    let id = MpiImpl::Mpich2;
    let small = 4u64 << 10;
    let eager_small = crate::timed_mode(id, Scope::Grid, small, Some(u64::MAX));
    let rndv_small = crate::timed_mode(id, Scope::Grid, small, Some(0));
    if eager_small >= rndv_small {
        return Err(format!(
            "forced eager ({:.1} µs) not faster than forced rendezvous ({:.1} µs) \
             for {} WAN messages",
            eager_small * 1e6,
            rndv_small * 1e6,
            size_label(small)
        ));
    }
    let big = 64u64 << 20;
    let eager_big = crate::timed_mode(id, Scope::Grid, big, Some(u64::MAX));
    let rndv_big = crate::timed_mode(id, Scope::Grid, big, Some(0));
    let gap = (rndv_big - eager_big) / eager_big;
    if !(-0.10..=0.10).contains(&gap) {
        return Err(format!(
            "at {} the protocols should converge, but rendezvous is {:+.1}% vs eager \
             ({:.4} s vs {:.4} s)",
            size_label(big),
            gap * 100.0,
            rndv_big,
            eager_big
        ));
    }
    Ok(format!(
        "at {}: eager {:.1} µs < rendezvous {:.1} µs; at {}: gap {:+.2}%",
        size_label(small),
        eager_small * 1e6,
        rndv_small * 1e6,
        size_label(big),
        gap * 100.0
    ))
}

/// §4.2.2/Fig. 7 — GridMPI's TCP pacing beats the unpaced stacks on the
/// 64 MB WAN ping-pong once kernels are tuned.
fn pacing_wins_wan() -> Result<String, String> {
    let bytes = 64u64 << 20;
    let paced = pingpong(
        Stack::Mpi(MpiImpl::GridMpi),
        Scope::Grid,
        TuningLevel::TcpTuned,
        bytes,
        10,
    );
    let unpaced = pingpong(
        Stack::Mpi(MpiImpl::Mpich2),
        Scope::Grid,
        TuningLevel::TcpTuned,
        bytes,
        10,
    );
    if paced.max_mbps <= unpaced.max_mbps {
        return Err(format!(
            "paced GridMPI {:.1} Mbps <= unpaced MPICH2 {:.1} Mbps at 64 MB WAN",
            paced.max_mbps, unpaced.max_mbps
        ));
    }
    Ok(format!(
        "GridMPI (paced) {:.1} Mbps > MPICH2 (unpaced) {:.1} Mbps",
        paced.max_mbps, unpaced.max_mbps
    ))
}

/// §4.2.1/Fig. 6 — kernel socket-buffer tuning to 4 MB raises 64 MB WAN
/// bandwidth over the untuned 2007 defaults; untuned must stay under the
/// per-flow ceiling the window limit imposes.
fn tuning_beats_untuned() -> Result<String, String> {
    let bytes = 64u64 << 20;
    let tuned = pingpong(
        Stack::Mpi(MpiImpl::Mpich2),
        Scope::Grid,
        TuningLevel::TcpTuned,
        bytes,
        10,
    );
    let untuned = pingpong(
        Stack::Mpi(MpiImpl::Mpich2),
        Scope::Grid,
        TuningLevel::Default,
        bytes,
        10,
    );
    if tuned.max_mbps <= untuned.max_mbps {
        return Err(format!(
            "tuned {:.1} Mbps <= untuned {:.1} Mbps at 64 MB WAN",
            tuned.max_mbps, untuned.max_mbps
        ));
    }
    Ok(format!(
        "tuned {:.1} Mbps > untuned {:.1} Mbps at 64 MB WAN",
        tuned.max_mbps, untuned.max_mbps
    ))
}

/// PR 3's fault-tolerance contract — killing two of eight ray2mesh
/// workers mid-trace loses zero work sets: the master reclaims and
/// reissues every set owned by a dead worker, and the run completes.
fn ft_loses_no_work() -> Result<String, String> {
    let cfg = Ray2MeshConfig {
        total_rays: 20_000,
        ..Ray2MeshConfig::small()
    };
    let plan = FaultPlan::new()
        .with_seed(7)
        .kill_rank(3, SimTime::from_nanos(1_000_000_000))
        .kill_rank(6, SimTime::from_nanos(2_000_000_000));
    let report = Scenario::four_sites(2, Grid5000Site::ALL[0], MpiImpl::GridMpi)
        .faults(plan)
        .run(cfg.program_ft(FaultPolicy::grid_default()))
        .map_err(|e| format!("FT ray2mesh did not complete: {e}"))?;
    let value = |key: &str| report.values(key).first().map_or(f64::NAN, |&(_, v)| v);
    let (lost, reissued, survivors) = (
        value("lost_sets"),
        value("reissued_sets"),
        value("survivors"),
    );
    if lost != 0.0 {
        return Err(format!("{lost:.0} work sets lost after 2 worker kills"));
    }
    if reissued <= 0.0 {
        return Err(format!(
            "no sets reissued ({reissued:.0}) — were the kills injected at all?"
        ));
    }
    Ok(format!(
        "2 of 8 workers killed: {survivors:.0} survivors, {reissued:.0} sets reissued, 0 lost"
    ))
}

/// Tentpole guideline 1 — the blame layer must *attribute* the untuned
/// slowdown, not just observe it: on the untuned 64 MB WAN ping-pong the
/// transfers never leave TCP's slow-start phase (cwnd pinned at the
/// default socket-buffer window, ssthresh untouched), so their blamed
/// slow-start share must be strictly larger than the tuned kernel's —
/// and nonzero in both.
fn blame_slow_start_share() -> Result<String, String> {
    let (untuned, tuned) = crate::blame::slow_start_shares();
    if untuned <= 0.0 {
        return Err("untuned 64 MB WAN ping-pong blames no slow-start time at all".into());
    }
    if tuned <= 0.0 {
        return Err("tuned run blames zero slow-start time (the ramp still exists)".into());
    }
    if untuned <= tuned {
        return Err(format!(
            "untuned slow-start share {:.1}% not larger than tuned {:.1}%",
            untuned * 100.0,
            tuned * 100.0
        ));
    }
    Ok(format!(
        "untuned blames {:.1}% of transfer time to slow start vs tuned {:.1}%",
        untuned * 100.0,
        tuned * 100.0
    ))
}

/// Tentpole guideline 2 — the per-message decomposition must expose the
/// rendezvous control round trip: at the crossover size, forced
/// rendezvous blames at least one extra WAN RTT of handshake over forced
/// eager.
fn blame_rndv_handshake() -> Result<String, String> {
    let (topo, rn, nn) = netsim::grid5000_pair(8);
    let rtt = topo.route(rn[0], nn[0]).rtt.as_secs_f64();
    let (eager, rndv) = crate::blame::handshake_split();
    let extra = rndv - eager;
    if extra < rtt {
        return Err(format!(
            "rendezvous handshake {:.2} ms exceeds eager {:.2} ms by only {:.2} ms \
             (< 1 WAN RTT = {:.2} ms)",
            rndv * 1e3,
            eager * 1e3,
            extra * 1e3,
            rtt * 1e3
        ));
    }
    Ok(format!(
        "rendezvous blames {:.2} ms handshake vs eager {:.2} ms (+{:.2} ms >= RTT {:.2} ms)",
        rndv * 1e3,
        eager * 1e3,
        extra * 1e3,
        rtt * 1e3
    ))
}

/// Virtual elapsed seconds for `program` on the tuned 16-rank testbed
/// (LAN cluster or four-site WAN), with `coll` pinning algorithms.
fn coll_elapsed(wan: bool, coll: CollConfig, program: impl MpiProgram) -> f64 {
    let net = if wan { Net::Wan4x4 } else { Net::Lan16 };
    net.scenario(TuningLevel::FullyTuned, MpiImpl::Mpich2)
        .exec(ExecConfig::new().coll(coll))
        .deadline(SimTime::from_nanos(600_000_000_000))
        .run(program)
        .expect("collective guideline run completes")
        .elapsed
        .as_secs_f64()
}

/// Hunold guideline Bcast <= Scatter + Allgather: a broadcast must not be
/// slower than re-expressing it as a scatter of 1/p blocks followed by an
/// allgather — that decomposition is itself a valid bcast, so a tuned
/// library can always adopt it. "Tuned" is the operative word: the bcast
/// side is the best selectable algorithm (what `repro autotune-coll`
/// would pick), not whatever the profile defaults to.
fn coll_bcast_le_scatter_allgather() -> Result<String, String> {
    let bytes = 256u64 << 10;
    let each = bytes / 16;
    let bcast = [
        CollAlgo::ProfileDefault,
        CollAlgo::ScatterAllgather,
        CollAlgo::Pipeline,
        CollAlgo::Binary,
        CollAlgo::Binomial,
    ]
    .into_iter()
    .map(|algo| {
        coll_elapsed(
            false,
            CollConfig::new().pin_all(CollOp::Bcast, CollSel::flat(algo)),
            move |mut ctx: RankCtx| async move {
                for _ in 0..4 {
                    ctx.bcast(0, bytes).await;
                }
            },
        )
    })
    .fold(f64::INFINITY, f64::min);
    let split = coll_elapsed(
        false,
        CollConfig::new(),
        move |mut ctx: RankCtx| async move {
            for _ in 0..4 {
                ctx.scatter(0, each).await;
                ctx.allgather(each).await;
            }
        },
    );
    if bcast > split * 1.05 {
        return Err(format!(
            "bcast(256k) {:.3} ms slower than scatter+allgather {:.3} ms on the 16-rank cluster",
            bcast * 1e3,
            split * 1e3
        ));
    }
    Ok(format!(
        "bcast(256k) {:.3} ms <= scatter+allgather {:.3} ms",
        bcast * 1e3,
        split * 1e3
    ))
}

/// Hunold guideline Allreduce <= Reduce + Bcast: the fused operation must
/// not lose to its obvious two-step decomposition.
fn coll_allreduce_le_reduce_bcast() -> Result<String, String> {
    let bytes = 256u64 << 10;
    let fused = coll_elapsed(
        false,
        CollConfig::new(),
        move |mut ctx: RankCtx| async move {
            for _ in 0..4 {
                ctx.allreduce(bytes).await;
            }
        },
    );
    let split = coll_elapsed(
        false,
        CollConfig::new(),
        move |mut ctx: RankCtx| async move {
            for _ in 0..4 {
                ctx.reduce(0, bytes).await;
                ctx.bcast(0, bytes).await;
            }
        },
    );
    if fused > split * 1.05 {
        return Err(format!(
            "allreduce(256k) {:.3} ms slower than reduce+bcast {:.3} ms on the 16-rank cluster",
            fused * 1e3,
            split * 1e3
        ));
    }
    Ok(format!(
        "allreduce(256k) {:.3} ms <= reduce+bcast {:.3} ms",
        fused * 1e3,
        split * 1e3
    ))
}

/// Monotone in size: with the algorithm pinned (no threshold switches),
/// a larger payload must never finish faster — binomial bcast and ring
/// allreduce, 1 kB to 4 MB on the cluster.
fn coll_monotone_in_size() -> Result<String, String> {
    const SIZES: [u64; 4] = [1 << 10, 16 << 10, 256 << 10, 4 << 20];
    fn assert_monotone(what: &str, times: &[f64]) -> Result<(), String> {
        for w in 0..times.len() - 1 {
            if times[w] > times[w + 1] * 1.01 {
                return Err(format!(
                    "{what} not monotone: {} takes {:.4} ms but {} takes {:.4} ms",
                    size_label(SIZES[w]),
                    times[w] * 1e3,
                    size_label(SIZES[w + 1]),
                    times[w + 1] * 1e3
                ));
            }
        }
        Ok(())
    }
    let bcast: Vec<f64> = SIZES
        .iter()
        .map(|&bytes| {
            coll_elapsed(
                false,
                CollConfig::new().pin_all(CollOp::Bcast, CollSel::flat(CollAlgo::Binomial)),
                move |mut ctx: RankCtx| async move {
                    for _ in 0..2 {
                        ctx.bcast(0, bytes).await;
                    }
                },
            )
        })
        .collect();
    assert_monotone("binomial bcast", &bcast)?;
    let allreduce: Vec<f64> = SIZES
        .iter()
        .map(|&bytes| {
            coll_elapsed(
                false,
                CollConfig::new().pin_all(CollOp::Allreduce, CollSel::flat(CollAlgo::Ring)),
                move |mut ctx: RankCtx| async move {
                    for _ in 0..2 {
                        ctx.allreduce(bytes).await;
                    }
                },
            )
        })
        .collect();
    assert_monotone("ring allreduce", &allreduce)?;
    Ok("binomial bcast and ring allreduce nondecreasing over 1k..4M".into())
}

/// On the four-site WAN the grid-aware two-level variant must not lose to
/// its flat counterpart: equal for binomial (the contiguous-placement
/// binomial tree already decomposes site-by-site) and strictly better for
/// the pipeline family, whose flat chain crosses the WAN once per hop.
fn coll_two_level_le_flat_wan() -> Result<String, String> {
    let bytes = 64u64 << 10;
    let time = |sel: CollSel| {
        coll_elapsed(
            true,
            CollConfig::new().pin_all(CollOp::Bcast, sel),
            move |mut ctx: RankCtx| async move {
                for _ in 0..4 {
                    ctx.bcast(0, bytes).await;
                }
            },
        )
    };
    let mut parts = Vec::new();
    for algo in [CollAlgo::Binomial, CollAlgo::Pipeline] {
        let flat = time(CollSel::flat(algo));
        let two = time(CollSel::two_level(algo));
        if two > flat * 1.001 {
            return Err(format!(
                "two-level {} bcast(64k) {:.3} ms slower than flat {:.3} ms on the four-site WAN",
                algo.name(),
                two * 1e3,
                flat * 1e3
            ));
        }
        parts.push(format!(
            "{}: 2lvl {:.1} ms <= flat {:.1} ms",
            algo.name(),
            two * 1e3,
            flat * 1e3
        ));
    }
    Ok(parts.join("; "))
}

const GUIDELINES: &[Guideline] = &[
    Guideline {
        name: "eager-rendezvous-crossover",
        claim: "rendezvous pays a handshake RTT on small WAN messages; protocols converge at 64 MB",
        check: eager_rendezvous_crossover,
    },
    Guideline {
        name: "pacing-wins-wan-64M",
        claim: "GridMPI's TCP pacing beats unpaced stacks on the tuned 64 MB WAN ping-pong",
        check: pacing_wins_wan,
    },
    Guideline {
        name: "tuned-tcp-beats-untuned",
        claim: "4 MB socket-buffer tuning raises 64 MB WAN bandwidth over 2007 defaults",
        check: tuning_beats_untuned,
    },
    Guideline {
        name: "ft-ray2mesh-zero-lost-sets",
        claim: "the fault-tolerant master reissues every work set owned by a killed worker",
        check: ft_loses_no_work,
    },
    Guideline {
        name: "blame-slow-start-share",
        claim:
            "blame attributes more slow-start time to the untuned 64 MB WAN ping-pong than tuned",
        check: blame_slow_start_share,
    },
    Guideline {
        name: "blame-rndv-handshake",
        claim: "blame charges rendezvous >= 1 extra WAN RTT of handshake vs eager at the crossover",
        check: blame_rndv_handshake,
    },
    Guideline {
        name: "coll-bcast-le-scatter-allgather",
        claim: "bcast is never slower than its scatter+allgather decomposition (Hunold)",
        check: coll_bcast_le_scatter_allgather,
    },
    Guideline {
        name: "coll-allreduce-le-reduce-bcast",
        claim: "allreduce is never slower than reduce followed by bcast (Hunold)",
        check: coll_allreduce_le_reduce_bcast,
    },
    Guideline {
        name: "coll-monotone-in-size",
        claim: "with the algorithm pinned, a larger payload never finishes faster",
        check: coll_monotone_in_size,
    },
    Guideline {
        name: "coll-two-level-le-flat-wan",
        claim: "on the four-site WAN, two-level variants never lose to their flat counterparts",
        check: coll_two_level_le_flat_wan,
    },
];

/// `repro guidelines [NAME ...] [--format text|json]`: verify every
/// guideline (or just the named subset); non-zero exit naming the
/// violated ones. `--format json` emits one array of
/// `{name, claim, pass, detail}` objects instead of the text table (the
/// exit code still reflects failures).
pub fn cmd_guidelines(args: &[String]) {
    let json = match args
        .iter()
        .position(|a| a == "--format")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            eprintln!("unknown format {other:?} (expected text or json)");
            std::process::exit(2);
        }
    };
    let mut skip_next = false;
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--format" {
                skip_next = true;
                return false;
            }
            !a.starts_with('-')
        })
        .map(String::as_str)
        .collect();
    for w in &wanted {
        if !GUIDELINES.iter().any(|g| g.name == *w) {
            eprintln!("unknown guideline {w:?}");
            eprintln!(
                "known: {}",
                GUIDELINES
                    .iter()
                    .map(|g| g.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
    if !json {
        crate::header("Performance guidelines: the paper's shapes as assertions");
    }
    let mut failed: Vec<&str> = Vec::new();
    let mut checked = 0usize;
    let mut records: Vec<String> = Vec::new();
    for g in GUIDELINES {
        if !wanted.is_empty() && !wanted.contains(&g.name) {
            continue;
        }
        checked += 1;
        let outcome = (g.check)();
        let (pass, detail) = match &outcome {
            Ok(detail) => (true, detail),
            Err(detail) => (false, detail),
        };
        if json {
            records.push(format!(
                "  {{\"name\": {}, \"claim\": {}, \"pass\": {pass}, \"detail\": {}}}",
                crate::json_str(g.name),
                crate::json_str(g.claim),
                crate::json_str(detail)
            ));
        } else if pass {
            println!("PASS {:<28} {}", g.name, detail);
        } else {
            println!("FAIL {:<28} {}", g.name, detail);
            println!("     claim: {}", g.claim);
        }
        if !pass {
            failed.push(g.name);
        }
    }
    if json {
        println!("[\n{}\n]", records.join(",\n"));
    }
    if !failed.is_empty() {
        eprintln!("\nguideline violations: {}", failed.join(", "));
        std::process::exit(1);
    }
    if !json {
        println!("\nall {checked} checked guidelines hold");
    }
}
