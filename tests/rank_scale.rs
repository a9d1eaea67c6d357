//! The rank-scale execution engine: (a) worlds far beyond thread-per-rank
//! territory complete in one process, (b) the pooled continuation engine
//! is bit-identical to the threaded oracle — digests, elapsed virtual
//! time, per-rank finish times — on workloads mirroring the golden
//! corpus, and (c) the fallible API's timeout/kill semantics survive the
//! engine swap. The real six-scenario corpus is additionally pinned by
//! `repro golden check` under `MPISIM_ENGINE=pooled` in ci.sh.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grid_mpi_lab::desim::{DigestSink, DigestValue, Obs, SimDuration, SimTime};
use grid_mpi_lab::gridapps::Ray2MeshConfig;
use grid_mpi_lab::mpisim::{
    Engine, FaultPlan, FaultPolicy, MpiError, MpiImpl, MpiJob, MpiProgram, RankCtx, Tuning,
};
use grid_mpi_lab::netsim::{
    grid5000_four_sites, grid5000_pair, KernelConfig, Network, NodeId, NodeParams, SiteParams,
    Topology,
};
use grid_mpi_lab::npb::{NasBenchmark, NasClass, NasRun};

const TAG: u64 = 7;

/// The tuned 8+8 testbed with `ranks` ranks in contiguous blocks (ring
/// neighbours mostly node-local, so scale tests are engine-bound).
fn ring_testbed(ranks: usize) -> (Network, Vec<NodeId>) {
    let (mut topo, rn, nn) = grid5000_pair(8);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let nodes: Vec<NodeId> = rn.into_iter().chain(nn).collect();
    let placement = (0..ranks)
        .map(|r| nodes[r * nodes.len() / ranks.max(nodes.len())])
        .collect();
    (Network::new(topo), placement)
}

fn ring_program(rounds: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        for _ in 0..rounds {
            ctx.sendrecv(right, 1024, left, TAG).await;
        }
    }
}

/// (a) A 4096-rank ring runs to completion in this single process. The
/// budget is generous — debug builds are several times slower than the
/// sub-second release number in BENCH_baseline.json — but it would still
/// catch the engine degenerating to thread-per-rank (thousands of thread
/// spawns) or losing wakeups (deadlock → test timeout).
#[test]
fn ring_4096_ranks_completes_within_budget() {
    let (net, placement) = ring_testbed(4096);
    let t0 = Instant::now();
    let report = MpiJob::new(net, placement, MpiImpl::Mpich2)
        .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
        .with_engine(Engine::Pooled)
        .run(ring_program(2))
        .expect("4096-rank ring completes");
    assert!(report.clean, "ring left undrained messages");
    assert_eq!(report.per_rank.len(), 4096);
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(120),
        "4096-rank ring took {wall:?}"
    );
}

/// Everything observable from one run that must not depend on the engine.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    digest: DigestValue,
    events: u64,
    elapsed_ns: u64,
    per_rank_ns: Vec<u64>,
}

/// Run `job` with the full recorder pipeline attached and fold the run
/// report into the digest, exactly like the golden corpus does.
fn fingerprint(job: MpiJob, program: impl MpiProgram) -> Fingerprint {
    let sink = Arc::new(DigestSink::new());
    let report = job
        .with_obs(Obs::none().recorder(sink.clone()))
        .run(program)
        .expect("scenario completes");
    sink.absorb_u64(report.elapsed.as_nanos());
    for d in &report.per_rank {
        sink.absorb_u64(d.as_nanos());
    }
    Fingerprint {
        digest: sink.value(),
        events: sink.events(),
        elapsed_ns: report.elapsed.as_nanos(),
        per_rank_ns: report.per_rank.iter().map(|d| d.as_nanos()).collect(),
    }
}

/// (b) Engine parity: `build(engine)` is run under both engines and every
/// fingerprint field must match bit-for-bit.
fn assert_engine_parity(label: &str, build: impl Fn(Engine) -> Fingerprint) {
    let threaded = build(Engine::Threaded);
    assert!(
        threaded.events > 0,
        "{label}: digest saw no events — recorder not wired?"
    );
    let pooled = build(Engine::Pooled);
    assert_eq!(
        threaded, pooled,
        "{label}: pooled engine diverged from the threaded oracle"
    );
}

/// Tuned WAN pair, one rank per side — the golden pingpong shape.
fn wan_pair() -> (Network, Vec<NodeId>) {
    let (mut topo, rennes, nancy) = grid5000_pair(1);
    topo.set_kernel_all(KernelConfig::tuned(4 << 20));
    let mut placement = rennes;
    placement.extend(nancy);
    (Network::new(topo), placement)
}

#[test]
fn engines_agree_on_pingpong() {
    assert_engine_parity("pingpong", |engine| {
        let (net, placement) = wan_pair();
        let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
            .with_engine(engine);
        fingerprint(job, |mut ctx: RankCtx| async move {
            let peer = 1 - ctx.rank();
            for _ in 0..3 {
                if ctx.rank() == 0 {
                    ctx.send(peer, 1 << 20, TAG).await;
                    ctx.recv(peer, TAG).await;
                } else {
                    ctx.recv(peer, TAG).await;
                    ctx.send(peer, 1 << 20, TAG).await;
                }
            }
        })
    });
}

#[test]
fn engines_agree_on_bulk_transfer_slow_start() {
    // Untuned kernel: the 16 MB transfer spends real virtual time in TCP
    // slow start, the behaviour the golden slowstart scenario pins.
    assert_engine_parity("slowstart", |engine| {
        let (topo, rennes, nancy) = grid5000_pair(1);
        let mut placement = rennes;
        placement.extend(nancy);
        let job = MpiJob::new(Network::new(topo), placement, MpiImpl::Mpich2).with_engine(engine);
        fingerprint(job, |mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.send(1, 16 << 20, TAG).await;
            } else {
                ctx.recv(0, TAG).await;
            }
        })
    });
}

#[test]
fn engines_agree_on_collectives() {
    // 8+8 grid collectives — the golden table4 shape.
    assert_engine_parity("collectives", |engine| {
        let (net, placement) = ring_testbed(16);
        let job = MpiJob::new(net, placement, MpiImpl::GridMpi)
            .with_tuning(Tuning::paper_tuned(MpiImpl::GridMpi))
            .with_engine(engine);
        fingerprint(job, |mut ctx: RankCtx| async move {
            ctx.bcast(0, 128 << 10).await;
            ctx.allreduce(128 << 10).await;
            ctx.alltoall(16 << 10).await;
            ctx.barrier().await;
        })
    });
}

#[test]
fn engines_agree_on_nas_cg() {
    assert_engine_parity("nas_cg", |engine| {
        let (net, placement) = ring_testbed(16);
        let run = NasRun::quick(NasBenchmark::Cg, NasClass::S);
        let job = MpiJob::new(net, placement, MpiImpl::GridMpi)
            .with_tuning(Tuning::paper_tuned(MpiImpl::GridMpi))
            .with_engine(engine);
        fingerprint(job, run.program())
    });
}

#[test]
fn engines_agree_on_ray2mesh() {
    assert_engine_parity("ray2mesh", |engine| {
        let cfg = Ray2MeshConfig::small();
        let (mut topo, _sites, nodes) = grid5000_four_sites(8);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = vec![nodes[0][0]];
        for site_nodes in &nodes {
            placement.extend(site_nodes.iter().copied());
        }
        let job = MpiJob::new(Network::new(topo), placement, MpiImpl::GridMpi).with_engine(engine);
        fingerprint(job, cfg.program())
    });
}

#[test]
fn engines_agree_under_faults() {
    // Seeded stochastic loss plus a timed kill absorbed by the
    // fault-tolerant master/worker — the golden faults shape.
    assert_engine_parity("faults", |engine| {
        let (net, placement) = wan_pair();
        let plan = FaultPlan::new().with_seed(42).with_wan_loss(1e-3);
        let job = MpiJob::new(net, placement, MpiImpl::Mpich2)
            .with_tuning(Tuning::paper_tuned(MpiImpl::Mpich2))
            .with_faults(plan)
            .with_engine(engine);
        fingerprint(job, |mut ctx: RankCtx| async move {
            let peer = 1 - ctx.rank();
            for _ in 0..2 {
                if ctx.rank() == 0 {
                    ctx.send(peer, 4 << 20, TAG).await;
                    ctx.recv(peer, TAG).await;
                } else {
                    ctx.recv(peer, TAG).await;
                    ctx.send(peer, 4 << 20, TAG).await;
                }
            }
        })
    });
}

/// A one-site cluster of `n` default nodes (the fault_semantics testbed).
fn cluster(n: usize) -> (Network, Vec<NodeId>) {
    let mut t = Topology::new();
    let s = t.add_site("rennes", SiteParams::default());
    let nodes: Vec<_> = (0..n)
        .map(|_| t.add_node(s, NodeParams::default()))
        .collect();
    (Network::new(t), nodes)
}

/// (c) `recv_timeout` fires exactly at the armed deadline when the rank
/// is a pooled continuation, not a parked thread.
#[test]
fn recv_timeout_fires_on_schedule_under_pooled_engine() {
    let (net, nodes) = cluster(2);
    let timeout = SimDuration::from_millis(250);
    MpiJob::new(net, nodes, MpiImpl::Mpich2)
        .with_engine(Engine::Pooled)
        .run(move |mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.set_fault_policy(FaultPolicy {
                    recv_timeout: Some(timeout),
                    ..FaultPolicy::none()
                });
                let t0 = ctx.now();
                match ctx.try_recv(1, TAG).await {
                    Err(MpiError::Timeout { waited, .. }) => {
                        assert_eq!(waited, timeout);
                        assert_eq!(ctx.now().since(t0), timeout, "timeout fired off-schedule");
                    }
                    other => panic!("expected a timeout, got {other:?}"),
                }
            }
            // Rank 1 never sends.
        })
        .unwrap();
}

/// (c) A `kill_rank` fault surfaces as `SelfFailed` on the victim and
/// `PeerFailed` on the survivor under the pooled scheduler.
#[test]
fn kill_rank_semantics_hold_under_pooled_engine() {
    let (net, nodes) = cluster(2);
    let plan = FaultPlan::new().kill_rank(1, SimTime::from_nanos(1_000_000));
    MpiJob::new(net, nodes, MpiImpl::Mpich2)
        .with_faults(plan)
        .with_engine(Engine::Pooled)
        .run(|mut ctx: RankCtx| async move {
            if ctx.rank() == 0 {
                ctx.compute(SimDuration::from_millis(10)).await;
                assert!(ctx.peer_failed(1));
                match ctx.try_send(1, 1 << 20, TAG).await {
                    Err(MpiError::PeerFailed { rank: 1 }) => {}
                    other => panic!("expected PeerFailed, got {other:?}"),
                }
            } else {
                match ctx.try_recv(0, TAG).await {
                    Err(MpiError::SelfFailed) => {}
                    other => panic!("expected SelfFailed, got {other:?}"),
                }
            }
        })
        .unwrap();
}
