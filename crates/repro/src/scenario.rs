//! `Scenario` — one builder for every experiment's wiring.
//!
//! Every subcommand used to assemble the same pipeline by hand: build a
//! topology, apply the tuning level's kernel + MPI knobs, construct an
//! [`MpiJob`], attach tracing/recorder/deadline, run. `Scenario` owns
//! that chain (topology → tuning → workload → faults → recorder → run)
//! so experiments only state what is *different* about them.

use std::sync::Arc;

use desim::fault::FaultPlan;
use desim::obs::Obs;
use desim::{SimError, SimTime};
use mpisim::{ExecConfig, ImplProfile, MpiImpl, MpiJob, MpiProgram, RankCtx, RunReport, Tuning};
use netsim::{grid5000_four_sites, Grid5000Site, KernelConfig, Network, NodeId};

use crate::util::{npb_placement, pair_endpoints, Scope, TuningLevel};

/// A fully described experiment, ready to [`Scenario::run`].
pub struct Scenario {
    net: Network,
    placement: Vec<NodeId>,
    impl_id: MpiImpl,
    tuning: Tuning,
    profile: Option<ImplProfile>,
    faults: Option<FaultPlan>,
    observe: Obs,
    exec: ExecConfig,
    tracing: bool,
    deadline: Option<SimTime>,
}

impl Scenario {
    /// Two endpoints on the Fig. 2 testbed (cluster or grid pair), with
    /// `level`'s kernel and MPI tuning applied for `id`. Rank 0 is the
    /// first endpoint, rank 1 the second.
    pub fn pair(scope: Scope, level: TuningLevel, id: MpiImpl) -> Scenario {
        let (net, a, b) = pair_endpoints(scope, level.kernel(Some(id)));
        Scenario::custom(net, vec![a, b], id).tuning(level.tuning(id))
    }

    /// A grid pair driven as raw TCP: the MPI machinery with a
    /// zero-overhead, all-eager, unpaced profile (what the paper's
    /// socket-level pingpong measures).
    pub fn raw_pair(scope: Scope, level: TuningLevel) -> Scenario {
        let (net, a, b) = pair_endpoints(scope, level.kernel(None));
        let mut profile = ImplProfile::mpich2();
        profile.overhead_lan = desim::SimDuration::ZERO;
        profile.overhead_wan = desim::SimDuration::ZERO;
        profile.eager_threshold = u64::MAX;
        Scenario::custom(net, vec![a, b], MpiImpl::Mpich2).profile(profile)
    }

    /// The NPB testbed: `ranks_rennes` + `ranks_nancy` ranks over two
    /// sites of `nodes_per_site` nodes each.
    pub fn npb(
        nodes_per_site: usize,
        ranks_rennes: usize,
        ranks_nancy: usize,
        level: TuningLevel,
        id: MpiImpl,
    ) -> Scenario {
        let (net, placement) = npb_placement(
            nodes_per_site,
            ranks_rennes,
            ranks_nancy,
            level.kernel(Some(id)),
        );
        Scenario::custom(net, placement, id).tuning(level.tuning(id))
    }

    /// The ray2mesh testbed (Fig. 8): four sites of `slaves_per_site`
    /// nodes, the master (rank 0) co-located on the first node of
    /// `master`'s site, slaves laid out site by site.
    pub fn four_sites(slaves_per_site: usize, master: Grid5000Site, id: MpiImpl) -> Scenario {
        let (mut topo, _sites, nodes) = grid5000_four_sites(slaves_per_site);
        topo.set_kernel_all(KernelConfig::tuned(4 << 20));
        let mut placement = vec![nodes[master.index()][0]];
        for site_nodes in &nodes {
            placement.extend(site_nodes.iter().copied());
        }
        Scenario::custom(Network::new(topo), placement, id)
    }

    /// An arbitrary network + placement (escape hatch for custom
    /// topologies).
    pub fn custom(net: Network, placement: Vec<NodeId>, id: MpiImpl) -> Scenario {
        Scenario {
            net,
            placement,
            impl_id: id,
            tuning: Tuning::none(),
            profile: None,
            faults: None,
            observe: Obs::none(),
            exec: ExecConfig::new(),
            tracing: false,
            deadline: None,
        }
    }

    /// Replace the MPI tuning overrides.
    pub fn tuning(mut self, tuning: Tuning) -> Scenario {
        self.tuning = tuning;
        self
    }

    /// Replace the whole implementation profile.
    pub fn profile(mut self, profile: ImplProfile) -> Scenario {
        self.profile = Some(profile);
        self
    }

    /// Inject faults from `plan` (empty plans are ignored).
    pub fn faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Configure observability in one shot: recorder and/or host-time
    /// self-profiler. `Some` fields of `obs` override earlier settings.
    pub fn observe(mut self, obs: Obs) -> Scenario {
        if let Some(rec) = obs.recorder {
            self.observe.recorder = Some(rec);
        }
        if let Some(prof) = obs.profiler {
            self.observe.profiler = Some(prof);
        }
        self
    }

    /// Configure execution: engine, PDES shard count, fast path,
    /// communication pattern.
    pub fn exec(mut self, exec: ExecConfig) -> Scenario {
        self.exec = exec;
        self
    }

    /// Attach an observability recorder.
    pub fn recorder(self, rec: Arc<dyn desim::obs::Recorder>) -> Scenario {
        self.observe(Obs::none().recorder(rec))
    }

    /// Attach a host-time self-profiler: wall-clock attribution across
    /// the kernel dispatch loop, netsim settle/allocate, and the mpisim
    /// job phases (`repro profile --domain host`).
    pub fn host_profiler(self, prof: Arc<desim::HostProfiler>) -> Scenario {
        self.observe(Obs::none().profiler(prof))
    }

    /// Attach the `--trace-out` / `--metrics` sink, if the user asked for
    /// one on the command line.
    pub fn obs(self, sink: &Option<(Arc<desim::RingSink>, Arc<desim::Metrics>)>) -> Scenario {
        match sink {
            Some((sink, _)) => self.recorder(sink.clone() as Arc<dyn desim::obs::Recorder>),
            None => self,
        }
    }

    /// Enable per-operation tracing.
    #[allow(dead_code)] // part of the builder surface; used by ad-hoc analyses
    pub fn tracing(mut self) -> Scenario {
        self.tracing = true;
        self
    }

    /// Abort the run past `limit` of virtual time.
    pub fn deadline(mut self, limit: SimTime) -> Scenario {
        self.deadline = Some(limit);
        self
    }

    /// Assemble the [`MpiJob`] and run `program` on every rank.
    pub fn run(self, program: impl MpiProgram) -> Result<RunReport, SimError> {
        let mut job = MpiJob::new(self.net, self.placement, self.impl_id)
            .with_tuning(self.tuning)
            .with_obs(self.observe)
            .with_exec(self.exec);
        if let Some(profile) = self.profile {
            job = job.with_profile(profile);
        }
        if self.tracing {
            job = job.with_tracing();
        }
        if let Some(limit) = self.deadline {
            job = job.with_deadline(limit);
        }
        if let Some(plan) = self.faults {
            job = job.with_faults(plan);
        }
        job.run(program)
    }
}

/// `iters` round trips of `bytes` between ranks 0 and 1: the ping-pong
/// program the campaign, blame and profile scenarios share.
pub fn pingpong_program(bytes: u64, iters: u32) -> impl MpiProgram {
    move |mut ctx: RankCtx| async move {
        const TAG: u64 = 1;
        for _ in 0..iters {
            if ctx.rank() == 0 {
                ctx.send(1, bytes, TAG).await;
                ctx.recv(1, TAG).await;
            } else {
                ctx.recv(0, TAG).await;
                ctx.send(0, bytes, TAG).await;
            }
        }
    }
}
