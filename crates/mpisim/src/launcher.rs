//! The `mpirun` analogue: place ranks on nodes, apply a profile and
//! tuning, execute an SPMD program, and collect the run report.
//!
//! Execution has two drivers behind one front door
//! ([`MpiJob::with_exec`]):
//!
//! * **classic** (`shards: None`) — one event queue, one kernel; the
//!   pre-PDES code path, byte-for-byte.
//! * **pdes** (`shards: Some(n)`) — the world is partitioned into logical
//!   groups (a pure function of topology, placement and
//!   [`crate::exec::CommPattern`]), each group runs its own kernel, and a
//!   conservative windowed driver ([`desim::ShardedSim`]) advances them
//!   in lock-step rounds bounded by the WAN one-way lookahead. `n` sets
//!   only the *worker-thread* count — results are bit-identical for any
//!   `n ≥ 1`, because the partition (and the deterministic cross-group
//!   mail merge) never depends on it.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use desim::fault::{FaultKind, FaultPlan};
use desim::obs::{Obs, Recorder};
use desim::shard::{merge_events, GroupBuffer, ShardedSim};
use desim::{Cx, Sim, SimDuration, SimError, SimTime};

use netsim::{Network, NodeId};

use crate::exec::{self, ExecConfig};
use crate::profile::{ImplProfile, MpiImpl, Tuning};
use crate::rank::RankCtx;
use crate::stats::CommStats;
use crate::world::WorldInner;

/// How simulated ranks execute.
///
/// Both engines drive the same rank programs through the same event queue
/// and produce bit-identical event streams and virtual times (the golden
/// digest suite pins this); they differ only in host-side mechanics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// One parked OS thread per rank; every blocking MPI call costs two
    /// context switches. Kept as the determinism oracle while the pooled
    /// engine is new; caps worlds at a few thousand ranks.
    Threaded,
    /// Ranks are stackless continuations multiplexed onto the kernel's
    /// dispatch loop: no thread per rank, no context switch per call.
    /// Scales to tens of thousands of ranks in one process. The default.
    Pooled,
}

impl Engine {
    /// Parse an `MPISIM_ENGINE` value: the engine to use, plus a warning
    /// message when the value is not one of the accepted spellings. Pure,
    /// so the unknown-value behaviour is testable without touching the
    /// process environment.
    fn resolve(val: Option<&str>) -> (Engine, Option<String>) {
        match val {
            Some("threaded") => (Engine::Threaded, None),
            Some("pooled") | None => (Engine::Pooled, None),
            Some(other) => (
                Engine::Pooled,
                Some(format!(
                    "mpisim: unknown MPISIM_ENGINE value {other:?} \
                     (accepted: \"threaded\", \"pooled\"); using pooled"
                )),
            ),
        }
    }

    /// The default engine, honouring the `MPISIM_ENGINE` environment
    /// variable (`threaded` or `pooled`; unset means pooled). An
    /// unrecognised value falls back to pooled and prints a one-time
    /// warning to stderr naming the accepted values — silently ignoring a
    /// typo like `MPISIM_ENGINE=threded` cost real debugging time.
    pub fn from_env() -> Engine {
        let val = std::env::var("MPISIM_ENGINE").ok();
        let (engine, warning) = Engine::resolve(val.as_deref());
        if let Some(msg) = warning {
            static WARNED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
            WARNED.get_or_init(|| eprintln!("{msg}"));
        }
        engine
    }
}

/// An MPI program: SPMD body run by every rank. Implemented automatically
/// for async closures taking the rank's [`RankCtx`] by value:
///
/// ```ignore
/// job.run(|mut ctx: RankCtx| async move {
///     ctx.barrier().await;
/// })
/// ```
pub trait MpiProgram: Send + Sync + 'static {
    /// The per-rank body, as a boxed future (the engine decides how to
    /// drive it).
    fn run(&self, ctx: RankCtx) -> Pin<Box<dyn Future<Output = ()> + Send + 'static>>;
}

impl<F, Fut> MpiProgram for F
where
    F: Fn(RankCtx) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    fn run(&self, ctx: RankCtx) -> Pin<Box<dyn Future<Output = ()> + Send + 'static>> {
        Box::pin(self(ctx))
    }
}

/// A configured MPI job, ready to [`MpiJob::run`].
pub struct MpiJob {
    /// The network the job runs on.
    pub net: Network,
    /// Rank → node placement.
    pub placement: Vec<NodeId>,
    /// Implementation profile.
    pub profile: ImplProfile,
    /// Tuning overrides (§4.2).
    pub tuning: Tuning,
    /// Record per-operation trace spans into the run report.
    pub tracing: bool,
    /// Observability configuration (recorder + host profiler), consumed
    /// once at run start and attached to the network, the kernel(s), and
    /// every rank for the duration of the run.
    pub obs: Obs,
    /// Abort the run (with [`SimError::TimeLimitExceeded`]) if virtual time
    /// passes this limit — the `mpirun` timeout the paper hit with
    /// MPICH-Madeleine on BT/SP ("the application timeout", §4.3).
    pub deadline: Option<SimTime>,
    /// Deterministic fault plan: stochastic segment loss/duplication plus
    /// timed link flaps, NIC stalls, and rank kills. `None` (and the empty
    /// plan) leave every run bit-identical to a fault-free one.
    pub faults: Option<FaultPlan>,
    /// Execution configuration: engine, PDES sharding, fast path.
    pub exec: ExecConfig,
}

impl MpiJob {
    /// Job with an implementation's default (untuned) behaviour.
    pub fn new(net: Network, placement: Vec<NodeId>, impl_id: MpiImpl) -> MpiJob {
        MpiJob {
            net,
            placement,
            profile: impl_id.profile(),
            tuning: Tuning::none(),
            tracing: false,
            obs: Obs::none(),
            deadline: None,
            faults: None,
            exec: ExecConfig::new(),
        }
    }

    /// Replace the whole execution configuration (engine, PDES shards,
    /// fast path, communication pattern).
    pub fn with_exec(mut self, exec: ExecConfig) -> MpiJob {
        self.exec = exec;
        self
    }

    /// Select the rank execution engine explicitly (tests comparing the
    /// two engines use this; everyone else keeps the default).
    pub fn with_engine(mut self, engine: Engine) -> MpiJob {
        self.exec.engine = Some(engine);
        self
    }

    /// Apply tuning overrides.
    pub fn with_tuning(mut self, tuning: Tuning) -> MpiJob {
        self.tuning = tuning;
        self
    }

    /// Replace the whole profile (custom models).
    pub fn with_profile(mut self, profile: ImplProfile) -> MpiJob {
        self.profile = profile;
        self
    }

    /// Enable per-operation tracing (see [`crate::trace`]).
    pub fn with_tracing(mut self) -> MpiJob {
        self.tracing = true;
        self
    }

    /// Configure observability once: MPI spans and phase markers from
    /// every rank, flow/TCP/link probes from the network, the kernel's
    /// run statistics, and (when the profiler is set) host wall-clock
    /// attribution all follow this config. Probes are read-only; virtual
    /// timestamps are unaffected (the observer-effect test suites enforce
    /// this). Fields left `None` keep the corresponding output off.
    pub fn with_obs(mut self, obs: Obs) -> MpiJob {
        if let Some(rec) = obs.recorder {
            self.obs.recorder = Some(rec);
        }
        if let Some(prof) = obs.profiler {
            self.obs.profiler = Some(prof);
        }
        self
    }

    /// Abort the run if it exceeds `limit` of virtual time.
    pub fn with_deadline(mut self, limit: SimTime) -> MpiJob {
        self.deadline = Some(limit);
        self
    }

    /// Inject faults from `plan`: per-channel segment loss/duplication is
    /// installed on the network, and a bootstrap process schedules the
    /// plan's timed events (link flaps and NIC stalls on the network, rank
    /// kills/restarts on the MPI world). An empty plan is ignored
    /// entirely, keeping the run on the fault-free fast path.
    pub fn with_faults(mut self, plan: FaultPlan) -> MpiJob {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Run `program` on every rank to completion.
    pub fn run(self, program: impl MpiProgram) -> Result<RunReport, SimError> {
        self.run_with_setup(|_| {}, program)
    }

    /// Like [`MpiJob::run`], with a hook that can spawn auxiliary
    /// simulation processes (e.g. background traffic generators) before
    /// the ranks start. Under PDES the hook runs on group 0's kernel,
    /// which also keeps the caller's original network handle.
    pub fn run_with_setup(
        self,
        setup: impl FnOnce(&Sim),
        program: impl MpiProgram,
    ) -> Result<RunReport, SimError> {
        match self.exec.shards {
            None => self.run_classic(setup, program),
            Some(n) => self.run_pdes(n.max(1) as usize, setup, program),
        }
    }

    /// Pre-interned job-phase keys: setup (world/rank construction),
    /// run (the whole kernel drive), collect (report assembly).
    #[allow(clippy::type_complexity)]
    fn prof_keys(
        &self,
    ) -> Option<(
        Arc<desim::obs::HostProfiler>,
        desim::obs::ProfKey,
        desim::obs::ProfKey,
        desim::obs::ProfKey,
    )> {
        self.obs.profiler.clone().map(|p| {
            let setup = p.intern("mpisim;job;setup");
            let run = p.intern("mpisim;job;run");
            let collect = p.intern("mpisim;job;collect");
            (p, setup, run, collect)
        })
    }

    /// Spawn one rank onto `sim` under `engine`, returning the completion
    /// that yields its finish time.
    fn spawn_rank(
        sim: &Sim,
        engine: Engine,
        rank: usize,
        world: &Arc<WorldInner>,
        program: &Arc<impl MpiProgram>,
    ) -> desim::Completion<SimTime> {
        let world = Arc::clone(world);
        let program = Arc::clone(program);
        let (tx, rx) = desim::completion::<SimTime>();
        match engine {
            Engine::Pooled => {
                sim.spawn_task(format!("rank{rank}"), move |cx| async move {
                    let sched = cx.sched();
                    let ctx = RankCtx::new(rank, cx, world);
                    program.run(ctx).await;
                    tx.fire_from(&sched, sched.now());
                });
            }
            Engine::Threaded => {
                sim.spawn(format!("rank{rank}"), move |p| {
                    let cx = Cx::from_proc(p);
                    let sched = cx.sched();
                    let ctx = RankCtx::new(rank, cx, world);
                    // A thread-backed rank blocks inside poll, so the
                    // whole program future resolves in one call.
                    desim::run_sync(program.run(ctx));
                    tx.fire_from(&sched, sched.now());
                });
            }
        }
        rx
    }

    /// The classic single-kernel driver (`exec.shards: None`).
    fn run_classic(
        self,
        setup: impl FnOnce(&Sim),
        program: impl MpiProgram,
    ) -> Result<RunReport, SimError> {
        let n = self.placement.len();
        assert!(n > 0, "MPI job needs at least one rank");
        let engine = self.exec.resolved_engine();
        let prof = self.prof_keys();
        let t_setup = prof.as_ref().map(|_| std::time::Instant::now());
        if let Some(on) = self.exec.fast_path {
            self.net.set_bulk_fast_path(on);
        }
        self.net.attach_obs(&self.obs);
        if let Some(plan) = &self.faults {
            self.net.install_faults(plan);
        }
        let world = WorldInner::new(
            self.net,
            self.placement,
            self.profile,
            self.tuning,
            self.exec.coll,
            self.tracing,
            self.obs.recorder.clone(),
        );
        let program = Arc::new(program);
        let deadline = self.deadline;
        let sim = Sim::new();
        sim.attach_obs(&self.obs);
        setup(&sim);
        if let Some(plan) = self.faults {
            let world = Arc::clone(&world);
            sim.spawn("faultd", move |p| {
                let s = p.sched();
                world.net.schedule_fault_events(&s, &plan);
                for ev in plan.sorted_events() {
                    if let FaultKind::RankFail {
                        rank,
                        restart_after,
                    } = ev.kind
                    {
                        let w = Arc::clone(&world);
                        s.call_at(ev.at, move |s2| {
                            let until = restart_after.map(|d| s2.now() + d);
                            w.fail_rank(s2, rank as usize, until);
                        });
                    }
                }
                // The bootstrap exits immediately; its scheduled callbacks
                // do not keep the simulation alive, so faults trailing the
                // workload are inert.
            });
        }
        let finish_times: Vec<_> = (0..n)
            .map(|rank| Self::spawn_rank(&sim, engine, rank, &world, &program))
            .collect();
        let t_run = prof.as_ref().map(|(p, setup, ..)| {
            let t0 = t_setup.expect("setup timer exists with profiler");
            p.add_ns(*setup, t0.elapsed().as_nanos() as u64);
            std::time::Instant::now()
        });
        let end = match deadline {
            Some(limit) => sim.run_until(limit)?,
            None => sim.run()?,
        };
        let t_collect = prof.as_ref().map(|(p, _, run, _)| {
            let t0 = t_run.expect("run timer exists with profiler");
            p.add_ns(*run, t0.elapsed().as_nanos() as u64);
            std::time::Instant::now()
        });
        let per_rank: Vec<SimDuration> = finish_times
            .into_iter()
            .map(|rx| {
                rx.try_take()
                    .ok()
                    .expect("rank finished")
                    .since(SimTime::ZERO)
            })
            .collect();
        let stats = world.stats.lock().clone();
        let records = world.records.lock().clone();
        let trace = world
            .trace
            .as_ref()
            .map(|t| {
                let mut v = t.lock().clone();
                v.sort_by_key(|e| (e.start_ns, e.rank));
                v
            })
            .unwrap_or_default();
        let report = RunReport {
            elapsed: end.since(SimTime::ZERO),
            per_rank,
            stats,
            records,
            trace,
            clean: world.quiescent(),
        };
        if let Some((p, _, _, collect)) = &prof {
            let t0 = t_collect.expect("collect timer exists with profiler");
            p.add_ns(*collect, t0.elapsed().as_nanos() as u64);
        }
        Ok(report)
    }

    /// The sharded conservative-PDES driver (`exec.shards: Some(n)`).
    ///
    /// The logical partition depends only on `(topology, placement,
    /// pattern)`; `workers` sets the thread count, so every virtual
    /// timestamp, record, and merged observability event is bit-identical
    /// for any `workers ≥ 1`.
    fn run_pdes(
        self,
        workers: usize,
        setup: impl FnOnce(&Sim),
        program: impl MpiProgram,
    ) -> Result<RunReport, SimError> {
        let n = self.placement.len();
        assert!(n > 0, "MPI job needs at least one rank");
        let engine = self.exec.resolved_engine();
        let prof = self.prof_keys();
        let t_setup = prof.as_ref().map(|_| std::time::Instant::now());
        let groups = exec::partition(&self.net, &self.placement, self.exec.pattern);
        let n_groups = groups.iter().copied().max().unwrap_or(0) + 1;
        let lookahead = exec::lookahead(&self.net, &self.placement, &groups)
            .unwrap_or(SimDuration::from_nanos(1));
        // Per-group networks: group 0 keeps the caller's handle (setup
        // hooks and background traffic land there); further groups get
        // their own flow engine over a clone of the same topology.
        let mut nets = vec![self.net.clone()];
        let stack = self.net.stack_overhead();
        for _ in 1..n_groups {
            let topo = self.net.with_topology(|t| t.clone());
            nets.push(Network::with_stack_overhead(topo, stack));
        }
        for net in &nets {
            if let Some(on) = self.exec.fast_path {
                net.set_bulk_fast_path(on);
            }
            if let Some(plan) = &self.faults {
                net.install_faults(plan);
            }
        }
        // Per-group observability buffers, merged deterministically by
        // (time, group, sequence) after the run.
        let buffers: Option<Vec<Arc<GroupBuffer>>> = self.obs.recorder.as_ref().map(|_| {
            (0..n_groups)
                .map(|_| Arc::new(GroupBuffer::new()))
                .collect()
        });
        let group_obs = |g: usize| {
            let mut o = Obs::none();
            if let Some(bufs) = &buffers {
                o = o.recorder(Arc::clone(&bufs[g]) as Arc<dyn Recorder>);
            }
            if let Some(p) = &self.obs.profiler {
                o = o.profiler(Arc::clone(p));
            }
            o
        };
        let sims: Vec<Sim> = (0..n_groups)
            .map(|g| {
                let sim = Sim::new();
                sim.attach_obs(&group_obs(g));
                sim
            })
            .collect();
        for (g, net) in nets.iter().enumerate() {
            net.attach_obs(&group_obs(g));
        }
        let mut sharded = ShardedSim::new(sims, lookahead, workers);
        if let Some(limit) = self.deadline {
            sharded.set_limit(limit);
        }
        let obs_groups: Vec<Option<Arc<dyn Recorder>>> = (0..n_groups)
            .map(|g| {
                buffers
                    .as_ref()
                    .map(|b| Arc::clone(&b[g]) as Arc<dyn Recorder>)
            })
            .collect();
        let world = WorldInner::new_grouped(
            nets,
            groups.clone(),
            self.placement,
            self.profile,
            self.tuning,
            self.exec.coll,
            self.tracing,
            obs_groups,
            Some(sharded.cross()),
        );
        let program = Arc::new(program);
        setup(&sharded.sims()[0]);
        if let Some(plan) = &self.faults {
            // Every group runs its own faultd: network events apply to
            // the group's own flow engine; a rank kill runs in full in
            // the dead rank's group and as a local abort everywhere else
            // (see WorldInner::fail_rank_lite).
            for g in 0..n_groups {
                let world = Arc::clone(&world);
                let plan = plan.clone();
                sharded.sims()[g].spawn(format!("faultd{g}"), move |p| {
                    let s = p.sched();
                    world.net_of_group(g).schedule_fault_events(&s, &plan);
                    for ev in plan.sorted_events() {
                        if let FaultKind::RankFail {
                            rank,
                            restart_after,
                        } = ev.kind
                        {
                            let w = Arc::clone(&world);
                            s.call_at(ev.at, move |s2| {
                                let until = restart_after.map(|d| s2.now() + d);
                                let rank = rank as usize;
                                if w.group_of(rank) == g {
                                    w.fail_rank(s2, rank, until);
                                } else {
                                    w.fail_rank_lite(s2, g, rank, until);
                                }
                            });
                        }
                    }
                });
            }
        }
        let finish_times: Vec<_> = (0..n)
            .map(|rank| {
                Self::spawn_rank(
                    &sharded.sims()[groups[rank]],
                    engine,
                    rank,
                    &world,
                    &program,
                )
            })
            .collect();
        let t_run = prof.as_ref().map(|(p, setup, ..)| {
            let t0 = t_setup.expect("setup timer exists with profiler");
            p.add_ns(*setup, t0.elapsed().as_nanos() as u64);
            std::time::Instant::now()
        });
        let shard_stats = sharded.run()?;
        let t_collect = prof.as_ref().map(|(p, _, run, _)| {
            let t0 = t_run.expect("run timer exists with profiler");
            p.add_ns(*run, t0.elapsed().as_nanos() as u64);
            std::time::Instant::now()
        });
        let per_rank: Vec<SimDuration> = finish_times
            .into_iter()
            .map(|rx| {
                rx.try_take()
                    .ok()
                    .expect("rank finished")
                    .since(SimTime::ZERO)
            })
            .collect();
        // The windowed driver keeps draining trailing kernel callbacks
        // after the last rank exits (a shard is only Done on an empty
        // heap), so "job elapsed" is the last rank's finish — the same
        // quantity the classic driver's final event time measures.
        let elapsed = per_rank.iter().copied().max().unwrap_or(SimDuration::ZERO);
        if let (Some(bufs), Some(rec)) = (&buffers, &self.obs.recorder) {
            for (g, b) in bufs.iter().enumerate() {
                // Stamped with the job's elapsed rather than the group's
                // own final clock: a group clock can overrun the last
                // rank's finish by however much of the final window the
                // trailing flow callbacks consumed, which depends on the
                // per-round-vs-fast-path execution shape. The job elapsed
                // is pure physics — identical for any worker count and
                // either fast-path mode — so the merged stream's digest
                // stays invariant across all of them. (`events` is
                // excluded from digests, like the classic KernelRun's.)
                b.push(desim::obs::Event::KernelRun {
                    end_ns: elapsed.as_nanos(),
                    events: shard_stats.groups[g].events,
                });
            }
            merge_events(bufs.iter().map(|b| b.take()).collect(), rec.as_ref());
        }
        let stats = world.stats.lock().clone();
        // Concurrent groups interleave pushes arbitrarily; a stable sort
        // by rank restores a worker-count-independent order (each rank's
        // own pushes are already serial).
        let mut records = world.records.lock().clone();
        records.sort_by_key(|r| r.0);
        let trace = world
            .trace
            .as_ref()
            .map(|t| {
                let mut v = t.lock().clone();
                v.sort_by_key(|e| (e.start_ns, e.rank));
                v
            })
            .unwrap_or_default();
        let report = RunReport {
            elapsed,
            per_rank,
            stats,
            records,
            trace,
            clean: world.quiescent(),
        };
        if let Some((p, _, _, collect)) = &prof {
            let t0 = t_collect.expect("collect timer exists with profiler");
            p.add_ns(*collect, t0.elapsed().as_nanos() as u64);
        }
        Ok(report)
    }
}

/// Everything measured during one MPI run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock (virtual) time from t = 0 to the last rank's exit.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub per_rank: Vec<SimDuration>,
    /// Communication statistics.
    pub stats: CommStats,
    /// Named measurements emitted by ranks via [`RankCtx::record`].
    pub records: Vec<(usize, String, f64)>,
    /// Traced spans (empty unless [`MpiJob::with_tracing`] was used).
    pub trace: Vec<crate::trace::TraceEvent>,
    /// True if no posted receives or unexpected messages were left behind
    /// (a well-formed program drains everything).
    pub clean: bool,
}

impl RunReport {
    /// All recorded values with the given key, in rank order.
    pub fn values(&self, key: &str) -> Vec<(usize, f64)> {
        self.records
            .iter()
            .filter(|(_, k, _)| k == key)
            .map(|(r, _, v)| (*r, *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_resolve_accepts_known_values() {
        assert_eq!(Engine::resolve(None), (Engine::Pooled, None));
        assert_eq!(Engine::resolve(Some("pooled")), (Engine::Pooled, None));
        assert_eq!(Engine::resolve(Some("threaded")), (Engine::Threaded, None));
    }

    #[test]
    fn engine_resolve_warns_on_unknown_values() {
        for bad in ["threded", "POOLED", "", "1"] {
            let (engine, warning) = Engine::resolve(Some(bad));
            assert_eq!(engine, Engine::Pooled, "unknown values fall back");
            let msg = warning.expect("unknown value must warn");
            assert!(
                msg.contains(bad) || bad.is_empty(),
                "names the offender: {msg}"
            );
            assert!(
                msg.contains("\"threaded\"") && msg.contains("\"pooled\""),
                "names the accepted values: {msg}"
            );
        }
    }
}
