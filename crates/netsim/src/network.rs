//! Public network facade: create channels, start transfers, inspect state.

use std::sync::Arc;

use desim::sync::Mutex;
use desim::{completion, Completion, Proc, Sched, SimDuration, SimTime};

use desim::fault::{FaultKind, FaultPlan};

use crate::config::SockBufRequest;
use crate::flow::{fault_path_outage, start_transfer, ChannelId, DoneFn, NetState, SharedNet};
use crate::tcp::{TcpParams, TcpState};
use crate::topology::{LinkId, NodeId, Path, SiteId, Topology};

/// Default per-message host software overhead (IP stack in + out). With the
/// paper's 30 µs one-way LAN latency this reproduces the 41 µs raw-TCP
/// cluster latency of Table 4.
pub const DEFAULT_STACK_OVERHEAD: SimDuration = SimDuration::from_micros(11);

/// BIC's maximum binary-search increment per RTT (Linux `smax`, 32
/// segments). Paced and unpaced senders share it; their Fig. 9 ramp
/// difference comes from the RTO collapse only unpaced senders suffer on
/// the first slow-start overshoot.
pub const SMAX_PACED_SEGMENTS: f64 = 32.0;
#[allow(missing_docs)]
pub const SMAX_UNPACED_SEGMENTS: f64 = 32.0;

/// Shared handle to the simulated network. Clones are cheap and refer to
/// the same network.
#[derive(Clone)]
pub struct Network {
    state: SharedNet,
}

impl Network {
    /// Wrap a topology with the default host stack overhead.
    pub fn new(topo: Topology) -> Network {
        Self::with_stack_overhead(topo, DEFAULT_STACK_OVERHEAD)
    }

    /// Wrap a topology with an explicit per-message host overhead.
    pub fn with_stack_overhead(topo: Topology, stack_overhead: SimDuration) -> Network {
        Network {
            state: Arc::new(Mutex::new(NetState::new(topo, stack_overhead))),
        }
    }

    /// Enable or disable the closed-form bulk-transfer fast path (on by
    /// default). Both settings produce bit-identical virtual timings; the
    /// per-round model is kept selectable so the equivalence tests can
    /// prove exactly that. Call before starting transfers.
    pub fn set_bulk_fast_path(&self, enabled: bool) {
        self.state.lock().fast_enabled = enabled;
    }

    /// Attach observability per the given [`desim::obs::Obs`] config:
    /// the recorder receives [`desim::obs::Event`]s for flow
    /// starts/finishes, per-round TCP congestion samples (materialized
    /// from the closed-form replay when the fast path is active), and
    /// per-link delivery totals; the host-time profiler gets the flow
    /// engine's `netsim;…` wall-clock attribution. Probes are read-only
    /// taps; attaching them never changes virtual timestamps. Fields left
    /// `None` leave the corresponding attachment untouched.
    pub fn attach_obs(&self, obs: &desim::obs::Obs) {
        if let Some(rec) = &obs.recorder {
            self.state.lock().obs = Some(Arc::clone(rec));
        }
        if let Some(prof) = &obs.profiler {
            self.install_host_profiler(Arc::clone(prof));
        }
    }

    /// The profiler attachment body: interns per-link settle keys — settle
    /// time per directed link (labelled `site:<name>` for LAN access links
    /// and `wan:<a>-><b>` for WAN trunks, the candidate PDES shard
    /// boundaries), the max-min allocator, and the per-channel round /
    /// finish / fast-path handlers. The profiler reads only the host
    /// clock, so virtual time is untouched.
    fn install_host_profiler(&self, prof: Arc<desim::obs::HostProfiler>) {
        let mut g = self.state.lock();
        let n_links = g.topo.link_count();
        let mut labels = vec![String::new(); n_links];
        for n in g.topo.nodes().collect::<Vec<_>>() {
            let site = g.topo.site_name(g.topo.site_of(n)).to_string();
            for l in g.topo.node_links(n) {
                if labels[l.index()].is_empty() {
                    labels[l.index()] = format!("site:{site}");
                }
            }
        }
        for (a, b, l) in g.topo.wan_links() {
            labels[l.index()] = format!("wan:{}->{}", g.topo.site_name(a), g.topo.site_name(b));
        }
        for (i, lab) in labels.iter_mut().enumerate() {
            if lab.is_empty() {
                *lab = format!("link{i}");
            }
        }
        let link_keys = labels
            .iter()
            .map(|lab| prof.intern(&format!("netsim;settle;{lab}")))
            .collect();
        g.host_prof = Some(crate::flow::NetProf {
            settle: prof.intern("netsim;settle"),
            allocate: prof.intern("netsim;allocate"),
            finish: prof.intern("netsim;finish_event"),
            commit: prof.intern("netsim;fast_commit"),
            replay: prof.intern("netsim;replay"),
            link_keys,
            link_labels: labels,
            chan_keys: Vec::new(),
            settle_scratch: Vec::new(),
            tick: 0,
            prof,
        });
    }

    /// Open a unidirectional TCP channel from `src` to `dst`.
    ///
    /// `snd_req`/`rcv_req` model the `setsockopt(SO_SNDBUF/SO_RCVBUF)`
    /// behaviour of the communication library at each end; `pacing` enables
    /// GridMPI-style software pacing on the sender.
    pub fn channel(
        &self,
        src: NodeId,
        dst: NodeId,
        snd_req: SockBufRequest,
        rcv_req: SockBufRequest,
        pacing: bool,
    ) -> ChannelId {
        self.channel_with(src, dst, snd_req, rcv_req, pacing, None)
    }

    /// Like [`Network::channel`], with an additional application-level cap
    /// on in-flight data (`window_cap`). This models middleware that limits
    /// its transmission pipeline depth — e.g. OpenMPI's BTL fragment
    /// scheduling, which caps useful window below the socket buffers on
    /// long fat paths.
    pub fn channel_with(
        &self,
        src: NodeId,
        dst: NodeId,
        snd_req: SockBufRequest,
        rcv_req: SockBufRequest,
        pacing: bool,
        window_cap: Option<u64>,
    ) -> ChannelId {
        let mut g = self.state.lock();
        let path = g.topo.route(src, dst);
        let snd_kernel = g.topo.node(src).kernel;
        let rcv_kernel = g.topo.node(dst).kernel;
        let max_window = snd_kernel
            .send_buffer_bound(snd_req)
            .min(rcv_kernel.recv_buffer_bound(rcv_req))
            .min(window_cap.unwrap_or(u64::MAX));
        let rtt = path.rtt;
        let params = TcpParams {
            mss: snd_kernel.mss as u64,
            init_cwnd: (snd_kernel.init_cwnd_segments as u64) * snd_kernel.mss as u64,
            cc: snd_kernel.congestion_control,
            pacing,
            max_window,
            rtt,
            bdp: path.bdp_bytes(),
            queue_bytes: path.queue_bytes,
            wan: path.wan,
            slow_start_after_idle: snd_kernel.slow_start_after_idle,
            rto: SimDuration::from_millis(200).max(rtt * 2),
            smax_paced_segments: SMAX_PACED_SEGMENTS,
            smax_unpaced_segments: SMAX_UNPACED_SEGMENTS,
            beta: 0.8,
        };
        g.add_channel(path, TcpState::new(params))
    }

    /// Open a channel over the site's high-speed fabric (Myrinet,
    /// Infiniband) between two nodes of the same site, if one exists.
    /// Fast-fabric channels have no TCP dynamics: the full path bandwidth
    /// is available immediately (OS-bypass communication).
    pub fn fast_channel(&self, src: NodeId, dst: NodeId) -> Option<ChannelId> {
        let mut g = self.state.lock();
        let path = g.topo.route_fast(src, dst)?;
        let rtt = path.rtt;
        let params = TcpParams {
            mss: 4096,
            // No window dynamics: start wide open.
            init_cwnd: 64 << 20,
            cc: crate::config::CongestionControl::Bic,
            pacing: true,
            max_window: 64 << 20,
            rtt,
            bdp: path.bdp_bytes(),
            queue_bytes: u64::MAX,
            wan: false,
            slow_start_after_idle: false,
            rto: SimDuration::from_millis(200),
            smax_paced_segments: SMAX_PACED_SEGMENTS,
            smax_unpaced_segments: SMAX_UNPACED_SEGMENTS,
            beta: 0.8,
        };
        Some(g.add_channel(path, TcpState::new(params)))
    }

    /// Enqueue a `bytes`-long transfer on `ch`. The returned completion
    /// fires when the last byte reaches the receiving host (propagation and
    /// stack overhead included). Transfers on one channel are FIFO.
    pub fn transfer(&self, s: &Sched, ch: ChannelId, bytes: u64) -> Completion<()> {
        let (tx, rx) = completion();
        start_transfer(
            &self.state,
            s,
            ch,
            bytes,
            DoneFn::AtArrival(Box::new(move |s2: &Sched| tx.fire_from(s2, ()))),
        );
        rx
    }

    /// Like [`Network::transfer`], but invokes a callback (in scheduler
    /// context) at arrival time instead of firing a completion. This is the
    /// hook higher layers use to chain protocol steps (e.g. the MPI
    /// rendezvous REQ → ACK → data sequence) without dedicating a process
    /// to each message.
    pub fn transfer_then(
        &self,
        s: &Sched,
        ch: ChannelId,
        bytes: u64,
        f: impl FnOnce(&Sched) + Send + 'static,
    ) {
        start_transfer(&self.state, s, ch, bytes, DoneFn::AtArrival(Box::new(f)));
    }

    /// Like [`Network::transfer_then`], but invokes the callback at the
    /// sender-side *finish* time with the receiver-side arrival time as an
    /// argument. The sharded engine uses this for transfers whose receiver
    /// lives on another shard: at finish time the arrival still lies a
    /// full one-way latency ahead, so the completion can cross the shard
    /// boundary as conservative-safe mail instead of a local event.
    pub fn transfer_finish_then(
        &self,
        s: &Sched,
        ch: ChannelId,
        bytes: u64,
        f: impl FnOnce(&Sched, SimTime) + Send + 'static,
    ) {
        start_transfer(&self.state, s, ch, bytes, DoneFn::AtFinish(Box::new(f)));
    }

    /// Convenience: run a transfer to completion from a blocking process.
    pub fn transfer_blocking(&self, p: &Proc, ch: ChannelId, bytes: u64) {
        self.transfer(&p.sched(), ch, bytes).wait(p);
    }

    /// Route properties between two nodes.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Path {
        self.state.lock().topo.route(src, dst)
    }

    /// Round-trip time between two nodes.
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> SimDuration {
        self.route(src, dst).rtt
    }

    /// Per-message host software overhead.
    pub fn stack_overhead(&self) -> SimDuration {
        self.state.lock().stack_overhead
    }

    /// Site of a node.
    pub fn site_of(&self, n: NodeId) -> SiteId {
        self.state.lock().topo.site_of(n)
    }

    /// Name of a site.
    pub fn site_name(&self, s: SiteId) -> String {
        self.state.lock().topo.site_name(s).to_string()
    }

    /// Compute rate of a node in Gflop/s.
    pub fn cpu_gflops(&self, n: NodeId) -> f64 {
        self.state.lock().topo.node(n).cpu_gflops
    }

    /// Number of nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.state.lock().topo.node_count()
    }

    /// Read access to the topology.
    pub fn with_topology<R>(&self, f: impl FnOnce(&Topology) -> R) -> R {
        f(&self.state.lock().topo)
    }

    /// Loss episodes suffered so far by a channel's TCP state.
    pub fn channel_losses(&self, ch: ChannelId) -> u64 {
        self.state.lock().channels[ch.0].tcp.losses()
    }

    /// Current congestion window of a channel, bytes.
    pub fn channel_cwnd(&self, ch: ChannelId) -> u64 {
        self.state.lock().channels[ch.0].tcp.cwnd()
    }

    /// Completed transfer count and bytes on a channel.
    pub fn channel_stats(&self, ch: ChannelId) -> (u64, u64) {
        let g = self.state.lock();
        let c = &g.channels[ch.0];
        (c.transfers, c.bytes_done)
    }

    /// Bytes delivered so far over a directed link (0 if nothing flowed).
    pub fn link_delivered(&self, l: crate::LinkId) -> f64 {
        let g = self.state.lock();
        g.link_delivered.get(l.index()).copied().unwrap_or(0.0)
    }

    /// Install a fault plan on the network: every present and future
    /// channel picks up the plan's stochastic loss/duplication rates
    /// (each channel draws from its own seeded stream, so channel
    /// creation order elsewhere never perturbs another channel's losses).
    /// A non-empty plan disables the closed-form bulk fast path — loss is
    /// drawn per window round, so lossy flows need the real event
    /// cadence. Installing an empty plan is a no-op, which keeps
    /// fault-free scenarios on the fast path and bit-identical.
    pub fn install_faults(&self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.state.lock().install_faults(plan);
    }

    /// Schedule the plan's explicit timed *network* events (link flaps,
    /// NIC stalls) as kernel callbacks. Rank failures are ignored here —
    /// they belong to the MPI layer, which owns rank lifecycles. Must be
    /// called from scheduler context (e.g. a bootstrap process); the
    /// scheduled callbacks do not keep the simulation alive past the last
    /// process, so trailing faults after workload completion are inert.
    pub fn schedule_fault_events(&self, s: &Sched, plan: &FaultPlan) {
        for ev in plan.sorted_events() {
            let net = Arc::clone(&self.state);
            match ev.kind {
                FaultKind::LinkDown { link, down } => {
                    s.call_at(ev.at, move |s2| {
                        fault_path_outage(
                            &net,
                            s2,
                            vec![LinkId(link)],
                            down,
                            "link_down",
                            link as u64,
                        )
                    });
                }
                FaultKind::NicStall { node, down } => {
                    s.call_at(ev.at, move |s2| {
                        let links = net.lock().topo.node_links(NodeId(node));
                        fault_path_outage(&net, s2, links, down, "nic_stall", node as u64)
                    });
                }
                // Rank lifecycle is mpisim's business (see MpiJob::with_faults).
                FaultKind::RankFail { .. } => {}
            }
        }
    }

    /// Convenience: install `plan` and spawn a short-lived bootstrap
    /// process that schedules its timed network events at t = 0.
    pub fn spawn_faultd(&self, sim: &desim::Sim, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.install_faults(plan);
        let net = self.clone();
        let plan = plan.clone();
        sim.spawn("faultd", move |p| {
            net.schedule_fault_events(&p.sched(), &plan);
        });
    }

    /// Dense indices of the topology's WAN links, for building random
    /// link-flap schedules.
    pub fn wan_link_indices(&self) -> Vec<u32> {
        self.state
            .lock()
            .topo
            .wan_links()
            .iter()
            .map(|&(_, _, l)| l.index() as u32)
            .collect()
    }

    /// Spawn a deterministic background-traffic generator: `count` flows of
    /// `bytes` from `src` to `dst`, one every `period`. Models the "other
    /// Grid'5000 users" whose perturbations force the paper to keep the
    /// min/max over 200 pingpong iterations (§4.1).
    pub fn spawn_background_traffic(
        &self,
        sim: &desim::Sim,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        period: SimDuration,
        count: u32,
    ) {
        let net = self.clone();
        sim.spawn(format!("bg-{}-{}", src.index(), dst.index()), move |p| {
            let ch = net.channel(
                src,
                dst,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                false,
            );
            for _ in 0..count {
                p.advance(period);
                // Fire-and-forget: the flow contends with foreground
                // traffic while it drains.
                drop(net.transfer(&p.sched(), ch, bytes));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use crate::topology::{NodeParams, SiteParams};
    use desim::Sim;

    fn cluster_net(kernel: KernelConfig) -> (Network, NodeId, NodeId) {
        let mut t = Topology::new();
        let s = t.add_site("rennes", SiteParams::default());
        let a = t.add_node(s, NodeParams::default());
        let b = t.add_node(s, NodeParams::default());
        t.set_kernel_all(kernel);
        (Network::new(t), a, b)
    }

    fn grid_net(kernel: KernelConfig) -> (Network, NodeId, NodeId) {
        let mut t = Topology::new();
        let s1 = t.add_site("rennes", SiteParams::default());
        let s2 = t.add_site("nancy", SiteParams::default());
        let a = t.add_node(s1, NodeParams::default());
        let b = t.add_node(s2, NodeParams::default());
        t.connect_sites(
            s1,
            s2,
            SimDuration::from_micros(11_600),
            9.4e9 / 8.0,
            512 * 1024,
        );
        t.set_kernel_all(kernel);
        (Network::new(t), a, b)
    }

    /// Run a single transfer and return its duration in seconds.
    fn timed_transfer(net: &Network, a: NodeId, b: NodeId, bytes: u64, warmup: u32) -> f64 {
        let (tx, rx) = completion::<f64>();
        let net2 = net.clone();
        let sim = Sim::new();
        sim.spawn("xfer", move |p| {
            let ch = net2.channel(
                a,
                b,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                false,
            );
            for _ in 0..warmup {
                net2.transfer_blocking(&p, ch, bytes);
            }
            let t0 = p.now();
            net2.transfer_blocking(&p, ch, bytes);
            tx.fire(&p, p.now().since(t0).as_secs_f64());
        });
        sim.run().unwrap();
        rx.try_take().ok().expect("duration recorded")
    }

    #[test]
    fn one_byte_cluster_latency_matches_table4() {
        let (net, a, b) = cluster_net(KernelConfig::untuned_2007());
        let t = timed_transfer(&net, a, b, 1, 0);
        // 30 µs propagation + 11 µs stack = 41 µs (Table 4, raw TCP).
        assert!((40e-6..42e-6).contains(&t), "latency {t}");
    }

    #[test]
    fn one_byte_grid_latency_matches_table4() {
        let (net, a, b) = grid_net(KernelConfig::untuned_2007());
        let t = timed_transfer(&net, a, b, 1, 0);
        // 5800 µs propagation + 11 µs stack ≈ 5812 µs (Table 4, raw TCP).
        assert!((5.80e-3..5.83e-3).contains(&t), "latency {t}");
    }

    #[test]
    fn untuned_grid_bandwidth_is_window_capped() {
        let (net, a, b) = grid_net(KernelConfig::untuned_2007());
        let bytes = 8 << 20;
        let t = timed_transfer(&net, a, b, bytes, 2);
        let mbps = bytes as f64 * 8.0 / t / 1e6;
        // Fig. 3: well under 120 Mbps with default buffers.
        assert!((60.0..120.0).contains(&mbps), "mbps={mbps}");
    }

    #[test]
    fn tuned_grid_bandwidth_approaches_line_rate() {
        let (net, a, b) = grid_net(KernelConfig::tuned(4 << 20));
        let bytes = 32 << 20;
        // Warm up the window across a few messages, as the paper's
        // 200-iteration pingpong does.
        let t = timed_transfer(&net, a, b, bytes, 6);
        let mbps = bytes as f64 * 8.0 / t / 1e6;
        // Fig. 6: ~900 Mbps after TCP tuning.
        assert!(mbps > 800.0, "mbps={mbps}");
    }

    #[test]
    fn cluster_bandwidth_is_line_rate_by_default() {
        let (net, a, b) = cluster_net(KernelConfig::untuned_2007());
        let bytes = 8 << 20;
        let t = timed_transfer(&net, a, b, bytes, 2);
        let mbps = bytes as f64 * 8.0 / t / 1e6;
        // Fig. 5: ~940 Mbps on the cluster with defaults.
        assert!((900.0..945.0).contains(&mbps), "mbps={mbps}");
    }

    #[test]
    fn concurrent_flows_share_the_wan_fairly() {
        // Two senders on one site, two receivers on the other, NICs 1 Gbps,
        // WAN 1 Gbps: each pair should get ~half the WAN.
        let mut t = Topology::new();
        let s1 = t.add_site("a", SiteParams::default());
        let s2 = t.add_site("b", SiteParams::default());
        let a1 = t.add_node(s1, NodeParams::default());
        let a2 = t.add_node(s1, NodeParams::default());
        let b1 = t.add_node(s2, NodeParams::default());
        let b2 = t.add_node(s2, NodeParams::default());
        t.connect_sites(
            s1,
            s2,
            SimDuration::from_micros(11_600),
            1e9 / 8.0,
            512 * 1024,
        );
        t.set_kernel_all(KernelConfig::tuned(8 << 20));
        let net = Network::new(t);
        let sim = Sim::new();
        let bytes: u64 = 16 << 20;
        for (src, dst, name) in [(a1, b1, "f1"), (a2, b2, "f2")] {
            let net2 = net.clone();
            sim.spawn(name, move |p| {
                let ch = net2.channel(
                    src,
                    dst,
                    SockBufRequest::OsDefault,
                    SockBufRequest::OsDefault,
                    true,
                );
                net2.transfer_blocking(&p, ch, bytes);
            });
        }
        let end = sim.run().unwrap();
        // Two 16 MB flows over a shared 1 Gbps (125 MB/s raw) WAN link:
        // aggregate ≥ 32 MB so ≥ 0.26 s; if sharing were ignored it would
        // finish in ~0.14 s.
        let secs = end.as_secs_f64();
        assert!(secs > 0.25, "finished too fast: {secs}");
        assert!(secs < 1.0, "finished too slow: {secs}");
    }

    #[test]
    fn fifo_ordering_on_one_channel() {
        let (net, a, b) = cluster_net(KernelConfig::untuned_2007());
        let sim = Sim::new();
        let net2 = net.clone();
        sim.spawn("pipeline", move |p| {
            let ch = net2.channel(
                a,
                b,
                SockBufRequest::OsDefault,
                SockBufRequest::OsDefault,
                false,
            );
            let s = p.sched();
            let c1 = net2.transfer(&s, ch, 1 << 20);
            let c2 = net2.transfer(&s, ch, 1_000);
            // The big message was queued first: the small one must not
            // overtake it on the same socket.
            let t_big = {
                c1.wait(&p);
                p.now()
            };
            let t_small = {
                c2.wait(&p);
                p.now()
            };
            assert!(t_small >= t_big, "FIFO violated: {t_small:?} < {t_big:?}");
        });
        sim.run().unwrap();
    }
}
