//! The shared state of one MPI run: rank placement, per-pair TCP channels,
//! message matching, and the eager / rendezvous wire protocols of Fig. 4.
//!
//! ## Protocol model
//!
//! * **Eager** (`bytes ≤ threshold`): the sender pays its software overhead,
//!   hands `header + bytes` to the TCP channel and returns (buffered-send
//!   semantics). At arrival the envelope either matches a posted receive
//!   (data lands in the application buffer — Fig. 4 arrow 1) or joins the
//!   *unexpected queue*; a receive that matches an unexpected message pays
//!   the extra memory copy (Fig. 4 arrow 2).
//! * **Rendezvous** (`bytes > threshold`): the sender transmits a small
//!   `MPI_Request` control message and blocks. When the matching receive
//!   is posted, the receiver returns an acknowledgement; data then flows
//!   and both sides complete at data arrival. The handshake costs a full
//!   RTT, which is why the paper raises the threshold on the grid
//!   (Table 5).
//!
//! Both control and data messages share the per-(src,dst) TCP channel, so
//! head-of-line blocking across messages is modelled faithfully.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::shard::CrossPost;
use desim::sync::Mutex;
use desim::{completion, Completion, Sched, SimDuration, SimTime, Trigger};
use netsim::{ChannelId, Network, NodeId};

use crate::error::MpiError;
use crate::profile::{ImplProfile, Tuning};
use crate::stats::CommStats;
use crate::trace::TraceEvent;

/// MPI envelope header bytes added to every data message on the wire.
pub const HEADER_BYTES: u64 = 64;
/// Size of rendezvous control messages (request / acknowledgement).
pub const CTRL_BYTES: u64 = 64;

/// What a completed receive reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgInfo {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Deterministic message id assigned at send time (encodes the
    /// directed rank pair and a per-pair sequence number), pairing the
    /// sender's and receiver's trace spans without heuristics.
    pub msg_id: u64,
}

/// Internal receive completion: the envelope plus any deferred copy cost
/// (unexpected-message copy) the receiving process must pay.
pub(crate) struct RecvDone {
    pub info: MsgInfo,
    pub copy: SimDuration,
}

struct PostedRecv {
    /// Unique id, so a timeout can cancel exactly this entry (and only if
    /// it is still posted — a completed receive leaves the queue first,
    /// making the late timeout callback a no-op).
    id: u64,
    sel_src: Option<usize>,
    sel_tag: Option<u64>,
    tx: Trigger<Result<RecvDone, MpiError>>,
}

/// What posting a receive produced: either an unexpected eager message
/// satisfied it on the spot, or it is pending under `id`.
pub(crate) enum Posted {
    Immediate(RecvDone),
    Pending {
        /// Cancellation handle; `None` when the receive already matched a
        /// rendezvous request (the data is in flight — a timeout can no
        /// longer abort it).
        id: Option<u64>,
        rx: Completion<Result<RecvDone, MpiError>>,
    },
}

enum Unexpected {
    Eager {
        src: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    },
    RndvReq {
        src: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
        sender_done: Trigger<Result<(), MpiError>>,
    },
}

impl Unexpected {
    fn matches(&self, sel_src: Option<usize>, sel_tag: Option<u64>) -> bool {
        let (src, tag) = match self {
            Unexpected::Eager { src, tag, .. } => (*src, *tag),
            Unexpected::RndvReq { src, tag, .. } => (*src, *tag),
        };
        sel_src.is_none_or(|s| s == src) && sel_tag.is_none_or(|t| t == tag)
    }
}

#[derive(Default)]
struct RankMatch {
    unexpected: VecDeque<Unexpected>,
    posted: VecDeque<PostedRecv>,
}

/// Shared state of one MPI world (all ranks of one run).
pub(crate) struct WorldInner {
    /// The reference network (execution group 0's). Topology queries go
    /// here; flows go through [`Self::net_of`], which is the same handle
    /// in classic mode.
    pub net: Network,
    /// Per-execution-group flow engines. Classic mode: one entry, the
    /// reference network. PDES mode: one per logical group, each over a
    /// clone of the same topology; a directed channel `src → dst` lives
    /// in `src`'s group's engine.
    nets: Vec<Network>,
    /// Rank → execution-group index (all zero in classic mode).
    exec_group: Vec<usize>,
    /// The PDES cross-group mail fabric (`None` in classic mode).
    cross: Option<CrossPost>,
    /// Directed link → owning execution group, filled at channel
    /// creation. Under `CommPattern::SiteDisjoint` every directed link
    /// must carry flows of one group only; a conflict is a contract
    /// violation and panics. Only consulted with more than one group.
    link_claims: Mutex<HashMap<usize, usize>>,
    pub profile: ImplProfile,
    pub eager_threshold: u64,
    /// Collective-algorithm pins (see [`crate::CollConfig`]); consulted
    /// by the dispatchers in `collectives` before the profile's own
    /// algorithm choice.
    pub coll: crate::collectives::CollConfig,
    pub placement: Vec<NodeId>,
    /// Ranks grouped by site, in order of first appearance.
    pub site_groups: Vec<Vec<usize>>,
    /// Rank → index into `site_groups`.
    pub rank_site: Vec<usize>,
    /// Every world rank, in order: the group of world-wide collectives,
    /// built once so a collective call allocates none.
    pub ranks: Vec<usize>,
    matchers: Vec<Mutex<RankMatch>>,
    /// Per-rank failure window: `Some((at, until))` means the rank is
    /// dead for virtual times `at ≤ t < until` (`SimTime::MAX` = no
    /// restart). The kill instant is stored so a concurrently-running
    /// group whose clock has not yet reached `at` still reads "alive" —
    /// every group writes the same tuple at virtual time `at`, making
    /// the write idempotent and the read race-free.
    failed: Vec<Mutex<Option<(SimTime, SimTime)>>>,
    next_posted_id: AtomicU64,
    /// Per-directed-pair message sequence counters, keyed `(src, dst)` and
    /// created on first use — dense `n × n` storage would cost O(n²) memory
    /// at rank scale while real traffic touches only O(active pairs).
    /// Ids are assigned at the MPI layer, before any network timing, so
    /// they are identical with the TCP fast path on or off.
    msg_seq: Mutex<HashMap<(usize, usize), u64>>,
    channels: Mutex<HashMap<(usize, usize, u32), ChannelId>>,
    pub stats: Mutex<CommStats>,
    pub records: Mutex<Vec<(usize, String, f64)>>,
    /// Traced spans (populated only when tracing is enabled).
    pub trace: Option<Mutex<Vec<TraceEvent>>>,
    /// Per-group observability sinks: every traced-or-not MPI span and
    /// app-phase marker is forwarded to the emitting rank's group's sink
    /// when set (classic mode: one sink). Read-only taps; recording never
    /// touches the simulation.
    obs_groups: Vec<Option<Arc<dyn desim::obs::Recorder>>>,
}

impl WorldInner {
    /// Classic single-kernel world: one flow engine, one group.
    pub fn new(
        net: Network,
        placement: Vec<NodeId>,
        profile: ImplProfile,
        tuning: Tuning,
        coll: crate::collectives::CollConfig,
        tracing: bool,
        obs: Option<Arc<dyn desim::obs::Recorder>>,
    ) -> Arc<WorldInner> {
        let n = placement.len();
        Self::new_grouped(
            vec![net],
            vec![0; n],
            placement,
            profile,
            tuning,
            coll,
            tracing,
            vec![obs],
            None,
        )
    }

    /// A world partitioned into execution groups for the PDES driver.
    /// `nets`, `obs_groups` are per-group (same length); `exec_group`
    /// maps each rank to its group; `cross` is the driver's mail fabric.
    #[allow(clippy::too_many_arguments)] // construction-time wiring, deliberately flat
    pub fn new_grouped(
        nets: Vec<Network>,
        exec_group: Vec<usize>,
        placement: Vec<NodeId>,
        profile: ImplProfile,
        tuning: Tuning,
        coll: crate::collectives::CollConfig,
        tracing: bool,
        obs_groups: Vec<Option<Arc<dyn desim::obs::Recorder>>>,
        cross: Option<CrossPost>,
    ) -> Arc<WorldInner> {
        assert_eq!(nets.len(), obs_groups.len(), "one sink slot per group");
        let net = nets[0].clone();
        let eager_threshold = tuning.eager_threshold.unwrap_or(profile.eager_threshold);
        let mut profile = profile;
        if let Some(buf) = tuning.socket_buffer {
            profile.socket_policy = crate::profile::SocketPolicy::Fixed(buf);
        }
        let n = placement.len();
        let mut site_groups: Vec<(netsim::SiteId, Vec<usize>)> = Vec::new();
        let mut rank_site = Vec::with_capacity(n);
        for (r, &node) in placement.iter().enumerate() {
            let s = net.site_of(node);
            match site_groups.iter_mut().position(|(sid, _)| *sid == s) {
                Some(i) => {
                    site_groups[i].1.push(r);
                    rank_site.push(i);
                }
                None => {
                    site_groups.push((s, vec![r]));
                    rank_site.push(site_groups.len() - 1);
                }
            }
        }
        let site_groups = site_groups.into_iter().map(|(_, g)| g).collect();
        Arc::new(WorldInner {
            net,
            nets,
            exec_group,
            cross,
            link_claims: Mutex::new(HashMap::new()),
            profile,
            eager_threshold,
            coll,
            placement,
            site_groups,
            rank_site,
            ranks: (0..n).collect(),
            matchers: (0..n).map(|_| Mutex::new(RankMatch::default())).collect(),
            failed: (0..n).map(|_| Mutex::new(None)).collect(),
            next_posted_id: AtomicU64::new(1),
            msg_seq: Mutex::new(HashMap::new()),
            channels: Mutex::new(HashMap::new()),
            stats: Mutex::new(CommStats::default()),
            records: Mutex::new(Vec::new()),
            trace: tracing.then(|| Mutex::new(Vec::new())),
            obs_groups,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.placement.len()
    }

    /// The execution group a rank runs in (0 for everyone in classic mode).
    pub fn group_of(&self, rank: usize) -> usize {
        self.exec_group[rank]
    }

    /// True if both ranks execute in the same group (always, classically).
    fn same_group(&self, a: usize, b: usize) -> bool {
        self.exec_group[a] == self.exec_group[b]
    }

    /// The flow engine owning flows that *originate* at `rank`.
    fn net_of(&self, rank: usize) -> &Network {
        &self.nets[self.exec_group[rank]]
    }

    /// Group `g`'s flow engine.
    pub fn net_of_group(&self, g: usize) -> &Network {
        &self.nets[g]
    }

    /// The observability sink for events emitted by `rank`'s group.
    pub fn obs_of(&self, rank: usize) -> Option<&Arc<dyn desim::obs::Recorder>> {
        self.obs_groups[self.exec_group[rank]].as_ref()
    }

    /// The PDES mail fabric (panics in classic mode — cross-group traffic
    /// cannot arise there, since everyone is in group 0).
    fn cross_fabric(&self) -> &CrossPost {
        self.cross
            .as_ref()
            .expect("cross-group traffic outside pdes mode")
    }

    /// One-way wire latency from `src`'s node to `dst`'s node — by
    /// construction at least the PDES lookahead when the ranks are in
    /// different groups.
    fn one_way(&self, src: usize, dst: usize) -> SimDuration {
        let rtt = self.net.rtt(self.placement[src], self.placement[dst]);
        SimDuration::from_nanos(rtt.as_nanos() / 2)
    }

    /// Record that `src`'s group owns every directed link of the
    /// `src → dst` route, panicking if another group claimed one already
    /// (the `SiteDisjoint` contract audit). No-op with a single group.
    fn claim_links(&self, src: usize, dst: usize, fast: bool) {
        if self.nets.len() <= 1 {
            return;
        }
        let owner = self.exec_group[src];
        let (a, b) = (self.placement[src], self.placement[dst]);
        let links: Vec<usize> = self.net_of(src).with_topology(|t| {
            let path = if fast {
                t.route_fast(a, b)
            } else {
                Some(t.route(a, b))
            };
            path.map(|p| p.links.iter().map(|l| l.index()).collect())
                .unwrap_or_default()
        });
        let mut claims = self.link_claims.lock();
        for l in links {
            if let Some(prev) = claims.insert(l, owner) {
                assert!(
                    prev == owner,
                    "CommPattern::SiteDisjoint violated: directed link {l} carries \
                     flows of groups {prev} and {owner} (channel rank{src} -> rank{dst}); \
                     run this workload with CommPattern::General"
                );
            }
        }
    }

    /// Allocate the next message id for the directed pair `src → dst`:
    /// the pair index in the high 32 bits, a 1-based per-pair sequence
    /// number in the low 32. Never 0, so 0 can mean "no message".
    pub(crate) fn next_msg_id(&self, src: usize, dst: usize) -> u64 {
        let pair = src * self.size() + dst;
        let mut g = self.msg_seq.lock();
        let seq = g.entry((src, dst)).or_insert(0);
        *seq += 1;
        ((pair as u64) << 32) | (*seq & 0xffff_ffff)
    }

    /// True if the two ranks live on different sites (WAN path).
    pub fn is_wan(&self, a: usize, b: usize) -> bool {
        self.net.site_of(self.placement[a]) != self.net.site_of(self.placement[b])
    }

    /// Per-message software overhead between two ranks (Table 4), plus the
    /// heterogeneity-management cost when the message rides the fast
    /// fabric.
    pub fn overhead(&self, src: usize, dst: usize) -> SimDuration {
        if self.is_wan(src, dst) {
            self.profile.overhead_wan
        } else {
            let mut o = self.profile.overhead_lan;
            if let Some(gateway) = self.profile.fast_lan {
                if self.net.with_topology(|t| {
                    t.route_fast(self.placement[src], self.placement[dst])
                        .is_some()
                }) {
                    o += gateway;
                }
            }
            o
        }
    }

    /// The lazily-created TCP channel from `src` to `dst`.
    pub fn channel(&self, src: usize, dst: usize) -> ChannelId {
        self.channel_stream(src, dst, 0)
    }

    /// One of the parallel sockets between a pair (stream 0 carries
    /// control traffic and unstriped data).
    fn channel_stream(&self, src: usize, dst: usize, stream: u32) -> ChannelId {
        let mut g = self.channels.lock();
        *g.entry((src, dst, stream)).or_insert_with(|| {
            let net = self.net_of(src);
            if self.profile.fast_lan.is_some() {
                if let Some(ch) = net.fast_channel(self.placement[src], self.placement[dst]) {
                    self.claim_links(src, dst, true);
                    return ch;
                }
            }
            let req = self.profile.socket_policy.request();
            let ch = net.channel_with(
                self.placement[src],
                self.placement[dst],
                req,
                req,
                self.profile.pacing,
                self.profile.data_window_cap,
            );
            self.claim_links(src, dst, false);
            ch
        })
    }

    /// Move `bytes` of user data (plus header) from `src` to `dst`,
    /// invoking `done` when the last byte has arrived. Messages above the
    /// profile's parallel-stream threshold are striped over several TCP
    /// connections (MPICH-G2, §2.1.5); the callback fires when every
    /// stripe has landed.
    fn data_transfer(
        self: &Arc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        bytes: u64,
        done: impl FnOnce(&Sched) + Send + 'static,
    ) {
        let streams = match self.profile.parallel_streams {
            Some((threshold, k)) if bytes > threshold && k > 1 => k,
            _ => 1,
        };
        debug_assert!(
            self.same_group(src, dst),
            "cross-group data uses data_transfer_finish"
        );
        if streams == 1 {
            let ch = self.channel_stream(src, dst, 0);
            self.net_of(src)
                .transfer_then(s, ch, bytes + HEADER_BYTES, done);
            return;
        }
        let chunk = bytes / streams as u64;
        let pending = Arc::new(Mutex::new((streams, Some(done))));
        for k in 0..streams {
            let this_chunk = if k == streams - 1 {
                bytes - chunk * (streams as u64 - 1)
            } else {
                chunk
            };
            let ch = self.channel_stream(src, dst, k);
            let pending = Arc::clone(&pending);
            self.net_of(src)
                .transfer_then(s, ch, this_chunk + HEADER_BYTES, move |s2| {
                    let mut g = pending.lock();
                    g.0 -= 1;
                    if g.0 == 0 {
                        let done = g.1.take().expect("stripe callback pending");
                        drop(g);
                        done(s2);
                    }
                });
        }
    }

    /// Cross-group sibling of [`Self::data_transfer`]: moves the same
    /// bytes over the same (possibly striped) channels, but `finish(s,
    /// arrival)` runs in the *source* group at wire-finish time carrying
    /// the arrival stamp, so the caller can split completions between the
    /// sender's group (a local `call_at(arrival, …)`) and the receiver's
    /// group (cross mail at `arrival`). `arrival − finish` is at least
    /// the path's one-way latency, which is at least the driver's
    /// lookahead — the cross mail is always causally safe.
    fn data_transfer_finish(
        self: &Arc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        bytes: u64,
        finish: impl FnOnce(&Sched, SimTime) + Send + 'static,
    ) {
        let streams = match self.profile.parallel_streams {
            Some((threshold, k)) if bytes > threshold && k > 1 => k,
            _ => 1,
        };
        if streams == 1 {
            let ch = self.channel_stream(src, dst, 0);
            self.net_of(src)
                .transfer_finish_then(s, ch, bytes + HEADER_BYTES, finish);
            return;
        }
        let chunk = bytes / streams as u64;
        // (remaining stripes, latest arrival, the callback).
        let pending = Arc::new(Mutex::new((streams, SimTime::ZERO, Some(finish))));
        for k in 0..streams {
            let this_chunk = if k == streams - 1 {
                bytes - chunk * (streams as u64 - 1)
            } else {
                chunk
            };
            let ch = self.channel_stream(src, dst, k);
            let pending = Arc::clone(&pending);
            self.net_of(src).transfer_finish_then(
                s,
                ch,
                this_chunk + HEADER_BYTES,
                move |s2, arrival| {
                    let mut g = pending.lock();
                    g.0 -= 1;
                    g.1 = g.1.max(arrival);
                    if g.0 == 0 {
                        let finish = g.2.take().expect("stripe callback pending");
                        let last_arrival = g.1;
                        drop(g);
                        finish(s2, last_arrival);
                    }
                },
            );
        }
    }

    /// Start an eager transmission (sender does not block).
    pub fn eager_send(
        self: &Arc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    ) {
        let w = Arc::clone(self);
        if self.same_group(src, dst) {
            self.data_transfer(s, src, dst, bytes, move |s2| {
                w.deliver_eager(s2, src, dst, tag, bytes, msg_id)
            });
        } else {
            let cross = self.cross_fabric().clone();
            let (from, to) = (self.exec_group[src], self.exec_group[dst]);
            self.data_transfer_finish(s, src, dst, bytes, move |_s2, arrival| {
                cross.post(from, to, arrival, move |s3| {
                    w.deliver_eager(s3, src, dst, tag, bytes, msg_id)
                });
            });
        }
    }

    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    fn deliver_eager(&self, s: &Sched, src: usize, dst: usize, tag: u64, bytes: u64, msg_id: u64) {
        if self.rank_failed(dst, s.now()) {
            // The destination is dead: the message vanishes on its NIC
            // (buffered-send semantics — the sender completed long ago).
            self.emit_fault(s, dst, "msg_dropped", dst as u64, bytes as f64);
            return;
        }
        let mut m = self.matchers[dst].lock();
        if let Some(pos) = m
            .posted
            .iter()
            .position(|p| p.sel_src.is_none_or(|x| x == src) && p.sel_tag.is_none_or(|t| t == tag))
        {
            let pr = m.posted.remove(pos).expect("position valid");
            drop(m);
            pr.tx.fire_from(
                s,
                Ok(RecvDone {
                    info: MsgInfo {
                        src,
                        tag,
                        bytes,
                        msg_id,
                    },
                    copy: SimDuration::ZERO,
                }),
            );
        } else {
            m.unexpected.push_back(Unexpected::Eager {
                src,
                tag,
                bytes,
                msg_id,
            });
        }
    }

    /// Start a rendezvous transmission; the returned completion fires (for
    /// the sender) once the data has been delivered.
    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    pub fn rndv_send(
        self: &Arc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
    ) -> Completion<Result<(), MpiError>> {
        let (stx, srx) = completion();
        let ch = self.channel(src, dst);
        let w = Arc::clone(self);
        if self.same_group(src, dst) {
            self.net_of(src)
                .transfer_then(s, ch, CTRL_BYTES, move |s2| {
                    w.deliver_rndv_req(s2, src, dst, tag, bytes, msg_id, stx)
                });
        } else {
            let cross = self.cross_fabric().clone();
            let (from, to) = (self.exec_group[src], self.exec_group[dst]);
            self.net_of(src)
                .transfer_finish_then(s, ch, CTRL_BYTES, move |_s2, arrival| {
                    cross.post(from, to, arrival, move |s3| {
                        w.deliver_rndv_req(s3, src, dst, tag, bytes, msg_id, stx)
                    });
                });
        }
        srx
    }

    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    fn deliver_rndv_req(
        self: &Arc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
        sender_done: Trigger<Result<(), MpiError>>,
    ) {
        if self.rank_failed(dst, s.now()) {
            // The handshake request reached a dead receiver: the sender's
            // blocking send aborts with a typed error instead of hanging.
            self.emit_fault(s, dst, "msg_dropped", dst as u64, bytes as f64);
            if self.same_group(src, dst) {
                sender_done.fire_from(s, Err(MpiError::PeerFailed { rank: dst }));
            } else {
                // The abort notice rides the wire back to the sender's
                // group — one-way latency keeps the mail causally safe.
                let cross = self.cross_fabric().clone();
                let (from, to) = (self.exec_group[dst], self.exec_group[src]);
                let at = s.now() + self.one_way(dst, src);
                cross.post(from, to, at, move |s2| {
                    sender_done.fire_from(s2, Err(MpiError::PeerFailed { rank: dst }));
                });
            }
            return;
        }
        let mut m = self.matchers[dst].lock();
        if let Some(pos) = m
            .posted
            .iter()
            .position(|p| p.sel_src.is_none_or(|x| x == src) && p.sel_tag.is_none_or(|t| t == tag))
        {
            let pr = m.posted.remove(pos).expect("position valid");
            drop(m);
            self.rndv_matched(s, src, dst, tag, bytes, msg_id, sender_done, pr.tx);
        } else {
            m.unexpected.push_back(Unexpected::RndvReq {
                src,
                tag,
                bytes,
                msg_id,
                sender_done,
            });
        }
    }

    /// The receive matching a rendezvous request exists: send the
    /// acknowledgement back, then the bulk data.
    #[allow(clippy::too_many_arguments)] // protocol state, deliberately flat
    fn rndv_matched(
        self: &Arc<Self>,
        s: &Sched,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: u64,
        msg_id: u64,
        sender_done: Trigger<Result<(), MpiError>>,
        recv_tx: Trigger<Result<RecvDone, MpiError>>,
    ) {
        let ack_ch = self.channel(dst, src);
        let w = Arc::clone(self);
        if self.same_group(src, dst) {
            self.net_of(dst)
                .transfer_then(s, ack_ch, CTRL_BYTES, move |s2| {
                    let w2 = Arc::clone(&w);
                    w2.data_transfer(s2, src, dst, bytes, move |s3| {
                        recv_tx.fire_from(
                            s3,
                            Ok(RecvDone {
                                info: MsgInfo {
                                    src,
                                    tag,
                                    bytes,
                                    msg_id,
                                },
                                copy: SimDuration::ZERO,
                            }),
                        );
                        sender_done.fire_from(s3, Ok(()));
                    });
                });
        } else {
            // Cross-group rendezvous: the acknowledgement crosses back to
            // the sender's group, the bulk data leaves from there, and at
            // wire finish the two completions split — the sender's fires
            // locally at arrival, the receiver's crosses as mail stamped
            // with the arrival time.
            let cross = self.cross_fabric().clone();
            let (gd, gs) = (self.exec_group[dst], self.exec_group[src]);
            self.net_of(dst).transfer_finish_then(
                s,
                ack_ch,
                CTRL_BYTES,
                move |_s2, ack_arrival| {
                    cross.post(gd, gs, ack_arrival, move |s3| {
                        let cross_back = w.cross_fabric().clone();
                        let w2 = Arc::clone(&w);
                        w2.data_transfer_finish(s3, src, dst, bytes, move |s4, arrival| {
                            s4.call_at(arrival, move |s5| {
                                sender_done.fire_from(s5, Ok(()));
                            });
                            cross_back.post(gs, gd, arrival, move |s5| {
                                recv_tx.fire_from(
                                    s5,
                                    Ok(RecvDone {
                                        info: MsgInfo {
                                            src,
                                            tag,
                                            bytes,
                                            msg_id,
                                        },
                                        copy: SimDuration::ZERO,
                                    }),
                                );
                            });
                        });
                    });
                },
            );
        }
    }

    /// Post a receive for rank `me`. Returns [`Posted::Immediate`] if an
    /// unexpected eager message satisfies it on the spot, otherwise the
    /// pending completion (plus its id, for timeout cancellation).
    pub fn post_recv(
        self: &Arc<Self>,
        s: &Sched,
        me: usize,
        sel_src: Option<usize>,
        sel_tag: Option<u64>,
    ) -> Posted {
        let mut m = self.matchers[me].lock();
        if let Some(pos) = m
            .unexpected
            .iter()
            .position(|u| u.matches(sel_src, sel_tag))
        {
            let u = m.unexpected.remove(pos).expect("position valid");
            drop(m);
            match u {
                Unexpected::Eager {
                    src,
                    tag,
                    bytes,
                    msg_id,
                } => {
                    // Extra copy out of the temporary MPI buffer (Fig. 4).
                    let copy = SimDuration::from_secs_f64(bytes as f64 / self.profile.copy_rate);
                    Posted::Immediate(RecvDone {
                        info: MsgInfo {
                            src,
                            tag,
                            bytes,
                            msg_id,
                        },
                        copy,
                    })
                }
                Unexpected::RndvReq {
                    src,
                    tag,
                    bytes,
                    msg_id,
                    sender_done,
                } => {
                    let (rtx, rrx) = completion();
                    self.rndv_matched(s, src, me, tag, bytes, msg_id, sender_done, rtx);
                    Posted::Pending { id: None, rx: rrx }
                }
            }
        } else {
            let id = self.next_posted_id.fetch_add(1, Ordering::Relaxed);
            let (rtx, rrx) = completion();
            m.posted.push_back(PostedRecv {
                id,
                sel_src,
                sel_tag,
                tx: rtx,
            });
            Posted::Pending {
                id: Some(id),
                rx: rrx,
            }
        }
    }

    /// Abort posted receive `id` on rank `me` with a timeout error, if it
    /// is still pending. A receive that completed (and left the posted
    /// queue) in the meantime makes this a no-op — there is no race with a
    /// concurrent match because both paths remove the entry under the
    /// matcher lock.
    pub fn cancel_posted(&self, s: &Sched, me: usize, id: u64, waited: SimDuration) {
        let mut m = self.matchers[me].lock();
        let Some(pos) = m.posted.iter().position(|p| p.id == id) else {
            return;
        };
        let pr = m.posted.remove(pos).expect("position valid");
        drop(m);
        pr.tx
            .fire_from(s, Err(MpiError::Timeout { op: "recv", waited }));
    }

    /// True if `rank` is inside a failure window at `now`.
    ///
    /// The window is stored as `(at, until)` and checked against the
    /// *asking* rank's clock: under PDES another group may host-side
    /// observe the write before its own virtual clock reaches the kill
    /// time, so membership must be a pure function of virtual time.
    pub fn rank_failed(&self, rank: usize, now: SimTime) -> bool {
        self.failed[rank]
            .lock()
            .is_some_and(|(at, until)| at <= now && now < until)
    }

    /// Kill `rank` at the current instant, optionally restarting it at
    /// `until`. Models a fail-stop crash with a perfect failure detector:
    ///
    /// * the dead rank's own posted receives abort with
    ///   [`MpiError::SelfFailed`] (the program observes its death on its
    ///   next fallible call and can exit);
    /// * every other rank's posted receive that *selects* the dead rank as
    ///   its source aborts with [`MpiError::PeerFailed`] — wildcard
    ///   receives stay posted, since another sender may still satisfy
    ///   them;
    /// * rendezvous handshakes parked in the dead rank's unexpected queue
    ///   abort their senders' blocking sends;
    /// * in-flight and future messages addressed to the window are dropped
    ///   on delivery ([`Self::deliver_eager`] / [`Self::deliver_rndv_req`]).
    pub fn fail_rank(self: &Arc<Self>, s: &Sched, rank: usize, until: Option<SimTime>) {
        let until = until.unwrap_or(SimTime::MAX);
        *self.failed[rank].lock() = Some((s.now(), until));
        self.emit_fault(
            s,
            rank,
            "rank_fail",
            rank as u64,
            if until == SimTime::MAX {
                0.0
            } else {
                until.since(s.now()).as_secs_f64()
            },
        );
        // Drain the dead rank's own matcher.
        let (own_posted, own_unexpected) = {
            let mut m = self.matchers[rank].lock();
            let posted: Vec<PostedRecv> = m.posted.drain(..).collect();
            let unexpected: Vec<Unexpected> = m.unexpected.drain(..).collect();
            (posted, unexpected)
        };
        for pr in own_posted {
            pr.tx.fire_from(s, Err(MpiError::SelfFailed));
        }
        for u in own_unexpected {
            if let Unexpected::RndvReq {
                src, sender_done, ..
            } = u
            {
                if self.same_group(src, rank) {
                    sender_done.fire_from(s, Err(MpiError::PeerFailed { rank }));
                } else {
                    // The sender blocks in another group: the abort notice
                    // crosses as mail, delayed by one-way latency so it
                    // lands beyond the lookahead horizon.
                    let cross = self.cross_fabric().clone();
                    let (from, to) = (self.exec_group[rank], self.exec_group[src]);
                    let at = s.now() + self.one_way(rank, src);
                    cross.post(from, to, at, move |s2| {
                        sender_done.fire_from(s2, Err(MpiError::PeerFailed { rank }));
                    });
                }
            }
        }
        // Abort this group's source-selected receives on the dead rank;
        // other groups run the lite path at the same virtual instant.
        self.abort_selected_on(s, self.exec_group[rank], rank);
        if until != SimTime::MAX {
            let w = Arc::clone(self);
            s.call_at(until, move |s2| {
                w.emit_fault(s2, rank, "rank_restart", rank as u64, 0.0);
            });
        }
    }

    /// The non-owning-group half of a rank failure under PDES: every group
    /// schedules this at the same virtual instant the owning group runs
    /// [`Self::fail_rank`]. It writes the identical `(at, until)` window
    /// (idempotent) and aborts *this* group's source-selected receives on
    /// the dead rank; emission, matcher drain, and restart bookkeeping
    /// stay with the owning group.
    pub fn fail_rank_lite(
        self: &Arc<Self>,
        s: &Sched,
        group: usize,
        rank: usize,
        until: Option<SimTime>,
    ) {
        let until = until.unwrap_or(SimTime::MAX);
        *self.failed[rank].lock() = Some((s.now(), until));
        self.abort_selected_on(s, group, rank);
    }

    /// Abort posted receives that select `rank` as their source, restricted
    /// to receivers executing in `group` (wildcard receives stay posted —
    /// another sender may still satisfy them).
    fn abort_selected_on(&self, s: &Sched, group: usize, rank: usize) {
        for (r, matcher) in self.matchers.iter().enumerate() {
            if r == rank || self.exec_group[r] != group {
                continue;
            }
            let aborted: Vec<PostedRecv> = {
                let mut m = matcher.lock();
                let mut out = Vec::new();
                let mut keep = VecDeque::with_capacity(m.posted.len());
                for pr in m.posted.drain(..) {
                    if pr.sel_src == Some(rank) {
                        out.push(pr);
                    } else {
                        keep.push_back(pr);
                    }
                }
                m.posted = keep;
                out
            };
            for pr in aborted {
                pr.tx.fire_from(s, Err(MpiError::PeerFailed { rank }));
            }
        }
    }

    /// Forward a fault event to `rank`'s group's observability bus (no-op
    /// without a recorder; never touches the simulation).
    pub(crate) fn emit_fault(
        &self,
        s: &Sched,
        rank: usize,
        kind: &'static str,
        subject: u64,
        info: f64,
    ) {
        if let Some(rec) = self.obs_of(rank) {
            rec.record(&desim::obs::Event::Fault {
                kind,
                subject,
                t_ns: s.now().as_nanos(),
                info,
            });
        }
    }

    /// True if nothing is pending anywhere (used by tests to assert
    /// quiescence at the end of a run).
    pub fn quiescent(&self) -> bool {
        self.matchers.iter().all(|m| {
            let g = m.lock();
            g.unexpected.is_empty() && g.posted.is_empty()
        })
    }
}
