//! The event queue, run token, and simulation driver.
//!
//! ## Execution model
//!
//! Every simulated process is an OS thread, but at most one of them is ever
//! *logically running*: a thread only executes between the moment the
//! scheduler hands it the run token (by popping its `Wake` event) and the
//! moment it blocks again (by calling back into the kernel). The scheduler
//! itself has no dedicated thread — whichever thread is about to block pops
//! the next event and hands the token over. Events are ordered by
//! `(virtual time, insertion sequence)` so the execution order is a pure
//! function of the simulated program.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::Instant;

use crate::sync::{Condvar, Mutex};

use crate::exec::TaskId;
use crate::process::{Proc, ProcId};
use crate::time::{SimDuration, SimTime};

/// Errors surfaced by [`Sim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A simulated process panicked; contains the panic message of the first
    /// process that failed.
    ProcessPanicked(String),
    /// The event queue drained while processes were still blocked — the
    /// simulated program deadlocked. Contains the names of blocked processes.
    Deadlock(Vec<String>),
    /// Virtual time passed the limit given to [`Sim::run_until`] before all
    /// processes finished — the simulated program timed out.
    TimeLimitExceeded(SimTime),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked(m) => write!(f, "simulated process panicked: {m}"),
            SimError::Deadlock(names) => {
                write!(f, "simulation deadlock; blocked processes: {names:?}")
            }
            SimError::TimeLimitExceeded(t) => {
                write!(f, "simulation exceeded its virtual time limit at {t}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of one bounded dispatch window (see [`Sim::run_window`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Every process and task finished and the event queue drained.
    Done(RunStats),
    /// The next event lies at or beyond the horizon; contains its time.
    Paused(SimTime),
    /// The event queue drained while processes or tasks are still blocked.
    /// Not a deadlock verdict: a blocked shard may be waiting on cross-shard
    /// mail that another shard has yet to send. The sharded driver declares
    /// a global deadlock only when *every* shard is idle.
    Idle,
}

/// A scheduling capability handed to kernel callbacks, and obtainable from
/// any [`Proc`] via [`Proc::sched`]. It can read the clock, schedule further
/// callbacks and fire [`crate::Trigger`]s, but cannot block. Cloning is
/// cheap (a reference-count bump).
#[derive(Clone)]
pub struct Sched {
    pub(crate) inner: Arc<Inner>,
}

impl Sched {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.shared.lock().now
    }

    /// Schedule `f` to run at virtual time `at` (clamped to now if in the
    /// past). The callback runs on whichever thread holds the run token.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce(&Sched) + Send + 'static) {
        let mut g = self.inner.shared.lock();
        let at = at.max(g.now);
        g.push(at, EventKind::Call(Box::new(f)));
    }

    /// Schedule `f` to run `after` from now.
    pub fn call_after(&self, after: SimDuration, f: impl FnOnce(&Sched) + Send + 'static) {
        let mut g = self.inner.shared.lock();
        let at = g.now + after;
        g.push(at, EventKind::Call(Box::new(f)));
    }

    pub(crate) fn wake_at(&self, at: SimTime, pid: ProcId) {
        let mut g = self.inner.shared.lock();
        let at = at.max(g.now);
        g.push(at, EventKind::Wake(pid));
    }

    pub(crate) fn wake_task_at(&self, at: SimTime, tid: TaskId) {
        let mut g = self.inner.shared.lock();
        let at = at.max(g.now);
        g.push(at, EventKind::TaskWake(tid));
    }
}

pub(crate) enum EventKind {
    Wake(ProcId),
    TaskWake(TaskId),
    Call(Box<dyn FnOnce(&Sched) + Send>),
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One parked/runnable gate per process thread.
pub(crate) struct Gate {
    runnable: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            runnable: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn park(&self) {
        let mut g = self.runnable.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }

    pub(crate) fn unpark(&self) {
        let mut g = self.runnable.lock();
        // A gate carries exactly one signal: every blocked entity has exactly
        // one pending wake-up. Signalling an already-runnable gate means two
        // wake events were scheduled for the same park — a lost-wakeup bug
        // that would otherwise silently desynchronise the run token.
        debug_assert!(
            !*g,
            "gate signalled twice: the target was already runnable (double wake)"
        );
        *g = true;
        self.cv.notify_one();
    }
}

pub(crate) struct ProcSlot {
    pub(crate) id: ProcId,
    pub(crate) name: String,
    pub(crate) gate: Gate,
    /// True while the process is blocked inside the kernel (used for
    /// deadlock diagnostics).
    pub(crate) blocked: Mutex<bool>,
}

/// A pooled continuation task: a stackless state machine driven inline by
/// whichever thread holds the run token. `fut` is `None` while the task is
/// being polled and after it completes.
pub(crate) struct TaskSlot {
    pub(crate) name: Arc<str>,
    pub(crate) fut: Option<Pin<Box<dyn Future<Output = ()> + Send>>>,
}

pub(crate) struct Shared {
    heap: BinaryHeap<Reverse<Event>>,
    pub(crate) now: SimTime,
    seq: u64,
    pub(crate) live: usize,
    pub(crate) procs: Vec<Arc<ProcSlot>>,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Continuation tasks spawned but not yet completed.
    pub(crate) task_live: usize,
    pub(crate) failure: Option<SimError>,
    pub(crate) limit: SimTime,
    /// True once this sim is driven through [`Sim::run_window`]: the
    /// dispatch loop then pauses at `horizon` instead of failing, and an
    /// empty queue with live processes is a window boundary, not a
    /// deadlock. Never set on the classic [`Sim::run`] path.
    windowed: bool,
    /// Exclusive upper bound on event times the current window may run.
    horizon: SimTime,
    /// Events dispatched so far (wakes and callbacks), for throughput
    /// reporting via [`Sim::run_counted`].
    pub(crate) events: u64,
    /// Observability sink; a completed run reports itself here.
    pub(crate) recorder: Option<Arc<dyn crate::obs::Recorder>>,
    /// Host-time self-profiler with its pre-interned dispatch-loop keys.
    pub(crate) profiler: Option<KernelProf>,
}

/// The dispatch loop samples one event in this many for host-time
/// profiling and extrapolates (weight-scaled) instead of timing every
/// event: two clock reads per event would cost a double-digit share of
/// the ~100ns fast-path dispatch cycle, busting the profiler's own ≤5%
/// overhead gate. The selector is the deterministic dispatch counter,
/// so sampling cannot perturb the simulation.
///
/// Sized for hosts where a clock read costs ~40 ns (paravirtual
/// clocksources): two reads per sampled event amortize to ~3 ns per
/// dispatched event, a single-digit share of the ~100 ns cycle. Prime
/// so a repeating event-kind pattern (ping/pong alternation has period
/// 2, TCP rounds often 4) can never alias with the stride and starve a
/// kind of samples.
pub(crate) const PROF_SAMPLE: u64 = 31;

/// The kernel's handle on an attached [`crate::obs::HostProfiler`]: keys
/// are interned once at attach time so the dispatch loop pays one
/// `Instant` pair and one indexed add per *sampled* event, nothing more.
#[derive(Clone)]
pub(crate) struct KernelProf {
    pub(crate) prof: Arc<crate::obs::HostProfiler>,
    /// Run-token handoff to a thread-backed process (condvar unpark).
    pub(crate) wake: crate::obs::ProfKey,
    /// Inline poll of a pooled continuation task.
    pub(crate) task_poll: crate::obs::ProfKey,
    /// A kernel callback (timer/flow events scheduled via `call_at`).
    pub(crate) call: crate::obs::ProfKey,
}

impl Shared {
    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }
}

pub(crate) struct Inner {
    pub(crate) shared: Mutex<Shared>,
    main_gate: Gate,
}

/// A simulation instance: spawn processes, then [`Sim::run`] to completion.
pub struct Sim {
    inner: Arc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Sim {
        Sim {
            inner: Arc::new(Inner {
                shared: Mutex::new(Shared {
                    heap: BinaryHeap::new(),
                    now: SimTime::ZERO,
                    seq: 0,
                    live: 0,
                    procs: Vec::new(),
                    tasks: Vec::new(),
                    task_live: 0,
                    failure: None,
                    limit: SimTime::MAX,
                    windowed: false,
                    horizon: SimTime::MAX,
                    events: 0,
                    recorder: None,
                    profiler: None,
                }),
                main_gate: Gate::new(),
            }),
        }
    }

    /// Spawn a simulated process. The body runs in blocking style on its own
    /// thread; it becomes runnable at the current virtual time. Processes may
    /// spawn further processes via [`Proc::spawn`].
    pub fn spawn<F>(&self, name: impl Into<String>, body: F) -> ProcId
    where
        F: FnOnce(Proc) + Send + 'static,
    {
        spawn_process(&self.inner, name.into(), body)
    }

    /// Spawn a pooled continuation task. `f` receives this task's
    /// [`crate::Cx`] and returns the task body as a future; the body runs as
    /// a stackless state machine polled inline by whichever thread holds the
    /// run token, so a blocked task occupies no OS thread. It becomes
    /// runnable at the current virtual time, exactly like [`Sim::spawn`].
    ///
    /// The body may suspend only through its `Cx` (see
    /// [`crate::exec`] for the blocking-point contract).
    pub fn spawn_task<F, Fut>(&self, name: impl Into<String>, f: F) -> TaskId
    where
        F: FnOnce(crate::exec::Cx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        spawn_task(&self.inner, name.into(), f)
    }

    /// Like [`Sim::run`], but fail with [`SimError::TimeLimitExceeded`] if
    /// virtual time passes `limit` before the processes finish. As with a
    /// deadlock, the still-blocked process threads are leaked by design —
    /// the simulation is abandoned, not unwound.
    pub fn run_until(self, limit: SimTime) -> Result<SimTime, SimError> {
        self.inner.shared.lock().limit = limit;
        self.run()
    }

    /// Run the simulation until every process has finished. Returns the final
    /// virtual time, or the first failure (process panic or deadlock).
    pub fn run(self) -> Result<SimTime, SimError> {
        self.run_counted().map(|s| s.end)
    }

    /// Attach observability per the given [`crate::obs::Obs`] config:
    /// the recorder (a completed run emits one
    /// [`crate::obs::Event::KernelRun`] with its final virtual time and
    /// dispatch count; recording happens host-side after the run ends, so
    /// it cannot perturb the event order or virtual timestamps) and the
    /// host-time self-profiler (the dispatch loop attributes its
    /// wall-clock time to `desim;dispatch;{wake,task_poll,call}` stacks,
    /// sampling one event in [`PROF_SAMPLE`] and extrapolating so the
    /// clock reads stay far below the loop's own per-event cost; the
    /// own-wake fast path stays uninstrumented by design — it is the
    /// `advance()` hot path). Fields left `None` leave the corresponding
    /// attachment untouched.
    pub fn attach_obs(&self, obs: &crate::obs::Obs) {
        if let Some(rec) = &obs.recorder {
            self.inner.shared.lock().recorder = Some(Arc::clone(rec));
        }
        if let Some(prof) = &obs.profiler {
            let keys = KernelProf {
                wake: prof.intern("desim;dispatch;wake"),
                task_poll: prof.intern("desim;dispatch;task_poll"),
                call: prof.intern("desim;dispatch;call"),
                prof: Arc::clone(prof),
            };
            self.inner.shared.lock().profiler = Some(keys);
        }
    }

    /// Like [`Sim::run`], but also report how many events were dispatched —
    /// the denominator of the kernel's events-per-second throughput.
    pub fn run_counted(self) -> Result<RunStats, SimError> {
        let done = {
            let g = self.inner.shared.lock();
            if g.live == 0 && g.task_live == 0 && g.heap.is_empty() {
                Some((
                    RunStats {
                        end: g.now,
                        events: g.events,
                    },
                    g.recorder.clone(),
                ))
            } else {
                None
            }
        };
        let (stats, recorder) = match done {
            Some(pair) => pair,
            None => {
                dispatch(&self.inner, None, None);
                self.inner.main_gate.park();
                let g = self.inner.shared.lock();
                match &g.failure {
                    Some(e) => return Err(e.clone()),
                    None => (
                        RunStats {
                            end: g.now,
                            events: g.events,
                        },
                        g.recorder.clone(),
                    ),
                }
            }
        };
        if let Some(rec) = recorder {
            rec.record(&crate::obs::Event::KernelRun {
                end_ns: stats.end.as_nanos(),
                events: stats.events,
            });
        }
        Ok(stats)
    }

    /// Run one bounded dispatch window: execute events strictly below
    /// `horizon`, then report how the window ended. Unlike [`Sim::run`]
    /// this does not consume the sim — the conservative-PDES driver
    /// ([`crate::shard::ShardedSim`]) calls it repeatedly, widening the
    /// horizon by the lookahead each round. A windowed sim keeps running
    /// trailing kernel callbacks after its last process finishes (they may
    /// post cross-shard mail); [`Window::Done`] therefore requires the
    /// queue to be fully drained, and a `Done` shard is revived by a later
    /// [`Sim::post_at`].
    pub fn run_window(&self, horizon: SimTime) -> Result<Window, SimError> {
        {
            let mut g = self.inner.shared.lock();
            g.windowed = true;
            g.horizon = horizon;
            if let Some(e) = &g.failure {
                return Err(e.clone());
            }
            // Nothing runnable below the horizon: report without the
            // dispatch/park round trip (dispatch would do the same, but
            // this keeps empty windows cheap — they are the common case
            // for shards waiting on a distant neighbor).
            match g.heap.peek() {
                Some(Reverse(ev)) if ev.time < horizon => {}
                _ => return Ok(classify(&g)),
            }
        }
        dispatch(&self.inner, None, None);
        self.inner.main_gate.park();
        let g = self.inner.shared.lock();
        if let Some(e) = &g.failure {
            return Err(e.clone());
        }
        Ok(classify(&g))
    }

    /// Schedule `f` at virtual time `at` from *outside* the run token —
    /// the cross-shard mail delivery hook. The conservative horizon
    /// guarantees `at` is never in this shard's past (debug-asserted).
    pub fn post_at(&self, at: SimTime, f: impl FnOnce(&Sched) + Send + 'static) {
        let mut g = self.inner.shared.lock();
        debug_assert!(
            at >= g.now,
            "cross-shard post into this shard's past ({at} < {})",
            g.now
        );
        let at = at.max(g.now);
        g.push(at, EventKind::Call(Box::new(f)));
    }

    /// Time of the earliest pending event, if any. Between windows this is
    /// the shard's bid for the next global horizon.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.inner
            .shared
            .lock()
            .heap
            .peek()
            .map(|Reverse(ev)| ev.time)
    }

    /// True while any process or task has not finished.
    pub fn anything_live(&self) -> bool {
        let g = self.inner.shared.lock();
        g.live > 0 || g.task_live > 0
    }

    /// Names of currently blocked processes and suspended tasks, for the
    /// sharded driver's global-deadlock diagnostic.
    pub fn blocked_names(&self) -> Vec<String> {
        let g = self.inner.shared.lock();
        let mut names: Vec<String> = g
            .procs
            .iter()
            .filter(|s| *s.blocked.lock())
            .map(|s| s.name.clone())
            .collect();
        names.extend(
            g.tasks
                .iter()
                .filter(|t| t.fut.is_some())
                .map(|t| t.name.to_string()),
        );
        names
    }

    /// Current virtual time and dispatch count, without ending the run.
    pub fn stats(&self) -> RunStats {
        let g = self.inner.shared.lock();
        RunStats {
            end: g.now,
            events: g.events,
        }
    }
}

/// Classify a quiescent (between-windows) shared state into a [`Window`].
fn classify(g: &Shared) -> Window {
    match g.heap.peek() {
        Some(Reverse(ev)) => Window::Paused(ev.time),
        None if g.live == 0 && g.task_live == 0 => Window::Done(RunStats {
            end: g.now,
            events: g.events,
        }),
        None => Window::Idle,
    }
}

/// Outcome of a completed run: final virtual time and event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Final virtual time.
    pub end: SimTime,
    /// Total events dispatched (process wakes plus kernel callbacks).
    pub events: u64,
}

pub(crate) fn spawn_process<F>(inner: &Arc<Inner>, name: String, body: F) -> ProcId
where
    F: FnOnce(Proc) + Send + 'static,
{
    let slot = {
        let mut g = inner.shared.lock();
        let id = ProcId(g.procs.len());
        let slot = Arc::new(ProcSlot {
            id,
            name: name.clone(),
            gate: Gate::new(),
            blocked: Mutex::new(true),
        });
        g.procs.push(Arc::clone(&slot));
        g.live += 1;
        let now = g.now;
        g.push(now, EventKind::Wake(id));
        slot
    };
    let id = slot.id;
    let inner2 = Arc::clone(inner);
    thread::Builder::new()
        .name(format!("sim:{name}"))
        .spawn(move || {
            slot.gate.park();
            *slot.blocked.lock() = false;
            let p = Proc::new(Arc::clone(&inner2), Arc::clone(&slot));
            let result = catch_unwind(AssertUnwindSafe(move || body(p)));
            let guard = {
                let mut g = inner2.shared.lock();
                g.live -= 1;
                if let Err(payload) = result {
                    let msg = panic_message(payload);
                    if g.failure.is_none() {
                        g.failure = Some(SimError::ProcessPanicked(msg));
                    }
                    // Fail fast: drop all pending work so the driver returns.
                    g.heap.clear();
                }
                g
            };
            dispatch(&inner2, None, Some(guard));
        })
        .expect("failed to spawn simulation thread");
    id
}

/// Register a continuation task: allocate its slot and push its first wake
/// *before* constructing the body, so the task's initial wake occupies the
/// same event-queue position a thread-backed process's would — the spawn
/// sequence is engine-independent. Safe against the wake being dispatched
/// before the future is stored: dispatching requires the run token, which
/// the spawning context holds (or, before [`Sim::run`], nobody does).
pub(crate) fn spawn_task<F, Fut>(inner: &Arc<Inner>, name: String, f: F) -> TaskId
where
    F: FnOnce(crate::exec::Cx) -> Fut,
    Fut: Future<Output = ()> + Send + 'static,
{
    let name: Arc<str> = name.into();
    let id = {
        let mut g = inner.shared.lock();
        let id = TaskId(g.tasks.len());
        g.tasks.push(TaskSlot {
            name: Arc::clone(&name),
            fut: None,
        });
        g.task_live += 1;
        let now = g.now;
        g.push(now, EventKind::TaskWake(id));
        id
    };
    let cx = crate::exec::Cx::for_task(Arc::clone(inner), id, name);
    let fut = f(cx);
    inner.shared.lock().tasks[id.0].fut = Some(Box::pin(fut));
    id
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Hand the run token to the owner of the next event. If `me` is given, the
/// calling thread parks afterwards and the function returns once the token
/// comes back to `me`; with `me = None` the caller exits the scheduler after
/// handing off (used by finished processes and the driver).
pub(crate) fn dispatch(
    inner: &Arc<Inner>,
    me: Option<&Arc<ProcSlot>>,
    pre_locked: Option<crate::sync::MutexGuard<'_, Shared>>,
) {
    let mut guard = match pre_locked {
        Some(g) => g,
        None => inner.shared.lock(),
    };
    if let Some(slot) = me {
        // Fast path: the next event is this thread's own wake (the common
        // `advance()` shape). Take the token straight back without the
        // park/unpark handshake or the blocked-flag round trips.
        if guard.live > 0 {
            if let Some(Reverse(ev)) = guard.heap.peek() {
                if ev.time <= guard.limit && (!guard.windowed || ev.time < guard.horizon) {
                    if let EventKind::Wake(pid) = ev.kind {
                        if pid == slot.id {
                            let Some(Reverse(ev)) = guard.heap.pop() else {
                                unreachable!("peeked event vanished")
                            };
                            guard.now = guard.now.max(ev.time);
                            guard.events += 1;
                            return;
                        }
                    }
                }
            }
        }
        *slot.blocked.lock() = true;
    }
    // Snapshot the profiler handle once per dispatch entry: it is
    // immutable for the whole run, and re-cloning the Arc per event
    // while holding the shared lock was measurable on the hot path.
    let prof = guard.profiler.clone();
    loop {
        if guard.live == 0 && guard.task_live == 0 && !guard.windowed {
            // All processes and tasks done: ignore any trailing
            // timer/callback events (e.g. pending TCP window rounds) and end
            // the simulation. A windowed shard instead keeps draining those
            // callbacks — they may carry cross-shard mail.
            drop(guard);
            inner.main_gate.unpark();
            break;
        }
        if guard.windowed
            && guard
                .heap
                .peek()
                .is_some_and(|Reverse(ev)| ev.time >= guard.horizon)
        {
            // Window boundary: hand control back to the sharded driver.
            drop(guard);
            inner.main_gate.unpark();
            break;
        }
        if guard
            .heap
            .peek()
            .is_some_and(|Reverse(ev)| ev.time > guard.limit)
        {
            if guard.failure.is_none() {
                guard.failure = Some(SimError::TimeLimitExceeded(guard.limit));
            }
            drop(guard);
            inner.main_gate.unpark();
            break;
        }
        match guard.heap.pop() {
            Some(Reverse(ev)) => {
                debug_assert!(ev.time >= guard.now, "event queue went backwards");
                guard.now = guard.now.max(ev.time);
                guard.events += 1;
                match ev.kind {
                    EventKind::Wake(pid) => {
                        if me.is_some_and(|s| s.id == pid) {
                            // Token returns to the caller immediately.
                            let slot = me.unwrap();
                            *slot.blocked.lock() = false;
                            return;
                        }
                        // Only the handoff itself (condvar signal) is
                        // attributable here: the woken thread runs
                        // application code outside the dispatch loop.
                        let sample = prof.as_ref().filter(|_| guard.events % PROF_SAMPLE == 0);
                        let target = Arc::clone(&guard.procs[pid.0]);
                        drop(guard);
                        let t0 = sample.map(|_| Instant::now());
                        target.gate.unpark();
                        if let (Some(p), Some(t0)) = (sample, t0) {
                            p.prof.add_ns_sampled(
                                p.wake,
                                t0.elapsed().as_nanos() as u64,
                                PROF_SAMPLE,
                            );
                        }
                        break;
                    }
                    EventKind::TaskWake(tid) => {
                        // Poll the task inline on this thread — the pooled
                        // engine's ready path: no park/unpark, no context
                        // switch. The future is taken out of its slot for
                        // the duration of the poll so the task body can lock
                        // `shared` (to push events) without aliasing it.
                        let mut fut = guard.tasks[tid.0]
                            .fut
                            .take()
                            .expect("task woken while running or after completion (double wake)");
                        let sample = prof.as_ref().filter(|_| guard.events % PROF_SAMPLE == 0);
                        drop(guard);
                        let t0 = sample.map(|_| Instant::now());
                        let poll = catch_unwind(AssertUnwindSafe(|| {
                            fut.as_mut().poll(&mut Context::from_waker(Waker::noop()))
                        }));
                        if let (Some(p), Some(t0)) = (sample, t0) {
                            p.prof.add_ns_sampled(
                                p.task_poll,
                                t0.elapsed().as_nanos() as u64,
                                PROF_SAMPLE,
                            );
                        }
                        guard = inner.shared.lock();
                        match poll {
                            Ok(Poll::Pending) => {
                                // Suspended at a blocking point; its wake-up
                                // (timer event or completion subscription) is
                                // already registered.
                                guard.tasks[tid.0].fut = Some(fut);
                            }
                            Ok(Poll::Ready(())) => {
                                guard.task_live -= 1;
                            }
                            Err(payload) => {
                                guard.task_live -= 1;
                                let msg = panic_message(payload);
                                if guard.failure.is_none() {
                                    guard.failure = Some(SimError::ProcessPanicked(msg));
                                }
                                // Fail fast, as with a thread-backed panic.
                                guard.heap.clear();
                            }
                        }
                    }
                    EventKind::Call(f) => {
                        let sample = prof.as_ref().filter(|_| guard.events % PROF_SAMPLE == 0);
                        drop(guard);
                        let t0 = sample.map(|_| Instant::now());
                        f(&Sched {
                            inner: Arc::clone(inner),
                        });
                        if let (Some(p), Some(t0)) = (sample, t0) {
                            p.prof.add_ns_sampled(
                                p.call,
                                t0.elapsed().as_nanos() as u64,
                                PROF_SAMPLE,
                            );
                        }
                        guard = inner.shared.lock();
                    }
                }
            }
            None => {
                if guard.windowed {
                    // An empty queue is not a verdict here: the shard may be
                    // waiting on cross-shard mail. The driver decides.
                    drop(guard);
                    inner.main_gate.unpark();
                    break;
                }
                if (guard.live > 0 || guard.task_live > 0) && guard.failure.is_none() {
                    let mut blocked: Vec<String> = guard
                        .procs
                        .iter()
                        .filter(|s| *s.blocked.lock())
                        .map(|s| s.name.clone())
                        .collect();
                    // Every live task with a stored future is suspended at a
                    // blocking point whose wake-up never arrived.
                    blocked.extend(
                        guard
                            .tasks
                            .iter()
                            .filter(|t| t.fut.is_some())
                            .map(|t| t.name.to_string()),
                    );
                    guard.failure = Some(SimError::Deadlock(blocked));
                }
                drop(guard);
                inner.main_gate.unpark();
                // A deadlocked caller parks forever; its thread is leaked by
                // design (the driver has already reported the failure).
                break;
            }
        }
    }
    if let Some(slot) = me {
        slot.gate.park();
        *slot.blocked.lock() = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn single_process_advances_clock() {
        let sim = Sim::new();
        sim.spawn("p", |p| {
            p.advance(SimDuration::from_millis(10));
            p.advance(SimDuration::from_millis(5));
        });
        assert_eq!(sim.run().unwrap().as_millis(), 15);
    }

    #[test]
    fn process_panic_is_reported() {
        let sim = Sim::new();
        sim.spawn("bad", |p| {
            p.advance(SimDuration::from_millis(1));
            panic!("boom with context");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked(m)) => assert!(m.contains("boom")),
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        let (_tx, rx) = crate::completion::<()>();
        sim.spawn("stuck", move |p| {
            rx.wait(&p);
        });
        match sim.run() {
            Err(SimError::Deadlock(names)) => assert_eq!(names, vec!["stuck".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn interleaving_is_time_ordered() {
        use std::sync::Mutex as StdMutex;
        let log = Arc::new(StdMutex::new(Vec::new()));
        let sim = Sim::new();
        for (name, step_ms) in [("a", 3u64), ("b", 5u64), ("c", 7u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |p| {
                for _ in 0..4 {
                    p.advance(SimDuration::from_millis(step_ms));
                    log.lock().unwrap().push((p.now().as_millis(), name));
                }
            });
        }
        sim.run().unwrap();
        let log = log.lock().unwrap();
        let times: Vec<u64> = log.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "events must be observed in time order");
        assert_eq!(log.len(), 12);
    }

    #[test]
    fn call_at_runs_between_processes() {
        let sim = Sim::new();
        let (tx, rx) = crate::completion::<u64>();
        sim.spawn("waiter", move |p| {
            p.sched().call_after(SimDuration::from_millis(2), move |s| {
                tx.fire_from(s, s.now().as_millis());
            });
            let v = rx.wait(&p);
            assert_eq!(v, 2);
        });
        sim.run().unwrap();
    }

    #[test]
    fn spawn_from_process() {
        let sim = Sim::new();
        sim.spawn("parent", |p| {
            let (tx, rx) = crate::completion::<u32>();
            p.spawn("child", move |c| {
                c.advance(SimDuration::from_millis(4));
                tx.fire(&c, 7);
            });
            assert_eq!(rx.wait(&p), 7);
            assert_eq!(p.now().as_millis(), 4);
        });
        sim.run().unwrap();
    }

    #[test]
    fn run_until_reports_time_limit() {
        let sim = Sim::new();
        sim.spawn("slow", |p| {
            p.advance(SimDuration::from_secs(100));
        });
        match sim.run_until(SimTime::from_nanos(1_000_000)) {
            Err(SimError::TimeLimitExceeded(t)) => assert_eq!(t.as_micros(), 1_000),
            other => panic!("expected time limit, got {other:?}"),
        }
    }

    #[test]
    fn run_until_is_inert_for_fast_runs() {
        let sim = Sim::new();
        sim.spawn("fast", |p| {
            p.advance(SimDuration::from_millis(1));
        });
        let end = sim
            .run_until(SimTime::from_nanos(1_000_000_000))
            .expect("finishes before the limit");
        assert_eq!(end.as_millis(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn gate_double_signal_panics() {
        let gate = Gate::new();
        gate.unpark();
        // A second signal before the target parks is a double wake; the
        // debug assert must turn it into a panic instead of silently
        // coalescing the two wake-ups.
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| gate.unpark()));
        assert!(err.is_err(), "double unpark must panic in debug builds");
    }

    #[test]
    fn determinism_same_trace_twice() {
        fn trace() -> Vec<(u64, usize)> {
            let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
            let sim = Sim::new();
            for i in 0..8usize {
                let log = Arc::clone(&log);
                sim.spawn(format!("p{i}"), move |p| {
                    for k in 0..16u64 {
                        p.advance(SimDuration::from_nanos((i as u64 + 1) * 37 + k));
                        log.lock().push((p.now().as_nanos(), i));
                    }
                });
            }
            sim.run().unwrap();
            let v = log.lock().clone();
            v
        }
        assert_eq!(trace(), trace());
    }
}
