//! Instruments of the traced run: spans the benchmark records around its
//! own calls into each layer, a counting recorder, and the mapping of the
//! program's sampled host-profiler rows onto layers.
//!
//! Nothing here reaches inside the program: spans wrap public calls,
//! the recorder and the profiler attach through `desim::Obs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use desim::obs::{Event, Recorder};

/// One recorded span: a named interval on the host clock, with the span
/// that was open when it started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`setup`, `netsim.build`, `mpisim.run`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span recorder, written out only when the benchmark ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// Empty recorder; time 0 is now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let span = Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without an open span");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The spans as JSON lines (`name`, `parent`, `start_ns`, `end_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// A recorder that only counts: kernel events and runs, flows, TCP
/// samples.
#[derive(Default)]
pub struct Counts {
    kernel_events: AtomicU64,
    kernel_runs: AtomicU64,
    flows: AtomicU64,
    tcp_samples: AtomicU64,
}

/// A snapshot of [`Counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CountSnapshot {
    /// Events the kernel dispatched (summed over `KernelRun` events).
    pub kernel_events: u64,
    /// Kernel runs completed.
    pub kernel_runs: u64,
    /// Transfers that started draining (`FlowStart`).
    pub flows: u64,
    /// Per-round TCP samples (`TcpSample`).
    pub tcp_samples: u64,
}

impl Counts {
    /// Current counts.
    pub fn snapshot(&self) -> CountSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CountSnapshot {
            kernel_events: get(&self.kernel_events),
            kernel_runs: get(&self.kernel_runs),
            flows: get(&self.flows),
            tcp_samples: get(&self.tcp_samples),
        }
    }
}

impl Recorder for Counts {
    fn record(&self, ev: &Event) {
        let add = |a: &AtomicU64, n: u64| a.fetch_add(n, Ordering::Relaxed);
        match ev {
            Event::KernelRun { events, .. } => {
                add(&self.kernel_events, *events);
                add(&self.kernel_runs, 1);
            }
            Event::FlowStart { .. } => {
                add(&self.flows, 1);
            }
            Event::TcpSample { .. } => {
                add(&self.tcp_samples, 1);
            }
            _ => {}
        }
    }
}

/// Host-profiler rows (`desim::HostProfiler::stacks`) folded onto layers,
/// in nanoseconds. The profiler samples its hot paths (1 in 31 kernel
/// events, 1 in 13 netsim handler calls) and extrapolates, so every
/// number here is an estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProfileLayers {
    /// `desim;` rows: kernel dispatch, including the netsim handlers and
    /// rank code it runs.
    pub dispatch: u64,
    /// `netsim;round_event`, `netsim;finish_event`, `netsim;fast_commit`:
    /// the netsim event handlers the kernel dispatches.
    pub netsim_handlers: u64,
    /// Other `netsim;` rows: settle, allocate and replay, called from the
    /// handlers or from rank code starting a transfer.
    pub netsim_inner: u64,
    /// `netsim;allocate`.
    pub allocate: u64,
    /// `netsim;settle` and its per-link split.
    pub settle: u64,
    /// `netsim;round_event` (all channels).
    pub round: u64,
    /// `netsim;finish_event`.
    pub finish: u64,
    /// `netsim;fast_commit` and `netsim;replay`.
    pub fastpath: u64,
    /// `mpisim;job;setup`.
    pub job_setup: u64,
    /// `mpisim;job;collect`.
    pub job_collect: u64,
    /// Rows under no known prefix, and `mpisim;` rows other than the job
    /// phases (`mpisim;job;run` is the parent of the dispatch rows).
    pub other: u64,
}

impl ProfileLayers {
    /// Fold `(stack, ns, count)` rows by prefix. Unknown rows land in
    /// `other` rather than failing, so new profiler rows never break the
    /// benchmark.
    pub fn from_rows(rows: &[(String, u64, u64)]) -> ProfileLayers {
        let mut l = ProfileLayers::default();
        for (stack, ns, _) in rows {
            let ns = *ns;
            let s = stack.as_str();
            if s.starts_with("desim;") {
                l.dispatch += ns;
            } else if let Some(rest) = s.strip_prefix("netsim;") {
                let frame = rest.split(';').next().unwrap_or("");
                match frame {
                    "round_event" => {
                        l.round += ns;
                        l.netsim_handlers += ns;
                    }
                    "finish_event" => {
                        l.finish += ns;
                        l.netsim_handlers += ns;
                    }
                    "fast_commit" => {
                        l.fastpath += ns;
                        l.netsim_handlers += ns;
                    }
                    _ => {
                        match frame {
                            "replay" => l.fastpath += ns,
                            "allocate" => l.allocate += ns,
                            "settle" => l.settle += ns,
                            _ => {}
                        }
                        l.netsim_inner += ns;
                    }
                }
            } else if s == "mpisim;job;setup" {
                l.job_setup += ns;
            } else if s == "mpisim;job;collect" {
                l.job_collect += ns;
            } else if s != "mpisim;job;run" {
                l.other += ns;
            }
        }
        l
    }

    /// The netsim layer's time. Handler rows and inner rows overlap: an
    /// inner call made from a handler is inside the handler's time. The
    /// inner rows are taken to nest in the handlers as far as handler
    /// time reaches, and the rest to run outside any handler — the
    /// smallest union the two row sums allow.
    pub fn netsim(&self) -> u64 {
        self.netsim_handlers.max(self.netsim_inner)
    }

    /// Kernel dispatch minus the netsim time nested in it.
    pub fn dispatch_self(&self) -> u64 {
        self.dispatch - self.netsim().min(self.dispatch)
    }

    /// Summed self time of every layer the rows name.
    pub fn self_total(&self) -> u64 {
        self.dispatch_self() + self.netsim() + self.job_setup + self.job_collect + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_map_by_prefix_and_unknown_rows_go_to_other() {
        let rows: Vec<(String, u64, u64)> = [
            ("desim;dispatch;call", 100),
            ("desim;dispatch;task_poll", 50),
            ("netsim;round_event;wan:a->b", 60),
            ("netsim;allocate", 40),
            ("netsim;settle;site:a", 10),
            ("netsim;settle", 5),
            ("mpisim;job;run", 170),
            ("mpisim;job;setup", 3),
            ("mpisim;new_phase", 2),
            ("analysis;from_events", 7),
        ]
        .iter()
        .map(|(s, ns)| (s.to_string(), *ns, 1))
        .collect();
        let l = ProfileLayers::from_rows(&rows);
        assert_eq!(l.dispatch, 150);
        assert_eq!(l.round, 60);
        assert_eq!(l.settle, 15);
        assert_eq!(l.netsim_inner, 55);
        assert_eq!(l.netsim(), 60);
        assert_eq!(l.dispatch_self(), 90);
        assert_eq!(l.other, 9);
        assert_eq!(l.self_total(), 90 + 60 + 3 + 9);
    }
}
