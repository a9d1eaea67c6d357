//! The declared metrics, order statistics, and the result line.

/// One measured metric: declared name, unit, value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declared name (see [`END_TO_END`] and [`PER_LAYER`]).
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_cpu_s", "s"),
    ("sweep_cpu_p50_ms", "ms"),
    ("sweep_cpu_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. Values
/// are averages over the traced passes, per pass for the simulated-run
/// workloads and per sweep for the sweep workloads.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("desim.events", "count"),
    ("desim.kernel_runs", "count"),
    ("desim.dispatch_s", "s"),
    ("desim.dispatch_self_s", "s"),
    ("desim.ns_per_event", "ns"),
    ("desim.dispatch_share", "ratio"),
    ("netsim.build_s", "s"),
    ("netsim.s", "s"),
    ("netsim.allocate_s", "s"),
    ("netsim.settle_s", "s"),
    ("netsim.round_s", "s"),
    ("netsim.finish_s", "s"),
    ("netsim.fastpath_s", "s"),
    ("netsim.share", "ratio"),
    ("netsim.flows", "count"),
    ("netsim.tcp_samples", "count"),
    ("mpisim.run_s", "s"),
    ("mpisim.job_setup_s", "s"),
    ("mpisim.job_collect_s", "s"),
    ("mpisim.wire_messages", "count"),
    ("mpisim.wire_bytes", "B"),
    ("mpisim.runs", "count"),
    ("mpisim.failed", "count"),
    ("analysis.s", "s"),
    ("analysis.events_in", "count"),
    ("repro.campaign_s", "s"),
    ("repro.cells", "count"),
    ("repro.cache_hits", "count"),
    ("repro.hit_ratio", "ratio"),
    ("repro.cell_busy_s", "s"),
    ("repro.runner_overhead_s", "s"),
    ("repro.par_idle_frac", "ratio"),
    ("repro.cache_bytes", "B"),
    ("repro.ledger_bytes", "B"),
    ("repro.ledger_read_s", "s"),
    ("other.s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("fail_frac", "ratio"),
];

/// Build the metric list for `table` from `(name, value)` pairs. Panics if
/// a declared name has no value or a value has no declared name: the two
/// lists must match exactly.
pub fn metrics(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("declared metric {name} has no value"))
                .1;
            Metric { name, unit, value }
        })
        .collect()
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values are written as 0 so the line
/// stays valid JSON.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_is_valid_json() {
        let m = metrics(&[("a.b", "s")], &[("a.b", 0.125)]);
        let line = result_line(true, 3, 0, &m);
        let v = desim::obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        assert!(line.contains("\"a.b\": {\"value\": 0.125, \"unit\": \"s\"}"));
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_name("netsim.round_s"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }
}
