//! The benchmark's own tests, run at the reduced `Smoke` scale against a
//! reference recorded in the test: declared metrics are valid and emitted
//! by every workload, a wrong reference is caught, and a warm sweep
//! simulates nothing.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use desim::obs::json::{parse, Value};
use simbench::check::Reference;
use simbench::report::{valid_name, END_TO_END, PER_LAYER};
use simbench::workload::{self, Options, Outcome, Scale, Workload, EXCHANGE_VARIANTS};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("simbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test work dir");
    dir
}

fn smoke_reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        workload::record_reference(Scale::Smoke, &work_dir("record")).expect("record reference")
    })
}

fn run(workload: Workload, trace: bool, reference: &Reference) -> Outcome {
    let name = format!("{}-{}", workload.name(), u8::from(trace));
    let opts = Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        work_dir: work_dir(&name),
    };
    workload::run(&opts, reference).expect("workload runs")
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn declared(list: &Value) -> Vec<(String, String)> {
    let Value::Arr(items) = list else {
        panic!("metric list is not an array")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_are_valid_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = &std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = parse(text).expect("BENCHMARK.json parses");
    let as_pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let e2e = declared(spec.get("end_to_end").expect("end_to_end"));
    let layers = declared(spec.get("per_layer").expect("per_layer"));
    assert_eq!(e2e, as_pairs(END_TO_END));
    assert_eq!(layers, as_pairs(PER_LAYER));
    let mut seen = BTreeSet::new();
    for (name, _) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(seen.insert(name.clone()), "metric {name} declared twice");
    }
    let Some(Value::Arr(workloads)) = spec.get("workloads") else {
        panic!("workloads is not an array")
    };
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let reference = smoke_reference();
    for w in Workload::ALL {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let o = run(w, trace, reference);
            let got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(got, want, "{} trace {trace}", w.name());
            assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.failures);
            assert!(o.attempted > 0);
            assert!(o.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                for m in &o.metrics {
                    assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn wrong_reference_makes_fail_frac_nonzero() {
    let mut wrong = smoke_reference().clone();
    let (_, run_ref) = wrong
        .runs
        .iter_mut()
        .find(|(k, _)| k.starts_with("npb/") && k.contains("/LU."))
        .expect("an LU run");
    run_ref.finish_ns[0] += run_ref.finish_ns[0] / 1000;
    let cell = wrong.cells.values_mut().next().expect("a cell");
    cell.elapsed_ns += cell.elapsed_ns / 1000;
    for w in [Workload::MpiSmall, Workload::SweepCold] {
        let o = run(w, true, &wrong);
        assert!(o.failed > 0, "{} missed the wrong reference", w.name());
        assert!(value(&o, "fail_frac") > 0.0);
    }
    let mut wires = smoke_reference().clone();
    wires.runs.values_mut().for_each(|r| r.wire_bytes += 1);
    let o = run(Workload::NpbDense, false, &wires);
    assert_eq!(o.failed, o.attempted);
}

#[test]
fn warm_sweep_simulates_nothing() {
    let reference = smoke_reference();
    let warm = run(Workload::SweepWarm, true, reference);
    assert_eq!(value(&warm, "desim.kernel_runs"), 0.0);
    assert_eq!(value(&warm, "mpisim.runs"), 0.0);
    assert_eq!(value(&warm, "analysis.events_in"), 0.0);
    assert_eq!(value(&warm, "repro.hit_ratio"), 1.0);
    let cold = run(Workload::SweepCold, true, reference);
    assert!(value(&cold, "desim.kernel_runs") > 0.0);
    assert_eq!(value(&cold, "repro.cache_hits"), 0.0);
}

#[test]
fn seed_drives_only_the_exchange() {
    let keys = |w, seed| -> Vec<String> {
        workload::cases(w, seed, Scale::Full)
            .into_iter()
            .map(|c| c.key)
            .collect()
    };
    assert_eq!(keys(Workload::NpbDense, 1), keys(Workload::NpbDense, 2));
    let differ = (0..8).any(|s| keys(Workload::MpiSmall, s) != keys(Workload::MpiSmall, s + 1));
    assert!(differ, "the seed never changed the exchange");
}

#[test]
fn pinned_reference_covers_every_case() {
    let pinned = Reference::pinned();
    let mut want = BTreeSet::new();
    for w in [Workload::NpbDense, Workload::MpiSmall] {
        for seed in 0..(4 * EXCHANGE_VARIANTS) {
            want.extend(
                workload::cases(w, seed, Scale::Full)
                    .into_iter()
                    .map(|c| c.key),
            );
        }
    }
    for key in &want {
        assert!(pinned.runs.contains_key(key), "no reference for {key}");
    }
    assert_eq!(pinned.cells.len(), 117, "the quick spec has 117 cells");
}
