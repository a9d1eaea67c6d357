//! `simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--spans FILE]` and `simbench --record-reference FILE`.

use std::path::PathBuf;
use std::process::ExitCode;

use simbench::check::Reference;
use simbench::report::result_line;
use simbench::workload::{self, Options, Scale, Workload};

const USAGE: &str = "usage: simbench --workload npb_dense|mpi_small|sweep_cold|sweep_warm \
[--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n       simbench --record-reference FILE";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans: None,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a finite number ≥ 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--record-reference" => a.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_none() && a.record.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// A scratch directory under `.simbench/` in the working directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".simbench").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.simbench` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".simbench");
    }
}

fn record(path: &PathBuf) -> Result<(), String> {
    let dir = WorkDir::create("record")?;
    let reference = workload::record_reference(Scale::Full, &dir.0)?;
    std::fs::write(path, reference.to_text())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "recorded {} runs and {} cells into {}",
        reference.runs.len(),
        reference.cells.len(),
        path.display()
    );
    Ok(())
}

fn run(args: &Args, workload: Workload) -> Result<bool, String> {
    let dir = WorkDir::create(workload.name())?;
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        work_dir: dir.0.clone(),
    };
    println!(
        "# workload {} (trace {})",
        workload.name(),
        u8::from(args.trace)
    );
    if workload.uses_seed() {
        println!(
            "# seed {}: drives the exchange partners and message sizes",
            args.seed
        );
    } else {
        println!(
            "# seed {} ignored: {} runs a fixed configuration",
            args.seed,
            workload.name()
        );
    }
    println!(
        "# host cpus: {}",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let outcome = workload::run(&opts, &Reference::pinned())?;
    for note in &outcome.notes {
        println!("# {note}");
    }
    for f in &outcome.failures {
        println!("# FAILED {f}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<26} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, outcome.spans.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "# wrote {} spans to {}",
            outcome.spans.spans().len(),
            path.display()
        );
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.record, args.workload) {
        (Some(path), _) => record(path).map(|()| true),
        (None, Some(w)) => run(&args, w),
        (None, None) => unreachable!("parse_args requires one of them"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(1)
        }
    }
}
