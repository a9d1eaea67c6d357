//! CLI front-ends for the campaign engine and the ledger tools: arg
//! parsing, printing, and exit codes. The actual work lives in
//! [`repro::campaign`] and [`repro::ledger`].

use std::path::{Path, PathBuf};

use repro::autotune;
use repro::campaign::{self, CampaignConfig, CampaignReport, Spec};
use repro::ledger;

/// The value after `flag`, if the flag is given. A flag with nothing
/// after it is an error, not a silent fallback to the default.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// `flag`'s value as a number, if the flag is given.
fn flag_num(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a number, got {v:?}"))
        })
        .transpose()
}

/// The extra WAN loss rate a `--perturb` value asks for.
fn perturb_loss(what: &str) -> Result<f64, String> {
    match what.split_once('=') {
        Some(("loss", rate)) => rate
            .parse()
            .map_err(|_| format!("--perturb loss takes a rate, got {rate:?}")),
        None if what == "loss" => Ok(3e-3),
        _ => Err(format!(
            "unknown perturbation {what:?} (expected loss or loss=RATE)"
        )),
    }
}

/// A parsed argument, or exit 2 with the message: a malformed command
/// line is a usage error, never a panic.
fn arg<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Run a campaign, or exit 1 with the reason.
fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    campaign::run(cfg).unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    })
}

/// Print the campaign guideline outcomes; returns how many failed.
fn print_guidelines(report: &CampaignReport) -> usize {
    let mut failed = 0usize;
    for (name, pass, detail) in &report.guidelines {
        println!(
            "{} {name:<32} {detail}",
            if *pass { "PASS" } else { "FAIL" }
        );
        if !pass {
            failed += 1;
        }
    }
    failed
}

/// `repro campaign [--spec quick|tiny|autotune|autotune-quick] [--label
/// NAME] [--ledger-dir DIR] [--cache FILE] [--perturb loss[=RATE]]
/// [--no-heartbeat] [--min-cache-hits PCT] [--no-guidelines]`
pub(crate) fn cmd_campaign(args: &[String]) {
    // `--quick` is an alias for the default spec so CI reads naturally.
    let spec_name =
        arg(flag_value(args, "--spec")).unwrap_or(if args.iter().any(|a| a == "--tiny") {
            "tiny"
        } else {
            "quick"
        });
    let Some(spec) = Spec::parse(spec_name) else {
        eprintln!("unknown spec {spec_name:?} (expected quick, tiny, autotune or autotune-quick)");
        std::process::exit(2);
    };
    let mut cfg = CampaignConfig::new(spec);
    if let Some(label) = arg(flag_value(args, "--label")) {
        cfg.label = label.to_string();
    }
    if let Some(dir) = arg(flag_value(args, "--ledger-dir")) {
        cfg.ledger_dir = PathBuf::from(dir);
    }
    if let Some(path) = arg(flag_value(args, "--cache")) {
        cfg.cache_path = PathBuf::from(path);
    }
    if let Some(what) = arg(flag_value(args, "--perturb")) {
        cfg.perturb_loss = arg(perturb_loss(what));
    }
    if args.iter().any(|a| a == "--no-heartbeat") {
        cfg.heartbeat_secs = None;
    }
    let min_hits = arg(flag_num(args, "--min-cache-hits"));

    crate::header(&format!(
        "Campaign: {} spec, {} cells{}",
        spec.name(),
        spec.cells().len(),
        if cfg.perturb_loss > 0.0 {
            format!(", perturb loss +{:e}", cfg.perturb_loss)
        } else {
            String::new()
        }
    ));
    let report = run_campaign(&cfg);
    println!(
        "{} runs in {:.1}s host time, {} cache hits ({:.0}%)",
        report.runs,
        report.host_secs,
        report.cache_hits,
        report.hit_pct()
    );
    println!("ledger: {}", report.ledger_path.display());
    let failed = print_guidelines(&report);
    // A perturbed campaign exists to violate the physics on purpose, so
    // CI runs it with --no-guidelines: outcomes are still printed and
    // recorded in the ledger, they just stop gating the exit status.
    if failed > 0 {
        if args.iter().any(|a| a == "--no-guidelines") {
            eprintln!("{failed} campaign guideline(s) failed (not gating: --no-guidelines)");
        } else {
            eprintln!("{failed} campaign guideline(s) failed");
            std::process::exit(1);
        }
    }
    if let Some(min) = min_hits {
        if report.hit_pct() < min {
            eprintln!(
                "cache hit rate {:.0}% is below the required {min:.0}%",
                report.hit_pct()
            );
            std::process::exit(1);
        }
    }
}

/// `repro autotune-coll [--quick] [--check] [--cache FILE]`: the
/// autotune spec through the campaign runner (one cache, one ledger row
/// per cell), then the decision tables rendered from its rows. `--check`
/// exits 1 unless some (op, size) picks a different winner on the LAN
/// than on the four-site WAN.
pub(crate) fn cmd_autotune_coll(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let spec = if quick {
        Spec::AutotuneQuick
    } else {
        Spec::Autotune
    };
    let mut cfg = CampaignConfig::new(spec);
    if let Some(path) = arg(flag_value(args, "--cache")) {
        cfg.cache_path = PathBuf::from(path);
    }
    // The ledger lands next to the cache, named after the spec.
    cfg.label = spec.name().to_string();
    cfg.ledger_dir = cfg
        .cache_path
        .parent()
        .map_or_else(PathBuf::new, Path::to_path_buf);
    crate::header(&format!(
        "Collective autotuning: sweep over (algorithm x size x topology x profile), \
         {} ranks, {} sizes{}",
        autotune::RANKS,
        autotune::sizes(quick).len(),
        if quick { " (--quick)" } else { "" }
    ));
    let report = run_campaign(&cfg);
    println!(
        "{} cells ({} cached, {} simulated) -> cache {}",
        report.runs,
        report.cache_hits,
        report.runs - report.cache_hits,
        cfg.cache_path.display()
    );
    println!("ledger: {}", report.ledger_path.display());
    let failed = print_guidelines(&report);
    if failed > 0 {
        eprintln!("{failed} campaign guideline(s) failed");
        std::process::exit(1);
    }
    let decisions = autotune::decide(quick, &report.rows).unwrap_or_else(|e| {
        eprintln!("autotune-coll: {e}");
        std::process::exit(1);
    });

    // `--dat DIR` if given, else the committed tables.
    let dir = crate::DAT_DIR
        .get()
        .and_then(|o| o.as_ref())
        .cloned()
        .unwrap_or_else(|| PathBuf::from("results/dat"));
    let _ = std::fs::create_dir_all(&dir);
    for table in &decisions.tables {
        println!(
            "\n--- profile {} ({}) ---",
            table.profile,
            table.level.label()
        );
        print!("{}", table.text);
        for (ext, body) in [("dat", &table.dat), ("json", &table.json)] {
            let path = dir.join(format!("coll_decision_{}.{ext}", table.profile));
            match std::fs::write(&path, body) {
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                Ok(()) => println!("wrote {}", path.display()),
            }
        }
    }

    println!("\nLAN vs WAN divergences (cells where the grid wants a different algorithm):");
    if decisions.divergences.is_empty() {
        println!("  none");
    }
    for d in &decisions.divergences {
        println!("  {d}");
    }
    if check && decisions.divergences.is_empty() {
        eprintln!(
            "autotune-coll --check: no (op, size) cell picked a different winner on \
             LAN vs the four-site WAN — the two-level/grid algorithms are not earning \
             their keep"
        );
        std::process::exit(1);
    }
}

/// `repro ledger <diff|top|report> ...`
pub(crate) fn cmd_ledger(args: &[String]) {
    let usage = || -> ! {
        eprintln!(
            "usage: repro ledger <diff OLD NEW [--threshold PCT]|\
             top OLD NEW [--limit N] [--min-delta X]|report FILE [--dat DIR]>"
        );
        std::process::exit(2);
    };
    let Some(sub) = args.first().map(String::as_str) else {
        usage()
    };
    // Skip flag values when collecting positionals: every flag here
    // takes exactly one argument.
    let positional: Vec<&str> = {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &args[1..] {
            if skip {
                skip = false;
                continue;
            }
            if a.starts_with('-') {
                skip = true;
                continue;
            }
            out.push(a.as_str());
        }
        out
    };
    let load = |path: &str| -> Vec<desim::obs::ledger::RunRow> {
        match ledger::load(std::path::Path::new(path)) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    };
    match sub {
        "diff" => {
            let [old_path, new_path] = positional[..] else {
                usage()
            };
            let threshold = arg(flag_num(args, "--threshold")).unwrap_or(5.0);
            let (old, new) = (load(old_path), load(new_path));
            let d = ledger::diff(&old, &new);
            crate::header(&format!("Ledger diff: {old_path} -> {new_path}"));
            println!(
                "{} scenarios matched, {} only in old, {} only in new",
                d.matched.len(),
                d.only_old.len(),
                d.only_new.len()
            );
            for key in &d.only_old {
                println!("  only old: {key}");
            }
            for key in &d.only_new {
                println!("  only new: {key}");
            }
            let configs = d.config_changes();
            println!("{} config changes (fingerprint moved)", configs.len());
            for m in &configs {
                println!("  config: {} ({:.3}x elapsed)", m.scenario, m.ratio);
            }
            let digests = d.digest_changes();
            println!("{} digest changes", digests.len());
            for m in &digests {
                println!(
                    "  DIGEST CHANGED under identical config: {} — determinism broken",
                    m.scenario
                );
            }
            let regressions = d.regressions(threshold);
            println!(
                "{} elapsed regressions beyond {threshold}%",
                regressions.len()
            );
            for m in &regressions {
                println!(
                    "  slower: {} {:.4}s -> {:.4}s ({:.3}x)",
                    m.scenario,
                    m.elapsed.0 as f64 / 1e9,
                    m.elapsed.1 as f64 / 1e9,
                    m.ratio
                );
            }
            if !digests.is_empty() {
                std::process::exit(1);
            }
            if !regressions.is_empty() {
                std::process::exit(3);
            }
        }
        "top" => {
            let [old_path, new_path] = positional[..] else {
                usage()
            };
            let limit = arg(flag_num(args, "--limit")).unwrap_or(10.0) as usize;
            let min_delta = arg(flag_num(args, "--min-delta"));
            let (old, new) = (load(old_path), load(new_path));
            let shifts = ledger::top(&old, &new, limit);
            crate::header(&format!(
                "Ledger top: blame-share movement {old_path} -> {new_path}"
            ));
            if shifts.is_empty() {
                println!("no scenarios in common");
            }
            for (i, s) in shifts.iter().enumerate() {
                println!(
                    "{:>3}. {} — {} {:.1}% -> {:.1}% (Δ{:.1}pp), elapsed {:.3}x",
                    i + 1,
                    s.scenario,
                    s.bucket,
                    100.0 * s.shares.0,
                    100.0 * s.shares.1,
                    100.0 * s.max_delta,
                    s.ratio
                );
                for (bucket, a, b) in s.deltas.iter().skip(1).take(3) {
                    println!("       {bucket}: {:.1}% -> {:.1}%", 100.0 * a, 100.0 * b);
                }
            }
            if let Some(min) = min_delta {
                let max = shifts.first().map_or(0.0, |s| s.max_delta);
                if max < min {
                    eprintln!("largest blame-share delta {max:.4} is below {min}");
                    std::process::exit(1);
                }
            }
        }
        "report" => {
            let [path] = positional[..] else { usage() };
            let rows = load(path);
            let (tables, summary) = ledger::report(&rows);
            crate::header(&format!("Ledger report: {path}"));
            print!("{summary}");
            for table in &tables {
                if let Some(mut f) = crate::dat_file(&format!("campaign_{}", table.workload)) {
                    use std::io::Write as _;
                    let _ = f.write_all(table.dat.as_bytes());
                    println!(
                        "wrote campaign_{}.dat ({} rows)",
                        table.workload, table.rows
                    );
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        let given = args(&["--spec", "tiny", "--cache"]);
        assert_eq!(flag_value(&given, "--spec"), Ok(Some("tiny")));
        assert_eq!(flag_value(&given, "--label"), Ok(None));
        let err = flag_value(&given, "--cache").unwrap_err();
        assert!(err.contains("--cache"), "{err}");
    }

    #[test]
    fn malformed_numbers_are_errors_naming_the_flag() {
        let given = args(&["--min-cache-hits", "ninety"]);
        let err = flag_num(&given, "--min-cache-hits").unwrap_err();
        assert!(err.contains("--min-cache-hits"), "{err}");
        assert_eq!(
            flag_num(&args(&["--min-cache-hits", "90"]), "--min-cache-hits"),
            Ok(Some(90.0))
        );
        assert_eq!(perturb_loss("loss"), Ok(3e-3));
        assert_eq!(perturb_loss("loss=0.01"), Ok(0.01));
        assert!(perturb_loss("loss=lots").unwrap_err().contains("--perturb"));
        assert!(perturb_loss("jitter").is_err());
    }
}
