//! The geotopo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reproduce-small|reproduce-large|resume-serve|all> \
//!     [--seed 2002] [--seconds 60] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload untraced for about `--seconds` and
//! reports the end-to-end metrics; `--trace 1` makes one traced pass
//! that drives every layer directly and reports per-layer metrics.
//! `all` runs each workload in a fresh child process. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `NOTES.md` for what each workload and metric is for.

mod check;
mod hitlist;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// The benchmark's declared metrics; every run must report exactly the
/// declared set for its mode.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2002,
        seconds: 60.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && Workload::by_name(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Pin every thread knob the library reads: `Pipeline::with_threads`
    // covers the stage scheduler, but `experiments::run_all` resolves its
    // own worker count from this variable.
    std::env::set_var("GEOTOPO_THREADS", "1");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all_workloads(&raw);
    }
    let w = Workload::by_name(&args.workload).expect("validated by parse_args");
    match run_one(&w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            ExitCode::from(1)
        }
    }
}

/// Runs every workload in its own child process, so each process's peak
/// RSS belongs to one workload.
fn run_all_workloads(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), w.name.to_string()]);
        let status = std::process::Command::new(&exe).args(&child_args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: {}: cannot start: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload; returns whether every check passed.
fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    let (setup, setup_s) = workloads::timed_setup(w, args.seed)?;
    let (metrics, attempted, failed) = if args.trace {
        let outcome = layers::traced_run(w, &setup, args.seed)?;
        println!(
            "workload {} traced; Chrome trace at {}",
            w.name, outcome.trace_path
        );
        println!("  {:<34} {:>16} {:<6}", "layer metric", "value", "unit");
        for (name, v, unit) in &outcome.metrics {
            println!("  {name:<34} {v:>16.6} {unit:<6}");
        }
        (
            outcome.metrics,
            outcome.tally.attempted,
            outcome.tally.failed,
        )
    } else {
        let samples = workloads::run(w, &setup, args.seconds);
        let rss_mib = geotopo::core::telemetry::peak_rss_bytes()
            .ok_or("peak RSS unavailable (no VmHWM in /proc/self/status)")?
            as f64
            / (1024.0 * 1024.0);
        let metrics = workloads::report(w, &samples, setup_s, rss_mib)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        (metrics, samples.tally.attempted, samples.tally.failed)
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared_metrics(kind)?;
    let mut reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    reported.sort();
    let as_declared = reported == declared;
    if !as_declared {
        eprintln!("perfbench: reported metrics {reported:?} differ from BENCHMARK.json {kind} {declared:?}");
    }
    let correct = failed == 0 && attempted > 0 && finite && as_declared;
    let metrics_json: Vec<(String, serde_json::Value)> = metrics
        .iter()
        .filter(|(_, v, _)| v.is_finite())
        .map(|(n, v, u)| (n.clone(), serde_json::json!({ "value": *v, "unit": *u })))
        .collect();
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(metrics_json),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("result serializes")
    );
    Ok(correct)
}

/// `(name, unit)` of every metric BENCHMARK.json declares under `kind`,
/// sorted.
fn declared_metrics(kind: &str) -> Result<Vec<(String, String)>, String> {
    let doc: serde_json::Value =
        serde_json::from_str(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(kind)
        .and_then(|v| v.as_array())
        .ok_or(format!("BENCHMARK.json has no {kind} list"))?;
    let mut out = list
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("BENCHMARK.json {kind} entry lacks a name or unit"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "resume-serve",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("resume-serve", 7, 12.0, true)
        );
    }

    #[test]
    fn untraced_report_matches_the_declared_metrics() {
        let mut s = workloads::RunSamples::default();
        for name in ["cold_s", "resume_s", "total_s", "ready_s", "lookups_per_s"] {
            s.series.insert(name, vec![1.0, 2.0]);
        }
        s.request_us = vec![10.0; 1_000];
        let w = Workload::by_name("resume-serve").expect("known workload");
        let mut names: Vec<(String, String)> = workloads::report(&w, &s, 0.01, 40.0)
            .into_iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        names.sort();
        assert_eq!(names, declared_metrics("end_to_end").expect("declared"));
        assert!(declared_metrics("end_to_end")
            .expect("declared")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!declared_metrics("per_layer").expect("declared").is_empty());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }
}
