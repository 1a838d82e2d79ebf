//! `ldc-benchmark`: the repository's end-to-end benchmark.
//!
//! ```text
//! ldc-benchmark --workload W --seed N [--seconds S] [--trace 0|1] [--spans FILE]
//! ldc-benchmark [--workload all] --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! ldc-benchmark compare A.json B.json
//! ```
//!
//! One workload per process: the untraced run (`--trace 0`) prints every
//! end-to-end metric, the traced run (`--trace 1`) every per-layer metric
//! and writes its spans as JSONL. The last line of standard output is the
//! result object. Without a single workload, each workload runs in its
//! own child process (with `--trace 1`, untraced and then traced, and the
//! two runs' output digests must agree) and the results are collected
//! into a `github-action-benchmark` file. `--seconds` defaults to
//! `run_seconds` of `BENCHMARK.json`. See README.md.

mod inputs;
mod layers;
mod offline;
mod report;
mod service;
mod spans;
mod stats;

use ldc_batch::jsonin::Value;
use report::END_TO_END;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = [
    "fleet_mixed",
    "oldc_dense",
    "congest_sparse",
    "daemon_mixed",
];
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// A run that has not finished by now is hung: fail it rather than
/// block whoever is waiting on it.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: ldc-benchmark [--workload fleet_mixed|oldc_dense|congest_sparse|daemon_mixed|all] \
--seed N [--seconds S] [--trace 0|1] [--spans FILE] [--out FILE]\n       ldc-benchmark compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        spans: None,
        out: None,
    };
    let mut seed = None;
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => args.spans = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = match seconds {
        Some(s) => s,
        None => report::benchmark_json()?
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Working directory for sockets and span files, inside the benchmark's
/// own directory (gitignored). Relative when possible: Unix socket paths
/// are limited to about 100 bytes.
fn out_dir() -> Result<PathBuf, String> {
    let abs = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&abs).map_err(|e| format!("create {}: {e}", abs.display()))?;
    let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    Ok(abs.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(abs))
}

fn run_workload(args: &Args) -> i32 {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("ldc-benchmark: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let w = args.workload.as_str();
    let result = out_dir().and_then(|dir| {
        let spans = args
            .spans
            .clone()
            .unwrap_or_else(|| dir.join(format!("spans-{w}-{}.jsonl", args.seed)));
        if w == "daemon_mixed" {
            service::daemon_mixed(args.seed, args.seconds, args.trace, &dir, &spans)
        } else {
            offline::run(w, args.seed, args.seconds, args.trace, &dir, &spans)
        }
    });
    match result {
        Ok(mut outcome) => {
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            if !args.trace && names != END_TO_END {
                outcome
                    .problems
                    .push(format!("metric set {names:?} is not {END_TO_END:?}"));
            }
            outcome.print(w)
        }
        Err(e) => {
            eprintln!("{w}: {e}");
            1
        }
    }
}

/// One workload run in a child process: its standard output, and whether
/// it exited cleanly. Its standard error is passed through.
fn run_child(exe: &Path, w: &str, args: &Args, trace: bool) -> (String, bool) {
    let child = Command::new(exe)
        .args(["--workload", w, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output();
    match child {
        Ok(out) => {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            (stdout, out.status.success())
        }
        Err(e) => {
            eprintln!("{w}: spawn: {e}");
            (String::new(), false)
        }
    }
}

/// Every workload in its own child process — untraced, then with
/// `--trace 1` traced as well, whose output digest must equal the
/// untraced run's. Results go to `--out` as a `github-action-benchmark`
/// array stamped with the run manifest.
fn run_all(args: &Args) -> i32 {
    let manifest = ldc_sim::RunManifest::capture("pooled", args.seed, "benchmark");
    let (stream_gbps, chain_ns) = stats::calibration();
    let extra = format!(
        "commit={} rustc={} nproc={} seed={} calib_stream_gbps={stream_gbps:.2} calib_chain_ns={chain_ns:.1}",
        manifest.commit, manifest.rustc, manifest.threads, args.seed
    );
    println!("# {extra}");
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return 1;
        }
    };
    let mut entries = Vec::new();
    let mut code = 0;
    for w in WORKLOADS {
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        let mut digests = Vec::new();
        for &trace in modes {
            let (stdout, ok) = run_child(&exe, w, args, trace);
            if !ok {
                code = 1;
            }
            digests.push(report::parse_digest(&stdout, w));
            match report::parse_result(&stdout) {
                Ok((correct, metrics)) => {
                    if !correct {
                        code = 1;
                    }
                    for (name, unit, value) in metrics {
                        entries.push(report::action_entry(w, &name, &unit, value, &extra));
                    }
                }
                Err(e) => {
                    eprintln!("{w}: no result: {e}");
                    code = 1;
                }
            }
        }
        if digests.iter().any(|d| d.is_none() || *d != digests[0]) {
            println!("{w} CHECK FAILED: output digests missing or unequal (untraced, traced): {digests:?}");
            code = 1;
        }
    }
    if let Some(path) = &args.out {
        let json = format!("[\n{}\n]\n", entries.join(",\n"));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("write {}: {e}", path.display());
            code = 1;
        }
    }
    code
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("compare") {
        report::compare(&argv[1..])
    } else {
        match parse_args(&argv) {
            Ok(args) if args.workload == "all" => run_all(&args),
            Ok(args) => run_workload(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}
