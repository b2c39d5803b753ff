//! The repo benchmark. See README.md for what is measured and why, and
//! BENCHMARK.json (repo root) for the contract the driver checks.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench/Cargo.toml -- \
//!     [--workload NAME | --probes] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! ```
//!
//! Without `--workload` the four workloads run one after another, each
//! in a process of its own (so `peak_rss_mb` is per workload); with
//! `--trace 1` the layer probes follow them, once.

mod est;
mod inputs;
mod metrics;
mod probes;
mod rec;
mod reference;
mod runner;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` of BENCHMARK.json; the default when `--seconds` is absent.
const RUN_SECONDS: f64 = 25.0;

pub struct Args {
    pub workload: Option<String>,
    /// Run the layer probes instead of a workload.
    pub probes: bool,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// 1/20 of the run length and a single set-up: a pre-merge check
    /// that everything runs and every output check passes. Its numbers
    /// are not comparable with anything.
    pub smoke: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: rkd-perfbench [--workload {} | --probes] [--seed N] \
         [--seconds S] [--trace 0|1] [--out DIR] [--smoke]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        probes: false,
        seed: inputs::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                // `--trace` alone means 1.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--smoke" => args.smoke = true,
            "--probes" => args.probes = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs each workload in a child process of this binary and relays its
/// output; a traced suite ends with the layer probes (not under
/// `--smoke`, which checks the workloads). Fails if any child fails.
fn run_suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let children = workloads::NAMES
        .iter()
        .map(|name| vec!["--workload", name])
        .chain((args.trace && !args.smoke).then(|| vec!["--probes"]));
    let mut all_ok = true;
    for child in children {
        let mut cmd = Command::new(&exe);
        cmd.args(&child)
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child, so none outlives this process.
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", child.join(" "));
                all_ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", child.join(" "));
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if args.probes {
        probes::run(args.seed, &args.out);
        return ExitCode::SUCCESS;
    }
    let Some(name) = args.workload.as_deref() else {
        return run_suite(&args);
    };
    let correct = match name {
        "prefetch_video" => runner::run::<workloads::prefetch_video::PrefetchVideo>(name, &args),
        "sched_mlp" => runner::run::<workloads::sched_mlp::SchedMlp>(name, &args),
        "zipf_flows" => runner::run::<workloads::zipf_flows::ZipfFlows>(name, &args),
        "ctrl_churn" => runner::run::<workloads::ctrl_churn::CtrlChurn>(name, &args),
        _ => unreachable!("parse_args checked the name"),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: an output check failed");
        ExitCode::FAILURE
    }
}
