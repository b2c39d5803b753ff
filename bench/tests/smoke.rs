//! `--smoke`: all four workloads at 1/20 length, every output check on.
//! The pre-merge check that the benchmark still runs end to end, traced
//! and untraced, and that the layer probes do.

use rkd_testkit::json::Json;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["prefetch_video", "sched_mlp", "zipf_flows", "ctrl_churn"];

/// One bench process at a time: each fills the host's two CPUs.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the bench binary with `args` into a directory of its own;
/// returns that directory, standard output and the time it took.
fn bench(tag: &str, args: &[&str]) -> (PathBuf, String, Duration) {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{tag}-{}", std::process::id()));
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_rkd-perfbench"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("bench binary starts");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
    assert!(
        run.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    (out, stdout, elapsed)
}

/// The result lines of a suite run: one per workload, each correct,
/// without failures and with every metric in `names`.
fn check_result_lines(stdout: &str, names: &[&str]) {
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect();
    assert_eq!(results.len(), WORKLOADS.len());
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(r.get("failed"), Some(&Json::Int(0)));
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("no metrics object");
        };
        let reported: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(reported, names);
    }
}

#[test]
fn smoke_suite_completes_and_every_output_check_passes() {
    let (out, stdout, elapsed) = bench("smoke", &["--smoke"]);
    check_result_lines(
        &stdout,
        &[
            "setup_s",
            "events_per_s",
            "event_p50_ns",
            "decision_quality_pct",
            "peak_rss_mb",
        ],
    );
    // What only some workloads have is a number there and a reason here.
    assert!(stdout.contains("ctrl_churn reconfig_p50_us "));
    assert!(stdout.contains("ctrl_churn install_p50_us "));
    assert!(stdout.contains("prefetch_video reconfig_p50_us "));
    assert!(stdout.contains("zipf_flows unmeasured: reconfig_p50_us: "));
    assert!(stdout.contains("sched_mlp unmeasured: reconfig_p50_us: "));
    assert!(stdout.contains("unmeasured: multi-shard scaling"));
    for name in WORKLOADS {
        assert!(out.join(format!("result-{name}.json")).is_file());
    }
    let _ = std::fs::remove_dir_all(&out);
    assert!(elapsed.as_secs() < 15, "smoke took {elapsed:?}");
}

#[test]
fn traced_smoke_reports_each_workloads_own_layers() {
    let (out, stdout, _) = bench("smoke-trace", &["--smoke", "--trace", "1"]);
    check_result_lines(
        &stdout,
        &[
            "event.untraced_per_s",
            "event.traced_per_s",
            "trace.overhead_pct",
            "bench.harness_pct",
            "event.p99_ns",
            "event.p999_ns",
            "machine.fires_per_event",
            "machine.cache_hit_pct",
            "machine.cache_evictions",
            "machine.cache_invalidations",
            "machine.table_hit_pct",
            "machine.tail_calls_per_fire",
            "machine.aborts",
        ],
    );
    for line in [
        "zipf_flows shard.submit_ns ",
        "zipf_flows shard.overhead_ns_per_event ",
        "zipf_flows stage.residue_pct ",
        "sched_mlp unmeasured: shard.*, stage.*: ",
        "ctrl_churn span.lang.compile_ns ",
    ] {
        assert!(stdout.contains(line), "{line:?} missing");
    }
    // A span is a line where the call was made and absent elsewhere.
    assert!(!stdout.contains("sched_mlp span.lang.compile_ns"));
    // `--smoke` checks the workloads; the probes are not part of it.
    assert!(!stdout.contains("\nprobes "));
    for name in WORKLOADS {
        assert!(out.join(format!("trace-{name}.json")).is_file());
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn probes_measure_every_layer_once() {
    let (out, stdout, _) = bench("probes", &["--probes"]);
    let value = |metric: &str| -> f64 {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("probes {metric} ")))
            .unwrap_or_else(|| panic!("{metric} missing"));
        line.split(' ')
            .nth(2)
            .expect("value")
            .parse()
            .expect("number")
    };
    assert_eq!(stdout.lines().count(), 47);
    for timing in [
        "machine.fire_ns",
        "exec.null_fire_ns",
        "table.lookup_lpm_ns",
        "ml.qmlp_predict_ns",
        "shard.ctrl_publish_us",
        "ctrl.insert_entry_ns",
        "lang.compile_us",
        "snapshot.restore_us",
        "journal.compact_us",
    ] {
        assert!(value(timing) > 0.0, "{timing}");
    }
    // The result file is all the probes leave behind.
    let left: Vec<_> = std::fs::read_dir(&out)
        .expect("out directory")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(left, ["result-probes.json"]);
    let _ = std::fs::remove_dir_all(&out);
}
