//! Integration: the model-quality telemetry loop and the std-only
//! metrics exporter.
//!
//! Covers the PR's acceptance arc end to end: a datapath machine serves
//! predictions, the control plane reports ground truth back, a concept
//! flip collapses the machine's own windowed prequential accuracy until
//! `drift_suspected` latches, an `UpdateModel` swap recovers, and the
//! flight recorder replays the whole story. The exporter side is pinned
//! by a real loopback scrape: the Prometheus text exposition and the
//! JSON rendering of the *same* snapshot must agree on every counter.

use rkd::core::bytecode::{Action, Insn, ModelSlot, VReg};
use rkd::core::ctrl::{syscall_rmt, CtrlRequest, CtrlResponse};
use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, ProgId, RmtMachine};
use rkd::core::obs::{ModelStatsSnapshot, ObsConfig, ObsSnapshot};
use rkd::core::prog::{ModelSpec, ProgramBuilder};
use rkd::core::snapshot::{from_json_str, to_json_string};
use rkd::core::table::MatchKind;
use rkd::core::verifier::verify;
use rkd::ml::cost::LatencyClass;
use rkd::ml::dataset::{Dataset, Sample};
use rkd::ml::tree::{DecisionTree, TreeConfig};
use rkd::testkit::prop_check;
use rkd::testkit::rng::Rng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Trains a threshold tree (`x > 8`, optionally negated) and installs
/// it as the single model of a one-table program on hook `"event"`.
fn ml_machine(cfg: ObsConfig, flipped: bool) -> (RmtMachine, ProgId, ModelSlot) {
    let mut machine = RmtMachine::with_obs_config(cfg);
    let mut b = ProgramBuilder::new("telemetry");
    let x = b.field_readonly("x");
    let slot = b.model(
        "clf",
        ModelSpec::Tree(threshold_tree(flipped)),
        LatencyClass::Scheduler,
    );
    let act = b.action(Action::new(
        "classify",
        vec![
            Insn::VectorLdCtxt {
                dst: VReg(0),
                base: x,
                len: 1,
            },
            Insn::CallMl {
                model: slot,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "event", &[x], MatchKind::Exact, Some(act), 4);
    let prog = machine
        .install(verify(b.build()).unwrap(), ExecMode::Jit)
        .unwrap();
    (machine, prog, slot)
}

fn threshold_tree(flipped: bool) -> DecisionTree {
    let ds = Dataset::from_samples(
        (0..17)
            .map(|x| Sample::from_f64(&[x as f64], ((x > 8) ^ flipped) as usize))
            .collect(),
    )
    .unwrap();
    DecisionTree::train(&ds, &TreeConfig::default()).unwrap()
}

/// Fires once and reports the verdict against ground truth `x > 8`
/// (or its negation after a concept flip).
fn serve_and_report(m: &mut RmtMachine, prog: ProgId, slot: ModelSlot, x: i64, flipped: bool) {
    let mut ctxt = Ctxt::from_values(vec![x]);
    let predicted = m.fire("event", &mut ctxt).verdict().unwrap();
    let actual = ((x > 8) ^ flipped) as i64;
    syscall_rmt(
        m,
        CtrlRequest::ReportOutcome {
            prog,
            slot,
            predicted,
            actual,
        },
    )
    .unwrap();
}

fn query_stats(m: &mut RmtMachine, prog: ProgId, slot: ModelSlot) -> ModelStatsSnapshot {
    match syscall_rmt(m, CtrlRequest::QueryModelStats { prog, slot }).unwrap() {
        CtrlResponse::ModelStats(s) => *s,
        other => panic!("{other:?}"),
    }
}

/// The paper's §3.1 feedback loop as one test: serve, report, detect,
/// swap, recover — with the machine itself keeping the score.
#[test]
fn closed_loop_drift_detection_and_recovery() {
    let cfg = ObsConfig {
        accuracy_window: 32,
        accuracy_windows: 2,
        drift_threshold_permille: 500,
        flight_interval: 32,
        flight_capacity: 16,
        ..ObsConfig::default()
    };
    let (mut m, prog, slot) = ml_machine(cfg, false);
    // Healthy phase: concept matches the installed model.
    for step in 0..64i64 {
        serve_and_report(&mut m, prog, slot, step % 17, false);
    }
    let healthy = query_stats(&mut m, prog, slot);
    assert!(!healthy.drift_suspected, "{healthy:?}");
    assert_eq!(healthy.acc_permille, 1000, "{healthy:?}");
    // Concept flips; the installed model is now consistently wrong.
    // Within two windows the rolling accuracy crosses the threshold
    // and the latch fires.
    for step in 0..64i64 {
        serve_and_report(&mut m, prog, slot, step % 17, true);
    }
    let drifted = query_stats(&mut m, prog, slot);
    assert!(drifted.drift_suspected, "{drifted:?}");
    assert!(drifted.acc_permille < 500, "{drifted:?}");
    // The latch stays set until the control plane acts (it is *not*
    // cleared by accuracy wobble — a recovery claim needs a swap).
    // Swap in a model trained on the new concept: windows reset,
    // latch clears, cumulative history survives.
    m.update_model(prog, slot, ModelSpec::Tree(threshold_tree(true)))
        .unwrap();
    let swapped = query_stats(&mut m, prog, slot);
    assert!(!swapped.drift_suspected, "{swapped:?}");
    assert_eq!(swapped.acc_permille, -1, "windows reset: {swapped:?}");
    assert_eq!(swapped.outcomes, 128, "cumulative survives: {swapped:?}");
    for step in 0..64i64 {
        serve_and_report(&mut m, prog, slot, step % 17, true);
    }
    let recovered = query_stats(&mut m, prog, slot);
    assert!(!recovered.drift_suspected, "{recovered:?}");
    assert_eq!(recovered.acc_permille, 1000, "{recovered:?}");
    // The flight recorder replays the arc: some frame saw the
    // collapse, and the final frame sees full recovery.
    let flight = match syscall_rmt(&mut m, CtrlRequest::FlightRead).unwrap() {
        CtrlResponse::Flight(f) => *f,
        other => panic!("{other:?}"),
    };
    assert_eq!(flight.interval, 32);
    assert!(flight.frames.len() >= 4, "{}", flight.frames.len());
    let accs: Vec<i64> = flight
        .frames
        .iter()
        .map(|f| f.models[0].acc_permille)
        .collect();
    assert!(
        accs.iter().any(|&a| (0..500).contains(&a)),
        "collapse visible in {accs:?}"
    );
    assert_eq!(*accs.last().unwrap(), 1000, "recovery visible in {accs:?}");
}

/// One `GET path` against the loopback server at `addr`; returns the
/// whole response (head and body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    write!(conn, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    response
}

/// Acceptance: Prometheus and JSON render the *same* snapshot, served
/// over a real loopback socket, and agree on every counter value.
#[test]
fn loopback_scrape_prometheus_and_json_agree() {
    let (mut m, prog, slot) = ml_machine(ObsConfig::default(), false);
    for step in 0..100i64 {
        serve_and_report(&mut m, prog, slot, step % 23, false);
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let get = |path: &str| http_get(addr, path);
    let mut bodies = Vec::new();
    std::thread::scope(|s| {
        let server = s.spawn(|| m.serve_metrics_until(&listener, &stop));
        for path in ["/metrics", "/metrics.json"] {
            let response = get(path);
            let (head, body) = response.split_once("\r\n\r\n").unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            let expected_type = if path == "/metrics" {
                "text/plain; version=0.0.4"
            } else {
                "application/json"
            };
            assert!(head.contains(expected_type), "{head}");
            assert!(
                head.contains(&format!("Content-Length: {}", body.len())),
                "{head}"
            );
            bodies.push(body.to_string());
        }
        // An unknown path is a 404, not a hang or a panic.
        assert!(get("/nope").starts_with("HTTP/1.1 404"));
        stop.store(true, std::sync::atomic::Ordering::Release);
        assert_eq!(server.join().unwrap().unwrap(), 3);
    });
    let prom = &bodies[0];
    let snap: ObsSnapshot = from_json_str(&bodies[1]).unwrap();
    // No traffic between the two scrapes, so the JSON body decodes the
    // exact snapshot the Prometheus body rendered. Every machine-wide
    // counter must appear with the same value...
    for (name, value) in rkd::core::obs::export::counter_samples(&snap.counters) {
        let line = format!("rkd_machine_events_total{{event=\"{name}\"}} {value}");
        assert!(prom.contains(&line), "missing `{line}` in:\n{prom}");
    }
    assert!(snap.counters.fires == 100);
    // ...as must the per-hook and per-model counters.
    for h in &snap.hooks {
        let line = format!("rkd_hook_fires_total{{hook=\"{}\"}} {}", h.hook, h.fires);
        assert!(prom.contains(&line), "missing `{line}`");
    }
    assert_eq!(snap.models.len(), 1);
    let ms = &snap.models[0];
    for (family, value) in [
        ("rkd_model_predictions_total", ms.served),
        ("rkd_model_outcomes_total", ms.outcomes),
        ("rkd_model_outcome_hits_total", ms.hits),
    ] {
        let line = format!(
            "{family}{{prog=\"{}\",slot=\"{}\",model=\"{}\"}} {value}",
            ms.prog, ms.slot, ms.name
        );
        assert!(prom.contains(&line), "missing `{line}` in:\n{prom}");
    }
    assert_eq!(ms.served, 100);
    assert_eq!(ms.outcomes, 100);
}

prop_check!(
    obs_snapshot_json_round_trips_byte_identically,
    cases = 48,
    |g| {
        // Drive a real machine with randomized traffic, outcome reports,
        // and obs configuration, then require the full observability
        // snapshot — counters, histograms, model telemetry, windows — to
        // survive serialize -> parse -> serialize with not a byte changed.
        let cfg = ObsConfig {
            accuracy_window: g.gen_range(1u64..24),
            accuracy_windows: g.gen_range(1usize..5),
            drift_threshold_permille: g.gen_range(0u64..1001),
            flight_interval: g.gen_range(1u64..40),
            flight_capacity: g.gen_range(1usize..6),
            ..ObsConfig::default()
        };
        let (mut m, prog, slot) = ml_machine(cfg, false);
        let flipped = g.gen_range(0u32..2) == 1;
        for _ in 0..g.gen_range(1usize..120) {
            let x = g.gen_range(-4i64..21);
            let mut ctxt = Ctxt::from_values(vec![x]);
            let predicted = m.fire("event", &mut ctxt).verdict().unwrap();
            // Sometimes drop the report: served and outcomes diverge.
            if g.gen_range(0u32..4) > 0 {
                let actual = ((x > 8) ^ flipped) as i64;
                m.report_outcome(prog, slot, predicted, actual).unwrap();
            }
        }
        let snap = m.obs_snapshot();
        let once = to_json_string(&snap);
        let parsed: ObsSnapshot = from_json_str(&once).unwrap();
        assert_eq!(to_json_string(&parsed), once);
        // The standalone model-stats snapshot round-trips the same way.
        let ms = m.model_stats(prog, slot).unwrap();
        let once = to_json_string(&ms);
        let parsed: ModelStatsSnapshot = from_json_str(&once).unwrap();
        assert_eq!(to_json_string(&parsed), once);
    }
);

/// Acceptance (PR 5 satellite): the one-shot exporter survives hostile
/// clients — a slow-loris that never finishes its request head gets a
/// `408` after the configured timeout instead of wedging the caller, a
/// non-GET gets `405` with an `Allow` header, a malformed request line
/// gets `400`, and an oversized head gets `431`.
#[test]
fn exporter_rejects_slow_and_malformed_clients() {
    use rkd::core::obs::export::{serve_once_with, ServeOptions};
    use std::time::{Duration, Instant};

    let (m, _prog, _slot) = ml_machine(ObsConfig::default(), false);
    let snap = m.obs_snapshot();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let opts = ServeOptions {
        read_timeout: Duration::from_millis(100),
        max_head_bytes: 512,
    };

    // Slow client: connects, sends half a request line, stalls. The
    // server must answer 408 within ~the timeout, not block forever.
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET /metr").unwrap();
        conn.flush().unwrap();
        let mut response = String::new();
        let _ = conn.read_to_string(&mut response);
        response
    });
    let start = Instant::now();
    assert_eq!(serve_once_with(&listener, &snap, opts).unwrap(), "!408");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "408 took {:?}",
        start.elapsed()
    );
    assert!(client.join().unwrap().starts_with("HTTP/1.1 408"));

    // Non-GET: 405 with Allow: GET.
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    });
    assert_eq!(serve_once_with(&listener, &snap, opts).unwrap(), "!405");
    let response = client.join().unwrap();
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    assert!(response.contains("Allow: GET"), "{response}");

    // Malformed request line (no path): 400.
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GARBAGE\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    });
    assert_eq!(serve_once_with(&listener, &snap, opts).unwrap(), "!400");
    assert!(client.join().unwrap().starts_with("HTTP/1.1 400"));

    // Head larger than the configured cap: 431.
    let client = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET /metrics HTTP/1.1\r\n").unwrap();
        let filler = "X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
        for _ in 0..64 {
            if write!(conn, "{filler}").is_err() {
                break;
            }
        }
        let _ = write!(conn, "\r\n");
        let mut response = String::new();
        let _ = conn.read_to_string(&mut response);
        response
    });
    assert_eq!(serve_once_with(&listener, &snap, opts).unwrap(), "!431");
    assert!(client.join().unwrap().starts_with("HTTP/1.1 431"));
}

/// Tentpole acceptance: the persistent server answers many sequential
/// clients from one listener — Prometheus and JSON scrapes, read-only
/// `/ctrl/*` queries, 404s, a request head split across writes *inside
/// the terminator* (pin for the tail-window scan), and a slow-loris
/// mid-loop — then stops cleanly when the flag flips, reporting how
/// many connections it served.
#[test]
fn persistent_server_survives_many_scrapes_and_stops_cleanly() {
    use rkd::core::obs::export::{serve_until, ServeOptions};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let (mut m, prog, slot) = ml_machine(ObsConfig::default(), false);
    for step in 0..50i64 {
        serve_and_report(&mut m, prog, slot, step % 17, false);
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let opts = ServeOptions {
        read_timeout: Duration::from_millis(200),
        max_head_bytes: 4096,
    };

    let get = |path: &str| http_get(addr, path);

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_until(&listener, &mut m, &stop, opts));

        // A long scrape loop against the *same* server loop.
        for i in 0..100 {
            let response = get("/metrics");
            assert!(response.starts_with("HTTP/1.1 200 OK"), "scrape {i}");
            assert!(response.contains("rkd_machine_events_total"), "scrape {i}");
        }

        // JSON rendering of the same snapshot.
        let response = get("/metrics.json");
        let (_, body) = response.split_once("\r\n\r\n").unwrap();
        let snap: ObsSnapshot = from_json_str(body).unwrap();
        assert_eq!(snap.counters.fires, 50);

        // Read-only control-plane queries.
        let response = get("/ctrl/counters");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("application/json"), "{response}");
        assert!(response.contains("\"fires\":50"), "{response}");
        let response = get("/ctrl/models");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"clf\""), "{response}");
        assert!(get("/ctrl/nope").starts_with("HTTP/1.1 404"));
        assert!(get("/nope").starts_with("HTTP/1.1 404"));

        // Head terminator split across two writes ("\r\n\r" + "\n"):
        // the chunked reader must find it straddling the boundary.
        let split_client = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            write!(conn, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r").unwrap();
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            conn.write_all(b"\n").unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            response
        });
        let response = split_client.join().unwrap();
        assert!(
            response.starts_with("HTTP/1.1 200 OK"),
            "split terminator mishandled: {response}"
        );

        // A slow-loris mid-loop gets its 408 without killing the loop.
        let loris = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            write!(conn, "GET /metr").unwrap();
            conn.flush().unwrap();
            let mut response = String::new();
            let _ = conn.read_to_string(&mut response);
            response
        });
        assert!(loris.join().unwrap().starts_with("HTTP/1.1 408"));
        assert!(get("/metrics").starts_with("HTTP/1.1 200 OK"));

        stop.store(true, Ordering::Release);
        let served = server.join().unwrap().unwrap();
        assert!(served >= 108, "served only {served} connections");
    });
}

/// Satellite (span export): `GET /trace` serves Chrome `trace_event`
/// JSON with the right content type, the body parses with the testkit
/// codec into the expected shape, `/ctrl/stages` serves the aggregated
/// stage profile, and the new endpoints answer method and path errors
/// (405 for POST, 404 for near-miss paths) without wedging the loop.
#[test]
fn trace_endpoint_serves_parseable_chrome_trace() {
    use rkd::core::obs::export::{serve_until, ServeOptions};
    use rkd::testkit::json::Json;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let (mut m, prog, slot) = ml_machine(ObsConfig::default(), false);
    m.set_span_config(0, 4096); // 1-in-1: every fire below is traced
    for step in 0..16i64 {
        serve_and_report(&mut m, prog, slot, step % 17, false);
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let opts = ServeOptions {
        read_timeout: Duration::from_millis(200),
        max_head_bytes: 4096,
    };

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_until(&listener, &mut m, &stop, opts));
        let get = |path: &str| http_get(addr, path);

        let response = get("/trace");
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let doc = Json::parse(body).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        assert!(!events.is_empty(), "traced fires must produce events");
        for ev in events {
            assert_eq!(ev.get("ph"), Some(&Json::Str("X".into())), "{ev:?}");
            assert_eq!(ev.get("cat"), Some(&Json::Str("rkd".into())), "{ev:?}");
            assert!(ev.get("name").is_some(), "{ev:?}");
            assert!(ev.get("ts").is_some() && ev.get("dur").is_some(), "{ev:?}");
        }
        assert_eq!(doc.get("displayTimeUnit"), Some(&Json::Str("ns".into())));
        assert!(doc.get("dropped").is_some());

        // /trace drains the ring: an immediate re-read is empty but
        // still well-formed (the endpoint never 404s on quiet rings).
        let response = get("/trace");
        let (_, body) = response.split_once("\r\n\r\n").unwrap();
        match Json::parse(body).unwrap().get("traceEvents") {
            Some(Json::Arr(events)) => assert!(events.is_empty(), "drained"),
            other => panic!("traceEvents missing after drain: {other:?}"),
        }

        // The aggregated stage profile survives the drain (it is a
        // running aggregate, not a ring view).
        let response = get("/ctrl/stages");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("application/json"), "{response}");
        assert!(response.contains("\"Fire\""), "{response}");

        // Method and path sweep over the new endpoints.
        let post = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            write!(conn, "POST /trace HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            response
        });
        let response = post.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        assert!(response.contains("Allow: GET"), "{response}");
        assert!(get("/traces").starts_with("HTTP/1.1 404"));
        assert!(get("/trace/").starts_with("HTTP/1.1 404"));
        assert!(get("/ctrl/stagesx").starts_with("HTTP/1.1 404"));

        stop.store(true, Ordering::Release);
        server.join().unwrap().unwrap();
    });
}

/// Satellite (label hygiene): hook and model names containing `"` and
/// `\` must arrive escaped in the Prometheus exposition — otherwise a
/// hostile or merely unlucky program name corrupts every scrape.
#[test]
fn prometheus_escapes_hostile_hook_and_model_names() {
    use rkd::core::obs::export::to_prometheus;

    let mut m = RmtMachine::new();
    let mut b = ProgramBuilder::new("evil");
    let x = b.field_readonly("x");
    let slot = b.model(
        "m\"odel\\",
        ModelSpec::Tree(threshold_tree(false)),
        LatencyClass::Scheduler,
    );
    let act = b.action(Action::new(
        "classify",
        vec![
            Insn::VectorLdCtxt {
                dst: VReg(0),
                base: x,
                len: 1,
            },
            Insn::CallMl {
                model: slot,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "ev\"il\\hook", &[x], MatchKind::Exact, Some(act), 4);
    m.install(verify(b.build()).unwrap(), ExecMode::Interp)
        .unwrap();

    let mut ctxt = Ctxt::from_values(vec![3]);
    m.fire("ev\"il\\hook", &mut ctxt).verdict().unwrap();

    let text = to_prometheus(&m.obs_snapshot());
    assert!(
        text.contains("rkd_hook_fires_total{hook=\"ev\\\"il\\\\hook\"} 1"),
        "hook label not escaped:\n{text}"
    );
    assert!(
        text.contains("model=\"m\\\"odel\\\\\""),
        "model label not escaped:\n{text}"
    );
    // No raw (unescaped) quote survives inside any label value: every
    // line must keep the `name{labels} value` shape parseable.
    let leaked: Vec<&str> = text.lines().filter(|l| l.contains("ev\"il")).collect();
    assert!(leaked.is_empty(), "unescaped hook name leaked: {leaked:?}");
}

/// The sharded machine serves the same persistent loop through
/// `&ShardedMachine` (control plane stays usable from other threads)
/// and answers `/ctrl/shards` with per-shard convergence state.
#[test]
fn sharded_persistent_server_reports_shard_convergence() {
    use rkd::core::shard::ShardedMachine;
    use std::sync::atomic::{AtomicBool, Ordering};

    let sharded = ShardedMachine::new(2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| sharded.serve_metrics_until(&listener, &stop));
        let get = |path: &str| http_get(addr, path);
        for _ in 0..10 {
            assert!(get("/metrics").starts_with("HTTP/1.1 200 OK"));
        }
        let response = get("/ctrl/shards");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"shard\":0"), "{response}");
        assert!(response.contains("\"shard\":1"), "{response}");
        // The span endpoints answer through the sharded control plane
        // too (cross-shard drain under the hood).
        let response = get("/trace");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("traceEvents"), "{response}");
        let response = get("/ctrl/stages");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        stop.store(true, Ordering::Release);
        assert_eq!(server.join().unwrap().unwrap(), 13);
    });
}
