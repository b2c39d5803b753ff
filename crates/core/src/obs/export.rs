//! Std-only metric exporters for [`ObsSnapshot`].
//!
//! Two render targets, byte-for-byte deterministic for a given
//! snapshot:
//!
//! - [`to_prometheus`] — Prometheus text exposition format (version
//!   0.0.4): `# HELP`/`# TYPE` headers, one sample per line, log2
//!   histograms rendered as cumulative `le`-labelled bucket series with
//!   `_sum`/`_count`. Scrapeable by any Prometheus-compatible
//!   collector.
//! - [`to_json`] — the same snapshot through the hermetic
//!   `rkd-testkit` JSON codec (identical to
//!   [`crate::snapshot::to_json_string`]), for offline analysis.
//!
//! Both render the *same* [`ObsSnapshot`], so every counter value in
//! the Prometheus text can be cross-checked against the JSON document
//! (and is, in `tests/obs_export.rs`).
//!
//! [`serve_until`] is an optional blocking HTTP responder over
//! `std::net::TcpListener`: a hardened single-request parser in a
//! loop, answering `GET /metrics` (Prometheus text), `GET
//! /metrics.json` (JSON) and read-only `GET /ctrl/*` queries from a
//! live [`MetricsSource`] until a stop flag flips — one machine, one
//! server, its whole life (see
//! [`crate::machine::RmtMachine::serve_metrics_until`]). There is no
//! thread pool or keep-alive — the caller decides when (and whether)
//! to block, donating exactly one thread, which keeps the machine
//! itself free of any network dependency; a slow or broken client can
//! delay the next accept but never wedge the loop past the read
//! timeout. [`serve_once_with`] is the same parser for exactly one
//! connection over a fixed snapshot — the seam the hostile-client
//! tests drive.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use super::{Log2Hist, MachineCounters, ObsSnapshot};

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Appends a `# HELP` + `# TYPE` family header.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders a [`Log2Hist`] as a Prometheus histogram: cumulative
/// `le`-labelled buckets (one per occupied log2 bucket, upper bound =
/// the bucket ceiling), a `+Inf` bucket, `_sum`, and `_count`.
/// `labels` is the pre-rendered shared label set (no braces), empty
/// for an unlabelled family.
fn histogram(out: &mut String, name: &str, labels: &str, hist: &Log2Hist) {
    let mut cumulative = 0u64;
    for (i, &n) in hist.buckets().iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let le = Log2Hist::bucket_ceil(i);
        if labels.is_empty() {
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        } else {
            out.push_str(&format!(
                "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
            ));
        }
    }
    let (lb, rb) = if labels.is_empty() {
        (String::from("{"), String::from("}"))
    } else {
        (format!("{{{labels},"), String::from("}"))
    };
    out.push_str(&format!(
        "{name}_bucket{lb}le=\"+Inf\"{rb} {}\n",
        hist.count()
    ));
    let braced = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{braced} {}\n", hist.sum()));
    out.push_str(&format!("{name}_count{braced} {}\n", hist.count()));
}

/// The machine-counter fields as `(name, value)` pairs, in declaration
/// order. Shared by the Prometheus renderer and the export tests so a
/// new counter cannot silently miss the exposition.
pub fn counter_samples(c: &MachineCounters) -> Vec<(&'static str, u64)> {
    vec![
        ("fires", c.fires),
        ("fires_unarmed", c.fires_unarmed),
        ("table_hits", c.table_hits),
        ("table_misses", c.table_misses),
        ("aborts", c.aborts),
        ("guard_trips", c.guard_trips),
        ("rate_limit_drops", c.rate_limit_drops),
        ("tail_calls", c.tail_calls),
        ("tail_chain_overflows", c.tail_chain_overflows),
        ("decision_cache_hits", c.decision_cache_hits),
        ("decision_cache_misses", c.decision_cache_misses),
        (
            "decision_cache_invalidations",
            c.decision_cache_invalidations,
        ),
        ("decision_cache_evictions", c.decision_cache_evictions),
        ("decision_cache_bypasses", c.decision_cache_bypasses),
        ("opt_fixpoint_cap_hits", c.opt_fixpoint_cap_hits),
    ]
}

/// Renders the snapshot as Prometheus text exposition format.
///
/// Families emitted (all prefixed `rkd_`):
///
/// - `rkd_tick` — machine tick at snapshot time (gauge)
/// - `rkd_machine_events_total{event=...}` — every
///   [`MachineCounters`] field (counter)
/// - `rkd_trace_dropped_total` / `rkd_trace_pending`
/// - `rkd_hook_fires_total{hook=...}` and the
///   `rkd_hook_latency_ns{hook=...}` histogram
/// - `rkd_prog_latency_ns{prog=...}` histogram
/// - per-model: `rkd_model_predictions_total`,
///   `rkd_model_class_total{class=...}`, `rkd_model_outcomes_total`,
///   `rkd_model_outcome_hits_total`,
///   `rkd_model_confusion_total{actual=...,predicted=...}` (non-zero
///   cells only), the `rkd_model_inference_ns` histogram,
///   `rkd_model_window_accuracy_permille` (gauge, -1 before any
///   outcome), and `rkd_model_drift_suspected` (gauge, 0/1) — all
///   labelled `{prog=...,slot=...,model=...}`.
pub fn to_prometheus(snap: &ObsSnapshot) -> String {
    let mut out = String::new();

    family(
        &mut out,
        "rkd_tick",
        "gauge",
        "Machine tick at snapshot time.",
    );
    out.push_str(&format!("rkd_tick {}\n", snap.tick));

    family(
        &mut out,
        "rkd_machine_events_total",
        "counter",
        "Machine-wide datapath event counters.",
    );
    for (name, value) in counter_samples(&snap.counters) {
        out.push_str(&format!(
            "rkd_machine_events_total{{event=\"{name}\"}} {value}\n"
        ));
    }

    family(
        &mut out,
        "rkd_trace_dropped_total",
        "counter",
        "Trace events overwritten before being read.",
    );
    out.push_str(&format!("rkd_trace_dropped_total {}\n", snap.trace_dropped));
    family(
        &mut out,
        "rkd_trace_pending",
        "gauge",
        "Trace events buffered and unread.",
    );
    out.push_str(&format!("rkd_trace_pending {}\n", snap.trace_pending));

    family(
        &mut out,
        "rkd_hook_fires_total",
        "counter",
        "Armed firings per hook.",
    );
    for h in &snap.hooks {
        out.push_str(&format!(
            "rkd_hook_fires_total{{hook=\"{}\"}} {}\n",
            escape_label(&h.hook),
            h.fires
        ));
    }
    family(
        &mut out,
        "rkd_hook_latency_ns",
        "histogram",
        "Whole-fire latency per hook (sampled, nanoseconds).",
    );
    for h in &snap.hooks {
        let labels = format!("hook=\"{}\"", escape_label(&h.hook));
        histogram(&mut out, "rkd_hook_latency_ns", &labels, &h.hist);
    }

    family(
        &mut out,
        "rkd_prog_latency_ns",
        "histogram",
        "Per-pipeline-run latency per program (sampled, nanoseconds).",
    );
    for p in &snap.programs {
        let labels = format!("prog=\"{}\"", p.prog);
        histogram(&mut out, "rkd_prog_latency_ns", &labels, &p.hist);
    }

    family(
        &mut out,
        "rkd_model_predictions_total",
        "counter",
        "Predictions served by the datapath per model slot.",
    );
    for m in &snap.models {
        out.push_str(&format!(
            "rkd_model_predictions_total{{{}}} {}\n",
            model_labels(m),
            m.served
        ));
    }
    family(
        &mut out,
        "rkd_model_class_total",
        "counter",
        "Served predictions per class bin (last bin = overflow).",
    );
    for m in &snap.models {
        for (class, &n) in m.class_counts.iter().enumerate() {
            if n != 0 {
                out.push_str(&format!(
                    "rkd_model_class_total{{{},class=\"{class}\"}} {n}\n",
                    model_labels(m)
                ));
            }
        }
    }
    family(
        &mut out,
        "rkd_model_outcomes_total",
        "counter",
        "Ground-truth outcomes reported per model slot.",
    );
    for m in &snap.models {
        out.push_str(&format!(
            "rkd_model_outcomes_total{{{}}} {}\n",
            model_labels(m),
            m.outcomes
        ));
    }
    family(
        &mut out,
        "rkd_model_outcome_hits_total",
        "counter",
        "Outcomes where the prediction was correct.",
    );
    for m in &snap.models {
        out.push_str(&format!(
            "rkd_model_outcome_hits_total{{{}}} {}\n",
            model_labels(m),
            m.hits
        ));
    }
    family(
        &mut out,
        "rkd_model_confusion_total",
        "counter",
        "Confusion matrix cells (actual x predicted class bins, non-zero only).",
    );
    for m in &snap.models {
        for (actual, row) in m.confusion.iter().enumerate() {
            for (predicted, &n) in row.iter().enumerate() {
                if n != 0 {
                    out.push_str(&format!(
                        "rkd_model_confusion_total{{{},actual=\"{actual}\",predicted=\"{predicted}\"}} {n}\n",
                        model_labels(m)
                    ));
                }
            }
        }
    }
    family(
        &mut out,
        "rkd_model_inference_ns",
        "histogram",
        "Sampled model inference latency (nanoseconds).",
    );
    for m in &snap.models {
        let labels = model_labels(m);
        histogram(&mut out, "rkd_model_inference_ns", &labels, &m.latency);
    }
    family(
        &mut out,
        "rkd_model_window_accuracy_permille",
        "gauge",
        "Rolling prequential accuracy in permille (-1 before any outcome).",
    );
    for m in &snap.models {
        out.push_str(&format!(
            "rkd_model_window_accuracy_permille{{{}}} {}\n",
            model_labels(m),
            m.acc_permille
        ));
    }
    family(
        &mut out,
        "rkd_model_drift_suspected",
        "gauge",
        "1 when windowed accuracy has crossed below the drift threshold.",
    );
    for m in &snap.models {
        out.push_str(&format!(
            "rkd_model_drift_suspected{{{}}} {}\n",
            model_labels(m),
            u64::from(m.drift_suspected)
        ));
    }
    if !snap.ingress.is_empty() {
        family(
            &mut out,
            "rkd_ingress_depth",
            "gauge",
            "Messages queued in the shard's ingress ring at snapshot time.",
        );
        for i in &snap.ingress {
            out.push_str(&format!(
                "rkd_ingress_depth{{shard=\"{}\"}} {}\n",
                i.shard, i.depth
            ));
        }
        family(
            &mut out,
            "rkd_ingress_enqueued_total",
            "counter",
            "Messages ever pushed into the shard's ingress ring.",
        );
        for i in &snap.ingress {
            out.push_str(&format!(
                "rkd_ingress_enqueued_total{{shard=\"{}\"}} {}\n",
                i.shard, i.enqueued
            ));
        }
        family(
            &mut out,
            "rkd_ingress_full_stalls_total",
            "counter",
            "Times the driver found the shard's ingress ring full.",
        );
        for i in &snap.ingress {
            out.push_str(&format!(
                "rkd_ingress_full_stalls_total{{shard=\"{}\"}} {}\n",
                i.shard, i.full_stalls
            ));
        }
        family(
            &mut out,
            "rkd_ingress_parks_total",
            "counter",
            "Times the shard worker parked waiting for ingress.",
        );
        for i in &snap.ingress {
            out.push_str(&format!(
                "rkd_ingress_parks_total{{shard=\"{}\"}} {}\n",
                i.shard, i.parks
            ));
        }
    }
    if snap.ingress_should_rebalance >= 0 {
        family(
            &mut out,
            "rkd_shard_should_rebalance",
            "gauge",
            "1 when the skew balancer would rotate the partition seed.",
        );
        out.push_str(&format!(
            "rkd_shard_should_rebalance {}\n",
            snap.ingress_should_rebalance
        ));
    }

    out
}

fn model_labels(m: &super::ModelStatsSnapshot) -> String {
    format!(
        "prog=\"{}\",slot=\"{}\",model=\"{}\"",
        m.prog,
        m.slot,
        escape_label(&m.name)
    )
}

/// Renders the snapshot as compact JSON through the hermetic testkit
/// codec — the same document [`crate::snapshot::to_json_string`]
/// produces, so it parses back with
/// [`crate::snapshot::from_json_str`].
pub fn to_json(snap: &ObsSnapshot) -> String {
    rkd_testkit::json::to_string(snap)
}

/// Tunables for [`serve_until`] and [`serve_once_with`]. `Default`:
/// 5-second read timeout, 16 KiB head cap.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// How long a blocking read may wait for request bytes before the
    /// client is answered with `408 Request Timeout` and dropped.
    pub read_timeout: Duration,
    /// Maximum bytes of request head accepted before the client is
    /// answered with `431 Request Header Fields Too Large`.
    pub max_head_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            read_timeout: Duration::from_secs(5),
            max_head_bytes: 16 * 1024,
        }
    }
}

/// Serves exactly one HTTP request from `listener`, then returns.
///
/// Routes:
///
/// - `GET /metrics` → `200`, `text/plain; version=0.0.4`, the
///   [`to_prometheus`] rendering
/// - `GET /metrics.json` → `200`, `application/json`, the [`to_json`]
///   rendering
/// - `GET` anything else → `404`
/// - non-`GET` method → `405` (with `Allow: GET`)
/// - unparseable request line → `400`
/// - client stalls past `opts.read_timeout` → `408`, connection
///   dropped
/// - request head exceeds `opts.max_head_bytes` → `431`
///
/// Blocking by design: `accept` waits for a client, every read is
/// bounded by `opts.read_timeout` so a slow-loris client cannot wedge
/// the caller, and the connection is closed after the response
/// (`Connection: close`). Returns the request path served (for error
/// responses, a `"!"`-prefixed status tag such as `"!408"` so callers
/// can distinguish scrapes from junk).
pub fn serve_once_with(
    listener: &TcpListener,
    snap: &ObsSnapshot,
    opts: ServeOptions,
) -> std::io::Result<String> {
    let (mut stream, _peer) = listener.accept()?;
    handle_conn(
        &mut stream,
        &mut |path| match path {
            "/metrics" => Some((PROMETHEUS_CONTENT_TYPE, to_prometheus(snap))),
            "/metrics.json" => Some(("application/json", to_json(snap))),
            _ => None,
        },
        opts,
    )
}

/// Content type of the Prometheus text exposition.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// What a persistent server ([`serve_until`]) answers from: a live
/// source of observability snapshots plus read-only control-plane
/// queries. Methods take `&mut self` so implementers may refresh
/// internal state per request; the provided implementations
/// ([`RmtMachine`](crate::machine::RmtMachine) and
/// [`ShardedMachine`](crate::shard::ShardedMachine)) only read.
pub trait MetricsSource {
    /// Snapshot served at `/metrics` and `/metrics.json`.
    fn obs(&mut self) -> ObsSnapshot;

    /// JSON body for a read-only `GET /ctrl/*` query, or `None` for
    /// 404. The provided implementations answer `/ctrl/counters`
    /// (machine-wide counters), `/ctrl/models` (per-model telemetry),
    /// `/ctrl/stages` (the aggregated span stage profile), and —
    /// sharded only — `/ctrl/shards` (per-shard convergence).
    fn ctrl_query(&mut self, path: &str) -> Option<String>;

    /// Chrome `trace_event` JSON for `GET /trace`, draining the span
    /// rings (see [`crate::obs::span::chrome_trace_json`]). `None` —
    /// the default — answers 404 for sources without span tracing.
    fn trace_json(&mut self) -> Option<String> {
        None
    }
}

/// Serves requests from `listener` until `stop` becomes `true`,
/// returning how many connections were answered (error responses
/// included).
///
/// Routes: everything [`serve_once_with`] answers, rendered fresh from
/// `source` per request, plus read-only `GET /ctrl/*` queries
/// (JSON; see [`MetricsSource::ctrl_query`]). Each request goes
/// through the same hardened parser as the one-shot server — same
/// timeouts, head cap, and error statuses — and a client that fails
/// mid-request is dropped without taking the loop down.
///
/// Shutdown is graceful: the listener polls in short non-blocking
/// waits, so the loop notices `stop` within a few milliseconds even
/// when idle, finishes any request already accepted, restores the
/// listener to blocking mode, and returns.
pub fn serve_until<S: MetricsSource + ?Sized>(
    listener: &TcpListener,
    source: &mut S,
    stop: &AtomicBool,
    opts: ServeOptions,
) -> std::io::Result<u64> {
    listener.set_nonblocking(true)?;
    let mut served = 0u64;
    let result = loop {
        if stop.load(Ordering::Acquire) {
            break Ok(served);
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // The listener is non-blocking; the accepted stream
                // must not be — reads are bounded by the timeout.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let r = handle_conn(
                    &mut stream,
                    &mut |path| match path {
                        "/metrics" => Some((PROMETHEUS_CONTENT_TYPE, to_prometheus(&source.obs()))),
                        "/metrics.json" => Some(("application/json", to_json(&source.obs()))),
                        "/trace" => source.trace_json().map(|body| ("application/json", body)),
                        p if p.starts_with("/ctrl/") => {
                            source.ctrl_query(p).map(|body| ("application/json", body))
                        }
                        _ => None,
                    },
                    opts,
                );
                // A client that vanished mid-response is its problem,
                // not the server's.
                if r.is_ok() {
                    served += 1;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => break Err(e),
        }
    };
    let _ = listener.set_nonblocking(false);
    result
}

/// Reads one request head from `stream`, routes it, writes one
/// response, and returns the tag ([`serve_once_with`] semantics).
/// `route` maps a GET path to `(content_type, body)`; `None` is 404.
fn handle_conn(
    stream: &mut TcpStream,
    route: &mut dyn FnMut(&str) -> Option<(&'static str, String)>,
    opts: ServeOptions,
) -> std::io::Result<String> {
    stream.set_read_timeout(Some(opts.read_timeout))?;

    // Read until the end of the request head. One request per
    // connection; the body (if any) is ignored.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let mut overflow = false;
    let mut timed_out = false;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                timed_out = true;
                break;
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        // The `\r\n\r\n` terminator can only appear where this chunk
        // landed (or straddling its boundary by up to 3 bytes), so
        // scan just that tail window — rescanning the whole head per
        // chunk is O(n²) against a drip-feeding client.
        let start = buf.len().saturating_sub(n + 3);
        if buf[start..].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() > opts.max_head_bytes {
            overflow = true;
            break;
        }
    }

    // Parse the request line: METHOD SP PATH SP VERSION.
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut words = request_line.split_whitespace();
    let method = words.next().unwrap_or("");
    let path = words.next();

    let (tag, status, content_type, extra_header, body) = if timed_out {
        (
            String::from("!408"),
            "408 Request Timeout",
            "text/plain; charset=utf-8",
            "",
            String::from("request head not received in time\n"),
        )
    } else if overflow {
        (
            String::from("!431"),
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "",
            String::from("request head too large\n"),
        )
    } else if method.is_empty() || path.is_none() {
        (
            String::from("!400"),
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "",
            String::from("malformed request line\n"),
        )
    } else if method != "GET" {
        (
            String::from("!405"),
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "Allow: GET\r\n",
            String::from("only GET is supported\n"),
        )
    } else {
        let path = path.unwrap_or("/").to_string();
        match route(&path) {
            Some((ct, body)) => (path, "200 OK", ct, "", body),
            None => (
                path,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "",
                String::from("not found: try /metrics or /metrics.json\n"),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra_header}Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    Ok(tag)
}

#[cfg(test)]
mod tests {
    use super::super::{HookStats, ModelStats, ObsConfig, ProgHist};
    use super::*;

    fn sample_snapshot() -> ObsSnapshot {
        let mut hist = Log2Hist::new();
        hist.record(100);
        hist.record(3000);
        let mut ms = ModelStats::new();
        let cfg = ObsConfig::default();
        ms.record_prediction(1, Some(250));
        ms.record_prediction(2, None);
        ms.record_outcome(1, 1, &cfg);
        ms.record_outcome(2, 1, &cfg);
        ObsSnapshot {
            tick: 42,
            counters: MachineCounters {
                fires: 7,
                table_hits: 5,
                table_misses: 2,
                decision_cache_hits: 3,
                ..MachineCounters::default()
            },
            hooks: vec![HookStats {
                hook: "net_rx".into(),
                fires: 7,
                hist: hist.clone(),
            }],
            programs: vec![ProgHist { prog: 1, hist }],
            models: vec![ms.snapshot(1, 0, "clf".into())],
            trace_dropped: 0,
            trace_pending: 2,
            ingress: vec![super::super::IngressShardStats {
                shard: 1,
                depth: 5,
                enqueued: 77,
                full_stalls: 3,
                parks: 9,
            }],
            ingress_should_rebalance: 1,
        }
    }

    #[test]
    fn prometheus_renders_all_counter_fields() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        for (name, value) in counter_samples(&snap.counters) {
            let line = format!("rkd_machine_events_total{{event=\"{name}\"}} {value}");
            assert!(text.contains(&line), "missing {line:?}");
        }
        assert!(text.contains("rkd_tick 42"));
        assert!(text.contains("rkd_hook_fires_total{hook=\"net_rx\"} 7"));
        assert!(text.contains("rkd_model_predictions_total{prog=\"1\",slot=\"0\",model=\"clf\"} 2"));
        assert!(text
            .contains("rkd_model_confusion_total{prog=\"1\",slot=\"0\",model=\"clf\",actual=\"1\",predicted=\"1\"} 1"));
        assert!(text.contains(
            "rkd_model_window_accuracy_permille{prog=\"1\",slot=\"0\",model=\"clf\"} 500"
        ));
        // Exactly one TYPE header per family.
        let types = text
            .lines()
            .filter(|l| l.starts_with("# TYPE rkd_machine_events_total "))
            .count();
        assert_eq!(types, 1);
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let mut hist = Log2Hist::new();
        hist.record(3); // bucket ceil 3
        hist.record(3);
        hist.record(40); // bucket ceil 63
        let mut out = String::new();
        histogram(&mut out, "x_ns", "", &hist);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "x_ns_bucket{le=\"3\"} 2",
                "x_ns_bucket{le=\"63\"} 3",
                "x_ns_bucket{le=\"+Inf\"} 3",
                "x_ns_sum 46",
                "x_ns_count 3",
            ]
        );
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_export_round_trips() {
        let snap = sample_snapshot();
        let json = to_json(&snap);
        let back: ObsSnapshot = rkd_testkit::json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
