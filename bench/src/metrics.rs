//! The metric names this benchmark defines. `BENCHMARK.json` at the repo
//! root lists the same names (a unit test compares the two); README.md
//! gives each one's definition and the layer → end-to-end predictions.

/// `(name, unit)` of every end-to-end metric of the contract: the ones
/// every workload reports from its untraced run. A metric only some
/// workloads have (`reconfig_p50_us`, `install_p50_us`, …) is printed
/// where it exists and named unmeasured elsewhere; it cannot be here.
/// `event_p99_ns` is printed by all four but repeats within a tenth on
/// two of them only, so it has no bound and is not here either.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("event_p50_ns", "ns"),
    ("decision_quality_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric of the contract: the ones
/// every workload's traced run measures on its own path. The spans of
/// one workload's calls, `shard.*`, `stage.*` and the layer probes are
/// printed by the run that measures them and are not listed here.
pub const PER_LAYER: [(&str, &str); 13] = [
    ("event.untraced_per_s", "1/s"),
    ("event.traced_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("bench.harness_pct", "%"),
    ("event.p99_ns", "ns"),
    ("event.p999_ns", "ns"),
    ("machine.fires_per_event", "count"),
    ("machine.cache_hit_pct", "%"),
    ("machine.cache_evictions", "count"),
    ("machine.cache_invalidations", "count"),
    ("machine.table_hit_pct", "%"),
    ("machine.tail_calls_per_fire", "count"),
    ("machine.aborts", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rkd_testkit::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Json::Str(n)) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        assert!(all.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }
}
