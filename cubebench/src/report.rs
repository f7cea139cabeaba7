//! Metric names, units, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's whole vocabulary:
//! every run prints exactly one of the two sets, and a test holds both in
//! step with `BENCHMARK.json`.

/// End-to-end metrics: `(name, unit)`. Printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("store_mb", "MB"),
    ("qps", "queries/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("point_p99_us", "us"),
    ("slice_p99_us", "us"),
    ("topk_p99_us", "us"),
    ("rollup_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.gen_s", "s"),
    ("sketch.round_s", "s"),
    ("sketch.codec_us", "us"),
    ("sketch.sample_tuples", "count"),
    ("sketch.bytes", "bytes"),
    ("sketch.skewed_groups", "count"),
    ("mr.cube_round_s", "s"),
    ("mr.map_output_records", "count"),
    ("mr.map_output_bytes", "bytes"),
    ("mr.reducer_imbalance", "ratio"),
    ("mr.largest_group_values", "count"),
    ("mr.spilled_bytes", "bytes"),
    ("spcube.driver_s", "s"),
    ("cubealg.buc_s", "s"),
    ("store.write_s", "s"),
    ("store.encode_s", "s"),
    ("store.put_s", "s"),
    ("store.segments", "count"),
    ("store.bytes_per_group", "bytes"),
    ("store.open_ms", "ms"),
    ("blob.get_us", "us"),
    ("segment.decode_ms_total", "ms"),
    ("segment.decode_ms_base", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses", "count"),
    ("kernel.point_p50_us", "us"),
    ("kernel.point_p99_us", "us"),
    ("kernel.slice_p50_us", "us"),
    ("kernel.slice_p99_us", "us"),
    ("kernel.topk_p50_us", "us"),
    ("kernel.topk_p99_us", "us"),
    ("kernel.rollup_p50_us", "us"),
    ("kernel.rollup_p99_us", "us"),
    ("kernel.len_p50_us", "us"),
    ("kernel.len_p99_us", "us"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.overload_rejections", "count"),
    ("client.retries", "count"),
    ("client.hedges_fired", "count"),
    ("delta.ingest_ms", "ms"),
    ("delta.compact_ms", "ms"),
    ("delta.merge_ms", "ms"),
    ("delta.layers", "count"),
    ("delta.rows", "count"),
    ("delta.bytes", "bytes"),
    ("traced.setup_s", "s"),
    ("traced.build_s", "s"),
    ("traced.store_mb", "MB"),
    ("traced.qps", "queries/s"),
    ("traced.p50_us", "us"),
    ("traced.p99_us", "us"),
    ("traced.point_p99_us", "us"),
    ("traced.slice_p99_us", "us"),
    ("traced.topk_p99_us", "us"),
    ("traced.rollup_p99_us", "us"),
    ("traced.peak_rss_mb", "MB"),
    ("trace.build_overhead_pct", "%"),
    ("trace.qps_overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many raw samples the value was taken from, where that applies.
    pub samples: Option<usize>,
}

/// Look up the unit registered for `name` in either list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not registered"))
}

/// A metric with its registered unit.
pub fn metric(name: &str, value: f64, samples: Option<usize>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit_of(name),
        samples,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One JSON object of string fields (the run record).
pub fn record_line(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

/// A human-readable line per metric, with its sample count.
pub fn metric_line(m: &Metric) -> String {
    match m.samples {
        Some(n) => format!("{} = {} {} (n={n})", m.name, m.value, m.unit),
        None => format!("{} = {} {}", m.name, m.value, m.unit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    /// The `[...]` array that follows `"key":` in the manifest.
    fn section<'a>(json: &'a str, key: &str) -> &'a str {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no `{key}` in BENCHMARK.json"));
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        &json[open..=close]
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let json = benchmark_json();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let sec = section(&json, key);
            assert_eq!(
                sec.matches("\"name\"").count(),
                list.len(),
                "`{key}` lists a different number of metrics than the registry"
            );
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(sec.contains(&entry), "`{key}` lacks {entry}");
            }
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[metric("qps", 12.5, Some(3))]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 12.5, \"unit\": \"queries/s\"}}}"
        );
    }
}
