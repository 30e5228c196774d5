//! Metric names, units and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::stats::Summary;

/// End-to-end metrics: `(name, unit, better)`. Every untraced run
/// prints all of them.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("swap_p50_ms", "ms", "lower"),
    ("table1_ms", "ms", "lower"),
    ("table2_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`. Every traced run prints
/// all of them.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("net.protocol.encode_ns", "ns", "lower"),
    ("net.protocol.decode_ns", "ns", "lower"),
    ("net.tenant.try_take_ns", "ns", "lower"),
    ("net.server.self_p50_us", "us", "lower"),
    ("serve.roundtrip_p50_us", "us", "lower"),
    ("ledger.latency_p50_us", "us", "lower"),
    ("ledger.codec_us", "us", "lower"),
    ("serve.cache_off.latency_p50_us", "us", "lower"),
    ("tier.off.latency_p50_us", "us", "lower"),
    ("gen.lag_p50_us", "us", "lower"),
    ("gen.lag_p99_us", "us", "lower"),
    ("gen.backlog_end", "count", "lower"),
    ("serve.deadline_flush_share", "ratio", "lower"),
    ("serve.full_flush_share", "ratio", "higher"),
    ("serve.lane_occupancy", "ratio", "higher"),
    ("serve.flush_wait_p50_us", "us", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.submit_ns", "ns", "lower"),
    ("sim.eval_ns_per_lane", "ns", "lower"),
    ("sim.eval_share", "ratio", "lower"),
    ("logic.eval.pack_ns_per_lane", "ns", "lower"),
    ("logic.eval.unpack_ns_per_lane", "ns", "lower"),
    ("tier.lookup_ns", "ns", "lower"),
    ("tier.build_us", "us", "lower"),
    ("espresso.urp_us.max46", "us", "lower"),
    ("espresso.urp_us.apla", "us", "lower"),
    ("espresso.urp_us.t2", "us", "lower"),
    ("espresso.expand_us.max46", "us", "lower"),
    ("espresso.expand_us.apla", "us", "lower"),
    ("espresso.expand_us.t2", "us", "lower"),
    ("espresso.irredundant_us.max46", "us", "lower"),
    ("espresso.irredundant_us.apla", "us", "lower"),
    ("espresso.irredundant_us.t2", "us", "lower"),
    ("espresso.reduce_us.max46", "us", "lower"),
    ("espresso.reduce_us.apla", "us", "lower"),
    ("espresso.reduce_us.t2", "us", "lower"),
    ("core.gnor_build_us", "us", "lower"),
    ("sim.check_equivalent_us", "us", "lower"),
    ("fpga.place_ms.standard", "ms", "lower"),
    ("fpga.place_ms.cnfet", "ms", "lower"),
    ("fpga.route_ms.standard", "ms", "lower"),
    ("fpga.route_ms.cnfet", "ms", "lower"),
    ("fpga.timing_us", "us", "lower"),
    ("espresso.cubes.max46", "count", "lower"),
    ("espresso.cubes.apla", "count", "lower"),
    ("espresso.cubes.t2", "count", "lower"),
    ("fpga.routed_connections.standard", "count", "lower"),
    ("fpga.routed_connections.cnfet", "count", "lower"),
    ("trace.overhead.latency_p50_us", "us", "lower"),
    ("trace.overhead.throughput_rps", "1/s", "higher"),
];

/// One measured metric and the spread of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub spread: Summary,
}

/// Collects metrics by name; units come from the tables above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, spread: Summary) {
        self.0.insert(name.into(), Metric { value, spread });
    }

    /// A metric whose value is its own single observation.
    pub fn one(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, value, Summary::one(value));
    }

    /// A metric reported as the median of its samples.
    pub fn median(&mut self, name: impl Into<String>, spread: Summary) {
        self.set(name, spread.median, spread);
    }

    /// Names that `table` lists but are missing, or present but unlisted
    /// or not finite.
    pub fn mismatches(&self, table: &[(&str, &str, &str)]) -> Vec<String> {
        let mut bad: Vec<String> = table
            .iter()
            .filter(|(n, _, _)| !self.0.contains_key(*n))
            .map(|(n, _, _)| format!("missing {n}"))
            .collect();
        for (name, m) in &self.0 {
            if !table.iter().any(|(n, _, _)| n == name) {
                bad.push(format!("unlisted {name}"));
            }
            if !m.value.is_finite() {
                bad.push(format!("non-finite {name}"));
            }
        }
        bad
    }

    /// `{"name": {"value": v, "unit": u}, ...}`, plus the spread when
    /// `with_spread` is set.
    pub fn json(&self, table: &[(&str, &str, &str)], with_spread: bool) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            let unit = table
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or("", |(_, u, _)| u);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"",
                num(m.value)
            );
            if with_spread {
                let s = m.spread;
                let _ = write!(
                    out,
                    ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                    num(s.median),
                    num(s.q1),
                    num(s.q3),
                    s.n
                );
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust prints for the `f64`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit, better)` triples of one metric list in
    /// `BENCHMARK.json`, read without a JSON library: the file is small
    /// and its metric objects are flat.
    fn listed(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn json_lists_values_with_units() {
        let mut m = Metrics::default();
        m.one("setup_s", 0.25);
        assert_eq!(
            m.json(&END_TO_END, false),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
        );
        assert_eq!(m.mismatches(&END_TO_END).len(), 8);
    }
}
