//! The metric catalog (mirrored by `BENCHMARK.json`) and the result
//! set one run fills in.

use crate::stats::Spread;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("payload_gbps", "GB/s"),
    ("virtual_gm_us", "us"),
    ("sim_cpu_gm_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("selector.auto_ns", "ns"),
    ("selector.hier_share", "share"),
    ("selector.regret", "ratio"),
    ("costmodel.pred_ratio", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.hit_rate", "share"),
    ("cache.misses", "count"),
    ("cache.entries", "count"),
    ("lower.ns", "ns"),
    ("lower.steps", "count"),
    ("opt.ns", "ns"),
    ("opt.msgs_in", "count"),
    ("opt.msgs_out", "count"),
    ("exec.self_ns", "ns"),
    ("algorithms.self_ns", "ns"),
    ("runtime.comm_ns", "ns"),
    ("runtime.msgs", "count"),
    ("runtime.bytes", "B"),
    ("runtime.ns_per_msg", "ns"),
    ("runtime.pool_hit_rate", "share"),
    ("host.memcpy_gbps", "GB/s"),
    ("op.combine_gbps", "GB/s"),
    ("meshsim.transfers", "count"),
    ("meshsim.us_per_transfer", "us"),
    ("meshsim.rank_threads", "count"),
    ("trace.overhead", "ratio"),
];

/// One reported metric with the spread of the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Spread,
}

/// The metrics of one run, checked against the catalog.
pub struct MetricSet {
    catalog: &'static [(&'static str, &'static str)],
    items: Vec<Metric>,
}

impl MetricSet {
    pub fn new(trace: bool) -> Self {
        MetricSet {
            catalog: if trace { &PER_LAYER } else { &END_TO_END },
            items: Vec::new(),
        }
    }

    /// Records `name = value`, with the samples it summarizes.
    pub fn put(&mut self, name: &str, value: f64, samples: &[f64]) {
        let &(name, unit) = self
            .catalog
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        assert!(
            self.items.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.items.push(Metric {
            name,
            unit,
            value,
            spread: Spread::of(samples),
        });
    }

    /// The metrics in catalog order, or the names that are missing or
    /// not finite.
    pub fn finish(self) -> Result<Vec<Metric>, String> {
        let mut out = Vec::new();
        let mut bad = Vec::new();
        for (name, _) in self.catalog {
            match self.items.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => out.push(m.clone()),
                Some(_) => bad.push(format!("{name} (not finite)")),
                None => bad.push(format!("{name} (missing)")),
            }
        }
        if bad.is_empty() {
            Ok(out)
        } else {
            Err(bad.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_obs::json::{parse, Value};

    fn catalog(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(catalog(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(catalog(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn missing_metrics_are_reported() {
        let mut m = MetricSet::new(false);
        m.put("setup_s", 1.0, &[1.0]);
        let err = m.finish().unwrap_err();
        assert!(err.contains("call_p50_us (missing)"));
        assert!(!err.contains("setup_s"));
    }
}
