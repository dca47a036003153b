//! Prometheus-style text exposition of the daemon's metrics registry.
//!
//! The `metrics` verb returns this as a single string so any scraper —
//! or the CI exposition lint — can consume daemon telemetry without
//! speaking the framed-JSON protocol. Conventions follow the Prometheus
//! text format:
//!
//! * every sample is preceded by a `# TYPE` line,
//! * counter names get a `_total` suffix,
//! * histograms are exported as summaries: `{quantile="0.5"}` /
//!   `{quantile="0.99"}` samples plus `_sum` and `_count`,
//! * gauges (queue depth, in-flight, drain flag) are point-in-time.
//!
//! Registry names like `serve.job_us` become `dpml_serve_job_us`: a
//! `dpml_` namespace prefix, with every non-alphanumeric character
//! mapped to `_`.

use dpml_shm::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// Map a registry name onto the exposition namespace:
/// `serve.cache_hit` → `dpml_serve_cache_hit`.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("dpml_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a full exposition: every counter and histogram in `snap`, plus
/// caller-supplied point-in-time gauges.
pub fn exposition(snap: &MetricsSnapshot, gauges: &[(&str, u64)]) -> String {
    let mut out = String::new();
    for (name, value) in gauges {
        let n = metric_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    for c in &snap.counters {
        let n = metric_name(&c.name);
        let _ = writeln!(out, "# TYPE {n}_total counter");
        let _ = writeln!(out, "{n}_total {}", c.value);
    }
    for h in &snap.histograms {
        let n = metric_name(&h.name);
        let _ = writeln!(out, "# TYPE {n} summary");
        let _ = writeln!(out, "{n}{{quantile=\"0.5\"}} {}", h.p50);
        let _ = writeln!(out, "{n}{{quantile=\"0.99\"}} {}", h.p99);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpml_shm::Registry;

    #[test]
    fn names_are_namespaced_and_sanitized() {
        assert_eq!(metric_name("serve.cache_hit"), "dpml_serve_cache_hit");
        assert_eq!(metric_name("engine.events"), "dpml_engine_events");
        assert_eq!(metric_name("a-b c"), "dpml_a_b_c");
    }

    #[test]
    fn exposition_covers_counters_histograms_and_gauges() {
        let reg = Registry::new();
        reg.counter("serve.cache_hit").add(3);
        reg.histogram("serve.job_us").record(10);
        let text = exposition(&reg.snapshot(), &[("serve.queue_depth", 2)]);
        assert!(text.contains("# TYPE dpml_serve_queue_depth gauge\ndpml_serve_queue_depth 2\n"));
        assert!(text
            .contains("# TYPE dpml_serve_cache_hit_total counter\ndpml_serve_cache_hit_total 3\n"));
        assert!(text.contains("# TYPE dpml_serve_job_us summary"));
        assert!(text.contains("dpml_serve_job_us{quantile=\"0.5\"}"));
        assert!(text.contains("dpml_serve_job_us_sum 10"));
        assert!(text.contains("dpml_serve_job_us_count 1"));
    }

    #[test]
    fn every_sample_line_has_a_type_line() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.histogram("b").record(1);
        let text = exposition(&reg.snapshot(), &[("g", 0)]);
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                typed.insert(name.to_string());
            } else {
                let sample = line.split(['{', ' ']).next().unwrap();
                let base = sample
                    .strip_suffix("_sum")
                    .or_else(|| sample.strip_suffix("_count"))
                    .unwrap_or(sample);
                assert!(
                    typed.contains(base),
                    "sample `{sample}` has no preceding # TYPE line"
                );
            }
        }
    }
}
