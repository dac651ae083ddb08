//! Machine-readable rendering of metric sets.
//!
//! The exporter is a deliberately dumb builder: callers push named
//! counters, gauges, and [`HistogramSnapshot`]s, then render the whole set
//! as **Prometheus text exposition** (counters/gauges plus summary-style
//! quantiles) or as a **flat JSON object** whose keys are stable enough to
//! assert in CI — a histogram `foo` expands to `foo_count`, `foo_sum_ns`,
//! `foo_mean_ns`, `foo_p50_ns`, `foo_p90_ns`, `foo_p99_ns`, `foo_max_ns`.
//! Its `Display` is the human-readable view: one line per counter and
//! gauge, then one p50/p90/p99/max/count table of the histograms.
//!
//! The renderers are allocation-light and dependency-free (no serde in
//! this workspace); JSON numbers are emitted from finite values only, so
//! the output always parses.

use crate::histogram::HistogramSnapshot;
use std::fmt;
use std::time::Duration;

/// Quantiles every exported histogram reports.
pub const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")];

/// One exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A latency distribution.
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    help: String,
    value: MetricValue,
}

/// A buildable, renderable set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Exporter {
    metrics: Vec<Metric>,
}

impl Exporter {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one metric; histograms render as the quantiles of
    /// [`EXPORT_QUANTILES`] plus count, sum and max.
    pub fn push(&mut self, name: &str, help: &str, value: MetricValue) -> &mut Self {
        debug_assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "metric names must be [A-Za-z0-9_]: {name}"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value,
        });
        self
    }

    /// Renders Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {}\n", m.name, m.name, v));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "# TYPE {} gauge\n{} {}\n",
                        m.name,
                        m.name,
                        finite(*v)
                    ));
                }
                MetricValue::Histogram(s) => {
                    out.push_str(&format!("# TYPE {} summary\n", m.name));
                    for (q, _) in EXPORT_QUANTILES {
                        out.push_str(&format!(
                            "{}{{quantile=\"{}\"}} {}\n",
                            m.name,
                            q,
                            s.quantile(q)
                        ));
                    }
                    out.push_str(&format!("{}_sum {}\n", m.name, s.sum_ns()));
                    out.push_str(&format!("{}_count {}\n", m.name, s.count()));
                    out.push_str(&format!("{}_max {}\n", m.name, s.max_ns()));
                }
            }
        }
        out
    }

    /// Renders one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => fields.push(format!("\"{}\":{}", m.name, v)),
                MetricValue::Gauge(v) => fields.push(format!("\"{}\":{}", m.name, finite(*v))),
                MetricValue::Histogram(s) => {
                    fields.push(format!("\"{}_count\":{}", m.name, s.count()));
                    fields.push(format!("\"{}_sum_ns\":{}", m.name, s.sum_ns()));
                    fields.push(format!("\"{}_mean_ns\":{}", m.name, finite(s.mean_ns())));
                    for (q, label) in EXPORT_QUANTILES {
                        fields.push(format!("\"{}_{}_ns\":{}", m.name, label, s.quantile(q)));
                    }
                    fields.push(format!("\"{}_max_ns\":{}", m.name, s.max_ns()));
                }
            }
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// JSON/Prometheus-safe float rendering: NaN/∞ become 0 so the document
/// always parses.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl fmt::Display for Exporter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut histograms = Vec::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => writeln!(f, "{:<width$} {v}", m.name)?,
                MetricValue::Gauge(v) => writeln!(f, "{:<width$} {:.4}", m.name, finite(*v))?,
                MetricValue::Histogram(s) => histograms.push((&m.name, s)),
            }
        }
        if histograms.is_empty() {
            return Ok(());
        }
        let ns = |v: u64| format!("{:?}", Duration::from_nanos(v));
        write!(f, "{:<width$}", "")?;
        for (_, label) in EXPORT_QUANTILES {
            write!(f, " {label:>10}")?;
        }
        writeln!(f, " {:>10} {:>9}", "max", "count")?;
        for (name, s) in histograms {
            write!(f, "{name:<width$}")?;
            for (q, _) in EXPORT_QUANTILES {
                write!(f, " {:>10}", ns(s.quantile(q)))?;
            }
            writeln!(f, " {:>10} {:>9}", ns(s.max_ns()), s.count())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_hist() -> HistogramSnapshot {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 4000] {
            h.record_ns(v);
        }
        h.snapshot()
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let mut e = Exporter::new();
        e.push(
            "serve_requests",
            "requests accepted",
            MetricValue::Counter(42),
        )
        .push(
            "serve_cache_hit_rate",
            "hit fraction",
            MetricValue::Gauge(0.75),
        )
        .push(
            "serve_stage_score",
            "score stage latency",
            MetricValue::Histogram(sample_hist()),
        );
        let text = e.to_prometheus();
        assert!(text.contains("# TYPE serve_requests counter"));
        assert!(text.contains("serve_requests 42"));
        assert!(text.contains("serve_cache_hit_rate 0.75"));
        assert!(text.contains("serve_stage_score{quantile=\"0.5\"}"));
        assert!(text.contains("serve_stage_score_count 4"));
        assert!(text.contains("serve_stage_score_max 4000"));
    }

    #[test]
    fn json_is_flat_and_parseable_shaped() {
        let mut e = Exporter::new();
        e.push("requests", "r", MetricValue::Counter(7))
            .push("rate", "g", MetricValue::Gauge(f64::NAN))
            .push("lat", "h", MetricValue::Histogram(sample_hist()));
        let json = e.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests\":7"));
        assert!(json.contains("\"rate\":0"), "NaN must render finite");
        assert!(json.contains("\"lat_count\":4"));
        assert!(json.contains("\"lat_p50_ns\":"));
        assert!(json.contains("\"lat_p99_ns\":"));
        assert!(json.contains("\"lat_max_ns\":4000"));
        // p99 >= p50 — the invariant the CI gate asserts on the real file.
        let grab = |key: &str| -> u64 {
            let at = json.find(key).unwrap() + key.len();
            json[at..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        assert!(grab("\"lat_p99_ns\":") >= grab("\"lat_p50_ns\":"));
    }

    #[test]
    fn display_lists_scalars_then_one_percentile_table() {
        let mut e = Exporter::new();
        e.push("requests", "r", MetricValue::Counter(7))
            .push("lat", "h", MetricValue::Histogram(sample_hist()))
            .push("rate", "g", MetricValue::Gauge(0.25));
        let text = e.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert_eq!(lines[0], "requests 7");
        assert_eq!(lines[1], "rate     0.2500");
        for column in ["p50", "p90", "p99", "max", "count"] {
            assert!(lines[2].contains(column), "{text}");
        }
        assert!(lines[3].starts_with("lat "), "{text}");
        assert!(lines[3].ends_with(" 4"), "the count closes the row: {text}");
        assert!(
            lines[3].contains("4µs"),
            "the max renders as a duration: {text}"
        );
    }

    #[test]
    fn empty_exporter_renders_empty_documents() {
        let e = Exporter::new();
        assert_eq!(e.to_json(), "{}");
        assert_eq!(e.to_prometheus(), "");
        assert_eq!(e.to_string(), "");
    }
}
