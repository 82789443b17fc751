//! Metric records and the run's printed report.

use crate::stats::{self, Summary};
use sparker_profiles::JsonValue;
use std::collections::BTreeMap;

/// One reported metric: its value plus the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// Highest percentile with at least ten samples beyond it, for timings.
    pub tail: Option<(f64, f64)>,
    /// Quartiles of the samples, when there are at least two.
    pub quartiles: Option<[f64; 3]>,
}

/// The metrics of one run plus its output-gate tally.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunReport {
    /// A timing or ratio reported as the median of `values`.
    pub fn median(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        let Summary { n, median, tail } = stats::summarize(values);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: median,
            samples: n,
            tail,
            quartiles: (n >= 2).then(|| stats::quartiles(values)),
        });
    }

    /// Nearest-rank percentile `p` of `values`, with the sample count
    /// behind it (0 from no samples when `values` is empty).
    pub fn percentile(&mut self, name: &str, unit: &'static str, values: &[f64], p: f64) {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: if v.is_empty() {
                0.0
            } else {
                stats::percentile(&v, p)
            },
            samples: v.len(),
            tail: None,
            quartiles: None,
        });
    }

    /// A single measured value (a count, or a figure derived once per run).
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            tail: None,
            quartiles: None,
        });
    }

    /// A layer the workload does not run: 0, from no samples.
    pub fn absent(&mut self, name: &str, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: 0.0,
            samples: 0,
            tail: None,
            quartiles: None,
        });
    }

    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("OUTPUT MISMATCH: {}", what()));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable lines: every metric by name, unit and sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(line);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {:<34} {:>14.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            ));
            if let Some([q1, _, q3]) = m.quartiles {
                out.push_str(&format!("  q1={q1:.6} q3={q3:.6}"));
            }
            if let Some((p, v)) = m.tail {
                out.push_str(&format!("  p{p}={v:.6}"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "output checks: {} attempted, {} failed (fail_ratio {:.6})\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// metrics named in `names`, in that order.
    pub fn result_json(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {}", m.value));
            }
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), JsonValue::Number(m.value));
            entry.insert("unit".to_string(), JsonValue::String(m.unit.to_string()));
            metrics.insert(m.name.clone(), JsonValue::Object(entry));
        }
        let mut out = BTreeMap::new();
        out.insert("correct".to_string(), JsonValue::Bool(self.failed == 0));
        out.insert(
            "attempted".to_string(),
            JsonValue::Number(self.attempted as f64),
        );
        out.insert("failed".to_string(), JsonValue::Number(self.failed as f64));
        out.insert("metrics".to_string(), JsonValue::Object(metrics));
        Ok(JsonValue::Object(out).to_string())
    }

    /// Everything measured, with sample counts and host facts, for the
    /// run's record file.
    pub fn record_json(&self, facts: BTreeMap<String, JsonValue>) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut e = BTreeMap::new();
                e.insert("name".to_string(), JsonValue::String(m.name.clone()));
                e.insert("unit".to_string(), JsonValue::String(m.unit.to_string()));
                e.insert("value".to_string(), JsonValue::Number(m.value));
                e.insert("samples".to_string(), JsonValue::Number(m.samples as f64));
                if let Some((p, v)) = m.tail {
                    e.insert("tail_percentile".to_string(), JsonValue::Number(p));
                    e.insert("tail_value".to_string(), JsonValue::Number(v));
                }
                JsonValue::Object(e)
            })
            .collect();
        let mut out = facts;
        out.insert("metrics".to_string(), JsonValue::Array(metrics));
        out.insert(
            "attempted".to_string(),
            JsonValue::Number(self.attempted as f64),
        );
        out.insert("failed".to_string(), JsonValue::Number(self.failed as f64));
        JsonValue::Object(out).to_string()
    }
}
