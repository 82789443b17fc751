//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent span, trace id). Spans stay in memory and
//! are written out once, when the run ends.

use crate::stats;
use sparker_profiles::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// One id per batch run or serve operation.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Start a new trace id for the spans that follow.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            trace: self.trace,
            parent: self.open.last().copied(),
            start: self.now(),
            end: f64::NAN,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Durations of every closed span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::duration)
            .collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| stats::self_time((s.start, s.end), c))
            .collect()
    }

    /// Total self time per span name, largest first.
    pub fn self_times_by_name(&self) -> Vec<(String, f64)> {
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(&s.name).or_default() += self_s;
        }
        let mut out: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(n, t)| (n.to_string(), t))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// All spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let mut m = BTreeMap::new();
            m.insert("id".to_string(), JsonValue::Number(i as f64));
            m.insert("name".to_string(), JsonValue::String(s.name.clone()));
            m.insert("trace".to_string(), JsonValue::Number(s.trace as f64));
            m.insert(
                "parent".to_string(),
                s.parent
                    .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
            );
            m.insert("start_s".to_string(), JsonValue::Number(s.start));
            m.insert("end_s".to_string(), JsonValue::Number(s.end));
            m.insert("self_s".to_string(), JsonValue::Number(self_s));
            out.push_str(&JsonValue::Object(m).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_trace_id() {
        let mut t = Tracer::new();
        t.next_trace();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.next_trace();
        t.span("other", |_| ());
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!((s[0].trace, s[3].trace), (1, 2));
        assert_eq!(t.durations("inner").len(), 2);
        let children: f64 = t.durations("inner").iter().sum();
        assert!((t.self_times()[0] - (s[0].duration() - children)).abs() < 1e-9);
        assert_eq!(t.to_json_lines().lines().count(), 4);
    }
}
