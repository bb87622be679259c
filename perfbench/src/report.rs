//! A workload's result and the one-line JSON the benchmark ends with.

use crate::trace::Span;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it summarises several.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed above the result.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric(Metric::new(name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Human-readable table: every metric with its unit and sample count.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            s.push_str(&format!(
                "  {:<32} {:>14.6} {}{}\n",
                m.name, m.value, m.unit, n
            ));
        }
        s
    }

    /// The result line, restricted to `names` in that order. A name the
    /// workload did not produce is an error, not a silent omission.
    pub fn json_line(&self, names: &[String]) -> Result<String, String> {
        let mut parts = Vec::new();
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite ({})", m.value));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Process peak resident set (`VmHWM`) in MiB, where Linux exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
