//! Result assembly: statistics helpers, the per-run record and the
//! final one-line JSON result.

use std::fmt::Write as _;

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Names of the checks that failed (empty when every output matched).
    pub check_failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Explanatory fields of the run record, as `(key, raw JSON value)`.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.record.push((key.to_string(), value.into().0));
    }

    /// Counts one failed check against the attempted operations.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.check_failures.push(what);
    }

    /// The run record: one JSON object with everything needed to
    /// explain an outlier run.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{\"record\": {");
        for (i, (k, v)) in self.record.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", quote(k), v);
        }
        let _ = write!(
            s,
            ", \"check_failures\": [{}]}}}}",
            self.check_failures
                .iter()
                .map(|f| quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        s
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.check_failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A raw JSON value for the run record.
pub struct Json(pub String);

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json(num(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json(v.to_string())
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json(quote(v))
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json(quote(&v))
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object(fields: Vec<(&str, Json)>) -> Json {
    Json(format!(
        "{{{}}}",
        fields
            .into_iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v.0))
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
