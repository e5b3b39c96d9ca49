//! Seeded randomness, order statistics, timing and the result record.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny, well-mixed generator. Every input the benchmark
/// makes comes from one of these, seeded by `--seed` and a per-purpose
/// salt, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median nanoseconds per call of `f` over `items`, taken as the median
/// of `rounds` passes over the whole slice (each pass calls `f` once per
/// item). Medians over passes keep one preempted pass from moving it.
pub fn ns_per_call<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    assert!(!items.is_empty(), "timing an empty input");
    let passes: Vec<f64> = (0..rounds.max(1))
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// Runs `f` until `budget` has passed (at least `min_reps` times) and
/// returns what each call returned.
pub fn repeat_for<T>(budget: Duration, min_reps: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        out.push(f());
    }
    out
}

/// Extracts the raw text of a top-level field of a flat JSON object
/// line (a number, `true`/`false`, or a string without its quotes).
/// The daemon's responses are flat objects with no escapes in the
/// fields read here.
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"').map(|end| &stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// One metric of the final record.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports: the correctness verdict, the counts
/// of attempted and failed operations, and its metrics in print order.
#[derive(Default)]
pub struct Report {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed correctness gate; the run exits nonzero.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("perfbench: GATE FAILED: {message}");
            self.errors.push(message);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result record.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; `correct` is already
                // false for them, so print them as null.
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn json_fields_of_a_flat_line() {
        let line = r#"{"id":12,"ok":true,"op":"lcrit","lcrit_h_per_m":1e-7,"source":"memo"}"#;
        assert_eq!(json_field(line, "id"), Some("12"));
        assert_eq!(json_field(line, "ok"), Some("true"));
        assert_eq!(json_field(line, "source"), Some("memo"));
        assert_eq!(json_field(line, "lcrit_h_per_m"), Some("1e-7"));
        assert_eq!(json_field(line, "missing"), None);
    }

    #[test]
    fn record_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        r.gate(false, || "broken".into());
        assert!(!r.correct());
    }
}
