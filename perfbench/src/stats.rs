//! Samples, order statistics and the pass/fail tally of one run.

use std::collections::BTreeMap;

/// The p50 of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of `xs`: the highest percentile with at least ten samples
/// beyond it, as `(value, percentile)`. With 21 samples or fewer that
/// percentile would not lie above the median, so the maximum is
/// reported as p100 instead.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 21 {
        return (v[n - 1], 100.0);
    }
    let k = n - 11;
    (v[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Latency samples by op class, plus the count of attempted, failed
/// and expectedly refused operations.
#[derive(Default)]
pub struct OpLog {
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations answered with the refusal the input calls for (an
    /// error the program is expected to return). They are correct
    /// answers, so they do not count as failed.
    pub refused: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl OpLog {
    pub fn sample(&mut self, class: &'static str, secs: f64) {
        self.samples.entry(class).or_default().push(secs);
    }

    pub fn samples(&self, class: &str) -> &[f64] {
        self.samples.get(class).map_or(&[], |v| v.as_slice())
    }

    /// Count one attempted operation that met every check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempted operation that met its expected refusal.
    pub fn refusal(&mut self) {
        self.attempted += 1;
        self.refused += 1;
    }

    /// Count one attempted operation that failed a check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Count `ok` as one attempted operation, passed or failed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(msg());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0));
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs), (21.0, 100.0));
        // 40 samples: index 29 has ten beyond it → p75.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0));
    }
}
