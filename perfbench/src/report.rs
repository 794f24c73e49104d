//! What one benchmark run prints: the human-readable summary lines and the
//! final one-line JSON result, plus the small statistics every workload
//! shares (medians, tail percentiles, peak RSS).

use std::fmt::Write as _;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run: correctness, operation counts, metrics and the
/// notes printed above the JSON line.
#[derive(Default)]
pub struct Outcome {
    /// Every oracle and exact-count guard held.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: usize,
    /// Operations that failed (wrong output, error reply, refusal, or a
    /// request past the latency limit at the reference rate).
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Metrics printed in the summary but left out of the JSON result:
    /// their run-to-run spread on a shared host is wider than any bound.
    pub unbounded: Vec<Metric>,
    pub notes: Vec<String>,
    /// Oracle or guard violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A metric printed in the summary only (see [`Outcome::unbounded`]).
    pub fn unbounded(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.unbounded.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an oracle or guard violation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.correct = false;
        self.errors.push(message.into());
    }

    /// Fails the run when an exact count differs from its first reading.
    pub fn guard_eq(&mut self, what: &str, expected: usize, got: usize) {
        if expected != got {
            self.fail(format!(
                "exact-count guard: {what} was {expected}, now {got}"
            ));
        }
    }

    /// Prints the summary lines, then the JSON result as the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for e in &self.errors {
            println!("ERROR {e}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<28} {share:>14.4} share ({} of {} attempted; unbounded)",
            "failed_share", self.failed, self.attempted
        );
        for m in &self.unbounded {
            println!("{:<28} {:>14.4} {} (unbounded)", m.name, m.value, m.unit);
        }
        for m in &self.metrics {
            println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The median of the samples (`0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `p`-quantile (0..=1) by linear interpolation between closest ranks.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A tail percentile that keeps at least ten samples beyond it: the
/// `p`-quantile when the sample count allows it, otherwise the highest
/// quantile with ten samples above it (the median when there are fewer
/// than twenty). Returns the value and the quantile actually used.
pub fn tail(samples: &[f64], p: f64) -> (f64, f64) {
    let n = samples.len() as f64;
    let used = p.min((n - 10.0) / n).max(0.5);
    (quantile(samples, used), used)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99).1, 0.99);
        let s: Vec<f64> = (0..50).map(f64::from).collect();
        let (_, used) = tail(&s, 0.99);
        assert!((used - 0.8).abs() < 1e-12);
        let s: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(tail(&s, 0.9).1, 0.5);
    }
}
