//! What one workload pass measured and checked.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::common::{Checks, Counters};
use crate::stats::{median, percentile};

/// The result of running one workload once (traced or not).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Client operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
    /// Output and mechanism checks.
    pub checks: Checks,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Human-readable evidence (sample counts, per-round figures).
    pub notes: Vec<String>,
    /// Counter deltas over the measured phases.
    pub counters: Counters,
    /// How late open-loop sends started, ms.
    pub late_ms: Vec<f64>,
    /// Driver-thread wall time of the measured phases.
    pub driver_wall: Duration,
    /// Part of [`driver_wall`](Self::driver_wall) spent on purpose
    /// outside the layers: sleeping for input, or checksumming what a
    /// sweep read.
    pub driver_excluded: Duration,
}

impl Outcome {
    /// Records the median and p99 of `samples` as `p50_name` and
    /// `p99_name`, notes the sample count, and checks that at least
    /// ten samples lie beyond the p99.
    pub fn latency(
        &mut self,
        what: &str,
        p50_name: &'static str,
        p99_name: &'static str,
        samples: &mut [f64],
    ) {
        let (Some(p50), Some(p99)) = (percentile(samples, 50.0), percentile(samples, 99.0)) else {
            self.checks
                .check(&format!("{what} sampled"), false, "no samples".to_string());
            return;
        };
        self.e2e.insert(p50_name, p50.value);
        self.e2e.insert(p99_name, p99.value);
        self.notes.push(format!(
            "{what}: median {:.4}, p99 {:.4} over n={} samples ({} beyond the p99)",
            p50.value, p99.value, p99.n, p99.beyond
        ));
        self.checks.check(
            &format!("{what} p99 has >= 10 samples beyond it"),
            p99.supported(),
            format!("{} beyond of n={}", p99.beyond, p99.n),
        );
    }

    /// Records the median of per-round `values` as `name`.
    pub fn per_round(&mut self, name: &'static str, values: &[f64]) {
        let m = median(values).unwrap_or(0.0);
        self.e2e.insert(name, m);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        self.notes.push(format!(
            "{name}: median {m:.4} of {} rounds [{}]",
            values.len(),
            shown.join(", ")
        ));
    }
}
