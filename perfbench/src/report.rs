//! Command line, metric names, and the result line the benchmark
//! prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use liquid_obs::json::Json;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Durable batched firehose (acks=all).
    Ingest,
    /// Open-loop source feed → stateful job → derived feed.
    Nearline,
    /// Cold and hot sweeps of sealed history beside a head writer.
    Rewind,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "nearline" => Some(Workload::Nearline),
            "rewind" => Some(Workload::Rewind),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Nearline => "nearline",
            Workload::Rewind => "rewind",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
/// `--workload` is required; the others default to seed 1, 10 s,
/// untraced.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (ingest, nearline, rewind)")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a u64"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive integer"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("produce_msgs_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("e2e_p50_ms", "ms"),
    ("e2e_p99_ms", "ms"),
    ("cold_read_msgs_per_s", "1/s"),
    ("hot_read_msgs_per_s", "1/s"),
];

/// Per-layer metrics (traced run), with units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("producer.accumulate_ns_p50", "ns"),
    ("producer.commit_busy_s", "s"),
    ("producer.send_us_p50", "us"),
    ("producer.send_us_p99", "us"),
    ("cluster.replicate_tick_busy_s", "s"),
    ("cluster.replicated_messages", "count"),
    ("cluster.produce_batch_records_mean", "count"),
    ("cluster.produce_failures", "count"),
    ("log.roll", "count"),
    ("log.cache.miss", "count"),
    ("log.cache.hit", "count"),
    ("log.cache.hit_ratio", "ratio"),
    ("log.cache-evict", "count"),
    ("log.append_bytes", "bytes"),
    ("log.miss_call_ms_p50", "ms"),
    ("consumer.poll_busy_s", "s"),
    ("consumer.records_per_poll", "count"),
    ("consumer.empty_poll_ratio", "ratio"),
    ("consumer.commit_us_p50", "us"),
    ("consumer.group_busy_s", "s"),
    ("job.run_once_busy_s", "s"),
    ("job.empty_round_ratio", "ratio"),
    ("task.process_self_s", "s"),
    ("job.checkpoint_us_p50", "us"),
    ("state.put_us_p50", "us"),
    ("state.put_us_p99", "us"),
    ("task.send_us_p50", "us"),
    ("kv.flush", "count"),
    ("kv.compact", "count"),
    ("gen.late_p99_ms", "ms"),
    ("driver.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The last line of a run: whether outputs checked out, operation
/// counts, and every metric of the run's kind with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output and mechanism check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// Renders the result as one JSON object on one line. Values keep
    /// every digit Rust's shortest round-trip formatting gives them.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`to_line`](Self::to_line), rejecting
    /// any object whose keys are not exactly the four required ones.
    pub fn parse_line(line: &str) -> Option<RunResult> {
        let doc = Json::parse(line)?;
        let obj = doc.as_object()?;
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return None;
        }
        let correct = match obj.get("correct")? {
            Json::Bool(b) => *b,
            _ => return None,
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in obj.get("metrics")?.as_object()? {
            let m = m.as_object()?;
            if m.len() != 2 {
                return None;
            }
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            metrics.insert(name.clone(), (value, unit));
        }
        Some(RunResult {
            correct,
            attempted: obj.get("attempted")?.as_u64()?,
            failed: obj.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

/// Peak resident set size (`VmHWM`) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// This process's peak resident set size in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> std::result::Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload nearline --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Nearline,
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        assert_eq!(args("--workload rewind").unwrap().seconds, 10);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload bogus").is_err());
        assert!(args("--workload ingest --trace 2").is_err());
        assert!(args("--workload ingest --seconds 0").is_err());
        assert!(args("--workload ingest --seed").is_err());
        assert!(args("--workload ingest --speed 3").is_err());
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_required_keys() {
        let mut metrics = BTreeMap::new();
        metrics.insert("latency_ms".to_string(), (1.2034567891, "ms".to_string()));
        metrics.insert("setup_s".to_string(), (0.8127, "s".to_string()));
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = r.to_line();
        assert!(line.contains("\"latency_ms\": {\"value\": 1.2034567891, \"unit\": \"ms\"}"));
        assert_eq!(RunResult::parse_line(&line), Some(r));
    }

    #[test]
    fn parse_line_rejects_extra_or_missing_keys() {
        assert!(
            RunResult::parse_line(r#"{"correct": true, "attempted": 1, "failed": 0}"#).is_none()
        );
        assert!(RunResult::parse_line(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#
        )
        .is_none());
        assert!(RunResult::parse_line(
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#
        )
        .is_none());
        assert!(RunResult::parse_line("not json").is_none());
    }

    #[test]
    fn non_finite_values_never_reach_the_line() {
        let mut metrics = BTreeMap::new();
        metrics.insert("x".to_string(), (f64::NAN, "ms".to_string()));
        let line = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics,
        }
        .to_line();
        assert!(RunResult::parse_line(&line).is_some());
    }

    #[test]
    fn reads_vm_hwm_from_proc_status() {
        let status = "Name:\tperfbench\nVmPeak:\t  300 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn metric_names_and_units_fit_the_result_schema() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names are unique");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
