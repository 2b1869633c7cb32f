//! The repository benchmark. Runs one workload (`ingest`, `nearline`
//! or `rewind`) against the public Liquid APIs, checks its outputs,
//! and prints one JSON result line last:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` runs the workload untraced and then traced, reports the
//! per-layer metrics of the traced run (and the difference between the
//! two as the tracing overhead), and writes the spans to
//! `perfbench/out/trace-<workload>.tsv`.

mod common;
mod ingest;
mod nearline;
mod outcome;
mod report;
mod rewind;
mod schedule;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use liquid_obs::Obs;

use crate::common::{BenchResult, Ctx};
use crate::outcome::Outcome;
use crate::report::{parse_args, Args, RunResult, Workload, END_TO_END, PER_LAYER};
use crate::stats::percentile;
use crate::trace::{self_times, to_tsv, Layer, Role, Span, Tracer};

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|nearline|rewind> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(result) => {
            let line = result.to_line();
            if RunResult::parse_line(&line).as_ref() != Some(&result) {
                eprintln!("perfbench: result line does not parse back: {line}");
                return ExitCode::FAILURE;
            }
            println!("{line}");
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} run FAILED its output checks",
                    args.workload.name()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload once with tracing `on`.
fn pass(args: &Args, on: bool, process_start: Instant) -> BenchResult<(Outcome, Vec<Span>)> {
    let obs = Obs::new();
    let tracer = Arc::new(Tracer::new(on, obs.registry().counter("log.cache.miss")));
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        obs,
        tracer: tracer.clone(),
        process_start,
    };
    let outcome = match args.workload {
        Workload::Ingest => ingest::run(&ctx)?,
        Workload::Nearline => nearline::run(&ctx)?,
        Workload::Rewind => rewind::run(&ctx)?,
    };
    Ok((outcome, tracer.take()))
}

fn run(args: &Args, process_start: Instant) -> BenchResult<RunResult> {
    let (plain, _) = pass(args, false, process_start)?;
    let peak_rss_mb = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    show("untraced", &plain);
    let mut result = RunResult {
        correct: passed(&plain),
        attempted: plain.attempted,
        failed: plain.failed,
        metrics: BTreeMap::new(),
    };
    if args.trace {
        let (traced, spans) = pass(args, true, Instant::now())?;
        show("traced", &traced);
        result.correct &= passed(&traced);
        result.attempted += traced.attempted;
        result.failed += traced.failed;
        let path = write_trace(args, &spans)?;
        println!("spans: {} written to {}", spans.len(), path.display());
        let layers = per_layer(args.workload, &plain, &traced, &spans);
        for (name, unit) in PER_LAYER {
            let value = layers
                .get(name)
                .copied()
                .ok_or_else(|| format!("per-layer metric {name} was not computed"))?;
            result
                .metrics
                .insert(name.to_string(), (value, unit.to_string()));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "peak_rss_mb" => Some(peak_rss_mb),
                _ => plain.e2e.get(name).copied(),
            };
            let value = value.filter(|v| v.is_finite() && *v > 0.0);
            if value.is_none() {
                eprintln!("perfbench: metric {name} was not measured");
                result.correct = false;
            }
            result
                .metrics
                .insert(name.to_string(), (value.unwrap_or(0.0), unit.to_string()));
        }
    }
    Ok(result)
}

fn passed(o: &Outcome) -> bool {
    o.failed == 0 && o.checks.all_passed()
}

/// Prints a pass's evidence; failed checks also go to stderr.
fn show(label: &str, o: &Outcome) {
    println!(
        "== {label} pass: {} attempted, {} failed",
        o.attempted, o.failed
    );
    for note in &o.notes {
        println!("   {note}");
    }
    for (name, ok, detail) in &o.checks.0 {
        let verdict = if *ok { "ok" } else { "FAILED" };
        println!("   check {verdict}: {name} ({detail})");
        if !ok {
            eprintln!("perfbench: check FAILED: {name} ({detail})");
        }
    }
}

fn write_trace(args: &Args, spans: &[Span]) -> BenchResult<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.tsv", args.workload.name()));
    std::fs::write(&path, to_tsv(spans))?;
    Ok(path)
}

/// Per-layer metrics from the traced pass's spans and counters.
fn per_layer(
    workload: Workload,
    plain: &Outcome,
    traced: &Outcome,
    spans: &[Span],
) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let durations = |layers: &[Layer]| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| layers.contains(&s.layer))
            .map(|s| s.dur_ns as f64)
            .collect()
    };
    let pct = |layer: Layer, p: f64, ns_per_unit: f64| {
        percentile(&mut durations(&[layer]), p).map_or(0.0, |x| x.value / ns_per_unit)
    };
    let busy_s = |layers: &[Layer]| durations(layers).iter().fold(0.0, |a, d| a + d) / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);

    let c = &traced.counters;
    let mut m = BTreeMap::new();
    m.insert(
        "producer.accumulate_ns_p50",
        pct(Layer::Accumulate, 50.0, 1.0),
    );
    m.insert(
        "producer.commit_busy_s",
        busy_s(&[Layer::Commit, Layer::Flush]),
    );
    m.insert("producer.send_us_p50", pct(Layer::Send, 50.0, 1e3));
    m.insert("producer.send_us_p99", pct(Layer::Send, 99.0, 1e3));
    m.insert(
        "cluster.replicate_tick_busy_s",
        busy_s(&[Layer::ReplicateTick]),
    );
    m.insert("cluster.replicated_messages", c.replicated_messages as f64);
    m.insert(
        "cluster.produce_batch_records_mean",
        ratio(c.produce_batch_records as f64, c.produce_batches as f64),
    );
    m.insert("cluster.produce_failures", c.produce_failures as f64);
    m.insert("log.roll", c.roll as f64);
    m.insert("log.cache.miss", c.cache_miss as f64);
    m.insert("log.cache.hit", c.cache_hit as f64);
    m.insert(
        "log.cache.hit_ratio",
        ratio(c.cache_hit as f64, (c.cache_hit + c.cache_miss) as f64),
    );
    m.insert("log.cache-evict", c.cache_evict as f64);
    m.insert("log.append_bytes", c.append_bytes as f64);
    let mut miss_calls: Vec<f64> = spans
        .iter()
        .filter(|s| s.depth == 0 && s.missed)
        .map(|s| s.dur_ns as f64)
        .collect();
    m.insert(
        "log.miss_call_ms_p50",
        percentile(&mut miss_calls, 50.0).map_or(0.0, |x| x.value / 1e6),
    );
    let polls = of(Layer::Poll).count() as f64;
    m.insert("consumer.poll_busy_s", busy_s(&[Layer::Poll]));
    m.insert(
        "consumer.records_per_poll",
        ratio(of(Layer::Poll).map(|s| s.count as f64).sum(), polls),
    );
    m.insert(
        "consumer.empty_poll_ratio",
        ratio(
            of(Layer::Poll).filter(|s| s.count == 0).count() as f64,
            polls,
        ),
    );
    m.insert(
        "consumer.commit_us_p50",
        pct(Layer::ConsumerCommit, 50.0, 1e3),
    );
    m.insert(
        "consumer.group_busy_s",
        busy_s(&[Layer::GroupJoin, Layer::GroupLeave]),
    );
    let rounds = of(Layer::RunOnce).count() as f64;
    m.insert("job.run_once_busy_s", busy_s(&[Layer::RunOnce]));
    m.insert(
        "job.empty_round_ratio",
        ratio(
            of(Layer::RunOnce).filter(|s| s.count == 0).count() as f64,
            rounds,
        ),
    );
    let process_self_ns: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.layer == Layer::RunOnce)
        .map(|(_, &ns)| ns)
        .sum();
    m.insert("task.process_self_s", process_self_ns as f64 / 1e9);
    m.insert("job.checkpoint_us_p50", pct(Layer::Checkpoint, 50.0, 1e3));
    m.insert("state.put_us_p50", pct(Layer::StatePut, 50.0, 1e3));
    m.insert("state.put_us_p99", pct(Layer::StatePut, 99.0, 1e3));
    m.insert("task.send_us_p50", pct(Layer::TaskSend, 50.0, 1e3));
    m.insert("kv.flush", c.kv_flush as f64);
    m.insert("kv.compact", c.kv_compact as f64);
    let mut late = traced.late_ms.clone();
    m.insert(
        "gen.late_p99_ms",
        percentile(&mut late, 99.0).map_or(0.0, |x| x.value),
    );

    // The driver's wall time not covered by its top-level spans, idle
    // waits or the benchmark's own checksums.
    let wall = traced
        .driver_wall
        .saturating_sub(traced.driver_excluded)
        .as_nanos() as f64;
    let covered: f64 = spans
        .iter()
        .filter(|s| s.role == Role::Driver && s.depth == 0)
        .map(|s| s.dur_ns as f64)
        .sum();
    m.insert(
        "driver.unaccounted_pct",
        ratio(wall - covered, wall) * 100.0,
    );

    // Tracing overhead on the workload's headline metric.
    let (name, higher_is_better) = match workload {
        Workload::Ingest => ("produce_msgs_per_s", true),
        Workload::Nearline => ("e2e_p50_ms", false),
        Workload::Rewind => ("hot_read_msgs_per_s", true),
    };
    let (untraced, with_trace) = (
        plain.e2e.get(name).copied().unwrap_or(0.0),
        traced.e2e.get(name).copied().unwrap_or(0.0),
    );
    let slowdown = if higher_is_better {
        ratio(untraced, with_trace)
    } else {
        ratio(with_trace, untraced)
    };
    m.insert("trace.overhead_pct", (slowdown - 1.0) * 100.0);
    m
}
