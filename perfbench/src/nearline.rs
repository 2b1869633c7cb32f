//! `nearline`: the Figure 2 pipeline under an open loop.
//!
//! A generator thread sends keyed activity events one at a time
//! (`Producer::send`, key hash, `acks=leader`) at a fixed rate into a
//! 4-partition RF=2 source feed, sleeping until each event is due. The
//! driver thread loops over `replicate_tick`, one `Job::run_once` of a
//! stateful counting job (KV counter put plus changelog write, then a
//! send to a 4-partition RF=2 derived feed), a checkpoint every
//! [`CHECKPOINT_EVERY`] messages, and `Consumer::poll_batches` on the
//! derived feed. Latency runs from each event's due time to the poll
//! that returns its derived record. After each round, fresh instances
//! of the job rebuild their state from the changelog: the first replay
//! reads changelog segments nothing has read yet, the later ones hit
//! the segment-read cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{
    AckLevel, Cluster, Consumer, Message, Producer, TopicConfig, TopicPartition,
};
use liquid_processing::error::ProcessingError;
use liquid_processing::{FnTask, Job, JobConfig, TaskContext};
use liquid_sim::rng::derive_seed;

use crate::common::{generate, new_cluster, seq_of, wire_size, BenchResult, Counters, Ctx};
use crate::outcome::Outcome;
use crate::schedule::Schedule;
use crate::stats::{median, percentile};
use crate::trace::{set_role, Layer, Role, Tracer};

const SOURCE: &str = "activity";
const DERIVED: &str = "activity-counts";
const PARTITIONS: u32 = 4;
const REPLICATION: u32 = 2;
/// Offered load of the open loop, events per second.
pub const RATE_PER_S: u64 = 6_500;
/// Events per round: two seconds of load, enough that even the
/// least-loaded partition (Zipf keys) fills and rolls a segment.
const ROUND_EVENTS: usize = 13_000;
/// Source value size. Still small next to the per-record work of the
/// pipeline, yet few enough records fill a segment that a round rolls
/// every partition without the seed commit's cold decode (up to 64 KiB
/// pinned per record of a decoded segment) exhausting memory.
const VALUE_BYTES: usize = 512;
/// Messages between `Job::checkpoint` calls.
const CHECKPOINT_EVERY: u64 = 1_000;
/// Driver sleep after a loop that found no work.
const IDLE_WAIT: Duration = Duration::from_micros(200);
/// Longest the pipeline may take to drain after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Changelog replays after the first, per round.
const HOT_REPLAYS: usize = 3;

struct Pipeline {
    cluster: Cluster,
    job: Job,
    downstream: Consumer,
    producer: Producer,
    events: Vec<(Bytes, Bytes)>,
    segment_bytes: u64,
}

/// Counts events per user in job state and forwards `seq|count`.
fn count_task(
    tracer: Arc<Tracer>,
) -> impl FnMut(&Message, &mut TaskContext<'_>) -> Result<(), ProcessingError> + Send {
    move |msg, ctx| {
        let user = msg
            .key
            .clone()
            .ok_or_else(|| ProcessingError::Task("keyless event".into()))?;
        let count = tracer.span(Layer::StatePut, || ctx.store().add_counter(&user, 1))?;
        let seq = seq_of(&msg.value)
            .ok_or_else(|| ProcessingError::Task("value without a sequence".into()))?;
        let derived = Bytes::from(format!("{seq}|{count}"));
        tracer.span(Layer::TaskSend, || ctx.send(DERIVED, Some(user), derived))?;
        Ok(())
    }
}

/// A new instance of the counting job; `Job::new` replays the changelog
/// into its state stores.
fn counting_job(ctx: &Ctx, cluster: &Cluster) -> BenchResult<Job> {
    let tracer = ctx.tracer.clone();
    Ok(Job::new(
        cluster,
        JobConfig::new("counts", &[SOURCE]).checkpoint_every(0),
        move |_| Box::new(FnTask(count_task(tracer.clone()))),
    )?)
}

fn set_up(ctx: &Ctx, seed: u64) -> BenchResult<Pipeline> {
    let cluster = new_cluster(&ctx.obs)?;
    let topic = TopicConfig::with_partitions(PARTITIONS).replication(REPLICATION);
    let segment_bytes = topic.log.segment_bytes;
    cluster.create_topic(SOURCE, topic.clone())?;
    cluster.create_topic(DERIVED, topic)?;
    let job = counting_job(ctx, &cluster)?;
    let downstream = Consumer::new(&cluster, "downstream");
    for p in 0..PARTITIONS {
        downstream.assign(TopicPartition::new(DERIVED, p), StartPosition::Earliest)?;
    }
    let producer = Producer::new(&cluster, SOURCE)?.with_acks(AckLevel::Leader);
    Ok(Pipeline {
        cluster,
        job,
        downstream,
        producer,
        events: generate(seed, ROUND_EVENTS, VALUE_BYTES),
        segment_bytes,
    })
}

/// State the generator and the driver share.
struct Flow<'a> {
    schedule: &'a Schedule,
    tracer: &'a Tracer,
    /// Sends acked so far.
    acked: &'a AtomicU64,
    /// Set by the generator after its last send.
    gen_done: &'a AtomicBool,
    /// Set by the driver when it fails, to end the generator early.
    stop: &'a AtomicBool,
}

/// What the generator thread saw.
#[derive(Default)]
struct Sent {
    /// `(partition, offset, seq)` of every acked send.
    acked: Vec<(u32, u64, u64)>,
    ack_us: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    elapsed: Duration,
}

fn generate_load(producer: &Producer, events: &[(Bytes, Bytes)], flow: &Flow) -> Sent {
    set_role(Role::Generator);
    let mut sent = Sent::default();
    for (i, (key, value)) in events.iter().enumerate() {
        if flow.stop.load(Ordering::SeqCst) {
            break;
        }
        let i = i as u64;
        sent.late_ms
            .push(flow.schedule.wait_for(i).as_secs_f64() * 1e3);
        let at = Instant::now();
        let result = flow.tracer.span(Layer::Send, || {
            producer.send(Some(key.clone()), value.clone())
        });
        sent.ack_us.push(at.elapsed().as_secs_f64() * 1e6);
        match result {
            Ok((partition, offset)) => {
                sent.acked.push((partition, offset, i));
                flow.acked.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                sent.failed += 1;
                eprintln!("nearline: send {i} failed: {e}");
            }
        }
    }
    sent.elapsed = flow.schedule.due(0).elapsed();
    flow.gen_done.store(true, Ordering::SeqCst);
    sent
}

/// What the driver thread saw.
#[derive(Default)]
struct Driven {
    e2e_ms: Vec<f64>,
    duplicates: u64,
    wall: Duration,
    idle: Duration,
}

fn drive(
    cluster: &Cluster,
    job: &mut Job,
    downstream: &Consumer,
    flow: &Flow,
) -> BenchResult<Driven> {
    let start = Instant::now();
    let (tracer, schedule) = (flow.tracer, flow.schedule);
    let mut d = Driven::default();
    let mut seen = vec![false; ROUND_EVENTS];
    let mut distinct = 0u64;
    let mut since_checkpoint = 0;
    let mut drain_from: Option<Instant> = None;
    loop {
        tracer.span(Layer::ReplicateTick, || cluster.replicate_tick())?;
        let processed = tracer.span_with(
            || job.run_once(),
            |r| (Layer::RunOnce, *r.as_ref().unwrap_or(&0)),
        )?;
        since_checkpoint += processed;
        if since_checkpoint >= CHECKPOINT_EVERY {
            tracer.span(Layer::Checkpoint, || job.checkpoint())?;
            since_checkpoint = 0;
        }
        let batches = tracer.span_with(
            || downstream.poll_batches(),
            |r| {
                (
                    Layer::Poll,
                    r.as_ref()
                        .map_or(0, |b| b.iter().map(|(_, b)| b.len() as u64).sum()),
                )
            },
        )?;
        let polled_at = Instant::now();
        let mut polled = 0;
        for (_, batch) in &batches {
            for r in batch.records() {
                polled += 1;
                let seq = seq_of(&r.value).ok_or("derived record without a sequence")?;
                let first = seen
                    .get_mut(seq as usize)
                    .map(|s| !std::mem::replace(s, true))
                    .ok_or("derived record with an unknown sequence")?;
                if first {
                    distinct += 1;
                    d.e2e_ms
                        .push((polled_at - schedule.due(seq)).as_secs_f64() * 1e3);
                } else {
                    d.duplicates += 1;
                }
            }
        }
        if flow.gen_done.load(Ordering::SeqCst) {
            let acked = flow.acked.load(Ordering::SeqCst);
            if distinct >= acked {
                break;
            }
            if drain_from.get_or_insert(polled_at).elapsed() > DRAIN_LIMIT {
                return Err(format!(
                    "pipeline did not drain: {distinct} of {acked} events arrived"
                )
                .into());
            }
        }
        if processed == 0 && polled == 0 {
            let idle = Instant::now();
            std::thread::sleep(IDLE_WAIT);
            d.idle += idle.elapsed();
        }
    }
    d.wall = start.elapsed();
    Ok(d)
}

/// Replays the changelog into a new job instance and returns the
/// replay rate (records per second of `Job::new`) and how many users'
/// restored counts differ from `reference`.
fn replay(
    ctx: &Ctx,
    cluster: &Cluster,
    reference: &HashMap<&Bytes, u64>,
) -> BenchResult<(f64, u64)> {
    let started = Instant::now();
    let mut job = counting_job(ctx, cluster)?;
    let rate = job.restored_records() as f64 / started.elapsed().as_secs_f64();
    Ok((rate, wrong_counts(&mut job, reference)))
}

/// Users whose count in `job`'s state differs from `reference`.
fn wrong_counts(job: &mut Job, reference: &HashMap<&Bytes, u64>) -> u64 {
    let mut wrong = 0;
    for (user, &count) in reference {
        let held: u64 = (0..PARTITIONS)
            .map(|t| job.state(t).map_or(0, |s| s.get_counter(user)))
            .sum();
        if held != count {
            wrong += 1;
        }
    }
    wrong
}

/// Figures of one round.
struct Round {
    setup_s: f64,
    produce_rate: f64,
    first_read_rate: f64,
    reread_rate: f64,
    ack_us: Vec<f64>,
    e2e_ms: Vec<f64>,
    late_ms: Vec<f64>,
    counters: Counters,
    /// Driver wall time of the round's measured phases, and its idle part.
    driver_wall: Duration,
    driver_idle: Duration,
}

/// Sets up a fresh pipeline, offers it one round of load, drains it,
/// and checks its outputs into `out`.
fn round(ctx: &Ctx, n: u64, setup_from: Instant, out: &mut Outcome) -> BenchResult<Round> {
    let mut p = set_up(ctx, derive_seed(ctx.seed, n))?;
    let setup_s = setup_from.elapsed().as_secs_f64();

    let before = Counters::now(&ctx.obs);
    let schedule = Schedule::new(Instant::now(), RATE_PER_S);
    let acked = AtomicU64::new(0);
    let (gen_done, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let flow = Flow {
        schedule: &schedule,
        tracer: &ctx.tracer,
        acked: &acked,
        gen_done: &gen_done,
        stop: &stop,
    };
    let (sent, driven) = liquid_sim::thread::scope(|s| {
        let Pipeline {
            cluster,
            job,
            downstream,
            producer,
            events,
            ..
        } = &mut p;
        let (producer, events, flow) = (&*producer, &*events, &flow);
        let generator = s.spawn(move || generate_load(producer, events, flow));
        let driven = drive(cluster, job, downstream, flow);
        if driven.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        (generator.join(), driven)
    });
    let driven = driven?;
    out.attempted += p.events.len() as u64;
    out.failed += sent.failed;

    // Job state: each user's counter equals the count of its acked events.
    let mut reference: HashMap<&Bytes, u64> = HashMap::new();
    for &(_, _, seq) in &sent.acked {
        *reference.entry(&p.events[seq as usize].0).or_default() += 1;
    }
    let wrong = wrong_counts(&mut p.job, &reference);
    out.failed += wrong;
    out.checks.check(
        &format!("round {n}: job state counts every acked event once per user"),
        wrong == 0,
        format!("{} users, {wrong} with a wrong count", reference.len()),
    );
    let lost = sent.acked.len().saturating_sub(driven.e2e_ms.len()) as u64;
    out.failed += lost;
    out.checks.check(
        &format!("round {n}: every acked source event reached the derived feed"),
        lost == 0,
        format!(
            "{} of {} arrived ({} duplicate deliveries)",
            driven.e2e_ms.len(),
            sent.acked.len(),
            driven.duplicates
        ),
    );

    // Replay the changelog into fresh job instances: the first replay
    // reads segments nothing has read yet, the later ones re-read them.
    let after_run = Counters::now(&ctx.obs);
    let mut replays = Vec::with_capacity(1 + HOT_REPLAYS);
    for i in 0..=HOT_REPLAYS {
        let (rate, restored) = replay(ctx, &p.cluster, &reference)?;
        if restored != 0 {
            out.failed += 1;
        }
        out.checks.check(
            &format!("round {n}: changelog replay {i} restores every user's count"),
            restored == 0,
            format!("{restored} users restored wrong"),
        );
        replays.push((rate, Counters::now(&ctx.obs)));
    }
    let cold_misses = replays[0].1.since(&after_run).cache_miss;
    let hot = replays[HOT_REPLAYS].1.since(&replays[0].1);
    out.checks.check(
        &format!("round {n}: first replay decodes changelog segments, later replays hit the cache"),
        cold_misses > 0 && hot.cache_miss == 0 && hot.cache_hit > 0,
        format!(
            "first log.cache.miss +{cold_misses}, later log.cache.miss +{} log.cache.hit +{}",
            hot.cache_miss, hot.cache_hit
        ),
    );
    let counters = Counters::now(&ctx.obs).since(&before);

    // Mechanism: every source partition rolled, and a sealed segment
    // was decoded on the way.
    let mut partition_bytes = vec![0u64; PARTITIONS as usize];
    for &(part, _, seq) in &sent.acked {
        let (k, v) = &p.events[seq as usize];
        partition_bytes[part as usize] += wire_size(k, v);
    }
    let min_bytes = partition_bytes.iter().copied().min().unwrap_or(0);
    out.checks.check(
        &format!("round {n}: every source partition rolled a segment"),
        min_bytes > p.segment_bytes + (VALUE_BYTES + 64) as u64
            && counters.roll >= u64::from(PARTITIONS),
        format!(
            "smallest partition {min_bytes} B, log.roll +{}",
            counters.roll
        ),
    );
    out.checks.check(
        &format!("round {n}: sealed segments were decoded (log.cache.miss > 0)"),
        counters.cache_miss > 0,
        format!("log.cache.miss +{}", counters.cache_miss),
    );
    let replay_rates: Vec<f64> = replays.iter().map(|r| r.0).collect();
    Ok(Round {
        setup_s,
        produce_rate: sent.acked.len() as f64 / sent.elapsed.as_secs_f64(),
        first_read_rate: replay_rates[0],
        reread_rate: median(&replay_rates[1..]).unwrap_or(0.0),
        ack_us: sent.ack_us,
        e2e_ms: driven.e2e_ms,
        late_ms: sent.late_ms,
        counters,
        driver_wall: driven.wall,
        driver_idle: driven.idle,
    })
}

/// Runs a warm-up round, then `nearline` rounds until the measured time
/// reaches the window. Every round is checked; the warm-up round's
/// figures (first-touch memory) are left out of the metrics.
pub fn run(ctx: &Ctx) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut first_reads, mut rereads) = (vec![], vec![], vec![], vec![]);
    let (mut ack_us, mut e2e_ms) = (vec![], vec![]);
    let mut n = 0u64;
    while n == 0 || out.driver_wall < ctx.window {
        let setup_from = if n == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let r = round(ctx, n, setup_from, &mut out)?;
        setups.push(r.setup_s);
        if n > 0 {
            rates.push(r.produce_rate);
            first_reads.push(r.first_read_rate);
            rereads.push(r.reread_rate);
            ack_us.extend(r.ack_us);
            e2e_ms.extend(r.e2e_ms);
            out.late_ms.extend(r.late_ms);
            out.counters = out.counters.plus(&r.counters);
            out.driver_wall += r.driver_wall;
            out.driver_excluded += r.driver_idle;
        } else {
            ctx.tracer.clear();
        }
        n += 1;
    }
    out.notes.push(format!(
        "{} rounds of {ROUND_EVENTS} events at {RATE_PER_S}/s after a warm-up round; driver busy {:.2?} of {:.2?}",
        n - 1,
        out.driver_wall.saturating_sub(out.driver_excluded),
        out.driver_wall
    ));
    out.per_round("setup_s", &setups);
    out.per_round("produce_msgs_per_s", &rates);
    out.per_round("cold_read_msgs_per_s", &first_reads);
    out.per_round("hot_read_msgs_per_s", &rereads);
    out.latency(
        "ack_us (Producer::send)",
        "ack_p50_us",
        "ack_p99_us",
        &mut ack_us,
    );
    out.latency(
        "e2e_ms (due -> derived record polled)",
        "e2e_p50_ms",
        "e2e_p99_ms",
        &mut e2e_ms,
    );
    let mut late = out.late_ms.clone();
    if let Some(l) = percentile(&mut late, 99.0) {
        out.notes
            .push(format!("gen.late_p99_ms: {:.4} over n={}", l.value, l.n));
    }
    Ok(out)
}
