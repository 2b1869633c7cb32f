//! `rewind`: offline reprocessing beside live writes.
//!
//! Set-up writes a history of small records round-robin into a
//! 4-partition RF=1 topic until every partition has filled a segment,
//! then one marker per partition seals it. A fresh consumer group then
//! sweeps the history (cold: each sealed segment is a read-cache miss
//! and is decoded), and further groups re-sweep it (hot: every segment
//! is a hit). Meanwhile a second thread appends single records at the
//! head of one partition of the same topic on an open-loop schedule,
//! showing whether reads disturb writes. A run is a series of such
//! rounds, each on a fresh cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use liquid_messaging::{AckLevel, Cluster, Partitioner, Producer, TopicConfig, TopicPartition};
use liquid_sim::rng::derive_seed;
use liquid_workloads::activity::ActivityGen;

use crate::common::{
    chain, digests_of, event_record, high_watermarks, new_cluster, record_hash, sweep, wire_size,
    BenchResult, Counters, Ctx, PAGES, USERS,
};
use crate::outcome::Outcome;
use crate::schedule::{lateness, Schedule};
use crate::trace::{set_role, Layer, Role, Tracer};

const TOPIC: &str = "history";
const PARTITIONS: u32 = 4;
/// History value size (small records: the cold decode is per record).
const VALUE_BYTES: usize = 200;
/// Sealed segments of history per partition.
const SEGMENTS_PER_PARTITION: u64 = 1;
/// Offered load of the head writer, records per second.
pub const HEAD_RATE_PER_S: u64 = 2_000;
/// Head writes due together (see `schedule`): the writer wakes every
/// 4 ms and sends eight records.
pub const HEAD_BURST: u64 = 8;
/// The partition the head writer appends to. Writes spread round-robin
/// would chase the cold sweep from partition to partition and, by a
/// wake-up race, stall behind one segment decode or behind all four in
/// turn, so the head-write tail would flip between two values on the
/// same code. One partition stalls behind its own decode, once a round.
const HEAD_PARTITION: u32 = 0;
/// Least time spent re-sweeping per round; one hot pass is short.
const HOT_PHASE: Duration = Duration::from_millis(600);
/// Least hot passes per round.
const MIN_HOT_PASSES: usize = 3;
/// Marks the end of a partition's history.
const MARKER: &[u8] = b"end-of-history";

/// The history written in set-up.
struct History {
    /// First offset past the history, per partition (the marker's).
    ends: Vec<u64>,
    /// Expected per-partition digests of the history.
    digests: Vec<u64>,
    records: u64,
}

fn fill_history(
    cluster: &Cluster,
    producer: &Producer,
    seed: u64,
    segment_bytes: u64,
) -> BenchResult<History> {
    let mut gen = ActivityGen::new(seed, USERS, PAGES);
    let mut bytes = vec![0u64; PARTITIONS as usize];
    let mut written = Vec::new();
    let target = SEGMENTS_PER_PARTITION * segment_bytes;
    let mut seq = 0;
    while bytes.iter().any(|&b| b < target) {
        let (key, value) = event_record(&gen.next_event(), seq, VALUE_BYTES);
        seq += 1;
        let (p, offset) = producer.send(Some(key.clone()), value.clone())?;
        bytes[p as usize] += wire_size(&key, &value);
        written.push((p, offset, record_hash(offset, Some(&key), &value)));
    }
    // A partition whose active segment is full rolls on its next append,
    // so one marker each leaves the whole history in sealed segments.
    let mut ends = Vec::with_capacity(PARTITIONS as usize);
    for p in 0..PARTITIONS {
        let tp = TopicPartition::new(TOPIC, p);
        ends.push(cluster.produce_to(&tp, None, Bytes::from_static(MARKER), AckLevel::Leader)?);
    }
    Ok(History {
        ends,
        records: written.len() as u64,
        digests: digests_of(PARTITIONS, written),
    })
}

/// What the head writer saw.
#[derive(Default)]
struct Head {
    /// `(partition, offset, hash)` of every acked append.
    acked: Vec<(u32, u64, u64)>,
    ack_us: Vec<f64>,
    e2e_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    elapsed: Duration,
}

fn write_head(producer: &Producer, seed: u64, tracer: &Tracer, stop: &AtomicBool) -> Head {
    set_role(Role::Generator);
    let mut gen = ActivityGen::new(seed, USERS, PAGES);
    let schedule = Schedule::new(Instant::now(), HEAD_RATE_PER_S).in_bursts(HEAD_BURST);
    let mut head = Head::default();
    let mut i = 0;
    while !stop.load(Ordering::SeqCst) {
        let (key, value) = event_record(&gen.next_event(), i, 0);
        head.late_ms.push(schedule.wait_for(i).as_secs_f64() * 1e3);
        let at = Instant::now();
        let result = tracer.span(Layer::Send, || {
            producer.send(Some(key.clone()), value.clone())
        });
        let done = Instant::now();
        if !schedule.opens_burst(i) {
            head.ack_us.push((done - at).as_secs_f64() * 1e6);
        }
        match result {
            Ok((p, offset)) => {
                head.e2e_ms
                    .push(lateness(schedule.due(i), done).as_secs_f64() * 1e3);
                head.acked
                    .push((p, offset, record_hash(offset, Some(&key), &value)));
            }
            Err(e) => {
                head.failed += 1;
                eprintln!("rewind: head write {i} failed: {e}");
            }
        }
        i += 1;
    }
    head.elapsed = schedule.due(0).elapsed();
    head
}

/// Digests of every partition from just past its marker to its high
/// watermark, read with plain fetches.
fn head_digests(cluster: &Cluster, ends: &[u64]) -> BenchResult<Vec<u64>> {
    let hws = high_watermarks(cluster, TOPIC)?;
    let mut out = vec![0; ends.len()];
    for (p, (&end, &hw)) in ends.iter().zip(&hws).enumerate() {
        let tp = TopicPartition::new(TOPIC, p as u32);
        let mut pos = end + 1;
        while pos < hw {
            let batch = cluster.fetch_batch(&tp, pos, 64 * 1024)?;
            for r in batch.records() {
                out[p] = chain(out[p], record_hash(r.offset, r.key.as_deref(), &r.value));
            }
            pos = batch.end_offset();
        }
    }
    Ok(out)
}

/// Runs a warm-up round, then `rewind` rounds until the measured time
/// reaches the window. Every round is checked; the warm-up round's
/// figures (first-touch memory) are left out of the metrics.
pub fn run(ctx: &Ctx) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let (mut setups, mut cold, mut hot) = (vec![], vec![], vec![]);
    let (mut ack_us, mut e2e_ms) = (vec![], vec![]);
    let (mut head_acked, mut head_time) = (0u64, Duration::ZERO);
    let mut measured = Duration::ZERO;
    let mut round = 0u64;
    while round == 0 || measured < ctx.window {
        let setup_from = if round == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let cluster = new_cluster(&ctx.obs)?;
        let topic = TopicConfig::with_partitions(PARTITIONS).replication(1);
        let segment_bytes = topic.log.segment_bytes;
        cluster.create_topic(TOPIC, topic)?;
        let producer = Producer::new(&cluster, TOPIC)?
            .with_partitioner(Partitioner::RoundRobin)
            .with_acks(AckLevel::Leader);
        let history = fill_history(
            &cluster,
            &producer,
            derive_seed(ctx.seed, 2 * round),
            segment_bytes,
        )?;
        setups.push(setup_from.elapsed().as_secs_f64());

        let before = Counters::now(&ctx.obs);
        let stop = AtomicBool::new(false);
        let tracer = &*ctx.tracer;
        let head_seed = derive_seed(ctx.seed, 2 * round + 1);
        let head_producer = Producer::new(&cluster, TOPIC)?
            .with_partitioner(Partitioner::Manual(HEAD_PARTITION))
            .with_acks(AckLevel::Leader);
        let (sweeps, head) = liquid_sim::thread::scope(|s| {
            let writer = s.spawn(|| write_head(&head_producer, head_seed, tracer, &stop));
            let sweeps = (|| -> BenchResult<_> {
                let first = sweep(
                    &cluster,
                    TOPIC,
                    &format!("cold-{round}"),
                    &history.ends,
                    tracer,
                    |_, _| {},
                )?;
                let after_cold = Counters::now(&ctx.obs);
                let mut passes = Vec::new();
                let mut hot_wall = Duration::ZERO;
                while passes.len() < MIN_HOT_PASSES || hot_wall < HOT_PHASE {
                    let pass = sweep(
                        &cluster,
                        TOPIC,
                        &format!("hot-{round}-{}", passes.len()),
                        &history.ends,
                        tracer,
                        |_, _| {},
                    )?;
                    hot_wall += pass.wall;
                    passes.push(pass);
                }
                Ok((first, after_cold, passes, hot_wall))
            })();
            stop.store(true, Ordering::SeqCst);
            (sweeps, writer.join())
        });
        let (first, after_cold, passes, hot_wall) = sweeps?;
        let after_hot = Counters::now(&ctx.obs);
        out.attempted +=
            history.records * (1 + passes.len() as u64) + head.acked.len() as u64 + head.failed;
        out.failed += head.failed;
        if round > 0 {
            out.counters = out.counters.plus(&after_hot.since(&before));
            let round_time = first.wall + hot_wall;
            measured += round_time;
            out.driver_wall += round_time;
            out.driver_excluded +=
                first.checking + passes.iter().map(|p| p.checking).sum::<Duration>();
            cold.push(first.rate());
            let hot_records: u64 = passes.iter().map(|p| p.records).sum();
            let hot_calls: Duration = passes.iter().map(|p| p.in_calls).sum();
            hot.push(hot_records as f64 / hot_calls.as_secs_f64());
            head_acked += head.acked.len() as u64;
            head_time += head.elapsed;
            ack_us.extend(head.ack_us);
            e2e_ms.extend(head.e2e_ms);
            out.late_ms.extend(head.late_ms);
        }

        let cold_counters = after_cold.since(&before);
        let hot_counters = after_hot.since(&after_cold);
        let sealed = u64::from(PARTITIONS) * SEGMENTS_PER_PARTITION;
        out.checks.check(
            &format!("round {round}: cold sweep decodes every sealed segment, hot sweeps none"),
            cold_counters.cache_miss >= sealed && hot_counters.cache_miss == 0 && hot_counters.cache_hit > 0,
            format!(
                "cold log.cache.miss +{} (>= {sealed}), hot log.cache.miss +{}, hot log.cache.hit +{}",
                cold_counters.cache_miss, hot_counters.cache_miss, hot_counters.cache_hit
            ),
        );
        let intact = first.digests == history.digests && first.records == history.records;
        let agree = passes.iter().all(|p| p.digests == first.digests);
        if !(intact && agree) {
            out.failed += 1;
        }
        out.checks.check(
            &format!("round {round}: cold and hot sweeps return the history, by checksum"),
            intact && agree,
            format!(
                "{} records, cold intact: {intact}, {} hot passes agree: {agree}",
                first.records,
                passes.len()
            ),
        );
        let head_ok = head_digests(&cluster, &history.ends)? == digests_of(PARTITIONS, head.acked);
        if !head_ok {
            out.failed += 1;
        }
        out.checks.check(
            &format!("round {round}: every head write is readable"),
            head_ok,
            String::new(),
        );
        if round == 0 {
            ctx.tracer.clear();
        }
        round += 1;
    }
    out.notes.push(format!(
        "{} rounds after a warm-up round, measured in {measured:.2?}",
        round - 1
    ));
    out.per_round("setup_s", &setups);
    out.per_round("cold_read_msgs_per_s", &cold);
    out.per_round("hot_read_msgs_per_s", &hot);
    out.e2e.insert(
        "produce_msgs_per_s",
        head_acked as f64 / head_time.as_secs_f64(),
    );
    out.latency(
        "ack_us (head Producer::send, all but the first of each burst)",
        "ack_p50_us",
        "ack_p99_us",
        &mut ack_us,
    );
    out.latency(
        "e2e_ms (head write due -> acked)",
        "e2e_p50_ms",
        "e2e_p99_ms",
        &mut e2e_ms,
    );
    Ok(out)
}
