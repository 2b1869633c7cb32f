//! `ingest`: the durable firehose.
//!
//! One producer thread in a closed loop buffers keyed, Zipf-distributed
//! activity events padded to 1 KiB into an 8-partition RF=2 topic with
//! `acks=all` and 64-record batches (no linger). The whole write path
//! works here — accumulate, partition resolve, log append and roll,
//! synchronous follower catch-up, high-watermark advance — while
//! nothing fetches or processes until the round's read-back.
//!
//! A run is a series of rounds, each on a fresh cluster: set up,
//! produce a fixed number of records, then read them back twice with
//! fresh consumer groups, checking every acked record.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use liquid_messaging::{AckLevel, BatchConfig, Producer, TopicConfig};
use liquid_sim::rng::derive_seed;

use crate::common::{
    generate, high_watermarks, new_cluster, seq_of, sweep, wire_size, BenchResult, Counters, Ctx,
};
use crate::outcome::Outcome;
use crate::trace::Layer;

const TOPIC: &str = "firehose";
const PARTITIONS: u32 = 8;
const REPLICATION: u32 = 2;
/// Value size: large enough that the path is bound by bytes.
const VALUE_BYTES: usize = 1024;
/// Records per round (about 16 MiB, so every partition rolls).
const ROUND_RECORDS: usize = 16_000;
const BATCH: BatchConfig = BatchConfig {
    max_records: 64,
    max_bytes: 1 << 20,
    linger_ms: 0,
};

/// Runs a warm-up round, then `ingest` rounds until the measured time
/// reaches the window. Every round is checked; the warm-up round's
/// figures (first-touch memory) are left out of the metrics.
pub fn run(ctx: &Ctx) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let (mut setups, mut rates, mut cold, mut hot) = (vec![], vec![], vec![], vec![]);
    let (mut ack_us, mut e2e_ms) = (vec![], vec![]);
    let mut measured = Duration::ZERO;
    let mut round = 0u64;
    while round == 0 || measured < ctx.window {
        let setup_from = if round == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let cluster = new_cluster(&ctx.obs)?;
        let topic = TopicConfig::with_partitions(PARTITIONS).replication(REPLICATION);
        let segment_bytes = topic.log.segment_bytes;
        cluster.create_topic(TOPIC, topic)?;
        let producer = Producer::new(&cluster, TOPIC)?
            .with_acks(AckLevel::All)
            .with_batching(BATCH);
        let records = generate(derive_seed(ctx.seed, round), ROUND_RECORDS, VALUE_BYTES);
        setups.push(setup_from.elapsed().as_secs_f64());

        // Produce. A committing `buffer` call returns the partition and
        // base offset of the batch it acked; a record's batch is found
        // again at read-back from its partition and offset.
        let before = Counters::now(&ctx.obs);
        let start = Instant::now();
        let mut buffered_at = Vec::with_capacity(records.len());
        let mut commits: Vec<Vec<(u64, Instant)>> = vec![Vec::new(); PARTITIONS as usize];
        for (key, value) in &records {
            out.attempted += 1;
            let at = Instant::now();
            buffered_at.push(at);
            let result = ctx.tracer.span_with(
                || producer.buffer(Some(key.clone()), value.clone()),
                |r| match r {
                    Ok(Some(_)) => (Layer::Commit, BATCH.max_records as u64),
                    _ => (Layer::Accumulate, 0),
                },
            );
            match result {
                Ok(Some((p, base))) => {
                    let acked = Instant::now();
                    if round > 0 {
                        ack_us.push((acked - at).as_secs_f64() * 1e6);
                    }
                    commits[p as usize].push((base, acked));
                }
                Ok(None) => {}
                Err(e) => {
                    out.failed += 1;
                    eprintln!("ingest: buffer failed: {e}");
                }
            }
        }
        let flushed = ctx.tracer.span_with(
            || producer.flush(),
            |r| {
                (
                    Layer::Flush,
                    r.as_ref().map_or(0, |f| f.iter().map(|b| b.2).sum()),
                )
            },
        )?;
        let produced = Instant::now();
        for (p, base, _) in flushed {
            commits[p as usize].push((base, produced));
        }
        let produce_time = produced - start;

        // Read back twice with fresh groups: the first pass is the first
        // read of the round's data, the second re-reads it.
        let ends = high_watermarks(&cluster, TOPIC)?;
        let mut seen: Vec<(u32, u64, Option<u64>, bool, u64)> = Vec::with_capacity(records.len());
        let first = sweep(&cluster, TOPIC, "readback-1", &ends, &ctx.tracer, |p, r| {
            let seq = seq_of(&r.value);
            let same = seq
                .and_then(|s| records.get(s as usize))
                .is_some_and(|(k, v)| r.key.as_ref() == Some(k) && &r.value == v);
            seen.push((p, r.offset, seq, same, r.wire_size() as u64));
        })?;
        let second = sweep(&cluster, TOPIC, "readback-2", &ends, &ctx.tracer, |_, _| {})?;
        let round_counters = Counters::now(&ctx.obs).since(&before);
        if round > 0 {
            out.counters = out.counters.plus(&round_counters);
            rates.push(records.len() as f64 / produce_time.as_secs_f64());
            cold.push(first.rate());
            hot.push(second.rate());
            let round_time = produce_time + first.wall + second.wall;
            measured += round_time;
            out.driver_wall += round_time;
            out.driver_excluded += first.checking + second.checking;
        }

        // Every acked record is fetchable, once, with its content, in
        // per-partition order (a key's events keep their send order).
        let mut found = vec![false; records.len()];
        let mut wrong = 0u64;
        let mut last_seq: HashMap<&Bytes, u64> = HashMap::new();
        let mut partition_bytes = vec![0u64; PARTITIONS as usize];
        for &(p, offset, seq, same, wire) in &seen {
            partition_bytes[p as usize] += wire;
            let Some(seq) = seq.filter(|_| same) else {
                wrong += 1;
                continue;
            };
            let key = &records[seq as usize].0;
            let in_order = last_seq.insert(key, seq).is_none_or(|prev| prev < seq);
            if std::mem::replace(&mut found[seq as usize], true) || !in_order {
                wrong += 1;
            }
            // The record was acked by the last commit on its partition
            // at or below its offset.
            let acks = &commits[p as usize];
            match acks
                .partition_point(|&(base, _)| base <= offset)
                .checked_sub(1)
            {
                Some(i) if round > 0 => {
                    e2e_ms.push((acks[i].1 - buffered_at[seq as usize]).as_secs_f64() * 1e3)
                }
                Some(_) => {}
                None => wrong += 1,
            }
        }
        let missing = found.iter().filter(|f| !**f).count() as u64;
        out.failed += wrong + missing;
        out.checks.check(
            &format!("round {round}: every acked record read back once, intact, in key order"),
            wrong == 0 && missing == 0 && first.digests == second.digests,
            format!(
                "{} read, {wrong} wrong, {missing} missing, passes agree: {}",
                seen.len(),
                first.digests == second.digests
            ),
        );
        let min_bytes = partition_bytes.iter().copied().min().unwrap_or(0);
        out.checks.check(
            &format!("round {round}: every partition rolled a segment"),
            min_bytes > segment_bytes + (BATCH.max_records * (VALUE_BYTES + 64)) as u64
                && round_counters.roll >= u64::from(PARTITIONS),
            format!(
                "smallest partition {min_bytes} B, log.roll +{}",
                round_counters.roll
            ),
        );
        out.checks.check(
            &format!("round {round}: sealed segments were decoded (log.cache.miss > 0)"),
            round_counters.cache_miss > 0,
            format!(
                "log.cache.miss +{}, log.cache-evict +{}",
                round_counters.cache_miss, round_counters.cache_evict
            ),
        );
        if round == 0 {
            ctx.tracer.clear();
        }
        round += 1;
    }
    let wire = wire_size(
        &Bytes::from_static(b"user-00000"),
        &Bytes::from(vec![0u8; VALUE_BYTES]),
    );
    out.notes.push(format!(
        "{} rounds of {ROUND_RECORDS} records (~{wire} B on the wire each) after a warm-up round, {measured:.2?} measured",
        round - 1
    ));
    out.per_round("setup_s", &setups);
    out.per_round("produce_msgs_per_s", &rates);
    out.per_round("cold_read_msgs_per_s", &cold);
    out.per_round("hot_read_msgs_per_s", &hot);
    out.latency(
        "ack_us (committing buffer calls)",
        "ack_p50_us",
        "ack_p99_us",
        &mut ack_us,
    );
    out.latency(
        "e2e_ms (buffered -> batch acked)",
        "e2e_p50_ms",
        "e2e_p99_ms",
        &mut e2e_ms,
    );
    Ok(out)
}
