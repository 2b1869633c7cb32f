//! Pieces every workload shares: the cluster under test, generated
//! record values, record digests, counter deltas, and the consumer
//! sweep that reads a topic back.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use std::sync::Arc;

use liquid_log::Record;
use liquid_messaging::consumer::StartPosition;
use liquid_messaging::{AssignmentStrategy, Cluster, ClusterConfig, Consumer, TopicPartition};
use liquid_obs::{Obs, Snapshot};
use liquid_sim::SystemClock;
use liquid_workloads::activity::{ActivityEvent, ActivityGen};

use crate::trace::{Layer, Tracer};

/// Errors from the system under test or from a broken invariant.
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;
/// Result with [`BenchError`].
pub type BenchResult<T> = std::result::Result<T, BenchError>;

/// Brokers in every cluster; everything else is the default config
/// (1 MiB segments, 64 MiB segment-read cache).
pub const BROKERS: u32 = 2;

/// Distinct users the activity generator draws from (Zipf, s = 1).
pub const USERS: usize = 100_000;
/// Distinct pages the activity generator draws from.
pub const PAGES: usize = 10_000;

/// Bytes a sweep consumer fetches per partition per poll.
pub const SWEEP_POLL_BYTES: u64 = 256 * 1024;

/// A fresh cluster reporting into `obs`.
pub fn new_cluster(obs: &Obs) -> BenchResult<Cluster> {
    let config = ClusterConfig::builder()
        .brokers(BROKERS)
        .obs(obs.clone())
        .build()?;
    Ok(Cluster::new(config, SystemClock::shared()))
}

/// One generated record: the event's user as key, and a value of
/// exactly `len` bytes (when `len` is larger than the text) that
/// starts with the sequence number, then the event's wire encoding,
/// then filler.
pub fn event_record(event: &ActivityEvent, seq: u64, len: usize) -> (Bytes, Bytes) {
    let mut value = format!("{seq}|{}|", String::from_utf8_lossy(&event.encode())).into_bytes();
    if value.len() < len {
        value.resize(len, b'.');
    }
    (event.key(), Bytes::from(value))
}

/// `n` generated records from `seed` with values of `len` bytes.
pub fn generate(seed: u64, n: usize, len: usize) -> Vec<(Bytes, Bytes)> {
    let mut gen = ActivityGen::new(seed, USERS, PAGES);
    (0..n as u64)
        .map(|seq| event_record(&gen.next_event(), seq, len))
        .collect()
}

/// The sequence number at the front of a generated value.
pub fn seq_of(value: &[u8]) -> Option<u64> {
    let end = value.iter().position(|&b| b == b'|')?;
    std::str::from_utf8(&value[..end]).ok()?.parse().ok()
}

/// Hash of a record's offset, key and value, eight bytes at a time so
/// the checksum stays a small share of a sweep's time.
pub fn record_hash(offset: u64, key: Option<&[u8]>, value: &[u8]) -> u64 {
    let mut h = mix(0x243f_6a88_85a3_08d3, offset);
    match key {
        Some(k) => {
            h = mix(h, k.len() as u64 + 1);
            h = hash_bytes(h, k);
        }
        None => h = mix(h, 0),
    }
    h = mix(h, value.len() as u64);
    hash_bytes(h, value)
}

fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")),
        );
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    mix(h, u64::from_le_bytes(tail))
}

fn mix(h: u64, word: u64) -> u64 {
    let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// Encoded size of a record as the log stores it.
pub fn wire_size(key: &Bytes, value: &Bytes) -> u64 {
    Record::new(Some(key.clone()), value.clone(), 0).wire_size() as u64
}

/// Folds one record hash into an order-sensitive partition digest.
pub fn chain(digest: u64, hash: u64) -> u64 {
    mix(digest.rotate_left(17), hash)
}

/// Per-partition digests of `(partition, offset, key, value)` records,
/// folded in offset order.
pub fn digests_of(partitions: u32, mut records: Vec<(u32, u64, u64)>) -> Vec<u64> {
    records.sort_unstable();
    let mut out = vec![0; partitions as usize];
    for (p, _, hash) in records {
        out[p as usize] = chain(out[p as usize], hash);
    }
    out
}

/// Run-wide settings and shared instruments handed to a workload.
pub struct Ctx {
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the run measures.
    pub window: Duration,
    /// Observability domain every cluster of the run reports into.
    pub obs: Obs,
    /// The benchmark's spans (a pass-through when tracing is off).
    pub tracer: Arc<Tracer>,
    /// When the process started, for the first set-up.
    pub process_start: Instant,
}

/// Counters and histogram sums the benchmark reads from the cluster's
/// snapshot, as deltas over measured phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub roll: u64,
    pub cache_miss: u64,
    pub cache_hit: u64,
    pub cache_evict: u64,
    pub append_bytes: u64,
    pub replicated_messages: u64,
    pub produce_failures: u64,
    pub produce_batches: u64,
    pub produce_batch_records: u64,
    pub kv_flush: u64,
    pub kv_compact: u64,
}

impl Counters {
    /// The values in `snap`.
    pub fn read(snap: &Snapshot) -> Counters {
        let hist = |key: &str| snap.histograms.get(key).copied().unwrap_or_default();
        Counters {
            roll: snap.counter("log.roll"),
            cache_miss: snap.counter("log.cache.miss"),
            cache_hit: snap.counter("log.cache.hit"),
            cache_evict: snap.counter("log.cache-evict"),
            append_bytes: hist("log.append.bytes").sum,
            replicated_messages: snap.counter("cluster.replicated_messages"),
            produce_failures: snap.counter("cluster.produce_failures"),
            produce_batches: hist("cluster.produce.batch_records").count,
            produce_batch_records: hist("cluster.produce.batch_records").sum,
            kv_flush: snap.counter("kv.flush"),
            kv_compact: snap.counter("kv.compact"),
        }
    }

    /// The current values in `obs`.
    pub fn now(obs: &Obs) -> Counters {
        Counters::read(&obs.snapshot())
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            roll: self.roll - earlier.roll,
            cache_miss: self.cache_miss - earlier.cache_miss,
            cache_hit: self.cache_hit - earlier.cache_hit,
            cache_evict: self.cache_evict - earlier.cache_evict,
            append_bytes: self.append_bytes - earlier.append_bytes,
            replicated_messages: self.replicated_messages - earlier.replicated_messages,
            produce_failures: self.produce_failures - earlier.produce_failures,
            produce_batches: self.produce_batches - earlier.produce_batches,
            produce_batch_records: self.produce_batch_records - earlier.produce_batch_records,
            kv_flush: self.kv_flush - earlier.kv_flush,
            kv_compact: self.kv_compact - earlier.kv_compact,
        }
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            roll: self.roll + other.roll,
            cache_miss: self.cache_miss + other.cache_miss,
            cache_hit: self.cache_hit + other.cache_hit,
            cache_evict: self.cache_evict + other.cache_evict,
            append_bytes: self.append_bytes + other.append_bytes,
            replicated_messages: self.replicated_messages + other.replicated_messages,
            produce_failures: self.produce_failures + other.produce_failures,
            produce_batches: self.produce_batches + other.produce_batches,
            produce_batch_records: self.produce_batch_records + other.produce_batch_records,
            kv_flush: self.kv_flush + other.kv_flush,
            kv_compact: self.kv_compact + other.kv_compact,
        }
    }
}

/// One consumer-group pass over a topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Records read below the partitions' end offsets.
    pub records: u64,
    /// Order-sensitive digest per partition (see [`chain`]).
    pub digests: Vec<u64>,
    /// Time spent inside consumer calls (join, polls, commits, leave):
    /// the pass without the benchmark's own checksum work.
    pub in_calls: Duration,
    /// Time spent checksumming and visiting the records read.
    pub checking: Duration,
    /// Wall time of the whole pass.
    pub wall: Duration,
}

impl Sweep {
    /// Records per second of time inside consumer calls.
    pub fn rate(&self) -> f64 {
        self.records as f64 / self.in_calls.as_secs_f64()
    }
}

/// Runs `f`, adding its duration to `total`.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// Reads `topic` from its earliest offsets up to `ends[p]` on every
/// partition `p`, as a fresh consumer group that polls
/// [`SWEEP_POLL_BYTES`] per partition and commits after each poll.
/// Every record is checksummed and handed to `visit` with its
/// partition, outside the timed consumer calls.
pub fn sweep(
    cluster: &Cluster,
    topic: &str,
    group: &str,
    ends: &[u64],
    tracer: &Tracer,
    mut visit: impl FnMut(u32, &Record),
) -> BenchResult<Sweep> {
    let started = Instant::now();
    let (mut in_calls, mut checking) = (Duration::ZERO, Duration::ZERO);
    let consumer =
        Consumer::in_group(cluster, group, "sweeper").with_max_poll_bytes(SWEEP_POLL_BYTES);
    timed(&mut in_calls, || {
        tracer.span(Layer::GroupJoin, || {
            consumer.subscribe(&[topic], AssignmentStrategy::Range, StartPosition::Earliest)
        })
    })?;
    let mut digests = vec![0u64; ends.len()];
    let mut next: Vec<u64> = vec![0; ends.len()];
    let mut records = 0u64;
    let mut idle_polls = 0;
    while next.iter().zip(ends).any(|(n, e)| n < e) {
        let batches = timed(&mut in_calls, || {
            tracer.span_with(
                || consumer.poll_batches(),
                |r| {
                    (
                        Layer::Poll,
                        r.as_ref()
                            .map_or(0, |b| b.iter().map(|(_, b)| b.len() as u64).sum()),
                    )
                },
            )
        })?;
        if batches.is_empty() {
            idle_polls += 1;
            if idle_polls > 1_000 {
                return Err(format!("sweep of {topic} stalled at {next:?} of {ends:?}").into());
            }
            continue;
        }
        idle_polls = 0;
        let check_start = Instant::now();
        for (tp, batch) in &batches {
            let p = tp.partition as usize;
            for r in batch.records() {
                if r.offset >= ends[p] {
                    break;
                }
                if r.offset != next[p] {
                    return Err(
                        format!("{tp}: expected offset {} but read {}", next[p], r.offset).into(),
                    );
                }
                digests[p] = chain(
                    digests[p],
                    record_hash(r.offset, r.key.as_deref(), &r.value),
                );
                visit(tp.partition, r);
                next[p] += 1;
                records += 1;
            }
        }
        checking += check_start.elapsed();
        timed(&mut in_calls, || {
            tracer.span(Layer::ConsumerCommit, || consumer.commit(BTreeMap::new()))
        })?;
    }
    timed(&mut in_calls, || {
        tracer.span(Layer::GroupLeave, || consumer.leave())
    })?;
    Ok(Sweep {
        records,
        digests,
        in_calls,
        checking,
        wall: started.elapsed(),
    })
}

/// High watermark of every partition of `topic`.
pub fn high_watermarks(cluster: &Cluster, topic: &str) -> BenchResult<Vec<u64>> {
    let n = cluster.partition_count(topic)?;
    (0..n)
        .map(|p| Ok(cluster.latest_offset(&TopicPartition::new(topic, p))?))
        .collect()
}

/// Named pass/fail checks of one run.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool, String)>);

impl Checks {
    /// Records a check with a detail shown either way.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push((name.to_string(), ok, detail));
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_values_have_the_asked_length_and_carry_their_sequence() {
        let records = generate(7, 3, 200);
        assert_eq!(records.len(), 3);
        for (i, (key, value)) in records.iter().enumerate() {
            assert_eq!(value.len(), 200);
            assert!(key.starts_with(b"user-"));
            assert_eq!(seq_of(value), Some(i as u64));
        }
        assert_eq!(generate(7, 3, 200), records, "same seed, same records");
        // A length below the text keeps the text whole.
        let (_, short) = &generate(7, 1, 0)[0];
        assert_eq!(seq_of(short), Some(0));
    }

    #[test]
    fn digests_are_order_sensitive() {
        let a = record_hash(0, Some(b"k"), b"v1");
        let b = record_hash(1, Some(b"k"), b"v2");
        assert_ne!(chain(chain(0, a), b), chain(chain(0, b), a));
        assert_ne!(record_hash(0, None, b"v"), record_hash(0, Some(b""), b"v"));
    }

    #[test]
    fn counter_deltas_subtract_and_add_field_by_field() {
        let a = Counters {
            roll: 5,
            cache_miss: 2,
            ..Counters::default()
        };
        let b = Counters {
            roll: 9,
            cache_miss: 3,
            ..Counters::default()
        };
        let d = b.since(&a);
        assert_eq!((d.roll, d.cache_miss), (4, 1));
        assert_eq!(d.plus(&a), b);
    }
}
