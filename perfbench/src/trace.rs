//! The benchmark's own spans around each public call into a layer.
//!
//! Spans are kept in memory and written out when the run ends. Nested
//! spans on one thread (a state put inside a job round) are children of
//! the enclosing span, and a span's self time is its duration minus the
//! part its children cover. With tracing off every call goes straight
//! through: the end-to-end metrics are measured that way.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use liquid_obs::CounterHandle;

/// The public call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `Producer::buffer` that only accumulated the record.
    Accumulate,
    /// `Producer::buffer` that group-committed a batch.
    Commit,
    /// `Producer::flush`.
    Flush,
    /// `Producer::send`.
    Send,
    /// `Cluster::replicate_tick`.
    ReplicateTick,
    /// `Job::run_once`.
    RunOnce,
    /// `StateStore::add_counter` inside a task.
    StatePut,
    /// `TaskContext::send` inside a task.
    TaskSend,
    /// `Job::checkpoint`.
    Checkpoint,
    /// `Consumer::poll_batches`.
    Poll,
    /// `Consumer::commit`.
    ConsumerCommit,
    /// `Consumer::subscribe` (joins a consumer group).
    GroupJoin,
    /// `Consumer::leave` (leaves a consumer group).
    GroupLeave,
}

impl Layer {
    /// Name of the wrapped call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Accumulate => "producer.buffer.accumulate",
            Layer::Commit => "producer.buffer.commit",
            Layer::Flush => "producer.flush",
            Layer::Send => "producer.send",
            Layer::ReplicateTick => "cluster.replicate_tick",
            Layer::RunOnce => "job.run_once",
            Layer::StatePut => "state.add_counter",
            Layer::TaskSend => "task.send",
            Layer::Checkpoint => "job.checkpoint",
            Layer::Poll => "consumer.poll_batches",
            Layer::ConsumerCommit => "consumer.commit",
            Layer::GroupJoin => "consumer.subscribe",
            Layer::GroupLeave => "consumer.leave",
        }
    }
}

/// Which benchmark thread recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// The thread that drives the workload and owns its wall time.
    Driver,
    /// An open-loop generator beside the driver.
    Generator,
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Driver) };
    static DEPTH: Cell<u8> = const { Cell::new(0) };
}

/// Marks the calling thread's role for the spans it records.
pub fn set_role(role: Role) {
    ROLE.with(|r| r.set(role));
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Wrapped call.
    pub layer: Layer,
    /// Recording thread.
    pub role: Role,
    /// Nesting depth on that thread (0 = called by the benchmark loop).
    pub depth: u8,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Records the call moved (polled, processed, committed), if any.
    pub count: u64,
    /// Whether the log's `log.cache.miss` counter rose during the call.
    pub missed: bool,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Collects spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    misses: CounterHandle,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `misses` is the cluster's `log.cache.miss` counter.
    pub fn new(on: bool, misses: CounterHandle) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            misses,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.span_with(f, |_| (layer, 0))
    }

    /// Runs `f` inside a span whose layer and record count are read off
    /// its result (a `buffer` call is a commit only if it returned one).
    pub fn span_with<T>(
        &self,
        f: impl FnOnce() -> T,
        classify: impl FnOnce(&T) -> (Layer, u64),
    ) -> T {
        if !self.on {
            return f();
        }
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let misses = self.misses.get();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        DEPTH.with(|d| d.set(depth));
        let (layer, count) = classify(&out);
        let span = Span {
            layer,
            role: ROLE.with(Cell::get),
            depth,
            start_ns: nanos_between(self.origin, start),
            dur_ns: nanos_between(start, end),
            count,
            missed: self.misses.get() > misses,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        out
    }

    /// Drops everything recorded so far (a warm-up's spans).
    pub fn clear(&self) {
        self.take();
    }

    /// Everything recorded so far, sorted by thread and start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        );
        spans.sort_by_key(|s| (s.role, s.start_ns, std::cmp::Reverse(s.dur_ns), s.depth));
        spans
    }
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span in `spans` (sorted as [`Tracer::take`]
/// returns them): its duration minus the time its direct children on
/// the same thread cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    // Open ancestors on the current thread, innermost last.
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while let Some(&top) = open.last() {
            let parent = &spans[top];
            if parent.role == s.role
                && s.start_ns >= parent.start_ns
                && s.end_ns() <= parent.end_ns()
                && s.depth > parent.depth
            {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            if spans[parent].depth + 1 == s.depth {
                out[parent] = out[parent].saturating_sub(s.dur_ns);
            }
        }
        open.push(i);
    }
    out
}

/// Column names of [`to_tsv`]'s output.
pub const TSV_HEADER: &str = "layer\tthread\tdepth\tstart_ns\tdur_ns\tself_ns\tcount\tcache_miss";

/// Writes `spans` as tab-separated lines under [`TSV_HEADER`], each
/// with its self time.
pub fn to_tsv(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 64);
    out.push_str(TSV_HEADER);
    out.push('\n');
    for (s, self_ns) in spans.iter().zip(selfs) {
        let role = match s.role {
            Role::Driver => "driver",
            Role::Generator => "generator",
        };
        let _ = writeln!(
            out,
            "{}\t{role}\t{}\t{}\t{}\t{self_ns}\t{}\t{}",
            s.layer.name(),
            s.depth,
            s.start_ns,
            s.dur_ns,
            s.count,
            u8::from(s.missed)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, depth: u8, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            layer,
            role: Role::Driver,
            depth,
            start_ns,
            dur_ns,
            count: 0,
            missed: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(Layer::RunOnce, 0, 0, 100),
            span(Layer::StatePut, 1, 10, 20),
            span(Layer::TaskSend, 1, 40, 30),
            span(Layer::Poll, 0, 200, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 50]);
    }

    #[test]
    fn grandchildren_are_charged_to_their_own_parent() {
        let spans = vec![
            span(Layer::RunOnce, 0, 0, 100),
            span(Layer::StatePut, 1, 10, 50),
            span(Layer::TaskSend, 2, 20, 10),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn spans_on_other_threads_are_never_children() {
        let mut gen = span(Layer::Send, 0, 10, 5);
        gen.role = Role::Generator;
        let mut spans = vec![span(Layer::RunOnce, 0, 0, 100), gen];
        spans.sort_by_key(|s| (s.role, s.start_ns));
        assert_eq!(self_times(&spans), vec![100, 5]);
    }

    #[test]
    fn recording_tracks_depth_and_an_off_tracer_records_nothing() {
        let misses = liquid_obs::Registry::new().counter("log.cache.miss");
        let t = Tracer::new(true, misses.clone());
        t.span(Layer::RunOnce, || {
            t.span(Layer::StatePut, || misses.inc());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].layer, spans[0].depth), (Layer::RunOnce, 0));
        assert_eq!((spans[1].layer, spans[1].depth), (Layer::StatePut, 1));
        assert!(spans[0].missed && spans[1].missed);
        assert_eq!(to_tsv(&spans).lines().count(), 3);

        let off = Tracer::new(false, misses);
        assert_eq!(off.span(Layer::Poll, || 7), 7);
        assert!(off.take().is_empty());
    }
}
