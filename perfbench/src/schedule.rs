//! Open-loop send schedule: event `i` is due at `start + i / rate`,
//! whatever happened to the events before it. Latency is timed from the
//! due time, so a stall is charged to every event that queued behind
//! it, and how late the generator ran is reported on its own.
//!
//! Events can be due in bursts: with bursts of `n`, events `i` to
//! `i + n - 1` (for `i` a multiple of `n`) are all due at `start + i /
//! rate`, so the offered rate is the same but the generator wakes once
//! per burst. A send right after a sleep pays for the wake-up (cold
//! caches, an idle CPU coming back), which depends on how busy the host
//! is rather than on the program; in a burst most sends follow another
//! send, so a latency median measures the send path itself. The first
//! send of each burst carries the wake-up, so per-send ack latencies
//! leave it out (it would set a p99 at one send in eight); the
//! due-to-ack latencies keep every send.

use std::time::{Duration, Instant};

/// Fixed-rate due times anchored at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate_per_s: u64,
    burst: u64,
}

impl Schedule {
    /// A schedule of `rate_per_s` events per second starting at `start`.
    pub fn new(start: Instant, rate_per_s: u64) -> Self {
        assert!(rate_per_s > 0, "an open loop needs a positive rate");
        Schedule {
            start,
            rate_per_s,
            burst: 1,
        }
    }

    /// The same schedule with events due `burst` at a time.
    pub fn in_bursts(self, burst: u64) -> Self {
        assert!(burst > 0, "a burst holds at least one event");
        Schedule { burst, ..self }
    }

    /// Offset of event `i` from the start: that of the first event of
    /// its burst. Computed from `i` directly (not by summing periods),
    /// so rounding never accumulates.
    pub fn offset(&self, i: u64) -> Duration {
        let first = i - i % self.burst;
        let nanos = u128::from(first) * 1_000_000_000 / u128::from(self.rate_per_s);
        Duration::from_nanos(nanos as u64)
    }

    /// Whether event `i` is the first of its burst, the one sent right
    /// after the generator wakes.
    pub fn opens_burst(&self, i: u64) -> bool {
        i.is_multiple_of(self.burst)
    }

    /// When event `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset(i)
    }

    /// Sleeps until event `i` is due (returns at once when it is
    /// already late), then returns how late the send starts.
    pub fn wait_for(&self, i: u64) -> Duration {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        lateness(due, Instant::now())
    }
}

/// How far `actual` is past `due` (zero when early).
pub fn lateness(due: Instant, actual: Instant) -> Duration {
    actual.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_exact_multiples_of_the_period() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 4_000);
        assert_eq!(s.offset(0), Duration::ZERO);
        assert_eq!(s.offset(1), Duration::from_micros(250));
        assert_eq!(s.offset(4_000), Duration::from_secs(1));
        assert_eq!(s.due(8_000), t0 + Duration::from_secs(2));
    }

    #[test]
    fn rounding_never_accumulates() {
        // 3 events/s has a period of 333_333_333.33 ns; summing rounded
        // periods would drift by a nanosecond every three events.
        let s = Schedule::new(Instant::now(), 3);
        assert_eq!(s.offset(3), Duration::from_secs(1));
        assert_eq!(s.offset(3_000_000), Duration::from_secs(1_000_000));
        assert_eq!(s.offset(1), Duration::from_nanos(333_333_333));
    }

    #[test]
    fn a_burst_is_due_together_and_keeps_the_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 2_000).in_bursts(8);
        for i in 0..8 {
            assert_eq!(s.offset(i), Duration::ZERO);
        }
        assert_eq!(s.offset(8), Duration::from_millis(4));
        assert_eq!(s.offset(15), Duration::from_millis(4));
        assert_eq!(s.offset(2_000), Duration::from_secs(1));
        assert_eq!(s.due(4_000), t0 + Duration::from_secs(2));
        let opening: Vec<u64> = (0..20).filter(|&i| s.opens_burst(i)).collect();
        assert_eq!(opening, [0, 8, 16]);
        assert!((0..5).all(|i| Schedule::new(t0, 10).opens_burst(i)));
    }

    #[test]
    fn lateness_is_zero_when_early_and_exact_when_late() {
        let t0 = Instant::now();
        let later = t0 + Duration::from_millis(7);
        assert_eq!(lateness(later, t0), Duration::ZERO);
        assert_eq!(lateness(t0, later), Duration::from_millis(7));
    }

    #[test]
    fn wait_for_sleeps_until_due_and_reports_lateness_of_past_events() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1_000);
        s.wait_for(5);
        assert!(Instant::now() >= t0 + Duration::from_millis(5));
        // Event 0 was due at t0, so it is now at least 5 ms late.
        assert!(s.wait_for(0) >= Duration::from_millis(5));
    }
}
