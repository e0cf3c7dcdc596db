//! The open-loop send schedule.
//!
//! Independent users do not wait for each other's replies, so the serving
//! phases send on an absolute schedule: request `i` is *due* at `i × gap`
//! after the phase starts, whatever happened to the requests before it.
//! Latency is timed from the due time, so a stall — of the server or of this
//! generator — is charged to every request it delayed, and how late the
//! generator itself ran is reported beside the latencies.
//!
//! Every scheduled request is sent; none is skipped and the schedule never
//! shifts.  After a stall the overdue requests are not dumped on the server
//! in one instant either: consecutive sends stay at least a quarter of the
//! gap apart, so the backlog drains at no more than four times the nominal
//! rate and a long host stall cannot overflow the admission queue with a
//! burst no real arrival process would produce.

use std::time::{Duration, Instant};

/// Decides when each request of a fixed-rate schedule is due and when it may
/// be sent.  Pure arithmetic on nanosecond offsets from the phase start, so
/// the policy is testable without a clock.
#[derive(Debug, Clone)]
pub struct Pacer {
    gap_ns: u64,
    min_spacing_ns: u64,
    next_index: u64,
    last_send_ns: Option<u64>,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// When the request should have been sent; latency counts from here.
    pub due_ns: u64,
    /// The earliest it may be sent: the due time, or later while a backlog
    /// drains.
    pub not_before_ns: u64,
}

impl Pacer {
    pub fn per_second(rate: f64) -> Self {
        let gap_ns = (1e9 / rate).round() as u64;
        Self {
            gap_ns,
            min_spacing_ns: gap_ns / 4,
            next_index: 0,
            last_send_ns: None,
        }
    }

    /// Due time of the next request, without consuming it.
    pub fn peek_due_ns(&self) -> u64 {
        self.next_index * self.gap_ns
    }

    /// The next request's slot.  Call [`Pacer::sent`] once it went out.
    pub fn next_slot(&mut self) -> Slot {
        let due_ns = self.peek_due_ns();
        self.next_index += 1;
        let not_before_ns = match self.last_send_ns {
            Some(last) => due_ns.max(last + self.min_spacing_ns),
            None => due_ns,
        };
        Slot {
            due_ns,
            not_before_ns,
        }
    }

    pub fn sent(&mut self, at_ns: u64) {
        self.last_send_ns = Some(at_ns);
    }
}

/// Blocks until `deadline`: sleeps while it is far, then spins the last
/// stretch, because a sleep alone overshoots by the timer slack (~60 µs
/// here) and that would show up as generator lag in every latency.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a pacer against a scripted clock: `stall_at` is the index of
    /// the request before which the generator loses `stall_ns`.
    fn drive(rate: f64, count: usize, stall_at: usize, stall_ns: u64) -> Vec<(Slot, u64)> {
        let mut pacer = Pacer::per_second(rate);
        let mut now_ns = 0u64;
        let mut sends = Vec::new();
        for i in 0..count {
            if i == stall_at {
                now_ns += stall_ns;
            }
            let slot = pacer.next_slot();
            now_ns = now_ns.max(slot.not_before_ns);
            pacer.sent(now_ns);
            sends.push((slot, now_ns));
        }
        sends
    }

    #[test]
    fn an_unstalled_generator_sends_exactly_on_schedule() {
        let sends = drive(1000.0, 50, usize::MAX, 0);
        for (i, (slot, sent)) in sends.iter().enumerate() {
            assert_eq!(slot.due_ns, i as u64 * 1_000_000);
            assert_eq!(*sent, slot.due_ns, "no lag without a stall");
        }
    }

    #[test]
    fn a_stall_is_accounted_as_lateness_and_drains_without_a_burst() {
        // 1000/s, the generator loses 10 ms before request 20.
        let sends = drive(1000.0, 60, 20, 10_000_000);
        // Nothing is skipped and due times never shift.
        assert_eq!(sends.len(), 60);
        for (i, (slot, _)) in sends.iter().enumerate() {
            assert_eq!(slot.due_ns, i as u64 * 1_000_000);
        }
        // The stall shows as lateness of the request it hit ...
        let lag = |i: usize| sends[i].1 - sends[i].0.due_ns;
        assert_eq!(lag(19), 0);
        assert_eq!(lag(20), 9_000_000);
        // ... and of the backlog behind it, shrinking send by send.
        assert!(lag(21) > 0 && lag(21) < lag(20));
        // No catch-up burst: consecutive sends stay a quarter gap apart.
        for pair in sends.windows(2) {
            assert!(pair[1].1 - pair[0].1 >= 250_000, "{pair:?}");
        }
        // The backlog drains (at 4x the rate, 10 ms of it takes ~13 sends)
        // and the generator is back on the absolute schedule afterwards.
        assert_eq!(lag(40), 0);
        assert_eq!(lag(59), 0);
        assert_eq!(sends[59].1, 59_000_000);
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let deadline = Instant::now() + Duration::from_millis(3);
        wait_until(deadline);
        assert!(Instant::now() >= deadline);
        // A deadline already past returns at once.
        wait_until(Instant::now() - Duration::from_millis(1));
    }
}
