//! Open-loop load: requests fall due on a fixed schedule whether or not
//! earlier ones have finished.
//!
//! Each request is timed from when it was due, not from when it was sent,
//! so a stall is charged to every request queued behind it (no coordinated
//! omission). How late the generator ran is reported on its own.

use amrviz_rng::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A stretch of the schedule at one fixed rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub rate: f64,
    pub secs: f64,
}

/// Due offsets (from the start of the run) and phase index of every
/// request. Each phase holds `rate × secs` requests at independent uniform
/// times, i.e. Poisson arrivals conditioned on their count, as from many
/// independent users; `rng` makes them repeatable.
pub fn schedule(phases: &[Phase], rng: &mut Rng) -> Vec<(usize, Duration)> {
    let mut out = Vec::new();
    let mut start = 0.0;
    for (p, ph) in phases.iter().enumerate() {
        let n = (ph.rate * ph.secs).round() as usize;
        let mut at: Vec<f64> = (0..n).map(|_| start + rng.f64() * ph.secs).collect();
        at.sort_by(f64::total_cmp);
        out.extend(at.into_iter().map(|t| (p, Duration::from_secs_f64(t))));
        start += ph.secs;
    }
    out
}

/// One scheduled request. Times are offsets from the start of the run.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// `None` when the generator fell so far behind that it gave up
    /// before sending; such a request counts as failed.
    pub result: Option<R>,
}

impl<R> Sample<R> {
    /// Due → done, the latency the request's user sees.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Due → sent, how late the generator ran.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs `due` on `threads` threads. A thread takes the next request, waits
/// until it is due, then calls `op(index)`; a thread that is behind sends
/// at once. Requests not yet sent `give_up` after their due time are
/// recorded unsent. Returns samples in schedule order.
pub fn run<R: Send>(
    due: &[Duration],
    threads: usize,
    give_up: Duration,
    op: impl Fn(usize) -> R + Sync,
) -> Vec<Sample<R>> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample<R>>> = Mutex::new(Vec::with_capacity(due.len()));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&d) = due.get(i) else { break };
                let now = start.elapsed();
                if now < d {
                    std::thread::sleep(d - now);
                }
                let sent = start.elapsed();
                let result = (sent <= d + give_up).then(|| op(i));
                let done = start.elapsed();
                let sample = Sample {
                    index: i,
                    due: d,
                    sent,
                    done,
                    result,
                };
                samples.lock().expect("sample list poisoned").push(sample);
            });
        }
    });
    let mut out = samples.into_inner().expect("sample list poisoned");
    out.sort_by_key(|s| s.index);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_follows_phase_rates_and_repeats_per_seed() {
        let phases = [
            Phase {
                rate: 200.0,
                secs: 5.0,
            },
            Phase {
                rate: 1000.0,
                secs: 1.0,
            },
        ];
        let s = schedule(&phases, &mut Rng::seed(3));
        assert_eq!(s, schedule(&phases, &mut Rng::seed(3)));
        assert_ne!(s, schedule(&phases, &mut Rng::seed(4)));
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
        let first = s.iter().filter(|x| x.0 == 0).count();
        assert_eq!(first, 1000);
        assert_eq!(s.len(), 2000);
        // Independent arrivals: gaps vary, some far below the mean 5 ms.
        let gaps: Vec<f64> = s[..first]
            .windows(2)
            .map(|w| (w[1].1 - w[0].1).as_secs_f64())
            .collect();
        assert!(gaps.iter().filter(|&&g| g < 0.001).count() > 100);
        assert!(s[..first].iter().all(|x| x.1 < Duration::from_secs(5)));
        assert!(s[first..].iter().all(|x| x.1 >= Duration::from_secs(5)));
    }

    #[test]
    fn a_stalled_request_raises_the_latency_of_later_due_requests() {
        // One generator thread, a request due every 10 ms, each served in
        // about 1 ms, except request 2 which stalls for 150 ms.
        let due: Vec<Duration> = (0..12).map(|i| Duration::from_millis(10 * i)).collect();
        let samples = run(&due, 1, Duration::from_secs(10), |i| {
            let t = if i == 2 { 150 } else { 1 };
            std::thread::sleep(Duration::from_millis(t));
            i
        });
        assert_eq!(samples.len(), 12);
        assert!(samples.iter().all(|s| s.result.is_some()));
        // Request 3 was due at 30 ms but could only be sent once request 2
        // finished (about 170 ms): its latency carries that wait even
        // though its own service took 1 ms.
        let s3 = &samples[3];
        assert!(s3.lateness() >= Duration::from_millis(120), "{s3:?}");
        assert!(s3.latency() >= Duration::from_millis(120), "{s3:?}");
        assert!(s3.done - s3.sent < Duration::from_millis(100), "{s3:?}");
        // Requests behind it are charged too, decreasingly as the
        // generator catches up.
        for s in &samples[4..8] {
            assert!(s.latency() > Duration::from_millis(40), "{s:?}");
        }
        // Before the stall, latency is just service time.
        assert!(samples[1].latency() < Duration::from_millis(50));
    }

    #[test]
    fn requests_too_late_to_send_are_recorded_unsent() {
        let due: Vec<Duration> = (0..4).map(Duration::from_millis).collect();
        let samples = run(&due, 1, Duration::from_millis(20), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(80));
            }
        });
        assert!(samples[0].result.is_some());
        assert!(samples[1..].iter().all(|s| s.result.is_none()));
    }
}
