//! The request driver: a closed-loop saturation phase and an open-loop
//! phase, both on one driver thread.
//!
//! Both loops are generic over how a request is submitted and how its
//! completion is awaited, so the accounting can be tested against a
//! synthetic server.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use mp_serve::ServeError;

/// Failed requests by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Errors {
    /// Admission control rejected the request (queue full).
    pub overload: u64,
    /// The SLO scheduler shed the request.
    pub shed: u64,
    /// The request's deadline passed before it ran.
    pub deadline: u64,
    /// The session closed before the request ran.
    pub closed: u64,
}

impl Errors {
    /// Counts one error by kind.
    pub fn record(&mut self, e: ServeError) {
        match e {
            ServeError::Overload => self.overload += 1,
            ServeError::Shed => self.shed += 1,
            ServeError::DeadlineExceeded => self.deadline += 1,
            ServeError::Closed => self.closed += 1,
        }
    }

    /// All errors.
    pub fn total(&self) -> u64 {
        self.overload + self.shed + self.deadline + self.closed
    }

    /// Sums two tallies.
    pub fn merged(self, other: Self) -> Self {
        Self {
            overload: self.overload + other.overload,
            shed: self.shed + other.shed,
            deadline: self.deadline + other.deadline,
            closed: self.closed + other.closed,
        }
    }
}

/// How the saturation phase is timed: a warm-up, then measured slices.
#[derive(Debug, Clone, Copy)]
pub struct SaturationTiming {
    /// Completions before this are not measured: the phase settles
    /// first (workers spread over the cores, queue fills).
    pub warmup: Duration,
    /// Length of one measured slice.
    pub slice: Duration,
    /// Slices measured; submissions stop after the last one.
    pub slices: usize,
}

/// What the saturation phase measured.
#[derive(Debug, Default)]
pub struct Saturation {
    /// Requests submitted.
    pub attempted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Failed requests by kind.
    pub errors: Errors,
    /// Completed requests per second in each slice after the warm-up,
    /// in order.
    pub slice_rates: Vec<f64>,
}

/// Closed loop with back-pressure: keeps up to `window` requests
/// outstanding (more than the queue holds, so the queue stays full)
/// through the warm-up and `timing.slices` slices, or until `next` runs
/// dry, then drains. Completions are counted per slice; the warm-up and
/// the drain, when the queue is no longer full, are not measured.
///
/// `submit(key)` hands a request to the server; `complete(key, p)`
/// awaits it and returns the server-side latency in microseconds.
pub fn saturate<P>(
    timing: SaturationTiming,
    window: usize,
    mut next: impl FnMut() -> Option<usize>,
    mut submit: impl FnMut(usize) -> P,
    mut complete: impl FnMut(usize, P) -> Result<u64, ServeError>,
) -> Saturation {
    let mut out = Saturation::default();
    let mut pending: VecDeque<(usize, P)> = VecDeque::with_capacity(window + 1);
    let mut finish = |out: &mut Saturation, key: usize, p: P| match complete(key, p) {
        Ok(_) => out.completed += 1,
        Err(e) => out.errors.record(e),
    };
    let mut slice_start = Instant::now() + timing.warmup;
    let mut slice_done = 0u64;
    while out.slice_rates.len() < timing.slices {
        let now = Instant::now();
        if now >= slice_start + timing.slice {
            let took = now.duration_since(slice_start).as_secs_f64();
            out.slice_rates.push(slice_done as f64 / took);
            slice_start = now;
            slice_done = 0;
            continue;
        }
        let Some(key) = next() else { break };
        if pending.len() >= window {
            let (k, p) = pending.pop_front().expect("window is non-empty");
            let before = out.completed;
            finish(&mut out, k, p);
            if Instant::now() > slice_start {
                slice_done += out.completed - before;
            }
        }
        pending.push_back((key, submit(key)));
        out.attempted += 1;
    }
    while let Some((k, p)) = pending.pop_front() {
        finish(&mut out, k, p);
    }
    out
}

/// One scheduled request of the open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, microseconds from the phase start.
    pub due_us: u64,
    /// Request key.
    pub key: usize,
}

/// One answered open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Request key.
    pub key: usize,
    /// How late the driver submitted it: submit instant − due.
    pub lag_us: f64,
    /// Server-side latency (`ServeResponse::latency_us`).
    pub server_us: f64,
    /// Latency timed from the due instant: `lag + server`.
    pub from_due_us: f64,
}

/// What the open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Requests submitted.
    pub attempted: u64,
    /// Answered requests.
    pub samples: Vec<Sample>,
    /// Failed requests by kind.
    pub errors: Errors,
}

/// Open loop: submits each arrival at its due instant whatever the
/// server is doing, and times every request from when it was due — a
/// stalled submission is charged to the requests behind it, not hidden.
///
/// Once `max_pending` requests are outstanding the oldest is awaited
/// before the next submission, so the driver's memory stays bounded;
/// if that request is not done yet, the wait delays later submissions
/// and is charged to them as lag.
pub fn open_loop<P>(
    schedule: &[Arrival],
    max_pending: usize,
    mut submit: impl FnMut(usize) -> P,
    mut complete: impl FnMut(usize, P) -> Result<u64, ServeError>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut pending: VecDeque<(usize, f64, P)> = VecDeque::new();
    let mut finish = |out: &mut OpenLoop, key: usize, lag_us: f64, p: P| match complete(key, p) {
        Ok(server_us) => {
            let server_us = server_us as f64;
            out.samples.push(Sample {
                key,
                lag_us,
                server_us,
                from_due_us: lag_us + server_us,
            });
        }
        Err(e) => out.errors.record(e),
    };
    let start = Instant::now();
    for a in schedule {
        let due = start + Duration::from_micros(a.due_us);
        while pending.len() >= max_pending.max(1) {
            let (k, lag, p) = pending.pop_front().expect("pending is non-empty");
            finish(&mut out, k, lag, p);
        }
        wait_until(due);
        let lag_us = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6;
        let p = submit(a.key);
        out.attempted += 1;
        pending.push_back((a.key, lag_us, p));
    }
    while let Some((k, lag, p)) = pending.pop_front() {
        finish(&mut out, k, lag, p);
    }
    out
}

/// Sleeps until shortly before `due`, then yields until it: the
/// serving workers share the cores and must not wait behind a spinning
/// driver.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A synthetic server: answers instantly with a fixed server-side
    /// latency, except that submitting `stall_key` blocks the caller.
    fn stalled_run(stall_key: usize, stall: Duration, gap_us: u64, n: usize) -> OpenLoop {
        let schedule: Vec<Arrival> = (0..n)
            .map(|i| Arrival {
                due_us: 1_000 + gap_us * i as u64,
                key: i,
            })
            .collect();
        open_loop(
            &schedule,
            usize::MAX,
            |key| {
                if key == stall_key {
                    std::thread::sleep(stall);
                }
                key
            },
            |_, _| Ok(100),
        )
    }

    #[test]
    fn a_stalled_submission_is_charged_to_later_requests() {
        let stall = Duration::from_millis(60);
        let gap_us = 5_000;
        let run = stalled_run(3, stall, gap_us, 12);
        assert_eq!(run.samples.len(), 12);
        assert_eq!(run.errors.total(), 0);
        let by_key = |k: usize| run.samples.iter().find(|s| s.key == k).expect("sample");
        // Request 4 was due 5 ms after request 3 but could only be sent
        // once the 60 ms stall ended: at least 55 ms late, and timed
        // from due, so its latency carries that lag.
        for k in 4..12 {
            let s = by_key(k);
            let behind = 60_000.0 - gap_us as f64 * (k - 3) as f64;
            if behind > 0.0 {
                assert!(s.lag_us >= behind, "key {k}: lag {} < {behind}", s.lag_us);
            }
            assert_eq!(s.from_due_us, s.lag_us + 100.0);
        }
        // A server-side-only measurement would have hidden all of it.
        assert!(run.samples.iter().all(|s| s.server_us == 100.0));
        let worst = run
            .samples
            .iter()
            .map(|s| s.from_due_us)
            .fold(0.0, f64::max);
        assert!(worst >= 55_000.0);
    }

    #[test]
    fn errors_are_counted_by_kind() {
        let schedule: Vec<Arrival> = (0..8).map(|i| Arrival { due_us: 0, key: i }).collect();
        let kinds = [
            Ok(5),
            Err(ServeError::Overload),
            Err(ServeError::Shed),
            Err(ServeError::DeadlineExceeded),
            Err(ServeError::Closed),
            Err(ServeError::Shed),
            Ok(5),
            Err(ServeError::Overload),
        ];
        let run = open_loop(&schedule, 1, |k| k, |k, _| kinds[k]);
        assert_eq!(run.attempted, 8);
        assert_eq!(run.samples.len(), 2);
        assert_eq!(
            run.errors,
            Errors {
                overload: 2,
                shed: 2,
                deadline: 1,
                closed: 1
            }
        );
        assert_eq!(run.errors.total(), 6);
    }

    fn timing(warmup_ms: u64, slice_ms: u64, slices: usize) -> SaturationTiming {
        SaturationTiming {
            warmup: Duration::from_millis(warmup_ms),
            slice: Duration::from_millis(slice_ms),
            slices,
        }
    }

    #[test]
    fn saturation_keeps_a_window_outstanding_and_drains() {
        let outstanding = Cell::new(0usize);
        let peak = Cell::new(0usize);
        let mut keys = 0..50usize;
        let run = saturate(
            timing(0, 1_000, 60),
            4,
            || keys.next(),
            |_| {
                outstanding.set(outstanding.get() + 1);
                peak.set(peak.get().max(outstanding.get()));
            },
            |_, ()| {
                outstanding.set(outstanding.get() - 1);
                Ok(1)
            },
        );
        assert_eq!(run.attempted, 50);
        assert_eq!(run.completed, 50);
        assert_eq!(peak.get(), 4, "never more than the window outstanding");
        assert_eq!(outstanding.get(), 0, "everything drained");
        // The keys ran dry long before the first slice ended.
        assert!(run.slice_rates.is_empty());
    }

    #[test]
    fn saturation_rates_are_measured_in_slices_after_the_warmup() {
        // Each completion takes 1 ms; the warm-up is slower (3 ms each)
        // and must not show in the slices.
        let start = Instant::now();
        let warmup = Duration::from_millis(60);
        let run = saturate(
            timing(60, 50, 4),
            1,
            || Some(0),
            |_| (),
            |_, ()| {
                let cost = if start.elapsed() < warmup { 3 } else { 1 };
                std::thread::sleep(Duration::from_millis(cost));
                Ok(1)
            },
        );
        assert!(run.completed > 0 && run.errors.total() == 0);
        assert_eq!(run.slice_rates.len(), 4, "{:?}", run.slice_rates);
        for rate in &run.slice_rates {
            // At most 1 000 completions per second; sleeping overshoots.
            assert!(*rate > 200.0 && *rate <= 1_000.0, "{rate}");
        }
        let counted: f64 = run.slice_rates.iter().map(|r| r * 0.05).sum();
        assert!(counted < run.completed as f64);
    }
}
