//! The open-loop request driver.
//!
//! Requests arrive on a seeded Poisson schedule, independent of how
//! fast they are answered. A fixed pool of threads claims the next
//! request index, waits until it is due and makes the call. Latency is
//! timed from the due time, so a stall also charges the queueing delay
//! it imposes on every later request; how late the call started is
//! recorded separately, to show whether the generator kept up.

use crate::util::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Due times (ns after the run starts) of `n` Poisson arrivals at
/// `rate_qps`.
pub fn poisson_due_ns(rate_qps: f64, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate_qps * 1e9;
            t as u64
        })
        .collect()
}

/// When one request was due, how late its call started, and how long
/// from due to response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Due time, ns after the run started.
    pub due_ns: u64,
    /// Call start minus due time.
    pub late_ns: u64,
    /// Response time minus due time.
    pub latency_ns: u64,
}

/// A finished run: one `(timing, outcome)` per request in index order,
/// plus the wall time from start to the last response.
#[derive(Debug)]
pub struct Run<S> {
    /// Per-request timing and outcome, indexed like the schedule.
    pub samples: Vec<(Timing, S)>,
    /// Seconds from the run's start to its last response.
    pub elapsed_s: f64,
}

/// Drive `due_ns.len()` requests from `threads` threads. For request
/// `i` a thread runs `prepare(i)` before the due time (untimed), then
/// `call(i, prepared)` at the due time (timed), then
/// `finish(i, timing, out)` after the response (untimed, but it
/// occupies the thread). All-zero due times make this a closed loop.
pub fn run<P, R, S: Send>(
    due_ns: &[u64],
    threads: usize,
    prepare: impl Fn(usize) -> P + Sync,
    call: impl Fn(usize, P) -> R + Sync,
    finish: impl Fn(usize, &Timing, R) -> S + Sync,
) -> Run<S> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Timing, S)>> = Mutex::new(Vec::with_capacity(due_ns.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&due) = due_ns.get(i) else { break };
                    let prepared = prepare(i);
                    let due_at = start + Duration::from_nanos(due);
                    wait_until(due_at);
                    let called = Instant::now();
                    let out = call(i, prepared);
                    let answered = Instant::now();
                    let timing = Timing {
                        due_ns: due,
                        late_ns: called.saturating_duration_since(due_at).as_nanos() as u64,
                        latency_ns: answered.saturating_duration_since(due_at).as_nanos() as u64,
                    };
                    let outcome = finish(i, &timing, out);
                    local.push((i, timing, outcome));
                }
                sb_obs::flush();
                done.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = done.into_inner().unwrap();
    samples.sort_by_key(|(i, _, _)| *i);
    Run {
        samples: samples.into_iter().map(|(_, t, s)| (t, s)).collect(),
        elapsed_s,
    }
}

/// Yield until the due time. Sleeping would let the core go idle, and
/// on a virtual machine waking an idle core can take hundreds of
/// microseconds that would be charged to the request; yielding keeps
/// the core and still lets the engine's own worker threads run. A
/// sleep-then-spin wait was measured against this one (see the
/// benchmark's README): it lowered p99 by about a tenth, raised p50 by
/// about as much, and doubled to tripled p50 in traced runs.
fn wait_until(target: Instant) {
    while Instant::now() < target {
        std::thread::yield_now();
    }
}
