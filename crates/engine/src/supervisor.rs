//! Layer 2: the worker pool with panic isolation and retry.
//!
//! Shards are jobs on a shared queue drained by a fixed pool of scoped
//! threads. A shard that panics is caught with `catch_unwind`, retried
//! once in place, and — if it panics again — reported as a
//! [`DegradedShard`] while every other shard's results survive. Results
//! flow back to the supervisor over a bounded channel.
//!
//! Observability: every attempt runs under its own span (child of the
//! caller's detect span), panic recoveries get a marker span, and the
//! registry accumulates `supervisor.*` counters. Queue depths are
//! recorded as a bounded [`Histogram`] instead of a per-pop vector, so
//! supervisor memory stays fixed on arbitrarily large runs. None of this
//! is read back by the pool: scheduling depends only on the queue.

use obs::{Histogram, Obs, SpanId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;

/// A shard that kept panicking and was abandoned after its retries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedShard {
    /// Shard index.
    pub shard: usize,
    /// The panic payload of the final attempt.
    pub error: String,
    /// Attempts made (retry policy: 2).
    pub attempts: u32,
}

/// How often a failing shard is attempted before it degrades.
pub const MAX_ATTEMPTS: u32 = 2;

/// Outcome of one job, as sent back to the supervisor.
enum JobResult<T> {
    Done {
        shard: usize,
        attempts: u32,
        value: T,
    },
    Failed(DegradedShard),
}

/// A finished shard as `(shard, attempts, value)`; `None` if degraded.
pub type ShardResult<T> = Option<(usize, u32, T)>;

/// Run `jobs` shard jobs on `workers` threads. `run(shard, attempt, span)`
/// does the work (attempt counts from 1; `span` is the attempt's span id,
/// for nesting child spans). Returns per-shard results in shard order
/// (`None` for degraded shards), the degraded list sorted by shard, and
/// the queue-depth histogram.
pub fn run_shards<T, F>(
    jobs: Vec<usize>,
    workers: usize,
    obs: &Obs,
    parent: SpanId,
    run: F,
) -> (Vec<ShardResult<T>>, Vec<DegradedShard>, Histogram)
where
    T: Send,
    F: Fn(usize, u32, SpanId) -> T + Sync,
{
    let max_shard = jobs.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let total = jobs.len();
    let workers = workers.clamp(1, total.max(1));

    let queue: Mutex<VecDeque<usize>> = Mutex::new(jobs.into());
    let depths: Mutex<Histogram> = Mutex::new(Histogram::depth());
    // Bounded: workers block rather than buffering unbounded results.
    let (tx, rx) = mpsc::sync_channel::<JobResult<T>>(workers * 2);

    let mut results: Vec<ShardResult<T>> = (0..max_shard).map(|_| None).collect();
    let mut degraded: Vec<DegradedShard> = Vec::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let depths = &depths;
            let run = &run;
            scope.spawn(move || loop {
                let shard = {
                    // A poisoned lock only means another worker panicked
                    // mid-shard; the queue itself is a plain VecDeque and
                    // stays consistent, so recover and keep draining.
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    let job = q.pop_front();
                    if job.is_some() {
                        depths
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .observe(q.len() as u64);
                    }
                    job
                };
                let Some(shard) = shard else { break };
                let mut attempt = 1;
                let outcome = loop {
                    obs.registry.add("supervisor.attempts", 1);
                    // The attempt span is created (and dropped) outside
                    // catch_unwind so a panicking shard never unwinds
                    // through the guard's Drop.
                    let span = obs
                        .trace
                        .child(parent, &format!("shard {shard} attempt {attempt}"));
                    let span_id = span.id();
                    let result = catch_unwind(AssertUnwindSafe(|| run(shard, attempt, span_id)));
                    drop(span);
                    match result {
                        Ok(value) => {
                            break JobResult::Done {
                                shard,
                                attempts: attempt,
                                value,
                            };
                        }
                        Err(payload) if attempt < MAX_ATTEMPTS => {
                            drop(payload);
                            obs.registry.add("supervisor.panics_recovered", 1);
                            obs.registry.add("supervisor.retries", 1);
                            let mut recovery = obs
                                .trace
                                .child(span_id, &format!("panic-recovery shard {shard}"));
                            recovery.count("attempt", attempt as u64);
                            drop(recovery);
                            attempt += 1;
                        }
                        Err(payload) => {
                            obs.registry.add("supervisor.panics_recovered", 1);
                            obs.registry.add("supervisor.degraded_shards", 1);
                            break JobResult::Failed(DegradedShard {
                                shard,
                                error: panic_message(payload),
                                attempts: attempt,
                            });
                        }
                    }
                };
                if tx.send(outcome).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        for outcome in rx.iter().take(total) {
            match outcome {
                JobResult::Done {
                    shard,
                    attempts,
                    value,
                } => results[shard] = Some((shard, attempts, value)),
                JobResult::Failed(d) => degraded.push(d),
            }
        }
    });

    degraded.sort_by_key(|d| d.shard);
    let depths = depths.into_inner().unwrap_or_else(|e| e.into_inner());
    (results, degraded, depths)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_complete() {
        let obs = Obs::disabled();
        let (results, degraded, depths) =
            run_shards(vec![0, 1, 2, 3], 2, &obs, SpanId::none(), |shard, _, _| {
                shard * 10
            });
        assert!(degraded.is_empty());
        let values: Vec<usize> = results.into_iter().map(|r| r.unwrap().2).collect();
        assert_eq!(values, vec![0, 10, 20, 30]);
        assert_eq!(depths.count(), 4);
    }

    #[test]
    fn panicking_shard_degrades_others_survive() {
        let obs = Obs::disabled();
        let (results, degraded, _) =
            run_shards(vec![0, 1, 2], 2, &obs, SpanId::none(), |shard, _, _| {
                if shard == 1 {
                    panic!("shard 1 is cursed");
                }
                shard
            });
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].shard, 1);
        assert_eq!(degraded[0].attempts, MAX_ATTEMPTS);
        assert!(degraded[0].error.contains("cursed"));
        assert!(results[0].is_some() && results[1].is_none() && results[2].is_some());
        let counters = obs.registry.snapshot().counters;
        assert_eq!(counters["supervisor.degraded_shards"], 1);
        assert_eq!(counters["supervisor.panics_recovered"], 2);
        assert_eq!(counters["supervisor.retries"], 1);
    }

    #[test]
    fn first_attempt_panic_is_retried() {
        let obs = Obs::disabled();
        let tries = AtomicUsize::new(0);
        let (results, degraded, _) =
            run_shards(vec![0], 1, &obs, SpanId::none(), |shard, attempt, _| {
                tries.fetch_add(1, Ordering::SeqCst);
                if attempt == 1 {
                    panic!("transient");
                }
                shard + 100
            });
        assert!(degraded.is_empty());
        assert_eq!(tries.load(Ordering::SeqCst), 2);
        let (shard, attempts, value) = results[0].unwrap();
        assert_eq!((shard, attempts, value), (0, 2, 100));
        assert_eq!(obs.registry.snapshot().counters["supervisor.attempts"], 2);
    }

    #[test]
    fn attempt_spans_nest_under_parent_with_recovery_markers() {
        let obs = Obs::enabled();
        let root = obs.span("detect");
        let root_id = root.id();
        run_shards(vec![0], 1, &obs, root_id, |_, attempt, _| {
            if attempt == 1 {
                panic!("transient");
            }
            0usize
        });
        drop(root);
        let records = obs.trace.records();
        let attempts: Vec<_> = records
            .iter()
            .filter(|r| r.name.starts_with("shard 0 attempt"))
            .collect();
        assert_eq!(attempts.len(), 2);
        assert!(attempts.iter().all(|r| r.parent == Some(0)));
        assert!(records
            .iter()
            .any(|r| r.name.starts_with("panic-recovery shard 0")));
    }
}
