//! The open-loop driver: arrivals fall due on a fixed schedule whether or
//! not the system has answered the previous ones.
//!
//! Arrival `i` is due `(i + 1) / rate` seconds after the start. Each worker owns
//! one connection and pulls the next arrival from a shared cursor; it
//! sleeps until that arrival is due, or — when every worker was busy past
//! the due time — sends at once. Latency is counted from the due time, so
//! the wait a stall imposes on later arrivals is in their latency rather
//! than politely absorbed by a slower generator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One arrival as the driver saw it, all times in ns since the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub index: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// A worker was free before the arrival fell due and waited for it;
    /// `sent_ns - due_ns` is then the generator's own lateness. Otherwise
    /// it is time the arrival spent queued for a free connection.
    pub worker_was_free: bool,
    /// Arrivals due but not yet sent when this one was sent, itself
    /// included.
    pub backlog: usize,
}

impl Arrival {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Time spent waiting for a free connection (0 when one was free).
    pub fn queue_wait_ns(&self) -> u64 {
        if self.worker_was_free {
            0
        } else {
            self.sent_ns - self.due_ns
        }
    }

    /// How late the generator itself sent this arrival (0 when queued).
    pub fn generator_late_ns(&self) -> u64 {
        if self.worker_was_free {
            self.sent_ns - self.due_ns
        } else {
            0
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drives `rate_hz × duration` arrivals through `workers`, one thread
/// each, calling `op(worker, index)` for every arrival. Returns the
/// arrivals in index order and the workers.
pub fn run_paced<W: Send>(
    mut workers: Vec<W>,
    rate_hz: f64,
    duration: Duration,
    op: impl Fn(&mut W, usize) + Sync,
) -> (Vec<Arrival>, Vec<W>) {
    let total = (rate_hz * duration.as_secs_f64()).floor() as usize;
    let gap_ns = 1e9 / rate_hz;
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut arrivals: Vec<Arrival> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                let (cursor, op) = (&cursor, &op);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= total {
                            return mine;
                        }
                        let due_ns = ((index + 1) as f64 * gap_ns) as u64;
                        let fetched_ns = nanos(start.elapsed());
                        let worker_was_free = fetched_ns <= due_ns;
                        if worker_was_free {
                            std::thread::sleep(Duration::from_nanos(due_ns - fetched_ns));
                        }
                        let sent_ns = nanos(start.elapsed());
                        let due_by_now = ((sent_ns as f64 / gap_ns) as usize).min(total);
                        op(worker, index);
                        mine.push(Arrival {
                            index,
                            due_ns,
                            sent_ns,
                            done_ns: nanos(start.elapsed()),
                            worker_was_free,
                            backlog: due_by_now.saturating_sub(index),
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a paced worker panicked"))
            .collect()
    });
    arrivals.sort_unstable_by_key(|a| a.index);
    (arrivals, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A fake server with one slot: every operation takes `service`, and
    /// operation 2 stalls for `stall` first. One worker, so arrivals queue
    /// behind the stall.
    #[test]
    fn later_arrivals_inherit_a_stall_and_latency_counts_from_due_time() {
        let service = Duration::from_millis(1);
        let stall = Duration::from_millis(60);
        let seen = Mutex::new(Vec::new());
        let (arrivals, workers) = run_paced(
            vec![0usize],
            200.0, // one arrival per 5 ms
            Duration::from_millis(200),
            |calls, index| {
                *calls += 1;
                seen.lock().unwrap().push(index);
                std::thread::sleep(if index == 2 { stall + service } else { service });
            },
        );
        assert_eq!(arrivals.len(), 40);
        assert_eq!(workers, vec![40]);
        assert_eq!(*seen.lock().unwrap(), (0..40).collect::<Vec<_>>());
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.index, i);
            assert_eq!(a.due_ns, (i as u64 + 1) * 5_000_000);
            assert!(a.sent_ns >= a.due_ns && a.done_ns >= a.sent_ns);
        }
        // Arrivals 0 and 1 found the connection free.
        assert!(arrivals[0].worker_was_free && arrivals[1].worker_was_free);
        assert_eq!(arrivals[1].queue_wait_ns(), 0);
        // Arrival 3 fell due at 20 ms, while the stall (15 → 76 ms) held
        // the only connection: it was sent ~56 ms late, and that wait is
        // in its latency although its own service took 1 ms.
        let third = arrivals[3];
        assert!(!third.worker_was_free);
        assert!(third.queue_wait_ns() >= 50_000_000, "{third:?}");
        assert!(third.latency_ns() >= third.queue_wait_ns() + 1_000_000);
        assert_eq!(third.generator_late_ns(), 0);
        // Everything due during the stall was waiting at once.
        let backlog_max = arrivals.iter().map(|a| a.backlog).max().unwrap();
        assert!(backlog_max >= 10, "backlog_max {backlog_max}");
        // The queue drains at 1 ms per arrival against 5 ms between
        // arrivals, so the tail of the run is on schedule again.
        assert!(arrivals[39].worker_was_free, "{:?}", arrivals[39]);
    }

    #[test]
    fn two_workers_share_one_schedule() {
        let (arrivals, _) = run_paced(vec![(), ()], 1_000.0, Duration::from_millis(30), |_, _| {
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(arrivals.len(), 30);
        assert!(arrivals.iter().enumerate().all(|(i, a)| a.index == i));
    }
}
