//! The shared work queue behind fleet reorganization.
//!
//! One worker pinned to each shard is wasteful exactly when it matters —
//! under skew (fleet workload I: 20% of the trees take 80% of the
//! churn) the cold shards' workers idle while the hot shards' backlogs
//! are each stuck behind a single thread. [`AsyncJitd`](crate::AsyncJitd)
//! instead schedules **shard-granularity work items** through one shared
//! queue, drained by the caller or by a configurable pool:
//!
//! - **Enqueue on heat.** Operations that dirty a shard bump its heat
//!   counter ([`WorkQueue::note_heat`]); when the counter crosses the
//!   configured threshold the shard is enqueued — at most once
//!   (an `in_queue` flag per shard), so the queue length is bounded by
//!   the shard count no matter how hot a shard runs.
//! - **Claim by try-lock.** A pool worker pops a shard and *tries* its
//!   `parking_lot` mutex. On contention — the operation path or another
//!   worker holds it — the item is requeued and the worker moves on
//!   ([`WorkQueue::requeue_contended`]), so a stalled shard can never
//!   head-of-line-block the pool.
//! - **Short critical sections.** A claim performs one reorganization
//!   round and releases; if the round fired, the shard is requeued.
//!   Operations therefore interleave with reorganization one round at
//!   a time.
//!
//! The queue also keeps the pool's ledger: [`StealStats::steal_count`]
//! (items drained by a worker other than the shard's home worker,
//! `shard mod workers`) and [`StealStats::contended_count`] (try-lock
//! misses). Those counters surface through
//! [`AsyncJitd::steal_stats`](crate::AsyncJitd::steal_stats) into the
//! `tt-bench` JSON cells.
//!
//! Everything here is shard-*id* bookkeeping — the queue never touches a
//! runtime.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Tuning knobs of a work-stealing reorganizer pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Worker threads draining the shared queue. 0 starts none: the
    /// caller drains inline, deterministically. The interesting threaded
    /// regime is `workers < shards` — fewer threads than shards, yet hot
    /// shards get serviced by *any* free worker.
    pub workers: usize,
    /// Dirtying operations a shard absorbs before it is enqueued. 1
    /// enqueues on every write; larger values let cold shards ride
    /// along unqueued.
    pub heat_threshold: u64,
}

impl Default for StealConfig {
    fn default() -> StealConfig {
        StealConfig {
            workers: 2,
            heat_threshold: 1,
        }
    }
}

/// Counters describing a pool's scheduling behavior (monotonic;
/// snapshot via [`WorkQueue::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Work items drained by a worker that was not the shard's *home*
    /// worker (`shard mod workers`) — the steals that give the pool its
    /// name. Zero when the caller drains inline (there is no pool).
    pub steal_count: u64,
    /// Claims that failed because the shard's mutex was held (by the
    /// operation path or a peer) and the item was requeued instead of
    /// waiting.
    pub contended_count: u64,
    /// Work items drained (claims that did acquire the shard lock).
    pub drained_count: u64,
    /// Times a consumer parked on the queue's condvar
    /// ([`WorkQueue::pop_blocking`] with nothing to pop).
    pub parked_count: u64,
    /// Times a parked consumer was woken by a notification rather than
    /// its heartbeat timeout.
    pub woken_count: u64,
    /// `yield_now` calls consumers reported via
    /// [`WorkQueue::note_spin_yield`]. With condvar parking this stays 0
    /// at steady idle — the counter exists to prove the spin path is
    /// gone.
    pub spin_yield_count: u64,
}

/// A bounded multi-producer/multi-consumer queue of shard indexes with
/// per-shard dedup, heat accounting, and steal/contention counters.
///
/// The queue is deliberately FIFO: heat *admits* a shard (threshold),
/// arrival order schedules it, and the critical section stays a
/// push/pop.
#[derive(Debug)]
pub struct WorkQueue {
    queue: Mutex<VecDeque<usize>>,
    /// Parks idle consumers; notified (under the queue lock) whenever an
    /// item is pushed, so no enqueue can slip between a consumer's empty
    /// check and its park.
    available: Condvar,
    /// One flag per shard: true while the shard sits in `queue`.
    in_queue: Vec<AtomicBool>,
    /// Dirtying ops since the shard was last drained.
    heat: Vec<AtomicU64>,
    threshold: u64,
    steals: AtomicU64,
    contended: AtomicU64,
    drained: AtomicU64,
    parked: AtomicU64,
    woken: AtomicU64,
    spin_yields: AtomicU64,
}

impl WorkQueue {
    /// An empty queue over `shards` shards.
    pub fn new(shards: usize, threshold: u64) -> WorkQueue {
        WorkQueue {
            queue: Mutex::new(VecDeque::with_capacity(shards)),
            available: Condvar::new(),
            in_queue: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            heat: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            threshold: threshold.max(1),
            steals: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            woken: AtomicU64::new(0),
            spin_yields: AtomicU64::new(0),
        }
    }

    /// Number of shards this queue schedules.
    pub fn shard_count(&self) -> usize {
        self.in_queue.len()
    }

    /// Records one dirtying operation against `shard`; enqueues it once
    /// its accumulated heat crosses the threshold.
    pub fn note_heat(&self, shard: usize) {
        let heat = self.heat[shard].fetch_add(1, Ordering::AcqRel) + 1;
        if heat >= self.threshold {
            self.enqueue(shard);
        }
    }

    /// Enqueues `shard` unless it is already queued (dedup via the
    /// per-shard flag, so re-enqueueing a hot shard is idempotent).
    /// The flag transition happens under the queue lock, so the flag
    /// always agrees with queue membership — an enqueue racing a
    /// [`pop`](WorkQueue::pop) either lands before it (and is popped)
    /// or after the flag cleared (and pushes a fresh item); no wakeup
    /// is ever lost.
    pub fn enqueue(&self, shard: usize) {
        let mut queue = self.queue.lock();
        if !self.in_queue[shard].swap(true, Ordering::AcqRel) {
            queue.push_back(shard);
            // Notified while the lock is held: a consumer is either
            // already inside `pop_blocking` holding the lock (it will
            // see the item on its recheck) or parked (it receives this).
            self.available.notify_one();
        }
    }

    /// Pops the next work item, clearing its queued flag and heat under
    /// the queue lock *before* handing it out — churn arriving while
    /// the item is being processed re-enqueues it rather than being
    /// lost. (Heat increments that race the clear itself may be wiped,
    /// but their shard is exactly the one the popping worker is about
    /// to service, so the work is folded into that round; the producer's
    /// enqueue still lands through the now-consistent flag.)
    pub fn pop(&self) -> Option<usize> {
        let mut queue = self.queue.lock();
        let shard = queue.pop_front()?;
        self.in_queue[shard].store(false, Ordering::Release);
        self.heat[shard].store(0, Ordering::Release);
        Some(shard)
    }

    /// [`pop`](WorkQueue::pop) that **parks** on the queue's condvar when
    /// nothing is available, instead of returning `None` for the caller
    /// to spin on. Returns `None` only once `stopping` reads true with
    /// the queue empty (callers set their stop flag and then call
    /// [`wake_all`](WorkQueue::wake_all)). The `timeout` is a heartbeat,
    /// not a correctness mechanism — the enqueue/park handshake loses no
    /// wakeups — but it bounds the damage of any future protocol bug and
    /// lets workers re-read `stopping` on a slow clock.
    pub fn pop_blocking(&self, stopping: impl Fn() -> bool, timeout: Duration) -> Option<usize> {
        // Bounded spin before the first park of an idle episode: a
        // consumer that drained the queue moments before the next burst
        // lands picks the new item up at yield latency instead of
        // charging a condvar wake to the producer's critical path.
        // Genuinely idle consumers exhaust the budget once and park;
        // spurious or heartbeat wakes re-park without a fresh spin.
        const SPIN_ROUNDS: usize = 128;
        let mut spins = 0usize;
        let mut queue = self.queue.lock();
        loop {
            if let Some(shard) = queue.pop_front() {
                self.in_queue[shard].store(false, Ordering::Release);
                self.heat[shard].store(0, Ordering::Release);
                return Some(shard);
            }
            if stopping() {
                return None;
            }
            if spins < SPIN_ROUNDS {
                spins += 1;
                drop(queue);
                std::thread::yield_now();
                queue = self.queue.lock();
                continue;
            }
            self.parked.fetch_add(1, Ordering::Relaxed);
            let (reacquired, timed_out) = self.available.wait_timeout(queue, timeout);
            queue = reacquired;
            if !timed_out {
                self.woken.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Wakes every parked consumer (the shutdown broadcast — call after
    /// publishing the stop flag `pop_blocking`'s callers check).
    pub fn wake_all(&self) {
        // Taking the queue lock orders the broadcast after any in-flight
        // park: a consumer between its empty-check and its wait still
        // holds the lock, so the notification cannot land in that gap.
        let _queue = self.queue.lock();
        self.available.notify_all();
    }

    /// Records one idle/contended `yield_now` a consumer performed (the
    /// spin path parking is meant to eliminate; see
    /// [`StealStats::spin_yield_count`]).
    pub fn note_spin_yield(&self) {
        self.spin_yields.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that `worker` successfully claimed `shard`, counting it
    /// as a steal when the worker is not the shard's home worker.
    pub fn record_drain(&self, worker: usize, shard: usize, workers: usize) {
        self.drained.fetch_add(1, Ordering::Relaxed);
        if workers > 0 && shard % workers != worker {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Returns `shard` to the queue after a failed try-lock claim,
    /// counting the contention. The pop/requeue pair is what keeps a
    /// stalled shard from blocking the pool.
    pub fn requeue_contended(&self, shard: usize) {
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.enqueue(shard);
    }

    /// Pending work items.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// True when no work is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Current heat of one shard (dirtying ops since last drain).
    pub fn heat_of(&self, shard: usize) -> u64 {
        self.heat[shard].load(Ordering::Acquire)
    }

    /// Snapshot of the scheduling counters.
    pub fn stats(&self) -> StealStats {
        StealStats {
            steal_count: self.steals.load(Ordering::Relaxed),
            contended_count: self.contended.load(Ordering::Relaxed),
            drained_count: self.drained.load(Ordering::Relaxed),
            parked_count: self.parked.load(Ordering::Relaxed),
            woken_count: self.woken.load(Ordering::Relaxed),
            spin_yield_count: self.spin_yields.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn enqueue_is_deduplicated() {
        let q = WorkQueue::new(4, 1);
        q.enqueue(2);
        q.enqueue(2);
        q.enqueue(1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(2));
        // Popped items can be re-enqueued.
        q.enqueue(2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn heat_threshold_gates_admission() {
        let q = WorkQueue::new(2, 3);
        q.note_heat(0);
        q.note_heat(0);
        assert!(q.is_empty(), "below threshold: not queued");
        assert_eq!(q.heat_of(0), 2);
        q.note_heat(0);
        assert_eq!(q.len(), 1, "third write crosses the threshold");
        // Draining resets the heat.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.heat_of(0), 0);
    }

    #[test]
    fn zero_threshold_is_clamped_to_one() {
        let q = WorkQueue::new(1, 0);
        q.note_heat(0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn steal_and_contention_accounting() {
        let q = WorkQueue::new(6, 1);
        // Shard 4's home worker in a 2-worker pool is 0; worker 1
        // draining it is a steal, worker 0 draining it is not.
        q.record_drain(1, 4, 2);
        q.record_drain(0, 4, 2);
        q.record_drain(1, 5, 2);
        let s = q.stats();
        assert_eq!(s.steal_count, 1);
        assert_eq!(s.drained_count, 3);
        assert_eq!(s.contended_count, 0);
        q.requeue_contended(4);
        assert_eq!(q.stats().contended_count, 1);
        assert_eq!(q.pop(), Some(4), "contended item went back on queue");
    }

    #[test]
    fn pop_blocking_parks_until_enqueue() {
        let q = Arc::new(WorkQueue::new(2, 1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_blocking(|| false, std::time::Duration::from_secs(30)))
        };
        // Give the consumer a moment to reach the park (not required for
        // correctness — an enqueue before the park is seen on the first
        // empty-check — just to usually exercise the parked path).
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.enqueue(1);
        assert_eq!(consumer.join().unwrap(), Some(1));
        let s = q.stats();
        assert_eq!(s.spin_yield_count, 0, "parking replaced spinning");
    }

    #[test]
    fn pop_blocking_returns_none_on_stop() {
        let q = Arc::new(WorkQueue::new(2, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                q.pop_blocking(
                    || stop.load(Ordering::Acquire),
                    std::time::Duration::from_secs(30),
                )
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Publish the stop flag first, then broadcast — the shutdown
        // protocol every pool uses.
        stop.store(true, Ordering::Release);
        q.wake_all();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_blocking_heartbeat_rechecks_stop_without_notification() {
        // No wake_all at all: the heartbeat timeout alone must let a
        // parked consumer observe a stop flag raised behind its back.
        let q = Arc::new(WorkQueue::new(1, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                q.pop_blocking(
                    || stop.load(Ordering::Acquire),
                    std::time::Duration::from_millis(5),
                )
            })
        };
        // Raise the flag only once the consumer has parked, so the
        // heartbeat (not the spin phase) is what observes it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while q.stats().parked_count == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the consumer never parked"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        assert_eq!(consumer.join().unwrap(), None);
        assert!(q.stats().parked_count > 0, "the consumer actually parked");
    }

    #[test]
    fn concurrent_producers_and_consumers_neither_lose_nor_duplicate() {
        let q = Arc::new(WorkQueue::new(8, 1));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..800 {
                        q.note_heat(i % 8);
                    }
                })
            })
            .collect();
        let drained = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let consumers: Vec<_> = (0..2)
            .map(|w| {
                let q = Arc::clone(&q);
                let drained = Arc::clone(&drained);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    // Consume until the producers finish and the queue
                    // is observed empty afterwards.
                    loop {
                        match q.pop() {
                            Some(shard) => {
                                q.record_drain(w, shard, 2);
                                drained.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::Release);
        for c in consumers {
            c.join().unwrap();
        }
        assert!(q.is_empty());
        let total = drained.load(Ordering::Relaxed);
        // Dedup bounds the drains; every shard was drained at least once.
        assert!(total >= 8, "every shard surfaced at least once: {total}");
        assert_eq!(q.stats().drained_count, total);
    }
}
