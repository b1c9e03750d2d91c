//! The fleet runtime: many [`Jitd`]s, one work queue, reorganized in
//! the background or inline.
//!
//! The paper's host system "allow\[s\] a JIT runtime to incrementally and
//! asynchronously rewrite [the AST] in the background using
//! pattern-replacement rules" (§1, §7.1). [`AsyncJitd`] runs a fleet of
//! such runtimes — caller-made [`Jitd`]s over one shared rule set, each
//! behind its **own** mutex, routed by `key mod shards` or explicitly
//! per shard — scheduled through one heat-gated [`WorkQueue`]:
//!
//! - Writes bump their shard's heat; once it crosses the threshold the
//!   shard joins the queue (at most once). Shards that start with
//!   matches (freshly loaded arrays want cracking) start queued.
//! - A drain pops a shard, runs **one** reorganization round on it, and
//!   requeues it while the round fired — one drain body
//!   (`Shared::round_and_requeue`) whoever runs it.
//! - [`StealConfig::workers`] decides who drains. `0` starts no thread:
//!   the caller drains inline ([`reorganize_pending`]) and lands sealed
//!   epochs itself ([`drain_commits`]), which makes every schedule
//!   deterministic. `n > 0` starts a pool of `n` threads that claim
//!   shards with a try-lock (a held shard is requeued and skipped, so it
//!   never blocks the pool) and park on the queue when it is empty,
//!   plus one committer thread that lands sealed epochs.
//!
//! Epochs close through one pipeline, and the caller picks the lag per
//! call: [`submit_commit_on`] seals the epoch and hands it to the
//! committer (lag 1), while [`commit_on`] seals and lands it under one
//! lock acquisition (lag 0). Every landing — the committer's,
//! [`drain_commits`], [`commit_on`] and [`stop`] — runs one body
//! (`Shared::land`), which publishes the shard's generation and counts
//! the epoch in [`commits_applied`].
//!
//! Locking is per shard in every configuration: a reorganization round
//! on shard 0 never blocks an operation (or a round) on shard 1. Under
//! skew (fleet workload I: 20% of shards take 80% of the churn) a pool
//! with fewer workers than shards keeps up with one worker per shard —
//! the `tt-bench` workload-I cells gate exactly that claim.
//!
//! [`reorganize_pending`]: AsyncJitd::reorganize_pending
//! [`drain_commits`]: AsyncJitd::drain_commits
//! [`submit_commit_on`]: AsyncJitd::submit_commit_on
//! [`commit_on`]: AsyncJitd::commit_on
//! [`stop`]: AsyncJitd::stop
//! [`commits_applied`]: AsyncJitd::commits_applied

use crate::runtime::Jitd;
use crate::steal::{StealConfig, StealStats, WorkQueue};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tt_ast::Record;
use tt_ycsb::Op;

/// Heartbeat for parked workers: an idle worker rechecks its stop flag
/// at least this often even if every notification were lost. Parking
/// correctness does not depend on it (the enqueue/park handshake loses
/// no wakeups); it exists to bound the damage of protocol bugs.
const PARK_HEARTBEAT: Duration = Duration::from_millis(50);

struct Shared {
    shards: Vec<Mutex<Jitd>>,
    stop: AtomicBool,
    /// The reorganization schedule: heat-gated shard ids.
    queue: WorkQueue,
    /// Pool size (0 = the caller drains inline); the home-worker base
    /// of the steal ledger.
    workers: usize,
    /// Present while a committer thread runs (a fleet with a pool):
    /// shard ids with a sealed epoch awaiting it (dedup per shard, like
    /// the reorg queue — two submits before the committer runs fold into
    /// one apply, which is exactly the strategy-level backpressure).
    commit_queue: Option<WorkQueue>,
    /// Per-shard committed-generation counters: bumped (with `Release`)
    /// by every landing, so observers can watch generations publish
    /// without taking shard locks.
    generations: Vec<AtomicU64>,
    /// Epochs landed through [`Shared::land`] (fleet-wide).
    commits_applied: AtomicU64,
}

impl Shared {
    /// The one drain body, run by pool workers and inline drains alike:
    /// on a claimed shard, count the drain, run one reorganization
    /// round, release the shard, and requeue it while the round fired.
    /// Returns the rewrites applied.
    fn round_and_requeue(
        &self,
        worker: usize,
        shard: usize,
        mut jitd: MutexGuard<'_, Jitd>,
    ) -> u64 {
        self.queue.record_drain(worker, shard, self.workers);
        let fired = jitd.reorganize_round();
        drop(jitd);
        if fired > 0 {
            // Still hot: back on the queue for whichever drain frees up
            // first.
            self.queue.enqueue(shard);
        }
        fired as u64
    }

    /// The one landing body, whoever lands: runs `apply` on the claimed
    /// `shard` and, if an epoch landed, publishes the shard's generation.
    /// `apply` is [`Jitd::apply_submitted`] at lag 1 (the sealed epoch,
    /// if any: whoever reaches it first lands it and a later toucher
    /// no-ops, so landings may race) or [`Jitd::commit_batch`] at lag 0
    /// (seal and land the open epoch).
    fn land(&self, shard: usize, jitd: &mut Jitd, apply: fn(&mut Jitd) -> bool) -> bool {
        let landed = apply(jitd);
        if landed {
            // Published before the shard unlocks: a reader that Acquires
            // the bumped generation sees the fully applied epoch, and a
            // probe that finds the seal gone (under the lock) finds the
            // counters already bumped.
            self.generations[shard].fetch_add(1, Ordering::Release);
            self.commits_applied.fetch_add(1, Ordering::Relaxed);
        }
        landed
    }

    /// Lands `shard`'s sealed epoch, if any (lag 1).
    fn land_sealed(&self, shard: usize) -> bool {
        self.land(shard, &mut self.shards[shard].lock(), Jitd::apply_submitted)
    }
}

/// A sharded [`Jitd`] fleet over one rule set, reorganized from a shared
/// work queue by a pool of background workers or by the caller.
pub struct AsyncJitd {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<u64>>,
}

impl AsyncJitd {
    /// Builds a fleet over caller-made runtimes (`shards[i]` becomes
    /// shard `i`), which must share one `Arc<RuleSet>`. Shards that
    /// already hold matches start queued. `steal.workers == 0` starts
    /// no thread at all (the caller drains with
    /// [`reorganize_pending`](AsyncJitd::reorganize_pending) and lands
    /// seals with [`drain_commits`](AsyncJitd::drain_commits));
    /// otherwise a pool of `steal.workers` threads drains the queue and
    /// one committer thread lands seals.
    pub fn spawn(mut shards: Vec<Jitd>, steal: StealConfig) -> AsyncJitd {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            shards
                .iter()
                .all(|j| Arc::ptr_eq(j.rules(), shards[0].rules())),
            "fleet shards must share one rule set"
        );
        let count = shards.len();
        let queue = WorkQueue::new(count, steal.heat_threshold);
        // The initial backlog: freshly loaded arrays want cracking, while
        // an empty shard (a daemon slot awaiting its session) has none.
        for (shard, jitd) in shards.iter_mut().enumerate() {
            if jitd.has_pending_matches() {
                queue.enqueue(shard);
            }
        }
        let shared = Arc::new(Shared {
            shards: shards.into_iter().map(Mutex::new).collect(),
            stop: AtomicBool::new(false),
            queue,
            workers: steal.workers,
            // Threshold 1: a submit always enqueues (dedup still folds
            // re-submits of the same shard into one pending apply).
            commit_queue: (steal.workers > 0).then(|| WorkQueue::new(count, 1)),
            generations: (0..count).map(|_| AtomicU64::new(0)).collect(),
            commits_applied: AtomicU64::new(0),
        });
        let mut threads: Vec<std::thread::JoinHandle<u64>> = (0..steal.workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::spawn(move || pool_worker(&shared, w))
            })
            .collect();
        if shared.commit_queue.is_some() {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || committer(&shared)));
        }
        AsyncJitd { shared, threads }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Drains the work queue on the calling thread until it is empty or
    /// `max_steps` rewrites have been applied, one round per pop through
    /// the pool's own drain body. A shard cut off by the cap stays
    /// queued, so a bounded drain never strands backlog. Returns the
    /// rewrites applied. The caller drains as worker 0; shards are
    /// claimed with a blocking lock, so this is safe to run beside a
    /// pool too.
    pub fn reorganize_pending(&self, max_steps: u64) -> u64 {
        let mut applied = 0u64;
        while applied < max_steps {
            let Some(shard) = self.shared.queue.pop() else {
                break;
            };
            let jitd = self.shared.shards[shard].lock();
            applied += self.shared.round_and_requeue(0, shard, jitd);
        }
        applied
    }

    /// Opens a maintenance epoch on one shard (under its lock).
    pub fn begin_batch_on(&self, shard: usize) {
        self.shared.shards[shard].lock().begin_batch();
    }

    /// Closes one shard's open epoch at lag 1: seals it under the shard
    /// lock and, when a committer thread runs, queues the shard id for
    /// it (the enqueue wakes it); the caller returns without paying the
    /// apply. An inline fleet lands the seal at its next
    /// [`drain_commits`](AsyncJitd::drain_commits). Readers keep seeing
    /// a consistent state throughout: the sealed epoch stays part of the
    /// shard's overlay until it lands.
    pub fn submit_commit_on(&self, shard: usize) {
        let sealed = self.shared.shards[shard].lock().submit_commit();
        if let (true, Some(queue)) = (sealed, &self.shared.commit_queue) {
            queue.enqueue(shard);
        }
    }

    /// Closes one shard's open epoch at lag 0: seals and lands it (and
    /// any older seal, which lands first) under one lock acquisition,
    /// so the caller pays the apply. Counted like every other landing.
    pub fn commit_on(&self, shard: usize) {
        self.shared.land(
            shard,
            &mut self.shared.shards[shard].lock(),
            Jitd::commit_batch,
        );
    }

    /// The number of epochs landed on `shard`. Published with
    /// `Release` after the apply completes, so a reader that observes
    /// generation `g` here will observe all of epoch `g`'s view deltas
    /// through the shard lock.
    pub fn committed_generation(&self, shard: usize) -> u64 {
        self.shared.generations[shard].load(Ordering::Acquire)
    }

    /// Fleet-wide count of epochs landed, at either lag. An epoch that
    /// a later seal's one-in-flight backpressure lands inline is not
    /// counted. With lag-1 closes only, a nonzero reading while the op
    /// stream is still running proves commits ran off the query path.
    pub fn commits_applied(&self) -> u64 {
        self.shared.commits_applied.load(Ordering::Relaxed)
    }

    /// Lands every sealed epoch on the calling thread — the committer
    /// of an inline fleet, and a barrier for a threaded one (no waiting
    /// for the committer to wake). First-toucher-applies makes racing
    /// the committer safe: whichever thread reaches a shard lands its
    /// seal, and the loser finds the slot empty. Generations publish
    /// exactly as they do from the committer. Returns the number of
    /// epochs landed here.
    pub fn drain_commits(&self) -> u64 {
        (0..self.shared.shards.len())
            .filter(|&shard| self.shared.land_sealed(shard))
            .count() as u64
    }

    /// True while some shard holds a sealed epoch not yet landed.
    /// Quiescence probes must poll this *in addition to* match backlog —
    /// a fleet can be out of matches while its last generation has not
    /// published. Each shard is checked under its lock, so the answer is
    /// exact at the moment the shard is visited: neither a committer
    /// mid-apply nor the stale id a first toucher's apply leaves in the
    /// commit queue reads as pending work.
    pub fn commits_pending(&self) -> bool {
        (0..self.shared.shards.len()).any(|s| self.with_shard(s, |j| j.has_submitted()))
    }

    /// Shards currently queued for reorganization.
    pub fn reorg_backlog(&self) -> usize {
        self.shared.queue.len()
    }

    /// Scheduling counters of the work queue.
    pub fn steal_stats(&self) -> StealStats {
        self.shared.queue.stats()
    }

    #[inline]
    fn shard_index(&self, key: i64) -> usize {
        key.rem_euclid(self.shared.shards.len() as i64) as usize
    }

    /// Runs `f` under one shard's lock — the maintenance/inspection
    /// hatch (tests use it to prove shard independence: holding one
    /// shard here must not block operations on any other, and must not
    /// stall the pool).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut Jitd) -> R) -> R {
        f(&mut self.shared.shards[shard].lock())
    }

    /// Non-blocking [`with_shard`](AsyncJitd::with_shard): runs `f`
    /// only if the shard's lock is free right now, `None` otherwise.
    /// Lets monitoring (e.g. a bench driver's quiescence poll) observe
    /// shards without ever queueing behind — or colliding with — the
    /// workers it is observing.
    pub fn try_with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut Jitd) -> R) -> Option<R> {
        self.shared.shards[shard]
            .try_lock()
            .map(|mut jitd| f(&mut jitd))
    }

    /// Executes one operation, serialized only against its own shard.
    /// Scans merge across shards. Routing is `key mod shards` (the
    /// key-partitioned deployment).
    pub fn execute(&self, op: &Op) {
        match *op {
            Op::Scan { key, len } => {
                std::hint::black_box(self.scan(key, len));
            }
            Op::Read { key }
            | Op::Update { key, .. }
            | Op::Insert { key, .. }
            | Op::ReadModifyWrite { key, .. } => {
                self.execute_on(self.shard_index(key), op);
            }
        }
    }

    /// Executes one operation against an explicit shard (the fleet
    /// deployment: one shard per tree, each with its own key space).
    /// Writes feed the shard's heat so the queue knows where the
    /// backlog is; reads leave the schedule untouched.
    pub fn execute_on(&self, shard: usize, op: &Op) {
        self.shared.shards[shard].lock().execute(op);
        match op {
            Op::Read { .. } | Op::Scan { .. } => {}
            Op::Update { .. } | Op::Insert { .. } | Op::ReadModifyWrite { .. } => {
                self.shared.queue.note_heat(shard);
            }
        }
    }

    /// Point read (locks one shard).
    pub fn get(&self, key: i64) -> Option<i64> {
        self.shared.shards[self.shard_index(key)]
            .lock()
            .index()
            .get(key)
    }

    /// Range scan: per-shard scans merged by key, truncated to `n`.
    /// Shards are locked one at a time, never all at once.
    pub fn scan(&self, low: i64, n: usize) -> Vec<Record> {
        let mut all: Vec<Record> = Vec::new();
        for shard in &self.shared.shards {
            all.extend(shard.lock().index().scan(low, n));
        }
        all.sort_by_key(|r| r.key);
        all.truncate(n);
        all
    }

    /// Tombstone delete (locks one shard).
    pub fn delete(&self, key: i64) {
        let shard = self.shard_index(key);
        self.shared.shards[shard].lock().delete(key);
        self.shared.queue.note_heat(shard);
    }

    /// Raises the stop flag and joins every thread. Pool workers abandon
    /// their backlog; the committer drains its whole queue first, so no
    /// sealed epoch outlives the fleet. Returns the rewrites the pool
    /// applied.
    fn join_threads(&mut self) -> u64 {
        self.shared.stop.store(true, Ordering::Release);
        // Publish the flag first, then broadcast: any worker between
        // its empty-check and its park still holds the queue lock, so
        // the wake cannot land in that gap.
        self.shared.queue.wake_all();
        if let Some(queue) = &self.shared.commit_queue {
            queue.wake_all();
        }
        self.threads
            .drain(..)
            .map(|t| t.join().expect("fleet thread must not panic"))
            .sum()
    }

    /// Stops every thread and returns the runtimes (shard order) plus
    /// the total rewrites the pool applied in the background. Sealed
    /// epochs that no committer reached (an inline fleet the caller
    /// never drained) are landed on the way out.
    pub fn stop(mut self) -> (Vec<Jitd>, u64) {
        let applied = self.join_threads();
        self.drain_commits();
        // The threads have exited and hold no references; unwrap the
        // runtimes. (`self` implements Drop, so move the Arc out by hand.)
        let shared = self.shared.clone();
        drop(self);
        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("outstanding handles to the runtime"));
        let runtimes = shared.shards.into_iter().map(Mutex::into_inner).collect();
        (runtimes, applied)
    }
}

impl Drop for AsyncJitd {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// A pool worker: pop a shard, claim it with a try-lock, run the shared
/// drain body. Contention requeues and moves on.
fn pool_worker(shared: &Shared, worker: usize) -> u64 {
    let mut applied = 0u64;
    // Nothing queued: park on the queue's condvar instead of
    // spin-yielding. `enqueue` notifies under the queue lock, so a push
    // can never slip between the empty check and the wait; the
    // heartbeat re-checks the stop flag in case a raced shutdown
    // broadcast precedes this worker's park.
    while let Some(shard) = shared
        .queue
        .pop_blocking(|| shared.stop.load(Ordering::Acquire), PARK_HEARTBEAT)
    {
        if shared.stop.load(Ordering::Acquire) {
            // Shutdown landed while we held a shard id. Reorganization
            // is best-effort background work — abandon the backlog
            // rather than delay teardown. (Contrast the committer,
            // which must drain: sealed epochs are durable state.)
            break;
        }
        match shared.shards[shard].try_lock() {
            Some(jitd) => applied += shared.round_and_requeue(worker, shard, jitd),
            // Held by the op path or a peer: skip-and-requeue, so a
            // stalled shard never head-of-line-blocks the pool. Yield
            // before the next pop — if this was the only queued shard,
            // retrying immediately would just spin against the holder.
            None => {
                shared.queue.requeue_contended(shard);
                shared.queue.note_spin_yield();
                std::thread::yield_now();
            }
        }
    }
    applied
}

/// The background committer: drains the commit queue, landing each
/// shard's sealed epoch. Unlike the pool workers it keeps draining
/// after `stop` is raised — `pop_blocking` only returns `None` once the
/// queue is empty, so every submitted epoch lands before the fleet
/// tears down. Returns 0 rewrites (its progress is
/// [`Shared::commits_applied`]).
fn committer(shared: &Shared) -> u64 {
    let queue = shared
        .commit_queue
        .as_ref()
        .expect("a fleet with a committer has a commit queue");
    while let Some(shard) =
        queue.pop_blocking(|| shared.stop.load(Ordering::Acquire), PARK_HEARTBEAT)
    {
        // `land` claims the shard with a blocking lock, deliberately: a
        // polite try-lock-and-requeue committer starves whenever the op
        // thread re-locks its shard in a tight loop (on one core every
        // failed claim's yield hands the op thread a whole timeslice),
        // and an epoch that never lands means backlog growing without
        // bound. Queuing on the mutex costs the op thread at most one
        // lock handoff per epoch and buys liveness under any schedule.
        shared.land_sealed(shard);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{paper_rules, RuleConfig};
    use crate::runtime::StrategyKind;
    use crate::schema::jitd_schema;
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};
    use tt_ycsb::{FleetSpec, FleetWorkload, Workload, WorkloadSpec};

    fn records(n: i64) -> Vec<Record> {
        (0..n).map(|k| Record::new(k, k * 5)).collect()
    }

    /// Splits `records` by `key mod shards` — the preload matching
    /// [`AsyncJitd::execute`]'s routing.
    fn by_key(records: Vec<Record>, shards: usize) -> Vec<Vec<Record>> {
        let mut parts: Vec<Vec<Record>> = (0..shards).map(|_| Vec::new()).collect();
        for r in records {
            parts[r.key.rem_euclid(shards as i64) as usize].push(r);
        }
        parts
    }

    fn salted(n: i64, salt: i64) -> Vec<Record> {
        (0..n).map(|k| Record::new(k, k * 3 + salt)).collect()
    }

    /// A fleet over `parts` (one shard each) sharing one paper rule set.
    fn fleet(
        kind: StrategyKind,
        crack_threshold: usize,
        parts: Vec<Vec<Record>>,
        steal: StealConfig,
    ) -> AsyncJitd {
        let rules = Arc::new(paper_rules(&jitd_schema(), RuleConfig { crack_threshold }));
        let shards = parts
            .into_iter()
            .map(|part| Jitd::with_rules(kind, rules.clone(), part))
            .collect();
        AsyncJitd::spawn(shards, steal)
    }

    /// A threaded fleet: `workers` pool threads, every write enqueues.
    fn pool(
        kind: StrategyKind,
        crack: usize,
        parts: Vec<Vec<Record>>,
        workers: usize,
    ) -> AsyncJitd {
        let steal = StealConfig {
            workers,
            heat_threshold: 1,
        };
        fleet(kind, crack, parts, steal)
    }

    /// An inline fleet: no threads, the caller drains.
    fn inline(crack: usize, parts: Vec<Vec<Record>>, heat_threshold: u64) -> AsyncJitd {
        let steal = StealConfig {
            workers: 0,
            heat_threshold,
        };
        fleet(StrategyKind::TreeToaster, crack, parts, steal)
    }

    fn sexpr(j: &Jitd) -> String {
        tt_ast::sexpr::to_sexpr(j.index().ast(), j.index().ast().root())
    }

    #[test]
    fn background_reorganizer_applies_rewrites() {
        let jitd = pool(StrategyKind::TreeToaster, 16, vec![records(2048)], 1);
        // Give the worker a moment to crack the initial array.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // Reads work mid-reorganization.
            assert_eq!(jitd.get(100), Some(500));
            let snapshot = jitd.with_shard(0, |j| j.stats.steps);
            if snapshot > 0 || Instant::now() > deadline {
                break;
            }
            std::thread::yield_now();
        }
        let (runtimes, applied) = jitd.stop();
        assert!(applied > 0, "background thread applied rewrites");
        runtimes[0].index().check_structure().unwrap();
    }

    fn drive_semantics(jitd: &AsyncJitd, n: i64) -> BTreeMap<i64, i64> {
        let mut model: BTreeMap<i64, i64> = (0..n).map(|k| (k, k * 5)).collect();
        let mut workload = Workload::new(WorkloadSpec::standard('A'), n as u64, 321);
        for _ in 0..300 {
            let op = workload.next_op();
            match op {
                Op::Update { key, value } | Op::Insert { key, value } => {
                    model.insert(key, value);
                }
                Op::ReadModifyWrite { key, value } => {
                    let prior = model.get(&key).copied().unwrap_or(0);
                    model.insert(key, value ^ prior);
                }
                _ => {}
            }
            jitd.execute(&op);
        }
        model
    }

    /// Quiesces every stopped runtime and checks each key through its
    /// owning shard (`key mod shards`).
    fn check_stopped(jitd: AsyncJitd, model: &BTreeMap<i64, i64>, n: i64) {
        let shards = jitd.shard_count() as i64;
        let (mut runtimes, _) = jitd.stop();
        for runtime in &mut runtimes {
            runtime.reorganize_until_quiet(100_000);
            runtime.index().check_structure().unwrap();
            runtime.agreement_with_naive().unwrap();
        }
        for k in 0..n {
            assert_eq!(
                runtimes[k.rem_euclid(shards) as usize].index().get(k),
                model.get(&k).copied(),
                "key {k} post-stop"
            );
        }
    }

    /// One worker per shard (the pool as large as the fleet).
    #[test]
    fn concurrent_ops_preserve_semantics() {
        let n = 512i64;
        let jitd = pool(StrategyKind::TreeToaster, 16, by_key(records(n), 3), 3);
        let mut model = drive_semantics(&jitd, n);
        for k in (0..n).step_by(7) {
            assert_eq!(jitd.get(k), model.get(&k).copied(), "key {k}");
        }
        // Cross-shard scan merges correctly.
        let want: Vec<Record> = model
            .range(100..)
            .take(20)
            .map(|(&k, &v)| Record::new(k, v))
            .collect();
        assert_eq!(jitd.scan(100, 20), want);
        jitd.delete(3);
        model.remove(&3);
        assert_eq!(jitd.get(3), None);
        check_stopped(jitd, &model, n);
    }

    /// The same semantics contract with fewer workers than shards: two
    /// workers over four shards, racing the op stream.
    #[test]
    fn stealing_pool_preserves_semantics() {
        let n = 512i64;
        let jitd = pool(StrategyKind::TreeToaster, 16, by_key(records(n), 4), 2);
        let model = drive_semantics(&jitd, n);
        for k in (0..n).step_by(5) {
            assert_eq!(jitd.get(k), model.get(&k).copied(), "key {k}");
        }
        // The op stream leaves a queued backlog, but on a starved box
        // the pool threads may not have been scheduled yet: wait (with
        // a deadline) for the pool to provably drain something before
        // stopping it.
        let deadline = Instant::now() + Duration::from_secs(60);
        // Rewriting key 1's current value keeps the model valid while
        // feeding the queue.
        let v1 = model.get(&1).copied().unwrap_or(0);
        while jitd.steal_stats().drained_count == 0 {
            assert!(
                Instant::now() < deadline,
                "pool never drained any work: {:?}",
                jitd.steal_stats()
            );
            jitd.execute(&Op::Update { key: 1, value: v1 });
            std::thread::sleep(Duration::from_micros(50));
        }
        check_stopped(jitd, &model, n);
    }

    /// The shard-granularity claim: while one shard's lock is held (a
    /// long reorganization, say), operations on another shard proceed.
    /// Under one global `Mutex<Jitd>` this test deadlocks until the
    /// timeout; under per-shard locks it completes immediately.
    #[test]
    fn shards_reorganize_and_serve_concurrently() {
        let jitd = Arc::new(pool(
            StrategyKind::TreeToaster,
            8,
            by_key(records(1024), 2),
            2,
        ));
        assert_eq!(jitd.shard_count(), 2);
        let (tx, rx) = std::sync::mpsc::channel();
        // Hold shard 0's lock and, from inside the critical section,
        // drive traffic at shard 1 on another thread.
        jitd.with_shard(0, |shard0| {
            // Shard 0 reorganizes while we hold it.
            shard0.reorganize_until_quiet(64);
            let peer = jitd.clone();
            let worker = std::thread::spawn(move || {
                // Key 1 routes to shard 1 (1 mod 2): must not need
                // shard 0's lock.
                peer.execute(&Op::Update { key: 1, value: 77 });
                let got = peer.get(1);
                tx.send(got).unwrap();
            });
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("shard 1 op blocked behind shard 0's lock — sharding broken");
            assert_eq!(got, Some(77));
            worker.join().unwrap();
        });
        // Both shards make progress in the background.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s0 = jitd.with_shard(0, |j| j.stats.steps);
            let s1 = jitd.with_shard(1, |j| j.stats.steps);
            if (s0 > 0 && s1 > 0) || Instant::now() > deadline {
                assert!(s0 > 0, "shard 0 never reorganized");
                assert!(s1 > 0, "shard 1 never reorganized");
                break;
            }
            std::thread::yield_now();
        }
        let jitd = Arc::try_unwrap(jitd).unwrap_or_else(|_| panic!("worker still holds a handle"));
        let (runtimes, _) = jitd.stop();
        assert_eq!(runtimes.len(), 2);
        for runtime in &runtimes {
            runtime.index().check_structure().unwrap();
        }
    }

    /// The skip-and-requeue claim discipline: while shard 0's lock is
    /// held for the duration, a 2-worker pool over 4 shards must keep
    /// draining the other shards' backlogs (never blocking on shard 0)
    /// and must record the failed claims as contention. Under a
    /// blocking claim this test deadlocks until the timeout.
    #[test]
    fn pool_drains_other_shards_while_one_is_locked() {
        let jitd = Arc::new(pool(
            StrategyKind::TreeToaster,
            8,
            by_key(records(1024), 4),
            2,
        ));
        // Generous deadlines and real sleeps between polls: the test's
        // progress depends on the OS scheduling two worker threads
        // against this polling thread, and on starved single-core boxes
        // bare yield loops can monopolize the core for long stretches.
        let deadline = Instant::now() + Duration::from_secs(60);
        jitd.with_shard(0, |_held| {
            // Shard 0 sits in the queue from the initial backlog; every
            // failed claim requeues it, so contention accrues while we
            // hold the lock. Meanwhile, drive writes at the other shards
            // (keys 1/2/3 and 4001/4002/4003 route to shards 1..3).
            let peer = jitd.clone();
            loop {
                for key in [1i64, 2, 3, 4001, 4002, 4003] {
                    peer.execute_on((key % 4) as usize, &Op::Update { key, value: key });
                }
                let others_progressed = (1..4).all(|s| peer.with_shard(s, |j| j.stats.steps) > 0);
                let contended = peer.steal_stats().contended_count > 0;
                if (others_progressed && contended) || Instant::now() > deadline {
                    assert!(
                        others_progressed,
                        "pool failed to drain unlocked shards while shard 0 was held"
                    );
                    assert!(contended, "holding shard 0 never registered as contention");
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        // Released: shard 0's backlog now drains too, and with 2 workers
        // racing over 4 shards non-home drains (steals) accumulate.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let shard0_done = jitd.with_shard(0, |j| j.stats.steps) > 0;
            let stole = jitd.steal_stats().steal_count > 0;
            if shard0_done && stole {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "after release: shard0_done={shard0_done}, stole={stole}"
            );
            jitd.execute_on(0, &Op::Update { key: 4, value: 4 });
            std::thread::sleep(Duration::from_micros(100));
        }
        let jitd = Arc::try_unwrap(jitd).unwrap_or_else(|_| panic!("handle leaked"));
        let (runtimes, _) = jitd.stop();
        for runtime in &runtimes {
            runtime.index().check_structure().unwrap();
        }
    }

    #[test]
    fn stop_is_idempotent_with_drop() {
        // A pool of n workers starts n + 1 threads (the pool plus its
        // committer), an inline fleet none. Drop must join them cleanly
        // at every size, and an inline fleet drops like any value.
        for workers in [4, 2, 0] {
            let fleet = pool(StrategyKind::Index, 32, by_key(records(128), 4), workers);
            let expected = if workers == 0 { 0 } else { workers + 1 };
            assert_eq!(fleet.threads.len(), expected, "{workers} workers");
            drop(fleet);
        }
    }

    /// A threaded fleet whose pool thread stays cold (heat threshold
    /// never crossed): reorganization runs inside the epoch from the
    /// test thread, so epochs deterministically close mid-backlog with
    /// net deltas — a pool racing the epoch to quiescence would stage
    /// *and* cancel every delta, and net-empty epochs never seal. The
    /// only background apply is the committer's.
    fn cold_pool(n: i64) -> AsyncJitd {
        let steal = StealConfig {
            workers: 1,
            heat_threshold: u64::MAX,
        };
        fleet(StrategyKind::TreeToaster, 16, vec![records(n)], steal)
    }

    /// One epoch on shard 0: 16 inserts plus one partial reorganization
    /// round, so the epoch carries net view deltas to seal.
    fn insert_epoch(jitd: &AsyncJitd, next_key: &mut i64, model: &mut BTreeMap<i64, i64>) {
        jitd.begin_batch_on(0);
        jitd.with_shard(0, |j| {
            for _ in 0..16 {
                let key = *next_key;
                *next_key += 1;
                j.execute(&Op::Insert {
                    key,
                    value: key * 3,
                });
                model.insert(key, key * 3);
            }
            j.reorganize_round();
        });
    }

    /// The tentpole claim of the commit pipeline: at lag 1,
    /// `submit_commit_on` returns before the epoch is applied, the
    /// background committer lands it, the shard's generation publishes,
    /// and readers never see a torn epoch (every committed write reads
    /// back through the shard).
    #[test]
    fn sealed_epochs_land_in_the_background() {
        let n = 512i64;
        let jitd = cold_pool(n);
        assert_eq!(jitd.commits_applied(), 0);
        let mut model: BTreeMap<i64, i64> = (0..n).map(|k| (k, k * 5)).collect();
        let mut next_key = n;
        // View deltas stage from *rewrites*, not grafts — drive epochs
        // with one partial reorganization round each until a sealed
        // epoch provably flowed through the committer.
        let deadline = Instant::now() + Duration::from_secs(60);
        while jitd.commits_applied() == 0 {
            assert!(
                Instant::now() < deadline,
                "no epoch ever sealed and committed"
            );
            insert_epoch(&jitd, &mut next_key, &mut model);
            // Mid-epoch reads stay exact while deltas are staged.
            assert_eq!(
                jitd.get(next_key - 1),
                Some((next_key - 1) * 3),
                "mid-epoch insert {}",
                next_key - 1
            );
            jitd.submit_commit_on(0);
            // Pace the op stream: on an oversubscribed single core the
            // op loop can re-take the shard lock every quantum (std
            // mutexes are unfair), and a committer that lands epochs a
            // few ms late lets the barely-reorganized tree grow one
            // graft per insert — deep enough that the recursive reads
            // above blow the test-thread stack. Yielding while the lock
            // is free hands the committer its claim window each epoch;
            // the overlap witness is unchanged (epoch k still lands
            // after epoch k+1 has opened).
            std::thread::yield_now();
        }
        // Wait for the committer to land everything in flight.
        while jitd.commits_pending() {
            assert!(
                Instant::now() < deadline,
                "committer never drained: applied={}, generation={}",
                jitd.commits_applied(),
                jitd.committed_generation(0)
            );
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(jitd.commits_applied() > 0, "committer landed no epochs");
        assert_eq!(jitd.commits_applied(), jitd.committed_generation(0));
        // Readers see every committed write, none torn.
        for k in (0..next_key).step_by(11) {
            assert_eq!(jitd.get(k), model.get(&k).copied(), "key {k}");
        }
        let (mut runtimes, _) = jitd.stop();
        let runtime = &mut runtimes[0];
        runtime.reorganize_until_quiet(100_000);
        runtime.index().check_structure().unwrap();
        runtime.agreement_with_naive().unwrap();
        for (&k, &v) in &model {
            assert_eq!(runtime.index().get(k), Some(v), "key {k} post-stop");
        }
    }

    /// The barrier: `drain_commits` lands in-flight seals inline without
    /// waiting on a committer wake, racing the committer safely (first
    /// toucher applies, the loser no-ops), and the bookkeeping stays
    /// exact — every landed epoch is counted once, generations publish,
    /// and no shard is left holding a sealed epoch.
    #[test]
    fn drain_commits_lands_inflight_epochs_inline() {
        let jitd = cold_pool(512);
        let mut model = BTreeMap::new();
        let mut next_key = 512i64;
        let deadline = Instant::now() + Duration::from_secs(60);
        while jitd.commits_applied() == 0 {
            assert!(Instant::now() < deadline, "no epoch ever sealed and landed");
            insert_epoch(&jitd, &mut next_key, &mut model);
            jitd.submit_commit_on(0);
            // Help at the barrier instead of sleep-polling the
            // committer; either thread may win the apply race.
            jitd.drain_commits();
            assert!(
                !jitd.with_shard(0, |j| j.has_submitted()),
                "a sealed epoch survived the barrier"
            );
            assert!(!jitd.commits_pending());
        }
        assert_eq!(jitd.commits_applied(), jitd.committed_generation(0));
        let (mut runtimes, _) = jitd.stop();
        let runtime = &mut runtimes[0];
        runtime.reorganize_until_quiet(100_000);
        runtime.agreement_with_naive().unwrap();
    }

    /// The parking claim: once the pool's backlog drains, idle workers
    /// park on the queue condvar (parked counter advances via the
    /// heartbeat) instead of burning `yield_now` calls (spin-yield
    /// counter frozen). Delta-based on purpose — warm-up contention may
    /// legitimately record a few spin yields before quiescence.
    #[test]
    fn idle_pool_parks_instead_of_spinning() {
        let jitd = pool(StrategyKind::TreeToaster, 16, by_key(records(512), 2), 2);
        // Wait for the initial cracking backlog to drain and stabilize.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(
                Instant::now() < deadline,
                "pool never went idle: {:?}",
                jitd.steal_stats()
            );
            let drained = jitd.steal_stats().drained_count;
            if jitd.reorg_backlog() == 0 && drained > 0 {
                std::thread::sleep(Duration::from_millis(10));
                if jitd.reorg_backlog() == 0 && jitd.steal_stats().drained_count == drained {
                    break;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        // Watch the idle pool for at least 200 ms, and until the parked
        // counter moves: a heartbeat re-park is bound to land, however
        // slowly the workers are scheduled.
        let before = jitd.steal_stats();
        let watch = Instant::now();
        let deadline = watch + Duration::from_secs(60);
        let after = loop {
            let now = jitd.steal_stats();
            if now.parked_count > before.parked_count
                && watch.elapsed() >= Duration::from_millis(200)
            {
                break now;
            }
            assert!(
                Instant::now() < deadline,
                "idle workers never parked: before {before:?}, after {now:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(
            after.spin_yield_count, before.spin_yield_count,
            "idle workers spin-yielded: before {before:?}, after {after:?}"
        );
    }

    /// A heat threshold above 1 keeps cold shards out of the queue.
    #[test]
    fn heat_threshold_gates_scheduling() {
        let jitd = inline(8, vec![salted(32, 0), salted(32, 1)], 3);
        // Every shard starts queued; drain the load-phase backlog.
        assert_eq!(jitd.reorg_backlog(), 2);
        assert!(jitd.reorganize_pending(u64::MAX) > 0);
        assert_eq!(jitd.reorg_backlog(), 0);
        jitd.execute_on(0, &Op::Update { key: 1, value: 9 });
        jitd.execute_on(0, &Op::Update { key: 3, value: 9 });
        assert_eq!(jitd.reorg_backlog(), 0, "two writes stay below 3");
        // Key 2 routes to shard 0 (2 mod 2).
        jitd.delete(2);
        assert_eq!(jitd.reorg_backlog(), 1, "third write crosses");
        // Reads never heat a shard.
        for key in 0..8 {
            jitd.execute_on(1, &Op::Read { key });
        }
        assert_eq!(jitd.reorg_backlog(), 1);
        jitd.reorganize_pending(u64::MAX);
        assert_eq!(jitd.reorg_backlog(), 0);
        let (runtimes, applied) = jitd.stop();
        assert_eq!(applied, 0, "an inline fleet has no background rewrites");
        for runtime in &runtimes {
            runtime.index().check_structure().unwrap();
        }
        assert_eq!(runtimes[0].index().get(2), None);
    }

    /// A step-capped drain must leave the cut-off shard scheduled, not
    /// strand its backlog.
    #[test]
    fn capped_drain_requeues_unfinished_shard() {
        // Don't pre-crack: both shards start queued with a deep backlog.
        let jitd = inline(8, vec![salted(64, 0), salted(64, 1)], 1);
        let steps = jitd.reorganize_pending(1);
        // One round may fire several rules, so the cap is a floor on
        // where the drain stops, not an exact count.
        assert!(steps >= 1, "cap stopped the drain early");
        assert_eq!(jitd.steal_stats().drained_count, 1, "one round served");
        assert_eq!(jitd.reorg_backlog(), 2, "cut-off shard must stay scheduled");
        // Draining in capped chunks still reaches quiescence.
        let mut applied = 0;
        while jitd.reorg_backlog() > 0 {
            applied += jitd.reorganize_pending(4);
        }
        assert!(applied > 0);
        for shard in 0..2 {
            assert_eq!(
                jitd.with_shard(shard, |j| j.reorganize_until_quiet(u64::MAX)),
                0
            );
            jitd.with_shard(shard, |j| j.check_strategy_consistent())
                .unwrap();
        }
    }

    /// Explicit routing: each shard holds its own key space, reads and
    /// writes reach only the shard they address, and the shards
    /// reorganize independently.
    #[test]
    fn fleet_routes_ops_and_reorganizes_per_tree() {
        let jitd = inline(8, (0..3).map(|t| salted(64, t)).collect(), 1);
        assert_eq!(jitd.shard_count(), 3);
        // Preload values differ per shard; reads route to the right one.
        assert_eq!(jitd.with_shard(0, |j| j.index().get(5)), Some(15));
        assert_eq!(jitd.with_shard(2, |j| j.index().get(5)), Some(17));
        assert!(jitd.reorganize_pending(u64::MAX) > 0);
        // A write to shard 1 only dirties shard 1.
        jitd.execute_on(1, &Op::Insert { key: 999, value: 1 });
        assert_eq!(jitd.reorg_backlog(), 1);
        assert_eq!(jitd.with_shard(1, |j| j.index().get(999)), Some(1));
        assert_eq!(jitd.with_shard(0, |j| j.index().get(999)), None);
        jitd.reorganize_pending(u64::MAX);
        let (mut runtimes, _) = jitd.stop();
        for runtime in &mut runtimes {
            assert!(runtime.stats.steps > 0, "every shard cracked");
            runtime.check_strategy_consistent().unwrap();
            runtime.agreement_with_naive().unwrap();
            runtime.index().check_structure().unwrap();
        }
    }

    /// Sealing epochs and landing them from `drain_commits` (lag 1)
    /// leaves an inline fleet in the same state as landing them at once
    /// (`commit_on`, lag 0), for every strategy — sealed epochs stay
    /// visible to reads before they land, and both lags land and count
    /// the same epochs (the commit-equivalence proptest broadens this to
    /// random interleavings).
    #[test]
    fn submitted_commits_equal_inline_commits() {
        for kind in StrategyKind::all() {
            let build = || {
                let steal = StealConfig {
                    workers: 0,
                    heat_threshold: 1,
                };
                let fleet = fleet(kind, 8, vec![salted(48, 0), salted(48, 1)], steal);
                fleet.reorganize_pending(u64::MAX);
                fleet
            };
            let piped = build();
            let inline = build();
            for round in 0..4 {
                for f in [&piped, &inline] {
                    for shard in 0..2 {
                        f.begin_batch_on(shard);
                        f.execute_on(
                            shard,
                            &Op::Insert {
                                key: 100 + round,
                                value: round,
                            },
                        );
                    }
                    // One capped drain: the epoch closes mid-backlog, so
                    // it carries net deltas to seal.
                    f.reorganize_pending(1);
                }
                for shard in 0..2 {
                    piped.submit_commit_on(shard);
                    inline.commit_on(shard);
                }
                // Sealed epochs stay visible to the owning shard: the
                // two fleets agree even before the deferred apply.
                for shard in 0..2 {
                    for key in 0..110 {
                        assert_eq!(
                            piped.with_shard(shard, |j| j.index().get(key)),
                            inline.with_shard(shard, |j| j.index().get(key)),
                            "{} shard {shard} diverged at key {key} pre-apply",
                            kind.label()
                        );
                    }
                }
                piped.drain_commits();
                assert!(!piped.commits_pending());
                assert!(!inline.commits_pending());
            }
            for f in [&piped, &inline] {
                assert_eq!(
                    f.commits_applied(),
                    f.committed_generation(0) + f.committed_generation(1),
                    "{}",
                    kind.label()
                );
            }
            // Naive stages nothing, so it has no epoch to land.
            let stages = piped.with_shard(0, |j| j.batch_cancellation().is_some());
            assert_eq!(piped.commits_applied() > 0, stages, "{}", kind.label());
            assert_eq!(
                piped.commits_applied(),
                inline.commits_applied(),
                "{}: both lags land the same epochs",
                kind.label()
            );
            let (mut piped, _) = piped.stop();
            let (inline, _) = inline.stop();
            for (shard, (p, i)) in piped.iter_mut().zip(&inline).enumerate() {
                p.check_strategy_consistent()
                    .unwrap_or_else(|e| panic!("{} shard {shard}: {e}", kind.label()));
                p.agreement_with_naive().unwrap();
                // Deferred and inline paths produce identical structures.
                assert_eq!(sexpr(p), sexpr(i), "{} shard {shard}", kind.label());
            }
        }
    }

    /// Per-tree epochs are independent: committing one shard's epoch
    /// leaves it consistent while its neighbor's epoch is still open,
    /// for every strategy.
    #[test]
    fn per_tree_epochs_commit_independently() {
        for kind in StrategyKind::all() {
            let steal = StealConfig {
                workers: 0,
                heat_threshold: 1,
            };
            let parts = vec![salted(48, 0), salted(48, 1)];
            let jitd = fleet(kind, 8, parts, steal);
            jitd.reorganize_pending(u64::MAX);
            // Open epochs on both shards, dirty both, commit only one.
            jitd.begin_batch_on(0);
            jitd.begin_batch_on(1);
            for shard in 0..2 {
                jitd.execute_on(shard, &Op::Update { key: 3, value: 7 });
            }
            jitd.reorganize_pending(u64::MAX);
            jitd.commit_on(0);
            jitd.with_shard(0, |j| j.check_strategy_consistent())
                .unwrap_or_else(|e| panic!("{} shard 0: {e}", kind.label()));
            jitd.commit_on(1);
            for shard in 0..2 {
                jitd.with_shard(shard, |j| {
                    j.check_strategy_consistent()
                        .unwrap_or_else(|e| panic!("{} shard {shard}: {e}", kind.label()));
                    j.agreement_with_naive().unwrap();
                    j.index().check_structure().unwrap();
                    assert_eq!(j.index().get(3), Some(7));
                });
            }
        }
    }

    /// The fleet behaves exactly like independent single-tree runtimes
    /// fed the same per-tree streams (the deterministic spot check; the
    /// forest-equivalence suite broadens this to random interleavings).
    #[test]
    fn fleet_equals_independent_runtimes() {
        let trees = 2usize;
        let fleet = inline(8, (0..trees).map(|t| salted(64, t as i64)).collect(), 1);
        let mut solos: Vec<Jitd> = (0..trees)
            .map(|t| {
                Jitd::new(
                    StrategyKind::TreeToaster,
                    RuleConfig { crack_threshold: 8 },
                    salted(64, t as i64),
                )
            })
            .collect();
        let mut driver = FleetWorkload::new(FleetSpec::standard('H', trees), 64, 11);
        // Interleaved fleet stream, recorded per tree for the solo replay.
        let mut per_tree: Vec<Vec<Op>> = vec![Vec::new(); trees];
        fleet.reorganize_pending(u64::MAX);
        for _ in 0..60 {
            let fop = driver.next_op();
            fleet.execute_on(fop.tree, &fop.op);
            fleet.reorganize_pending(u64::MAX);
            per_tree[fop.tree].push(fop.op);
        }
        for (solo, ops) in solos.iter_mut().zip(&per_tree) {
            solo.reorganize_until_quiet(u64::MAX);
            for op in ops {
                solo.execute(op);
                solo.reorganize_until_quiet(u64::MAX);
            }
        }
        let (runtimes, _) = fleet.stop();
        for (t, (mine, solo)) in runtimes.iter().zip(&solos).enumerate() {
            for key in 0..80 {
                assert_eq!(
                    mine.index().get(key),
                    solo.index().get(key),
                    "tree {t} diverged at key {key}"
                );
            }
            // Same rewrites applied shard-by-shard ⇒ same structure.
            assert_eq!(sexpr(mine), sexpr(solo), "tree {t} structural divergence");
            assert_eq!(mine.stats.steps, solo.stats.steps);
        }
    }
}
