//! The session daemon: a multi-tenant deployment of [`AsyncJitd`].
//!
//! Every session owns one shard of a shared fleet — its own tree, its
//! own strategy instance, its own maintenance epochs — while all
//! sessions share one work-stealing reorganizer pool and one background
//! committer ([`CommitMode::Async`]): a tenant's `replace` only stages
//! a delta and occasionally *seals* an epoch (O(1)); the apply runs on
//! the committer thread, off every tenant's op path.
//!
//! Three policies sit in front of the fleet:
//!
//! - **Admission control** — the fleet is sized at construction
//!   ([`FleetConfig::sessions`]); an `open` beyond capacity is refused
//!   with [`ErrorCode::Busy`] instead of degrading every tenant.
//! - **Per-tenant backpressure** — each session's open epoch is bounded
//!   at [`Daemon::MAX_EPOCH_OPS`] staged ops; crossing the bound seals
//!   the epoch. The strategies allow one sealed epoch in flight per
//!   shard, so a tenant that outruns the committer pays its *own*
//!   backlog (the next seal applies the stale epoch inline on that
//!   tenant's thread) — it cannot queue unbounded work or stall anyone
//!   else.
//! - **Quiescence on close** — `close` lands the open epoch, drains the
//!   tree's reorganization backlog to a fixpoint, applies any sealed
//!   epoch, then recycles the slot as a fresh empty tree.

use crate::protocol::{ErrorCode, Request, Response, SessionSnapshot};
use std::sync::{Arc, Mutex};
use treetoaster_core::{FleetConfig, RuleSet};
use tt_ast::Record;
use tt_jitd::{
    jitd_schema, paper_rules, AsyncJitd, CommitMode, Jitd, RuleConfig, StealConfig, StrategyKind,
};
use tt_ycsb::Op;

/// Per-slot session state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Free,
    Open {
        /// Ops staged into the current epoch (backpressure counter).
        ops_in_epoch: u32,
    },
}

/// The session table: slot states plus a free list, one lock for the
/// bookkeeping only — tree operations run under the per-shard locks.
struct SessionTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

/// Counters from a full daemon drain (shutdown path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Sessions that were still open and got drained.
    pub sessions_closed: usize,
    /// Sealed epochs landed by the final commit sweep.
    pub commits_landed: u64,
}

/// The plan-serving daemon. All methods take `&self`; wrap it in an
/// [`std::sync::Arc`] and call [`Daemon::handle`] from as many
/// connection threads as you like.
pub struct Daemon {
    pool: AsyncJitd,
    sessions: Mutex<SessionTable>,
    kind: StrategyKind,
    /// The paper's rules, compiled once and shared by every session.
    rules: Arc<RuleSet>,
}

impl Daemon {
    /// Per-tenant backpressure bound: ops staged per epoch before the
    /// daemon seals it to the committer.
    pub const MAX_EPOCH_OPS: u32 = 64;

    /// Builds a daemon: `config.sessions` empty session shards, a
    /// stealing pool of `config.workers` threads gated at
    /// `config.heat_threshold`, and the asynchronous commit pipeline.
    pub fn new(kind: StrategyKind, config: FleetConfig) -> Daemon {
        let sessions = config.sessions.max(1);
        let rules = Arc::new(paper_rules(
            &jitd_schema(),
            RuleConfig {
                crack_threshold: config.engine.crack_threshold,
            },
        ));
        let pool = AsyncJitd::spawn(
            (0..sessions)
                .map(|_| Jitd::with_rules(kind, rules.clone(), Vec::new()))
                .collect(),
            StealConfig {
                workers: config.workers.max(1),
                heat_threshold: config.heat_threshold,
            },
            CommitMode::Async,
        );
        Daemon {
            pool,
            sessions: Mutex::new(SessionTable {
                slots: vec![Slot::Free; sessions],
                free: (0..sessions as u32).rev().collect(),
            }),
            kind,
            rules,
        }
    }

    /// Session capacity (the admission bound).
    pub fn capacity(&self) -> usize {
        self.sessions.lock().unwrap().slots.len()
    }

    /// Currently open sessions.
    pub fn open_sessions(&self) -> usize {
        let table = self.sessions.lock().unwrap();
        table.slots.len() - table.free.len()
    }

    /// Serves one request. Safe to call concurrently from any number of
    /// threads; requests for different sessions only meet at the brief
    /// session-table lock.
    pub fn handle(&self, req: &Request) -> Response {
        match *req {
            Request::Open { records, seed } => self.open(records, seed),
            Request::Replace {
                session,
                key,
                value,
            } => self.replace(session, key, value),
            Request::Find { session, key } => self.find(session, key),
            Request::Tick { session, rounds } => self.tick(session, rounds),
            Request::Snapshot { session } => self.snapshot(session),
            Request::Close { session } => self.close(session),
            Request::Stop => Response::Stopping,
        }
    }

    /// Validates that `session` is an open slot; runs `f` if so.
    fn with_open(&self, session: u32, f: impl FnOnce() -> Response) -> Response {
        let ok = {
            let table = self.sessions.lock().unwrap();
            matches!(table.slots.get(session as usize), Some(Slot::Open { .. }))
        };
        if ok {
            f()
        } else {
            Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("session {session} is not open"),
            }
        }
    }

    fn open(&self, records: u64, seed: u64) -> Response {
        // Reserve the slot under the table lock; preload outside it so
        // a large open never blocks other tenants' bookkeeping.
        let slot = {
            let mut table = self.sessions.lock().unwrap();
            match table.free.pop() {
                Some(slot) => {
                    table.slots[slot as usize] = Slot::Open { ops_in_epoch: 0 };
                    slot
                }
                None => {
                    return Response::Error {
                        code: ErrorCode::Busy,
                        message: format!("all {} session slots are open", table.slots.len()),
                    }
                }
            }
        };
        let shard = slot as usize;
        // Preload by *loading*, not by singleton grafts: `load` builds
        // one big Array the crack rule can bite on, exactly like the
        // bench drivers; grafting N singletons onto an empty tree
        // produces a shape the paper's five rules never match.
        let preload: Vec<Record> = (0..records as i64)
            .map(|k| Record::new(k, k.wrapping_mul(7) ^ seed as i64))
            .collect();
        let fresh = Jitd::with_rules(self.kind, self.rules.clone(), preload);
        self.pool.with_shard(shard, |j| {
            debug_assert_eq!(
                j.index().scan(i64::MIN, 1).len(),
                0,
                "recycled slot not empty"
            );
            *j = fresh;
        });
        // Stage all later writes in epochs: open the first one now.
        self.pool.begin_batch_on(shard);
        Response::Opened { session: slot }
    }

    fn replace(&self, session: u32, key: i64, value: i64) -> Response {
        // Bump the backpressure counter under the table lock and decide
        // whether this op closes the epoch; the tree work runs after,
        // under the shard lock only.
        let seal = {
            let mut table = self.sessions.lock().unwrap();
            match table.slots.get_mut(session as usize) {
                Some(Slot::Open { ops_in_epoch }) => {
                    *ops_in_epoch += 1;
                    let seal = *ops_in_epoch >= Self::MAX_EPOCH_OPS;
                    if seal {
                        *ops_in_epoch = 0;
                    }
                    seal
                }
                _ => {
                    return Response::Error {
                        code: ErrorCode::UnknownSession,
                        message: format!("session {session} is not open"),
                    }
                }
            }
        };
        let shard = session as usize;
        self.pool.execute_on(shard, &Op::Update { key, value });
        if seal {
            // Seal to the committer (O(1) under async commit) and open
            // the next epoch. If the previous seal has not landed yet,
            // the strategy's one-in-flight rule applies it here — on
            // this tenant's thread, which is the backpressure.
            self.pool.submit_commit_on(shard);
            self.pool.begin_batch_on(shard);
        }
        Response::Replaced
    }

    fn find(&self, session: u32, key: i64) -> Response {
        self.with_open(session, || {
            let value = self
                .pool
                .with_shard(session as usize, |j| j.index().get(key));
            Response::Found { value }
        })
    }

    fn tick(&self, session: u32, rounds: u32) -> Response {
        self.with_open(session, || {
            let rewrites = self.pool.with_shard(session as usize, |j| {
                let mut fired = 0u64;
                for _ in 0..rounds {
                    let n = j.reorganize_round() as u64;
                    if n == 0 {
                        break;
                    }
                    fired += n;
                }
                fired
            });
            Response::Ticked { rewrites }
        })
    }

    fn snapshot(&self, session: u32) -> Response {
        self.with_open(session, || {
            let snap = self.pool.with_shard(session as usize, |j| {
                let (staged, canceled) = j.batch_cancellation().unwrap_or((0, 0));
                SessionSnapshot {
                    rewrites: j.stats.steps,
                    memory_bytes: j.strategy_memory_bytes() as u64,
                    staged,
                    canceled,
                    pending_matches: j.has_pending_matches(),
                }
            });
            Response::Snapshotted(snap)
        })
    }

    fn close(&self, session: u32) -> Response {
        // Free the slot only after the drain, so a racing open cannot
        // be handed a tree that is still being recycled.
        let claimed = {
            let mut table = self.sessions.lock().unwrap();
            match table.slots.get_mut(session as usize) {
                Some(state @ Slot::Open { .. }) => {
                    // Mark closed-in-progress by keeping it out of the
                    // free list but no longer Open (later requests see
                    // UnknownSession immediately).
                    *state = Slot::Free;
                    true
                }
                _ => false,
            }
        };
        if !claimed {
            return Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("session {session} is not open"),
            };
        }
        let rewrites = self.drain_shard(session as usize);
        self.sessions.lock().unwrap().free.push(session);
        Response::Closed { rewrites }
    }

    /// Quiesces one shard and recycles it as a fresh empty tree.
    /// Returns the rewrites the session absorbed over its lifetime.
    fn drain_shard(&self, shard: usize) -> u64 {
        let (kind, rules) = (self.kind, &self.rules);
        self.pool.with_shard(shard, |j| {
            // Land the open epoch (this also applies any sealed one:
            // epochs land in submission order), drain the rewrite
            // backlog to a fixpoint, then sweep once more in case the
            // committer sealed behind our back.
            j.commit_batch();
            j.reorganize_until_quiet(u64::MAX);
            j.apply_submitted();
            let rewrites = j.stats.steps;
            *j = Jitd::with_rules(kind, rules.clone(), Vec::new());
            rewrites
        })
    }

    /// Drains every open session and lands every in-flight commit; the
    /// shutdown path behind SIGTERM / [`Request::Stop`].
    pub fn drain(&self) -> DrainReport {
        let open: Vec<u32> = {
            let table = self.sessions.lock().unwrap();
            (0..table.slots.len() as u32)
                .filter(|&s| matches!(table.slots[s as usize], Slot::Open { .. }))
                .collect()
        };
        let mut report = DrainReport::default();
        for session in open {
            if let Response::Closed { .. } = self.close(session) {
                report.sessions_closed += 1;
            }
        }
        report.commits_landed = self.pool.drain_commits();
        report
    }

    /// Direct fleet access for benches and tests (e.g. quiescence
    /// probes); sessions map 1:1 onto shards.
    pub fn pool(&self) -> &AsyncJitd {
        &self.pool
    }
}
