//! Typed run configuration — the one place `TT_*` environment knobs
//! are read.
//!
//! Library code takes an [`EngineConfig`] (single engine / single op
//! stream) or a [`FleetConfig`] (a sharded deployment on top of it) as
//! a plain value; only [`EngineConfig::from_env`] and
//! [`FleetConfig::from_env`] touch the process environment, so every
//! consumer — the bench runner, the figure benches, and the `tt-serve`
//! daemon — agrees on knob names, defaults, and parsing:
//!
//! | variable             | default | field                              |
//! |----------------------|---------|------------------------------------|
//! | `TT_RECORDS`         | 20000   | [`EngineConfig::records`]          |
//! | `TT_OPS`             | 1000    | [`EngineConfig::ops`]              |
//! | `TT_CRACK_THRESHOLD` | 64      | [`EngineConfig::crack_threshold`]  |
//! | `TT_SEED`            | 42      | [`EngineConfig::seed`]             |
//! | `TT_ASYNC_COMMIT`    | 0       | [`EngineConfig::async_commit`]     |
//! | `TT_SESSIONS`        | 64      | [`FleetConfig::sessions`]          |
//! | `TT_WORKERS`         | 2       | [`FleetConfig::workers`]           |
//! | `TT_HEAT_THRESHOLD`  | 1       | [`FleetConfig::heat_threshold`]    |
//!
//! `TT_ASYNC_COMMIT` moves only the bench's epoch drivers: the
//! `tt-serve` daemon always pipelines its commits (`Daemon::new` runs
//! its fleet in `CommitMode::Async` whatever the field says).

/// Reads an integer environment knob (unset or unparsable → default).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scale and epoch-discipline configuration for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Preloaded record count.
    pub records: u64,
    /// YCSB operations per run.
    pub ops: usize,
    /// CrackArray threshold.
    pub crack_threshold: usize,
    /// Master seed.
    pub seed: u64,
    /// Pipelined epoch commits in the bench's epoch drivers
    /// (`tt_bench`): when set, they close each epoch with a *seal*
    /// (`submit_commit`) instead of an inline `commit_batch`, and the
    /// sealed epoch lands one epoch later (the strategies'
    /// one-epoch-in-flight backpressure keeps ordering; a final drain
    /// lands the last epoch). Off by default. The `tt-serve` daemon
    /// ignores it: it always pipelines.
    pub async_commit: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            records: 20_000,
            ops: 1_000,
            crack_threshold: 64,
            seed: 42,
            async_commit: false,
        }
    }
}

impl EngineConfig {
    /// Reads the configuration from the environment (the only place the
    /// `TT_RECORDS`…`TT_ASYNC_COMMIT` knobs are parsed).
    pub fn from_env() -> EngineConfig {
        EngineConfig {
            records: env_u64("TT_RECORDS", 20_000),
            ops: env_u64("TT_OPS", 1_000) as usize,
            crack_threshold: env_u64("TT_CRACK_THRESHOLD", 64) as usize,
            seed: env_u64("TT_SEED", 42),
            async_commit: env_u64("TT_ASYNC_COMMIT", 0) != 0,
        }
    }

    /// Sets the preloaded record count.
    pub fn records(mut self, records: u64) -> EngineConfig {
        self.records = records;
        self
    }

    /// Sets the operation count.
    pub fn ops(mut self, ops: usize) -> EngineConfig {
        self.ops = ops;
        self
    }

    /// Sets the CrackArray threshold.
    pub fn crack_threshold(mut self, crack_threshold: usize) -> EngineConfig {
        self.crack_threshold = crack_threshold;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> EngineConfig {
        self.seed = seed;
        self
    }

    /// Enables or disables the pipelined (seal + background apply)
    /// commit discipline.
    pub fn async_commit(mut self, on: bool) -> EngineConfig {
        self.async_commit = on;
        self
    }
}

/// A sharded deployment on top of an [`EngineConfig`]: how many session
/// shards exist and how the shared worker pool drains them. Plain data —
/// the daemon maps `workers`/`heat_threshold` onto the `jitd` crate's
/// `StealConfig`. Its commit mode is not configurable: the daemon always
/// runs `CommitMode::Async` (the engine's `async_commit` moves only the
/// bench's epoch drivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Per-shard engine configuration.
    pub engine: EngineConfig,
    /// Session shards (trees) the deployment admits.
    pub sessions: usize,
    /// Worker threads in the shared reorganization pool.
    pub workers: usize,
    /// Minimum shard heat before the pool admits it for background
    /// reorganization (`u64::MAX` parks the pool entirely).
    pub heat_threshold: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            engine: EngineConfig::default(),
            sessions: 64,
            workers: 2,
            heat_threshold: 1,
        }
    }
}

impl FleetConfig {
    /// Reads the fleet shape (and its engine config) from the
    /// environment.
    pub fn from_env() -> FleetConfig {
        FleetConfig {
            engine: EngineConfig::from_env(),
            sessions: env_u64("TT_SESSIONS", 64) as usize,
            workers: env_u64("TT_WORKERS", 2) as usize,
            heat_threshold: env_u64("TT_HEAT_THRESHOLD", 1),
        }
    }

    /// Sets the per-shard engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> FleetConfig {
        self.engine = engine;
        self
    }

    /// Sets the admitted session count.
    pub fn sessions(mut self, sessions: usize) -> FleetConfig {
        self.sessions = sessions;
        self
    }

    /// Sets the worker-pool size.
    pub fn workers(mut self, workers: usize) -> FleetConfig {
        self.workers = workers;
        self
    }

    /// Sets the pool's heat admission threshold.
    pub fn heat_threshold(mut self, heat_threshold: u64) -> FleetConfig {
        self.heat_threshold = heat_threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knob_parses_with_default() {
        assert_eq!(env_u64("TT_DEFINITELY_UNSET_KNOB", 5), 5);
    }

    #[test]
    fn engine_defaults_match_documented_knobs() {
        let d = EngineConfig::default();
        assert_eq!(d.records, 20_000);
        assert_eq!(d.ops, 1_000);
        assert_eq!(d.crack_threshold, 64);
        assert_eq!(d.seed, 42);
        assert!(!d.async_commit);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = EngineConfig::default()
            .records(256)
            .ops(30)
            .crack_threshold(32)
            .seed(7)
            .async_commit(true);
        assert_eq!(cfg.records, 256);
        assert_eq!(cfg.ops, 30);
        assert_eq!(cfg.crack_threshold, 32);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.async_commit);

        let fleet = FleetConfig::default()
            .engine(cfg)
            .sessions(1000)
            .workers(4)
            .heat_threshold(u64::MAX);
        assert_eq!(fleet.engine, cfg);
        assert_eq!(fleet.sessions, 1000);
        assert_eq!(fleet.workers, 4);
        assert_eq!(fleet.heat_threshold, u64::MAX);
    }
}
