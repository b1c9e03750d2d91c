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
//! | `TT_SESSIONS`        | 64      | [`FleetConfig::sessions`]          |
//! | `TT_WORKERS`         | 2       | [`FleetConfig::workers`]           |
//! | `TT_HEAT_THRESHOLD`  | 1       | [`FleetConfig::heat_threshold`]    |
//!
//! No knob sets a commit lag: each caller picks it per epoch close
//! (`AsyncJitd::commit_on` lands at once, `AsyncJitd::submit_commit_on`
//! hands the seal to the fleet's committer).

/// Reads an integer environment knob (unset or unparsable → default).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Scale configuration for one engine run.
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
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            records: 20_000,
            ops: 1_000,
            crack_threshold: 64,
            seed: 42,
        }
    }
}

impl EngineConfig {
    /// Reads the configuration from the environment (the only place the
    /// `TT_RECORDS`…`TT_SEED` knobs are parsed).
    pub fn from_env() -> EngineConfig {
        EngineConfig {
            records: env_u64("TT_RECORDS", 20_000),
            ops: env_u64("TT_OPS", 1_000) as usize,
            crack_threshold: env_u64("TT_CRACK_THRESHOLD", 64) as usize,
            seed: env_u64("TT_SEED", 42),
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
}

/// A sharded deployment on top of an [`EngineConfig`]: how many session
/// shards exist and how the shared worker pool drains them. Plain data —
/// the daemon maps `workers`/`heat_threshold` onto the `jitd` crate's
/// `StealConfig`.
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
    }

    #[test]
    fn builders_override_fields() {
        let cfg = EngineConfig::default()
            .records(256)
            .ops(30)
            .crack_threshold(32)
            .seed(7);
        assert_eq!(cfg.records, 256);
        assert_eq!(cfg.ops, 30);
        assert_eq!(cfg.crack_threshold, 32);
        assert_eq!(cfg.seed, 7);

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
