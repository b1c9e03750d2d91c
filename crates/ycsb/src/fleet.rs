//! Multi-tree workload family: operation streams over a fleet of plans.
//!
//! The paper's scaling experiments (Figures 14/15) model optimizers that
//! juggle *many* concurrent plans: Spark submits ~1000-node plans in
//! bursts, Greenplum/Orca streams independent optimizations. The fleet
//! workloads reproduce those arrival shapes over `T` independent trees,
//! each tree carrying its own key space and its own seeded single-tree
//! [`Workload`]:
//!
//! | workload | arrival shape                                   | base mix |
//! |----------|--------------------------------------------------|----------|
//! | G        | **burst-of-plans**: runs of consecutive ops land on one tree, then the burst moves on (round-robin) — the Spark shape | A (50/50 read/update, zipfian) |
//! | H        | **steady-churn**: every op picks a tree uniformly at random — the Orca stream shape | A (50/50 read/update, zipfian) |
//! | I        | **skewed-churn**: a hot minority of trees (20%) absorbs most of the stream (80%) — the shape where a work-stealing pool keeps up with one worker per shard | A (50/50 read/update, zipfian) |
//!
//! All are deterministic under a seed, like the single-tree workloads.

use crate::workload::{Op, Workload, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation addressed to one tree of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOp {
    /// Index of the addressed tree (`0..trees`).
    pub tree: usize,
    /// The operation to run against that tree.
    pub op: Op,
}

/// How operations distribute across the fleet's trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPattern {
    /// Runs of `burst_len` consecutive ops target one tree, then the
    /// burst advances round-robin — a stream of plan-sized work units.
    Burst {
        /// Ops per burst before the stream moves to the next tree.
        burst_len: usize,
    },
    /// Every op independently picks a uniformly random tree.
    SteadyChurn,
    /// A hot minority of trees absorbs most of the stream: with
    /// probability `hot_share_pct`% the op lands uniformly on one of the
    /// first `⌈trees · hot_trees_pct%⌉` trees, otherwise uniformly on
    /// the cold remainder. (Percentages keep the variant `Eq`-able and
    /// the spec exactly representable.)
    Skewed {
        /// Percentage of trees in the hot set (at least one tree).
        hot_trees_pct: u32,
        /// Percentage of operations routed to the hot set.
        hot_share_pct: u32,
    },
}

/// A fleet workload definition: tree count, arrival pattern, per-tree mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Workload mnemonic (`'G'` or `'H'`).
    pub name: char,
    /// Number of trees in the fleet.
    pub trees: usize,
    /// The single-tree mix each tree's stream follows.
    pub base: WorkloadSpec,
    /// How ops spread across trees.
    pub pattern: FleetPattern,
}

impl FleetSpec {
    /// The standard fleet workloads, parameterized by tree count.
    pub fn standard(name: char, trees: usize) -> FleetSpec {
        assert!(trees >= 1, "a fleet needs at least one tree");
        match name {
            // Burst-of-plans: the Spark shape. 32 ops ≈ one plan's worth
            // of churn before the optimizer turns to the next plan.
            'G' => FleetSpec {
                name,
                trees,
                base: WorkloadSpec::standard('A'),
                pattern: FleetPattern::Burst { burst_len: 32 },
            },
            // Steady churn: the Orca stream shape.
            'H' => FleetSpec {
                name,
                trees,
                base: WorkloadSpec::standard('A'),
                pattern: FleetPattern::SteadyChurn,
            },
            // Skewed churn: 20% of the trees take 80% of the ops — the
            // scheduling shape where a work-stealing reorganizer pool
            // keeps up with one worker per shard (pinned workers idle on
            // the cold shards while the hot shards' backlogs grow).
            'I' => FleetSpec {
                name,
                trees,
                base: WorkloadSpec::standard('A'),
                pattern: FleetPattern::Skewed {
                    hot_trees_pct: 20,
                    hot_share_pct: 80,
                },
            },
            _ => panic!("unknown fleet workload {name:?}; expected G, H, or I"),
        }
    }

    /// All fleet workloads at one tree count.
    pub fn fleet_set(trees: usize) -> Vec<FleetSpec> {
        "GHI"
            .chars()
            .map(|c| FleetSpec::standard(c, trees))
            .collect()
    }

    /// Size of this spec's hot set (trees for `Skewed`; 0 otherwise).
    pub fn hot_tree_count(&self) -> usize {
        match self.pattern {
            FleetPattern::Skewed { hot_trees_pct, .. } => {
                (self.trees * hot_trees_pct as usize).div_ceil(100).max(1)
            }
            _ => 0,
        }
    }
}

/// A seeded, stateful fleet workload: yields [`FleetOp`]s, one
/// single-tree [`Workload`] per tree (independent key spaces).
pub struct FleetWorkload {
    spec: FleetSpec,
    per_tree: Vec<Workload>,
    rng: StdRng,
    /// Burst cursor: `(current tree, ops left in the burst)`.
    burst: (usize, usize),
}

impl FleetWorkload {
    /// Creates a fleet over `trees` key spaces of `records_per_tree`
    /// preloaded keys each. Tree `t`'s stream is seeded `seed + t`, so
    /// a fleet run and `T` independent single-tree runs draw identical
    /// per-tree op sequences — the forest equivalence suite leans on
    /// this.
    pub fn new(spec: FleetSpec, records_per_tree: u64, seed: u64) -> FleetWorkload {
        let per_tree = (0..spec.trees)
            .map(|t| Workload::new(spec.base, records_per_tree, seed.wrapping_add(t as u64)))
            .collect();
        FleetWorkload {
            spec,
            per_tree,
            rng: StdRng::seed_from_u64(seed ^ 0x666c_6565_745f_7773), // "fleet_ws"
            burst: (0, 0),
        }
    }

    /// The spec driving this fleet.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Number of trees.
    pub fn trees(&self) -> usize {
        self.per_tree.len()
    }

    /// Draws the next (tree, op) pair.
    pub fn next_op(&mut self) -> FleetOp {
        let tree = match self.spec.pattern {
            FleetPattern::Burst { burst_len } => {
                if self.burst.1 == 0 {
                    self.burst.1 = burst_len.max(1);
                }
                let t = self.burst.0;
                self.burst.1 -= 1;
                if self.burst.1 == 0 {
                    self.burst.0 = (self.burst.0 + 1) % self.per_tree.len();
                }
                t
            }
            FleetPattern::SteadyChurn => self.rng.gen_range(0..self.per_tree.len()),
            FleetPattern::Skewed { hot_share_pct, .. } => {
                let trees = self.per_tree.len();
                let hot = self.spec.hot_tree_count().min(trees);
                let roll: u32 = self.rng.gen_range(0..100);
                if roll < hot_share_pct || hot == trees {
                    self.rng.gen_range(0..hot)
                } else {
                    self.rng.gen_range(hot..trees)
                }
            }
        };
        FleetOp {
            tree,
            op: self.per_tree[tree].next_op(),
        }
    }

    /// Draws `n` fleet operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<FleetOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_workload_clusters_by_tree() {
        let mut w = FleetWorkload::new(FleetSpec::standard('G', 4), 100, 42);
        let ops = w.take_ops(256);
        // Ops arrive in runs of exactly burst_len per tree, round-robin.
        let FleetPattern::Burst { burst_len } = w.spec().pattern else {
            panic!("G is a burst workload");
        };
        for (i, chunk) in ops.chunks(burst_len).enumerate() {
            let expect = i % 4;
            assert!(
                chunk.iter().all(|f| f.tree == expect),
                "burst {i} not clustered on tree {expect}"
            );
        }
    }

    #[test]
    fn steady_churn_visits_every_tree() {
        let mut w = FleetWorkload::new(FleetSpec::standard('H', 5), 100, 7);
        let ops = w.take_ops(500);
        for t in 0..5 {
            let hits = ops.iter().filter(|f| f.tree == t).count();
            assert!(hits > 50, "tree {t} starved: {hits} ops of 500");
        }
    }

    #[test]
    fn deterministic_under_seed_and_tree_streams_match_solo_runs() {
        let mut a = FleetWorkload::new(FleetSpec::standard('H', 3), 64, 9);
        let mut b = FleetWorkload::new(FleetSpec::standard('H', 3), 64, 9);
        assert_eq!(a.take_ops(100), b.take_ops(100));
        // Tree t's sub-stream equals an independent Workload at seed+t.
        let mut fleet = FleetWorkload::new(FleetSpec::standard('G', 2), 64, 100);
        let ops = fleet.take_ops(128);
        for t in 0..2usize {
            let mine: Vec<Op> = ops.iter().filter(|f| f.tree == t).map(|f| f.op).collect();
            let mut solo = Workload::new(WorkloadSpec::standard('A'), 64, 100 + t as u64);
            let want = solo.take_ops(mine.len());
            assert_eq!(mine, want, "tree {t} sub-stream diverged");
        }
    }

    #[test]
    fn single_tree_fleet_degenerates() {
        let mut w = FleetWorkload::new(FleetSpec::standard('G', 1), 32, 3);
        assert!(w.take_ops(64).iter().all(|f| f.tree == 0));
        assert_eq!(w.trees(), 1);
        assert_eq!(FleetSpec::fleet_set(4).len(), 3);
    }

    #[test]
    fn skewed_workload_concentrates_on_hot_minority() {
        let spec = FleetSpec::standard('I', 10);
        assert_eq!(spec.hot_tree_count(), 2, "20% of 10 trees");
        let mut w = FleetWorkload::new(spec, 100, 13);
        let ops = w.take_ops(4000);
        let hot_hits = ops.iter().filter(|f| f.tree < 2).count();
        let share = hot_hits as f64 / ops.len() as f64;
        assert!(
            (share - 0.8).abs() < 0.05,
            "hot set got {share:.2} of the stream, expected ~0.80"
        );
        // Cold trees still see traffic (the one-worker-per-shard
        // baseline must have something to do on every shard).
        for t in 2..10 {
            assert!(ops.iter().any(|f| f.tree == t), "cold tree {t} starved");
        }
    }

    #[test]
    fn skewed_single_tree_and_tiny_fleets_degenerate() {
        // One tree: everything is hot.
        let mut w = FleetWorkload::new(FleetSpec::standard('I', 1), 32, 5);
        assert!(w.take_ops(64).iter().all(|f| f.tree == 0));
        // Two trees: hot set rounds up to one tree, cold set is tree 1.
        let spec = FleetSpec::standard('I', 2);
        assert_eq!(spec.hot_tree_count(), 1);
        let mut w = FleetWorkload::new(spec, 32, 5);
        let ops = w.take_ops(1000);
        let hot = ops.iter().filter(|f| f.tree == 0).count();
        assert!(hot > 700, "tree 0 should dominate, got {hot}/1000");
        assert!(hot < 1000, "tree 1 must not starve entirely");
        // Non-skewed specs report an empty hot set.
        assert_eq!(FleetSpec::standard('G', 8).hot_tree_count(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown fleet workload")]
    fn unknown_fleet_workload_rejected() {
        let _ = FleetSpec::standard('Z', 2);
    }
}
