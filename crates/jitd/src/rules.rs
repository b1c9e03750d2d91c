//! The JITD rewrite rules (paper §7.1 + appendix B).
//!
//! The five rules of the evaluation "mimic Database Cracking by
//! incrementally building a tree, while pushing updates (Singleton and
//! DeleteSingleton respectively) down into the tree":
//!
//! - **CrackArray** — partition an oversized `Array` around a
//!   pseudo-randomly selected pivot into `BinTree(sep, Array<, Array≥)`.
//! - **PushDownSingletonBtreeLeft/Right** — route a freshly inserted
//!   `Singleton` below a `BinTree` according to the separator.
//! - **PushDownDontDeleteSingletonBtreeLeft/Right** — route a
//!   `DeleteSingleton` tombstone likewise (the paper's figure labels).
//!
//! [`full_rules`] adds the appendix's terminal rules (merging singletons
//! and tombstones into arrays, merging adjacent arrays) so the structure
//! can fully converge; [`pivot_rules`] adds tree rotations (PivotLeft /
//! PivotRight), which are useful for ablations but — having no decreasing
//! measure — must not be driven to a fixpoint.

use std::sync::Arc;
use treetoaster_core::generator::{acompute, acopy, gen, reuse, GenCtx};
use treetoaster_core::{RewriteRule, RuleSet};
use tt_ast::{Record, Schema, Value};
use tt_pattern::dsl as p;
use tt_pattern::Pattern;

/// Tunables for rule construction.
#[derive(Debug, Clone, Copy)]
pub struct RuleConfig {
    /// Arrays strictly larger than this are eligible for cracking.
    pub crack_threshold: usize,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            crack_threshold: 16,
        }
    }
}

/// Mixes the runtime tick into a pseudo-random index (splitmix64 step),
/// keeping pivot selection reproducible run-to-run.
fn mix(tick: u64) -> u64 {
    let mut z = tick.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pivot CrackArray partitions around: a pseudo-random element of the
/// array, excluding the minimum key (so both partitions are non-empty and
/// cracking always makes progress).
fn crack_pivot(ctx: &GenCtx<'_>, pattern: &Pattern) -> i64 {
    let schema = ctx.ast.schema();
    let a = pattern.var("A").expect("CrackArray binds A");
    let data = ctx
        .ast
        .attr(ctx.bindings.get(a), schema.expect_attr("data"))
        .as_recs();
    debug_assert!(
        data.len() >= 2,
        "threshold ≥ 1 guarantees at least 2 records"
    );
    // Skip index 0 (the minimum in a sorted run): pivot strictly greater
    // than some key means the `< sep` partition is non-empty, and the
    // pivot's own record keeps the `≥ sep` side non-empty.
    let at = 1 + (mix(ctx.tick) as usize) % (data.len() - 1);
    data[at].key
}

fn partition(ctx: &GenCtx<'_>, pattern: &Pattern, keep_lt: bool) -> Arc<Vec<Record>> {
    let schema = ctx.ast.schema();
    let a = pattern.var("A").expect("CrackArray binds A");
    let data = ctx
        .ast
        .attr(ctx.bindings.get(a), schema.expect_attr("data"))
        .as_recs();
    let sep = crack_pivot(ctx, pattern);
    Arc::new(
        data.iter()
            .copied()
            .filter(|r| (r.key < sep) == keep_lt)
            .collect(),
    )
}

/// CrackArray: `Array{size > τ}` →
/// `BinTree(sep, Array{key < sep}, Array{key ≥ sep})`.
fn crack_array(schema: &Arc<Schema>, config: RuleConfig) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "Array",
            "A",
            [],
            p::gt(p::attr("A", "size"), p::int(config.crack_threshold as i64)),
        ),
    );
    let pat_for_sep = pattern.clone();
    let pat_lt = pattern.clone();
    let pat_ge = pattern.clone();
    let pat_lt_size = pattern.clone();
    let pat_ge_size = pattern.clone();
    RewriteRule::new(
        "CrackArray",
        schema,
        pattern.clone(),
        gen(
            "BinTree",
            [(
                "sep",
                acompute("crackPivot", move |ctx| {
                    Value::Int(crack_pivot(ctx, &pat_for_sep))
                }),
            )],
            [
                gen(
                    "Array",
                    [
                        (
                            "data",
                            acompute("lowerRun", move |ctx| {
                                Value::Recs(partition(ctx, &pat_lt, true))
                            }),
                        ),
                        (
                            "size",
                            acompute("lowerLen", move |ctx| {
                                Value::Int(partition(ctx, &pat_lt_size, true).len() as i64)
                            }),
                        ),
                    ],
                    [],
                ),
                gen(
                    "Array",
                    [
                        (
                            "data",
                            acompute("upperRun", move |ctx| {
                                Value::Recs(partition(ctx, &pat_ge, false))
                            }),
                        ),
                        (
                            "size",
                            acompute("upperLen", move |ctx| {
                                Value::Int(partition(ctx, &pat_ge_size, false).len() as i64)
                            }),
                        ),
                    ],
                    [],
                ),
            ],
        ),
    )
}

/// PushDownSingletonBtree{Left,Right}: `Concat(BinTree(q₁,q₂), S)` →
/// route `S` into the matching side (paper §7.1's rule, verbatim).
fn push_down_singleton(schema: &Arc<Schema>, left: bool) -> RewriteRule {
    let side = if left {
        p::lt(p::attr("S", "key"), p::attr("B", "sep"))
    } else {
        p::ge(p::attr("S", "key"), p::attr("B", "sep"))
    };
    let pattern = Pattern::compile(
        schema,
        p::node(
            "Concat",
            "C",
            [
                p::node("BinTree", "B", [p::any_as("q1"), p::any_as("q2")], p::tru()),
                p::node("Singleton", "S", [], p::tru()),
            ],
            side,
        ),
    );
    let generator = if left {
        gen(
            "BinTree",
            [("sep", acopy("B", "sep"))],
            [gen("Concat", [], [reuse("q1"), reuse("S")]), reuse("q2")],
        )
    } else {
        gen(
            "BinTree",
            [("sep", acopy("B", "sep"))],
            [reuse("q1"), gen("Concat", [], [reuse("q2"), reuse("S")])],
        )
    };
    let name = if left {
        "PushDownSingletonBtreeLeft"
    } else {
        "PushDownSingletonBtreeRight"
    };
    RewriteRule::new(name, schema, pattern, generator)
}

/// PushDownDontDeleteSingletonBtree{Left,Right}: route a tombstone below
/// a `BinTree` by separator.
fn push_down_delete(schema: &Arc<Schema>, left: bool) -> RewriteRule {
    let side = if left {
        p::lt(p::attr("D", "key"), p::attr("B", "sep"))
    } else {
        p::ge(p::attr("D", "key"), p::attr("B", "sep"))
    };
    let pattern = Pattern::compile(
        schema,
        p::node(
            "DeleteSingleton",
            "D",
            [p::node(
                "BinTree",
                "B",
                [p::any_as("q1"), p::any_as("q2")],
                p::tru(),
            )],
            side,
        ),
    );
    let generator = if left {
        gen(
            "BinTree",
            [("sep", acopy("B", "sep"))],
            [
                gen(
                    "DeleteSingleton",
                    [("key", acopy("D", "key"))],
                    [reuse("q1")],
                ),
                reuse("q2"),
            ],
        )
    } else {
        gen(
            "BinTree",
            [("sep", acopy("B", "sep"))],
            [
                reuse("q1"),
                gen(
                    "DeleteSingleton",
                    [("key", acopy("D", "key"))],
                    [reuse("q2")],
                ),
            ],
        )
    };
    let name = if left {
        "PushDownDontDeleteSingletonBtreeLeft"
    } else {
        "PushDownDontDeleteSingletonBtreeRight"
    };
    RewriteRule::new(name, schema, pattern, generator)
}

/// The evaluation's five rules, in the order the paper's figures list
/// them (rule ids 0–4).
pub fn paper_rules(schema: &Arc<Schema>, config: RuleConfig) -> RuleSet {
    RuleSet::from_rules(vec![
        crack_array(schema, config),
        push_down_singleton(schema, true),
        push_down_singleton(schema, false),
        push_down_delete(schema, true),
        push_down_delete(schema, false),
    ])
}

fn merged_with_singleton(ctx: &GenCtx<'_>, pattern: &Pattern) -> Vec<Record> {
    let schema = ctx.ast.schema();
    let a = pattern.var("A").expect("binds A");
    let s = pattern.var("S").expect("binds S");
    let data = ctx
        .ast
        .attr(ctx.bindings.get(a), schema.expect_attr("data"))
        .as_recs();
    let key = ctx
        .ast
        .attr(ctx.bindings.get(s), schema.expect_attr("key"))
        .as_int();
    let value = ctx
        .ast
        .attr(ctx.bindings.get(s), schema.expect_attr("value"))
        .as_int();
    let mut out: Vec<Record> = data.as_ref().clone();
    match out.binary_search_by_key(&key, |r| r.key) {
        Ok(at) => out[at].value = value, // newer singleton wins
        Err(at) => out.insert(at, Record::new(key, value)),
    }
    out
}

/// MergeSingletonIntoArray (appendix: "MergeUnSortedConcatArray" family):
/// `Concat(Array, Singleton)` → a single merged `Array`.
fn merge_singleton_into_array(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "Concat",
            "C",
            [
                p::node("Array", "A", [], p::tru()),
                p::node("Singleton", "S", [], p::tru()),
            ],
            p::tru(),
        ),
    );
    let pat_data = pattern.clone();
    let pat_size = pattern.clone();
    RewriteRule::new(
        "MergeSingletonIntoArray",
        schema,
        pattern.clone(),
        gen(
            "Array",
            [
                (
                    "data",
                    acompute("mergeSingleton", move |ctx| {
                        Value::recs(merged_with_singleton(ctx, &pat_data))
                    }),
                ),
                (
                    "size",
                    acompute("mergeSingletonLen", move |ctx| {
                        Value::Int(merged_with_singleton(ctx, &pat_size).len() as i64)
                    }),
                ),
            ],
            [],
        ),
    )
}

fn without_key(ctx: &GenCtx<'_>, pattern: &Pattern) -> Vec<Record> {
    let schema = ctx.ast.schema();
    let a = pattern.var("A").expect("binds A");
    let d = pattern.var("D").expect("binds D");
    let data = ctx
        .ast
        .attr(ctx.bindings.get(a), schema.expect_attr("data"))
        .as_recs();
    let key = ctx
        .ast
        .attr(ctx.bindings.get(d), schema.expect_attr("key"))
        .as_int();
    data.iter().copied().filter(|r| r.key != key).collect()
}

/// DeleteSingletonFromArray (appendix D.1's analogue):
/// `DeleteSingleton(key, Array)` → `Array ∖ key`.
fn delete_from_array(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "DeleteSingleton",
            "D",
            [p::node("Array", "A", [], p::tru())],
            p::tru(),
        ),
    );
    let pat_data = pattern.clone();
    let pat_size = pattern.clone();
    RewriteRule::new(
        "DeleteSingletonFromArray",
        schema,
        pattern.clone(),
        gen(
            "Array",
            [
                (
                    "data",
                    acompute("filterKey", move |ctx| {
                        Value::recs(without_key(ctx, &pat_data))
                    }),
                ),
                (
                    "size",
                    acompute("filterKeyLen", move |ctx| {
                        Value::Int(without_key(ctx, &pat_size).len() as i64)
                    }),
                ),
            ],
            [],
        ),
    )
}

fn merged_arrays(ctx: &GenCtx<'_>, pattern: &Pattern) -> Vec<Record> {
    let schema = ctx.ast.schema();
    let a1 = pattern.var("A1").expect("binds A1");
    let a2 = pattern.var("A2").expect("binds A2");
    let old = ctx
        .ast
        .attr(ctx.bindings.get(a1), schema.expect_attr("data"))
        .as_recs();
    let new = ctx
        .ast
        .attr(ctx.bindings.get(a2), schema.expect_attr("data"))
        .as_recs();
    // Sorted merge; the right (newer) array wins on key collisions.
    let mut out = Vec::with_capacity(old.len() + new.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].key.cmp(&new[j].key) {
            std::cmp::Ordering::Less => {
                out.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(new[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(new[j]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&old[i..]);
    out.extend_from_slice(&new[j..]);
    out
}

/// MergeSortedConcat (appendix D.2's analogue):
/// `Concat(Array, Array)` → one merged sorted `Array`.
fn merge_arrays(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "Concat",
            "C",
            [
                p::node("Array", "A1", [], p::tru()),
                p::node("Array", "A2", [], p::tru()),
            ],
            p::tru(),
        ),
    );
    let pat_data = pattern.clone();
    let pat_size = pattern.clone();
    RewriteRule::new(
        "MergeSortedConcat",
        schema,
        pattern.clone(),
        gen(
            "Array",
            [
                (
                    "data",
                    acompute("mergeRuns", move |ctx| {
                        Value::recs(merged_arrays(ctx, &pat_data))
                    }),
                ),
                (
                    "size",
                    acompute("mergeRunsLen", move |ctx| {
                        Value::Int(merged_arrays(ctx, &pat_size).len() as i64)
                    }),
                ),
            ],
            [],
        ),
    )
}

/// PushDownDeleteSingletonConcat: distribute a tombstone over both sides
/// of a `Concat` so it can keep sinking.
fn push_delete_through_concat(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "DeleteSingleton",
            "D",
            [p::node(
                "Concat",
                "C",
                [p::any_as("q1"), p::any_as("q2")],
                p::tru(),
            )],
            p::tru(),
        ),
    );
    RewriteRule::new(
        "PushDownDeleteSingletonConcat",
        schema,
        pattern,
        gen(
            "Concat",
            [],
            [
                gen(
                    "DeleteSingleton",
                    [("key", acopy("D", "key"))],
                    [reuse("q1")],
                ),
                gen(
                    "DeleteSingleton",
                    [("key", acopy("D", "key"))],
                    [reuse("q2")],
                ),
            ],
        ),
    )
}

/// DeleteSingletonFromSingleton, hit case: matching keys annihilate into
/// an empty array.
fn delete_hits_singleton(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "DeleteSingleton",
            "D",
            [p::node("Singleton", "S", [], p::tru())],
            p::eq(p::attr("D", "key"), p::attr("S", "key")),
        ),
    );
    RewriteRule::new(
        "DeleteSingletonHit",
        schema,
        pattern,
        gen(
            "Array",
            [
                (
                    "data",
                    treetoaster_core::generator::aconst(Value::recs(vec![])),
                ),
                ("size", treetoaster_core::generator::aconst(Value::Int(0))),
            ],
            [],
        ),
    )
}

/// DeleteSingletonFromSingleton, miss case: unrelated tombstone dissolves.
fn delete_misses_singleton(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "DeleteSingleton",
            "D",
            [p::node("Singleton", "S", [], p::tru())],
            p::ne(p::attr("D", "key"), p::attr("S", "key")),
        ),
    );
    RewriteRule::new("DeleteSingletonMiss", schema, pattern, reuse("S"))
}

/// Re-associate a singleton past a nested Concat so it can keep sinking:
/// `Concat(Concat(x, y), S) → Concat(x, Concat(y, S))`. Precedence is
/// preserved (S stays newest; y still shadows x), and the singleton's
/// left-sibling subtree strictly shrinks, so the rule terminates.
fn reassociate_concat_singleton(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "Concat",
            "C",
            [
                p::node("Concat", "I", [p::any_as("x"), p::any_as("y")], p::tru()),
                p::node("Singleton", "S", [], p::tru()),
            ],
            p::tru(),
        ),
    );
    RewriteRule::new(
        "ReassociateConcatSingleton",
        schema,
        pattern,
        gen(
            "Concat",
            [],
            [reuse("x"), gen("Concat", [], [reuse("y"), reuse("S")])],
        ),
    )
}

/// Two stacked singletons become a (sorted) two-record array; the right
/// (newer) one wins on key collision.
fn merge_singleton_pair(schema: &Arc<Schema>) -> RewriteRule {
    let pattern = Pattern::compile(
        schema,
        p::node(
            "Concat",
            "C",
            [
                p::node("Singleton", "S1", [], p::tru()),
                p::node("Singleton", "S2", [], p::tru()),
            ],
            p::tru(),
        ),
    );
    fn records(ctx: &GenCtx<'_>, pattern: &Pattern) -> Vec<Record> {
        let schema = ctx.ast.schema();
        let key = schema.expect_attr("key");
        let value = schema.expect_attr("value");
        let read = |name: &str| {
            let v = pattern.var(name).expect("bound");
            Record::new(
                ctx.ast.attr(ctx.bindings.get(v), key).as_int(),
                ctx.ast.attr(ctx.bindings.get(v), value).as_int(),
            )
        };
        let (old, new) = (read("S1"), read("S2"));
        if old.key == new.key {
            vec![new]
        } else if old.key < new.key {
            vec![old, new]
        } else {
            vec![new, old]
        }
    }
    let pat_data = pattern.clone();
    let pat_size = pattern.clone();
    RewriteRule::new(
        "MergeSingletonPair",
        schema,
        pattern.clone(),
        gen(
            "Array",
            [
                (
                    "data",
                    acompute("pairRun", move |ctx| Value::recs(records(ctx, &pat_data))),
                ),
                (
                    "size",
                    acompute("pairLen", move |ctx| {
                        Value::Int(records(ctx, &pat_size).len() as i64)
                    }),
                ),
            ],
            [],
        ),
    )
}

/// The paper's five rules plus the appendix's terminal/merge rules —
/// a set under which the structure converges to cracked sorted arrays.
pub fn full_rules(schema: &Arc<Schema>, config: RuleConfig) -> RuleSet {
    let mut rules = paper_rules(schema, config);
    rules.push(merge_singleton_into_array(schema));
    rules.push(delete_from_array(schema));
    rules.push(merge_arrays(schema));
    rules.push(push_delete_through_concat(schema));
    rules.push(delete_hits_singleton(schema));
    rules.push(delete_misses_singleton(schema));
    rules.push(reassociate_concat_singleton(schema));
    rules.push(merge_singleton_pair(schema));
    rules
}

/// [`paper_rules`] plus `extra` never-firing **probe rules** — the
/// synthetic rule-count axis of the `tt-bench --rule-scale` sweep.
///
/// Every probe matches the structural shape `BinTree(Array, Array)` —
/// the hottest interior shape of a cracked tree — and differs only in
/// its separator constraint, which compares against a distinct
/// *negative* sentinel. Workload keys are never negative, so no probe
/// can ever fire and the tree evolves identically at every probe
/// count; what scales with `extra` is pure *match effort*. The shared
/// structure is the point: the compiled automaton collapses all probes
/// (and their shared prefix) into one trie path walked once per
/// candidate node, where evaluating each pattern separately would pay
/// one full evaluation per probe per `BinTree` visited.
pub fn scaled_rules(schema: &Arc<Schema>, config: RuleConfig, extra: usize) -> RuleSet {
    let mut rules = paper_rules(schema, config);
    for i in 0..extra {
        let pattern = Pattern::compile(
            schema,
            p::node(
                "BinTree",
                "B",
                [
                    p::node("Array", "L", [], p::tru()),
                    p::node("Array", "R", [], p::tru()),
                ],
                p::eq(p::attr("B", "sep"), p::int(-1 - i as i64)),
            ),
        );
        // The generator is never invoked (the sentinel never matches);
        // reusing the left run keeps the rule well-formed.
        rules.push(RewriteRule::new(
            &format!("ScaleProbe{i}"),
            schema,
            pattern,
            reuse("L"),
        ));
    }
    rules
}

/// PivotLeft/PivotRight tree rotations (appendix; used by ablations
/// only — they have no decreasing measure, so do not drive them to a
/// fixpoint).
pub fn pivot_rules(schema: &Arc<Schema>) -> RuleSet {
    // PivotRight: BinTree(s1, BinTree(s2, a, b), c) →
    //             BinTree(s2, a, BinTree(s1, b, c)).
    let right = {
        let pattern = Pattern::compile(
            schema,
            p::node(
                "BinTree",
                "T",
                [
                    p::node("BinTree", "U", [p::any_as("a"), p::any_as("b")], p::tru()),
                    p::any_as("c"),
                ],
                p::tru(),
            ),
        );
        RewriteRule::new(
            "PivotRight",
            schema,
            pattern,
            gen(
                "BinTree",
                [("sep", acopy("U", "sep"))],
                [
                    reuse("a"),
                    gen(
                        "BinTree",
                        [("sep", acopy("T", "sep"))],
                        [reuse("b"), reuse("c")],
                    ),
                ],
            ),
        )
    };
    // PivotLeft: BinTree(s1, a, BinTree(s2, b, c)) →
    //            BinTree(s2, BinTree(s1, a, b), c).
    let left = {
        let pattern = Pattern::compile(
            schema,
            p::node(
                "BinTree",
                "T",
                [
                    p::any_as("a"),
                    p::node("BinTree", "U", [p::any_as("b"), p::any_as("c")], p::tru()),
                ],
                p::tru(),
            ),
        );
        RewriteRule::new(
            "PivotLeft",
            schema,
            pattern,
            gen(
                "BinTree",
                [("sep", acopy("U", "sep"))],
                [
                    gen(
                        "BinTree",
                        [("sep", acopy("T", "sep"))],
                        [reuse("a"), reuse("b")],
                    ),
                    reuse("c"),
                ],
            ),
        )
    };
    RuleSet::from_rules(vec![right, left])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::JitdIndex;
    use crate::schema::jitd_schema;
    use treetoaster_core::{MatchCore, NaiveStrategy};
    use tt_pattern::match_node;

    fn small_config() -> RuleConfig {
        RuleConfig { crack_threshold: 2 }
    }

    /// Applies `rule` once wherever it matches; returns true if it fired.
    fn fire_once(idx: &mut JitdIndex, rules: &Arc<RuleSet>, rid: usize, tick: u64) -> bool {
        let mut naive = NaiveStrategy::new(rules.clone());
        let Some(site) = naive.find_one(idx.ast(), rid) else {
            return false;
        };
        let rule = rules.get(rid);
        let bindings = match_node(idx.ast(), site, &rule.pattern).unwrap();
        rule.apply(idx.ast_mut(), site, &bindings, tick);
        true
    }

    #[test]
    fn all_five_paper_rules_have_expected_shape() {
        let schema = jitd_schema();
        let rules = paper_rules(&schema, RuleConfig::default());
        assert_eq!(rules.len(), 5);
        let names: Vec<&str> = rules.iter().map(|(_, r)| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "CrackArray",
                "PushDownSingletonBtreeLeft",
                "PushDownSingletonBtreeRight",
                "PushDownDontDeleteSingletonBtreeLeft",
                "PushDownDontDeleteSingletonBtreeRight",
            ]
        );
        // All five are Definition-7 safe (wildcards reused) → inlinable.
        for (_, r) in rules.iter() {
            assert!(r.safe_for_inline(), "{} must be inlinable", r.name);
        }
        // Pattern depths: CrackArray 0; push-downs reach their wildcard
        // leaves two edges below the root (Concat→BinTree→q₁).
        assert_eq!(rules.get(0).pattern.depth(), 0);
        assert_eq!(rules.get(1).pattern.depth(), 2);
        assert_eq!(rules.get(2).pattern.depth(), 2);
        assert_eq!(rules.get(3).pattern.depth(), 2);
        assert_eq!(rules.get(4).pattern.depth(), 2);
    }

    #[test]
    fn crack_array_partitions_and_preserves_semantics() {
        let schema = jitd_schema();
        let rules = Arc::new(paper_rules(&schema, small_config()));
        let records: Vec<Record> = (0..10).map(|i| Record::new(i, i * 10)).collect();
        let mut idx = JitdIndex::load(records);
        assert!(fire_once(&mut idx, &rules, 0, 7));
        idx.check_structure().unwrap();
        // Root is now a BinTree with two arrays, both non-empty.
        let root = idx.ast().root();
        assert_eq!(idx.ast().label(root), idx.labels().bintree);
        for i in 0..10 {
            assert_eq!(idx.get(i), Some(i * 10), "key {i} survived the crack");
        }
    }

    #[test]
    fn crack_makes_progress_until_threshold() {
        let schema = jitd_schema();
        let rules = Arc::new(paper_rules(&schema, small_config()));
        let records: Vec<Record> = (0..64).map(|i| Record::new(i, i)).collect();
        let mut idx = JitdIndex::load(records);
        let mut tick = 0;
        while fire_once(&mut idx, &rules, 0, tick) {
            tick += 1;
            assert!(tick < 200, "cracking must terminate");
        }
        idx.check_structure().unwrap();
        // Every remaining array is at or under the threshold.
        let l = *idx.labels();
        for n in idx.ast().descendants(idx.ast().root()) {
            if idx.ast().label(n) == l.array {
                assert!(idx.ast().attr(n, l.size).as_int() <= 2);
            }
        }
    }

    #[test]
    fn pushdown_singleton_routes_by_separator() {
        let schema = jitd_schema();
        let rules = Arc::new(paper_rules(&schema, small_config()));
        let records: Vec<Record> = (0..10).map(|i| Record::new(i, i)).collect();
        let mut idx = JitdIndex::load(records);
        assert!(fire_once(&mut idx, &rules, 0, 3), "crack first");
        idx.wrap_insert(4, 444);
        // Either the left or the right push-down applies (not both).
        let fired_left = fire_once(&mut idx, &rules, 1, 0);
        let fired_right = fire_once(&mut idx, &rules, 2, 0);
        assert!(fired_left ^ fired_right, "exactly one side applies");
        idx.check_structure().unwrap();
        assert_eq!(idx.get(4), Some(444));
        // The root is a BinTree again (Concat eliminated).
        assert_eq!(idx.ast().label(idx.ast().root()), idx.labels().bintree);
    }

    #[test]
    fn pushdown_delete_routes_by_separator() {
        let schema = jitd_schema();
        let rules = Arc::new(paper_rules(&schema, small_config()));
        let records: Vec<Record> = (0..10).map(|i| Record::new(i, i)).collect();
        let mut idx = JitdIndex::load(records);
        assert!(fire_once(&mut idx, &rules, 0, 3));
        idx.wrap_delete(7);
        let fired = fire_once(&mut idx, &rules, 3, 0) || fire_once(&mut idx, &rules, 4, 0);
        assert!(fired);
        idx.check_structure().unwrap();
        assert_eq!(
            idx.get(7),
            None,
            "tombstone still effective after push-down"
        );
        assert_eq!(idx.get(6), Some(6));
    }

    #[test]
    fn full_rules_converge_and_preserve_contents() {
        let schema = jitd_schema();
        let rules = Arc::new(full_rules(&schema, RuleConfig { crack_threshold: 4 }));
        let records: Vec<Record> = (0..32).map(|i| Record::new(i, 100 + i)).collect();
        let mut idx = JitdIndex::load(records);
        idx.wrap_insert(100, 1);
        idx.wrap_delete(5);
        idx.wrap_insert(6, 666);
        // Drive all rules to fixpoint.
        let mut tick = 0;
        loop {
            let mut fired = false;
            for rid in 0..rules.len() {
                while fire_once(&mut idx, &rules, rid, tick) {
                    tick += 1;
                    fired = true;
                    assert!(tick < 2000, "must converge");
                }
            }
            if !fired {
                break;
            }
        }
        idx.check_structure().unwrap();
        // Fixpoint: no pending updates (Singleton / DeleteSingleton)
        // remain; structural Concats may persist where sibling BinTrees
        // met (merging those needs the appendix's MergeSortedBTrees).
        let l = *idx.labels();
        for n in idx.ast().descendants(idx.ast().root()) {
            let label = idx.ast().label(n);
            assert!(
                label != l.singleton && label != l.delete_singleton,
                "pending update at fixpoint"
            );
        }
        assert_eq!(idx.get(5), None);
        assert_eq!(idx.get(6), Some(666));
        assert_eq!(idx.get(100), Some(1));
        assert_eq!(idx.get(31), Some(131));
    }

    #[test]
    fn scale_probes_share_structure_and_never_fire() {
        let schema = jitd_schema();
        let rules = Arc::new(scaled_rules(&schema, small_config(), 8));
        assert_eq!(rules.len(), 5 + 8);
        // All probes bucket under BinTree and share one automaton path:
        // adding 8 structurally identical probes must not add 8 paths.
        let bintree = schema.expect_label("BinTree");
        let bintree_rooted = rules
            .iter()
            .filter(|(_, r)| r.pattern.root_label() == Some(bintree))
            .count();
        assert_eq!(bintree_rooted, 8);
        let base = scaled_rules(&schema, small_config(), 1);
        assert_eq!(
            rules.automaton().state_count(),
            base.automaton().state_count(),
            "probes differ only in constraints, so they merge into one trie path"
        );
        // Crack a tree and push an insert through: probes never fire.
        let records: Vec<Record> = (0..32).map(|i| Record::new(i, i)).collect();
        let mut idx = JitdIndex::load(records);
        let mut tick = 0;
        loop {
            let mut fired = false;
            for rid in 0..rules.len() {
                while fire_once(&mut idx, &rules, rid, tick) {
                    tick += 1;
                    fired = true;
                    assert!(
                        rid < 5,
                        "probe rule {rid} fired — sentinel separators must never match"
                    );
                    assert!(tick < 1000, "must converge");
                }
            }
            if !fired {
                break;
            }
        }
        idx.check_structure().unwrap();
        for i in 0..32 {
            assert_eq!(idx.get(i), Some(i));
        }
    }

    #[test]
    fn pivot_rotations_preserve_semantics() {
        let schema = jitd_schema();
        let crack = Arc::new(paper_rules(&schema, RuleConfig { crack_threshold: 2 }));
        let pivots = Arc::new(pivot_rules(&schema));
        let records: Vec<Record> = (0..16).map(|i| Record::new(i, i)).collect();
        let mut idx = JitdIndex::load(records);
        let mut tick = 0;
        while fire_once(&mut idx, &crack, 0, tick) {
            tick += 1;
        }
        // One rotation in each direction (if shapes permit).
        let _ = fire_once(&mut idx, &pivots, 0, 0);
        let _ = fire_once(&mut idx, &pivots, 1, 0);
        idx.check_structure().unwrap();
        for i in 0..16 {
            assert_eq!(idx.get(i), Some(i));
        }
    }
}
