//! The bolt-on engines' removal rows against an oracle.
//!
//! A rewrite reports the nodes it frees by id only (`ReplaceCtx::removed`
//! is `(Label, NodeId)`), so Classic and DBT capture the rows they must
//! retract themselves, in `before_replace`, through
//! [`tt_ivm::PreImage`]. Both engines translate every replacement with
//! nothing but `PreImage::capture` and `PreImage::deltas`, so this suite
//! drives a `PreImage` beside them and checks, for every fired rule:
//!
//! - the removal rows equal an oracle snapshot of the site's subtree
//!   taken before `apply`, restricted to the nodes the rewrite freed;
//! - the parent's old row equals the oracle's pre-`apply` snapshot and its
//!   new row the post-`apply` AST;
//! - both engines' views and shadow databases equal a from-scratch
//!   rebuild (`check_consistent`), and every rule's match existence agrees
//!   with a naive scan.
//!
//! The JITD rules cover push-downs and cracks (`paper_rules`) and merges
//! that free whole arrays (`full_rules`) under YCSB-A. The Catalyst rules
//! over TPC-H plans cover nodes with more than two attributes or children,
//! whose lists the arena spills to the heap.

use std::collections::BTreeMap;
use std::sync::Arc;
use treetoaster::ast::{Ast, Label, NodeId, NodeRow, Record};
use treetoaster::core::{MatchCore, MatchSource, ReplaceCtx, RuleFired, RuleId, RuleSet};
use treetoaster::ivm::{ClassicIvm, DbtIvm, PreImage};
use treetoaster::jitd::{full_rules, jitd_schema, paper_rules, JitdIndex, RuleConfig};
use treetoaster::pattern::{find_first, match_node, Pattern, PatternNode, VarId};
use treetoaster::queryopt::{plan_schema, rules::catalyst_rules, tpch};
use treetoaster::relational::NodeDelta;
use treetoaster::ycsb::{Op, Workload, WorkloadSpec};

/// Classic and DBT over one shared tree, plus the oracle bookkeeping.
struct Bolted {
    rules: Arc<RuleSet>,
    engines: Vec<Box<dyn MatchSource>>,
    pre: PreImage,
    fired: usize,
    /// Removed rows with more than two attributes or children (spilled).
    wide_removed: usize,
}

impl Bolted {
    fn new(rules: Arc<RuleSet>, ast: &Ast) -> Bolted {
        let mut engines: Vec<Box<dyn MatchSource>> = vec![
            Box::new(ClassicIvm::new(rules.clone(), ast)),
            Box::new(DbtIvm::new(rules.clone(), ast)),
        ];
        for e in &mut engines {
            e.rebuild(ast);
        }
        Bolted {
            rules,
            engines,
            pre: PreImage::default(),
            fired: 0,
            wide_removed: 0,
        }
    }

    fn graft(&mut self, ast: &Ast, created: &[NodeId]) {
        for e in &mut self.engines {
            e.on_graft(ast, created);
        }
    }

    /// Fires `rid` at the first site Classic reports, checking the
    /// pre-image against the oracle. Returns false if nothing matched.
    fn fire(&mut self, ast: &mut Ast, rid: RuleId, tick: u64) -> bool {
        let Some(site) = self.engines[0].find_one(ast, rid) else {
            return false;
        };
        let rule = self.rules.get(rid);
        let bindings = match_node(ast, site, &rule.pattern).expect("stale match");

        // Oracle: every row under the site and the parent's row, before
        // anything runs.
        let snapshot: Vec<(Label, NodeRow)> = ast
            .descendants(site)
            .map(|n| (ast.label(n), NodeRow::of(ast, n)))
            .collect();
        let parent = ast.parent(site);
        let parent_before = (!parent.is_null()).then(|| NodeRow::of(ast, parent));

        for e in &mut self.engines {
            e.before_replace(ast, site, Some((rid, &bindings)));
        }
        self.pre
            .capture(&self.rules, ast, site, Some((rid, &bindings)));
        let applied = rule.apply(ast, site, &bindings, tick);
        let ctx = ReplaceCtx {
            old_root: applied.old_root,
            new_root: applied.new_root,
            removed: &applied.removed,
            inserted: applied.inserted(),
            parent_update: applied.parent_update.as_ref(),
            rule: Some(RuleFired {
                rule: rid,
                bindings: &bindings,
                applied: &applied,
            }),
        };
        let deltas = self.pre.deltas(ast, &ctx);
        for e in &mut self.engines {
            e.after_replace(ast, &ctx);
        }

        // The nodes the rewrite freed are the snapshot's dead ones: the
        // generator allocates before the old subtree is freed, so no new
        // node can take a freed id.
        let mut freed: Vec<(Label, NodeRow)> = snapshot
            .into_iter()
            .filter(|(_, row)| !ast.is_live(row.id))
            .collect();
        freed.sort_by_key(|(_, row)| row.id);
        let mut removed: Vec<(Label, NodeRow)> = Vec::new();
        let mut inserted: Vec<(Label, NodeRow)> = Vec::new();
        for d in deltas {
            match d {
                NodeDelta::Remove(label, row) => removed.push((label, row)),
                NodeDelta::Insert(label, row) => inserted.push((label, row)),
            }
        }
        // The parent's images come last in each half of the stream.
        let parent_rows = parent_before.map(|old| {
            let (old_label, old_row) = removed.pop().expect("parent's old row");
            let (new_label, new_row) = inserted.pop().expect("parent's new row");
            assert_eq!(old_row, old, "{}: parent's old row", rule.name);
            assert!(old_row.children.contains(&site));
            assert_eq!(new_row, NodeRow::of(ast, parent), "{}", rule.name);
            assert!(new_row.children.contains(&applied.new_root));
            assert_eq!(old_label, new_label);
            assert_eq!(old_label, ast.label(parent));
        });
        assert_eq!(parent_rows.is_some(), applied.parent_update.is_some());
        let order: Vec<NodeId> = removed.iter().map(|(_, row)| row.id).collect();
        let listed: Vec<NodeId> = applied.removed.iter().map(|&(_, id)| id).collect();
        assert_eq!(order, listed, "{}: removal order", rule.name);
        removed.sort_by_key(|(_, row)| row.id);
        assert_eq!(removed, freed, "{}: removal rows", rule.name);
        self.wide_removed += removed
            .iter()
            .filter(|(_, row)| row.attrs.len() > 2 || row.children.len() > 2)
            .count();
        let gen: Vec<NodeId> = inserted.iter().map(|(_, row)| row.id).collect();
        assert_eq!(gen, applied.inserted(), "{}: insertions", rule.name);

        self.fired += 1;
        self.check(ast);
        true
    }

    /// Both engines equal a rebuild and agree with a naive scan.
    fn check(&mut self, ast: &Ast) {
        for e in &mut self.engines {
            e.check_consistent(ast)
                .unwrap_or_else(|err| panic!("{}: {err}", e.name()));
            for (rid, rule) in self.rules.iter() {
                let naive = find_first(ast, ast.root(), &rule.pattern).is_some();
                let found = e.find_one(ast, rid).is_some();
                assert_eq!(found, naive, "{} disagrees on {}", e.name(), rule.name);
            }
        }
    }

    /// One reorganization round: each rule fires at most once.
    fn round(&mut self, ast: &mut Ast, tick: &mut u64) -> usize {
        (0..self.rules.len())
            .filter(|&rid| {
                *tick += 1;
                self.fire(ast, rid, *tick)
            })
            .count()
    }
}

/// YCSB-A over a JITD index, one reorganization round per op; the
/// index's contents must match a model at the end.
fn ycsb_a(rules: RuleSet, records: i64, ops: usize, seed: u64) -> BTreeMap<String, usize> {
    let mut idx = JitdIndex::load((0..records).map(|k| Record::new(k, k)).collect());
    let mut model: BTreeMap<i64, i64> = (0..records).map(|k| (k, k)).collect();
    let rules = Arc::new(rules);
    let mut bolted = Bolted::new(rules.clone(), idx.ast());
    let mut workload = Workload::new(WorkloadSpec::standard('A'), records as u64, seed);
    let mut tick = 0;
    let mut per_rule = BTreeMap::new();
    for _ in 0..ops {
        match workload.next_op() {
            Op::Update { key, value } | Op::Insert { key, value } => {
                let created = idx.wrap_delete(key);
                bolted.graft(idx.ast(), &created);
                let created = idx.wrap_insert(key, value);
                bolted.graft(idx.ast(), &created);
                model.insert(key, value);
            }
            Op::Read { key } => assert_eq!(idx.get(key), model.get(&key).copied()),
            _ => {}
        }
        for rid in 0..rules.len() {
            tick += 1;
            if bolted.fire(idx.ast_mut(), rid, tick) {
                *per_rule.entry(rules.get(rid).name.clone()).or_insert(0) += 1;
            }
        }
    }
    for (&k, &v) in &model {
        assert_eq!(idx.get(k), Some(v), "key {k}");
    }
    idx.check_structure().unwrap();
    per_rule
}

#[test]
fn paper_rules_preimages_match_the_oracle_under_ycsb_a() {
    let schema = jitd_schema();
    let fired = ycsb_a(
        paper_rules(&schema, RuleConfig { crack_threshold: 8 }),
        256,
        300,
        7,
    );
    for name in ["CrackArray", "PushDownSingletonBtreeLeft"] {
        assert!(
            fired.get(name).copied().unwrap_or(0) > 0,
            "{name} never fired: {fired:?}"
        );
    }
}

#[test]
fn full_rules_preimages_match_the_oracle_under_ycsb_a() {
    let schema = jitd_schema();
    let rules = full_rules(&schema, RuleConfig { crack_threshold: 8 });
    // The merges free whole arrays (rows with large record payloads).
    let fired = ycsb_a(rules, 128, 200, 11);
    for name in [
        "MergeSingletonIntoArray",
        "DeleteSingletonFromArray",
        "MergeSortedConcat",
    ] {
        assert!(
            fired.get(name).copied().unwrap_or(0) > 0,
            "{name} never fired: {fired:?}"
        );
    }
}

/// True if every constraint reads only `Match` positions, so the pattern
/// has the relational image (Figure 6) a bolt-on engine maintains.
fn relational(pattern: &Pattern) -> bool {
    fn walk(node: &PatternNode, atoms: &mut Vec<VarId>, read: &mut Vec<VarId>) {
        if let PatternNode::Match {
            var,
            children,
            constraint,
            ..
        } = node
        {
            atoms.push(*var);
            constraint.vars(read);
            for c in children {
                walk(c, atoms, read);
            }
        }
    }
    let (mut atoms, mut read) = (Vec::new(), Vec::new());
    walk(pattern.root(), &mut atoms, &mut read);
    !atoms.is_empty() && read.iter().all(|v| atoms.contains(v))
}

#[test]
fn catalyst_preimages_match_the_oracle_over_tpch_plans() {
    let schema = plan_schema();
    let rules: Vec<_> = catalyst_rules(&schema, true)
        .into_iter()
        .map(|r| r.rule)
        .filter(|r| relational(&r.pattern))
        .collect();
    assert!(
        rules.len() > 1,
        "most Catalyst rules have a relational image"
    );
    let rules = Arc::new(RuleSet::from_rules(rules));
    let (mut fired, mut wide) = (0, 0);
    for (q, mut ast) in tpch::all_queries(3) {
        let mut bolted = Bolted::new(rules.clone(), &ast);
        let mut tick = 0;
        for _ in 0..64 {
            if bolted.round(&mut ast, &mut tick) == 0 {
                break;
            }
        }
        ast.validate().unwrap_or_else(|e| panic!("Q{q}: {e}"));
        fired += bolted.fired;
        wide += bolted.wide_removed;
    }
    assert!(fired > 0, "no Catalyst rule fired");
    assert!(wide > 0, "no rewrite removed a node with a spilled list");
}
