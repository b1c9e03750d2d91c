//! The declarative node-generator grammar (paper §6):
//!
//! ```text
//! G : Gen(ℓ, atom…, G…) | Reuse(Σ_I)
//! ```
//!
//! A `Gen` term creates a new node with the given label, attributes, and
//! children; attribute values are populated from the match's attribute
//! scope `Γ`. A `Reuse` term re-attaches a subtree of the previous AST,
//! looked up through the node scope `µ` (our match [`Bindings`]).
//!
//! Every `Gen` node carries a dense preorder index so the inlined
//! maintenance plan (Algorithm 3) can refer to generated positions and the
//! evaluator can report which [`NodeId`] each position produced.

use std::fmt;
use std::sync::Arc;
use tt_ast::{Ast, AttrName, Label, NodeId, Schema, SmallList, Value};
use tt_pattern::{Bindings, Pattern, VarId};

/// Dense preorder index of a `Gen` node within its generator.
pub type GenPath = usize;

/// Context available to computed attribute values.
pub struct GenCtx<'a> {
    /// The AST (pre-replacement state; the matched subtree is intact).
    pub ast: &'a Ast,
    /// The match bindings `Γ` / `µ`.
    pub bindings: &'a Bindings,
    /// A monotonically increasing counter from the runtime; rules that
    /// need pseudo-randomness (e.g. CrackArray's pivot) derive it from
    /// here so runs stay reproducible.
    pub tick: u64,
}

/// How one generated attribute obtains its value.
#[derive(Clone)]
pub enum AttrGen {
    /// A literal.
    Const(Value),
    /// Copy `var.attr` from the matched nodes (an `a(Γ)` atom).
    Copy(VarId, AttrName),
    /// A named native computation (e.g. partitioning an array around a
    /// pivot) — the paper's rules compute `{x | x.key < sep}` etc.
    Compute(&'static str, Arc<dyn Fn(&GenCtx) -> Value + Send + Sync>),
}

impl fmt::Debug for AttrGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrGen::Const(v) => write!(f, "const({v})"),
            AttrGen::Copy(var, attr) => write!(f, "copy(v{}.a{})", var.0, attr.0),
            AttrGen::Compute(name, _) => write!(f, "compute({name})"),
        }
    }
}

impl AttrGen {
    fn eval(&self, ctx: &GenCtx<'_>) -> Value {
        match self {
            AttrGen::Const(v) => v.clone(),
            AttrGen::Copy(var, attr) => ctx.ast.attr(ctx.bindings.get(*var), *attr).clone(),
            AttrGen::Compute(_, f) => f(ctx),
        }
    }
}

/// A compiled generator tree.
#[derive(Debug, Clone)]
pub enum GenNode {
    /// Create a new node.
    Gen {
        /// Preorder index among the generator's `Gen` nodes.
        index: u32,
        /// Label of the created node.
        label: Label,
        /// Attribute generators in schema storage order.
        attrs: Vec<AttrGen>,
        /// Child generators.
        children: Vec<GenNode>,
    },
    /// Re-attach the subtree bound to this pattern variable.
    Reuse(VarId),
}

impl GenNode {
    /// Number of `Gen` nodes (dense index bound).
    pub fn gen_count(&self) -> usize {
        match self {
            GenNode::Reuse(_) => 0,
            GenNode::Gen { children, .. } => {
                1 + children.iter().map(GenNode::gen_count).sum::<usize>()
            }
        }
    }

    /// All `Reuse` variables, in preorder.
    pub fn reused_vars(&self) -> Vec<VarId> {
        fn go(g: &GenNode, out: &mut Vec<VarId>) {
            match g {
                GenNode::Reuse(v) => out.push(*v),
                GenNode::Gen { children, .. } => {
                    for c in children {
                        go(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Evaluates `⟦g⟧Γ,µ`: builds the replacement subtree (detached),
    /// detaching reused subtrees from their current positions. Fills
    /// `gen_nodes[i]` with the node produced by the `Gen` node of index
    /// `i`. Returns the new subtree root.
    pub fn eval(
        &self,
        ast: &mut Ast,
        bindings: &Bindings,
        tick: u64,
        gen_nodes: &mut [NodeId],
    ) -> NodeId {
        match self {
            GenNode::Reuse(var) => {
                let node = bindings.get(*var);
                ast.detach(node);
                node
            }
            GenNode::Gen {
                index,
                label,
                attrs,
                children,
            } => {
                // Attributes first (they read the pre-state AST), then
                // children (which may detach reused subtrees). Both
                // collect inline, so a node of arity ≤ 2 allocates
                // nothing beyond its arena slot.
                let values: SmallList<Value> = {
                    let ctx = GenCtx {
                        ast,
                        bindings,
                        tick,
                    };
                    attrs.iter().map(|a| a.eval(&ctx)).collect()
                };
                let child_ids: SmallList<NodeId> = children
                    .iter()
                    .map(|c| c.eval(ast, bindings, tick, gen_nodes))
                    .collect();
                let id = ast.alloc(*label, values, child_ids);
                gen_nodes[*index as usize] = id;
                id
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Authoring DSL
// ---------------------------------------------------------------------------

/// Un-compiled generator spec (string labels / variables / attributes).
#[derive(Clone)]
pub enum GenSpec {
    /// Create a node: label, named attribute generators, children.
    Gen {
        /// Label name.
        label: String,
        /// `(attribute name, generator)` pairs; every schema-declared
        /// attribute of the label must appear exactly once.
        attrs: Vec<(String, AttrSpec)>,
        /// Child generator specs.
        children: Vec<GenSpec>,
    },
    /// Reuse the subtree bound to this pattern variable name.
    Reuse(String),
}

impl fmt::Debug for GenSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenSpec::Gen {
                label, children, ..
            } => {
                write!(f, "Gen({label}, …, {} children)", children.len())
            }
            GenSpec::Reuse(v) => write!(f, "Reuse({v})"),
        }
    }
}

/// Un-compiled attribute generator.
#[derive(Clone)]
pub enum AttrSpec {
    /// Literal.
    Const(Value),
    /// Copy `var.attr`.
    Copy(String, String),
    /// Named computation.
    Compute(&'static str, Arc<dyn Fn(&GenCtx) -> Value + Send + Sync>),
}

/// `Gen(label, attrs, children)`.
pub fn gen(
    label: &str,
    attrs: impl IntoIterator<Item = (&'static str, AttrSpec)>,
    children: impl IntoIterator<Item = GenSpec>,
) -> GenSpec {
    GenSpec::Gen {
        label: label.to_string(),
        attrs: attrs.into_iter().map(|(n, a)| (n.to_string(), a)).collect(),
        children: children.into_iter().collect(),
    }
}

/// `Reuse(var)`.
pub fn reuse(var: &str) -> GenSpec {
    GenSpec::Reuse(var.to_string())
}

/// Literal attribute value.
pub fn aconst(v: Value) -> AttrSpec {
    AttrSpec::Const(v)
}

/// Copy an attribute from a matched node.
pub fn acopy(var: &str, attr: &str) -> AttrSpec {
    AttrSpec::Copy(var.to_string(), attr.to_string())
}

/// Named computed attribute.
pub fn acompute(
    name: &'static str,
    f: impl Fn(&GenCtx) -> Value + Send + Sync + 'static,
) -> AttrSpec {
    AttrSpec::Compute(name, Arc::new(f))
}

/// Compiles a [`GenSpec`] against a pattern's variable table and schema.
/// Panics on unknown labels/attributes/variables, missing or duplicate
/// attributes, or over-long child lists — all rule-authoring errors.
pub fn compile_generator(schema: &Arc<Schema>, pattern: &Pattern, spec: GenSpec) -> GenNode {
    let mut next_index = 0u32;
    compile_rec(schema, pattern, spec, &mut next_index)
}

fn compile_rec(
    schema: &Arc<Schema>,
    pattern: &Pattern,
    spec: GenSpec,
    next_index: &mut u32,
) -> GenNode {
    match spec {
        GenSpec::Reuse(var) => {
            let var_id = pattern
                .var(&var)
                .unwrap_or_else(|| panic!("generator reuses unbound variable {var:?}"));
            GenNode::Reuse(var_id)
        }
        GenSpec::Gen {
            label,
            attrs,
            children,
        } => {
            let label_id = schema.expect_label(&label);
            let def = schema.def(label_id);
            let mut compiled_attrs: Vec<Option<AttrGen>> = vec![None; def.attrs.len()];
            for (name, a) in attrs {
                let attr_id = schema.expect_attr(&name);
                let idx = schema
                    .attr_index(label_id, attr_id)
                    .unwrap_or_else(|| panic!("label {label} has no attribute {name}"));
                assert!(
                    compiled_attrs[idx].is_none(),
                    "generator sets attribute {name} twice"
                );
                compiled_attrs[idx] = Some(match a {
                    AttrSpec::Const(v) => AttrGen::Const(v),
                    AttrSpec::Copy(var, attr) => {
                        let var_id = pattern.var(&var).unwrap_or_else(|| {
                            panic!("generator copies from unbound variable {var:?}")
                        });
                        AttrGen::Copy(var_id, schema.expect_attr(&attr))
                    }
                    AttrSpec::Compute(name, f) => AttrGen::Compute(name, f),
                });
            }
            let attrs: Vec<AttrGen> = compiled_attrs
                .into_iter()
                .enumerate()
                .map(|(i, a)| {
                    a.unwrap_or_else(|| {
                        panic!(
                            "generator for {label} missing attribute {}",
                            schema.attr_name(def.attrs[i])
                        )
                    })
                })
                .collect();
            assert!(
                children.len() <= def.max_children,
                "generator for {label} lists too many children"
            );
            let index = *next_index;
            *next_index += 1;
            let children = children
                .into_iter()
                .map(|c| compile_rec(schema, pattern, c, next_index))
                .collect();
            GenNode::Gen {
                index,
                label: label_id,
                attrs,
                children,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_ast::schema::arith_schema;
    use tt_ast::sexpr::{parse_sexpr, to_sexpr};
    use tt_pattern::dsl as p;
    use tt_pattern::{match_node, Pattern};

    fn add_zero_pattern() -> Pattern {
        let schema = arith_schema();
        Pattern::compile(
            &schema,
            p::node(
                "Arith",
                "A",
                [
                    p::node("Const", "B", [], p::eq(p::attr("B", "val"), p::int(0))),
                    p::node("Var", "C", [], p::tru()),
                ],
                p::eq(p::attr("A", "op"), p::str_("+")),
            ),
        )
    }

    #[test]
    fn compile_and_eval_reuse_generator() {
        // Example 2.2: replace the whole match by the Var child.
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let g = compile_generator(&schema, &pat, reuse("C"));
        assert_eq!(g.gen_count(), 0);
        assert_eq!(g.reused_vars(), vec![pat.var("C").unwrap()]);

        let mut ast = Ast::new(schema);
        let root = parse_sexpr(&mut ast, r#"(Arith op="+" (Const val=0) (Var name="b"))"#).unwrap();
        ast.set_root(root);
        let bindings = match_node(&ast, root, &pat).unwrap();
        let mut gen_nodes = vec![];
        let new_root = g.eval(&mut ast, &bindings, 0, &mut gen_nodes);
        assert_eq!(new_root, bindings.get(pat.var("C").unwrap()));
        assert!(ast.parent(new_root).is_null(), "reused node is detached");
    }

    #[test]
    fn compile_and_eval_gen_with_copy_and_const() {
        // Rebuild: Arith(op=*) over Const(val=B.val) and Reuse(C).
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let g = compile_generator(
            &schema,
            &pat,
            gen(
                "Arith",
                [("op", aconst(Value::str("*")))],
                [gen("Const", [("val", acopy("B", "val"))], []), reuse("C")],
            ),
        );
        assert_eq!(g.gen_count(), 2);
        let mut ast = Ast::new(schema);
        let root = parse_sexpr(&mut ast, r#"(Arith op="+" (Const val=0) (Var name="b"))"#).unwrap();
        ast.set_root(root);
        let bindings = match_node(&ast, root, &pat).unwrap();
        let mut gen_nodes = vec![NodeId::NULL; 2];
        let new_root = g.eval(&mut ast, &bindings, 0, &mut gen_nodes);
        assert_eq!(gen_nodes[0], new_root, "preorder index 0 is the root Gen");
        assert_eq!(
            to_sexpr(&ast, new_root),
            r#"(Arith op="*" (Const val=0) (Var name="b"))"#
        );
    }

    #[test]
    fn compute_attr_sees_bindings_and_tick() {
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let g = compile_generator(
            &schema,
            &pat,
            gen(
                "Const",
                [(
                    "val",
                    acompute("tick+val", |ctx: &GenCtx| {
                        let b = ctx.bindings;
                        // B.val (=0) plus the tick.
                        let pat_var = tt_pattern::VarId(1); // B
                        let val_attr = ctx.ast.schema().expect_attr("val");
                        Value::Int(
                            ctx.ast.attr(b.get(pat_var), val_attr).as_int() + ctx.tick as i64,
                        )
                    }),
                )],
                [],
            ),
        );
        let mut ast = Ast::new(schema);
        let root = parse_sexpr(&mut ast, r#"(Arith op="+" (Const val=0) (Var name="b"))"#).unwrap();
        ast.set_root(root);
        let bindings = match_node(&ast, root, &pat).unwrap();
        let mut gen_nodes = vec![NodeId::NULL; 1];
        let out = g.eval(&mut ast, &bindings, 41, &mut gen_nodes);
        let val = ast.schema().expect_attr("val");
        assert_eq!(ast.attr(out, val).as_int(), 41);
    }

    #[test]
    #[should_panic(expected = "missing attribute")]
    fn missing_attr_rejected() {
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let _ = compile_generator(&schema, &pat, gen("Const", [], []));
    }

    #[test]
    #[should_panic(expected = "sets attribute op twice")]
    fn duplicate_attr_rejected() {
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let _ = compile_generator(
            &schema,
            &pat,
            gen(
                "Arith",
                [
                    ("op", aconst(Value::str("+"))),
                    ("op", aconst(Value::str("*"))),
                ],
                [],
            ),
        );
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn reuse_of_unknown_var_rejected() {
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let _ = compile_generator(&schema, &pat, reuse("Z"));
    }

    #[test]
    #[should_panic(expected = "too many children")]
    fn overlong_children_rejected() {
        let schema = arith_schema();
        let pat = add_zero_pattern();
        let _ = compile_generator(
            &schema,
            &pat,
            gen("Const", [("val", aconst(Value::Int(0)))], [reuse("C")]),
        );
    }
}
