//! A faithful reconstruction of **Figure 8** of the paper: the
//! sequential unfolding of the (summarized) maximum top-left rectangle
//! loop, rewritten by the normalizer from the deep "sequential" tree (a)
//! into the compact max-recursive normal form (b) whose input-only
//! chunks are exactly the `max_rec[]` auxiliary values.
//!
//! The unfolding is built by actually symbolically executing the ⊚ loop
//! body over `k = 2` abstract rows of width `m = 2`, not hand-written —
//! so this test exercises symbolic execution, normalization and
//! normal-form detection together.

use parsynt_lang::ast::{BinOp, Expr, Interner, LValue, Stmt, Sym};
use parsynt_rewrite::cost::Phase1Cost;
use parsynt_rewrite::normal_form::{classify, recursive_nf, Purity};
use parsynt_rewrite::normalize::Normalizer;
use parsynt_rewrite::symbolic::{sym_exec_all, SymEnv, SymVal};

const M: usize = 2; // row width
const K: usize = 2; // unfolding depth

/// Build the summarized mtls step: `for j { rec[j] += a[j]; mtl =
/// max(mtl, rec[j]); }`, and unfold it symbolically over K abstract
/// rows.
fn unfold_mtl() -> (Expr, Vec<Sym>, Vec<Sym>) {
    let mut interner = Interner::new();
    let rec = interner.intern("rec");
    let mtl = interner.intern("mtl");
    let a = interner.intern("a");
    let j = interner.intern("j");

    let body = vec![Stmt::For {
        var: j,
        bound: Expr::Len(Box::new(Expr::var(rec))),
        body: vec![
            Stmt::Assign {
                target: LValue::indexed(rec, Expr::var(j)),
                value: Expr::add(
                    Expr::index(Expr::var(rec), Expr::var(j)),
                    Expr::index(Expr::var(a), Expr::var(j)),
                ),
            },
            Stmt::Assign {
                target: LValue::var(mtl),
                value: Expr::max(Expr::var(mtl), Expr::index(Expr::var(rec), Expr::var(j))),
            },
        ],
    }];

    // State leaves: rec[0..M] and mtl (the red variables of Figure 8).
    let mut env = SymEnv::new();
    let mut state_leaves = Vec::new();
    let rec_leaves: Vec<SymVal> = (0..M)
        .map(|l| {
            let leaf = interner.fresh(&format!("rec{l}"));
            state_leaves.push(leaf);
            SymVal::leaf(leaf)
        })
        .collect();
    env.set(rec, SymVal::Array(rec_leaves));
    let mtl_leaf = interner.fresh("mtl0");
    state_leaves.push(mtl_leaf);
    env.set(mtl, SymVal::leaf(mtl_leaf));

    // Input leaves: α_k[l] for each unfolding step.
    let mut input_leaves = Vec::new();
    for step in 1..=K {
        let alphas: Vec<SymVal> = (0..M)
            .map(|l| {
                let leaf = interner.fresh(&format!("alpha{step}_{l}"));
                input_leaves.push(leaf);
                SymVal::leaf(leaf)
            })
            .collect();
        env.set(a, SymVal::Array(alphas));
        sym_exec_all(&mut env, &body).expect("symbolic unfolding");
    }

    let SymVal::Scalar(mtl_expr) = env.get(mtl).unwrap().clone() else {
        panic!("mtl must be scalar");
    };
    (mtl_expr, state_leaves, input_leaves)
}

#[test]
fn figure8_unfolding_normalizes_to_max_recursive_form() {
    let (unfolding, state_leaves, _) = unfold_mtl();
    let is_state = move |s: Sym| state_leaves.contains(&s);

    // Tree (a): the raw unfolding is already max-recursive but with the
    // state variables buried deep (cost (0, km+1)-ish in the paper).
    let raw_chunks = recursive_nf(&unfolding, BinOp::Max, &is_state, 2);
    assert!(raw_chunks.is_some(), "raw unfolding: {unfolding:?}");

    // Phase 1 pulls the state shallow; the result must still be (or
    // re-become) a max-recursive normal form — tree (b).
    let cost = Phase1Cost::new({
        let is_state = is_state.clone();
        move |s| is_state(s)
    });
    let out = Normalizer::new().run(&unfolding, &cost);
    assert!(
        out.best_cost <= parsynt_rewrite::cost::Cost::cost(&cost, &unfolding),
        "phase 1 must not regress"
    );
    let chunks = recursive_nf(&out.best, BinOp::Max, &is_state, 3)
        .expect("normalized unfolding is max-recursive");
    // The paper's tree (b) has m+1 chunks for the 1-row case and stays
    // linear in m (not k·m) in general; with k = m = 2 the chunk count
    // must be at most the raw count.
    assert!(chunks <= raw_chunks.unwrap());
}

#[test]
fn figure8_chunks_contain_prefix_sum_auxiliaries() {
    let (unfolding, state_leaves, input_leaves) = unfold_mtl();
    let is_state = move |s: Sym| state_leaves.contains(&s);
    let cost = Phase1Cost::new({
        let is_state = is_state.clone();
        move |s| is_state(s)
    });
    let out = Normalizer::new().run(&unfolding, &cost);

    // Every maximal input-only subexpression of the normal form is a
    // term over the α leaves — the values max_rec[] must precompute.
    let mut input_only = Vec::new();
    collect_input_only(&out.best, &is_state, &mut input_only);
    assert!(
        !input_only.is_empty(),
        "the lifting needs at least one auxiliary value: {:?}",
        out.best
    );
    for e in &input_only {
        for v in e.vars() {
            assert!(input_leaves.contains(&v), "non-input leaf in {e:?}");
        }
    }
    // In particular the per-column prefix sums α₁[l] + α₂[l] appear
    // inside the chunks — in fact the normalizer produces the full
    // running maxima max(α₁[l], α₁[l] + α₂[l]), i.e. the `max_rec[l]`
    // values of Figure 8(b) themselves.
    let has_prefix_sum = input_only.iter().any(|e| {
        let mut found = false;
        e.walk(&mut |sub| {
            if matches!(sub, Expr::Binary(BinOp::Add, _, _)) && sub.vars().len() == 2 {
                found = true;
            }
        });
        found
    });
    assert!(has_prefix_sum, "input-only chunks: {input_only:?}");
}

fn collect_input_only(e: &Expr, is_state: &dyn Fn(Sym) -> bool, out: &mut Vec<Expr>) {
    match classify(e, is_state) {
        Purity::InputOnly if !matches!(e, Expr::Int(_) | Expr::Bool(_)) => out.push(e.clone()),
        Purity::Mixed => match e {
            Expr::Len(a) | Expr::Zeros(a) | Expr::Unary(_, a) => {
                collect_input_only(a, is_state, out)
            }
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                collect_input_only(a, is_state, out);
                collect_input_only(b, is_state, out);
            }
            Expr::Ite(c, t, e2) => {
                collect_input_only(c, is_state, out);
                collect_input_only(t, is_state, out);
                collect_input_only(e2, is_state, out);
            }
            _ => {}
        },
        _ => {}
    }
}
