//! Delta view maintenance: classifying *how* a dependent (view, update)
//! pair conflicts.
//!
//! The independence analysis answers whether a materialized view can ignore
//! an update. This module answers the follow-up question for the pairs that
//! cannot: is the conflict confined to the *interior* of the view's result
//! subtrees — in which case the view keeps its result nodes and is repaired
//! by re-pointing it at the updated document, where those nodes hold the
//! new content — or can the update change which nodes the view returns at
//! all, forcing a re-evaluation?
//!
//! The classification reuses the paper's chain machinery. Writing `r` for
//! the view's return chains, `v` for its used chains and `U` for the
//! update's full chains (all in CDAG form), the three directed conflict
//! checks of C-independence split a dependent pair as follows:
//!
//! * `confl(r, U)` only — every update chain that meets the view extends a
//!   return chain *strictly downward*: the update lands inside result
//!   subtrees. Node-level ancestorship implies chain-prefixing (a node's
//!   chain is its root label path), so the contrapositive is what makes the
//!   patch sound: if no update chain is a prefix of (or equal to) a return
//!   chain and no update chain meets a used chain, then no update target
//!   can sit on or above a result node, and no navigation step the query
//!   takes can change — the result *membership* is stable and only the
//!   content of entries containing an update site changes.
//! * `confl(U, r)` — some update chain is a prefix of (or equal to) a
//!   return chain: the update can delete, rename or replace a result node
//!   or an ancestor of one. Membership can change; re-evaluate.
//! * `confl(U, v)` — the update meets a chain the query navigates through
//!   (a predicate or an intermediate step): the set of nodes the query
//!   visits can change; re-evaluate.
//!
//! One directed check is not enough for *insertions* (and the insertion half
//! of REPLACE). Their full chains are `c.c'` — the receiving node's chain
//! `c` extended by the inserted content — and the nodes the update
//! *materializes* sit at every proper extension of `c` along `c'`. When `c`
//! is a prefix of a return chain `r` but the full chains `c.c'` run deeper
//! than `r`, a brand-new node matching `r` can appear: `confl(r, U)` fires
//! (so the pair looks "strictly below") while `confl(U, r)` stays silent.
//! The classifier therefore also infers the insertion *base* chains
//! ([`CdagEngine::infer_update_bases`], the `c` of each `c:c'`) and demotes
//! to re-evaluation whenever `confl(bases, r)` holds — i.e. whenever new
//! content is attached at or above the depth where results live. DELETE and
//! RENAME need no such guard: their chain sets contain the affected node's
//! own chain, which prefix-covers its entire subtree, so `confl(U, r)`
//! already catches every membership change they can cause.
//!
//! The CDAG chain sets over-approximate the exact ones, so a spurious
//! `confl(U, r)` / `confl(U, v)` only ever demotes a patchable pair to
//! re-evaluation — the classification errs on the side of recomputing,
//! never on the side of a wrong patch (correctness first; pinned by the
//! `delta_patch_matches_reeval` differential property in
//! `tests/delta_maintenance.rs`).

use std::collections::HashMap;

use qui_schema::SchemaLike;
use qui_xquery::{Query, Update};

use crate::engine::cdag::{CdagEngine, ChainDag, DagQueryChains};
use crate::kbound::k_for_pair;

/// How a (view, update) pair may be maintained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaClass {
    /// No chain conflict: the view is independent of the update and needs no
    /// maintenance at all.
    Independent,
    /// Every conflict runs from a return chain strictly *down* into the
    /// update: result membership is stable, and the view is repaired by
    /// re-pointing its result ids at the updated document.
    Patchable,
    /// The update can change which nodes the view returns (it conflicts
    /// upward into a return chain or into a used chain), or the
    /// classification is inconclusive: re-evaluate the view.
    Reevaluate,
}

/// Stateful classifier: one CDAG engine per multiplicity bound `k`, plus
/// per-expression inference caches and a per-(view, update) result cache,
/// so a maintenance engine pays one inference per distinct expression and
/// one conflict check per distinct pair per schema — the "one analysis pass
/// per batch" discipline.
pub struct DeltaClassifier<'s, S: SchemaLike> {
    schema: &'s S,
    engines: HashMap<usize, CdagEngine<'s, S>>,
    query_chains: HashMap<(usize, String), DagQueryChains>,
    update_chains: HashMap<(usize, String), (ChainDag, ChainDag)>,
    cache: HashMap<(String, String), DeltaClass>,
}

impl<'s, S: SchemaLike> DeltaClassifier<'s, S> {
    /// Creates a classifier for `schema`.
    pub fn new(schema: &'s S) -> Self {
        DeltaClassifier {
            schema,
            engines: HashMap::new(),
            query_chains: HashMap::new(),
            update_chains: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// Classifies the pair, caching per `(view, update)` expression.
    pub fn classify(&mut self, q: &Query, u: &Update) -> DeltaClass {
        let key = (format!("{q:?}"), format!("{u:?}"));
        if let Some(&c) = self.cache.get(&key) {
            return c;
        }
        let c = self.classify_uncached(q, u, &key);
        self.cache.insert(key, c);
        c
    }

    fn classify_uncached(&mut self, q: &Query, u: &Update, key: &(String, String)) -> DeltaClass {
        let k = k_for_pair(q, u);
        let schema = self.schema;
        let eng = self
            .engines
            .entry(k)
            .or_insert_with(|| CdagEngine::new(schema, k));
        // The inferred chain sets depend only on (k, expression): share them
        // across the matrix instead of re-running inference per pair.
        let qd = self
            .query_chains
            .entry((k, key.0.clone()))
            .or_insert_with(|| eng.infer_query(&eng.root_gamma(q.free_vars()), q));
        let (ud, bases) = self
            .update_chains
            .entry((k, key.1.clone()))
            .or_insert_with(|| {
                let ugamma = eng.root_gamma(u.free_vars());
                (
                    eng.infer_update(&ugamma, u),
                    eng.infer_update_bases(&ugamma, u),
                )
            });
        // The classifier only reads the conservative chain sets; saturation
        // already widened them, so the flag is irrelevant here. Clear it so
        // it cannot leak into a later caller of the shared engine.
        let _ = eng.take_saturated();
        let below = eng.dag_conflicts(&qd.returns, ud);
        let above = eng.dag_conflicts(ud, &qd.returns);
        let used = eng.dag_conflicts(ud, &qd.used);
        if !below && !above && !used {
            return DeltaClass::Independent;
        }
        // Inserted content attached at or above a return-chain end can
        // materialize new result nodes; only sites strictly inside result
        // subtrees are patchable.
        let grows = eng.dag_conflicts(bases, &qd.returns);
        if below && !above && !used && !grows {
            DeltaClass::Patchable
        } else {
            DeltaClass::Reevaluate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use qui_xquery::{parse_query, parse_update};

    fn fig1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c ; c -> d*", "doc").unwrap()
    }

    #[test]
    fn update_strictly_below_returns_is_patchable() {
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//a").unwrap();
        let u = parse_update("delete //a/c").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Patchable);
    }

    #[test]
    fn update_above_returns_forces_reevaluation() {
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//c").unwrap();
        let u = parse_update("delete //a").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Reevaluate);
    }

    #[test]
    fn update_hitting_target_chain_itself_forces_reevaluation() {
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//a/c").unwrap();
        let u = parse_update("delete //a/c").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Reevaluate);
    }

    #[test]
    fn update_into_used_chains_forces_reevaluation() {
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("for $x in /a[c] return $x").unwrap();
        let u = parse_update("delete //a/c").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Reevaluate);
    }

    #[test]
    fn insert_at_return_depth_forces_reevaluation() {
        // Inserting a `c` into an `a` materializes a *new* node matching the
        // view's return chain [a, c]: the full insert chains run deeper than
        // the return chain (so `confl(U, r)` is silent) but the base chain
        // [a] prefixes it — the `grows` guard must demote to re-evaluation.
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//a/c").unwrap();
        let u = parse_update("for $x in //a return insert <c/> into $x").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Reevaluate);
    }

    #[test]
    fn insert_strictly_below_returns_is_patchable() {
        // Inserting a `d` into an `a/c` stays strictly inside the subtrees
        // of the view's `a` results: membership is stable, patchable.
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//a").unwrap();
        let u = parse_update("for $x in //a/c return insert <d/> into $x").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Patchable);
    }

    #[test]
    fn disjoint_pair_is_independent() {
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//a").unwrap();
        let u = parse_update("delete //b/c").unwrap();
        assert_eq!(cls.classify(&q, &u), DeltaClass::Independent);
    }

    #[test]
    fn classification_is_cached() {
        let dtd = fig1();
        let mut cls = DeltaClassifier::new(&dtd);
        let q = parse_query("//a").unwrap();
        let u = parse_update("delete //a/c").unwrap();
        let first = cls.classify(&q, &u);
        assert_eq!(cls.classify(&q, &u), first);
        assert_eq!(cls.cache.len(), 1);
    }
}
