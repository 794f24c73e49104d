//! Layer replay of the static analysis: the same cells a session decides,
//! re-run through direct calls to the CDAG engine, the explicit engine and
//! the conflict checks, each inside its own span.
//!
//! The replay mirrors the session's default engine order (CDAG first, the
//! explicit engine only for cells the CDAG could not prove), but infers
//! every distinct `(expression, k)` directly instead of walking a k-ladder,
//! so `cdag.replay_inferences` is the work the ladder would have to save.

use crate::trace::Tracer;
use qui_core::conflict::find_conflict;
use qui_core::engine::cdag::{CdagEngine, ChainDag, DagQueryChains};
use qui_core::engine::explicit::ExplicitEngine;
use qui_core::types::{QueryChains, UpdateChains};
use qui_core::universe::Universe;
use qui_core::{k_for_pair, AnalyzerConfig, Jobs};
use qui_schema::SchemaLike;
use qui_xquery::{Query, Update};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// How the explicit prepass treats a query that overflows its budget.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ExplicitOrder {
    /// Whole-matrix prepass: every pending query and update is inferred.
    Bulk,
    /// Ad-hoc check: the update is skipped once the query overflowed.
    PerCheck,
}

/// Replays the analysis of `cells` (query, update) on `schema` and returns
/// each cell's independence flag. Spans: `cdag.infer`, `explicit.infer`,
/// `conflict.check`; counts: `cdag.replay_inferences`,
/// `explicit.inferences`, `explicit.overflows`, `conflict.cells`.
pub fn replay<S: SchemaLike>(
    schema: &S,
    config: &AnalyzerConfig,
    cells: &[(&Query, &Update)],
    order: ExplicitOrder,
    t: &mut Tracer,
) -> Vec<bool> {
    let keyed: Vec<(String, String, usize)> = cells
        .iter()
        .map(|(q, u)| (format!("{q:?}"), format!("{u:?}"), k_for_pair(q, u)))
        .collect();

    // CDAG inference, once per distinct (expression, k).
    let mut engines: HashMap<usize, CdagEngine<'_, S>> = HashMap::new();
    let mut dag_q: HashMap<(&str, usize), DagQueryChains> = HashMap::new();
    let mut dag_u: HashMap<(&str, usize), ChainDag> = HashMap::new();
    for ((q, u), (qk, uk, k)) in cells.iter().zip(&keyed) {
        let k = *k;
        let eng = engines.entry(k).or_insert_with(|| {
            t.time("cdag.infer", || {
                CdagEngine::new(schema, k)
                    .with_element_chains(config.element_chains)
                    .with_jobs(Jobs::Fixed(1))
            })
        });
        if let Entry::Vacant(slot) = dag_q.entry((qk.as_str(), k)) {
            slot.insert(t.time("cdag.infer", || {
                eng.infer_query(&eng.root_gamma(q.free_vars()), q)
            }));
            t.count("cdag.replay_inferences", 1.0);
        }
        if let Entry::Vacant(slot) = dag_u.entry((uk.as_str(), k)) {
            slot.insert(t.time("cdag.infer", || {
                eng.infer_update(&eng.root_gamma(u.free_vars()), u)
            }));
            t.count("cdag.replay_inferences", 1.0);
        }
    }

    // CDAG conflict check of every cell.
    let mut flags: Vec<bool> = Vec::with_capacity(cells.len());
    for (qk, uk, k) in &keyed {
        let (qc, uc) = (&dag_q[&(qk.as_str(), *k)], &dag_u[&(uk.as_str(), *k)]);
        let eng = &engines[k];
        flags.push(t.time("conflict.check", || eng.independent(qc, uc)));
        t.count("conflict.cells", 1.0);
    }

    // Explicit inference for the cells the CDAG could not prove, once per
    // distinct (expression, k); `None` records a budget overflow.
    let mut universes: HashMap<usize, Universe<'_, S>> = HashMap::new();
    let mut exp_q: HashMap<(&str, usize), Option<QueryChains>> = HashMap::new();
    let mut exp_u: HashMap<(&str, usize), Option<UpdateChains>> = HashMap::new();
    for ((q, u), ((qk, uk, k), proved)) in cells.iter().zip(keyed.iter().zip(&flags)) {
        if *proved {
            continue;
        }
        let k = *k;
        universes
            .entry(k)
            .or_insert_with(|| Universe::with_k(schema, k));
        let universe = &universes[&k];
        let engine = || {
            ExplicitEngine::new(universe, config.explicit_budget)
                .with_element_chains(config.element_chains)
                .with_jobs(Jobs::Fixed(1))
        };
        if let Entry::Vacant(slot) = exp_q.entry((qk.as_str(), k)) {
            let chains = t.time("explicit.infer", || {
                let eng = engine();
                eng.infer_query(&eng.root_gamma(q.free_vars()), q).ok()
            });
            t.count("explicit.inferences", 1.0);
            t.count("explicit.overflows", f64::from(u8::from(chains.is_none())));
            slot.insert(chains);
        }
        let query_ok = exp_q[&(qk.as_str(), k)].is_some();
        if order == ExplicitOrder::Bulk || query_ok {
            if let Entry::Vacant(slot) = exp_u.entry((uk.as_str(), k)) {
                let chains = t.time("explicit.infer", || {
                    let eng = engine();
                    eng.infer_update(&eng.root_gamma(u.free_vars()), u).ok()
                });
                t.count("explicit.inferences", 1.0);
                t.count("explicit.overflows", f64::from(u8::from(chains.is_none())));
                slot.insert(chains);
            }
        }
    }

    // Explicit conflict check; a cell whose chains overflowed keeps the
    // CDAG's (dependent) answer.
    for ((qk, uk, k), flag) in keyed.iter().zip(flags.iter_mut()) {
        if *flag {
            continue;
        }
        let qc = exp_q.get(&(qk.as_str(), *k)).and_then(Option::as_ref);
        let uc = exp_u.get(&(uk.as_str(), *k)).and_then(Option::as_ref);
        if let (Some(qc), Some(uc)) = (qc, uc) {
            *flag = t.time("conflict.check", || find_conflict(qc, uc).is_none());
        }
    }
    flags
}
