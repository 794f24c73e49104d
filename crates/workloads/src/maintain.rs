//! Continuous view maintenance: from "is it independent?" to "how little
//! must we recompute?".
//!
//! The Fig. 3.c simulation measures how much re-materialization the static
//! analysis *prunes*. This module goes one step further and actually keeps
//! a set of materialized views live under a sustained update stream, with
//! three strategies of increasing precision:
//!
//! * [`MaintainStrategy::Naive`] — re-evaluate every view after every batch
//!   (the no-analysis baseline of the paper's experiment);
//! * [`MaintainStrategy::Pruned`] — re-evaluate only the views the chain
//!   analysis cannot prove independent of some update in the batch
//!   (Fig. 3.c, extended to batches);
//! * [`MaintainStrategy::Delta`] — additionally split the dependent pairs
//!   with [`DeltaClassifier`]: views whose conflicts all run strictly
//!   *downward* from a return chain keep their result membership, so they
//!   are repaired by re-pointing the view at the newly frozen document —
//!   the entries keep their node ids, and their subtrees now read the
//!   updated content — instead of re-running the query over the whole
//!   document. Anything inconclusive falls back to re-evaluation —
//!   correctness first.
//!
//! A view copies nothing: it holds a [`Store`] snapshot and its result ids.
//! For results inside the document that snapshot is an O(1) share of the
//! frozen document version the view was evaluated (or re-pointed) on;
//! re-freezing the live document after a batch leaves outstanding
//! snapshots on their old version (see [`Store::freeze`]), so a skipped
//! view keeps reading exactly the nodes it was evaluated on. At most one
//! document version per distinct refresh batch among the live views is
//! kept alive, plus the current one — never more than views + 1.
//!
//! One analysis pass runs per batch (the classifier caches per
//! (view, update) expression, so a recurring workload pays it once);
//! update application is sequential (the semantics of a batch is the
//! sequential composition of its updates); re-evaluations are sharded over
//! the `qui-core` thread pool with one O(1) copy-on-write snapshot per
//! worker, while patches — the cheap path — run inline. The deterministic
//! outcome (which views were skipped / patched / re-evaluated, and the
//! serialized view contents) is bit-identical for any worker count and for
//! any strategy; `tests/delta_maintenance.rs` pins both properties.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qui_core::delta::{DeltaClass, DeltaClassifier};
use qui_core::parallel::run_indexed;
use qui_core::Jobs;
use qui_schema::SchemaLike;
use qui_xmlstore::{serialize_node_into, NodeId, Store, Tree};
use qui_xquery::{
    apply_pending_list, evaluate_query, evaluate_update, update_sites, EvalError, Query, Update,
    UpdateSite,
};

/// How a [`MaintenanceEngine`] refreshes its views after each batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintainStrategy {
    /// Re-evaluate every view after every batch.
    Naive,
    /// Re-evaluate only views not statically independent of the batch.
    Pruned,
    /// Patch views (re-point them at the updated document) where the
    /// conflict classification allows it; re-evaluate the rest.
    Delta,
}

/// A live materialized view: the query, a [`Store`] snapshot holding its
/// result nodes, and the result sequence as ids into that snapshot.
///
/// When every result is a document node (`tracks_sources`), the snapshot
/// is the frozen document version the view was last evaluated or patched
/// on, and the ids are the document's own — what the delta path patches
/// against. Otherwise the snapshot is the evaluation's working store,
/// which also holds the nodes the query constructed.
pub struct MaintainedView {
    /// The view's name (workload label).
    pub name: String,
    /// The view query.
    pub query: Query,
    store: Store,
    entries: Vec<NodeId>,
    tracks_sources: bool,
}

impl MaintainedView {
    /// Materializes `query` over `doc` (which must be frozen, so workers can
    /// snapshot it in O(1)).
    fn materialize(name: &str, query: &Query, doc: &Tree) -> Result<MaintainedView, EvalError> {
        let frozen_len = doc.store.len();
        let mut work = doc.snapshot();
        let root = work.root;
        let entries = evaluate_query(&mut work.store, root, query)?;
        // A result id past the frozen prefix is a node the query constructed
        // during evaluation; it has no stable identity in the live document,
        // so the delta path cannot track it and the view always re-evaluates.
        let tracks_sources = entries.iter().all(|n| n.index() < frozen_len);
        Ok(MaintainedView {
            name: name.to_string(),
            query: query.clone(),
            store: if tracks_sources {
                doc.store.snapshot()
            } else {
                work.store
            },
            entries,
            tracks_sources,
        })
    }

    /// The materialized content, serialized: the result sequence inside one
    /// `<view>` element. This is the value the differential tests compare
    /// across strategies.
    pub fn serialized(&self) -> String {
        if self.entries.is_empty() {
            return "<view/>".to_string();
        }
        let mut out = String::from("<view>");
        for &n in &self.entries {
            serialize_node_into(&self.store, n, &mut out);
        }
        out.push_str("</view>");
        out
    }

    /// Number of result entries currently materialized.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

/// Per-batch accounting, returned by [`MaintenanceEngine::apply_batch`].
///
/// The counters are deterministic (worker-count independent); the
/// [`Duration`]s are wall-clock measurements for the bench harness.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Updates applied in this batch.
    pub updates: usize,
    /// Views left untouched (independent of the whole batch).
    pub skipped: usize,
    /// Views patched: re-pointed at the updated document, not re-evaluated.
    pub patched_views: usize,
    /// Total result entries containing an update site across all patched
    /// views (the entries whose content the patch changed).
    pub patched_entries: usize,
    /// Views re-evaluated from scratch.
    pub reevaluated: usize,
    /// Wall time of the static analysis pass.
    pub analysis: Duration,
    /// Wall time of update evaluation + application.
    pub apply: Duration,
    /// Wall time of view maintenance (patches + sharded re-evaluations).
    pub maintain: Duration,
}

impl BatchStats {
    fn absorb(&mut self, other: &BatchStats) {
        self.updates += other.updates;
        self.skipped += other.skipped;
        self.patched_views += other.patched_views;
        self.patched_entries += other.patched_entries;
        self.reevaluated += other.reevaluated;
        self.analysis += other.analysis;
        self.apply += other.apply;
        self.maintain += other.maintain;
    }

    /// The worker-count-independent part, for bit-identity assertions.
    pub fn deterministic_fields(&self) -> [usize; 5] {
        [
            self.updates,
            self.skipped,
            self.patched_views,
            self.patched_entries,
            self.reevaluated,
        ]
    }
}

/// What the per-view decision pass concluded for one batch.
enum Decision {
    Skip,
    /// Patch; the number of result entries containing an update site.
    Patch(usize),
    Reeval,
}

/// Keeps a set of materialized views live under a stream of update batches.
pub struct MaintenanceEngine<'s, S: SchemaLike> {
    classifier: DeltaClassifier<'s, S>,
    /// Per-update classification of every registered view, keyed by the
    /// update's expression fingerprint: a recurring update stream pays the
    /// chain analysis once per distinct update, then one hash lookup per
    /// batch — the "one analysis pass per batch" discipline.
    class_cache: HashMap<String, Vec<DeltaClass>>,
    strategy: MaintainStrategy,
    jobs: Jobs,
    doc: Tree,
    views: Vec<MaintainedView>,
    totals: BatchStats,
}

impl<'s, S: SchemaLike> MaintenanceEngine<'s, S> {
    /// Creates an engine over `doc` (frozen on entry so every snapshot below
    /// is O(1)).
    pub fn new(schema: &'s S, mut doc: Tree, strategy: MaintainStrategy, jobs: Jobs) -> Self {
        doc.freeze();
        MaintenanceEngine {
            classifier: DeltaClassifier::new(schema),
            class_cache: HashMap::new(),
            strategy,
            jobs,
            doc,
            views: Vec::new(),
            totals: BatchStats::default(),
        }
    }

    /// Registers and materializes a view.
    pub fn register_view(&mut self, name: &str, query: &Query) -> Result<(), EvalError> {
        let view = MaintainedView::materialize(name, query, &self.doc)?;
        self.views.push(view);
        Ok(())
    }

    /// The live document (frozen between batches).
    pub fn doc(&self) -> &Tree {
        &self.doc
    }

    /// The registered views, in registration order.
    pub fn views(&self) -> &[MaintainedView] {
        &self.views
    }

    /// Serialized content of every view, in registration order (the
    /// differential-test observable).
    pub fn serialized_views(&self) -> Vec<String> {
        self.views.iter().map(|v| v.serialized()).collect()
    }

    /// Accumulated stats over every batch applied so far.
    pub fn totals(&self) -> &BatchStats {
        &self.totals
    }

    /// Applies one batch of updates to the document and maintains every
    /// registered view according to the engine's strategy.
    ///
    /// The batch semantics is sequential composition: each update is
    /// evaluated against the document state its predecessors produced.
    /// Maintenance runs once, after the whole batch.
    pub fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchStats, EvalError> {
        let mut stats = BatchStats {
            updates: updates.len(),
            ..Default::default()
        };

        // Phase 1: one static analysis pass for the whole batch — skipped
        // entirely by the naive strategy, which refreshes everything anyway.
        // Each distinct update is classified against every view once and
        // cached; the per-view class is the worst across the batch's
        // updates: a single membership-threatening update forces
        // re-evaluation no matter how benign the others are.
        let analysis_start = Instant::now();
        let classes: Vec<DeltaClass> = if self.strategy == MaintainStrategy::Naive {
            vec![DeltaClass::Reevaluate; self.views.len()]
        } else {
            let cache = &mut self.class_cache;
            let classifier = &mut self.classifier;
            let views = &self.views;
            let fps: Vec<String> = updates.iter().map(|u| format!("{u:?}")).collect();
            for (u, fp) in updates.iter().zip(&fps) {
                let entry = cache.entry(fp.clone()).or_default();
                // Views registered since this update was last seen.
                while entry.len() < views.len() {
                    let v = &views[entry.len()];
                    entry.push(classifier.classify(&v.query, u));
                }
            }
            (0..views.len())
                .map(|vi| {
                    fps.iter()
                        .map(|fp| cache[fp][vi])
                        .max_by_key(|c| match c {
                            DeltaClass::Independent => 0,
                            DeltaClass::Patchable => 1,
                            DeltaClass::Reevaluate => 2,
                        })
                        .unwrap_or(DeltaClass::Independent)
                })
                .collect()
        };
        stats.analysis = analysis_start.elapsed();

        // Phase 2: apply the updates sequentially, recording each pending
        // list's update sites *before* application (application may clear
        // the parent pointers the site computation needs).
        let apply_start = Instant::now();
        let mut sites: Vec<UpdateSite> = Vec::new();
        for u in updates {
            let root = self.doc.root;
            let cmds = evaluate_update(&mut self.doc.store, root, u)?;
            sites.extend(update_sites(&self.doc.store, &cmds));
            apply_pending_list(&mut self.doc.store, &cmds);
        }
        self.doc.freeze();
        stats.apply = apply_start.elapsed();

        // Phase 3: decide per view, then execute — patches inline (they are
        // the cheap path), re-evaluations sharded over the thread pool.
        let maintain_start = Instant::now();
        let decisions = self.decide(&classes, &sites);
        let reeval: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d, Decision::Reeval))
            .map(|(i, _)| i)
            .collect();
        for (vi, decision) in decisions.iter().enumerate() {
            match decision {
                Decision::Skip => stats.skipped += 1,
                Decision::Reeval => stats.reevaluated += 1,
                Decision::Patch(touched) => {
                    stats.patched_views += 1;
                    stats.patched_entries += touched;
                    // Membership is stable and locations are never reused,
                    // so the entries' ids name the same nodes in the newly
                    // frozen document, which holds their updated content.
                    self.views[vi].store = self.doc.store.snapshot();
                }
            }
        }
        let doc = &self.doc;
        let views = &self.views;
        let rebuilt: Vec<Result<MaintainedView, EvalError>> =
            run_indexed(self.jobs, reeval.len(), |i| {
                let vi = reeval[i];
                MaintainedView::materialize(&views[vi].name, &views[vi].query, doc)
            });
        for (vi, built) in reeval.into_iter().zip(rebuilt) {
            self.views[vi] = built?;
        }
        stats.maintain = maintain_start.elapsed();

        self.totals.absorb(&stats);
        Ok(stats)
    }

    /// Maps each view to its maintenance decision for this batch.
    ///
    /// Beyond the static class, the delta path re-checks the *dynamic*
    /// preconditions of a patch and demotes to re-evaluation when any
    /// fails: the view must track source nodes (no constructed results), no
    /// update site may be unresolvable (a pending-list target with no
    /// parent), and no structural command may target an entry root itself —
    /// each a conservative fallback, never a wrong patch.
    fn decide(&self, classes: &[DeltaClass], sites: &[UpdateSite]) -> Vec<Decision> {
        let inconclusive_site = sites.iter().any(|s| s.site.is_none());
        // Source-entry index over the views still eligible for patching,
        // so each site resolves its affected entries in one ancestor walk.
        let mut entry_of: HashMap<NodeId, Vec<(usize, usize)>> = HashMap::new();
        let mut eligible: Vec<bool> = Vec::with_capacity(self.views.len());
        for (vi, view) in self.views.iter().enumerate() {
            let ok = self.strategy == MaintainStrategy::Delta
                && classes[vi] == DeltaClass::Patchable
                && view.tracks_sources
                && !inconclusive_site;
            eligible.push(ok);
            if ok {
                for (ei, &src) in view.entries.iter().enumerate() {
                    entry_of.entry(src).or_default().push((vi, ei));
                }
            }
        }
        // A structural command aimed at a tracked entry root means the
        // entry node itself is deleted/renamed/replaced; the static class
        // should already have demoted the pair, but verify dynamically.
        let mut demoted: Vec<bool> = vec![false; self.views.len()];
        for s in sites {
            if s.touches_target {
                if let Some(hits) = entry_of.get(&s.target) {
                    for &(vi, _) in hits {
                        demoted[vi] = true;
                    }
                }
            }
        }
        // Ancestor-or-self walk from each site in the *final* document: an
        // entry contains the site iff the entry's source node is on the
        // walk. Sites detached by a later update of the batch stop early —
        // their content change is invisible in the final document, and any
        // visible consequence is covered by the detaching update's own site.
        let mut affected: Vec<Vec<usize>> = vec![Vec::new(); self.views.len()];
        for s in sites {
            let mut cur = s.site;
            while let Some(n) = cur {
                if let Some(hits) = entry_of.get(&n) {
                    for &(vi, ei) in hits {
                        affected[vi].push(ei);
                    }
                }
                cur = self.doc.store.parent(n);
            }
        }
        (0..self.views.len())
            .map(|vi| match self.strategy {
                MaintainStrategy::Naive => Decision::Reeval,
                MaintainStrategy::Pruned => {
                    if classes[vi] == DeltaClass::Independent {
                        Decision::Skip
                    } else {
                        Decision::Reeval
                    }
                }
                MaintainStrategy::Delta => {
                    if classes[vi] == DeltaClass::Independent {
                        Decision::Skip
                    } else if eligible[vi] && !demoted[vi] {
                        let mut entries = std::mem::take(&mut affected[vi]);
                        entries.sort_unstable();
                        entries.dedup();
                        Decision::Patch(entries.len())
                    } else {
                        Decision::Reeval
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates::all_updates;
    use crate::views::all_views;
    use crate::xmark::{xmark_document, xmark_dtd};
    use qui_schema::Dtd;
    use qui_xmlstore::parse_xml;
    use qui_xquery::{parse_query, parse_update};

    #[test]
    fn patchable_view_is_repaired_in_place() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c*", "doc").unwrap();
        let doc = parse_xml("<doc><a><c/><c/></a><b><c/></b><a><c/></a></doc>").unwrap();
        let q = parse_query("//a").unwrap();
        let u = parse_update("delete //a/c").unwrap();

        let mut delta = MaintenanceEngine::new(&dtd, doc, MaintainStrategy::Delta, Jobs::Fixed(1));
        delta.register_view("as", &q).unwrap();
        let stats = delta.apply_batch(std::slice::from_ref(&u)).unwrap();
        assert_eq!(stats.patched_views, 1, "the only view must be patched");
        assert_eq!(stats.patched_entries, 2, "both <a> entries contain a site");
        assert_eq!(stats.reevaluated, 0);

        let doc2 = parse_xml("<doc><a><c/><c/></a><b><c/></b><a><c/></a></doc>").unwrap();
        let mut naive = MaintenanceEngine::new(&dtd, doc2, MaintainStrategy::Naive, Jobs::Fixed(1));
        naive.register_view("as", &q).unwrap();
        naive.apply_batch(std::slice::from_ref(&u)).unwrap();
        assert_eq!(delta.serialized_views(), naive.serialized_views());
        assert_eq!(delta.serialized_views(), vec!["<view><a/><a/></view>"]);
    }

    #[test]
    fn independent_view_is_skipped_and_membership_threat_reevaluates() {
        let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c*", "doc").unwrap();
        let doc = parse_xml("<doc><a><c/></a><b><c/></b></doc>").unwrap();
        let mut eng = MaintenanceEngine::new(&dtd, doc, MaintainStrategy::Delta, Jobs::Fixed(1));
        eng.register_view("bs", &parse_query("//b/c").unwrap())
            .unwrap();
        eng.register_view("as", &parse_query("//a").unwrap())
            .unwrap();
        // Deleting //a threatens the membership of "as" (chain equality) and
        // is independent of "bs".
        let stats = eng
            .apply_batch(&[parse_update("delete //a").unwrap()])
            .unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.reevaluated, 1);
        assert_eq!(stats.patched_views, 0);
        assert_eq!(eng.serialized_views(), vec!["<view><c/></view>", "<view/>"]);
    }

    #[test]
    fn strategies_agree_on_an_xmark_stream() {
        let dtd = xmark_dtd();
        let views: Vec<_> = all_views()
            .into_iter()
            .filter(|v| ["q1", "q18", "A1", "A7", "B3"].contains(&v.name))
            .collect();
        let updates: Vec<Update> = all_updates()
            .into_iter()
            .filter(|u| ["UA1", "UI2", "UN1", "UP5", "UB2", "UI4"].contains(&u.name))
            .map(|u| u.update)
            .collect();
        let mut engines: Vec<MaintenanceEngine<Dtd>> = [
            MaintainStrategy::Naive,
            MaintainStrategy::Pruned,
            MaintainStrategy::Delta,
        ]
        .into_iter()
        .map(|s| MaintenanceEngine::new(&dtd, xmark_document(3_000, 11), s, Jobs::Fixed(2)))
        .collect();
        for eng in &mut engines {
            for v in &views {
                eng.register_view(v.name, &v.query).unwrap();
            }
        }
        for batch in updates.chunks(2) {
            let stats: Vec<BatchStats> = engines
                .iter_mut()
                .map(|e| e.apply_batch(batch).unwrap())
                .collect();
            let reference = engines[0].serialized_views();
            assert_eq!(engines[1].serialized_views(), reference);
            assert_eq!(engines[2].serialized_views(), reference);
            // Strategy precision is monotone: naive refreshes everything,
            // pruning skips at least as little as delta does.
            assert_eq!(stats[0].reevaluated, views.len());
            assert!(stats[1].reevaluated <= stats[0].reevaluated);
            assert!(stats[2].reevaluated <= stats[1].reevaluated);
        }
    }
}
