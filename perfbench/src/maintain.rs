//! `maintain-xmark`: the 36 XMark views kept live by a `MaintenanceEngine`
//! (pruned strategy) under a seeded stream of update batches drawn from the
//! 31 updates. The document is generated from a fixed seed as XML text and
//! ingested through the streaming parser.
//!
//! The stream runs in cycles. Every cycle starts from a freshly ingested
//! document with freshly materialized views and applies each of the 31
//! updates once, in batches of two or three. The batches are a fixed
//! partition of the updates, so every cycle re-evaluates the same views;
//! the seed and the cycle's index set the order of the batches and of the
//! updates within each batch. With a third of the updates touching no
//! expensive view, single-update batches put the median batch in the gap
//! between the cheap and the expensive batches, where it jumped from run
//! to run. Restarting each cycle from the same document keeps it from
//! growing cycle by cycle (the updates insert more than they delete).

use crate::report::{median, ms, peak_rss_mb, tail, Outcome};
use crate::trace::Tracer;
use crate::{Layers, Rng, Run};
use qui_core::delta::{DeltaClass, DeltaClassifier};
use qui_core::Jobs;
use qui_schema::Dtd;
use qui_workloads::updates::UPDATE_SOURCES;
use qui_workloads::views::VIEW_SOURCES;
use qui_workloads::{stream_xmark_document, xmark_dtd, MaintainStrategy, MaintenanceEngine};
use qui_xmlstore::{parse_xml_reader, serialize_node, NodeId, Store, Tree};
use qui_xquery::{
    apply_pending_list, evaluate_query, evaluate_update, parse_query, parse_update, update_sites,
    Query, Update,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Target size of the generated XMark document, in nodes.
const DOC_NODES: usize = 25_000;
/// Seed of the XMark document. It is fixed: evaluation cost depends on the
/// generated shape far more than on the node count (peak memory ranges
/// from 50 MB to 900 MB across seeds at this size), so `--seed` drives the
/// update stream only. 13 is the seed of the repository's maintenance
/// harness.
const DOC_SEED: u64 = 13;

/// Seed of the fixed partition of the updates into batches.
const PARTITION_SEED: u64 = 13;

/// The batches of cycle `index`: a fixed partition of `0..n` into batches
/// of two or three update indices, in an order drawn from the seed and the
/// cycle index.
fn cycle(seed: u64, index: usize, n: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(PARTITION_SEED);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut batches = Vec::new();
    let mut rest = &order[..];
    while !rest.is_empty() {
        let take = (2 + rng.below(2)).min(rest.len());
        let mut batch = rest[..take].to_vec();
        batch.sort_unstable();
        batches.push(batch);
        rest = &rest[take..];
    }
    let mut rng = Rng::new(seed ^ 0x0BA7_C4E5 ^ (index as u64).wrapping_mul(0x9E37_79B9));
    rng.shuffle(&mut batches);
    for batch in &mut batches {
        rng.shuffle(batch);
    }
    batches
}

/// The parsed views and updates.
struct Exprs {
    views: Vec<(&'static str, Query)>,
    updates: Vec<Update>,
}

fn parse_exprs() -> Exprs {
    Exprs {
        views: VIEW_SOURCES
            .iter()
            .map(|(n, s)| (*n, parse_query(s).expect("view parses")))
            .collect(),
        updates: UPDATE_SOURCES
            .iter()
            .map(|(_, s)| parse_update(s).expect("update parses"))
            .collect(),
    }
}

/// Ingests the document and materializes every view.
fn setup<'s>(dtd: &'s Dtd, xml: &[u8], exprs: &Exprs, jobs: usize) -> MaintenanceEngine<'s, Dtd> {
    let doc = parse_xml_reader(xml).expect("generated XMark parses");
    let mut engine = MaintenanceEngine::new(dtd, doc, MaintainStrategy::Pruned, Jobs::Fixed(jobs));
    for (name, q) in &exprs.views {
        engine.register_view(name, q).expect("view materializes");
    }
    engine
}

/// A view's serialized content as the engine materializes it: the result
/// sequence deep-copied under one `<view>` element.
fn view_content(doc: &Tree, q: &Query) -> String {
    let mut work = doc.snapshot();
    let root = work.root;
    let results = evaluate_query(&mut work.store, root, q).expect("view evaluates");
    copy_results(&work.store, &results).serialized()
}

/// A materialized view: its own store holding the result sequence
/// deep-copied under one `<view>` element.
struct LiveView {
    store: Store,
    root: NodeId,
}

impl LiveView {
    fn serialized(&self) -> String {
        serialize_node(&self.store, self.root)
    }
}

fn copy_results(src: &Store, results: &[NodeId]) -> LiveView {
    let mut store = Store::new();
    let entries = results
        .iter()
        .map(|&n| store.deep_copy_from(src, n))
        .collect();
    let root = store.new_element("view", entries);
    LiveView { store, root }
}

/// Views whose maintained content differs from a from-scratch evaluation
/// on the engine's current document.
fn stale_views(engine: &MaintenanceEngine<'_, Dtd>, exprs: &Exprs) -> Vec<&'static str> {
    engine
        .views()
        .iter()
        .zip(&exprs.views)
        .filter(|(v, (_, q))| v.serialized() != view_content(engine.doc(), q))
        .map(|(_, (name, _))| *name)
        .collect()
}

pub fn run(run: &Run) -> (Outcome, Layers) {
    let mut out = Outcome::new();
    let mut layers = Layers::default();
    let dtd = xmark_dtd();
    let exprs = parse_exprs();
    let mut xml = Vec::new();
    let gen = stream_xmark_document(DOC_NODES, DOC_SEED, &mut xml).expect("generate XMark");
    out.note(format!(
        "maintain-xmark: {} views, {} updates, document {} nodes / {} bytes (seed {DOC_SEED}), workers {}, stream seed {}",
        exprs.views.len(),
        exprs.updates.len(),
        gen.nodes,
        xml.len(),
        run.nproc,
        run.seed
    ));
    if run.trace {
        trace(run, &dtd, &xml, &exprs, &mut out, &mut layers);
        return (out, layers);
    }

    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let engine = setup(&dtd, &xml, &exprs, run.nproc);
        setup_s.push(start.elapsed().as_secs_f64());
        engine
    };

    // Whole cycles only, each from a fresh set-up. The first is a warm-up
    // (the process's heap grows to its working size; that cycle ran up to
    // half again as long as the later ones); the timed ones follow while
    // the next is expected to fit in the window. Every set-up is timed.
    let mut lat_ms = Vec::new();
    let mut cycle_ms = Vec::new();
    let mut applied = 0usize;
    let (mut reevaluated, mut skipped) = (0usize, 0usize);
    let mut window = Instant::now();
    let mut cycles = 0usize;
    let engine = loop {
        let cycle_start = Instant::now();
        let mut engine = timed_setup(&mut setup_s);
        let warm_up = cycles == 0;
        let mut batch_ms = Vec::new();
        for batch in cycle(run.seed, cycles, exprs.updates.len()) {
            let batch: Vec<Update> = batch.iter().map(|&i| exprs.updates[i].clone()).collect();
            let start = Instant::now();
            let result = engine.apply_batch(&batch);
            batch_ms.push(ms(start.elapsed()));
            out.attempted += 1;
            match result {
                Ok(_) if warm_up => {}
                Ok(_) => applied += batch.len(),
                Err(e) => {
                    out.failed += 1;
                    out.fail(format!("batch failed: {e:?}"));
                }
            }
        }
        cycles += 1;
        if warm_up {
            window = Instant::now();
            continue;
        }
        cycle_ms.push(batch_ms.iter().sum::<f64>());
        lat_ms.extend(batch_ms);
        let totals = engine.totals();
        reevaluated += totals.reevaluated;
        skipped += totals.skipped;
        let left = Duration::from_secs(run.seconds).saturating_sub(window.elapsed());
        if cycle_start.elapsed() > left {
            break engine;
        }
    };
    let stale = stale_views(&engine, &exprs);
    if !stale.is_empty() {
        out.failed += stale.len();
        out.fail(format!("views differ from re-evaluation: {stale:?}"));
    }
    // The rates come from the median cycle, so one cycle slowed by the host
    // does not move them.
    let cycle_s = median(&cycle_ms) / 1e3;
    let updates = exprs.updates.len() as f64;
    let (p90, q90) = tail(&lat_ms, 0.90);
    let (p99, q99) = tail(&lat_ms, 0.99);
    out.note(format!(
        "{} timed cycles after a warm-up ({} ms), {} batches, {applied} updates, {reevaluated} re-evaluations, {skipped} skips, \
         final document {} nodes; {} set-ups; p90 taken at q{q90:.3}, p99 at q{q99:.3}",
        cycle_ms.len(),
        cycle_ms.iter().map(|c| format!("{c:.0}")).collect::<Vec<_>>().join(" "),
        lat_ms.len(),
        engine.doc().size(),
        setup_s.len()
    ));
    let views = exprs.views.len() as f64;
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("verdicts_per_s", views * updates / cycle_s, "1/s");
    out.metric("updates_per_s", updates / cycle_s, "1/s");
    out.metric(
        "rps_at_slo",
        (lat_ms.len() / cycle_ms.len()) as f64 / cycle_s,
        "1/s",
    );
    out.unbounded("latency_p50_ms", median(&lat_ms), "ms");
    out.unbounded("latency_p90_ms", p90, "ms");
    out.unbounded("latency_p99_ms", p99, "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    (out, layers)
}

/// The traced run: one cycle of the stream through direct layer calls at
/// one worker (classify, apply, re-evaluate — the pruned engine's steps),
/// the same cycle through the engine untraced at one worker for the
/// overhead, and again at `nproc` workers for the exact-count guard.
fn trace(run: &Run, dtd: &Dtd, xml: &[u8], exprs: &Exprs, out: &mut Outcome, layers: &mut Layers) {
    let mut t = Tracer::new();
    t.time("xquery.parse", parse_exprs);
    let doc = t.time("xmlstore.parse", || {
        parse_xml_reader(xml).expect("generated XMark parses")
    });
    layers.set(
        "xmlstore.bytes_per_node",
        doc.store.heap_bytes() as f64 / doc.size() as f64,
    );
    let mut doc = doc;
    doc.freeze();
    let mut views: Vec<LiveView> = exprs
        .views
        .iter()
        .map(|(_, q)| {
            let mut work = doc.snapshot();
            let root = work.root;
            let results = t.time("eval.materialize", || {
                evaluate_query(&mut work.store, root, q).expect("view evaluates")
            });
            t.time("xmlstore.copy", || copy_results(&work.store, &results))
        })
        .collect();

    let cycle = cycle(run.seed, 0, exprs.updates.len());
    let mut classifier = DeltaClassifier::new(dtd);
    let mut classes: HashMap<usize, Vec<DeltaClass>> = HashMap::new();
    let (mut skipped, mut reevaluated) = (0usize, 0usize);
    for batch in &cycle {
        let span = t.begin("batch");
        for &ui in batch {
            if let Entry::Vacant(slot) = classes.entry(ui) {
                let u = &exprs.updates[ui];
                let row = exprs
                    .views
                    .iter()
                    .map(|(_, q)| t.time("delta.classify", || classifier.classify(q, u)))
                    .collect();
                t.count("delta.classifications", exprs.views.len() as f64);
                slot.insert(row);
            }
        }
        for &ui in batch {
            let u = &exprs.updates[ui];
            t.time("update.apply", || {
                let root = doc.root;
                let cmds = evaluate_update(&mut doc.store, root, u).expect("update evaluates");
                let _sites = update_sites(&doc.store, &cmds);
                apply_pending_list(&mut doc.store, &cmds);
            });
        }
        doc.freeze();
        for (vi, view) in views.iter_mut().enumerate() {
            if batch
                .iter()
                .all(|ui| classes[ui][vi] == DeltaClass::Independent)
            {
                skipped += 1;
                continue;
            }
            reevaluated += 1;
            let q = &exprs.views[vi].1;
            let mut work = doc.snapshot();
            let root = work.root;
            let results = t.time("eval.reevaluate", || {
                evaluate_query(&mut work.store, root, q).expect("view evaluates")
            });
            *view = t.time("xmlstore.copy", || copy_results(&work.store, &results));
        }
        t.end(span);
    }

    // The engine over the same cycle, untraced, at one worker and at nproc.
    let mut engine_ms = [0.0f64; 2];
    let mut engine_counts = Vec::new();
    for (slot, jobs) in [1, run.nproc].into_iter().enumerate() {
        let mut engine = setup(dtd, xml, exprs, jobs);
        for batch in &cycle {
            let batch: Vec<Update> = batch.iter().map(|&i| exprs.updates[i].clone()).collect();
            let start = Instant::now();
            engine.apply_batch(&batch).expect("batch applies");
            engine_ms[slot] += ms(start.elapsed());
        }
        let totals = engine.totals();
        engine_counts.push((totals.reevaluated, totals.skipped));
        if slot == 0 {
            let traced: Vec<String> = views.iter().map(LiveView::serialized).collect();
            let engine_views = engine.serialized_views();
            let differ = traced
                .iter()
                .zip(&engine_views)
                .filter(|(a, b)| a != b)
                .count();
            out.attempted += views.len();
            out.failed += differ;
            if differ > 0 {
                out.fail(format!("{differ} traced views differ from the engine's"));
            }
        }
    }
    out.guard_eq(
        "eval.reevaluations (engine, 1 vs nproc workers)",
        engine_counts[0].0,
        engine_counts[1].0,
    );
    out.guard_eq(
        "eval.reevaluations (traced vs engine)",
        engine_counts[0].0,
        reevaluated,
    );
    out.guard_eq(
        "skipped views (traced vs engine)",
        engine_counts[0].1,
        skipped,
    );

    let traced_ms = t.total_ms("batch");
    let reeval_ms = t.self_ms("eval.reevaluate");
    layers.set("xquery.parse_ms", t.self_ms("xquery.parse"));
    layers.set("xmlstore.parse_ms", t.self_ms("xmlstore.parse"));
    layers.set("xmlstore.copy_ms", t.self_ms("xmlstore.copy"));
    layers.set("eval.materialize_ms", t.self_ms("eval.materialize"));
    layers.set("eval.reevaluations", reevaluated as f64);
    layers.set(
        "eval.ms_per_reevaluation",
        reeval_ms / reevaluated.max(1) as f64,
    );
    layers.set("update.apply_ms", t.self_ms("update.apply"));
    layers.set("delta.classify_ms", t.self_ms("delta.classify"));
    layers.set("delta.classifications", t.counted("delta.classifications"));
    layers.set(
        "maintain.skip_share",
        skipped as f64 / (exprs.views.len() * cycle.len()) as f64,
    );
    layers.set("trace.overhead_ms", traced_ms - engine_ms[0]);
    out.note(format!(
        "one cycle of {} batches: traced {traced_ms:.1} ms, engine at 1 worker {:.1} ms, at {} workers {:.1} ms; \
         re-evaluation {reeval_ms:.1} ms, batch self time {:.1} ms",
        cycle.len(),
        engine_ms[0],
        run.nproc,
        engine_ms[1],
        t.self_ms("batch")
    ));
}
