//! Differential property suite for delta view maintenance
//! (`qui_workloads::maintain` + `qui_core::delta`):
//!
//! * **`delta_patch_matches_reeval`** — the tentpole property. Under random
//!   update streams over schema-valid documents, the delta-patched engine's
//!   serialized view contents are bit-identical to independence-pruned and
//!   to naive full re-evaluation, for every registered view after every
//!   batch, at jobs ∈ {1, 2, 8}. The view pools deliberately include the
//!   conservative-fallback shapes: constructed results (the view cannot
//!   track source nodes, so the delta path must re-evaluate), updates that
//!   threaten result membership (classified `Reevaluate`), and insertions
//!   whose base chains reach return depth (the `grows` demotion).
//! * **worker-count bit-identity** — the deterministic per-batch counters
//!   (skipped / patched / re-evaluated) and the view contents of the delta
//!   strategy are identical across worker counts, pinning that sharded
//!   re-evaluation is invisible to the observable outcome.
//! * **strategy monotonicity** — naive re-evaluates everything, pruning
//!   re-evaluates no more than naive, delta no more than pruning.
//! * **zero-copy views ≡ deep copies** — a view holds a document snapshot
//!   and its result ids; after every batch, under every strategy, its
//!   serialization equals the old materialization (every result deep-copied
//!   under a fresh `<view>` element) on the current document, for empty,
//!   duplicate, text, constructed, patched and long-skipped results, on
//!   XMark and two corpus schemas.
//!
//! The nightly CI run multiplies the deterministic case count via
//! `QUI_PROPTEST_CASES`.

use proptest::prelude::*;
use xml_qui::core::Jobs;
use xml_qui::schema::Dtd;
use xml_qui::workloads::{
    all_updates, all_views, xmark_document, xmark_dtd, BatchStats, MaintainStrategy,
    MaintenanceEngine,
};
use xml_qui::xmlstore::{parse_xml, serialize_node, NodeId, Store, Tree};
use xml_qui::xquery::{evaluate_query, parse_query, parse_update, Query, Update};

/// One schema + document + expression-pool scenario. Every update in the
/// pool preserves schema validity (the static analysis reasons over
/// schema-valid documents, so a validity-breaking stream would void its
/// guarantees and the strategies could legitimately disagree).
struct Fixture {
    dtd: Dtd,
    doc: fn() -> Tree,
    queries: &'static [&'static str],
    updates: &'static [&'static str],
}

fn fixtures() -> Vec<Fixture> {
    vec![
        // Fig. 1 shape with fully starred content models: deletes, inner
        // inserts and the a<->b rename all keep the document valid. The
        // pool spans every DeltaClass: `//a` vs `delete //a/c/d` is
        // Patchable, `//c` vs `delete //a` is Reevaluate (conflict runs
        // upward), `insert <c/> into //a` vs `//a/c` trips the `grows`
        // demotion, and the constructor view can never track sources.
        Fixture {
            dtd: Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c* ; c -> d*", "doc").unwrap(),
            doc: || {
                parse_xml(
                    "<doc><a><c><d/><d/></c><c/></a><b><c><d/></c></b><a/>\
                     <b><c/></b><a><c><d/></c><c><d/><d/></c></a></doc>",
                )
                .unwrap()
            },
            queries: &[
                "//a",
                "//a/c",
                "//b",
                "//c/d",
                "for $x in /doc/a[c] return $x",
                "for $x in //b return <wrap/>",
            ],
            updates: &[
                "delete //a/c/d",
                "delete //a/c",
                "delete //a",
                "delete //b/c",
                "for $x in //a/c return insert <d/> into $x",
                "for $x in //a return insert <c/> into $x",
                "for $x in //b return rename $x as a",
            ],
        },
        // Mutually recursive core (the b/c clique) plus a flat wing: the
        // recursion keeps the CDAG chain sets saturated and coarse, so the
        // classifier leans on its conservative fallbacks; the x/y wing
        // gives the pruner genuinely independent pairs to skip.
        Fixture {
            dtd: Dtd::parse_compact(
                "r -> (a|x)* ; a -> (b|c)* ; b -> (b|c)* ; c -> (b|c)* ; x -> y* ; y -> #PCDATA",
                "r",
            )
            .unwrap(),
            doc: || {
                parse_xml(
                    "<r><a><b><c/><b><b/></b></b><c><b/></c></a><x><y>t</y><y>u</y></x>\
                     <a><c/><c><c/></c></a><x/></r>",
                )
                .unwrap()
            },
            queries: &[
                "//a",
                "//b//c",
                "//x/y",
                "//a/b",
                "for $v in //a[b] return $v",
                "//c//b",
            ],
            updates: &[
                "delete //b//c",
                "delete //a/c",
                "delete //x/y",
                "for $v in //c return insert <b/> into $v",
                "for $v in //b return rename $v as c",
                "delete //a/b",
            ],
        },
        // The bibliography use case: optional and starred children only, so
        // deletes stay valid; `price?` makes `[price]` predicates genuinely
        // selective and `delete //price` a used-chain conflict for them.
        Fixture {
            dtd: xml_qui::workloads::bib_dtd(),
            doc: || xml_qui::workloads::bib_document(400, 17),
            queries: &[
                "//book",
                "//book/title",
                "//author",
                "//author/last",
                "for $b in //book[price] return $b",
            ],
            updates: &[
                "delete //author/first",
                "delete //price",
                "delete //book/author",
                "delete //book",
            ],
        },
    ]
}

/// Deterministic case count, raised by the nightly run via
/// `QUI_PROPTEST_CASES`.
fn cases(default: u32) -> u32 {
    std::env::var("QUI_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

const STRATEGIES: [MaintainStrategy; 3] = [
    MaintainStrategy::Naive,
    MaintainStrategy::Pruned,
    MaintainStrategy::Delta,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// The tentpole differential property: delta-patched view contents are
    /// bit-identical to pruned and naive full re-evaluation after every
    /// batch of a random update stream, at any worker count — including
    /// every conservative-fallback shape the fixture pools contain.
    #[test]
    fn delta_patch_matches_reeval(
        fixture_idx in 0usize..3,
        batches in prop::collection::vec(prop::collection::vec(0usize..16, 1..4), 1..4),
        jobs_idx in 0usize..3,
    ) {
        let fx = &fixtures()[fixture_idx];
        let jobs = [1usize, 2, 8][jobs_idx];

        // The three strategies at the sampled worker count, plus a
        // single-threaded delta reference for worker-count bit-identity.
        let mut engines: Vec<MaintenanceEngine<Dtd>> = STRATEGIES
            .iter()
            .map(|&s| MaintenanceEngine::new(&fx.dtd, (fx.doc)(), s, Jobs::Fixed(jobs)))
            .collect();
        engines.push(MaintenanceEngine::new(
            &fx.dtd,
            (fx.doc)(),
            MaintainStrategy::Delta,
            Jobs::Fixed(1),
        ));
        for eng in &mut engines {
            for (i, q) in fx.queries.iter().enumerate() {
                eng.register_view(&format!("v{i}"), &parse_query(q).unwrap()).unwrap();
            }
        }

        for batch_plan in &batches {
            let batch: Vec<Update> = batch_plan
                .iter()
                .map(|&i| parse_update(fx.updates[i % fx.updates.len()]).unwrap())
                .collect();
            let stats: Vec<BatchStats> = engines
                .iter_mut()
                .map(|e| e.apply_batch(&batch).unwrap())
                .collect();

            // Bit-identical contents across strategies and worker counts.
            let reference = engines[0].serialized_views();
            for (eng, label) in engines[1..].iter().zip(["pruned", "delta", "delta@jobs=1"]) {
                prop_assert_eq!(
                    &eng.serialized_views(),
                    &reference,
                    "{} diverged from naive on fixture {} after batch {:?}",
                    label,
                    fixture_idx,
                    batch_plan
                );
            }
            // Deterministic counters are worker-count independent.
            prop_assert_eq!(
                stats[2].deterministic_fields(),
                stats[3].deterministic_fields(),
                "delta counters depend on the worker count"
            );
            // Strategy precision is monotone in re-evaluation work.
            prop_assert_eq!(stats[0].reevaluated, fx.queries.len());
            prop_assert!(stats[1].reevaluated <= stats[0].reevaluated);
            prop_assert!(stats[2].reevaluated <= stats[1].reevaluated);
        }
    }
}

/// The conservative fallbacks fire — and stay correct — on one concrete
/// stream: a constructed-result view is never patched (it cannot track
/// source nodes), while a sibling source-tracking view over the same data
/// is patched in place, and both end bit-identical to naive.
#[test]
fn constructed_results_fall_back_to_reevaluation() {
    let dtd = Dtd::parse_compact("doc -> (a|b)* ; a -> c* ; b -> c* ; c -> d*", "doc").unwrap();
    let doc = || parse_xml("<doc><a><c><d/></c></a><b><c/></b><a><c/></a></doc>").unwrap();
    let q_tracked = parse_query("//a").unwrap();
    // Copies the `c` subtrees into fresh `<wrap>` elements: the results are
    // constructed nodes, yet their content changes under the update below.
    let q_constructed = parse_query("for $x in //a return <wrap>{$x/c}</wrap>").unwrap();
    let u = parse_update("delete //a/c/d").unwrap();

    let mut delta = MaintenanceEngine::new(&dtd, doc(), MaintainStrategy::Delta, Jobs::Fixed(2));
    delta.register_view("tracked", &q_tracked).unwrap();
    delta.register_view("constructed", &q_constructed).unwrap();
    let stats = delta.apply_batch(std::slice::from_ref(&u)).unwrap();
    assert_eq!(
        stats.patched_views, 1,
        "the source-tracking view must be patched in place"
    );
    assert_eq!(
        stats.reevaluated, 1,
        "the constructed-result view must fall back to re-evaluation"
    );

    let mut naive = MaintenanceEngine::new(&dtd, doc(), MaintainStrategy::Naive, Jobs::Fixed(1));
    naive.register_view("tracked", &q_tracked).unwrap();
    naive.register_view("constructed", &q_constructed).unwrap();
    naive.apply_batch(std::slice::from_ref(&u)).unwrap();
    assert_eq!(delta.serialized_views(), naive.serialized_views());
}

/// The corpus sweep: on every schema of the shared corpus (hand fixtures
/// plus seeded generated shapes), a *validity-preserving* random update
/// stream keeps the three strategies bit-identical at two worker counts.
///
/// The corpus generators draw arbitrary updates, and an off-schema document
/// voids the static analysis the pruned/delta strategies rest on — so each
/// candidate update is first applied to a probe clone and validated; only
/// validity-preserving candidates enter the stream. The sweep scales with
/// `QUI_PROPTEST_CASES` like the proptest suites.
#[test]
fn corpus_streams_stay_bit_identical_across_strategies() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xml_qui::schema::validate::validate;
    use xml_qui::schema::{generate_valid, random_query, random_update, Corpus, GenValidConfig};
    use xml_qui::xquery::run_update;

    let target_applied: usize = cases(8) as usize / 2;
    let mut applied_total = 0usize;
    for (si, schema) in Corpus::seeded(0xD17A, 2).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(300), 0xD0C0 + si as u64);
        let mut rng = StdRng::seed_from_u64(0x3117 ^ si as u64);

        let mut engines: Vec<MaintenanceEngine<Dtd>> = STRATEGIES
            .iter()
            .map(|&s| MaintenanceEngine::new(&dtd, doc.clone(), s, Jobs::Fixed(2)))
            .collect();
        engines.push(MaintenanceEngine::new(
            &dtd,
            doc.clone(),
            MaintainStrategy::Delta,
            Jobs::Fixed(1),
        ));
        for eng in &mut engines {
            for i in 0..4 {
                let mut q_rng = StdRng::seed_from_u64(0x9E1D ^ ((si as u64) << 8) ^ i);
                let q = random_query(&labels, &mut q_rng);
                eng.register_view(&format!("v{i}"), &parse_query(&q).unwrap())
                    .unwrap();
            }
        }

        // Draw candidates until enough validity-preserving updates applied
        // (or the candidate budget runs out — recursion-free schemas with
        // mandatory content can reject most random deletes).
        let mut probe = doc.clone();
        let mut applied = 0usize;
        for _ in 0..target_applied.max(4) * 8 {
            if applied >= target_applied.max(4) {
                break;
            }
            let u_src = random_update(&schema.start, &labels, &mut rng);
            let u = parse_update(&u_src).unwrap();
            let mut trial = probe.clone();
            if run_update(&mut trial, &u).is_err() || validate(&dtd, &trial).is_err() {
                continue;
            }
            probe = trial;
            applied += 1;
            let batch = std::slice::from_ref(&u);
            let stats: Vec<BatchStats> = engines
                .iter_mut()
                .map(|e| e.apply_batch(batch).unwrap())
                .collect();
            let reference = engines[0].serialized_views();
            for (eng, label) in engines[1..].iter().zip(["pruned", "delta", "delta@jobs=1"]) {
                assert_eq!(
                    eng.serialized_views(),
                    reference,
                    "{label} diverged from naive on corpus schema {} ({}) after `{u_src}`",
                    schema.name,
                    schema.shape
                );
            }
            assert!(stats[1].reevaluated <= stats[0].reevaluated);
            assert!(stats[2].reevaluated <= stats[1].reevaluated);
        }
        applied_total += applied;
    }
    assert!(
        applied_total > 0,
        "no validity-preserving update found on any corpus schema — the sweep pinned nothing"
    );
}

/// The real workload: an XMark update stream over views that span all three
/// maintenance decisions, bit-identical across strategies and jobs ∈
/// {1, 2, 8}, with the delta engine demonstrably patching.
#[test]
fn xmark_stream_is_bit_identical_across_strategies_and_jobs() {
    let dtd = xmark_dtd();
    // q7/q8/q9/q13 × {UA1, UB2, UN1, UI3} contain statically Patchable
    // pairs; A1 gives the pruner genuinely independent cells; UP5's replace
    // exercises the membership-threatening fallback.
    let views: Vec<_> = all_views()
        .into_iter()
        .filter(|v| ["q7", "q8", "q9", "q13", "A1"].contains(&v.name))
        .collect();
    let updates: Vec<Update> = all_updates()
        .into_iter()
        .filter(|u| ["UA1", "UB2", "UN1", "UI3", "UP5"].contains(&u.name))
        .map(|u| u.update)
        .collect();

    let mut engines: Vec<MaintenanceEngine<Dtd>> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for &strategy in &STRATEGIES {
        for jobs in [1usize, 2, 8] {
            let mut eng =
                MaintenanceEngine::new(&dtd, xmark_document(2_000, 7), strategy, Jobs::Fixed(jobs));
            for v in &views {
                eng.register_view(v.name, &v.query).unwrap();
            }
            engines.push(eng);
            labels.push(format!("{strategy:?}@jobs={jobs}"));
        }
    }
    for batch in updates.chunks(2) {
        for eng in &mut engines {
            eng.apply_batch(batch).unwrap();
        }
        let reference = engines[0].serialized_views();
        for (eng, label) in engines.iter().zip(&labels) {
            assert_eq!(
                eng.serialized_views(),
                reference,
                "{label} diverged from {}",
                labels[0]
            );
        }
    }
    let delta_totals = engines[6].totals();
    assert!(
        delta_totals.patched_views > 0,
        "the XMark stream must exercise the patch path, not only fallbacks"
    );
    assert!(
        delta_totals.skipped > 0,
        "the XMark stream must exercise independence pruning"
    );
}

/// Evaluates `q` on a snapshot of `doc`: the snapshot (holding any
/// constructed results) and the result sequence.
fn evaluate(doc: &Tree, q: &Query) -> (Store, Vec<NodeId>) {
    let mut work = doc.snapshot();
    let root = work.root;
    let results = evaluate_query(&mut work.store, root, q).unwrap();
    (work.store, results)
}

/// The materialization views used before they became zero-copy, kept as the
/// oracle for [`MaintenanceEngine::serialized_views`]: evaluate the view on
/// the current document, deep-copy every result under a fresh `<view>`
/// element, serialize.
fn deep_copy_oracle(doc: &Tree, q: &Query) -> String {
    let (work, results) = evaluate(doc, q);
    let mut store = Store::new();
    let entries = results
        .iter()
        .map(|&n| store.deep_copy_from(&work, n))
        .collect();
    let view = store.new_element("view", entries);
    serialize_node(&store, view)
}

/// Views covering each shape a zero-copy view must serialize exactly like
/// the deep-copied `<view>` wrapper did, by role.
struct OracleViews {
    /// A result that is empty on the initial document.
    empty: &'static str,
    /// The same nodes returned once per iteration of a `for`.
    duplicates: &'static str,
    /// Text nodes.
    text: &'static str,
    /// Constructed nodes (the view cannot track sources).
    constructed: &'static str,
    /// A view independent of every update in the stream: skipped by the
    /// pruned and delta strategies across every batch while the document
    /// is refrozen under it.
    skipped: &'static str,
    /// A view with statically patchable pairs in the stream.
    patchable: &'static str,
}

impl OracleViews {
    fn all(&self) -> [&'static str; 6] {
        [
            self.empty,
            self.duplicates,
            self.text,
            self.constructed,
            self.skipped,
            self.patchable,
        ]
    }
}

/// Runs `updates` in `batch`-sized batches through every strategy and
/// asserts, after registration and after every batch, that each view
/// serializes exactly like the deep-copy oracle on the engine's current
/// document.
fn assert_views_match_deep_copy_oracle(
    label: &str,
    dtd: &Dtd,
    doc: Tree,
    views: &OracleViews,
    updates: &[Update],
    batch: usize,
) {
    let queries: Vec<Query> = views
        .all()
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect();
    let batches = updates.chunks(batch).count();
    // Each role must hold on the initial document, or the case pins nothing.
    assert!(
        evaluate(&doc, &queries[0]).1.is_empty(),
        "{label}: empty view"
    );
    let (_, mut dup) = evaluate(&doc, &queries[1]);
    let returned = dup.len();
    dup.sort_unstable();
    dup.dedup();
    assert!(
        dup.len() < returned,
        "{label}: duplicates view repeats no node"
    );
    let (store, text) = evaluate(&doc, &queries[2]);
    assert!(
        !text.is_empty() && text.iter().all(|&n| store.is_text(n)),
        "{label}: text view"
    );
    let (_, constructed) = evaluate(&doc, &queries[3]);
    assert!(
        constructed.iter().any(|n| n.index() >= doc.store.len()),
        "{label}: constructed view"
    );
    assert!(
        !evaluate(&doc, &queries[4]).1.is_empty(),
        "{label}: skipped view"
    );
    for strategy in STRATEGIES {
        let mut eng = MaintenanceEngine::new(dtd, doc.clone(), strategy, Jobs::Fixed(2));
        for (i, q) in queries.iter().enumerate() {
            eng.register_view(&format!("v{i}"), q).unwrap();
        }
        let check = |eng: &MaintenanceEngine<Dtd>, when: &str| {
            let oracle: Vec<String> = queries
                .iter()
                .map(|q| deep_copy_oracle(eng.doc(), q))
                .collect();
            assert_eq!(
                eng.serialized_views(),
                oracle,
                "{label}: {strategy:?} views differ from the deep-copy oracle {when}"
            );
        };
        check(&eng, "after registration");
        let initial_skipped = eng.views()[4].serialized();
        let doc_before = serialize_node(&eng.doc().store, eng.doc().root);
        for (bi, chunk) in updates.chunks(batch).enumerate() {
            eng.apply_batch(chunk).unwrap();
            check(&eng, &format!("after batch {bi}"));
        }
        assert_ne!(
            serialize_node(&eng.doc().store, eng.doc().root),
            doc_before,
            "{label}: the stream must change the document"
        );
        assert_eq!(
            eng.views()[4].serialized(),
            initial_skipped,
            "{label}: the independent view keeps its content"
        );
        let totals = eng.totals();
        if strategy != MaintainStrategy::Naive {
            assert!(
                totals.skipped >= batches,
                "{label}: {strategy:?} must skip the independent view in every batch"
            );
        }
        if strategy == MaintainStrategy::Delta {
            assert!(
                totals.patched_views > 0,
                "{label}: the stream must exercise the delta patch"
            );
        }
    }
}

#[test]
fn zero_copy_views_match_the_deep_copy_oracle_on_xmark() {
    let view = |name: &str| all_views().into_iter().find(|v| v.name == name).unwrap();
    let views = OracleViews {
        empty: "/people/person/name[person]",
        // q9: the same auctions and European items once per person; UB5
        // patches the items' content.
        duplicates: view("q9").source,
        text: "for $p in /people/person return $p/name/text()",
        constructed: "for $p in /people/person return <who>{$p/name}</who>",
        skipped: "/people/person/emailaddress",
        // q20: UA7 patches the persons' content.
        patchable: view("q20").source,
    };
    assert_views_match_deep_copy_oracle(
        "xmark",
        &xmark_dtd(),
        // 10 persons, 37 closed auctions.
        xmark_document(3_000, 11),
        &views,
        &["UB5", "UA7", "UN1", "UP3"].map(|name| {
            all_updates()
                .into_iter()
                .find(|u| u.name == name)
                .unwrap()
                .update
        }),
        1,
    );
}

#[test]
fn zero_copy_views_match_the_deep_copy_oracle_on_corpus_schemas() {
    use xml_qui::schema::{generate_valid, Corpus, GenValidConfig};

    // Per corpus schema: the views and a validity-preserving update stream
    // that never touches the `skipped` view's subtrees.
    let cases = [
        (
            "catalog",
            OracleViews {
                empty: "//vendor/rating[tag]",
                duplicates: "for $p in //product return //product",
                text: "//product/name/text()",
                constructed: "for $p in //product return <entry>{$p/sku}</entry>",
                skipped: "//vendor",
                patchable: "//product",
            },
            &[
                "delete //product/stock",
                "for $p in //product return insert <tag>new</tag> into $p",
                "delete //product/tag",
                "for $p in //product return insert <tag>again</tag> into $p",
                "delete //product/blurb",
            ][..],
        ),
        (
            "orgchart",
            OracleViews {
                empty: "//name[member]",
                duplicates: "for $u in //unit return //team",
                text: "//team/name/text()",
                constructed: "for $t in //team return <t>{$t/name}</t>",
                skipped: "//head",
                // Child steps only: the recursive `unit` makes the chains of
                // `//team` coarse, and the classifier never finds it
                // patchable under this stream.
                patchable: "/unit/team",
            },
            &[
                "delete /unit/team/member",
                "delete //team/member",
                "for $t in //team return insert <member><name>n</name></member> into $t",
                "for $t in //team return insert <member><name>m</name></member> into $t",
                "delete /unit/team/member",
            ][..],
        ),
    ];
    let corpus = Corpus::fixtures();
    for (name, views, updates) in cases {
        let schema = corpus.iter().find(|s| s.name == name).unwrap();
        let dtd = schema.dtd();
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(300), 0x0C0F);
        let updates: Vec<Update> = updates.iter().map(|u| parse_update(u).unwrap()).collect();
        assert_views_match_deep_copy_oracle(name, &dtd, doc, &views, &updates, 2);
    }
}
