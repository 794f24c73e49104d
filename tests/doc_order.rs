//! Pins the *order* of step results, not just their sets.
//!
//! The evaluator sorts a multi-node step through one rank table per
//! evaluation (`DocOrder`) and skips the sort for a single context node.
//! This suite checks both against the sort they replaced, kept here as the
//! oracle: every tree touched is ranked by a fresh preorder walk into a
//! `HashMap`, and nodes are keyed by (root of their tree, preorder rank).
//! Results must be equal as `Vec`s — same nodes, same order, no duplicates
//! — for multi-node `let`-bound contexts, every axis (reverse ones too),
//! contexts with duplicates and contexts spread over constructed trees.

use std::collections::HashMap;

use xml_qui::schema::{generate_valid, Corpus, GenValidConfig};
use xml_qui::workloads::xmark_document;
use xml_qui::xmlstore::{parse_xml, NodeId, Store, Tree};
use xml_qui::xquery::{evaluate_query, parse_query, Axis};

/// Each location's (tree root, preorder rank), filled one tree at a time.
type Ranks = HashMap<NodeId, (NodeId, usize)>;

/// The replaced sort: document order by (tree root, preorder rank), each
/// tree ranked by a whole-tree walk. `order` may be shared between sorts
/// over the same unchanged store.
fn oracle_sort(order: &mut Ranks, store: &Store, nodes: &mut Vec<NodeId>) {
    for &n in nodes.iter() {
        if order.contains_key(&n) {
            continue;
        }
        let mut root = n;
        while let Some(p) = store.parent(root) {
            root = p;
        }
        for (rank, d) in store.descendants_or_self(root).into_iter().enumerate() {
            order.insert(d, (root, rank));
        }
    }
    nodes.sort_by_key(|n| order[n]);
    nodes.dedup();
}

/// The nodes on `axis` from `ctx`, straight from the store's navigation
/// primitives (order does not matter: the oracle sorts).
fn axis_nodes(store: &Store, ctx: NodeId, axis: Axis) -> Vec<NodeId> {
    match axis {
        Axis::SelfAxis => vec![ctx],
        Axis::Child => store.children(ctx),
        Axis::Descendant => store.descendants(ctx),
        Axis::DescendantOrSelf => store.descendants_or_self(ctx),
        Axis::Parent => store.parent(ctx).into_iter().collect(),
        Axis::Ancestor => store.ancestors(ctx),
        Axis::AncestorOrSelf => {
            let mut v = store.ancestors(ctx);
            v.push(ctx);
            v
        }
        Axis::PrecedingSibling => store.preceding_siblings(ctx),
        Axis::FollowingSibling => store.following_siblings(ctx),
    }
}

/// A node test in concrete syntax and its meaning.
fn passes(store: &Store, n: NodeId, test: &str) -> bool {
    match test {
        "node()" => true,
        "text()" => store.is_text(n),
        "*" => store.is_element(n),
        tag => store.tag(n) == Some(tag),
    }
}

/// Evaluates `query` and `context` on two copies of `doc`. Evaluation
/// allocates deterministically, so the context's locations on the second
/// copy are the ones `query` saw on the first.
fn eval_pair(doc: &Tree, query: &str, context: &str) -> (Vec<NodeId>, Tree, Vec<NodeId>) {
    let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e:?}"));
    let mut work = doc.clone();
    let root = work.root;
    let got = evaluate_query(&mut work.store, root, &q).unwrap();
    let mut oracle = doc.clone();
    let ctx = evaluate_query(&mut oracle.store, root, &parse_query(context).unwrap()).unwrap();
    (got, oracle, ctx)
}

/// The oracle's answer for one step from the context nodes `ctx`.
fn oracle_step(
    order: &mut Ranks,
    store: &Store,
    ctx: &[NodeId],
    axis: Axis,
    test: &str,
) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = ctx
        .iter()
        .flat_map(|&c| axis_nodes(store, c, axis))
        .filter(|&n| passes(store, n, test))
        .collect();
    oracle_sort(order, store, &mut nodes);
    nodes
}

/// Checks `axis::test` from `context` twice, as exact `Vec`s: once as one
/// step over the whole `let`-bound sequence (sorted, deduplicated), once
/// per context node through `for` (each step from a single node, whose
/// results are concatenated unsorted). Returns the nodes compared.
fn check_step(doc: &Tree, context: &str, axis: Axis, test: &str) -> usize {
    let q = format!("let $x := {context} return $x/{axis}::{test}");
    let (got, oracle, ctx) = eval_pair(doc, &q, context);
    let expected = oracle_step(&mut Ranks::new(), &oracle.store, &ctx, axis, test);
    assert_eq!(got, expected, "{q}");

    let q = format!("for $y in {context} return $y/{axis}::{test}");
    let (got_each, oracle, ctx) = eval_pair(doc, &q, context);
    let mut order = Ranks::new();
    let expected: Vec<NodeId> = ctx
        .iter()
        .flat_map(|&c| oracle_step(&mut order, &oracle.store, &[c], axis, test))
        .collect();
    assert_eq!(got_each, expected, "{q}");
    got.len() + got_each.len()
}

/// Runs every axis and node test over a set of contexts built from two of
/// the document's labels; returns the number of nodes compared.
fn check_document(doc: &Tree, l1: &str, l2: &str) -> usize {
    let contexts = [
        // One context node.
        "$root".to_string(),
        format!("<w>{{//{l1}}}</w>"),
        // Multi-node contexts, in document order and interleaved.
        "//node()".to_string(),
        format!("(//{l2}, //{l1})"),
        // Duplicates.
        format!("(//{l1}, //{l2}, //{l1}, //{l2}//node())"),
        // Constructed trees beside the document, and nodes inside them.
        format!(
            "(let $w := <w>{{//{l1}}}</w> return $w//node(), //{l2}, <v>{{(//{l2}, //{l1})}}</v>)"
        ),
        format!(
            "let $c := (<v>{{//{l2}}}</v>, <w>{{//{l1}}}</w>) return $c/descendant-or-self::node()"
        ),
    ];
    let tests = ["node()", "*", "text()", l1, "never-interned"];
    let mut compared = 0;
    for context in &contexts {
        for axis in Axis::all() {
            for test in tests {
                compared += check_step(doc, context, axis, test);
            }
        }
    }
    compared
}

#[test]
fn steps_match_the_oracle_order_on_a_handwritten_document() {
    let doc = parse_xml("<r><a><d>x</d><e/><a><d>y</d></a></a><b><d>z</d></b><b/><a><e/>t</a></r>")
        .unwrap();
    assert!(check_document(&doc, "a", "d") > 0);
    assert!(check_document(&doc, "d", "b") > 0);
}

#[test]
fn steps_match_the_oracle_order_on_corpus_documents() {
    for (i, schema) in Corpus::seeded(0x0D0C, 2).iter().enumerate() {
        let dtd = schema.dtd();
        let labels = schema.labels();
        let doc = generate_valid(&dtd, &GenValidConfig::with_target(120), 0x5EED + i as u64);
        // The start label and one from the middle of the alphabet.
        let (l1, l2) = (&labels[0], &labels[labels.len() / 2]);
        assert!(check_document(&doc, l1, l2) > 0, "{}", schema.name);
    }
}

#[test]
fn steps_match_the_oracle_order_on_an_xmark_document() {
    let doc = xmark_document(1_500, 7);
    assert!(check_document(&doc, "item", "name") > 0);
}
