//! `matrix-cold`: the paper's Fig. 3a workload. The 36 XMark views and 31
//! updates are registered in a fresh `AnalysisSession` with one
//! `add_workload` call per iteration, by one closed-loop caller. The seed
//! permutes the registration order of views and updates.

use crate::analysis::{replay, ExplicitOrder};
use crate::report::{median, ms, peak_rss_mb, tail, Outcome};
use crate::trace::Tracer;
use crate::{Layers, Rng, Run};
use qui_core::{AnalysisSession, AnalyzerConfig, Jobs, SessionBuilder, SessionStats};
use qui_schema::Dtd;
use qui_workloads::updates::UPDATE_SOURCES;
use qui_workloads::views::VIEW_SOURCES;
use qui_workloads::xmark_dtd;
use qui_xquery::{parse_query, parse_update, Query, Update};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The committed expected verdict matrix (see `--write-expected`).
const EXPECTED: &str = include_str!("../expected/xmark_matrix.txt");

/// Set-ups timed after each build; `setup_s` is the median over the run.
/// Parsing takes a fraction of a millisecond, and its speed on this host
/// shifts by a third within a tenth of a second, so the samples are spread
/// over the whole window instead of taken back to back.
const SETUPS_PER_BUILD: usize = 5;

type Workload = (Vec<(String, Query)>, Vec<(String, Update)>);

/// Parses the 67 expressions (the workload's set-up).
fn parse_workload() -> Workload {
    let views = VIEW_SOURCES
        .iter()
        .map(|(n, s)| (n.to_string(), parse_query(s).expect("view parses")))
        .collect();
    let updates = UPDATE_SOURCES
        .iter()
        .map(|(n, s)| (n.to_string(), parse_update(s).expect("update parses")))
        .collect();
    (views, updates)
}

/// The workload in the seed's registration order.
fn permuted(workload: &Workload, seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut views = workload.0.clone();
    let mut updates = workload.1.clone();
    rng.shuffle(&mut views);
    rng.shuffle(&mut updates);
    (views, updates)
}

/// Builds a fresh session over the workload.
fn build<'a>(dtd: &'a Dtd, workload: &Workload, jobs: usize) -> AnalysisSession<'a, Dtd> {
    let mut session = SessionBuilder::new(dtd).jobs(Jobs::Fixed(jobs)).build();
    session.add_workload(workload.0.iter().cloned(), workload.1.iter().cloned());
    session
}

/// Independence flag per `(update, view)` name.
fn flags(session: &AnalysisSession<'_, Dtd>) -> HashMap<(String, String), bool> {
    let views: Vec<&str> = session.views().map(|(n, _)| n).collect();
    let mut out = HashMap::new();
    for (ui, (u, _)) in session.updates().enumerate() {
        for (vi, v) in views.iter().enumerate() {
            out.insert(
                (u.to_string(), v.to_string()),
                session.verdict(ui, vi).is_independent(),
            );
        }
    }
    out
}

/// The committed expected matrix, by `(update, view)` name.
pub fn expected() -> HashMap<(String, String), bool> {
    let mut lines = EXPECTED.lines().filter(|l| !l.starts_with('#'));
    let views: Vec<&str> = lines
        .next()
        .and_then(|h| h.strip_prefix("views "))
        .expect("expected matrix header")
        .split_whitespace()
        .collect();
    let mut out = HashMap::new();
    for line in lines {
        let (update, row) = line.split_once(' ').expect("expected matrix row");
        for (v, c) in views.iter().zip(row.trim().chars()) {
            out.insert((update.to_string(), v.to_string()), c == '1');
        }
    }
    out
}

/// Cells whose verdict differs from the expected matrix (missing cells
/// included).
fn mismatches(
    got: &HashMap<(String, String), bool>,
    want: &HashMap<(String, String), bool>,
) -> usize {
    want.iter().filter(|(k, v)| got.get(*k) != Some(v)).count() + got.len().abs_diff(want.len())
}

/// The counts that must repeat exactly across iterations, seeds and worker
/// counts.
fn counts(s: &SessionStats, independent: usize) -> [(&'static str, usize); 4] {
    [
        ("cdag.inferences", s.cdag_inferences),
        ("explicit.inferences", s.explicit_inferences),
        ("conflict.cells", s.cells_computed),
        ("independent cells", independent),
    ]
}

fn guard_counts(out: &mut Outcome, want: &[(&'static str, usize); 4], got: &[(&str, usize); 4]) {
    for ((name, w), (_, g)) in want.iter().zip(got) {
        out.guard_eq(name, *w, *g);
    }
}

pub fn run(run: &Run) -> (Outcome, Layers) {
    let mut out = Outcome::new();
    let mut layers = Layers::default();
    let dtd = xmark_dtd();
    let want = expected();

    let mut setup = Vec::new();
    let mut time_setup = || {
        for _ in 0..SETUPS_PER_BUILD {
            let start = Instant::now();
            std::hint::black_box(parse_workload());
            setup.push(start.elapsed().as_secs_f64());
        }
    };
    let workload = permuted(&parse_workload(), run.seed);
    let cells = workload.0.len() * workload.1.len();

    // Warm-up build: page faults and allocator growth, checked but untimed.
    let first = build(&dtd, &workload, run.nproc);
    let first_flags = flags(&first);
    let reference = counts(&first.stats(), first.independent_count());
    drop(first);
    if mismatches(&first_flags, &want) > 0 {
        out.fail("warm-up matrix differs from the expected matrix");
    }
    out.note(format!(
        "matrix-cold: {} views x {} updates = {cells} cells, {} independent, workers {}, seed {}",
        workload.0.len(),
        workload.1.len(),
        reference[3].1,
        run.nproc,
        run.seed
    ));

    if run.trace {
        time_setup();
        trace(run, &dtd, &workload, &reference, &mut out, &mut layers);
        layers.set("xquery.parse_ms", median(&setup) * 1e3);
        return (out, layers);
    }

    let mut lat_ms = Vec::new();
    let mut peak_rss = 0.0;
    let window = Instant::now();
    while lat_ms.len() < 3 || window.elapsed() < Duration::from_secs(run.seconds) {
        let start = Instant::now();
        let session = build(&dtd, &workload, run.nproc);
        lat_ms.push(ms(start.elapsed()));
        let bad = mismatches(&flags(&session), &want);
        out.attempted += cells;
        out.failed += bad;
        if bad > 0 {
            out.fail(format!("{bad} verdicts differ from the expected matrix"));
        }
        guard_counts(
            &mut out,
            &reference,
            &counts(&session.stats(), session.independent_count()),
        );
        drop(session);
        if lat_ms.len() == 1 {
            // Over later builds the allocator's per-thread arenas fragment
            // differently from process to process, and the high-water mark
            // jumps by up to half at random points in the run.
            peak_rss = peak_rss_mb();
        }
        time_setup();
    }
    let p50 = median(&lat_ms);
    let (p90, q90) = tail(&lat_ms, 0.90);
    let (p99, q99) = tail(&lat_ms, 0.99);
    out.note(format!(
        "{} timed builds; p90 taken at q{q90:.3}, p99 at q{q99:.3}",
        lat_ms.len()
    ));
    out.metric("setup_s", median(&setup), "s");
    out.metric("verdicts_per_s", cells as f64 / (p50 / 1e3), "1/s");
    out.metric(
        "updates_per_s",
        workload.1.len() as f64 / (p50 / 1e3),
        "1/s",
    );
    out.metric("rps_at_slo", 1e3 / p50, "1/s");
    out.unbounded("latency_p50_ms", p50, "ms");
    out.unbounded("latency_p90_ms", p90, "ms");
    out.unbounded("latency_p99_ms", p99, "ms");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    (out, layers)
}

/// The traced run: one build at one worker timed as the session's wall
/// time, the same cells replayed layer by layer, the exact-count guards
/// across worker counts and seeds, and the tracing overhead.
fn trace(
    run: &Run,
    dtd: &Dtd,
    workload: &Workload,
    reference: &[(&'static str, usize); 4],
    out: &mut Outcome,
    layers: &mut Layers,
) {
    let mut t = Tracer::new();
    let span = t.begin("session.build");
    let session = build(dtd, workload, 1);
    t.end(span);
    let session_ms = t.total_ms("session.build");
    let stats = session.stats();
    guard_counts(out, reference, &counts(&stats, session.independent_count()));
    let other_seed = build(dtd, &permuted(workload, run.seed ^ 0x5eed), run.nproc);
    guard_counts(
        out,
        reference,
        &counts(&other_seed.stats(), other_seed.independent_count()),
    );
    drop(other_seed);

    let mut cells = Vec::new();
    let mut expected_flags = Vec::new();
    for (ui, (_, u)) in session.updates().enumerate() {
        for (vi, (_, q)) in session.views().enumerate() {
            cells.push((q, u));
            expected_flags.push(session.verdict(ui, vi).is_independent());
        }
    }
    let replayed = replay(
        dtd,
        &AnalyzerConfig::default(),
        &cells,
        ExplicitOrder::Bulk,
        &mut t,
    );
    out.attempted += cells.len();
    let bad = replayed
        .iter()
        .zip(&expected_flags)
        .filter(|(a, b)| a != b)
        .count();
    out.failed += bad;
    if bad > 0 {
        out.fail(format!("{bad} replayed verdicts differ from the session"));
    }
    out.guard_eq(
        "explicit.inferences (replay vs session)",
        stats.explicit_inferences,
        t.counted("explicit.inferences") as usize,
    );

    // Tracing overhead: the same build with and without its span.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        drop(build(dtd, workload, run.nproc));
        plain.push(ms(start.elapsed()));
        let start = Instant::now();
        let id = t.begin("session.build.traced");
        drop(build(dtd, workload, run.nproc));
        t.end(id);
        traced.push(ms(start.elapsed()));
    }

    let layer_ms = ["cdag.infer", "explicit.infer", "conflict.check"]
        .iter()
        .map(|n| t.self_ms(n))
        .sum::<f64>();
    layers.set("cdag.infer_ms", t.self_ms("cdag.infer"));
    layers.set(
        "cdag.replay_inferences",
        t.counted("cdag.replay_inferences"),
    );
    layers.set("cdag.inferences", stats.cdag_inferences as f64);
    layers.set("cdag.cache_hits", stats.cdag_cache_hits as f64);
    layers.set("explicit.infer_ms", t.self_ms("explicit.infer"));
    layers.set("explicit.inferences", t.counted("explicit.inferences"));
    layers.set("explicit.overflows", t.counted("explicit.overflows"));
    layers.set("conflict.check_ms", t.self_ms("conflict.check"));
    layers.set("conflict.cells", t.counted("conflict.cells"));
    layers.set("session.unattributed_ms", session_ms - layer_ms);
    layers.set("trace.overhead_ms", median(&traced) - median(&plain));
    out.note(format!(
        "session build at 1 worker {session_ms:.1} ms; replayed layers {layer_ms:.1} ms"
    ));
}

/// Writes the expected matrix after checking it against the dynamic
/// ground truth: no cell may claim independence where a generated XMark
/// instance shows the view changing under the update.
pub fn write_expected(path: &str) {
    let dtd = xmark_dtd();
    let session = build(&dtd, &parse_workload(), 1);
    let got = flags(&session);
    let truth = qui_workloads::ground_truth_matrix(
        &qui_workloads::all_views(),
        &qui_workloads::all_updates(),
        4_000,
        &[1, 2, 3],
    );
    let unsound: Vec<_> = got
        .iter()
        .filter(|(cell, independent)| **independent && truth.get(*cell) == Some(&false))
        .map(|(cell, _)| cell.clone())
        .collect();
    assert!(unsound.is_empty(), "unsound cells: {unsound:?}");
    let views: Vec<&str> = VIEW_SOURCES.iter().map(|(n, _)| *n).collect();
    let mut text = String::from(
        "# The expected 36 x 31 XMark verdict matrix: one row per update, one\n\
         # column per view (header order); 1 = independent. Checked against the\n\
         # dynamic ground truth (4000-node documents, seeds 1-3) when written.\n",
    );
    text += &format!("views {}\n", views.join(" "));
    for (u, _) in UPDATE_SOURCES {
        let row: String = views
            .iter()
            .map(|v| {
                if got[&(u.to_string(), v.to_string())] {
                    '1'
                } else {
                    '0'
                }
            })
            .collect();
        text += &format!("{u} {row}\n");
    }
    std::fs::write(path, text).expect("write expected matrix");
    println!(
        "wrote {path}: {} independent of {} cells, sound against the ground truth",
        session.independent_count(),
        got.len()
    );
}
