//! # qui-traffic — multi-tenant traffic over the schema corpus
//!
//! Every analysis result in this repository was originally demonstrated
//! against one schema (XMark) and one curated workload. This crate supplies
//! the missing scenario diversity: a [`TrafficSim`] drives many simulated
//! tenants — each with its own view set and a [`TieredSession`] front —
//! over a shared-schema [`SessionRegistry`] loaded with the
//! [`Corpus`] of heterogeneous schemas, issuing mixed
//! check / edit / batch / maintain operations from seeded Zipf-ish
//! distributions.
//!
//! Two transports share one op-stream model:
//!
//! * **in-process** — ops hit the [`SharedSession`] directly; checks go
//!   through the tiered front (CDAG verdict now, explicit-witness upgrade
//!   at the next maintain), so the run measures `upgrade_exactness`;
//! * **HTTP** — the same streams are replayed against a live `qui serve`
//!   daemon over keep-alive connections, measuring the full socket + JSON
//!   protocol round trip.
//!
//! **Determinism:** all randomness is split off the run seed before any
//! session work starts ([`ops`]), so op streams and every op-derived
//! counter — op kind totals, fast independent/dependent splits, upgrade
//! and confirmation counts, the [`stream digest`](ops::stream_digest) —
//! are bit-identical across `jobs ∈ {1, 2, 8}`. Timing-derived fields
//! (throughput, percentiles, fairness) are the only ones that vary.

pub mod http;
pub mod ops;

use crate::ops::{schema_pools, stream_digest, tenant_plan, Op, SchemaPools, TenantPlan};
use qui_core::parallel::Jobs;
use qui_core::{AnalyzerConfig, Request, Response, SessionRegistry, SharedSession, TieredSession};
use qui_schema::{Corpus, CorpusSchema, Dtd};
use qui_xquery::{parse_query, parse_update, Query, Update};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulation shape. Defaults are the perf-harness scale: hundreds of
/// tenants is enough to exercise every schema and op kind while staying in
/// CI budget; `qui traffic` exposes all of it on the command line.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Simulated tenants.
    pub tenants: usize,
    /// Ops issued per tenant.
    pub ops_per_tenant: usize,
    /// Corpus size: the five fixtures plus `schemas - 5` generated schemas
    /// (truncated to the fixtures when smaller).
    pub schemas: usize,
    /// Run seed — printed on start, embedded in the report, replays the run.
    pub seed: u64,
    /// Client worker threads (op streams are identical whatever the count).
    pub jobs: usize,
    /// Replay over HTTP against a live daemon instead of in-process.
    pub http: bool,
    /// Query-pool size per schema.
    pub queries_per_schema: usize,
    /// Update-pool size per schema.
    pub updates_per_schema: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            tenants: 400,
            ops_per_tenant: 25,
            schemas: 8,
            seed: 42,
            jobs: 1,
            http: false,
            queries_per_schema: 12,
            updates_per_schema: 10,
        }
    }
}

/// Everything one run measured. Op-derived counters are deterministic per
/// seed; timing fields (`wall_ms` onward) are machine-dependent.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// The seed that replays this run.
    pub seed: u64,
    /// `"in-process"` or `"http"`.
    pub mode: String,
    /// Tenants driven.
    pub tenants: usize,
    /// Corpus schemas registered.
    pub schemas: usize,
    /// Client worker threads.
    pub jobs: usize,
    /// Ops executed (sum over tenants).
    pub ops_total: usize,
    /// FNV-1a fingerprint of every tenant's canonical op stream.
    pub stream_digest: u64,
    /// Tiered check ops.
    pub checks: usize,
    /// View adds + drops.
    pub edits: usize,
    /// Batch round trips (each carrying several checks).
    pub batches: usize,
    /// Check ops carried inside batches.
    pub batch_ops: usize,
    /// Maintain (upgrade-drain) ops.
    pub maintains: usize,
    /// Protocol errors observed (must be 0).
    pub errors: usize,
    /// Fast-tier verdicts that were independent.
    pub fast_independent: usize,
    /// Fast-tier verdicts that were dependent (upgrade may retract these).
    pub fast_dependent: usize,
    /// Explicit-witness upgrades completed (maintain ops + final drain).
    pub upgrades: usize,
    /// Upgrades that confirmed their fast answer.
    pub confirmed: usize,
    /// `confirmed / upgrades` (1.0 when nothing upgraded — HTTP mode).
    pub upgrade_exactness: f64,
    /// Session-cache hit rate over all schema sessions
    /// (in-process mode; 0 over HTTP where stats stay in the daemon).
    pub cache_hit_rate: f64,
    /// Wall time of the op-execution window.
    pub wall_ms: f64,
    /// `ops_total / wall`.
    pub ops_per_sec: f64,
    /// Median per-op latency (microseconds).
    pub p50_us: f64,
    /// 99th-percentile per-op latency.
    pub p99_us: f64,
    /// 99.9th-percentile per-op latency.
    pub p999_us: f64,
    /// Jain fairness index over per-tenant mean latencies (1.0 = perfectly
    /// even service).
    pub fairness: f64,
}

impl TrafficReport {
    /// The op-derived counters as one comparable string — equal across
    /// `jobs ∈ {1, 2, 8}` for the same seed, which the perf harness and the
    /// determinism tests assert.
    pub fn determinism_key(&self) -> String {
        format!(
            "seed={} digest={:016x} ops={} checks={} edits={} batches={} batch_ops={} \
             maintains={} errors={} fast_ind={} fast_dep={} upgrades={} confirmed={}",
            self.seed,
            self.stream_digest,
            self.ops_total,
            self.checks,
            self.edits,
            self.batches,
            self.batch_ops,
            self.maintains,
            self.errors,
            self.fast_independent,
            self.fast_dependent,
            self.upgrades,
            self.confirmed
        )
    }

    /// Pretty-printed JSON (hand-rolled: the workspace is dependency-free
    /// by construction). The digest is a string — JSON numbers cannot carry
    /// 64 bits exactly.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(s, "  \"tenants\": {},", self.tenants);
        let _ = writeln!(s, "  \"schemas\": {},", self.schemas);
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"ops_total\": {},", self.ops_total);
        let _ = writeln!(s, "  \"stream_digest\": \"{:016x}\",", self.stream_digest);
        let _ = writeln!(s, "  \"checks\": {},", self.checks);
        let _ = writeln!(s, "  \"edits\": {},", self.edits);
        let _ = writeln!(s, "  \"batches\": {},", self.batches);
        let _ = writeln!(s, "  \"batch_ops\": {},", self.batch_ops);
        let _ = writeln!(s, "  \"maintains\": {},", self.maintains);
        let _ = writeln!(s, "  \"errors\": {},", self.errors);
        let _ = writeln!(s, "  \"fast_independent\": {},", self.fast_independent);
        let _ = writeln!(s, "  \"fast_dependent\": {},", self.fast_dependent);
        let _ = writeln!(s, "  \"upgrades\": {},", self.upgrades);
        let _ = writeln!(s, "  \"confirmed\": {},", self.confirmed);
        let _ = writeln!(s, "  \"upgrade_exactness\": {:.4},", self.upgrade_exactness);
        let _ = writeln!(s, "  \"cache_hit_rate\": {:.4},", self.cache_hit_rate);
        let _ = writeln!(s, "  \"wall_ms\": {:.3},", self.wall_ms);
        let _ = writeln!(s, "  \"ops_per_sec\": {:.1},", self.ops_per_sec);
        let _ = writeln!(s, "  \"p50_us\": {:.1},", self.p50_us);
        let _ = writeln!(s, "  \"p99_us\": {:.1},", self.p99_us);
        let _ = writeln!(s, "  \"p999_us\": {:.1},", self.p999_us);
        let _ = writeln!(s, "  \"fairness\": {:.4}", self.fairness);
        let _ = writeln!(s, "}}");
        s
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "traffic — seed {} ({}), {} tenants x {} ops over {} schemas, {} jobs",
            self.seed,
            self.mode,
            self.tenants,
            self.ops_total.checked_div(self.tenants).unwrap_or(0),
            self.schemas,
            self.jobs
        );
        let _ = writeln!(s, "stream digest : {:016x}", self.stream_digest);
        let _ = writeln!(
            s,
            "ops           : {} total = {} checks + {} edits + {} batches ({} ops) + {} maintains, {} errors",
            self.ops_total, self.checks, self.edits, self.batches, self.batch_ops, self.maintains,
            self.errors
        );
        let _ = writeln!(
            s,
            "tiered        : {} independent / {} dependent fast answers; {}/{} upgrades confirmed — exactness {:.3}",
            self.fast_independent,
            self.fast_dependent,
            self.confirmed,
            self.upgrades,
            self.upgrade_exactness
        );
        let _ = writeln!(
            s,
            "throughput    : {:.0} ops/s over {:.1} ms (cache hit rate {:.2})",
            self.ops_per_sec, self.wall_ms, self.cache_hit_rate
        );
        let _ = writeln!(
            s,
            "latency       : p50 {:.1} us, p99 {:.1} us, p999 {:.1} us; fairness {:.3}",
            self.p50_us, self.p99_us, self.p999_us, self.fairness
        );
        s
    }
}

/// Per-tenant execution outcome fed back to the aggregator.
#[derive(Clone, Debug, Default)]
struct TenantOutcome {
    latencies_us: Vec<f64>,
    checks: usize,
    edits: usize,
    batches: usize,
    batch_ops: usize,
    maintains: usize,
    errors: usize,
    fast_independent: usize,
    fast_dependent: usize,
    upgrades: usize,
    confirmed: usize,
}

/// Per-schema material shared by every tenant on that schema.
struct SchemaRuntime {
    name: String,
    shared: Arc<SharedSession<'static, Dtd>>,
    queries: Vec<Query>,
    updates: Vec<Update>,
    pools: SchemaPools,
}

/// The simulator. Construct with a [`TrafficConfig`], then [`run`](Self::run).
pub struct TrafficSim {
    config: TrafficConfig,
}

/// The p-th percentile (0..=1) of the samples, sorting them in place. The
/// sort is [`f64::total_cmp`], so a NaN sample sorts above every number
/// instead of panicking.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx.min(samples.len() - 1)]
}

/// Jain's fairness index over per-tenant mean latencies.
fn jain(means: &[f64]) -> f64 {
    if means.is_empty() {
        return 1.0;
    }
    let sum: f64 = means.iter().sum();
    let sq: f64 = means.iter().map(|m| m * m).sum();
    if sq <= f64::EPSILON {
        return 1.0;
    }
    (sum * sum) / (means.len() as f64 * sq)
}

impl TrafficSim {
    /// Builds a simulator over the given shape.
    pub fn new(config: TrafficConfig) -> TrafficSim {
        TrafficSim { config }
    }

    /// The configured shape.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// The corpus this run registers: fixtures plus generated schemas,
    /// truncated/extended to `config.schemas`.
    pub fn corpus(&self) -> Vec<CorpusSchema> {
        let want = self.config.schemas.max(1);
        let fixtures = Corpus::fixtures().len();
        Corpus::seeded(self.config.seed, want.saturating_sub(fixtures))
            .iter()
            .take(want)
            .cloned()
            .collect()
    }

    /// All tenant plans for this seed (pure — no session work).
    pub fn plans(&self) -> Vec<TenantPlan> {
        let n_schemas = self.corpus().len();
        (0..self.config.tenants)
            .map(|t| {
                tenant_plan(
                    self.config.seed,
                    t,
                    n_schemas,
                    self.config.ops_per_tenant,
                    self.config.queries_per_schema,
                    self.config.updates_per_schema,
                )
            })
            .collect()
    }

    /// Runs the simulation on the configured transport.
    pub fn run(&self) -> TrafficReport {
        let schemas = self.corpus();
        let plans = self.plans();
        let digest = stream_digest(&plans);
        let registry = Arc::new(SessionRegistry::new(
            AnalyzerConfig::default(),
            Jobs::Fixed(1),
        ));
        let mut runtimes = Vec::with_capacity(schemas.len());
        for (i, schema) in schemas.iter().enumerate() {
            registry
                .load_schema(&schema.name, &schema.source, Some(&schema.start))
                .unwrap_or_else(|e| panic!("corpus schema {} loads: {e}", schema.name));
            let pools = schema_pools(
                schema,
                self.config.seed,
                i,
                self.config.queries_per_schema,
                self.config.updates_per_schema,
            );
            let queries = pools
                .queries
                .iter()
                .map(|q| parse_query(q).unwrap_or_else(|e| panic!("{q}: {e:?}")))
                .collect();
            let updates = pools
                .updates
                .iter()
                .map(|u| parse_update(u).unwrap_or_else(|e| panic!("{u}: {e:?}")))
                .collect();
            runtimes.push(SchemaRuntime {
                name: schema.name.clone(),
                shared: registry.get(&schema.name).expect("registered schema"),
                queries,
                updates,
                pools,
            });
        }

        let (outcomes, wall_ms) = if self.config.http {
            http::run_over_http(&self.config, &registry, &runtimes, &plans)
        } else {
            self.run_in_process(&runtimes, &plans)
        };

        let mut report = aggregate(&self.config, &runtimes, digest, outcomes, wall_ms);
        report.mode = if self.config.http {
            "http"
        } else {
            "in-process"
        }
        .to_string();
        report
    }

    /// In-process transport: `jobs` worker threads, tenants assigned
    /// round-robin; each tenant gets its own [`TieredSession`] front over
    /// its schema's shared session.
    fn run_in_process(
        &self,
        runtimes: &[SchemaRuntime],
        plans: &[TenantPlan],
    ) -> (Vec<TenantOutcome>, f64) {
        let threads = self.config.jobs.max(1);
        let outcomes: Vec<Mutex<TenantOutcome>> = plans
            .iter()
            .map(|_| Mutex::new(TenantOutcome::default()))
            .collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let outcomes = &outcomes;
                scope.spawn(move || {
                    for plan in plans.iter().skip(worker).step_by(threads) {
                        let rt = &runtimes[plan.schema];
                        let outcome = run_tenant_in_process(rt, plan);
                        *outcomes[plan.tenant].lock().unwrap() = outcome;
                    }
                });
            }
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let outcomes = outcomes
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        (outcomes, wall_ms)
    }
}

/// Executes one tenant's plan against the in-process tiered front.
fn run_tenant_in_process(rt: &SchemaRuntime, plan: &TenantPlan) -> TenantOutcome {
    let tiered = TieredSession::new(Arc::clone(&rt.shared));
    let mut out = TenantOutcome::default();
    for op in &plan.ops {
        let begin = Instant::now();
        match op {
            Op::Check { query, update } => {
                let v = tiered.check_fast(&rt.queries[*query], &rt.updates[*update]);
                out.checks += 1;
                if v.is_independent() {
                    out.fast_independent += 1;
                } else {
                    out.fast_dependent += 1;
                }
            }
            Op::AddView { name, query } => {
                let resp = rt.shared.handle(&Request::AddView {
                    name: Some(name.clone()),
                    expr: rt.pools.queries[*query].clone(),
                });
                out.edits += 1;
                if matches!(resp, Response::Error { .. }) {
                    out.errors += 1;
                }
            }
            Op::Drop { name } => {
                let resp = rt.shared.handle(&Request::Drop { name: name.clone() });
                out.edits += 1;
                if matches!(resp, Response::Error { .. }) {
                    out.errors += 1;
                }
            }
            Op::Batch { pairs } => {
                let ops = pairs
                    .iter()
                    .map(|(q, u)| Request::Check {
                        query: rt.pools.queries[*q].clone(),
                        update: rt.pools.updates[*u].clone(),
                    })
                    .collect();
                let resp = rt.shared.handle(&Request::Batch(ops));
                out.batches += 1;
                out.batch_ops += pairs.len();
                if matches!(resp, Response::Error { .. }) {
                    out.errors += 1;
                }
            }
            Op::Maintain => {
                let drain = tiered.drain_upgrades();
                out.maintains += 1;
                out.upgrades += drain.upgraded;
                out.confirmed += drain.confirmed;
            }
        }
        out.latencies_us.push(begin.elapsed().as_secs_f64() * 1e6);
    }
    // Leftover upgrades drain outside the per-op timing but inside the
    // deterministic counters: every fast answer ends up upgraded.
    let drain = tiered.drain_upgrades();
    out.upgrades += drain.upgraded;
    out.confirmed += drain.confirmed;
    out
}

/// Folds per-tenant outcomes into the report.
fn aggregate(
    config: &TrafficConfig,
    runtimes: &[SchemaRuntime],
    digest: u64,
    outcomes: Vec<TenantOutcome>,
    wall_ms: f64,
) -> TrafficReport {
    let mut all_latencies = Vec::new();
    let mut means = Vec::new();
    let mut totals = TenantOutcome::default();
    for o in &outcomes {
        if !o.latencies_us.is_empty() {
            means.push(o.latencies_us.iter().sum::<f64>() / o.latencies_us.len() as f64);
        }
        all_latencies.extend_from_slice(&o.latencies_us);
        totals.checks += o.checks;
        totals.edits += o.edits;
        totals.batches += o.batches;
        totals.batch_ops += o.batch_ops;
        totals.maintains += o.maintains;
        totals.errors += o.errors;
        totals.fast_independent += o.fast_independent;
        totals.fast_dependent += o.fast_dependent;
        totals.upgrades += o.upgrades;
        totals.confirmed += o.confirmed;
    }
    let ops_total = totals.checks + totals.edits + totals.batches + totals.maintains;
    // `*_inferences` counts fresh (cache-missing) inferences, so the hit
    // rate denominator is hits + misses.
    let (mut hits, mut inferences) = (0usize, 0usize);
    for rt in runtimes {
        let stats = rt.shared.with_read(|h| h.session().stats());
        hits += stats.cdag_cache_hits + stats.explicit_cache_hits;
        inferences += stats.cdag_inferences + stats.explicit_inferences;
    }
    let lookups = hits + inferences;
    let upgrade_exactness = if totals.upgrades == 0 {
        1.0
    } else {
        totals.confirmed as f64 / totals.upgrades as f64
    };
    TrafficReport {
        seed: config.seed,
        mode: String::new(),
        tenants: config.tenants,
        schemas: runtimes.len(),
        jobs: config.jobs.max(1),
        ops_total,
        stream_digest: digest,
        checks: totals.checks,
        edits: totals.edits,
        batches: totals.batches,
        batch_ops: totals.batch_ops,
        maintains: totals.maintains,
        errors: totals.errors,
        fast_independent: totals.fast_independent,
        fast_dependent: totals.fast_dependent,
        upgrades: totals.upgrades,
        confirmed: totals.confirmed,
        upgrade_exactness,
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        wall_ms,
        ops_per_sec: ops_total as f64 / (wall_ms / 1e3).max(f64::EPSILON),
        p50_us: percentile(&mut all_latencies.clone(), 0.5),
        p99_us: percentile(&mut all_latencies.clone(), 0.99),
        p999_us: percentile(&mut all_latencies, 0.999),
        fairness: jain(&means),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_core::Json;

    fn tiny(jobs: usize, http: bool) -> TrafficConfig {
        TrafficConfig {
            tenants: 12,
            ops_per_tenant: 10,
            schemas: 3,
            seed: 7,
            jobs,
            http,
            queries_per_schema: 6,
            updates_per_schema: 6,
        }
    }

    #[test]
    fn in_process_run_is_deterministic_across_jobs() {
        let a = TrafficSim::new(tiny(1, false)).run();
        let b = TrafficSim::new(tiny(2, false)).run();
        let c = TrafficSim::new(tiny(8, false)).run();
        assert_eq!(a.errors, 0, "{}", a.render());
        let strip_jobs = |k: &str| k.to_string(); // determinism key has no jobs field
        assert_eq!(
            strip_jobs(&a.determinism_key()),
            strip_jobs(&b.determinism_key())
        );
        assert_eq!(
            strip_jobs(&a.determinism_key()),
            strip_jobs(&c.determinism_key())
        );
        assert_eq!(a.ops_total, 12 * 10);
        // Every fast answer is eventually upgraded (maintains + final drain).
        assert_eq!(a.upgrades, a.checks);
        assert!(a.upgrade_exactness > 0.0 && a.upgrade_exactness <= 1.0);
    }

    #[test]
    fn seeds_change_the_stream() {
        let mut cfg = tiny(1, false);
        let a = TrafficSim::new(cfg.clone()).plans();
        cfg.seed = 8;
        let b = TrafficSim::new(cfg).plans();
        assert_ne!(stream_digest(&a), stream_digest(&b));
    }

    #[test]
    fn report_json_parses_and_carries_gate_fields() {
        let report = TrafficSim::new(tiny(2, false)).run();
        let json = Json::parse(&report.to_json()).expect("report JSON");
        assert_eq!(json.get("seed").and_then(Json::as_usize), Some(7));
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("in-process"));
        assert_eq!(
            json.get("stream_digest").and_then(Json::as_str),
            Some(format!("{:016x}", report.stream_digest).as_str())
        );
        assert!(json
            .get("upgrade_exactness")
            .and_then(Json::as_f64)
            .is_some());
        assert!(json.get("ops_per_sec").and_then(Json::as_f64).is_some());
        assert!(report.render().contains("exactness"));
    }

    #[test]
    fn fairness_and_percentiles_behave() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(jain(&[1.0, 0.0, 0.0]) < 0.5);
        let mut s = vec![1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&mut s, 0.5), 3.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        let mut with_nan = vec![4.0, f64::NAN, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut with_nan, 0.5), 3.0);
        assert!(percentile(&mut with_nan, 1.0).is_nan());
    }

    #[test]
    fn corpus_respects_the_schema_budget() {
        let mut cfg = tiny(1, false);
        cfg.schemas = 2;
        assert_eq!(TrafficSim::new(cfg.clone()).corpus().len(), 2);
        cfg.schemas = 7;
        let corpus = TrafficSim::new(cfg).corpus();
        assert_eq!(corpus.len(), 7);
        assert!(corpus.iter().any(|s| s.name.starts_with("gen-")));
    }

    #[test]
    fn http_run_replays_the_same_streams() {
        let inproc = TrafficSim::new(tiny(1, false)).run();
        let http = TrafficSim::new(tiny(2, true)).run();
        assert_eq!(http.mode, "http");
        assert_eq!(http.errors, 0, "{}", http.render());
        assert_eq!(http.stream_digest, inproc.stream_digest);
        assert_eq!(http.ops_total, inproc.ops_total);
        assert_eq!(http.checks, inproc.checks);
        assert_eq!(http.edits, inproc.edits);
        // HTTP checks are exact (no tiered front over the wire), so the
        // upgrade counters stay empty and exactness defaults to 1.
        assert_eq!(http.upgrades, 0);
        assert!((http.upgrade_exactness - 1.0).abs() < 1e-12);
    }
}
