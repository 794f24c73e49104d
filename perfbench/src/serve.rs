//! `serve-traffic`: multi-tenant traffic over the 8-schema corpus, sent
//! open-loop at fixed offered rates to a live `qui_core::Server` on
//! 127.0.0.1.
//!
//! The op streams come from `qui_traffic::ops` (`tenant_plan`,
//! `schema_pools`), so a seed replays exactly. Tenants are interleaved
//! round-robin into one request stream; each tenant is pinned to one
//! keep-alive connection so its edits stay in order. Request `j` of a
//! phase is due `j / rate` seconds after the phase starts, and its latency
//! counts from that due time.
//!
//! A run is one reference phase at `REF_RATE` (the latency metrics) and
//! then the ladder `LADDER`, climbed until a step misses the p99 limit or
//! its backlog grows and the retry budget is spent. The stream continues
//! across phases, so the session caches warm as the run goes while the
//! large pools keep supplying misses. Replies are checked once the daemon
//! has stopped.

use crate::analysis::{replay, ExplicitOrder};
use crate::client::{get, post, Client};
use crate::report::{median, ms, peak_rss_mb, quantile, tail, Outcome};
use crate::trace::Tracer;
use crate::{Layers, Run};
use qui_core::{
    AnalysisSession, AnalyzerConfig, Jobs, Json, Request, ServeConfig, Server, SessionBuilder,
    SessionRegistry,
};
use qui_schema::{Corpus, CorpusSchema, Dtd};
use qui_traffic::ops::{schema_pools, stream_digest, tenant_plan, Op, SchemaPools, TenantPlan};
use qui_xquery::{parse_query, parse_update, Query, Update};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Corpus size: the five fixtures plus three generated schemas.
const SCHEMAS: usize = 8;
/// Seed of the generated schemas and the query/update pools. It is fixed,
/// so every run sees the same expression population; `--seed` drives the
/// tenant plans (schema choice, op mix, pool picks and their order).
const POPULATION_SEED: u64 = 42;
/// Simulated tenants, interleaved round-robin.
const TENANTS: usize = 500;
/// Query pool size per schema.
const POOL_QUERIES: usize = 4000;
/// Update pool size per schema.
const POOL_UPDATES: usize = 4000;
/// Offered rate of the reference phase, requests/s.
const REF_RATE: f64 = 4000.0;
/// The offered-rate ladder, requests/s. Its top sits below the knee this
/// 2-core box reaches (17 500 to 28 000 requests/s from run to run, with
/// the pipelined client), so every run climbs it whole and `rps_at_slo`
/// reads steadily; a change that costs more than a quarter of the daemon's
/// capacity misses a step.
const LADDER: [f64; 7] = [2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0];
/// The p99 latency limit of a ladder step, ms.
const LIMIT_MS: f64 = 100.0;
/// A step whose median latency over its last tenth exceeds this (ms) has
/// a growing backlog.
const BACKLOG_MS: f64 = 10.0;
/// Requests per window of the reference phase: each latency percentile is
/// the median of its per-window values (a p99 keeps ten samples beyond).
const WINDOW: usize = 1000;
/// At the reference rate, a request answered later than this after it fell
/// due (ms) counts as failed. It sits well above `LIMIT_MS`: host stalls
/// on a shared machine reach a few hundred milliseconds, and a request
/// they delay has not failed.
const DEADLINE_MS: f64 = 1000.0;
/// Share of `--seconds` spent in the reference phase.
const REF_SHARE: f64 = 0.5;
/// Retries of missed ladder steps, shared by the whole climb. Host episodes
/// of a few seconds cut the daemon's capacity below the lowest steps; a
/// step that misses is tried again until the budget runs out, so an
/// episode must outlast several steps to end the climb, while an overload
/// that persists misses every try.
const LADDER_RETRIES: usize = 4;
/// Set-ups before the first phase. One more is timed after every phase,
/// and `setup_s` is the median of all of them.
const SETUP_REPS: usize = 11;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Check,
    Batch,
    Edit,
    Stats,
}

/// One request of the stream.
struct Req {
    /// Connection (the tenant's, `tenant % nproc`).
    conn: usize,
    schema: usize,
    kind: Kind,
    wire: Vec<u8>,
    /// Checked `(query, update)` pool indices (checks and batches).
    pairs: Vec<(usize, usize)>,
}

struct Traffic {
    corpus: Vec<CorpusSchema>,
    pools: Vec<SchemaPools>,
    reqs: Vec<Req>,
    digest: u64,
}

/// Ops per tenant plan: enough for the reference phase and a climb of the
/// whole ladder in `seconds`.
fn ops_per_tenant(seconds: u64) -> usize {
    let (ref_s, step_s) = durations(seconds);
    // The climb plus every retry spent on the top step.
    let top = LADDER[LADDER.len() - 1];
    let requests =
        REF_RATE * ref_s + (LADDER.iter().sum::<f64>() + LADDER_RETRIES as f64 * top) * step_s;
    requests as usize / TENANTS + 2
}

/// Length of the reference phase and of each ladder step, s.
fn durations(seconds: u64) -> (f64, f64) {
    let s = seconds as f64;
    (
        s * REF_SHARE,
        s * (1.0 - REF_SHARE) / (LADDER.len() + LADDER_RETRIES) as f64,
    )
}

fn plans(seed: u64, ops: usize) -> Vec<TenantPlan> {
    (0..TENANTS)
        .map(|t| tenant_plan(seed, t, SCHEMAS, ops, POOL_QUERIES, POOL_UPDATES))
        .collect()
}

/// Generates the corpus, the pools and the interleaved request stream.
fn traffic(seed: u64, ops: usize, nconn: usize) -> Traffic {
    let corpus: Vec<CorpusSchema> =
        Corpus::seeded(POPULATION_SEED, SCHEMAS - Corpus::fixtures().len())
            .iter()
            .cloned()
            .collect();
    let pools: Vec<SchemaPools> = corpus
        .iter()
        .enumerate()
        .map(|(i, s)| schema_pools(s, POPULATION_SEED, i, POOL_QUERIES, POOL_UPDATES))
        .collect();
    let plans = plans(seed, ops);
    let digest = stream_digest(&plans);
    let mut reqs = Vec::with_capacity(TENANTS * ops);
    for round in 0..ops {
        for plan in &plans {
            let pool = &pools[plan.schema];
            let check = |&(q, u): &(usize, usize)| Request::Check {
                query: pool.queries[q].clone(),
                update: pool.updates[u].clone(),
            };
            let (kind, request, pairs) = match &plan.ops[round] {
                Op::Check { query, update } => {
                    let pair = (*query, *update);
                    (Kind::Check, check(&pair), vec![pair])
                }
                Op::Batch { pairs } => (
                    Kind::Batch,
                    Request::Batch(pairs.iter().map(check).collect()),
                    pairs.clone(),
                ),
                Op::AddView { name, query } => (
                    Kind::Edit,
                    Request::AddView {
                        name: Some(name.clone()),
                        expr: pool.queries[*query].clone(),
                    },
                    Vec::new(),
                ),
                Op::Drop { name } => (Kind::Edit, Request::Drop { name: name.clone() }, Vec::new()),
                Op::Maintain => (Kind::Stats, Request::Stats, Vec::new()),
            };
            let path = format!("/sessions/{}", corpus[plan.schema].name);
            reqs.push(Req {
                conn: plan.tenant % nconn,
                schema: plan.schema,
                kind,
                wire: post(&path, &request.to_json().render()),
                pairs,
            });
        }
    }
    Traffic {
        corpus,
        pools,
        reqs,
        digest,
    }
}

impl Req {
    /// The JSON body on the wire.
    fn body(&self) -> &str {
        let wire = std::str::from_utf8(&self.wire).expect("UTF-8 request");
        wire.split_once("\r\n\r\n").expect("request head").1
    }

    /// The protocol request, decoded from the wire.
    fn request(&self) -> Request {
        Request::from_json(&Json::parse(self.body()).expect("request JSON")).expect("request")
    }
}

/// A schema as the registry parses it.
fn parse_schema(s: &CorpusSchema) -> Dtd {
    if s.source.contains("<!ELEMENT") {
        qui_schema::parse_dtd_with_attributes(&s.source, &s.start)
    } else {
        Dtd::parse_compact(&s.source, &s.start)
    }
    .expect("corpus schema parses")
}

fn registry(corpus: &[CorpusSchema], jobs: usize) -> Arc<SessionRegistry> {
    let registry = Arc::new(SessionRegistry::new(
        AnalyzerConfig::default(),
        Jobs::Fixed(jobs),
    ));
    for s in corpus {
        registry
            .load_schema(&s.name, &s.source, Some(&s.start))
            .expect("corpus schema loads");
    }
    registry
}

/// A live daemon with its warmed-up client connections.
struct Daemon {
    registry: Arc<SessionRegistry>,
    stats: Arc<qui_core::service::ServerStats>,
    addr: SocketAddr,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    handle: JoinHandle<()>,
    clients: Vec<Client>,
}

/// Loads the schemas, binds the daemon and warms up one connection per
/// worker (the set-up `setup_s` times).
fn start(corpus: &[CorpusSchema], nproc: usize) -> Daemon {
    let registry = registry(corpus, nproc);
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: nproc,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("bind daemon");
    let addr = server.local_addr().expect("daemon address");
    let shutdown = server.shutdown_handle();
    let stats = server.stats_handle();
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    let mut clients: Vec<Client> = (0..nproc)
        .map(|_| Client::connect(addr).expect("connect to daemon"))
        .collect();
    for c in &mut clients {
        let (status, _) = c.round_trip(&get("/health")).expect("health check");
        assert_eq!(status, 200, "daemon health");
    }
    Daemon {
        registry,
        stats,
        addr,
        shutdown,
        handle,
        clients,
    }
}

/// [`start`], timed into `setup_s`.
fn timed_start(corpus: &[CorpusSchema], nproc: usize, setup_s: &mut Vec<f64>) -> Daemon {
    let start_at = Instant::now();
    let daemon = start(corpus, nproc);
    setup_s.push(start_at.elapsed().as_secs_f64());
    daemon
}

impl Daemon {
    /// Closes the connections, stops the daemon and waits for it.
    fn stop(self) {
        drop(self.clients);
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.handle.join().expect("daemon thread");
    }
}

/// The timing of one request.
struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    body: String,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }

    fn round_trip_ms(&self) -> f64 {
        ms(self.done - self.sent)
    }
}

/// Most requests one connection keeps in flight; past it the sender waits
/// for replies (a step that gets here has long missed its limit).
const MAX_IN_FLIGHT: usize = 4096;
/// A connection whose oldest request waits this long for any reply is
/// treated as broken, so a hung daemon cannot hang the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Sends `reqs` open-loop at `rate` requests/s: request `j` is due `j /
/// rate` s after the start and goes out on its tenant's connection when it
/// falls due, pipelined behind any requests still in flight. Returns one
/// sample per request. With `traced`, every round trip is also recorded as
/// a span.
fn run_phase(clients: &mut [Client], reqs: &[Req], rate: f64, traced: bool) -> Vec<Sample> {
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |j: usize| t0 + Duration::from_secs_f64(j as f64 / rate);
    let mut samples: Vec<Option<Sample>> = (0..reqs.len()).map(|_| None).collect();
    let results: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    set_timer_slack();
                    let mine: Vec<usize> =
                        (0..reqs.len()).filter(|&j| reqs[j].conn == conn).collect();
                    let mut tracer = traced.then(Tracer::new);
                    let mut out = Vec::with_capacity(mine.len());
                    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
                    let (mut next, mut wire, mut replies) = (0usize, Vec::new(), Vec::new());
                    let mut last_reply = Instant::now();
                    while out.len() < mine.len() {
                        let now = Instant::now();
                        if in_flight.is_empty() {
                            last_reply = now;
                        }
                        wire.clear();
                        while next < mine.len()
                            && due(mine[next]) <= now
                            && in_flight.len() < MAX_IN_FLIGHT
                        {
                            wire.extend_from_slice(&reqs[mine[next]].wire);
                            in_flight.push_back((mine[next], now));
                            next += 1;
                        }
                        let mut broken = !wire.is_empty() && client.send(&wire).is_err();
                        if in_flight.is_empty() {
                            if let Some(&j) = mine.get(next) {
                                std::thread::sleep(due(j).saturating_duration_since(now));
                            }
                            continue;
                        }
                        let wait = match mine.get(next) {
                            Some(&j) if in_flight.len() < MAX_IN_FLIGHT => {
                                due(j).saturating_duration_since(Instant::now())
                            }
                            _ => Duration::from_millis(50),
                        };
                        replies.clear();
                        broken |= client.receive(wait, &mut replies).is_err();
                        let done = Instant::now();
                        if !replies.is_empty() {
                            last_reply = done;
                        }
                        broken |= done - last_reply > REPLY_TIMEOUT;
                        for (status, body) in replies.drain(..) {
                            let (j, sent) =
                                in_flight.pop_front().expect("a reply answers a request");
                            if let Some(t) = tracer.as_mut() {
                                t.record("http.round_trip", sent, done);
                            }
                            out.push((
                                j,
                                Sample {
                                    due: due(j),
                                    sent,
                                    done,
                                    status,
                                    body,
                                },
                            ));
                        }
                        if broken {
                            // A failed connection fails what it had in flight;
                            // the rest of the phase goes out on a fresh one.
                            for (j, sent) in in_flight.drain(..) {
                                out.push((
                                    j,
                                    Sample {
                                        due: due(j),
                                        sent,
                                        done,
                                        status: 0,
                                        body: String::new(),
                                    },
                                ));
                            }
                            *client = Client::connect(client.addr()).expect("reconnect to daemon");
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    for (j, s) in results.into_iter().flatten() {
        samples[j] = Some(s);
    }
    samples
        .into_iter()
        .map(|s| s.expect("every request sent"))
        .collect()
}

/// Sets the calling thread's timer slack to 1 ns, so its sleeps end at
/// the due time rather than up to 50 us later (the Linux default).
fn set_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Requests due but not yet answered, at its peak over the phase.
fn backlog_max(samples: &[Sample]) -> usize {
    let mut events: Vec<(Instant, i64)> = samples
        .iter()
        .flat_map(|s| [(s.due, 1), (s.done, -1)])
        .collect();
    events.sort();
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    max as usize
}

/// The summary of one phase.
struct Phase {
    rate: f64,
    n: usize,
    p50: f64,
    p99: f64,
    q99: f64,
    /// Median latency of the last tenth of the phase, ms: it climbs when
    /// the backlog grows.
    late: f64,
    /// Completed requests per second over the phase.
    achieved: f64,
    errors: usize,
    over_limit: usize,
}

impl Phase {
    fn of(rate: f64, samples: &[Sample]) -> Phase {
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let (p99, q99) = tail(&lat, 0.99);
        let first = samples
            .iter()
            .map(|s| s.due)
            .min()
            .expect("non-empty phase");
        let last = samples
            .iter()
            .map(|s| s.done)
            .max()
            .expect("non-empty phase");
        Phase {
            rate,
            n: samples.len(),
            p50: median(&lat),
            p99,
            q99,
            late: median(&lat[lat.len() * 9 / 10..]),
            achieved: samples.len() as f64 / (last - first).as_secs_f64(),
            errors: samples.iter().filter(|s| s.status != 200).count(),
            over_limit: lat.iter().filter(|&&l| l > LIMIT_MS).count(),
        }
    }

    fn passes(&self) -> bool {
        self.p99 <= LIMIT_MS && self.late <= BACKLOG_MS && self.errors == 0
    }

    fn line(&self) -> String {
        format!(
            "  {:>7.0} req/s offered: {} requests, achieved {:.0}/s, p50 {:.3} ms, p99 {:.3} ms (q{:.3}), \
             late {:.3} ms, {} errors, {} over {LIMIT_MS} ms -> {}",
            self.rate,
            self.n,
            self.achieved,
            self.p50,
            self.p99,
            self.q99,
            self.late,
            self.errors,
            self.over_limit,
            if self.passes() { "meets" } else { "misses" }
        )
    }
}

/// Fresh in-process sessions, one per schema: the verdict oracle.
struct Oracle<'d> {
    sessions: Vec<AnalysisSession<'d, Dtd>>,
    queries: Vec<HashMap<usize, Query>>,
    updates: Vec<HashMap<usize, Update>>,
    memo: HashMap<(usize, usize, usize), bool>,
}

impl<'d> Oracle<'d> {
    fn new(dtds: &'d [Dtd]) -> Oracle<'d> {
        Oracle {
            sessions: dtds
                .iter()
                .map(|d| SessionBuilder::new(d).jobs(Jobs::Fixed(1)).build())
                .collect(),
            queries: vec![HashMap::new(); dtds.len()],
            updates: vec![HashMap::new(); dtds.len()],
            memo: HashMap::new(),
        }
    }

    fn independent(
        &mut self,
        pools: &[SchemaPools],
        schema: usize,
        (q, u): (usize, usize),
    ) -> bool {
        if let Some(&v) = self.memo.get(&(schema, q, u)) {
            return v;
        }
        let query = self.queries[schema]
            .entry(q)
            .or_insert_with(|| parse_query(&pools[schema].queries[q]).expect("pool query parses"));
        let update = self.updates[schema].entry(u).or_insert_with(|| {
            parse_update(&pools[schema].updates[u]).expect("pool update parses")
        });
        let v = self.sessions[schema].check(query, update).is_independent();
        self.memo.insert((schema, q, u), v);
        v
    }
}

/// Checks every reply against its request: wire verdicts against the
/// oracle, edits and stats by reply type. Returns one flag per request,
/// `true` when it failed.
fn verify(
    traffic: &Traffic,
    oracle: &mut Oracle<'_>,
    first: usize,
    samples: &[Sample],
) -> Vec<bool> {
    let mut failed = Vec::with_capacity(samples.len());
    for (req, s) in traffic.reqs[first..].iter().zip(samples) {
        let body = Json::parse(&s.body).unwrap_or(Json::Null);
        let ok = s.status == 200
            && match req.kind {
                Kind::Check => {
                    body.get("independent").and_then(Json::as_bool)
                        == Some(oracle.independent(&traffic.pools, req.schema, req.pairs[0]))
                }
                Kind::Batch => body
                    .get("results")
                    .and_then(Json::as_arr)
                    .is_some_and(|rs| {
                        rs.len() == req.pairs.len()
                            && rs.iter().zip(&req.pairs).all(|(r, &p)| {
                                r.get("independent").and_then(Json::as_bool)
                                    == Some(oracle.independent(&traffic.pools, req.schema, p))
                            })
                    }),
                Kind::Edit => matches!(
                    body.get("type").and_then(Json::as_str),
                    Some("view_added" | "dropped")
                ),
                Kind::Stats => body.get("type").and_then(Json::as_str) == Some("stats"),
            };
        failed.push(!ok);
    }
    failed
}

fn count(flags: &[bool]) -> usize {
    flags.iter().filter(|&&f| f).count()
}

pub fn run(run: &Run) -> (Outcome, Layers) {
    let mut out = Outcome::new();
    let mut layers = Layers::default();
    let ops = ops_per_tenant(run.seconds);
    let traffic = traffic(run.seed, ops, run.nproc);
    out.guard_eq(
        "serve-traffic stream digest (regenerated)",
        traffic.digest as usize,
        stream_digest(&plans(run.seed, ops)) as usize,
    );
    out.note(format!(
        "serve-traffic: {} schemas, {TENANTS} tenants, pools {POOL_QUERIES} queries x {POOL_UPDATES} updates \
         per schema, stream digest {:016x}, {} connections, workers {}, seed {}",
        traffic.corpus.len(),
        traffic.digest,
        run.nproc,
        run.nproc,
        run.seed
    ));

    // A set-up takes about a millisecond, and this host's speed shifts
    // within a tenth of a second and for seconds at a time: the samples are
    // spaced out, and spread over the run by one after every phase.
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        timed_start(&traffic.corpus, run.nproc, &mut setup_s).stop();
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut daemon = timed_start(&traffic.corpus, run.nproc, &mut setup_s);

    let dtds: Vec<Dtd> = traffic.corpus.iter().map(parse_schema).collect();
    let mut oracle = Oracle::new(&dtds);
    if run.trace {
        trace(
            run,
            &traffic,
            &mut daemon,
            &mut oracle,
            &mut out,
            &mut layers,
        );
        daemon.stop();
        return (out, layers);
    }

    let (ref_s, step_s) = durations(run.seconds);
    let ref_n = (REF_RATE * ref_s) as usize;
    let reference = run_phase(&mut daemon.clients, &traffic.reqs[..ref_n], REF_RATE, false);
    timed_start(&traffic.corpus, run.nproc, &mut setup_s).stop();
    let ref_phase = Phase::of(REF_RATE, &reference);
    out.note(format!("reference phase:\n{}", ref_phase.line()));
    let lat: Vec<f64> = reference.iter().map(Sample::latency_ms).collect();
    // Replies are checked after the daemon stops: checking between phases
    // would leave the connections idle past the daemon's read timeout.
    let mut phases: Vec<(usize, Vec<Sample>)> = vec![(0, reference)];
    // The ladder's length varies with its retries, and the memory it adds
    // (replies kept for checking, cache entries) with it.
    let peak_rss = peak_rss_mb();

    let mut next = ref_n;
    let mut best: Option<(Phase, usize)> = None;
    out.note("ladder:");
    let mut retries = LADDER_RETRIES;
    'climb: for rate in LADDER {
        loop {
            let n = ((rate * step_s) as usize).min(traffic.reqs.len() - next);
            let samples = run_phase(
                &mut daemon.clients,
                &traffic.reqs[next..next + n],
                rate,
                false,
            );
            timed_start(&traffic.corpus, run.nproc, &mut setup_s).stop();
            let phase = Phase::of(rate, &samples);
            out.note(phase.line());
            phases.push((next, samples));
            next += n;
            if phase.passes() {
                best = Some((phase, phases.len() - 1));
                continue 'climb;
            }
            if retries == 0 {
                break 'climb;
            }
            retries -= 1;
        }
    }
    let rejected = daemon.stats.rejected.load(Ordering::Relaxed);
    daemon.stop();
    if rejected > 0 {
        out.fail(format!("{rejected} connections refused (503)"));
    }
    for (i, (first, samples)) in phases.iter().enumerate() {
        out.attempted += samples.len();
        let flags = verify(&traffic, &mut oracle, *first, samples);
        let failed = if i == 0 {
            // At the reference rate a request past the deadline fails too.
            flags
                .iter()
                .zip(samples)
                .filter(|(f, s)| **f || s.latency_ms() > DEADLINE_MS)
                .count()
        } else {
            count(&flags)
        };
        if failed > 0 {
            out.fail(format!(
                "{failed} failed requests in the phase starting at request {first}"
            ));
        }
        out.failed += failed;
    }

    let (slo_rate, verdicts_per_s, edits_per_s) = match &best {
        Some((phase, i)) => {
            let (first, samples) = &phases[*i];
            let secs = phase.n as f64 / phase.achieved;
            let reqs = &traffic.reqs[*first..*first + samples.len()];
            let verdicts: usize = reqs.iter().map(|r| r.pairs.len()).sum();
            let edits = reqs.iter().filter(|r| r.kind == Kind::Edit).count();
            (phase.achieved, verdicts as f64 / secs, edits as f64 / secs)
        }
        None => {
            out.fail("no ladder step met the latency limit");
            (0.0, 0.0, 0.0)
        }
    };
    // Reference-rate latency: each percentile is the median over
    // consecutive windows of `WINDOW` requests, so a host stall that hits a
    // few windows does not move it.
    let windows: Vec<&[f64]> = lat.chunks_exact(WINDOW.min(lat.len())).collect();
    let per_window = |p: f64| median(&windows.iter().map(|w| tail(w, p).0).collect::<Vec<f64>>());
    let (p50, p90, p99) = (per_window(0.5), per_window(0.9), per_window(0.99));
    out.note(format!(
        "rps_at_slo from the {} req/s step; reference-rate percentiles: median over {} windows of {WINDOW} \
         samples, p99 at q{:.3}; whole-phase p99 {:.3} ms",
        best.as_ref().map_or(0.0, |b| b.0.rate),
        windows.len(),
        tail(windows[0], 0.99).1,
        ref_phase.p99
    ));
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("verdicts_per_s", verdicts_per_s, "1/s");
    out.metric("updates_per_s", edits_per_s, "1/s");
    out.metric("rps_at_slo", slo_rate, "1/s");
    out.unbounded("latency_p50_ms", p50, "ms");
    out.unbounded("latency_p90_ms", p90, "ms");
    out.unbounded("latency_p99_ms", p99, "ms");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    (out, layers)
}

/// Mean latency of one request kind, ms.
fn mean_latency(traffic: &Traffic, first: usize, samples: &[Sample], kind: Kind) -> f64 {
    let xs: Vec<f64> = traffic.reqs[first..]
        .iter()
        .zip(samples)
        .filter(|(r, _)| r.kind == kind)
        .map(|(_, s)| s.latency_ms())
        .collect();
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The traced run: two reference phases over the wire (untraced, then with
/// a span per round trip), the traced phase's requests replayed in process
/// through `SharedSession::handle` and the JSON codec, and the checked
/// pairs replayed through the analysis layers.
fn trace(
    run: &Run,
    traffic: &Traffic,
    daemon: &mut Daemon,
    oracle: &mut Oracle<'_>,
    out: &mut Outcome,
    layers: &mut Layers,
) {
    let n = (REF_RATE * durations(run.seconds).0 / 2.0) as usize;
    let plain = run_phase(&mut daemon.clients, &traffic.reqs[..n], REF_RATE, false);
    let traced = run_phase(&mut daemon.clients, &traffic.reqs[n..2 * n], REF_RATE, true);
    let mut t = Tracer::new();
    out.attempted += 2 * n;
    out.failed +=
        count(&verify(traffic, oracle, 0, &plain)) + count(&verify(traffic, oracle, n, &traced));
    let (p_plain, p_traced) = (Phase::of(REF_RATE, &plain), Phase::of(REF_RATE, &traced));
    out.note(format!(
        "untraced then traced reference phases:\n{}\n{}",
        p_plain.line(),
        p_traced.line()
    ));

    // The same requests in process, on a fresh registry that first sees
    // the untraced phase so its caches match the daemon's.
    let local = registry(&traffic.corpus, run.nproc);
    for req in &traffic.reqs[..n] {
        local
            .get(&traffic.corpus[req.schema].name)
            .expect("schema")
            .handle(&req.request());
    }
    for req in &traffic.reqs[n..2 * n] {
        let session = local.get(&traffic.corpus[req.schema].name).expect("schema");
        let request = req.request();
        let response = t.time("service.handle", || session.handle(&request));
        t.time("protocol.json", || {
            let body = request.to_json().render();
            let decoded = Request::from_json(&Json::parse(&body).expect("request JSON"))
                .expect("request decodes");
            let reply = response.to_json().render();
            (decoded, Json::parse(&reply).expect("response JSON"))
        });
        t.time("xquery.parse", || match &request {
            Request::Check { query, update } => {
                let _ = (parse_query(query), parse_update(update));
            }
            Request::Batch(ops) => {
                for op in ops {
                    if let Request::Check { query, update } = op {
                        let _ = (parse_query(query), parse_update(update));
                    }
                }
            }
            Request::AddView { expr, .. } => {
                let _ = parse_query(expr);
            }
            _ => {}
        });
    }

    // The analysis layers over every distinct checked pair, per schema.
    let mut per_schema: Vec<Vec<(usize, usize)>> = vec![Vec::new(); traffic.corpus.len()];
    for req in &traffic.reqs[..2 * n] {
        per_schema[req.schema].extend(&req.pairs);
    }
    let config = AnalyzerConfig::default();
    for (schema, pairs) in per_schema.iter_mut().enumerate() {
        pairs.sort_unstable();
        pairs.dedup();
        let pool = &traffic.pools[schema];
        let exprs: Vec<(Query, Update)> = pairs
            .iter()
            .map(|&(q, u)| {
                (
                    parse_query(&pool.queries[q]).expect("pool query parses"),
                    parse_update(&pool.updates[u]).expect("pool update parses"),
                )
            })
            .collect();
        let cells: Vec<(&Query, &Update)> = exprs.iter().map(|(q, u)| (q, u)).collect();
        let dtd = oracle.sessions[schema].schema();
        let flags = replay(dtd, &config, &cells, ExplicitOrder::PerCheck, &mut t);
        for (&pair, flag) in pairs.iter().zip(flags) {
            if oracle.independent(&traffic.pools, schema, pair) != flag {
                out.fail(format!(
                    "replayed verdict differs on schema {schema} pair {pair:?}"
                ));
            }
        }
    }

    let (mut hits, mut misses, mut inferences, mut cache_hits) = (0, 0, 0, 0);
    for s in &traffic.corpus {
        let stats = daemon
            .registry
            .get(&s.name)
            .expect("schema")
            .with_read(|h| h.session().stats());
        hits += stats.cdag_cache_hits + stats.explicit_cache_hits;
        misses += stats.cdag_inferences + stats.explicit_inferences;
        inferences += stats.cdag_inferences;
        cache_hits += stats.cdag_cache_hits;
    }
    let per_request = |name: &str| t.self_ms(name) / n as f64;
    let lag: Vec<f64> = traced.iter().map(Sample::lag_ms).collect();
    let rtt = traced.iter().map(Sample::round_trip_ms).sum::<f64>() / n as f64;
    layers.set("cdag.infer_ms", t.self_ms("cdag.infer"));
    layers.set(
        "cdag.replay_inferences",
        t.counted("cdag.replay_inferences"),
    );
    layers.set("cdag.inferences", inferences as f64);
    layers.set("cdag.cache_hits", cache_hits as f64);
    layers.set("explicit.infer_ms", t.self_ms("explicit.infer"));
    layers.set("explicit.inferences", t.counted("explicit.inferences"));
    layers.set("explicit.overflows", t.counted("explicit.overflows"));
    layers.set("conflict.check_ms", t.self_ms("conflict.check"));
    layers.set("conflict.cells", t.counted("conflict.cells"));
    layers.set("xquery.parse_ms", t.self_ms("xquery.parse"));
    layers.set("service.handle_ms", per_request("service.handle"));
    layers.set(
        "service.http_overhead_ms",
        rtt - per_request("service.handle"),
    );
    layers.set("protocol.json_ms", per_request("protocol.json"));
    layers.set(
        "session.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set(
        "service.rejected",
        daemon.stats.rejected.load(Ordering::Relaxed) as f64,
    );
    layers.set("service.backlog_max", backlog_max(&traced) as f64);
    layers.set("generator.lag_p99_ms", quantile(&lag, 0.99));
    layers.set(
        "op.check_ms",
        mean_latency(traffic, n, &traced, Kind::Check),
    );
    layers.set(
        "op.batch_ms",
        mean_latency(traffic, n, &traced, Kind::Batch),
    );
    layers.set("op.edit_ms", mean_latency(traffic, n, &traced, Kind::Edit));
    layers.set("trace.overhead_ms", p_traced.p50 - p_plain.p50);
}
