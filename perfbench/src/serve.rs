//! The serving workloads, run against an in-process `Server` built the
//! way `updp-serve` deploys it: a file-backed ledger in a fresh
//! per-run directory, the default `ServerConfig` (one reactor shard
//! per hardware thread, metrics on).
//!
//! `serve-query`: budgeted analyst batches (mean + 0.9-quantile + IQR
//! at ε = 0.5) over 256 warmed datasets of 10⁴ rows, on one connection
//! per shard. A pass alternates, round by round, phase A (a closed
//! loop, `ops_per_s`) and phase B (an open loop with Poisson arrivals
//! at a fixed rate, timed from each request's due time: `p50_ms`, and
//! `p99_ms` in the report).

use crate::replay::{self, Observed};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, ClientRequest, Digest, ServerEvent};
use crate::{client_threads, latency_metrics, ms_since, Args, Outcome, RunDir};
use rand::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use updp_core::json::JsonValue;
use updp_core::rng::{child_seed, seeded};
use updp_dist::{ContinuousDistribution, Gaussian};
use updp_serve::client::{query_body_named, Connection, NamedQuery};
use updp_serve::{DrainSummary, FlushPolicy, Ledger, QuerySpec, Server, ServerConfig};

/// Budget of every benchmark dataset: large enough that no query of a
/// run is ever refused.
const BUDGET: f64 = 1e6;
/// ε of every served query. The universal estimators now and then draw
/// an IQR lower bound so small that the discretisation bucket overflows
/// i64 (`estimator_failed`); on 10⁴ Gaussian rows that happened to 7 of
/// 192,000 means at ε = 0.1 and 1 of 192,000 at ε = 0.2, and far more
/// often at ε = 10⁻³. Any failure makes a run incorrect, so the served
/// queries use a per-query budget of 0.5.
const EPS: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A connection asks for `/v1/trace` after this many timed requests,
/// well before a shard's 256-event ring can wrap.
const TRACE_EVERY: usize = 100;
/// Re-dials allowed while placing one connection per shard.
const MAX_REDIALS: usize = 64;
/// Scrapes, 1 ms apart, that placement waits for a new connection's
/// accept to be counted.
const SETTLE_SCRAPES: usize = 200;
/// An open-loop phase whose last request went out later than this
/// after its due time fell behind its schedule.
const MAX_FINAL_LATENESS_MS: f64 = 250.0;

/// `serve-query`: datasets, rows per dataset.
const QUERY_DATASETS: usize = 256;
const QUERY_ROWS: usize = 10_000;
/// Share of each round given to the closed-loop phase A.
const PHASE_A_SHARE: f64 = 0.25;
/// Phase B arrival rate (requests/s over all connections): about 0.4
/// of phase A's one-core capacity (≈140 req/s) at the commit that
/// defined the benchmark, so requests queue now and then but the
/// backlog does not grow.
const PHASE_B_RATE: f64 = 60.0;
/// Requests per connection whose released values enter the digest.
const DIGEST_REQUESTS: usize = 64;

fn gaussian(n: usize, seed: u64) -> Vec<f64> {
    let dist = Gaussian::new(100.0, 5.0).expect("valid Gaussian");
    let mut rng = seeded(seed);
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

/// A wire seed (integers up to 2^53 survive JSON).
fn wire_seed(seed: u64, index: u64) -> u64 {
    child_seed(seed, index) & ((1 << 53) - 1)
}

/// The serve-query batch.
pub fn query_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new("mean", EPS),
        QuerySpec::new("quantile", EPS).with("q", 0.9),
        QuerySpec::new("iqr", EPS),
    ]
}

/// Renders a batch as a `/v1/query` body.
pub fn body(dataset: &str, seed: u64, specs: &[QuerySpec]) -> String {
    let queries: Vec<NamedQuery<'_>> = specs
        .iter()
        .map(|s| NamedQuery {
            estimator: &s.estimator,
            epsilon: s.epsilon,
            params: s.options.iter().map(|(k, v)| (k.as_str(), *v)).collect(),
        })
        .collect();
    query_body_named(dataset, seed, false, &queries)
}

/// A running in-process server.
pub struct Harness {
    /// `host:port` of the listener.
    pub addr: String,
    /// The ledger snapshot file.
    pub ledger_path: PathBuf,
    /// Reactor shards.
    pub workers: usize,
    thread: Option<JoinHandle<std::io::Result<DrainSummary>>>,
}

impl Harness {
    /// Starts a server over a fresh file ledger in `dir`.
    pub fn start(dir: &Path, policy: FlushPolicy) -> Result<Harness, String> {
        let ledger_path = dir.join("ledger.json");
        let ledger = Ledger::open(&ledger_path).map_err(|e| e.to_string())?;
        let config = ServerConfig::default();
        let workers = config.resolved_workers();
        let server = Server::bind_with_config("127.0.0.1:0", ledger, policy, config)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Harness {
            addr,
            ledger_path,
            workers,
            thread: Some(thread),
        })
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Connection, String> {
        Connection::open(&self.addr).map_err(|e| e.to_string())
    }

    /// Shuts the server down and waits for it.
    pub fn stop(mut self) -> Result<DrainSummary, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<DrainSummary, String> {
        let Some(thread) = self.thread.take() else {
            return Ok(DrainSummary::default());
        };
        let sent = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        if let Err(e) = sent {
            // The server thread cannot be stopped; leave it detached
            // rather than blocking forever on the join.
            return Err(format!("shutdown: {e}"));
        }
        match thread.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Sends one request; returns `(status, body)`.
fn send(
    conn: &mut Connection,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    conn.request_raw(method, path, body)
        .map_err(|e| e.to_string())
}

/// Scalar families of one `/v1/metrics?format=json` scrape:
/// family → [(labels, value)].
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, Samples>);

/// One family's samples: (labels, value).
type Samples = Vec<(BTreeMap<String, String>, f64)>;

impl Scrape {
    /// Scrapes over `conn`.
    pub fn take(conn: &mut Connection) -> Result<Scrape, String> {
        let (status, body) = send(conn, "GET", "/v1/metrics?format=json", "")?;
        if status != 200 {
            return Err(format!("metrics scrape answered {status}"));
        }
        let doc = JsonValue::parse(&body)?;
        let mut out = BTreeMap::new();
        for family in doc.as_object("metrics")?.get_array("families")? {
            let family = family.as_object("family")?;
            let mut rows = Vec::new();
            for sample in family.get_array("samples")? {
                let sample = sample.as_object("sample")?;
                let Some(value) = sample.opt("value") else {
                    continue; // histogram
                };
                let mut labels = BTreeMap::new();
                if let Some(JsonValue::Object(fields)) = sample.opt("labels") {
                    for (k, v) in fields {
                        labels.insert(k.clone(), v.as_str("label")?.to_string());
                    }
                }
                rows.push((labels, value.as_f64("value")?));
            }
            out.insert(family.get_str("name")?, rows);
        }
        Ok(Scrape(out))
    }

    /// Values of `family` keyed by the value of label `key`.
    pub fn by(&self, family: &str, key: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (labels, v) in self.0.get(family).into_iter().flatten() {
            *out.entry(labels.get(key).cloned().unwrap_or_default())
                .or_insert(0.0) += v;
        }
        out
    }

    /// Sum of `family` over all labels.
    pub fn total(&self, family: &str) -> f64 {
        self.0
            .get(family)
            .into_iter()
            .flatten()
            .map(|(_, v)| v)
            .sum()
    }
}

/// Connections placed one per reactor shard.
pub struct Placed {
    /// Connection `i` is served by shard `shards[i]`.
    pub conns: Vec<Connection>,
    /// Shard of each connection.
    pub shards: Vec<usize>,
    /// Dials beyond one per connection.
    pub redials: usize,
}

/// Opens one connection per reactor shard (at most `want`), checking
/// each connection's shard by the per-shard
/// `updp_reactor_connections_accepted_total` delta seen over a probe
/// connection, and re-dialing a connection that lands on a shard
/// already taken.
pub fn place(h: &Harness, want: usize) -> Result<Placed, String> {
    const ACCEPTED: &str = "updp_reactor_connections_accepted_total";
    let want = want.min(h.workers);
    let mut probe = h.connect()?;
    let mut before = Scrape::take(&mut probe)?.by(ACCEPTED, "shard");
    let mut placed = Placed {
        conns: Vec::new(),
        shards: Vec::new(),
        redials: 0,
    };
    while placed.conns.len() < want {
        let conn = h.connect()?;
        // The accept is counted on whichever shard took the connection,
        // which may count it after the probe's scrape is served: scrape
        // until the total has risen, and credit the connection only
        // when exactly one shard's count rose, by exactly one.
        let mut landed = None;
        for _ in 0..SETTLE_SCRAPES {
            let after = Scrape::take(&mut probe)?.by(ACCEPTED, "shard");
            let rises: Vec<(&String, f64)> = after
                .iter()
                .map(|(k, v)| (k, v - before.get(k).copied().unwrap_or(0.0)))
                .filter(|(_, d)| *d != 0.0)
                .collect();
            if rises.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            landed = match rises.as_slice() {
                [(k, d)] if *d == 1.0 => k.parse::<usize>().ok(),
                _ => None,
            };
            before = after;
            break;
        }
        match landed {
            Some(shard) if !placed.shards.contains(&shard) => {
                placed.conns.push(conn);
                placed.shards.push(shard);
            }
            _ => {
                placed.redials += 1;
                if placed.redials > MAX_REDIALS {
                    return Err(format!(
                        "could not place {want} connections on distinct shards in {MAX_REDIALS} re-dials"
                    ));
                }
            }
        }
    }
    Ok(placed)
}

/// Parsed events of one `/v1/trace` scrape.
pub fn scrape_trace(conn: &mut Connection) -> Result<Vec<ServerEvent>, String> {
    let (status, body) = send(conn, "GET", "/v1/trace", "")?;
    if status != 200 {
        return Err(format!("trace scrape answered {status}"));
    }
    let doc = JsonValue::parse(&body)?;
    doc.as_object("trace")?
        .get_array("events")?
        .iter()
        .map(|e| {
            let e = e.as_object("event")?;
            Ok(ServerEvent {
                id: e.get_f64("id")? as u64,
                shard: e.get_f64("shard")? as usize,
                path: e.get_str("path")?,
                dataset: match e.opt("dataset") {
                    Some(JsonValue::String(s)) => Some(s.clone()),
                    _ => None,
                },
                status: e.get_f64("status")? as u16,
                parse_us: e.get_f64("parse_us")?,
                handle_us: e.get_f64("handle_us")?,
                bytes_out: e.get_f64("bytes_out")?,
            })
        })
        .collect()
}

/// What one released batch told the client.
#[derive(Debug, Default)]
struct Released {
    values: Vec<f64>,
    charged: f64,
    inflations: Vec<f64>,
}

/// Checks a query response: status 200, every query released finite
/// values. Returns what was released and charged; a failed query still
/// charged its nominal ε unless that reservation itself was refused.
fn check_release(status: u16, body: &str, nominal: &[f64]) -> (Released, Result<(), String>) {
    let mut out = Released::default();
    if status != 200 {
        return (out, Err(format!("status {status}: {}", truncate(body))));
    }
    let parsed = (|| -> Result<Result<(), String>, String> {
        let doc = JsonValue::parse(body)?;
        let mut verdict = Ok(());
        for (k, r) in doc
            .as_object("response")?
            .get_array("results")?
            .iter()
            .enumerate()
        {
            let r = r.as_object("result")?;
            let eps = nominal.get(k).copied().unwrap_or(0.0);
            if let Some(error) = r.opt("error") {
                let error = error.as_object("error")?;
                let refused_nominal = error.get_str("code")? == "budget_exhausted"
                    && error.get_f64("requested")? == eps;
                if !refused_nominal {
                    out.charged += eps;
                }
                verdict = Err(format!("query {k} failed: {}", truncate(body)));
                continue;
            }
            for v in r.get_array("values")? {
                let v = v.as_f64("value")?;
                if !v.is_finite() {
                    verdict = Err(format!("query {k}: non-finite release {v}"));
                }
                out.values.push(v);
            }
            out.charged += r.get_f64("epsilon_charged")?;
            let inflation = r
                .get("release")?
                .as_object("release")?
                .get_f64("epsilon_inflation")?;
            if inflation > 0.0 {
                out.inflations.push(inflation);
            }
        }
        Ok(verdict)
    })();
    match parsed {
        Ok(verdict) => (out, verdict),
        Err(e) => (out, Err(format!("unreadable response: {e}"))),
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// One connection's record of a measured pass.
#[derive(Debug, Default)]
struct ConnLog {
    /// Timed requests, in order (for trace matching).
    requests: Vec<ClientRequest>,
    /// Latency from due (open loop) or send (closed loop), ms.
    latency_ms: Vec<f64>,
    /// Send minus due time for open-loop requests, ms.
    lateness_ms: Vec<f64>,
    /// Failed requests and their reasons.
    failures: Vec<String>,
    /// ε charged per dataset index.
    charged: BTreeMap<usize, f64>,
    /// Ledger calls the served batches implied: (dataset, amounts).
    reserve_calls: Vec<(usize, Vec<f64>)>,
    /// Queries behind `reserve_calls`.
    queries: usize,
    /// (dataset, seed) of the queries sent, in order.
    sent: Vec<(usize, u64)>,
    /// Released values of the requests that enter the digest.
    digest_values: Vec<f64>,
    /// Trace events collected by in-phase scrapes.
    events: Vec<ServerEvent>,
    /// Spans (traced runs).
    spans: Vec<Span>,
    /// The latest any open-loop round's last request went out, ms.
    behind_ms: f64,
}

impl ConnLog {
    /// Records one query's outcome; `digest` adds its released values
    /// to the digest.
    #[allow(clippy::too_many_arguments)]
    fn query(
        &mut self,
        dataset: usize,
        name: &str,
        seed: u64,
        nominal: &[f64],
        sent: Instant,
        due_latency_ms: f64,
        result: Result<(u16, String), String>,
        digest: bool,
    ) {
        let service_us = sent.elapsed().as_secs_f64() * 1e6;
        self.sent.push((dataset, seed));
        let (released, verdict) = match result {
            Ok((status, body)) => check_release(status, &body, nominal),
            Err(e) => (Released::default(), Err(e)),
        };
        *self.charged.entry(dataset).or_insert(0.0) += released.charged;
        match verdict {
            Ok(()) => {
                if self.reserve_calls.len() < 2000 {
                    self.reserve_calls.push((dataset, nominal.to_vec()));
                    if !released.inflations.is_empty() {
                        self.reserve_calls.push((dataset, released.inflations));
                    }
                    self.queries += 1;
                }
                if digest {
                    self.digest_values.extend(&released.values);
                }
            }
            Err(e) => self.failures.push(format!("{name} seed {seed}: {e}")),
        }
        self.requests.push(ClientRequest {
            path: "/v1/query",
            dataset: name.to_string(),
            latency_us: service_us,
        });
        self.latency_ms.push(due_latency_ms);
    }
}

/// Rounds a measured pass is cut into. Each round runs phase A for
/// [`PHASE_A_SHARE`] of it and then phase B, so both phases sample the
/// whole pass and a burst of host contention lands in some rounds of
/// each phase rather than in all of one.
const ROUNDS: usize = 40;

/// Sleeps until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Poisson arrival offsets in seconds over `[0, seconds)` at `rate`.
fn poisson(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = seeded(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// A serve-query set-up: a server with 256 registered, warmed datasets.
struct QuerySetup {
    harness: Harness,
    dir: RunDir,
    names: Vec<String>,
    data: Vec<Vec<f64>>,
    warm_charged: BTreeMap<usize, f64>,
}

fn query_setup(seed: u64, k: usize) -> Result<QuerySetup, String> {
    let dir = RunDir::new(&format!("query{k}")).map_err(|e| e.to_string())?;
    let harness = Harness::start(&dir.path, FlushPolicy::immediate())?;
    let run = child_seed(seed, std::process::id() as u64 ^ ((k as u64) << 32));
    let names: Vec<String> = (0..QUERY_DATASETS)
        .map(|i| format!("q{:08x}-{i}", run as u32))
        .collect();
    let data: Vec<Vec<f64>> = (0..QUERY_DATASETS)
        .map(|i| gaussian(QUERY_ROWS, child_seed(seed, i as u64)))
        .collect();
    let mut conn = harness.connect()?;
    let mut warm_charged = BTreeMap::new();
    let specs = query_specs();
    let nominal: Vec<f64> = specs.iter().map(|q| q.epsilon).collect();
    for (i, (name, rows)) in names.iter().zip(&data).enumerate() {
        conn.register(name, BUDGET, rows)
            .map_err(|e| format!("register {name}: {e}"))?;
        let (status, body) = send(
            &mut conn,
            "POST",
            "/v1/query",
            &body(name, wire_seed(seed ^ 0x3A53, i as u64), &specs),
        )?;
        let (released, verdict) = check_release(status, &body, &nominal);
        verdict.map_err(|e| format!("warm-up {name}: {e}"))?;
        warm_charged.insert(i, released.charged);
    }
    Ok(QuerySetup {
        harness,
        dir,
        names,
        data,
        warm_charged,
    })
}

/// Runs `SETUPS` set-ups, keeps the last, returns it with each set-up's
/// time in seconds.
fn repeated<T>(mut make: impl FnMut(usize) -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let s = make(k)?;
        times.push(t.elapsed().as_secs_f64());
        // Dropping an earlier set-up stops its server and removes its
        // directory.
        kept = Some(s);
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, times))
}

/// Per-connection request streams of serve-query: (dataset, seed).
fn query_request(seed: u64, phase: u64, conn: usize, i: usize) -> (usize, u64) {
    let key = (phase << 48) | ((conn as u64) << 32) | i as u64;
    let dataset = (child_seed(seed ^ 0xDA7A, key) % QUERY_DATASETS as u64) as usize;
    (dataset, wire_seed(seed ^ 0x5EED, key))
}

/// A placed connection with its log, spans and request counters,
/// carried across the rounds of a pass.
struct Client {
    conn: Connection,
    log: ConnLog,
    spans: SpanLog,
    /// Next request index in phase A and in phase B.
    next: [usize; 2],
}

/// Scrapes `/v1/trace` after every [`TRACE_EVERY`] timed requests of
/// the connection.
fn scrape_if_due(cl: &mut Client, traced: bool) {
    let n = cl.log.requests.len();
    if traced && n.is_multiple_of(TRACE_EVERY) {
        let open = cl.spans.begin("client.trace_scrape", n as u64, None);
        match scrape_trace(&mut cl.conn) {
            Ok(events) => cl.log.events.extend(events),
            Err(e) => cl.log.failures.push(format!("trace scrape: {e}")),
        }
        cl.spans.end(open);
    }
}

/// Phase A: a closed loop until `deadline` on one client thread that
/// takes the connections in turn, so every shard serves and one request
/// is in flight at a time. Two requests in flight kept both cores of a
/// 2-core host busy, and the host's CPU steal then moved throughput by
/// more than a third from run to run.
fn closed_loop(clients: &mut [Client], s: &QuerySetup, seed: u64, deadline: Instant, traced: bool) {
    let specs = query_specs();
    let nominal: Vec<f64> = specs.iter().map(|q| q.epsilon).collect();
    let mut turn = 0;
    while Instant::now() < deadline {
        let c = turn % clients.len();
        turn += 1;
        let cl = &mut clients[c];
        let i = cl.next[0];
        let (d, qseed) = query_request(seed, 0, c, i);
        let text = body(&s.names[d], qseed, &specs);
        let open = cl.spans.begin("client.query", i as u64, None);
        let sent = Instant::now();
        let result = send(&mut cl.conn, "POST", "/v1/query", &text);
        let ms = ms_since(sent);
        cl.spans.end(open);
        let digest = i < DIGEST_REQUESTS;
        cl.log
            .query(d, &s.names[d], qseed, &nominal, sent, ms, result, digest);
        scrape_if_due(cl, traced);
        cl.next[0] += 1;
    }
}

/// Phase B of round `round`: Poisson open loop at `rate` for `seconds`.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    cl: &mut Client,
    c: usize,
    s: &QuerySetup,
    seed: u64,
    round: usize,
    rate: f64,
    seconds: f64,
    traced: bool,
) {
    let specs = query_specs();
    let nominal: Vec<f64> = specs.iter().map(|q| q.epsilon).collect();
    let start = Instant::now();
    let mut last = 0.0;
    let arrivals = child_seed(seed, 0xB0 + ((round as u64) << 8) + c as u64);
    for offset in poisson(arrivals, rate, seconds) {
        let due = start + Duration::from_secs_f64(offset);
        wait_until(due);
        let i = cl.next[1];
        let (d, qseed) = query_request(seed, 1, c, i);
        let text = body(&s.names[d], qseed, &specs);
        let open = cl.spans.begin("client.query", i as u64, None);
        let sent = Instant::now();
        last = sent.duration_since(due).as_secs_f64() * 1e3;
        cl.log.lateness_ms.push(last);
        let result = send(&mut cl.conn, "POST", "/v1/query", &text);
        let from_due = due.elapsed().as_secs_f64() * 1e3;
        cl.spans.end(open);
        cl.log.query(
            d,
            &s.names[d],
            qseed,
            &nominal,
            sent,
            from_due,
            result,
            false,
        );
        scrape_if_due(cl, traced);
        cl.next[1] += 1;
    }
    cl.log.behind_ms = cl.log.behind_ms.max(last);
}

/// Runs `work` on each client in its own thread.
fn on_each<F>(clients: &mut [Client], work: F)
where
    F: Fn(usize, &mut Client) + Sync,
{
    std::thread::scope(|scope| {
        let work = &work;
        for (c, cl) in clients.iter_mut().enumerate() {
            scope.spawn(move || work(c, cl));
        }
    });
}

/// Everything one measured pass of a serve workload produced.
struct Pass {
    /// Host steal and process CPU over the pass.
    host: String,
    /// Per round: host steal share in phase A, phase A rate, host steal
    /// share in phase B.
    rounds: Vec<(f64, f64, f64)>,
    conns: Vec<Connection>,
    /// One log per connection, phase A and B requests in send order.
    logs: Vec<ConnLog>,
    /// Median phase A rate over the rounds.
    ops_per_s: f64,
    /// Phase B latencies from due time.
    b_latency: Vec<f64>,
    before: Scrape,
    after: Scrape,
    first_id: u64,
    final_events: Vec<ServerEvent>,
}

/// The largest trace id the server has handed out so far.
fn last_trace_id(conn: &mut Connection) -> Result<u64, String> {
    Ok(scrape_trace(conn)?.iter().map(|e| e.id).max().unwrap_or(0))
}

/// One measured pass of serve-query: [`ROUNDS`] rounds of phase A
/// then phase B.
fn query_pass(
    s: &QuerySetup,
    conns: Vec<Connection>,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Pass, String> {
    let mut conns = conns;
    let first_id = if traced {
        last_trace_id(&mut conns[0])? + 1
    } else {
        0
    };
    let before = Scrape::take(&mut conns[0])?;
    let host = crate::HostSample::begin();
    let epoch = Instant::now();
    let mut clients: Vec<Client> = conns
        .into_iter()
        .enumerate()
        .map(|(c, conn)| Client {
            conn,
            log: ConnLog::default(),
            spans: SpanLog::new(epoch, c as u64 + 1, traced),
            next: [0, 0],
        })
        .collect();
    let round = seconds / ROUNDS as f64;
    let a_seconds = round * PHASE_A_SHARE;
    let rate = PHASE_B_RATE / clients.len() as f64;
    let sent = |clients: &[Client]| clients.iter().map(|cl| cl.log.sent.len()).sum::<usize>();
    let mut rounds = Vec::new();
    let mut b_latency = Vec::new();
    for r in 0..ROUNDS {
        let ticks = crate::host_ticks();
        let done = sent(&clients);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(a_seconds);
        closed_loop(&mut clients, s, seed, deadline, traced);
        let a_rate = (sent(&clients) - done) as f64 / start.elapsed().as_secs_f64();
        let a_steal = crate::steal_since(ticks);
        let ticks = crate::host_ticks();
        let marks: Vec<usize> = clients.iter().map(|cl| cl.log.latency_ms.len()).collect();
        on_each(&mut clients, |c, cl| {
            open_loop(cl, c, s, seed, r, rate, round - a_seconds, traced)
        });
        rounds.push((a_steal, a_rate, crate::steal_since(ticks)));
        for (cl, &m) in clients.iter().zip(&marks) {
            b_latency.extend_from_slice(&cl.log.latency_ms[m..]);
        }
    }
    let host = host.end();
    let (mut conns, logs): (Vec<Connection>, Vec<ConnLog>) = clients
        .into_iter()
        .map(|cl| {
            let mut log = cl.log;
            log.spans = cl.spans.into_spans();
            (cl.conn, log)
        })
        .unzip();
    let after = Scrape::take(&mut conns[0])?;
    let mut final_events = Vec::new();
    if traced {
        for conn in conns.iter_mut() {
            final_events.extend(scrape_trace(conn)?);
        }
    }
    let rates: Vec<f64> = rounds.iter().map(|r| r.1).collect();
    Ok(Pass {
        host,
        rounds,
        conns,
        logs,
        ops_per_s: stats::median(&rates).unwrap_or(f64::NAN),
        b_latency,
        before,
        after,
        first_id,
        final_events,
    })
}

/// Adds the failures of `logs` to `out`.
fn count_ops(out: &mut Outcome, logs: &[&ConnLog]) {
    for log in logs {
        out.ops(log.requests.len() as u64, log.failures.len() as u64);
        for f in log.failures.iter().take(5) {
            out.line(format!("FAILED: {f}"));
        }
    }
}

/// Checks the server-side failure counters between two scrapes.
fn check_counters(out: &mut Outcome, before: &Scrape, after: &Scrape) {
    for family in [
        "updp_reactor_handler_panics_total",
        "updp_reactor_overloaded_total",
        "updp_reactor_connections_rejected_total",
        "updp_ledger_refusals_total",
    ] {
        let delta = after.total(family) - before.total(family);
        out.check(delta == 0.0, || format!("{family} rose by {delta}"));
    }
    let errors: f64 = ["4xx", "5xx"]
        .iter()
        .map(|class| {
            let sum = |s: &Scrape| {
                s.0.get("updp_http_responses_total")
                    .into_iter()
                    .flatten()
                    .filter(|(l, _)| l.get("class").map(String::as_str) == Some(*class))
                    .map(|(_, v)| v)
                    .sum::<f64>()
            };
            sum(after) - sum(before)
        })
        .sum();
    out.check(errors == 0.0, || format!("{errors} error responses"));
}

/// Checks that, per dataset, the ε the client saw charged equals the
/// ledger's spent ε, both live (`/v1/metrics`) and after a restart
/// (`Ledger::open` on the snapshot file).
fn check_ledger(
    out: &mut Outcome,
    names: &[String],
    charged: &BTreeMap<usize, f64>,
    live: &Scrape,
    ledger_path: &Path,
) -> Result<(), String> {
    let spent = live.by("updp_ledger_epsilon_spent", "dataset");
    let reopened = Ledger::open(ledger_path).map_err(|e| e.to_string())?;
    let mut bad_live = 0;
    let mut bad_disk = 0;
    for (i, name) in names.iter().enumerate() {
        let want = charged.get(&i).copied().unwrap_or(0.0);
        let close = |got: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        if !close(spent.get(name).copied().unwrap_or(f64::NAN)) {
            bad_live += 1;
        }
        let disk = reopened.account(name).map(|a| a.spent).unwrap_or(f64::NAN);
        if !close(disk) {
            bad_disk += 1;
        }
    }
    out.check(bad_live == 0, || {
        format!("{bad_live} datasets: charged ε != live ledger spent ε")
    });
    out.check(bad_disk == 0, || {
        format!("{bad_disk} datasets: charged ε != reopened ledger spent ε")
    });
    Ok(())
}

fn merge_charged(into: &mut BTreeMap<usize, f64>, logs: &[&ConnLog]) {
    for log in logs {
        for (d, v) in &log.charged {
            *into.entry(*d).or_insert(0.0) += v;
        }
    }
}

fn open_loop_lines(out: &mut Outcome, logs: &[&ConnLog], rate: f64) {
    let lateness: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lateness_ms.iter().copied())
        .collect();
    let s = stats::sorted(lateness);
    let last = logs.iter().map(|l| l.behind_ms).fold(0.0, f64::max);
    out.line(format!(
        "open loop at {rate} req/s: {} requests, generator lateness p50 {:.3} ms, max {:.3} ms, latest last-of-round {:.3} ms",
        s.len(),
        stats::nearest_rank(&s, 0.5).unwrap_or(0.0),
        s.last().copied().unwrap_or(0.0),
        last
    ));
    out.check(last <= MAX_FINAL_LATENESS_MS, || {
        format!(
            "open-loop generator fell behind: a round's last request went out {last:.1} ms late"
        )
    });
}

/// Reports each round's phase A rate and the host's CPU steal in each
/// phase of each round.
fn rounds_lines(out: &mut Outcome, pass: &Pass) {
    let pct = |v: f64| format!("{:.1}", 100.0 * v);
    out.line(format!(
        "phase A closed loop: median {:.1} req/s over {ROUNDS} rounds; rates {:?}; host steal % {:?}",
        pass.ops_per_s,
        pass.rounds.iter().map(|r| format!("{:.1}", r.1)).collect::<Vec<_>>(),
        pass.rounds.iter().map(|r| pct(r.0)).collect::<Vec<_>>(),
    ));
    out.line(format!(
        "phase B open loop: host steal % {:?}",
        pass.rounds.iter().map(|r| pct(r.2)).collect::<Vec<_>>(),
    ));
}

/// Runs serve-query.
pub fn run_query(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, times) = repeated(|k| query_setup(args.seed, k))?;
    let setup_s = stats::median(&times).unwrap_or(f64::NAN);
    out.line(format!(
        "setup: {QUERY_DATASETS} datasets x {QUERY_ROWS} rows registered and warmed, median of {SETUPS} set-ups {setup_s:.3} s {}",
        crate::seconds_list(&times)
    ));
    let placed = place(&setup.harness, client_threads())?;
    out.line(format!(
        "placement: connections on shards {:?} of {} ({} re-dials)",
        placed.shards, setup.harness.workers, placed.redials
    ));
    out.check(
        placed.conns.len() == client_threads().min(setup.harness.workers),
        || "fewer connections than client threads".into(),
    );
    let shards = placed.shards.clone();
    let pass = query_pass(&setup, placed.conns, args.seed, args.pass_seconds(), false)?;
    let mut charged = setup.warm_charged.clone();
    let all: Vec<&ConnLog> = pass.logs.iter().collect();
    count_ops(&mut out, &all);
    merge_charged(&mut charged, &all);
    check_counters(&mut out, &pass.before, &pass.after);
    open_loop_lines(&mut out, &all, PHASE_B_RATE);
    let mut digest = Digest::default();
    for log in &pass.logs {
        log.digest_values.iter().for_each(|v| digest.add(*v));
    }
    rounds_lines(&mut out, &pass);
    out.line(format!(
        "pass: {} requests; {}; digest(first {DIGEST_REQUESTS} phase A requests per connection)={}",
        pass.logs.iter().map(|l| l.requests.len()).sum::<usize>(),
        pass.host,
        digest.hex()
    ));
    // The end-to-end run must support a p99; the traced run's shorter
    // passes report no latency metric.
    let p99_ok = args.trace || stats::reportable(pass.b_latency.len(), 0.99);
    out.check(p99_ok, || {
        format!(
            "phase B has {} samples, too few for p99",
            pass.b_latency.len()
        )
    });
    let sorted_b = stats::sorted(pass.b_latency.clone());
    out.line(format!(
        "phase B latency from due: p99_ms = {} ms (n={})",
        stats::nearest_rank(&sorted_b, 0.99).unwrap_or(f64::NAN),
        sorted_b.len()
    ));

    let mut layers = None;
    if args.trace {
        let traced = query_pass(&setup, pass.conns, args.seed, args.pass_seconds(), true)?;
        let tall: Vec<&ConnLog> = traced.logs.iter().collect();
        count_ops(&mut out, &tall);
        merge_charged(&mut charged, &tall);
        out.metric(
            "trace.overhead_frac",
            (pass.ops_per_s - traced.ops_per_s) / pass.ops_per_s,
            "ratio",
        );
        let handle = trace_layers(&mut out, &traced, &shards)?;
        layers = Some((traced, handle));
    } else {
        drop(pass.conns);
    }
    let live = {
        let mut c = setup.harness.connect()?;
        Scrape::take(&mut c)?
    };
    let harness = setup.harness;
    let ledger_path = harness.ledger_path.clone();
    let drain = harness.stop()?;
    out.line(format!(
        "drain: {} drained, {} aborted",
        drain.drained, drain.aborted
    ));
    check_ledger(&mut out, &setup.names, &charged, &live, &ledger_path)?;
    out.line(format!(
        "failed_frac = {} ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    ));

    match layers {
        None => {
            out.metric("ops_per_s", pass.ops_per_s, "ops/s");
            latency_metrics(&mut out, "phase B latency from due", pass.b_latency.clone());
            out.metric("setup_s", setup_s, "s");
            out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        }
        Some((traced, handle_p50)) => {
            let logs: Vec<&ConnLog> = traced.logs.iter().collect();
            let observed = Observed {
                datasets: setup
                    .names
                    .iter()
                    .cloned()
                    .zip(setup.data.iter().cloned())
                    .collect(),
                specs: query_specs(),
                requests: logs
                    .iter()
                    .flat_map(|l| l.sent.iter().copied())
                    .take(300)
                    .collect(),
                reserve_calls: logs
                    .iter()
                    .flat_map(|l| l.reserve_calls.iter().cloned())
                    .collect(),
                queries: logs.iter().map(|l| l.queries).sum(),
                warm_seed: args.seed ^ 0x3A53,
                seed: args.seed,
            };
            let mut log = SpanLog::new(Instant::now(), 100, true);
            let columns: Vec<&[f64]> = setup.data.iter().take(4).map(|d| &d[..]).collect();
            replay::statistical(
                &mut out,
                &mut log,
                &columns,
                &serve_params(EPS),
                args.seed,
                4,
            );
            let engine_p50 =
                replay::ledger_engine_registry(&mut out, &mut log, &setup.dir.path, &observed)?;
            agree(&mut out, engine_p50, handle_p50)?;
            let mut spans: Vec<Span> = logs.iter().flat_map(|l| l.spans.iter().cloned()).collect();
            spans.extend(log.into_spans());
            replay::finish_spans(&mut out, args, &spans);
        }
    }
    Ok(out)
}

/// Statistical-stage parameters of the served batches: the estimator
/// runs at the hardened share (0.9) of each query's ε.
fn serve_params(eps: f64) -> replay::StatParams {
    let e = eps * updp_serve::engine::ESTIMATOR_SHARE;
    replay::StatParams {
        eps_mean: e,
        eps_variance: e,
        eps_quantile: e,
        eps_iqr: e,
        q: 0.9,
        beta: updp_statistical::DEFAULT_BETA,
    }
}

/// The replayed `execute_batch` median must agree with the traced
/// handler median within a factor of [`AGREEMENT_FACTOR`]: the handler
/// also parses and renders JSON and runs beside another connection,
/// the replay runs alone. Uncontended ratios were 1.0–1.6; host CPU
/// steal can double the handler's median on its own, so the factor
/// catches mismatched or mis-scaled events, not contention.
const AGREEMENT_FACTOR: f64 = 3.0;

/// Checks the agreement; a disagreement invalidates the traced run.
pub fn agree(out: &mut Outcome, engine_ms: f64, handle_ms: f64) -> Result<(), String> {
    let ratio = handle_ms / engine_ms;
    out.line(format!(
        "trace check: server.handle_ms_p50 {handle_ms:.4} vs replayed engine.execute_batch_ms_p50 {engine_ms:.4} (ratio {ratio:.3}, allowed 1/{AGREEMENT_FACTOR}..{AGREEMENT_FACTOR})"
    ));
    if !(1.0 / AGREEMENT_FACTOR..=AGREEMENT_FACTOR).contains(&ratio) {
        return Err(format!(
            "traced run invalid: handler median {handle_ms:.4} ms and replayed engine median {engine_ms:.4} ms disagree"
        ));
    }
    Ok(())
}

/// Derives the server/http/reactor/wire metrics of a traced pass from
/// its `/v1/trace` events and metric deltas. Returns the handler p50
/// (ms) over query requests. Fails (the traced run is then invalid)
/// when trace ids have a gap or events do not match the requests.
fn trace_layers(out: &mut Outcome, pass: &Pass, shards: &[usize]) -> Result<f64, String> {
    let mut events: Vec<ServerEvent> = pass.final_events.clone();
    for log in &pass.logs {
        events.extend(log.events.iter().cloned());
    }
    let max_id = events.iter().map(|e| e.id).max().unwrap_or(0);
    stats::contiguous_from(
        &events.iter().map(|e| e.id).collect::<Vec<_>>(),
        pass.first_id,
    )
    .map_err(|missing| format!("traced run invalid: trace id {missing} was lost (ring wrapped)"))?;
    let mut handle_ms = Vec::new();
    let mut parse_us = Vec::new();
    let mut transport_ms = Vec::new();
    let mut per_shard: BTreeMap<usize, usize> = BTreeMap::new();
    for (c, &shard) in shards.iter().enumerate() {
        let requests: Vec<ClientRequest> = pass
            .logs
            .get(c)
            .map(|l| l.requests.clone())
            .unwrap_or_default();
        let matched =
            stats::match_connection(&requests, &events, shard, pass.first_id.saturating_sub(1))
                .map_err(|e| format!("traced run invalid: {e}"))?;
        per_shard.insert(shard, matched.len());
        for (request, &i) in requests.iter().zip(&matched) {
            let e = &events[i];
            if e.path == "/v1/query" {
                handle_ms.push(e.handle_us / 1e3);
                parse_us.push(e.parse_us);
                transport_ms.push((request.latency_us - e.parse_us - e.handle_us) / 1e3);
            }
        }
    }
    let pct =
        |v: &[f64], q: f64| stats::nearest_rank(&stats::sorted(v.to_vec()), q).unwrap_or(f64::NAN);
    let handle_p50 = pct(&handle_ms, 0.5);
    out.metric("server.handle_ms_p50", handle_p50, "ms");
    out.metric("server.handle_ms_p99", pct(&handle_ms, 0.99), "ms");
    out.metric("http.parse_us_p50", pct(&parse_us, 0.5), "us");
    out.metric("reactor.transport_ms_p50", pct(&transport_ms, 0.5), "ms");
    out.metric("reactor.transport_ms_p99", pct(&transport_ms, 0.99), "ms");
    let d = |family: &str| pass.after.total(family) - pass.before.total(family);
    let requests = d("updp_http_requests_total").max(1.0);
    out.metric(
        "reactor.wakeups_per_request",
        d("updp_reactor_wakeups_total") / requests,
        "count",
    );
    out.metric(
        "wire.bytes_out_per_request",
        d("updp_reactor_bytes_written_total") / requests,
        "bytes",
    );
    let counts: Vec<f64> = per_shard.values().map(|&v| v as f64).collect();
    let max = counts.iter().copied().fold(0.0, f64::max);
    let min = counts.iter().copied().fold(f64::INFINITY, f64::min);
    out.metric(
        "reactor.shard_balance",
        if max > 0.0 { min / max } else { 0.0 },
        "ratio",
    );
    out.line(format!(
        "trace: ids {}..={max_id} contiguous, {} query events matched per shard {per_shard:?}; p99 samples n={}{}",
        pass.first_id,
        handle_ms.len(),
        handle_ms.len(),
        if stats::reportable(handle_ms.len(), 0.99) { "" } else { " (fewer than 10 beyond p99)" }
    ));
    Ok(handle_p50)
}

/// The offline workload's summary served through the stack: its first
/// two columns registered on a server and summarised in hardened
/// batches on one connection, traced. Gives the offline workload its
/// server/http/reactor metrics and the inputs of its layer replays;
/// returns those inputs and the handler median in ms.
pub fn served_summary(
    out: &mut Outcome,
    spans: &mut SpanLog,
    dir: &Path,
    columns: &[&[f64]],
    seed: u64,
) -> Result<(Observed, f64), String> {
    const BATCHES: usize = 4;
    let p = crate::offline::PARAMS;
    let specs = vec![
        QuerySpec::new("mean", p.eps_mean),
        QuerySpec::new("variance", p.eps_variance),
        QuerySpec::new("quantile", p.eps_quantile).with("q", p.q),
        QuerySpec::new("iqr", p.eps_iqr),
    ];
    let nominal: Vec<f64> = specs.iter().map(|s| s.epsilon).collect();
    let harness = Harness::start(dir, FlushPolicy::immediate())?;
    let names: Vec<String> = (0..columns.len()).map(|i| format!("offline-{i}")).collect();
    let mut setup_conn = harness.connect()?;
    for (name, data) in names.iter().zip(columns) {
        setup_conn
            .register(name, BUDGET, data)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    drop(setup_conn);
    let placed = place(&harness, 1)?;
    let shards = placed.shards.clone();
    let mut conn = placed.conns.into_iter().next().ok_or("no connection")?;
    let first_id = last_trace_id(&mut conn)? + 1;
    let before = Scrape::take(&mut conn)?;
    let mut log = ConnLog::default();
    for i in 0..BATCHES {
        let d = i % columns.len();
        let qseed = wire_seed(seed ^ 0x0FF5, i as u64);
        let open = spans.begin("client.query", i as u64, None);
        let sent = Instant::now();
        let result = send(
            &mut conn,
            "POST",
            "/v1/query",
            &body(&names[d], qseed, &specs),
        );
        let ms = ms_since(sent);
        spans.end(open);
        log.query(d, &names[d], qseed, &nominal, sent, ms, result, false);
    }
    let after = Scrape::take(&mut conn)?;
    let final_events = scrape_trace(&mut conn)?;
    count_ops(out, &[&log]);
    check_counters(out, &before, &after);
    let pass = Pass {
        host: String::new(),
        rounds: Vec::new(),
        conns: Vec::new(),
        logs: vec![log],
        ops_per_s: 0.0,
        b_latency: Vec::new(),
        before,
        after,
        first_id,
        final_events,
    };
    let handle_p50 = trace_layers(out, &pass, &shards)?;
    drop(conn);
    let live = {
        let mut c = harness.connect()?;
        Scrape::take(&mut c)?
    };
    let ledger_path = harness.ledger_path.clone();
    harness.stop()?;
    let log = &pass.logs[0];
    check_ledger(out, &names, &log.charged, &live, &ledger_path)?;
    out.line(format!(
        "served summary: handler p50 {handle_p50:.3} ms over {BATCHES} batches"
    ));
    let observed = Observed {
        datasets: names
            .into_iter()
            .zip(columns.iter().map(|c| c.to_vec()))
            .collect(),
        specs,
        requests: log.sent.clone(),
        reserve_calls: log.reserve_calls.clone(),
        queries: log.queries,
        warm_seed: seed ^ 0x3A53,
        seed: seed ^ 0x0FF5,
    };
    Ok((observed, handle_p50))
}
