//! `offline-estimate`: the library path with no server. One op is a
//! summary of one pre-generated 10⁶-row column (mean, variance,
//! 0.9-quantile, IQR); columns alternate between Gaussian(100, 5) and
//! Student-t(ν = 3), the paper's two headline families.

use crate::spans::SpanLog;
use crate::stats::Digest;
use crate::{latency_metrics, replay, Args, Outcome, RunDir};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use updp_core::privacy::Epsilon;
use updp_core::rng::{child_seed, seeded};
use updp_dist::{ContinuousDistribution, Gaussian, StudentT};
use updp_statistical::{estimate_iqr, estimate_mean, estimate_quantile, estimate_variance};

/// Rows per column.
pub const N: usize = 1_000_000;
/// Pre-generated columns (alternating families). Summary cost depends
/// on the column drawn, so a run cycles through many of them.
const COLUMNS: usize = 16;
/// Summary parameters.
pub const PARAMS: replay::StatParams = replay::StatParams {
    eps_mean: 0.5,
    eps_variance: 0.5,
    eps_quantile: 0.5,
    eps_iqr: 1.0,
    q: 0.9,
    beta: 0.1,
};
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client threads. One: two concurrent 10⁶-row summaries contend for
/// cache and memory bandwidth on a 2-core host, which made the op time
/// depend on how the two ops overlapped.
const THREADS: usize = 1;
/// Ops whose released values enter the digest.
const DIGEST_OPS: u64 = 8;

/// One pre-generated column and its population values.
pub struct Column {
    /// The rows.
    pub data: Vec<f64>,
    family: &'static str,
    truth: [f64; 4],
    sd: f64,
}

fn generate(seed: u64) -> Vec<Column> {
    (0..COLUMNS)
        .map(|c| {
            let mut rng = seeded(child_seed(seed, c as u64));
            let dist: Box<dyn ContinuousDistribution> = if c % 2 == 0 {
                Box::new(Gaussian::new(100.0, 5.0).expect("valid Gaussian"))
            } else {
                Box::new(StudentT::new(3.0, 0.0, 1.0).expect("valid Student-t"))
            };
            let data: Vec<f64> = (0..N).map(|_| dist.sample(&mut rng)).collect();
            let iqr = dist.quantile(0.75) - dist.quantile(0.25);
            Column {
                data,
                family: if c % 2 == 0 { "gaussian" } else { "student-t3" },
                truth: [dist.mean(), dist.variance(), dist.quantile(PARAMS.q), iqr],
                sd: dist.variance().sqrt(),
            }
        })
        .collect()
}

/// Generates the columns `SETUPS` times; returns the last set and each
/// set-up's time in seconds.
pub fn setup(seed: u64) -> (Vec<Column>, Vec<f64>) {
    let mut times = Vec::new();
    let mut columns = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        columns = std::hint::black_box(generate(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (columns, times)
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("positive epsilon")
}

/// One summary: the four universal estimates.
fn summary(
    column: &Column,
    rng: &mut StdRng,
    log: &mut SpanLog,
    op: u64,
) -> Result<[f64; 4], updp_core::UpdpError> {
    let p = &PARAMS;
    let data = &column.data[..];
    let root = log.begin("op.summary", op, None);
    let parent = root.id();
    let mean = log.time("statistical.estimate_mean", op, parent, || {
        estimate_mean(rng, data, eps(p.eps_mean), p.beta)
    })?;
    let variance = log.time("statistical.estimate_variance", op, parent, || {
        estimate_variance(rng, data, eps(p.eps_variance), p.beta)
    })?;
    let quantile = log.time("statistical.estimate_quantile", op, parent, || {
        estimate_quantile(rng, data, p.q, eps(p.eps_quantile), p.beta)
    })?;
    let iqr = log.time("statistical.estimate_iqr", op, parent, || {
        estimate_iqr(rng, data, eps(p.eps_iqr), p.beta)
    })?;
    log.end(root);
    Ok([
        mean.estimate,
        variance.estimate,
        quantile.estimate,
        iqr.estimate,
    ])
}

/// Whether a summary is finite and within a loose tolerance of the
/// population values: a quarter standard deviation for the mean, a
/// quarter IQR for the quantile, half the value for variance and IQR.
fn plausible(column: &Column, v: &[f64; 4]) -> bool {
    let [mean, var, q, iqr] = column.truth;
    v.iter().all(|x| x.is_finite())
        && (v[0] - mean).abs() <= 0.25 * column.sd
        && (v[1] - var).abs() <= 0.5 * var
        && (v[2] - q).abs() <= 0.25 * iqr
        && (v[3] - iqr).abs() <= 0.5 * iqr
}

/// The measured phase's results.
struct Phase {
    ops: u64,
    ops_per_s: f64,
    wall_s: f64,
    host: String,
    family_p50: [f64; 2],
    latencies_ms: Vec<f64>,
    failed: Vec<String>,
    digest: Digest,
    digest_ops: u64,
    spans: Vec<crate::spans::Span>,
}

fn phase(columns: &[Column], seed: u64, seconds: f64, traced: bool) -> Phase {
    let next = AtomicU64::new(0);
    let host = crate::HostSample::begin();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let per_thread: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = SpanLog::new(epoch, t as u64 + 1, traced);
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        let column = &columns[op as usize % columns.len()];
                        let mut rng = seeded(child_seed(seed ^ 0x5EED_0FF1, op));
                        let started = Instant::now();
                        let result = summary(column, &mut rng, &mut log, op);
                        let ms = crate::ms_since(started);
                        done.push((op, ms, result.map(|v| (plausible(column, &v), v))));
                    }
                    (done, Instant::now(), log.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("offline worker panicked"))
            .collect()
    });
    // Each thread is busy from the epoch to the end of its last op, so
    // the throughput is the sum of per-thread rates; the last ops'
    // overrun past the deadline does not dilute it.
    let rate: f64 = per_thread
        .iter()
        .map(|(done, end, _)| done.len() as f64 / end.duration_since(epoch).as_secs_f64())
        .sum();
    let wall_s = per_thread
        .iter()
        .map(|(_, end, _)| end.duration_since(epoch).as_secs_f64())
        .fold(0.0, f64::max);
    let mut ops: Vec<_> = Vec::new();
    let mut spans = Vec::new();
    for (done, _, s) in per_thread {
        ops.extend(done);
        spans.extend(s);
    }
    ops.sort_by_key(|(op, _, _)| *op);
    let mut failed = Vec::new();
    let mut digest = Digest::default();
    let mut digest_ops = 0;
    for (op, _, result) in &ops {
        let column = &columns[*op as usize % columns.len()];
        match result {
            Ok((true, v)) => {
                if *op < DIGEST_OPS {
                    v.iter().for_each(|x| digest.add(*x));
                    digest_ops += 1;
                }
            }
            Ok((false, v)) => failed.push(format!(
                "op {op} ({}): summary {v:?} is far from the population values {:?}",
                column.family, column.truth
            )),
            Err(e) => failed.push(format!("op {op} ({}): {e}", column.family)),
        }
    }
    Phase {
        ops: ops.len() as u64,
        ops_per_s: rate,
        wall_s,
        host: host.end(),
        family_p50: [0, 1].map(|f| {
            let v: Vec<f64> = ops
                .iter()
                .filter(|(op, _, _)| *op as usize % 2 == f)
                .map(|(_, ms, _)| *ms)
                .collect();
            crate::stats::median(&v).unwrap_or(f64::NAN)
        }),
        latencies_ms: ops.iter().map(|(_, ms, _)| *ms).collect(),
        failed,
        digest,
        digest_ops,
        spans,
    }
}

fn record(out: &mut Outcome, label: &str, p: &Phase) {
    out.ops(p.ops, 0);
    for f in &p.failed {
        out.check(false, || f.clone());
    }
    out.line(format!(
        "{label}: {} summaries in {:.2} s on {THREADS} thread, {} failed; median ms gaussian {:.1} student-t3 {:.1}; {}; digest(ops 0..{})={}",
        p.ops,
        p.wall_s,
        p.failed.len(),
        p.family_p50[0],
        p.family_p50[1],
        p.host,
        p.digest_ops,
        p.digest.hex()
    ));
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (columns, times) = setup(args.seed);
    let setup_s = crate::stats::median(&times).unwrap_or(f64::NAN);
    out.line(format!(
        "setup: {COLUMNS} columns x {N} rows, median of {SETUPS} set-ups {setup_s:.3} s {}",
        crate::seconds_list(&times)
    ));
    let untraced = phase(&columns, args.seed, args.pass_seconds(), false);
    record(&mut out, "measured", &untraced);
    let ops_per_s = untraced.ops_per_s;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.line(format!("failed_frac = {failed_frac} ratio"));
    if !args.trace {
        out.metric("ops_per_s", ops_per_s, "ops/s");
        latency_metrics(&mut out, "summary latency", untraced.latencies_ms.clone());
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        return Ok(out);
    }
    let traced = phase(&columns, args.seed, args.pass_seconds(), true);
    record(&mut out, "traced", &traced);
    let traced_ops = traced.ops_per_s;
    out.metric(
        "trace.overhead_frac",
        (ops_per_s - traced_ops) / ops_per_s,
        "ratio",
    );
    let dir = RunDir::new("offline").map_err(|e| e.to_string())?;
    let mut log = SpanLog::new(Instant::now(), 100, true);
    let data: Vec<&[f64]> = columns.iter().take(2).map(|c| &c.data[..]).collect();
    replay::statistical(&mut out, &mut log, &data, &PARAMS, args.seed, 2);
    let (served, handle_p50) =
        crate::serve::served_summary(&mut out, &mut log, &dir.path, &data, args.seed)?;
    let engine_p50 = replay::ledger_engine_registry(&mut out, &mut log, &dir.path, &served)?;
    crate::serve::agree(&mut out, engine_p50, handle_p50)?;
    let mut spans = traced.spans;
    spans.extend(log.into_spans());
    replay::finish_spans(&mut out, args, &spans);
    Ok(out)
}
