//! Layer replays for the traced run. After the timed phases, each
//! layer's public functions are called again on the workload's own
//! data, specs and seeds, timed from here; nothing inside the program
//! is instrumented.

use crate::spans::{self, Span, SpanLog};
use crate::stats;
use crate::{client_threads, ms_since, Args, Outcome};
use std::path::Path;
use std::time::{Duration, Instant};
use updp_core::amplification::paper_inner_epsilon;
use updp_core::clipped_mean::clipped_mean_with_outside;
use updp_core::privacy::Epsilon;
use updp_core::rng::{child_seed, seeded};
use updp_empirical::discretize::{real_quantile_view, real_range};
use updp_empirical::view::sorted_copy_threads;
use updp_serve::engine::{execute_batch, DEFAULT_BOUND, ESTIMATOR_SHARE};
use updp_serve::{
    EstimatorCatalog, FlushPolicy, Ledger, QueryOutcome, QuerySpec, Registry, ReleaseMode,
};
use updp_statistical::{
    estimate_iqr, estimate_iqr_lower_bound, estimate_mean, estimate_quantile, estimate_variance,
    ColumnCache, ColumnView, EstimateParams, DEFAULT_BETA,
};

/// Estimator parameters of a workload's statistical stages.
#[derive(Debug, Clone, Copy)]
pub struct StatParams {
    /// ε of the mean.
    pub eps_mean: f64,
    /// ε of the variance.
    pub eps_variance: f64,
    /// ε of the quantile.
    pub eps_quantile: f64,
    /// ε of the IQR.
    pub eps_iqr: f64,
    /// Quantile level.
    pub q: f64,
    /// Failure probability β.
    pub beta: f64,
}

/// What a workload's served phase used, for the replays.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Registered datasets: name and rows.
    pub datasets: Vec<(String, Vec<f64>)>,
    /// The query batch.
    pub specs: Vec<QuerySpec>,
    /// (dataset index, request seed) of served batches, in order.
    pub requests: Vec<(usize, u64)>,
    /// `reserve_many` calls the served batches implied.
    pub reserve_calls: Vec<(usize, Vec<f64>)>,
    /// Batches behind `reserve_calls`.
    pub queries: usize,
    /// Seed of the warm-up batch each dataset got at set-up.
    pub warm_seed: u64,
    /// Seed for replay inputs (appended rows).
    pub seed: u64,
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("positive epsilon")
}

fn p50(v: &[f64]) -> f64 {
    stats::nearest_rank(&stats::sorted(v.to_vec()), 0.5).unwrap_or(f64::NAN)
}

fn p99(v: &[f64]) -> f64 {
    stats::nearest_rank(&stats::sorted(v.to_vec()), 0.99).unwrap_or(f64::NAN)
}

/// Times `f` in milliseconds inside a span.
fn timed<T>(
    log: &mut SpanLog,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let open = log.begin(name, request, None);
    let t = Instant::now();
    let out = f();
    let ms = ms_since(t);
    log.end(open);
    (out, ms)
}

/// Replays each estimator and the stages of the mean on `columns`,
/// `reps` times per column, and reports their median times.
pub fn statistical(
    out: &mut Outcome,
    log: &mut SpanLog,
    columns: &[&[f64]],
    p: &StatParams,
    seed: u64,
    reps: usize,
) {
    let mut t: [Vec<f64>; 9] = Default::default();
    let mut coverage = Vec::new();
    let mut failures = 0;
    for r in 0..reps {
        for (c, data) in columns.iter().enumerate() {
            let req = (r * columns.len() + c) as u64;
            let mut rng = seeded(child_seed(seed ^ 0x57A6, req));
            let n = data.len();
            let (mean, mean_ms) = timed(log, "statistical.estimate_mean", req, || {
                estimate_mean(&mut rng, data, eps(p.eps_mean), p.beta)
            });
            let Ok(mean) = mean else {
                failures += 1;
                continue;
            };
            let (lb, lb_ms) = timed(log, "statistical.estimate_iqr_lower_bound", req, || {
                estimate_iqr_lower_bound(&mut rng, data, eps(p.eps_mean / 8.0), p.beta / 9.0)
            });
            let m = mean.subsample.min(n);
            let subsample: Vec<f64> = rand::seq::index::sample(&mut rng, n, m)
                .iter()
                .map(|i| data[i])
                .collect();
            let inner = paper_inner_epsilon(eps(p.eps_mean)).scale(0.75);
            let (range, range_ms) = timed(log, "empirical.real_range", req, || {
                real_range(&mut rng, &subsample, mean.bucket, inner, p.beta / 9.0)
            });
            let (clip, clip_ms) = timed(log, "core.clipped_mean_with_outside", req, || {
                clipped_mean_with_outside(data, mean.range.lo, mean.range.hi)
            });
            let (var, var_ms) = timed(log, "statistical.estimate_variance", req, || {
                estimate_variance(&mut rng, data, eps(p.eps_variance), p.beta)
            });
            let (quant, q_ms) = timed(log, "statistical.estimate_quantile", req, || {
                estimate_quantile(&mut rng, data, p.q, eps(p.eps_quantile), p.beta)
            });
            let Ok(quant) = quant else {
                failures += 1;
                continue;
            };
            let (rq, rq_ms) = timed(log, "empirical.real_quantile_view", req, || {
                let cache = ColumnCache::new();
                real_quantile_view(
                    &mut rng,
                    &ColumnView::cached(data, &cache),
                    quant.rank,
                    quant.bucket,
                    eps(p.eps_quantile).scale(0.5),
                    p.beta / 2.0,
                )
            });
            let (iqr, iqr_ms) = timed(log, "statistical.estimate_iqr", req, || {
                estimate_iqr(&mut rng, data, eps(p.eps_iqr), p.beta)
            });
            let (sorted, sort_ms) = timed(log, "empirical.sorted_copy_threads", req, || {
                sorted_copy_threads(data, client_threads())
            });
            std::hint::black_box(&sorted);
            if lb.is_err()
                || range.is_err()
                || clip.is_err()
                || var.is_err()
                || rq.is_err()
                || iqr.is_err()
            {
                failures += 1;
                continue;
            }
            for (slot, v) in t.iter_mut().zip([
                mean_ms, var_ms, q_ms, iqr_ms, lb_ms, range_ms, rq_ms, sort_ms, clip_ms,
            ]) {
                slot.push(v);
            }
            coverage.push((lb_ms + range_ms + clip_ms) / mean_ms);
        }
    }
    out.check(failures == 0, || {
        format!("{failures} statistical replays failed")
    });
    let names = [
        "statistical.mean_ms",
        "statistical.variance_ms",
        "statistical.quantile_ms",
        "statistical.iqr_ms",
        "statistical.iqr_lower_bound_ms",
        "empirical.real_range_ms",
        "empirical.real_quantile_ms",
        "empirical.sorted_copy_ms",
        "core.clipped_mean_ms",
    ];
    for (name, v) in names.iter().zip(&t) {
        out.metric(name, p50(v), "ms");
    }
    out.metric("statistical.stage_coverage", p50(&coverage), "ratio");
    out.line(format!(
        "statistical replays: {} columns x {reps} reps of n={}",
        columns.len(),
        columns.first().map_or(0, |c| c.len())
    ));
}

/// Opens a file ledger at `path` with one account per dataset.
fn ledger_with(path: &Path, obs: &Observed) -> Result<Ledger, String> {
    let _ = std::fs::remove_file(path);
    let ledger = Ledger::open(path).map_err(|e| e.to_string())?;
    for (name, _) in &obs.datasets {
        ledger.register(name, 1e6).map_err(|e| e.to_string())?;
    }
    Ok(ledger)
}

fn released(outcomes: &[QueryOutcome]) -> bool {
    outcomes.iter().all(|o| matches!(o, QueryOutcome::Released { values, .. } if values.iter().all(|v| v.is_finite())))
}

const HARDENED: ReleaseMode = ReleaseMode::Hardened {
    bound: DEFAULT_BOUND,
};

/// The registry replay's write pattern: appends of `APPEND_ROWS`
/// Gaussian(100, 5) rows and a flush after every `APPENDS_PER_FLUSH`
/// appends, each flush followed by one read of the fresh snapshot. No
/// workload writes, so this is a fixed pattern, not one observed in a
/// run.
const APPEND_ROWS: usize = 10;
const APPENDS_PER_FLUSH: usize = 5;

/// Replays the ledger and engine layers on the workload's inputs, and
/// the registry layer with [`APPEND_ROWS`]-row appends on its first
/// dataset. Returns the replayed `execute_batch` median in ms.
pub fn ledger_engine_registry(
    out: &mut Outcome,
    log: &mut SpanLog,
    dir: &Path,
    obs: &Observed,
) -> Result<f64, String> {
    // Ledger: the workload's accounts and reservation amounts against
    // a file ledger, as deployed.
    let ledger = ledger_with(&dir.join("replay-ledger.json"), obs)?;
    let mut reserve_ms = Vec::new();
    for (i, (d, amounts)) in obs.reserve_calls.iter().enumerate() {
        let (r, ms) = timed(log, "ledger.reserve_many", i as u64, || {
            ledger.reserve_many(&obs.datasets[*d].0, amounts)
        });
        let granted = r.map_err(|e| e.to_string())?.iter().all(Result::is_ok);
        out.check(granted, || format!("replayed reservation {i} was refused"));
        reserve_ms.push(ms);
    }
    let queries = obs.queries.max(1) as f64;
    out.metric("ledger.reserve_ms_p50", p50(&reserve_ms), "ms");
    out.metric("ledger.reserve_ms_p99", p99(&reserve_ms), "ms");
    out.metric(
        "ledger.snapshot_bytes",
        ledger.snapshot_json().map_err(|e| e.to_string())?.len() as f64,
        "bytes",
    );
    out.metric(
        "ledger.persists_per_query",
        obs.reserve_calls.len() as f64 / queries,
        "count",
    );
    let ledger_per_query = reserve_ms.iter().sum::<f64>() / queries;
    out.line(format!(
        "ledger replay: {} reserve_many calls for {} batches over {} accounts{}",
        reserve_ms.len(),
        obs.queries,
        obs.datasets.len(),
        if stats::reportable(reserve_ms.len(), 0.99) {
            ""
        } else {
            " (fewer than 10 beyond p99)"
        }
    ));

    // Engine: the same snapshots, specs and seeds through
    // `execute_batch`, then each estimator alone through the catalog.
    let catalog = EstimatorCatalog::standard();
    // The estimators are replayed on a twin registry warmed the same
    // way, so neither replay warms a grid the other then reuses.
    let registry = Registry::new();
    let twin = Registry::new();
    let ledger = ledger_with(&dir.join("replay-engine.json"), obs)?;
    let twin_ledger = ledger_with(&dir.join("replay-twin.json"), obs)?;
    let used: std::collections::BTreeSet<usize> = obs.requests.iter().map(|(d, _)| *d).collect();
    for &d in &used {
        let (name, rows) = &obs.datasets[d];
        for (reg, led) in [(&registry, &ledger), (&twin, &twin_ledger)] {
            let dataset = reg
                .register(name, vec![rows.clone()])
                .map_err(|e| e.to_string())?;
            let warm = execute_batch(&dataset, &catalog, led, &obs.specs, obs.warm_seed, HARDENED)
                .map_err(|e| e.to_string())?;
            out.check(released(&warm), || {
                format!("replayed warm-up of {name} did not release")
            });
        }
    }
    let mut batch_ms = Vec::new();
    let mut estimator_ms = Vec::new();
    let mut warm_reads = 0usize;
    for (i, &(d, seed)) in obs.requests.iter().enumerate() {
        let name = &obs.datasets[d].0;
        let dataset = registry.get(name).map_err(|e| e.to_string())?;
        let snapshot = dataset.snapshot().map_err(|e| e.to_string())?;
        let col = snapshot.column_view(0);
        warm_reads += usize::from(col.has_sorted() && col.has_gap_summary());
        drop(snapshot);
        let (outcomes, ms) = timed(log, "engine.execute_batch", i as u64, || {
            execute_batch(&dataset, &catalog, &ledger, &obs.specs, seed, HARDENED)
        });
        let ok = outcomes.map(|o| released(&o)).unwrap_or(false);
        out.check(ok, || format!("replayed batch {i} did not release"));
        batch_ms.push(ms);
        // The engine's estimation phase alone: each query's estimator
        // on the snapshot view with the engine's child seed and
        // hardened ε share, run in parallel as the engine runs them.
        let twin_snapshot = twin
            .get(name)
            .and_then(|t| t.snapshot())
            .map_err(|e| e.to_string())?;
        let view = twin_snapshot.view();
        let (results, ms) = timed(log, "engine.estimators", i as u64, || {
            updp_core::parallel::par_map_indexed(obs.specs.len(), |k| {
                let spec = &obs.specs[k];
                let estimator = catalog.get(&spec.estimator)?;
                let mut params = EstimateParams::new(eps(spec.epsilon * ESTIMATOR_SHARE))
                    .with_beta(DEFAULT_BETA);
                for (name, value) in &spec.options {
                    params.set(name, *value);
                }
                let mut rng = seeded(child_seed(seed, k as u64));
                estimator.estimate(&mut rng, &view, &params).ok()
            })
        });
        out.check(results.iter().all(Option::is_some), || {
            format!("replayed estimators of batch {i} failed")
        });
        estimator_ms.push(ms);
    }
    let engine_p50 = p50(&batch_ms);
    out.metric("engine.execute_batch_ms_p50", engine_p50, "ms");
    out.metric("engine.estimators_ms_p50", p50(&estimator_ms), "ms");
    out.metric(
        "engine.self_ms_p50",
        engine_p50 - ledger_per_query - p50(&estimator_ms),
        "ms",
    );
    out.line(format!(
        "engine replay: {} batches over {} datasets, estimators on {} threads",
        batch_ms.len(),
        used.len(),
        updp_core::parallel::max_threads()
    ));

    // Registry: appends and flushes on the workload's first dataset,
    // each flush followed by the first query on the fresh snapshot.
    let (name, rows) = &obs.datasets[0];
    let registry = Registry::with_policy(FlushPolicy::buffered(1000, Duration::from_millis(200)));
    let dataset = registry
        .register(name, vec![rows.clone()])
        .map_err(|e| e.to_string())?;
    execute_batch(
        &dataset,
        &catalog,
        &ledger,
        &obs.specs,
        obs.warm_seed,
        HARDENED,
    )
    .map_err(|e| e.to_string())?;
    let dist = updp_dist::Gaussian::new(100.0, 5.0).expect("valid Gaussian");
    let mut rng = seeded(child_seed(obs.seed, 0x4E9));
    let (mut append_ms, mut flush_ms, mut fresh_ms) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut cycle = 0u64;
    while cycle < 3 || (cycle < 1000 && started.elapsed() < Duration::from_secs(2)) {
        for _ in 0..APPENDS_PER_FLUSH {
            let delta: Vec<f64> = (0..APPEND_ROWS)
                .map(|_| updp_dist::ContinuousDistribution::sample(&dist, &mut rng))
                .collect();
            let (r, ms) = timed(log, "registry.append", cycle, || {
                registry.append(name, vec![delta])
            });
            r.map_err(|e| e.to_string())?;
            append_ms.push(ms);
        }
        let (r, ms) = timed(log, "registry.flush", cycle, || registry.flush(name));
        r.map_err(|e| e.to_string())?;
        flush_ms.push(ms);
        let seed = child_seed(obs.seed ^ 0x4EAD, cycle * 64);
        let (r, ms) = timed(log, "engine.execute_batch", cycle, || {
            execute_batch(&dataset, &catalog, &ledger, &obs.specs, seed, HARDENED)
        });
        out.check(r.map(|o| released(&o)).unwrap_or(false), || {
            format!("registry replay read {cycle} did not release")
        });
        fresh_ms.push(ms);
        cycle += 1;
    }
    out.metric("registry.append_ms_p50", p50(&append_ms), "ms");
    out.metric("registry.flush_ms_p50", p50(&flush_ms), "ms");
    out.metric("registry.flush_ms_p99", p99(&flush_ms), "ms");
    out.metric("registry.fresh_query_ms_p50", p50(&fresh_ms), "ms");
    // The workloads never write, so their reads meet only warmed
    // snapshots; the share is measured on the engine replay's reads.
    out.metric(
        "registry.warm_read_share",
        warm_reads as f64 / obs.requests.len().max(1) as f64,
        "ratio",
    );
    out.line(format!(
        "registry replay: {cycle} cycles of {APPENDS_PER_FLUSH} appends of {APPEND_ROWS} rows + flush + 1 read on {} rows{}",
        rows.len(),
        if stats::reportable(flush_ms.len(), 0.99) {
            ""
        } else {
            " (flush p99 has fewer than 10 beyond)"
        }
    ));
    Ok(engine_p50)
}

/// Writes the run's spans to `.perfbench/spans/` and reports span
/// counts and self times.
pub fn finish_spans(out: &mut Outcome, args: &Args, spans: &[Span]) {
    let path = Path::new(".perfbench").join("spans").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match spans::write(&path, spans) {
        Ok(()) => out.line(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        }),
    }
    for (name, (count, total, own)) in spans::self_times(spans) {
        out.line(format!(
            "span {name}: n={count} total {:.1} ms self {:.1} ms",
            total / 1e3,
            own / 1e3
        ));
    }
}
