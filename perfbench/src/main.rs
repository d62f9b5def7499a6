//! The updp benchmark: one command that runs a workload, checks every
//! output, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-estimate|serve-query \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and seed untraced and then traced, replays each layer, and
//! prints the per-layer metrics. Report lines go to stdout; the last
//! line is one JSON object `{correct, attempted, failed, metrics}`.
//! Scratch files live under `.perfbench/` in the working directory.

mod offline;
mod onecore;
mod replay;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`, as
/// listed in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("statistical.mean_ms", "ms"),
    ("statistical.variance_ms", "ms"),
    ("statistical.quantile_ms", "ms"),
    ("statistical.iqr_ms", "ms"),
    ("statistical.iqr_lower_bound_ms", "ms"),
    ("statistical.stage_coverage", "ratio"),
    ("empirical.real_range_ms", "ms"),
    ("empirical.real_quantile_ms", "ms"),
    ("empirical.sorted_copy_ms", "ms"),
    ("core.clipped_mean_ms", "ms"),
    ("ledger.reserve_ms_p50", "ms"),
    ("ledger.reserve_ms_p99", "ms"),
    ("ledger.snapshot_bytes", "bytes"),
    ("ledger.persists_per_query", "count"),
    ("engine.execute_batch_ms_p50", "ms"),
    ("engine.estimators_ms_p50", "ms"),
    ("engine.self_ms_p50", "ms"),
    ("server.handle_ms_p50", "ms"),
    ("server.handle_ms_p99", "ms"),
    ("http.parse_us_p50", "us"),
    ("reactor.transport_ms_p50", "ms"),
    ("reactor.transport_ms_p99", "ms"),
    ("reactor.wakeups_per_request", "count"),
    ("reactor.shard_balance", "ratio"),
    ("wire.bytes_out_per_request", "bytes"),
    ("registry.append_ms_p50", "ms"),
    ("registry.flush_ms_p50", "ms"),
    ("registry.flush_ms_p99", "ms"),
    ("registry.fresh_query_ms_p50", "ms"),
    ("registry.warm_read_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The library path: universal estimates over 10⁶-row columns.
    OfflineEstimate,
    /// Budgeted analyst batches against the deployed serving stack.
    ServeQuery,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "offline-estimate" => Some(Workload::OfflineEstimate),
            "serve-query" => Some(Workload::ServeQuery),
            _ => None,
        }
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineEstimate => "offline-estimate",
            Workload::ServeQuery => "serve-query",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `true` for the traced run.
    pub trace: bool,
}

impl Args {
    /// Length of each measured pass: the traced run splits `--seconds`
    /// between an untraced and a traced pass of the same workload.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload offline-estimate|serve-query \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0 && *s <= 60.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Failed operations, refusals, 503s and failed checks.
    pub failed: u64,
    /// Metrics for the JSON line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Report lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records one output check; a failing check counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

/// Per-run scratch space under `.perfbench/` in the working directory,
/// removed when dropped.
pub struct RunDir {
    /// The directory.
    pub path: PathBuf,
}

impl RunDir {
    /// Creates a fresh directory unique to this process and `tag`.
    pub fn new(tag: &str) -> std::io::Result<RunDir> {
        let path = PathBuf::from(".perfbench").join(format!("tmp-{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time of this process (all threads, user + system) in seconds,
/// from `/proc/self/stat` in clock ticks of 1/100 s. Time the host
/// steals from the guest is not charged to the process.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host CPU counters from `/proc/stat`: (steal ticks, all ticks).
pub fn host_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0.0), v.iter().take(8).sum())
}

/// Share of the host's CPU ticks stolen since `start` (a
/// [`crate::host_ticks`] reading).
fn steal_since(start: (f64, f64)) -> f64 {
    let (steal, all) = crate::host_ticks();
    (steal - start.0) / (all - start.1).max(1.0)
}

/// Host steal and process CPU time over a measured interval.
pub struct HostSample {
    steal: f64,
    all: f64,
    cpu: f64,
    wall: Instant,
}

impl HostSample {
    /// Starts an interval.
    pub fn begin() -> HostSample {
        let (steal, all) = host_ticks();
        HostSample {
            steal,
            all,
            cpu: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// Ends the interval as a report fragment.
    pub fn end(&self) -> String {
        let (steal, all) = host_ticks();
        format!(
            "host steal {:.1}% of CPU ticks, process CPU {:.2} s over {:.2} s wall",
            100.0 * (steal - self.steal) / (all - self.all).max(1.0),
            process_cpu_s() - self.cpu,
            self.wall.elapsed().as_secs_f64()
        )
    }
}

/// `[1.234, 1.301, …] s`: times in seconds for a report line.
pub fn seconds_list(times: &[f64]) -> String {
    let v: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    format!("[{}] s", v.join(", "))
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Client threads and connections: the host's available parallelism.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Adds `p50_ms` for `samples_ms` and a report line with the sample
/// count, the quartile spread and, when at least ten samples lie beyond
/// it, the nearest-rank `p99_ms`.
pub fn latency_metrics(out: &mut Outcome, label: &str, samples_ms: Vec<f64>) {
    let spread = stats::spread(&samples_ms).unwrap_or(f64::NAN);
    let s = stats::sorted(samples_ms);
    let n = s.len();
    let p50 = stats::nearest_rank(&s, 0.5).unwrap_or(f64::NAN);
    out.metric("p50_ms", p50, "ms");
    let p99 = if stats::reportable(n, 0.99) {
        format!(
            "p99_ms = {} ms",
            stats::nearest_rank(&s, 0.99).unwrap_or(f64::NAN)
        )
    } else {
        "no p99 (fewer than 10 samples beyond it)".to_string()
    };
    out.line(format!(
        "{label}: n={n} p50_ms = {p50} ms, quartile spread {spread:.4} of the median, {p99}"
    ));
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let held = match onecore::OneCore::hold() {
        Ok(held) => held,
        Err(e) => {
            eprintln!("perfbench: holding one core: {e}");
            std::process::exit(1);
        }
    };
    let result = match args.workload {
        Workload::OfflineEstimate => offline::run(&args),
        Workload::ServeQuery => serve::run_query(&args),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    println!(
        "one core: cpu {}, kept awake by an idle-priority spinner",
        held.cpu
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in expected {
        let Some(m) = outcome.metrics.iter().find(|m| m.name == name) else {
            eprintln!("perfbench: metric {name} was not measured");
            std::process::exit(1);
        };
        if !m.value.is_finite() || m.unit != unit {
            eprintln!(
                "perfbench: metric {name} = {} {} is not reportable",
                m.value, m.unit
            );
            std::process::exit(1);
        }
        println!("metric {name} = {} {unit}", m.value);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    println!(
        "workload {} seed {} trace {} wall {:.1} s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    drop(held);
}
