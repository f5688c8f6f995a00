//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and the layer → metric → end-to-end map.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mix-lossy --seed 1 --seconds 60 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Any correctness violation exits with status 1.

pub mod core_run;
pub mod gate;
pub mod kv;
pub mod meters;
pub mod tap;

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use samoa_core::RuntimeStats;

use crate::meters::Samples;

/// End-to-end metrics (`--trace 0`), with units, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("op_ok_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, in report order. A layer a
/// workload never touches (the network in `core-run`) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.comps_per_op", "count"),
    ("runtime.handler_calls_per_op", "count"),
    ("runtime.admission_wait_us_per_op", "us"),
    ("runtime.wait_wakeups_per_op", "count"),
    ("version.parks_per_op", "count"),
    ("version.gate_spins_per_op", "count"),
    ("node.submit_us", "us"),
    ("node.deliver_us", "us"),
    ("node.deliver_busy_ratio", "ratio"),
    ("transport.datagrams_per_op", "count"),
    ("transport.bytes_per_op", "B"),
    ("transport.send_us", "us"),
    ("transport.wire_us", "us"),
    ("transport.dropped_per_op", "count"),
    ("transport.duplicated_per_op", "count"),
    ("relcomm.acks_per_op", "count"),
    ("relcomm.retransmits_per_op", "count"),
    ("relcomm.pending_max", "count"),
    ("abcast.requests_per_op", "count"),
    ("abcast.decides_per_op", "count"),
    ("abcast.batch_mean", "count"),
    ("abcast.pending_max", "count"),
    ("consensus.msgs_per_op", "count"),
    ("consensus.instances_per_op", "count"),
    ("consensus.rounds_per_instance", "count"),
    ("consensus.live_max", "count"),
    ("kv.applied_per_submitted", "ratio"),
    ("trace.p50_ratio", "ratio"),
    ("trace.ops_ratio", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["put-seq", "mix-tcp", "mix-lossy", "core-run"];

/// Named measurements of one run; units come from the metric tables.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name`, which must be a declared metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not a declared metric"
        );
        self.0.push((name, value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations (or computations) attempted while timing.
    pub attempted: usize,
    /// Of those, how many timed out or were refused.
    pub failed: usize,
    /// Latency samples above the p99 rank.
    pub samples_beyond_p99: u64,
    /// Correctness violations; any makes the run fail.
    pub violations: Vec<gate::Violation>,
    /// What was measured.
    pub metrics: Metrics,
}

/// One timed window of closed-loop load, summarised.
pub struct Segment {
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Operations committed.
    pub committed: u64,
    /// Latency samples beyond the p99 rank.
    pub beyond_p99: u64,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that timed out or were refused.
    pub failed: usize,
    /// Wall-clock from the first submission to the last completion.
    pub wall: Duration,
    /// Process CPU time over the window, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size over the window, in MB (set by `segments`).
    pub rss_peak_mb: f64,
}

impl Segment {
    /// Summarise a window: `latency` holds one sample per committed
    /// operation.
    pub fn new(
        mut latency: Samples,
        attempted: usize,
        failed: usize,
        wall: Duration,
        cpu_s: f64,
    ) -> Segment {
        Segment {
            p50_us: latency.percentile_us(0.5),
            p99_us: latency.percentile_us(0.99),
            committed: latency.count(),
            beyond_p99: latency.beyond(0.99),
            attempted,
            failed,
            wall,
            cpu_s,
            rss_peak_mb: 0.0,
        }
    }

    /// Committed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.committed as f64 / self.wall.as_secs_f64()
    }
}

/// Time segments from `next` for about `seconds`: a new segment starts only
/// if one as long as the last still fits. Each segment records its own peak
/// resident set size.
pub fn segments(seconds: f64, mut next: impl FnMut() -> Segment) -> Vec<Segment> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut segs = Vec::new();
    loop {
        if let Err(e) = meters::reset_rss_peak() {
            eprintln!("could not reset the peak RSS, so it counts from process start: {e}");
        }
        let mut seg = next();
        seg.rss_peak_mb = meters::rss_peak_mb();
        let wall = seg.wall;
        segs.push(seg);
        if start.elapsed() + wall > budget {
            return segs;
        }
    }
}

/// `a - b`, counter by counter.
pub fn stats_delta(a: RuntimeStats, b: RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        computations_spawned: a.computations_spawned - b.computations_spawned,
        computations_completed: a.computations_completed - b.computations_completed,
        handler_calls: a.handler_calls - b.handler_calls,
        admission_wait: a.admission_wait.saturating_sub(b.admission_wait),
        bound_releases: a.bound_releases - b.bound_releases,
        route_releases: a.route_releases - b.route_releases,
        version_wait_wakeups: a.version_wait_wakeups - b.version_wait_wakeups,
    }
}

/// `rss_peak_mb` is the median peak of the first this many segments. The
/// program keeps state for every operation it applies, so a figure over the
/// whole run would grow with the number of operations the run fits in, that
/// is with the machine's speed; a fixed amount of work reads the same on a
/// fast and a slow run.
const RSS_SEGMENTS: usize = 5;

/// The end-to-end metrics from a run's set-up times and load segments.
/// Latency, throughput and success figures are medians over the segments,
/// so a burst of machine noise that spoils a segment or two does not move
/// the run's figure.
pub fn end_to_end(setups: &mut [f64], segs: &[Segment]) -> Metrics {
    let med = |f: &dyn Fn(&Segment) -> f64| median(&mut segs.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.put("setup_s", median(setups));
    m.put("op_p50_us", med(&|s| s.p50_us));
    m.put("op_p99_us", med(&|s| s.p99_us));
    m.put("ops_per_s", med(&Segment::ops_per_s));
    m.put(
        "op_ok_ratio",
        med(&|s| s.committed as f64 / s.attempted.max(1) as f64),
    );
    // CPU time is counted in 10 ms ticks, too coarse for one short
    // segment, so this one is pooled over the run.
    let cpu_s: f64 = segs.iter().map(|s| s.cpu_s).sum();
    let committed: u64 = segs.iter().map(|s| s.committed).sum();
    m.put("cpu_ms_per_op", cpu_s * 1e3 / committed as f64);
    let first = &segs[..segs.len().min(RSS_SEGMENTS)];
    m.put(
        "rss_peak_mb",
        median(&mut first.iter().map(|s| s.rss_peak_mb).collect::<Vec<_>>()),
    );
    m
}

/// Sum a run's segments into its outcome. A run's p99 sample count is
/// that of its thinnest segment.
pub fn outcome(segs: &[Segment], violations: Vec<gate::Violation>, metrics: Metrics) -> Outcome {
    for s in segs {
        eprintln!(
            "segment: {} committed of {} attempted in {:.2} s; {} beyond p99; \
             p50 {:.0} us, p99 {:.0} us, peak RSS {:.1} MB",
            s.committed,
            s.attempted,
            s.wall.as_secs_f64(),
            s.beyond_p99,
            s.p50_us,
            s.p99_us,
            s.rss_peak_mb
        );
    }
    Outcome {
        attempted: segs.iter().map(|s| s.attempted).sum(),
        failed: segs.iter().map(|s| s.failed).sum(),
        samples_beyond_p99: segs.iter().map(|s| s.beyond_p99).min().unwrap_or(0),
        violations,
        metrics,
    }
}

/// Claim one unit of a shared quota; false once it is spent.
pub fn take(quota: &AtomicUsize) -> bool {
    quota
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
        .is_ok()
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// The `runtime` and `version` layers from a `RuntimeStats` delta and the
/// process-wide version counters, per committed operation.
pub fn runtime_layer(m: &mut Metrics, rt: &RuntimeStats, parks: u64, gate_spins: u64, ops: f64) {
    let ops = ops.max(1.0);
    m.put("runtime.comps_per_op", rt.computations_spawned as f64 / ops);
    m.put(
        "runtime.handler_calls_per_op",
        rt.handler_calls as f64 / ops,
    );
    m.put(
        "runtime.admission_wait_us_per_op",
        rt.admission_wait.as_secs_f64() * 1e6 / ops,
    );
    m.put(
        "runtime.wait_wakeups_per_op",
        rt.version_wait_wakeups as f64 / ops,
    );
    m.put("version.parks_per_op", parks as f64 / ops);
    m.put("version.gate_spins_per_op", gate_spins as f64 / ops);
}

/// Write the recorder's spans to `<dir>/.bench_spans/<workload>.jsonl`.
/// A failure to write is reported and does not fail the run.
pub fn write_spans(dir: &Path, workload: &str, rec: &tap::Recorder) {
    let path = dir.join(".bench_spans").join(format!("{workload}.jsonl"));
    let res = std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rec.write_spans(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    if let Err(e) = res {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}

/// Run `workload` and return its outcome.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    if workload == "core-run" {
        return Some(core_run::run(seed, seconds, traced));
    }
    let spec = [kv::PUT_SEQ, kv::MIX_TCP, kv::MIX_LOSSY]
        .into_iter()
        .find(|s| s.name == workload)?;
    Some(kv::run(&spec, seed, seconds, traced))
}

/// Render the result line. Every metric of the selected table appears;
/// per-layer metrics a workload does not record read 0.
pub fn render(o: &Outcome, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.violations.is_empty(),
        o.attempted,
        o.failed
    );
    for (i, &(name, unit)) in table.iter().enumerate() {
        let v = o.metrics.get(name);
        assert!(traced || v.is_some(), "end-to-end metric {name} missing");
        let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this program
    /// reports, with the same units, and only workloads it runs.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let entries = |key: &str| -> Vec<(String, String)> {
            let mut v: Vec<(String, String)> = json
                .get(key)
                .and_then(|a| a.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap_or("");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            v.sort();
            v
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            let mut v: Vec<_> = t.iter().map(|&(n, u)| (n.into(), u.into())).collect();
            v.sort();
            v
        };
        assert_eq!(entries("end_to_end"), table(END_TO_END));
        assert_eq!(entries("per_layer"), table(PER_LAYER));
        for (w, _) in entries("workloads") {
            assert!(WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
        }
    }

    #[test]
    fn render_reports_every_metric_of_the_mode() {
        let mut m = Metrics::default();
        for &(n, _) in END_TO_END {
            m.put(n, 1.5);
        }
        let o = Outcome {
            attempted: 3,
            failed: 0,
            samples_beyond_p99: 0,
            violations: Vec::new(),
            metrics: m,
        };
        let line = render(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = render(&o, true);
        assert!(traced.contains("\"kv.applied_per_submitted\": {\"value\": 0.0"));
    }
}
