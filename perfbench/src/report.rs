//! Metrics, output checks, spans and the result line.
//!
//! Every figure the harness prints goes through [`Metrics`], which keeps its
//! unit and whether it is host time, simulated time, a count or a ratio. The
//! last line of standard output is the result object; the full
//! detail (every metric with its kind, sample counts, seed, failures, spans)
//! goes to the artifact files under the output directory.

use std::time::Instant;
use streamgate_analysis::Json;

/// What a metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time (or a rate derived from it).
    Host,
    /// Simulated cycles or simulated-time quantities: exact and repeatable.
    Sim,
    /// A count of host-side operations, bytes or violations.
    Count,
    /// A dimensionless ratio.
    Ratio,
}

impl Kind {
    /// Stable name written into every output.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "simulated",
            Kind::Count => "count",
            Kind::Ratio => "ratio",
        }
    }
}

/// The end-to-end metrics: reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::Host),
    ("wall_s", "s", Kind::Host),
    ("peak_rss_mb", "MB", Kind::Host),
];

/// The per-layer metrics: reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reports 0 — no work, no time.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    // Workload-level figures of one measured (untraced) pass.
    ("sim_mcycles_per_s", "Mcycles/s", Kind::Host),
    ("verdict_s.pal", "s", Kind::Host),
    ("verdict_s.pal2", "s", Kind::Host),
    ("verdict_s.fig6", "s", Kind::Host),
    ("verdict_s.fig9-safe", "s", Kind::Host),
    ("verdict_s.fig9-broken", "s", Kind::Host),
    ("admit_p50_ms", "ms", Kind::Host),
    ("admit_p90_ms", "ms", Kind::Host),
    ("admit_samples", "count", Kind::Count),
    ("reject_p50_ms", "ms", Kind::Host),
    ("reject_p90_ms", "ms", Kind::Host),
    ("reject_samples", "count", Kind::Count),
    ("failed_frac", "ratio", Kind::Ratio),
    // platform: engine.
    ("platform.run_s", "s", Kind::Host),
    ("platform.full_steps", "cycles", Kind::Sim),
    ("platform.ring_only_cycles", "cycles", Kind::Sim),
    ("platform.skipped_cycles", "cycles", Kind::Sim),
    ("platform.ns_per_full_step", "ns", Kind::Host),
    ("platform.exhaustive_run_s", "s", Kind::Host),
    ("platform.speedup_vs_exhaustive", "ratio", Kind::Ratio),
    ("platform.trace_events", "count", Kind::Sim),
    ("platform.chrome_trace_s", "s", Kind::Host),
    ("platform.chrome_trace_bytes", "bytes", Kind::Count),
    // platform: tiles.
    ("platform.gateway.reconfig_cycles", "cycles", Kind::Sim),
    ("platform.gateway.dma_busy_cycles", "cycles", Kind::Sim),
    ("platform.gateway.idle_cycles", "cycles", Kind::Sim),
    ("platform.gateway.blocks_done", "count", Kind::Sim),
    ("platform.accel.busy_cycles", "cycles", Kind::Sim),
    ("platform.processor.busy_cycles", "cycles", Kind::Sim),
    ("platform.audio_samples", "count", Kind::Sim),
    // ring.
    ("ring.data.delivered", "count", Kind::Sim),
    ("ring.credit.delivered", "count", Kind::Sim),
    ("ring.data.max_latency_cycles", "cycles", Kind::Sim),
    ("ring.injection_stalls", "cycles", Kind::Sim),
    // dsp.
    ("dsp.reference_decode_s", "s", Kind::Host),
    ("dsp.reference_msamples_per_s", "Msamples/s", Kind::Host),
    // core.
    ("core.deploy.build_s", "s", Kind::Host),
    ("core.profile.collect_s", "s", Kind::Host),
    ("core.profile.bytes", "bytes", Kind::Count),
    ("core.attribution.collect_blame_s", "s", Kind::Host),
    ("core.attribution.blocks", "count", Kind::Sim),
    ("core.monitor.poll_s", "s", Kind::Host),
    ("core.monitor.violations", "count", Kind::Count),
    // ilp.
    ("ilp.blocksize_solve_s", "s", Kind::Host),
    // dataflow.
    ("dataflow.exact_buffers_s.pal", "s", Kind::Host),
    ("dataflow.exact_buffers_s.pal2", "s", Kind::Host),
    ("dataflow.exact_buffers_s.fig6", "s", Kind::Host),
    ("dataflow.exact_buffers_s.fig9-safe", "s", Kind::Host),
    ("dataflow.exact_buffers_s.fig9-broken", "s", Kind::Host),
    // analysis.
    ("analysis.rules_s.pal", "s", Kind::Host),
    ("analysis.rules_s.pal2", "s", Kind::Host),
    ("analysis.rules_s.fig6", "s", Kind::Host),
    ("analysis.rules_s.fig9-safe", "s", Kind::Host),
    ("analysis.rules_s.fig9-broken", "s", Kind::Host),
    ("analysis.report_json_s.pal", "s", Kind::Host),
    ("analysis.report_json_s.pal2", "s", Kind::Host),
    ("analysis.report_json_s.fig6", "s", Kind::Host),
    ("analysis.report_json_s.fig9-safe", "s", Kind::Host),
    ("analysis.report_json_s.fig9-broken", "s", Kind::Host),
    ("analysis.state_new_s", "s", Kind::Host),
    ("analysis.evaluate_ms.join", "ms", Kind::Host),
    ("analysis.evaluate_ms.small_join", "ms", Kind::Host),
    ("analysis.evaluate_ms.reject", "ms", Kind::Host),
    ("analysis.evaluate_ms.switch", "ms", Kind::Host),
    ("analysis.evaluate_ms.remove", "ms", Kind::Host),
    // admission.
    ("admission.commit_ms.join", "ms", Kind::Host),
    ("admission.commit_ms.small_join", "ms", Kind::Host),
    ("admission.commit_ms.switch", "ms", Kind::Host),
    ("admission.commit_ms.remove", "ms", Kind::Host),
    ("admission.sim_advance_cycles", "cycles", Kind::Sim),
    ("admission.admitted", "count", Kind::Count),
    ("admission.rejected", "count", Kind::Count),
    ("admission.transition_margin_cycles", "cycles", Kind::Sim),
    // bench: the harness itself.
    ("bench.trace_overhead_frac", "ratio", Kind::Ratio),
    ("bench.span_coverage_frac", "ratio", Kind::Ratio),
];

/// A percentile is reported only when at least this many samples lie
/// beyond it, so it is not set by one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Smallest of `samples`, or infinity when there are none.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A pass's time with host interference taken out: the sum, over the
/// pass's fixed segments, of each segment's fastest time across `passes`
/// (each a list of segment times, in the same order in every pass).
///
/// On a shared host the cores slow down by up to 2x in phases that last
/// from milliseconds to minutes, and a segment of a few milliseconds far
/// more often meets a quiet moment than a pass of a second does. Noise
/// only ever adds time, so each segment's fastest time is its cost.
///
/// # Panics
///
/// Panics when the passes have different segment counts.
pub fn fastest_segments(passes: &[Vec<f64>]) -> f64 {
    let n = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == n),
        "every pass has the same segments"
    );
    (0..n)
        .map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One named figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `cycles`.
    pub unit: &'static str,
    /// Host time, simulated, count or ratio.
    pub kind: Kind,
}

/// An ordered set of metrics; setting a name twice keeps the last value.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Set `name` to `value`, taking unit and kind from the metric tables
    /// ([`END_TO_END`], [`PER_LAYER`]).
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table: every figure must be declared.
    pub fn set(&mut self, name: &str, value: f64) {
        let (_, unit, kind) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        let m = Metric {
            name: name.to_string(),
            value,
            unit,
            kind: *kind,
        };
        match self.0.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.0.push(m),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `table`'s metrics in table order, 0 for any not set.
    pub fn select(&self, table: &[(&str, &str, Kind)]) -> Metrics {
        let mut out = Metrics::default();
        for (name, _, _) in table {
            out.set(name, self.get(name).unwrap_or(0.0));
        }
        out
    }
}

/// Output checks, counted per operation: an operation fails when any of
/// its checks fails.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one checked operation with its failure messages (empty when
    /// every check passed).
    pub fn record(&mut self, op: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                if self.failures.len() < 20 {
                    self.failures.push(format!("{op}: {f}"));
                }
            }
        }
    }
}

/// Push `msg()` onto `failures` unless `ok`.
pub fn expect(failures: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        failures.push(msg());
    }
}

/// One recorded span: a timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `platform.run`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span; pass it back to [`Spans::end`].
#[must_use]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

impl Open {
    /// The span's id, when the recorder keeps spans.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

/// Span recorder. Disabled, it only times: `end` still returns the elapsed
/// seconds, but nothing is kept.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled` decides whether spans are kept.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.done.len();
            self.done.push(Span {
                id,
                parent: self.open.last().copied(),
                name: name.to_string(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(id);
            id
        });
        Open { id, start }
    }

    /// Close `span` and return its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when `span` is not the innermost open span.
    pub fn end(&mut self, span: Open) -> f64 {
        let now = Instant::now();
        if let Some(id) = span.id {
            assert_eq!(self.open.pop(), Some(id), "spans must nest");
            self.done[id].end_ns = (now - self.origin).as_nanos() as u64;
        }
        (now - span.start).as_secs_f64()
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let s = self.begin(name);
        let out = f();
        (out, self.end(s))
    }

    /// Total seconds of the spans named `name` that lie inside span `root`.
    pub fn total_under(&self, root: usize, name: &str) -> f64 {
        self.done
            .iter()
            .filter(|s| s.name == name && self.is_under(s.id, root))
            .map(Span::secs)
            .sum()
    }

    /// Share of span `root`'s duration covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let covered: u64 = self
            .done
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let r = &self.done[root];
        covered as f64 / (r.end_ns - r.start_ns).max(1) as f64
    }

    fn is_under(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.done[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.done
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("id", Json::Int(s.id as i128)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                        ),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Int(s.start_ns as i128)),
                        ("end_ns", Json::Int(s.end_ns as i128)),
                    ])
                })
                .collect(),
        )
    }
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed line {line:?}"))?;
    Ok(kb / 1024.0)
}

fn metrics_json(m: &Metrics, with_kind: bool) -> Json {
    Json::Object(
        m.0.iter()
            .map(|x| {
                let mut fields = vec![
                    ("value", Json::Float(x.value)),
                    ("unit", Json::Str(x.unit.to_string())),
                ];
                if with_kind {
                    fields.push(("kind", Json::Str(x.kind.name().to_string())));
                }
                (x.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, each
/// metric as `{"value", "unit"}`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Int(checks.attempted as i128)),
        ("failed", Json::Int(checks.failed as i128)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .to_text()
}

/// The detail artifact: every metric with unit and kind, plus `extra`
/// workload fields (seed, sample counts, failures).
pub fn detail_json(checks: &Checks, metrics: &Metrics, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Int(checks.attempted as i128)),
        ("failed", Json::Int(checks.failed as i128)),
        (
            "failures",
            Json::Array(checks.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics_json(metrics, true)),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed metric name: `[A-Za-z0-9_.-]+`, at most 64 long,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        // 99 samples: rank 90 leaves only 9 above it.
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn fastest_segments_sums_each_segments_fastest() {
        let passes = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5]];
        assert_eq!(fastest_segments(&passes), 7.0);
        assert_eq!(fastest_segments(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("bad name") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the harness");
        let doc = streamgate_analysis::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u, _)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the harness table");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::default();
        m.set("wall_s", 0.123_456_789_012);
        m.set("setup_s", 1e-7);
        m.set("peak_rss_mb", 42.0);
        let mut checks = Checks::default();
        checks.record("op", vec![]);
        checks.record("op", vec!["boom".into()]);
        let line = result_line(&checks, &m);
        let v = streamgate_analysis::json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = v.get("metrics").unwrap();
        for x in &m.0 {
            let got = metrics.get(&x.name).unwrap();
            let value = match got.get("value").unwrap() {
                Json::Float(f) => *f,
                other => panic!("value is not a float: {other:?}"),
            };
            assert_eq!(value, x.value, "{} lost digits", x.name);
            assert_eq!(got.get("unit").and_then(Json::as_str), Some(x.unit));
        }
        assert_eq!(v.to_text(), line);
    }

    #[test]
    fn spans_nest_and_cover() {
        let mut s = Spans::new(true);
        let root = s.begin("pass");
        let ((), _) = s.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ((), _) = s.time("a", || ());
        s.end(root);
        assert_eq!(s.done.len(), 3);
        assert_eq!(s.done[1].parent, Some(0));
        assert!(s.total_under(0, "a") >= 0.002);
        assert!(s.coverage(0) > 0.0 && s.coverage(0) <= 1.0);
        let mut off = Spans::new(false);
        let ((), secs) = off.time("a", || ());
        assert!(secs >= 0.0);
        assert!(off.done.is_empty());
    }
}
