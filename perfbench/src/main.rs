//! Host-time benchmark of the streamgate workspace.
//!
//! ```text
//! streamgate-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Workloads (see `README.md` beside this crate for why each exists):
//!
//! * `pal-decode` — the PAL platform on the span engine with the flight
//!   recorder on: `System::run`, `Monitor::poll`, audio drain; its traced
//!   run also times the profiled run (event engine), `collect_profile`,
//!   `collect_blame` and `chrome_trace_json`;
//! * `analyze-presets` — `analyze_with` plus the JSON report on the five
//!   analyzer presets;
//! * `analyze-pal` — the same on `pal` and `pal2` only, where A2's exact
//!   search costs next to nothing;
//! * `admission-churn` — a seeded closed-loop admission script against a
//!   live pal2 system, A2-bound small-block joins included;
//! * `admission-light` — a quarter of that script with no small-block
//!   joins, repeated.
//!
//! With `--trace 0` the passes run untraced and the result line carries the
//! end-to-end metrics; with `--trace 1` a separate traced pass wraps every
//! layer call in a span and the result line carries the per-layer metrics.
//! Either way every output check runs, and the last line of standard output
//! is the result object. The full detail (every metric with unit and kind,
//! seed, sample counts, failures) and, when traced, the spans are written
//! under `--out` (default `perfbench/out`).

mod churn;
mod pal;
mod presets;
mod report;

use report::{Checks, Metrics, Spans, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use streamgate_analysis::Json;

/// The seed used when none is given, and the one results are quoted at.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning: claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 2;

const USAGE: &str = "usage: streamgate-perfbench --workload \
                     pal-decode|analyze-presets|analyze-pal|admission-churn|admission-light \
                     [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Span-engine PAL decode.
    PalDecode,
    /// Analyzer verdicts on the five presets.
    AnalyzePresets,
    /// Analyzer verdicts on pal and pal2.
    AnalyzePal,
    /// Closed-loop online admission on a live pal2 system.
    AdmissionChurn,
    /// The admission script without A2-bound joins.
    AdmissionLight,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "pal-decode" => Workload::PalDecode,
            "analyze-presets" => Workload::AnalyzePresets,
            "analyze-pal" => Workload::AnalyzePal,
            "admission-churn" => Workload::AdmissionChurn,
            "admission-light" => Workload::AdmissionLight,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PalDecode => "pal-decode",
            Workload::AnalyzePresets => "analyze-presets",
            Workload::AnalyzePal => "analyze-pal",
            Workload::AdmissionChurn => "admission-churn",
            Workload::AdmissionLight => "admission-light",
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds; a started pass always completes.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Directory for the detail and span files.
    pub out: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = "perfbench/out".to_string();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            "--out" => out = value()?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so different inputs
    /// drawn from one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a 64-bit digest, for byte-identity checks on large artifacts.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a workload hands back.
pub struct Outcome {
    /// Every figure the workload measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Output checks.
    pub checks: Checks,
    /// The span recorder (empty unless traced).
    pub spans: Spans,
    /// Workload-specific detail fields (sample counts, script summary).
    pub extra: Vec<(&'static str, Json)>,
}

/// Run `pass` repeatedly until `budget` seconds have elapsed and it has
/// run at least `min_passes` times (and at least once), returning each
/// pass's result.
pub fn repeat_for<T>(budget: f64, min_passes: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = std::time::Instant::now();
    let mut out = vec![pass()];
    while out.len() < min_passes || start.elapsed().as_secs_f64() < budget {
        out.push(pass());
    }
    out
}

/// Time `n` back-to-back runs of `setup` and return the fastest.
///
/// Each workload times one such block before its measured passes and one
/// after them, and reports the fastest set-up of both as `setup_s` (where a
/// pass starts with the same set-up, those times count too): a shared host
/// only ever adds time, and the samples lie seconds apart, so a slow
/// stretch of the host rarely covers them all.
pub fn time_setups(n: usize, mut setup: impl FnMut()) -> f64 {
    (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            setup();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload {
        Workload::PalDecode => pal::run(&args),
        Workload::AnalyzePresets => presets::run(&args, &presets::ALL),
        Workload::AnalyzePal => presets::run(&args, &presets::PAL),
        Workload::AdmissionChurn => churn::run(&args, churn::CHURN),
        Workload::AdmissionLight => churn::run(&args, churn::LIGHT),
    };
    let rss = match report::peak_rss_mb() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    outcome.metrics.set("peak_rss_mb", rss);
    let c = &outcome.checks;
    outcome
        .metrics
        .set("failed_frac", c.failed as f64 / c.attempted.max(1) as f64);
    if let Some(bad) = outcome.metrics.0.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not finite: {}", bad.name, bad.value);
        return ExitCode::from(1);
    }

    let seed_role = match args.seed {
        DEFAULT_SEED => "default",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    };
    let mut extra = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed as i128)),
        ("seed_role", Json::Str(seed_role.into())),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ];
    extra.append(&mut outcome.extra);
    let detail = report::detail_json(&outcome.checks, &outcome.metrics, extra);
    let stem = format!(
        "{}/{}-seed{}-trace{}",
        args.out,
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut files = vec![(format!("{stem}.json"), detail.to_text())];
    if args.trace {
        files.push((
            format!("{stem}-spans.json"),
            outcome.spans.to_json().to_text(),
        ));
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out);
        return ExitCode::from(1);
    }
    for (path, text) in &files {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }

    println!(
        "workload {} seed {} ({seed_role}) trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &outcome.metrics.0 {
        println!(
            "  {:<40} {:>18.9} {:<10} {}",
            m.name,
            m.value,
            m.unit,
            m.kind.name()
        );
    }
    for f in &outcome.checks.failures {
        println!("  FAILED {f}");
    }
    println!(
        "  checks: {} operation(s), {} failed; detail in {stem}.json",
        outcome.checks.attempted, outcome.checks.failed
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        report::result_line(&outcome.checks, &outcome.metrics.select(table))
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = parse(&[
            "--workload",
            "admission-churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::AdmissionChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "pal-decode", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "pal-decode", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "pal-decode", "--frob"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_harness_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the harness");
        let doc = streamgate_analysis::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), 5);
        for w in listed {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let parsed = Workload::parse(name).unwrap_or_else(|| panic!("unknown {name}"));
            assert_eq!(parsed.name(), name);
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(1, 0), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(1, 0), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(2, 0), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
