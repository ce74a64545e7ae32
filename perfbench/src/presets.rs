//! `analyze-presets` and `analyze-pal`: what `streamgate-analyze <preset>
//! --json` does — `analyze_with(AnalysisOptions::default())` and the JSON
//! report — on every preset, or on `pal` and `pal2` only.
//!
//! A pass analyzes each of its presets once. Passes repeat until the
//! budget is used up; an analyze-presets pass takes tens of seconds (A2's
//! exact buffer search), so it runs once, while analyze-pal runs hundreds.
//! `wall_s` sums each preset's fastest verdict (see [`fastest_segments`]).
//!
//! The traced pass also runs `analyze_with(exact_buffers: false)` per
//! preset, so A2's exact buffer search can be separated from every other
//! rule: `dataflow.exact_buffers_s.<preset>` is the full analysis minus the
//! rules-only one.

use crate::report::{expect, fastest, fastest_segments, median, Checks, Metrics, Spans};
use crate::{digest, repeat_for, time_setups, Args, Outcome};
use std::hint::black_box;
use streamgate_analysis::{analyze_with, AnalysisOptions, DeploySpec, Json};

/// Preset name, expected verdict, and the FNV-1a digest of its JSON report
/// as recorded at the commit that introduced this benchmark.
const EXPECTED: [(&str, bool, u64); 5] = [
    ("pal", true, 0x4b90_de85_1179_1ea3),
    ("pal2", true, 0x987c_50e1_ba75_9aac),
    ("fig6", true, 0x3a24_b005_df9f_35bf),
    ("fig9-safe", false, 0x9b57_b68f_ec72_4f35),
    ("fig9-broken", false, 0xcfc7_5109_d9af_4b0a),
];

/// analyze-presets: every preset.
pub const ALL: [&str; 5] = ["pal", "pal2", "fig6", "fig9-safe", "fig9-broken"];
/// analyze-pal: the presets A2's exact search leaves alone.
pub const PAL: [&str; 2] = ["pal", "pal2"];

/// Set-ups per timed block (see [`time_setups`]): a few tenths of a second
/// of them, so that each block spans some quiet moments of the host.
const SETUPS: usize = 200_000;

fn spec(name: &str) -> DeploySpec {
    match name {
        "pal" => DeploySpec::pal_scaled(),
        "pal2" => DeploySpec::pal2(),
        "fig6" => DeploySpec::fig6(),
        "fig9-safe" => DeploySpec::fig9(true),
        "fig9-broken" => DeploySpec::fig9(false),
        other => unreachable!("unknown preset {other}"),
    }
}

/// Host seconds of one preset in one pass.
struct PresetTimes {
    /// Analysis plus JSON report: what the user waits for.
    verdict: f64,
    /// `analyze_with(AnalysisOptions::default())`.
    analyze: f64,
    /// `Report::to_json_text`.
    json: f64,
    /// `analyze_with(exact_buffers: false)`; traced pass only.
    rules: f64,
}

/// Timings of one pass.
struct Pass {
    wall_s: f64,
    presets: Vec<PresetTimes>,
    coverage: f64,
}

/// Set-up: construct the presets' specs.
fn build(names: &[&str]) -> Vec<DeploySpec> {
    names.iter().map(|n| spec(n)).collect()
}

fn pass(
    names: &[&str],
    specs: &[DeploySpec],
    traced: bool,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Pass {
    let root = spans.begin("pass");
    let root_id = root.id();
    let mut presets = Vec::new();
    for (name, spec) in names.iter().zip(specs) {
        let (_, accept, want) = EXPECTED
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("every preset has a recorded verdict");
        let v = spans.begin(&format!("verdict.{name}"));
        let (report, analyze) = spans.time(&format!("analysis.analyze_with.{name}"), || {
            analyze_with(spec, &AnalysisOptions::default())
        });
        let (text, json) = spans.time(&format!("analysis.report_json.{name}"), || {
            report.to_json_text()
        });
        let verdict = spans.end(v);
        // The rules-only probe runs after the verdict, so the verdict is
        // timed exactly as in the untraced pass.
        let rules = if traced {
            let opts = AnalysisOptions {
                exact_buffers: false,
            };
            let (r, secs) = spans.time(&format!("analysis.rules_only.{name}"), || {
                analyze_with(spec, &opts)
            });
            black_box(r);
            secs
        } else {
            0.0
        };
        let mut f = Vec::new();
        expect(&mut f, report.is_accepted() == *accept, || {
            format!("verdict {} (expected {})", report.is_accepted(), accept)
        });
        let got = digest(text.as_bytes());
        expect(&mut f, got == *want, || {
            format!("report digest {got:#018x} differs from the recorded {want:#018x}")
        });
        checks.record(name, f);
        presets.push(PresetTimes {
            verdict,
            analyze,
            json,
            rules,
        });
    }
    let wall_s = spans.end(root);
    let coverage = root_id.map_or(0.0, |r| spans.coverage(r));
    Pass {
        wall_s,
        presets,
        coverage,
    }
}

/// Run the workload on `names`: untraced passes for the budget, then, with
/// `--trace 1`, traced passes for as long again (the budget is halved).
pub fn run(args: &Args, names: &[&str]) -> Outcome {
    let specs = build(names);
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.trace);
    let time_setup = || {
        black_box(build(names));
    };
    let mut setups = vec![time_setups(SETUPS, time_setup)];
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Spans::new(false);
    let untraced = repeat_for(budget, 1, || {
        pass(names, &specs, false, &mut off, &mut checks)
    });
    setups.push(time_setups(SETUPS, time_setup));
    m.set("setup_s", fastest(&setups));
    let verdicts: Vec<Vec<f64>> = untraced
        .iter()
        .map(|p| p.presets.iter().map(|t| t.verdict).collect())
        .collect();
    m.set("wall_s", fastest_segments(&verdicts));
    let untraced_wall = fastest(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let med = |passes: &[Pass], i: usize, f: fn(&PresetTimes) -> f64| {
        median(&passes.iter().map(|p| f(&p.presets[i])).collect::<Vec<_>>())
    };
    for (i, name) in names.iter().enumerate() {
        m.set(
            &format!("verdict_s.{name}"),
            med(&untraced, i, |t| t.verdict),
        );
    }
    if args.trace {
        let traced = repeat_for(budget, 1, || {
            pass(names, &specs, true, &mut spans, &mut checks)
        });
        for (i, name) in names.iter().enumerate() {
            let rules = med(&traced, i, |t| t.rules);
            m.set(&format!("analysis.rules_s.{name}"), rules);
            m.set(
                &format!("analysis.report_json_s.{name}"),
                med(&traced, i, |t| t.json),
            );
            m.set(
                &format!("dataflow.exact_buffers_s.{name}"),
                med(&traced, i, |t| t.analyze) - rules,
            );
        }
        m.set(
            "bench.span_coverage_frac",
            median(&traced.iter().map(|p| p.coverage).collect::<Vec<_>>()),
        );
        // The traced pass also runs the rules-only analysis; that work is
        // part of what tracing costs here.
        let traced_wall = fastest(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        m.set(
            "bench.trace_overhead_frac",
            traced_wall / untraced_wall - 1.0,
        );
    }
    Outcome {
        metrics: m,
        checks,
        spans,
        extra: vec![
            ("setups", Json::Int(2 * SETUPS as i128)),
            ("passes", Json::Int(untraced.len() as i128)),
        ],
    }
}
