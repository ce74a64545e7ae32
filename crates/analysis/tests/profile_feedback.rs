//! The profiling/monitoring feedback loop, end to end:
//!
//! * the online monitor, armed with analyzer bounds via `monitor_for`,
//!   flags the Fig. 9 head-of-line wedge *during* the run (with the right
//!   stream and cycle), polled between fixed-length run legs;
//! * a clean check-for-space-enabled run keeps the monitor silent;
//! * `RunProfile` JSON round-trips bit-exactly through `parse_profile`;
//! * the profile JSON schema for the `pal` preset is pinned by a golden
//!   file (re-record with `GOLDEN_UPDATE=1`).

use std::path::PathBuf;
use streamgate_analysis::{
    analyze, analyze_profiled, monitor_for, parse_profile, AnalysisOptions, DeploySpec,
};
use streamgate_core::{collect_profile, Monitor, ViolationKind};
use streamgate_platform::{StallCause, StepMode, System};

const ENGINES: [StepMode; 2] = [StepMode::Exhaustive, StepMode::EventDriven];

/// Build the spec's platform with profiling on and every input prefilled.
fn saturated_profiled(spec: &DeploySpec, mode: StepMode) -> streamgate_core::BuiltSystem {
    let mut b = spec.build_platform();
    b.system.step_mode = mode;
    b.system.enable_profiling(0);
    for (i, s) in spec.streams.iter().enumerate() {
        for k in 0..s.input_capacity {
            if !b.push_input(i, (k as f64, 0.5)) {
                break;
            }
        }
    }
    b
}

/// Run `system` in fixed-length legs for up to `budget` cycles, polling
/// `monitor` after each leg; returns `true` as soon as it reports a
/// violation.
fn run_monitored(system: &mut System, monitor: &mut Monitor, budget: u64) -> bool {
    const LEG: u64 = 64;
    let end = system.cycle() + budget;
    while system.cycle() < end {
        system.run(LEG.min(end - system.cycle()));
        if monitor.poll(&system.tracer) > 0 {
            return true;
        }
    }
    false
}

/// The cycle at which the (still open) exit-FIFO-full stall started, from
/// the tracer's own records — the ground truth the monitor must match.
fn open_exit_stall_start(system: &System) -> Option<u64> {
    system
        .tracer
        .open_stalls()
        .iter()
        .find(|w| w.1 == StallCause::ExitFifoFull)
        .map(|w| w.2)
}

/// Fig. 9 with the check-for-space admission test disabled: stream 1's
/// block wedges in the shared chain and head-of-line-blocks stream 0. The
/// monitor must flag it mid-run — before the cycle budget runs out — with
/// the wedged stream and the stall's start cycle, on both engines.
#[test]
fn monitor_flags_fig9_wedge_mid_run_with_stream_and_cycle() {
    let spec = DeploySpec::fig9(false);
    let report = analyze(&spec);
    assert!(
        !report.is_accepted(),
        "A5 must reject the unchecked variant"
    );
    for mode in ENGINES {
        let mut b = saturated_profiled(&spec, mode);
        let mut monitor = monitor_for(&spec, &report, &b.system);
        let budget = 20_000;
        let stopped = run_monitored(&mut b.system, &mut monitor, budget);
        assert!(
            stopped,
            "({mode:?}) monitor never fired within {budget} cycles"
        );
        assert!(
            b.system.cycle() < budget,
            "({mode:?}) violation must surface before the run ends"
        );
        let v = monitor
            .violations()
            .iter()
            .find(|v| v.kind == ViolationKind::HeadOfLineBlocking)
            .unwrap_or_else(|| panic!("({mode:?}) no head-of-line violation reported"));
        assert_eq!(v.gateway, Some(0), "({mode:?}) wrong gateway");
        assert_eq!(
            v.stream,
            Some(1),
            "({mode:?}) the wedged block belongs to stream 1 (s1): {v}"
        );
        let start = open_exit_stall_start(&b.system)
            .expect("the wedge keeps an exit-fifo-full stall window open");
        assert_eq!(
            v.cycle, start,
            "({mode:?}) violation cycle must be the stall's start cycle"
        );
    }
}

/// The safe variant: with the admission test enabled the wedge cannot
/// form, the monitored run goes to exhaustion on both engines, and the
/// monitor stays silent over the whole trace.
#[test]
fn monitor_stays_silent_on_fig9_with_space_check() {
    let spec = DeploySpec::fig9(true);
    let report = analyze(&spec);
    let mut blocks_by_engine = Vec::new();
    for mode in ENGINES {
        let mut b = saturated_profiled(&spec, mode);
        let mut monitor = monitor_for(&spec, &report, &b.system);
        let stopped = run_monitored(&mut b.system, &mut monitor, 20_000);
        assert!(!stopped, "({mode:?}) monitor fired on a safe run: {:?}", {
            monitor.violations()
        });
        b.system.finish_trace();
        monitor.poll(&b.system.tracer);
        assert!(
            monitor.is_clean(),
            "({mode:?}) violations after finish: {:?}",
            monitor.violations()
        );
        blocks_by_engine.push(
            (0..spec.streams.len())
                .map(|s| b.blocks_done(s))
                .collect::<Vec<_>>(),
        );
        // s1's undersized consumer FIFO means its block is never admitted
        // (that is exactly how the check excludes the wedge) — but s0 must
        // stream freely instead of starving behind it.
        assert!(
            blocks_by_engine.last().unwrap()[0] > 0,
            "({mode:?}) stream 0 starved despite the admission test"
        );
    }
    assert_eq!(
        blocks_by_engine[0], blocks_by_engine[1],
        "engines disagree under a monitored run"
    );
}

/// `RunProfile` → JSON → `parse_profile` is the identity, so the analyzer
/// sees exactly what the simulator measured.
#[test]
fn profile_json_roundtrips_through_parser() {
    let spec = DeploySpec::fig6();
    let mut b = saturated_profiled(&spec, StepMode::Exhaustive);
    b.system.run(20_000);
    let profile = collect_profile(&mut b.system, &spec.name);
    let text = profile.to_json_text();
    let back = parse_profile(&text).expect("parse back");
    assert_eq!(profile, back);
    assert_eq!(back.to_json_text(), text);
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The profile JSON schema for the `pal` preset, pinned byte-for-byte: a
/// fixed 40 000-cycle exhaustive saturated run of the pal deployment. Any
/// diff is a deliberate schema/measurement change — re-record with
/// `GOLDEN_UPDATE=1` and review it like an API change.
#[test]
fn pal_profile_json_matches_golden() {
    let spec = DeploySpec::pal_scaled();
    let mut b = saturated_profiled(&spec, StepMode::Exhaustive);
    b.system.run(40_000);
    let profile = collect_profile(&mut b.system, "pal");
    let actual = profile.to_json_text();

    let path = golden_path("pal_profile.json");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, &actual).unwrap();
    } else {
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e} (run with GOLDEN_UPDATE=1)",
                path.display()
            )
        });
        assert_eq!(
            actual, expected,
            "pal RunProfile JSON diverged from the golden file — if the \
             change is intentional, re-record with GOLDEN_UPDATE=1"
        );
    }

    // The measured profile must also feed back cleanly: same acceptance,
    // refinement diagnostics only.
    let report = analyze_profiled(&spec, &AnalysisOptions::default(), Some(&profile));
    assert!(report.is_accepted(), "{}", report.render_text());
}
