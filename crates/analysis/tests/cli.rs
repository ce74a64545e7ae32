//! Integration tests for the `streamgate-analyze` exit-code contract and
//! the `--delta` incremental-admission mode.
//!
//! The contract (documented in the binary's `--help`): exit 0 when the
//! deployment is accepted — Warnings and Infos alone never fail a run —
//! and exit 2 when it is rejected or the invocation itself is unusable.
//! Exit 1 is reserved for crashes, so CI can distinguish "analyzer said
//! no" from "analyzer broke".

use std::process::Command;

fn analyze(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_streamgate-analyze"))
        .args(args)
        .output()
        .expect("spawn streamgate-analyze")
}

#[test]
fn accepted_deployment_exits_zero() {
    let out = analyze(&["pal2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict: ACCEPTED"), "{text}");
}

#[test]
fn warning_only_deployment_exits_zero() {
    // fig6 with the check-for-space admission test disabled but buffers
    // sized carries an A5 Warning and no Error: warnings must not fail
    // the run.
    let mut spec = streamgate_analysis::DeploySpec::fig6();
    spec.check_for_space = false;
    let report = streamgate_analysis::analyze(&spec);
    assert!(report.is_accepted(), "{}", report.render_text());
    assert!(
        report
            .with_severity(streamgate_analysis::Severity::Warning)
            .count()
            > 0,
        "fixture must carry a warning:\n{}",
        report.render_text()
    );

    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("warn-only.json");
    std::fs::write(&file, spec.to_json_text()).unwrap();

    let out = analyze(&["--spec", file.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("warning"), "expected warnings in:\n{text}");
    assert!(text.contains("verdict: ACCEPTED"), "{text}");
    assert_eq!(out.status.code(), Some(0), "{text}");
}

#[test]
fn rejected_deployment_exits_two() {
    let out = analyze(&["fig9-broken"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("verdict: REJECTED"), "{text}");
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(analyze(&["--spec"]).status.code(), Some(2));
    assert_eq!(analyze(&["no-such-preset"]).status.code(), Some(2));
    assert_eq!(analyze(&["--bogus-flag"]).status.code(), Some(2));
    assert_eq!(
        analyze(&["--delta", "/nonexistent/deltas.json", "pal2"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn delta_mode_replays_churn_and_reports_final_state() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("deltas.json");
    let timing = dir.join("timing.json");
    std::fs::write(
        &script,
        r#"{"deltas": [
            {"op": "add", "gateway": 1, "stream": {"name": "probe", "mu": [1, 1000000],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}},
            {"op": "add", "gateway": 1, "stream": {"name": "hog", "mu": [1, 2],
             "eta_in": 8, "eta_out": 8, "reconfig": 20,
             "input_capacity": 64, "output_capacity": 64}},
            {"op": "remove", "gateway": 1, "stream": "probe"}
        ]}"#,
    )
    .unwrap();

    let out = analyze(&[
        "--delta",
        script.to_str().unwrap(),
        "--timing",
        timing.to_str().unwrap(),
        "pal2",
    ]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("delta 0: add probe @ gateway 1 -> admit"),
        "{text}"
    );
    assert!(
        text.contains("delta 1: add hog @ gateway 1 -> reject"),
        "{text}"
    );
    assert!(
        text.contains("delta 2: remove probe @ gateway 1 -> admit"),
        "{text}"
    );
    // Final committed deployment is the baseline again: accepted, exit 0
    // even though one request along the way was rejected.
    assert!(text.contains("verdict: ACCEPTED"), "{text}");
    assert_eq!(out.status.code(), Some(0), "{text}");

    let timing_text = std::fs::read_to_string(&timing).unwrap();
    assert!(timing_text.contains("\"incremental_ns\""), "{timing_text}");
    assert!(timing_text.contains("\"full_ns\""), "{timing_text}");
    assert!(timing_text.contains("\"speedup\""), "{timing_text}");
}

#[test]
fn postmortem_mode_renders_dump_against_spec_bounds() {
    // Produce a real flight-recorder dump: the Fig. 9 wedge observed with
    // the recorder only (full tracing off), monitor armed post-hoc.
    let spec = streamgate_analysis::DeploySpec::fig9(false);
    let report = streamgate_analysis::analyze(&spec);
    let mut b = spec.build_platform();
    b.system.enable_flight_recorder(1024);
    for (i, s) in spec.streams.iter().enumerate() {
        for k in 0..s.input_capacity {
            if !b.push_input(i, (k as f64, 0.5)) {
                break;
            }
        }
    }
    b.system.run(2_000);
    let mut monitor = streamgate_analysis::monitor_for(&spec, &report, &b.system);
    assert!(monitor.poll(&b.system.tracer) > 0, "wedge must trip");
    let pm = streamgate_core::collect_postmortem(&b.system, &monitor, &spec.name);

    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("postmortem.json");
    std::fs::write(&file, pm.to_json_text()).unwrap();

    // Rendering a dump that documents a failure is itself a success (exit
    // 0); the explanation must name the violation and the blame component
    // that exceeded its predicted ceiling.
    let out = analyze(&["--postmortem", file.to_str().unwrap(), "fig9-broken"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("postmortem of deployment"), "{text}");
    assert!(text.contains("head-of-line"), "{text}");
    assert!(text.contains("EXCEEDED"), "{text}");

    // An unreadable dump is a usage error.
    assert_eq!(
        analyze(&["--postmortem", "/nonexistent/pm.json", "fig9-broken"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn delta_mode_exits_two_when_final_state_rejected() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("bad-script.json");
    // A malformed script (unknown stream) is a usage error.
    std::fs::write(
        &script,
        r#"{"deltas": [{"op": "remove", "gateway": 1, "stream": "nope"}]}"#,
    )
    .unwrap();
    let out = analyze(&["--delta", script.to_str().unwrap(), "pal2"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// A zero block size in a delta script is rejected with a diagnostic, not
/// a crash (exit 101): the request reads `-> reject` and the run ends on
/// the still-accepted baseline.
#[test]
fn zero_eta_delta_is_rejected_not_a_crash() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (eta_in, eta_out) in [(0, 8), (0, 0), (8, 0)] {
        let script = dir.join(format!("zero-eta-{eta_in}-{eta_out}.json"));
        std::fs::write(
            &script,
            format!(
                r#"{{"deltas": [
                {{"op": "add", "gateway": 1, "stream": {{"name": "z", "mu": [1, 1000000],
                 "eta_in": {eta_in}, "eta_out": {eta_out}, "reconfig": 20,
                 "input_capacity": 64, "output_capacity": 64}}}}
            ]}}"#
            ),
        )
        .unwrap();
        let out = analyze(&["--delta", script.to_str().unwrap(), "pal2"]);
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            text.contains("delta 0: add z @ gateway 1 -> reject"),
            "{out:?}"
        );
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
}

/// A spec file whose stream has a zero block size is rejected: exit 2.
#[test]
fn zero_eta_spec_file_exits_two() {
    let dir = std::env::temp_dir().join("streamgate-analyze-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (eta_in, eta_out) in [(0, 8), (0, 0), (8, 0)] {
        let mut spec = streamgate_analysis::DeploySpec::pal2();
        spec.gateways[1].streams[0].eta_in = eta_in;
        spec.gateways[1].streams[0].eta_out = eta_out;
        let file = dir.join(format!("zero-eta-spec-{eta_in}-{eta_out}.json"));
        std::fs::write(&file, spec.to_json_text()).unwrap();
        let out = analyze(&["--spec", file.to_str().unwrap()]);
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("verdict: REJECTED"), "{out:?}");
        assert_eq!(out.status.code(), Some(2), "{out:?}");
    }
}
