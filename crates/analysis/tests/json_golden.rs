//! Golden-file tests for the machine-readable `--json` report: the exact
//! bytes `streamgate-analyze --json` prints for every preset and for one
//! *rejected* multi-gateway deployment. The JSON is a stable interface
//! (CI and downstream tooling parse it), so any diff here is a deliberate
//! format change: rerun with `GOLDEN_UPDATE=1` to re-record, and review
//! the diff like an API change.

use std::path::PathBuf;
use streamgate_analysis::{analyze, DeploySpec};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with GOLDEN_UPDATE=1)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "JSON report for {name} diverged from the golden file — if the \
         change is intentional, re-record with GOLDEN_UPDATE=1"
    );
}

/// The rejected counterpart: pal2 with gw-back's configuration slot moved
/// onto gw-front's (A9 Error) and ch1-front's latency budget cut below the
/// idle-chain floor (A10 Error).
fn pal2_broken() -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    spec.name = "pal2-broken".into();
    spec.gateways[1].config_slot = Some((100, 200));
    spec.gateways[0].streams[0].max_latency = Some(30_000);
    spec
}

#[test]
fn pal2_accepted_json_matches_golden() {
    let report = analyze(&DeploySpec::pal2());
    assert!(report.is_accepted(), "{}", report.render_text());
    check_golden("pal2_accepted.json", &report.to_json_text());
}

#[test]
fn pal2_broken_rejected_json_matches_golden() {
    let report = analyze(&pal2_broken());
    assert!(!report.is_accepted(), "{}", report.render_text());
    check_golden("pal2_rejected.json", &report.to_json_text());
}

/// Every single-gateway preset of `streamgate-analyze`, with the exact
/// report the CLI prints for it (`streamgate-analyze <preset> --json`, less
/// the trailing newline). These presets run A2's exact buffer sizing, so the
/// goldens also pin its findings.
#[test]
fn preset_reports_match_golden() {
    for (spec, golden, accepted) in [
        (DeploySpec::pal_scaled(), "pal_accepted.json", true),
        (DeploySpec::fig6(), "fig6_accepted.json", true),
        (DeploySpec::fig9(true), "fig9-safe_rejected.json", false),
        (DeploySpec::fig9(false), "fig9-broken_rejected.json", false),
    ] {
        let report = analyze(&spec);
        assert_eq!(report.is_accepted(), accepted, "{}", report.render_text());
        check_golden(golden, &report.to_json_text());
    }
}

/// The golden inputs must themselves round-trip through the spec JSON —
/// the `--spec FILE` path of the CLI reads exactly what `to_json_text`
/// writes, multi-gateway keys included.
#[test]
fn golden_specs_roundtrip_through_spec_json() {
    for spec in [DeploySpec::pal2(), pal2_broken()] {
        let text = spec.to_json_text();
        let back = DeploySpec::from_json_text(&text).expect("reparse");
        assert_eq!(back.to_json_text(), text);
    }
}
