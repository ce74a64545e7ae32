//! Differential test for the incremental admission-control analyzer:
//! random join/leave/retune/mode-switch churn against multi-gateway
//! deployments, with the full analyzer as oracle at **every** step.
//!
//! The soundness contract of `analysis::incremental` is equivalence by
//! construction — `AnalysisState::apply` must produce, for every delta,
//! the verdict AND the byte-identical report a fresh full `analyze_with`
//! of the candidate deployment produces, while rejected deltas leave the
//! committed state untouched. This file enforces exactly that, plus
//! pinned regressions for the two historically delicate orderings:
//! reject-then-admit (a rejected request must not poison the cache) and
//! admit-during-reconfig-window (a splice while another stream is inside
//! its R_s window is legal by the append-only design).

mod common;

use common::{fast_options, random_multi_spec, Rng};
use proptest::prelude::*;
use streamgate_analysis::{
    analyze_with, AdmissionController, AnalysisState, Delta, DeploySpec, StreamDeploy, StreamMode,
    StreamModes,
};
use streamgate_ilp::Rational;
use streamgate_platform::StopWhen;

/// Reference mutation: apply `delta` to a spec the slow, obvious way.
fn apply_delta(spec: &DeploySpec, delta: &Delta) -> DeploySpec {
    let switch_cfg = if let Delta::ModeSwitch {
        gateway,
        stream,
        mode,
    } = delta
    {
        let decl = spec
            .modes
            .iter()
            .find(|m| m.gateway == *gateway && m.stream == *stream)
            .unwrap();
        let mut cfg = decl
            .modes
            .iter()
            .find(|m| m.name == *mode)
            .unwrap()
            .config
            .clone();
        cfg.name = stream.clone();
        Some(cfg)
    } else {
        None
    };
    let mut s = spec.clone();
    let streams = if s.gateways.is_empty() {
        &mut s.streams
    } else {
        &mut s.gateways[delta.gateway()].streams
    };
    match delta {
        Delta::AddStream { stream, .. } => streams.push(stream.clone()),
        Delta::RemoveStream { stream, .. } => {
            let i = streams.iter().position(|x| x.name == *stream).unwrap();
            streams.remove(i);
        }
        Delta::RetuneStream { stream, with, .. } => {
            let i = streams.iter().position(|x| x.name == *stream).unwrap();
            streams[i] = with.clone();
        }
        Delta::ModeSwitch { stream, .. } => {
            let i = streams.iter().position(|x| x.name == *stream).unwrap();
            streams[i] = switch_cfg.unwrap();
        }
    }
    s
}

/// One churn step decoded from proptest-drawn bytes. `op` selects
/// add/remove/retune, the rest parameterise the stream; rates span both
/// sides of the Eq. 5 feasibility boundary so the sequence mixes admits
/// and rejects.
fn decode_delta(
    spec: &DeploySpec,
    gamma: u64,
    counter: &mut usize,
    (op, gw_sel, st_sel, eta_sel, mu_sel): (u8, u8, u8, u8, u8),
) -> Delta {
    let n_views = spec.gateways.len().max(1);
    let gateway = gw_sel as usize % n_views;
    let existing: Vec<String> = if spec.gateways.is_empty() {
        spec.streams.iter().map(|s| s.name.clone()).collect()
    } else {
        spec.gateways[gateway]
            .streams
            .iter()
            .map(|s| s.name.clone())
            .collect()
    };
    let eta = 4 + eta_sel as u64 % 21;
    let make = |name: String| StreamDeploy {
        name,
        // η / (f·γ): f = 1 sits at the round bound (usually rejected
        // through A8 interference), larger f admits.
        mu: Rational::new(
            eta as i128,
            ((1 + mu_sel as u64 % 8) * gamma.max(1)) as i128,
        ),
        eta_in: eta,
        eta_out: eta,
        reconfig: st_sel as u64 % 40,
        input_capacity: 6 * eta,
        output_capacity: 8 * eta,
        max_latency: None,
    };
    // A declared mode switch is only decodable while the moded stream is
    // still deployed (churn may have removed it).
    let switchable = spec.modes.first().and_then(|decl| {
        let streams = if spec.gateways.is_empty() {
            &spec.streams
        } else {
            &spec.gateways.get(decl.gateway)?.streams
        };
        streams
            .iter()
            .any(|s| s.name == decl.stream)
            .then(|| (decl.gateway, decl.stream.clone(), decl.modes.clone()))
    });
    match op % 4 {
        1 if !existing.is_empty() => Delta::RemoveStream {
            gateway,
            stream: existing[st_sel as usize % existing.len()].clone(),
        },
        2 if !existing.is_empty() => {
            let target = existing[st_sel as usize % existing.len()].clone();
            Delta::RetuneStream {
                gateway,
                stream: target.clone(),
                with: make(target),
            }
        }
        3 if switchable.is_some() => {
            let (gateway, stream, modes) = switchable.unwrap();
            Delta::ModeSwitch {
                gateway,
                stream,
                mode: modes[mu_sel as usize % modes.len()].name.clone(),
            }
        }
        _ => {
            *counter += 1;
            Delta::AddStream {
                gateway,
                stream: make(format!("join{counter}")),
            }
        }
    }
}

/// Drive a churn sequence, checking incremental ≡ full at every step.
fn run_churn(seed: u64, steps: &[(u8, u8, u8, u8, u8)]) {
    let opts = fast_options();
    let mut rng = Rng::new(seed);
    let mut spec = random_multi_spec(&mut rng, seed as usize);
    // Declare a two-mode table on gateway 0's first stream so mode
    // switches join the churn mix: "base" is the committed configuration,
    // "burst" trades a longer reconfiguration window (different τ̂, γ and
    // A12/A13 figures) at the same rate. Transitions stay fully connected
    // so back-to-back switches in any order are legal.
    if let Some(slow) = spec.gateways.first().and_then(|g| g.streams.first()) {
        let slow = slow.clone();
        let mut burst = slow.clone();
        burst.reconfig += 16;
        spec.modes = vec![StreamModes {
            gateway: 0,
            stream: slow.name.clone(),
            modes: vec![
                StreamMode {
                    name: "base".into(),
                    config: slow,
                },
                StreamMode {
                    name: "burst".into(),
                    config: burst,
                },
            ],
            transitions: vec![],
        }];
    }
    let mut state = AnalysisState::new(spec.clone(), opts);
    let mut counter = 0;
    for &step in steps {
        let delta = decode_delta(&spec, state.report().gamma, &mut counter, step);
        let candidate = apply_delta(&spec, &delta);
        let full = analyze_with(&candidate, &opts);
        let verdict = state.apply(&delta).expect("decoded deltas are well-formed");

        // The heart of the contract: same Report, down to the JSON bytes.
        assert_eq!(verdict.report(), &full, "delta {}", delta.describe());
        assert_eq!(verdict.report().to_json_text(), full.to_json_text());
        assert_eq!(verdict.is_admitted(), full.is_accepted());

        if verdict.is_admitted() {
            spec = candidate;
        }
        // Admit or reject, the committed state must equal a from-scratch
        // analysis of the committed spec.
        assert_eq!(state.spec(), &spec);
        assert_eq!(state.report(), &analyze_with(&spec, &opts));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_matches_full_at_every_step(
        seed in 0u64..1_000_000,
        steps in proptest::collection::vec(
            (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..8),
    ) {
        run_churn(seed, &steps);
    }
}

/// Pinned regression: a rejected request must not poison the cached
/// facts — the next (admissible) request must still match the oracle.
#[test]
fn reject_then_admit_keeps_cache_sound() {
    let opts = fast_options();
    let mut state = AnalysisState::new(DeploySpec::pal2(), opts);
    let hog = StreamDeploy {
        name: "hog".into(),
        mu: Rational::new(1, 2),
        eta_in: 8,
        eta_out: 8,
        reconfig: 20,
        input_capacity: 64,
        output_capacity: 64,
        max_latency: None,
    };
    let probe = StreamDeploy {
        name: "probe".into(),
        mu: Rational::new(1, 1_000_000),
        ..hog.clone()
    };

    let v = state
        .apply(&Delta::AddStream {
            gateway: 1,
            stream: hog,
        })
        .unwrap();
    assert!(!v.is_admitted());
    assert_eq!(state.spec(), &DeploySpec::pal2());

    let v = state
        .apply(&Delta::AddStream {
            gateway: 1,
            stream: probe.clone(),
        })
        .unwrap();
    assert!(v.is_admitted());
    let mut full_spec = DeploySpec::pal2();
    full_spec.gateways[1].streams.push(probe);
    assert_eq!(v.report(), &analyze_with(&full_spec, &opts));
}

/// Pinned regression: an admitted splice while another stream sits inside
/// its reconfiguration window is legal — the splice is append-only, so the
/// in-flight block (and its τ bound) is untouched, and the system keeps
/// running to completion with the new stream live.
#[test]
fn admit_during_reconfig_window() {
    let spec = DeploySpec::pal2();
    let mut built = spec.build_multi_platform();

    // Start a block on gateway 0: fill ch1-front's input so a block is
    // admitted, then step into its R_s = 200 reconfiguration window.
    let eta = spec.gateways[0].streams[0].eta_in;
    let f = built.inputs[0][0];
    for k in 0..eta {
        built.system.fifos[f.0].try_push((k as f64, 0.0), 0);
    }
    built.system.run_until(1_000, StopWhen::GatewayBusy(0));
    built.system.run(50);
    assert!(
        !built.system.gateways[built.gateways[0]].is_idle(),
        "gateway 0 should be mid-block (reconfig window)"
    );

    let mut ctrl = AdmissionController::new(spec.clone(), fast_options());
    let probe = StreamDeploy {
        name: "probe".into(),
        mu: Rational::new(1, 1_000_000),
        eta_in: 8,
        eta_out: 8,
        reconfig: 20,
        input_capacity: 64,
        output_capacity: 64,
        max_latency: None,
    };
    let gateways = built.gateways.clone();
    let outcome = ctrl
        .request(
            &mut built.system,
            &gateways,
            &Delta::AddStream {
                gateway: 0,
                stream: probe,
            },
            None,
        )
        .unwrap();
    assert!(outcome.verdict.is_admitted());
    let idx = outcome.stream_index.unwrap();

    // The spliced stream is live: feed it and the original block both run
    // to completion.
    let (fin, _fout) = outcome.fifos.unwrap();
    for k in 0..8 {
        let now = built.system.cycle();
        built.system.fifos[fin.0].try_push((k as f64, 0.0), now);
    }
    built.system.run(200_000);
    let gw = &built.system.gateways[gateways[0]];
    assert!(gw.stream(0).blocks_done >= 1, "original block completed");
    assert!(
        gw.stream(idx).blocks_done >= 1,
        "spliced stream ran a block"
    );
}

/// A zero block size is a diagnostic, not a panic: the admission request
/// comes back as a `Reject` (A1), the running system is untouched and
/// keeps running.
#[test]
fn zero_eta_request_is_rejected_without_touching_the_system() {
    let spec = DeploySpec::pal2();
    let mut built = spec.build_multi_platform();
    built.system.run(1_000);
    let mut ctrl = AdmissionController::new(spec.clone(), fast_options());
    let gateways = built.gateways.clone();
    let streams = built.system.gateways[gateways[1]].num_streams();
    for (eta_in, eta_out) in [(0, 8), (0, 0), (8, 0)] {
        let zero = StreamDeploy {
            name: "zero".into(),
            mu: Rational::new(1, 1_000_000),
            eta_in,
            eta_out,
            reconfig: 20,
            input_capacity: 64,
            output_capacity: 64,
            max_latency: None,
        };
        let cycle = built.system.cycle();
        let outcome = ctrl
            .request(
                &mut built.system,
                &gateways,
                &Delta::AddStream {
                    gateway: 1,
                    stream: zero,
                },
                None,
            )
            .unwrap();
        assert!(
            !outcome.verdict.is_admitted(),
            "eta_in {eta_in}, eta_out {eta_out} must be rejected"
        );
        assert_eq!(
            built.system.cycle(),
            cycle,
            "a reject never runs the system"
        );
    }
    built.system.run(1_000);
    assert_eq!(built.system.gateways[gateways[1]].num_streams(), streams);
}
